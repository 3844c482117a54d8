import inspect
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from fdzeros import (
    ALL_PROPERTIES,
    ConstantPolynomial,
    FDZerosError,
    NonConvergence,
    Property,
    SuiteConfig,
    analyze,
    classify_real,
    gn,
    make_poly,
    mesh,
    pencil_hyperbolic_sample,
    random_hyperbolic,
    random_line_poly,
    random_preserver,
    random_strip_operator,
    replay,
    report_to_json,
    residual_sweep,
    roots,
    run_properties,
    run_suite,
)
from fdzeros import asymptotics, harness, rootfind


def test_config_validation():
    # Every config accepted here must run: run_suite seeds numpy with seed,
    # which takes no negative value.
    for field, value in [("trials", 0), ("seed", -1)]:
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            SuiteConfig(**{field: value})
    report = run_suite(SuiteConfig(seed=0, trials=1))
    assert len(report.records) == len(ALL_PROPERTIES)


def test_random_hyperbolic():
    rng = np.random.default_rng(0)
    assert random_hyperbolic(1, (0.0, 0.0), rng) == make_poly([0, 1])
    p = random_hyperbolic(3, (-5.0, 5.0), rng)
    assert p.degree == 3 and p.coeffs[-1] == 1
    assert classify_real(roots(p), 1e-10).is_real_rooted


def test_random_line_poly():
    rng = np.random.default_rng(1)
    p = random_line_poly(1, 0.0, (-5.0, 5.0), rng)
    assert classify_real(roots(p), 1e-10).is_real_rooted
    # roots {1+i, -1+i} expand to x^2 - 2ix - 2
    q = random_line_poly(2, 1.0, (-5.0, 5.0), rng)
    for r in roots(q).roots:
        assert r.imag == pytest.approx(1.0, abs=1e-10)


def test_random_operators():
    rng = np.random.default_rng(2)
    for m in (1, 2, 3):
        v = analyze(random_preserver(m, rng))
        assert v.hyperbolicity_preserver
        vs = analyze(random_strip_operator(m, rng))
        assert vs.strip_preserver and not vs.hyperbolicity_preserver


def test_property_registry():
    names = [p.name for p in ALL_PROPERTIES]
    assert len(names) == len(set(names))
    streams = [p.stream for p in ALL_PROPERTIES]
    assert len(streams) == len(set(streams))
    assert len(ALL_PROPERTIES) >= 25


def test_suite_trials_one():
    cfg = SuiteConfig(trials=1, seed=7)
    report = run_suite(cfg)
    assert all(r.trials == 1 for r in report.records)
    # report ordered by property name
    names = [r.name for r in report.records]
    assert names == sorted(names)


def test_suite_deterministic():
    cfg = SuiteConfig(trials=2, seed=11)
    a = json.dumps(report_to_json(run_suite(cfg)), sort_keys=True)
    b = json.dumps(report_to_json(run_suite(cfg)), sort_keys=True)
    assert a == b


def test_suite_pass_evaluates_no_residual_and_fits_no_decay(monkeypatch):
    # No checker reads a RootSet's residuals or a sweep's fitted decay, so a
    # pass computes neither: both are computed on first read
    read = []
    evaluate_many, fit_decay = rootfind.evaluate_many, asymptotics._fit_decay
    monkeypatch.setattr(rootfind, "evaluate_many",
                        lambda *args: read.append("residuals") or evaluate_many(*args))
    monkeypatch.setattr(asymptotics, "_fit_decay",
                        lambda *args: read.append("decay") or fit_decay(*args))
    report = run_properties(SuiteConfig(seed=42, trials=20), ALL_PROPERTIES)
    assert len(report.records) == len(ALL_PROPERTIES)
    assert read == []


@pytest.mark.parametrize("seed", [42, 7])
def test_instances_do_not_depend_on_the_trial_count(seed):
    # instance k is the same at any trial count: test_acceptance's per-property
    # counts and replays of a recorded instance at another count rely on it
    for prop in ALL_PROPERTIES:
        few = harness._instances(prop, SuiteConfig(seed=seed, trials=5))
        many = harness._instances(prop, SuiteConfig(seed=seed, trials=20))
        assert len(few) == 5 and len(many) == 20, prop.name
        assert json.dumps(few) == json.dumps(many[:5]), prop.name


def test_injected_failure_is_replayable():
    def gen(cfg, rng):
        return [{"x": float(rng.uniform(0, 1))} for _ in range(cfg.trials)]

    def chk(inst):
        return inst["x"] - 0.5  # fails whenever x > 0.5

    broken = Property("injected_break", 999, gen, chk)
    report = run_properties(SuiteConfig(trials=10, seed=3), [broken])
    rec = report.records[0]
    assert rec.failures > 0
    assert rec.example_failure is not None
    # the serialized instance replays to the same violation
    assert chk(rec.example_failure) == pytest.approx(rec.worst_violation, abs=1.0)
    assert chk(rec.example_failure) > 0


def test_typed_error_is_a_failing_instance():
    # A checker whose root-find cannot be certified (gn(96)'s roots fail the
    # forward certificate) fails that instance instead of aborting the run.
    def gen(cfg, rng):
        return [{"n": n} for n in (8, 96, 12, 96)]

    def chk(inst):
        roots(gn(inst["n"], 0.7, 1.0))
        return -1.0

    report = run_properties(SuiteConfig(seed=6), [Property("uncertified", 998, gen, chk)])
    rec = report.records[0]
    assert (rec.trials, rec.failures) == (4, 2)
    assert rec.example_failure == {"n": 96}
    assert rec.worst_violation == -1.0
    assert not report.passed

    only_errors = Property("only_errors", 997, lambda cfg, rng: [{"n": 96}], chk)
    d = report_to_json(run_properties(SuiteConfig(seed=6), [only_errors]))
    assert d["properties"][0]["worst_violation"] is None
    json.dumps(d, allow_nan=False)


def test_instances_hold_only_their_draws():
    # A setting copied into every instance (a tolerance, a step count, a
    # fixed polynomial) is the same in all 20; the checker states it, so a
    # replay is judged by the checker's bound.  Walsh checkers take the
    # frame from deg P.
    cfg = SuiteConfig(seed=42, trials=20)
    for prop in ALL_PROPERTIES:
        instances = harness._instances(prop, cfg)
        for key in instances[0]:
            values = {json.dumps(inst[key]) for inst in instances}
            assert len(values) > 1, (prop.name, key)
        if prop.generate is harness._walsh_pair:
            assert all(set(inst) == {"p", "q"} for inst in instances), prop.name
    # an instance recorded with the old keys still replays: checkers ignore
    # keys they do not read
    coeffs = [-0.31717018939740305, -0.3905216285501729, -0.01188126181961735,
              1.7084490350406316, 0.31863799548182925, 1.806293758135722,
              0.21014983772322182, 1.0]
    old = {"poly": {"coeffs": [[c, 0.0] for c in coeffs]},
           "theta": 2.725286143090016, "steps": 8, "order": 1}
    assert replay("asym_omega_bound", old) == 1.0


def test_replay_known_property():
    prop = next(p for p in ALL_PROPERTIES if p.name == "tb_scaling")
    cfg = SuiteConfig(trials=1, seed=5)
    inst = harness._instances(prop, cfg)[0]
    assert replay("tb_scaling", inst) <= 0
    with pytest.raises(KeyError):
        replay("no_such_property", {})


def test_report_json_shape():
    d = report_to_json(run_suite(SuiteConfig(trials=1)))
    assert set(d) == {"config", "properties", "total_failures", "passed"}
    for rec in d["properties"]:
        assert set(rec) == {"name", "trials", "failures", "worst_violation",
                            "example_failure"}


# ---------------------------------------------------------------------------
# generator checkers: the batched driver against one root-find at a time

ROOT_FINDING = {
    "roots_product_multiset", "mesh_translation_invariant", "derivative_mesh_grows",
    "op_preserver_sound", "op_strip_sound", "tb_closed_form_roots",
    "tb_image_real_simple", "tb_mesh_floor", "tb_mesh_monotone", "tb_extremal_bounds",
    "tb_line_lemma", "walsh_hyperbolicity_closure", "walsh_mesh_bound",
    "walsh_interval_bound", "walsh_apolarity_duality", "interlace_obreschkov_agreement",
    "asym_omega_bound", "asym_order_hierarchy",
}


def _sequential(check, inst, requests=None):
    """Reference driver: each yield is answered by roots() on one polynomial
    after another, or by aberth_batch on one coefficient array after
    another, and the first error is thrown in.  Returns the checker's value
    or the exception it raised; appends each request to requests."""
    try:
        got = check(inst)
        if not inspect.isgenerator(got):
            return got
        request = got.send(None)
        while True:
            if requests is not None:
                requests.append(request)
            try:
                answer = [rootfind.aberth_batch(x) if isinstance(x, np.ndarray) else roots(x)
                          for x in request]
            except FDZerosError as exc:
                request = got.throw(exc)
            else:
                request = got.send(answer)
    except StopIteration as stop:
        return stop.value
    except Exception as exc:
        return exc


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, Exception):
            assert (type(g), str(g)) == (type(w), str(w)), k
            if isinstance(w, NonConvergence):
                assert np.array_equal(g.best.view(np.uint64), w.best.view(np.uint64))
                assert np.array_equal(g.residuals.view(np.uint64),
                                      w.residuals.view(np.uint64))
        else:
            assert not isinstance(g, Exception), (k, g)
            assert float(g) == float(w) or (math.isnan(g) and math.isnan(w)), k


def test_generator_checkers_are_the_root_finding_properties():
    assert {p.name for p in ALL_PROPERTIES
            if inspect.isgeneratorfunction(p.check)} == ROOT_FINDING


@pytest.mark.parametrize("seed", [42, 0, 1, 2, 3, 4, 5])
def test_batched_checks_match_one_root_find_at_a_time(seed):
    # every property at the reference seed; the root-finding ones at six
    # more, since a plain checker runs the same call in both drivers
    cfg = SuiteConfig(seed=seed, trials=20)
    for prop in ALL_PROPERTIES:
        if seed != 42 and prop.name not in ROOT_FINDING:
            continue
        instances = harness._instances(prop, cfg)
        got = harness._run_checks(prop.check, instances)
        _assert_same_outcomes(got, [_sequential(prop.check, inst) for inst in instances])


def _count_rounds(monkeypatch) -> list:
    # Per round of rootfind._run_requests, appended as it is answered: the
    # rows per degree of its items that can be root-found, and the rows per
    # degree of each engine call made to answer it.
    calls, rounds = [], []
    core, many = rootfind._aberth_core, rootfind._certified_many

    def counted_core(c, deg):
        calls.append(Counter(deg.tolist()))
        return core(c, deg)

    def counted_many(items):
        before = len(calls)
        out = many(items)
        degrees = Counter()
        for x in items:
            if isinstance(x, np.ndarray) and x.shape[1] > 1:
                degrees[x.shape[1] - 1] += len(x)
            elif not isinstance(x, np.ndarray) and x.degree:
                degrees[x.degree] += 1
        rounds.append((degrees, calls[before:]))
        return out

    monkeypatch.setattr(rootfind, "_aberth_core", counted_core)
    monkeypatch.setattr(rootfind, "_certified_many", counted_many)
    return rounds


def test_converted_properties_make_one_engine_call_per_round(monkeypatch):
    rounds = _count_rounds(monkeypatch)
    cfg = SuiteConfig(seed=42, trials=20)
    for prop in ALL_PROPERTIES:
        if prop.name not in ROOT_FINDING:
            continue
        instances = harness._instances(prop, cfg)
        yields = []
        for inst in instances:
            requests = []
            _sequential(prop.check, inst, requests)
            yields.append(len(requests))
        rounds.clear()
        harness._run_checks(prop.check, instances)
        assert len(rounds) == max(yields), prop.name
        for degrees, calls in rounds:
            # every width of the round in one call, on the round's rows
            assert calls == [degrees], prop.name


def test_suite_pass_root_finds_only_through_the_driver(monkeypatch):
    # Every root-find of a suite pass is a request to the driver: no roots()
    # call (140 when analyze, simplicity_margin, extremal_bounds and
    # walsh_interval_bound called it), and every engine call comes from
    # _certified_many, one call for each of the pass's 32 rounds (205 calls
    # on the same rows when each width of a round had its own).  roots is
    # wrapped in every module that holds it.  The pencil's sign certificate
    # keeps most of its real directions from the engine (217 calls on
    # 24,964 rows before it, and before each tb_image_real_simple image was
    # root-found once instead of twice).
    calls = {"roots": 0, "engine": 0, "rows": 0}
    callers = set()  # code objects that called the engine
    original, core = rootfind.roots, rootfind._aberth_core

    def counted_roots(p):
        calls["roots"] += 1
        return original(p)

    def counted_core(c, deg):
        callers.add(sys._getframe(1).f_code)
        calls["engine"] += 1
        calls["rows"] += len(c)
        return core(c, deg)

    _wrap_in_every_module(monkeypatch, original, counted_roots)
    monkeypatch.setattr(rootfind, "_aberth_core", counted_core)
    run_suite(SuiteConfig(seed=42, trials=20))
    assert calls == {"roots": 0, "engine": 32, "rows": 2396}
    assert callers == {rootfind._certified_many.__code__}


def _wrap_in_every_module(monkeypatch, original, wrapper):
    # replace original by wrapper in every fdzeros module that holds it
    for name, module in list(sys.modules.items()):
        if name == "fdzeros" or name.startswith("fdzeros."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def test_sweep_and_cancelled_pencil_root_find_only_through_the_driver(monkeypatch):
    # residual_sweep requests p for its matching floor (it called
    # sweep_h_floor, so roots(p), first), and the pencil requests a direction
    # that cancels the leading coefficient exactly (it called roots on it):
    # neither calls roots or roots_many, in any module.
    calls = []
    for original in (rootfind.roots, rootfind.roots_many):
        def counted(arg, _original=original):
            calls.append(_original.__name__)
            return _original(arg)

        _wrap_in_every_module(monkeypatch, original, counted)
    rep = residual_sweep(make_poly([5, -1, 2, 1]), 0.7, 20.0, 500.0, 7, 1)
    assert len(rep.records) == 3 * 7
    # the first sampled direction at seed 0 leaves s*c*(x^2 + 1), not
    # real-rooted, which alone (n_samples = 1) decides the verdict
    phi = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 1)[0]
    s, c = math.sin(phi), math.cos(phi)
    p = make_poly([s * a for a in (0.0, 2.0, -3.0, 1.0)])
    q = make_poly([-c * a for a in (-1.0, 2.0, -4.0, 1.0)])
    assert pencil_hyperbolic_sample(p, q, 1, seed=0) is False
    assert calls == []


def test_tb_image_real_simple_root_finds_each_image_once(monkeypatch):
    # The checker hands its image's roots to the simplicity margin, so a
    # pass root-finds each instance's P and image once: 2 rows an instance
    # (3 when the margin root-found the image again).
    rows = []
    core = rootfind._aberth_core

    def counted_core(c, deg):
        rows.append(len(c))
        return core(c, deg)

    monkeypatch.setattr(rootfind, "_aberth_core", counted_core)
    prop = next(p for p in ALL_PROPERTIES if p.name == "tb_image_real_simple")
    report = run_properties(SuiteConfig(seed=42, trials=20), [prop])
    assert report.passed
    assert sum(rows) == 2 * 20


def _gen_errors(cfg, rng):
    # round 1 root-finds gn(n), round 2 the polynomial `second` and gn(third)
    return [{"n": 8, "second": [1.0, 2.0, 1.0], "third": 9},
            {"n": 1, "second": [1.0, 1.0], "third": 2},
            {"n": 96, "second": [1.0, 1.0], "third": 4},
            {"n": 6, "second": [0.0], "third": 96},
            {"n": 5, "second": [3.0], "third": 6},
            {"n": 7, "second": [2.0, 1.0], "third": 96},
            {"plain": True}]


def _chk_errors(inst):
    if inst.get("plain"):
        return -2.0
    return _chk_errors_rounds(inst)


def _chk_errors_rounds(inst):
    rs, = yield [gn(inst["n"], 0.7, 1.0)]
    m = mesh(rs)  # TooFewRoots for n = 1, between the two rounds
    try:
        rs2, rs3 = yield [make_poly(inst["second"]), gn(inst["third"], 0.7, 1.0)]
    except ConstantPolynomial:
        return 0.5
    return -m / (1.0 + len(rs2.roots) + len(rs3.roots))


def test_thrown_errors_match_one_root_find_at_a_time(monkeypatch):
    # errors thrown in at either round, one caught by the checker, and a
    # plain checker's value beside them
    prop = Property("thrown_errors", 995, _gen_errors, _chk_errors)
    instances = _gen_errors(None, None)
    want = [_sequential(prop.check, inst) for inst in instances]
    assert [type(w).__name__ for w in want] == [
        "float", "TooFewRoots", "NonConvergence", "ZeroPolynomial", "float",
        "NonConvergence", "float"]
    assert want[4] == 0.5
    _assert_same_outcomes(harness._run_checks(prop.check, instances), want)
    rec = run_properties(SuiteConfig(seed=1), [prop]).records[0]
    assert (rec.trials, rec.failures, rec.example_failure) == (7, 5, instances[1])
    assert rec.worst_violation == 0.5
    monkeypatch.setattr(harness, "ALL_PROPERTIES", ALL_PROPERTIES + (prop,))
    for inst, w in zip(instances, want):
        if isinstance(w, Exception):
            with pytest.raises(type(w), match=f"^{str(w)}$"):
                replay("thrown_errors", inst)
        else:
            assert replay("thrown_errors", inst) == w


def _pencil_rows(n, k, seed):
    # k directions of the pencil of gn(n, 0.7, 1) and gn(n, 0.7, 1.5), one
    # coefficient row each; n = 0 gives constant rows, which no engine takes
    if n == 0:
        return np.ones((k, 1))
    p, q = gn(n, 0.7, 1.0).as_array().real, gn(n, 0.7, 1.5).as_array().real
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, k)
    return np.cos(phi)[:, None] * p[None, :] + np.sin(phi)[:, None] * q[None, :]


def _gen_array_errors(cfg, rng):
    # round 1 yields one array per degree of `first` (or, with "poly", the
    # polynomial gn(first[0])), round 2 one per degree of `second`; the
    # rows of degree 96 and 97 fail the forward certificate
    return [{"first": [4, 8], "second": [6]},
            {"first": [8, 96], "second": [5]},
            {"first": [96, 4], "second": [4]},
            {"first": [4], "second": [8, 96], "catch": True},
            {"first": [5], "second": [96, 97]},
            {"first": [4], "second": [0]},
            {"first": [8], "second": [], "poly": True}]


def _chk_array_errors(inst):
    if inst.get("poly"):
        first = [np.array(rs.roots) for rs in (yield [gn(inst["first"][0], 0.7, 1.0)])]
    else:
        first = yield [_pencil_rows(n, 7, n) for n in inst["first"]]
    try:
        second = yield [_pencil_rows(n, 5, n + 1) for n in inst["second"]]
    except NonConvergence as exc:
        if inst.get("catch"):  # only an error thrown in at the second yield
            return 0.5 + float(np.sum(exc.residuals))
        raise
    return -sum(float(np.sum(np.abs(z.imag))) for z in first + second)


def test_array_request_errors_match_aberth_batch_one_array_at_a_time(monkeypatch):
    # Failing arrays in either round, beside certified arrays and a
    # polynomial of the same width; one engine call per round, on every
    # row of the round that can be root-found.
    prop = Property("array_errors", 993, _gen_array_errors, _chk_array_errors)
    instances = _gen_array_errors(None, None)
    want = [_sequential(prop.check, inst) for inst in instances]
    assert [type(w).__name__ for w in want] == [
        "float", "NonConvergence", "NonConvergence", "float", "NonConvergence",
        "ConstantPolynomial", "float"]
    assert want[3] > 0.5
    rounds = _count_rounds(monkeypatch)
    _assert_same_outcomes(harness._run_checks(prop.check, instances), want)
    # degrees 4, 5, 8 (arrays and a polynomial), 96; then 6, 8, 96, 97 from
    # the instances that round 1 did not fail (the constant rows of degree 0
    # never reach the engine; each degree had its own call, and degree 0 one
    # that raised, when calls went by width)
    assert [calls for _, calls in rounds] == [
        [{4: 28, 8: 15, 96: 14, 5: 7}], [{6: 5, 8: 5, 96: 10, 97: 5}]]
    assert all(calls == [degrees] for degrees, calls in rounds)
    rec = run_properties(SuiteConfig(seed=1), [prop]).records[0]
    assert (rec.trials, rec.failures, rec.example_failure) == (7, 5, instances[1])
    assert rec.worst_violation == want[3]
    monkeypatch.setattr(harness, "ALL_PROPERTIES", ALL_PROPERTIES + (prop,))
    for inst, w in zip(instances, want):
        if isinstance(w, Exception):
            with pytest.raises(type(w), match=f"^{str(w)}$") as got:
                replay("array_errors", inst)
            _assert_same_outcomes([got.value], [w])
        else:
            assert replay("array_errors", inst) == w


def test_other_exceptions_propagate_in_instance_order():
    def gen(cfg, rng):
        return [{"k": 0}, {"k": 1}, {"k": 2}]

    def chk(inst):
        rs, = yield [make_poly([1.0, 2.0, 1.0])]
        if inst["k"] == 2:
            raise KeyError("first round")
        rs, = yield [make_poly([1.0, 1.0])]
        raise ValueError(f"second round, instance {inst['k']}")

    with pytest.raises(ValueError, match="instance 0"):
        run_properties(SuiteConfig(seed=1), [Property("raises", 994, gen, chk)])
