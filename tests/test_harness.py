import inspect
import json
import math

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
    random_hyperbolic,
    random_line_poly,
    random_preserver,
    random_strip_operator,
    replay,
    report_to_json,
    roots,
    run_properties,
    run_suite,
)
from fdzeros import harness, rootfind


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(degree_max=1)


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


def test_replay_known_property():
    prop = next(p for p in ALL_PROPERTIES if p.name == "tb_scaling")
    cfg = SuiteConfig(trials=1, seed=5)
    inst = prop.generate(cfg, np.random.default_rng([cfg.seed, prop.stream]))[0]
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


def _instances(prop, cfg):
    return prop.generate(cfg, np.random.default_rng([cfg.seed, prop.stream]))


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
        instances = _instances(prop, cfg)
        got = harness._run_checks(prop.check, instances)
        _assert_same_outcomes(got, [_sequential(prop.check, inst) for inst in instances])


def _count_rounds(monkeypatch) -> list:
    # Per round of harness._run_checks, appended as it is answered: the
    # distinct row widths (degree + 1) of its rootable items and the number
    # of engine calls made to answer it.
    calls, rounds = [], []
    core, many = rootfind._aberth_core, harness._certified_many

    def counted_core(c):
        calls.append(len(c))
        return core(c)

    def counted_many(items):
        before = len(calls)
        out = many(items)
        widths = {x.shape[1] if isinstance(x, np.ndarray) else x.degree + 1
                  for x in items if isinstance(x, np.ndarray) or x.degree}
        rounds.append((widths, len(calls) - before))
        return out

    monkeypatch.setattr(rootfind, "_aberth_core", counted_core)
    monkeypatch.setattr(harness, "_certified_many", counted_many)
    return rounds


def test_converted_properties_make_one_engine_call_per_degree_per_round(monkeypatch):
    rounds = _count_rounds(monkeypatch)
    cfg = SuiteConfig(seed=42, trials=20)
    for prop in ALL_PROPERTIES:
        if prop.name not in ROOT_FINDING:
            continue
        instances = _instances(prop, cfg)
        yields = []
        for inst in instances:
            requests = []
            _sequential(prop.check, inst, requests)
            yields.append(len(requests))
        rounds.clear()
        harness._run_checks(prop.check, instances)
        assert len(rounds) == max(yields), prop.name
        for degrees, n_calls in rounds:
            assert n_calls == len(degrees), prop.name


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
    # polynomial of the same width; one engine call per width and round.
    prop = Property("array_errors", 993, _gen_array_errors, _chk_array_errors)
    instances = _gen_array_errors(None, None)
    want = [_sequential(prop.check, inst) for inst in instances]
    assert [type(w).__name__ for w in want] == [
        "float", "NonConvergence", "NonConvergence", "float", "NonConvergence",
        "ConstantPolynomial", "float"]
    assert want[3] > 0.5
    rounds = _count_rounds(monkeypatch)
    _assert_same_outcomes(harness._run_checks(prop.check, instances), want)
    # widths 5, 6, 9 (an array and a polynomial), 97; then 1, 7, 9, 97, 98
    assert [n_calls for _, n_calls in rounds] == [4, 5]
    assert all(n_calls == len(widths) for widths, n_calls in rounds)
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
