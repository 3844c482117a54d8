import json

import numpy as np
import pytest

from fdzeros import (
    ALL_PROPERTIES,
    Property,
    SuiteConfig,
    analyze,
    classify_real,
    gn,
    make_poly,
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


def test_suite_default_passes():
    report = run_suite(SuiteConfig(trials=4))
    assert report.passed, [r.name for r in report.records if r.failures]


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
