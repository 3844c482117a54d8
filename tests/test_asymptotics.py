import io
import math

import numpy as np
import pytest

from fdzeros import (
    ALL_PROPERTIES,
    AsymptoticReport,
    DegreeTooSmall,
    InvalidInput,
    MatchAmbiguity,
    RootRecord,
    SuiteConfig,
    actual_roots,
    evaluate_many,
    from_roots,
    make_poly,
    monic_head,
    monomial,
    poly_from_json,
    predict_roots,
    qn,
    qn_zeros,
    report_summary,
    report_to_csv,
    residual_sweep,
    sweep_h_floor,
)
from fdzeros import asymptotics


def test_monic_head():
    head = monic_head(make_poly([5, -1, 2, 1]))  # x^3 + 2x^2 - x + 5
    assert head.n == 3
    assert head.a == 2 and head.b == -1 and head.c == 5
    head2 = monic_head(make_poly([7, 3, 2]))  # 2x^2 + 3x + 7
    assert head2.a == pytest.approx(1.5)
    assert head2.c == 0
    with pytest.raises(DegreeTooSmall):
        monic_head(make_poly([1, 1]))


def test_predict_monomial_square():
    head = monic_head(monomial(2))
    for order in (0, 1, 2):
        pred = predict_roots(head, math.pi / 2, 3.0, order)
        assert np.allclose(sorted(pred.real), [-3, 3], atol=1e-12)


def test_predict_x2_plus_1():
    # order 1 at theta = pi/2: X = +-h -+ 1/(2h); exact roots are +-sqrt(h^2-1)
    head = monic_head(make_poly([1, 0, 1]))
    h = 7.0
    pred = np.sort(predict_roots(head, math.pi / 2, h, 1).real)
    want = np.array([-(h - 1 / (2 * h)), h - 1 / (2 * h)])
    assert np.allclose(pred, want, atol=1e-12)
    exact = math.sqrt(h * h - 1)
    assert abs(pred[1] - exact) == pytest.approx(1 / (8 * h ** 3), rel=0.05)


def test_predict_cubic_order0():
    # x^3 + x^2 at theta = 0: grid +-1/sqrt(3), shift -a/n = -1/3
    head = monic_head(make_poly([0, 0, 1, 1]))
    pred = np.sort(predict_roots(head, 0.0, 2.0, 0).real)
    s3 = 1 / math.sqrt(3)
    assert np.allclose(pred, [-2 * s3 - 1 / 3, 2 * s3 - 1 / 3], atol=1e-12)


def test_predict_validation():
    head = monic_head(monomial(2))
    with pytest.raises(InvalidInput):
        predict_roots(head, 0.5, 1.0, 3)
    with pytest.raises(InvalidInput):
        predict_roots(head, 0.5, -1.0, 1)


def test_predict_roots_equals_direct_formula():
    # The expansion written out at one h, each term in the order of the
    # module docstring; the h-independent terms are shared across a sweep,
    # and the result must not change by a bit.
    rng = np.random.default_rng(8)
    for k in range(30):
        n = int(rng.integers(2, 9))
        head = monic_head(make_poly(rng.uniform(-2, 2, size=n).tolist() + [1.0]))
        theta = 0.0 if k % 5 == 0 else float(rng.uniform(0.2, 2.9))
        h = float(rng.uniform(5.0, 80.0))
        xs = np.sort(np.array(qn_zeros(n, theta).zeros))
        want = [xs * h - head.a / n]
        den = evaluate_many(qn(n - 1, theta), xs)
        coef1 = head.a**2 * (n - 1) / (2.0 * n * n) - head.b / n
        want.append(want[0] + coef1 * evaluate_many(qn(n - 2, theta), xs) / den / h)
        coef2 = (-head.a**3 * (n - 1) * (n - 2) / (3.0 * n**3)
                 + head.a * head.b * (n - 2) / (n * n) - head.c / n)
        want.append(want[1] + coef2 * evaluate_many(qn(n - 3, theta), xs) / den / (h * h)
                    if n >= 3 else want[1])
        for order in (0, 1, 2):
            got = predict_roots(head, theta, h, order)
            assert np.array_equal(got, want[order]), (k, order)


def test_actual_roots_examples():
    got = actual_roots(monomial(2), math.pi / 2, 2.0)
    assert np.allclose(got.real, [-2, 2], atol=1e-12)
    got = actual_roots(make_poly([1, 0, 1]), math.pi / 2, 5.0)
    assert np.allclose(got.real, [-math.sqrt(24), math.sqrt(24)], atol=1e-10)
    got = actual_roots(monomial(3), 0.0, 1.0)
    s3 = 1 / math.sqrt(3)
    assert np.allclose(got.real, [-s3, s3], atol=1e-10)


def test_sweep_x2_plus_1_closed_form():
    p = make_poly([1, 0, 1])
    rep = residual_sweep(p, math.pi / 2, 10.0, 1000.0, 15, 1)
    # closed-form oracle: residual = |sqrt(h^2-1) - (h - 1/(2h))| ~ 1/(8h^3)
    for r in rep.records:
        assert r.residual == pytest.approx(1 / (8 * r.h ** 3), rel=0.2)
    assert -3.2 < rep.fitted_decay < -2.8
    assert rep.n == 2 and rep.order == 1


def test_sweep_pure_monomial_machine_zero():
    rep = residual_sweep(monomial(2), math.pi / 2, 10.0, 100.0, 5, 1)
    assert max(r.residual for r in rep.records) < 1e-9


def test_sweep_generic_rates():
    p = make_poly([5, -1, 2, 1])
    rep1 = residual_sweep(p, 0.7, 20.0, 500.0, 15, 1)
    assert -2.2 <= rep1.fitted_decay <= -1.8
    rep2 = residual_sweep(p, 0.7, 20.0, 500.0, 15, 2)
    assert -3.3 <= rep2.fitted_decay <= -2.7


def test_sweep_floor_enforced():
    p = from_roots([-3.0, 1.0, 4.0])
    floor = sweep_h_floor(p)
    assert floor == pytest.approx(2 * (1 + 4.0), rel=1e-6)
    with pytest.raises(InvalidInput):
        residual_sweep(p, 0.7, floor / 2, floor * 10, 5, 1)
    with pytest.raises(InvalidInput):
        residual_sweep(p, 0.7, 50.0, 20.0, 5, 1)
    with pytest.raises(InvalidInput):
        residual_sweep(p, 0.7, 20.0, 50.0, 1, 1)


def test_order_hierarchy_on_benchmark():
    p = make_poly([5, -1, 2, 1])
    reps = [residual_sweep(p, 0.7, 30.0, 300.0, 6, order) for order in (0, 1, 2)]
    for h in reps[0].h_grid[3:]:
        r0, r1, r2 = (max(r.residual for r in rep.records if r.h == h)
                      for rep in reps)
        assert r2 <= r1 <= r0


def test_csv_output():
    rep = residual_sweep(make_poly([1, 0, 1]), math.pi / 2, 10.0, 40.0, 3, 1)
    buf = io.StringIO()
    report_to_csv(rep, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "h,j,actual,predicted,residual,residual_h2"
    assert len(lines) == 1 + 3 * 2
    # values round-trip through repr
    first = lines[1].split(",")
    assert float(first[0]) == rep.records[0].h


def test_summary():
    rep = residual_sweep(make_poly([1, 0, 1]), math.pi / 2, 10.0, 40.0, 3, 1)
    s = report_summary(rep)
    assert s["n"] == 2 and s["steps"] == 3 and s["order"] == 1
    assert s["omega_bound_ok"] in (True, False)
    assert s["max_residual"] > 0


def _reference_sweep(p, theta, h_min, h_max, steps, order):
    # One actual_roots and one predict_roots call per h, as residual_sweep
    # computed it before it batched the grid.
    head = monic_head(p)
    grid = np.geomspace(h_min, h_max, steps)
    records, scaled = [], []
    for h in grid:
        act = actual_roots(p, theta, float(h))
        pred = predict_roots(head, theta, float(h), order)
        assert len(act) == len(pred)
        gaps = np.diff(act.real)
        if len(gaps) and np.min(gaps) < 1e-6 * h:
            raise MatchAmbiguity(f"h = {h}")
        res = np.abs(act - pred)
        for j in range(len(act)):
            records.append(RootRecord(float(h), j + 1, float(act[j].real),
                                      float(pred[j].real), float(res[j])))
            scaled.append(float(res[j]) * float(h) ** (order + 1))
    pts = [(math.log(r.h), math.log(r.residual)) for r in records
           if r.residual > 1e-13 * max(1.0, abs(r.actual))]
    fitted = float(np.polyfit([x for x, _ in pts], [y for _, y in pts], 1)[0])
    guard = 1e-12 * max(1.0, max(abs(r.actual) for r in records))
    omega_ok = bool(np.max(scaled) <= 10.0 * np.median(scaled) + guard)
    return AsymptoticReport(head.n, theta, order, tuple(float(h) for h in grid),
                            tuple(records), fitted, omega_ok)


def test_batched_sweep_equals_per_h_loop():
    # 24 random monic heads of degree 2-8, a quarter at the degenerate theta = 0
    rng = np.random.default_rng(2024)
    for k in range(24):
        n = int(rng.integers(2, 9))
        p = make_poly(rng.uniform(-2, 2, size=n).tolist() + [1.0])
        theta = 0.0 if k % 4 == 0 else float(rng.uniform(0.2, 2.9))
        floor = sweep_h_floor(p)
        for order in (0, 1, 2):
            args = (p, theta, floor * 1.05, floor * 10.5, 6, order)
            assert residual_sweep(*args) == _reference_sweep(*args), (k, order)


def test_batched_sweep_degenerate_theta_drops_a_degree():
    p = make_poly([5, -1, 2, 1])
    for order in (0, 1, 2):
        rep = residual_sweep(p, 0.0, 20.0, 500.0, 7, order)
        assert {r.j for r in rep.records} == {1, 2}
        assert rep == _reference_sweep(p, 0.0, 20.0, 500.0, 7, order)


def test_sweep_below_floor_raises_before_any_image_root_find(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("image built or root-found before the floor check")

    monkeypatch.setattr(asymptotics, "apply_tb", forbidden)
    monkeypatch.setattr(asymptotics, "roots_many", forbidden)
    p = from_roots([-3.0, 1.0, 4.0])
    with pytest.raises(InvalidInput, match="matching floor"):
        residual_sweep(p, 0.7, sweep_h_floor(p) / 2, 100.0, 5, 1)


def test_shared_sweeps_equal_one_sweep_per_order():
    rng = np.random.default_rng(2025)
    for k in range(12):
        n = int(rng.integers(2, 9))
        p = make_poly(rng.uniform(-2, 2, size=n).tolist() + [1.0])
        theta = 0.0 if k % 4 == 0 else float(rng.uniform(0.2, 2.9))
        floor = sweep_h_floor(p)
        args = (p, theta, floor * 1.1, floor * 11.0, 8)
        want = [residual_sweep(*args, order) for order in (0, 1, 2)]
        assert asymptotics._residual_sweeps(*args, (0, 1, 2)) == want, k


def test_order_hierarchy_root_finds_its_images_once(monkeypatch):
    # asym_order_hierarchy's instances at seed 42: one roots_many batch per
    # instance serves the three orders, with the reports of three sweeps
    prop = next(q for q in ALL_PROPERTIES if q.name == "asym_order_hierarchy")
    cfg = SuiteConfig(seed=42, trials=20)
    instances = prop.generate(cfg, np.random.default_rng([cfg.seed, prop.stream]))
    original = asymptotics.roots_many
    batches = []

    def counted(ps):
        batches.append(len(ps))
        return original(ps)

    monkeypatch.setattr(asymptotics, "roots_many", counted)
    for inst in instances:
        batches.clear()
        prop.check(inst)
        assert batches == [inst["steps"]]
        p = poly_from_json(inst["poly"])
        floor = sweep_h_floor(p)
        args = (p, inst["theta"], floor * 1.1, floor * 11.0, inst["steps"])
        want = [residual_sweep(*args, order) for order in (0, 1, 2)]
        assert asymptotics._residual_sweeps(*args, (0, 1, 2)) == want


@pytest.mark.parametrize("name", ["asym_order_hierarchy", "asym_omega_bound"])
def test_asymptotic_checks_root_find_p_once(monkeypatch, name):
    # The floor that sets an instance's h range also serves the sweep's
    # floor check, so p is root-found once per instance, and the check
    # still judges the public residual_sweep's report.
    prop = next(q for q in ALL_PROPERTIES if q.name == name)
    cfg = SuiteConfig(seed=42, trials=20)
    instances = prop.generate(cfg, np.random.default_rng([cfg.seed, prop.stream]))
    original = asymptotics.roots
    calls = []

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(asymptotics, "roots", counted)
    for inst in instances:
        calls.clear()
        got = prop.check(inst)
        p = poly_from_json(inst["poly"])
        assert calls == [p]
        if name == "asym_omega_bound":
            floor = sweep_h_floor(p)
            rep = residual_sweep(p, inst["theta"], floor * 1.05, floor * 10.5,
                                 inst["steps"], inst["order"])
            assert got == (-1.0 if rep.omega_bound_ok else 1.0)
