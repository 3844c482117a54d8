import io
import math
import warnings

import numpy as np
import pytest

from fdzeros import (
    ALL_PROPERTIES,
    AsymptoticReport,
    DeBruijnOp,
    DegreeTooSmall,
    InvalidInput,
    MatchAmbiguity,
    NonConvergence,
    RootRecord,
    SuiteConfig,
    actual_roots,
    apply_tb,
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
    roots,
    sweep_h_floor,
)
from fdzeros import asymptotics, harness, rootfind


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


def test_predict_rejects_non_finite_theta_and_h():
    # h = inf came back as +-inf predictions
    head = monic_head(from_roots([1, 2, 4]))
    for theta, h in [(0.7, math.inf), (math.nan, 1.0), (math.inf, 1.0)]:
        with pytest.raises(InvalidInput):
            predict_roots(head, theta, h, 1)


def test_monic_head_overflow_raises_without_warnings():
    # the division overflowed: numpy's RuntimeWarning and an infinite head
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="^the monic head of a degree-2 polynomial "
                                               "overflows a double$"):
            monic_head(make_poly([1e300, 1e300, 1e-300]))
        head = monic_head(make_poly([1e300, 1e300, 1e-8]))
    assert (head.a, head.b) == (1e308, 1e308)


def test_predict_overflow_raises_without_warnings():
    # xs * h overflowed: a -inf root and numpy's overflow RuntimeWarning
    head = monic_head(from_roots([1, 2, 4]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="^predicted roots at h = 1.7e\\+308 "
                                               "overflow a double$"):
            predict_roots(head, 0.7, 1.7e308, 1)
        pred = predict_roots(head, 0.7, 1e300, 1)
    assert np.all(np.isfinite(pred))


def test_sweep_rejects_non_finite_theta():
    # math.sin raised a bare ValueError here
    p = from_roots([1, 2, 4])
    for theta in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="^angle theta must be finite"):
            residual_sweep(p, theta, 20.0, 50.0, 5, 1)


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
                            tuple(records), omega_ok), fitted


def _bits(x):
    return np.array(x, dtype=float).view(np.uint64)


def _assert_matches_reference(rep, args, what):
    # the report and, bit for bit, its fitted decay
    want, fitted = _reference_sweep(*args)
    assert rep == want, what
    assert _bits(rep.fitted_decay) == _bits(fitted), what


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
            _assert_matches_reference(residual_sweep(*args), args, (k, order))


def test_batched_sweep_degenerate_theta_drops_a_degree():
    p = make_poly([5, -1, 2, 1])
    for order in (0, 1, 2):
        args = (p, 0.0, 20.0, 500.0, 7, order)
        rep = residual_sweep(*args)
        assert {r.j for r in rep.records} == {1, 2}
        _assert_matches_reference(rep, args, order)


@pytest.mark.parametrize("args, nan", [
    ((make_poly([5, -1, 2, 1]), 0.7, 20.0, 500.0, 7, 1), False),
    ((make_poly([1, -2, 1]), 0.9, 40.0, 400.0, 6, 1), True)])
def test_fitted_decay_is_the_fit_of_the_records_on_first_read(monkeypatch, args, nan):
    # the sweep fits nothing; the first read fits the records, bit for bit
    # _fit_decay's value, NaN included, and later reads reuse it
    fits = []
    fit = asymptotics._fit_decay

    def counted(records):
        fits.append(records)
        return fit(records)

    monkeypatch.setattr(asymptotics, "_fit_decay", counted)
    rep = residual_sweep(*args)
    assert fits == []
    want = fit(list(rep.records))
    assert math.isnan(want) is nan
    assert _bits(rep.fitted_decay) == _bits(want)
    assert _bits(rep.fitted_decay) == _bits(want)
    assert fits == [rep.records]


def test_sweep_below_floor_raises_before_any_image_root_find(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("image built or root-found before the floor check")

    p = from_roots([-3.0, 1.0, 4.0])
    h_min = sweep_h_floor(p) / 2
    certified_many = rootfind._certified_many

    def p_only(items):
        # the floor root-finds p itself, requested as a polynomial item;
        # nothing else may be root-found
        if items != [p]:
            forbidden()
        return certified_many(items)

    monkeypatch.setattr(asymptotics, "apply_tb", forbidden)
    monkeypatch.setattr(rootfind, "_certified_many", p_only)
    with pytest.raises(InvalidInput, match="matching floor"):
        residual_sweep(p, 0.7, h_min, 100.0, 5, 1)


@pytest.mark.parametrize("certificate", ["residual", "forward"])
def test_sweep_image_failure_is_what_roots_raises_for_that_image(monkeypatch, certificate):
    # The engine is made to fail one image's row: the sweep raises what
    # roots raises for that image alone, with that image's iterate only.
    p = make_poly([5, -1, 2, 1])
    target = apply_tb(DeBruijnOp(0.7, float(np.geomspace(20.0, 500.0, 7)[3])), p)
    core = rootfind._aberth_core

    def failing(c, deg):
        # the engine's rows are padded to the widest of their call
        out = core(c, deg)
        return out._replace(failed=tuple(
            certificate if np.array_equal(row[: n + 1], target.as_array()) else f
            for row, n, f in zip(c, deg, out.failed)))

    monkeypatch.setattr(rootfind, "_aberth_core", failing)
    with pytest.raises(NonConvergence) as alone:
        roots(target)
    with pytest.raises(NonConvergence) as swept:
        residual_sweep(p, 0.7, 20.0, 500.0, 7, 1)
    got, want = swept.value, alone.value
    assert str(got) == str(want) == \
        f"companion-eigenvalue roots of degree 3 failed the {certificate} certificate"
    assert got.best.shape == want.best.shape == (1, 3)
    assert np.array_equal(got.best.view(np.uint64), want.best.view(np.uint64))
    assert np.array_equal(got.residuals.view(np.uint64), want.residuals.view(np.uint64))


def test_shared_sweeps_equal_one_sweep_per_order():
    rng = np.random.default_rng(2025)
    for k in range(12):
        n = int(rng.integers(2, 9))
        p = make_poly(rng.uniform(-2, 2, size=n).tolist() + [1.0])
        theta = 0.0 if k % 4 == 0 else float(rng.uniform(0.2, 2.9))
        floor = sweep_h_floor(p)
        args = (p, theta, floor * 1.1, floor * 11.0, 8)
        want = [residual_sweep(*args, order) for order in (0, 1, 2)]
        shared = asymptotics._sweeps(p, theta, lambda f: args[2:4], 8, (0, 1, 2))
        assert rootfind._drive(shared) == want, k


# what the two sweep checkers state: 8 steps, order 1 for asym_omega_bound,
# and asym_order_hierarchy's fixed cubic x^3 + 2x^2 - x + 5
SWEEP_STEPS = 8
OMEGA_ORDER = 1
HIERARCHY_POLY = make_poly([5.0, -1.0, 2.0, 1.0])


def _drive(check, inst, requests):
    # Run a generator checker, answering each yield with roots() on one
    # polynomial after another; appends each request to requests.
    gen = check(inst)
    try:
        request = next(gen)
        while True:
            requests.append(request)
            request = gen.send([roots(q) for q in request])
    except StopIteration as stop:
        return stop.value


def test_order_hierarchy_root_finds_its_images_once(monkeypatch):
    # asym_order_hierarchy's instances at seed 42: the checker yields p, then
    # the grid's images once, and those roots serve the three orders with
    # the reports of three sweeps
    prop = next(q for q in ALL_PROPERTIES if q.name == "asym_order_hierarchy")
    cfg = SuiteConfig(seed=42, trials=20)
    instances = harness._instances(prop, cfg)
    original = harness._sweeps
    reports = []

    def recorded(*args):
        reps = yield from original(*args)
        reports.append(reps)
        return reps

    monkeypatch.setattr(harness, "_sweeps", recorded)
    for inst in instances:
        requests = []
        _drive(prop.check, inst, requests)
        p = HIERARCHY_POLY
        floor = sweep_h_floor(p)
        args = (p, inst["theta"], floor * 1.1, floor * 11.0, SWEEP_STEPS)
        want = [residual_sweep(*args, order) for order in (0, 1, 2)]
        assert reports[-1] == want
        shared = asymptotics._sweeps(p, inst["theta"], lambda f: args[2:4], SWEEP_STEPS,
                                     (0, 1, 2))
        assert rootfind._drive(shared) == want
        assert requests == [[p], [apply_tb(DeBruijnOp(inst["theta"], h), p)
                                  for h in want[0].h_grid]]


@pytest.mark.parametrize("name", ["asym_order_hierarchy", "asym_omega_bound"])
def test_asymptotic_checks_root_find_p_once(monkeypatch, name):
    # The floor that sets an instance's h range also serves the sweep's
    # floor check, so p is root-found once per instance, through the
    # checker's first yield and never directly, and the check still judges
    # the public residual_sweep's report.
    prop = next(q for q in ALL_PROPERTIES if q.name == name)
    cfg = SuiteConfig(seed=42, trials=20)
    instances = harness._instances(prop, cfg)

    def forbidden(*args):
        raise AssertionError("root-found outside the checker's requests")

    for inst in instances:
        requests = []
        with monkeypatch.context() as m:
            m.setattr(asymptotics, "roots", forbidden)
            m.setattr(asymptotics, "_drive", forbidden)
            got = _drive(prop.check, inst, requests)
        p = poly_from_json(inst["poly"]) if name == "asym_omega_bound" else HIERARCHY_POLY
        assert [q for request in requests for q in request].count(p) == 1
        assert requests[0] == [p]
        if name == "asym_omega_bound":
            floor = sweep_h_floor(p)
            rep = residual_sweep(p, inst["theta"], floor * 1.05, floor * 10.5,
                                 SWEEP_STEPS, OMEGA_ORDER)
            assert got == (-1.0 if rep.omega_bound_ok else 1.0)


@pytest.mark.parametrize("h_min, h_max, steps", [
    (20.0, 50.0, 2.5), (20.0, 50.0, "8"), (20.0, 50.0, None), (20.0, 50.0, True),
    (20.0, math.inf, 5), (math.inf, math.inf, 5), (math.nan, 50.0, 5), (20.0, math.nan, 5),
    (-math.inf, 50.0, 5)])
def test_sweep_rejects_bad_grid_before_any_root_find(monkeypatch, h_min, h_max, steps):
    # a non-integer steps raised a bare TypeError from np.geomspace, and an
    # infinite h_max leaked numpy warnings before a NonConvergence
    def forbidden(*args):
        raise AssertionError("root-found before the grid check")

    monkeypatch.setattr(asymptotics, "roots", forbidden)
    monkeypatch.setattr(asymptotics, "_drive", forbidden)
    p = from_roots([-3.0, 1.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="integer steps >= 2"):
            residual_sweep(p, 0.7, h_min, h_max, steps, 1)


@pytest.mark.parametrize("order", [3, -1, 1.0, True, None])
def test_sweep_rejects_bad_order_before_any_root_find(monkeypatch, order):
    # the order was checked only after P and the grid's 7 images (8 rows)
    # had been root-found
    rows = []
    core = rootfind._aberth_core

    def counted(c, deg):
        rows.append(len(c))
        return core(c, deg)

    monkeypatch.setattr(rootfind, "_aberth_core", counted)
    with pytest.raises(InvalidInput, match="order"):
        residual_sweep(from_roots([1, 2, 4]), 0.7, 20.0, 500.0, 7, order)
    assert rows == []
    residual_sweep(from_roots([1, 2, 4]), 0.7, 20.0, 500.0, 7, 1)
    assert sum(rows) == 8


def test_sweep_accepts_numpy_integer_steps():
    p = make_poly([5, -1, 2, 1])
    assert residual_sweep(p, 0.7, 20.0, 500.0, np.int64(7), 1) == \
        residual_sweep(p, 0.7, 20.0, 500.0, 7, 1)
