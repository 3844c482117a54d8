import math
import warnings

import numpy as np
import pytest

from fdzeros import (
    DeBruijnOp,
    InvalidInput,
    NotRealRooted,
    TooFewRoots,
    analyze,
    apply_tb,
    as_fd_operator,
    coerce_real,
    derivative,
    extremal_bounds,
    from_roots,
    gn,
    line_image,
    linear_combine,
    make_poly,
    mesh_floor,
    monomial,
    multiply,
    qn,
    qn_zeros,
    qn_zeros_report,
    roots,
    shift_arg,
    simplicity_margin,
    sorted_real_parts,
)


def rel_gap(p, q):
    length = max(len(p.coeffs), len(q.coeffs))
    a = np.zeros(length, dtype=complex)
    b = np.zeros(length, dtype=complex)
    a[: len(p.coeffs)] = p.coeffs
    b[: len(q.coeffs)] = q.coeffs
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def test_op_validation():
    with pytest.raises(InvalidInput):
        DeBruijnOp(0.5, 0.0)
    with pytest.raises(InvalidInput):
        DeBruijnOp(0.5, -1.0)


def test_op_rejects_non_finite_theta_and_h():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match="^angle theta must be finite"):
            DeBruijnOp(theta, 1.0)
    with pytest.raises(InvalidInput, match="^step h must be > 0$"):
        DeBruijnOp(0.5, math.nan)
    with pytest.raises(InvalidInput, match="^step h must be finite$"):
        DeBruijnOp(0.5, math.inf)


def test_gn_rejects_non_finite_theta_and_h():
    # these came back as NaN coefficients
    for theta, h in [(math.nan, 1.0), (0.7, math.inf)]:
        with pytest.raises(InvalidInput):
            gn(3, theta, h)


def test_overflowing_image_raises():
    # a finite h whose powers overflow: gn came back as (nan, -inf, 4.6e200,
    # 1.29), qn_zeros_report with NaN residuals; the check comes before the
    # real coercion, and complex input, which skips it, is checked too
    message = r"^T_\{theta,h\}\(P\) overflows a double: 2 of 4 coefficients are not finite$"
    with pytest.raises(InvalidInput, match=message):
        gn(3, 0.7, 1e200)
    with pytest.raises(InvalidInput, match=message):
        qn_zeros_report(3, 0.7, 1e200)
    with pytest.raises(InvalidInput, match="overflows a double"):
        apply_tb(DeBruijnOp(0.7, 1e200), make_poly([1j, 0, 0, 1]))
    # at h = 1e100 every coefficient is finite, and the image comes back
    assert all(math.isfinite(abs(c)) for c in gn(3, 0.7, 1e100).coeffs)


def test_qn_zeros_rejects_non_finite_theta():
    # math.floor and math.sin raised a bare ValueError here
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match="^angle theta must be finite"):
            qn_zeros(3, theta)


def test_qn_zeros_report_rejects_h_out_of_range():
    # h = inf came back as NaN residuals
    for h, message in [(0.0, "^step h must be > 0$"), (math.inf, "^step h must be finite$")]:
        with pytest.raises(InvalidInput, match=message):
            qn_zeros_report(3, 0.7, h)


def test_mesh_floor_rejects_h_out_of_range():
    # h = -1 came back as a negative floor, h = 0 as 0.0, and at n = 3,
    # whose grid mesh exceeds 1, h = 1.7e308 as inf
    for h in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(InvalidInput):
            mesh_floor(4, 0.7, h)
    with pytest.raises(InvalidInput, match="^mesh floor at h = 1.7e\\+308 overflows a double$"):
        mesh_floor(3, 0.7, 1.7e308)


def test_extremal_bounds_rejects_h_out_of_range_before_root_finding():
    # h = -1 came back with lambda_bound below mu_bound; a polynomial that
    # is not real-rooted shows the check comes before the root-find
    for p in (from_roots([1, 2, 4]), make_poly([1, 0, 1])):
        for h in (-1.0, math.inf):
            with pytest.raises(InvalidInput):
                extremal_bounds(p, 0.7, h)


def test_extremal_bounds_overflow_raises_without_warnings():
    # h * min(qz.zeros) overflowed: mu_bound came back as -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="^extremal bounds at h = 1.7e\\+308 "
                                               "overflow a double$"):
            extremal_bounds(from_roots([1, 2, 4]), 0.7, 1.7e308)
        b = extremal_bounds(from_roots([1, 2, 4]), 0.7, 1e300)
    assert all(map(math.isfinite, b.values()))


def test_line_image_overflow_raises():
    # the i*beta shift overflowed: the image came back as (nan+nanj, -inf+nanj, ...)
    p = from_roots([1, 2, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="^line image at beta = 1e\\+200 overflows "
                                               "a double: 2 of 4 coefficients"):
            line_image(p, 1e200, 0.3)
        image = line_image(p, 1e100, 0.3)
    assert all(math.isfinite(abs(c)) for c in image.coeffs)


def test_line_image_rejects_non_finite_beta_and_theta():
    # beta = inf came back as a NaN polynomial
    p = from_roots([1, 2, 4])
    for beta, theta in [(math.inf, 0.3), (math.nan, 0.3), (0.3, math.inf), (0.3, math.nan)]:
        with pytest.raises(InvalidInput, match="^beta and theta must be finite"):
            line_image(p, beta, theta)


def test_apply_tb_examples():
    # theta = pi/2: i(x+i)^2 + i(x-i)^2 over nothing... works out to 2x^2 - 2
    got = apply_tb(DeBruijnOp(math.pi / 2, 1.0), monomial(2))
    assert rel_gap(got, make_poly([-2, 0, 2])) < 1e-15
    # theta = 0 drops the degree: ((x+i)^2 - (x-i)^2)/i = 4x
    got = apply_tb(DeBruijnOp(0.0, 1.0), monomial(2))
    assert got == make_poly([0, 4])
    # theta = pi has e^{i theta} = -1 and the opposite sign: -4x
    got = apply_tb(DeBruijnOp(math.pi, 1.0), monomial(2))
    assert got == make_poly([0, -4])
    # constants are annihilated when sin(theta) = 0
    assert apply_tb(DeBruijnOp(0.0, 1.0), make_poly([1])).is_zero


def test_apply_tb_real_output():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = from_roots(rng.uniform(-4, 4, size=6))
        image = apply_tb(DeBruijnOp(rng.uniform(0.3, 2.8), 1.3), p)
        assert all(c.imag == 0 for c in image.coeffs)


def _two_shift_image(op, p):
    # T_{theta,h}(P) from both shifts P(x + ih) and P(x - ih), combined and
    # coerced as apply_tb does
    up, down = shift_arg(p, -1j * op.h), shift_arg(p, 1j * op.h)
    if abs(math.sin(op.theta)) <= 1e-12:
        sign = 1.0 if math.cos(op.theta) > 0 else -1.0
        terms = [(-1j * sign, up), (1j * sign, down)]
    else:
        e = complex(math.cos(op.theta), math.sin(op.theta))
        terms = [(-1j * e, up), (1j * e.conjugate(), down)]
    image = linear_combine(terms, trim_tol=1e-13)
    return coerce_real(image, 1e-10) if all(c.imag == 0 for c in p.coeffs) else image


@pytest.mark.parametrize("n", [8, 111, 112, 200])
def test_apply_tb_real_input_conjugates_one_shift_bit_for_bit(n):
    # For real P, apply_tb takes P(x - ih) as the conjugate of P(x + ih);
    # the image keeps every bit of the two-shift form on both sides of the
    # wavefront cutover (one shift at n >= 112, two at n >= 56), for
    # real-rooted and random-coefficient P, and complex P keeps two shifts.
    rng = np.random.default_rng(n)
    polys = [from_roots(rng.uniform(-5, 5, n)), make_poly(rng.normal(size=n + 1)),
             make_poly(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))]
    for p in polys:
        for theta in (0.0, math.pi, 0.7):
            op = DeBruijnOp(theta, 0.5)
            got, want = apply_tb(op, p).as_array(), _two_shift_image(op, p).as_array()
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), theta


def test_qn_examples():
    assert rel_gap(qn(2, math.pi / 2), make_poly([-2, 0, 2])) < 1e-15
    assert qn(2, 0.0) == make_poly([0, 4])
    assert qn(1, 0.0) == make_poly([2])
    # Q_0 convention: the constant 2 sin(theta)
    assert rel_gap(qn(0, math.pi / 2), make_poly([2])) < 1e-15
    assert qn(0, 0.0).is_zero
    with pytest.raises(InvalidInput):
        qn(-1, 0.5)


def test_qn_zeros_examples():
    assert qn_zeros(2, math.pi / 2).zeros == pytest.approx((1, -1))
    assert qn_zeros(4, 0.0).zeros == pytest.approx((1, 0, -1))
    s3 = 1 / math.sqrt(3)
    assert qn_zeros(3, 0.0).zeros == pytest.approx((s3, -s3))
    # count rule: N = n for sin(theta) != 0, N = n - 1 otherwise
    assert qn_zeros(7, 0.4).count == 7
    assert qn_zeros(7, math.pi).count == 6


def test_qn_zeros_strictly_decreasing():
    for theta in (0.0, 0.3, 2.5):
        zs = qn_zeros(9, theta).zeros
        assert all(a > b for a, b in zip(zs, zs[1:]))


def test_qn_zeros_are_roots():
    for n in (3, 8, 15):
        for theta in (0.3, 1.2, 2.9):
            q = qn(n, theta)
            for z in qn_zeros(n, theta).zeros:
                val = abs(np.polyval(np.array(q.coeffs)[::-1], z))
                assert val < 1e-8 * max(1.0, abs(z)) ** n


def test_gn_examples():
    got = gn(2, math.pi / 2, 3.0)
    assert rel_gap(got, make_poly([-18, 0, 2])) < 1e-14
    assert rel_gap(gn(5, 0.8, 1.0), qn(5, 0.8)) < 1e-15
    assert rel_gap(gn(0, math.pi / 2, 2.0), make_poly([2])) < 1e-15


def test_gn_scaling_identity():
    for n in (1, 4, 11):
        theta, h = 0.7, 2.3
        g = gn(n, theta, h)
        q = qn(n, theta)
        scaled = make_poly([h ** (n - k) * c for k, c in enumerate(q.coeffs)])
        assert rel_gap(g, scaled) < 1e-12


def test_derivative_ladder():
    for n in (2, 9, 17):
        theta = 1.1
        lhs = derivative(qn(n, theta))
        rhs = make_poly(n * qn(n - 1, theta).as_array())
        assert rel_gap(lhs, rhs) < 1e-12


def test_periodicity():
    for n in (1, 6):
        lhs = qn(n, 0.9 + math.pi)
        rhs = make_poly(-qn(n, 0.9).as_array())
        assert rel_gap(lhs, rhs) < 1e-13


def test_extremal_bounds_examples():
    b = extremal_bounds(monomial(2), math.pi / 2, 1.0)
    assert b["lambda_bound"] == pytest.approx(1.0)
    assert b["mu_bound"] == pytest.approx(-1.0)
    b = extremal_bounds(from_roots([5.0, 5.0]), math.pi / 2, 1.0)
    assert b["lambda_bound"] == pytest.approx(6.0)
    assert b["mu_bound"] == pytest.approx(4.0)
    with pytest.raises(TooFewRoots):
        extremal_bounds(monomial(1), 0.0, 1.0)
    with pytest.raises(NotRealRooted):
        extremal_bounds(make_poly([1, 0, 1]), 0.5, 1.0)


def test_mesh_floor_examples():
    assert mesh_floor(2, math.pi / 2, 1.0) == pytest.approx(2.0)
    assert mesh_floor(3, 0.0, 2.0) == pytest.approx(4 / math.sqrt(3))
    with pytest.raises(TooFewRoots):
        mesh_floor(2, 0.0, 1.0)


def test_simplicity_margin():
    # operator separates multiple roots
    # loosened realness tol: numerically a double root splits by ~sqrt(eps)
    p = multiply(from_roots([1.0, 1.0]), from_roots([-1.0, -1.0]))
    assert simplicity_margin(p, math.pi / 2, 1.0, tol=1e-5) > 0
    assert simplicity_margin(monomial(2), math.pi / 2, 1.0) == pytest.approx(2.0)
    assert simplicity_margin(monomial(1), 0.9, 1.0) == math.inf


def test_line_image_examples():
    # P = x, beta = 2, theta = pi: 2x - 2i, root i, on Im = beta/2
    image = line_image(monomial(1), 2.0, math.pi)
    r = roots(image).roots[0]
    assert r.imag == pytest.approx(1.0, abs=1e-12)
    # P = x, theta = pi/2: root of (1-i)x - i*beta has Im = beta/2
    for beta in (0.5, -1.7):
        image = line_image(monomial(1), beta, math.pi / 2)
        r = roots(image).roots[0]
        assert r.imag == pytest.approx(beta / 2, abs=1e-12)
    assert line_image(make_poly([3]), 1.0, 0.0).is_zero


def test_line_image_random():
    rng = np.random.default_rng(33)
    for _ in range(10):
        c = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-3, 3))
        theta = float(rng.uniform(0.1, 2 * math.pi - 0.1))
        zs = [complex(rng.uniform(-5, 5), c) for _ in range(6)]
        image = line_image(from_roots(zs), beta, theta)
        for r in roots(image).roots:
            assert abs(r.imag - (c + beta / 2)) < 1e-8 * max(1.0, abs(r))


def test_near_degenerate_warning():
    with pytest.warns(RuntimeWarning):
        apply_tb(DeBruijnOp(1e-9, 1.0), monomial(3))


def test_near_degenerate_warning_names_the_callers_line():
    # qn and gn reach the warning through apply_tb inside the package; a
    # fixed stacklevel named a line of debruijn.py for them
    calls = [lambda: qn(3, 1e-9), lambda: gn(3, 1e-9, 1.0),
             lambda: apply_tb(DeBruijnOp(1e-9, 1.0), monomial(3)),
             lambda: qn_zeros(3, 1e-9)]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]


def test_qn_zeros_report():
    rep = qn_zeros_report(4, 0.9, 2.0)
    assert rep["count"] == 4
    assert len(rep["zeros"]) == len(rep["residuals"]) == 4
    scale = max(1.0, max(abs(z) for z in rep["zeros"])) ** 4
    assert max(rep["residuals"]) < 1e-9 * scale


def test_as_fd_operator():
    op = as_fd_operator(DeBruijnOp(0.7, 1.5))
    assert op.lam == 1.5j
    v = analyze(op)
    assert v.hyperbolicity_preserver
    # images agree between the two formulations
    p = from_roots([-2.0, 0.5, 3.0])
    from fdzeros import apply_op

    direct = apply_tb(DeBruijnOp(0.7, 1.5), p)
    general = apply_op(op, p)
    assert rel_gap(direct, general) < 1e-12
