import math
import warnings

import numpy as np
import pytest

from fdzeros import (
    ZERO,
    DeBruijnOp,
    DegreeExceedsFrame,
    InvalidInput,
    NotRealRooted,
    ZeroPolynomial,
    apolar,
    apolar_report,
    apply_tb,
    classify_real,
    from_roots,
    gn,
    make_poly,
    monomial,
    reflect,
    roots,
    shift_arg,
    tb_via_walsh,
    walsh_convolve,
    walsh,
    walsh_interval_bound,
)


def rel_gap(p, q):
    length = max(len(p.coeffs), len(q.coeffs))
    a = np.zeros(length, dtype=complex)
    b = np.zeros(length, dtype=complex)
    a[: len(p.coeffs)] = p.coeffs
    b[: len(q.coeffs)] = q.coeffs
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def test_convolve_monomial_frame():
    # x^n [+] Q = n! Q: only the k = n derivative term survives
    q = make_poly([1, -2, 0, 3])
    got = walsh_convolve(monomial(3), q, 3)
    want = make_poly(math.factorial(3) * q.as_array())
    assert rel_gap(got, want) < 1e-15


def test_convolve_hand_computed():
    # P = (x-1)^2: P(0)=1, P'(0)=-2, P''(0)=2; Q = (x+1)^2
    # sum: 1*Q'' + (-2)*Q' + 2*Q = 2 - 2(2x+2) + 2(x+1)^2 = 2x^2
    p = from_roots([1.0, 1.0])
    q = from_roots([-1.0, -1.0])
    assert rel_gap(walsh_convolve(p, q, 2), make_poly([0, 0, 2])) < 1e-14


def test_convolve_closure():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        p = from_roots(rng.uniform(-5, 5, size=n))
        q = from_roots(rng.uniform(-5, 5, size=n))
        conv = walsh_convolve(p, q, n)
        assert classify_real(roots(conv), 1e-7).is_real_rooted


def test_frame_validation():
    with pytest.raises(DegreeExceedsFrame):
        walsh_convolve(monomial(3), monomial(1), 2)
    with pytest.raises(InvalidInput):
        walsh_convolve(monomial(0), monomial(0), -1)
    # the derivatives k! a_k at 0 are doubles only up to k = 170
    p = from_roots(np.linspace(-1, 1, 171))
    x = monomial(1)
    for call in (lambda: walsh_convolve(p, p, 171), lambda: walsh_convolve(x, p, 171),
                 lambda: apolar_report(p, x, 171, 1e-8), lambda: tb_via_walsh(p, 0.7, 1.0)):
        with pytest.raises(InvalidInput, match=r"deg [PQ] = 171 exceeds 170"):
            call()


def test_degree_170_is_accepted_without_warnings():
    # with leading coefficient 1 the convolutions of this P overflow at
    # degree 170 (see the overflow test below); scaled by 1e-60 they stay
    # finite, and the frame cap admits degree 170
    p = from_roots(np.linspace(-1, 1, 170))
    small = make_poly(1e-60 * p.as_array())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conv = walsh_convolve(small, small, 170)
        apolar_report(p, p, 170, 1e-8)
        image = tb_via_walsh(small, 0.7, 1.0)
    assert conv.degree == 170 and image.degree == 170
    assert np.isfinite(conv.as_array()).all() and np.isfinite(image.as_array()).all()


def test_convolution_overflow_raises_instead_of_returning_non_finite_coefficients():
    # P [+] G_n for the roots linspace(-1, 1, n): finite at n = 149, while
    # from n = 150 on some terms P^(k)(0) G_n^(n-k) overflow a double; they
    # came back as inf and NaN coefficients, 29 of 151 at n = 150
    p = from_roots(np.linspace(-1, 1, 149))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conv = walsh_convolve(p, gn(149, 0.7, 1.0), 149)
        image = tb_via_walsh(p, 0.7, 1.0)
    assert np.isfinite(conv.as_array()).all() and np.isfinite(image.as_array()).all()
    assert conv.degree == image.degree == 149
    for n, bad in ((150, 29), (160, 133)):
        p = from_roots(np.linspace(-1, 1, n))
        for call in (lambda: walsh_convolve(p, gn(n, 0.7, 1.0), n),
                     lambda: tb_via_walsh(p, 0.7, 1.0)):
            with pytest.raises(InvalidInput, match=f"frame {n} overflows a double: "
                                                   f"{bad} of {n + 1} coefficients"):
                call()
    p = from_roots(np.linspace(-1, 1, 170))
    with pytest.raises(InvalidInput, match="frame 170 overflows a double"):
        walsh_convolve(p, p, 170)


def test_frames_above_the_degree_sum_answer_zero_without_work(monkeypatch):
    # Above deg P + deg Q every term of P [+] Q and of the apolarity sum has
    # an exactly zero factor; the frame no longer sets the work done.
    calls = []
    original = walsh.derivative

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(walsh, "derivative", counted)
    p, q = from_roots([1.0, -2.0]), make_poly([1, 0, 1])
    zero_report = {"apolar": True, "sum_magnitude": 0.0, "term_scale": 0.0}
    assert walsh_convolve(p, q, 10**6) == ZERO
    assert apolar_report(p, q, 10**6, 1e-8) == zero_report
    assert len(calls) <= p.degree + q.degree + 1
    # the boundary: at the degree sum the one surviving term is P''(0) Q'' = 2 * 2
    assert walsh_convolve(p, q, 4) == make_poly([4])
    assert walsh_convolve(p, q, 5) == ZERO and apolar_report(p, q, 5, 0.0) == zero_report
    # a zero operand, and a factor k! c_k that overflows: 0 * inf read as
    # NaN, so these raised instead of answering zero
    big = make_poly([100.0] * 171)
    for a, b, n in ((ZERO, q, 2), (p, ZERO, 7), (monomial(0), big, 171),
                    (big, monomial(1), 172), (ZERO, big, 170)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert walsh_convolve(a, b, n) == ZERO
            assert apolar_report(a, b, n, 1e-8) == zero_report


def test_overflowing_sums_raise_without_numpy_warnings():
    # k! c_k of 100 * sum x^k overflows at k = 170.  Its apolarity sum with
    # Q = 1 in frame 170 came back with an infinite term scale after a numpy
    # warning, and P [+] Q of sum x^k and it in frame 340 raised only after
    # two numpy warnings from the derivatives of Q
    ones, big = make_poly([1.0] * 171), make_poly([100.0] * 171)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=r"^sum \(-1\)\^k P\^\(k\)\(0\) "
                                               r"Q\^\(n-k\)\(0\) in frame 170 overflows"):
            apolar_report(big, monomial(0), 170, 1e-8)
        with pytest.raises(InvalidInput, match=r"^P \[\+\] Q in frame 340 overflows"):
            walsh_convolve(ones, big, 340)


def test_exactly_zero_factors_take_no_part_in_the_sums():
    # P = 1e-300 x^170 has one nonzero derivative at 0, P^(170)(0) =
    # 170! 1e-300, so in frame 170 P [+] Q = 170! 1e-300 Q and the apolarity
    # sum is 170! 1e-300 Q(0), both finite; the zero P^(k)(0), k < 170, met
    # the overflowing derivatives of Q = 100 sum x^k, and 0 inf = NaN made
    # both raise "overflows a double"
    p, q = make_poly([0.0] * 170 + [1e-300]), make_poly([100.0] * 171)
    want = math.factorial(170) * 1e-300 * 100.0  # about 7.26e8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conv = walsh_convolve(p, q, 170)
        rep = apolar_report(p, q, 170, 1e-8)
    assert np.allclose(conv.as_array(), want, rtol=1e-13, atol=0.0)
    assert len(conv.coeffs) == 171
    assert rep["sum_magnitude"] == pytest.approx(want, rel=1e-13)
    assert rep["term_scale"] == pytest.approx(want, rel=1e-13)
    assert not rep["apolar"]


def test_apolar_examples():
    assert apolar(monomial(2), monomial(2), 2, 1e-12)
    p = from_roots([1.0, 1.0])
    q = from_roots([-1.0, -1.0])
    rep = apolar_report(p, q, 2, 1e-8)
    assert not rep["apolar"]
    assert rep["sum_magnitude"] == pytest.approx(8.0)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_apolar_report_rejects_bad_tol(tol):
    # x^2 - 1 and x^2 + 1 are apolar in frame 2 (-1*2 - 0 + 2*1 = 0), but
    # with tol = -1 they read as non-apolar
    p, q = make_poly([-1, 0, 1]), make_poly([1, 0, 1])
    assert apolar(p, q, 2, 0.0)
    with pytest.raises(InvalidInput, match="tolerance must be finite and >= 0"):
        apolar_report(p, q, 2, tol)


def test_apolar_duality_with_convolution_roots():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = from_roots(rng.uniform(-4, 4, size=n))
        q = from_roots(rng.uniform(-4, 4, size=n))
        conv = walsh_convolve(p, q, n)
        for x0 in roots(conv).roots:
            assert apolar(reflect(p), shift_arg(q, -x0), n, 1e-8)


def test_tb_via_walsh_monomial():
    for n, theta, h in ((3, 0.7, 1.2), (5, math.pi, 2.0)):
        got = tb_via_walsh(monomial(n), theta, h)
        assert rel_gap(got, gn(n, theta, h)) < 1e-12


def test_tb_via_walsh_dual_path():
    got = tb_via_walsh(make_poly([1, 0, 1]), math.pi / 2, 1.0)
    want = apply_tb(DeBruijnOp(math.pi / 2, 1.0), make_poly([1, 0, 1]))
    assert rel_gap(got, want) < 1e-12
    p = from_roots([3.0, -2.0])
    got = tb_via_walsh(p, 1.0, 0.7)
    want = apply_tb(DeBruijnOp(1.0, 0.7), p)
    assert rel_gap(got, want) < 1e-9


def test_tb_via_walsh_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        tb_via_walsh(make_poly([]), 0.5, 1.0)


def test_interval_bound_examples():
    b = walsh_interval_bound(monomial(2), monomial(2), 2)
    assert (b["lo"], b["hi"]) == (pytest.approx(0.0), pytest.approx(0.0))
    # roots of P in [1,2], of Q in [-3,-1]: sum interval is [-2, 1]
    b = walsh_interval_bound(from_roots([1.0, 2.0]), from_roots([-1.0, -3.0]), 2)
    assert b["lo"] == pytest.approx(-2.0)
    assert b["hi"] == pytest.approx(1.0)
    with pytest.raises(InvalidInput):
        walsh_interval_bound(monomial(2), monomial(3), 3)
    with pytest.raises(NotRealRooted):
        walsh_interval_bound(make_poly([1, 0, 1]), monomial(2), 2)
