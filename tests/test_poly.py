import math

import numpy as np
import pytest

from fdzeros import (
    ImaginaryResidue,
    InvalidInput,
    Polynomial,
    ZERO,
    coerce_real,
    derivative,
    evaluate,
    from_roots,
    is_real_coeffs,
    linear_combine,
    make_poly,
    monomial,
    multiply,
    poly_from_json,
    poly_to_json,
    reflect,
    shift_arg,
)
from fdzeros.poly import _shift_many


def coeffs_close(p, q, tol=1e-12):
    length = max(len(p.coeffs), len(q.coeffs))
    a = np.zeros(length, dtype=complex)
    b = np.zeros(length, dtype=complex)
    a[: len(p.coeffs)] = p.coeffs
    b[: len(q.coeffs)] = q.coeffs
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale <= tol


def test_make_poly_basic():
    assert make_poly([0, 0, 1]).degree == 2
    assert make_poly([]).is_zero
    assert make_poly([]).degree is None
    assert make_poly([1, 0]) == make_poly([1])
    assert make_poly([1, 0]).degree == 0


def test_make_poly_keeps_tiny_trailing():
    # trimming is exact-zero only; user input is never tolerance-trimmed
    p = make_poly([1, 1e-300])
    assert p.degree == 1


def test_evaluate():
    p = make_poly([-1, 0, 1])  # x^2 - 1
    assert evaluate(p, 2) == 3
    q = make_poly([1, 0, 1])  # x^2 + 1
    assert abs(evaluate(q, 1j)) == 0
    assert evaluate(ZERO, 5) == 0


def test_evaluate_cubic_binomial_oracle():
    # (x+i)^3 expanded by the binomial theorem, evaluated at its root -i
    cube = make_poly([
        math.comb(3, k) * 1j ** (3 - k) for k in range(4)
    ])
    assert abs(evaluate(cube, -1j)) < 1e-15


def test_shift_arg_examples():
    # x^2 shifted by i: (x - i)^2 = x^2 - 2ix - 1
    got = shift_arg(monomial(2), 1j)
    assert coeffs_close(got, make_poly([-1, -2j, 1]))
    p = make_poly([3, 1, 4, 1])
    assert shift_arg(p, 0) is p
    assert shift_arg(monomial(1), 1) == make_poly([-1, 1])


def test_shift_arg_binomial_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = rng.uniform(-1, 1, size=n + 1)
        p = make_poly(c)
        # independent oracle: expand sum c_k (x - lam)^k binomially
        acc = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            for r in range(k + 1):
                acc[r] += c[k] * math.comb(k, r) * (-lam) ** (k - r)
        assert coeffs_close(shift_arg(p, lam), make_poly(acc), 1e-13)


def _shift_loop(p, lam):
    # shift_arg's synthetic-division loop, the reference for _shift_many
    a = [complex(c) for c in p.coeffs]
    n = len(a) - 1
    s = -complex(lam)
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            a[j] += s * a[j + 1]
    return a


def _bits(c):
    return np.asarray(c, dtype=complex).view(np.uint64)


# An operator's shifts: the zero one, small ones, and ones whose powers
# overflow at these degrees
_SHIFTS = (1.5j, 0, -1.5j, 0.7 - 2.1j, 3e100j, -2e100 + 1e100j)


@pytest.mark.parametrize("kind", ["real", "complex", "near_overflow"])
@pytest.mark.parametrize("n", [63, 64, 65, 96, 200])
def test_shift_many_matches_the_synthetic_division_loop(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    c = rng.uniform(-1, 1, n + 1)
    if kind != "real":
        c = c + 1j * rng.uniform(-1, 1, n + 1)
    if kind == "near_overflow":
        c = c * 1e300  # even the small shifts overflow some coefficients
    p = make_poly(c)
    got = _shift_many(p, _SHIFTS)
    assert got[1] is p
    finite = []
    for q, lam in zip(got, _SHIFTS):
        want = _shift_loop(p, lam)
        assert np.array_equal(_bits(q.coeffs), _bits(want))
        finite.append(np.isfinite(want).all())
    small = kind != "near_overflow"
    assert finite == [small, True, small, small, False, False]


def test_shift_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 21))
        p = make_poly(rng.uniform(-1, 1, size=n + 1))
        lam = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        assert coeffs_close(shift_arg(shift_arg(p, lam), -lam), p, 1e-12)


def test_shift_eval_consistency():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = make_poly(rng.uniform(-1, 1, size=7))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = evaluate(shift_arg(p, lam), z)
        rhs = evaluate(p, z - lam)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_derivative_and_combine():
    assert derivative(monomial(3)) == make_poly([0, 0, 3])
    assert derivative(make_poly([7])).is_zero
    assert derivative(ZERO).is_zero
    assert linear_combine([(1, monomial(2)), (-1, monomial(2))]).is_zero
    assert multiply(make_poly([-1, 1]), make_poly([1, 1])) == make_poly([-1, 0, 1])
    assert multiply(ZERO, monomial(3)).is_zero


def test_linearity_of_derivative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = make_poly(rng.uniform(-1, 1, size=6))
        q = make_poly(rng.uniform(-1, 1, size=9))
        a, b = rng.uniform(-2, 2, size=2)
        lhs = derivative(linear_combine([(a, p), (b, q)]))
        rhs = linear_combine([(a, derivative(p)), (b, derivative(q))])
        assert coeffs_close(lhs, rhs, 1e-14)


def test_linear_combine_trim_is_opt_in():
    p = make_poly([0, 0, 1.0])
    q = make_poly([0, 0, 1.0 + 1e-15])
    noisy = linear_combine([(1, p), (-1, q)])
    assert not noisy.is_zero
    trimmed = linear_combine([(1, p), (-1, q)], trim_tol=1e-12)
    assert trimmed.is_zero


def test_from_roots_and_reflect():
    p = from_roots([1, -1])
    assert p == make_poly([-1, 0, 1])
    assert reflect(make_poly([1, 2, 3])) == make_poly([1, -2, 3])


def test_is_real_coeffs():
    assert is_real_coeffs(make_poly([-1, 0, 1]), 0.0).is_real
    assert is_real_coeffs(make_poly([0, 0, 1]) , 1e-9).is_real
    report = is_real_coeffs(make_poly([1e-12j, 0, 1]), 1e-9)
    assert report.is_real and report.max_imag == 1e-12
    assert not is_real_coeffs(make_poly([0, 1j]), 1e-9).is_real
    # a tolerance that is negative or not finite is refused, as everywhere
    # else in the package: nan would call a real polynomial not real and inf
    # would call [1, 1j] real
    for tol in (-1.0, math.nan, math.inf):
        want = f"^tolerance must be finite and >= 0, got {tol}$"
        for p in (make_poly([1.0]), make_poly([1.0, 1j])):
            with pytest.raises(InvalidInput, match=want):
                is_real_coeffs(p, tol)


def test_coerce_real():
    p = make_poly([1 + 1e-14j, 2])
    out = coerce_real(p, 1e-10)
    assert all(c.imag == 0 for c in out.coeffs)
    with pytest.raises(ImaginaryResidue):
        coerce_real(make_poly([1 + 0.5j, 2]), 1e-10)


def test_json_roundtrip():
    p = make_poly([1 + 2j, 0, -3])
    assert poly_from_json(poly_to_json(p)) == p
    assert poly_from_json({"coeffs": []}).is_zero


@pytest.mark.parametrize("bad", [
    {"coeffs": [[1, 2, 3]]},
    {"coeffs": [[1]]},
    {"coeffs": [["a", 0]]},
    {"coeffs": [[float("nan"), 0]]},
    {"coeffs": [[float("inf"), 0]]},
    {"coeffs": 5},
    {"wrong": []},
    [1, 2],
])
def test_json_rejects_bad_input(bad):
    with pytest.raises(InvalidInput):
        poly_from_json(bad)


def test_json_error_names_field():
    with pytest.raises(InvalidInput, match=r"coeffs\[1\]"):
        poly_from_json({"coeffs": [[1, 0], [float("nan"), 0]]})


def test_polynomial_immutable():
    p = make_poly([1, 2])
    with pytest.raises(Exception):
        p.coeffs = (5,)
