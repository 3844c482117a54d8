"""Quick checks of the benchmark's independent oracles (no fdzeros imports)."""

import math

import mpmath
import numpy as np
import pytest

from oracles import cotangent_zeros, newton_steps, tb_zeros


def _mp_tb_zeros(r, theta, h):
    """Zeros of T_{theta,h}(P) from mpmath: expand prod(x - r_k + ih) at 40
    digits, take 2 Im(e^{i theta} c_k) coefficientwise, and call polyroots."""
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(1)]  # ascending
        for rk in r:
            shifted = [mpmath.mpc(0)] + coeffs
            for k, c in enumerate(coeffs):
                shifted[k] += c * mpmath.mpc(-rk, h)
            coeffs = shifted
        rot = mpmath.expj(theta)
        image = [2 * mpmath.im(rot * c) for c in coeffs]
        found = mpmath.polyroots(image[::-1], maxsteps=400, extraprec=400)
        return np.sort([float(mpmath.re(z)) for z in found])


@pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
@pytest.mark.parametrize("theta", [0.0, 0.7, 2.5, -1.0, math.pi])
def test_phase_matches_cotangent_grid_at_zero_roots(n, theta):
    got = tb_zeros(np.zeros(n), theta, 1.3)
    want = cotangent_zeros(n, theta, 1.3)
    # theta = 0 mod pi drops one degree
    assert len(want) == (n - 1 if theta in (0.0, math.pi) else n)
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_cotangent_grid_closed_form():
    n, theta, h = 5, 0.4, 2.0
    want = sorted(h / math.tan((math.pi * k - theta) / n) for k in range(1, n + 1))
    assert np.allclose(cotangent_zeros(n, theta, h), want, rtol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_phase_matches_mpmath(n):
    rng = np.random.default_rng(n)
    r = np.sort(rng.uniform(-5.0, 5.0, n))
    theta, h = float(rng.uniform(0.3, 2.8)), float(rng.uniform(0.5, 2.0))
    got = tb_zeros(r, theta, h)
    want = _mp_tb_zeros(r, theta, h)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_phase_handles_repeated_roots():
    got = tb_zeros([1.0, 1.0, 1.0], 0.9, 0.5)
    want = 1.0 + cotangent_zeros(3, 0.9, 0.5)
    assert np.allclose(got, want, rtol=1e-14)


def test_newton_steps_at_and_away_from_zeros():
    rng = np.random.default_rng(5)
    r = np.sort(rng.uniform(-5.0, 5.0, 12))
    theta, h = 0.9, 0.7
    z = tb_zeros(r, theta, h)
    rot = complex(math.cos(theta), math.sin(theta))
    # T_{theta,h} as sum_j a_j P(x - j lam) with lam = ih
    terms = [(-1, -1j * rot), (1, 1j * rot.conjugate())]
    steps = newton_steps(terms, 1j * h, z, roots=r)
    coeffs = np.polynomial.polynomial.polyfromroots(r)
    steps_c = newton_steps(terms, 1j * h, z, coeffs=coeffs)
    assert np.max(steps) < 1e-13 * max(1.0, np.max(np.abs(z)))
    assert np.max(steps_c) < 1e-9 * max(1.0, np.max(np.abs(z)))
    # one Newton step from a perturbed point returns about the perturbation
    off = newton_steps(terms, 1j * h, z + 1e-4, roots=r)
    assert np.allclose(off, 1e-4, rtol=1e-2)


def test_newton_steps_degree_200_does_not_overflow():
    r = np.linspace(-5.0, 5.0, 200)
    z = tb_zeros(r, 0.7, 1.0)
    rot = complex(math.cos(0.7), math.sin(0.7))
    terms = [(-1, -1j * rot), (1, 1j * rot.conjugate())]
    steps = newton_steps(terms, 1j, z, roots=r)
    assert np.all(np.isfinite(steps))
    assert np.max(steps / np.maximum(1.0, np.abs(z))) < 1e-12


def test_newton_steps_forward_difference():
    # Delta P(x) = P(x + 1) - P(x) for P = x^2 is 2x + 1, zero at -1/2
    terms = [(-1, 1.0), (0, -1.0)]
    coeffs = np.array([0.0, 0.0, 1.0])
    assert newton_steps(terms, 1.0, [-0.5], coeffs=coeffs)[0] < 1e-15
    assert math.isclose(newton_steps(terms, 1.0, [0.5], coeffs=coeffs)[0], 1.0)
