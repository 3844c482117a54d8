"""Reference computations the benchmark checks fdzeros against.

Nothing here imports fdzeros: each oracle reaches its answer by a route that
shares no code with the library (no coefficient shifts, no Aberth
iteration), so agreement is evidence and not an echo.

- `cotangent_zeros`: the closed form h*cot((pi k - theta)/n) for the zeros of
  T_{theta,h}(x^n).
- `tb_zeros`: the zeros of T_{theta,h}(P) for real-rooted P, from de Bruijn's
  phase equation theta + sum_k arccot((x - r_k)/h) = pi k, solved by
  vectorised bisection.  It works from the roots r_k alone, so it has no
  conditioning wall at high degree.
- `newton_steps`: T(P)(z) = sum_j a_j P(z - j*lambda) and its derivative
  evaluated pointwise with numpy, not through shifted coefficients; their
  ratio bounds how far a reported root sits from a true zero.
"""

from __future__ import annotations

import numpy as np


def _reduce_theta(theta: float) -> float:
    """theta mod pi, in [0, pi); the zero set depends on nothing more."""
    return float(theta - np.floor(theta / np.pi) * np.pi)


def _targets(n: int, theta_r: float) -> np.ndarray:
    # phase targets pi*k - theta inside (0, n*pi); for theta = 0 mod pi the
    # top target falls on n*pi and the image loses a degree
    k = np.arange(1, n + 1) if theta_r > 0.0 else np.arange(1, n)
    return np.pi * k - theta_r


def cotangent_zeros(n: int, theta: float, h: float) -> np.ndarray:
    """Zeros of T_{theta,h}(x^n), ascending."""
    t = _targets(n, _reduce_theta(theta))
    return np.sort(h / np.tan(t / n))


def tb_zeros(r, theta: float, h: float) -> np.ndarray:
    """Zeros of T_{theta,h}(P), ascending, for P with real roots r.

    With x - r_k + ih = rho_k e^{i phi_k}, T_{theta,h}(P)(x) equals
    2 * prod(rho_k) * sin(theta + sum_k phi_k), and phi_k = arccot((x - r_k)/h)
    falls strictly from pi to 0.  Each target pi*k - theta has one solution,
    bracketed by [min r + h*cot(t/n), max r + h*cot(t/n)] because every phi_k
    lies between the phases of the extreme roots.  Bisection halves every
    bracket until it stops shrinking in floating point.
    """
    r = np.sort(np.asarray(r, dtype=float))
    n = len(r)
    if n == 0:
        return np.zeros(0)
    theta_r = _reduce_theta(theta)
    t = _targets(n, theta_r)
    centre = h / np.tan(t / n)
    lo, hi = r[0] + centre, r[-1] + centre
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        phase = np.arctan2(h, mid[:, None] - r[None, :]).sum(axis=1)
        above = phase > t  # phase still above target: the zero lies right of mid
        new_lo = np.where(above, mid, lo)
        new_hi = np.where(above, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return np.sort(0.5 * (lo + hi))


def newton_steps(terms, lam: complex, z, *, roots=None, coeffs=None) -> np.ndarray:
    """|T(P)(z) / T(P)'(z)| at each point z, where T(P)(z) = sum_j a_j P(z - j lam).

    This is the length of a Newton step from z, to first order the distance
    from z to the nearest zero of T(P): a forward-error estimate for a
    reported root.  terms is a sequence of (j, a_j).  P is given either by its
    roots (monic product form, for high degree, where coefficients lose
    accuracy) or by ascending coefficients.  The summands are formed in log
    space with the largest factored out, so degree-200 products neither
    overflow nor underflow.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    js = np.array([j for j, _ in terms], dtype=float)
    a = np.array([complex(c) for _, c in terms])
    w = z[:, None] - js[None, :] * complex(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        if roots is not None:
            diff = w[..., None] - np.asarray(roots, dtype=complex)
            log_p = np.log(diff).sum(axis=-1)
            dlog_p = (1.0 / diff).sum(axis=-1)  # P'/P
        else:
            c = np.asarray(coeffs, dtype=complex)
            pv = np.polynomial.polynomial.polyval(w, c)
            log_p = np.log(pv)
            dlog_p = np.polynomial.polynomial.polyval(w, np.polynomial.polynomial.polyder(c)) / pv
        logs = log_p + np.log(a)[None, :]  # an exact zero summand has log -inf
        parts = np.exp(logs - np.max(logs.real, axis=1, keepdims=True))
        return np.abs(parts.sum(axis=1) / (parts * dlog_p).sum(axis=1))
