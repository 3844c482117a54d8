"""Walsh convolution, apolarity, and the convolution route to T_{theta,h}.

The convolution P [+] Q (x) = sum_k P^(k)(0) * Q^(n-k)(x) is taken inside an
explicit frame degree n; operands of lower degree are zero-padded, which is
what lets the degenerate (sin theta = 0) monomial images participate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeExceedsFrame, InvalidInput, NotRealRooted, ZeroPolynomial
from .debruijn import gn
from .poly import Polynomial, derivative, linear_combine, make_poly
from .rootfind import (
    DEFAULT_REAL_TOL,
    classify_real,
    roots,
    sorted_real_parts,
)

__all__ = [
    "walsh_convolve",
    "apolar",
    "apolar_report",
    "tb_via_walsh",
    "walsh_interval_bound",
]


def _check_frame(p: Polynomial, q: Polynomial, n: int) -> None:
    if n < 0:
        raise InvalidInput("frame degree must be >= 0")
    for poly, name in ((p, "P"), (q, "Q")):
        if not poly.is_zero and poly.degree > n:
            raise DegreeExceedsFrame(f"deg {name} = {poly.degree} exceeds frame {n}")


def _derivs_at_zero(p: Polynomial, n: int) -> np.ndarray:
    """P^(k)(0) = k! * coeffs[k], exactly, padded to k = 0..n."""
    out = np.zeros(n + 1, dtype=complex)
    for k, c in enumerate(p.coeffs):
        out[k] = math.factorial(k) * c
    return out


def walsh_convolve(p: Polynomial, q: Polynomial, n: int) -> Polynomial:
    """P [+] Q inside frame degree n."""
    _check_frame(p, q, n)
    pd = _derivs_at_zero(p, n)
    q_derivs = [q]
    for _ in range(n):
        q_derivs.append(derivative(q_derivs[-1]))
    pairs = [(pd[k], q_derivs[n - k]) for k in range(n + 1)]
    return linear_combine(pairs)


def apolar_report(p: Polynomial, q: Polynomial, n: int, tol: float) -> dict:
    """Apolarity verdict plus the magnitude of sum (-1)^k P^(k)(0) Q^(n-k)(0).

    The vanishing test is relative to the largest summand; an exactly zero
    summand scale (both operands too sparse) counts as apolar.
    """
    _check_frame(p, q, n)
    pd = _derivs_at_zero(p, n)
    qd = _derivs_at_zero(q, n)
    terms = np.array([(-1) ** k * pd[k] * qd[n - k] for k in range(n + 1)])
    scale = float(np.max(np.abs(terms)))
    total = float(abs(terms.sum()))
    return {
        "apolar": scale == 0.0 or total <= tol * scale,
        "sum_magnitude": total,
        "term_scale": scale,
    }


def apolar(p: Polynomial, q: Polynomial, n: int, tol: float) -> bool:
    return apolar_report(p, q, n, tol)["apolar"]


def tb_via_walsh(p: Polynomial, theta: float, h: float) -> Polynomial:
    """T_{theta,h}(P) computed as (1/n!) P [+] G_n, the convolution route."""
    if p.is_zero:
        raise ZeroPolynomial("the convolution route needs a nonzero polynomial")
    n = p.degree
    g = gn(n, theta, h)
    conv = walsh_convolve(p, g, n)
    return make_poly(conv.as_array() / math.factorial(n))


def walsh_interval_bound(p: Polynomial, q: Polynomial, n: int,
                         tol: float = DEFAULT_REAL_TOL) -> dict:
    """Root interval [mu(P)+mu(Q), lambda(P)+lambda(Q)] containing P [+] Q zeros."""
    if p.degree != n or q.degree != n:
        raise InvalidInput("interval bound is stated for degree == frame")
    lo = hi = 0.0
    for poly in (p, q):
        rs = roots(poly)
        if not classify_real(rs, tol).is_real_rooted:
            raise NotRealRooted("interval bound requires real-rooted operands")
        xs = sorted_real_parts(rs)
        lo += float(xs[0])
        hi += float(xs[-1])
    return {"lo": lo, "hi": hi}
