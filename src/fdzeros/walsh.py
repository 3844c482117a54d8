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
from .poly import (
    ZERO,
    Polynomial,
    _check_finite,
    _check_int,
    _check_tol,
    derivative,
    linear_combine,
    make_poly,
)
from .rootfind import (
    DEFAULT_REAL_TOL,
    _drive,
    classify_real,
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
    _check_int(n, "frame degree", 0)
    for poly, name in ((p, "P"), (q, "Q")):
        if not poly.is_zero and poly.degree > n:
            raise DegreeExceedsFrame(f"deg {name} = {poly.degree} exceeds frame {n}")
        if not poly.is_zero and poly.degree > 170:
            raise InvalidInput(f"deg {name} = {poly.degree} exceeds 170, the largest "
                               "k whose k! is a finite double")


def _vanishes(p: Polynomial, q: Polynomial, n: int) -> bool:
    # Every term P^(k)(0) Q^(n-k) has an exactly zero factor once the frame
    # exceeds deg P + deg Q, or when an operand is zero.
    return p.is_zero or q.is_zero or p.degree + q.degree < n


def _derivs_at_zero(p: Polynomial, n: int) -> np.ndarray:
    """P^(k)(0) = k! * coeffs[k], exactly, padded to k = 0..n."""
    out = np.zeros(n + 1, dtype=complex)
    for k, c in enumerate(p.coeffs):
        out[k] = math.factorial(k) * c
    return out


def walsh_convolve(p: Polynomial, q: Polynomial, n: int) -> Polynomial:
    """P [+] Q inside frame degree n; InvalidInput if a coefficient overflows
    a double (P = from_roots(linspace(-1, 1, n)), Q = G_n(0.7, 1) at n = 150).
    A term whose P^(k)(0) is exactly zero is left out, whatever Q^(n-k) is."""
    _check_frame(p, q, n)
    if _vanishes(p, q, n):
        return ZERO
    pd = _derivs_at_zero(p, n)
    q_derivs = [q]
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        for _ in range(n):
            q_derivs.append(derivative(q_derivs[-1]))
    # a pair with P^(k)(0) exactly zero adds nothing, and would turn an
    # overflowing Q^(n-k) into NaN (0 * inf)
    pairs = [(pd[k], q_derivs[n - k]) for k in range(n + 1) if pd[k] != 0]
    return _check_finite(linear_combine(pairs), f"P [+] Q in frame {n}")


def apolar_report(p: Polynomial, q: Polynomial, n: int, tol: float) -> dict:
    """Apolarity verdict plus the magnitude of sum (-1)^k P^(k)(0) Q^(n-k)(0).

    The vanishing test is relative to the largest summand; an exactly zero
    summand scale (both operands too sparse) counts as apolar.  A summand
    with an exactly zero factor is zero, whatever the other factor.  Raises
    InvalidInput for a tol that is negative or not finite, and when a summand
    or the sum overflows a double (P = 100 * sum x^k at degree 170, Q = 1).
    """
    _check_tol(tol, "tolerance")
    _check_frame(p, q, n)
    if _vanishes(p, q, n):
        return {"apolar": True, "sum_magnitude": 0.0, "term_scale": 0.0}
    pd = _derivs_at_zero(p, n)
    qd = _derivs_at_zero(q, n)
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        # a term with an exactly zero factor is zero, not 0 * inf = NaN; it
        # keeps its place, so the sum adds the others in the same order
        terms = np.array([(-1) ** k * pd[k] * qd[n - k] if pd[k] != 0 and qd[n - k] != 0
                          else 0j for k in range(n + 1)])
        scale = float(np.max(np.abs(terms)))
        total = float(abs(terms.sum()))
    if not (math.isfinite(scale) and math.isfinite(total)):
        raise InvalidInput(f"sum (-1)^k P^(k)(0) Q^(n-k)(0) in frame {n} overflows "
                           "a double")
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
    with np.errstate(all="ignore"):
        return make_poly(conv.as_array() / math.factorial(n))


def walsh_interval_bound(p: Polynomial, q: Polynomial, n: int,
                         tol: float = DEFAULT_REAL_TOL) -> dict:
    """Root interval [mu(P)+mu(Q), lambda(P)+lambda(Q)] containing P [+] Q zeros."""
    return _drive(_walsh_interval_bound(p, q, n, tol))


def _walsh_interval_bound(p: Polynomial, q: Polynomial, n: int, tol: float):
    if p.degree != n or q.degree != n:
        raise InvalidInput("interval bound is stated for degree == frame")
    lo = hi = 0.0
    for poly in (p, q):
        rs, = yield [poly]
        if not classify_real(rs, tol).is_real_rooted:
            raise NotRealRooted("interval bound requires real-rooted operands")
        xs = sorted_real_parts(rs)
        lo += float(xs[0])
        hi += float(xs[-1])
    return {"lo": lo, "hi": hi}
