"""The specialized operator T_{theta,h}(P) = (e^{i theta}P(x+ih) - e^{-i theta}P(x-ih))/i.

Closed-form images of monomials, their cotangent zero grids, and the
extremal mesh / root-bound quantities built from them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotRealRooted, TooFewRoots
from .operators import FDOperator, make_operator
from .poly import (
    Polynomial,
    coerce_real,
    evaluate_many,
    is_real_coeffs,
    linear_combine,
    monomial,
    shift_arg,
)
from .rootfind import (
    DEFAULT_REAL_TOL,
    classify_real,
    roots,
    sorted_real_parts,
)

__all__ = [
    "SIN_ZERO_TOL",
    "DeBruijnOp",
    "CotangentZeros",
    "apply_tb",
    "qn",
    "qn_zeros",
    "qn_zeros_report",
    "gn",
    "extremal_bounds",
    "mesh_floor",
    "simplicity_margin",
    "line_image",
    "as_fd_operator",
]

# |sin theta| at or below this counts as the degenerate (degree-dropping) case;
# values between this and the warning ceiling are numerically treacherous
# because the leading coefficient 2 sin(theta) nearly vanishes.
SIN_ZERO_TOL = 1e-12
_SIN_WARN_TOL = 1e-6


@dataclass(frozen=True)
class DeBruijnOp:
    theta: float
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise InvalidInput("step h must be > 0")


@dataclass(frozen=True)
class CotangentZeros:
    n: int
    theta: float
    zeros: tuple[float, ...]  # strictly decreasing in k

    @property
    def count(self) -> int:
        return len(self.zeros)


def _sin_degenerate(theta: float) -> bool:
    s = abs(math.sin(theta))
    if SIN_ZERO_TOL < s <= _SIN_WARN_TOL:
        warnings.warn(
            f"|sin(theta)| = {s:.2e} is nearly degenerate; the leading "
            "coefficient of images nearly vanishes",
            RuntimeWarning,
            stacklevel=3,
        )
    return s <= SIN_ZERO_TOL


def apply_tb(op: DeBruijnOp, p: Polynomial) -> Polynomial:
    """Image under T_{theta,h}, computed by two synthetic shifts.

    Real-coefficient input is coerced back to real coefficients after
    verifying the imaginary residue is roundoff-sized (<= 1e-10 relative);
    degenerate theta (sin theta = 0 numerically) is evaluated with the
    exactly-cancelling form so the degree drop is exact.
    """
    if p.is_zero:
        return p
    up = shift_arg(p, -1j * op.h)    # P(x + ih)
    down = shift_arg(p, 1j * op.h)   # P(x - ih)
    if _sin_degenerate(op.theta):
        sign = 1.0 if math.cos(op.theta) > 0 else -1.0
        image = linear_combine([(-1j * sign, up), (1j * sign, down)],
                               trim_tol=1e-13)
    else:
        e_plus = complex(math.cos(op.theta), math.sin(op.theta))
        image = linear_combine([(-1j * e_plus, up), (1j * e_plus.conjugate(), down)],
                               trim_tol=1e-13)
    if is_real_coeffs(p, 0.0).is_real:
        image = coerce_real(image, 1e-10)
    return image


def qn(n: int, theta: float) -> Polynomial:
    """Image of x**n under T_{theta,1} by direct expansion.

    n = 0 yields the constant 2 sin(theta), hence the zero polynomial in the
    degenerate case.
    """
    if n < 0:
        raise InvalidInput("n must be >= 0")
    return apply_tb(DeBruijnOp(theta, 1.0), monomial(n))


def qn_zeros(n: int, theta: float) -> CotangentZeros:
    """Closed-form zeros cot((-theta + pi k)/n), strictly decreasing in k."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if _sin_degenerate(theta):
        ks = range(1, n)
        zs = [1.0 / math.tan(math.pi * k / n) for k in ks]
    else:
        # reduce theta mod pi into (0, pi): the zero set is invariant
        theta_r = theta - math.floor(theta / math.pi) * math.pi
        zs = [1.0 / math.tan((-theta_r + math.pi * k) / n) for k in range(1, n + 1)]
    return CotangentZeros(n, theta, tuple(zs))


def qn_zeros_report(n: int, theta: float, h: float = 1.0) -> dict:
    """Closed-form zeros scaled by h, with cross-check residuals |G_n(h x_k)|."""
    if not h > 0:
        raise InvalidInput("h must be > 0")
    qz = qn_zeros(n, theta)
    g = gn(n, theta, h)
    scaled = [h * z for z in qz.zeros]
    residuals = [float(abs(v)) for v in evaluate_many(g, np.array(scaled))]
    return {
        "n": n,
        "theta": theta,
        "h": h,
        "count": qz.count,
        "zeros": scaled,
        "residuals": residuals,
    }


def gn(n: int, theta: float, h: float) -> Polynomial:
    """Image of x**n under T_{theta,h}; equals h**n * Q_n(x/h) up to roundoff."""
    if n < 0:
        raise InvalidInput("n must be >= 0")
    return apply_tb(DeBruijnOp(theta, h), monomial(n))


def extremal_bounds(p: Polynomial, theta: float, h: float,
                    tol: float = DEFAULT_REAL_TOL) -> dict:
    """Upper/lower bounds on the extreme image roots: ext(P) + h * ext(Q_n)."""
    rs = roots(p)
    if not classify_real(rs, tol).is_real_rooted:
        raise NotRealRooted("extremal bounds require a real-rooted polynomial")
    qz = qn_zeros(p.degree, theta)
    if qz.count == 0:
        raise TooFewRoots("monomial image is constant; no root bounds exist")
    xs = sorted_real_parts(rs)
    return {
        "lambda_bound": float(xs[-1]) + h * max(qz.zeros),
        "mu_bound": float(xs[0]) + h * min(qz.zeros),
    }


def mesh_floor(n: int, theta: float, h: float) -> float:
    """h times the mesh of the cotangent grid: the minimal image mesh at degree n."""
    qz = qn_zeros(n, theta)
    if qz.count < 2:
        raise TooFewRoots("mesh floor needs at least 2 cotangent zeros")
    zs = np.sort(np.array(qz.zeros))
    return h * float(np.min(np.diff(zs)))


def simplicity_margin(p: Polynomial, theta: float, h: float,
                      tol: float = DEFAULT_REAL_TOL) -> float:
    """Minimal gap between sorted image roots; +inf for a single-root image."""
    rs = roots(p)
    if not classify_real(rs, tol).is_real_rooted:
        raise NotRealRooted("simplicity margin requires a real-rooted input")
    image = apply_tb(DeBruijnOp(theta, h), p)
    if image.is_zero or image.degree == 0:
        raise TooFewRoots("image is constant; no roots to separate")
    if image.degree == 1:
        return math.inf
    irs = roots(image)
    xs = sorted_real_parts(irs)
    return float(np.min(np.diff(xs)))


def line_image(p: Polynomial, beta: float, theta: float) -> Polynomial:
    """(S_{i beta} - e^{i theta} I)(P) = P(x - i beta) - e^{i theta} P(x)."""
    e = complex(math.cos(theta), math.sin(theta))
    return linear_combine([(1.0, shift_arg(p, 1j * beta)), (-e, p)],
                          trim_tol=1e-13)


def as_fd_operator(op: DeBruijnOp) -> FDOperator:
    """T_{theta,h} written in the general finite-difference form (shift ih)."""
    e = complex(math.cos(op.theta), math.sin(op.theta))
    return make_operator(1j * op.h, {-1: -1j * e, 1: 1j * e.conjugate()})
