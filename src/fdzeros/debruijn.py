"""The specialized operator T_{theta,h}(P) = (e^{i theta}P(x+ih) - e^{-i theta}P(x-ih))/i.

Closed-form images of monomials, their cotangent zero grids, and the
extremal mesh / root-bound quantities built from them.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotRealRooted, TooFewRoots
from .operators import FDOperator, make_operator
from .poly import (
    Polynomial,
    _check_finite,
    _shift_many,
    coerce_real,
    evaluate_many,
    is_real_coeffs,
    linear_combine,
    monomial,
    shift_arg,
)
from .rootfind import (
    DEFAULT_REAL_TOL,
    RootSet,
    _drive,
    classify_real,
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
_PACKAGE_DIR = os.path.dirname(__file__)


@dataclass(frozen=True)
class DeBruijnOp:
    theta: float
    h: float

    def __post_init__(self):
        # the one rule on (theta, h), which the functions taking them apply
        if not math.isfinite(self.theta):
            raise InvalidInput(f"angle theta must be finite, got {self.theta!r}")
        if not self.h > 0:
            raise InvalidInput("step h must be > 0")
        if self.h == math.inf:
            raise InvalidInput("step h must be finite")


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
        # the warning names the first caller outside this package, whether
        # the user called apply_tb directly or through qn, gn or the harness
        frame, level = sys._getframe(), 1
        while (frame.f_back is not None
               and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"|sin(theta)| = {s:.2e} is nearly degenerate; the leading "
            "coefficient of images nearly vanishes",
            RuntimeWarning,
            stacklevel=level,
        )
    return s <= SIN_ZERO_TOL


def apply_tb(op: DeBruijnOp, p: Polynomial) -> Polynomial:
    """Image under T_{theta,h}, computed by synthetic shifts.

    Real-coefficient input takes one shift, P(x + ih), and P(x - ih) as its
    conjugate; its image is coerced back to real coefficients after
    verifying the imaginary residue is roundoff-sized (<= 1e-10 relative).
    Complex input takes both shifts.  Degenerate theta (sin theta = 0
    numerically) is evaluated with the exactly-cancelling form so the
    degree drop is exact.  InvalidInput if a coefficient overflows a double
    (gn(3, 0.7, 1e200)), checked before the coercion drops a NaN imaginary
    part.
    """
    if p.is_zero:
        return p
    real = is_real_coeffs(p, 0.0).is_real
    if real:
        up, = _shift_many(p, (-1j * op.h,))  # P(x + ih)
        down = Polynomial(tuple(c.conjugate() for c in up.coeffs))  # P(x - ih)
    else:
        up, down = _shift_many(p, (-1j * op.h, 1j * op.h))
    if _sin_degenerate(op.theta):
        sign = 1.0 if math.cos(op.theta) > 0 else -1.0
        image = linear_combine([(-1j * sign, up), (1j * sign, down)],
                               trim_tol=1e-13)
    else:
        e_plus = complex(math.cos(op.theta), math.sin(op.theta))
        image = linear_combine([(-1j * e_plus, up), (1j * e_plus.conjugate(), down)],
                               trim_tol=1e-13)
    _check_finite(image, "T_{theta,h}(P)")
    if real:
        image = coerce_real(image, 1e-10)
    return image


def qn(n: int, theta: float) -> Polynomial:
    """Image of x**n under T_{theta,1}: gn(n, theta, 1.0).

    n = 0 yields the constant 2 sin(theta), hence the zero polynomial in the
    degenerate case.
    """
    return gn(n, theta, 1.0)


def qn_zeros(n: int, theta: float) -> CotangentZeros:
    """Closed-form zeros cot((-theta + pi k)/n), strictly decreasing in k."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    DeBruijnOp(theta, 1.0)  # Q_n is the image under T_{theta,1}: theta's rule
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
    DeBruijnOp(theta, h)
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
    """Upper/lower bounds on the extreme image roots: ext(P) + h * ext(Q_n).

    InvalidInput when a bound overflows a double (h = 1.7e308)."""
    return _drive(_extremal_bounds(p, theta, h, tol))


def _extremal_bounds(p: Polynomial, theta: float, h: float, tol: float):
    DeBruijnOp(theta, h)
    rs, = yield [p]
    if not classify_real(rs, tol).is_real_rooted:
        raise NotRealRooted("extremal bounds require a real-rooted polynomial")
    qz = qn_zeros(p.degree, theta)
    if qz.count == 0:
        raise TooFewRoots("monomial image is constant; no root bounds exist")
    xs = sorted_real_parts(rs)
    with np.errstate(over="ignore", invalid="ignore"):  # h may be a numpy scalar
        bounds = {
            "lambda_bound": float(xs[-1]) + h * max(qz.zeros),
            "mu_bound": float(xs[0]) + h * min(qz.zeros),
        }
    if not all(map(math.isfinite, bounds.values())):
        raise InvalidInput(f"extremal bounds at h = {h!r} overflow a double")
    return bounds


def mesh_floor(n: int, theta: float, h: float) -> float:
    """h times the mesh of the cotangent grid: the minimal image mesh at degree n.

    InvalidInput when the product overflows a double (h = 1.7e308)."""
    DeBruijnOp(theta, h)
    qz = qn_zeros(n, theta)
    if qz.count < 2:
        raise TooFewRoots("mesh floor needs at least 2 cotangent zeros")
    zs = np.sort(np.array(qz.zeros))
    floor = h * float(np.min(np.diff(zs)))
    if not math.isfinite(floor):
        raise InvalidInput(f"mesh floor at h = {h!r} overflows a double")
    return floor


def simplicity_margin(p: Polynomial, theta: float, h: float,
                      tol: float = DEFAULT_REAL_TOL) -> float:
    """Minimal gap between sorted image roots; +inf for a single-root image."""
    return _drive(_simplicity_margin(p, theta, h, tol))


def _simplicity_margin(p: Polynomial, theta: float, h: float, tol: float,
                       irs: RootSet | None = None):
    # irs: the image's roots, when the caller has root-found the image already
    rs, = yield [p]
    if not classify_real(rs, tol).is_real_rooted:
        raise NotRealRooted("simplicity margin requires a real-rooted input")
    if irs is None:
        image = apply_tb(DeBruijnOp(theta, h), p)
        if image.is_zero or image.degree == 0:
            raise TooFewRoots("image is constant; no roots to separate")
        if image.degree == 1:
            return math.inf
        irs, = yield [image]
    xs = sorted_real_parts(irs)
    return float(np.min(np.diff(xs))) if len(xs) > 1 else math.inf


def line_image(p: Polynomial, beta: float, theta: float) -> Polynomial:
    """(S_{i beta} - e^{i theta} I)(P) = P(x - i beta) - e^{i theta} P(x).

    InvalidInput when a coefficient overflows a double (beta = 1e200)."""
    if not (math.isfinite(beta) and math.isfinite(theta)):
        raise InvalidInput(f"beta and theta must be finite, got {beta!r}, {theta!r}")
    e = complex(math.cos(theta), math.sin(theta))
    image = linear_combine([(1.0, shift_arg(p, 1j * beta)), (-e, p)],
                           trim_tol=1e-13)
    return _check_finite(image, f"line image at beta = {beta!r}")


def as_fd_operator(op: DeBruijnOp) -> FDOperator:
    """T_{theta,h} written in the general finite-difference form (shift ih)."""
    e = complex(math.cos(op.theta), math.sin(op.theta))
    return make_operator(1j * op.h, {-1: -1j * e, 1: 1j * e.conjugate()})
