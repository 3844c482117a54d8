"""Dense complex-coefficient polynomials, ascending by power.

coeffs[k] multiplies x**k.  The zero polynomial is the empty tuple and has
degree None; every nonzero polynomial carries a nonzero trailing coefficient.
All values are immutable and every operation is pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ImaginaryResidue, InvalidInput

__all__ = [
    "Polynomial",
    "ZERO",
    "make_poly",
    "monomial",
    "from_roots",
    "evaluate",
    "evaluate_many",
    "shift_arg",
    "derivative",
    "linear_combine",
    "multiply",
    "reflect",
    "coeff_scale",
    "RealCoeffReport",
    "is_real_coeffs",
    "coerce_real",
    "poly_to_json",
    "poly_from_json",
]


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[complex, ...]

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


ZERO = Polynomial(())


def make_poly(coeffs: Iterable[complex]) -> Polynomial:
    """Build a polynomial, stripping trailing coefficients that are exactly zero."""
    c = [complex(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return Polynomial(tuple(c))


def monomial(n: int) -> Polynomial:
    _check_int(n, "monomial power", 0)
    return make_poly([0.0] * n + [1.0])


def from_roots(roots: Sequence[complex]) -> Polynomial:
    """Expand the monic prod(x - r) by repeated convolution; InvalidInput
    when a coefficient of the product overflows."""
    acc = np.array([1.0 + 0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-complex(r), 1.0]))
    return _check_finite(Polynomial(tuple(acc)), "prod(x - r)")


def evaluate(p: Polynomial, z: complex) -> complex:
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def evaluate_many(p: Polynomial, zs: np.ndarray) -> np.ndarray:
    """p at each point of zs; a value that overflows comes back inf or NaN,
    without a numpy warning."""
    zs = np.asarray(zs, dtype=complex)
    acc = np.zeros_like(zs)
    with np.errstate(all="ignore"):
        for c in reversed(p.coeffs):
            acc = acc * zs + c
    return acc


def shift_arg(p: Polynomial, lam: complex) -> Polynomial:
    """Coefficients of P(x - lam) via repeated synthetic division.

    Degree is preserved exactly; the leading coefficient is untouched.  The
    division runs on Python complex numbers, which round as numpy's
    complex128 does but overflow to inf or NaN without a warning.
    """
    lam = complex(lam)
    if p.is_zero or lam == 0:
        return p
    a = [complex(c) for c in p.coeffs]
    n = len(a) - 1
    s = -lam
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            a[j] += s * a[j + 1]
    return Polynomial(tuple(a))


# `_shift_many` runs its S nonzero shifts as one wavefront once degree * S
# reaches this, and loops `shift_arg` below it.  A wavefront step costs about
# the same for any small S, while the loop's cost grows with S, so the
# cutover degree falls as S grows: 28 for 4 shifts, 56 for 2, 112 for 1.
# Measured break-even (2-CPU Xeon, numpy 2.4, loop and wavefront alternated,
# median of 25 rounds): degree * S = 104-112 for 1 and 2 shifts, ~96 for 4.
_WAVEFRONT_WORK = 112


def _shift_many(p: Polynomial, lams) -> list[Polynomial]:
    """[shift_arg(p, lam) for lam in lams], bit for bit, with every nonzero
    shift computed in one pass when the work is large enough.

    Synthetic division step k updates a[j] for j = n-1 down to k from the
    a[j+1] of the same step and the a[j] of step k-1, so every update with
    j - k = const can run at once: n vectorized steps instead of n(n+1)/2
    scalar ones (the wavefront form of the Taylor shift).  The real and
    imaginary parts are kept in separate float64 values and each product
    is written out as (ac - bd, ad + bc), the arithmetic of Python's complex
    type, so no fused or reordered operation can change a bit.
    """
    moving = [complex(lam) for lam in lams if lam != 0]
    n = len(p.coeffs) - 1
    if n * len(moving) < _WAVEFRONT_WORK:
        return [shift_arg(p, lam) for lam in lams]
    s = -np.array(moving)
    w = 2 * len(moving)
    # row j holds (re, im) of a[j] for each shift, so the rows a step reads
    # are one contiguous block
    x = np.empty((n + 1, len(moving), 2))
    a = p.as_array()
    x[:, :, 0] = a.real[:, None]
    x[:, :, 1] = a.imag[:, None]
    flat = x.reshape(-1)
    sr = np.tile(np.repeat(s.real, 2), n)
    si = np.tile(np.repeat(s.imag, 2), n)
    u, v = np.empty(n * w), np.empty(n * w)
    with np.errstate(all="ignore"):
        for lo in range(n - 1, -1, -1):
            m = (n - lo) * w
            src = flat[(lo + 1) * w:]
            # s * b for s = c + id and b = a[j+1]: (cb_re - db_im, cb_im + db_re)
            np.multiply(sr[:m], src, out=u[:m])
            np.multiply(si[:m], src, out=v[:m])
            np.subtract(u[0:m:2], v[1:m:2], out=u[0:m:2])
            np.add(u[1:m:2], v[0:m:2], out=u[1:m:2])
            flat[lo * w:n * w] += u[:m]
    # assigned part by part: re + 1j * im would turn an infinite im into NaN
    out = np.empty((len(moving), n + 1), dtype=complex)
    out.real = x[:, :, 0].T
    out.imag = x[:, :, 1].T
    shifted = iter(Polynomial(tuple(row)) for row in out.tolist())
    return [next(shifted) if lam != 0 else p for lam in lams]


def derivative(p: Polynomial) -> Polynomial:
    if p.is_zero or p.degree == 0:
        return ZERO
    a = p.as_array()
    return make_poly(a[1:] * np.arange(1, len(a)))


def linear_combine(pairs, trim_tol: float | None = None) -> Polynomial:
    """Sum of scalar * polynomial.

    Trailing exact zeros are always stripped.  When trim_tol is given,
    trailing coefficients are also stripped while they are tiny relative to
    the magnitudes that were summed to produce them, i.e. while the leading
    term is pure cancellation noise.
    """
    length = max((len(p.coeffs) for _, p in pairs), default=0)
    acc = np.zeros(length, dtype=complex)
    mass = np.zeros(length)
    with np.errstate(all="ignore"):  # overflow gives inf or NaN, unwarned
        for s, p in pairs:
            if p.coeffs:
                term = complex(s) * p.as_array()
                acc[: len(p.coeffs)] += term
                mass[: len(p.coeffs)] += np.abs(term)
    if trim_tol is not None and length:
        k = length
        while k > 0 and abs(acc[k - 1]) <= trim_tol * mass[k - 1]:
            k -= 1
        acc = acc[:k]
    return make_poly(acc)


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero or q.is_zero:
        return ZERO
    return make_poly(np.convolve(p.as_array(), q.as_array()))


def reflect(p: Polynomial) -> Polynomial:
    """P(-x)."""
    a = p.as_array().copy()
    a[1::2] *= -1
    return Polynomial(tuple(a))


def coeff_scale(p: Polynomial) -> float:
    """Max coefficient magnitude; 0 for the zero polynomial."""
    return float(np.max(np.abs(p.as_array()))) if p.coeffs else 0.0


def _check_tol(tol: float, what: str) -> None:
    if not 0.0 <= tol < math.inf:
        raise InvalidInput(f"{what} must be finite and >= 0, got {tol}")


def _check_int(value, what: str, lo: int) -> None:
    # an int or numpy integer (a bool is not one) of at least lo
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    if value < lo:
        raise InvalidInput(f"{what} must be >= {lo}, got {value}")


def _check_finite(p: Polynomial, what: str) -> Polynomial:
    """p, the result `what` names, or InvalidInput naming the overflow when
    a coefficient of p is not finite."""
    # a scalar scan: at the degrees the package meets, faster than numpy's
    if all(map(cmath.isfinite, p.coeffs)):
        return p
    bad = int(np.count_nonzero(~np.isfinite(p.as_array())))
    raise InvalidInput(f"{what} overflows a double: {bad} of {len(p.coeffs)} "
                       "coefficients are not finite")


class RealCoeffReport(NamedTuple):
    is_real: bool
    max_imag: float


def is_real_coeffs(p: Polynomial, tol: float) -> RealCoeffReport:
    """True iff max |Im c_k| <= tol * max(1, max |c_k|)."""
    _check_tol(tol, "tolerance")
    if p.is_zero:
        return RealCoeffReport(True, 0.0)
    a = p.as_array()
    max_imag = float(np.max(np.abs(a.imag)))
    bound = tol * max(1.0, float(np.max(np.abs(a))))
    return RealCoeffReport(max_imag <= bound, max_imag)


def coerce_real(p: Polynomial, tol_rel: float) -> Polynomial:
    """Drop imaginary parts, verifying they are roundoff-sized.

    Raises ImaginaryResidue if max |Im c_k| > tol_rel * max |c_k|.
    """
    if p.is_zero:
        return p
    a = p.as_array()
    scale = float(np.max(np.abs(a)))
    max_imag = float(np.max(np.abs(a.imag)))
    if max_imag > tol_rel * scale:
        raise ImaginaryResidue(
            f"imaginary residue {max_imag:.3e} exceeds {tol_rel:.1e} * scale {scale:.3e}"
        )
    return make_poly(a.real.astype(complex))


def poly_to_json(p: Polynomial) -> dict:
    return {"coeffs": [[c.real, c.imag] for c in p.coeffs]}


def _finite_pair(v, where: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        raise InvalidInput(f"{where}: expected a [re, im] pair of numbers")
    if not (math.isfinite(v[0]) and math.isfinite(v[1])):
        raise InvalidInput(f"{where}: non-finite number")
    return complex(v[0], v[1])


def poly_from_json(obj) -> Polynomial:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InvalidInput("polynomial JSON must be an object with a 'coeffs' field")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise InvalidInput("coeffs: expected a list")
    return make_poly(
        [_finite_pair(v, f"coeffs[{k}]") for k, v in enumerate(coeffs)]
    )
