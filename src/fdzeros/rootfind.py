"""Simultaneous root computation and root-set predicates.

Every root-find goes through one engine, `aberth_batch`: closed forms for
degrees 1 and 2, Aberth-Ehrlich iteration (all roots at once) above that, and
one residual certificate for every degree.  The predicates below (realness,
mesh, extremes, interlacing) are the language the zero-location guarantees
elsewhere in the package are stated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstantPolynomial,
    DegreeGapTooLarge,
    InvalidInput,
    NonConvergence,
    NotRealRooted,
    TooFewRoots,
    ZeroPolynomial,
)
from .poly import Polynomial, coeff_scale, evaluate_many, make_poly

__all__ = [
    "RootSet",
    "RealnessVerdict",
    "roots",
    "roots_many",
    "aberth_batch",
    "classify_real",
    "sorted_real_parts",
    "mesh",
    "extremes",
    "interlace",
    "pencil_hyperbolic_sample",
    "rootset_to_json",
    "DEFAULT_REAL_TOL",
]

DEFAULT_REAL_TOL = 1e-8

# Aberth iteration budget, and the residual certified relative to the error
# bound sum_k |a_k| |z|^k.  Iteration runs to near machine level first.
MAX_ITER = 160
TOL = 1e-10
_ITER_TOL = TOL * 1e-4


@dataclass(frozen=True)
class RootSet:
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    scale: float  # max coefficient magnitude of the source polynomial


class RealnessVerdict(NamedTuple):
    is_real_rooted: bool
    max_imag: float
    tol_used: float


def _horner_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    # c: (B, m) ascending coefficients, z: (B, n) points
    acc = np.zeros_like(z)
    for k in range(c.shape[1] - 1, -1, -1):
        acc = acc * z + c[:, k, None]
    return acc


def _residual_ok(a: np.ndarray, absa: np.ndarray, z: np.ndarray, tol: float):
    """Per-root test |p(z)| <= tol * max(1, sum_k |a_k| |z|^k), and p(z).

    A root whose error bound is not finite (NaN or overflowing z) never passes.
    """
    p = _horner_rows(a, z)
    err = _horner_rows(absa, np.abs(z))
    return (np.abs(p) <= tol * np.maximum(err, 1.0)) & np.isfinite(err), p


def _aberth(a: np.ndarray, absa: np.ndarray) -> np.ndarray:
    # a: (B, n+1) monic rows, n >= 3.  Each row iterates on its own: a root
    # stops once its residual passes, a row stops once its own steps stagnate.
    B, m = a.shape
    n = m - 1
    dcoef = a[:, 1:] * np.arange(1, n + 1)
    # Fujiwara root bound on the monic form; Cauchy's 1 + max|a_k| overshoots
    # badly when the coefficient range is wide.
    radius = 2.0 * np.max(absa[:, :-1] ** (1.0 / np.arange(n, 0, -1)), axis=1)
    radius = np.maximum(radius, 1e-3)
    k = np.arange(n)
    angles = 2.0 * np.pi * (k + 0.25) / n + 0.43
    wobble = 1.0 + 0.05 * np.cos(7.0 * k + 1.0)
    z = radius[:, None] * (np.exp(1j * angles) * wobble)[None, :]
    eye = np.eye(n, dtype=bool)[None, :, :]
    stalled = np.zeros(B, dtype=bool)
    for it in range(MAX_ITER):
        done, p = _residual_ok(a, absa, z, _ITER_TOL)
        done |= stalled[:, None]
        if done.all():
            break
        dp = _horner_rows(dcoef, z)
        w = np.where(dp != 0, p / dp, 0.1 * (1.0 + np.abs(z)))
        diff = z[:, :, None] - z[:, None, :]
        s = np.where(~eye & (diff != 0), 1.0 / diff, 0.0).sum(axis=2)
        denom = 1.0 - w * s
        step = np.where(np.abs(denom) > 1e-30, w / denom, w)
        step = np.where(np.isfinite(step), step, 0.05 * (1.0 + np.abs(z)) * np.exp(1j * it))
        step = np.where(done, 0.0, step)
        z = z - step
        stalled |= np.max(np.abs(step), axis=1) <= 1e-16 * (1.0 + np.max(np.abs(z), axis=1))
    # Newton polish: a few extra steps push simple roots close to machine
    # accuracy; the certificate then judges what is returned.  Oversized and
    # non-finite steps (clustered roots, vanishing derivative) are rejected.
    for _ in range(3):
        step = _horner_rows(a, z) / _horner_rows(dcoef, z)
        z = z - np.where(np.abs(step) <= 0.5 * (1.0 + np.abs(z)), step, 0.0)
    return z


def aberth_batch(c: np.ndarray) -> np.ndarray:
    """All roots for a batch of same-degree polynomials.

    c is (B, n+1), ascending, with nonzero leading column.  Returns (B, n)
    roots.  Degrees 1 and 2 use closed forms, higher degrees Aberth-Ehrlich
    iteration with Newton polish.  Every row is certified against the error
    bound sum_k |a_k| |z|^k of its monic form, so large-magnitude roots are
    not held to an unattainable absolute residual; a row with a non-finite
    root or error bound is never certified.  Raises NonConvergence (with the
    best iterate attached) if any row fails.
    """
    c = np.asarray(c, dtype=complex)
    n = c.shape[1] - 1
    if n < 1:
        raise ConstantPolynomial("batch root finding needs degree >= 1")
    with np.errstate(all="ignore"):
        a = c / c[:, -1:]
        absa = np.abs(a)
        if n == 1:
            z = -c[:, :1] / c[:, 1:]
        elif n == 2:
            # Cancellation-free quadratic formula.  q = 0 only when the linear
            # coefficient and the computed discriminant both vanish.
            c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
            sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
            sq = np.where((np.conj(c1) * sq).real < 0, -sq, sq)
            q = -(c1 + sq) / 2.0
            r = np.sqrt(-c0 / c2)
            z = np.where((q == 0)[:, None], np.stack([r, -r], axis=1),
                         np.stack([q / c2, c0 / q], axis=1))
        else:
            z = _aberth(a, absa)
        ok, p = _residual_ok(a, absa, z, TOL)
    if not ok.all():
        how = "closed-form" if n <= 2 else f"{MAX_ITER}-iteration Aberth"
        raise NonConvergence(
            f"{how} roots of degree {n} failed the residual certificate",
            best=z,
            residuals=np.abs(p),
        )
    return z


def _sorted(z: np.ndarray) -> np.ndarray:
    return z[np.lexsort((z.imag, z.real))]


def roots(p: Polynomial) -> RootSet:
    """All degree-many roots of p, residual-certified, sorted by (real, imag).

    The B = 1 call of `aberth_batch`: closed forms for degrees 1 and 2,
    Aberth iteration above.  The monomial-coefficient representation caps
    the reachable degree: `roots(gn(n, 0.7, 1))` converges at n = 56 and
    raises at n = 64.  Above that ceiling the answer is NonConvergence (with
    the best iterate attached), never NaN roots.  Raises ZeroPolynomial /
    ConstantPolynomial for degenerate input.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot root-find the zero polynomial")
    if p.degree == 0:
        raise ConstantPolynomial("cannot root-find a nonzero constant")
    z = _sorted(aberth_batch(p.as_array()[None, :])[0])
    res = np.abs(evaluate_many(p, z))
    return RootSet(tuple(z), tuple(float(r) for r in res), coeff_scale(p))


def roots_many(ps) -> list[np.ndarray]:
    """Roots for a sequence of polynomials, batching equal degrees together.

    Much faster than looping roots() when many same-degree polynomials are
    processed (property suites, Monte-Carlo checks).  Each row's roots equal
    what roots() returns for it alone.  Root arrays come back sorted by
    (real, imag), aligned with the input order.
    """
    out: list[np.ndarray | None] = [None] * len(ps)
    by_degree: dict[int, list[int]] = {}
    for i, p in enumerate(ps):
        if p.is_zero:
            raise ZeroPolynomial("cannot root-find the zero polynomial")
        if p.degree == 0:
            raise ConstantPolynomial("cannot root-find a nonzero constant")
        by_degree.setdefault(p.degree, []).append(i)
    for idxs in by_degree.values():
        z = aberth_batch(np.array([ps[i].as_array() for i in idxs]))
        for row, i in enumerate(idxs):
            out[i] = _sorted(z[row])
    return out  # type: ignore[return-value]


def _root_scale(rs: RootSet) -> float:
    return max(1.0, max((abs(r) for r in rs.roots), default=0.0))


def classify_real(rs: RootSet, tol: float = DEFAULT_REAL_TOL) -> RealnessVerdict:
    max_imag = max((abs(r.imag) for r in rs.roots), default=0.0)
    tol_used = tol * _root_scale(rs)
    return RealnessVerdict(max_imag <= tol_used, max_imag, tol_used)


def sorted_real_parts(rs: RootSet) -> np.ndarray:
    return np.sort(np.array([r.real for r in rs.roots]))


def mesh(rs: RootSet, tol: float = DEFAULT_REAL_TOL) -> float:
    """Minimal gap between consecutive sorted roots (0 for a repeated root)."""
    if len(rs.roots) < 2:
        raise TooFewRoots("mesh needs at least 2 roots")
    if not classify_real(rs, tol).is_real_rooted:
        raise NotRealRooted("mesh is defined for real-rooted input")
    xs = sorted_real_parts(rs)
    return float(np.min(np.diff(xs)))


def extremes(rs: RootSet, tol: float = DEFAULT_REAL_TOL) -> tuple[float, float]:
    """(maximal root, minimal root) of a real-rooted root set."""
    if not rs.roots:
        raise TooFewRoots("extremes need at least 1 root")
    if not classify_real(rs, tol).is_real_rooted:
        raise NotRealRooted("extremes are defined for real-rooted input")
    xs = sorted_real_parts(rs)
    return float(xs[-1]), float(xs[0])


def _weakly_alternates(a: np.ndarray, b: np.ndarray, slack: float) -> bool:
    # a leads; len(a) == len(b) or len(a) == len(b) + 1
    for i in range(len(b)):
        if a[i] > b[i] + slack:
            return False
        if i + 1 < len(a) and b[i] > a[i + 1] + slack:
            return False
    return True


def interlace(p: Polynomial, q: Polynomial, tol: float = DEFAULT_REAL_TOL) -> bool:
    """Non-strict interlacing of the sorted root lists, with ties within slack."""
    rp, rq = roots(p), roots(q)
    for rs, name in ((rp, "first"), (rq, "second")):
        if not classify_real(rs, tol).is_real_rooted:
            raise NotRealRooted(f"{name} polynomial is not real-rooted at tol {tol}")
    if abs(p.degree - q.degree) > 1:
        raise DegreeGapTooLarge("degrees must be equal or differ by one")
    a, b = sorted_real_parts(rp), sorted_real_parts(rq)
    if len(a) < len(b):
        a, b = b, a
    slack = tol * max(_root_scale(rp), _root_scale(rq))
    if len(a) == len(b):
        return _weakly_alternates(a, b, slack) or _weakly_alternates(b, a, slack)
    return _weakly_alternates(a, b, slack)


def pencil_hyperbolic_sample(p: Polynomial, q: Polynomial, n_samples: int = 200,
                             seed: int = 0, tol: float = 1e-7) -> bool:
    """Monte-Carlo check that c*P + d*Q is real-rooted along the unit circle.

    Serves as an independent oracle for interlace; returns False if any
    sampled direction yields a non-real-rooted combination.  Realness is
    judged as in classify_real.
    """
    if p.degree is None or q.degree is None or p.degree != q.degree or p.degree < 1:
        raise InvalidInput("pencil sampling needs equal degrees >= 1")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    pa, qa = p.as_array(), q.as_array()
    rows = np.cos(phi)[:, None] * pa[None, :] + np.sin(phi)[:, None] * qa[None, :]
    full = rows[:, -1] != 0
    if full.any():
        z = aberth_batch(rows[full])
        scale = np.maximum(1.0, np.max(np.abs(z), axis=1))
        if np.any(np.max(np.abs(z.imag), axis=1) > tol * scale):
            return False
    # A direction that cancels the leading coefficient exactly leaves a
    # lower-degree (possibly constant or zero) combination.
    for row in rows[~full]:
        pr = make_poly(row)
        if pr.is_zero or pr.degree == 0:
            continue
        if not classify_real(roots(pr), tol).is_real_rooted:
            return False
    return True


def rootset_to_json(rs: RootSet) -> dict:
    return {
        "roots": [[r.real, r.imag] for r in rs.roots],
        "residuals": list(rs.residuals),
    }
