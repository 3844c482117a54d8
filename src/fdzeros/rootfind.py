"""Simultaneous root computation and root-set predicates.

Every root-find goes through one engine, `aberth_batch`: closed forms for
degrees 1 and 2, Aberth-Ehrlich iteration (all roots at once) from the
companion-matrix eigenvalues above that, and a residual and a forward-error
certificate for every degree.  The predicates below (realness,
mesh, extremes, interlacing) are the language the zero-location guarantees
elsewhere in the package are stated in.
"""

from __future__ import annotations

import math
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
# Forward certificate: each root's first-order forward-error estimate,
# relative to max(1, |z|).  Roots that are backward-stable for an
# ill-conditioned polynomial pass the residual certificate although they can
# be far from the true ones; this catches them.  A root that fails as a simple
# root is judged again as a member of a cluster of at most _CLUSTER_MAX roots.
FWD_TOL = 1e-3
_CLUSTER_MAX = 8
_EPS = np.finfo(float).eps


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
    """Per-root test |p(z)| <= tol * max(1, err), p(z), and the error bound
    err = sum_k |a_k| |z|^k.

    A root whose error bound is not finite (NaN or overflowing z) never passes.
    """
    p = _horner_rows(a, z)
    err = _horner_rows(absa, np.abs(z))
    return (np.abs(p) <= tol * np.maximum(err, 1.0)) & np.isfinite(err), p, err


def _cluster_bound(a: np.ndarray, absa: np.ndarray, z: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray, settled: bool) -> np.ndarray:
    """Forward-error estimate of each root z[rows, cols] as a cluster member,
    relative to max(1, |c|).

    The cluster is its m nearest roots in the row (itself included),
    2 <= m <= _CLUSTER_MAX, with centre c, the mean; the estimate is the best
    over m of the m-fold sensitivity (eta * m! / |p^(m)(c)|)^(1/m), where
    eta = n eps sum_k |a_k| |c|^k.  For settled roots eta also covers
    |p(c)|, and the spread max |z_j - c| counts too; unsettled iterates are
    judged by the rounding floor alone.
    """
    n = z.shape[1]
    top = min(_CLUSTER_MAX, n)
    if top < 2 or rows.size == 0:
        return np.full(rows.size, np.inf)
    zr = z[rows]
    near = np.argsort(np.abs(zr - z[rows, cols][:, None]), axis=1)[:, :top]
    zs = np.take_along_axis(zr, near, axis=1)  # (P, top), nearest first
    m = np.arange(2, top + 1)
    c = np.cumsum(zs, axis=1)[:, 1:] / m  # (P, top - 1) centres
    # p^(m)(c) / m! = sum_i C(i + m, m) a_(i+m) c^i, by Horner in c alongside
    # p(c) and sum_k |a_k| |c|^k
    ar, absr = a[rows], absa[rows]
    shifted = np.zeros(c.shape + (n + 1,), dtype=complex)
    for j, mm in enumerate(m):
        binom = np.array([math.comb(k, mm) for k in range(mm, n + 1)], dtype=float)
        shifted[:, j, : n + 1 - mm] = ar[:, mm:] * binom
    absc = np.abs(c)
    taylor = np.zeros_like(c)
    pc = np.zeros_like(c)
    err = np.zeros_like(absc)
    for k in range(n, -1, -1):
        taylor = taylor * c + shifted[:, :, k]
        pc = pc * c + ar[:, k, None]
        err = err * absc + absr[:, k, None]
    eta = n * _EPS * err
    if settled:
        eta = np.maximum(eta, np.abs(pc))
    bound = (eta / np.abs(taylor)) ** (1.0 / m)
    if settled:
        member = np.arange(top)[None, :] < m[:, None]  # (top - 1, top)
        dist = np.abs(zs[:, None, :] - c[:, :, None])
        bound = np.maximum(bound, np.max(np.where(member, dist, 0.0), axis=2))
    bound = bound / np.maximum(1.0, absc)
    return np.min(np.where(np.isnan(bound), np.inf, bound), axis=1)


def _forward_bound(a: np.ndarray, absa: np.ndarray, z: np.ndarray, err: np.ndarray,
                   dp: np.ndarray, p: np.ndarray | None = None,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """Per-root first-order forward-error estimate, relative to max(1, |z|):
    max(|p(z)|, n eps err) / |p'(z)| for a simple root, and where that
    exceeds FWD_TOL the cluster estimate if it is smaller.

    With p None only the rounding floor n eps err counts: a root whose floor
    exceeds FWD_TOL cannot be certified however long it iterates.  Only the
    rows selected by `rows` (all by default) get the cluster estimate.
    """
    n = z.shape[1]
    eta = n * _EPS * err
    if p is not None:
        eta = np.maximum(eta, np.abs(p))
    bound = eta / (np.abs(dp) * np.maximum(1.0, np.abs(z)))
    bad = ~(bound <= FWD_TOL)
    if rows is not None:
        bad &= rows[:, None]
    r, i = np.nonzero(bad)
    bound[r, i] = np.fmin(bound[r, i], _cluster_bound(a, absa, z, r, i, p is not None))
    return bound


def _companion_eigvals(a: np.ndarray) -> np.ndarray:
    # a: (B, n+1) monic rows.  Eigenvalues of the companion matrices, with
    # real arithmetic for real rows; a row with a non-finite coefficient
    # starts (and fails) at NaN.
    B, n = a.shape[0], a.shape[1] - 1
    z = np.full((B, n), np.nan, dtype=complex)
    finite = np.isfinite(a).all(axis=1)
    real = ~np.any(a.imag != 0, axis=1)
    for rows, part in ((finite & real, a.real), (finite & ~real, a)):
        if not rows.any():
            continue
        comp = np.zeros((int(rows.sum()), n, n), dtype=part.dtype)
        comp[:, 0, :] = -part[rows][:, n - 1::-1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        try:
            z[rows] = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"companion eigenvalues of degree {n}: {exc}") from exc
    return z


def _aberth(a: np.ndarray, absa: np.ndarray, dcoef: np.ndarray) -> np.ndarray:
    # a: (B, n+1) monic rows, n >= 3, dcoef their derivatives.  Each row
    # iterates on its own from its companion eigenvalues: a root stops once
    # its residual passes, a row stops once its own steps stagnate or a root
    # fails the rounding floor of the forward certificate.
    B = a.shape[0]
    z = _companion_eigvals(a)
    n = z.shape[1]
    eye = np.eye(n, dtype=bool)[None, :, :]
    stalled = np.zeros(B, dtype=bool)
    for it in range(MAX_ITER):
        done, p, err = _residual_ok(a, absa, z, _ITER_TOL)
        done |= stalled[:, None]
        if done.all():
            break
        dp = _horner_rows(dcoef, z)
        live = ~done.all(axis=1)
        floor = _forward_bound(a, absa, z, err, dp, rows=live)
        stalled |= live & ~np.all(floor <= FWD_TOL, axis=1)
        done |= stalled[:, None]
        w = np.where(dp != 0, p / dp, 0.1 * (1.0 + np.abs(z)))
        diff = z[:, :, None] - z[:, None, :]
        s = np.where(~eye & (diff != 0), 1.0 / diff, 0.0).sum(axis=2)
        denom = 1.0 - w * s
        step = np.where(np.abs(denom) > 1e-30, w / denom, w)
        step = np.where(np.isfinite(step), step, 0.05 * (1.0 + np.abs(z)) * np.exp(1j * it))
        step = np.where(done, 0.0, step)
        z = z - step
        stalled |= np.max(np.abs(step), axis=1) <= 1e-16 * (1.0 + np.max(np.abs(z), axis=1))
    # Newton polish with p(z) evaluated in extended precision (np.clongdouble;
    # plain double where long double is double): a few steps push simple
    # roots to the accuracy the double-precision coefficients allow; the
    # certificates then judge what is returned.  Non-finite steps (vanishing
    # derivative) are rejected, and so are steps longer than half the gap to
    # the nearest other root: inside a cluster a step that long comes from
    # rounding noise in p(z), not from the polynomial.
    gap = np.where(eye, np.inf, np.abs(z[:, :, None] - z[:, None, :])).min(axis=2)
    limit = 0.5 * np.minimum(1.0 + np.abs(z), gap)
    a_long = a.astype(np.clongdouble)
    for _ in range(3):
        pz = _horner_rows(a_long, z.astype(np.clongdouble))
        step = (pz / _horner_rows(dcoef, z)).astype(complex)
        z = z - np.where(np.abs(step) <= limit, step, 0.0)
    return z


def aberth_batch(c: np.ndarray) -> np.ndarray:
    """All roots for a batch of same-degree polynomials.

    c is (B, n+1), ascending, with nonzero leading column.  Returns (B, n)
    roots.  Degrees 1 and 2 use closed forms, higher degrees Aberth-Ehrlich
    iteration from the companion-matrix eigenvalues with an extended-precision
    Newton polish.  Every row passes two certificates on its monic form:
    a residual one against the error bound sum_k |a_k| |z|^k, so that
    large-magnitude roots are not held to an unattainable absolute residual,
    and a forward one, a first-order error estimate per root (simple, or as
    part of a cluster of up to 8) of at most FWD_TOL * max(1, |z|).  A row
    with a non-finite root or error bound is never certified.  Raises
    NonConvergence (with the best iterate attached) if any row fails.
    """
    c = np.asarray(c, dtype=complex)
    n = c.shape[1] - 1
    if n < 1:
        raise ConstantPolynomial("batch root finding needs degree >= 1")
    with np.errstate(all="ignore"):
        a = c / c[:, -1:]
        absa = np.abs(a)
        dcoef = a[:, 1:] * np.arange(1, n + 1)
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
            z = _aberth(a, absa, dcoef)
        ok, p, err = _residual_ok(a, absa, z, TOL)
        if ok.all():
            ok = _forward_bound(a, absa, z, err, _horner_rows(dcoef, z), p) <= FWD_TOL
            what = "forward"
        else:
            what = "residual"
    if not ok.all():
        how = "closed-form" if n <= 2 else f"{MAX_ITER}-iteration Aberth"
        raise NonConvergence(
            f"{how} roots of degree {n} failed the {what} certificate",
            best=z,
            residuals=np.abs(p),
        )
    return z


def _sorted(z: np.ndarray) -> np.ndarray:
    return z[np.lexsort((z.imag, z.real))]


def roots(p: Polynomial) -> RootSet:
    """All degree-many roots of p, certified, sorted by (real, imag).

    The B = 1 call of `aberth_batch`: closed forms for degrees 1 and 2,
    Aberth iteration from the companion eigenvalues above, then a residual
    certificate and a forward one (each root's first-order error estimate,
    as a simple root or as part of a cluster, at most FWD_TOL * max(1, |z|)).
    The monomial-coefficient representation caps the reachable degree:
    `roots(gn(n, 0.7, 1))` converges at n = 80 and raises at n = 88, and
    random real-rooted inputs with roots in [-5, 5] begin to raise above
    degree 20.  Past the cap the answer is NonConvergence (with the best
    iterate attached), never NaN roots nor roots whose forward-error
    estimate exceeds FWD_TOL.  Raises ZeroPolynomial / ConstantPolynomial for
    degenerate input.
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
