"""Simultaneous root computation and root-set predicates.

Every root-find goes through one engine, `_aberth_core`: closed forms for
degrees 1 and 2, the companion-matrix eigenvalues with an extended-precision
Newton polish above that, and a residual and a forward-error certificate for
every degree, judged row by row.  The eigenvalues are backward stable to
rounding of the coefficients (Edelman & Murakami, Math. Comp. 64 (1995)), so
the polish only finishes them.  Real rows, and complex rows that are real up
to rounding, take real eigenvalues.  A row whose eigenvalues leave a root
whose rounding floor alone fails the forward certificate is ruled out: it
leaves before the polish, is judged from the eigenvalues' own residuals, and
its best iterate is the eigenvalues, unpolished.
`_certified_many`, its one caller, answers `roots`, `roots_many`,
`aberth_batch` and the driver below.
The predicates below (realness, mesh, extremes, interlacing) are the
language the zero-location guarantees elsewhere in the package are stated in.
`_realness` is the one rule for how far roots sit from a line Im z = c; the
pencil, the witness search and the property checks all judge by it.

Code that root-finds many polynomials in stages may be written as a request
generator, and `_run_requests` is the one driver that answers it.  A yield
holds either a list of polynomials, answered with their `RootSet`s, or a
list of coefficient arrays (each of same-width rows), answered with what
`aberth_batch` returns for each array.  If an item cannot be root-found, the
first such error is thrown in at that yield instead: what `roots` raises for
that polynomial alone, or what `aberth_batch` raises for that array alone.
The driver advances all its generators one yield per round and root-finds
every row of a round with one engine call per width (degree + 1), the one
batching layer: generators never group rows by width.  Rows do not
interact in the engine, so each answer equals the one-at-a-time call's.
A generator merges two root-finds into one yield only when nothing between
them can raise, so it raises what it would raise with one call after
another.  `_drive` runs one generator: the pencil oracle, the residual sweep,
`analyze`, `simplicity_margin`, `extremal_bounds` and `walsh_interval_bound`
run this way, and the property suite's checkers run together.

The pencil oracle decides most of its directions without the engine.
`_real_by_signs` certifies a real coefficient row of degree n real-rooted
when its signs change n times at points where |f(x)| exceeds a rigorous
Horner error bound; the points are P's and Q's roots, only hints.  A True
needs every direction certified real, by its signs or by the engine, and a
False a direction the engine certifies non-real.  Only the directions sent to
the engine can raise NonConvergence.
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstantPolynomial,
    DegreeGapTooLarge,
    FDZerosError,
    InvalidInput,
    NonConvergence,
    NotRealRooted,
    TooFewRoots,
    ZeroPolynomial,
)
from .poly import Polynomial, _check_int, _check_tol, evaluate_many, make_poly

__all__ = [
    "RootSet",
    "RealnessVerdict",
    "roots",
    "roots_many",
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

# The residual certified relative to the error bound sum_k |a_k| |z|^k, and
# the near-machine-level residual below which a root of the eigenvalue start
# is not tested against the forward certificate's rounding floor.
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
_TINY = np.finfo(float).tiny  # the smallest normal double


class RootSet:
    """Roots and the residuals |p(z)| at them.

    `RootSet(roots, residuals)` holds both as given.  A root set that
    `roots` (or a request) returns computes its residuals on first read, as
    `evaluate_many` at its sorted roots, so code that never reads them does
    not pay for them; the values are the same either way.  Immutable, and
    compared, hashed and shown by (roots, residuals).
    """

    __slots__ = ("roots", "_residuals", "_p")

    def __init__(self, roots: tuple[complex, ...], residuals: tuple[float, ...]):
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_residuals", residuals)
        object.__setattr__(self, "_p", None)

    @property
    def residuals(self) -> tuple[float, ...]:
        if self._residuals is None:
            res = np.abs(evaluate_many(self._p, np.array(self.roots)))
            object.__setattr__(self, "_residuals", tuple(float(r) for r in res))
            object.__setattr__(self, "_p", None)
        return self._residuals

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.roots, self.residuals) == (other.roots, other.residuals)

    def __hash__(self):
        return hash((self.roots, self.residuals))

    def __repr__(self):
        return f"RootSet(roots={self.roots!r}, residuals={self.residuals!r})"

    def __reduce__(self):
        # copies and pickles hold the residuals, computed
        return RootSet, (self.roots, self.residuals)


class RealnessVerdict(NamedTuple):
    is_real_rooted: bool
    max_imag: float
    tol_used: float


def _horner_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    # c: (B, m) ascending coefficients, z: (B, n) points
    return _horner(np.ascontiguousarray(c.T[::-1, :, None]), z)


def _horner(cols: np.ndarray, z: np.ndarray) -> np.ndarray:
    # cols: the coefficients highest first, each broadcasting against z
    acc = np.zeros(z.shape, dtype=np.result_type(cols, z))
    for ck in cols:
        acc *= z
        acc += ck
    return acc


def _residual_ok(a: np.ndarray, absa: np.ndarray, z: np.ndarray, tol: float):
    """Per-root test |p(z)| <= tol * max(1, err), p(z), and the error bound
    err = sum_k |a_k| |z|^k.

    A root whose error bound is not finite (NaN or overflowing z) never passes.
    """
    p = _horner_rows(a, z)
    err = _horner_rows(absa, np.abs(z))
    return _residual_within(p, err, tol), p, err


def _residual_within(p: np.ndarray, err: np.ndarray, tol: float) -> np.ndarray:
    # `_residual_ok`'s test on p(z) and err already evaluated
    return (np.abs(p) <= tol * np.maximum(err, 1.0)) & np.isfinite(err)


@functools.lru_cache(maxsize=None)
def _binomials(n: int, top: int) -> np.ndarray:
    # row j: C(k, m) for k = m..n, m = j + 2, zero-padded to n + 1 columns
    out = np.zeros((top - 1, n + 1))
    for j, m in enumerate(range(2, top + 1)):
        out[j, : n + 1 - m] = np.array([math.comb(k, m) for k in range(m, n + 1)],
                                       dtype=float)
    out.setflags(write=False)
    return out


def _cluster_bound(a: np.ndarray, absa: np.ndarray, z: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray, settled: bool) -> np.ndarray:
    """Forward-error estimate of each root z[rows, cols] as a cluster member,
    relative to max(1, |c|).

    The cluster is its m nearest roots in the row (itself included),
    2 <= m <= _CLUSTER_MAX, with centre c, the mean; the estimate is the best
    over m of the m-fold sensitivity (eta * m! / |p^(m)(c)|)^(1/m), where
    eta = n eps sum_k |a_k| |c|^k.  For settled roots eta also covers
    |p(c)|, and the spread max |z_j - c| counts too; unpolished roots are
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
    # One Horner pass in c over (n + 1, P, 2 (top - 1)) coefficients: the
    # first top - 1 columns give p^(m)(c) / m! = sum_i C(i + m, m) a_(i+m) c^i,
    # the others p(c); sum_k |a_k| |c|^k runs alongside in real arithmetic.
    ar = a[rows]
    binom = _binomials(n, top)
    coef = np.zeros((n + 1, rows.size, 2 * (top - 1)), dtype=complex)
    for j, mm in enumerate(m):
        coef[: n + 1 - mm, :, j] = (ar[:, mm:] * binom[j, : n + 1 - mm]).T
    coef[:, :, top - 1:] = ar.T[:, :, None]
    both = _horner(coef[::-1], np.concatenate([c, c], axis=1))
    taylor, pc = both[:, : top - 1], both[:, top - 1:]
    absc = np.abs(c)
    err = _horner_rows(absa[rows], absc)
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


def _forward_ok(a: np.ndarray, absa: np.ndarray, z: np.ndarray, err: np.ndarray,
                dp: np.ndarray, rows: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
    """Whether every root of each row selected by `rows` passes the forward
    certificate (False for the other rows).

    A root passes when its first-order forward-error estimate, relative to
    max(1, |z|), is at most FWD_TOL: max(|p(z)|, n eps err) / |p'(z)| as a
    simple root, or else its cluster estimate.  With p None only the
    rounding floor n eps err counts: a root whose floor exceeds FWD_TOL
    cannot be certified however far it is polished.

    One failing root decides its row, so the cluster estimate runs in two
    stages: first on the root of each row with the largest simple estimate
    (NaN counting as largest), then on the other roots that fail as simple
    roots, in the rows whose first root passed.
    """
    n = z.shape[1]
    eta = n * _EPS * err
    if p is not None:
        eta = np.maximum(eta, np.abs(p))
    bound = eta / (np.abs(dp) * np.maximum(1.0, np.abs(z)))
    bad = ~(bound <= FWD_TOL) & rows[:, None]
    undecided = bad.any(axis=1)
    ok = rows & ~undecided
    todo = np.flatnonzero(undecided)
    if not todo.size:
        return ok
    settled = p is not None
    worst = np.argmax(np.where(bad[todo], np.nan_to_num(bound[todo], nan=np.inf), -1.0),
                      axis=1)
    first = _cluster_bound(a, absa, z, todo, worst, settled) <= FWD_TOL
    todo, worst = todo[first], worst[first]
    rest = bad[todo]
    rest[np.arange(todo.size), worst] = False
    r, i = np.nonzero(rest)
    ok[todo] = True
    if r.size:
        passed = _cluster_bound(a, absa, z, todo[r], i, settled) <= FWD_TOL
        ok[todo[r[~passed]]] = False
    return ok


# A complex row is near-real when every coefficient has |Im a_k| at most
# _NEAR_REAL (n + 1) eps |a_k|: an imaginary part of the size of the rounding
# that a coefficient summed from n + 1 complex products carries, the factor 4
# allowing for the products themselves and the division that makes the row
# monic.  The companion eigenvalues are only backward stable to rounding of
# that order (Edelman & Murakami, Math. Comp. 64 (1995)), so such a row (an
# apply_op image that is real in exact arithmetic) starts from the real
# companion matrix of its real part, in real arithmetic; the start's rule-out,
# the polish and both certificates judge the stored complex row.
_NEAR_REAL = 4


def _companion_eigvals(a: np.ndarray, absa: np.ndarray) -> np.ndarray:
    # a: (B, n+1) monic rows, absa = |a|.  Eigenvalues of the companion
    # matrices, with real arithmetic for real and near-real rows; a row with
    # a non-finite coefficient starts (and fails) at NaN.  A stack on which
    # LAPACK does not converge is retried row by row, and a row that fails
    # again starts at NaN too.
    B, n = a.shape[0], a.shape[1] - 1
    z = np.full((B, n), np.nan, dtype=complex)
    finite = np.isfinite(a).all(axis=1)
    real = np.all(np.abs(a.imag) <= _NEAR_REAL * (n + 1) * _EPS * absa, axis=1)
    for rows, part in ((finite & real, a.real), (finite & ~real, a)):
        idx = np.flatnonzero(rows)
        if not idx.size:
            continue
        comp = np.zeros((idx.size, n, n), dtype=part.dtype)
        comp[:, 0, :] = -part[idx][:, n - 1::-1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        try:
            z[idx] = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError:
            for k, i in enumerate(idx):
                try:
                    z[i] = np.linalg.eigvals(comp[k])
                except np.linalg.LinAlgError:
                    pass
    return z


def _polish(a: np.ndarray, dcoef: np.ndarray,
            z: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    # Newton polish with p(z) evaluated in extended precision (np.clongdouble;
    # plain double where long double is double): a few steps push simple
    # roots to the accuracy the double-precision coefficients allow; the
    # certificates then judge what is returned.  Non-finite steps (vanishing
    # derivative) are rejected, and so are steps longer than half the gap to
    # the nearest other root: inside a cluster a step that long comes from
    # rounding noise in p(z), not from the polynomial.  Returns the polished
    # roots and p'(roots) when the polish computed it at them, else None.
    eye = np.eye(z.shape[1], dtype=bool)[None, :, :]
    gap = np.where(eye, np.inf, np.abs(z[:, :, None] - z[:, None, :])).min(axis=2)
    limit = 0.5 * np.minimum(1.0 + np.abs(z), gap)
    # The polish stops once a step leaves every root bit for bit unchanged:
    # a further step from the same z would compute the same zero change.
    a_long = a.astype(np.clongdouble)
    for _ in range(3):
        pz = _horner_rows(a_long, z.astype(np.clongdouble))
        dp = _horner_rows(dcoef, z)
        step = (pz / dp).astype(complex)
        moved = z - np.where(np.abs(step) <= limit, step, 0.0)
        if np.array_equal(moved.view(np.uint64), z.view(np.uint64)):
            return z, dp
        z = moved
    return z, None


def _certify(a: np.ndarray, absa: np.ndarray, dcoef: np.ndarray, z: np.ndarray,
             polish: bool):
    # The polish (when asked) and both certificates for the rows a with
    # start z: the roots, p(roots), and per row whether it passed the
    # residual certificate and whether it is certified.
    dp = None  # p'(z), unless the polish leaves it at the roots it returns
    if polish:
        z, dp = _polish(a, dcoef, z)
    if dp is None:
        dp = _horner_rows(dcoef, z)
    ok, p, err = _residual_ok(a, absa, z, TOL)
    residual_ok = ok.all(axis=1)
    return z, p, residual_ok, _forward_ok(a, absa, z, err, dp, residual_ok, p)


class _BatchRoots(NamedTuple):
    """Roots of a batch of same-degree polynomials, with each row's outcome.

    z is (B, n): a certified row's roots, or a failed row's best iterate.
    residuals is |p(z)| on the monic rows.  failed[i] is None for a certified
    row; otherwise it names the first certificate the row failed, "residual"
    or "forward".  A row whose companion eigenvalues are ruled out on the
    forward certificate's rounding floor leaves before the polish: its best
    iterate is the eigenvalues, unpolished, and it is judged from their own
    p(z) and error bound, "residual" if it misses TOL there, else "forward".
    A row whose companion eigenvalues did not converge stays at NaN and fails
    the residual one.
    """

    z: np.ndarray
    residuals: np.ndarray
    failed: tuple[str | None, ...]


def _aberth_core(c: np.ndarray) -> _BatchRoots:
    """All roots for a batch of same-degree polynomials, certified row by row.

    c is (B, n+1), ascending, with nonzero leading column.  Degrees 1 and 2
    use closed forms, higher degrees the companion-matrix eigenvalues (real
    ones for real and near-real rows, see `_NEAR_REAL`).  A row whose
    eigenvalues include a root with residual above _ITER_TOL and a rounding
    floor n eps sum_k |a_k| |z|^k / |p'(z)| that alone fails the forward
    certificate is ruled out: it fails without the polish or a second
    forward estimate (see `_BatchRoots`).  The other rows take an
    extended-precision Newton polish.  Each row is judged by two
    certificates on its monic form: a residual one against the error bound
    sum_k |a_k| |z|^k, so that large-magnitude roots are not held to an
    unattainable absolute residual, and a forward one, a first-order error
    estimate per root (simple, or as part of a cluster of up to 8) of at
    most FWD_TOL * max(1, |z|).  A row with a non-finite
    root or error bound is never certified.  Rows do not interact: a row's
    roots and outcome are the same in any batch, alone included.  Never
    raises for a row that fails; see `aberth_batch` for the raising form.
    """
    c = np.asarray(c, dtype=complex)
    n = c.shape[1] - 1
    if n < 1:
        raise ConstantPolynomial("batch root finding needs degree >= 1")
    with np.errstate(all="ignore"):
        a = c / c[:, -1:]
        absa = np.abs(a)
        dcoef = a[:, 1:] * np.arange(1, n + 1)
        out = np.zeros(len(c), dtype=bool)  # rows ruled out at their start
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
            z = _companion_eigvals(a, absa)
            # A row with a root whose residual misses _ITER_TOL is ruled out
            # when that root's rounding floor alone fails the forward
            # certificate: no polish of it can pass that certificate.
            done, p, err = _residual_ok(a, absa, z, _ITER_TOL)
            live = ~done.all(axis=1)
            if live.any():
                out = live & ~_forward_ok(a, absa, z, err, _horner_rows(dcoef, z), live)
        if not out.any():
            z, p, residual_ok, certified = _certify(a, absa, dcoef, z, n > 2)
        else:
            # a ruled-out row is judged from its start's own p(z) and error bound
            residual_ok = _residual_within(p, err, TOL).all(axis=1)
            certified = np.zeros(len(c), dtype=bool)
            keep = ~out
            if keep.any():
                z[keep], p[keep], residual_ok[keep], certified[keep] = _certify(
                    a[keep], absa[keep], dcoef[keep], z[keep], True)
    failed = tuple(None if good else "forward" if res else "residual"
                   for good, res in zip(certified.tolist(), residual_ok.tolist()))
    return _BatchRoots(z, np.abs(p), failed)


def aberth_batch(c: np.ndarray) -> np.ndarray:
    """All roots for a batch of same-degree polynomials, each row certified
    on its own: the (B, n) roots that `_certified_many` reports for the one
    array c (the companion eigenvalues, polished, or closed forms at degrees
    1 and 2), or the NonConvergence it reports (the whole batch's roots
    attached) if any row is not certified."""
    (z, error), = _certified_many([np.asarray(c)])
    if error is not None:
        raise error
    return z


def _unrootable(p: Polynomial) -> FDZerosError | None:
    # The error `roots` raises for a polynomial it cannot root-find at all.
    if p.is_zero:
        return ZeroPolynomial("cannot root-find the zero polynomial")
    if p.degree == 0:
        return ConstantPolynomial("cannot root-find a nonzero constant")
    return None


def _sorted(z: np.ndarray) -> np.ndarray:
    return z[np.lexsort((z.imag, z.real))]


def roots(p: Polynomial) -> RootSet:
    """All degree-many roots of p, certified, sorted by (real, imag).

    The one-row call of `aberth_batch`: closed forms for degrees 1 and 2,
    the companion eigenvalues above (real ones when p is real up to
    rounding) with an extended-precision Newton polish, then a residual
    certificate and a forward one (each root's first-order error estimate,
    as a simple root or as part of a cluster, at most
    FWD_TOL * max(1, |z|)).  The monomial-coefficient
    representation caps the reachable degree: `roots(gn(n, 0.7, 1))`
    converges at n = 80 and raises at n = 84 and 88, and random real-rooted
    inputs with roots in [-5, 5] begin to raise above degree 20.  Past the
    cap the answer is NonConvergence (with the best iterate attached), never
    NaN roots nor roots whose forward-error estimate exceeds FWD_TOL.  A
    polynomial whose rounding floor alone fails the forward certificate
    at the eigenvalues (`gn(96, 0.7, 1)`) raises before the polish, with the
    unpolished eigenvalues as best.  Raises
    ZeroPolynomial / ConstantPolynomial for degenerate input.
    """
    if (error := _unrootable(p)) is not None:
        raise error
    return _rootset(p, aberth_batch(p.as_array()[None, :])[0])


def _rootset(p: Polynomial, z: np.ndarray) -> RootSet:
    # The RootSet of p from its roots z as the engine returned them, its
    # residuals left to the first read.
    rs = RootSet(tuple(_sorted(z)), None)
    object.__setattr__(rs, "_p", p)
    return rs


def roots_many(ps) -> list[np.ndarray]:
    """Roots for a sequence of polynomials, batching equal degrees together.

    Much faster than looping roots() when many same-degree polynomials are
    processed (property suites, Monte-Carlo checks).  Each row's roots equal
    what roots() returns for it alone.  Root arrays come back sorted by
    (real, imag), aligned with the input order.  Raises what roots() raises
    for the first polynomial, in input order, that cannot be root-found, so
    a NonConvergence carries that polynomial's iterate alone, shape (1, n).
    """
    rooted = _certified_many(ps)
    error = next((e for _, e in rooted if e is not None), None)
    if error is not None:
        raise error
    return [_sorted(z) for z, _ in rooted]


def _certified_many(items) -> list[tuple[np.ndarray | None, FDZerosError | None]]:
    """Each item's engine rows and outcome, with one `_aberth_core` call per
    width (degree + 1) for all items together and no raise; the only caller
    of `_aberth_core`.

    An item is a polynomial or a (B, n+1) array of coefficient rows.  Its
    outcome is (z, None) for certified rows z in the engine's order (one row
    for a polynomial), or (z, error) for its best iterate z and the
    NonConvergence it raises alone, which carries z and its residuals and
    names the residual certificate if a row failed it, else the forward one.
    z is None for an item that cannot be root-found at all (a zero or
    constant polynomial, an array of width below 2); error is then what
    `roots` or `aberth_batch` raises for it.  Rows do not interact, so each
    item's outcome is the same in any call, alone included.
    """
    out: list = [None] * len(items)
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(items):
        if isinstance(x, np.ndarray):
            groups.setdefault(x.shape[1], []).append(i)
        elif (error := _unrootable(x)) is not None:
            out[i] = (None, error)
        else:
            groups.setdefault(x.degree + 1, []).append(i)
    for width, idxs in groups.items():
        blocks = [items[i] if isinstance(items[i], np.ndarray)
                  else items[i].as_array()[None, :] for i in idxs]
        try:
            batch = _aberth_core(np.concatenate(blocks))
        except FDZerosError as exc:  # an array of width below 2
            for i in idxs:
                out[i] = (None, exc)
            continue
        stop = 0
        for i, block in zip(idxs, blocks):
            start, stop = stop, stop + len(block)
            z, failed = batch.z[start:stop], batch.failed[start:stop]
            error = None
            if any(failed):
                what = "residual" if "residual" in failed else "forward"
                how = "closed-form" if width <= 3 else "companion-eigenvalue"
                error = NonConvergence(
                    f"{how} roots of degree {width - 1} failed the {what} certificate",
                    best=z, residuals=batch.residuals[start:stop])
            out[i] = (z if isinstance(items[i], np.ndarray) else z[0], error)
    return out


def _run_requests(items) -> list:
    """Each item's outcome, in order: for a request generator (see the
    module docstring), the value it returned or the exception it raised;
    any other item is its own outcome.

    Exceptions of any kind are kept, not raised, so the caller sees them in
    item order, as it would running the generators one after another.
    """
    gens = list(items)
    outcomes = list(gens)
    waiting: dict = {}  # item index -> the request it yielded

    def resume(i, answer):
        # answer: what to send in, or the error to throw in
        gen = gens[i]
        try:
            request = (gen.throw(answer) if isinstance(answer, Exception)
                       else gen.send(answer))
            waiting[i] = list(request)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:  # kept for the caller, see above
            outcomes[i] = exc

    for i, gen in enumerate(gens):
        if inspect.isgenerator(gen):
            resume(i, None)
    while waiting:
        this_round = list(waiting.items())
        waiting.clear()
        rooted = iter(_certified_many([x for _, req in this_round for x in req]))
        for i, req in this_round:
            got = [next(rooted) for _ in req]
            error = next((e for _, e in got if e is not None), None)
            if error is not None:
                resume(i, error)
            elif req and isinstance(req[0], np.ndarray):
                resume(i, [z for z, _ in got])
            else:
                resume(i, [_rootset(p, z) for p, (z, _) in zip(req, got)])
    return outcomes


def _drive(gen):
    """The value a request generator returns under `_run_requests`, or what
    it raised, raised here."""
    out, = _run_requests([gen])
    if isinstance(out, Exception):
        raise out
    return out


def _root_scale(zs) -> float:
    return max(1.0, max((abs(r) for r in zs), default=0.0))


def _realness(zs, tol: float, line: float = 0.0) -> RealnessVerdict:
    # max |Im z - line| against tol * max(1, max |z|), |z| by scalar abs:
    # numpy's vectorised complex abs can differ from it in the last bit
    _check_tol(tol, "realness tolerance")
    max_imag = max((abs(r.imag - line) for r in zs), default=0.0)
    tol_used = tol * _root_scale(zs)
    return RealnessVerdict(max_imag <= tol_used, max_imag, tol_used)


def classify_real(rs: RootSet, tol: float = DEFAULT_REAL_TOL) -> RealnessVerdict:
    """Whether every root has |Im| <= tol * max(1, max |root|).  Raises
    InvalidInput for a tol that is negative or not finite."""
    return _realness(rs.roots, tol)


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
    """Non-strict interlacing of the sorted root lists, with ties within slack.

    Both root sets come from one `roots_many` call, which equals two `roots`
    calls row for row, and `_interlace_verdict` judges them; the suite's
    interlacing property requests its pairs' roots from `_run_requests` and
    judges them with the same verdict code.
    """
    zp, zq = roots_many([p, q])
    return _interlace_verdict(zp, zq, tol)


def _interlace_verdict(zp: np.ndarray, zq: np.ndarray, tol: float) -> bool:
    """`interlace` for two polynomials from their certified roots zp and zq
    (sorted as `roots` sorts them; one root per degree).  Raises
    NotRealRooted for the first of the two that is not real-rooted, then
    DegreeGapTooLarge."""
    for z, name in ((zp, "first"), (zq, "second")):
        if not _realness(z, tol).is_real_rooted:
            raise NotRealRooted(f"{name} polynomial is not real-rooted at tol {tol}")
    if abs(len(zp) - len(zq)) > 1:
        raise DegreeGapTooLarge("degrees must be equal or differ by one")
    a, b = np.sort(zp.real), np.sort(zq.real)
    if len(a) < len(b):
        a, b = b, a
    slack = tol * max(_root_scale(zp), _root_scale(zq))
    if len(a) == len(b):
        return _weakly_alternates(a, b, slack) or _weakly_alternates(b, a, slack)
    return _weakly_alternates(a, b, slack)


def _real_by_signs(c: np.ndarray, hints: np.ndarray) -> np.ndarray:
    """Which rows of c provably have only real, simple roots, by trusted
    sign changes; no root-finding.

    c is (B, n+1), real and ascending.  hints is (G, k), G dividing B, any
    real points: the B/G consecutive rows of each block of c share one hint
    row (the directions of a pencil pair share its roots), so a hint row is
    sorted once for its block.  Each row is evaluated at -2 times its Cauchy
    bound 1 + max_k |a_k / a_n|, at its hints, ascending, and at +2 times
    that bound.  The two bound points are not sorted in: a hint beyond
    either lies, with the bound point, beyond every root of the row, where
    every trusted sign is the same, so the order of the points there cannot
    change the count of sign changes (and an untrusted point never counts).
    The hints themselves must be sorted: out of order, interior points can
    add changes that no root accounts for.  A sign is trusted where |f(x)|
    exceeds the a priori Horner error bound gamma_2n sum_k |a_k| |x|^k
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 5.1), inflated by 1% for the rounding of the sum itself, plus a
    term for underflow; a non-finite value or bound is never trusted.
    Between two trusted points of opposite sign lies a real root, so a row
    whose trusted signs change n times has n simple real roots; a row with a
    zero leading coefficient has fewer roots and is never certified.  The
    points only decide which rows are certified: wrong hints leave a row
    uncertified, never certify a non-real one.
    """
    n = c.shape[1] - 1
    with np.errstate(all="ignore"):
        cauchy = 2.0 * (1.0 + np.max(np.abs(c[:, :-1]), axis=1) / np.abs(c[:, -1]))
        x = np.empty((len(c), hints.shape[1] + 2))
        x[:, 0] = -cauchy
        x[:, 1:-1] = np.repeat(np.sort(hints, axis=1), len(c) // len(hints), axis=0)
        x[:, -1] = cauchy
        ax = np.abs(x)
        f = _horner_rows(c, x)
        gamma = n * _EPS / (1.0 - n * _EPS)  # gamma_2n, unit roundoff eps / 2
        # underflow in either Horner sum adds at most n eps _TINY max(1, |x|)^n;
        # the (n + 1) _TINY max(1, |x|)^n below covers it with no subnormal
        # arithmetic, which is slow
        bound = (1.01 * gamma * _horner_rows(np.abs(c), ax)
                 + (n + 1) * _TINY * np.maximum(1.0, ax) ** n)
        trusted = np.isfinite(f) & np.isfinite(bound) & (np.abs(f) > bound)
    sign = np.where(trusted, np.sign(f), 0.0)
    changes = np.sum(sign[:, 1:] * sign[:, :-1] < 0, axis=1)
    partial = ~trusted.all(axis=1)
    if partial.any():
        # each point's sign, or that of the last trusted point before it
        sign, trusted = sign[partial], trusted[partial]
        last = np.maximum.accumulate(np.where(trusted, np.arange(x.shape[1]), 0), axis=1)
        held = np.take_along_axis(sign, last, axis=1)
        changes[partial] = np.sum(held[:, 1:] * held[:, :-1] < 0, axis=1)
    return changes == n


# Directions of every pencil decided before any pair is settled; the rest
# are decided only for pairs with no certified non-real direction among
# these.  In the suite's pencil check at seed 42 with trials=20, 89 of the 91
# non-interlacing pairs have a non-real direction among their first 16, and
# none has its first past the 23rd.  With the sign certificate deciding most
# real directions, first stages of 8, 16, 32 and 200 directions root-find
# 1,334, 1,476, 2,407 and 13,009 rows in a pass of that check (400 of them
# P and Q): the split still pays ninefold over one stage, and 8 saves too few
# rows over 16 to show in the check's time.
_PENCIL_FIRST = 16


def pencil_hyperbolic_sample(p: Polynomial, q: Polynomial, n_samples: int = 200,
                             seed: int = 0, tol: float = 1e-7) -> bool:
    """Monte-Carlo check that c*P + d*Q is real-rooted along the unit circle.

    Serves as an independent oracle for interlace; returns False if any
    sampled direction yields a non-real-rooted combination.  Realness is
    judged as in classify_real.  The one-pair run of the two-stage pencil
    `_pencil` (which the suite's interlacing property runs too), with P's
    and Q's roots from one request as sign hints: the first
    `_PENCIL_FIRST` sampled directions are decided, then the rest only if
    none of those was certified non-real.  A real direction is decided by
    trusted sign changes (`_real_by_signs`) or else root-found.  True
    therefore needs every direction certified real, by its signs or by the
    engine, and False comes only from a direction the engine certifies
    non-real.  Only directions sent to the engine can raise NonConvergence,
    when one fails its certificate; a direction its signs decide, and a
    direction after the first `_PENCIL_FIRST` once a certified non-real one
    has settled the answer, are never root-found and cannot raise.  A P or
    Q that cannot be root-found only leaves the pair without hints.  Raises
    InvalidInput unless n_samples is an integer >= 1: with no sample the
    answer would be a vacuous True.
    """
    return _drive(_pencil([(p, q)], n_samples, [seed], tol))[0]


def _pencil(pairs, n_samples: int, seeds, tol: float, rss=None):
    """`pencil_hyperbolic_sample` for each (p, q) of pairs with its own seed,
    as a request generator (see the module docstring) that returns the
    verdicts.

    rss holds the `RootSet`s of p and q of every pair, in the order of
    pairs (what a request for them returns); their real parts are the hints
    of the sign certificate.  With rss None they are requested in one yield;
    if that request raises, no pair gets hints, and every direction goes to
    the engine.  Each pair samples its directions as the one-pair call does.
    Every direction of a pair with real coefficient rows and hints goes
    through `_real_by_signs` first, one call per width, and the directions
    it certifies real are never root-found; complex rows always go to the
    engine.  Stage 1 takes the other directions among the first
    `_PENCIL_FIRST` of every pair, stage 2 the other remaining directions of
    the pairs that stage 1 left unsettled.  A stage yields one coefficient
    array per pair with rows in it, pairs in order (a NonConvergence carries
    the first failing pair's rows), and each row is judged by `_realness`.
    A direction that cancels the leading coefficient exactly is requested
    last, alone, as a polynomial.  Raises InvalidInput unless there is one
    seed per pair: a pair left without a seed would come back a vacuous True.
    """
    for p, q in pairs:
        if p.degree is None or q.degree is None or p.degree != q.degree or p.degree < 1:
            raise InvalidInput("pencil sampling needs equal degrees >= 1")
    _check_int(n_samples, "pencil sampling's n_samples", 1)
    if len(seeds) != len(pairs):
        raise InvalidInput(f"pencil sampling needs one seed per pair, got {len(seeds)} "
                           f"seeds for {len(pairs)} pairs")
    _check_tol(tol, "realness tolerance")
    if rss is None:
        try:
            rss = yield [x for pair in pairs for x in pair]
        except NonConvergence:
            pass
    rows = []
    hinted: dict[int, list[int]] = {}  # width -> pairs with real rows and hints
    for i, ((p, q), seed) in enumerate(zip(pairs, seeds)):
        phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n_samples)
        rows.append(np.cos(phi)[:, None] * p.as_array()[None, :]
                    + np.sin(phi)[:, None] * q.as_array()[None, :])
        if rss is not None and not np.any(rows[i].imag):
            hinted.setdefault(rows[i].shape[1], []).append(i)
    # the directions to root-find: full degree, and not certified by signs
    todo = [r[:, -1] != 0 for r in rows]
    for idx in hinted.values():
        hints = [np.real(rss[2 * i].roots + rss[2 * i + 1].roots) for i in idx]
        signed = _real_by_signs(np.concatenate([rows[i].real for i in idx]),
                                np.array(hints))
        for i, ok in zip(idx, np.split(signed, len(idx))):
            todo[i] &= ~ok
    real = [True] * len(pairs)
    for lo, hi in ((0, _PENCIL_FIRST), (_PENCIL_FIRST, n_samples)):
        live = [i for i, ok in enumerate(real) if ok and todo[i][lo:hi].any()]
        if live:
            zs = yield [rows[i][lo:hi][todo[i][lo:hi]] for i in live]
            for i, z in zip(live, zs):
                real[i] = all(_realness(row, tol).is_real_rooted for row in z)
    # A direction that cancels the leading coefficient exactly leaves a
    # lower-degree (possibly constant or zero) combination.
    for i, r in enumerate(rows):
        for row in r[r[:, -1] == 0]:
            pr = make_poly(row)
            if real[i] and _unrootable(pr) is None:
                rs, = yield [pr]
                real[i] = bool(classify_real(rs, tol).is_real_rooted)
    return real


def rootset_to_json(rs: RootSet) -> dict:
    return {
        "roots": [[r.real, r.imag] for r in rs.roots],
        "residuals": list(rs.residuals),
    }
