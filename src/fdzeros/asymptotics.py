"""Large-h root predictions for T_{theta,h}(P) and residual sweeps.

For monic P = x^n + a x^(n-1) + b x^(n-2) + ... the j-th image root follows

    X_j = x_j*h - a/n + (a^2(n-1)/(2n^2) - b/n) * (Q_{n-2}(x_j)/Q_{n-1}(x_j)) / h
          + (-a^3(n-1)(n-2)/(3n^3) + a*b(n-2)/n^2 - c/n)
            * (Q_{n-3}(x_j)/Q_{n-1}(x_j)) / h^2 + ...

with x_j the cotangent grid and c the x^(n-3) coefficient.  Residual decay
against an h-grid certifies the remainder orders empirically.
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .debruijn import DeBruijnOp, apply_tb, qn, qn_zeros
from .errors import (
    DegenerateQ,
    DegreeTooSmall,
    InvalidInput,
    MatchAmbiguity,
)
from .poly import Polynomial, _check_int, evaluate_many
from .rootfind import RootSet, _drive, roots

__all__ = [
    "MonicHead",
    "AsymptoticReport",
    "RootRecord",
    "monic_head",
    "predict_roots",
    "actual_roots",
    "residual_sweep",
    "report_to_csv",
    "report_summary",
    "sweep_h_floor",
]

# Relative floor for |Q_{n-1}(x_j)| before the correction terms are declared
# numerically meaningless.
_Q_COND_FLOOR = 1e-10


@dataclass(frozen=True)
class MonicHead:
    n: int
    a: complex  # coeff of x^(n-1) after monic normalization
    b: complex  # coeff of x^(n-2)
    c: complex  # coeff of x^(n-3); 0 when n == 2


class RootRecord(NamedTuple):
    h: float
    j: int
    actual: float      # real part of the j-th image root
    predicted: float   # real part of the prediction
    residual: float    # full complex distance |actual - predicted|


@dataclass(frozen=True)
class AsymptoticReport:
    n: int
    theta: float
    order: int
    h_grid: tuple[float, ...]
    records: tuple[RootRecord, ...]
    omega_bound_ok: bool

    @functools.cached_property
    def fitted_decay(self) -> float:
        """`_fit_decay(records)`, computed on first read."""
        return _fit_decay(self.records)


def monic_head(p: Polynomial) -> MonicHead:
    """Normalize by the leading coefficient and read off the top coefficients.

    InvalidInput when a head coefficient overflows a double."""
    if p.is_zero or p.degree < 2:
        raise DegreeTooSmall("asymptotic head extraction needs degree >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        a = p.as_array() / p.coeffs[-1]
    n = p.degree
    head = MonicHead(
        n=n,
        a=complex(a[n - 1]),
        b=complex(a[n - 2]),
        c=complex(a[n - 3]) if n >= 3 else 0j,
    )
    if not all(map(cmath.isfinite, (head.a, head.b, head.c))):
        raise InvalidInput(f"the monic head of a degree-{n} polynomial overflows a double")
    return head


def _check_order(order: int) -> None:
    _check_int(order, "order", 0)
    if order > 2:
        raise InvalidInput("order must be 0, 1 or 2")


def _prediction_terms(head: MonicHead, theta: float, order: int):
    """The h-independent parts of the order-`order` prediction.

    Returns (xs, num1, num2, den): the ascending cotangent grid, the 1/h and
    1/h^2 correction numerators coef * Q_{n-2}(xs) and coef * Q_{n-3}(xs)
    (None where the order or degree leaves them out) and the denominator
    Q_{n-1}(xs) (None at order 0).
    """
    _check_order(order)
    n = head.n
    xs = np.sort(np.array(qn_zeros(n, theta).zeros))
    num1 = num2 = den = None
    if order >= 1:
        qn1 = qn(n - 1, theta)
        qn2 = qn(n - 2, theta)
        den = evaluate_many(qn1, xs)
        floor = _Q_COND_FLOOR * max(
            1.0, float(np.max(np.abs(qn1.as_array()))) if qn1.coeffs else 0.0
        )
        if np.any(np.abs(den) <= floor):
            raise DegenerateQ("Q_{n-1} below conditioning floor at a grid zero")
        coef1 = head.a**2 * (n - 1) / (2.0 * n * n) - head.b / n
        num1 = coef1 * evaluate_many(qn2, xs)
        if order >= 2 and n >= 3:
            qn3 = qn(n - 3, theta)
            coef2 = (
                -head.a**3 * (n - 1) * (n - 2) / (3.0 * n**3)
                + head.a * head.b * (n - 2) / (n * n)
                - head.c / n
            )
            num2 = coef2 * evaluate_many(qn3, xs)
    return xs, num1, num2, den


def _predict_at(head: MonicHead, terms, h: float) -> np.ndarray:
    xs, num1, num2, den = terms
    pred = xs * h - head.a / head.n
    if num1 is not None:
        pred = pred + num1 / den / h
    if num2 is not None:
        pred = pred + num2 / den / (h * h)
    return pred


def predict_roots(head: MonicHead, theta: float, h: float, order: int) -> np.ndarray:
    """Predicted image roots at the given expansion order, ascending.

    order 0 is the linear-in-h term, order 1 adds the 1/h correction, order 2
    the 1/h^2 correction.  Predictions are complex when the head coefficients
    are; for real coefficients they are real.  InvalidInput when a prediction
    overflows a double (h = 1.7e308).
    """
    _check_order(order)
    DeBruijnOp(theta, h)
    terms = _prediction_terms(head, theta, order)
    with np.errstate(over="ignore", invalid="ignore"):
        pred = _predict_at(head, terms, h)
    if not np.all(np.isfinite(pred)):
        raise InvalidInput(f"predicted roots at h = {h!r} overflow a double")
    return pred


def actual_roots(p: Polynomial, theta: float, h: float) -> np.ndarray:
    """Roots of the image, sorted ascending by real part."""
    image = apply_tb(DeBruijnOp(theta, h), p)
    z = np.array(roots(image).roots)
    return z[np.argsort(z.real)]


def sweep_h_floor(p: Polynomial) -> float:
    """Default smallest h at which sorted-order root matching is safe."""
    return _matching_floor(roots(p))


def _matching_floor(rs: RootSet) -> float:
    # sweep_h_floor from the roots of p
    return 2.0 * (1.0 + max(abs(z) for z in rs.roots))


def residual_sweep(p: Polynomial, theta: float, h_min: float, h_max: float,
                   steps: int, order: int) -> AsymptoticReport:
    """Predicted-vs-actual residuals over a geometric h-grid.

    The images at every h are root-found in one batch, and the prediction
    terms that do not depend on h are computed once.  Matching is by sorted
    order (leading terms x_j*h separate strictly); MatchAmbiguity is raised if
    two actual roots sit closer than 1e-6*h.  The sweep is the request
    generator `_sweeps` (see `rootfind`'s module docstring), which the
    suite's sweep properties run too, driven here on its own.

    Errors come in this order: InvalidInput for the grid arguments (bounds
    outside 0 < h_min < h_max < inf, a steps that is not an integer >= 2)
    and then for the order (not an integer 0, 1 or 2), both checked before
    any root-find, then what `sweep_h_floor` raises for p, InvalidInput for
    an h_min below the matching floor and then for a non-finite theta,
    NonConvergence for an image at any h, then DegenerateQ, then, h by h
    from h_min up, InvalidInput for a root-count mismatch and
    MatchAmbiguity.  A NonConvergence for the images is the one `roots`
    raises for the first image that fails, alone: its best iterate is that
    image's, of shape (1, n), and its message names the certificate that
    image failed.  No image is known to fail at a grid the floor admits.
    """
    _check_grid(h_min, h_max, steps)
    _check_order(order)
    rep, = _drive(_sweeps(p, theta, lambda floor: (h_min, h_max), steps, (order,)))
    return rep


def _check_grid(h_min: float, h_max: float, steps: int) -> None:
    # The grid arguments np.geomspace can take and fill with finite h.
    if (not 0 < h_min < h_max < math.inf or not isinstance(steps, (int, np.integer))
            or steps < 2):
        raise InvalidInput("need 0 < h_min < h_max < inf and an integer steps >= 2, "
                           f"got {h_min!r}, {h_max!r}, {steps!r}")


def _sweeps(p: Polynomial, theta: float, h_range, steps: int, orders):
    """The sweep at each of `orders` over the h range h_range(floor), as a
    request generator that yields [p] for the matching floor, then the
    grid's images once.  Each report, and each error, is that of the
    `residual_sweep` call over the same range at its order."""
    rs, = yield [p]
    floor = _matching_floor(rs)
    h_min, h_max = h_range(floor)
    _check_grid(h_min, h_max, steps)
    if h_min < floor:
        raise InvalidInput(
            f"h_min {h_min} is below the matching floor {floor:.6g}"
        )
    grid = np.geomspace(h_min, h_max, steps)
    head = monic_head(p)
    rss = yield [apply_tb(DeBruijnOp(theta, float(h)), p) for h in grid]
    acts = [z[np.argsort(z.real)] for z in (np.array(r.roots) for r in rss)]
    return [_sweep_report(head, theta, grid, acts, order) for order in orders]


def _sweep_report(head: MonicHead, theta: float, grid: np.ndarray, acts,
                  order: int) -> AsymptoticReport:
    # One order's report from the image roots `acts` at each h of grid, each
    # sorted as `actual_roots` sorts them.
    terms = _prediction_terms(head, theta, order)
    records: list[RootRecord] = []
    scaled = []
    for h, act in zip(grid, acts):
        pred = _predict_at(head, terms, float(h))
        if len(act) != len(pred):
            raise InvalidInput(
                f"image root count {len(act)} does not match grid size {len(pred)}"
            )
        gaps = np.diff(act.real)
        if len(gaps) and np.min(gaps) < 1e-6 * h:
            raise MatchAmbiguity(f"actual roots closer than 1e-6*h at h = {h}")
        res = np.abs(act - pred)
        for j in range(len(act)):
            records.append(
                RootRecord(float(h), j + 1, float(act[j].real),
                           float(pred[j].real), float(res[j]))
            )
            scaled.append(float(res[j]) * float(h) ** (order + 1))
    scaled_arr = np.array(scaled)
    guard = 1e-12 * max(1.0, max(abs(r.actual) for r in records))
    omega_ok = bool(np.max(scaled_arr) <= 10.0 * np.median(scaled_arr) + guard)
    return AsymptoticReport(
        n=head.n,
        theta=theta,
        order=order,
        h_grid=tuple(float(h) for h in grid),
        records=tuple(records),
        omega_bound_ok=omega_ok,
    )


def _fit_decay(records: list[RootRecord]) -> float:
    """Least-squares slope of log|residual| against log h, pooled over j."""
    pts = [
        (math.log(r.h), math.log(r.residual))
        for r in records
        if r.residual > 1e-13 * max(1.0, abs(r.actual))
    ]
    if len(pts) < 2:
        return math.nan
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def report_to_csv(report: AsymptoticReport, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["h", "j", "actual", "predicted", "residual",
                     f"residual_h{report.order + 1}"])
    for r in report.records:
        writer.writerow([
            repr(r.h), r.j, repr(r.actual), repr(r.predicted), repr(r.residual),
            repr(r.residual * r.h ** (report.order + 1)),
        ])


def report_summary(report: AsymptoticReport) -> dict:
    return {
        "n": report.n,
        "theta": report.theta,
        "order": report.order,
        "h_min": report.h_grid[0],
        "h_max": report.h_grid[-1],
        "steps": len(report.h_grid),
        # JSON has no NaN: None when the fit is undefined
        "fitted_decay": report.fitted_decay if math.isfinite(report.fitted_decay) else None,
        "omega_bound_ok": report.omega_bound_ok,
        "max_residual": max(r.residual for r in report.records),
    }
