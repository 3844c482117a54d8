"""Large-h root predictions for T_{theta,h}(P) and residual sweeps.

For monic P = x^n + a x^(n-1) + b x^(n-2) + ... the j-th image root follows

    X_j = x_j*h - a/n + (a^2(n-1)/(2n^2) - b/n) * (Q_{n-2}(x_j)/Q_{n-1}(x_j)) / h
          + (-a^3(n-1)(n-2)/(3n^3) + a*b(n-2)/n^2 - c/n)
            * (Q_{n-3}(x_j)/Q_{n-1}(x_j)) / h^2 + ...

with x_j the cotangent grid and c the x^(n-3) coefficient.  Residual decay
against an h-grid certifies the remainder orders empirically.
"""

from __future__ import annotations

import csv
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
from .poly import Polynomial, evaluate_many
from .rootfind import RootSet, roots, roots_many

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
    full: Polynomial


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
    fitted_decay: float
    omega_bound_ok: bool


def monic_head(p: Polynomial) -> MonicHead:
    """Normalize by the leading coefficient and read off the top coefficients."""
    if p.is_zero or p.degree < 2:
        raise DegreeTooSmall("asymptotic head extraction needs degree >= 2")
    a = p.as_array() / p.coeffs[-1]
    n = p.degree
    return MonicHead(
        n=n,
        a=complex(a[n - 1]),
        b=complex(a[n - 2]),
        c=complex(a[n - 3]) if n >= 3 else 0j,
        full=Polynomial(tuple(a)),
    )


def _prediction_terms(head: MonicHead, theta: float, order: int):
    """The h-independent parts of the order-`order` prediction.

    Returns (xs, num1, num2, den): the ascending cotangent grid, the 1/h and
    1/h^2 correction numerators coef * Q_{n-2}(xs) and coef * Q_{n-3}(xs)
    (None where the order or degree leaves them out) and the denominator
    Q_{n-1}(xs) (None at order 0).
    """
    if order not in (0, 1, 2):
        raise InvalidInput("order must be 0, 1 or 2")
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
    are; for real coefficients they are real.
    """
    if order not in (0, 1, 2):
        raise InvalidInput("order must be 0, 1 or 2")
    if not h > 0:
        raise InvalidInput("h must be > 0")
    return _predict_at(head, _prediction_terms(head, theta, order), h)


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
    two actual roots sit closer than 1e-6*h.

    Errors come in this order: InvalidInput for the grid arguments (bounds
    outside 0 < h_min < h_max < inf, a steps that is not an integer >= 2),
    checked before any root-find, or for an h_min below the matching floor,
    NonConvergence for an image at any h, then InvalidInput for the order and
    DegenerateQ, then, h by h from h_min up, InvalidInput for a root-count
    mismatch and MatchAmbiguity.
    """
    return _residual_sweeps(p, theta, h_min, h_max, steps, (order,))[0]


def _residual_sweeps(p: Polynomial, theta: float, h_min: float, h_max: float,
                     steps: int, orders) -> list[AsymptoticReport]:
    """`residual_sweep` at each of `orders`, all served by one batch of image
    roots.  Each report equals the `residual_sweep` call at its order, and
    the errors come as from those calls made one after the other."""
    _check_grid(h_min, h_max, steps)
    grid = _sweep_grid(h_min, h_max, steps, sweep_h_floor(p))
    head = monic_head(p)
    return _sweep_reports(head, theta, grid, roots_many(_sweep_images(p, theta, grid)),
                          orders)


def _floor_sweeps(p: Polynomial, theta: float, lo: float, hi: float, steps: int, orders):
    """`_residual_sweeps` from h_min = lo * floor to h_max = hi * floor, with
    floor the matching floor of p, as a generator that returns the reports.

    It yields [p] for the floor and then the grid's images, and is sent
    their RootSets, or has thrown in the error `roots` raises for the first
    of them that fails (the requests of a `harness` generator checker).  The
    reports equal those of `_residual_sweeps` over that h range, and errors
    come in the same order; a NonConvergence for the images carries the
    iterate of the one image that failed, where `roots_many` attaches its
    whole degree batch.
    """
    rs, = yield [p]
    floor = _matching_floor(rs)
    h_min, h_max = lo * floor, hi * floor
    _check_grid(h_min, h_max, steps)
    grid = _sweep_grid(h_min, h_max, steps, floor)
    head = monic_head(p)
    rss = yield _sweep_images(p, theta, grid)
    return _sweep_reports(head, theta, grid, [np.array(r.roots) for r in rss], orders)


def _check_grid(h_min: float, h_max: float, steps: int) -> None:
    # The grid arguments np.geomspace can take and fill with finite h.
    if (not 0 < h_min < h_max < math.inf or not isinstance(steps, (int, np.integer))
            or steps < 2):
        raise InvalidInput("need 0 < h_min < h_max < inf and an integer steps >= 2, "
                           f"got {h_min!r}, {h_max!r}, {steps!r}")


def _sweep_grid(h_min: float, h_max: float, steps: int, floor: float) -> np.ndarray:
    # The geometric h grid of valid grid arguments, h_min checked against the
    # matching floor.
    if h_min < floor:
        raise InvalidInput(
            f"h_min {h_min} is below the matching floor {floor:.6g}"
        )
    return np.geomspace(h_min, h_max, steps)


def _sweep_images(p: Polynomial, theta: float, grid: np.ndarray) -> list[Polynomial]:
    return [apply_tb(DeBruijnOp(theta, float(h)), p) for h in grid]


def _sweep_reports(head: MonicHead, theta: float, grid: np.ndarray, zs,
                   orders) -> list[AsymptoticReport]:
    # One report per order from the image roots zs, each sorted as `roots`
    # sorts them, at each h of grid.
    acts = [z[np.argsort(z.real)] for z in zs]  # as actual_roots sorts
    return [_sweep_report(head, theta, grid, acts, order) for order in orders]


def _sweep_report(head: MonicHead, theta: float, grid: np.ndarray, acts,
                  order: int) -> AsymptoticReport:
    # One order's report from the sorted image roots `acts` at each h of grid.
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
    fitted = _fit_decay(records)
    scaled_arr = np.array(scaled)
    guard = 1e-12 * max(1.0, max(abs(r.actual) for r in records))
    omega_ok = bool(np.max(scaled_arr) <= 10.0 * np.median(scaled_arr) + guard)
    return AsymptoticReport(
        n=head.n,
        theta=theta,
        order=order,
        h_grid=tuple(float(h) for h in grid),
        records=tuple(records),
        fitted_decay=fitted,
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
        "fitted_decay": report.fitted_decay,
        "omega_bound_ok": report.omega_bound_ok,
        "max_residual": max(r.residual for r in report.records),
    }
