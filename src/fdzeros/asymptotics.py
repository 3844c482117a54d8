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
from .rootfind import roots

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
    n = head.n
    xs = np.sort(np.array(qn_zeros(n, theta).zeros))
    pred = xs * h - head.a / n
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
        pred = pred + coef1 * evaluate_many(qn2, xs) / den / h
        if order >= 2 and n >= 3:
            qn3 = qn(n - 3, theta)
            coef2 = (
                -head.a**3 * (n - 1) * (n - 2) / (3.0 * n**3)
                + head.a * head.b * (n - 2) / (n * n)
                - head.c / n
            )
            pred = pred + coef2 * evaluate_many(qn3, xs) / den / (h * h)
    return pred


def actual_roots(p: Polynomial, theta: float, h: float) -> np.ndarray:
    """Roots of the image, sorted ascending by real part."""
    image = apply_tb(DeBruijnOp(theta, h), p)
    z = np.array(roots(image).roots)
    return z[np.argsort(z.real)]


def sweep_h_floor(p: Polynomial) -> float:
    """Default smallest h at which sorted-order root matching is safe."""
    r = max(abs(z) for z in roots(p).roots)
    return 2.0 * (1.0 + r)


def residual_sweep(p: Polynomial, theta: float, h_min: float, h_max: float,
                   steps: int, order: int) -> AsymptoticReport:
    """Predicted-vs-actual residuals over a geometric h-grid.

    Matching is by sorted order (leading terms x_j*h separate strictly);
    MatchAmbiguity is raised if two actual roots sit closer than 1e-6*h.
    """
    if not (0 < h_min < h_max) or steps < 2:
        raise InvalidInput("need 0 < h_min < h_max and steps >= 2")
    floor = sweep_h_floor(p)
    if h_min < floor:
        raise InvalidInput(
            f"h_min {h_min} is below the matching floor {floor:.6g}"
        )
    head = monic_head(p)
    grid = np.geomspace(h_min, h_max, steps)
    records: list[RootRecord] = []
    scaled = []
    for h in grid:
        act = actual_roots(p, theta, float(h))
        pred = predict_roots(head, theta, float(h), order)
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
