"""Finite-difference operators T(P)(x) = sum a_j P(x - j*lambda).

Includes the generating Laurent polynomial, the four-condition verdict
engine (pure-imaginary shift, symmetric support, unimodular generating
roots, positive endpoint product), and a heuristic witness search over
monomial powers for operators the verdict rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonConvergence
from .poly import (
    Polynomial,
    _finite_pair,
    linear_combine,
    monomial,
    poly_to_json,
    shift_arg,
)
from .rootfind import RootSet, roots, rootset_to_json

__all__ = [
    "FDOperator",
    "GeneratingFn",
    "OperatorVerdict",
    "Witness",
    "make_operator",
    "apply_op",
    "generating_fn",
    "analyze",
    "witness_search",
    "compose",
    "operator_to_json",
    "operator_from_json",
    "verdict_to_json",
    "witness_to_json",
]

# Trailing coefficients below this relative size are dropped after an apply;
# generating functions with a root at t = 1 cancel leading terms exactly in
# theory but only to roundoff in floats.
APPLY_TRIM_TOL = 1e-12


@dataclass(frozen=True)
class FDOperator:
    lam: complex
    terms: tuple[tuple[int, complex], ...]  # sorted by j, endpoints nonzero

    @property
    def support_low(self) -> int:
        return self.terms[0][0]

    @property
    def support_high(self) -> int:
        return self.terms[-1][0]


def make_operator(lam: complex, terms) -> FDOperator:
    """Validate and build an operator.

    terms maps j -> a_j (dict or iterable of pairs).  The standing
    assumptions are enforced: lam != 0, support has l < m, and the endpoint
    coefficients a_l, a_m are nonzero.  Input violating them is rejected
    rather than silently re-indexed.
    """
    lam = complex(lam)
    if lam == 0:
        raise InvalidInput("operator shift lambda must be nonzero")
    if isinstance(terms, dict):
        items = terms.items()
    else:
        items = terms
    seen: dict[int, complex] = {}
    for j, a in items:
        if not isinstance(j, (int, np.integer)):
            raise InvalidInput(f"term index {j!r} is not an integer")
        if int(j) in seen:
            raise InvalidInput(f"duplicate term index {j}")
        seen[int(j)] = complex(a)
    if len(seen) < 2:
        raise InvalidInput("operator needs support l < m (at least two indices)")
    l, m = min(seen), max(seen)
    if seen[l] == 0 or seen[m] == 0:
        raise InvalidInput("endpoint coefficients a_l and a_m must be nonzero")
    ordered = tuple((j, seen[j]) for j in sorted(seen))
    return FDOperator(lam, ordered)


@dataclass(frozen=True)
class GeneratingFn:
    laurent_low: int  # = l; poly holds coefficients of t**(-l) * Q(t)
    poly: Polynomial


@dataclass(frozen=True)
class OperatorVerdict:
    cond1_pure_imag_shift: bool
    re_lambda_abs: float
    cond2_symmetric_support: bool
    cond3_unimodular_roots: bool
    max_modulus_defect: float
    cond4_positive_product: bool
    endpoint_product: complex
    hyperbolicity_preserver: bool
    strip_preserver: bool
    generating_roots: tuple[complex, ...]
    tol: float


@dataclass(frozen=True)
class Witness:
    input: Polynomial
    label: str
    image_roots: RootSet
    offense: float


def apply_op(op: FDOperator, p: Polynomial) -> Polynomial:
    """T(P) = sum a_j P(x - j*lambda)."""
    pairs = [(a, shift_arg(p, j * op.lam)) for j, a in op.terms]
    return linear_combine(pairs, trim_tol=APPLY_TRIM_TOL)


def generating_fn(op: FDOperator) -> GeneratingFn:
    l, m = op.support_low, op.support_high
    coeffs = np.zeros(m - l + 1, dtype=complex)
    for j, a in op.terms:
        coeffs[j - l] = a
    return GeneratingFn(l, Polynomial(tuple(coeffs)))


def analyze(op: FDOperator, tol: float = 1e-8) -> OperatorVerdict:
    """Per-condition breakdown deciding preserver / strip-preserver status."""
    l, m = op.support_low, op.support_high
    re_abs = abs(op.lam.real)
    cond1 = re_abs <= tol * abs(op.lam)
    cond2 = l == -m
    g = generating_fn(op)
    g_roots = roots(g.poly)
    defect = float(max(abs(abs(r) - 1.0) for r in g_roots.roots))
    cond3 = bool(defect <= tol)
    prod = dict(op.terms)[l] * dict(op.terms)[m]
    cond4 = abs(prod.imag) <= tol * abs(prod) and prod.real > 0
    return OperatorVerdict(
        cond1_pure_imag_shift=cond1,
        re_lambda_abs=re_abs,
        cond2_symmetric_support=cond2,
        cond3_unimodular_roots=cond3,
        max_modulus_defect=float(defect),
        cond4_positive_product=cond4,
        endpoint_product=prod,
        hyperbolicity_preserver=cond1 and cond2 and cond3 and cond4,
        strip_preserver=cond1 and cond2 and cond3,
        generating_roots=g_roots.roots,
        tol=tol,
    )


def _candidates(max_degree: int, strip_b: float | None):
    # (label, n, s) for the candidate (x - s)^n
    shifts = (0.0, 0.5, -0.5, 1.0)
    for n in range(1, max_degree + 1):
        for s in shifts:
            label = f"x^{n}" if s == 0 else f"(x-{s})^{n}"
            yield label, n, s
        if strip_b:
            for sgn in (1.0, -1.0):
                yield f"(x{'-' if sgn > 0 else '+'}{strip_b}i)^{n}", n, sgn * 1j * strip_b


def _offense_confirmed(op: FDOperator, n: int, s: complex, z: complex,
                       band: float, margin: float) -> bool:
    """Whether an image root z of (x - s)^n still leaves the band once refined.

    Up to 8 Newton steps on sum_j a_j (x - j*lam - s)^n, evaluated in product
    form: the expanded image loses digits to cancellation, and its roots can
    stray off the real line although the true image is real-rooted.
    """
    centres = np.array([j * op.lam + s for j, _ in op.terms])
    coefs = np.array([a for _, a in op.terms])
    step = np.inf
    with np.errstate(all="ignore"):
        for _ in range(8):
            w = z - centres
            step = np.sum(coefs * w**n) / (n * np.sum(coefs * w ** (n - 1)))
            z = z - step
            if not step:
                break
    return bool(abs(z.imag) - band > margin and abs(step) <= 1e-6 * max(1.0, abs(z)))


def witness_search(op: FDOperator, max_degree: int = 24,
                   strip_b: float | None = None, tol: float = 1e-8) -> Witness | None:
    """Search monomial powers and small shifts for a zero-location violation.

    Returns None both when the verdict says preserver (nothing to find) and
    when the heuristic family is exhausted; callers must not read the latter
    as a preserver certificate.  A candidate whose image roots cannot be
    certified is skipped: it is evidence neither way.
    """
    verdict = analyze(op, tol)
    if strip_b is None:
        if verdict.hyperbolicity_preserver:
            return None
    elif verdict.strip_preserver:
        return None
    band = strip_b or 0.0
    for label, n, s in _candidates(max_degree, strip_b):
        cand = shift_arg(monomial(n), s)
        image = apply_op(op, cand)
        if image.is_zero or image.degree == 0:
            continue
        try:
            rs = roots(image)
        except NonConvergence:
            continue
        scale = max(1.0, max(abs(r) for r in rs.roots))
        worst = max(rs.roots, key=lambda r: abs(r.imag))
        excess = abs(worst.imag) - band
        margin = 10.0 * tol * scale
        if excess > margin and _offense_confirmed(op, n, s, worst, band, margin):
            return Witness(cand, label, rs, float(excess))
    return None


def compose(op1: FDOperator, op2: FDOperator) -> FDOperator:
    """Operator whose generating function is the product (same shift only)."""
    if op1.lam != op2.lam:
        raise InvalidInput("composition is defined for operators sharing lambda")
    acc: dict[int, complex] = {}
    for j1, a1 in op1.terms:
        for j2, a2 in op2.terms:
            acc[j1 + j2] = acc.get(j1 + j2, 0j) + a1 * a2
    return make_operator(op1.lam, acc)


def operator_to_json(op: FDOperator) -> dict:
    return {
        "lambda": [op.lam.real, op.lam.imag],
        "terms": [{"j": j, "a": [a.real, a.imag]} for j, a in op.terms],
    }


def operator_from_json(obj) -> FDOperator:
    if not isinstance(obj, dict) or "lambda" not in obj or "terms" not in obj:
        raise InvalidInput("operator JSON needs 'lambda' and 'terms' fields")
    lam = _finite_pair(obj["lambda"], "lambda")
    terms_raw = obj["terms"]
    if not isinstance(terms_raw, list) or not terms_raw:
        raise InvalidInput("terms: expected a nonempty list")
    pairs = []
    for k, t in enumerate(terms_raw):
        if not isinstance(t, dict) or "j" not in t or "a" not in t:
            raise InvalidInput(f"terms[{k}]: expected an object with 'j' and 'a'")
        j = t["j"]
        if not isinstance(j, int) or isinstance(j, bool):
            raise InvalidInput(f"terms[{k}].j: expected an integer")
        pairs.append((j, _finite_pair(t["a"], f"terms[{k}].a")))
    return make_operator(lam, pairs)


def verdict_to_json(v: OperatorVerdict) -> dict:
    return {
        "cond1_pure_imag_shift": v.cond1_pure_imag_shift,
        "re_lambda_abs": v.re_lambda_abs,
        "cond2_symmetric_support": v.cond2_symmetric_support,
        "cond3_unimodular_roots": v.cond3_unimodular_roots,
        "max_modulus_defect": v.max_modulus_defect,
        "cond4_positive_product": v.cond4_positive_product,
        "endpoint_product": [v.endpoint_product.real, v.endpoint_product.imag],
        "hyperbolicity_preserver": v.hyperbolicity_preserver,
        "strip_preserver": v.strip_preserver,
        "generating_roots": [[r.real, r.imag] for r in v.generating_roots],
        "tol": v.tol,
    }


def witness_to_json(w: Witness) -> dict:
    return {
        "label": w.label,
        "input": poly_to_json(w.input),
        "image_roots": rootset_to_json(w.image_roots),
        "offense": w.offense,
    }
