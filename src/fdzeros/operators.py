"""Finite-difference operators T(P)(x) = sum a_j P(x - j*lambda).

Includes the generating Laurent polynomial, the four-condition verdict
engine (pure-imaginary shift, symmetric support, unimodular generating
roots, positive endpoint product), and a heuristic witness search over
monomial powers for operators that fail condition 1, 2 or 3, root-found one
batch per degree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .poly import (
    Polynomial,
    _check_finite,
    _check_int,
    _check_tol,
    _finite_pair,
    _shift_many,
    linear_combine,
    monomial,
    poly_to_json,
    shift_arg,
)
from .rootfind import (
    RootSet,
    _certified_many,
    _drive,
    _realness,
    _rootset,
    _sorted,
    rootset_to_json,
)

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
    coefficients a_l, a_m are nonzero.  Input violating them, or with a
    non-finite lam or a_j, is rejected rather than silently re-indexed.
    """
    lam = complex(lam)
    if lam == 0:
        raise InvalidInput("operator shift lambda must be nonzero")
    if not cmath.isfinite(lam):
        raise InvalidInput(f"operator shift lambda must be finite, got {lam!r}")
    if isinstance(terms, dict):
        items = terms.items()
    else:
        items = terms
    seen: dict[int, complex] = {}
    for j, a in items:
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
            raise InvalidInput(f"term index {j!r} is not an integer")
        if int(j) in seen:
            raise InvalidInput(f"duplicate term index {j}")
        a = complex(a)
        if not cmath.isfinite(a):
            raise InvalidInput(f"term a_{j} must be finite, got {a!r}")
        seen[int(j)] = a
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
    """T(P) = sum a_j P(x - j*lambda); InvalidInput if a coefficient
    overflows a double."""
    shifted = _shift_many(p, [j * op.lam for j, _ in op.terms])
    pairs = [(a, q) for (_, a), q in zip(op.terms, shifted)]
    return _check_finite(linear_combine(pairs, trim_tol=APPLY_TRIM_TOL), "T(P)")


def generating_fn(op: FDOperator) -> GeneratingFn:
    l, m = op.support_low, op.support_high
    coeffs = np.zeros(m - l + 1, dtype=complex)
    for j, a in op.terms:
        coeffs[j - l] = a
    return GeneratingFn(l, Polynomial(tuple(coeffs)))


def analyze(op: FDOperator, tol: float = 1e-8) -> OperatorVerdict:
    """Per-condition breakdown deciding preserver / strip-preserver status.

    Raises InvalidInput for a tol that is negative or not finite."""
    return _drive(_analyze(op, tol))


def _analyze(op: FDOperator, tol: float = 1e-8):
    _check_tol(tol, "tolerance")
    l, m = op.support_low, op.support_high
    re_abs = abs(op.lam.real)
    cond1 = re_abs <= tol * abs(op.lam)
    cond2 = l == -m
    g = generating_fn(op)
    g_roots, = yield [g.poly]
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


def _candidates(n: int, strip_b: float | None):
    # (label, s) for the degree-n candidates (x - s)^n, in search order
    for s in (0.0, 0.5, -0.5, 1.0):
        yield (f"x^{n}" if s == 0 else f"(x-{s})^{n}"), s
    if strip_b:
        for sgn in (1.0, -1.0):
            yield f"(x{'-' if sgn > 0 else '+'}{strip_b}i)^{n}", sgn * 1j * strip_b


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

    The candidates are (x - s)^n for n = 1..max_degree, s in {0, 0.5, -0.5,
    1}, plus (x -+ i strip_b)^n with a strip.  Their images are root-found
    one batch per degree, from n = 1 up, and each row is certified on its
    own; the first certified image in candidate order whose offense is
    confirmed is the witness.

    Returns None without building any candidate when the verdict meets
    conditions 1-3 (`strip_preserver`), with or without a strip: such an
    operator preserves every strip |Im z| <= b, and if it fails condition 4
    it is e^{i psi} times a hyperbolicity preserver, psi = arg(a_l a_m) / 2,
    so the images of the real-rooted candidates have only real zeros.
    Returns None too when the heuristic family is exhausted; callers must
    not read that as a preserver certificate.  A candidate whose image roots
    cannot be certified is skipped: it is evidence neither way.  Raises
    InvalidInput for a max_degree that is not an integer >= 1 (a bool is
    not one) or a negative or non-finite strip_b.
    """
    return _witness(op, max_degree, strip_b, tol)[1]


def _witness(op: FDOperator, max_degree: int, strip_b: float | None,
             tol: float) -> tuple[str, Witness | None]:
    """The status of a witness search with its witness: ("witness", w) when
    one is found, else the settled status or "inconclusive" with None.

    The one place that decides the status, for `witness_search` and the
    `witness` CLI command; raises as `witness_search` does, for a search that
    would search nothing or a strip of negative (or non-finite) half-width.
    The verdict settles the status without a search when conditions 1-3
    hold: "preserver" when it proves the property searched for (strip
    preservation with a strip, hyperbolicity preservation without one), and
    "inconclusive" for a strip preserver searched without a strip, whose
    images of real-rooted polynomials have only real zeros, so there is
    nothing to find, but need not have real coefficients, so it is no
    hyperbolicity preserver.
    """
    _check_int(max_degree, "max degree", 1)
    if strip_b is not None and not 0.0 <= strip_b < math.inf:
        raise InvalidInput(f"strip half-width must be finite and >= 0, got {strip_b}")
    verdict = analyze(op, tol)
    if verdict.strip_preserver:
        if strip_b is not None or verdict.hyperbolicity_preserver:
            return "preserver", None
        return "inconclusive", None
    w = _search_candidates(op, max_degree, strip_b, tol)
    return ("inconclusive", None) if w is None else ("witness", w)


def _search_candidates(op: FDOperator, max_degree: int, strip_b: float | None,
                       tol: float) -> Witness | None:
    """The candidate search of `_witness`, once the verdict has left the
    status unsettled.

    Degree by degree: the degree-n candidates' images are built, those of
    degree >= 1 are root-found in one batch per image degree, certified row
    by row, and the certified ones are tested in candidate order, so a
    witness at n = 1 costs one degree of work.
    """
    band = strip_b or 0.0
    for n in range(1, max_degree + 1):
        found = []  # (label, s, candidate, image)
        for label, s in _candidates(n, strip_b):
            cand = shift_arg(monomial(n), s)
            image = apply_op(op, cand)
            if not (image.is_zero or image.degree == 0):
                found.append((label, s, cand, image))
        rooted = _certified_many([image for *_, image in found])
        for (label, s, cand, image), (z, error) in zip(found, rooted):
            if error is not None:
                continue
            z = _sorted(z)
            v = _realness(z, 10.0 * tol)
            excess = v.max_imag - band
            worst = max(z, key=lambda r: abs(r.imag))
            if excess > v.tol_used and _offense_confirmed(op, n, s, worst, band, v.tol_used):
                return Witness(cand, label, _rootset(image, z), float(excess))
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
