"""Seeded instance generators and the property-suite runner.

Every mathematical invariant the library relies on becomes a named property: a
generator that draws self-contained instance dicts from a per-property seed
stream, and a checker that maps an instance to a violation score (pass iff
<= 0).  Instances are JSON-serializable so any failure replays standalone.

A checker that root-finds may be a generator.  It yields a list of
polynomials and is sent their `RootSet`s, or has thrown in at that yield the
error `roots` raises for the first of them it cannot root-find.  Or it
yields a list of coefficient arrays, each of same-width rows, and is sent
what `aberth_batch` returns for each array, or has thrown in the error
`aberth_batch` raises for the first array that fails; the interlacing
property's pencil asks this way, since building a `RootSet` per direction
would cost more than root-finding it.  Both `run_properties` and `replay`
(which runs one instance) go through `_run_checks`, which advances every
instance of a property one yield at a time and root-finds all the rows of a
round with one engine call per width (degree + 1).  A checker merges two
root-finds into one yield only when nothing between them can raise, so each
instance raises what it would raise with one `roots` or `aberth_batch` call
after another.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import _floor_sweeps, monic_head, predict_roots
from .debruijn import (
    DeBruijnOp,
    apply_tb,
    extremal_bounds,
    gn,
    line_image,
    mesh_floor,
    qn,
    qn_zeros,
    simplicity_margin,
)
from .errors import FDZerosError
from .operators import (
    FDOperator,
    analyze,
    apply_op,
    compose,
    make_operator,
    operator_from_json,
    operator_to_json,
)
from .poly import (
    Polynomial,
    coeff_scale,
    derivative,
    evaluate,
    from_roots,
    linear_combine,
    make_poly,
    monomial,
    multiply,
    poly_from_json,
    poly_to_json,
    reflect,
    shift_arg,
)
from .rootfind import (
    _certified_many,
    _interlace_verdict,
    _pencil,
    _rootset,
    extremes,
    mesh,
    sorted_real_parts,
)
from .walsh import apolar, tb_via_walsh, walsh_convolve, walsh_interval_bound

__all__ = [
    "SuiteConfig",
    "Property",
    "PropertyRecord",
    "SuiteReport",
    "random_hyperbolic",
    "random_line_poly",
    "random_preserver",
    "random_strip_operator",
    "run_properties",
    "run_suite",
    "replay",
    "report_to_json",
    "ALL_PROPERTIES",
]


# Fixed for every run and printed in the report's config block: the interval
# random roots are drawn from, the realness tolerance the checks pass to the
# root tools, and the relative tolerance of the derivative-linearity identity.
ROOT_RANGE = (-5.0, 5.0)
TOL_REAL = 1e-7
TOL_IDENTITY = 1e-10


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 20
    degree_max: int = 8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.degree_max < 2:
            raise ValueError("degree_max must be >= 2")


@dataclass(frozen=True)
class Property:
    name: str
    stream: int  # fixed per property; never renumbered
    generate: Callable
    check: Callable


@dataclass(frozen=True)
class PropertyRecord:
    name: str
    trials: int
    failures: int
    worst_violation: float
    example_failure: dict | None


@dataclass(frozen=True)
class SuiteReport:
    config: SuiteConfig
    records: tuple[PropertyRecord, ...]

    @property
    def total_failures(self) -> int:
        return sum(r.failures for r in self.records)

    @property
    def passed(self) -> bool:
        return self.total_failures == 0


# ---------------------------------------------------------------------------
# generators for random instances


def random_hyperbolic(n: int, root_range, rng) -> Polynomial:
    """Monic real-rooted polynomial with n roots uniform in root_range."""
    rs = rng.uniform(root_range[0], root_range[1], size=n)
    return from_roots(sorted(float(r) for r in rs))


def random_line_poly(n: int, c: float, root_range, rng) -> Polynomial:
    """Monic polynomial whose zeros all sit on the line Im z = c."""
    ds = rng.uniform(root_range[0], root_range[1], size=n)
    return from_roots([float(d) + 1j * c for d in sorted(ds)])


def random_preserver(m: int, rng, lam: complex | None = None) -> FDOperator:
    """Operator from a real multiple of a product of unimodular-root factors.

    The generating function is C * prod_k (e^{-i theta_k/2} t + e^{i theta_k/2})
    re-centred to support [-m, m]; the endpoint product is C^2 > 0 and the
    shift is pure imaginary, so all four verdict conditions hold.
    """
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=2 * m)
    acc = np.array([1.0 + 0j])
    for th in thetas:
        acc = np.convolve(acc, np.array([np.exp(1j * th / 2), np.exp(-1j * th / 2)]))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    coeffs = sign * float(rng.uniform(0.5, 2.0)) * acc
    if lam is None:
        beta = float(rng.uniform(0.3, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        lam = 1j * beta
    return make_operator(lam, {k - m: coeffs[k] for k in range(2 * m + 1)})


def random_strip_operator(m: int, rng) -> FDOperator:
    """Conditions-1-3 operator that breaks the endpoint-product condition.

    Scaling every coefficient by e^{i phi} leaves the generating roots and
    the support untouched but rotates the endpoint product off (0, inf).
    """
    base = random_preserver(m, rng)
    phi = float(rng.uniform(0.4, 1.2))
    e = complex(math.cos(phi), math.sin(phi))
    return make_operator(base.lam, {j: e * a for j, a in base.terms})


# ---------------------------------------------------------------------------
# shared check helpers


def _pad_gap(p: Polynomial, q: Polynomial) -> float:
    """Max coefficient difference relative to the larger coefficient scale."""
    length = max(len(p.coeffs), len(q.coeffs))
    a = np.zeros(length, dtype=complex)
    b = np.zeros(length, dtype=complex)
    a[: len(p.coeffs)] = p.coeffs
    b[: len(q.coeffs)] = q.coeffs
    scale = max(coeff_scale(p), coeff_scale(q), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _imag_excess(root_list, tol: float) -> float:
    scale = max(1.0, max(abs(r) for r in root_list))
    return max(abs(r.imag) for r in root_list) - tol * scale


def _draw_degree(cfg: SuiteConfig, rng, lo: int = 1, hi: int | None = None) -> int:
    top = min(cfg.degree_max, hi) if hi is not None else cfg.degree_max
    return int(rng.integers(lo, top + 1))


# ---------------------------------------------------------------------------
# properties: polynomial arithmetic


def _gen_shift_roundtrip(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        n = int(rng.integers(1, 21))
        c = rng.uniform(-1, 1, size=(n + 1, 2)) @ np.array([1, 1j])
        # |lam| stays small: a degree-20 shift amplifies coefficients by
        # (1+|lam|)^20 before the inverse shift cancels it back
        lam = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
        out.append({"poly": poly_to_json(make_poly(c)),
                    "lam": [lam.real, lam.imag], "tol": 1e-12})
    return out


def _chk_shift_roundtrip(inst):
    p = poly_from_json(inst["poly"])
    lam = complex(*inst["lam"])
    back = shift_arg(shift_arg(p, lam), -lam)
    return _pad_gap(p, back) - inst["tol"]


def _gen_shift_eval(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        n = _draw_degree(cfg, rng)
        p = random_hyperbolic(n, ROOT_RANGE, rng)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        out.append({"poly": poly_to_json(p), "lam": [lam.real, lam.imag],
                    "z": [z.real, z.imag], "tol": 1e-10})
    return out


def _chk_shift_eval(inst):
    p = poly_from_json(inst["poly"])
    lam = complex(*inst["lam"])
    z = complex(*inst["z"])
    lhs = evaluate(shift_arg(p, lam), z)
    rhs = evaluate(p, z - lam)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale - inst["tol"]


def _gen_poly_linearity(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        p = random_hyperbolic(_draw_degree(cfg, rng), ROOT_RANGE, rng)
        q = random_hyperbolic(_draw_degree(cfg, rng), ROOT_RANGE, rng)
        a, b = (float(x) for x in rng.uniform(-2, 2, size=2))
        out.append({"p": poly_to_json(p), "q": poly_to_json(q),
                    "a": a, "b": b, "tol": TOL_IDENTITY})
    return out


def _chk_poly_linearity(inst):
    p = poly_from_json(inst["p"])
    q = poly_from_json(inst["q"])
    a, b = inst["a"], inst["b"]
    combo = linear_combine([(a, p), (b, q)])
    lhs = derivative(combo)
    rhs = linear_combine([(a, derivative(p)), (b, derivative(q))])
    return _pad_gap(lhs, rhs) - inst["tol"]


# ---------------------------------------------------------------------------
# properties: root finding


def _gen_roots_product(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        p = random_hyperbolic(_draw_degree(cfg, rng, 1, 8), ROOT_RANGE, rng)
        q = random_hyperbolic(_draw_degree(cfg, rng, 1, 8), ROOT_RANGE, rng)
        out.append({"p": poly_to_json(p), "q": poly_to_json(q), "tol": 1e-8})
    return out


def _chk_roots_product(inst):
    p = poly_from_json(inst["p"])
    q = poly_from_json(inst["q"])
    rs_pq, rs_p, rs_q = yield [multiply(p, q), p, q]
    got = sorted(rs_pq.roots, key=lambda z: (z.real, z.imag))
    want = sorted(list(rs_p.roots) + list(rs_q.roots), key=lambda z: (z.real, z.imag))
    return max(abs(g - w) for g, w in zip(got, want)) - inst["tol"]


def _gen_mesh_translation(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        p = random_hyperbolic(_draw_degree(cfg, rng, 2), ROOT_RANGE, rng)
        out.append({"poly": poly_to_json(p), "t": float(rng.uniform(-4, 4)),
                    "tol": 1e-9, "tol_real": TOL_REAL})
    return out


def _chk_mesh_translation(inst):
    p = poly_from_json(inst["poly"])
    rs, = yield [p]
    m0 = mesh(rs, inst["tol_real"])
    rs, = yield [shift_arg(p, inst["t"])]
    m1 = mesh(rs, inst["tol_real"])
    return abs(m0 - m1) - inst["tol"]


def _gen_interlace_obreschkov(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        pairs = []
        for k in range(10):
            n = int(rng.integers(2, 7))
            if k % 2 == 0:
                # alternate draws of 2n points give a genuinely interlacing pair
                pts = np.sort(rng.uniform(*ROOT_RANGE, size=2 * n))
                pairs.append((from_roots(pts[0::2]), from_roots(pts[1::2])))
            else:
                pairs.append((random_hyperbolic(n, ROOT_RANGE, rng),
                              random_hyperbolic(n, ROOT_RANGE, rng)))
        out.append({
            "pairs": [[poly_to_json(p), poly_to_json(q)] for p, q in pairs],
            "seed": int(rng.integers(0, 2**31)),
            "tol_real": TOL_REAL,
            "max_rate": 0.01,
        })
    return out


def _chk_interlace_obreschkov(inst):
    pairs = [(poly_from_json(pj), poly_from_json(qj)) for pj, qj in inst["pairs"]]
    rss = yield [r for pair in pairs for r in pair]
    a = [_interlace_verdict(p, q, np.array(rp.roots), np.array(rq.roots), inst["tol_real"])
         for (p, q), rp, rq in zip(pairs, rss[0::2], rss[1::2])]
    b = yield from _pencil(pairs, 200, [inst["seed"] + k for k in range(len(pairs))], 1e-7)
    disagree = sum(x != y for x, y in zip(a, b))
    return disagree / len(inst["pairs"]) - inst["max_rate"]


def _gen_derivative_mesh(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        p = random_hyperbolic(_draw_degree(cfg, rng, 3), ROOT_RANGE, rng)
        out.append({"poly": poly_to_json(p), "tol_real": TOL_REAL})
    return out


def _chk_derivative_mesh(inst):
    p = poly_from_json(inst["poly"])
    rs, = yield [p]
    m_p = mesh(rs, inst["tol_real"])
    d = derivative(p)
    if d.degree < 2:
        return -1.0
    rs, = yield [d]
    return m_p - mesh(rs, inst["tol_real"])


# ---------------------------------------------------------------------------
# properties: general finite-difference operators


def _gen_op_linearity(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        op = random_preserver(int(rng.integers(1, 4)), rng)
        p = random_hyperbolic(_draw_degree(cfg, rng), ROOT_RANGE, rng)
        q = random_hyperbolic(_draw_degree(cfg, rng), ROOT_RANGE, rng)
        a, b = (float(x) for x in rng.uniform(-2, 2, size=2))
        out.append({"op": operator_to_json(op), "p": poly_to_json(p),
                    "q": poly_to_json(q), "a": a, "b": b, "tol": 1e-12})
    return out


def _chk_op_linearity(inst):
    op = operator_from_json(inst["op"])
    p = poly_from_json(inst["p"])
    q = poly_from_json(inst["q"])
    a, b = inst["a"], inst["b"]
    lhs = apply_op(op, linear_combine([(a, p), (b, q)]))
    rhs = linear_combine([(a, apply_op(op, p)), (b, apply_op(op, q))])
    return _pad_gap(lhs, rhs) - inst["tol"]


def _gen_op_composition(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        beta = float(rng.uniform(0.3, 2.0))
        op1 = random_preserver(int(rng.integers(1, 3)), rng, lam=1j * beta)
        op2 = random_preserver(int(rng.integers(1, 3)), rng, lam=1j * beta)
        p = random_hyperbolic(_draw_degree(cfg, rng), ROOT_RANGE, rng)
        out.append({"op1": operator_to_json(op1), "op2": operator_to_json(op2),
                    "poly": poly_to_json(p), "tol": 1e-10})
    return out


def _chk_op_composition(inst):
    op1 = operator_from_json(inst["op1"])
    op2 = operator_from_json(inst["op2"])
    p = poly_from_json(inst["poly"])
    lhs = apply_op(op1, apply_op(op2, p))
    rhs = apply_op(compose(op1, op2), p)
    return _pad_gap(lhs, rhs) - inst["tol"]


def _gen_op_preserver_sound(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        op = random_preserver(int(rng.integers(1, 4)), rng)
        p = random_hyperbolic(_draw_degree(cfg, rng, 1, 8), ROOT_RANGE, rng)
        out.append({"op": operator_to_json(op), "poly": poly_to_json(p),
                    "tol_real": TOL_REAL})
    return out


def _chk_op_preserver_sound(inst):
    op = operator_from_json(inst["op"])
    if not analyze(op).hyperbolicity_preserver:
        return 1.0
    image = apply_op(op, poly_from_json(inst["poly"]))
    if image.is_zero or image.degree == 0:
        return -1.0
    rs, = yield [image]
    return _imag_excess(rs.roots, inst["tol_real"])


def _chk_op_real_output(inst):
    op = operator_from_json(inst["op"])
    image = apply_op(op, poly_from_json(inst["poly"]))
    if image.is_zero:
        return -1.0
    a = image.as_array()
    return float(np.max(np.abs(a.imag))) - inst["tol"] * float(np.max(np.abs(a)))


def _gen_op_real_output(cfg, rng):
    out = _gen_op_preserver_sound(cfg, rng)
    for inst in out:
        inst["tol"] = 1e-10
    return out


def _gen_op_strip_sound(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        op = random_strip_operator(int(rng.integers(1, 4)), rng)
        n = _draw_degree(cfg, rng, 1, 8)
        zs = [complex(rng.uniform(*ROOT_RANGE), rng.uniform(-1, 1))
              for _ in range(n)]
        out.append({"op": operator_to_json(op),
                    "poly": poly_to_json(from_roots(zs)),
                    "b": 1.0, "tol_real": TOL_REAL})
    return out


def _chk_op_strip_sound(inst):
    op = operator_from_json(inst["op"])
    if not analyze(op).strip_preserver:
        return 1.0
    image = apply_op(op, poly_from_json(inst["poly"]))
    if image.is_zero or image.degree == 0:
        return -1.0
    rs, = yield [image]
    scale = max(1.0, max(abs(r) for r in rs.roots))
    return max(abs(r.imag) for r in rs.roots) - inst["b"] - inst["tol_real"] * scale


# ---------------------------------------------------------------------------
# properties: the specialized operator T_{theta,h}


def _gen_tb_ladder(cfg, rng):
    return [{"n": int(rng.integers(2, 21)),
             "theta": float(rng.uniform(0.0, 2 * math.pi)), "tol": 1e-10}
            for _ in range(cfg.trials)]


def _chk_tb_ladder(inst):
    n, theta = inst["n"], inst["theta"]
    lhs = derivative(qn(n, theta))
    rhs = make_poly(n * qn(n - 1, theta).as_array())
    return _pad_gap(lhs, rhs) - inst["tol"]


def _gen_tb_scaling(cfg, rng):
    return [{"n": int(rng.integers(1, 21)),
             "theta": float(rng.uniform(0.0, 2 * math.pi)),
             "h": float(rng.uniform(0.3, 3.0)), "tol": 1e-10}
            for _ in range(cfg.trials)]


def _chk_tb_scaling(inst):
    n, theta, h = inst["n"], inst["theta"], inst["h"]
    g = gn(n, theta, h)
    q = qn(n, theta)
    scaled = make_poly([h ** (n - k) * c for k, c in enumerate(q.coeffs)])
    return _pad_gap(g, scaled) - inst["tol"]


def _gen_tb_closed_form(cfg, rng):
    return [{"n": int(rng.integers(1, 21)),
             "theta": float(rng.uniform(0.15, math.pi - 0.15)),
             "h": float(rng.uniform(0.3, 3.0)), "tol": 1e-8}
            for _ in range(cfg.trials)]


def _chk_tb_closed_form(inst):
    n, theta, h = inst["n"], inst["theta"], inst["h"]
    g = gn(n, theta, h)
    want = sorted(h * z for z in qn_zeros(n, theta).zeros)
    rs, = yield [g]
    got = sorted_real_parts(rs)
    if len(got) != len(want):
        return 1.0
    if not want:
        return -1.0
    return max(abs(a - b) for a, b in zip(got, want)) - inst["tol"]


def _gen_tb_random(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        n = int(rng.integers(2, 11))
        p = random_hyperbolic(n, ROOT_RANGE, rng)
        out.append({"poly": poly_to_json(p),
                    "theta": float(rng.uniform(0.25, math.pi - 0.25)),
                    "h": float(rng.choice([0.5, 1.0, 2.0])),
                    "tol_real": TOL_REAL, "slack": 1e-9})
    return out


def _chk_tb_image_real_simple(inst):
    p = poly_from_json(inst["poly"])
    theta, h = inst["theta"], inst["h"]
    image = apply_tb(DeBruijnOp(theta, h), p)
    rs, = yield [image]
    excess = _imag_excess(rs.roots, inst["tol_real"])
    margin = simplicity_margin(p, theta, h, tol=inst["tol_real"])
    return max(excess, -margin)


def _chk_tb_mesh_floor(inst):
    p = poly_from_json(inst["poly"])
    theta, h = inst["theta"], inst["h"]
    image = apply_tb(DeBruijnOp(theta, h), p)
    rs, = yield [image]
    scale = max(1.0, max(abs(r) for r in rs.roots))
    floor = mesh_floor(p.degree, theta, h)
    return floor - mesh(rs, inst["tol_real"]) - inst["slack"] * scale


def _chk_tb_mesh_monotone(inst):
    p = poly_from_json(inst["poly"])
    theta, h = inst["theta"], inst["h"]
    rs, = yield [p]
    m_p = mesh(rs, inst["tol_real"])
    image = apply_tb(DeBruijnOp(theta, h), p)
    rs, = yield [image]
    scale = max(1.0, max(abs(r) for r in rs.roots))
    return m_p - mesh(rs, inst["tol_real"]) - inst["slack"] * scale


def _chk_tb_extremal(inst):
    p = poly_from_json(inst["poly"])
    theta, h = inst["theta"], inst["h"]
    bounds = extremal_bounds(p, theta, h, tol=inst["tol_real"])
    image = apply_tb(DeBruijnOp(theta, h), p)
    rs, = yield [image]
    top, bot = extremes(rs, inst["tol_real"])
    return max(top - bounds["lambda_bound"], bounds["mu_bound"] - bot) - inst["slack"]


def _gen_tb_line_lemma(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        n = _draw_degree(cfg, rng, 1, 8)
        c = float(rng.uniform(-2, 2))
        p = random_line_poly(n, c, ROOT_RANGE, rng)
        out.append({"poly": poly_to_json(p), "c": c,
                    "beta": float(rng.uniform(-3, 3)),
                    "theta": float(rng.uniform(0.1, 2 * math.pi - 0.1)),
                    "tol": 1e-8})
    return out


def _chk_tb_line_lemma(inst):
    p = poly_from_json(inst["poly"])
    image = line_image(p, inst["beta"], inst["theta"])
    if image.is_zero or image.degree == 0:
        return -1.0
    rs, = yield [image]
    line = inst["c"] + inst["beta"] / 2.0
    scale = max(1.0, max(abs(r) for r in rs.roots))
    return max(abs(r.imag - line) for r in rs.roots) - inst["tol"] * scale


def _gen_tb_periodicity(cfg, rng):
    return [{"n": int(rng.integers(1, 21)),
             "theta": float(rng.uniform(0.0, 2 * math.pi)), "tol": 1e-10}
            for _ in range(cfg.trials)]


def _chk_tb_periodicity(inst):
    n, theta = inst["n"], inst["theta"]
    lhs = qn(n, theta + math.pi)
    rhs = make_poly(-qn(n, theta).as_array())
    return _pad_gap(lhs, rhs) - inst["tol"]


# ---------------------------------------------------------------------------
# properties: Walsh convolution


def _gen_walsh_pair(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        n = _draw_degree(cfg, rng, 2, 8)
        out.append({"p": poly_to_json(random_hyperbolic(n, ROOT_RANGE, rng)),
                    "q": poly_to_json(random_hyperbolic(n, ROOT_RANGE, rng)),
                    "n": n, "tol_real": TOL_REAL, "slack": 1e-9})
    return out


def _chk_walsh_closure(inst):
    p = poly_from_json(inst["p"])
    q = poly_from_json(inst["q"])
    conv = walsh_convolve(p, q, inst["n"])
    if conv.is_zero or conv.degree == 0:
        return -1.0
    rs, = yield [conv]
    return _imag_excess(rs.roots, inst["tol_real"])


def _chk_walsh_mesh(inst):
    p = poly_from_json(inst["p"])
    q = poly_from_json(inst["q"])
    conv = walsh_convolve(p, q, inst["n"])
    if conv.is_zero or conv.degree < 2:
        return -1.0
    rs, rs_p = yield [conv, p]
    scale = max(1.0, max(abs(r) for r in rs.roots))
    m_p = mesh(rs_p, inst["tol_real"])
    rs_q, = yield [q]
    floor = max(m_p, mesh(rs_q, inst["tol_real"]))
    return floor - mesh(rs, inst["tol_real"]) - inst["slack"] * scale


def _chk_walsh_interval(inst):
    p = poly_from_json(inst["p"])
    q = poly_from_json(inst["q"])
    conv = walsh_convolve(p, q, inst["n"])
    if conv.is_zero or conv.degree == 0:
        return -1.0
    bound = walsh_interval_bound(p, q, inst["n"], tol=inst["tol_real"])
    rs, = yield [conv]
    xs = sorted_real_parts(rs)
    scale = max(1.0, float(np.max(np.abs(xs))))
    eps = inst["slack"] * scale
    return max(bound["lo"] - float(xs[0]), float(xs[-1]) - bound["hi"]) - eps


def _chk_walsh_apolarity(inst):
    p = poly_from_json(inst["p"])
    q = poly_from_json(inst["q"])
    n = inst["n"]
    conv = walsh_convolve(p, q, n)
    if conv.is_zero or conv.degree == 0:
        return -1.0
    rs, = yield [conv]
    for x0 in rs.roots:
        if not apolar(reflect(p), shift_arg(q, -x0), n, 1e-8):
            return 1.0
    return -1.0


def _gen_walsh_dual_path(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        n = _draw_degree(cfg, rng, 1, 8)
        out.append({"poly": poly_to_json(random_hyperbolic(n, ROOT_RANGE, rng)),
                    "theta": float(rng.uniform(0.0, 2 * math.pi)),
                    "h": float(rng.uniform(0.3, 3.0)), "tol": 1e-9})
    return out


def _chk_walsh_dual_path(inst):
    p = poly_from_json(inst["poly"])
    theta, h = inst["theta"], inst["h"]
    via_conv = tb_via_walsh(p, theta, h)
    direct = apply_tb(DeBruijnOp(theta, h), p)
    return _pad_gap(via_conv, direct) - inst["tol"]


# ---------------------------------------------------------------------------
# properties: asymptotics


def _gen_asym_omega(cfg, rng):
    out = []
    for _ in range(cfg.trials):
        n = int(rng.integers(2, 9))
        c = rng.uniform(-2, 2, size=n).tolist() + [1.0]
        out.append({"poly": poly_to_json(make_poly(c)),
                    "theta": float(rng.uniform(0.3, 2.8)),
                    "steps": 8, "order": 1})
    return out


def _chk_asym_omega(inst):
    p = poly_from_json(inst["poly"])
    rep, = yield from _floor_sweeps(p, inst["theta"], 1.05, 10.5, inst["steps"],
                                    (inst["order"],))
    return -1.0 if rep.omega_bound_ok else 1.0


def _gen_asym_monomial(cfg, rng):
    return [{"n": int(rng.integers(2, 9)),
             "theta": float(rng.uniform(0.3, 2.8)),
             "h": float(rng.uniform(5.0, 50.0)),
             "order": int(rng.integers(0, 3)), "tol": 1e-10}
            for _ in range(cfg.trials)]


def _chk_asym_monomial(inst):
    n, theta, h = inst["n"], inst["theta"], inst["h"]
    head = monic_head(monomial(n))
    pred = predict_roots(head, theta, h, inst["order"])
    want = np.sort(np.array(qn_zeros(n, theta).zeros)) * h
    return float(np.max(np.abs(pred - want))) - inst["tol"] * h


def _gen_asym_count(cfg, rng):
    out = []
    for k in range(cfg.trials):
        n = int(rng.integers(2, 9))
        theta = 0.0 if k % 5 == 0 else float(rng.uniform(0.2, math.pi - 0.2))
        c = rng.uniform(-2, 2, size=n).tolist() + [1.0]
        out.append({"poly": poly_to_json(make_poly(c)), "theta": theta,
                    "h": float(rng.uniform(0.5, 3.0))})
    return out


def _chk_asym_count(inst):
    p = poly_from_json(inst["poly"])
    image = apply_tb(DeBruijnOp(inst["theta"], inst["h"]), p)
    want = qn_zeros(p.degree, inst["theta"]).count
    got = 0 if image.is_zero else image.degree
    return -1.0 if got == want else 1.0


def _gen_asym_hierarchy(cfg, rng):
    return [{"poly": poly_to_json(make_poly([5.0, -1.0, 2.0, 1.0])),
             "theta": float(rng.uniform(0.4, 2.7)), "steps": 8}
            for _ in range(cfg.trials)]


def _chk_asym_hierarchy(inst):
    p = poly_from_json(inst["poly"])
    # one batch of image roots serves all three orders
    reps = yield from _floor_sweeps(p, inst["theta"], 1.1, 11.0, inst["steps"], (0, 1, 2))
    # compare the per-h worst residual: a single root can have an
    # accidentally tiny low-order residual when its correction coefficient
    # nearly vanishes, but the profile over all roots still orders strictly
    h_grid = reps[0].h_grid
    mid = math.sqrt(h_grid[0] * h_grid[-1])
    worst = -1.0
    for h in h_grid:
        if h < mid:
            continue
        r0, r1, r2 = (max(r.residual for r in rep.records if r.h == h)
                      for rep in reps)
        worst = max(worst, r1 - r0 - 1e-12, r2 - r1 - 1e-12)
    return worst


# ---------------------------------------------------------------------------
# registry and runner

ALL_PROPERTIES: tuple[Property, ...] = (
    Property("poly_shift_roundtrip", 1, _gen_shift_roundtrip, _chk_shift_roundtrip),
    Property("poly_shift_eval", 2, _gen_shift_eval, _chk_shift_eval),
    Property("poly_derivative_linearity", 3, _gen_poly_linearity, _chk_poly_linearity),
    Property("roots_product_multiset", 10, _gen_roots_product, _chk_roots_product),
    Property("mesh_translation_invariant", 11, _gen_mesh_translation,
             _chk_mesh_translation),
    Property("interlace_obreschkov_agreement", 12, _gen_interlace_obreschkov,
             _chk_interlace_obreschkov),
    Property("derivative_mesh_grows", 13, _gen_derivative_mesh, _chk_derivative_mesh),
    Property("op_linearity", 20, _gen_op_linearity, _chk_op_linearity),
    Property("op_composition", 21, _gen_op_composition, _chk_op_composition),
    Property("op_preserver_sound", 22, _gen_op_preserver_sound,
             _chk_op_preserver_sound),
    Property("op_real_output", 23, _gen_op_real_output, _chk_op_real_output),
    Property("op_strip_sound", 24, _gen_op_strip_sound, _chk_op_strip_sound),
    Property("tb_derivative_ladder", 30, _gen_tb_ladder, _chk_tb_ladder),
    Property("tb_scaling", 31, _gen_tb_scaling, _chk_tb_scaling),
    Property("tb_closed_form_roots", 32, _gen_tb_closed_form, _chk_tb_closed_form),
    Property("tb_image_real_simple", 33, _gen_tb_random, _chk_tb_image_real_simple),
    Property("tb_mesh_floor", 34, _gen_tb_random, _chk_tb_mesh_floor),
    Property("tb_mesh_monotone", 35, _gen_tb_random, _chk_tb_mesh_monotone),
    Property("tb_extremal_bounds", 36, _gen_tb_random, _chk_tb_extremal),
    Property("tb_line_lemma", 37, _gen_tb_line_lemma, _chk_tb_line_lemma),
    Property("tb_periodicity", 38, _gen_tb_periodicity, _chk_tb_periodicity),
    Property("walsh_hyperbolicity_closure", 40, _gen_walsh_pair, _chk_walsh_closure),
    Property("walsh_mesh_bound", 41, _gen_walsh_pair, _chk_walsh_mesh),
    Property("walsh_interval_bound", 42, _gen_walsh_pair, _chk_walsh_interval),
    Property("walsh_apolarity_duality", 43, _gen_walsh_pair, _chk_walsh_apolarity),
    Property("walsh_dual_path", 44, _gen_walsh_dual_path, _chk_walsh_dual_path),
    Property("asym_omega_bound", 50, _gen_asym_omega, _chk_asym_omega),
    Property("asym_monomial_exact", 51, _gen_asym_monomial, _chk_asym_monomial),
    Property("asym_root_count", 52, _gen_asym_count, _chk_asym_count),
    Property("asym_order_hierarchy", 53, _gen_asym_hierarchy, _chk_asym_hierarchy),
)


def _answer(requests) -> list:
    """Per request, its answer or the error to throw in.  A list of
    polynomials gets their RootSets, or the error `roots` raises for the
    first of them it cannot root-find; a list of coefficient arrays gets the
    roots `aberth_batch` returns for each, or the error it raises for the
    first that fails.  All requests' rows are root-found together, one
    engine call per width."""
    flat = [x for req in requests for x in req]
    rooted = iter(zip(flat, _certified_many(flat)))
    out = []
    for req in requests:
        got = [next(rooted) for _ in req]
        error = next((e for _, (_, e) in got if e is not None), None)
        if error is not None:
            out.append(error)
        elif req and isinstance(req[0], np.ndarray):
            out.append([z for _, (z, _) in got])
        else:
            out.append([_rootset(p, z) for p, (z, _) in got])
    return out


def _run_checks(check, instances) -> list:
    """Each instance's checker outcome, in order: the value it returned, or
    the exception it raised.

    A plain checker runs on its own.  A generator checker is advanced one
    yield per round, all instances together, and each round is answered by
    `_answer`.  Rows do not interact in the root engine, so every RootSet
    equals what `roots` returns alone, and every array's roots what
    `aberth_batch` returns for that array.  Exceptions of any kind are kept,
    not raised, so the caller sees them in instance order, as it would
    running the checks one after another.
    """
    outcomes: list = [None] * len(instances)
    waiting: dict = {}  # instance index -> (generator, polynomials it yielded)

    def resume(i, gen, step, arg):
        try:
            waiting[i] = (gen, list(step(arg)))
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:  # kept for the caller, see above
            outcomes[i] = exc

    for i, inst in enumerate(instances):
        try:
            got = check(inst)
        except Exception as exc:
            outcomes[i] = exc
            continue
        if inspect.isgenerator(got):
            resume(i, got, got.send, None)
        else:
            outcomes[i] = got
    while waiting:
        this_round = list(waiting.items())
        waiting.clear()
        answers = _answer([req for _, (_, req) in this_round])
        for (i, (gen, _)), ans in zip(this_round, answers):
            resume(i, gen, gen.throw if isinstance(ans, FDZerosError) else gen.send, ans)
    return outcomes


def run_properties(cfg: SuiteConfig, properties) -> SuiteReport:
    """Run each property's checker on its seeded instances.

    An instance fails when its checker returns a positive violation or
    raises a typed fdzeros error (for example NonConvergence on roots the
    engine cannot certify); an error has no violation, so it leaves
    worst_violation alone.  Any other exception propagates.  The instances
    of a property run together through `_run_checks`.
    """
    records = []
    for prop in sorted(properties, key=lambda p: p.name):
        rng = np.random.default_rng([cfg.seed, prop.stream])
        instances = prop.generate(cfg, rng)
        failures = 0
        worst = -math.inf
        example = None
        for inst, out in zip(instances, _run_checks(prop.check, instances)):
            try:
                if isinstance(out, Exception):
                    raise out
                v = float(out)
            except FDZerosError:
                v = math.inf
            else:
                worst = max(worst, v)
            if v > 0:
                failures += 1
                if example is None:
                    example = inst
        records.append(PropertyRecord(prop.name, len(instances), failures,
                                      worst, example))
    return SuiteReport(cfg, tuple(records))


def run_suite(cfg: SuiteConfig | None = None) -> SuiteReport:
    return run_properties(cfg or SuiteConfig(), ALL_PROPERTIES)


def replay(name: str, instance: dict) -> float:
    """Re-run one property's checker on a serialized instance: the
    one-instance call of `_run_checks`, raising what the checker raised."""
    for prop in ALL_PROPERTIES:
        if prop.name == name:
            out, = _run_checks(prop.check, [instance])
            if isinstance(out, Exception):
                raise out
            return float(out)
    raise KeyError(f"unknown property {name!r}")


def report_to_json(report: SuiteReport) -> dict:
    return {
        "config": {
            "seed": report.config.seed,
            "trials": report.config.trials,
            "degree_max": report.config.degree_max,
            "root_range": list(ROOT_RANGE),
            "tol_real": TOL_REAL,
            "tol_identity": TOL_IDENTITY,
        },
        "properties": [
            {
                "name": r.name,
                "trials": r.trials,
                "failures": r.failures,
                # JSON has no inf or NaN: None when the worst is not finite
                "worst_violation": (r.worst_violation
                                    if math.isfinite(r.worst_violation) else None),
                "example_failure": r.example_failure,
            }
            for r in report.records
        ],
        "total_failures": report.total_failures,
        "passed": report.passed,
    }

