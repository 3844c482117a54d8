"""End-to-end acceptance checks: the property registry, and one test per
numbered criterion that no property states.

`test_property` runs each property of `ALL_PROPERTIES` at seed 42 and
asserts that no instance fails.  The criteria that remain check what the
registry does not: grid points outside a property's range, many operators
against a fixed batch, violators, an absolute bound, and oracles built from
the generated roots.  Each test prints a single PASS/FAIL line (run pytest
with -s to see them all on success).  Oracles are independent of the code
under test wherever the quantity admits one: closed-form cotangent grids,
generated root multisets, binomial/quadratic expansions.
"""

import math

import numpy as np
import pytest

from fdzeros import (
    ALL_PROPERTIES,
    DeBruijnOp,
    SuiteConfig,
    analyze,
    apply_op,
    apply_tb,
    derivative,
    from_roots,
    gn,
    line_image,
    make_operator,
    make_poly,
    mesh_floor,
    qn,
    qn_zeros,
    random_preserver,
    reflect,
    residual_sweep,
    roots,
    roots_many,
    run_properties,
    shift_arg,
    apolar,
    tb_via_walsh,
    walsh_convolve,
    witness_search,
)

THETAS = (0.0, 0.3, math.pi / 2, 2.5, math.pi)
HS = (0.5, 1.0, 3.0)
# sin(theta) = 0: the image of x^n drops to degree n - 1, and the registry's
# closed-form and ladder properties draw theta from ranges without them
DEGENERATE_THETAS = (0.0, math.pi)

# Instances per property where the registry run replaces a criterion or unit
# test: that test's instance count.  Every other property runs
# DEFAULT_TRIALS instances.
DEFAULT_TRIALS = 4
TRIALS = {
    "tb_closed_form_roots": 300,  # criterion 1: 20 n x 5 theta x 3 h
    "op_strip_sound": 200,  # criterion 4: 5 operators x 40 polynomials
    "interlace_obreschkov_agreement": 50,  # criterion 8: 10 pairs each, 500
    "tb_derivative_ladder": 100,  # criterion 10: 20 n x 5 theta
    "tb_scaling": 300,  # criterion 10: 20 n x 5 theta x 3 h
    "walsh_interval_bound": 10,
    "walsh_mesh_bound": 10,
}


def report(num, desc, ok, detail=""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc} {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


def _rel_gap(lhs, rhs) -> float:
    """Max coefficient difference relative to the larger coefficient."""
    length = max(len(lhs), len(rhs))
    a = np.zeros(length, dtype=complex)
    b = np.zeros(length, dtype=complex)
    a[: len(lhs)] = lhs
    b[: len(rhs)] = rhs
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


@pytest.mark.parametrize("prop", ALL_PROPERTIES, ids=lambda p: p.name)
def test_property(prop):
    cfg = SuiteConfig(seed=42, trials=TRIALS.get(prop.name, DEFAULT_TRIALS))
    rec = run_properties(cfg, [prop]).records[0]
    print(f"property {prop.name} [{'PASS' if not rec.failures else 'FAIL'}] "
          f"{rec.failures}/{rec.trials} instances failed")
    assert rec.trials == cfg.trials
    assert rec.failures == 0, (f"{rec.failures}/{rec.trials} failed, "
                               f"first: {rec.example_failure}")


def hyperbolic_batch(rng, count, deg_lo, deg_hi, root_range=(-5.0, 5.0)):
    """Roots-first random polynomials; returns (polys, root lists)."""
    out = []
    for _ in range(count):
        n = int(rng.integers(deg_lo, deg_hi + 1))
        rs = np.sort(rng.uniform(*root_range, size=n))
        out.append((from_roots(rs), rs))
    return out


def test_criterion_1_closed_form_zeros():
    # Root counts on the whole grid; the zeros themselves at the degenerate
    # angles (tb_closed_form_roots checks them for 0.15 <= theta <= pi - 0.15).
    worst = 0.0
    for n in range(1, 21):
        for theta in THETAS:
            want_count = n if abs(math.sin(theta)) > 1e-12 else n - 1
            qz = qn_zeros(n, theta)
            assert qz.count == want_count
            for h in HS:
                g = gn(n, theta, h)
                assert (g.degree or 0) == want_count
                if want_count == 0 or theta not in DEGENERATE_THETAS:
                    continue
                got = np.sort(np.array(roots(g).roots).real)
                want = np.sort(h * np.array(qz.zeros))
                worst = max(worst, float(np.max(np.abs(got - want))))
    report(1, "closed-form cotangent zero counts, and zeros at theta in {0, pi} "
              "(n <= 20)", worst <= 1e-8, f"worst |root error| = {worst:.2e}")


def test_criterion_2_preserver_soundness():
    rng = np.random.default_rng([42, 102])
    polys = hyperbolic_batch(rng, 500, 1, 8)
    worst_imag = 0.0
    worst_coeff = 0.0
    for _ in range(20):
        op = random_preserver(int(rng.integers(1, 4)), rng)
        assert analyze(op).hyperbolicity_preserver
        images = [apply_op(op, p) for p, _ in polys]
        for im in images:
            a = im.as_array()
            worst_coeff = max(worst_coeff,
                              float(np.max(np.abs(a.imag)))
                              / float(np.max(np.abs(a))))
        solvable = [im for im in images if not im.is_zero and im.degree >= 1]
        for zs in roots_many(solvable):
            scale = max(1.0, float(np.max(np.abs(zs))))
            worst_imag = max(worst_imag,
                             float(np.max(np.abs(zs.imag))) / scale)
    ok = worst_imag <= 1e-7 and worst_coeff <= 1e-10
    report(2, "constructed preservers keep 500 polynomials real-rooted", ok,
           f"max |Im root|/scale = {worst_imag:.2e}, "
           f"max |Im coeff|/scale = {worst_coeff:.2e}")


def _violators(rng):
    """(label, operator) per condition: 5 of each class."""
    out = []
    for k in range(5):
        m = k % 3 + 1
        base = random_preserver(m, rng)
        out.append(("re_lambda",
                    make_operator(base.lam + 0.3 + 0.1 * k, dict(base.terms))))
        shifted = random_preserver(m, rng)
        out.append(("support",
                    make_operator(shifted.lam,
                                  {j + 1: a for j, a in shifted.terms})))
        # one generating root pushed to modulus 1.1
        acc = np.array([1.0 + 0j])
        for th in rng.uniform(0, 2 * math.pi, size=2 * m - 1):
            acc = np.convolve(acc, np.array([np.exp(1j * th / 2),
                                             np.exp(-1j * th / 2)]))
        phi = float(rng.uniform(0, 2 * math.pi))
        acc = np.convolve(acc, np.array([-1.1 * np.exp(1j * phi), 1.0]))
        beta = float(rng.uniform(0.3, 2.0))
        out.append(("modulus",
                    make_operator(1j * beta,
                                  {j - m: acc[j] for j in range(2 * m + 1)})))
        neg = random_preserver(m, rng)
        out.append(("product",
                    make_operator(neg.lam, {j: 1j * a for j, a in neg.terms})))
    return out


def test_criterion_3_violator_completeness():
    rng = np.random.default_rng([42, 103])
    missing = []
    for label, op in _violators(rng):
        verdict = analyze(op)
        if verdict.hyperbolicity_preserver:
            missing.append((label, "verdict said preserver"))
            continue
        if label in ("re_lambda", "modulus"):
            if witness_search(op, max_degree=24) is None:
                missing.append((label, "no witness found"))
    report(3, "20 violators rejected; witnesses found for the "
              "shift/modulus classes", not missing, str(missing))


def test_criterion_5_line_lemma():
    rng = np.random.default_rng([42, 105])
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        c = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-3, 3))
        theta = float(rng.uniform(0, 2 * math.pi))
        p = from_roots(rng.uniform(-5, 5, size=n) + 1j * c)
        image = line_image(p, beta, theta)
        if image.is_zero or image.degree == 0:
            continue
        line = c + beta / 2
        for r in roots(image).roots:
            worst = max(worst, abs(r.imag - line))
    report(5, "zeros of P(x - i beta) - e^{i theta} P(x) sit on "
              "Im = c + beta/2", worst <= 1e-8, f"worst offset = {worst:.2e}")


def test_criterion_6_mesh_and_extremes():
    rng = np.random.default_rng([42, 106])
    cases = []
    for _ in range(500):
        n = int(rng.integers(2, 11))
        rs = np.sort(rng.uniform(-5, 5, size=n))
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        h = float(rng.choice(HS[:2] + (2.0,)))
        cases.append((from_roots(rs), rs, theta, h))
    images = [apply_tb(DeBruijnOp(theta, h), p) for p, _, theta, h in cases]
    fails = []
    for (p, rs, theta, h), zs in zip(cases, roots_many(images)):
        xs = np.sort(zs.real)
        gaps = np.diff(xs)
        floor = mesh_floor(p.degree, theta, h)
        margin = float(np.min(gaps))
        if margin < floor - 1e-9:
            fails.append("simplicity")
        mesh_p = float(np.min(np.diff(rs)))  # oracle: generated roots
        if margin < max(mesh_p, floor) - 1e-9:
            fails.append("mesh")
        qz = qn_zeros(p.degree, theta)
        if xs[-1] > rs[-1] + h * max(qz.zeros) + 1e-9:
            fails.append("lambda")
        if xs[0] < rs[0] + h * min(qz.zeros) - 1e-9:
            fails.append("mu")
    report(6, "simplicity / mesh growth / extremal bounds on 500 images",
           not fails, f"violations: {fails[:5]}")


def test_criterion_7_walsh_identities():
    rng = np.random.default_rng([42, 107])
    worst_dual = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = from_roots(np.sort(rng.uniform(-5, 5, size=n)))
        theta = float(rng.uniform(0, 2 * math.pi))
        h = float(rng.uniform(0.3, 3.0))
        a = tb_via_walsh(p, theta, h).as_array()
        direct = apply_tb(DeBruijnOp(theta, h), p)
        b = np.zeros_like(a)
        b[: len(direct.coeffs)] = direct.coeffs
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
        worst_dual = max(worst_dual, float(np.max(np.abs(a - b))) / scale)

    fails = []
    pairs = []
    for _ in range(300):
        n = int(rng.integers(2, 9))
        pairs.append((np.sort(rng.uniform(-5, 5, size=n)),
                      np.sort(rng.uniform(-5, 5, size=n))))
    convs = [walsh_convolve(from_roots(pr), from_roots(qr), len(pr))
             for pr, qr in pairs]
    for (pr, qr), conv, zs in zip(pairs, convs, roots_many(convs)):
        n = len(pr)
        scale = max(1.0, float(np.max(np.abs(zs))))
        if float(np.max(np.abs(zs.imag))) > 1e-7 * scale:
            fails.append("closure")
        xs = np.sort(zs.real)
        if n >= 2:
            floor = max(np.min(np.diff(pr)), np.min(np.diff(qr)))
            if float(np.min(np.diff(xs))) < floor - 1e-9 * scale:
                fails.append("mesh")
        if xs[0] < pr[0] + qr[0] - 1e-9 * scale or \
           xs[-1] > pr[-1] + qr[-1] + 1e-9 * scale:
            fails.append("interval")
        p, q = from_roots(pr), from_roots(qr)
        for x0 in zs:
            if not apolar(reflect(p), shift_arg(q, -x0), n, 1e-8):
                fails.append("apolarity")
    ok = worst_dual <= 1e-9 and not fails
    report(7, "convolution identities on 200 + 300 random instances", ok,
           f"dual-path gap = {worst_dual:.2e}, violations: {fails[:5]}")


def test_criterion_9_asymptotic_rates():
    # omega-bound flag on 50 random monic polynomials; the 1/(8h^3) benchmark
    # and the generic decay rates are test_asymptotics' sweep tests
    rng = np.random.default_rng([42, 9])
    flags = []
    for _ in range(50):
        n = int(rng.integers(2, 9))
        q = make_poly(rng.uniform(-2, 2, size=n).tolist() + [1.0])
        theta = float(rng.uniform(0.3, 2.8))
        floor = 2.0 * (1.0 + max(abs(z) for z in roots(q).roots))
        r = residual_sweep(q, theta, floor * 1.05, floor * 10.5, 10, 1)
        flags.append(r.omega_bound_ok)
    report(9, "expansion omega flags", all(flags), f"flags = {sum(flags)}/50")


def test_criterion_10_ladder_and_scaling():
    # The grid points outside the registry's ranges: the ladder at n = 1
    # (tb_derivative_ladder draws n >= 2), and the ladder and h-scaling at the
    # degenerate angles.
    worst = 0.0
    for n in range(1, 21):
        for theta in THETAS:
            if n > 1 and theta not in DEGENERATE_THETAS:
                continue
            lhs = derivative(qn(n, theta)).as_array()
            rhs = n * qn(n - 1, theta).as_array()
            if max(len(lhs), len(rhs)) == 0:  # n = 1 at sin(theta) = 0: both vanish
                continue
            worst = max(worst, _rel_gap(lhs, rhs))
            if theta not in DEGENERATE_THETAS:
                continue
            q = qn(n, theta).as_array()
            for h in HS:
                want = [h ** (n - k) * c for k, c in enumerate(q)]
                worst = max(worst, _rel_gap(gn(n, theta, h).as_array(), want))
    report(10, "derivative ladder at n = 1 and theta in {0, pi}, h-scaling at "
               "theta in {0, pi} (n <= 20)",
           worst <= 1e-10, f"worst relative gap = {worst:.2e}")
