import math

import mpmath
import numpy as np
import pytest

from fdzeros import (
    InvalidInput,
    NonConvergence,
    Witness,
    analyze,
    apply_op,
    classify_real,
    compose,
    evaluate_many,
    from_roots,
    generating_fn,
    make_operator,
    make_poly,
    monomial,
    operator_from_json,
    operator_to_json,
    random_preserver,
    random_strip_operator,
    roots,
    shift_arg,
    verdict_to_json,
    witness_search,
    witness_to_json,
)
from fdzeros import operators, rootfind


def test_make_operator_validation():
    with pytest.raises(InvalidInput):
        make_operator(0, {-1: 1, 1: 1})
    with pytest.raises(InvalidInput):
        make_operator(1j, {0: 1})
    with pytest.raises(InvalidInput):
        make_operator(1j, {-1: 0, 1: 1})
    with pytest.raises(InvalidInput):
        make_operator(1j, [(0, 1), (0, 2), (1, 1)])
    with pytest.raises(InvalidInput):
        make_operator(1j, {0.5: 1, 1: 1})
    # a bool is an int to Python; True built the support {0, 1}
    with pytest.raises(InvalidInput, match="^term index True is not an integer$"):
        make_operator(1j, {True: 1, 0: 2})
    op = make_operator(1j, {1: 1, -1: 2})
    assert op.support_low == -1 and op.support_high == 1


def test_make_operator_rejects_non_finite_input():
    # operator_from_json rejected these already; the constructor took them
    for lam, terms in [(1j, {0: math.nan, 1: 1}), (1j, {-1: 1, 0: math.inf, 1: 1}),
                       (complex(math.nan, 1), {0: 1, 1: 1}), (math.inf, {0: 1, 1: 1})]:
        with pytest.raises(InvalidInput, match="must be finite"):
            make_operator(lam, terms)


def test_apply_op_rejects_an_overflowing_image():
    # the shifts by j * 1e200i overflow; the image came back with NaN coefficients
    op = make_operator(1e200j, {-1: 1, 1: 1})
    with pytest.raises(InvalidInput, match=r"^T\(P\) overflows a double: 2 of 4 coefficients "
                                           "are not finite$"):
        apply_op(op, from_roots([1, 2, 3]))


def test_apply_examples():
    # lambda = i, a_{-1} = a_1 = 1, P = x^2: (x+i)^2 + (x-i)^2 = 2x^2 - 2
    op = make_operator(1j, {-1: 1, 1: 1})
    assert apply_op(op, monomial(2)) == make_poly([-2, 0, 2])
    # lambda = 1, a_0 = a_1 = 1, P = x^2: x^2 + (x-1)^2 = 2x^2 - 2x + 1
    op2 = make_operator(1, {0: 1, 1: 1})
    assert apply_op(op2, monomial(2)) == make_poly([1, -2, 2])
    assert apply_op(op, make_poly([])).is_zero


def test_generating_fn():
    g = generating_fn(make_operator(1j, {-1: 1, 1: 1}))
    assert g.laurent_low == -1
    assert g.poly == make_poly([1, 0, 1])
    g = generating_fn(make_operator(1, {0: 1, 1: 1}))
    assert g.laurent_low == 0
    assert g.poly == make_poly([1, 1])
    g = generating_fn(make_operator(1j, {-2: 1, 0: 2, 2: 1}))
    assert g.poly == make_poly([1, 0, 2, 0, 1])


def test_analyze_preserver():
    v = analyze(make_operator(1j, {-1: 1, 1: 1}))
    assert v.cond1_pure_imag_shift and v.cond2_symmetric_support
    assert v.cond3_unimodular_roots and v.cond4_positive_product
    assert v.hyperbolicity_preserver and v.strip_preserver
    # generating roots are +-i, exactly unimodular
    assert v.max_modulus_defect < 1e-12
    assert v.endpoint_product == 1
    assert analyze(make_operator(1j, {-1: 1, 1: 1}), 0.0).hyperbolicity_preserver


def test_analyze_real_shift():
    v = analyze(make_operator(1, {0: 1, 1: 1}))
    assert not v.cond1_pure_imag_shift
    assert not v.hyperbolicity_preserver


def test_analyze_strip_only():
    v = analyze(make_operator(1j, {-1: 1, 1: -1}))
    assert not v.cond4_positive_product
    assert v.strip_preserver
    assert not v.hyperbolicity_preserver


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_analyze_rejects_bad_tol(tol):
    # with tol = -1 conditions 1, 3 and 4 failed, so a preserver read as none
    with pytest.raises(InvalidInput, match="tolerance must be finite and >= 0"):
        analyze(make_operator(1j, {-1: 1, 1: 1}), tol)
    with pytest.raises(InvalidInput, match="tolerance must be finite and >= 0"):
        witness_search(make_operator(1j, {-1: 1, 1: 1}), tol=tol)


def test_verdict_consistency():
    rng = np.random.default_rng(12)
    for _ in range(10):
        op = random_preserver(int(rng.integers(1, 4)), rng)
        v = analyze(op)
        assert v.hyperbolicity_preserver == (
            v.cond1_pure_imag_shift and v.cond2_symmetric_support
            and v.cond3_unimodular_roots and v.cond4_positive_product
        )
        assert v.strip_preserver == (
            v.cond1_pure_imag_shift and v.cond2_symmetric_support
            and v.cond3_unimodular_roots
        )
        assert v.hyperbolicity_preserver


def test_witness_real_shift():
    # quadratic-formula oracle: image of x^2 is 2x^2 - 2x + 1, roots (1 +- i)/2
    op = make_operator(1, {0: 1, 1: 1})
    w = witness_search(op, max_degree=24)
    assert w is not None
    assert w.offense == pytest.approx(0.5, abs=1e-8)
    assert w.input == monomial(2)


def test_witness_image_residuals_computed_on_first_read(monkeypatch):
    # the witness's image residuals are evaluated when its JSON reads them,
    # bit for bit |image(z)| by evaluate_many at the sorted roots
    evaluated = []

    def counted(p, zs):
        evaluated.append(p)
        return evaluate_many(p, zs)

    monkeypatch.setattr(rootfind, "evaluate_many", counted)
    for op in (make_operator(1, {0: 1, 1: 1}), make_operator(1j, {-1: 1, 1: 4})):
        w = witness_search(op, max_degree=24)
        assert evaluated == []
        image = apply_op(op, w.input)
        want = np.abs(evaluate_many(image, np.array(w.image_roots.roots)))
        got = witness_to_json(w)["image_roots"]["residuals"]
        assert evaluated == [image]
        assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))
        evaluated.clear()


def test_witness_none_for_preserver():
    assert witness_search(make_operator(1j, {-1: 1, 1: 1})) is None


def test_witness_none_for_strip_preserver():
    # e^{i phi} times a preserver: every image of (x - 1)^n is real-rooted, but
    # the expanded image's computed roots leave the real line at n = 20.  The
    # verdict settles it before any search; the search itself is held to the
    # same answer on this operator by
    # test_batched_search_skips_uncertified_rows_as_the_loop_did.
    op = random_strip_operator(1, np.random.default_rng([3, 77, 1]))
    assert witness_search(op) is None


def _classify_rotated(m):
    # The benchmark's classify workload builds its two `rotated` operators
    # (m = 1, 2) like this, from its fixed stream [1807_01926, 3, m].
    rng = np.random.default_rng([1807_01926, 3, m])
    beta = float(rng.uniform(1.0, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    base = random_preserver(m, rng, lam=1j * beta)
    phi = float(rng.uniform(0.4, 1.2))
    rot = complex(math.cos(phi), math.sin(phi))
    return make_operator(base.lam, {j: rot * a for j, a in base.terms})


def test_witness_search_skips_conditions_1_to_3(monkeypatch):
    ops = [random_strip_operator(m, np.random.default_rng([7, m])) for m in (1, 2, 3)]
    ops += [_classify_rotated(m) for m in (1, 2)]
    for op in ops:
        v = analyze(op)
        assert v.strip_preserver and not v.hyperbolicity_preserver

    def forbidden(*args, **kwargs):
        raise AssertionError("a witness candidate was built or root-found")

    certified_many = rootfind._certified_many
    allowed = []  # the generating polynomial of the operator searched

    def generating_polynomial_only(items):
        # analyze root-finds the generating polynomial; nothing else may be
        if [getattr(x, "coeffs", None) for x in items] != [allowed[0].coeffs]:
            forbidden()
        return certified_many(items)

    monkeypatch.setattr(operators, "apply_op", forbidden)
    monkeypatch.setattr(operators, "_certified_many", forbidden)
    monkeypatch.setattr(rootfind, "_certified_many", generating_polynomial_only)
    for op in ops:
        allowed[:] = [generating_fn(op).poly]
        for strip_b in (None, 0.0, 1.0):
            assert witness_search(op, strip_b=strip_b) is None


def _mp_image_zeros(op, n, s):
    # Zeros of sum_j a_j (x - j lam - s)^n from mpmath at 50 digits: the
    # binomial expansion of every term, then polyroots.  The double-precision
    # start only speeds convergence; the 50-digit iteration and its
    # convergence test decide the zeros.
    with mpmath.workdps(50):
        c = [mpmath.mpc(0)] * (n + 1)
        for j, a in op.terms:
            a, centre = mpmath.mpc(a), j * mpmath.mpc(op.lam) + s
            for k in range(n + 1):
                c[k] += a * mpmath.binomial(n, k) * (-centre) ** (n - k)
        start = np.polynomial.polynomial.polyroots(np.array([complex(x) for x in c]))
        return mpmath.polyroots(c[::-1], maxsteps=50, extraprec=50,
                                roots_init=[mpmath.mpc(z) for z in start])


def test_conditions_1_to_3_rotate_a_hyperbolicity_preserver():
    # Soundness of skipping the search: an operator meeting conditions 1-3
    # but not 4 is e^{i psi} times a hyperbolicity preserver, psi =
    # arg(a_l a_m) / 2, so the images of real-rooted candidates have real
    # zeros.  120 operators; operator k has the image of (x - s)^n for the
    # k-th of the 12 (n, s) pairs, cyclically, so each pair is seen 10 times.
    rng = np.random.default_rng([2018, 7])
    pairs = [(n, s) for n in (3, 8, 14) for s in (0.0, 0.5, -0.5, 1.0)]
    for k in range(120):
        op = random_strip_operator(int(rng.integers(1, 4)), rng)
        v = analyze(op)
        assert v.strip_preserver and not v.hyperbolicity_preserver
        unrot = complex(np.exp(-0.5j * np.angle(v.endpoint_product)))
        assert analyze(make_operator(op.lam, {j: unrot * a for j, a in op.terms})
                       ).hyperbolicity_preserver
        n, s = pairs[k % len(pairs)]
        zs = _mp_image_zeros(op, n, s)
        assert len(zs) == n
        assert all(abs(z.imag) <= 1e-9 * max(1, abs(z)) for z in zs), (k, n, s)


def _search_reference(op, strip_b, max_degree=24, tol=1e-8):
    # The candidate search as a per-candidate loop with one roots() call
    # each, as it ran before the images were batched by degree.  Also
    # returns how many candidates it skipped for NonConvergence.
    band = strip_b or 0.0
    skipped = 0
    for n in range(1, max_degree + 1):
        cands = [(f"x^{n}" if s == 0 else f"(x-{s})^{n}", s)
                 for s in (0.0, 0.5, -0.5, 1.0)]
        if strip_b:
            cands += [(f"(x-{strip_b}i)^{n}", 1j * strip_b),
                      (f"(x+{strip_b}i)^{n}", -1j * strip_b)]
        for label, s in cands:
            cand = shift_arg(monomial(n), s)
            image = apply_op(op, cand)
            if image.is_zero or image.degree == 0:
                continue
            try:
                rs = roots(image)
            except NonConvergence:
                skipped += 1
                continue
            scale = max(1.0, max(abs(r) for r in rs.roots))
            worst = max(rs.roots, key=lambda r: abs(r.imag))
            excess = abs(worst.imag) - band
            margin = 10.0 * tol * scale
            if excess > margin and operators._offense_confirmed(op, n, s, worst,
                                                                band, margin):
                return Witness(cand, label, rs, float(excess)), skipped
    return None, skipped


def _bits(zs):
    return np.array(zs, dtype=complex).view(np.uint64)


def _assert_same_search(monkeypatch, op, strip_b):
    # The batched search returns the loop's witness and confirms offenses on
    # the same candidates and roots, in the same order.  Returns the loop's
    # witness and its NonConvergence skip count.
    original = operators._offense_confirmed
    log = []

    def recorded(op, n, s, z, band, margin):
        log.append((n, s, z, margin))
        return original(op, n, s, z, band, margin)

    monkeypatch.setattr(operators, "_offense_confirmed", recorded)
    want, skipped = _search_reference(op, strip_b)
    looped, log[:] = log[:], []
    got = operators._search_candidates(op, 24, strip_b, 1e-8)
    assert log == looped
    if want is None:
        assert got is None
    else:
        assert (got.label, got.offense, got.input) == (want.label, want.offense,
                                                       want.input)
        assert np.array_equal(_bits(got.image_roots.roots),
                              _bits(want.image_roots.roots))
        assert got.image_roots.residuals == want.image_roots.residuals
    return want, skipped


def _real_shift(m, rng):
    base = random_preserver(m, rng)
    return make_operator(complex(float(rng.uniform(0.2, 1.0)), base.lam.imag), base.terms)


def _off_circle(m, rng):
    # one generating root off the unit circle
    angles = rng.uniform(0.0, 2.0 * math.pi, size=2 * m)
    moduli = np.ones(2 * m)
    moduli[0] = float(rng.uniform(1.3, 2.0))
    coeffs = np.array([1.0 + 0j])
    for psi, rho in zip(angles, moduli):
        coeffs = np.convolve(coeffs, [-rho * np.exp(1j * psi), 1.0])
    return make_operator(1j * float(rng.uniform(0.3, 2.0)),
                         {k - m: coeffs[k] for k in range(2 * m + 1)})


def _rotated(m, rng):
    # e^{i phi} times a preserver with |beta| >= 1: nothing to find
    base = random_preserver(m, rng, lam=1j * float(rng.uniform(1.0, 2.0)))
    phi = float(rng.uniform(0.4, 1.2))
    return make_operator(base.lam, {j: complex(math.cos(phi), math.sin(phi)) * a
                                    for j, a in base.terms})


@pytest.mark.parametrize("strip_b", [None, 1.0], ids=["line", "strip"])
@pytest.mark.parametrize("kind", [_real_shift, _off_circle, _rotated],
                         ids=["real_shift", "off_circle", "rotated"])
def test_batched_search_equals_per_candidate_loop(monkeypatch, kind, strip_b):
    for m in (1, 2):
        op = kind(m, np.random.default_rng([5, m]))
        want, _ = _assert_same_search(monkeypatch, op, strip_b)
        assert (want is None) == (kind is _rotated)


def test_batched_search_finds_degree_2_witnesses_as_the_loop_did(monkeypatch):
    # real shifts: every degree-1 image is real-rooted, and with a strip the
    # witness is the fifth degree-2 candidate
    for op in (make_operator(1, {0: 1, 1: 1}), make_operator(0.5, {-1: 1, 0: 3, 1: 1})):
        for strip_b in (None, 0.5, 2.0):
            want, _ = _assert_same_search(monkeypatch, op, strip_b)
            assert want.input.degree == 2


def test_batched_search_skips_uncertified_rows_as_the_loop_did(monkeypatch):
    # The clustered strip preserver of test_witness_none_for_strip_preserver:
    # some of its images cannot be certified, and neither search looks at
    # their roots.
    op = random_strip_operator(1, np.random.default_rng([3, 77, 1]))
    want, skipped = _assert_same_search(monkeypatch, op, None)
    assert want is None and skipped > 0


def test_witness_modulus_violation():
    # generating roots +-i/2, off the unit circle
    op = make_operator(1j, {-1: 1, 1: 4})
    w = witness_search(op, max_degree=24)
    assert w is not None
    assert w.offense > 0


def test_preserver_images_stay_real_rooted():
    rng = np.random.default_rng(21)
    op = random_preserver(2, rng)
    for _ in range(20):
        p = from_roots(rng.uniform(-5, 5, size=6))
        image = apply_op(op, p)
        assert classify_real(roots(image), 1e-7).is_real_rooted
        a = image.as_array()
        assert np.max(np.abs(a.imag)) <= 1e-10 * np.max(np.abs(a))


def test_compose_requires_same_shift():
    op1 = make_operator(1j, {-1: 1, 1: 1})
    op2 = make_operator(2j, {-1: 1, 1: 1})
    with pytest.raises(InvalidInput):
        compose(op1, op2)


def test_operator_json_roundtrip():
    op = make_operator(0.5j, {-2: 1 + 2j, 0: 3, 2: -1})
    assert operator_from_json(operator_to_json(op)) == op


@pytest.mark.parametrize("bad,field", [
    ({"terms": [{"j": 0, "a": [1, 0]}, {"j": 1, "a": [1, 0]}]}, "lambda"),
    ({"lambda": [0, 1]}, "terms"),
    ({"lambda": [0, 1], "terms": []}, "terms"),
    ({"lambda": "x", "terms": [{"j": 0, "a": [1, 0]}]}, "lambda"),
    ({"lambda": [0, 1], "terms": [{"j": 0.5, "a": [1, 0]}]}, r"terms\[0\].j"),
    ({"lambda": [0, 1], "terms": [{"j": 0, "a": [1]}]}, r"terms\[0\].a"),
    ({"lambda": [0, 1], "terms": [{"a": [1, 0]}]}, r"terms\[0\]"),
    ({"lambda": [float("nan"), 1], "terms": [{"j": 0, "a": [1, 0]}]}, "lambda"),
    ({"lambda": [True, 1], "terms": [{"j": 0, "a": [1, 0]}]}, "lambda"),
    ({"lambda": [0, 1, 2], "terms": [{"j": 0, "a": [1, 0]}]}, "lambda"),
])
def test_operator_json_rejects(bad, field):
    with pytest.raises(InvalidInput, match=field):
        operator_from_json(bad)


@pytest.mark.parametrize("max_degree", [True, 2.5, "3"])
def test_witness_rejects_max_degree_not_an_integer(max_degree):
    # True used to search degree 1 only, and 2.5 raised a bare TypeError
    with pytest.raises(InvalidInput, match="max degree must be an integer"):
        witness_search(make_operator(1, {0: 1, 1: 1}), max_degree=max_degree)
    assert witness_search(make_operator(1, {0: 1, 1: 1}), max_degree=np.int64(2))


def test_verdict_and_witness_json():
    op = make_operator(1, {0: 1, 1: 1})
    v = verdict_to_json(analyze(op))
    assert v["hyperbolicity_preserver"] is False
    w = witness_to_json(witness_search(op))
    assert set(w) == {"label", "input", "image_roots", "offense"}
