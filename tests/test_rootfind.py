import copy
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest

from fdzeros import (
    ALL_PROPERTIES,
    ConstantPolynomial,
    DeBruijnOp,
    DegreeGapTooLarge,
    InvalidInput,
    NonConvergence,
    NotRealRooted,
    SuiteConfig,
    ZERO,
    TooFewRoots,
    ZeroPolynomial,
    apply_op,
    apply_tb,
    classify_real,
    coeff_scale,
    derivative,
    evaluate_many,
    extremes,
    from_roots,
    gn,
    interlace,
    make_poly,
    mesh,
    multiply,
    pencil_hyperbolic_sample,
    poly_from_json,
    roots,
    roots_many,
    rootset_to_json,
    shift_arg,
    sorted_real_parts,
)
from fdzeros import harness, rootfind
from fdzeros.rootfind import _aberth_core, aberth_batch


def test_roots_basic():
    rs = roots(make_poly([-1, 0, 1]))
    assert sorted(r.real for r in rs.roots) == pytest.approx([-1, 1])
    rs = roots(make_poly([1, 0, 1]))
    assert sorted(r.imag for r in rs.roots) == pytest.approx([-1, 1])


def _residual_polys():
    # real and complex polynomials of degree 1-12
    rng = np.random.default_rng(26)
    return ([from_roots(rng.uniform(-5, 5, n)) for n in range(1, 13)]
            + [make_poly(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
               for n in range(1, 13)])


def _assert_residuals_on_read(monkeypatch, found, polys):
    # No residual is evaluated until one is read; then each is, bit for
    # bit, |p(z)| by evaluate_many at the sorted roots, once.
    evaluated = []

    def counted(p, zs):
        evaluated.append(p)
        return evaluate_many(p, zs)

    monkeypatch.setattr(rootfind, "evaluate_many", counted)
    rss = found()
    assert evaluated == []
    for p, rs in zip(polys, rss, strict=True):
        want = np.abs(evaluate_many(p, np.array(rs.roots)))
        assert np.array_equal(np.array(rs.residuals).view(np.uint64), want.view(np.uint64))
        assert rs.residuals is rs.residuals
    assert evaluated == polys


def test_rootset_residuals_computed_on_first_read(monkeypatch):
    polys = _residual_polys()
    _assert_residuals_on_read(monkeypatch, lambda: [roots(p) for p in polys], polys)

    def request():
        return (yield polys)

    _assert_residuals_on_read(monkeypatch, lambda: rootfind._run_requests([request()])[0],
                              polys)


def test_rootset_given_residuals_and_value_semantics():
    p = from_roots([1.0, 2.0, 4.0])
    found = roots(p)
    given = rootfind.RootSet(found.roots, found.residuals)
    assert given.residuals == found.residuals
    assert given == found == roots(p) and hash(given) == hash(roots(p))
    assert repr(roots(p)) == repr(given)
    assert rootfind.RootSet(found.roots, (1.0, 1.0, 1.0)) != found
    assert copy.copy(roots(p)) == pickle.loads(pickle.dumps(roots(p))) == found
    with pytest.raises(AttributeError):
        found.roots = ()


def test_roots_quadratic_oracle():
    # 2x^2 - 2h^2 + 2 with h = 5: quadratic formula gives +-sqrt(24)
    h = 5.0
    rs = roots(make_poly([2 - 2 * h * h, 0, 2]))
    want = [-math.sqrt(24), math.sqrt(24)]
    assert sorted_real_parts(rs) == pytest.approx(want, abs=1e-12)


def test_roots_errors():
    with pytest.raises(ZeroPolynomial):
        roots(make_poly([]))
    with pytest.raises(ConstantPolynomial):
        roots(make_poly([3]))


def test_roots_residuals_certified():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = from_roots(rng.uniform(-5, 5, size=8))
        rs = roots(p)
        assert max(rs.residuals) <= 1e-10 * coeff_scale(p) * 1e3  # loose sanity
        # independent oracle: numpy companion-matrix roots
        want = np.sort(np.roots(np.array(p.coeffs)[::-1]).real)
        got = np.array(sorted_real_parts(rs))
        assert np.max(np.abs(got - want)) < 1e-7


def test_roots_many_matches_roots():
    rng = np.random.default_rng(4)
    ps = [from_roots(rng.uniform(-5, 5, size=int(rng.integers(1, 9))))
          for _ in range(30)]
    # A leading coefficient of 1e-13 puts one root near -3e13 in a batch of
    # ordinary degree-8 rows.
    ps.append(make_poly([1, 2, -3, 0.5, 1, 2, 1, 3, 1e-13]))
    batched = roots_many(ps)  # arrays sorted by (real, imag), input order
    for p, zs in zip(ps, batched):
        # bit for bit: interlace and residual_sweep rely on it
        assert np.array_equal(zs, np.array(roots(p).roots))


def test_roots_many_raises_what_roots_raises_for_the_first_failure_in_input_order():
    # gn(96) fails the forward certificate.  The error is the one roots()
    # raises for it alone, its own (1, 96) iterate attached, and it is raised
    # before the zero polynomial after it is looked at.
    g = gn(96, 0.7, 1.0)
    with pytest.raises(NonConvergence) as alone:
        roots(g)
    with pytest.raises(NonConvergence) as many:
        roots_many([g, ZERO])
    got, want = many.value, alone.value
    assert (type(got), str(got)) == (type(want), str(want))
    assert got.best.shape == (1, 96)
    assert np.array_equal(got.best.view(np.uint64), want.best.view(np.uint64))
    assert np.array_equal(got.residuals.view(np.uint64), want.residuals.view(np.uint64))
    with pytest.raises(ZeroPolynomial):
        roots_many([ZERO, g])


def test_classify_real():
    assert classify_real(roots(make_poly([-1, 0, 1])), 1e-8).is_real_rooted
    assert not classify_real(roots(make_poly([1, 0, 1])), 1e-8).is_real_rooted
    # tolerance semantics on a nearly-real root
    p = from_roots([1 + 1e-12j])
    assert classify_real(roots(p), 1e-9).is_real_rooted


@pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf])
def test_realness_rejects_bad_tol(tol):
    # a negative or NaN tol used to call the real roots 0 and 3 not real
    rs = roots(from_roots([0.0, 3.0]))
    for judge in (classify_real, mesh, extremes):
        with pytest.raises(InvalidInput, match="realness tolerance"):
            judge(rs, tol)
    with pytest.raises(InvalidInput, match="realness tolerance"):
        interlace(from_roots([0.0, 3.0]), from_roots([1.0, 2.0]), tol)
    with pytest.raises(InvalidInput, match="realness tolerance"):
        pencil_hyperbolic_sample(from_roots([0.0, 3.0]), from_roots([1.0, 2.0]), tol=tol)


def test_mesh():
    assert mesh(roots(make_poly([-1, 0, 1])), 1e-8) == pytest.approx(2.0)
    # zeros of the theta=0 cubic image: {cot(pi/3), cot(2pi/3)} = +-1/sqrt(3)
    q3 = from_roots([1 / math.sqrt(3), -1 / math.sqrt(3)])
    assert mesh(roots(q3), 1e-8) == pytest.approx(2 / math.sqrt(3))


def test_mesh_double_root():
    # double roots split by ~sqrt(eps) numerically; mesh is 0 up to that blur
    p = multiply(from_roots([1.0, 1.0]), from_roots([3.0]))
    m = mesh(roots(p), 1e-5)
    assert m < 1e-4


def test_mesh_errors():
    with pytest.raises(TooFewRoots):
        mesh(roots(make_poly([-5, 1])), 1e-8)
    with pytest.raises(NotRealRooted):
        mesh(roots(make_poly([1, 0, 1])), 1e-8)


def test_extremes():
    top, bot = extremes(roots(make_poly([-1, 0, 1])), 1e-8)
    assert (top, bot) == pytest.approx((1, -1))
    top, bot = extremes(roots(make_poly([-5, 1])), 1e-8)
    assert (top, bot) == pytest.approx((5, 5))
    q4 = from_roots([1.0, 0.0, -1.0])
    assert extremes(roots(q4), 1e-8) == pytest.approx((1, -1))


def test_interlace():
    p = from_roots([-1.0, 1.0])
    q = from_roots([0.0, 2.0])
    assert interlace(p, q, 1e-8)
    r = from_roots([3.0, 4.0])
    assert not interlace(p, r, 1e-8)


def test_interlace_boundary_tie():
    # P and its translate by exactly mesh(P) interlace with ties
    p = from_roots([0.0, 1.0, 3.0])
    lam = 1.0  # mesh(P)
    assert interlace(p, shift_arg(p, lam), 1e-8)


def _interlace_reference(p, q, tol):
    # Two roots() calls, as interlace computed it before it batched the pair,
    # for real-rooted inputs whose degrees differ by at most one.
    rp, rq = roots(p), roots(q)
    a, b = sorted_real_parts(rp), sorted_real_parts(rq)
    if len(a) < len(b):
        a, b = b, a
    scale = max(max(1.0, max(abs(r) for r in rs.roots)) for rs in (rp, rq))
    slack = tol * scale

    def alternates(a, b):
        return all(a[i] <= b[i] + slack
                   and (i + 1 >= len(a) or b[i] <= a[i + 1] + slack)
                   for i in range(len(b)))

    if len(a) == len(b):
        return alternates(a, b) or alternates(b, a)
    return alternates(a, b)


def test_interlace_batched_matches_two_roots_calls():
    rng = np.random.default_rng(11)
    verdicts = {True: 0, False: 0}
    for k in range(120):
        n = int(rng.integers(2, 9))
        p = from_roots(rng.uniform(-5, 5, size=n))
        kind = k % 4
        if kind == 0:    # equal degrees, a small shift: mostly interlaces
            q = shift_arg(p, float(rng.uniform(0.0, 0.3)))
        elif kind == 1:  # equal degrees, unrelated roots
            q = from_roots(rng.uniform(-5, 5, size=n))
        elif kind == 2:  # one degree less, the derivative: interlaces
            q = derivative(p)
        else:            # one degree less, unrelated roots
            q = from_roots(rng.uniform(-5, 5, size=n - 1))
        for a, b in ((p, q), (q, p)):
            want = _interlace_reference(a, b, 1e-8)
            assert interlace(a, b, 1e-8) == want, (k, kind)
            verdicts[want] += 1
    assert min(verdicts.values()) >= 40


def test_interlace_degree_gap():
    with pytest.raises(DegreeGapTooLarge):
        interlace(from_roots([0.0, 1.0, 2.0]), from_roots([5.0]), 1e-8)


def test_pencil_sample():
    p = from_roots([-1.0, 1.0])
    q = from_roots([0.0, 2.0])
    assert pencil_hyperbolic_sample(p, q, 200, seed=0)
    r = from_roots([3.0, 4.0])
    assert not pencil_hyperbolic_sample(p, r, 200, seed=0)
    assert pencil_hyperbolic_sample(p, p, 200, seed=0)


@pytest.mark.parametrize("n_samples", [0, -3, True, 2.5])
def test_pencil_sample_rejects_bad_n_samples(n_samples):
    # with no sample the non-interlacing pair used to pass as hyperbolic
    p, q = from_roots([0.0, 3.0]), from_roots([1.0, 2.0])
    assert not pencil_hyperbolic_sample(p, q, 200, seed=0)
    with pytest.raises(InvalidInput, match="n_samples"):
        pencil_hyperbolic_sample(p, q, n_samples=n_samples)


def _pencil_reference(p, q, n_samples, seed, tol=1e-7):
    # The pencil as it was before it root-found in two stages: every sampled
    # direction of the pair in one aberth_batch call.
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n_samples)
    pa, qa = p.as_array(), q.as_array()
    rows = np.cos(phi)[:, None] * pa[None, :] + np.sin(phi)[:, None] * qa[None, :]
    full = rows[:, -1] != 0
    if full.any():
        z = aberth_batch(rows[full])
        scale = np.maximum(1.0, np.max(np.abs(z), axis=1))
        if np.any(np.max(np.abs(z.imag), axis=1) > tol * scale):
            return False
    for row in rows[~full]:
        pr = make_poly(row)
        if pr.is_zero or pr.degree == 0:
            continue
        if not classify_real(roots(pr), tol).is_real_rooted:
            return False
    return True


def _registry_pairs(trials):
    # (p, q, pencil seed) of every pair the interlacing property checks at
    # seed 42, in order: 10 per instance, half of them interlacing by design.
    prop = next(q for q in ALL_PROPERTIES if q.name == "interlace_obreschkov_agreement")
    cfg = SuiteConfig(seed=42, trials=trials)
    return [(poly_from_json(pj), poly_from_json(qj), inst["seed"] + k)
            for inst in harness._instances(prop, cfg)
            for k, (pj, qj) in enumerate(inst["pairs"])]


def test_pencil_matches_full_batch_reference():
    triples = _registry_pairs(50)
    want = [_pencil_reference(p, q, 200, seed) for p, q, seed in triples]
    assert [pencil_hyperbolic_sample(p, q, 200, seed) for p, q, seed in triples] == want
    pairs, seeds = [(p, q) for p, q, _ in triples], [seed for _, _, seed in triples]
    assert rootfind._drive(rootfind._pencil(pairs, 200, seeds, 1e-7)) == want
    assert 200 <= sum(want) <= 300  # both verdicts are well represented


@pytest.mark.parametrize("n_samples", [1, rootfind._PENCIL_FIRST,
                                       rootfind._PENCIL_FIRST + 1, 200])
def test_pencil_stage_boundary_matches_reference(n_samples):
    triples = _registry_pairs(5)
    want = [_pencil_reference(p, q, n_samples, seed) for p, q, seed in triples]
    assert [pencil_hyperbolic_sample(p, q, n_samples, seed) for p, q, seed in triples] == want
    pairs, seeds = [(p, q) for p, q, _ in triples], [seed for _, _, seed in triples]
    assert rootfind._drive(rootfind._pencil(pairs, n_samples, seeds, 1e-7)) == want


def test_pencil_root_finds_later_directions_only_for_unsettled_pairs(monkeypatch):
    batches = []
    original = rootfind._aberth_core

    def counting(c):
        batches.append(len(c))
        return original(c)

    monkeypatch.setattr(rootfind, "_aberth_core", counting)
    first = rootfind._PENCIL_FIRST
    p, q, r = from_roots([-1.0, 1.0]), from_roots([0.0, 2.0]), from_roots([3.0, 4.0])
    # P and Q for the hints, then the 10 of 16 first directions that the
    # signs leave undecided; settled in stage 1
    assert not pencil_hyperbolic_sample(p, r, 200, seed=0)
    assert batches == [2, 10]
    batches.clear()
    assert pencil_hyperbolic_sample(p, q, 200, seed=0)  # interlacing: signs decide all
    assert batches == [2]
    batches.clear()
    # complex coefficients: every direction is root-found, in two stages
    assert pencil_hyperbolic_sample(_times_i(p), _times_i(q), 200, seed=0)
    assert batches == [2, first, 200 - first]
    batches.clear()
    # one call per degree and stage; the settled pair drops out of stage 2
    cubic = (from_roots([-1.0, 0.0, 1.0]), from_roots([-0.5, 0.5, 1.5]))
    pairs = [(p, r), (_times_i(p), _times_i(q)), tuple(map(_times_i, cubic))]
    assert rootfind._drive(rootfind._pencil(pairs, 200, [0, 0, 0], 1e-7)) == \
        [False, True, True]
    assert sorted(batches[:2]) == [2, 4]
    assert sorted(batches[2:4]) == [first, 10 + first]
    assert sorted(batches[4:]) == [200 - first, 200 - first]


def _times_i(p):
    # i * p: real-rooted when p is, with complex coefficients
    return make_poly(1j * p.as_array())


def test_pencil_needs_one_seed_per_pair():
    # a pair without a seed used to go unsampled and come back a vacuous True
    p, r = from_roots([-1.0, 1.0]), from_roots([3.0, 4.0])
    assert rootfind._drive(rootfind._pencil([(p, r), (p, r)], 200, [0, 1], 1e-7)) == \
        [False, False]
    for seeds in ([0], [0, 1, 2], []):
        with pytest.raises(InvalidInput, match="one seed per pair"):
            rootfind._drive(rootfind._pencil([(p, r), (p, r)], 200, seeds, 1e-7))


def _rows_per_width(arrays):
    totals = {}
    for c in arrays:
        totals[c.shape[1]] = totals.get(c.shape[1], 0) + len(c)
    return totals


def test_pencil_generator_yields_one_array_per_pair_and_stage():
    # The requests of the pencil, answered with roots and aberth_batch: P and
    # Q of every pair, then stage 1 with the first directions of every pair
    # that the signs leave undecided, then stage 2 only with the pairs stage
    # 1 left unsettled; in each stage one array per pair, pairs in order,
    # which the driver groups by width.  The complex pairs bypass the signs.
    first = rootfind._PENCIL_FIRST
    p, q, r = from_roots([-1.0, 1.0]), from_roots([0.0, 2.0]), from_roots([3.0, 4.0])
    cubic = (_times_i(from_roots([-1.0, 0.0, 1.0])), _times_i(from_roots([-0.5, 0.5, 1.5])))
    pairs = [(p, r), cubic, (_times_i(p), _times_i(q))]
    stages = rootfind._pencil(pairs, 200, [0, 1, 2], 1e-7)
    polys = next(stages)
    assert polys == [x for pair in pairs for x in pair]
    arrays = stages.send([roots(x) for x in polys])
    assert [c.shape for c in arrays] == [(10, 3), (first, 4), (first, 3)]
    assert _rows_per_width(arrays) == {3: 10 + first, 4: first}
    arrays = stages.send([aberth_batch(c) for c in arrays])
    assert [c.shape for c in arrays] == [(200 - first, 4), (200 - first, 3)]
    assert _rows_per_width(arrays) == {4: 200 - first, 3: 200 - first}
    with pytest.raises(StopIteration) as stop:
        stages.send([aberth_batch(c) for c in arrays])
    assert stop.value.value == [False, True, True]
    assert rootfind._drive(rootfind._pencil(pairs, 200, [0, 1, 2], 1e-7)) == \
        [False, True, True]


def test_pencil_judges_engine_rows_by_the_rule_of_classify_real():
    # numpy's vectorised complex abs can differ from the scalar abs in the
    # last bit, so a threshold tol * max(1, max |z|) taken with np.abs sits
    # one ulp from classify_real's.  An engine row with such a root, at a
    # tol where the two thresholds fall on either side of max |Im z|, gets
    # classify_real's verdict from the pencil.
    rng = np.random.default_rng(0)
    for w in rng.normal(size=(1000, 2)) @ np.array([1.0, 1j]):
        row = np.array([w, 0j])
        tol = abs(w.imag) / max(1.0, abs(w))
        scalar = tol * max(1.0, abs(w))
        vectorised = tol * np.maximum(1.0, np.max(np.abs(row)))
        if vectorised < abs(w.imag) <= scalar:
            break
    else:
        raise AssertionError("no row with differing abs found")
    want = classify_real(rootfind.RootSet(tuple(row), (0.0, 0.0)), tol).is_real_rooted
    assert want
    # complex coefficients: the one direction goes to the engine, whose
    # answer is replaced by the row
    pair = (_times_i(from_roots([-1.0, 1.0])), _times_i(from_roots([0.0, 2.0])))
    stages = rootfind._pencil([pair], 1, [0], tol, [roots(x) for x in pair])
    arrays = next(stages)
    assert [c.shape for c in arrays] == [(1, 3)]
    with pytest.raises(StopIteration) as stop:
        stages.send([row[None, :]])
    assert stop.value.value == [want]


def test_pencil_cancelled_direction_matches_reference():
    # P and Q scaled so that the first sampled direction cancels the leading
    # coefficient exactly, leaving P0 - Q0 = s*c*(x^2 + 1), which is not
    # real-rooted; alone (n_samples = 1) it decides the verdict.
    phi = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 1)[0]
    s, c = math.sin(phi), math.cos(phi)
    p0, q0 = [0.0, 2.0, -3.0, 1.0], [-1.0, 2.0, -4.0, 1.0]
    p, q = make_poly([s * a for a in p0]), make_poly([-c * a for a in q0])
    for n_samples in (1, 200):
        want = _pencil_reference(p, q, n_samples, 0)
        assert pencil_hyperbolic_sample(p, q, n_samples, seed=0) is want
    assert _pencil_reference(p, q, 1, 0) is False


def _registry_sign_rows(trials):
    # Every direction of every registry pair (the pencil's 200 per pair) with
    # the pair's roots as hints, grouped by width: {width: (rows, hints)},
    # one hint row per pair, as the pencil passes them.
    triples = _registry_pairs(trials)
    found = roots_many([x for p, q, _ in triples for x in (p, q)])
    groups = {}
    for (p, q, seed), zp, zq in zip(triples, found[0::2], found[1::2]):
        phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 200)
        rows = (np.cos(phi)[:, None] * p.as_array().real
                + np.sin(phi)[:, None] * q.as_array().real)
        hints = np.concatenate([zp, zq]).real[None, :]
        groups.setdefault(p.degree + 1, []).append((rows, hints))
    return {w: tuple(map(np.concatenate, zip(*g))) for w, g in groups.items()}


def _real_by_signs_reference(c, hints):
    # The sign certificate as it was before it sorted each hint row once:
    # hints (B, k), one row per row of c, sorted together with the two
    # Cauchy points, and every row's changes counted through the last
    # trusted sign before each point.
    n = c.shape[1] - 1
    with np.errstate(all="ignore"):
        cauchy = 2.0 * (1.0 + np.max(np.abs(c[:, :-1]), axis=1) / np.abs(c[:, -1]))
        x = np.sort(np.concatenate([hints, -cauchy[:, None], cauchy[:, None]], axis=1),
                    axis=1)
        ax = np.abs(x)
        f = rootfind._horner_rows(c, x)
        gamma = n * rootfind._EPS / (1.0 - n * rootfind._EPS)
        bound = (1.01 * gamma * rootfind._horner_rows(np.abs(c), ax)
                 + (n + 1) * rootfind._TINY * np.maximum(1.0, ax) ** n)
        trusted = np.isfinite(f) & np.isfinite(bound) & (np.abs(f) > bound)
    sign = np.where(trusted, np.sign(f), 0.0)
    last = np.maximum.accumulate(np.where(trusted, np.arange(x.shape[1]), 0), axis=1)
    held = np.take_along_axis(sign, last, axis=1)
    return np.sum(held[:, 1:] * held[:, :-1] < 0, axis=1) == n


def _assert_signs_match_reference(c, hints):
    # the verdicts row by row, hints given one row per block of rows
    got = rootfind._real_by_signs(c, hints)
    want = _real_by_signs_reference(c, np.repeat(hints, len(c) // len(hints), axis=0))
    assert np.array_equal(got, want)
    return got


def test_sign_verdicts_match_the_sort_everything_reference():
    certified = 0
    for rows, hints in _registry_sign_rows(20).values():
        certified += _assert_signs_match_reference(rows, hints).sum()
        # a row's own hints, unsorted
        shuffled = np.random.default_rng(len(rows)).permuted(hints, axis=1)
        _assert_signs_match_reference(rows, np.repeat(shuffled, 200, axis=0))
    assert certified > 20_000  # of 40,000 directions


def test_sign_verdicts_match_the_reference_on_adversarial_rows():
    real = from_roots([1.0, 2.0, 3.0, 3.5]).as_array().real[None, :]
    cauchy = 2.0 * (1.0 + np.max(np.abs(real[0, :-1])) / abs(real[0, -1]))
    hints = np.array([[0.0, 1.5, 2.5, 3.2]])
    # hints beyond +-2 Cauchy, on either side and both, and unsorted
    for extra in ([2 * cauchy], [-3 * cauchy], [-cauchy - 1, 5 * cauchy, cauchy + 1],
                  [cauchy, -cauchy, np.inf, -np.inf]):
        wide = np.concatenate([hints, [extra]], axis=1)
        assert _assert_signs_match_reference(real, wide)[0]
        assert _assert_signs_match_reference(real, wide[:, ::-1])[0]
    # a NaN hint is never trusted, and the other hints still decide
    for nan_at in range(5):
        assert _assert_signs_match_reference(real, np.insert(hints, nan_at, np.nan, axis=1))[0]
    # the rounding-noise row (d = 3e-8, see below) at hints that would count
    # its noise, the overflow row, and a non-real row whose unsorted hints
    # would change sign n times
    noisy = from_roots([1.0, 2.0, 3 + 3e-8j, 3 - 3e-8j]).as_array().real[None, :]
    xs = 3.0 + np.arange(-300, 301) * 1e-9
    f = rootfind._horner_rows(np.repeat(noisy, len(xs), axis=0), xs[:, None])[:, 0]
    assert not _assert_signs_match_reference(noisy, np.array([[0.0, 1.5, 2.5,
                                                                xs[f < 0][0]]]))[0]
    overflow = np.array([[-1.0, 0.0, 1.0, 1e-200]])
    assert not _assert_signs_match_reference(overflow, np.array([[-2.0, 0.0, 2.0]]))[0]
    one_real = from_roots([1.0, 1j, -1j]).as_array().real[None, :]
    assert not _assert_signs_match_reference(one_real, np.array([[2.0, 0.0, 2.0]]))[0]
    # (at -+2 Cauchy = -+4 and those hints unsorted, its signs change n times)
    f = rootfind._horner_rows(one_real, np.array([[-4.0, 2.0, 0.0, 2.0, 4.0]]))[0]
    assert np.sum(f[1:] * f[:-1] < 0) == 3
    # random rows, zero leading coefficients included, in blocks of 50
    # sharing hint rows with points far out, NaN and unsorted
    rng = np.random.default_rng(26)
    for n in range(1, 9):
        c = rng.normal(size=(400, n + 1))
        c[::37, -1] = 0.0
        hints = rng.normal(scale=3.0, size=(8, 2 * n))
        hints[1, 0] = np.nan
        hints[2, :2] = [1e6, -1e6]
        _assert_signs_match_reference(c, hints)
    c = from_roots([-2.0, -0.5, 1.0, 3.0]).as_array().real
    rows = c[None, :] * rng.uniform(0.5, 2.0, size=(100, 1)) + rng.normal(scale=1e-3,
                                                                          size=(100, 5))
    assert _assert_signs_match_reference(rows, np.array([[3.5, -1.0, 0.0, 2.0, 1e9]])).all()


def test_sign_certified_rows_are_real_for_the_engine_and_mpmath():
    # Oracles for _real_by_signs on the interlacing property's 500 pairs at
    # seed 42: the engine certifies every sign-certified row real (so none
    # is one it certifies non-real), and mpmath at 50 digits finds only real
    # roots in a sample of 50 of them.
    certified = []
    for rows, hints in _registry_sign_rows(50).values():
        rows = rows[rootfind._real_by_signs(rows, hints)]
        got = _aberth_core(rows)
        scale = np.maximum(1.0, np.max(np.abs(got.z), axis=1))
        assert not any(got.failed)
        assert np.all(np.max(np.abs(got.z.imag), axis=1) <= 1e-7 * scale)
        certified.extend(rows)
    assert len(certified) > 60_000  # of 100,000 directions
    with mpmath.workdps(50):
        for row in certified[:: len(certified) // 50][:50]:
            zs = mpmath.polyroots([mpmath.mpf(a) for a in row[::-1]], maxsteps=100,
                                  extraprec=100)
            assert len(zs) == len(row) - 1
            assert all(abs(mpmath.im(z)) <= mpmath.mpf(10) ** -30 * max(1, abs(z))
                       for z in zs)


def test_sign_certificate_distrusts_rounding_noise():
    # (x - 1)(x - 2)((x - 3)^2 + d^2) with d = 3e-8 keeps its non-real pair
    # in double precision (mpmath: |Im| = 4.2e-8), but Horner's rule gives
    # noise for its sign just left of 3.  At a hint where that noise is
    # negative, signs taken at face value change 4 times and would call the
    # row real; the bound must leave that sign untrusted.
    c = from_roots([1.0, 2.0, 3 + 3e-8j, 3 - 3e-8j]).as_array().real[None, :]
    with mpmath.workdps(50):
        zs = mpmath.polyroots([mpmath.mpf(a) for a in c[0, ::-1]], maxsteps=100,
                              extraprec=100)
    assert max(abs(mpmath.im(z)) for z in zs) > 1e-8
    xs = 3.0 + np.arange(-300, 301) * 1e-9
    f = rootfind._horner_rows(np.repeat(c, len(xs), axis=0), xs[:, None])[:, 0]
    noise = xs[f < 0][0]
    assert not rootfind._real_by_signs(c, np.array([[0.0, 1.5, 2.5, noise]]))[0]
    # the same row with hints that do separate its real roots is still not
    # certified: two sign changes for degree 4
    assert not rootfind._real_by_signs(c, np.array([[0.0, 1.5, 2.5, 3.0]]))[0]
    # and a real-rooted row is, from separating hints
    real = from_roots([1.0, 2.0, 3.0, 3.5]).as_array().real[None, :]
    assert rootfind._real_by_signs(real, np.array([[0.0, 1.5, 2.5, 3.2]]))[0]


def test_sign_certificate_never_trusts_overflow():
    # 1e-200 x^3 + x^2 - 1 has roots near -1, 1 and -1e200: the third is
    # separated only by the point -2 * Cauchy bound, where Horner's rule
    # overflows, so the row stays undecided although it is real-rooted.
    c = np.array([[-1.0, 0.0, 1.0, 1e-200]])
    hints = np.array([[-2.0, 0.0, 2.0]])
    cauchy = 2.0 * (1.0 + 1e200)
    with np.errstate(all="ignore"):
        f = rootfind._horner_rows(c, np.array([[-cauchy, cauchy]]))
    assert not np.isfinite(f).any()
    assert not rootfind._real_by_signs(c, hints)[0]
    # without the tiny leading term the same hints decide the quadratic
    assert rootfind._real_by_signs(c[:, :3], hints)[0]


def test_pencil_complex_pairs_bypass_the_signs(monkeypatch):
    seen = []
    original = rootfind._real_by_signs

    def recording(c, hints):
        seen.append(len(c))
        return original(c, hints)

    monkeypatch.setattr(rootfind, "_real_by_signs", recording)
    p, q = from_roots([-1.0, 1.0]), from_roots([0.0, 2.0])
    assert pencil_hyperbolic_sample(_times_i(p), _times_i(q), 200, seed=0)
    assert pencil_hyperbolic_sample(make_poly(p.as_array() + 1e-3j), q, 50, seed=0) is \
        _pencil_reference(make_poly(p.as_array() + 1e-3j), q, 50, 0)
    assert seen == []
    assert pencil_hyperbolic_sample(p, q, 200, seed=0)
    assert seen == [200]


def test_pencil_without_hints_root_finds_every_real_direction():
    # If P or Q cannot be root-found, the pair goes without hints and every
    # direction to the engine, as the pencil did before it had signs.
    first = rootfind._PENCIL_FIRST
    p, q = from_roots([-1.0, 1.0]), from_roots([0.0, 2.0])
    stages = rootfind._pencil([(p, q)], 200, [0], 1e-7)
    next(stages)
    arrays = stages.throw(NonConvergence("no roots for P"))
    assert [c.shape for c in arrays] == [(first, 3)]
    arrays = stages.send([aberth_batch(c) for c in arrays])
    assert [c.shape for c in arrays] == [(200 - first, 3)]
    with pytest.raises(StopIteration) as stop:
        stages.send([aberth_batch(c) for c in arrays])
    assert stop.value.value == [True]


def _p_plus_iq_imag(p, q):
    # Im of each zero of P + iQ over max(1, max |zero|), the zeros from
    # numpy's companion matrix: no fdzeros root code is involved.
    a, b = p.as_array(), q.as_array()
    assert not a.imag.any() and not b.imag.any()
    n = max(len(a), len(b))
    c = np.pad(a.real, (0, n - len(a))) + 1j * np.pad(b.real, (0, n - len(b)))
    z = np.roots(c[::-1])
    return z.imag / max(1.0, float(np.max(np.abs(z))))


def _one_open_half_plane(im, tol=1e-7):
    return bool(np.all(im > tol) or np.all(im < -tol))


def test_interlace_matches_hermite_biehler():
    # Hermite-Biehler: real P, Q with degrees equal or one apart have
    # strictly interlacing real zeros iff every zero of P + iQ lies in one
    # open half-plane.  The registry's pairs interlace strictly or not at all.
    triples = _registry_pairs(50)
    verdicts = [interlace(p, q, 1e-8) for p, q, _ in triples]
    assert [_one_open_half_plane(_p_plus_iq_imag(p, q)) for p, q, _ in triples] == verdicts
    assert 200 <= sum(verdicts) <= 300
    # degrees one apart, both ways round
    p3 = from_roots([-2.0, 0.5, 3.0])
    for q2, want in ((from_roots([-1.0, 1.0]), True), (from_roots([1.0, 2.0]), False)):
        for a, b in ((p3, q2), (q2, p3)):
            assert interlace(a, b, 1e-8) is want
            assert _one_open_half_plane(_p_plus_iq_imag(a, b)) is want
    # a common zero: the interlacing is not strict, so P + iQ has that real
    # zero, yet non-strict interlace holds; the other zeros keep to one side
    p, q = from_roots([0.0, 2.0, 4.0]), from_roots([0.0, 1.0, 3.0])
    assert interlace(p, q, 1e-8)
    im = _p_plus_iq_imag(p, q)
    real = np.argmin(np.abs(im))
    assert abs(im[real]) <= 1e-7
    assert _one_open_half_plane(np.delete(im, real))


def test_rootset_json():
    d = rootset_to_json(roots(make_poly([-1, 0, 1])))
    assert set(d) == {"roots", "residuals"}
    assert len(d["roots"]) == 2 and len(d["residuals"]) == 2


def test_root_count_matches_degree():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 13))
        p = make_poly(rng.uniform(-1, 1, size=n).tolist() + [1.0])
        assert len(roots(p).roots) == n


def test_high_degree_nonconvergence_is_typed_and_silent():
    # The error bound overflows at this degree; the answer must be a typed
    # error, not NaN roots, and numpy's floating-point warnings stay inside.
    p = from_roots(np.sort(np.random.default_rng(128).uniform(-5, 5, 128)))
    image = apply_tb(DeBruijnOp(0.7, 1.0), p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergence):
            roots(image)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Oracles for the forward certificate: closed forms, de Bruijn's phase
# equation and mpmath, never the engine itself.

def _cotangent_zeros(n, theta, h):
    return np.sort(h / np.tan((np.pi * np.arange(1, n + 1) - theta) / n))


def _phase_zeros(r, theta, h):
    # Zeros of T_{theta,h}(P) for P with real roots r, 0 < theta < pi: the n
    # solutions of theta + sum_k arccot((x - r_k)/h) = pi k, by bisection
    # inside [min r, max r] + h cot((pi k - theta)/n).
    r = np.sort(r)
    n = len(r)
    t = np.pi * np.arange(1, n + 1) - theta
    lo, hi = r[0] + h / np.tan(t / n), r[-1] + h / np.tan(t / n)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = np.arctan2(h, mid[:, None] - r[None, :]).sum(axis=1) > t
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.sort(0.5 * (lo + hi))


def _rel_err(z, want):
    return np.max(np.abs(np.sort(np.real(z)) - want) / np.maximum(1.0, np.abs(want)))


def test_forward_certificate_rejects_ill_conditioned_roots():
    # The companion eigenvalues of gn(96) pass the residual certificate, but
    # are forward-wrong; only the forward certificate can catch them.
    with pytest.raises(NonConvergence, match="forward certificate"):
        roots(gn(96, 0.7, 1.0))


@pytest.mark.parametrize("n", [84, 88, 96])
def test_failing_iterate_lies_near_the_cotangent_zeros(n):
    # gn(84) and gn(96) are ruled out on the forward certificate's rounding
    # floor and carry the loop's unpolished iterate, gn(88) fails the final
    # certificate after the polish; each best iterate sits within 1e-3
    # relative of the closed-form zeros h cot((pi k - theta)/n)
    with pytest.raises(NonConvergence, match="forward certificate") as exc:
        roots(gn(n, 0.7, 1.0))
    assert exc.value.best.shape == (1, n)
    assert _rel_err(exc.value.best[0], _cotangent_zeros(n, 0.7, 1.0)) < 1e-3


def test_stalled_batch_takes_no_extra_residual_pass(monkeypatch):
    # gn(96) is ruled out on the forward floor in the first iteration: one
    # residual check in the loop, and the row is reported from it, with no
    # polish and no second residual pass
    calls = []
    original = rootfind._residual_ok

    def counted(*args):
        calls.append(args)
        return original(*args)

    def forbidden(*args):
        raise AssertionError("_polish called")

    monkeypatch.setattr(rootfind, "_residual_ok", counted)
    monkeypatch.setattr(rootfind, "_polish", forbidden)
    with pytest.raises(NonConvergence, match="forward certificate"):
        roots(gn(96, 0.7, 1.0))
    assert len(calls) == 1


def test_certificate_reuses_the_polish_derivative(monkeypatch):
    # The polish stops once a step leaves every root unchanged, so the
    # derivative it just evaluated is the one at the returned roots: the
    # forward certificate takes it instead of evaluating it a second time.
    p = from_roots([-2.0, -0.5, 1.0, 3.0, 4.5])
    points = []  # the points of every evaluation of the derivative
    original = rootfind._horner_rows

    def counted(c, z):
        if c.shape[1] == z.shape[1] and c.dtype == complex:
            points.append(z.copy())
        return original(c, z)

    monkeypatch.setattr(rootfind, "_horner_rows", counted)
    rs = roots(p)
    assert len(points) >= 2
    for before, after in zip(points, points[1:]):
        assert not np.array_equal(_bits(before), _bits(after))
    monkeypatch.undo()
    assert roots(p) == rs


def test_simple_roots_take_no_cluster_estimate(monkeypatch):
    # every root passes the forward certificate as a simple root, so the
    # cluster estimate is never started
    def forbidden(*args):
        raise AssertionError("_cluster_bound called")

    monkeypatch.setattr(rootfind, "_cluster_bound", forbidden)
    for p in (from_roots([-2.0, -0.5, 1.0, 3.0, 4.5]), make_poly([1, 0, 1]),
              make_poly([2, 1])):
        roots(p)
    roots_many([_degree_24(s) for s in (0, 1)])


def _cluster_bound_ref(a, absa, z, rows, cols, settled):
    # the cluster estimate with separate Horner loops for p^(m)(c)/m!, p(c)
    # and sum_k |a_k| |c|^k: the reference for rootfind._cluster_bound
    n = z.shape[1]
    top = min(rootfind._CLUSTER_MAX, n)
    if top < 2 or rows.size == 0:
        return np.full(rows.size, np.inf)
    zr = z[rows]
    near = np.argsort(np.abs(zr - z[rows, cols][:, None]), axis=1)[:, :top]
    zs = np.take_along_axis(zr, near, axis=1)
    m = np.arange(2, top + 1)
    c = np.cumsum(zs, axis=1)[:, 1:] / m
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
    eta = n * rootfind._EPS * err
    if settled:
        eta = np.maximum(eta, np.abs(pc))
    bound = (eta / np.abs(taylor)) ** (1.0 / m)
    if settled:
        member = np.arange(top)[None, :] < m[:, None]
        dist = np.abs(zs[:, None, :] - c[:, :, None])
        bound = np.maximum(bound, np.max(np.where(member, dist, 0.0), axis=2))
    bound = bound / np.maximum(1.0, absc)
    return np.min(np.where(np.isnan(bound), np.inf, bound), axis=1)


def _forward_ok_ref(a, absa, z, err, dp, rows, p):
    # the forward certificate with the cluster estimate of every root that
    # fails as a simple root: the reference for rootfind._forward_ok.  On
    # those roots rootfind._cluster_bound must equal _cluster_bound_ref bit
    # for bit.
    eta = z.shape[1] * rootfind._EPS * err
    if p is not None:
        eta = np.maximum(eta, np.abs(p))
    bound = eta / (np.abs(dp) * np.maximum(1.0, np.abs(z)))
    bad = ~(bound <= rootfind.FWD_TOL) & rows[:, None]
    r, i = np.nonzero(bad)
    cluster = _cluster_bound_ref(a, absa, z, r, i, p is not None)
    assert np.array_equal(rootfind._cluster_bound(a, absa, z, r, i, p is not None)
                          .view(np.uint64), cluster.view(np.uint64))
    bound[r, i] = np.fmin(bound[r, i], cluster)
    return rows & np.all(bound <= rootfind.FWD_TOL, axis=1)


def _certificate_batches():
    # same-degree batches: clustered, failing high-degree, random
    # real-rooted, and non-finite rows
    squares = [multiply(p, p) for p in
               (from_roots(np.random.default_rng([s, 6]).uniform(-3, 3, 6))
                for s in range(4))]
    yield [from_roots([1.0, 1.0, 1.0, 1.0, 3.0]), from_roots([2.0, -1.0, 0.5, 4.0, 1.5])]
    yield squares
    for n in (96, 120, 144, 168, 200):
        yield [gn(n, 0.7, 1.0)]
    for n in (24, 32, 40):
        yield [from_roots(np.random.default_rng([k, n]).uniform(-5, 5, n))
               for k in range(6)]
    nan, inf = squares[0].as_array().copy(), squares[1].as_array().copy()
    nan[4], inf[7] = np.nan, np.inf
    yield [squares[2], make_poly(nan), make_poly(inf)]


def test_staged_forward_certificate_matches_full_evaluation():
    seen = set()
    for ps in _certificate_batches():
        c = np.array([p.as_array() for p in ps])
        n = c.shape[1] - 1
        with np.errstate(all="ignore"):
            a = c / c[:, -1:]
            absa = np.abs(a)
            dcoef = a[:, 1:] * np.arange(1, n + 1)
            z = _aberth_core(c).z
            ok, p, err = rootfind._residual_ok(a, absa, z, rootfind.TOL)
            dp = rootfind._horner_rows(dcoef, z)
            every = np.ones(len(ps), dtype=bool)
            # the rounding floor alone, as in the iteration, and the final
            # certificate, on every row and on the rows whose residual passed
            for rows, pz in ((every, None), (every, p), (ok.all(axis=1), p)):
                got = rootfind._forward_ok(a, absa, z, err, dp, rows, pz)
                want = _forward_ok_ref(a, absa, z, err, dp, rows, pz)
                assert np.array_equal(got, want)
                seen.update(zip(rows.tolist(), want.tolist()))
    assert seen == {(True, True), (True, False), (False, False)}


def test_failing_row_takes_one_cluster_estimate(monkeypatch):
    # gn(96) has 37 roots that fail as simple roots; the first one whose
    # cluster estimate fails decides the row in the loop's rounding-floor
    # check, and the ruled-out row takes no final certificate
    sizes = []
    original = rootfind._cluster_bound

    def counted(a, absa, z, rows, cols, settled):
        sizes.append(rows.size)
        return original(a, absa, z, rows, cols, settled)

    monkeypatch.setattr(rootfind, "_cluster_bound", counted)
    with pytest.raises(NonConvergence, match="forward certificate"):
        roots(gn(96, 0.7, 1.0))
    assert sizes == [1]


def test_near_real_rows_start_from_real_eigenvalues(monkeypatch):
    # A preserver image of a real-rooted polynomial is real in exact
    # arithmetic; its stored coefficients carry rounding-level imaginary
    # parts.  It starts from the real companion matrix, a genuinely complex
    # row from the complex one, and the near-real row's roots are certified
    # on its stored complex coefficients.
    rng = np.random.default_rng(0)
    image = apply_op(harness.random_preserver(2, rng), from_roots(rng.uniform(-5, 5, 12)))
    assert np.any(image.as_array().imag)
    complex_row = make_poly(rng.normal(size=13) + 1j * rng.normal(size=13))
    dtypes = []
    original = np.linalg.eigvals

    def recorded(m):
        dtypes.append(m.dtype)
        return original(m)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    for p, want in ((image, np.float64), (complex_row, np.complex128)):
        dtypes.clear()
        c = p.as_array()[None, :]
        z = aberth_batch(c)
        assert dtypes == [want]
        a = c / c[:, -1:]
        ok, _, _ = rootfind._residual_ok(a, np.abs(a), z, rootfind.TOL)
        assert ok.all()


@pytest.mark.parametrize("n, want", [(20, 194), (24, 181), (32, 108), (40, 26), (48, 3)])
def test_random_real_rooted_draws_certify_as_recorded(n, want):
    # the degree-ceiling figures: how many of 200 consecutive draws of roots
    # in [-5, 5] certify at degree n
    rng = np.random.default_rng(n)
    out = rootfind._certified_many([from_roots(rng.uniform(-5, 5, n)) for _ in range(200)])
    assert sum(error is None for _, error in out) == want


def _same_error(got, p):
    # got is what roots(p) raises: the same type, message, best and residuals
    with pytest.raises(type(got)) as alone:
        roots(p)
    assert str(got) == str(alone.value)
    if isinstance(got, NonConvergence):
        assert got.best.shape == alone.value.best.shape == (1, p.degree)
        assert np.array_equal(_bits(got.best), _bits(alone.value.best))
        assert np.array_equal(got.residuals.view(np.uint64),
                              alone.value.residuals.view(np.uint64))


def test_certified_many_gives_each_polynomial_what_roots_gives_alone():
    cubic = from_roots([-1.0, 0.5, 2.0])
    ps = [ZERO, make_poly([3.0]), gn(96, 0.7, 1.0), gn(200, 0.7, 1.0), cubic,
          from_roots([0.25, 1.5, 3.0])]
    out = rootfind._certified_many(ps)
    assert [type(error) for _, error in out] == [ZeroPolynomial, ConstantPolynomial,
                                                 NonConvergence, NonConvergence,
                                                 type(None), type(None)]
    assert out[0][0] is None and out[1][0] is None
    for p, (z, error) in zip(ps[:4], out[:4]):
        _same_error(error, p)
    assert "forward" in str(out[2][1]) and "residual" in str(out[3][1])
    for p, (z, _) in zip(ps[4:], out[4:]):
        assert np.array_equal(_bits(z), _bits(aberth_batch(p.as_array()[None, :])[0]))
        assert rootfind._rootset(p, z) == roots(p)


def test_gn_72_matches_cotangent_closed_form():
    z = np.array(roots(gn(72, 0.7, 1.0)).roots)
    assert np.max(np.abs(z.imag)) < 1e-7
    assert _rel_err(z, _cotangent_zeros(72, 0.7, 1.0)) < 1e-7


def test_ill_conditioned_image_raises_or_matches_phase_equation():
    r = np.sort(np.random.default_rng(64).uniform(-5, 5, 64))
    image = apply_tb(DeBruijnOp(0.7, 1.0), from_roots(r))
    try:
        z = np.array(roots(image).roots)
    except NonConvergence:
        return
    assert np.max(np.abs(z.imag) / np.maximum(1.0, np.abs(z))) < 1e-6
    assert _rel_err(z, _phase_zeros(r, 0.7, 1.0)) < 1e-6


@pytest.mark.parametrize("exact", [[1.0, 1.0], [2.0, 2.0, 2.0, 2.0, -1.0], [0.0] * 5],
                         ids=["(x-1)^2", "(x-2)^4(x+1)", "x^5"])
def test_exact_multiple_roots_certify(exact):
    z = np.sort_complex(np.array(roots(from_roots(exact)).roots))
    want = np.sort(exact)
    # an m-fold root is attainable to about eps^(1/m): 1e-4 for m = 4
    assert np.max(np.abs(z - want) / np.maximum(1.0, np.abs(want))) < 1e-3


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is plain double here, so the Newton "
                           "polish has no extra precision")
def test_extended_polish_reaches_exact_roots_of_product():
    # roots_product_multiset at seed 42, instance 14: a degree-16 product
    # whose exact roots (mpmath, on its floating-point coefficients) lie
    # 4.8e-10 from the union of the factor roots.
    prop = next(q for q in ALL_PROPERTIES if q.name == "roots_product_multiset")
    cfg = SuiteConfig(seed=42, trials=20)
    inst = harness._instances(prop, cfg)[14]
    p = multiply(poly_from_json(inst["p"]), poly_from_json(inst["q"]))
    with mpmath.workdps(60):
        exact = mpmath.polyroots([mpmath.mpc(c) for c in reversed(p.coeffs)],
                                 maxsteps=400, extraprec=400)
        exact = np.sort_complex(np.array([complex(x) for x in exact]))
    got = np.sort_complex(np.array(roots(p).roots))
    assert np.max(np.abs(got - exact)) < 1e-9


# Per-row outcomes of the engine core.  Degree-24 real-rooted inputs with
# roots in [-5, 5]: seeds 0-3 certify, seed 6 has two roots too close for the
# forward certificate.

def _degree_24(seed):
    return from_roots(np.random.default_rng([seed, 24]).uniform(-5, 5, 24))


def _by_real_imag(z):
    return z[np.lexsort((z.imag, z.real))]


def _bits(z):
    return np.asarray(z, dtype=complex).view(np.uint64)


def _mixed_batch():
    good = [_degree_24(s) for s in (0, 1, 2, 3)]
    # an infinite coefficient starts the row at NaN: it fails the residual one
    broken = good[0].as_array().copy()
    broken[5] = np.inf
    rows = [good[0].as_array(), _degree_24(6).as_array(), good[1].as_array(),
            broken, good[2].as_array(), good[3].as_array()]
    return np.array(rows), good


def test_aberth_core_certifies_row_by_row():
    c, good = _mixed_batch()
    out = _aberth_core(c)
    assert out.failed == (None, "forward", None, "residual", None, None)
    for row, p in zip((0, 2, 4, 5), good):
        assert np.array_equal(_bits(_by_real_imag(out.z[row])), _bits(roots(p).roots))
    # a failed row's best iterate is the one it has alone
    with pytest.raises(NonConvergence, match="forward certificate") as alone:
        roots(_degree_24(6))
    assert np.array_equal(_bits(out.z[1]), _bits(alone.value.best[0]))
    # aberth_batch raises for the whole batch, naming the residual
    # certificate before the forward one, with the batch's iterate attached
    with pytest.raises(NonConvergence) as exc:
        aberth_batch(c)
    assert str(exc.value) == ("companion-eigenvalue roots of degree 24 "
                              "failed the residual certificate")
    assert np.array_equal(_bits(exc.value.best), _bits(out.z))
    assert np.array_equal(exc.value.residuals.view(np.uint64), out.residuals.view(np.uint64))
    with pytest.raises(NonConvergence) as exc:
        aberth_batch(np.delete(c, 3, axis=0))
    assert str(exc.value) == ("companion-eigenvalue roots of degree 24 "
                              "failed the forward certificate")
    assert np.array_equal(_bits(exc.value.best), _bits(np.delete(out.z, 3, axis=0)))


def test_aberth_core_retries_failed_eigenvalue_stack_row_by_row(monkeypatch):
    c, _ = _mixed_batch()
    c = np.delete(c, (1, 3), axis=0)  # four rows that certify
    want = _aberth_core(c)
    original = np.linalg.eigvals
    calls = []

    def flaky(m):
        # the stack fails, and so does the matrix of the third row alone
        calls.append(m.ndim)
        if m.ndim == 3 or np.array_equal(m[0], -c[2, -2::-1].real):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(m)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    out = _aberth_core(c)
    assert calls == [3, 2, 2, 2, 2]
    # the row that fails again stays at NaN and fails the residual certificate
    assert out.failed == (None, None, "residual", None)
    assert np.isnan(out.z[2]).all()
    for row in (0, 1, 3):
        assert np.array_equal(_bits(out.z[row]), _bits(want.z[row]))
    with pytest.raises(NonConvergence, match="^companion-eigenvalue roots of degree 24 "
                                             "failed the residual certificate$"):
        aberth_batch(c)
