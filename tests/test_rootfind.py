import math
import warnings

import numpy as np
import pytest

from fdzeros import (
    ConstantPolynomial,
    DeBruijnOp,
    DegreeGapTooLarge,
    NonConvergence,
    NotRealRooted,
    TooFewRoots,
    ZeroPolynomial,
    apply_tb,
    classify_real,
    extremes,
    from_roots,
    interlace,
    make_poly,
    mesh,
    multiply,
    pencil_hyperbolic_sample,
    roots,
    roots_many,
    rootset_to_json,
    shift_arg,
    sorted_real_parts,
)


def test_roots_basic():
    rs = roots(make_poly([-1, 0, 1]))
    assert sorted(r.real for r in rs.roots) == pytest.approx([-1, 1])
    rs = roots(make_poly([1, 0, 1]))
    assert sorted(r.imag for r in rs.roots) == pytest.approx([-1, 1])


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
        assert max(rs.residuals) <= 1e-10 * rs.scale * 1e3  # loose sanity
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
        solo = roots(p).roots
        assert max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(zs, solo)) < 1e-14


def test_classify_real():
    assert classify_real(roots(make_poly([-1, 0, 1])), 1e-8).is_real_rooted
    assert not classify_real(roots(make_poly([1, 0, 1])), 1e-8).is_real_rooted
    # tolerance semantics on a nearly-real root
    p = from_roots([1 + 1e-12j])
    assert classify_real(roots(p), 1e-9).is_real_rooted


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
