import math
import warnings

import mpmath
import numpy as np
import pytest

from fdzeros import (
    ALL_PROPERTIES,
    ConstantPolynomial,
    DeBruijnOp,
    DegreeGapTooLarge,
    NonConvergence,
    NotRealRooted,
    SuiteConfig,
    TooFewRoots,
    ZeroPolynomial,
    apply_tb,
    classify_real,
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
    inst = prop.generate(cfg, np.random.default_rng([cfg.seed, prop.stream]))[14]
    p = multiply(poly_from_json(inst["p"]), poly_from_json(inst["q"]))
    with mpmath.workdps(60):
        exact = mpmath.polyroots([mpmath.mpc(c) for c in reversed(p.coeffs)],
                                 maxsteps=400, extraprec=400)
        exact = np.sort_complex(np.array([complex(x) for x in exact]))
    got = np.sort_complex(np.array(roots(p).roots))
    assert np.max(np.abs(got - exact)) < 1e-9
