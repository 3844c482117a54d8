import numpy as np
import pytest

from fdzeros import (
    InvalidInput,
    analyze,
    apply_op,
    classify_real,
    compose,
    from_roots,
    generating_fn,
    linear_combine,
    make_operator,
    make_poly,
    monomial,
    operator_from_json,
    operator_to_json,
    random_preserver,
    random_strip_operator,
    roots,
    verdict_to_json,
    witness_search,
    witness_to_json,
)


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
    op = make_operator(1j, {1: 1, -1: 2})
    assert op.support_low == -1 and op.support_high == 1


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


def test_analyze_real_shift():
    v = analyze(make_operator(1, {0: 1, 1: 1}))
    assert not v.cond1_pure_imag_shift
    assert not v.hyperbolicity_preserver


def test_analyze_strip_only():
    v = analyze(make_operator(1j, {-1: 1, 1: -1}))
    assert not v.cond4_positive_product
    assert v.strip_preserver
    assert not v.hyperbolicity_preserver


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


def test_witness_none_for_preserver():
    assert witness_search(make_operator(1j, {-1: 1, 1: 1})) is None


def test_witness_none_for_strip_preserver():
    # e^{i phi} times a preserver: every image of (x - 1)^n is real-rooted, but
    # the expanded image's computed roots leave the real line at n = 20.
    op = random_strip_operator(1, np.random.default_rng([3, 77, 1]))
    assert witness_search(op) is None


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


def test_linearity():
    rng = np.random.default_rng(22)
    op = random_preserver(2, rng)
    p = from_roots(rng.uniform(-5, 5, size=5))
    q = from_roots(rng.uniform(-5, 5, size=7))
    a, b = 1.3, -0.7
    lhs = apply_op(op, linear_combine([(a, p), (b, q)]))
    rhs = linear_combine([(a, apply_op(op, p)), (b, apply_op(op, q))])
    la = lhs.as_array()
    ra = rhs.as_array()
    assert len(la) == len(ra)
    assert np.max(np.abs(la - ra)) <= 1e-12 * np.max(np.abs(la))


def test_compose_matches_sequential():
    rng = np.random.default_rng(23)
    op1 = random_preserver(1, rng, lam=0.8j)
    op2 = random_preserver(2, rng, lam=0.8j)
    p = from_roots(rng.uniform(-4, 4, size=5))
    lhs = apply_op(op1, apply_op(op2, p))
    rhs = apply_op(compose(op1, op2), p)
    la, ra = lhs.as_array(), rhs.as_array()
    assert len(la) == len(ra)
    assert np.max(np.abs(la - ra)) <= 1e-10 * np.max(np.abs(la))


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


def test_verdict_and_witness_json():
    op = make_operator(1, {0: 1, 1: 1})
    v = verdict_to_json(analyze(op))
    assert v["hyperbolicity_preserver"] is False
    w = witness_to_json(witness_search(op))
    assert set(w) == {"label", "input", "image_roots", "offense"}
