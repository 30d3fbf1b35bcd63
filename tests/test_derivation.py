"""Derivation calculus: application, nilpotency, and the ring predicates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit import (
    Derivation,
    DomainError,
    Polynomial,
    VarContext,
    divergence,
    is_fixed_point_free,
    is_irreducible,
    is_triangular,
    iterates,
    nilpotency_verdict,
    parse_polynomial,
)
from lndkit.derivation import ITERATION_CAP

from helpers import assert_canonical, rand_poly, reference_is_triangular

CTX = VarContext((), ("X", "Y"))
CTXT = VarContext(("t",), ("X", "Y"))


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def D_of(ctx, **images):
    return Derivation(ctx, {k: parse_polynomial(v, ctx) for k, v in images.items()})


DY = D_of(CTX, X="0", Y="1")
WORKED = D_of(CTXT, X="t", Y="1 - t^2*X")
NEGATIVE = D_of(CTXT, X="Y", Y="0")


def test_apply_partial_derivative():
    assert DY.apply(P("X*Y")) == P("X")


def test_apply_worked_instance_slice_image():
    s = P("Y + 1/2*t*X^2", CTXT)
    assert WORKED.apply(s) == Polynomial.one(CTXT)


def test_apply_kills_constants():
    assert WORKED.apply(P("7", CTXT)).is_zero()
    assert WORKED.apply(P("t^3", CTXT)).is_zero()  # base-ring linearity


def test_iterate_factorial():
    ctx = VarContext((), ("U", "W"))
    dw = D_of(ctx, U="0", W="1")
    its = iterates(dw.apply, parse_polynomial("W^3", ctx), 3)
    assert [str(f) for f in its] == ["W^3", "3*W^2", "6*W", "6"]


def test_iterate_kills_past_degree():
    ctx = VarContext((), ("U", "W"))
    dw = D_of(ctx, U="0", W="1")
    assert len(iterates(dw.apply, parse_polynomial("(U^2 + 2)*W^2", ctx), 3)) == 3


def test_iterate_triangular_nilpotence():
    d = D_of(CTX, X="Y", Y="0")
    assert iterates(d.apply, P("X"), 1) == [P("X"), P("Y")]


def _reference_iterate(D, p, n):
    """D^n(p) by the loop that ``Derivation.iterate`` ran."""
    if n < 0:
        raise ValueError("iteration count must be non-negative")
    for _ in range(n):
        if p.is_zero():
            break
        p = D.apply(p)
    return p


@given(st.integers(0, 2 ** 30), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_iterates_match_the_reference_loop(seed, cap):
    # triangular derivations of k[t][X, Y], so every element has an index
    rng = random.Random(seed)
    d = Derivation(CTXT, {
        "X": rand_poly(rng, CTXT, max_degree=2, max_terms=2, names=("t",)),
        "Y": rand_poly(rng, CTXT, max_degree=2, max_terms=3, names=("t", "X")),
    })
    a = rand_poly(rng, CTXT, max_degree=3, max_terms=3)
    its = iterates(d.apply, a, cap)
    index = next(n for n in range(64) if _reference_iterate(d, a, n).is_zero())
    if index > cap + 1:
        assert its is None
    else:
        assert its == [_reference_iterate(d, a, i) for i in range(index)]


def test_nilpotency_partial():
    v = nilpotency_verdict(DY, 5)
    assert v.certified and v.indices == {"X": 1, "Y": 2}


def test_nilpotency_euler_inconclusive():
    euler = D_of(CTX, X="X", Y="0")
    v = nilpotency_verdict(euler, 10)
    assert not v.certified
    assert v.indices is None
    assert v.bound == 10


def test_nilpotency_hand_chain():
    d = D_of(CTX, X="Y", Y="1")  # X, Y, 1, 0
    v = nilpotency_verdict(d, 5)
    assert v.certified and v.indices == {"X": 3, "Y": 2}
    # bound n certifies when D^(n+1) kills each variable, so index 3 needs bound 2
    v = nilpotency_verdict(d, 2)
    assert v.certified and v.indices == {"X": 3, "Y": 2}
    v = nilpotency_verdict(d, 1)
    assert not v.certified and v.indices is None


def test_nilpotency_term_budget_makes_growing_iterates_inconclusive():
    """D^n(X) grows by about n terms a step, so the term budget, not the
    bound, ends the check; without it bound 512 ran for over a minute."""
    d = D_of(CTXT, X="X^2 + t*X + 1", Y="1")
    v = nilpotency_verdict(d, 512)
    assert not v.certified and v.indices is None and v.bound == 512


def test_nilpotency_at_the_iteration_cap_ends():
    """D^n(X) = n! * X^(n+1) never vanishes; the cap bounds the steps."""
    d = D_of(CTX, X="X^2", Y="X*Y")
    v = nilpotency_verdict(d, ITERATION_CAP)
    assert not v.certified and v.bound == ITERATION_CAP


@pytest.mark.parametrize("bound", [0, ITERATION_CAP + 1])
def test_nilpotency_bound_outside_its_range_is_rejected(bound):
    with pytest.raises(ValueError, match=f"bound must be from 1 to {ITERATION_CAP}"):
        nilpotency_verdict(DY, bound)


def test_triangular_by_inspection():
    assert is_triangular(WORKED) == ("X", "Y")


def test_triangular_mutual_dependence():
    assert is_triangular(D_of(CTX, X="Y", Y="X")) is None


def test_triangular_chain():
    ctx = VarContext((), ("X", "Y", "Z"))
    d = D_of(ctx, X="0", Y="X^2", Z="Y")
    assert is_triangular(d) == ("X", "Y", "Z")


def test_triangular_order_of_a_nine_variable_chain():
    """Nine main variables listed against the chain x8 -> x7 -> ... -> x0,
    with an image of x0 that also involves x5: the one triangular order,
    whose search over orderings would try nearly all 9! of them."""
    ctx = VarContext(("t",), tuple(f"x{i}" for i in range(9)))
    images = {f"x{i}": P(f"t*x{i + 1}^2 + 1", ctx) for i in range(8)}
    images["x0"] = P("x1*x5", ctx)
    images["x8"] = P("t", ctx)
    d = Derivation(ctx, images)
    assert is_triangular(d) == tuple(f"x{i}" for i in range(8, -1, -1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_triangular_order_is_the_permutation_search_order(data):
    """Kahn's algorithm with a min-heap gives the ordering, or None,
    that the search over ``itertools.permutations`` gave first."""
    ctx = VarContext(("t",), tuple(f"x{i}" for i in range(data.draw(st.integers(1, 5)))))
    used = st.lists(st.sampled_from(ctx.variables), max_size=3)
    d = Derivation(ctx, {x: P(" + ".join(data.draw(used) + ["1"]), ctx) for x in ctx.main_vars})
    assert is_triangular(d) == reference_is_triangular(d)


def test_divergence_zero_for_partial():
    assert divergence(DY).is_zero()


def test_divergence_cancelling_trace():
    assert divergence(D_of(CTX, X="X", Y="-Y")).is_zero()


def test_divergence_single_term():
    assert divergence(D_of(CTX, X="X*Y", Y="0")) == P("Y")


def test_irreducible_unit_image():
    ok, g = is_irreducible(DY)
    assert ok and g is None


def test_irreducible_common_factor():
    ok, g = is_irreducible(D_of(CTXT, X="t*Y", Y="t*X"))
    assert not ok and g == P("t", CTXT)


def test_irreducible_with_unit_among_images():
    ok, _ = is_irreducible(D_of(CTX, X="X^2", Y="1"))
    assert ok


def test_irreducible_zero_derivation_rejected():
    with pytest.raises(DomainError):
        is_irreducible(D_of(CTX, X="0", Y="0"))


def test_fpf_partial_derivative():
    w = is_fixed_point_free(DY)
    assert w == {"Y": P("1")}


def test_fpf_negative_control():
    assert is_fixed_point_free(NEGATIVE) is None


def test_fpf_worked_instance_cofactors():
    w = is_fixed_point_free(WORKED)
    assert w is not None
    acc = Polynomial.zero(CTXT)
    for name, cof in w.items():
        acc = acc + cof * WORKED.images[name]
    assert acc == Polynomial.one(CTXT)


def test_fpf_zero_derivation():
    assert is_fixed_point_free(D_of(CTX, X="0", Y="0")) is None


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(seed):
    rng = random.Random(seed)
    d = Derivation(
        CTXT,
        {
            "X": rand_poly(rng, CTXT, max_degree=2, max_terms=3),
            "Y": rand_poly(rng, CTXT, max_degree=2, max_terms=3),
        },
    )
    p, q = rand_poly(rng, CTXT), rand_poly(rng, CTXT)
    assert d.apply(p * q) == p * d.apply(q) + q * d.apply(p)


def _reference_apply(D, p):
    """The Leibniz sum that the one-pass ``apply`` replaced: one partial
    derivative per image, summed by ``combine``."""
    return Polynomial.combine(D.context, (
        (p.partial_derivative(name), img) for name, img in D.images.items() if img
    ))


CTX3 = VarContext(("t",), ("X", "Y", "Z"))


def _polynomials(ctx, max_terms):
    """Polynomials of degree <= 2 per variable with rational coefficients of
    assorted denominators; the empty dict draws zero."""
    monomial = st.tuples(*[st.integers(0, 2)] * ctx.nvars)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(monomial, coeff, max_size=max_terms).map(lambda t: Polynomial(ctx, t))


@given(st.lists(_polynomials(CTX3, 3) | st.just(Polynomial.zero(CTX3)), min_size=3, max_size=3),
       _polynomials(CTX3, 5))
@settings(max_examples=200, deadline=None)
def test_apply_matches_the_reference_leibniz_sum(images, p):
    """Zero images, images over different denominators and rational p."""
    d = Derivation(CTX3, dict(zip(CTX3.main_vars, images)))
    r = d.apply(p)
    assert r == _reference_apply(d, p)
    assert_canonical(r)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_base_ring_linearity(seed):
    rng = random.Random(seed)
    d = Derivation(
        CTXT,
        {
            "X": rand_poly(rng, CTXT, max_degree=2, max_terms=3),
            "Y": rand_poly(rng, CTXT, max_degree=2, max_terms=3),
        },
    )
    c = rand_poly(rng, CTXT, names=("t",))
    p = rand_poly(rng, CTXT)
    assert d.apply(c * p) == c * d.apply(p)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=40, deadline=None)
def test_triangular_implies_certified(seed):
    rng = random.Random(seed)
    d = Derivation(
        CTXT,
        {
            "X": rand_poly(rng, CTXT, max_degree=3, max_terms=3, names=("t",)),
            "Y": rand_poly(rng, CTXT, max_degree=3, max_terms=3, names=("t", "X")),
        },
    )
    assert is_triangular(d) is not None
    max_deg = max((img.degree() or 0) for img in d.images.values())
    bound = (max_deg + 1) ** len(CTXT.main_vars)
    assert nilpotency_verdict(d, max(bound, 2)).certified
