"""Bounded subalgebra membership, restriction, fpf search, and kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit import (
    Derivation,
    GeneratorSpan,
    Polynomial,
    RestrictedDerivation,
    RestrictionFailure,
    Subalgebra,
    VarContext,
    generator_products,
    kernel_up_to_degree,
    parse_polynomial,
    restrict_derivation,
    restriction_of,
    subalgebra_fpf,
    subalgebra_member,
    symbol_context,
)
from lndkit.linalg import RowSpace, vec_of
from lndkit.subalgebra import distinct_nonconstant

from helpers import assert_canonical, reference_image_of_product, reference_subalgebra_fpf

CTX1 = VarContext(("X",), ("Y",))
CTXT = VarContext(("t",), ("X", "Y"))
CTX53 = VarContext(("X",), ("V", "W"))


def P(text, ctx):
    return parse_polynomial(text, ctx)


def cusp_base(ctx=CTX1):
    """The subalgebra generated by X^2 and X^3 inside the coefficient line."""
    return Subalgebra(ctx, (P("X^2", ctx), P("X^3", ctx)), ())


def example_53_subalgebra():
    gens = ("V", "W + X*V^2*W^2", "X^2*W", "X^3*W", "X^2*W^2", "X^2*V*W",
            "X^2*W^3", "X^3*W^3")
    return Subalgebra(
        CTX53,
        (P("X^2", CTX53), P("X^3", CTX53)),
        tuple(P(g, CTX53) for g in gens),
    )


def test_distinct_nonconstant_drops_constants_and_later_scalar_multiples():
    texts = ["X", "0", "-X", "2*X + 2*Y", "3", "X + Y", "X - Y", "1/2*X", "t*X", "-t*X", "X^2"]
    kept = distinct_nonconstant(P(text, CTXT) for text in texts)
    assert kept == tuple(P(text, CTXT) for text in ["X", "2*X + 2*Y", "X - Y", "t*X", "X^2"])


@st.composite
def _spelled_generators(draw):
    """Base and algebra generators close to a full ring's: each variable
    kept or dropped, scaled by 1, 2, 1/2 or -1, the lists permuted, and
    sometimes a generator that is not a variable appended."""
    ctx = draw(st.sampled_from([CTXT, VarContext((), ("X", "Y")), VarContext(("s", "t"), ("X",))]))
    scale = st.sampled_from([1, 2, Fraction(1, 2), -1])

    def spell(names, extra):
        gens = [Polynomial.variable(ctx, n) * (draw(scale) if draw(st.booleans()) else 1)
                for n in names if draw(st.integers(0, 4))]
        if extra and draw(st.integers(0, 4)) == 0:
            gens.append(P(extra, ctx))
        return tuple(draw(st.permutations(gens)) if draw(st.booleans()) else gens)

    coeff = ctx.coeff_vars
    return ctx, spell(coeff, coeff and f"{coeff[-1]}^2"), spell(ctx.main_vars, f"X^2 + {ctx.variables[0]}")


@given(_spelled_generators())
@settings(max_examples=300, deadline=None)
def test_full_ring_matches_the_variable_tuple_comparison(spelled):
    """``full_ring``, read from the generators' numerators, agrees with
    comparing the generators to the context's variables in order."""
    ctx, base, algebra = spelled
    S = Subalgebra(ctx, base, algebra)
    variables = tuple(Polynomial.variable(ctx, n) for n in ctx.variables)
    assert S.full_ring == (S.generators == variables and len(base) == len(ctx.coeff_vars))


def test_member_product_of_generators():
    S = cusp_base()
    w = subalgebra_member(P("X^5", CTX1), S, 5)
    assert w is not None
    assert w.expression == parse_polynomial("b1*b2", symbol_context(S))
    assert w.evaluate(S) == P("X^5", CTX1)


def test_span_member_stamps_the_span_bound():
    S = cusp_base()
    assert subalgebra_member(P("X^5", CTX1), S, 2) is None
    w = GeneratorSpan(S, 5).member(P("X^5", CTX1))
    assert w is not None and w.bound == 5


def test_member_odd_power_never_found():
    S = cusp_base()
    assert subalgebra_member(P("X", CTX1), S, 6) is None


def test_member_generator_itself():
    S = example_53_subalgebra()
    w = subalgebra_member(P("X^2*W^2", CTX53), S, 4)
    assert w is not None and w.evaluate(S) == P("X^2*W^2", CTX53)


def test_member_mixed_element_of_ideal_part():
    S = example_53_subalgebra()
    target = P("X^2*V*W^2", CTX53)
    w = subalgebra_member(target, S, 8)
    assert w is not None and w.evaluate(S) == target


def test_membership_monotone_in_bound():
    S = cusp_base()
    found_at = None
    for bound in (2, 3, 5, 7):
        w = subalgebra_member(P("X^5", CTX1), S, bound)
        if w is not None and found_at is None:
            found_at = bound
        if found_at is not None:
            assert w is not None, "witness disappeared at a larger bound"
    assert found_at == 5


def test_restrict_full_ring():
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {"X": P("0", ctx), "Y": P("1", ctx)})
    out = restrict_derivation(d, S, 2)
    assert not isinstance(out, RestrictionFailure)
    rd, wits = out
    assert rd.images == (P("0", ctx), P("1", ctx))
    for g, w in zip(S.algebra_generators, wits):
        assert w.evaluate(S) == d.apply(g)


def test_restrict_fails_out_of_subalgebra():
    # d/dX on Q[X^2, X^3][Y]: the image 2X of X^2 escapes (odd degree)
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra(ctx, (), (P("X^2", ctx), P("X^3", ctx), P("Y", ctx)))
    d = Derivation(ctx, {"X": P("1", ctx), "Y": P("0", ctx)})
    out = restrict_derivation(d, S, 6)
    assert isinstance(out, RestrictionFailure)
    assert out.generator == P("X^2", ctx)
    assert out.image == P("2*X", ctx)


def test_restrict_example_53_flavor():
    S = example_53_subalgebra()
    d = Derivation(CTX53, {"V": P("0", CTX53), "W": P("X^2", CTX53)})
    out = restrict_derivation(d, S, 8)
    assert not isinstance(out, RestrictionFailure)
    rd, _ = out
    assert rd.images[0].is_zero()  # V is killed


def test_fpf_full_ring_immediate():
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    rd = restriction_of(Derivation(ctx, {"X": P("0", ctx), "Y": P("1", ctx)}), S)
    cof = subalgebra_fpf(rd, 1)
    assert cof is not None
    acc = Polynomial.zero(ctx)
    for a, img in zip(cof, rd.images):
        acc = acc + a * img
    assert acc == Polynomial.one(ctx)


def test_fpf_proper_image_ideal_not_found():
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    rd = restriction_of(Derivation(ctx, {"X": P("Y", ctx), "Y": P("0", ctx)}), S)
    assert subalgebra_fpf(rd, 10) is None


def test_fpf_misses_off_the_origin():
    """The images 0 and X - 1 do not vanish at the origin, so the bounded
    search runs, and no combination of them is 1."""
    S = Subalgebra.full(CTXT)
    rd = restriction_of(Derivation(CTXT, {"X": P("0", CTXT), "Y": P("X - 1", CTXT)}), S)
    assert not rd.fixes_origin()
    assert subalgebra_fpf(rd, 6) is None


def test_fpf_refuses_images_that_break_a_relation_at_its_bound():
    """On k[X^2, X^3], D(X^2) = 1 and D(X^3) = 0 break (X^2)^3 == (X^3)^2,
    a relation of formal degree 6: at bound 6 the fpf search refuses the
    images as the slice search does, and at bound 5, below the relation,
    both answer."""
    from lndkit import DomainError, find_slice

    ctx = VarContext((), ("X",))
    S = Subalgebra(ctx, (), (P("X^2", ctx), P("X^3", ctx)))
    rd = RestrictedDerivation(S, (P("1", ctx), P("0", ctx)))
    for run in (lambda: subalgebra_fpf(rd, 6), lambda: find_slice(rd, S, 6)):
        with pytest.raises(DomainError, match=r"break the relation of the generator product X\^6"):
            run()
    assert subalgebra_fpf(rd, 5) == [P("1", ctx), P("0", ctx)]
    assert find_slice(rd, S, 5) == P("X^2", ctx)


def test_fpf_stops_at_the_first_unit(monkeypatch):
    """On nodal-base-fibration's fpf task the image of X is 1: the search
    inserts fewer product images than products times nonzero images."""
    from lndkit import linalg
    from lndkit.harness import load_corpus

    spec = next(spec for _, spec in load_corpus() if spec.name == "nodal-base-fibration")
    bound = int(next(task for task in spec.tasks if task.name == "subalgebra_fpf").params["bound"])
    rd = restriction_of(spec.derivations["D"], spec.subalgebra)
    tags, insert = [], linalg.RowSpace.insert

    def record(space, vec, tag):
        tags.append(tag)
        return insert(space, vec, tag)

    monkeypatch.setattr(linalg.RowSpace, "insert", record)
    cof = subalgebra_fpf(rd, bound)
    assert cof[-1] == Polynomial.one(spec.context)
    fpf_inserts = [tag for tag in tags if isinstance(tag, tuple)]  # the span's products are tagged by index
    nonzero = sum(not img.is_zero() for img in rd.images)
    assert 0 < len(fpf_inserts) < len(generator_products(spec.subalgebra, bound)) * nonzero


def test_kernel_of_partial_derivative():
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {"X": P("0", ctx), "Y": P("1", ctx)})
    basis = kernel_up_to_degree(d, S, 2)
    expected = RowSpace()
    for text in ("1", "X", "X^2"):
        expected.insert(vec_of(P(text, ctx)), text)
    assert len(basis) == 3
    for f in basis:
        assert expected.contains(vec_of(f))


def test_kernel_triangular():
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {"X": P("Y", ctx), "Y": P("0", ctx)})
    basis = kernel_up_to_degree(d, S, 2)
    span = RowSpace()
    for f in basis:
        span.insert(vec_of(f), str(f))
    for text in ("1", "Y", "Y^2"):
        assert span.contains(vec_of(P(text, ctx)))
    assert len(basis) == 3


@pytest.mark.parametrize("restricted", [False, True])
def test_kernel_rechecks_fire_on_a_wrong_solver(restricted, monkeypatch):
    """The per-relation and per-basis-element re-checks are explicit raises,
    so they fire under ``python -O`` too: a wrong row lister reads each
    kernel row off Y (not killed) or X^3 (outside the span), and a wrong
    solver doubles each dependency's denominator."""
    from lndkit import subalgebra

    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {"X": P("1", ctx), "Y": P("1", ctx)})
    if restricted:
        d = restriction_of(d, S)
    rows, solve = subalgebra.rref_rows, subalgebra.solve_images

    def lister_reading(text):
        def wrong_rows(D, S, bound):
            span, tags, image, _ = rows(D, S, bound)
            return span, tags, image, lambda combo: dict(P(text, ctx)._num)
        return wrong_rows

    def wrong_relation(*args):
        for tag, dep, unit in solve(*args):
            yield tag, None if dep is None else (dep[0], 2 * dep[1]), unit

    monkeypatch.setattr(subalgebra, "rref_rows", lister_reading("Y"))
    with pytest.raises(AssertionError, match="not killed by derivation"):
        kernel_up_to_degree(d, S, 2)
    monkeypatch.setattr(subalgebra, "rref_rows", lister_reading("X^3"))
    with pytest.raises(AssertionError, match="left the span"):
        kernel_up_to_degree(d, S, 2)
    monkeypatch.setattr(subalgebra, "rref_rows", rows)
    monkeypatch.setattr(subalgebra, "solve_images", wrong_relation)
    with pytest.raises(AssertionError, match="relation failed image re-verification"):
        kernel_up_to_degree(d, S, 2)


def test_kernel_worked_instance_contains_projection():
    d = Derivation(CTXT, {"X": P("t", CTXT), "Y": P("1 - t^2*X", CTXT)})
    S = Subalgebra.full(CTXT)
    basis = kernel_up_to_degree(d, S, 4)
    span = RowSpace()
    for f in basis:
        span.insert(vec_of(f), str(f))
    assert span.contains(vec_of(P("X - t*Y - 1/2*t^2*X^2", CTXT)))


def test_witnesses_always_evaluate_exactly():
    rng = random.Random(5)
    S = example_53_subalgebra()
    span = GeneratorSpan(S, 8)
    for _ in range(10):
        expo, product = span.products[rng.randrange(len(span.products))]
        w = span.member(product)
        assert w is not None and w.evaluate(S) == product


def test_kernel_inertness_spot_check():
    """Products of spanning elements landing in the kernel have kernel factors."""
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {"X": P("0", ctx), "Y": P("1", ctx)})
    bound = 3
    span = GeneratorSpan(S, bound)
    kernel = kernel_up_to_degree(d, S, 2 * bound)
    kspan = RowSpace()
    for f in kernel:
        kspan.insert(vec_of(f), str(f))
    elements = [poly for _, poly in span.products if not poly.is_constant()]
    for f in elements:
        for g in elements:
            if kspan.contains(vec_of(f * g)):
                assert kspan.contains(vec_of(f)) and kspan.contains(vec_of(g))


def test_symbol_contexts_are_cached_by_generator_counts():
    """The cache keeps one context per pair of generator counts, not one
    per subalgebra (with its polynomials)."""
    from lndkit.subalgebra import _symbol_context

    _symbol_context.cache_clear()
    for k in range(1, 30):
        S = Subalgebra(CTXT, (P(f"t^{k}", CTXT),), (P(f"X + t^{k}", CTXT), P("Y", CTXT)))
        assert symbol_context(S).variables == ("b1", "g1", "g2")
    assert _symbol_context.cache_info().currsize == 1


def test_generator_validation():
    with pytest.raises(ValueError):
        Subalgebra(CTX1, (P("3", CTX1),), ())
    with pytest.raises(ValueError):
        Subalgebra(CTX1, (P("Y", CTX1),), ())  # base must avoid main variables
    with pytest.raises(ValueError):
        Subalgebra(CTX1, (P("X^2", CTX1), P("X^2", CTX1)), ())


def test_product_enumeration_cap(monkeypatch):
    """The cap admits exactly ``PRODUCT_CAP`` products."""
    from lndkit import UnsupportedSizeError, subalgebra

    plane = Subalgebra.full(VarContext((), ("X", "Y")))
    cases = [
        (plane, 12),  # 91 products
        (Subalgebra(CTXT, (P("t", CTXT),), (P("X*Y", CTXT), P("1/2*X", CTXT), P("Y", CTXT))), 5),
        (example_53_subalgebra(), 4),
    ]
    listed = [generator_products(S, bound) for S, bound in cases]
    monkeypatch.setattr(subalgebra, "PRODUCT_CAP", 50)
    with pytest.raises(UnsupportedSizeError):
        generator_products(plane, 12)
    for (S, bound), products in zip(cases, listed):
        monkeypatch.setattr(subalgebra, "PRODUCT_CAP", len(products))
        assert generator_products(S, bound) == products
        monkeypatch.setattr(subalgebra, "PRODUCT_CAP", len(products) - 1)
        with pytest.raises(UnsupportedSizeError, match=f"more than {len(products) - 1} "):
            generator_products(S, bound)


def test_full_ring_is_decided_from_the_generators():
    t, X, Y = (P(n, CTXT) for n in ("t", "X", "Y"))
    assert Subalgebra(CTXT, (t,), (X, Y)).full_ring
    assert Subalgebra(CTXT, (t,), (X, Y)) == Subalgebra.full(CTXT)
    assert not Subalgebra(CTXT, (P("t^2", CTXT),), (X, Y)).full_ring
    assert not Subalgebra(CTXT, (t,), (Y, X)).full_ring  # not in context order
    assert not Subalgebra(CTXT, (), (t, X, Y)).full_ring
    assert not Subalgebra(CTXT, (t,), (X,)).full_ring


def test_restricted_apply_needs_a_span():
    from lndkit import DomainError

    S = Subalgebra.full(CTXT)
    rd = RestrictedDerivation(S, (P("t", CTXT), P("1 - t^2*X", CTXT)))
    with pytest.raises(DomainError, match="applies through a generator span"):
        rd.apply(P("X", CTXT))
    assert rd.apply(P("X", CTXT), GeneratorSpan(S, 1)) == P("t", CTXT)


def test_images_that_break_a_product_relation_are_refused_on_every_path():
    """On k[X, X^2, Y], D(X) = Y and D(X^2) = 1 break X * X == X^2: the
    row lister, the fpf search, ``apply`` through a span and ``transcendence_check`` raise
    DomainError naming the product, once per derivation and span, and
    never a false slice or an internal error."""
    from lndkit import DomainError, find_slice, transcendence_check

    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra(ctx, (), (P("X", ctx), P("X^2", ctx), P("Y", ctx)))
    rd = RestrictedDerivation(S, (P("Y", ctx), P("1", ctx), P("0", ctx)))
    span = GeneratorSpan(S, 3)
    assert span.relations and all(d > 0 for _, (_, d) in span.relations)
    refused = r"break the relation of the generator product X\^2"
    for run in (lambda: find_slice(rd, S, 3), lambda: kernel_up_to_degree(rd, S, 3),
                lambda: subalgebra_fpf(rd, 3), lambda: rd.apply(P("X", ctx), span), lambda: span.images(rd),
                lambda: transcendence_check(RestrictedDerivation(S, (P("1", ctx), P("0", ctx), P("0", ctx))),
                                            P("X", ctx), S, 3)):
        with pytest.raises(DomainError, match=refused):
            run()
    good = RestrictedDerivation(S, (P("1", ctx), P("2*X", ctx), P("X", ctx)))
    assert span.images(good) is span.images(good)
    assert find_slice(good, S, 3) == P("X", ctx)
    assert kernel_up_to_degree(good, S, 3) == [P("X^2 - 2*Y", ctx), P("1", ctx)]


def test_restriction_of_a_restriction_on_its_subalgebra_is_itself():
    S = example_53_subalgebra()
    rd = RestrictedDerivation(S, tuple(Polynomial.zero(CTX53) for _ in S.algebra_generators))
    assert restriction_of(rd, rd.subalgebra) is rd


def _reference_generator_products(S, bound):
    """The enumeration that the shifting one replaced: every step multiplies by ``*``."""
    gens, weights = S.generators, S.weights
    out = []

    def rec(idx, budget, expo, poly):
        if idx == len(gens):
            out.append((tuple(expo), poly))
            return
        current = poly
        e = 0
        while e * weights[idx] <= budget:
            expo.append(e)
            rec(idx + 1, budget - e * weights[idx], expo, current)
            expo.pop()
            e += 1
            if e * weights[idx] <= budget:
                current = current * gens[idx]

    rec(0, bound, [], Polynomial.one(S.context))
    return out


# Monomials with coefficient 1 take the shifting path; the scaled, negated
# and two-term generators must not.
_BASE_POOL = tuple(P(g, CTXT) for g in ("t", "t^2", "2*t", "1/2*t", "-t", "t + 1"))
_ALGEBRA_POOL = tuple(P(g, CTXT) for g in (
    "X", "Y", "X*Y", "t*Y^2", "2*X", "1/2*X", "-X", "X + t", "-3/4*X*Y + Y", "1/3*t*Y"))


@given(st.lists(st.sampled_from(_BASE_POOL), unique=True, max_size=2),
       st.lists(st.sampled_from(_ALGEBRA_POOL), unique=True, max_size=4),
       st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_generator_products_match_the_reference_enumeration(base, algebra, bound):
    S = Subalgebra(CTXT, tuple(base), tuple(algebra))
    products = generator_products(S, bound)
    assert products == _reference_generator_products(S, bound)
    for _, poly in products:
        assert_canonical(poly)


_LISTER_CONTEXTS = {
    "X": VarContext((), ("X",)),
    "X-Y": VarContext((), ("X", "Y")),
    "t-X-Y": CTXT,
    "s-t-X-Y": VarContext(("s", "t"), ("X", "Y")),
}


@pytest.mark.parametrize("ctx", _LISTER_CONTEXTS.values(), ids=_LISTER_CONTEXTS.keys())
def test_monomial_lister_matches_the_full_ring_products(ctx):
    """The lazy lister lists the full ring's product exponents, in order,
    at bounds 0 to 8."""
    from lndkit.subalgebra import _factored_products, monomials_up_to

    for bound in range(9):
        listed = list(monomials_up_to(ctx, bound))
        assert listed == [e for e, _, _ in _factored_products(Subalgebra.full(ctx), bound)]


@pytest.mark.parametrize("bound", [-1, -5])
def test_a_negative_bound_lists_no_products(bound):
    """No product has negative degree, not even 1: a negative bound lists
    none, and the slice and kernel searches find nothing on either path."""
    from lndkit import find_slice
    from lndkit.subalgebra import monomials_up_to

    S = Subalgebra.full(CTXT)
    d = Derivation(CTXT, {"X": P("1", CTXT), "Y": P("X", CTXT)})
    assert generator_products(S, bound) == []
    assert generator_products(example_53_subalgebra(), bound) == []
    assert list(monomials_up_to(CTXT, bound)) == []
    for D in (d, restriction_of(d, S)):
        assert find_slice(D, S, bound) is None
        assert kernel_up_to_degree(D, S, bound) == []


_IMAGE_POOL = tuple(P(g, CTXT) for g in ("0", "1", "-2", "t", "X", "Y", "1 + X", "1/2 - t*Y", "X*Y + 3"))


@given(st.lists(st.sampled_from(_BASE_POOL), unique=True, max_size=1),
       st.lists(st.sampled_from(_ALGEBRA_POOL), unique=True, min_size=1, max_size=3),
       st.lists(st.sampled_from(_IMAGE_POOL), min_size=2, max_size=2),
       st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_fpf_matches_the_insert_everything_reference(base, algebra, images, bound):
    """On a genuine derivation, the restriction of an ambient one, the fpf
    search that stops at the first unit gives the cofactors of the search
    that inserted every product times every image."""
    S = Subalgebra(CTXT, tuple(base), tuple(algebra))
    rd = restriction_of(Derivation(CTXT, dict(zip(CTXT.main_vars, images))), S)
    assert subalgebra_fpf(rd, bound) == reference_subalgebra_fpf(rd, bound)


def test_bounded_fpf_agrees_with_completion_engine():
    """On full rings, the bounded witness search confirms every Yes the
    completion engine produces, at a bound covering its cofactors."""
    from lndkit import is_fixed_point_free
    from lndkit.harness import random_triangular_lnd

    for seed in range(12):
        d = random_triangular_lnd(seed)
        witness = is_fixed_point_free(d)
        assert witness is not None
        bound = max(
            (c.degree() or 0) + (d.images[n].degree() or 0) for n, c in witness.items()
        )
        S = Subalgebra.full(d.context)
        rd = restriction_of(d, S)
        cof = subalgebra_fpf(rd, max(bound, 1))
        assert cof is not None
        acc = Polynomial.zero(d.context)
        for a, img in zip(cof, rd.images):
            acc = acc + a * img
        assert acc == Polynomial.one(d.context)


def test_image_of_a_high_product_is_not_capped():
    # Leibniz takes one factor out of Y^150, so the rest is a power above
    # the ``**`` cap: the span reads it from its own products, and the
    # reference rebuilds it with the uncapped ``_power``.
    S = Subalgebra(CTXT, (), (P("Y", CTXT),))
    rd = RestrictedDerivation(S, (P("t", CTXT),))
    expected = P("150*t*Y^100", CTXT) * P("Y^49", CTXT)
    assert reference_image_of_product(rd, (150,)) == expected
    assert GeneratorSpan(S, 150).images(rd)[150] == expected
