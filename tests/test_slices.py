"""Slice search, kernel projection, certificates, and witness-guided builds."""

import random

import pytest

from lndkit import (
    CoordinateWitness,
    Derivation,
    DomainError,
    FailsUpToCapError,
    GeneratorSpan,
    IncompleteReexpression,
    Polynomial,
    RestrictedDerivation,
    RetractionSpec,
    Subalgebra,
    VarContext,
    complementary_lnd,
    coordinate_context,
    coordinate_system,
    dixmier,
    find_slice,
    kernel_generators,
    lnd_from_retraction,
    parse_polynomial,
    proportionality_check,
    restriction_of,
    transcendence_check,
    verify_slice_theorem,
)

from helpers import rand_poly

CTX = VarContext((), ("X", "Y"))
CTXT = VarContext(("t",), ("X", "Y"))


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def D_of(ctx, **images):
    return Derivation(ctx, {k: parse_polynomial(v, ctx) for k, v in images.items()})


DY = D_of(CTX, X="0", Y="1")
WORKED = D_of(CTXT, X="t", Y="1 - t^2*X")
NEGATIVE = D_of(CTXT, X="Y", Y="0")


def test_find_slice_partial_derivative():
    assert find_slice(DY, Subalgebra.full(CTX), 1) == P("Y")


def test_find_slice_worked_instance():
    s = find_slice(WORKED, Subalgebra.full(CTXT), 3)
    assert s == P("Y + 1/2*t*X^2", CTXT)


def test_find_slice_negative_control():
    assert find_slice(NEGATIVE, Subalgebra.full(CTXT), 10) is None


@pytest.mark.parametrize("D, ctx, bound", [
    (DY, CTX, 1), (DY, CTX, 3), (WORKED, CTXT, 2), (WORKED, CTXT, 3), (WORKED, CTXT, 4),
    (NEGATIVE, CTXT, 4),
])
def test_find_slice_same_with_or_without_span(D, ctx, bound):
    S = Subalgebra.full(ctx)
    assert find_slice(D, S, bound) == find_slice(D, S, bound, GeneratorSpan(S, bound))


def test_dixmier_kills_slice():
    assert dixmier(DY, P("Y"), P("Y")).is_zero()


def test_dixmier_fixes_kernel_elements():
    assert dixmier(DY, P("Y"), P("X")) == P("X")


def test_dixmier_worked_instance():
    s = P("Y + 1/2*t*X^2", CTXT)
    k = dixmier(WORKED, s, P("X", CTXT))
    assert k == P("X", CTXT) - P("t", CTXT) * s
    assert WORKED.apply(k).is_zero()


def test_dixmier_requires_slice():
    with pytest.raises(DomainError):
        dixmier(NEGATIVE, P("X", CTXT), P("Y", CTXT))


def test_kernel_generators_partial():
    assert kernel_generators(DY, P("Y"), Subalgebra.full(CTX)) == [P("X")]


def test_kernel_generators_worked():
    s = P("Y + 1/2*t*X^2", CTXT)
    gens = kernel_generators(WORKED, s, Subalgebra.full(CTXT))
    assert gens[0] == P("X - t*Y - 1/2*t^2*X^2", CTXT)
    for k in gens:
        assert WORKED.apply(k).is_zero()


def test_verify_slice_theorem_trivial():
    cert = verify_slice_theorem(DY, P("Y"), Subalgebra.full(CTX), 2)
    assert cert.kernel_generators == (P("X"),)
    target = Subalgebra(CTX, (), (P("X"), P("Y")))
    for g, w in zip((P("X"), P("Y")), cert.reexpression):
        assert w.evaluate(target) == g


def test_verify_slice_theorem_worked_instance():
    s = P("Y + 1/2*t*X^2", CTXT)
    S = Subalgebra.full(CTXT)
    cert = verify_slice_theorem(WORKED, s, S)
    assert not isinstance(cert, IncompleteReexpression)
    K = P("X - t*Y - 1/2*t^2*X^2", CTXT)
    assert cert.kernel_generators[0] == K
    # the stated identities, re-checked by the substitute oracle term for term
    ts = P("t", CTXT) * s
    assert P("X", CTXT) == K + ts
    assert P("Y", CTXT) == s - P("1/2*t", CTXT) * (K + ts) ** 2
    target = Subalgebra(CTXT, S.base_generators, cert.kernel_generators + (s,))
    for g, w in zip(S.algebra_generators, cert.reexpression):
        assert w.evaluate(target) == g


def test_verify_slice_theorem_guards_sham_slice():
    with pytest.raises(DomainError):
        verify_slice_theorem(NEGATIVE, P("X", CTXT), Subalgebra.full(CTXT), 4)


def test_dixmier_projection_is_ring_homomorphism():
    rng = random.Random(11)
    s = P("Y + 1/2*t*X^2", CTXT)
    for _ in range(40):
        p = rand_poly(rng, CTXT, max_degree=2, max_terms=3)
        q = rand_poly(rng, CTXT, max_degree=2, max_terms=3)
        assert dixmier(WORKED, s, p * q) == dixmier(WORKED, s, p) * dixmier(WORKED, s, q)
        assert dixmier(WORKED, s, p + q) == dixmier(WORKED, s, p) + dixmier(WORKED, s, q)


def test_dixmier_fixes_kernel_basis():
    from lndkit import kernel_up_to_degree

    s = P("Y + 1/2*t*X^2", CTXT)
    for f in kernel_up_to_degree(WORKED, Subalgebra.full(CTXT), 4):
        assert dixmier(WORKED, s, f) == f


# -- retraction-composed derivations -----------------------------------------


def retraction_plain():
    ctx = VarContext(("t",), ("W", "U1", "U2"))
    S = Subalgebra.full(ctx)
    images = {"U1": parse_polynomial("U1", ctx), "U2": parse_polynomial("U2", ctx)}
    return RetractionSpec(S, "W", images), ctx


def retraction_proper():
    """Target generated by W and U1; U2 retracts onto a polynomial in U1."""
    ctx = VarContext(("t",), ("W", "U1", "U2"))
    S = Subalgebra(
        ctx, (parse_polynomial("t", ctx),),
        (parse_polynomial("W", ctx), parse_polynomial("U1", ctx)),
    )
    images = {
        "U1": parse_polynomial("U1", ctx),
        "U2": parse_polynomial("U1^2 - t*U1", ctx),
    }
    return RetractionSpec(S, "W", images), ctx


def test_retraction_identity_gives_partial_derivative():
    spec, ctx = retraction_plain()
    rd = lnd_from_retraction(spec)
    w = parse_polynomial("W", ctx)
    assert rd.apply_composed(w) == Polynomial.one(ctx)
    assert rd.apply_composed(parse_polynomial("U1*W^3", ctx)) == parse_polynomial(
        "3*U1*W^2", ctx
    )


def test_retraction_falling_factorial_identity():
    spec, ctx = retraction_proper()
    rd = lnd_from_retraction(spec)
    alpha = parse_polynomial("U1^2 + t", ctx)  # fixed by the retraction
    m = 3
    w = parse_polynomial("W", ctx)
    f = alpha * w ** m
    for i in range(1, m + 1):
        factor = 1
        for j in range(i):
            factor *= m - j
        assert rd.iterate_composed(f, i) == factor * alpha * w ** (m - i)
    assert rd.iterate_composed(f, m + 1).is_zero()


def test_retraction_nilpotency_certified():
    spec, _ = retraction_proper()
    rd = lnd_from_retraction(spec)
    assert rd.nilpotency.certified


def test_retraction_kernel_generators_are_the_retraction_images():
    # with slice variable W, projecting the generators lands exactly on the
    # retraction images of the other variables
    spec, ctx = retraction_proper()
    rd = lnd_from_retraction(spec)
    S = spec.subalgebra
    span = GeneratorSpan(S, 6)
    w = parse_polynomial("W", ctx)
    gens = kernel_generators(rd.restricted, w, S, span)
    assert gens == [parse_polynomial("U1", ctx)]


def test_retraction_rejects_unfixed_generators():
    ctx = VarContext(("t",), ("W", "U1"))
    S = Subalgebra.full(ctx)
    with pytest.raises(ValueError):
        RetractionSpec(S, "W", {"U1": parse_polynomial("U1 + 1", ctx)})


def test_retraction_rejects_images_involving_slice_variable():
    ctx = VarContext(("t",), ("W", "U1"))
    S = Subalgebra(ctx, (parse_polynomial("t", ctx),), (parse_polynomial("W", ctx),))
    with pytest.raises(ValueError):
        RetractionSpec(S, "W", {"U1": parse_polynomial("W^2", ctx)})


# -- complementary derivation -------------------------------------------------


def test_complementary_trivial_full_ring():
    ctx = VarContext(("t",), ("V", "U"))
    S = Subalgebra.full(ctx)
    cctx = coordinate_context(ctx)
    wit = [
        CoordinateWitness(parse_polynomial("V_", cctx), 0),
        CoordinateWitness(parse_polynomial("U0_", cctx), 0),
    ]
    out = complementary_lnd(
        S,
        parse_polynomial("V", ctx),
        parse_polynomial("U", ctx),
        parse_polynomial("t", ctx),
        wit,
        alpha_cap=2,
        member_bound=4,
        kernel_bound=3,
    )
    assert out.alpha == 0
    assert [str(i) for i in out.derivation.images] == ["0", "1"]
    assert out.nilpotency.certified


def test_complementary_uncleared_denominator_fails_at_cap_zero():
    # coordinates (V, t*U): expressing U needs 1/t, so alpha 0 cannot clear
    ctx = VarContext(("t",), ("V", "U"))
    S = Subalgebra.full(ctx)
    cctx = coordinate_context(ctx)
    wit = [
        CoordinateWitness(parse_polynomial("V_", cctx), 0),
        CoordinateWitness(parse_polynomial("U0_", cctx), 1),  # t*U == U0_ at u0 = t*U
    ]
    args = (
        S,
        parse_polynomial("V", ctx),
        parse_polynomial("t*U", ctx),
        parse_polynomial("t", ctx),
        wit,
    )
    with pytest.raises(FailsUpToCapError) as err:
        complementary_lnd(*args, alpha_cap=0, member_bound=4, kernel_bound=3)
    assert err.value.trace
    # one more clearing power succeeds
    out = complementary_lnd(*args, alpha_cap=1, member_bound=4, kernel_bound=3)
    assert out.alpha == 1


def test_complementary_witness_must_evaluate():
    ctx = VarContext(("t",), ("V", "U"))
    S = Subalgebra.full(ctx)
    cctx = coordinate_context(ctx)
    wit = [
        CoordinateWitness(parse_polynomial("V_ + 1", cctx), 0),
        CoordinateWitness(parse_polynomial("U0_", cctx), 0),
    ]
    with pytest.raises(DomainError):
        complementary_lnd(
            S,
            parse_polynomial("V", ctx),
            parse_polynomial("U", ctx),
            parse_polynomial("t", ctx),
            wit,
            alpha_cap=1,
            member_bound=4,
            kernel_bound=3,
        )


# -- transcendence and proportionality ----------------------------------------


def test_transcendence_of_a_variable():
    S = Subalgebra.full(CTX)
    out = transcendence_check(DY, P("Y"), S, 5)
    assert out.no_relation


def test_transcendence_degenerate_base_element():
    # x already lies in the base span; a sham unit-image derivation (images
    # handed directly, not a genuine derivation) drives the degenerate guard
    ctx = VarContext(("X",), ("Y",))
    x = P("X^4", ctx)
    S = Subalgebra(ctx, (P("X^2", ctx), P("X^3", ctx)), (x,))
    sham = RestrictedDerivation(S, (Polynomial.one(ctx),))
    out = transcendence_check(sham, x, S, 4)
    assert out.relation is not None
    a = out.relation
    assert a[1] == Polynomial.one(ctx)
    assert a[0] == -x
    assert all(c.is_zero() for c in a[2:])


def test_transcendence_worked_slice():
    S = Subalgebra.full(CTXT)
    s = P("Y + 1/2*t*X^2", CTXT)
    out = transcendence_check(WORKED, s, S, 4)
    assert out.no_relation


def test_transcendence_over_trivial_base():
    # no coefficient variables at all: the base span is just the rationals
    ctx = VarContext((), ("Y",))
    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {"Y": Polynomial.one(ctx)})
    out = transcendence_check(d, Polynomial.variable(ctx, "Y"), S, 3)
    assert out.no_relation


def test_transcendence_requires_unit_image():
    S = Subalgebra.full(CTXT)
    with pytest.raises(DomainError):
        transcendence_check(WORKED, P("X", CTXT), S, 3)  # image t is not a unit


def test_proportionality_scaled_partial():
    S = Subalgebra.full(CTX)
    d = restriction_of(DY, S)
    d1 = restriction_of(D_of(CTX, X="0", Y="3"), S)
    out = proportionality_check(d1, d, [Polynomial.zero(CTX), Polynomial.one(CTX)], S)
    assert out.proportional and out.factor == P("3")


def test_proportionality_counterexample():
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d = restriction_of(D_of(ctx, X="0", Y="1"), S)
    d1 = restriction_of(D_of(ctx, X="1", Y="0"), S)
    out = proportionality_check(d1, d, [Polynomial.zero(ctx), Polynomial.one(ctx)], S)
    assert not out.proportional
    assert out.counterexample == P("X", ctx)


def test_proportionality_requires_valid_witness():
    S = Subalgebra.full(CTX)
    d = restriction_of(DY, S)
    d1 = restriction_of(DY, S)
    with pytest.raises(DomainError):
        proportionality_check(d1, d, [Polynomial.one(CTX), Polynomial.zero(CTX)], S)


# -- coordinate systems --------------------------------------------------------


def test_coordinate_pair_two_derivations():
    ctx = VarContext(("t",), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d1 = D_of(ctx, X="1", Y="0")
    d2 = D_of(ctx, X="-3*t*Y^2", Y="1")
    v = parse_polynomial("X + t*Y^3", ctx)
    assert d1.apply(v) == Polynomial.one(ctx)
    assert d2.apply(v).is_zero()
    out = coordinate_system([d1, d2], [v], S, 8)
    assert not isinstance(out, IncompleteReexpression)
    assert out.coordinates[0] == v
    assert out.coordinates[1] == parse_polynomial("Y", ctx)
    target = Subalgebra(ctx, S.base_generators, out.coordinates)
    for g, w in zip(S.algebra_generators, out.witnesses):
        assert w.evaluate(target) == g


def test_coordinate_triple_three_derivations():
    ctx = VarContext(("t",), ("X", "Y", "Z"))
    S = Subalgebra.full(ctx)
    d1 = D_of(ctx, X="1", Y="0", Z="0")
    d2 = D_of(ctx, X="-2*t*Y", Y="1", Z="0")
    d3 = D_of(ctx, X="4*t^2*Y*Z - 3*Z^2", Y="-2*t*Z", Z="1")
    v = parse_polynomial("X + t*Y^2 + Z^3", ctx)
    w = parse_polynomial("Y + t*Z^2", ctx)
    assert d1.apply(v) == Polynomial.one(ctx)
    assert d2.apply(v).is_zero() and d2.apply(w) == Polynomial.one(ctx)
    assert d3.apply(v).is_zero() and d3.apply(w).is_zero()
    out = coordinate_system([d1, d2, d3], [v, w], S, 8)
    assert not isinstance(out, IncompleteReexpression)
    assert out.coordinates[:2] == (v, w)
    assert out.coordinates[2] == parse_polynomial("Z", ctx)
    target = Subalgebra(ctx, S.base_generators, out.coordinates)
    for g, wit in zip(S.algebra_generators, out.witnesses):
        assert wit.evaluate(target) == g


def test_coordinate_system_rejects_unkilled_given():
    ctx = VarContext(("t",), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d1 = D_of(ctx, X="1", Y="0")
    d2 = D_of(ctx, X="Y", Y="1")  # does not kill X
    with pytest.raises(DomainError):
        coordinate_system([d1, d2], [parse_polynomial("X", ctx)], S, 4)
