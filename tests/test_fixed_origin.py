"""Derivations that fix the origin: the early exits agree with the searches they skip.

When every image D(x) vanishes at the origin, so does every D(p) and every
element of the ideal the images generate.  ``find_slice``,
``subalgebra_fpf`` and ``ideal_member`` (and through it
``is_fixed_point_free``) then return None before they build products or a
Groebner basis.  The references, here and in ``helpers``, are those
functions' bounded bodies without the exit; on every draw both must give
the same answer, or raise the same error.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit import (
    Derivation,
    DomainError,
    GeneratorSpan,
    LndkitError,
    Polynomial,
    RestrictedDerivation,
    Subalgebra,
    VarContext,
    buchberger,
    find_slice,
    ideal_member,
    is_fixed_point_free,
    kernel_up_to_degree,
    normal_form,
    parse_polynomial,
    restriction_of,
    subalgebra_fpf,
)
from lndkit import subalgebra
from lndkit.errors import UnsupportedSizeError, invariant
from lndkit.groebner import _row_sum
from lndkit.linalg import combine, vec_of
from lndkit.subalgebra import PRODUCT_CAP

from helpers import (reference_find_slice, reference_kernel, reference_product_images,
                     reference_subalgebra_fpf)

CTXT = VarContext(("t",), ("X", "Y"))


def P(text):
    return parse_polynomial(text, CTXT)


SUBALGEBRAS = (
    Subalgebra.full(CTXT),
    Subalgebra(CTXT, (P("t"),), (P("X"), P("Y^2"), P("X*Y"))),
    Subalgebra(CTXT, (P("t^2"),), (P("X + t"), P("Y^2 - 1"))),
)


# -- the bounded bodies, without the exit -------------------------------------

def _reference_find_slice(D, S, bound):
    s = reference_find_slice(D, S, bound)
    if s is None:
        return None
    span = GeneratorSpan(S, bound) if isinstance(D, RestrictedDerivation) else None
    invariant(D.apply(s, span) == Polynomial.one(S.context), "slice candidate failed the image check")
    return s


def _reference_ideal_member(p, gens, order=None):
    if not gens:
        raise DomainError("ideal membership over an empty generator list")
    gb = buchberger(gens, order)
    if not gb.generators:
        return [Polynomial.zero(p.context) for _ in gens] if p.is_zero() else None
    rem, quots = normal_form(p, list(gb.generators), gb.order)
    if not rem.is_zero():
        return None
    cof = _row_sum(p.context, [(q, row) for q, row in zip(quots, gb.cofactors) if q], len(gens))
    invariant(Polynomial.combine(p.context, zip(cof, gens)) == p,
              "membership cofactors failed re-verification")
    return cof


def _reference_is_fixed_point_free(D):
    names = [n for n in D.context.main_vars if not D.images[n].is_zero()]
    if not names:
        return None
    one = Polynomial.one(D.context)
    cof = _reference_ideal_member(one, [D.images[n] for n in names])
    if cof is None:
        return None
    return {n: c for n, c in zip(names, cof)}


def _outcome(f, *args):
    """The result, or the type of the library error raised."""
    try:
        return f(*args)
    except LndkitError as exc:
        return type(exc)


# -- draws ---------------------------------------------------------------------

def _shaped(drawn):
    """The drawn polynomial with the drawn nonzero constant term, with no
    constant term, or zero."""
    p, constant, shape = drawn
    if shape == "zero":
        return Polynomial.zero(CTXT)
    p = Polynomial(CTXT, {m: c for m, c in p.terms.items() if any(m)})
    return p + constant if shape == "constant" else p


def _images(max_terms=3):
    """Polynomials of degree <= 1 per variable with rational coefficients,
    each with a nonzero constant term, without one, or zero."""
    monomial = st.tuples(*[st.integers(0, 1)] * CTXT.nvars)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    poly = st.dictionaries(monomial, coeff, max_size=max_terms).map(lambda t: Polynomial(CTXT, t))
    shape = st.sampled_from(["constant", "no-constant", "zero"])
    return st.tuples(poly, coeff.filter(bool), shape).map(_shaped)


BOUNDS = st.integers(1, 3)


@given(st.lists(_images(), min_size=2, max_size=2), BOUNDS)
@settings(max_examples=120, deadline=None)
def test_full_derivation_searches_match_the_references(images, bound):
    D = Derivation(CTXT, dict(zip(CTXT.main_vars, images)))
    S = Subalgebra.full(CTXT)
    assert _outcome(find_slice, D, S, bound) == _outcome(_reference_find_slice, D, S, bound)
    assert _outcome(is_fixed_point_free, D) == _outcome(_reference_is_fixed_point_free, D)


@given(st.sampled_from(SUBALGEBRAS), st.data(), BOUNDS)
@settings(max_examples=120, deadline=None)
def test_restricted_searches_match_the_references(S, data, bound):
    images = data.draw(st.lists(_images(), min_size=len(S.algebra_generators),
                                max_size=len(S.algebra_generators)))
    rd = RestrictedDerivation(S, tuple(images))
    assert _outcome(find_slice, rd, S, bound) == _outcome(_reference_find_slice, rd, S, bound)
    assert _outcome(subalgebra_fpf, rd, bound) == _outcome(reference_subalgebra_fpf, rd, bound)
    assert _outcome(kernel_up_to_degree, rd, S, bound) == _outcome(reference_kernel, rd, S, bound)


@given(st.sampled_from(SUBALGEBRAS), st.lists(_images(), min_size=2, max_size=2), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_the_one_solver_matches_the_insert_every_product_solvers(S, images, bound):
    """Slice and kernel basis over the rref rows of the span equal those of
    the solvers that inserted every product's image, for an ambient
    derivation and for its restriction; bound 4 meets the relation
    X^2 * Y^2 == (X*Y)^2 of the second subalgebra."""
    D = Derivation(CTXT, dict(zip(CTXT.main_vars, images)))
    for d in (D, restriction_of(D, S)):
        assert find_slice(d, S, bound) == reference_find_slice(d, S, bound)
        assert kernel_up_to_degree(d, S, bound) == reference_kernel(d, S, bound)


@given(st.sampled_from(SUBALGEBRAS), st.data(), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_span_images_match_the_references(S, data, bound):
    """``GeneratorSpan.images`` by the Leibniz rule over the span's own
    products equals the power-rebuilding reference for a restricted
    derivation, or raises DomainError exactly when those images break a
    relation among the products (bound 4 meets X^2 * Y^2 == (X*Y)^2 of the
    second subalgebra); for an ambient derivation on a proper subalgebra
    it equals D applied to each product."""
    ngens = len(S.algebra_generators)
    rd = RestrictedDerivation(S, tuple(data.draw(st.lists(_images(), min_size=ngens, max_size=ngens))))
    span = GeneratorSpan(S, bound)
    reference = [vec_of(img) for img in reference_product_images(rd, span.products)]
    if any(combine([(reference[j], d), *((reference[k], -c) for k, c in num.items())])[0]
           for j, (num, d) in span.relations):
        with pytest.raises(DomainError, match="break the relation"):
            span.images(rd)
    else:
        assert [vec_of(img) for img in span.images(rd)] == reference
    if not S.full_ring:
        D = Derivation(CTXT, dict(zip(CTXT.main_vars, data.draw(st.lists(_images(), min_size=2, max_size=2)))))
        assert span.images(D) == [D.apply(p) for _, p in span.products]


@given(_images(4), st.lists(_images(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_ideal_member_matches_the_reference(p, gens):
    assert _outcome(ideal_member, p, gens) == _outcome(_reference_ideal_member, p, gens)


# -- the outcome that changes --------------------------------------------------

NEGATIVE = Derivation(CTXT, {"X": P("Y"), "Y": P("0")})
MISS = Derivation(CTXT, {"X": P("0"), "Y": P("X - 1")})


def test_a_fixed_origin_past_the_product_cap_is_a_plain_miss():
    """The products of the full ring up to bound 150 exceed PRODUCT_CAP, so
    the bounded search raises UnsupportedSizeError; a derivation that fixes
    the origin is answered before any product is built."""
    S = Subalgebra.full(CTXT)
    bound = 150
    assert math.comb(bound + CTXT.nvars, CTXT.nvars) > PRODUCT_CAP
    assert NEGATIVE.fixes_origin()
    assert find_slice(NEGATIVE, S, bound) is None
    assert find_slice(restriction_of(NEGATIVE, S), S, bound) is None
    assert subalgebra_fpf(restriction_of(NEGATIVE, S), bound) is None


def test_a_miss_off_the_origin_still_meets_the_product_cap(monkeypatch):
    """A derivation that does not fix the origin still runs the bounded
    search into the cap, here lowered to 10 products, which bound 3 (20
    products) exceeds."""
    monkeypatch.setattr(subalgebra, "PRODUCT_CAP", 10)
    S = Subalgebra.full(CTXT)
    assert not MISS.fixes_origin()
    with pytest.raises(UnsupportedSizeError):
        find_slice(MISS, S, 3)
    with pytest.raises(UnsupportedSizeError):
        subalgebra_fpf(restriction_of(MISS, S), 3)
    assert find_slice(NEGATIVE, S, 3) is None
