"""Polynomial arithmetic, calculus, substitution, and canonical form."""

import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit import (
    ContextMismatchError,
    MonomialOrder,
    Polynomial,
    UnknownVariableError,
    UnsupportedSizeError,
    VarContext,
    exact_divide,
    gcd,
    normal_form,
    parse_polynomial,
    polygcd,
)
from lndkit.polynomial import MAX_EXPONENT

from helpers import assert_canonical, rand_poly, reference_substitute

CTX = VarContext((), ("X", "Y"))
CTXT = VarContext(("t",), ("X", "Y"))


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def test_addition_cancels():
    assert P("X + 1") + P("X - 1") == P("2*X")


def test_difference_of_squares():
    assert P("X + Y") * P("X - Y") == P("X^2 - Y^2")


def test_rational_coefficient_product():
    # (1/2)X * (2/3)X: cross-multiplied by hand, 1*2/(2*3) = 1/3
    assert P("1/2*X") * P("2/3*X") == P("1/3*X^2")


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        P("X") + P("X", CTXT)


def test_zero_degree_sentinel():
    assert Polynomial.zero(CTX).degree() is None
    assert Polynomial.one(CTX).degree() == 0
    assert P("X*Y^2").degree() == 3


def test_power_rule():
    assert P("X^3").partial_derivative("X") == P("3*X^2")


def test_derivative_of_scaled_power():
    # d/dW of a(U)*W^m drops one W and multiplies by m
    ctx = VarContext((), ("U", "W"))
    p = parse_polynomial("(U^2 + 1)*W^3", ctx)
    assert p.partial_derivative("W") == parse_polynomial("3*(U^2 + 1)*W^2", ctx)


def test_derivative_constant_in_variable():
    assert P("X^2 + 3").partial_derivative("Y") == Polynomial.zero(CTX)


def test_derivative_unknown_variable():
    with pytest.raises(UnknownVariableError):
        P("X").partial_derivative("Z")


def test_substitute_root():
    assert P("X^2 - Y").substitute({"X": 2, "Y": 4}).is_zero()


def test_substitute_shift():
    assert P("X*Y").substitute({"X": P("X + 1")}) == P("X*Y + Y")


def test_substitute_fiber_specialization():
    ctx = VarContext(("X",), ("V", "W"))
    g = parse_polynomial("W + X*V^2*W^2", ctx)
    assert g.substitute({"X": 0}) == parse_polynomial("W", ctx)


def test_substitute_unknown_variable():
    with pytest.raises(UnknownVariableError):
        P("X").substitute({"Z": P("Y")})


def test_substitute_across_contexts():
    target = VarContext((), ("A", "B"))
    p = P("X^2 + Y")
    image = p.substitute(
        {"X": Polynomial.variable(target, "A"), "Y": Polynomial.variable(target, "B")},
        context=target,
    )
    assert image == parse_polynomial("A^2 + B", target)


_SOURCE = VarContext(("t",), ("X", "Y"))
_WIDER = VarContext(("s",), ("X", "Y", "Z"))  # shares X and Y, lacks t
_DISJOINT = VarContext((), ("A", "B"))
_TARGETS = (_SOURCE, _WIDER, _DISJOINT)


def _outcome(substitute, p, bindings, target):
    """``(_num, _den, context)`` of the image, or the type of the error raised."""
    try:
        r = substitute(p, bindings, target)
    except (ContextMismatchError, UnknownVariableError) as e:
        return type(e)
    return r._num, r._den, r.context


@st.composite
def _substitution(draw):
    """A source polynomial (zero included), a target context and bindings
    that mix polynomial images, scalars and unbound variables; an image
    sometimes lives outside the target, and a binding sometimes names a
    variable the source lacks."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def poly(ctx, max_exp, min_size=0):
        monos = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
        terms = st.dictionaries(monos, coeff, min_size=min_size, max_size=4)
        return terms.map(lambda terms: Polynomial(ctx, terms))

    rarely = st.integers(0, 9).map(lambda k: k == 5)
    p = draw(poly(_SOURCE, 3, min_size=0 if draw(rarely) else 1))
    target = draw(st.sampled_from(_TARGETS))
    bindings = {}
    for name in _SOURCE.variables:
        kind = draw(st.sampled_from(["polynomial", "scalar", "unbound"]))
        if kind == "unbound" and name not in target.variables and not draw(rarely):
            kind = "polynomial"  # mostly keep the unbound variables the target has
        if kind == "polynomial":
            ctx = draw(st.sampled_from(_TARGETS)) if draw(rarely) else target
            bindings[name] = draw(poly(ctx, 2, min_size=0 if draw(rarely) else 1))
        elif kind == "scalar":
            bindings[name] = draw(st.integers(-3, 3) | coeff)
    if draw(rarely):
        bindings["Z"] = draw(poly(target, 1))
    return p, bindings, target


@given(_substitution())
@settings(max_examples=400, deadline=None)
def test_substitute_matches_the_reference(substitution):
    """The one-pass integer substitution gives the reference's fields, or
    raises the reference's error."""
    assert _outcome(Polynomial.substitute, *substitution) == _outcome(reference_substitute, *substitution)


@pytest.mark.parametrize("p, bindings, target, error", [
    ("X + Y", {"X": Polynomial.variable(_DISJOINT, "A"), "W": 1}, _SOURCE, ContextMismatchError),
    ("X + Y", {"W": 1}, _SOURCE, UnknownVariableError),
    ("X + Y", {"X": Polynomial.variable(_DISJOINT, "A")}, _DISJOINT, UnknownVariableError),
    ("t*X", {"X": Polynomial.variable(_WIDER, "s")}, _WIDER, UnknownVariableError),
    ("X + Y", {"t": 0, "X": Polynomial.variable(_SOURCE, "t")}, _WIDER, ContextMismatchError),
], ids=["image-context-before-foreign-binding", "foreign-binding", "unbound-missing-from-target",
        "unbound-before-bound-image", "image-in-the-source-context"])
def test_substitute_errors_match_the_reference(p, bindings, target, error):
    p = parse_polynomial(p, _SOURCE)
    with pytest.raises(error):
        p.substitute(bindings, target)
    with pytest.raises(error):
        reference_substitute(p, bindings, target)


def test_substitute_builds_one_polynomial(monkeypatch):
    """With every binding a polynomial, one ``_from_ints`` builds the image:
    no ``Polynomial`` per term, power or unbound variable."""
    p = parse_polynomial("t^3*X^2*Y + 2/3*t*X*Y^2 - X^2 + Y + 1/2", _SOURCE)
    bindings = {"X": parse_polynomial("1/2*X + t - 1", _SOURCE), "t": parse_polynomial("3*Y^2 - t", _SOURCE)}
    expected = reference_substitute(p, bindings)
    calls = []
    from_ints, variable = Polynomial._from_ints.__func__, Polynomial.variable.__func__
    monkeypatch.setattr(Polynomial, "_from_ints",
                        classmethod(lambda cls, *a: calls.append("_from_ints") or from_ints(cls, *a)))
    monkeypatch.setattr(Polynomial, "variable",
                        classmethod(lambda cls, *a: calls.append("variable") or variable(cls, *a)))
    image = p.substitute(bindings)
    assert calls == ["_from_ints"]
    assert (image._num, image._den) == (expected._num, expected._den)


def test_contexts_with_filled_caches_compare_and_hash_equal():
    warm, cold = VarContext(("t",), ("X", "Y")), VarContext(("t",), ("X", "Y"))
    assert (warm.variables, warm.nvars, warm.index("Y")) == (("t", "X", "Y"), 3, 2)
    assert "variables" in vars(warm) and "variables" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold) and {cold: 1}[warm] == 1
    assert warm != VarContext(("t",), ("Y", "X")) and warm != VarContext(("t", "X"), ("Y",))
    assert repr(warm) == repr(cold) == "VarContext([t][X,Y])"
    with pytest.raises(UnknownVariableError):
        warm.index("Z")
    with pytest.raises(UnknownVariableError):
        cold.index("Z")


def test_evaluate():
    assert P("X^2 - 2*Y").evaluate({"X": Fraction(3), "Y": Fraction(1, 2)}) == 8


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(seed):
    rng = random.Random(seed)
    p, q, r = (rand_poly(rng, CTXT) for _ in range(3))
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule_for_partials(seed):
    rng = random.Random(seed)
    p, q = rand_poly(rng, CTXT), rand_poly(rng, CTXT)
    name = rng.choice(CTXT.variables)
    lhs = (p * q).partial_derivative(name)
    rhs = p * q.partial_derivative(name) + q * p.partial_derivative(name)
    assert lhs == rhs


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_substitution_is_a_ring_homomorphism(seed):
    rng = random.Random(seed)
    p, q = rand_poly(rng, CTXT), rand_poly(rng, CTXT)
    bindings = {
        "X": rand_poly(rng, CTXT, max_degree=2, max_terms=2),
        "t": rand_poly(rng, CTXT, max_degree=1, max_terms=2),
    }
    assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)
    assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=100, deadline=None)
def test_serialize_parse_roundtrip(seed):
    rng = random.Random(seed)
    p = rand_poly(rng, CTXT, max_degree=5, max_terms=6)
    assert parse_polynomial(str(p), CTXT).terms == p.terms


def test_canonical_form_examples():
    assert str(Polynomial.zero(CTX)) == "0"
    assert str(P("Y + X")) == "X + Y"
    assert str(P("-X^2 + 1/2")) == "-X^2 + 1/2"
    assert str(parse_polynomial("Y + 1/2*t*X^2", CTXT)) == "1/2*t*X^2 + Y"


def test_terms_iterate_descending_lex():
    p = parse_polynomial("Y + t + X", CTXT)
    assert list(p.terms) == sorted(p._num, reverse=True)
    assert p.terms == {m: Fraction(c, p._den) for m, c in p._num.items()}
    with pytest.raises(TypeError):
        iter(p)


@given(st.integers(0, 2 ** 30), st.fractions(max_denominator=6) | st.integers(-4, 4))
@settings(max_examples=100, deadline=None)
def test_arithmetic_results_are_canonical(seed, scalar):
    """Results built without re-validation match the validating constructor."""
    rng = random.Random(seed)
    a, b = rand_poly(rng, CTXT, max_terms=6), rand_poly(rng, CTXT, max_terms=6)
    name = rng.choice(CTXT.variables)
    results = [a + b, a - b, a - a, -a, a * b, a * scalar, scalar * a, a * 0,
               a * Fraction(0), a ** 3, a.partial_derivative(name)]
    rem, quots = normal_form(a, [b], MonomialOrder.degrevlex(CTXT))
    results += [rem, *quots]
    results += [polygcd._prem(a, b, i) for i in range(CTXT.nvars) if polygcd._deg_in(b, i) > 0]
    if b:
        results.append(exact_divide(a * b, b))
    if a or b:
        results.append(gcd(a, b))
    for r in results:
        assert_canonical(r)


def _product(ctx, a, b) -> Polynomial:
    """a * b by the validating constructor, independently of ``combine``."""
    a, b = (x if isinstance(x, Polynomial) else Polynomial.constant(ctx, x) for x in (a, b))
    return Polynomial(ctx, [(tuple(i + j for i, j in zip(m1, m2)), c1 * c2)
                            for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()])


def _naive_combine(ctx, pairs) -> Polynomial:
    """The reference: one new polynomial per accumulated product."""
    acc = Polynomial.zero(ctx)
    for a, b in pairs:
        acc = acc + _product(ctx, a, b)
    return acc


@st.composite
def _combination(draw):
    """A context of 1-3 variables and 0-4 pairs, sides polynomial or scalar;
    half the time the last pair cancels an earlier one."""
    ctx = VarContext((), ("X", "Y", "Z")[: draw(st.integers(1, 3))])
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * ctx.nvars), coeff, max_size=4).map(
        lambda terms: Polynomial(ctx, terms)
    )
    side = poly | st.integers(-3, 3) | coeff
    pairs = draw(st.lists(st.tuples(side, side), max_size=4))
    if len(pairs) >= 2 and draw(st.booleans()):
        a, b = pairs[draw(st.integers(0, len(pairs) - 2))]
        pairs[-1] = (a, -b)
    return ctx, pairs


@given(_combination())
@settings(max_examples=300, deadline=None)
def test_combine_matches_the_naive_loop(combination):
    ctx, pairs = combination
    r = Polynomial.combine(ctx, pairs)
    assert r == _naive_combine(ctx, pairs)
    assert r.context == ctx
    assert_canonical(r)


def _reference_combine(ctx, pairs) -> Polynomial:
    """The ``Fraction`` kernel that the integer ``combine`` replaced: every
    product accumulates as a ``Fraction`` in one term dict."""
    acc = {}
    get = acc.get
    for a, b in pairs:
        if not isinstance(a, Polynomial):
            a, b = b, a
        if isinstance(b, Polynomial):
            b_terms = b.terms.items()
            for m1, c1 in a.terms.items():
                for m2, c2 in b_terms:
                    m = tuple(map(add, m1, m2))
                    prev = get(m)
                    acc[m] = c1 * c2 if prev is None else prev + c1 * c2
            continue
        c = Fraction(b)
        a_terms = a.terms.items() if isinstance(a, Polynomial) else (((0,) * ctx.nvars, Fraction(a)),)
        for m, v in a_terms:
            prev = get(m)
            acc[m] = v * c if prev is None else prev + v * c
    return Polynomial(ctx, {m: c for m, c in acc.items() if c})


def _reference_partial_derivative(p: Polynomial, name: str) -> Polynomial:
    i = p.context.index(name)
    return Polynomial(p.context, {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                                  for m, c in p.terms.items() if m[i]})


@given(_combination(), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_kernels_match_the_fraction_kernels(combination, data):
    """``combine`` and ``partial_derivative`` on numerators over one
    denominator equal their ``Fraction`` references, scalar sides,
    denominators and cancellation to zero included."""
    ctx, pairs = combination
    r = Polynomial.combine(ctx, pairs)
    ref = _reference_combine(ctx, pairs)
    assert r == ref and r.terms == ref.terms and list(r.terms) == list(ref.terms)
    assert_canonical(r)
    name = data.draw(st.sampled_from(ctx.variables))
    d = r.partial_derivative(name)
    assert d == _reference_partial_derivative(r, name)
    assert_canonical(d)
    for a, b in pairs:
        for side in (a, b):
            if isinstance(side, Polynomial):
                assert_canonical(side.partial_derivative(name))


def test_integer_form_of_rational_polynomials():
    p = P("1/2*X - 1/3*Y + 2")
    assert (p._num, p._den) == ({(1, 0): 3, (0, 1): -2, (0, 0): 12}, 6)
    q = p * Fraction(6, 5) - P("2*X")  # 3/5*X - 2/5*Y + 12/5 - 2*X
    assert (q._num, q._den) == ({(1, 0): -7, (0, 1): -2, (0, 0): 12}, 5)
    assert ((p - p)._num, (p - p)._den) == ({}, 1)
    assert (P("2/4*X")._num, P("2/4*X")._den) == ({(1, 0): 1}, 2)
    for r in (p, q, p - p, p * p, -p, p ** 2, p.partial_derivative("X"),
              p.substitute({"X": P("1/7*Y")}), Polynomial.constant(CTX, Fraction(-3, 4))):
        assert_canonical(r)


def test_exponent_cap():
    x = P("X + 1")
    assert (x ** MAX_EXPONENT).degree() == MAX_EXPONENT
    with pytest.raises(UnsupportedSizeError, match="exceeds the cap"):
        x ** (MAX_EXPONENT + 1)


def test_computed_exponents_are_not_capped():
    # The cap guards ``**`` and parsed text; a term X^150 built as X^100
    # times X^50 substitutes through powers the library computes itself.
    high = P(f"X^{MAX_EXPONENT}") * P("X^50") + P("Y")
    assert high.degree() == MAX_EXPONENT + 50
    assert high.substitute({"X": P("Y")}) == P(f"Y^{MAX_EXPONENT}") * P("Y^50") + P("Y")
    assert high.substitute({"X": P("2")}) == P("Y") + 2 ** (MAX_EXPONENT + 50)


def test_combine_of_cancelling_pairs_is_zero():
    a, b = P("X + 1/2"), P("Y - X")
    assert Polynomial.combine(CTX, [(a, b), (-a, b)]).terms == {}
    assert Polynomial.combine(CTX, [(2, b), (b, Fraction(-2))]).terms == {}
    assert Polynomial.combine(CTX, []).terms == {}


def test_combine_rejects_foreign_sides():
    with pytest.raises(ContextMismatchError):
        Polynomial.combine(CTX, [(P("X"), P("X", CTXT))])
    with pytest.raises(ContextMismatchError):
        Polynomial.combine(CTX, [(P("X", CTXT), 2)])
    with pytest.raises(TypeError):
        Polynomial.combine(CTX, [(P("X"), "2")])
    with pytest.raises(TypeError):
        P("X") * 0.5


def test_constructor_rejects_invalid_monomials():
    with pytest.raises(ValueError):
        Polynomial(CTX, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(CTX, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(CTX, {(1, -1): 1})


def test_constructor_coerces_and_merges():
    p = Polynomial(CTX, [((0, 1), 1), ((1, 0), 2), ((0, 1), Fraction(-1, 2)), ((0, 0), 0)])
    assert p.terms == {(1, 0): Fraction(2), (0, 1): Fraction(1, 2)}
    assert list(p.terms) == [(1, 0), (0, 1)]
    assert all(type(c) is Fraction for c in p.terms.values())


def test_immutability():
    p = P("X")
    with pytest.raises(AttributeError):
        p.terms = {}
