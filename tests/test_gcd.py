"""Multivariate gcd: examples and the exact-division property."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lndkit
from lndkit import (
    ContextMismatchError, DomainError, Polynomial, VarContext, divides, exact_divide, gcd,
    parse_polynomial, polygcd,
)
from lndkit.polynomial import mono_div, mono_divides

from helpers import rand_poly

CTX = VarContext((), ("X", "Y"))
CTXT = VarContext(("t",), ("X", "Y"))


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def test_monomial_gcd():
    assert gcd(P("X^2"), P("X^3")) == P("X^2")


def test_common_factor_by_hand():
    # X^2 - Y^2 = (X+Y)(X-Y); X^2 + 2XY + Y^2 = (X+Y)^2
    assert gcd(P("X^2 - Y^2"), P("X^2 + 2*X*Y + Y^2")) == P("X + Y")


def test_gcd_fold():
    # The fold stops at the first constant gcd; one polynomial comes back as it is.
    assert polygcd.gcd_fold([P("2*X^2 - 2*Y^2")]) == P("2*X^2 - 2*Y^2")
    assert polygcd.gcd_fold([P("X^2 - Y^2"), P("3*X + 3*Y"), P("X^2 + Y")]) == P("1")
    assert polygcd.gcd_fold([P("X^2 - Y^2"), P("X*Y + Y^2"), P("2*X + 2*Y")]) == P("X + Y")


def test_gcd_of_high_degree_inputs():
    # X^150 is built as X^100 times X^50, since the parser caps it;
    # pseudo-division raises the leading coefficient to computed powers
    # above the ``**`` cap.
    assert gcd(P("X^100") * P("X^50"), P("X")) == P("X")
    assert gcd(P("X^100") * P("X^50 - X^49"), P("X^2 - 1")) == P("X - 1")
    assert gcd(P("X^100") * P("X^50*Y"), P("2*X*Y^2 + X*Y")) == P("X*Y")


def test_unit_gcd():
    assert gcd(P("3*X"), P("5")) == P("1")


def test_gcd_with_zero():
    assert gcd(P("2*X + 2"), Polynomial.zero(CTX)) == P("X + 1")


def test_gcd_both_zero_rejected():
    with pytest.raises(DomainError):
        gcd(Polynomial.zero(CTX), Polynomial.zero(CTX))


def test_gcd_is_lex_monic():
    g = gcd(P("4*X^2 + 4*X"), P("6*X^2 - 6"))
    assert g == P("X + 1")


def test_coefficient_variables_participate():
    assert gcd(P("t*Y", CTXT), P("t*X", CTXT)) == P("t", CTXT)


def test_exact_divide():
    q = exact_divide(P("X^2 - Y^2"), P("X - Y"))
    assert q == P("X + Y")
    assert exact_divide(P("X^2 + 1"), P("X")) is None
    with pytest.raises(DomainError):
        exact_divide(P("X"), Polynomial.zero(CTX))
    with pytest.raises(ContextMismatchError):
        exact_divide(P("X"), P("X", CTXT))
    with pytest.raises(ContextMismatchError):
        exact_divide(P("X"), P("2", CTXT))


def _reference_exact_divide(p, d):
    """Division that rebuilds the remainder once per quotient term."""
    ctx = p.context
    quotient = {}
    rem = p
    d_mono, d_coeff = d.lex_leading()
    while not rem.is_zero():
        r_mono, r_coeff = rem.lex_leading()
        if not mono_divides(d_mono, r_mono):
            return None
        q_mono = mono_div(r_mono, d_mono)
        q_coeff = r_coeff / d_coeff
        quotient[q_mono] = quotient.get(q_mono, Fraction(0)) + q_coeff
        rem = rem - Polynomial(ctx, {q_mono: q_coeff}) * d
    return Polynomial(ctx, quotient)


def _reference_deg_in(p, i):
    return max((m[i] for m in p.terms), default=-1)


def _reference_lead_coeff_in(p, i):
    d = _reference_deg_in(p, i)
    return Polynomial(p.context, {m[:i] + (0,) + m[i + 1:]: c for m, c in p.terms.items() if m[i] == d})


def _reference_shift(p, i, k):
    return Polynomial(p.context, {m[:i] + (m[i] + k,) + m[i + 1:]: c for m, c in p.terms.items()})


def _reference_prem(a, b, i):
    """Pseudo-remainder through whole-polynomial arithmetic at every step."""
    da, db = _reference_deg_in(a, i), _reference_deg_in(b, i)
    lc_b = _reference_lead_coeff_in(b, i)
    rem = a
    steps = da - db + 1
    while not rem.is_zero() and _reference_deg_in(rem, i) >= db:
        dr = _reference_deg_in(rem, i)
        rem = lc_b * rem - _reference_shift(_reference_lead_coeff_in(rem, i) * b, i, dr - db)
        steps -= 1
    if steps > 0:
        rem = rem * lc_b ** steps
    return rem


CTX3 = VarContext((), ("x", "y", "z"))


def _poly(nvars, max_size):
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    ctx = CTX if nvars == 2 else CTX3
    return st.dictionaries(mono, coeff, max_size=max_size).map(lambda t: Polynomial(ctx, t))


def _constant(nvars):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    ctx = CTX if nvars == 2 else CTX3
    return st.one_of(st.just(Fraction(1)), coeff).map(lambda c: Polynomial.constant(ctx, c))


@st.composite
def _division_cases(draw):
    nvars = draw(st.integers(2, 3))
    divisor = st.one_of(_poly(nvars, 3), _constant(nvars))  # scaled, not divided
    a, d, r = draw(_poly(nvars, 4)), draw(divisor), draw(_poly(nvars, 2))
    return a, d, r


@given(_division_cases())
@settings(max_examples=150, deadline=None)
def test_in_place_division_and_pseudo_remainder_match_the_references(case):
    a, d, r = case
    if not d.is_zero():
        for p in (a * d, a * d + r, a):  # exact, perturbed and arbitrary dividends
            assert exact_divide(p, d) == _reference_exact_divide(p, d)
        assert exact_divide(a * d, d) == a
    for i in range(a.context.nvars):
        if _reference_deg_in(d, i) > 0 and _reference_deg_in(a, i) >= _reference_deg_in(d, i):
            assert polygcd._prem(a, d, i) == _reference_prem(a, d, i)
            assert polygcd._prem(a * d, d, i).is_zero()


@given(st.integers(0, 2 ** 30))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both_inputs(seed):
    rng = random.Random(seed)
    common = rand_poly(rng, CTX, max_degree=2, max_terms=2, allow_zero=False)
    p = common * rand_poly(rng, CTX, max_degree=2, max_terms=2, allow_zero=False)
    q = common * rand_poly(rng, CTX, max_degree=2, max_terms=2, allow_zero=False)
    if p.is_zero() and q.is_zero():
        return
    g = gcd(p, q)
    assert p.is_zero() or divides(g, p)
    assert q.is_zero() or divides(g, q)
    if not (p.is_zero() or q.is_zero()) and not common.is_constant():
        assert divides(common.monic_lex(), g) or divides(g, p * q)


def test_package_checks_survive_optimized_mode():
    """``python -O`` strips ``assert`` statements, so invariant checks such as
    the gcd postcondition must raise explicitly."""
    root = Path(lndkit.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


# -- the heuristic gcd and its fallback ---------------------------------------

CTX1 = VarContext((), ("x",))
CTX4 = VarContext((), ("a", "b", "c", "d"))
GCD_CONTEXTS = (CTX1, CTX, CTX3, CTX4, CTXT)


def _side(ctx):
    """A gcd operand: any small polynomial, six times one, or zero, a
    constant or a monomial."""
    mono = st.tuples(*[st.integers(0, 3)] * ctx.nvars)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=4).map(lambda t: Polynomial(ctx, t))
    return st.one_of(
        poly,
        poly.map(lambda p: 6 * p),
        st.just(Polynomial.zero(ctx)),
        coeff.map(lambda c: Polynomial.constant(ctx, c)),
        st.builds(lambda m, c: Polynomial(ctx, {m: c}), mono, coeff),
    )


@st.composite
def _gcd_cases(draw):
    ctx = draw(st.sampled_from(GCD_CONTEXTS))
    common = draw(_side(ctx).filter(bool))
    return common * draw(_side(ctx)), common * draw(_side(ctx))


@given(_gcd_cases())
@settings(max_examples=300, deadline=None)
def test_gcd_matches_the_remainder_sequence(case):
    p, q = case
    if p.is_zero() and q.is_zero():
        return
    assert gcd(p, q) == polygcd._gcd_inner(p, q)


def _workload_triples(count=80):
    """Planted-factor triples shaped like the benchmark's: three variables,
    each product of degree at most 6."""
    rng = random.Random(24)
    triples = []
    while len(triples) < count:
        planted, a, b = (rand_poly(rng, CTX3, max_degree=3, max_terms=4, allow_zero=False)
                         for _ in range(3))
        if not any(f.is_constant() for f in (planted, a, b)):
            triples.append((planted * a, planted * b, polygcd._gcd_inner(planted * a, planted * b)))
    return triples


def _recorder(monkeypatch, name):
    """Patch ``polygcd.<name>`` to record each call's arguments and pass it on."""
    calls, real = [], getattr(polygcd, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polygcd, name, record)
    return calls


def test_the_heuristic_answers_workload_shaped_gcds_without_the_fallback(monkeypatch):
    triples = _workload_triples()
    calls = _recorder(monkeypatch, "_gcd_inner")
    for p, q, want in triples:
        assert gcd(p, q) == want
    assert calls == []


@pytest.mark.parametrize("k", [20, 30])
def test_dense_powers_decline_before_any_evaluation(monkeypatch, k):
    x, y, z = (Polynomial.variable(CTX3, v) for v in "xyz")
    base = (x + y + z + 1) ** k
    p, q = base * (x - y), base * (x + z)
    assert polygcd._predicted_bits(p._num, q._num) > polygcd._HEURISTIC_MAX_BITS
    evaluations = _recorder(monkeypatch, "_evaluate")
    fallbacks = _recorder(monkeypatch, "_gcd_inner")
    remainders = _recorder(monkeypatch, "_prem")
    assert gcd(p, q) == base.monic_lex()
    assert evaluations == [] and fallbacks[0] == (p, q)
    assert len(remainders) <= k + 2  # a work bound, not a clock: k + 2 pseudo-remainders at k = 20 and 30


def test_the_fallback_answers_when_the_heuristic_makes_no_attempt(monkeypatch):
    triples = _workload_triples(20)
    monkeypatch.setattr(polygcd, "_HEURISTIC_ATTEMPTS", 0)
    calls = _recorder(monkeypatch, "_gcd_inner")
    for p, q, want in triples:
        calls.clear()
        assert gcd(p, q) == want
        assert calls[0] == (p, q)


def _integer_poly(ctx):
    mono = st.tuples(*[st.integers(0, 3)] * ctx.nvars)
    coeff = st.integers(-50, 50).filter(bool)
    return st.dictionaries(mono, coeff, min_size=1, max_size=4).map(lambda t: Polynomial(ctx, t))


@st.composite
def _factor_pairs(draw):
    ctx = draw(st.sampled_from(GCD_CONTEXTS))
    return draw(_integer_poly(ctx)), draw(_integer_poly(ctx))


@given(_factor_pairs())
@settings(max_examples=200, deadline=None)
def test_the_bound_of_a_product_covers_the_coefficients_of_its_factors(pair):
    u, v = pair
    bound = polygcd._bound((u * v)._num)
    assert all(abs(c) <= bound for c in (*u._num.values(), *v._num.values()))
