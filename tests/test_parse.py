"""Grammar acceptance and rejection for the polynomial parser."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lndkit import PolyParseError, Polynomial, VarContext, parse_polynomial
from lndkit.parse import MAX_NESTING_DEPTH, _power_pairs
from lndkit.polynomial import MAX_EXPONENT, PAIR_BUDGET, TERM_BUDGET

from helpers import rand_poly

CTX = VarContext(("t",), ("X", "Y"))


def P(text):
    return parse_polynomial(text, CTX)


def test_signed_literals():
    assert str(P("-3")) == "-3"
    assert str(P("-1/2")) == "-1/2"
    assert str(P("+4")) == "4"


def test_rational_literal():
    assert P("2/4") == P("1/2")


def test_parentheses_and_precedence():
    assert P("(X + Y)^2") == P("X^2 + 2*X*Y + Y^2")
    assert P("X + Y*X") == P("X*Y + X")


def test_leading_minus_applies_to_term():
    assert P("-t*X + 1") == P("1 - t*X")


def test_implicit_multiplication_rejected():
    with pytest.raises(PolyParseError):
        P("2X")


def test_unknown_variable_with_position():
    with pytest.raises(PolyParseError) as err:
        P("X + Z")
    assert "Z" in str(err.value)
    assert err.value.col == 5


@pytest.mark.parametrize("text, col", [("X^\u00b2", 3), ("\u00b2", 1), ("X^\u0661", 3)])
def test_only_ascii_digits_are_digits(text, col):
    """A superscript two or an Arabic-Indic one is no digit, not even in an exponent."""
    with pytest.raises(PolyParseError) as err:
        P(text)
    assert err.value.col == col


def test_negative_exponent_rejected():
    with pytest.raises(PolyParseError):
        P("X^-2")


def test_rational_exponent_rejected():
    with pytest.raises(PolyParseError):
        P("X^(1/2)")


def test_division_operator_rejected():
    with pytest.raises(PolyParseError):
        P("X/2")


def test_zero_denominator_rejected():
    with pytest.raises(PolyParseError):
        P("1/0")


def test_dangling_operator():
    with pytest.raises(PolyParseError):
        P("X +")


def test_unbalanced_parens():
    with pytest.raises(PolyParseError):
        P("(X + 1")


def test_deep_nesting_is_a_parse_error():
    assert P("(" * MAX_NESTING_DEPTH + "X" + ")" * MAX_NESTING_DEPTH) == P("X")
    depth = MAX_NESTING_DEPTH + 1
    with pytest.raises(PolyParseError, match="nested deeper"):
        P("(" * depth + "X" + ")" * depth)
    with pytest.raises(PolyParseError):
        P("(" * 5000 + "X" + ")" * 5000)


def test_exponent_cap_is_a_parse_error():
    assert P(f"X^{MAX_EXPONENT}").degree() == MAX_EXPONENT
    with pytest.raises(PolyParseError, match="exceeds the cap"):
        P(f"(X + Y + 1)^{MAX_EXPONENT + 1}")


@pytest.mark.parametrize("text, col", [("((X^33)^3)^3", 11), ("X^60*X^60", 5), ("(X*Y)^50*X^51", 9)])
def test_computed_exponents_above_the_cap_fail_at_their_operator(text, col):
    with pytest.raises(PolyParseError, match="of X exceeds the cap") as err:
        P(text)
    assert err.value.col == col
    at_cap = P("(X*Y)^50*X^50 + ((X^10)^5)^2")
    assert at_cap.degree_in("X") == MAX_EXPONENT and P(str(at_cap)) == at_cap


@pytest.mark.parametrize("text, terms, col", [
    ("(X + Y + t + 1)^100", 176851, 16),  # C(103, 3) monomials of degree <= 100 in 3 variables
    ("((X + Y + t + 1)^10)^10", 176851, 21),
    ("(X + Y + t + 1)^50*(X + Y + t + 1)^50", 23426, 16),  # the first power already exceeds it
    ("(1 + X)^100*(1 + Y)^100*(1 + t)^100", 1030301, 24),  # 101^3 pairs, fewer than the monomials
])
def test_products_and_powers_past_the_term_budget_fail_at_their_operator(text, terms, col):
    with pytest.raises(PolyParseError, match=f"may hold {terms} terms, above the budget {TERM_BUDGET}") as err:
        P(text)
    assert err.value.col == col


@pytest.mark.parametrize("text, pairs, col", [
    ("(X + Y + t + 1)^23*(X + Y + t + 1)^23", 2600 ** 2, 19),  # 18,424 terms, within the term budget
    ("(X + Y + t + 1)^20*(X + Y + t + 1)^20", 1771 ** 2, 19),
    ("((X + Y + t + 1)^20)^2", 1771 ** 2, 21),  # the power's one squaring
    ("(X + Y + t + 1)^40", 165 * 6545, 16),  # b^8 * b^32, the last step of b^40's chain
])
def test_products_and_powers_past_the_pair_budget_fail_at_their_operator(text, pairs, col):
    with pytest.raises(PolyParseError, match=f"may take {pairs} pair products, above the pair budget {PAIR_BUDGET}") as err:
        P(text)
    assert err.value.col == col


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=12))
def test_power_pairs_bound_every_step_of_the_power(seed, n):
    """``_power_pairs`` bounds the pair products of each multiplication of
    ``_power``, and meets them on the dense sum of every variable and 1."""
    rng = random.Random(seed)
    dense = rng.random() < 0.25
    b = P("X + Y + t + 1") if dense else rand_poly(rng, CTX, max_degree=2, max_terms=4, allow_zero=False)
    if b.is_zero():
        return
    steps = []
    real = Polynomial.combine

    def record(context, pairs):
        pairs = list(pairs)
        steps.extend(len(a) * len(c) for a, c in pairs)
        return real(context, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "combine", staticmethod(record))
        b._power(n)
    v = sum(1 for e in map(max, zip(*b._num)) if e)
    bound = _power_pairs(len(b), b.degree(), v, n)
    assert max(steps) <= bound
    if dense:
        assert max(steps) == bound


def test_products_and_powers_within_the_term_budget_parse():
    assert len(P("(X + Y + t + 1)^30")) == 5456  # C(33, 3), both bounds exact
    assert len(P("(1 + X)^100*(1 + Y)^100")) == 101 ** 2
    assert P("0^100*(X + Y + t + 1)^20").is_zero() and P("(X + Y + t + 1)^0") == P("1")


def test_whitespace_insensitive():
    assert P(" X\n+ \tY ") == P("X + Y")


# Operands and operators, well formed five times in six, so that a fair share
# of the texts parse, besides arbitrary text.  Exponents stay small, so no
# example raises a sum to a power with many terms.
_OPERANDS = (["X", "Y", "t", "2", "1/2", "(X + t)", "Y^3", "(1 - t*X)"], ["Z", "(", "3^", "0.5", ""])
_OPERATORS = ([" + ", " - ", "*", "^2", "/3", "^0"], ["/", "^", ")", "", "**", "^-1", "/0"])


@st.composite
def _poly_text(draw) -> str:
    def part(choices):
        good, bad = choices
        return draw(st.sampled_from(good if draw(st.integers(0, 5)) else bad))

    parts = [part(_OPERANDS)]
    for _ in range(draw(st.integers(0, 4))):
        parts += [part(_OPERATORS), part(_OPERANDS)]
    return "".join(parts)


_POLY_TEXT = st.one_of(
    _poly_text(),
    st.text(alphabet="XYtZ0123+-*/^(). _\t", max_size=20),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_POLY_TEXT)
@example("X^\u00b2")  # a Unicode digit once escaped as a bare ValueError
def test_any_text_parses_or_raises_a_parse_error(text):
    try:
        p = P(text)
    except PolyParseError:
        return
    assert p.context == CTX
    assert P(str(p)) == p
