"""Grammar acceptance and rejection for the polynomial parser."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lndkit import PolyParseError, Polynomial, VarContext, parse_polynomial
from lndkit.parse import MAX_NESTING_DEPTH, _power_pairs
from lndkit.polynomial import MAX_EXPONENT, PAIR_BUDGET, TERM_BUDGET

from helpers import rand_poly, reference_parse_polynomial

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


@pytest.mark.parametrize("text, message, line, col", [
    ("9" * 5000, "integer literal of 5000 digits exceeds the limit of", 1, 1),
    ("X +\n  1/" + "7" * 5000, "integer literal of 5000 digits exceeds the limit of", 2, 5),
    ("(X + 1)^" + "9" * 5000, "exceeds the cap", 1, 9),
])
def test_literals_past_the_digit_limit_fail_at_the_literal(text, message, line, col):
    """A literal too long for ``int`` is a parse error at the literal, not
    the interpreter's bare ValueError; an exponent that long is past the cap."""
    with pytest.raises(PolyParseError, match=message) as err:
        P(text)
    assert (err.value.line, err.value.col) == (line, col)


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


# -- the integer-form parser against the parser that built a Polynomial per operator --

def _outcome(parse, text):
    """The parse of ``text`` as fields, or its error as type, text and position."""
    try:
        p = parse(text, CTX)
    except PolyParseError as exc:
        return "PolyParseError", str(exc), exc.line, exc.col
    return p.context, p._num, p._den


_LEAVES = st.sampled_from(["X", "Y", "t", "Z", "x", "0", "1", "2", "7", "12", "1/2", "-3/4", "6/4", "0/5", "1/0",
                           "X - X", "1/2 - 1/2", "t*X*Y", "2/3*X^2", "(-2*t*X)", "(3/2*Y^2)"])
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", str(MAX_EXPONENT - 1), str(MAX_EXPONENT), str(MAX_EXPONENT + 1)])
# Letters, digits and whitespace of other scripts, which the tokenizer must
# take for what ``str.isalpha``, ``str.isalnum`` and ``str.isspace`` say.
_FOREIGN = st.sampled_from(["é", "Ж", "ß", "²", "٣", "½", "_", "\u00a0", "\u2028", "\x1c", "\x85", "\x0b", "\r", "\n"])


def _nested(children):
    return st.one_of(
        st.tuples(children, st.sampled_from([" + ", " - ", "*", "+", "-"]), children).map("".join),
        st.tuples(children, _EXPONENTS).map(lambda c: f"({c[0]})^{c[1]}"),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"-{c}"),
    )


_NESTED_TEXT = st.recursive(_LEAVES, _nested, max_leaves=8)


@st.composite
def _mangled(draw) -> str:
    """A nested text with a foreign character, a space or a stray operator put in somewhere."""
    text = draw(_NESTED_TEXT)
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.one_of(_FOREIGN, st.sampled_from([" ", "(", ")", "^", "/", "**", "2", "X"]))) + text[i:]


OVERSIZED = ["(X + Y + t + 1)^100", "((X + Y + t + 1)^10)^10", "(X + Y + t + 1)^50*(X + Y + t + 1)^50",
             "(X + Y + t + 1)^23*(X + Y + t + 1)^23", "((X + Y + t + 1)^20)^2"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_NESTED_TEXT, _mangled(), _POLY_TEXT, st.text(alphabet="XYt12/+-*^() é²٣ \n", max_size=16)))
@example("0^0")
@example("(X - X)^3")
@example(f"X^{MAX_EXPONENT}*t^{MAX_EXPONENT}")
@example(f"X^{MAX_EXPONENT + 1}")
@example("(t*X*Y)^60*(t*X*Y)^60")
@example("((1/2*X + 1/2)^2)^3 - (1/4)^3*(X + 1)^6")
@example("(2/4*X - 2/4*Y)^2*(3/6)")
@example("9" * 5000)
@example("X +\n  Y*Z")
@example("Y*(2*X) - (3*t)*(X + Y) + (-1/2*X^2)*(4*Y)^2")
@example("(X + Y)*" * 12 + "X\n + " + "t*" * 40 + "Z")  # an error past column 80 of its line
@example("(X + Y)*" * 12 + "2X")
@example("2X")
@example("X + é")
@example(" + ".join(f"{k}*t^{k % 5}*X^{k % 7}*Y^{k % 3}" for k in range(1, 80)))
def test_parse_matches_the_reference_parser(text):
    """The same polynomial, field for field, or the same error with the same
    message, line and column, as the parser that built a ``Polynomial`` for
    every literal, variable and operator."""
    assert _outcome(parse_polynomial, text) == _outcome(reference_parse_polynomial, text)


@pytest.mark.parametrize("text", OVERSIZED)
def test_oversized_texts_fail_as_the_reference_parser_does(text):
    got = _outcome(parse_polynomial, text)
    assert got[0] == "PolyParseError" and got == _outcome(reference_parse_polynomial, text)
