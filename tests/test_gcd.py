"""Multivariate gcd: examples and the exact-division property."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lndkit
from lndkit import DomainError, Polynomial, VarContext, divides, exact_divide, gcd, parse_polynomial

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
