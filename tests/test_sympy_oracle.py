"""Differential checks of the exact engines against sympy over QQ.

sympy is an independent implementation: reduced Groebner bases are unique
once made monic, so they must agree exactly; membership verdicts must
agree; gcds must agree up to a nonzero rational factor.
"""

import random

import pytest

from lndkit import MonomialOrder, VarContext, buchberger, gcd, ideal_member

from helpers import cyclic, katsura, rand_poly

sp = pytest.importorskip("sympy")

PLANE = VarContext((), ("X", "Y"))
SPACE = VarContext((), ("x", "y", "z"))
SYMPY_ORDER = {"lex": "lex", "degrevlex": "grevlex"}


def to_sympy(p, ctx):
    terms = {m: sp.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    return sp.Poly.from_dict(terms or {(0,) * ctx.nvars: 0}, *sp.symbols(ctx.variables), domain="QQ")


def sympy_basis(gens, ctx, kind):
    return sp.groebner([to_sympy(g, ctx) for g in gens], *sp.symbols(ctx.variables),
                       order=SYMPY_ORDER[kind], domain="QQ")


def assert_same_reduced_basis(gens, ctx, kind):
    gb = buchberger(gens, getattr(MonomialOrder, kind)(ctx))
    want = sympy_basis(gens, ctx, kind)
    got = [to_sympy(g, ctx) for g in gb.generators]
    assert len(got) == len(want.exprs)
    assert {g.monic() for g in got} == {sp.Poly(e, *want.gens, domain="QQ").monic() for e in want.exprs}


@pytest.mark.parametrize("system, kind", [
    (katsura(3), "degrevlex"),
    (cyclic(4), "lex"),
    (cyclic(4), "degrevlex"),
], ids=["katsura-3-degrevlex", "cyclic-4-lex", "cyclic-4-degrevlex"])
def test_named_systems_match_sympy(system, kind):
    ctx, eqs = system
    assert_same_reduced_basis(eqs, ctx, kind)


def _planar_ideals(seed, count):
    """Seeded ideals of 1-3 nonzero generators of degree <= 3 in X, Y."""
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, [rand_poly(rng, PLANE, max_degree=3, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("kind", ["lex", "degrevlex"])
def test_random_planar_bases_match_sympy(kind):
    for _, gens in _planar_ideals(20261017, 30):
        assert_same_reduced_basis(gens, PLANE, kind)


def test_membership_verdicts_match_sympy():
    checked = {True: 0, False: 0}
    for rng, gens in _planar_ideals(31337, 40):
        target = rand_poly(rng, PLANE, max_degree=3, max_terms=3)
        if rng.random() < 0.4:
            target = gens[0] * rand_poly(rng, PLANE, max_degree=2, max_terms=2)
        verdict = ideal_member(target, gens) is not None
        expected = sympy_basis(gens, PLANE, "degrevlex").contains(to_sympy(target, PLANE).as_expr())
        assert verdict == expected, (str(target), [str(g) for g in gens])
        checked[verdict] += 1
    assert min(checked.values()) >= 5, checked


def test_gcd_matches_sympy_up_to_a_unit():
    rng = random.Random(4242)
    for _ in range(20):
        common = rand_poly(rng, SPACE, max_degree=2, max_terms=3, allow_zero=False)
        p = common * rand_poly(rng, SPACE, max_degree=2, max_terms=3, allow_zero=False)
        q = common * rand_poly(rng, SPACE, max_degree=2, max_terms=3, allow_zero=False)
        got = to_sympy(gcd(p, q), SPACE)
        want = sp.gcd(to_sympy(p, SPACE), to_sympy(q, SPACE))
        assert not got.is_zero
        assert got.monic() == want.monic(), (str(p), str(q))
