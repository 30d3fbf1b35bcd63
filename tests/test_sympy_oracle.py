"""Differential checks of the exact engines against sympy over QQ.

sympy is an independent implementation: reduced Groebner bases are unique
once made monic, so they must agree exactly; membership verdicts must
agree; gcds must agree up to a nonzero rational factor.  On the slice
system, derivation images must agree exactly, and slice verdicts and
kernel dimensions must match the rank of sympy's image matrix.
"""

import functools
import itertools
import random

import pytest

from lndkit import (
    MonomialOrder,
    Polynomial,
    Subalgebra,
    VarContext,
    buchberger,
    find_slice,
    gcd,
    ideal_member,
    kernel_up_to_degree,
)
from lndkit.harness import random_triangular_lnd

from helpers import cyclic, katsura, rand_poly

sp = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PLANE = VarContext((), ("X", "Y"))
SPACE = VarContext((), ("x", "y", "z"))
FOUR = VarContext((), ("a", "b", "c", "d"))
PARAMETRIC = VarContext(("t",), ("X", "Y"))
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
    for ctx in (SPACE, FOUR, PARAMETRIC):
        for _ in range(100):
            common = rand_poly(rng, ctx, max_degree=2, max_terms=3, allow_zero=False)
            p = common * rand_poly(rng, ctx, max_degree=2, max_terms=3, allow_zero=False)
            q = common * rand_poly(rng, ctx, max_degree=2, max_terms=3, allow_zero=False)
            got = to_sympy(gcd(p, q), ctx)
            want = sp.gcd(to_sympy(p, ctx), to_sympy(q, ctx))
            assert not got.is_zero
            assert got.monic() == want.monic(), (str(p), str(q))


# -- the slice system ---------------------------------------------------------
#
# Over k[t][X, Y] every monomial is a generator product, so sympy builds the
# image system itself: D(m) = sum(diff(m, x) * D(x)) over the main variables,
# one column per monomial of degree <= bound.  ``find_slice`` finds a slice
# exactly when the constant 1 lies in the column span, and the kernel of D
# on the span has the dimension of the system's nullspace.

TRIANGULAR = [(seed, fpf) for fpf in (True, False) for seed in range(10)]


def _monomials(nvars, bound):
    return [m for m in itertools.product(range(bound + 1), repeat=nvars) if sum(m) <= bound]


@functools.lru_cache(maxsize=None)
def _derivation(seed, fpf):
    return random_triangular_lnd(seed, fpf=fpf)


def _sympy_image(d, mono):
    """sympy's Leibniz image of the monomial ``mono``."""
    gens = sp.symbols(d.context.variables)
    m = sp.prod([g ** e for g, e in zip(gens, mono)])
    expr = sum((sp.diff(m, sp.Symbol(x)) * to_sympy(d.images[x], d.context).as_expr()
                for x in d.context.main_vars), sp.Integer(0))
    return sp.Poly(expr, *gens, domain="QQ")


def _image_system(d, bound):
    """The image matrix (a row per monomial, a column per product) and the unit column."""
    columns = [_sympy_image(d, m).as_dict() for m in _monomials(d.context.nvars, bound)]
    one = (0,) * d.context.nvars
    rows = sorted({k for col in columns for k in col} | {one})
    A = sp.Matrix([[col.get(k, 0) for col in columns] for k in rows])
    e = sp.Matrix([int(k == one) for k in rows])
    return DomainMatrix.from_Matrix(A).convert_to(sp.QQ), DomainMatrix.from_Matrix(e).convert_to(sp.QQ)


@pytest.mark.parametrize("seed, fpf", TRIANGULAR)
def test_monomial_images_match_sympy(seed, fpf):
    d = _derivation(seed, fpf)
    for mono in _monomials(d.context.nvars, 4):
        got = d.apply(Polynomial(d.context, {mono: 1}))
        assert to_sympy(got, d.context) == _sympy_image(d, mono), mono


def test_find_slice_verdicts_match_sympy_solvability():
    verdicts = {True: 0, False: 0}
    for seed, fpf in TRIANGULAR:
        d = _derivation(seed, fpf)
        for bound in range(1, 5):
            A, e = _image_system(d, bound)
            solvable = A.hstack(e).rank() == A.rank()
            found = find_slice(d, Subalgebra.full(d.context), bound) is not None
            assert found == solvable, (seed, fpf, bound)
            verdicts[found] += 1
    assert min(verdicts.values()) >= 10, verdicts


def test_kernel_dimensions_match_sympy_nullspace():
    for seed, fpf in TRIANGULAR:
        d = _derivation(seed, fpf)
        for bound in range(1, 4):
            A, _ = _image_system(d, bound)
            basis = kernel_up_to_degree(d, Subalgebra.full(d.context), bound)
            assert len(basis) == A.nullspace().shape[0], (seed, fpf, bound)
