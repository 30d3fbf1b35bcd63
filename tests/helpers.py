"""Shared test utilities: seeded random polynomials and contexts."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from lndkit import Polynomial, VarContext


def rand_coeff(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-5, 6) if n])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rand_poly(
    rng: random.Random,
    ctx: VarContext,
    max_degree: int = 3,
    max_terms: int = 4,
    names: tuple[str, ...] | None = None,
    allow_zero: bool = True,
) -> Polynomial:
    """Random sparse polynomial in the given variables (all by default)."""
    if names is None:
        names = ctx.variables
    idx = [ctx.index(n) for n in names]
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        mono = [0] * ctx.nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            mono[rng.choice(idx)] += 1
        terms[tuple(mono)] = rand_coeff(rng)
    return Polynomial(ctx, terms)


def assert_canonical(r: Polynomial):
    """The integer form is canonical and the ``terms`` view agrees with it."""
    assert r._den > 0 and math.gcd(r._den, *r._num.values()) == 1
    assert all(type(c) is int and c != 0 for c in r._num.values())
    keys = list(r.terms)
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert r.terms == {m: Fraction(c, r._den) for m, c in r._num.items()}
    assert r == Polynomial(r.context, r.terms)


def katsura(n: int) -> tuple[VarContext, list[Polynomial]]:
    """The katsura-n system in variables u0..un."""
    names = tuple(f"u{i}" for i in range(n + 1))
    ctx = VarContext((), names)
    u = [Polynomial.variable(ctx, v) for v in names]

    def U(i):
        return u[abs(i)] if abs(i) <= n else Polynomial.zero(ctx)

    eqs = [u[0] + sum((u[i] * 2 for i in range(1, n + 1)), Polynomial.zero(ctx)) - 1]
    for m in range(n):
        acc = Polynomial.zero(ctx)
        for l in range(-n, n + 1):
            acc = acc + U(l) * U(m - l)
        eqs.append(acc - u[m])
    return ctx, eqs


def cyclic(n: int) -> tuple[VarContext, list[Polynomial]]:
    """The cyclic-n system in variables x1..xn."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    ctx = VarContext((), names)
    x = [Polynomial.variable(ctx, v) for v in names]
    eqs = []
    for k in range(1, n):
        acc = Polynomial.zero(ctx)
        for i in range(n):
            term = Polynomial.one(ctx)
            for j in range(k):
                term = term * x[(i + j) % n]
            acc = acc + term
        eqs.append(acc)
    prod = Polynomial.one(ctx)
    for xi in x:
        prod = prod * xi
    eqs.append(prod - 1)
    return ctx, eqs
