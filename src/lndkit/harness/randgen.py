"""Seeded random instance generators and the randomized property families.

Everything is deterministic given the seed: generators derive their
randomness from ``random.Random(seed)`` only, and every emitted instance
is re-verified by the certificate its construction planted, not by a
second search, before it leaves the generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import perm

from ..context import VarContext
from ..derivation import Derivation, is_fixed_point_free, is_triangular, iterates, nilpotency_verdict
from ..errors import invariant
from ..groebner import ideal_member
from ..linalg import RowSpace, vec_of
from ..polynomial import Polynomial
from ..slices import RetractionSpec, dixmier, find_slice, lnd_from_retraction, verify_slice_theorem
from ..subalgebra import Subalgebra


_TRIANGULAR_CONTEXT = VarContext(("t",), ("X", "Y"))
_IMAGE_DEGREE = 3
_MAX_POWER = 5
_ORACLE_DEGREE = 6


def _rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([n for n in range(-4, 5) if n]), rng.choice([1, 1, 2]))


def _rand_poly(rng, ctx, names, degree, terms, allow_zero=True) -> Polynomial:
    idx = [ctx.index(n) for n in names]
    out = {}
    lo = 0 if allow_zero else 1
    for _ in range(rng.randint(lo, terms)):
        mono = [0] * ctx.nvars
        for _ in range(rng.randint(0, degree)):
            mono[rng.choice(idx)] += 1
        out[tuple(mono)] = _rand_coeff(rng)
    return Polynomial(ctx, out)


def random_triangular_lnd(seed: int, fpf: bool = True) -> Derivation:
    """Deterministic-by-seed derivation of k[t][X, Y], triangular in the
    order X < Y, re-verified by the certificate its construction plants.

    With ``fpf`` D(X) is a constant c, with cofactors (1/c, 0), or
    D(Y) = 1 - D(X)*q, with cofactors (q, 1), checked by one ``combine``.
    Without it D(X) = 0 and D(Y) is not constant, so the image ideal is the
    proper principal ideal (D(Y)).  No check builds a Groebner basis or
    draws from ``rng``.
    """
    rng = random.Random(seed)
    ctx = _TRIANGULAR_CONTEXT
    coeff = ctx.coeff_vars
    deg = _IMAGE_DEGREE
    one = Polynomial.one(ctx)
    if fpf:
        if rng.random() < 0.5:
            c = _rand_coeff(rng)
            img_x, img_y = Polynomial.constant(ctx, c), _rand_poly(rng, ctx, coeff + ("X",), deg, 3)
            cofactors = (Polynomial.constant(ctx, 1 / c), Polynomial.zero(ctx))
        else:
            img_x = _rand_poly(rng, ctx, coeff, deg - 1, 2, allow_zero=False)
            q = _rand_poly(rng, ctx, coeff + ("X",), deg - (img_x.degree() or 0), 2)
            img_y, cofactors = one - img_x * q, (q, one)
        invariant(Polynomial.combine(ctx, zip(cofactors, (img_x, img_y))) == one,
                  "planted fixed-point-free cofactors failed re-verification")
    else:
        img_x, img_y = Polynomial.zero(ctx), one  # a constant D(Y) is drawn again
        while img_y.is_constant():
            if rng.random() < 0.5:
                img_y = Polynomial.variable(ctx, "X") * _rand_poly(
                    rng, ctx, coeff + ("X",), deg - 1, 2, allow_zero=False
                )
            else:
                img_y = _rand_poly(rng, ctx, coeff + ("X",), deg, 2, allow_zero=False)
        invariant(img_x.is_zero() and not img_y.is_constant(), "planted image ideal is not proper")
    d = Derivation(ctx, {"X": img_x, "Y": img_y})
    invariant(is_triangular(d) == ("X", "Y"), "planted derivation is not triangular in the order X < Y")
    return d


@dataclass
class FamilyOutcome:
    count: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _failure(seed: int, d: Derivation, reason: str) -> str:
    images = ", ".join(f"{v}->{d.images[v]}" for v in d.context.main_vars)
    return f"seed {seed}: {images} [{reason}]"


def run_slice_pipeline_family(seed: int, count: int, bound: int = 8) -> FamilyOutcome:
    """Full pipeline per seeded fpf instance: certify nilpotency, find a
    slice, take the fixed-point-free cofactors from the slice, re-express.

    The cofactors are the chain rule: D kills the base, so D(s) == 1 reads
    1 == sum_x ds/dx * D(x) over the main variables, and the partials of
    the slice are checked by one ``combine``.  A hit builds no Groebner
    basis.  Only a miss asks ``is_fixed_point_free``: a derivation that is
    not fixed point free has no slice at any bound, anything else missed
    at this bound.  A Taylor witness that fails its re-verification in
    ``verify_slice_theorem`` raises ``InvariantError``, an internal error.
    """
    failures: list[str] = []
    for k in range(count):
        d = random_triangular_lnd(seed + k)
        ctx = d.context
        if not nilpotency_verdict(d).certified:
            failures.append(_failure(seed + k, d, "nilpotency not certified"))
            continue
        S = Subalgebra.full(ctx)
        s = find_slice(d, S, bound)
        if s is None:
            fpf = is_fixed_point_free(d) is not None
            failures.append(_failure(seed + k, d, f"no slice up to bound {bound}" if fpf else "not fixed point free"))
            continue
        cofactors = ((s.partial_derivative(x), d.images[x]) for x in ctx.main_vars)
        if Polynomial.combine(ctx, cofactors) != Polynomial.one(ctx):
            failures.append(_failure(seed + k, d, "cofactor identity broke"))
            continue
        verify_slice_theorem(d, s, S)  # a full ring without a bound: a certificate
    return FamilyOutcome(count, failures)


def run_falling_factorial_family(seed: int, count: int) -> FamilyOutcome:
    """Iterated images of a*W^m under a retraction-composed derivation.

    Checks D^i(a*W^m) == m(m-1)...(m-i+1) * a * W^(m-i) exactly for all
    1 <= i <= m+1 (the last one vanishing), with a fixed by the retraction,
    from one pass of ``derivation.iterates`` (m+1 applications).
    """
    rng = random.Random(seed)
    ctx = VarContext(("t",), ("W", "U1", "U2"))
    failures: list[str] = []
    w = Polynomial.variable(ctx, "W")
    for k in range(count):
        if rng.random() < 0.5:
            spec = RetractionSpec(
                Subalgebra.full(ctx),
                "W",
                {
                    "U1": Polynomial.variable(ctx, "U1"),
                    "U2": Polynomial.variable(ctx, "U2"),
                },
            )
            alpha_names = ("t", "U1", "U2")
        else:
            S = Subalgebra(
                ctx,
                (Polynomial.variable(ctx, "t"),),
                (w, Polynomial.variable(ctx, "U1")),
            )
            spec = RetractionSpec(
                S,
                "W",
                {
                    "U1": Polynomial.variable(ctx, "U1"),
                    "U2": _rand_poly(rng, ctx, ("t", "U1"), 3, 3),
                },
            )
            alpha_names = ("t", "U1")
        rd = lnd_from_retraction(spec)
        alpha = _rand_poly(rng, ctx, alpha_names, 3, 3, allow_zero=False)
        m = rng.randint(1, _MAX_POWER)
        expected = [perm(m, i) * alpha * w ** (m - i) for i in range(m + 1)]  # D^i(a*W^m)
        got = iterates(rd.apply_composed, expected[0], m)
        if got != expected:  # None: D^(m+1)(a*W^m) did not vanish
            failures.append(f"case {k}: m={m} alpha={alpha}")
    return FamilyOutcome(count, failures)


def run_groebner_oracle_family(seed: int, count: int) -> FamilyOutcome:
    """Membership engine vs. a brute-force bounded-degree linear oracle.

    On every instance where the oracle certifies membership the engine
    must too, and every engine Yes must recombine to the target exactly.
    """
    rng = random.Random(seed)
    ctx = VarContext((), ("X", "Y"))
    failures: list[str] = []
    monos = [
        (i, j) for i in range(_ORACLE_DEGREE + 1) for j in range(_ORACLE_DEGREE + 1 - i)
    ]
    for k in range(count):
        gens = [
            _rand_poly(rng, ctx, ("X", "Y"), 3, 3, allow_zero=False)
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        target = _rand_poly(rng, ctx, ("X", "Y"), 3, 3)
        if rng.random() < 0.4:
            # force a membership instance so the Yes path is exercised
            mult = _rand_poly(rng, ctx, ("X", "Y"), 2, 2)
            target = gens[0] * mult
        space = RowSpace()
        for gi, g in enumerate(gens):
            for m in monos:
                space.insert(vec_of(Polynomial(ctx, {m: Fraction(1)}) * g), (gi, m))
        oracle = space.express(vec_of(target))
        verdict = ideal_member(target, gens)
        label = f"case {k}: {target} in <{'; '.join(str(g) for g in gens)}>"
        if oracle is not None and verdict is None:
            failures.append(label + " [oracle found a witness, engine said No]")
            continue
        if verdict is not None:
            if Polynomial.combine(ctx, zip(verdict, gens)) != target:
                failures.append(label + " [cofactors do not recombine]")
    return FamilyOutcome(count, failures)


def run_projection_law_family(seed: int, count: int) -> FamilyOutcome:
    """The kernel projection is multiplicative; ``dixmier`` checks that it kills."""
    rng = random.Random(seed)
    failures: list[str] = []
    for k in range(count):
        d = random_triangular_lnd(seed * 1_000_003 + k)
        ctx = d.context
        S = Subalgebra.full(ctx)
        s = find_slice(d, S, 8)
        if s is None:
            failures.append(f"case {k}: no slice")
            continue
        p = _rand_poly(rng, ctx, ctx.variables, 2, 3)
        q = _rand_poly(rng, ctx, ctx.variables, 2, 3)
        lhs = dixmier(d, s, p * q)
        rhs = dixmier(d, s, p) * dixmier(d, s, q)
        if lhs != rhs:
            failures.append(f"case {k}: projection law failed on {p} and {q}")
    return FamilyOutcome(count, failures)
