"""Sampled fiber witnesses: specialization at a rational base point.

A witness claims coordinates for the fiber of a subalgebra over one
rational point of the base.  Both containments are checked by bounded
membership after specialization: every claimed coordinate lies in the
specialized algebra, and every specialized generator lies in the algebra
the coordinates generate.  This is a per-point check, never a statement
about all primes at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..context import VarContext
from ..errors import DomainError
from ..polynomial import Polynomial
from ..subalgebra import GeneratorSpan, Subalgebra, distinct_nonconstant


@dataclass(frozen=True)
class FiberWitness:
    point: dict[str, Fraction]  # one value per coefficient variable
    coordinates: tuple[Polynomial, ...]  # claimed fiber coordinates (main variables only)
    bound: int

    def __hash__(self):
        return hash((tuple(sorted(self.point.items())), self.coordinates, self.bound))


@dataclass(frozen=True)
class FiberCheck:
    passed: bool
    direction: str | None  # which containment failed
    element: Polynomial | None


def check_fiber_witness(S: Subalgebra, witness: FiberWitness) -> FiberCheck:
    ctx = S.context
    if set(witness.point) != set(ctx.coeff_vars):
        raise DomainError("the witness point must assign every coefficient variable")
    fiber_ctx = VarContext((), ctx.main_vars)
    rename = {
        name: Polynomial.variable(fiber_ctx, name) for name in ctx.main_vars
    }
    bindings = dict(witness.point) | rename

    def specialize(p: Polynomial) -> Polynomial:
        return p.substitute(bindings, context=fiber_ctx)

    live = distinct_nonconstant(specialize(g) for g in S.algebra_generators)
    coords = tuple(specialize(c) for c in witness.coordinates)
    for c in coords:
        if c.is_constant():
            raise DomainError(f"claimed coordinate {c} specializes to a constant")

    bound = witness.bound
    if coords:
        if not live:
            return FiberCheck(False, "coordinate-not-in-fiber", coords[0])
        fiber_span = GeneratorSpan(Subalgebra(fiber_ctx, (), live), bound)
        for c in coords:
            if fiber_span.member(c) is None:
                return FiberCheck(False, "coordinate-not-in-fiber", c)
    coord_span = GeneratorSpan(Subalgebra(fiber_ctx, (), distinct_nonconstant(coords)), bound)
    for g in live:
        if coord_span.member(g) is None:
            return FiberCheck(False, "generator-not-reachable", g)
    return FiberCheck(True, None, None)
