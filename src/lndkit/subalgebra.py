"""Finitely generated subalgebras and bounded-degree exact linear algebra.

A subalgebra is given by base generators (polynomials in the coefficient
variables, generating the base ring) and algebra generators.  Membership,
fixed-point-freeness and kernel computations all search the span of
generator products of bounded *formal degree*: the sum of the formal
exponents weighted by the total degree of each generator.  Membership
is asked of a ``GeneratorSpan``, the row space of those products at one
bound, whose ``member`` builds and re-verifies every witness.  Bounded
searches are semi-decisions; a miss is reported with its bound, never as
a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .context import VarContext
from .errors import ContextMismatchError, DomainError, UnsupportedSizeError, invariant
from .derivation import Derivation
from .linalg import Combo, RowSpace, Vec, canonical_rref, vec_of
from .polynomial import Polynomial, integer_form, mono_mul

PRODUCT_CAP = 500_000


@dataclass(frozen=True)
class Subalgebra:
    context: VarContext
    base_generators: tuple[Polynomial, ...]
    algebra_generators: tuple[Polynomial, ...]
    full_ring: bool = False

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if g.context != self.context:
                raise ContextMismatchError("generator lives in a foreign context")
            if g.is_zero() or g.is_constant():
                raise ValueError("generators must be nonconstant")
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)
        coeff = set(self.context.coeff_vars)
        for g in self.base_generators:
            if not g.involves_only(coeff):
                raise ValueError(f"base generator {g} involves main variables")
        if self.full_ring:
            expected = tuple(
                Polynomial.variable(self.context, n) for n in self.context.main_vars
            )
            if self.algebra_generators != expected:
                raise ValueError("full_ring requires the main variables as algebra generators")

    @classmethod
    def full(cls, context: VarContext) -> Subalgebra:
        return cls(
            context,
            tuple(Polynomial.variable(context, n) for n in context.coeff_vars),
            tuple(Polynomial.variable(context, n) for n in context.main_vars),
            full_ring=True,
        )

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        return self.base_generators + self.algebra_generators

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(g.degree() for g in self.generators)


def distinct_nonconstant(polys: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """``polys`` without constants (zero included) and repeats, first occurrences in order."""
    out: list[Polynomial] = []
    for p in polys:
        if not p.is_constant() and p not in out:
            out.append(p)
    return tuple(out)


@lru_cache(maxsize=None)
def symbol_context(S: Subalgebra) -> VarContext:
    """Context of abstract generator symbols: b1..bn for base, g1..gm for algebra."""
    names = tuple(f"b{i + 1}" for i in range(len(S.base_generators))) + tuple(
        f"g{i + 1}" for i in range(len(S.algebra_generators))
    )
    return VarContext((), names)


def generator_products(
    S: Subalgebra, bound: int, cap: int = PRODUCT_CAP
) -> list[tuple[tuple[int, ...], Polynomial]]:
    """All products of generators with weighted formal degree <= bound.

    Deterministic exponent-lexicographic order; includes the empty product 1.
    A generator that is a monomial with coefficient 1 multiplies by shifting
    exponents; the others multiply by ``*``.
    """
    gens = S.generators
    weights = S.weights
    shifts = [next(iter(g._num)) if g._den == 1 and list(g._num.values()) == [1] else None
              for g in gens]
    out: list[tuple[tuple[int, ...], Polynomial]] = []

    def rec(idx: int, budget: int, expo: list[int], poly: Polynomial):
        if idx == len(gens):
            if len(out) >= cap:
                raise UnsupportedSizeError(
                    f"more than {cap} generator products below bound {bound}"
                )
            out.append((tuple(expo), poly))
            return
        w, shift = weights[idx], shifts[idx]
        current = poly
        e = 0
        while e * w <= budget:
            expo.append(e)
            rec(idx + 1, budget - e * w, expo, current)
            expo.pop()
            e += 1
            if e * w <= budget:
                current = current * gens[idx] if shift is None else Polynomial._from_ints(
                    S.context, {mono_mul(m, shift): c for m, c in current._num.items()}, current._den)

    rec(0, bound, [], Polynomial.one(S.context))
    return out


@dataclass(frozen=True)
class MembershipWitness:
    """An exact expression of ``target`` in abstract generator symbols."""

    target: Polynomial
    expression: Polynomial  # over symbol_context(S)
    bound: int

    def evaluate(self, S: Subalgebra) -> Polynomial:
        bindings = {
            name: gen for name, gen in zip(symbol_context(S).variables, S.generators)
        }
        return self.expression.substitute(bindings, context=S.context)


class GeneratorSpan:
    """Reusable row space of the generator products up to one bound."""

    def __init__(self, S: Subalgebra, bound: int, cap: int = PRODUCT_CAP):
        self.subalgebra = S
        self.bound = bound
        self.products = generator_products(S, bound, cap)
        self.space = RowSpace()
        for j, (_, poly) in enumerate(self.products):
            self.space.insert(vec_of(poly), j)

    def express(self, f: Polynomial) -> Polynomial | None:
        """Expression of f over the products, as a symbol polynomial."""
        combo = self.space.express(vec_of(f))
        if combo is None:
            return None
        terms = {self.products[j][0]: c for j, c in combo.items() if c}
        if not terms and not f.is_zero():
            return None
        return Polynomial._from_ints(symbol_context(self.subalgebra), *integer_form(terms))

    def contains(self, f: Polynomial) -> bool:
        return self.space.contains(vec_of(f))

    def member(self, f: Polynomial) -> MembershipWitness | None:
        """Search f in the span.

        A hit returns a witness stamped with this span's bound and
        re-verified by evaluation; None means not found up to the bound,
        which is not a refutation.
        """
        _check_query(f, self.subalgebra, self.bound)
        expr = self.express(f)
        if expr is None:
            return None
        witness = MembershipWitness(f, expr, self.bound)
        invariant(witness.evaluate(self.subalgebra) == f, "membership witness failed re-verification")
        return witness


def subalgebra_member(f: Polynomial, S: Subalgebra, bound: int) -> MembershipWitness | None:
    """``GeneratorSpan(S, bound).member(f)``, with the query checked
    before the span is built."""
    _check_query(f, S, bound)
    return GeneratorSpan(S, bound).member(f)


def _check_query(f: Polynomial, S: Subalgebra, bound: int):
    if f.context != S.context:
        raise ContextMismatchError("membership query across contexts")
    if bound < 1:
        raise ValueError("bound must be at least 1")


@dataclass(frozen=True)
class RestrictedDerivation:
    """A derivation of a subalgebra, described by generator images.

    Base generators map to zero (base-ring linearity); ``images`` is
    aligned with the algebra generators.
    """

    subalgebra: Subalgebra
    images: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.images) != len(self.subalgebra.algebra_generators):
            raise ValueError("one image per algebra generator is required")
        for img in self.images:
            if img.context != self.subalgebra.context:
                raise ContextMismatchError("image lives in a foreign context")

    def image_of_product(self, expo: tuple[int, ...]) -> Polynomial:
        """Leibniz image of a generator product given by its exponent vector."""
        S = self.subalgebra
        gens = S.generators
        nbase = len(S.base_generators)
        pairs = []
        for i, e in enumerate(expo):
            if e == 0 or i < nbase or not self.images[i - nbase]:
                continue
            rest = None  # the product with one factor gens[i] taken out
            for k, ek in enumerate(expo):
                if k == i:
                    ek -= 1
                if ek:
                    power = gens[k]._power(ek)
                    rest = power if rest is None else rest * power
            pairs.append((self.images[i - nbase] * e, 1 if rest is None else rest))
        return Polynomial.combine(S.context, pairs)

    def product_images(self, products) -> list[Polynomial]:
        """Images of ``(exponents, polynomial)`` generator products, by exponents."""
        return [self.image_of_product(expo) for expo, _ in products]

    def fixes_origin(self) -> bool:
        """Whether every generator image vanishes at the origin; see
        ``Derivation.fixes_origin``."""
        return all(img.vanishes_at_origin() for img in self.images)

    def apply(self, f: Polynomial, span: GeneratorSpan | None = None) -> Polynomial:
        """Image of f through its expression over the products of ``span``.

        Without a span f must be one of the algebra generators.
        """
        if span is None:
            for gen, img in zip(self.subalgebra.algebra_generators, self.images):
                if gen == f:
                    return img
            raise DomainError(f"{f} is not an algebra generator")
        expr = span.express(f)
        if expr is None:
            raise DomainError("element left the bounded span while applying the derivation")
        return Polynomial.combine(
            self.subalgebra.context, ((self.image_of_product(expo), c) for expo, c in expr)
        )


def restriction_of(D: Derivation | RestrictedDerivation, S: Subalgebra) -> RestrictedDerivation:
    """RestrictedDerivation view of D on S's algebra generators (images unchecked)."""
    return RestrictedDerivation(S, tuple(D.apply(g) for g in S.algebra_generators))


@dataclass(frozen=True)
class RestrictionFailure:
    generator: Polynomial
    image: Polynomial


def restrict_derivation(
    D: Derivation, S: Subalgebra, bound: int
) -> tuple[RestrictedDerivation, tuple[MembershipWitness, ...]] | RestrictionFailure:
    """Restrict an ambient derivation to S, witnessing every image.

    Succeeds iff D(g) lies in the bounded span for every algebra generator
    g; base generators are killed automatically.  Returns the failing
    generator with its image otherwise.
    """
    span = GeneratorSpan(S, bound)
    images = []
    witnesses = []
    for g in S.algebra_generators:
        img = D.apply(g)
        w = span.member(img)
        if w is None:
            return RestrictionFailure(g, img)
        images.append(img)
        witnesses.append(w)
    return RestrictedDerivation(S, tuple(images)), tuple(witnesses)


def subalgebra_fpf(rd: RestrictedDerivation, bound: int) -> list[Polynomial] | None:
    """Bounded search for cofactors a_i in S with sum(a_i * D(g_i)) == 1.

    Returns cofactors aligned with the algebra generators, or None when no
    combination exists within the bound (not a refutation).  When every
    image vanishes at the origin no combination exists at any bound, and
    None is returned before any product is built.
    """
    if rd.fixes_origin():
        return None
    S = rd.subalgebra
    products = generator_products(S, bound)
    ctx = S.context
    space = RowSpace()
    for i, img in enumerate(rd.images):
        if img.is_zero():
            continue
        for j, (_, poly) in enumerate(products):
            space.insert(vec_of(poly * img), (j, i))
    combo = space.express(vec_of(Polynomial.one(ctx)))
    if combo is None:
        return None
    cof = [
        Polynomial.combine(ctx, ((products[j][1], c) for (j, k), c in combo.items() if k == i))
        for i in range(len(rd.images))
    ]
    invariant(Polynomial.combine(ctx, zip(cof, rd.images)) == Polynomial.one(ctx),
              "fpf cofactors failed re-verification")
    return cof


def _image_kernel(
    images: list[Polynomial], products: list[tuple[tuple[int, ...], Polynomial]]
) -> tuple[RowSpace, list[tuple[int, Combo]], list[Vec]]:
    """Row space of ``images``, their dependencies, and the canonical kernel.

    Each dependency ``(j, dep)`` says ``images[j] == sum(dep[k] * images[k])``
    over earlier indices, so ``products[j] - sum(dep[k] * products[k])`` is
    killed; the kernel is the ``canonical_rref`` of those polynomials, which
    depends only on their span.
    """
    space = RowSpace()
    dependencies = []
    kernel_vecs = []
    for j, img in enumerate(images):
        dep = space.insert(vec_of(img), j)
        if dep is None:
            continue
        dependencies.append((j, dep))
        f = Polynomial.combine(
            products[j][1].context,
            [(products[j][1], 1), *((products[k][1], -c) for k, c in dep.items())],
        )
        if not f.is_zero():
            kernel_vecs.append(vec_of(f))
    return space, dependencies, canonical_rref(kernel_vecs)


def kernel_up_to_degree(
    D: Derivation | RestrictedDerivation, S: Subalgebra, bound: int
) -> list[Polynomial]:
    """Basis of {f in bounded span of S : D(f) == 0}.

    Exact nullspace of the derivation on the span of generator products;
    every relation and every basis element is re-verified.  On the full
    ring that span is every polynomial of total degree <= bound, so a full
    derivation there builds no row space.
    """
    full = isinstance(D, Derivation) and S == Subalgebra.full(S.context)
    span = None if full else GeneratorSpan(S, bound)
    products = generator_products(S, bound) if full else span.products
    images = D.product_images(products)
    _, dependencies, kernel = _image_kernel(images, products)
    for j, dep in dependencies:
        check = Polynomial.combine(
            S.context, [(images[j], 1), *((images[k], -c) for k, c in dep.items())]
        )
        invariant(check.is_zero(), "kernel relation failed image re-verification")
    basis = []
    for row in kernel:
        f = Polynomial._from_ints(S.context, *row)
        invariant(f.degree() <= bound if full else span.contains(f), "kernel basis element left the span")
        invariant(D.apply(f, span).is_zero(), "kernel basis element not killed by derivation")
        basis.append(f)
    return basis
