"""Finitely generated subalgebras and bounded-degree exact linear algebra.

A subalgebra is given by base generators (polynomials in the coefficient
variables, generating the base ring) and algebra generators; whether it
is the full ring R[main variables] is decided once, when it is built
(``Subalgebra.full_ring``).  Membership, fixed-point-freeness and kernel
computations all search the span of generator products of bounded
*formal degree*: the sum of the formal exponents weighted by the total
degree of each generator.  One loop lists them, extending every product
so far by the powers of one generator at a time and checking the product
cap as it goes; ``generator_products`` builds each product once from it.
On the full ring the exponent vectors are the monomials themselves, and
``monomials_up_to`` lists them lazily in the same order, checking the same
cap by their count before the first one.  Membership is asked of a
``GeneratorSpan``, the row space of those products at one bound, whose
``member`` builds and re-verifies every witness, and whose ``images`` is
the one place a product's image is computed: by the Leibniz rule over the
span's own products, from the derivation's generator images on the span's
own subalgebra, checked against the relations among the products.
``solve_images`` is the one solver for slices and kernels, over the rref
basis of a span that ``rref_rows`` lists, and for fixed-point-free
cofactors, over a span's products times the generator images.
``RowSpace`` answers, integer coefficients over one denominator, are read
as they come: no ``Fraction`` is built here.  Bounded searches are
semi-decisions; a miss is reported with its bound, never as a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb
from typing import Callable, Hashable, Iterable, Iterator

from .context import VarContext
from .errors import ContextMismatchError, DomainError, UnsupportedSizeError, invariant
from .derivation import Derivation
from .linalg import RowSpace, Vec, combine, vec_of
from .polynomial import Polynomial, mono_mul

PRODUCT_CAP = 500_000


@dataclass(frozen=True)
class Subalgebra:
    """The algebra over the base generated by ``algebra_generators``.

    ``full_ring`` is true when the base generators are the coefficient
    variables and the algebra generators the main variables, both in
    context order: the polynomial ring R[main variables] itself, however
    it was spelled.
    """

    context: VarContext
    base_generators: tuple[Polynomial, ...]
    algebra_generators: tuple[Polynomial, ...]

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
        ctx = self.context
        coeff = set(ctx.coeff_vars)
        for g in self.base_generators:
            if not g.involves_only(coeff):
                raise ValueError(f"base generator {g} involves main variables")
        object.__setattr__(self, "full_ring", len(self.base_generators) == len(ctx.coeff_vars)
                           and len(self.generators) == ctx.nvars
                           and all(map(_is_variable, self.generators, range(ctx.nvars))))

    @classmethod
    def full(cls, context: VarContext) -> Subalgebra:
        return cls(
            context,
            tuple(Polynomial.variable(context, n) for n in context.coeff_vars),
            tuple(Polynomial.variable(context, n) for n in context.main_vars),
        )

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        return self.base_generators + self.algebra_generators

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(g.degree() for g in self.generators)


def _is_variable(g: Polynomial, i: int) -> bool:
    """Whether ``g`` is the ``i``-th variable of its context, read from its numerators."""
    if g._den != 1 or len(g._num) != 1:
        return False
    (mono, c), = g._num.items()
    return c == 1 and mono[i] == 1 and sum(mono) == 1


def is_scalar_multiple(p: Polynomial, q: Polynomial) -> bool:
    """Whether p == c * q for some rational c, for a nonzero q: the same
    monomials, with proportional numerators."""
    if p._num.keys() != q._num.keys():
        return False
    m = next(iter(q._num))
    a, b = p._num[m], q._num[m]
    return all(c * b == q._num[k] * a for k, c in p._num.items())


def distinct_nonconstant(polys: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """``polys`` without constants (zero included) and without scalar
    multiples of an earlier element (repeats included), first occurrences
    in order."""
    out: list[Polynomial] = []
    for p in polys:
        if not p.is_constant() and not any(is_scalar_multiple(p, q) for q in out):
            out.append(p)
    return tuple(out)


def symbol_context(S: Subalgebra) -> VarContext:
    """Context of abstract generator symbols: b1..bn for base, g1..gm for algebra."""
    return _symbol_context(len(S.base_generators), len(S.algebra_generators))


@lru_cache(maxsize=None)
def _symbol_context(nbase: int, nalgebra: int) -> VarContext:
    """Cached by the generator counts, so the cache holds no subalgebra."""
    names = [f"b{i + 1}" for i in range(nbase)] + [f"g{i + 1}" for i in range(nalgebra)]
    return VarContext((), tuple(names))


def _combine_over(context: VarContext, pairs, den: int) -> Polynomial:
    """``Polynomial.combine(context, pairs) / den``, for an integer ``RowSpace`` answer."""
    total = Polynomial.combine(context, pairs)
    return Polynomial._from_ints(context, total._num, total._den * den)


def generator_products(S: Subalgebra, bound: int) -> list[tuple[tuple[int, ...], Polynomial]]:
    """All products of generators with weighted formal degree <= bound.

    Deterministic exponent-lexicographic order (ascending tuples); includes
    the empty product 1.  Each product is built once, from the factors
    ``_factored_products`` lists; past ``PRODUCT_CAP`` products it raises
    UnsupportedSizeError before building any.
    """
    ctx = S.context
    out = []
    for expo, poly, shift in _factored_products(S, bound):
        if poly is None:
            poly = Polynomial._from_ints(ctx, {shift: 1}, 1)
        elif any(shift):
            poly = Polynomial._from_ints(ctx, {mono_mul(m, shift): c for m, c in poly._num.items()}, poly._den)
        out.append((expo, poly))
    return out


def monomials_up_to(context: VarContext, bound: int) -> Iterator[tuple[int, ...]]:
    """The full ring's ``generator_products`` exponents, the monomials of
    degree <= bound in ascending tuple order, listed lazily; their count is
    checked against ``PRODUCT_CAP`` first, and a negative bound lists none."""
    if bound < 0:
        return iter(())
    n = context.nvars
    _check_cap(comb(bound + n, n), bound)

    def tails(k: int, left: int) -> Iterator[tuple[int, ...]]:
        """The exponents from position k on, of degree <= left."""
        if k == n - 1:
            return ((e,) for e in range(left + 1))
        return ((e,) + t for e in range(left + 1) for t in tails(k + 1, left - e))

    return tails(0, bound)


def _check_cap(count: int, bound: int):
    """The one place the product cap, ``PRODUCT_CAP``, is enforced."""
    if count > PRODUCT_CAP:
        raise UnsupportedSizeError(f"more than {PRODUCT_CAP} generator products below bound {bound}")


def _factored_products(
    S: Subalgebra, bound: int
) -> list[tuple[tuple[int, ...], Polynomial | None, tuple[int, ...]]]:
    """``(exponents, poly, shift)`` per generator product, in order: the
    product is ``poly * x^shift``, where ``poly`` (None for 1) multiplies the
    powers of the generators that are not monomials with coefficient 1 and
    ``shift`` adds up the exponents of those that are.

    The list grows one generator at a time: each entry so far is extended
    by the successive powers of the next generator that its remaining
    weight allows.  Every entry so far extends to at least one product, so
    the count is checked as the list grows: UnsupportedSizeError is raised
    before any entry past ``PRODUCT_CAP`` is listed.  A negative bound
    lists no product, not even 1.
    """
    # (exponents, poly, shift, weight left) per product so far
    out = [((), None, (0,) * S.context.nvars, bound)] if bound >= 0 else []
    for g, w in zip(S.generators, S.weights):
        mono = next(iter(g._num)) if g._den == 1 and list(g._num.values()) == [1] else None
        grown = []
        for expo, poly, shift, left in out:
            count = left // w + 1
            _check_cap(len(grown) + count, bound)
            grown.append((expo + (0,), poly, shift, left))
            for e in range(1, count):
                if mono is not None:
                    shift = mono_mul(shift, mono)
                else:
                    poly = g if poly is None else poly * g
                grown.append((expo + (e,), poly, shift, left - e * w))
        out = grown
    return [(expo, poly, shift) for expo, poly, shift, _ in out]


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
    """Reusable row space of the generator products up to one bound.

    ``relations`` keeps each dependency ``(j, (c, d))`` that inserting the
    products returned: ``d * p_j == sum(c[k] * p_k)`` over earlier products.
    """

    def __init__(self, S: Subalgebra, bound: int):
        self.subalgebra = S
        self.bound = bound
        self.products = generator_products(S, bound)
        self.space = RowSpace()
        self.relations: list[tuple[int, Vec]] = []
        for j, (_, poly) in enumerate(self.products):
            dep = self.space.insert(vec_of(poly), j)
            if dep is not None:
                self.relations.append((j, dep))
        self._images: dict = {}

    def images(self, D: Derivation | RestrictedDerivation) -> list[Polynomial]:
        """D's images of the products, built and checked once per derivation:
        the one place a product's image is computed.

        D's images of S's generators come from ``restriction_of(D, S)``
        (zero for the base generators), and the Leibniz rule
        ``D(p_e) = sum(e_i * D(g_i) * p_(e - u_i))`` reads each lower
        product from ``products``, which holds it.  Images that break a
        relation ``d * p_j == sum(c[k] * p_k)`` define no derivation of the
        subalgebra: DomainError names p_j.
        """
        images = self._images.get(D)
        if images is None:
            S = self.subalgebra
            ctx = S.context
            gen_images = (Polynomial.zero(ctx),) * len(S.base_generators) + restriction_of(D, S).images
            product = dict(self.products)
            images = [Polynomial.combine(ctx, ((img * e, product[expo[:i] + (e - 1,) + expo[i + 1:]])
                                               for i, (e, img) in enumerate(zip(expo, gen_images)) if e and img))
                      for expo, _ in self.products]
            for j, (num, d) in self.relations:
                if combine([(vec_of(images[j]), d), *((vec_of(images[k]), -c) for k, c in num.items())])[0]:
                    raise DomainError(f"the derivation's images break the relation of the generator "
                                      f"product {self.products[j][1]}: it is no derivation of the subalgebra")
            self._images[D] = images
        return images

    def express(self, f: Polynomial) -> Polynomial | None:
        """Expression of f over the products, as a symbol polynomial."""
        combo = self.space.express(vec_of(f))
        if combo is None:
            return None
        num, den = combo
        symbols = {self.products[j][0]: c for j, c in num.items()}
        return Polynomial._from_ints(symbol_context(self.subalgebra), symbols, den)

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

    def fixes_origin(self) -> bool:
        """Whether every generator image vanishes at the origin; see
        ``Derivation.fixes_origin``."""
        return all(img.vanishes_at_origin() for img in self.images)

    def apply(self, f: Polynomial, span: GeneratorSpan | None = None) -> Polynomial:
        """Image of f through its expression over the products of ``span``,
        whose checked ``images`` it reads; without a span there is no
        expression, and DomainError is raised, and a span of another
        subalgebra raises ContextMismatchError."""
        if span is None:
            raise DomainError("a restricted derivation applies through a generator span")
        combo = span.space.express(vec_of(f))
        if combo is None:
            raise DomainError("element left the bounded span while applying the derivation")
        images = span.images(self)
        num, den = combo
        return _combine_over(self.subalgebra.context, ((images[j], c) for j, c in num.items()), den)


def restriction_of(D: Derivation | RestrictedDerivation, S: Subalgebra) -> RestrictedDerivation:
    """RestrictedDerivation view of D on S's algebra generators (images
    unchecked); a restricted derivation on S is returned unchanged, and
    one on another subalgebra raises ContextMismatchError."""
    if isinstance(D, RestrictedDerivation):
        if D.subalgebra != S:
            raise ContextMismatchError("the restricted derivation lives on another subalgebra")
        return D
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
    """Bounded search for cofactors a_i in S with sum(a_i * D(g_i)) == 1:
    the first unit of ``solve_images`` over the products p_j * D(g_i) of
    ``GeneratorSpan(S, bound)``, zero images skipped, aligned with the
    algebra generators, or None when there is none within the bound (not a
    refutation).  Images that all vanish at the origin give None at every
    bound, before any product is built.  The span's ``images`` refuse
    generator images that break a product relation with DomainError, as in
    ``find_slice``; a relation above the bound is not seen (on k[X^2, X^3]
    with D(X^2) = 1 and D(X^3) = 0, bound 6 meets (X^2)^3 == (X^3)^2, and
    bound 5 answers as ``find_slice`` does).
    """
    if rd.fixes_origin():
        return None
    ctx = rd.subalgebra.context
    span = GeneratorSpan(rd.subalgebra, bound)
    span.images(rd)  # refuses images that break a product relation
    tags = ((j, i) for i, img in enumerate(rd.images) if not img.is_zero() for j in range(len(span.products)))
    image = lambda tag: vec_of(span.products[tag[0]][1] * rd.images[tag[1]])
    unit = next((u for _, _, u in solve_images(tags, image, ctx) if u is not None), None)
    if unit is None:
        return None
    num, den = unit
    cof = [
        _combine_over(ctx, ((span.products[j][1], c) for (j, k), c in num.items() if k == i), den)
        for i in range(len(rd.images))
    ]
    invariant(Polynomial.combine(ctx, zip(cof, rd.images)) == Polynomial.one(ctx),
              "fpf cofactors failed re-verification")
    return cof


def rref_rows(
    D: Derivation | RestrictedDerivation, S: Subalgebra, bound: int
) -> tuple[GeneratorSpan | None, Iterable[Hashable], Callable[[Hashable], Vec], Callable[[dict], dict]]:
    """An rref basis r_1 < r_2 < ... of the bounded span of S as
    ``solve_images`` takes it: the span D applies through (None for none),
    the rows' tags by ascending pivot, lazily, the image D(r_j) of a tag,
    and the integer row ``sum(c[t] * r_t)`` of a combination over tags.
    On the full ring a ``Derivation``'s rows are the monomials, their own
    tags, imaged by ``monomial_image``; elsewhere ``span_rows`` lists a
    ``GeneratorSpan``'s rows from its checked product images.
    """
    if isinstance(D, Derivation) and S.full_ring:
        return None, monomials_up_to(S.context, bound), D.monomial_image, lambda combo: combo
    span = GeneratorSpan(S, bound)
    return (span, *span_rows(span, span.images(D).__getitem__))


def span_rows(
    span: GeneratorSpan, image: Callable[[int], Polynomial]
) -> tuple[range, Callable[[int], Vec], Callable[[dict], dict]]:
    """``rref_rows`` over the ``RowSpace.rref`` rows of ``span``, tagged by
    position, given the image of the product at an index.  A row is
    ``sum(combo[t] * num_t)`` over its products' numerators, so its image is
    that combination of their images; each product is imaged at most once.
    """
    rows = span.space.rref()
    dens = [poly._den for _, poly in span.products]
    imaged = cache(lambda t: vec_of(image(t)))

    def row_image(j: int) -> Vec:
        return combine((imaged(t), c * dens[t]) for t, c in rows[j][1].items())

    def expand(combo: dict) -> dict:
        return combine(((rows[j][0], 1), c) for j, c in combo.items())[0]

    return range(len(rows)), row_image, expand


def solve_images(
    tags: Iterable[Hashable], image: Callable[[Hashable], Vec], context: VarContext
) -> Iterator[tuple[Hashable, Vec | None, Vec | None]]:
    """The one solver for slices, kernels and fixed-point-free cofactors:
    insert the image of each tag into one ``RowSpace`` and yield ``(tag,
    dependency, unit)`` per insert.  A dependency ``(c, d)``, None when
    independent, says ``d * image(tag) == sum(c[k] * image(k))``, and
    ``unit`` is the ``express(1)`` answer once 1 is in the span; over
    ``rref_rows`` both are canonical (the lemma in ``find_slice``).

    Corollary: in any insertion order the first unit is the answer after
    every insert.  Proof: rows never change once inserted, and a row whose
    pivot is the smallest key, the monomial 1, holds only that key.
    Reducing 1 reads only that row: ``express(1)`` is None, at the cost of
    one lookup, until an independent insert adds it, and the same after.
    """
    space = RowSpace()
    one = ({(0,) * context.nvars: 1}, 1)
    unit = None
    for tag in tags:
        dep = space.insert(image(tag), tag)
        if dep is None and unit is None:
            unit = space.express(one)
        yield tag, dep, unit


def kernel_up_to_degree(
    D: Derivation | RestrictedDerivation, S: Subalgebra, bound: int
) -> list[Polynomial]:
    """Basis of {f in bounded span of S : D(f) == 0}, by descending pivot.

    Each dependency of ``solve_images`` over the ``rref_rows`` of the span
    is one row of the kernel's reduced echelon form, made pivot-monic (the
    lemma in ``find_slice``); every relation and every basis element is
    re-verified.
    """
    span, tags, image, expand = rref_rows(D, S, bound)
    images = {tag: image(tag) for tag in tags}
    basis = []
    for j, dep, _ in solve_images(images, images.__getitem__, S.context):
        if dep is None:
            continue
        num, den = dep
        check, _ = combine([(images[j], den), *((images[k], -c) for k, c in num.items())])
        invariant(not check, "kernel relation failed image re-verification")
        row = expand({j: den} | {k: -c for k, c in num.items()})
        f = Polynomial._from_ints(S.context, row, row[max(row)])
        invariant(f.degree() <= bound if span is None else span.contains(f), "kernel basis element left the span")
        invariant(D.apply(f, span).is_zero(), "kernel basis element not killed by derivation")
        basis.append(f)
    return basis[::-1]
