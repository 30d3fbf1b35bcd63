"""Slice search, kernel projection, and the witnessed ring decompositions.

For a locally nilpotent derivation D with a slice s (an element with
D(s) = 1), the projection

    pi_s(a) = sum_i (1/i!) * (-s)^i * D^i(a)

is a ring homomorphism onto Ker(D) fixing Ker(D) pointwise, and the ring
decomposes as Ker(D)[s].  This module finds slices by bounded exact
linear algebra, computes kernel generators through the projection, and
certifies the decomposition by exact re-expression witnesses, written
down by the Taylor formula on a full ring (``verify_slice_theorem``).  It
also builds the two witness-guided derivations used by the corpus: the one
composed from a retraction with a partial derivative, and the
complementary one defined through coordinate witnesses over a localized
base.  Transcendence follows from a unit image by a proof, not a search.

Full-ring ``Derivation``s and ``RestrictedDerivation``s on subalgebras are
used through the same two methods, ``apply(f, span)`` and
``fixes_origin()``, and ``Derivation.monomial_image`` on the full ring; a
restricted one applies only through a span of its own subalgebra, whose
``GeneratorSpan.images`` computes every product image.  One routine sums
sum_i (s^i/i!) * a_i, for the projections and the Taylor witnesses, and
every repeated application of a derivation runs ``derivation.iterates``.
``_projections`` is the one place that checks D(s) == 1 and the kill of
each projection; ``verify_slice_theorem`` reads its one iterate chain per
generator for the generator's projection and Taylor witness both.
Slice search, ``kernel_up_to_degree`` and ``subalgebra_fpf`` share one
solver, ``subalgebra.solve_images``; for the first two it inserts the
images of an rref basis of the bounded span in ascending pivot order, the
monomials on the full ring (listed lazily, imaged as integer vectors) and
the ``RowSpace.rref`` rows of a ``GeneratorSpan`` elsewhere.  The slice is
its first unit answer, the canonical kernel-reduced one (the lemma in
``find_slice``, the corollary in ``solve_images``), and the induced
derivations of ``coordinate_system`` are solved alike.  Membership witnesses are asked of a ``GeneratorSpan``
built once per bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Callable

from .context import VarContext
from .derivation import Derivation, NilpotencyVerdict, iterates, metered_iterates
from .errors import ContextMismatchError, DomainError, FailsUpToCapError, invariant
from .polygcd import exact_divide, gcd_fold
from .polynomial import MAX_EXPONENT, Polynomial
from .subalgebra import (
    GeneratorSpan,
    MembershipWitness,
    RestrictedDerivation,
    Subalgebra,
    distinct_nonconstant,
    is_scalar_multiple,
    kernel_up_to_degree,
    restriction_of,
    rref_rows,
    solve_images,
    span_rows,
    subalgebra_member,
    symbol_context,
)

AnyDerivation = Derivation | RestrictedDerivation


def _unit_solution(tags, image, expand, context: VarContext) -> Polynomial | None:
    """The first ``express(1)`` answer of ``solve_images``, built as
    ``sum(c_k * r_k)``, or None; see ``find_slice``."""
    for _, _, unit in solve_images(tags, image, context):
        if unit is not None:
            num, den = unit
            return Polynomial._from_ints(context, expand(num), den)
    return None


def find_slice(D: AnyDerivation, S: Subalgebra, bound: int) -> Polynomial | None:
    """Search the bounded span for s with D(s) == 1.

    Callers should have certified local nilpotency first.  Among all
    solutions the canonical kernel-reduced one is returned, so outputs are
    deterministic; None means none exists up to the bound (for a fixed
    point free certified derivation on a full ring a large enough bound
    always succeeds).  A derivation that fixes the origin (every image
    vanishes there) has no slice at any bound: it returns None before any
    product is built.  Every answer passes the image check D(s) == 1.

    The slice is the first unit answer of ``solve_images`` over the
    ``rref_rows`` of the span (the monomials on the full ring, the
    ``RowSpace.rref`` rows of a ``GeneratorSpan`` elsewhere), which by the
    corollary there is the answer after all N inserts of the lemma.

    Lemma.  Let r_1, ..., r_N be a basis of the bounded span in reduced
    row echelon form, listed by ascending pivot mu_1 < ... < mu_N (a
    row's pivot is its largest monomial, and no row has a term on another
    row's pivot), and insert the images D(r_j) into a ``RowSpace`` in that
    order.  Then mu_j is a pivot of the kernel's reduced echelon form
    exactly when ``insert`` reports D(r_j) as dependent on D(r_1), ...,
    D(r_(j-1)); the row of that pivot is f_j / d, where the dependency
    ``(c, d)`` names f_j = d * r_j - sum_(k<j) c_k * r_k; and the
    combination ``express(1)`` returns, sum c_k * r_k, is the
    kernel-reduced solution of D(s) == 1.

    Proof.  f_j is killed, and its leading monomial is mu_j, since each
    r_k with k < j lies below mu_j.  The f_j are independent (distinct
    leading monomials) and span the kernel: a nonzero kernel element
    g = sum a_k * r_k has the leading monomial mu_j of its largest j with
    a_j != 0, and D(r_j) is a combination of the images of the smaller
    r_k, so r_j is dependent and g minus a multiple of f_j is a kernel
    element with a smaller leading monomial.  So the leading monomials of
    the kernel, the pivots of its reduced form, are exactly the dependent
    mu_j.  A ``RowSpace`` row's combination only holds the tags of
    vectors inserted as independent, and so do a dependency and
    ``express``'s answer.  An independent r_k has no term on another
    row's pivot, dependent ones included, so f_j / d has no term on
    another kernel pivot and its pivot coefficient is 1: it is the row of
    mu_j in the kernel's reduced form.  Likewise the solution has no term
    on a kernel pivot.  Two such solutions differ by a kernel element
    with no term on a kernel pivot, which is zero, so that solution is
    the unique kernel-reduced one.
    """
    if D.fixes_origin():
        return None
    span, *rows = rref_rows(D, S, bound)
    s = _unit_solution(*rows, S.context)
    if s is None:
        return None
    invariant(D.apply(s, span) == Polynomial.one(S.context), "slice candidate failed the image check")
    return s


def _exp_sum(terms: list[Polynomial], s: Polynomial) -> Polynomial:
    """sum_i (s^i/i!) * terms[i]."""
    pairs = []
    weight = Polynomial.one(s.context)  # s^i / i!
    for i, term in enumerate(terms):
        if i:
            weight = weight * (s * Fraction(1, i))
        pairs.append((weight, term))
    return Polynomial.combine(s.context, pairs)


def _projections(D: AnyDerivation, s: Polynomial, elements: tuple[Polynomial, ...], span: GeneratorSpan | None):
    """The iterate chains [a, D(a), ...] of ``elements`` and their projections
    pi_s(a) = sum_i (1/i!) * (-s)^i * D^i(a), each re-checked to be killed;
    D(s) == 1 is checked first, also for no elements."""
    if D.apply(s, span) != Polynomial.one(s.context):
        raise DomainError("dixmier projection needs a slice: D(s) must be 1")
    apply = partial(D.apply, span=span)
    chains = [metered_iterates(apply, a) for a in elements]
    projections = [_exp_sum(chain, -s) for chain in chains]
    for k in projections:
        invariant(apply(k).is_zero(), "dixmier image is not a kernel element")
    return chains, projections


def dixmier(
    D: AnyDerivation,
    s: Polynomial,
    a: Polynomial,
    span: GeneratorSpan | None = None,
) -> Polynomial:
    """Kernel projection pi_s(a); requires D(s) == 1 and terminating iterates.

    The sum is finite for locally nilpotent derivations; factorial
    denominators are exact rationals.  D(s) == 1 and the kill of the
    result are checked once each, by ``_projections``.
    """
    return _projections(D, s, (a,), span)[1][0]


def kernel_generators(
    D: AnyDerivation, s: Polynomial, S: Subalgebra, span: GeneratorSpan | None = None
) -> list[Polynomial]:
    """Projections of the algebra generators: they generate Ker(D) over the base.

    Constant projections (zero included) are dropped; duplicates are
    removed preserving first occurrence.  One ``_projections`` pass checks
    D(s) == 1 and each projection once.
    """
    return list(distinct_nonconstant(_projections(D, s, S.algebra_generators, span)[1]))


@dataclass(frozen=True)
class SliceCertificate:
    """Exact witnesses for the decomposition of the algebra as Ker(D)[s]."""

    slice: Polynomial
    kernel_generators: tuple[Polynomial, ...]
    reexpression: tuple[MembershipWitness, ...]  # aligned with the algebra generators
    bound: int


@dataclass(frozen=True)
class IncompleteReexpression:
    missing: tuple[Polynomial, ...]
    bound: int


def verify_slice_theorem(
    D: AnyDerivation,
    s: Polynomial,
    S: Subalgebra,
    bound: int | None = None,
    span: GeneratorSpan | None = None,
) -> SliceCertificate | IncompleteReexpression:
    """Certify the slice decomposition by re-expressing every generator
    as a polynomial in the kernel generators and s over the base.

    On a full ring with an ambient ``Derivation`` each witness is the
    Taylor formula g = sum_i (s^i/i!) * pi_s(D^i g), written down: pi_s is
    a ring homomorphism fixing the base, so pi_s(D^i g) is D^i g with each
    coefficient variable replaced by its base symbol and each main
    variable x_j by the symbol of the kernel generator pi_s(x_j), or by
    its value when that projection is constant.  The certificate's bound
    is the largest formal degree of the witnesses; a given bound caps it,
    and the generators whose witness exceeds the cap come back as
    ``IncompleteReexpression``.  Elsewhere the given bound is required,
    and one ``GeneratorSpan`` of S at it (``span``, when given) must first
    witness s and D's image of each algebra generator, so that s lies in S
    and D restricts to S; a miss raises DomainError naming the element,
    which is not a refutation.  Then each generator is searched in the span
    of the new generators at the bound.  Every witness is re-verified by
    evaluation; a miss returns the incomplete set rather than failing.  A
    subalgebra with no algebra generator has no slice, and raises
    DomainError.

    One ``_projections`` pass checks D(s) == 1 and computes each generator
    g's iterates [g, D(g), ..., D^(n-1)(g)] once: its projection, a kernel
    generator unless constant, sums them with the powers of -s and is
    checked there to be killed; its Taylor witness substitutes them.
    """
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1")
    if not S.algebra_generators:
        raise DomainError("a slice certificate needs an algebra generator")
    taylor = isinstance(D, Derivation) and S.full_ring
    if not taylor:
        if bound is None:
            raise ValueError("an explicit bound is required off the full ring")
        if span is None:
            span = GeneratorSpan(S, bound)
        images = restriction_of(D, S).images
        for label, f in ((f"the slice {s}", s), *((f"the image {img} of the generator {g}", img)
                                                   for g, img in zip(S.algebra_generators, images))):
            if span.member(f) is None:
                raise DomainError(f"{label} is not found in the subalgebra up to bound {span.bound}")
    chains, projections = _projections(D, s, S.algebra_generators, span)
    kgens = distinct_nonconstant(projections)
    target = Subalgebra(S.context, S.base_generators, kgens + (s,))
    if taylor:
        witnesses = _taylor_witnesses(S, target, chains, projections, bound)
    else:
        witnesses = _reexpress(S, target, bound)
    if isinstance(witnesses, IncompleteReexpression):
        return witnesses
    return SliceCertificate(s, kgens, witnesses, witnesses[0].bound)


def _taylor_witnesses(
    S: Subalgebra,
    target: Subalgebra,
    chains: list[list[Polynomial]],
    projections: list[Polynomial],
    bound: int | None,
) -> tuple[MembershipWitness, ...] | IncompleteReexpression:
    """The Taylor witnesses of ``verify_slice_theorem`` on a full ring S,
    whose algebra generators (the main variables) have the iterate chains
    ``chains`` and the projections ``projections``, in the generators of
    ``target``."""
    sym = symbol_context(target)
    symbols = [Polynomial.variable(sym, name) for name in sym.variables]
    symbol_of = dict(zip(target.generators, symbols))
    bindings = dict(zip(S.context.coeff_vars, symbols))  # the base generators, in order
    for x, p in zip(S.context.main_vars, projections):
        if p.is_constant():
            bindings[x] = p.as_rational()
        elif p in symbol_of:
            bindings[x] = symbol_of[p]
        else:  # a scalar multiple of an earlier projection, which ``distinct_nonconstant`` kept
            g = next(g for g in target.algebra_generators if is_scalar_multiple(p, g))
            bindings[x] = symbol_of[g] * (p.lex_leading()[1] / g.lex_leading()[1])
    expressions = [_exp_sum([f.substitute(bindings, context=sym) for f in chain], symbols[-1])
                   for chain in chains]
    weights = target.weights
    degrees = [max((sum(map(mul, m, weights)) for m in e._num), default=0) for e in expressions]
    if bound is None:
        bound = max(degrees)
    missing = tuple(g for g, d in zip(S.algebra_generators, degrees) if d > bound)
    if missing:
        return IncompleteReexpression(missing, bound)
    witnesses = tuple(MembershipWitness(g, e, bound) for g, e in zip(S.algebra_generators, expressions))
    for w in witnesses:
        invariant(w.evaluate(target) == w.target, "Taylor witness failed re-verification")
    return witnesses


def _reexpress(
    S: Subalgebra, target: Subalgebra, bound: int
) -> tuple[MembershipWitness, ...] | IncompleteReexpression:
    """Witnesses of every algebra generator of S in the generators of
    ``target`` over S's base, or the generators missed at the bound."""
    span = GeneratorSpan(target, bound)
    witnesses = tuple(span.member(g) for g in S.algebra_generators)
    missing = tuple(g for g, w in zip(S.algebra_generators, witnesses) if w is None)
    return IncompleteReexpression(missing, bound) if missing else witnesses


# -- retraction-composed derivations ----------------------------------------


@dataclass(frozen=True)
class RetractionSpec:
    """A retraction of the ambient ring onto a subalgebra, fixing one variable.

    ``fixed_images`` sends every main variable except ``slice_var`` to its
    retraction image; those images must not involve ``slice_var`` and the
    retraction must fix every generator of the target subalgebra.
    """

    subalgebra: Subalgebra
    slice_var: str
    fixed_images: dict[str, Polynomial]

    def __post_init__(self):
        ctx = self.subalgebra.context
        if not ctx.is_main(self.slice_var):
            raise ValueError(f"{self.slice_var!r} is not a main variable")
        others = set(ctx.main_vars) - {self.slice_var}
        if set(self.fixed_images) != others:
            raise ValueError("retraction must map exactly the other main variables")
        for name, img in self.fixed_images.items():
            if img.context != ctx:
                raise ContextMismatchError(f"image of {name!r} lives in a foreign context")
            if not img.partial_derivative(self.slice_var).is_zero():
                raise ValueError(f"retraction image of {name!r} involves {self.slice_var!r}")
        for g in self.subalgebra.generators:
            if g.substitute(self.fixed_images) != g:
                raise ValueError(f"retraction does not fix the generator {g}")

    def __hash__(self):
        return hash((self.subalgebra, self.slice_var, tuple(sorted(self.fixed_images.items()))))

    def retract(self, f: Polynomial) -> Polynomial:
        return f.substitute(self.fixed_images)


@dataclass(frozen=True)
class RetractionDerivation:
    """Derivation obtained by retracting the partial derivative in slice_var.

    ``apply_composed`` is the total formula f -> retract(df/dW); it is a
    derivation on the target subalgebra (not on the whole ambient ring).
    Its powers are ``derivation.iterates(rd.apply_composed, f, cap)``.
    ``restricted`` and ``nilpotency`` are derived from ``spec`` when the
    derivation is built, by iterating ``apply_composed`` on each generator:
    the iterates of g vanish within the cap deg_W(g) + 1, which certifies
    local nilpotency, and g's index and image come from that one list.
    Construction also checks that the slice variable (when it is a
    generator) maps to 1 and that every retraction image is killed.
    Equality and hashing come from ``spec`` alone.
    """

    spec: RetractionSpec
    restricted: RestrictedDerivation = field(init=False, compare=False)
    nilpotency: NilpotencyVerdict = field(init=False, compare=False)

    def __post_init__(self):
        spec = self.spec
        S = spec.subalgebra
        ctx = S.context
        w = spec.slice_var
        wpoly = Polynomial.variable(ctx, w)
        images = []
        indices: dict[str, int] = {}
        for g in S.algebra_generators:
            its = iterates(self.apply_composed, g, (g.degree_in(w) or 0) + 1)
            invariant(its is not None, "retraction derivation exceeded its grading bound")
            images.append(its[1] if len(its) > 1 else Polynomial.zero(ctx))
            invariant(g != wpoly or images[-1] == Polynomial.one(ctx), "slice variable image is not 1")
            indices[str(g)] = len(its)
        for img_name, fixed in spec.fixed_images.items():
            invariant(self.apply_composed(fixed).is_zero(),
                      f"retraction image of {img_name!r} is not killed")
        object.__setattr__(self, "restricted", RestrictedDerivation(S, tuple(images)))
        object.__setattr__(self, "nilpotency",
                           NilpotencyVerdict(True, indices, max(indices.values(), default=1)))

    def apply_composed(self, f: Polynomial) -> Polynomial:
        return self.spec.retract(f.partial_derivative(self.spec.slice_var))


def lnd_from_retraction(spec: RetractionSpec) -> RetractionDerivation:
    """Build and check the derivation g -> retract(dg/dW) on the subalgebra;
    see ``RetractionDerivation``."""
    return RetractionDerivation(spec)


# -- complementary derivation from coordinate witnesses ----------------------

COORD_V = "V_"
COORD_U = "U0_"


def coordinate_context(ctx: VarContext) -> VarContext:
    """Context for coordinate witnesses: base variables plus two slot symbols."""
    return VarContext(ctx.coeff_vars, (COORD_V, COORD_U))


@dataclass(frozen=True)
class CoordinateWitness:
    """t^power * generator == numerator(V_, U0_), coefficients in the base."""

    numerator: Polynomial  # over coordinate_context
    t_power: int

    def __post_init__(self):
        if self.t_power < 0:
            raise ValueError("t_power must be non-negative")
        if self.t_power > MAX_EXPONENT:
            raise ValueError(f"t_power {self.t_power} exceeds the cap {MAX_EXPONENT}")


@dataclass(frozen=True)
class ComplementaryLnd:
    derivation: RestrictedDerivation
    alpha: int
    nilpotency: NilpotencyVerdict
    kernel_basis: tuple[Polynomial, ...]
    membership: tuple[MembershipWitness, ...]
    reduced_by: Polynomial | None


def complementary_lnd(
    S: Subalgebra,
    v: Polynomial,
    u0: Polynomial,
    t: Polynomial,
    witnesses: list[CoordinateWitness],
    alpha_cap: int,
    member_bound: int,
    kernel_bound: int,
) -> ComplementaryLnd:
    """Derivation with image t^alpha along the U0 coordinate and V in its kernel.

    Each generator g carries a witness t^k * g == N_g(V, U0), and one list
    of the d/dU0 iterates of N_g gives both g's nilpotency index (its
    length, N_g's U0-degree plus one, which certifies nilpotency) and the
    numerator dN_g/dU0 of g's image (its second entry).  The candidate
    images are t^(alpha-k) * dN_g/dU0 with denominators cleared by powers
    of t, and the least alpha <= alpha_cap for which every image lies in
    the bounded span of S is accepted.  Post-checks: the image of V is
    zero and the bounded kernel lies in the span of the base adjoined
    with V.

    Raises FailsUpToCapError with the per-alpha trace when no alpha works.
    """
    ctx = S.context
    if v not in S.algebra_generators:
        raise DomainError("the kernel coordinate must be an algebra generator")
    if len(witnesses) != len(S.algebra_generators):
        raise DomainError("one coordinate witness per algebra generator is required")
    if t.is_zero():
        raise DomainError("the clearing element must be nonzero")
    if not t.involves_only(ctx.coeff_vars):
        raise DomainError("the clearing element must lie in the base")
    if not t.is_constant() and S.base_generators:
        base_only = Subalgebra(ctx, S.base_generators, ())
        if subalgebra_member(t, base_only, member_bound) is None:
            raise DomainError("the clearing element is not visible in the base span")
    bindings = {COORD_V: v, COORD_U: u0}
    for g, cw in zip(S.algebra_generators, witnesses):
        lhs = t ** cw.t_power * g
        if cw.numerator.substitute(bindings, context=ctx) != lhs:
            raise DomainError(f"coordinate witness for {g} does not evaluate exactly")

    d_u = partial(Polynomial.partial_derivative, name=COORD_U)
    base_images: list[Polynomial] = []  # dN_g/dU0 at (v, u0)
    indices: dict[str, int] = {}
    for g, cw in zip(S.algebra_generators, witnesses):
        its = iterates(d_u, cw.numerator, cw.numerator.degree_in(COORD_U) or 0)
        invariant(its is not None, "nilpotency index check failed")
        indices[str(g)] = len(its)
        numerator = its[1] if len(its) > 1 else Polynomial.zero(cw.numerator.context)
        base_images.append(numerator.substitute(bindings, context=ctx))
    verdict = NilpotencyVerdict(True, indices, max(indices.values(), default=1))

    span = GeneratorSpan(S, member_bound)
    trace: list[tuple[int, str, str]] = []
    for alpha in range(alpha_cap + 1):
        images: list[Polynomial] = []
        mwits: list[MembershipWitness] = []
        for g, cw, base_img in zip(S.algebra_generators, witnesses, base_images):
            if base_img.is_zero():
                img = base_img
            elif alpha >= cw.t_power:
                img = t._power(alpha - cw.t_power) * base_img
            else:
                img = exact_divide(base_img, t._power(cw.t_power - alpha))
                if img is None:
                    trace.append((alpha, str(g), "denominator does not clear"))
                    break
            w = span.member(img)
            if w is None:
                trace.append((alpha, str(g), f"image {img} not found in span at {member_bound}"))
                break
            images.append(img)
            mwits.append(w)
        else:
            break
    else:
        raise FailsUpToCapError(
            f"no alpha up to {alpha_cap} maps every generator into the subalgebra", trace
        )

    # Irreducibility reduction: divide out a common base factor when the
    # quotients stay inside the subalgebra.
    reduced_by = None
    nonzero = [img for img in images if not img.is_zero()]
    if nonzero:
        common = gcd_fold(nonzero)
        if not common.is_constant() and common.involves_only(ctx.coeff_vars):
            quotients = [
                Polynomial.zero(ctx) if img.is_zero() else exact_divide(img, common)
                for img in images
            ]
            if all(q is not None for q in quotients):
                new_wits = []
                for q in quotients:
                    w = span.member(q)
                    if w is None:
                        break
                    new_wits.append(w)
                else:
                    images, mwits, reduced_by = quotients, new_wits, common

    rd = RestrictedDerivation(S, tuple(images))
    v_index = S.algebra_generators.index(v)
    invariant(images[v_index].is_zero(), "the kernel coordinate is not killed")

    basis = kernel_up_to_degree(rd, S, kernel_bound)
    sv = Subalgebra(ctx, S.base_generators, (v,))
    sv_span = GeneratorSpan(sv, kernel_bound)
    for f in basis:
        if not sv_span.contains(f):
            raise DomainError(f"kernel element {f} escapes the span of the base and {v}")
    return ComplementaryLnd(rd, alpha, verdict, tuple(basis), tuple(mwits), reduced_by)


# -- transcendence and proportionality ---------------------------------------


@dataclass(frozen=True)
class TranscendenceResult:
    bound: int


def transcendence_check(
    D: AnyDerivation, x: Polynomial, S: Subalgebra, bound: int
) -> TranscendenceResult:
    """Certify that x satisfies no algebraic relation over the base.

    The check is that D(x), applied through the span of S at the bound
    for a restricted derivation, is a nonzero rational; the conclusion is
    then a theorem, so nothing is searched, and the bound is recorded.

    Proof.  Suppose sum_(i<=n) b_i * x^i == 0 with base coefficients b_i
    and b_n != 0, with n least.  n == 0 would make b_0 zero, so n >= 1.
    D kills the base, so applying D gives sum_(i>=1) i * D(x) * b_i *
    x^(i-1) == 0, a relation of degree n - 1 whose leading coefficient
    n * D(x) * b_n is nonzero, since D(x) is a nonzero rational and the
    ring is a domain of characteristic zero.  That contradicts the
    minimality of n, so no relation exists, of any degree.
    """
    span = GeneratorSpan(S, bound) if isinstance(D, RestrictedDerivation) else None
    val = D.apply(x, span).as_rational()
    if val is None or val == 0:
        raise DomainError("transcendence check requires a unit image for x")
    return TranscendenceResult(bound)


@dataclass(frozen=True)
class ProportionalityResult:
    factor: Polynomial | None
    counterexample: Polynomial | None

    @property
    def proportional(self) -> bool:
        return self.factor is not None


def proportionality_check(
    d1: RestrictedDerivation,
    d: RestrictedDerivation,
    cofactors: list[Polynomial],
    S: Subalgebra,
) -> ProportionalityResult:
    """Check d1 == c * d with c recovered from a fixed-point-free witness.

    ``cofactors`` a_i (aligned with the algebra generators) must satisfy
    sum(a_i * d(g_i)) == 1 exactly; then c := sum(a_i * d1(g_i)) and every
    generator identity d1(g) == c * d(g) is verified exactly.
    """
    ctx = S.context
    if d1.subalgebra != S or d.subalgebra != S:
        raise ContextMismatchError("derivations do not live on the given subalgebra")
    if len(cofactors) != len(S.algebra_generators):
        raise DomainError("one cofactor per algebra generator is required")
    if Polynomial.combine(ctx, zip(cofactors, d.images)) != Polynomial.one(ctx):
        raise DomainError("invalid fixed-point-free witness")
    c = Polynomial.combine(ctx, zip(cofactors, d1.images))
    for g, i1, i0 in zip(S.algebra_generators, d1.images, d.images):
        if i1 != c * i0:
            return ProportionalityResult(None, g)
    return ProportionalityResult(c, None)


# -- iterated coordinate extraction ------------------------------------------


@dataclass(frozen=True)
class CoordinateSystem:
    coordinates: tuple[Polynomial, ...]
    witnesses: tuple[MembershipWitness, ...]  # aligned with the algebra generators
    bound: int


def coordinate_system(
    derivations: list[Derivation],
    given: list[Polynomial],
    S: Subalgebra,
    bound: int,
) -> CoordinateSystem | IncompleteReexpression:
    """Extract a full coordinate system from a tuple of sliced derivations.

    ``given`` supplies the first coordinates (given[i] is a slice of the
    i-th derivation after projecting through the earlier kernels, and is
    killed by all later derivations); remaining coordinates are discovered
    by bounded slice search on the induced derivations.  The result
    re-expresses every algebra generator in the coordinates over the base,
    exactly; the coordinates are themselves polynomials in the generators,
    which is the reverse direction of the equivalence.
    """
    ctx = S.context
    if len(given) > len(derivations):
        raise DomainError("more given coordinates than derivations")
    for j, D in enumerate(derivations):
        for i, e in enumerate(given):
            if j > i and not D.apply(e).is_zero():
                raise DomainError(
                    f"derivation {j + 1} does not kill the given coordinate {e}"
                )

    projections: list[tuple[Callable[[Polynomial], Polynomial], Polynomial]] = []

    def project(f: Polynomial, upto: int) -> Polynomial:
        for apply_fn, s in projections[:upto]:
            f = _exp_sum(metered_iterates(apply_fn, f), -s)
        return f

    def induced_apply(k: int) -> Callable[[Polynomial], Polynomial]:
        D = derivations[k]
        return lambda f: project(D.apply(f), k)

    current = list(S.algebra_generators)
    coords: list[Polynomial] = []
    for k, D in enumerate(derivations):
        apply_k = induced_apply(k)
        if k < len(given):
            s_k = project(given[k], k)
            if apply_k(s_k) != Polynomial.one(ctx):
                raise DomainError(
                    f"projected coordinate {given[k]} is not a slice of the induced derivation"
                )
            coords.append(given[k])
        else:
            gens = distinct_nonconstant(g for g in current if g not in S.base_generators)
            span = GeneratorSpan(Subalgebra(ctx, S.base_generators, gens), bound)
            s_k = _unit_solution(*span_rows(span, lambda j: apply_k(span.products[j][1])), ctx)
            if s_k is None:
                raise DomainError(f"no slice found for induced derivation {k + 1} at {bound}")
            invariant(apply_k(s_k) == Polynomial.one(ctx), "induced slice failed the image check")
            coords.append(s_k)
        projections.append((apply_k, s_k))
        current = [project(g, k + 1) for g in current]

    witnesses = _reexpress(S, Subalgebra(ctx, S.base_generators, tuple(coords)), bound)
    if isinstance(witnesses, IncompleteReexpression):
        return witnesses
    return CoordinateSystem(tuple(coords), witnesses, bound)
