"""Slice search, kernel projection, certificates, and witness-guided builds."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lndkit import (
    ContextMismatchError,
    CoordinateWitness,
    Derivation,
    DomainError,
    FailsUpToCapError,
    GeneratorSpan,
    IncompleteReexpression,
    Polynomial,
    RestrictedDerivation,
    RetractionSpec,
    SliceCertificate,
    Subalgebra,
    UnsupportedSizeError,
    VarContext,
    complementary_lnd,
    coordinate_context,
    coordinate_system,
    dixmier,
    find_slice,
    iterates,
    kernel_generators,
    kernel_up_to_degree,
    lnd_from_retraction,
    parse_polynomial,
    proportionality_check,
    restriction_of,
    TranscendenceResult,
    transcendence_check,
    verify_slice_theorem,
)

from lndkit.derivation import TERM_BUDGET
from lndkit.harness import load_corpus, random_triangular_lnd
from lndkit.linalg import RowSpace, vec_of

from helpers import (
    canonical_rref,
    perturb_taylor_witnesses,
    rand_poly,
    reduce_by_rref,
    reference_kernel,
    reference_reexpress,
    reference_solve_unit_image,
    reference_taylor_certificate,
    reference_transcendence,
    taylor_bound,
)

CTX = VarContext((), ("X", "Y"))
CTXT = VarContext(("t",), ("X", "Y"))


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def D_of(ctx, **images):
    return Derivation(ctx, {k: parse_polynomial(v, ctx) for k, v in images.items()})


DY = D_of(CTX, X="0", Y="1")
WORKED = D_of(CTXT, X="t", Y="1 - t^2*X")
NEGATIVE = D_of(CTXT, X="Y", Y="0")


def test_find_slice_partial_derivative():
    assert find_slice(DY, Subalgebra.full(CTX), 1) == P("Y")


def test_find_slice_worked_instance():
    s = find_slice(WORKED, Subalgebra.full(CTXT), 3)
    assert s == P("Y + 1/2*t*X^2", CTXT)


def test_find_slice_negative_control():
    assert find_slice(NEGATIVE, Subalgebra.full(CTXT), 10) is None


# d/dY restricted to the full ring.  On another subalgebra its generator
# images would be paired with that subalgebra's products, so a search there
# would read wrong images and pass its own re-check on them: it is refused.
DY_ON_FULL = RestrictedDerivation(Subalgebra.full(CTXT), (P("0", CTXT), P("1", CTXT)))


def test_find_slice_refuses_a_restricted_derivation_of_another_subalgebra():
    S = Subalgebra(CTXT, (P("t", CTXT),), (P("X", CTXT), P("Y^2", CTXT)))
    with pytest.raises(ContextMismatchError):
        find_slice(DY_ON_FULL, S, 3)  # not the slice Y^2: D(Y^2) = 2*Y


def test_kernel_refuses_a_restricted_derivation_of_another_subalgebra():
    S = Subalgebra(CTXT, (P("t", CTXT),), (P("X + Y", CTXT), P("Y", CTXT)))
    with pytest.raises(ContextMismatchError):
        kernel_up_to_degree(DY_ON_FULL, S, 2)  # not X + Y in the kernel: D(X + Y) = 1


def test_dixmier_refuses_a_span_of_another_subalgebra():
    S = Subalgebra(CTXT, (P("t", CTXT),), (P("X + Y", CTXT), P("Y", CTXT)))
    with pytest.raises(ContextMismatchError):
        dixmier(DY_ON_FULL, P("Y", CTXT), P("X + Y", CTXT), GeneratorSpan(S, 2))  # not X + Y, but X


def test_find_slice_misses_off_the_origin():
    """X -> 0, Y -> X - 1 does not fix the origin, so the bounded search runs
    and misses: D(s) lies in the ideal (X - 1), which holds no 1."""
    d = D_of(CTXT, X="0", Y="X - 1")
    assert not d.fixes_origin()
    S = Subalgebra.full(CTXT)
    assert find_slice(d, S, 4) is None
    assert find_slice(restriction_of(d, S), S, 4) is None


@pytest.mark.parametrize("D, ctx, bound", [
    (DY, CTX, 1), (DY, CTX, 3), (WORKED, CTXT, 2), (WORKED, CTXT, 3), (WORKED, CTXT, 4),
    (NEGATIVE, CTXT, 4),
])
def test_find_slice_same_with_or_without_span(D, ctx, bound):
    """The full derivation applies without a span, its restriction through
    the span find_slice builds; both find the same slice, or both miss."""
    S = Subalgebra.full(ctx)
    assert find_slice(D, S, bound) == find_slice(restriction_of(D, S), S, bound)


@pytest.mark.parametrize("seed", range(12))
def test_full_and_restricted_derivations_agree(seed):
    """A derivation and its restriction to the full ring are one derivation:
    slice search, bounded kernel and kernel generators must not tell them apart."""
    D = random_triangular_lnd(seed)
    S = Subalgebra.full(D.context)
    rd = restriction_of(D, S)
    s = find_slice(D, S, 6)
    assert s is not None
    assert find_slice(rd, S, 6) == s
    assert kernel_up_to_degree(D, S, 3) == kernel_up_to_degree(rd, S, 3)
    assert kernel_generators(D, s, S) == kernel_generators(rd, s, S, GeneratorSpan(S, 12))


CTXZ = VarContext((), ("X", "Y", "Z"))


def _monomials(ctx, bound):
    """The monomials of degree <= bound, as polynomials."""
    return [Polynomial(ctx, {m: 1}) for m in itertools.product(range(bound + 1), repeat=ctx.nvars)
            if sum(m) <= bound]


def _reference_find_slice(D, bound):
    """The polynomial slice solver that the full-ring one replaced: products
    and images as polynomials, the kernel's ``canonical_rref``, and the
    solution of D(s) == 1 reduced by it; no exit at the origin."""
    ctx = D.context
    products = _monomials(ctx, bound)
    space = RowSpace()
    kernel_vecs = []
    for j, poly in enumerate(products):
        dep = space.insert(vec_of(D.apply(poly)), j)
        if dep is None:
            continue
        num, den = dep
        f = Polynomial.combine(ctx, [(poly, den), *((products[k], -c) for k, c in num.items())])
        if not f.is_zero():
            kernel_vecs.append(vec_of(f))
    combo = space.express(vec_of(Polynomial.one(ctx)))
    if combo is None:
        return None
    num, den = combo
    s0 = Polynomial.combine(ctx, ((products[j], c) for j, c in num.items()))
    return Polynomial._from_ints(ctx, *reduce_by_rref((s0._num, s0._den * den), canonical_rref(kernel_vecs)))


def _polys(ctx, names, max_degree=2):
    """Polynomials of degree <= max_degree in ``names``, up to three terms."""
    idx = {ctx.index(n) for n in names}
    monos = [m for m in itertools.product(range(max_degree + 1), repeat=ctx.nvars)
             if sum(m) <= max_degree and all(i in idx for i, e in enumerate(m) if e)]
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2, 3]))
    return st.dictionaries(st.sampled_from(monos), coeffs, max_size=3).map(lambda t: Polynomial(ctx, t))


@st.composite
def _derivations(draw):
    """Derivations of k[t][X, Y] and k[X, Y, Z]: triangular (each image in the
    base and the earlier variables) or not, with a unit constant term on the
    first image (then a triangular one is fixed point free) or not, and
    with one image zero or not."""
    ctx = draw(st.sampled_from([CTXT, CTXZ]))
    triangular = draw(st.booleans())
    allowed = list(ctx.coeff_vars)
    images = {}
    for name in ctx.main_vars:
        images[name] = draw(_polys(ctx, allowed if triangular else ctx.variables))
        allowed.append(name)
    first = ctx.main_vars[0]
    if draw(st.booleans()):
        images[first] = images[first] + draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    if draw(st.booleans()):
        images[draw(st.sampled_from(ctx.main_vars))] = Polynomial.zero(ctx)
    return Derivation(ctx, images)


@given(_derivations(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_full_ring_slice_search_matches_the_general_path(D, bound):
    """The one solver reads the canonical slice off ``express`` and the
    kernel off its dependencies (see ``find_slice``): over the monomials,
    over the rref rows of the restriction's span, and by the solvers it
    replaced, slice for slice, miss for miss and kernel for kernel."""
    S = Subalgebra.full(D.context)
    s = find_slice(D, S, bound)
    assert s == find_slice(restriction_of(D, S), S, bound)
    assert s == _reference_find_slice(D, bound)
    kernel = kernel_up_to_degree(D, S, bound)
    assert kernel == kernel_up_to_degree(restriction_of(D, S), S, bound)
    assert kernel == reference_kernel(D, S, bound)
    for poly in _monomials(D.context, 2):
        (mono,) = poly._num
        assert Polynomial._from_ints(D.context, *D.monomial_image(mono)) == D.apply(poly)


def _reference_full_ring_slice(D, bound):
    """The full-ring solver before it stopped early: every monomial's image
    is inserted, in ascending order, and only then is 1 expressed."""
    space = RowSpace()
    for poly in _monomials(D.context, bound):
        (mono,) = poly._num
        space.insert(D.monomial_image(mono), mono)
    combo = space.express(vec_of(Polynomial.one(D.context)))
    return None if combo is None else Polynomial._from_ints(D.context, *combo)


@given(_derivations(), st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_early_exit_slice_matches_the_insert_everything_solver(D, bound):
    """Stopping once 1 is in the span gives the answer after every insert
    (the corollary in ``find_slice``)."""
    assert find_slice(D, Subalgebra.full(D.context), bound) == _reference_full_ring_slice(D, bound)


def _count_images(monkeypatch):
    """Record the monomials ``Derivation.monomial_image`` is asked for."""
    seen = []
    image = Derivation.monomial_image

    def counted(self, mono):
        seen.append(mono)
        return image(self, mono)

    monkeypatch.setattr(Derivation, "monomial_image", counted)
    return seen


def test_full_ring_slice_search_stops_once_1_is_in_the_span(monkeypatch):
    """D(X) = 1, D(Y) = 0: the nine powers of Y image to 0, so 1 enters the
    span with X, the tenth monomial; the other 155 are never imaged."""
    seen = _count_images(monkeypatch)
    d = D_of(CTXT, X="1", Y="0")
    assert find_slice(d, Subalgebra.full(CTXT), 8) == P("X", CTXT)
    assert len(seen) == 10
    assert seen[-1] == (0, 1, 0)


def test_a_full_ring_slice_miss_images_every_monomial(monkeypatch):
    """D(X) = 1 + t has no slice: 1 never enters the span, and all
    comb(bound + 3, 3) monomials are imaged."""
    seen = _count_images(monkeypatch)
    d = D_of(CTXT, X="1 + t", Y="0")
    assert find_slice(d, Subalgebra.full(CTXT), 5) is None
    assert len(seen) == math.comb(5 + 3, 3)
    assert len(set(seen)) == len(seen)


def test_the_general_slice_search_stops_once_1_is_in_the_span(monkeypatch):
    """D(X + t) = 1, D(Y^2 - 1) = 0 on k[t][X + t, Y^2 - 1]: the rref rows
    1, Y^2 and Y^4 image to 0, so 1 enters the span with the fourth row, X;
    the other 18 of the span's 22 rows are never imaged."""
    from lndkit import subalgebra

    rows = subalgebra.span_rows
    imaged, sizes = [], []

    def counted(span, image):
        tags, row_image, expand = rows(span, image)
        sizes.append(len(tags))

        def recorded(j):
            imaged.append(j)
            return row_image(j)

        return tags, recorded, expand

    monkeypatch.setattr(subalgebra, "span_rows", counted)
    S = Subalgebra(CTXT, (P("t", CTXT),), (P("X + t", CTXT), P("Y^2 - 1", CTXT)))
    rd = RestrictedDerivation(S, (P("1", CTXT), P("0", CTXT)))
    assert find_slice(rd, S, 4) == P("X", CTXT)
    assert imaged == [0, 1, 2, 3]
    assert sizes == [22]


@pytest.mark.parametrize("ctx, bound", [(CTXT, 3), (CTXZ, 2)], ids=["t-X-Y", "X-Y-Z"])
def test_full_ring_searches_meet_the_product_cap(ctx, bound, monkeypatch):
    """The full-ring slice and kernel searches list their monomials under
    the one product cap: exactly ``count`` products pass, one fewer raises."""
    from lndkit import subalgebra

    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {n: Polynomial.one(ctx) for n in ctx.main_vars})
    count = math.comb(bound + ctx.nvars, ctx.nvars)
    monkeypatch.setattr(subalgebra, "PRODUCT_CAP", count)
    assert find_slice(d, S, bound) is not None
    assert kernel_up_to_degree(d, S, bound)
    monkeypatch.setattr(subalgebra, "PRODUCT_CAP", count - 1)
    for search in (find_slice, kernel_up_to_degree):
        with pytest.raises(UnsupportedSizeError, match=f"more than {count - 1} generator products below bound {bound}"):
            search(d, S, bound)


def _halve_the_unit_answer(monkeypatch):
    """Make the one solver's unit answer half what it should be."""
    from lndkit import slices

    solve = slices.solve_images

    def halved(*args):
        for tag, dep, unit in solve(*args):
            yield tag, dep, None if unit is None else (unit[0], 2 * unit[1])

    monkeypatch.setattr(slices, "solve_images", halved)


@pytest.mark.parametrize("restricted", [False, True])
def test_slice_and_projection_checks_fire_on_a_wrong_solver(restricted, monkeypatch):
    """The image checks of find_slice and dixmier are explicit raises, so
    they fire under ``python -O`` too.  The one solver reads the monomials
    of a full-ring derivation and the rref rows of the span of a
    restricted one; either way its halved answer fails the check."""
    from lndkit import slices

    S = Subalgebra.full(CTXT)
    span = GeneratorSpan(S, 4)
    d = restriction_of(WORKED, S) if restricted else WORKED
    _halve_the_unit_answer(monkeypatch)
    with pytest.raises(AssertionError, match="slice candidate failed the image check"):
        find_slice(d, S, 4)
    monkeypatch.setattr(slices, "_exp_sum", lambda terms, s: terms[0])
    with pytest.raises(AssertionError, match="dixmier image is not a kernel element"):
        dixmier(d, P("Y + 1/2*t*X^2", CTXT), P("X", CTXT), span)


def test_dixmier_kills_slice():
    assert dixmier(DY, P("Y"), P("Y")).is_zero()


def test_dixmier_fixes_kernel_elements():
    assert dixmier(DY, P("Y"), P("X")) == P("X")


def test_dixmier_worked_instance():
    s = P("Y + 1/2*t*X^2", CTXT)
    k = dixmier(WORKED, s, P("X", CTXT))
    assert k == P("X", CTXT) - P("t", CTXT) * s
    assert WORKED.apply(k).is_zero()


def test_dixmier_requires_slice():
    with pytest.raises(DomainError):
        dixmier(NEGATIVE, P("X", CTXT), P("Y", CTXT))


def test_dixmier_term_budget_ends_growing_iterates():
    """X -> X^2 + X has the slice Y of Y -> 1 but is not locally nilpotent,
    and D^n(X) has n + 1 terms: the term budget ends the sum long before
    the step cap would."""
    d = D_of(CTX, X="X^2 + X", Y="1")
    with pytest.raises(DomainError, match=f"exceeded {TERM_BUDGET} terms"):
        dixmier(d, P("Y"), P("X"))


def test_kernel_generators_partial():
    assert kernel_generators(DY, P("Y"), Subalgebra.full(CTX)) == [P("X")]


def test_kernel_generators_worked():
    s = P("Y + 1/2*t*X^2", CTXT)
    gens = kernel_generators(WORKED, s, Subalgebra.full(CTXT))
    assert gens[0] == P("X - t*Y - 1/2*t^2*X^2", CTXT)
    for k in gens:
        assert WORKED.apply(k).is_zero()


def test_verify_slice_theorem_trivial():
    cert = verify_slice_theorem(DY, P("Y"), Subalgebra.full(CTX), 2)
    assert cert.kernel_generators == (P("X"),)
    target = Subalgebra(CTX, (), (P("X"), P("Y")))
    for g, w in zip((P("X"), P("Y")), cert.reexpression):
        assert w.evaluate(target) == g


def test_verify_slice_theorem_worked_instance():
    s = P("Y + 1/2*t*X^2", CTXT)
    S = Subalgebra.full(CTXT)
    cert = verify_slice_theorem(WORKED, s, S)
    assert not isinstance(cert, IncompleteReexpression)
    K = P("X - t*Y - 1/2*t^2*X^2", CTXT)
    assert cert.kernel_generators[0] == K
    # the stated identities, re-checked by the substitute oracle term for term
    ts = P("t", CTXT) * s
    assert P("X", CTXT) == K + ts
    assert P("Y", CTXT) == s - P("1/2*t", CTXT) * (K + ts) ** 2
    target = Subalgebra(CTXT, S.base_generators, cert.kernel_generators + (s,))
    for g, w in zip(S.algebra_generators, cert.reexpression):
        assert w.evaluate(target) == g


def test_taylor_bound_only_on_the_full_ring():
    s = P("Y + 1/2*t*X^2", CTXT)
    S = Subalgebra(CTXT, (P("t^2", CTXT),), (P("X", CTXT), P("Y", CTXT)))
    assert not S.full_ring
    with pytest.raises(ValueError, match="explicit bound"):
        verify_slice_theorem(WORKED, s, S)
    assert verify_slice_theorem(WORKED, s, Subalgebra.full(CTXT)).bound == 9


def _formal_degree(w, target):
    return max(sum(e * d for e, d in zip(m, target.weights)) for m in w.expression._num)


def _seeded_slice(seed):
    d = random_triangular_lnd(seed)
    S = Subalgebra.full(d.context)
    return d, find_slice(d, S, 8), S


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_taylor_witnesses_evaluate_back_within_the_reference_bound(seed):
    d, s, S = _seeded_slice(seed)
    cert = verify_slice_theorem(d, s, S)
    target = Subalgebra(S.context, S.base_generators, cert.kernel_generators + (s,))
    bound = taylor_bound(d, s, S, [dixmier(d, s, g) for g in S.algebra_generators])
    for g, w in zip(S.algebra_generators, cert.reexpression):
        assert w.target == g and w.evaluate(target) == g
        assert _formal_degree(w, target) <= bound


def test_taylor_bound_and_verdicts_match_the_reference_search():
    """The certificate's bound is the old sufficient bound, and at every
    explicit bound up to it the formula misses exactly the generators the
    span search missed."""
    for seed in range(1, 601):
        d, s, S = _seeded_slice(seed)
        cert = verify_slice_theorem(d, s, S)
        assert cert.bound == taylor_bound(d, s, S, [dixmier(d, s, g) for g in S.algebra_generators])
        if seed > 120:
            continue
        for bound in range(1, cert.bound + 1):
            out = verify_slice_theorem(d, s, S, bound)
            ref, _ = reference_reexpress(d, s, S, bound)
            assert isinstance(out, IncompleteReexpression) == isinstance(ref, IncompleteReexpression)
            if isinstance(out, IncompleteReexpression):
                assert out.missing == ref.missing and out.bound == bound
            else:
                assert out.bound == bound and all(w.bound == bound for w in out.reexpression)


def test_three_variable_certificate_builds_no_span(monkeypatch):
    """The witnesses of a full ring come from the Taylor formula: the span
    of the old search would have to reach bound 52 here."""
    ctx = VarContext(("t",), ("X", "Y", "Z"))
    d = D_of(ctx, X="t", Y="1 - t^2*X", Z="t*X^3*Y^4 + Y")
    s = P("Y + 1/2*t*X^2", ctx)
    S = Subalgebra.full(ctx)
    built = []
    init = GeneratorSpan.__init__
    monkeypatch.setattr(GeneratorSpan, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    cert = verify_slice_theorem(d, s, S)
    assert built == []
    assert isinstance(cert, SliceCertificate) and cert.bound == 52
    target = Subalgebra(ctx, S.base_generators, cert.kernel_generators + (s,))
    assert [w.evaluate(target) for w in cert.reexpression] == list(S.algebra_generators)
    assert max(_formal_degree(w, target) for w in cert.reexpression) == 52


def test_certificates_match_the_two_pass_computation():
    """One iterate chain per generator gives the kernel generators, the
    witness expressions and the bound of the computation that iterated
    each generator twice, on seeds 1 to 120."""
    for seed in range(1, 121):
        d, s, S = _seeded_slice(seed)
        cert = verify_slice_theorem(d, s, S)
        kgens, witnesses, bound = reference_taylor_certificate(d, s, S)
        assert cert.kernel_generators == kgens and cert.bound == bound
        assert cert.reexpression == witnesses


@pytest.mark.parametrize("case", ["seeded", "three-variable"])
def test_full_ring_certificate_iterates_each_generator_once(case, monkeypatch):
    """The projection and the Taylor witness of a generator read one
    ``metered_iterates`` chain."""
    from lndkit import slices

    if case == "seeded":
        d, s, S = _seeded_slice(7)
    else:
        ctx = VarContext(("t",), ("X", "Y", "Z"))
        d = D_of(ctx, X="t", Y="1 - t^2*X", Z="t*X^3*Y^4 + Y")
        s, S = P("Y + 1/2*t*X^2", ctx), Subalgebra.full(ctx)
    chained = []
    real = slices.metered_iterates
    monkeypatch.setattr(slices, "metered_iterates", lambda apply, a: chained.append(a) or real(apply, a))
    assert isinstance(verify_slice_theorem(d, s, S), SliceCertificate)
    assert chained == list(S.algebra_generators)


def _record_applies(monkeypatch):
    """Every polynomial a derivation of either kind is applied to, in order."""
    applied = []
    for cls in (Derivation, RestrictedDerivation):
        real = cls.apply
        monkeypatch.setattr(cls, "apply", lambda self, f, span=None, real=real: applied.append(f) or real(self, f, span))
    return applied


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("call", ["dixmier", "kernel_generators", "verify_slice_theorem"])
def test_the_slice_and_each_projection_are_checked_once(call, restricted, monkeypatch):
    """One projection pass images s once per call, where
    ``verify_slice_theorem`` imaged it twice and ``kernel_generators`` once
    per generator, and kill-checks each projection once."""
    S = Subalgebra.full(CTXT)
    span = GeneratorSpan(S, 9)
    d = restriction_of(WORKED, S) if restricted else WORKED
    s = P("Y + 1/2*t*X^2", CTXT)
    applied = _record_applies(monkeypatch)
    if call == "dixmier":
        projections = [dixmier(d, s, P("X", CTXT), span)]
    elif call == "kernel_generators":
        projections = kernel_generators(d, s, S, span)
    else:
        projections = verify_slice_theorem(d, s, S, 9, span).kernel_generators
    assert len(projections) == (1 if call == "dixmier" else 2)
    assert applied.count(s) == 1
    assert [applied.count(k) for k in projections] == [1] * len(projections)


def test_a_subalgebra_without_algebra_generators_is_a_domain_error():
    """No element of the base alone is a slice: the certificate is refused,
    and the projection pass checks the slice though it has nothing to project."""
    d = D_of(CTXT, X="0", Y="1")
    S = Subalgebra(CTXT, (P("t", CTXT),), ())
    with pytest.raises(DomainError, match="needs an algebra generator"):
        verify_slice_theorem(d, P("Y", CTXT), S, 2)
    with pytest.raises(DomainError, match="needs a slice"):
        kernel_generators(d, P("X", CTXT), S)


def test_a_wrong_taylor_witness_fails_its_re_verification(monkeypatch):
    """The re-verification is an explicit raise, so it fires under
    ``python -O`` too."""
    perturb_taylor_witnesses(monkeypatch.setattr)
    with pytest.raises(AssertionError, match="Taylor witness failed re-verification"):
        verify_slice_theorem(WORKED, P("Y + 1/2*t*X^2", CTXT), Subalgebra.full(CTXT))


def test_verify_slice_theorem_guards_sham_slice():
    with pytest.raises(DomainError):
        verify_slice_theorem(NEGATIVE, P("X", CTXT), Subalgebra.full(CTXT), 4)


def test_dixmier_projection_is_ring_homomorphism():
    rng = random.Random(11)
    s = P("Y + 1/2*t*X^2", CTXT)
    for _ in range(40):
        p = rand_poly(rng, CTXT, max_degree=2, max_terms=3)
        q = rand_poly(rng, CTXT, max_degree=2, max_terms=3)
        assert dixmier(WORKED, s, p * q) == dixmier(WORKED, s, p) * dixmier(WORKED, s, q)
        assert dixmier(WORKED, s, p + q) == dixmier(WORKED, s, p) + dixmier(WORKED, s, q)


def test_dixmier_fixes_kernel_basis():
    from lndkit import kernel_up_to_degree

    s = P("Y + 1/2*t*X^2", CTXT)
    for f in kernel_up_to_degree(WORKED, Subalgebra.full(CTXT), 4):
        assert dixmier(WORKED, s, f) == f


# -- retraction-composed derivations -----------------------------------------


def retraction_plain():
    ctx = VarContext(("t",), ("W", "U1", "U2"))
    S = Subalgebra.full(ctx)
    images = {"U1": parse_polynomial("U1", ctx), "U2": parse_polynomial("U2", ctx)}
    return RetractionSpec(S, "W", images), ctx


def retraction_proper():
    """Target generated by W and U1; U2 retracts onto a polynomial in U1."""
    ctx = VarContext(("t",), ("W", "U1", "U2"))
    S = Subalgebra(
        ctx, (parse_polynomial("t", ctx),),
        (parse_polynomial("W", ctx), parse_polynomial("U1", ctx)),
    )
    images = {
        "U1": parse_polynomial("U1", ctx),
        "U2": parse_polynomial("U1^2 - t*U1", ctx),
    }
    return RetractionSpec(S, "W", images), ctx


def test_retraction_identity_gives_partial_derivative():
    spec, ctx = retraction_plain()
    rd = lnd_from_retraction(spec)
    w = parse_polynomial("W", ctx)
    assert rd.apply_composed(w) == Polynomial.one(ctx)
    assert rd.apply_composed(parse_polynomial("U1*W^3", ctx)) == parse_polynomial(
        "3*U1*W^2", ctx
    )


def test_retraction_falling_factorial_identity():
    spec, ctx = retraction_proper()
    rd = lnd_from_retraction(spec)
    alpha = parse_polynomial("U1^2 + t", ctx)  # fixed by the retraction
    m = 3
    w = parse_polynomial("W", ctx)
    f = alpha * w ** m
    its = iterates(rd.apply_composed, f, m)
    assert len(its) == m + 1  # D^(m+1) kills f
    for i in range(1, m + 1):
        factor = 1
        for j in range(i):
            factor *= m - j
        assert its[i] == factor * alpha * w ** (m - i)


def test_retraction_nilpotency_certified():
    spec, _ = retraction_proper()
    rd = lnd_from_retraction(spec)
    assert rd.nilpotency.certified


def test_retraction_derivations_hash_and_compare_by_their_spec():
    spec, _ = retraction_proper()
    rd = lnd_from_retraction(spec)
    assert rd == lnd_from_retraction(spec)
    assert hash(rd) == hash(lnd_from_retraction(spec))
    assert len({rd, lnd_from_retraction(spec), lnd_from_retraction(retraction_plain()[0])}) == 2


def test_retraction_indices_and_images():
    # W -> 1 -> 0 and U1 is killed; W*U1^2 + W^3 has W-degree 3, index 4
    ctx = VarContext(("t",), ("W", "U1"))
    S = Subalgebra(
        ctx, (parse_polynomial("t", ctx),),
        tuple(parse_polynomial(g, ctx) for g in ("W", "U1", "W*U1^2 + W^3")),
    )
    rd = lnd_from_retraction(RetractionSpec(S, "W", {"U1": parse_polynomial("U1", ctx)}))
    assert dict(rd.nilpotency.indices) == {"W": 2, "U1": 1, "W^3 + W*U1^2": 4}
    assert rd.nilpotency.bound == 4
    assert [str(i) for i in rd.restricted.images] == ["1", "0", "3*W^2 + U1^2"]


def test_retraction_kernel_generators_are_the_retraction_images():
    # with slice variable W, projecting the generators lands exactly on the
    # retraction images of the other variables
    spec, ctx = retraction_proper()
    rd = lnd_from_retraction(spec)
    S = spec.subalgebra
    span = GeneratorSpan(S, 6)
    w = parse_polynomial("W", ctx)
    gens = kernel_generators(rd.restricted, w, S, span)
    assert gens == [parse_polynomial("U1", ctx)]


def test_retraction_rejects_unfixed_generators():
    ctx = VarContext(("t",), ("W", "U1"))
    S = Subalgebra.full(ctx)
    with pytest.raises(ValueError):
        RetractionSpec(S, "W", {"U1": parse_polynomial("U1 + 1", ctx)})


def test_retraction_rejects_images_involving_slice_variable():
    ctx = VarContext(("t",), ("W", "U1"))
    S = Subalgebra(ctx, (parse_polynomial("t", ctx),), (parse_polynomial("W", ctx),))
    with pytest.raises(ValueError):
        RetractionSpec(S, "W", {"U1": parse_polynomial("W^2", ctx)})


# -- complementary derivation -------------------------------------------------


def test_complementary_trivial_full_ring():
    ctx = VarContext(("t",), ("V", "U"))
    S = Subalgebra.full(ctx)
    cctx = coordinate_context(ctx)
    wit = [
        CoordinateWitness(parse_polynomial("V_", cctx), 0),
        CoordinateWitness(parse_polynomial("U0_", cctx), 0),
    ]
    out = complementary_lnd(
        S,
        parse_polynomial("V", ctx),
        parse_polynomial("U", ctx),
        parse_polynomial("t", ctx),
        wit,
        alpha_cap=2,
        member_bound=4,
        kernel_bound=3,
    )
    assert out.alpha == 0
    assert [str(i) for i in out.derivation.images] == ["0", "1"]
    assert out.nilpotency.certified
    assert dict(out.nilpotency.indices) == {"V": 1, "U": 2}


def test_complementary_uncleared_denominator_fails_at_cap_zero():
    # coordinates (V, t*U): expressing U needs 1/t, so alpha 0 cannot clear
    ctx = VarContext(("t",), ("V", "U"))
    S = Subalgebra.full(ctx)
    cctx = coordinate_context(ctx)
    wit = [
        CoordinateWitness(parse_polynomial("V_", cctx), 0),
        CoordinateWitness(parse_polynomial("U0_", cctx), 1),  # t*U == U0_ at u0 = t*U
    ]
    args = (
        S,
        parse_polynomial("V", ctx),
        parse_polynomial("t*U", ctx),
        parse_polynomial("t", ctx),
        wit,
    )
    with pytest.raises(FailsUpToCapError) as err:
        complementary_lnd(*args, alpha_cap=0, member_bound=4, kernel_bound=3)
    assert err.value.trace == [(0, "U", "denominator does not clear")]
    # one more clearing power succeeds
    out = complementary_lnd(*args, alpha_cap=1, member_bound=4, kernel_bound=3)
    assert out.alpha == 1
    assert dict(out.nilpotency.indices) == {"V": 1, "U": 2}


def test_complementary_cusp_base_fails_at_cap_zero():
    """The cusp-base corpus task needs alpha 1: at alpha 0 the second
    generator's image is outside the span, and the trace says so."""
    (_, spec), = [(p, s) for p, s in load_corpus() if s.name == "asanuma-bhatwadekar"]
    args = dict(spec.tasks[0].args, alpha_cap=0)
    with pytest.raises(FailsUpToCapError) as err:
        complementary_lnd(spec.subalgebra, **args)
    assert err.value.trace == [
        (0, "X*V^2*W^2 + W", "image 2*X*V^2*W + 1 not found in span at 8"),
    ]


def test_complementary_witness_must_evaluate():
    ctx = VarContext(("t",), ("V", "U"))
    S = Subalgebra.full(ctx)
    cctx = coordinate_context(ctx)
    wit = [
        CoordinateWitness(parse_polynomial("V_ + 1", cctx), 0),
        CoordinateWitness(parse_polynomial("U0_", cctx), 0),
    ]
    with pytest.raises(DomainError):
        complementary_lnd(
            S,
            parse_polynomial("V", ctx),
            parse_polynomial("U", ctx),
            parse_polynomial("t", ctx),
            wit,
            alpha_cap=1,
            member_bound=4,
            kernel_bound=3,
        )


# -- transcendence and proportionality ----------------------------------------


def test_transcendence_of_a_variable():
    S = Subalgebra.full(CTX)
    assert transcendence_check(DY, P("Y"), S, 5) == TranscendenceResult(5)
    assert reference_transcendence(P("Y"), S, 5) is None
    # the reference search does find the relation -t * 1 + 1 * t of a base element
    assert reference_transcendence(P("t", CTXT), Subalgebra.full(CTXT), 1) == (P("-t", CTXT), P("1", CTXT))


def test_transcendence_degenerate_base_element():
    # x already lies in the base span, so no derivation of S gives it a unit
    # image: a sham one (images handed directly) breaks the relation
    # (X^2)^2 == X^4 among the generator products and is refused as input.
    ctx = VarContext(("X",), ("Y",))
    x = P("X^4", ctx)
    S = Subalgebra(ctx, (P("X^2", ctx), P("X^3", ctx)), (x,))
    sham = RestrictedDerivation(S, (Polynomial.one(ctx),))
    with pytest.raises(DomainError, match=r"relation of the generator product X\^4"):
        transcendence_check(sham, x, S, 4)


def test_transcendence_worked_slice():
    S = Subalgebra.full(CTXT)
    s = P("Y + 1/2*t*X^2", CTXT)
    assert transcendence_check(WORKED, s, S, 4) == TranscendenceResult(4)
    assert reference_transcendence(s, S, 4) is None


def test_transcendence_with_a_generator_derivation():
    # The worked derivation given by generator images applies to a slice
    # that is no generator through the bounded span.
    S = Subalgebra.full(CTXT)
    E = RestrictedDerivation(S, (P("t", CTXT), P("1 - t^2*X", CTXT)))
    s = P("Y + 1/2*t*X^2", CTXT)
    assert transcendence_check(E, s, S, 3) == transcendence_check(WORKED, s, S, 3)
    with pytest.raises(DomainError, match="left the bounded span"):
        transcendence_check(E, s, S, 1)


def test_transcendence_over_trivial_base():
    # no coefficient variables at all: the base span is just the rationals
    ctx = VarContext((), ("Y",))
    S = Subalgebra.full(ctx)
    d = Derivation(ctx, {"Y": Polynomial.one(ctx)})
    assert transcendence_check(d, Polynomial.variable(ctx, "Y"), S, 3) == TranscendenceResult(3)
    assert reference_transcendence(Polynomial.variable(ctx, "Y"), S, 3) is None


def test_transcendence_requires_unit_image():
    S = Subalgebra.full(CTXT)
    with pytest.raises(DomainError):
        transcendence_check(WORKED, P("X", CTXT), S, 3)  # image t is not a unit


def test_proportionality_scaled_partial():
    S = Subalgebra.full(CTX)
    d = restriction_of(DY, S)
    d1 = restriction_of(D_of(CTX, X="0", Y="3"), S)
    out = proportionality_check(d1, d, [Polynomial.zero(CTX), Polynomial.one(CTX)], S)
    assert out.proportional and out.factor == P("3")


def test_proportionality_counterexample():
    ctx = VarContext((), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d = restriction_of(D_of(ctx, X="0", Y="1"), S)
    d1 = restriction_of(D_of(ctx, X="1", Y="0"), S)
    out = proportionality_check(d1, d, [Polynomial.zero(ctx), Polynomial.one(ctx)], S)
    assert not out.proportional
    assert out.counterexample == P("X", ctx)


def test_proportionality_requires_valid_witness():
    S = Subalgebra.full(CTX)
    d = restriction_of(DY, S)
    d1 = restriction_of(DY, S)
    with pytest.raises(DomainError):
        proportionality_check(d1, d, [Polynomial.one(CTX), Polynomial.zero(CTX)], S)


# -- coordinate systems --------------------------------------------------------


def test_coordinate_pair_two_derivations():
    ctx = VarContext(("t",), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d1 = D_of(ctx, X="1", Y="0")
    d2 = D_of(ctx, X="-3*t*Y^2", Y="1")
    v = parse_polynomial("X + t*Y^3", ctx)
    assert d1.apply(v) == Polynomial.one(ctx)
    assert d2.apply(v).is_zero()
    out = coordinate_system([d1, d2], [v], S, 8)
    assert not isinstance(out, IncompleteReexpression)
    assert out.coordinates[0] == v
    assert out.coordinates[1] == parse_polynomial("Y", ctx)
    target = Subalgebra(ctx, S.base_generators, out.coordinates)
    for g, w in zip(S.algebra_generators, out.witnesses):
        assert w.evaluate(target) == g


def test_coordinate_triple_three_derivations():
    ctx = VarContext(("t",), ("X", "Y", "Z"))
    S = Subalgebra.full(ctx)
    d1 = D_of(ctx, X="1", Y="0", Z="0")
    d2 = D_of(ctx, X="-2*t*Y", Y="1", Z="0")
    d3 = D_of(ctx, X="4*t^2*Y*Z - 3*Z^2", Y="-2*t*Z", Z="1")
    v = parse_polynomial("X + t*Y^2 + Z^3", ctx)
    w = parse_polynomial("Y + t*Z^2", ctx)
    assert d1.apply(v) == Polynomial.one(ctx)
    assert d2.apply(v).is_zero() and d2.apply(w) == Polynomial.one(ctx)
    assert d3.apply(v).is_zero() and d3.apply(w).is_zero()
    out = coordinate_system([d1, d2, d3], [v, w], S, 8)
    assert not isinstance(out, IncompleteReexpression)
    assert out.coordinates[:2] == (v, w)
    assert out.coordinates[2] == parse_polynomial("Z", ctx)
    target = Subalgebra(ctx, S.base_generators, out.coordinates)
    for g, wit in zip(S.algebra_generators, out.witnesses):
        assert wit.evaluate(target) == g


def test_coordinate_system_checks_a_discovered_coordinate_on_a_wrong_solver(monkeypatch):
    """Each coordinate the slice search discovers passes the same image
    check as ``find_slice``'s, an explicit raise that fires under
    ``python -O`` too."""
    ctx = VarContext(("t",), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d1 = D_of(ctx, X="1", Y="0")
    d2 = D_of(ctx, X="-3*t*Y^2", Y="1")
    v = parse_polynomial("X + t*Y^3", ctx)
    _halve_the_unit_answer(monkeypatch)
    with pytest.raises(AssertionError, match="induced slice failed the image check"):
        coordinate_system([d1, d2], [v], S, 8)


@given(_polys(CTXT, ("t", "Y"), 3), st.sampled_from([1, -2, Fraction(1, 3)]), st.booleans())
@example(P("-t", CTXT), 1, True)
@settings(max_examples=60, deadline=None)
def test_coordinate_system_solves_its_induced_derivations_like_the_reference(h, c, give):
    """d1 = d/dX and d2: X -> -c * dh/dY, Y -> c, which kills v = X + h.
    Every slice ``coordinate_system`` searches for, given v or not, is the
    one the insert-every-product solver finds from the same induced images
    of the same span's products (the search over k[t][-h, Y] meets
    relations among the products).  With h = -t the projection of X is
    the base generator t, which the search leaves out instead of failing
    on a duplicate generator."""
    from lndkit import slices

    d1 = D_of(CTXT, X="1", Y="0")
    d2 = Derivation(CTXT, {"X": h.partial_derivative("Y") * -c, "Y": Polynomial.constant(CTXT, c)})
    v = P("X", CTXT) + h
    assert d2.apply(v).is_zero()
    searches, found = [], []
    rows, solve = slices.span_rows, slices._unit_solution

    def recorded_rows(span, image):
        searches.append((span.products, [image(j) for j in range(len(span.products))]))
        return rows(span, image)

    def recorded_solution(*args):
        found.append(solve(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slices, "span_rows", recorded_rows)
        mp.setattr(slices, "_unit_solution", recorded_solution)
        try:
            coordinate_system([d1, d2], [v] if give else [], Subalgebra.full(CTXT), 6)
        except DomainError:
            pass
    assert found and len(found) == len(searches)
    for (products, images), s in zip(searches, found):
        assert s == reference_solve_unit_image(images, products, CTXT)


def test_coordinate_system_rejects_unkilled_given():
    ctx = VarContext(("t",), ("X", "Y"))
    S = Subalgebra.full(ctx)
    d1 = D_of(ctx, X="1", Y="0")
    d2 = D_of(ctx, X="Y", Y="1")  # does not kill X
    with pytest.raises(DomainError):
        coordinate_system([d1, d2], [parse_polynomial("X", ctx)], S, 4)
