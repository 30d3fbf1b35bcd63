"""Groebner engine: division, completion, membership, cofactor soundness."""

import functools
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lndkit import (
    ContextMismatchError,
    DomainError,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    RowSpace,
    VarContext,
    buchberger,
    ideal_member,
    normal_form,
    parse_polynomial,
)
from lndkit import groebner
from lndkit.groebner import _s_polynomial, leading_term
from lndkit.linalg import vec_of
from lndkit.polynomial import mono_div, mono_divides, mono_mul

from helpers import cyclic, katsura, rand_poly

CTX = VarContext((), ("X", "Y"))
DRL = MonomialOrder.degrevlex(CTX)
LEX = MonomialOrder.lex(CTX)
CTX3 = VarContext((), ("X", "Y", "Z"))
ORDERS = {
    2: (DRL, LEX, MonomialOrder.lex(CTX, ("Y", "X"))),
    3: (
        MonomialOrder.degrevlex(CTX3),
        MonomialOrder.lex(CTX3),
        MonomialOrder.lex(CTX3, ("Z", "X", "Y")),
        MonomialOrder.degrevlex(CTX3, ("Y", "Z", "X")),
    ),
}


def P(text):
    return parse_polynomial(text, CTX)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_order_is_multiplicative_and_bounded_below(seed):
    rng = random.Random(seed)
    mono = lambda: (rng.randint(0, 5), rng.randint(0, 5))
    a, b, c = mono(), mono(), mono()
    for order in (DRL, LEX):
        ka, kb = order.key(a), order.key(b)
        kac = order.key((a[0] + c[0], a[1] + c[1]))
        kbc = order.key((b[0] + c[0], b[1] + c[1]))
        assert (ka > kb) == (kac > kbc)
        assert order.key(a) >= order.key((0, 0))


def test_neg_key_reverses_key():
    rng = random.Random(3)
    for order in ORDERS[3]:
        for _ in range(50):
            a, b = (tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(2))
            assert (order.key(a) < order.key(b)) == (order.neg_key(a) > order.neg_key(b))


def _reference_normal_form(p, divisors, order):
    """Textbook division, rescanning the dividend for its leading term each step."""
    ctx = p.context
    lead = [leading_term(d, order) if not d.is_zero() else None for d in divisors]
    quots = [{} for _ in divisors]
    rem = {}
    h = p
    while not h.is_zero():
        hm, hc = leading_term(h, order)
        for k, lt in enumerate(lead):
            if lt is not None and mono_divides(lt[0], hm):
                qm = mono_div(hm, lt[0])
                qc = hc / lt[1]
                quots[k][qm] = quots[k].get(qm, Fraction(0)) + qc
                h = h - Polynomial(ctx, {qm: qc}) * divisors[k]
                break
        else:
            rem[hm] = hc
            h = h - Polynomial(ctx, {hm: hc})
    return Polynomial(ctx, rem), [Polynomial(ctx, q) for q in quots]


def _terms(nvars):
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.fractions(min_value=-12, max_value=12, max_denominator=5).filter(bool)
    return st.dictionaries(mono, coeff, max_size=5)


@st.composite
def _division_cases(draw):
    nvars = draw(st.integers(2, 3))
    ctx = CTX if nvars == 2 else CTX3
    p = Polynomial(ctx, draw(_terms(nvars)))
    divisors = [Polynomial(ctx, draw(_terms(nvars))) for _ in range(draw(st.integers(1, 3)))]
    return p, divisors, draw(st.sampled_from(ORDERS[nvars]))


@given(_division_cases())
@example((P("X^3*Y + X*Y^2 - Y"), [Polynomial.zero(CTX), P("X*Y - 1"), P("Y^2 + X")], DRL))
@example((P("(2*X - 3*Y + 1)^6"), [P("6*X^2 + 4*Y"), P("9*X*Y - 2/5*Y^2 + 1")], DRL))
@example((P("(3/2*X + 5*Y - 7)^5"), [P("-4*Y^2 + X"), P("10*X^2 - 3*X*Y - 1/7")], LEX))
@example((parse_polynomial("(2*X*Y - 3*Z + 5)^4", CTX3),
          [parse_polynomial(t, CTX3) for t in ("7*X*Y - 2*Z^2", "-6*Z^3 + 4*X", "15*Y^2 - 9*Z")],
          ORDERS[3][0]))
@settings(max_examples=200, deadline=None)
def test_heap_normal_form_matches_reference_division(case):
    p, divisors, order = case
    rem, quots = normal_form(p, divisors, order)
    want_rem, want_quots = _reference_normal_form(p, divisors, order)
    assert rem == want_rem
    assert quots == want_quots


def _basis_digest(gb):
    lines = []
    for g, row in zip(gb.generators, gb.cofactors):
        lines.append(f"g {g}")
        lines.extend(f"c {c}" for c in row)
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("system, kind, digest", [
    (katsura(3), "degrevlex", "8d29e479105ff1f14aae3eac1a149e176b45a91a017ce7cca11a6470fdf6bedc"),
    (katsura(5), "degrevlex", "e0b7f74516eee9bf222a8cf7920079087b1c25a73f3d0d075847d70dcb84a859"),
    (cyclic(4), "lex", "0b0417c966386b340f37eefbaef12430a847287d90c6dfad7cb1a1f34d8329c9"),
    (cyclic(4), "degrevlex", "892b67c1a21c1c8c8e81ab905cbb00403fe28df6ae64abe702a64f302f30bdf8"),
], ids=["katsura-3-degrevlex", "katsura-5-degrevlex", "cyclic-4-lex", "cyclic-4-degrevlex"])
def test_pinned_bases_and_cofactors(system, kind, digest):
    """Generators and cofactor matrices are pinned, so a change of pair or
    reduction order shows even where the reduced basis stays the same."""
    ctx, eqs = system
    assert _basis_digest(buchberger(eqs, getattr(MonomialOrder, kind)(ctx))) == digest


def test_verify_rejects_a_wrong_cofactor_or_an_incomplete_basis():
    gb = buchberger([P("X^2 + Y"), P("X*Y - 1")])
    gb.verify()
    bad_row = (gb.cofactors[0][0] + 1,) + gb.cofactors[0][1:]
    with pytest.raises(AssertionError, match="recombination"):
        GroebnerBasis(gb.order, gb.inputs, gb.generators, (bad_row,) + gb.cofactors[1:]).verify()
    inputs = (P("X^2 + Y"), P("X*Y - 1"))
    unit = ((P("1"), P("0")), (P("0"), P("1")))
    with pytest.raises(AssertionError, match="S-polynomial"):
        GroebnerBasis(DRL, inputs, inputs, unit).verify()


@pytest.mark.parametrize("generators, cofactors", [
    ((P("X"),), ((P("1"), P("0")),)),
    ((), ()),
], ids=["the-ideal-of-X", "empty"])
def test_verify_rejects_a_basis_of_a_smaller_ideal(generators, cofactors):
    """For the inputs X, Y both bases recombine and pass the S-pair check,
    but Y is not in their ideal; the rejection is an ``invariant``, so it
    fires under ``python -O`` too."""
    inputs = (P("X"), P("Y"))
    with pytest.raises(AssertionError, match="not in the ideal|does not reduce to zero"):
        GroebnerBasis(DRL, inputs, generators, cofactors).verify()
    zero = (Polynomial.zero(CTX),)
    GroebnerBasis(DRL, zero, (), ()).verify()
    GroebnerBasis(DRL, inputs + zero, (P("X"), P("Y")), ((P("1"), P("0"), P("0")), (P("0"), P("1"), P("0")))).verify()


def _reference_verify(gb):
    """The all-pairs check: recombine every cofactor row, reduce every input
    and every S-pair."""
    if not gb.generators:
        if any(gb.inputs):
            raise AssertionError("an input is not in the ideal of the empty basis")
        return
    ctx = gb.inputs[0].context
    for g, row in zip(gb.generators, gb.cofactors):
        acc = Polynomial.zero(ctx)
        for c, f in zip(row, gb.inputs):
            acc = acc + c * f
        if acc != g:
            raise AssertionError("cofactor recombination mismatch")
    gens = list(gb.generators)
    for f in gb.inputs:
        if not normal_form(f, gens, gb.order)[0].is_zero():
            raise AssertionError("an input does not reduce to zero by the basis")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            rem, _ = normal_form(_s_polynomial(gens[i], gens[j], gb.order), gens, gb.order)
            if not rem.is_zero():
                raise AssertionError("S-polynomial does not reduce to zero")


def _accepts(check, gb):
    try:
        check(gb)
    except AssertionError:
        return False
    return True


def _as_basis(order, gens):
    """Candidate basis whose inputs are its own generators, so only the
    S-pair part of verify can reject it."""
    ctx = gens[0].context
    unit = tuple(
        tuple(Polynomial.one(ctx) if k == j else Polynomial.zero(ctx) for k in range(len(gens)))
        for j in range(len(gens))
    )
    return GroebnerBasis(order, tuple(gens), tuple(gens), unit)


def _perturb_tail(g, order):
    lm, _ = leading_term(g, order)
    tail = [m for m in g.terms if m != lm]
    if not tail:
        return None
    terms = dict(g.terms)
    terms[tail[-1]] += 1
    return Polynomial(g.context, terms)


@functools.lru_cache(maxsize=None)
def _verify_cases():
    """Seeded candidate bases, each with the all-pairs verdict: reduced
    bases, each with one element dropped (over the original inputs, whose
    ideal it no longer spans, and over its own generators, so that only the
    S-pairs can reject it) or one tail coefficient perturbed, and raw
    planar generating sets."""
    cases = []
    reduced = []
    for (ctx, eqs), kind in [(katsura(3), "lex"), (katsura(3), "degrevlex"),
                             (cyclic(4), "lex"), (cyclic(4), "degrevlex")]:
        reduced.append(buchberger(eqs, getattr(MonomialOrder, kind)(ctx)))
    rng = random.Random(20261018)
    for n in range(30):
        order = (DRL, LEX)[n % 2]
        gens = [rand_poly(rng, CTX, max_degree=3, max_terms=3, allow_zero=False) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_constant()] or [P("X*Y + 1"), P("X^2 - Y")]
        reduced.append(buchberger(gens, order))
        if len(gens) > 1:
            cases.append(_as_basis(order, gens))
    for gb in reduced:
        cases.append(gb)
        n = len(gb.generators)
        for k in range(n):
            if n > 1:
                dropped = gb.generators[:k] + gb.generators[k + 1:]
                cases.append(GroebnerBasis(gb.order, gb.inputs, dropped, gb.cofactors[:k] + gb.cofactors[k + 1:]))
                cases.append(_as_basis(gb.order, dropped))
            bent = _perturb_tail(gb.generators[k], gb.order)
            if bent is not None:
                cases.append(_as_basis(gb.order, gb.generators[:k] + (bent,) + gb.generators[k + 1:]))
    return tuple((gb, _accepts(_reference_verify, gb)) for gb in cases)


def test_pruned_verify_agrees_with_the_all_pairs_check():
    cases = _verify_cases()
    accepted = sum(want for _, want in cases)
    assert 40 <= accepted <= len(cases) - 40  # both verdicts are well represented
    assert all(_accepts(GroebnerBasis.verify, gb) == want for gb, want in cases)


def test_a_chain_criterion_that_ignores_settled_pairs_is_caught(monkeypatch):
    cases = _verify_cases()  # built with the real criterion

    def unsettled_chain(lms, i, j, lcm, settled):
        return any(k not in (i, j) and mono_divides(lm, lcm) for k, lm in enumerate(lms))

    monkeypatch.setattr(groebner, "_chain", unsettled_chain)
    assert not all(_accepts(GroebnerBasis.verify, gb) == want for gb, want in cases)


def test_normal_form_membership_of_multiple():
    rem, quots = normal_form(P("X^2"), [P("X")], DRL)
    assert rem.is_zero()
    assert quots == [P("X")]


def test_normal_form_non_membership():
    rem, quots = normal_form(P("Y"), [P("X")], DRL)
    assert rem == P("Y")
    assert quots == [Polynomial.zero(CTX)]


def test_normal_form_single_division_step():
    rem, quots = normal_form(P("X^2 + X"), [P("X^2")], DRL)
    assert rem == P("X")
    assert quots == [P("1")]


def test_normal_form_checks_the_leads_it_is_handed():
    divisors = [P("2*X^2 + Y"), P("Y^2")]
    leads = [groebner._lead(d, DRL) for d in divisors]
    assert leads[0] == ((2, 0), 2, [((0, 1), 1)])
    p = P("X^3 + Y^3")
    assert normal_form(p, divisors, DRL, leads) == normal_form(p, divisors, DRL)
    with pytest.raises(ValueError, match="is not the lead of divisor 0"):
        normal_form(p, divisors, DRL, leads[::-1])
    with pytest.raises(ValueError, match="is not the lead of divisor 0"):
        normal_form(p, divisors, DRL, [((2, 0), 1, [((0, 1), 1)]), leads[1]])


def test_normal_form_identity():
    rng = random.Random(7)
    for _ in range(30):
        p = rand_poly(rng, CTX)
        divisors = [rand_poly(rng, CTX, allow_zero=False) for _ in range(2)]
        rem, quots = normal_form(p, divisors, DRL)
        acc = rem
        for q, d in zip(quots, divisors):
            acc = acc + q * d
        assert acc == p


def test_buchberger_monomial_ideal():
    gb = buchberger([P("X"), P("Y")])
    assert set(gb.generators) == {P("X"), P("Y")}


def test_buchberger_hand_elimination():
    gb = buchberger([P("X + Y"), P("X - Y")])
    assert set(gb.generators) == {P("X"), P("Y")}


def test_buchberger_closure_by_hand():
    # X = (X^2 + X) - X^2 generates everything the inputs do
    gb = buchberger([P("X^2"), P("X^2 + X")])
    assert gb.generators == (P("X"),)


def test_buchberger_requires_generators():
    with pytest.raises(DomainError):
        buchberger([])


def test_cofactor_matrix_recombines():
    gb = buchberger([P("X^2 + Y"), P("X*Y - 1"), P("Y^3 + X")])
    for g, row in zip(gb.generators, gb.cofactors):
        acc = Polynomial.zero(CTX)
        for c, f in zip(row, gb.inputs):
            acc = acc + c * f
        assert acc == g


def test_ideal_member_partition_of_unity():
    cof = ideal_member(P("1"), [P("X"), P("1 - X")])
    assert cof == [P("1"), P("1")]


def test_ideal_member_proper_ideal():
    assert ideal_member(P("1"), [P("Y")]) is None


def test_ideal_member_hand_identity():
    cof = ideal_member(P("X"), [P("X^2"), P("X^2 + X")])
    assert cof == [P("-1"), P("1")]


def test_ideal_member_empty_rejected():
    with pytest.raises(DomainError):
        ideal_member(P("1"), [])


def test_ideal_member_checks_contexts_before_the_origin():
    """1 against generators that vanish at the origin is a No without a
    basis, but only in one shared context."""
    assert ideal_member(P("1"), [P("X"), P("Y^2")]) is None
    with pytest.raises(ContextMismatchError):
        ideal_member(P("1"), [P("X"), parse_polynomial("Y", CTX3)])
    with pytest.raises(ContextMismatchError):
        ideal_member(parse_polynomial("1", CTX3), [P("X"), P("Y")])


def _brute_force_member(p, gens, deg_bound=6):
    """Independent oracle: solve p = sum(a_i g_i), deg a_i <= bound, exactly."""
    space = RowSpace()
    monos = [
        (i, j)
        for i in range(deg_bound + 1)
        for j in range(deg_bound + 1 - i)
    ]
    for gi, g in enumerate(gens):
        for m in monos:
            space.insert(vec_of(Polynomial(CTX, {m: Fraction(1)}) * g), (gi, m))
    return space.express(vec_of(p))


def test_membership_agrees_with_brute_force_oracle():
    rng = random.Random(20260810)
    checked = 0
    for _ in range(40):
        gens = [rand_poly(rng, CTX, max_degree=3, max_terms=3, allow_zero=False) for _ in range(rng.randint(1, 3))]
        if any(g.is_zero() for g in gens):
            continue
        p = rand_poly(rng, CTX, max_degree=3, max_terms=3)
        oracle = _brute_force_member(p, gens)
        verdict = ideal_member(p, gens)
        if oracle is not None:
            assert verdict is not None, f"oracle found witness but engine said No: {p} in {[str(g) for g in gens]}"
            checked += 1
        if verdict is not None:
            acc = Polynomial.zero(CTX)
            for c, g in zip(verdict, gens):
                acc = acc + c * g
            assert acc == p
    assert checked >= 5


def test_membership_order_independent():
    rng = random.Random(99)
    for _ in range(25):
        gens = [rand_poly(rng, CTX, max_degree=2, max_terms=3, allow_zero=False) for _ in range(2)]
        p = rand_poly(rng, CTX, max_degree=2, max_terms=3)
        a = ideal_member(p, gens, DRL)
        b = ideal_member(p, gens, LEX)
        assert (a is None) == (b is None)


def test_deterministic_bases():
    gens = [P("X^2 + Y^2 - 1"), P("X*Y - 2")]
    g1 = buchberger(gens)
    g2 = buchberger(gens)
    assert g1.generators == g2.generators
    assert g1.cofactors == g2.cofactors


def test_bases_are_reduced():
    rng = random.Random(17)
    for _ in range(15):
        gens = [rand_poly(rng, CTX, max_degree=3, max_terms=3, allow_zero=False) for _ in range(2)]
        if any(g.is_zero() for g in gens):
            continue
        gb = buchberger(gens)
        leads = [leading_term(g, gb.order) for g in gb.generators]
        for i, (mi, ci) in enumerate(leads):
            assert ci == 1  # monic
            for j, (mj, _) in enumerate(leads):
                if i != j:
                    assert not mono_divides(mj, mi)
            # tail terms are irreducible by every other leading term
            tail = dict(gb.generators[i].terms)
            tail.pop(mi)
            for mono in tail:
                for j, (mj, _) in enumerate(leads):
                    if i != j:
                        assert not mono_divides(mj, mono)


def _reference_minimal(lms):
    """The drop-one-at-a-time loop that ``groebner._minimal`` replaces."""
    alive = list(range(len(lms)))
    changed = True
    while changed:
        changed = False
        for i in list(alive):
            for j in alive:
                if i != j and mono_divides(lms[j], lms[i]):
                    alive.remove(i)
                    changed = True
                    break
            if changed:
                break
    return alive


_exponents = st.tuples(*[st.integers(0, 2)] * 3)


@st.composite
def _leading_monomials(draw):
    """Monomials with repeats (a zero multiplier) and divisibility chains."""
    lms = draw(st.lists(_exponents, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        lms.append(mono_mul(draw(st.sampled_from(lms)), draw(_exponents)))
    return draw(st.permutations(lms))


@given(_leading_monomials())
@example([(2, 0, 0), (2, 0, 0)])  # groebner-golden: X^2; X^2 + X keeps the second
@example([(1, 0, 0), (1, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1)])
@settings(max_examples=300, deadline=None)
def test_closed_form_minimalization_matches_the_loop(lms):
    assert groebner._minimal(lms) == _reference_minimal(lms)


def test_one_variable_orders():
    ctx = VarContext((), ("X",))
    lex, drl = MonomialOrder.lex(ctx), MonomialOrder.degrevlex(ctx)
    assert [lex.key((3,)), lex.neg_key((3,))] == [(3,), (-3,)]
    assert [drl.key((3,)), drl.neg_key((3,))] == [(3, (-3,)), (-3, (3,))]
    x2, x3, x = (Polynomial(ctx, {(e,): 1, (0,): -1}) for e in (2, 3, 1))
    assert buchberger([x2, x3], lex).generators == (x,)
