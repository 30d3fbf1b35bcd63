"""Buchberger's algorithm with cofactor certificates.

Every basis element carries its expression as a polynomial combination of
the original input generators, so ideal-membership verdicts ship witnesses
that recombine exactly to the queried element.

Division (``normal_form``) is the heap method of Monagan and Pearce: the
running dividend is a mutable term dict plus a ``heapq`` of
``MonomialOrder.neg_key`` values with lazy deletion, so each step pops the
leading term instead of rescanning the dividend, and subtracts
``q * (divisor minus its leading term)`` in place.  It runs on integer
numerators over one int scale, which a step by leading numerators ``a``
(divisor) and ``c`` (dividend) multiplies by ``|a| / gcd(a, c)``; each
term is recorded with the scale of its step and each result built once
at the final scale.  The divisor scan order is fixed, so quotients and
remainders are those of textbook division.  It is lndkit's one division
loop: ``polygcd.exact_divide`` is ``normal_form`` by one divisor under lex.

Completion (``buchberger``) caches each basis element's integer lead and
tail (``_lead``) when it joins the basis, so no division by the basis
recomputes them (``GroebnerBasis.verify`` computes them once, too), and
keeps the pending S-pairs in a heap.  Pair selection is still the normal
strategy, smallest lcm under the active order and then ``(i, j)``, so
bases and cofactor matrices are reproducible across runs.  Every cofactor row is ``_row_sum``, one
``Polynomial.combine`` per column: the row of an S-pair whose remainder
joins the basis is ``sum(mult * row)`` over the two pair multipliers and
the negated quotients, and the membership cofactors are built alike.  An
S-pair that reduces to zero gets no row.  The minimal basis (``_minimal``,
in closed form) is then tail-reduced, each survivor joining like a
remainder.

Both completion and ``GroebnerBasis.verify`` skip the S-pairs that
Buchberger's two criteria settle (B. Buchberger, EUROSAM 1979; Becker and
Weispfenning, *Groebner Bases*, section 5.5): a pair whose leading
monomials are coprime, and a pair whose lcm some third leading monomial
divides when that element's pairs with both were settled earlier (the
chain criterion, ``_chain``).  ``verify`` re-checks every cofactor
recombination in full, reduces every input to zero by the basis, so the
basis spans the inputs' ideal and no sub-ideal, and settles the pairs of
the reduced basis in increasing lcm order; its docstring proves that it
accepts exactly the bases of that ideal that reducing every S-pair would
accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .context import VarContext
from .errors import ContextMismatchError, DomainError, invariant
from .ordering import MonomialOrder
from .polynomial import (
    Monomial, Polynomial, mono_div, mono_divides, mono_lcm, mono_mul,
)


def leading_term(p: Polynomial, order: MonomialOrder) -> tuple[Monomial, Fraction]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    mono = max(p._num, key=order.key)
    return mono, Fraction(p._num[mono], p._den)


Lead = tuple[Monomial, int, list[tuple[Monomial, int]]]


def _lead(d: Polynomial, order: MonomialOrder) -> Lead:
    """``(lm, a, tail)`` of a nonzero divisor: its leading monomial, and the integer
    numerators of its leading coefficient and of every other term."""
    lm = max(d._num, key=order.key)
    return lm, d._num[lm], [(m, c) for m, c in d._num.items() if m != lm]


def normal_form(
    p: Polynomial,
    divisors: list[Polynomial],
    order: MonomialOrder,
    _leads: list[Lead] | None = None,
) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division: ``p == sum(q_i * d_i) + remainder`` exactly.

    No remainder term is divisible by any divisor's leading term.  The
    divisor scan order is fixed, so the output is deterministic.
    ``_leads`` is private: ``buchberger`` and ``GroebnerBasis.verify``
    pass the ``_lead`` of every divisor, position by position, which they
    hold, instead of having it recomputed on every call; a lead whose
    numerator or term count does not fit its divisor is a ``ValueError``.
    """
    ctx = p.context
    neg_key = order.neg_key
    quots: list[list[tuple[Monomial, int, int]]] = []
    lead = []  # per nonzero divisor: leading monomial and numerator, denominator, tail, quotient
    for k, d in enumerate(divisors):
        if d.context is not ctx and d.context != ctx:
            raise ContextMismatchError("normal_form operands share no context")
        quots.append([])
        if d:
            lm, a, tail = _lead(d, order) if _leads is None else _leads[k]
            if d._num.get(lm) != a or len(tail) != len(d._num) - 1:
                raise ValueError(f"_leads[{k}] is not the lead of divisor {k}")
            lead.append((lm, a, d._den, tail, quots[-1]))
    rem: list[tuple[Monomial, int, int]] = []
    h, scale = dict(p._num), p._den
    heap = [(neg_key(m), m) for m in h]
    heapify(heap)
    while heap:
        hm = heappop(heap)[1]
        hc = h.pop(hm, None)
        if hc is None:
            continue  # cancelled after it was pushed
        for lm, a, den, tail, q in lead:
            if mono_divides(lm, hm):
                qm = mono_div(hm, lm)
                g = gcd(a, hc) if a > 0 else -gcd(a, hc)
                f, e = a // g, hc // g
                if f != 1:
                    for m in h:
                        h[m] *= f
                    scale *= f
                q.append((qm, e * den, scale))  # leading monomials strictly fall, so qm is new
                for m, c in tail:
                    m = mono_mul(qm, m)
                    acc = h.get(m)
                    if acc is None:
                        h[m] = -e * c
                        heappush(heap, (neg_key(m), m))
                    else:
                        acc -= e * c
                        if acc:
                            h[m] = acc
                        else:
                            del h[m]
                break
        else:
            rem.append((hm, hc, scale))
    out = [Polynomial._from_ints(ctx, {m: c * (scale // s) for m, c, s in terms}, scale)
           for terms in (rem, *quots)]
    return out[0], out[1:]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis plus a cofactor matrix over the inputs."""

    order: MonomialOrder
    inputs: tuple[Polynomial, ...]
    generators: tuple[Polynomial, ...]
    cofactors: tuple[tuple[Polynomial, ...], ...]  # generators[i] == sum_j cofactors[i][j]*inputs[j]

    def verify(self) -> None:
        """Re-check that the generators are a Groebner basis of the inputs' ideal.

        Every cofactor row is recombined in full, so each generator lies in
        the ideal of the inputs, and every nonzero input must reduce to zero
        by the generators (unless one is a constant, whose ideal holds every
        input), so each input lies in theirs: the two ideals are equal, and
        an empty basis passes only when every input is zero.
        Over a Groebner basis an element of its ideal reduces to zero, so
        this rejects no basis of the same ideal.  Then the S-pairs are
        settled in increasing lcm order, ties broken by ``(i, j)``; a pair
        is reduced unless Buchberger's criteria (see ``_chain``) skip it,
        and any nonzero remainder rejects the basis.

        Why a skipped pair needs no reduction.  Write ``L_ab`` for
        ``lcm(lm_a, lm_b)``, ``lt_a`` for the leading term of ``g_a`` and
        ``S_ab = (L_ab / lt_a) * g_a - (L_ab / lt_b) * g_b``.  Say ``S_ab``
        has an *lcm representation* when ``S_ab = sum(h_k * g_k)`` with
        every ``lm(h_k * g_k)`` strictly below ``L_ab``, or ``S_ab == 0``.
        The generators form a Groebner basis exactly when every S-pair has
        one (Becker and Weispfenning, *Groebner Bases*, section 5.5).  By
        induction over the settling order, every settled pair has one:

        * a reduced pair reduces to zero, and division writes ``S_ij`` as
          ``sum(q_k * g_k)`` with ``lm(q_k * g_k) <= lm(S_ij) < L_ij``;
        * a pair with coprime leading monomials has one by Buchberger's
          first criterion (B. Buchberger, EUROSAM 1979);
        * a pair skipped by the chain criterion (Buchberger's second) has
          some ``k`` outside ``{i, j}`` with ``lm_k | L_ij`` whose pairs
          ``(i, k)`` and ``(j, k)`` were settled before it, so ``S_ik``
          and ``S_jk`` have lcm representations by induction.  Then
          ``L_ik`` and ``L_jk`` divide ``L_ij``, and
          ``S_ij = (L_ij / L_ik) * S_ik - (L_ij / L_jk) * S_jk``;
          multiplying the two representations by those monomials keeps
          every term below ``L_ij``.

        So when every reduced pair reduces to zero, every pair has an lcm
        representation and the generators are a Groebner basis.
        Conversely, over a Groebner basis every S-polynomial reduces to
        zero.  Hence this accepts exactly the bases of the inputs' ideal
        that reducing every pair accepts.
        """
        if not self.generators:
            invariant(not any(self.inputs), "an input is not in the ideal of the empty basis")
            return
        ctx = self.inputs[0].context
        for g, row in zip(self.generators, self.cofactors):
            invariant(Polynomial.combine(ctx, zip(row, self.inputs)) == g,
                      "cofactor recombination mismatch")
        gens = list(self.generators)
        order = self.order
        leads = [_lead(g, order) for g in gens]
        if not any(g.is_constant() for g in gens):
            for f in self.inputs:
                if f:
                    rem, _ = normal_form(f, gens, order, leads)
                    invariant(rem.is_zero(), "an input does not reduce to zero by the basis")
        lms = [lead[0] for lead in leads]
        pairs = sorted(
            (order.key(mono_lcm(lms[i], lms[j])), (i, j))
            for j in range(len(gens))
            for i in range(j)
        )
        settled: set[tuple[int, int]] = set()
        for _, (i, j) in pairs:
            settled.add((i, j))
            lcm = mono_lcm(lms[i], lms[j])
            if lcm == mono_mul(lms[i], lms[j]) or _chain(lms, i, j, lcm, settled):
                continue
            rem, _ = normal_form(_s_polynomial(gens[i], gens[j], order), gens, order, leads)
            invariant(rem.is_zero(), "S-polynomial does not reduce to zero")


def _chain(
    lms: list[Monomial], i: int, j: int, lcm: Monomial, settled: set[tuple[int, int]]
) -> bool:
    """Buchberger's chain criterion for the pair ``(i, j)`` with lcm ``lcm``.

    True when some ``k`` outside ``{i, j}`` has ``lms[k] | lcm`` and both
    ``(i, k)`` and ``(j, k)`` (smaller index first) are already settled.
    """
    for k, lm in enumerate(lms):
        if k != i and k != j and mono_divides(lm, lcm):
            if (min(i, k), max(i, k)) in settled and (min(j, k), max(j, k)) in settled:
                return True
    return False


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fm, fa, _ = _lead(f, order)
    gm, ga, _ = _lead(g, order)
    lcm = mono_lcm(fm, gm)
    ctx = f.context
    uf = Polynomial._from_ints(ctx, {mono_div(lcm, fm): f._den}, 1) * Fraction(1, fa)
    ug = Polynomial._from_ints(ctx, {mono_div(lcm, gm): -g._den}, 1) * Fraction(1, ga)
    return Polynomial.combine(ctx, ((uf, f), (ug, g)))


def _row_sum(ctx: VarContext, parts: list[tuple], ncols: int) -> list[Polynomial]:
    """Cofactor row ``sum(mult * row)`` over ``(mult, row)`` parts, one ``combine`` per column."""
    return [Polynomial.combine(ctx, ((mult, row[col]) for mult, row in parts))
            for col in range(ncols)]


def _minimal(lms: list[Monomial]) -> list[int]:
    """Indices of a minimal basis: ``i`` survives unless another leading monomial
    divides ``lms[i]``; of equal leading monomials the last survives."""
    return [i for i, lm in enumerate(lms)
            if not any(mono_divides(other, lm) and (j > i or other != lm)
                       for j, other in enumerate(lms))]


def buchberger(gens: list[Polynomial], order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of <gens> with cofactor tracking.

    Zero input generators are tolerated (their cofactor column is zero).
    """
    if not gens:
        raise DomainError("buchberger requires at least one generator")
    ctx = gens[0].context
    for g in gens:
        if g.context != ctx:
            raise ContextMismatchError("generators share no context")
    if order is None:
        order = MonomialOrder.degrevlex(ctx)

    inputs = tuple(gens)
    n_in = len(inputs)
    basis: list[Polynomial] = []
    leads: list[Lead] = []  # ``_lead`` of each basis element, fixed once pushed
    lms: list[Monomial] = []  # their leading monomials
    rows: list[list[Polynomial]] = []

    def push(poly: Polynomial, parts: list[tuple[Polynomial | int, list[Polynomial]]]):
        """Append ``poly`` made monic; its cofactor row is ``sum(mult * row)``
        over ``parts``, scaled alike."""
        lm, a, _ = _lead(poly, order)
        inv = Fraction(poly._den, a)
        basis.append(poly * inv)
        leads.append(_lead(basis[-1], order))
        lms.append(lm)
        rows.append(_row_sum(ctx, [(mult * inv, row) for mult, row in parts], n_in))

    for j, g in enumerate(inputs):
        if not g.is_zero():
            unit_row = [Polynomial.one(ctx) if k == j else Polynomial.zero(ctx) for k in range(n_in)]
            push(g, [(1, unit_row)])

    if not basis:
        return GroebnerBasis(order, inputs, (), ())

    # Heap of (order key of the pair's lcm, (i, j)): the same key and
    # tie-break as the normal strategy's min over all pending pairs.
    pending: list[tuple[object, tuple[int, int]]] = []

    def add_pairs(j: int):
        for i in range(j):
            heappush(pending, (order.key(mono_lcm(lms[i], lms[j])), (i, j)))

    done: set[tuple[int, int]] = set()
    for j in range(1, len(basis)):
        add_pairs(j)

    while pending:
        pair = heappop(pending)[1]
        done.add(pair)
        i, j = pair
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # coprime leading terms
        if _chain(lms, i, j, lcm, done):
            continue
        # Basis elements are monic, so both S-polynomial multipliers have coefficient 1.
        ui = Polynomial._from_ints(ctx, {mono_div(lcm, lms[i]): 1}, 1)
        uj = Polynomial._from_ints(ctx, {mono_div(lcm, lms[j]): -1}, 1)
        rem, quots = normal_form(Polynomial.combine(ctx, ((ui, basis[i]), (uj, basis[j]))),
                                 basis, order, leads)
        if not rem.is_zero():
            parts = [(ui, rows[i]), (uj, rows[j])]
            parts += [(-q, rows[k]) for k, q in enumerate(quots) if q]
            push(rem, parts)
            add_pairs(len(basis) - 1)

    # Minimalize, then push each survivor tail-reduced against the others.
    alive = _minimal(lms)
    for i in alive:
        others = [j for j in alive if j != i]
        rem, quots = normal_form(basis[i], [basis[j] for j in others], order,
                                 [leads[j] for j in others])
        push(rem, [(1, rows[i])] + [(-q, rows[j]) for q, j in zip(quots, others) if q])
    reduced = sorted(range(len(basis) - len(alive), len(basis)), key=lambda k: order.key(lms[k]))
    result = GroebnerBasis(
        order, inputs, tuple(basis[k] for k in reduced), tuple(tuple(rows[k]) for k in reduced)
    )
    result.verify()
    return result


def ideal_member(
    p: Polynomial, gens: list[Polynomial], order: MonomialOrder | None = None
) -> list[Polynomial] | None:
    """Decide p in <gens>; a Yes ships cofactors with ``sum(a_i*g_i) == p``.

    Returns the cofactor list (aligned with ``gens``) or None for a
    definitive No.  The returned identity is re-verified exactly before
    returning.  When every generator vanishes at the origin and p does
    not, so does every element of the ideal, and the No is returned
    without a Groebner basis.
    """
    if not gens:
        raise DomainError("ideal membership over an empty generator list")
    ctx = p.context  # a foreign generator skips the exit and raises below
    if not p.vanishes_at_origin() and all(
        g.vanishes_at_origin() and (g.context is ctx or g.context == ctx) for g in gens
    ):
        return None
    gb = buchberger(gens, order)
    if not gb.generators:
        return [Polynomial.zero(p.context) for _ in gens] if p.is_zero() else None
    rem, quots = normal_form(p, list(gb.generators), gb.order)
    if not rem.is_zero():
        return None
    cof = _row_sum(p.context, [(q, row) for q, row in zip(quots, gb.cofactors) if q], len(gens))
    invariant(Polynomial.combine(p.context, zip(cof, gens)) == p,
              "membership cofactors failed re-verification")
    return cof
