"""Buchberger's algorithm with cofactor certificates.

Every basis element carries its expression as a polynomial combination of
the original input generators, so ideal-membership verdicts ship witnesses
that recombine exactly to the queried element.

Division (``normal_form``) is the heap method of Monagan and Pearce: the
running dividend is a mutable term dict plus a ``heapq`` of
``MonomialOrder.neg_key`` values with lazy deletion, so each step pops the
leading term instead of rescanning the dividend, and subtracts
``q * (divisor minus its leading term)`` in place.  The divisor scan order
is fixed, so quotients and remainders are those of textbook division.

Completion (``buchberger``) caches each basis element's leading monomial
when it joins the basis and keeps the pending S-pairs in a heap.  Pair
selection is still the normal strategy, smallest lcm under the active
order and then ``(i, j)``, with the two classic elimination criteria
(coprime leading terms, chain criterion), so bases and cofactor matrices
are reproducible across runs.  ``GroebnerBasis.verify`` is still complete:
it re-checks every cofactor recombination and re-reduces every S-pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import ContextMismatchError, DomainError
from .ordering import MonomialOrder
from .polynomial import Monomial, Polynomial, mono_div, mono_divides, mono_lcm, mono_mul


def leading_term(p: Polynomial, order: MonomialOrder) -> tuple[Monomial, Fraction]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    mono = max(p.terms, key=order.key)
    return mono, p.terms[mono]


def normal_form(
    p: Polynomial, divisors: list[Polynomial], order: MonomialOrder
) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division: ``p == sum(q_i * d_i) + remainder`` exactly.

    No remainder term is divisible by any divisor's leading term.  The
    divisor scan order is fixed, so the output is deterministic.
    """
    ctx = p.context
    for d in divisors:
        if d.context != ctx:
            raise ContextMismatchError("normal_form operands share no context")
    neg_key = order.neg_key
    lead = []  # per divisor: (leading monomial, leading coefficient, tail terms) or None
    for d in divisors:
        if d.is_zero():
            lead.append(None)
        else:
            lm, lc = leading_term(d, order)
            lead.append((lm, lc, [(m, c) for m, c in d.terms.items() if m != lm]))
    quots: list[dict[Monomial, Fraction]] = [{} for _ in divisors]
    rem: dict[Monomial, Fraction] = {}
    h = dict(p.terms)
    heap = [(neg_key(m), m) for m in h]
    heapify(heap)
    while heap:
        hm = heappop(heap)[1]
        hc = h.pop(hm, None)
        if hc is None:
            continue  # cancelled after it was pushed
        for k, lt in enumerate(lead):
            if lt is not None and mono_divides(lt[0], hm):
                qm = mono_div(hm, lt[0])
                qc = hc / lt[1]
                quots[k][qm] = qc  # leading monomials strictly fall, so qm is new
                for m, c in lt[2]:
                    m = mono_mul(qm, m)
                    acc = h.get(m)
                    if acc is None:
                        h[m] = -qc * c
                        heappush(heap, (neg_key(m), m))
                    else:
                        acc -= qc * c
                        if acc:
                            h[m] = acc
                        else:
                            del h[m]
                break
        else:
            rem[hm] = hc
    return Polynomial._trusted(ctx, rem), [Polynomial._trusted(ctx, q) for q in quots]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis plus a cofactor matrix over the inputs."""

    order: MonomialOrder
    inputs: tuple[Polynomial, ...]
    generators: tuple[Polynomial, ...]
    cofactors: tuple[tuple[Polynomial, ...], ...]  # generators[i] == sum_j cofactors[i][j]*inputs[j]

    def verify(self) -> None:
        """Re-check the recombination identity and the Buchberger criterion."""
        if not self.generators:
            return
        ctx = self.inputs[0].context
        for g, row in zip(self.generators, self.cofactors):
            acc = Polynomial.zero(ctx)
            for c, f in zip(row, self.inputs):
                acc = acc + c * f
            if acc != g:
                raise AssertionError("cofactor recombination mismatch")
        gens = list(self.generators)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                s = _s_polynomial(gens[i], gens[j], self.order)
                rem, _ = normal_form(s, gens, self.order)
                if not rem.is_zero():
                    raise AssertionError("S-polynomial does not reduce to zero")


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    lcm = mono_lcm(fm, gm)
    ctx = f.context
    uf = Polynomial(ctx, {mono_div(lcm, fm): Fraction(1) / fc})
    ug = Polynomial(ctx, {mono_div(lcm, gm): Fraction(1) / gc})
    return uf * f - ug * g


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
    lms: list[Monomial] = []  # leading monomial of each basis element, fixed once pushed
    rows: list[list[Polynomial]] = []

    def unit_row(j: int) -> list[Polynomial]:
        return [
            Polynomial.one(ctx) if k == j else Polynomial.zero(ctx) for k in range(n_in)
        ]

    def push(poly: Polynomial, row: list[Polynomial]):
        lm, lc = leading_term(poly, order)
        inv = Fraction(1) / lc
        basis.append(poly * inv)
        lms.append(lm)
        rows.append([c * inv for c in row])

    for j, g in enumerate(inputs):
        if not g.is_zero():
            push(g, unit_row(j))

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
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(lms[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        # Basis elements are monic, so both S-polynomial multipliers have coefficient 1.
        uf = Polynomial._trusted(ctx, {mono_div(lcm, lms[i]): Fraction(1)})
        ug = Polynomial._trusted(ctx, {mono_div(lcm, lms[j]): Fraction(1)})
        s = uf * basis[i] - ug * basis[j]
        row_s = [uf * a - ug * b for a, b in zip(rows[i], rows[j])]
        rem, quots = normal_form(s, basis, order)
        for k, q in enumerate(quots):
            if not q.is_zero():
                row_s = [a - q * b for a, b in zip(row_s, rows[k])]
        if not rem.is_zero():
            push(rem, row_s)
            add_pairs(len(basis) - 1)

    # Minimalize: drop elements whose leading term another element divides.
    alive = list(range(len(basis)))
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

    # Tail-reduce every survivor against the others.
    reduced: list[Polynomial] = []
    reduced_rows: list[list[Polynomial]] = []
    for i in alive:
        others = [basis[j] for j in alive if j != i]
        other_rows = [rows[j] for j in alive if j != i]
        rem, quots = normal_form(basis[i], others, order)
        row = list(rows[i])
        for q, other_row in zip(quots, other_rows):
            if not q.is_zero():
                row = [a - q * b for a, b in zip(row, other_row)]
        _, lc = leading_term(rem, order)
        inv = Fraction(1) / lc
        reduced.append(rem * inv)
        reduced_rows.append([c * inv for c in row])

    ordering = sorted(range(len(reduced)), key=lambda k: order.key(leading_term(reduced[k], order)[0]))
    result = GroebnerBasis(
        order,
        inputs,
        tuple(reduced[k] for k in ordering),
        tuple(tuple(reduced_rows[k]) for k in ordering),
    )
    result.verify()
    return result


def ideal_member(
    p: Polynomial, gens: list[Polynomial], order: MonomialOrder | None = None
) -> list[Polynomial] | None:
    """Decide p in <gens>; a Yes ships cofactors with ``sum(a_i*g_i) == p``.

    Returns the cofactor list (aligned with ``gens``) or None for a
    definitive No.  The returned identity is re-verified exactly before
    returning.
    """
    if not gens:
        raise DomainError("ideal membership over an empty generator list")
    gb = buchberger(gens, order)
    if not gb.generators:
        return [Polynomial.zero(p.context) for _ in gens] if p.is_zero() else None
    rem, quots = normal_form(p, list(gb.generators), gb.order)
    if not rem.is_zero():
        return None
    cof = [Polynomial.zero(p.context) for _ in gens]
    for q, row in zip(quots, gb.cofactors):
        if q.is_zero():
            continue
        for j, c in enumerate(row):
            cof[j] = cof[j] + q * c
    acc = Polynomial.zero(p.context)
    for c, g in zip(cof, gens):
        acc = acc + c * g
    if acc != p:
        raise AssertionError("membership cofactors failed re-verification")
    return cof
