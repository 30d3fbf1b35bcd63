"""Multivariate polynomial gcd over the rationals.

Strategy: recurse on primitive parts with respect to one variable at a
time, running a subresultant polynomial remainder sequence on the
primitive parts and recursing into coefficient rings for contents.  The
result is normalized so its lexicographic leading coefficient is 1, and
exact divisibility of both inputs is checked before returning.

``exact_divide`` is ``groebner.normal_form`` by one divisor under the
context's lex order, so lndkit has one heap-division loop; a constant
divisor (most often a content of 1) scales instead.  Coefficient views
and pseudo-remainders run over the integer numerators and are built by
``Polynomial._from_ints``: ``_prem`` builds each pseudo-division step in
one integer term dict, skips the products that cancel, and carries the
denominators in one int.
"""

from __future__ import annotations

from functools import cache

from .errors import ContextMismatchError, DomainError, invariant
from .groebner import normal_form
from .ordering import MonomialOrder
from .polynomial import Monomial, Polynomial, mono_mul


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial | None:
    """Quotient p/d when the division is exact, else None.

    ``groebner.normal_form`` by the single divisor ``d`` under the
    context's lex order; a constant ``d`` divides every term, so ``p`` is
    scaled instead (``p`` itself for ``d == 1``), with the same quotient.
    A zero ``d`` raises ``DomainError``.
    """
    if d.is_zero():
        raise DomainError("division by the zero polynomial")
    if d.is_constant() and (d.context is p.context or d.context == p.context):
        c = d.as_rational()
        return p if c == 1 else p * (1 / c)
    rem, (quotient,) = normal_form(p, [d], _lex_order(p.context.nvars))
    return quotient if rem.is_zero() else None


@cache
def _lex_order(nvars: int) -> MonomialOrder:
    """``MonomialOrder.lex`` of any context with ``nvars`` variables, built once."""
    return MonomialOrder("lex", tuple(range(nvars)))


def divides(d: Polynomial, p: Polynomial) -> bool:
    return exact_divide(p, d) is not None


def _quotient(p: Polynomial, d: Polynomial, what: str) -> Polynomial:
    """``p / d`` for a division the algorithm knows is exact; a remainder is a bug."""
    q = exact_divide(p, d)
    invariant(q is not None, f"{what} division must be exact")
    return q


def _univariate_coeffs(p: Polynomial, i: int) -> dict[int, Polynomial]:
    """View p as univariate in variable i: exponent -> coefficient polynomial."""
    buckets: dict[int, dict[Monomial, int]] = {}
    for m, c in p._num.items():
        buckets.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    return {e: Polynomial._from_ints(p.context, num, p._den) for e, num in buckets.items()}


def _deg_in(p: Polynomial, i: int) -> int:
    return max((m[i] for m in p._num), default=-1)


def _lead_coeff_in(p: Polynomial, i: int) -> Polynomial:
    d = _deg_in(p, i)
    return Polynomial._from_ints(
        p.context, {m[:i] + (0,) + m[i + 1:]: c for m, c in p._num.items() if m[i] == d}, p._den
    )


def _prem(a: Polynomial, b: Polynomial, i: int) -> Polynomial:
    """Pseudo-remainder of a by b in variable i: lc(b)^(da-db+1)*a mod b.

    Each step builds ``lc(b) * rem - lc(rem) * x_i^(dr-db) * b`` in one
    term dict, where ``lc`` is the leading coefficient in variable i.  Its
    terms of degree ``dr`` in x_i cancel exactly, so only the lower parts
    of ``rem`` and ``b`` are multiplied out.  The step runs over integer
    numerators: with ``b``'s numerators in place of ``b`` and ``lc(b)``,
    it drops one factor ``den(b)``, so after ``k`` steps the remainder is
    ``rem / (den(a) * den(b)^k)``.
    """
    da, db = _deg_in(a, i), _deg_in(b, i)
    lc_b = [(m[:i] + (0,) + m[i + 1:], c) for m, c in b._num.items() if m[i] == db]
    b_low = [(m, c) for m, c in b._num.items() if m[i] < db]
    rem, den = a._num, a._den
    steps = da - db + 1
    while rem:
        dr = max(m[i] for m in rem)
        if dr < db:
            break
        neg_lc_r = [(m[:i] + (dr - db,) + m[i + 1:], -c) for m, c in rem.items() if m[i] == dr]
        rem_low = [(m, c) for m, c in rem.items() if m[i] < dr]
        new: dict[Monomial, int] = {}
        get = new.get
        for left, right in ((lc_b, rem_low), (neg_lc_r, b_low)):
            for m1, c1 in left:
                for m2, c2 in right:
                    m = mono_mul(m1, m2)
                    new[m] = get(m, 0) + c1 * c2
        rem = {m: c for m, c in new.items() if c}
        den *= b._den
        steps -= 1
    result = Polynomial._from_ints(a.context, rem, den)
    return result * _lead_coeff_in(b, i)._power(steps) if steps > 0 else result


def _content(p: Polynomial, i: int) -> Polynomial:
    """gcd of the coefficients of p viewed univariately in variable i."""
    coeffs = list(_univariate_coeffs(p, i).values())
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = _gcd_inner(acc, c)
        if acc.is_constant():
            break
    return acc.monic_lex()


def _gcd_inner(p: Polynomial, q: Polynomial) -> Polynomial:
    ctx = p.context
    if p.is_zero():
        return q.monic_lex()
    if q.is_zero():
        return p.monic_lex()
    if p.is_constant() or q.is_constant():
        return Polynomial.one(ctx)
    i = next(k for k in range(ctx.nvars) if _deg_in(p, k) > 0 or _deg_in(q, k) > 0)
    dp, dq = _deg_in(p, i), _deg_in(q, i)
    if dp == 0:
        return _gcd_inner(p, _content(q, i))
    if dq == 0:
        return _gcd_inner(_content(p, i), q)
    cp, cq = _content(p, i), _content(q, i)
    c = _gcd_inner(cp, cq)
    f1, f2 = _quotient(p, cp, "content"), _quotient(q, cq, "content")
    if _deg_in(f1, i) < _deg_in(f2, i):
        f1, f2 = f2, f1
    g = h = Polynomial.one(ctx)
    while True:
        delta = _deg_in(f1, i) - _deg_in(f2, i)
        rem = _prem(f1, f2, i)
        if rem.is_zero():
            return (c * _quotient(f2, _content(f2, i), "primitive part")).monic_lex()
        if _deg_in(rem, i) == 0:
            return c.monic_lex()
        f1 = f2
        f2 = _quotient(rem, g * h._power(delta), "subresultant")
        g = _lead_coeff_in(f1, i)
        if delta == 1:
            h = g
        elif delta > 1:
            h = _quotient(g._power(delta), h._power(delta - 1), "subresultant scaling")


def gcd_fold(polys: list[Polynomial]) -> Polynomial:
    """``gcd`` folded over a nonempty list from the left, stopping at the
    first constant; one polynomial is returned as it is."""
    acc = polys[0]
    for p in polys[1:]:
        acc = gcd(acc, p)
        if acc.is_constant():
            break
    return acc


def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Lex-monic gcd; raises DomainError when both inputs are zero.

    Postcondition (checked): the result divides both inputs exactly.
    """
    if p.context != q.context:
        raise ContextMismatchError("gcd operands share no context")
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    g = _gcd_inner(p, q)
    invariant((p.is_zero() or divides(g, p)) and (q.is_zero() or divides(g, q)),
              "gcd postcondition failed")
    return g
