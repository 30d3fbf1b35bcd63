"""Multivariate polynomial gcd over the rationals.

Strategy: ``gcd`` first tries a heuristic gcd on the integer numerators
(GCDHEU: Char, Geddes and Gonnet, J. Symbolic Computation 7, 1989), and
falls back to ``_gcd_inner``, which recurses on primitive parts with
respect to one variable at a time, running a subresultant polynomial
remainder sequence on the primitive parts and recursing into coefficient
rings for contents.  Either way the result is normalized so its
lexicographic leading coefficient is 1, and it divides both inputs
exactly: on the heuristic path its acceptance divisions are that check,
on the fallback the postcondition divides once more.

The heuristic, ``_heuristic``, returns the full integer gcd of two
integer polynomials, content included, or None.  It strips the integer
contents, leaving primitive ``f`` and ``g`` with content gcd ``c``; a
constant side makes the answer ``c``.  Otherwise it picks a variable
``x``, evaluates both sides at an odd integer
``xi > 2 * min(B_f, B_g)``, where ``B = 2^(sum_i deg_{x_i}) *
(isqrt(sum c^2) + 1)`` (``_bound``), and recurses on the values, one
variable fewer, down to ``math.gcd``.  It rebuilds ``H`` from the
balanced ``xi``-adic digits of the returned ``h`` (each digit lies in
``(-xi/2, xi/2)``, and ``H(xi) = h``) and accepts ``c * h'``, where
``h'`` is the primitive part of ``H``, only when ``exact_divide`` divides
both sides by ``h'``.

Maximality.  Let ``d`` be the gcd of ``f`` and ``g`` in ``Z[x, ...]``,
and suppose the accepted ``h'`` divides both.  ``h'`` is primitive, so
by Gauss's lemma ``d = h' * u`` with ``u`` integral.  By induction ``h``
is the full gcd of ``f(xi)`` and ``g(xi)``, so ``d(xi)`` divides
``h = content(H) * h'(xi)``, and ``u(xi)`` divides the integer
``content(H)``: it is an integer with ``|u(xi)| <= |content(H)| < xi/2``.
``u`` divides ``f`` and ``g``, so Mahler's inequality (Mahler, J. London
Math. Soc. 37, 1962) gives ``|u|_inf <= min(B_f, B_g) < xi/2``.  The
balanced ``xi``-adic digits of an integer are unique, so ``u`` equals
the constant ``u(xi)``, and ``u = +-1`` because ``d`` and ``h'`` are
primitive.  So ``c * h'`` is the gcd up to sign.

Retry and decline rules.  An attempt fails when a side evaluates to zero
or ``h'`` fails to divide; the next attempt uses the new odd point
``xi * 73794 // 27011 | 1`` (about ``(1 + sqrt 3) * xi``, the growth of
the reference above).  After ``_HEURISTIC_ATTEMPTS`` failed attempts, or
when a deeper level fails, the heuristic gives up and ``gcd`` runs the
remainder sequence.  Before any evaluation ``gcd`` estimates the bit
length the evaluated coefficients reach at the bottom of the chain
(``_predicted_bits``); past ``_HEURISTIC_MAX_BITS`` it goes straight to
the remainder sequence, which is fast on dense inputs with a large gcd
such as ``(x+y+z+1)^20 * (x-y)`` and ``(x+y+z+1)^20 * (x+z)``, where the
evaluated integers would run to about a million bits.  Zero and
constant inputs also take the remainder sequence, which answers them at
once.

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
from math import gcd as igcd, isqrt

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


# The heuristic gives up after this many evaluation points at one level, and
# ``gcd`` skips it when ``_predicted_bits`` exceeds the cap.  Near the cap the
# heuristic took about 2.5 times as long as the remainder sequence on the
# latter's best case, (x+y+z+1)^12 times two linear factors, and a
# thousandth as long on dense random trivariate inputs of the same size.
_HEURISTIC_ATTEMPTS = 3
_HEURISTIC_MAX_BITS = 150_000


def _degrees(num: dict[Monomial, int]) -> list[int]:
    """The degree of a nonzero numerator dict in each variable."""
    return [max(column) for column in zip(*num)]


def _bound(num: dict[Monomial, int]) -> int:
    """``2^(sum_i deg_{x_i}) * (isqrt(sum c^2) + 1)``: by Mahler's inequality,
    no integer factor of ``num`` has a coefficient above it in absolute value."""
    return (isqrt(sum(c * c for c in num.values())) + 1) << sum(_degrees(num))


def _predicted_bits(f: dict[Monomial, int], g: dict[Monomial, int]) -> int:
    """Estimated bit length of the integers the evaluation chain of ``f``
    and ``g`` ends at.

    Each variable in turn is evaluated at a point one bit longer than
    ``min(B_f, B_g)`` for the values so far.  Evaluating ``x_i`` drops
    ``deg_{x_i}`` from a side's ``sum_i deg_{x_i}`` and multiplies its
    coefficients by the point once per degree, which adds about
    ``deg_{x_i} * bits(min(B_f, B_g))`` bits to its ``B``.  An estimate,
    not a bound: it only decides whether the heuristic is tried.
    """
    degs = (_degrees(f), _degrees(g))
    bits = [_bound(f).bit_length(), _bound(g).bit_length()]
    for i in range(len(degs[0])):
        xi_bits = min(bits)
        bits = [b + d[i] * xi_bits + 1 for b, d in zip(bits, degs)]
    return max(bits)


def _primitive(num: dict[Monomial, int]) -> tuple[int, dict[Monomial, int]]:
    """``(content, primitive part)`` of a nonzero numerator dict, content positive."""
    c = igcd(*num.values())
    return c, num if c == 1 else {m: a // c for m, a in num.items()}


def _evaluate(num: dict[Monomial, int], i: int, xi: int) -> dict[Monomial, int]:
    """``num`` with variable ``i`` set to the integer ``xi``."""
    powers = [1]
    for _ in range(max(m[i] for m in num)):
        powers.append(powers[-1] * xi)
    out: dict[Monomial, int] = {}
    get = out.get
    for m, c in num.items():
        key = m[:i] + (0,) + m[i + 1:]
        out[key] = get(key, 0) + c * powers[m[i]]
    return {m: c for m, c in out.items() if c}


def _balanced_digits(num: dict[Monomial, int], i: int, xi: int) -> dict[Monomial, int]:
    """The polynomial whose coefficients in variable ``i`` are the balanced
    ``xi``-adic digits of ``num``'s: each digit lies in ``(-xi/2, xi/2)``
    for odd ``xi``, and its value at ``x_i = xi`` is ``num``."""
    half = xi // 2
    out: dict[Monomial, int] = {}
    for m, c in num.items():
        k = 0
        while c:
            c, r = divmod(c, xi)
            if r > half:
                r -= xi
                c += 1
            if r:
                out[m[:i] + (k,) + m[i + 1:]] = r
            k += 1
    return out


def _heuristic(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """The integer gcd of the numerators of ``p`` and ``q``, content
    included, or None; the module docstring proves it and gives the retry
    rule.  Both inputs are nonzero."""
    ctx = p.context
    (cf, f), (cg, g) = _primitive(p._num), _primitive(q._num)
    c = igcd(cf, cg)
    zero = (0,) * ctx.nvars
    if zero in f and len(f) == 1 or zero in g and len(g) == 1:
        return Polynomial._from_ints(ctx, {zero: c}, 1)
    i = next(k for k, d in enumerate(map(max, zip(*f, *g))) if d)
    xi = 2 * min(_bound(f), _bound(g)) + 1
    for _ in range(_HEURISTIC_ATTEMPTS):
        fe, ge = _evaluate(f, i, xi), _evaluate(g, i, xi)
        if fe and ge:
            h = _heuristic(Polynomial._from_ints(ctx, fe, 1), Polynomial._from_ints(ctx, ge, 1))
            if h is None:
                return None
            _, digits = _primitive(_balanced_digits(h._num, i, xi))
            candidate = Polynomial._from_ints(ctx, digits, 1)
            if exact_divide(p, candidate) is not None and exact_divide(q, candidate) is not None:
                return candidate if c == 1 else Polynomial._from_ints(
                    ctx, {m: a * c for m, a in digits.items()}, 1)
        xi = xi * 73794 // 27011 | 1
    return None


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

    Postcondition (checked): the result divides both inputs exactly.  The
    heuristic accepts only after ``exact_divide`` divides both inputs by
    its answer, so only the fallback divides them again.
    """
    if p.context != q.context:
        raise ContextMismatchError("gcd operands share no context")
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    if not (p.is_constant() or q.is_constant()) \
            and _predicted_bits(p._num, q._num) <= _HEURISTIC_MAX_BITS:
        g = _heuristic(p, q)
        if g is not None:
            return g.monic_lex()
    g = _gcd_inner(p, q)
    invariant((p.is_zero() or divides(g, p)) and (q.is_zero() or divides(g, q)),
              "gcd postcondition failed")
    return g
