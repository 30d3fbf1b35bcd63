"""Shared test utilities: seeded random polynomials and contexts."""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
from fractions import Fraction
from importlib import resources
from math import comb

from lndkit import (
    ContextMismatchError,
    Derivation,
    GeneratorSpan,
    InvariantError,
    PolyParseError,
    Polynomial,
    Subalgebra,
    VarContext,
    dixmier,
    generator_products,
)
from lndkit.derivation import is_fixed_point_free, is_triangular, metered_iterates, nilpotency_verdict
from lndkit.harness.randgen import (
    _IMAGE_DEGREE,
    _TRIANGULAR_CONTEXT,
    FamilyOutcome,
    _rand_coeff,
    _rand_poly,
    random_triangular_lnd,
)
from lndkit.linalg import RowSpace, _eliminate, combine, vec_of
from lndkit.parse import MAX_NESTING_DEPTH, _power_pairs
from lndkit.polynomial import MAX_EXPONENT, PAIR_BUDGET, TERM_BUDGET
from lndkit.slices import _exp_sum, _reexpress, find_slice, verify_slice_theorem
from lndkit.subalgebra import MembershipWitness, _combine_over, distinct_nonconstant, symbol_context


def perturb_taylor_witnesses(set_attribute=setattr) -> None:
    """Write every Taylor witness expression of ``verify_slice_theorem`` off
    by one, leaving its re-verification untouched: ``monkeypatch.setattr``
    in a test, plain ``setattr`` in a subprocess."""
    from lndkit import slices

    set_attribute(slices, "MembershipWitness", lambda g, e, bound: MembershipWitness(g, e + 1, bound))


def rand_coeff(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-5, 6) if n])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rand_poly(
    rng: random.Random,
    ctx: VarContext,
    max_degree: int = 3,
    max_terms: int = 4,
    names: tuple[str, ...] | None = None,
    allow_zero: bool = True,
) -> Polynomial:
    """Random sparse polynomial in the given variables (all by default)."""
    if names is None:
        names = ctx.variables
    idx = [ctx.index(n) for n in names]
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        mono = [0] * ctx.nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            mono[rng.choice(idx)] += 1
        terms[tuple(mono)] = rand_coeff(rng)
    return Polynomial(ctx, terms)


def assert_canonical(r: Polynomial):
    """The integer form is canonical and the ``terms`` view agrees with it."""
    assert r._den > 0 and math.gcd(r._den, *r._num.values()) == 1
    assert all(type(c) is int and c != 0 for c in r._num.values())
    keys = list(r.terms)
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert r.terms == {m: Fraction(c, r._den) for m, c in r._num.items()}
    assert r == Polynomial(r.context, r.terms)


def katsura(n: int) -> tuple[VarContext, list[Polynomial]]:
    """The katsura-n system in variables u0..un."""
    names = tuple(f"u{i}" for i in range(n + 1))
    ctx = VarContext((), names)
    u = [Polynomial.variable(ctx, v) for v in names]

    def U(i):
        return u[abs(i)] if abs(i) <= n else Polynomial.zero(ctx)

    eqs = [u[0] + sum((u[i] * 2 for i in range(1, n + 1)), Polynomial.zero(ctx)) - 1]
    for m in range(n):
        acc = Polynomial.zero(ctx)
        for l in range(-n, n + 1):
            acc = acc + U(l) * U(m - l)
        eqs.append(acc - u[m])
    return ctx, eqs


def cyclic(n: int) -> tuple[VarContext, list[Polynomial]]:
    """The cyclic-n system in variables x1..xn."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    ctx = VarContext((), names)
    x = [Polynomial.variable(ctx, v) for v in names]
    eqs = []
    for k in range(1, n):
        acc = Polynomial.zero(ctx)
        for i in range(n):
            term = Polynomial.one(ctx)
            for j in range(k):
                term = term * x[(i + j) % n]
            acc = acc + term
        eqs.append(acc)
    prod = Polynomial.one(ctx)
    for xi in x:
        prod = prod * xi
    eqs.append(prod - 1)
    return ctx, eqs


# -- the solvers that ``subalgebra.solve_images`` replaced, kept as references --


def canonical_rref(vectors):
    """Fully reduced row echelon form of the span of integer ``Vec``s, pivots
    descending: each row a ``Vec`` in lowest terms with ``num[pivot] == den``.
    In ascending pivot order, each ``RowSpace`` row is reduced by the rows
    below it and divided by its content."""
    space = RowSpace()
    for tag, vec in enumerate(vectors):
        space.insert(vec, tag)
    rows = {}
    for pivot in sorted(space._rows):
        row, _ = reduce_by_rref((space._rows[pivot][0], 1), rows.values())
        g = math.gcd(*row.values())
        if g != 1:
            row = {k: v // g for k, v in row.items()}
        rows[pivot] = (row, row[pivot])
    return list(reversed(rows.values()))


def reduce_by_rref(vec, rref_rows):
    """Eliminate every rref pivot from ``vec``; canonical coset representative."""
    num, den = vec
    out = dict(num)
    for row, row_den in rref_rows:
        c = out.get(max(row))
        if c:
            den *= _eliminate(out, row, row_den, c)
    return out, den


def reference_image_kernel(images, products):
    """Every image inserted, in product order: the row space, the
    dependencies ``(j, (c, d))`` and the ``canonical_rref`` of the killed
    vectors ``d * products[j] - sum(c[k] * products[k])``."""
    space = RowSpace()
    dependencies = []
    kernel_vecs = []
    for j, image in enumerate(images):
        dep = space.insert(image, j)
        if dep is None:
            continue
        dependencies.append((j, dep))
        num, den = dep
        f = combine([(products[j], den), *((products[k], -c) for k, c in num.items())])
        if f[0]:
            kernel_vecs.append(f)
    return space, dependencies, canonical_rref(kernel_vecs)


def reference_solve_unit_image(images, products, context):
    """Solve sum(c_j * images[j]) == 1 over the ``(exponents, polynomial)``
    products after inserting every image, and reduce the solution by the
    kernel's ``canonical_rref``; None when no solution exists."""
    vecs = [vec_of(poly) for _, poly in products]
    space, _, kernel = reference_image_kernel([vec_of(img) for img in images], vecs)
    combo = space.express(vec_of(Polynomial.one(context)))
    if combo is None:
        return None
    num, den = combo
    s0, s0_den = combine((vecs[j], c) for j, c in num.items())
    return Polynomial._from_ints(context, *reduce_by_rref((s0, s0_den * den), kernel))


def reference_image_of_product(rd, expo):
    """Leibniz image of a generator product of ``rd``'s own subalgebra, given
    by its exponent vector: each product minus one factor is rebuilt from
    generator powers, where ``GeneratorSpan.images`` reads it from its span."""
    S = rd.subalgebra
    gens = S.generators
    nbase = len(S.base_generators)
    pairs = []
    for i, e in enumerate(expo):
        if e == 0 or i < nbase or not rd.images[i - nbase]:
            continue
        rest = None  # the product with one factor gens[i] taken out
        for k, ek in enumerate(expo):
            if k == i:
                ek -= 1
            if ek:
                power = gens[k]._power(ek)
                rest = power if rest is None else rest * power
        pairs.append((rd.images[i - nbase] * e, 1 if rest is None else rest))
    return Polynomial.combine(S.context, pairs)


def reference_product_images(D, products):
    """Images of ``(exponents, polynomial)`` generator products: an ambient
    derivation applied to each polynomial, a restricted one by
    ``reference_image_of_product`` on each exponent vector."""
    if isinstance(D, Derivation):
        return [D.apply(poly) for _, poly in products]
    return [reference_image_of_product(D, expo) for expo, _ in products]


def reference_find_slice(D, S, bound):
    """``find_slice``'s search through ``reference_solve_unit_image`` over all
    generator products, without the exit at the origin or the image check."""
    products = generator_products(S, bound)
    return reference_solve_unit_image(reference_product_images(D, products), products, S.context)


def reference_kernel(D, S, bound):
    """``kernel_up_to_degree``'s basis through ``reference_image_kernel``
    over all generator products, without its re-checks."""
    products = generator_products(S, bound)
    _, _, kernel = reference_image_kernel([vec_of(img) for img in reference_product_images(D, products)],
                                          [vec_of(poly) for _, poly in products])
    return [Polynomial._from_ints(S.context, *row) for row in kernel]


def taylor_bound(D: Derivation, s: Polynomial, S: Subalgebra, projections: list[Polynomial]) -> int:
    """A re-expression bound sufficient on full rings.

    Every generator g satisfies g = sum_i (s^i/i!) * pi_s(D^i g) and
    pi_s substitutes each main variable by its projection, so the witness
    degree is bounded by the weighted degree of the iterates.  On a full
    ring ``projections``, those of the algebra generators, are the main
    variables' projections.
    """
    ctx = S.context
    ncoeff = len(ctx.coeff_vars)
    proj_deg = {}
    for idx, k in enumerate(projections):
        d = k.degree()
        proj_deg[ncoeff + idx] = 0 if d is None else max(d, 0)
    s_deg = max(1, s.degree() or 1)
    best = 1
    for g in S.algebra_generators:
        for i, f in enumerate(metered_iterates(D.apply, g)):
            for mono in f._num:
                w = sum(mono[:ncoeff])
                for j in range(ncoeff, ctx.nvars):
                    w += mono[j] * proj_deg[j]
                best = max(best, w + i * s_deg)
    return best


def reference_reexpress(D, s, S, bound=None):
    """The re-expression search ``verify_slice_theorem`` ran on a full ring:
    every generator searched in the span of the kernel generators and s, at
    ``bound`` or else at ``taylor_bound``.  Returns the witnesses or the
    ``IncompleteReexpression``, and the bound."""
    projections = [dixmier(D, s, g) for g in S.algebra_generators]
    if bound is None:
        bound = taylor_bound(D, s, S, projections)
    target = Subalgebra(S.context, S.base_generators, distinct_nonconstant(projections) + (s,))
    return _reexpress(S, target, bound), bound


def reference_transcendence(x, S, bound):
    """The relation search ``transcendence_check`` once ran: the
    coefficients a_0..a_bound over the bounded base span with
    sum(a_i * x^i) == 0, re-verified, or None when there is none up to the
    bound."""
    ctx = S.context
    base = GeneratorSpan(Subalgebra(ctx, S.base_generators, ()), bound)
    dependent = {j for j, _ in base.relations}
    independent = [p for j, (_, p) in enumerate(base.products) if j not in dependent]
    space = RowSpace()
    xpows = [Polynomial.one(ctx)]  # x^0 .. x^i
    for i in range(bound + 1):
        for k, b in enumerate(independent):
            tag = (i, k)  # b * x^i
            dep = space.insert(vec_of(b * xpows[i]), tag)
            if dep is not None:
                # normalize so the newly inserted power enters with +b
                num, den = dep
                relation = {tag: den} | {t: -c for t, c in num.items()}
                coeffs = tuple(
                    _combine_over(
                        ctx, ((independent[kk], c) for (ii, kk), c in relation.items() if ii == n), den
                    )
                    for n in range(bound + 1)
                )
                assert Polynomial.combine(ctx, zip(coeffs, xpows)).is_zero()
                return coeffs
        xpows.append(xpows[i] * x)
    return None


def reference_subalgebra_fpf(rd, bound):
    """The fixed-point-free search ``subalgebra_fpf`` once ran: every
    product times every nonzero generator image inserted, tagged ``(j, i)``
    generator by generator, then one ``express(1)``; cofactors aligned with
    the algebra generators, or None.  No exit at the origin and no product
    relation check."""
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
    num, den = combo
    return [_combine_over(ctx, ((products[j][1], c) for (j, k), c in num.items() if k == i), den)
            for i in range(len(rd.images))]


def reference_random_triangular_lnd(seed: int, fpf: bool = True) -> Derivation:
    """The generator ``random_triangular_lnd`` once was: each draw re-decided
    by ``is_fixed_point_free``'s Groebner basis and by ``is_triangular``, and
    drawn again on a miss."""
    rng = random.Random(seed)
    ctx = _TRIANGULAR_CONTEXT
    coeff = ctx.coeff_vars
    deg = _IMAGE_DEGREE
    while True:
        if fpf:
            if rng.random() < 0.5:
                img_x = Polynomial.constant(ctx, _rand_coeff(rng))
                img_y = _rand_poly(rng, ctx, coeff + ("X",), deg, 3)
            else:
                p = _rand_poly(rng, ctx, coeff, deg - 1, 2, allow_zero=False)
                if p.is_zero():
                    continue
                q = _rand_poly(rng, ctx, coeff + ("X",), deg - (p.degree() or 0), 2)
                img_x = p
                img_y = Polynomial.one(ctx) - p * q
            d = Derivation(ctx, {"X": img_x, "Y": img_y})
            if is_fixed_point_free(d) is None:
                continue
        else:
            shape = rng.random()
            if shape < 0.5:
                img_x = Polynomial.zero(ctx)
                img_y = Polynomial.variable(ctx, "X") * _rand_poly(
                    rng, ctx, coeff + ("X",), deg - 1, 2, allow_zero=False
                )
            else:
                img_x = Polynomial.zero(ctx)
                img_y = _rand_poly(rng, ctx, coeff + ("X",), deg, 2, allow_zero=False)
                if img_y.is_constant():
                    continue
            d = Derivation(ctx, {"X": img_x, "Y": img_y})
            if d.is_zero() or is_fixed_point_free(d) is not None:
                continue
        if is_triangular(d) is None:
            continue
        return d


def reference_substitute(p: Polynomial, bindings, context: VarContext | None = None) -> Polynomial:
    """The substitution ``Polynomial.substitute`` once was: every unbound
    variable a ``Polynomial.variable``, every monomial's image a chain of
    ``Polynomial`` products of cached ``_power``s, and the images summed by
    one ``combine`` over the numerators."""
    target = context if context is not None else p.context
    images: list[Polynomial] = []
    for name in p.context.variables:
        if name in bindings:
            img = bindings[name]
            if not isinstance(img, Polynomial):
                img = Polynomial.constant(target, img)
            elif img.context != target:
                raise ContextMismatchError(
                    f"image of {name!r} lives in {img.context}, expected {target}"
                )
        else:
            img = Polynomial.variable(target, name)  # raises if missing
        images.append(img)
    for name in bindings:
        p.context.index(name)  # reject bindings for foreign variables
    pairs: list[tuple[int, Polynomial | int]] = []
    power_cache: dict[tuple[int, int], Polynomial] = {}
    for m, c in p._num.items():
        term: Polynomial | None = None
        for i, e in enumerate(m):
            if not e:
                continue
            key = (i, e)
            q = power_cache.get(key)
            if q is None:
                q = images[i]._power(e)
                power_cache[key] = q
            term = q if term is None else term * q
        pairs.append((c, 1 if term is None else term))
    total = Polynomial.combine(target, pairs)  # the numerators' image
    return Polynomial._from_ints(target, total._num, total._den * p._den)


# -- the slice pipeline before its certificates came from the slice, kept as references --


def reference_slice_pipeline_family(seed: int, count: int, bound: int = 8) -> FamilyOutcome:
    """The triangular-fpf family as it once ran: fixed-point-freeness
    decided by ``is_fixed_point_free``'s Groebner basis, and its cofactors
    recombined, before the slice search; the failure label built for every
    seed."""
    failures: list[str] = []
    for k in range(count):
        d = random_triangular_lnd(seed + k)
        label = f"seed {seed + k}: " + ", ".join(f"{v}->{d.images[v]}" for v in d.context.main_vars)
        if not nilpotency_verdict(d).certified:
            failures.append(label + " [nilpotency not certified]")
            continue
        witness = is_fixed_point_free(d)
        if witness is None:
            failures.append(label + " [not fixed point free]")
            continue
        recombined = Polynomial.combine(d.context, ((cof, d.images[name]) for name, cof in witness.items()))
        if recombined != Polynomial.one(d.context):
            failures.append(label + " [cofactor identity broke]")
            continue
        S = Subalgebra.full(d.context)
        s = find_slice(d, S, bound)
        if s is None:
            failures.append(label + f" [no slice up to bound {bound}]")
            continue
        cert = verify_slice_theorem(d, s, S)
        target = Subalgebra(d.context, S.base_generators, cert.kernel_generators + (s,))
        for g, w in zip(S.algebra_generators, cert.reexpression):
            if w.evaluate(target) != g:
                failures.append(label + f" [witness for {g} failed]")
                break
    return FamilyOutcome(count, failures)


def reference_taylor_certificate(D: Derivation, s: Polynomial, S: Subalgebra):
    """The full-ring certificate of ``verify_slice_theorem`` in two passes,
    as it once was computed: each projection by ``dixmier``, which checks
    D(s) == 1 and iterates its generator, and each Taylor witness from a
    second ``metered_iterates`` chain of the same generator.  Returns the
    kernel generators, the witnesses and their bound."""
    projections = [dixmier(D, s, g) for g in S.algebra_generators]
    target = Subalgebra(S.context, S.base_generators, distinct_nonconstant(projections) + (s,))
    sym = symbol_context(target)
    symbols = [Polynomial.variable(sym, name) for name in sym.variables]
    symbol_of = {g.monic_lex(): (y, g) for g, y in zip(target.generators, symbols)}
    bindings = dict(zip(S.context.coeff_vars, symbols))
    for x, p in zip(S.context.main_vars, projections):
        if p.is_constant():
            bindings[x] = p.as_rational()
        else:
            y, g = symbol_of[p.monic_lex()]
            bindings[x] = y * (p.lex_leading()[1] / g.lex_leading()[1])
    expressions = [_exp_sum([f.substitute(bindings, context=sym) for f in metered_iterates(D.apply, g)],
                            symbols[-1])
                   for g in S.algebra_generators]
    bound = max(max((sum(e * w for e, w in zip(m, target.weights)) for m in x._num), default=0)
                for x in expressions)
    witnesses = tuple(MembershipWitness(g, e, bound) for g, e in zip(S.algebra_generators, expressions))
    return target.algebra_generators[:-1], witnesses, bound


# -- the polynomial parser before it carried integer forms, kept as a reference --

_OPS = set("+-*^/()")
_DIGITS = set("0123456789")


class _ReferenceToken:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _reference_tokenize(text: str) -> list[_ReferenceToken]:
    tokens: list[_ReferenceToken] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and (text[j].isalpha() or text[j] == "_"):
                raise PolyParseError("implicit multiplication is not accepted", line, col)
            tokens.append(_ReferenceToken("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_ReferenceToken("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_ReferenceToken(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_ReferenceToken("eof", "", line, col))
    return tokens


def _reference_exponents(p: Polynomial):
    """Each variable's largest exponent in ``p``; none for the zero polynomial."""
    return map(max, zip(*p._num))


class _ReferenceParser:
    def __init__(self, tokens: list[_ReferenceToken], context: VarContext):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.depth = 0

    def peek(self) -> _ReferenceToken:
        return self.tokens[self.pos]

    def advance(self) -> _ReferenceToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _ReferenceToken | None = None):
        tok = tok or self.peek()
        raise PolyParseError(message, tok.line, tok.col)

    def parse(self) -> Polynomial:
        poly = self.expr()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after expression")
        return poly

    def expr(self) -> Polynomial:
        negate = False
        if self.peek().kind in ("+", "-"):
            negate = self.advance().kind == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def cap(self, exponents, op: _ReferenceToken):
        """Fail at the operator ``op`` when its result would carry a
        variable's exponent above ``MAX_EXPONENT``."""
        for name, e in zip(self.context.variables, exponents):
            if e > MAX_EXPONENT:
                self.fail(f"exponent {e} of {name} exceeds the cap {MAX_EXPONENT}", op)

    def budget(self, terms: int, degree: int, exponents: list[int], op: _ReferenceToken):
        """Fail at the operator ``op`` when its result may hold more than
        ``TERM_BUDGET`` terms: more than ``terms`` and more than the
        monomials of total degree at most ``degree`` in the variables with
        a nonzero entry in ``exponents``.  The monomials are counted only
        when ``terms`` exceeds the budget."""
        if terms > TERM_BUDGET:
            v = len(exponents) - exponents.count(0)
            terms = min(terms, comb(degree + v, v))
            if terms > TERM_BUDGET:
                self.fail(f"the result may hold {terms} terms, above the budget {TERM_BUDGET}", op)

    def pairs(self, pairs: int, op: _ReferenceToken):
        """Fail at the operator ``op`` when one of its multiplications may
        take more than ``PAIR_BUDGET`` pair products."""
        if pairs > PAIR_BUDGET:
            self.fail(f"a product may take {pairs} pair products, above the pair budget {PAIR_BUDGET}", op)

    def literal(self, tok: _ReferenceToken) -> int:
        try:
            return int(tok.text)
        except ValueError:
            self.fail(f"integer literal of {len(tok.text)} digits exceeds the limit of "
                      f"{sys.get_int_max_str_digits()} digits", tok)

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            exponents = [x + y for x, y in zip(_reference_exponents(acc), _reference_exponents(rhs))]
            self.cap(exponents, op)
            if acc and rhs:
                pairs = len(acc) * len(rhs)
                self.budget(pairs, acc.degree() + rhs.degree(), exponents, op)
                self.pairs(pairs, op)
            acc = acc * rhs
        return acc

    def factor(self) -> Polynomial:
        base = self.primary()
        while self.peek().kind == "^":
            op = self.advance()
            tok = self.peek()
            if tok.kind != "int":
                self.fail("exponent must be a non-negative integer")
            try:
                n = int(tok.text)
            except ValueError:
                n = MAX_EXPONENT + 1
            if n > MAX_EXPONENT:
                self.fail(f"exponent {tok.text} exceeds the cap {MAX_EXPONENT}")
            exponents = [n * e for e in _reference_exponents(base)]
            self.cap(exponents, op)
            if base and n:
                multisets = comb(len(base) + n - 1, n)
                self.budget(multisets, n * base.degree(), exponents, op)
                if multisets ** 2 > PAIR_BUDGET:  # each factor of the chain has at most `multisets` terms
                    v = len(exponents) - exponents.count(0)
                    self.pairs(_power_pairs(len(base), base.degree(), v, n), op)
            self.advance()
            base = base ** n
        return base

    def primary(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "int":
            num = self.literal(tok)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    self.fail("denominator must be an integer")
                self.advance()
                den = self.literal(den_tok)
                if den == 0:
                    self.fail("zero denominator", den_tok)
                return Polynomial.constant(self.context, Fraction(num, den))
            return Polynomial.constant(self.context, num)
        if tok.kind == "name":
            if tok.text not in self.context.variables:
                self.fail(f"unknown variable {tok.text!r}", tok)
            return Polynomial.variable(self.context, tok.text)
        if tok.kind == "(":
            if self.depth >= MAX_NESTING_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_NESTING_DEPTH}", tok)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.advance()
            return inner
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)
        raise InvariantError("unreachable")


def parse_polynomial(text: str, context: VarContext) -> Polynomial:
    """Parse ``text`` into a polynomial over ``context``.

    Raises :class:`PolyParseError` with line/column on syntax errors and on
    names not present in the context.
    """
    return _Parser(_tokenize(text), context).parse()


def reference_parse_polynomial(text: str, context: VarContext) -> Polynomial:
    """``parse_polynomial`` as it once was: a character loop for the tokens,
    and a ``Polynomial`` built for every literal, variable, ``*``, ``^``
    and ``+``."""
    return _ReferenceParser(_reference_tokenize(text), context).parse()


# -- the report matcher that walked the schema's field kinds per word --------

_REFERENCE_KIND_RE = {
    "int": re.compile(r"[+-]?\d+\Z"),
    "float": re.compile(r"[+-]?\d+(\.\d+)?\Z"),
    "word": re.compile(r"\S+\Z"),
    "key": re.compile(r"[A-Za-z0-9_\-]+(\.[A-Za-z0-9_\-]+)*\Z"),
}


def reference_schema() -> dict[str, list[tuple[str, ...]]]:
    """The shipped schema as first token -> field-kind lists, a bare token
    ``tok`` as the kind ``=tok``."""
    text = resources.files("lndkit.data").joinpath("report-schema.txt").read_text()
    patterns: dict[str, list[tuple[str, ...]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "line":
            continue
        kinds = tuple(tok[1:-1] if tok.startswith("<") and tok.endswith(">") else f"={tok}" for tok in parts[2:])
        patterns.setdefault(parts[1], []).append(kinds)
    return patterns


def _reference_line_ok(patterns, line: str) -> bool:
    parts = line.split()
    if not parts:
        return False
    rest = parts[1:]
    for kinds in patterns.get(parts[0], ()):
        if kinds and kinds[-1] == "text":
            if len(rest) < len(kinds) - 1:
                continue
        elif len(rest) != len(kinds):
            continue
        good = True
        for i, kind in enumerate(kinds):
            if kind == "text":
                break
            tok = rest[i] if i < len(rest) else ""
            if kind.startswith("="):
                if tok != kind[1:]:
                    good = False
                    break
            elif not _REFERENCE_KIND_RE[kind].match(tok):
                good = False
                break
        if good:
            return True
    return False


def reference_validate_report_text(text: str) -> list[str]:
    """``validate_report_text`` as it once was: each line split into words
    and the words matched field kind by field kind, then the same
    structural checks."""
    patterns = reference_schema()
    lines = text.splitlines()
    if not lines:
        return ["empty report"]
    problems = [f"line {n}: no schema pattern matches {line!r}"
                for n, line in enumerate(lines, start=1) if not _reference_line_ok(patterns, line)]
    if not lines[0].startswith("lndkit-report "):
        problems.append("line 1: report must open with the version line")
    if lines[-1] != "end report":
        problems.append("report must close with 'end report'")
    depth = 0
    verdict_line = error_line = None
    for n, line in enumerate(lines, start=1):
        if line.startswith("task "):
            if depth:
                problems.append(f"line {n}: nested task block")
            depth += 1
            verdict_line = error_line = None
        elif line == "end task":
            if not depth:
                problems.append(f"line {n}: 'end task' outside a task block")
            depth = max(0, depth - 1)
        elif depth and line.startswith("verdict "):
            verdict_line = n
        elif depth and line.startswith("error "):
            error_line = n
        if verdict_line is not None and error_line is not None:
            problems.append(
                f"line {error_line}: task block has both a verdict (line {verdict_line}) and an error"
            )
            verdict_line = error_line = None
    if depth:
        problems.append("unterminated task block")
    return problems


def reference_is_triangular(D: Derivation) -> tuple[str, ...] | None:
    """``is_triangular`` as it once was: the first ordering, in the order
    ``itertools.permutations`` lists them, in which each image involves
    only coefficient variables and earlier main variables."""
    coeff = set(D.context.coeff_vars)
    for perm in itertools.permutations(D.context.main_vars):
        allowed = set(coeff)
        for name in perm:
            if not D.images[name].involves_only(allowed):
                break
            allowed.add(name)
        else:
            return perm
    return None
