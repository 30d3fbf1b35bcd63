"""Recursive-descent parser for the polynomial text grammar.

Accepted syntax: signed integer and ``a/b`` rational literals, variable
names ``[A-Za-z][A-Za-z0-9_]*``, binary ``+ - *``, exponentiation ``^``
with a non-negative integer exponent of at most ``MAX_EXPONENT``, and
parentheses.  A ``*`` or ``^`` whose result would raise a variable's
exponent above ``MAX_EXPONENT`` is rejected at the operator, before it
multiplies, so every accepted polynomial prints as text that parses.  A
``*`` or ``^`` whose result may hold more than ``TERM_BUDGET`` terms is
rejected there too, by the smaller of two counts that need no product:
``|a|·|b|`` pairs, or the C(d + v, v) monomials of degree at most d in the
v variables the operands use, for ``a * b``; the C(|b| + n − 1, n)
multisets of n terms, or those monomials, for ``b ^ n``.  The work of each
multiplication is bounded as well: a ``*`` whose ``|a|·|b|`` pair products
exceed ``PAIR_BUDGET`` is rejected at the operator, and so is a ``^`` one of
whose square-and-multiply steps may, by the same term bounds on its factors.
So every operator's result and work are bounded, and a parse's work grows
with its text, never without limit.  Implicit multiplication (``2X``) is
rejected.
``/`` occurs only inside rational literals, never as an operator between
expressions.

The parse is one pass over integer numerators.  The tokenizer is one
regular-expression scan of the text.  Each name is checked against the
context, and every subexpression is carried as an integer form
``(num, den)``: its monomials' integer numerators over one positive
denominator, with no zero numerator, as ``Polynomial`` stores them.  A
``+``/``-`` chain accumulates into one dict over the lcm of its
denominators.  A product with a single-term factor is an exponent shift and
a scale, a power of a single term scales the exponents, and every other
product goes through ``polynomial._mul_nums``.  The text becomes one
``Polynomial._from_ints`` at the end.  Every check reads the same term
counts, degrees and exponents a ``Polynomial`` operand would give, so it
fails at the same operator with the same message.

``str(poly)`` emits the canonical form this parser accepts, so
serialize-then-parse reproduces the identical term map.  Parentheses may
nest at most ``MAX_NESTING_DEPTH`` deep, so no input text can exhaust the
interpreter's recursion limit.
"""

from __future__ import annotations

import re
import sys
from math import comb, gcd, lcm
from operator import add

from .context import VarContext
from .errors import PolyParseError
from .polynomial import MAX_EXPONENT, PAIR_BUDGET, TERM_BUDGET, Monomial, Polynomial, _mul_nums

# An ASCII digit run, a word, an operator, or any other character that is
# not whitespace; whitespace between tokens is skipped.  ``\s`` and ``\w``
# take exactly what ``str.isspace`` and ``str.isalnum`` (or ``_``) take, and
# ``[0-9]`` is not ``\d``, which also takes other scripts' digits.
_TOKEN_RE = re.compile(r"([0-9]+)|(\w+)|([-+*^/()])|(\S)")
MAX_NESTING_DEPTH = 100

Form = tuple[dict[Monomial, int], int]  # numerators over a positive denominator


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column of ``offset`` in ``text``; only ``\\n`` starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` per token, then an ``eof`` token; the kind is
    ``int``, ``name`` or the operator itself."""
    tokens = []
    append = tokens.append
    end = len(text)
    for m in _TOKEN_RE.finditer(text):
        group, token, start = m.lastindex, m.group(), m.start()
        if group == 1:
            after = m.end()
            if after < end and (text[after].isalpha() or text[after] == "_"):
                raise PolyParseError("implicit multiplication is not accepted", *_position(text, start))
            append(("int", token, start))
        elif group == 3:
            append((token, token, start))
        elif group == 2 and token[0].isalpha():
            append(("name", token, start))
        else:
            raise PolyParseError(f"unexpected character {token[0]!r}", *_position(text, start))
    append(("eof", "", end))
    return tokens


def _exponents(num: dict[Monomial, int]):
    """Each variable's largest exponent in ``num``; none for no terms."""
    return map(max, zip(*num))


def _degree(num: dict[Monomial, int]) -> int:
    return max(map(sum, num))


def _product(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """The numerators of a product of two nonzero forms; a single-term
    factor is an exponent shift and a scale, which merges no terms."""
    if len(b) == 1:
        a, b = b, a
    if len(a) != 1:
        return _mul_nums(a, b)
    ((m, c),) = a.items()
    if any(m):
        return {tuple(map(add, m, m2)): c * c2 for m2, c2 in b.items()}
    return b if c == 1 else {m2: c * c2 for m2, c2 in b.items()}


def _power(num: dict[Monomial, int], den: int, n: int, one: Monomial) -> Form:
    """``(num / den) ** n`` by ``Polynomial._power``'s square-and-multiply
    chain, the form first divided by its gcd, so that nested powers raise
    no larger integers than canonical polynomials do."""
    if not n:
        return {one: 1}, 1
    if not num:
        return num, 1
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    if len(num) == 1:
        ((m, c),) = num.items()
        return {tuple(e * n for e in m): c ** n}, den ** n
    result, e = None, n
    while True:
        if e & 1:
            result = num if result is None else _mul_nums(result, num)
        e >>= 1
        if not e:
            return result, den ** n
        num = _mul_nums(num, num)


def _power_pairs(terms: int, degree: int, v: int, n: int) -> int:
    """The most pair products one multiplication of ``Polynomial._power``'s
    square-and-multiply chain may take for b^n, where b has ``terms`` terms
    of degree ``degree`` in v variables: b^k has at most the C(terms + k − 1, k)
    multisets of k terms and at most the C(k·degree + v, v) monomials."""
    def size(k: int) -> int:
        return min(comb(terms + k - 1, k), comb(k * degree + v, v))

    worst, result, base = 0, 0, 1  # the exponents of the chain's two factors
    while n:
        if n & 1:
            worst = max(worst, size(result) * size(base))
            result += base
        n >>= 1
        if n:
            worst = max(worst, size(base) ** 2)
            base *= 2
    return worst


class _Parser:
    def __init__(self, text: str, context: VarContext):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.context = context
        self.depth = 0
        self.one = (0,) * context.nvars
        self.monomials: dict[str, Monomial] = {}  # each variable's monomial, built on first use

    def error(self, message: str, tok: tuple[str, str, int] | None = None) -> PolyParseError:
        """The error at ``tok``, by default the next token."""
        offset = (tok or self.tokens[self.pos])[2]
        return PolyParseError(message, *_position(self.text, offset))

    def parse(self) -> Polynomial:
        num, den = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            raise self.error(f"unexpected {tok[1]!r} after expression")
        return Polynomial._from_ints(self.context, num, den)

    def expr(self) -> Form:
        tokens = self.tokens
        kind = tokens[self.pos][0]
        negate = kind == "-"
        if negate or kind == "+":
            self.pos += 1
        num, den = self.term()
        kind = tokens[self.pos][0]
        if kind != "+" and kind != "-":
            return ({m: -c for m, c in num.items()} if negate else num), den
        acc = {m: -c for m, c in num.items()} if negate else dict(num)
        while kind == "+" or kind == "-":
            self.pos += 1
            rnum, rden = self.term()
            scale = 1
            if rden != den:
                common = lcm(den, rden)
                if common != den:
                    up = common // den
                    acc = {m: c * up for m, c in acc.items()}
                    den = common
                scale = common // rden
            if kind == "-":
                scale = -scale
            get = acc.get
            for m, c in rnum.items():
                acc[m] = get(m, 0) + c * scale
            kind = tokens[self.pos][0]
        return {m: c for m, c in acc.items() if c}, den

    def cap(self, exponents: list[int], op: tuple[str, str, int]):
        """Fail at the operator ``op`` when its result would carry a
        variable's exponent above ``MAX_EXPONENT``."""
        if max(exponents, default=0) > MAX_EXPONENT:
            for name, e in zip(self.context.variables, exponents):
                if e > MAX_EXPONENT:
                    raise self.error(f"exponent {e} of {name} exceeds the cap {MAX_EXPONENT}", op)

    def budget(self, terms: int, degree: int, exponents: list[int], op: tuple[str, str, int]):
        """Fail at the operator ``op`` when its result may hold more than
        ``TERM_BUDGET`` terms: more than ``terms`` and more than the
        monomials of total degree at most ``degree`` in the variables with
        a nonzero entry in ``exponents``.  The monomials are counted only
        when ``terms`` exceeds the budget."""
        if terms > TERM_BUDGET:
            v = len(exponents) - exponents.count(0)
            terms = min(terms, comb(degree + v, v))
            if terms > TERM_BUDGET:
                raise self.error(f"the result may hold {terms} terms, above the budget {TERM_BUDGET}", op)

    def pairs(self, pairs: int, op: tuple[str, str, int]):
        """Fail at the operator ``op`` when one of its multiplications may
        take more than ``PAIR_BUDGET`` pair products."""
        if pairs > PAIR_BUDGET:
            raise self.error(f"a product may take {pairs} pair products, above the pair budget {PAIR_BUDGET}", op)

    def literal(self, tok: tuple[str, str, int]) -> int:
        """The value of the integer token ``tok``; a literal longer than the
        interpreter's digit limit fails at the token."""
        try:
            return int(tok[1])
        except ValueError:
            raise self.error(f"integer literal of {len(tok[1])} digits exceeds the limit of "
                             f"{sys.get_int_max_str_digits()} digits", tok) from None

    def term(self) -> Form:
        tokens = self.tokens
        num, den = self.factor()
        while tokens[self.pos][0] == "*":
            op = tokens[self.pos]
            self.pos += 1
            rnum, rden = self.factor()
            exponents = [x + y for x, y in zip(_exponents(num), _exponents(rnum))]
            self.cap(exponents, op)
            if num and rnum:
                pairs = len(num) * len(rnum)
                if pairs > TERM_BUDGET:
                    self.budget(pairs, _degree(num) + _degree(rnum), exponents, op)
                self.pairs(pairs, op)
                num = _product(num, rnum)
            else:
                num = {}
            den *= rden
        return num, den

    def factor(self) -> Form:
        tokens = self.tokens
        num, den = self.primary()
        while tokens[self.pos][0] == "^":
            op = tokens[self.pos]
            self.pos += 1
            kind, text, _ = tokens[self.pos]
            if kind != "int":
                raise self.error("exponent must be a non-negative integer")
            try:
                n = int(text)
            except ValueError:  # past the interpreter's digit limit, so past the cap
                n = MAX_EXPONENT + 1
            if n > MAX_EXPONENT:
                raise self.error(f"exponent {text} exceeds the cap {MAX_EXPONENT}")
            exponents = [n * e for e in _exponents(num)]
            self.cap(exponents, op)
            if num and n:
                degree = _degree(num)
                multisets = comb(len(num) + n - 1, n)
                self.budget(multisets, n * degree, exponents, op)
                if multisets ** 2 > PAIR_BUDGET:  # each factor of the chain has at most `multisets` terms
                    v = len(exponents) - exponents.count(0)
                    self.pairs(_power_pairs(len(num), degree, v, n), op)
            self.pos += 1
            num, den = _power(num, den, n, self.one)
        return num, den

    def primary(self) -> Form:
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        kind, text, _ = tok
        if kind == "name":
            mono = self.monomials.get(text)
            if mono is None:
                if text not in self.context.variables:
                    raise self.error(f"unknown variable {text!r}", tok)
                i = self.context.index(text)
                mono = self.monomials[text] = self.one[:i] + (1,) + self.one[i + 1:]
            return {mono: 1}, 1
        if kind == "int":
            num, den = self.literal(tok), 1
            if tokens[self.pos][0] == "/":
                self.pos += 1
                den_tok = tokens[self.pos]
                if den_tok[0] != "int":
                    raise self.error("denominator must be an integer")
                self.pos += 1
                den = self.literal(den_tok)
                if den == 0:
                    raise self.error("zero denominator", den_tok)
            return ({self.one: num} if num else {}), den
        if kind == "(":
            if self.depth >= MAX_NESTING_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING_DEPTH}", tok)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if tokens[self.pos][0] != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        raise self.error(f"unexpected {text!r}" if text else "unexpected end of input", tok)


def parse_polynomial(text: str, context: VarContext) -> Polynomial:
    """Parse ``text`` into a polynomial over ``context``.

    Raises :class:`PolyParseError` with line/column on syntax errors and on
    names not present in the context.
    """
    return _Parser(text, context).parse()
