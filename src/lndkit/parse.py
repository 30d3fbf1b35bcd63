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

``str(poly)`` emits the canonical form this parser accepts, so
serialize-then-parse reproduces the identical term map.  Parentheses may
nest at most ``MAX_NESTING_DEPTH`` deep, so no input text can exhaust the
interpreter's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .context import VarContext
from .errors import InvariantError, PolyParseError
from .polynomial import MAX_EXPONENT, PAIR_BUDGET, TERM_BUDGET, Polynomial

_OPS = set("+-*^/()")
_DIGITS = set("0123456789")  # ``str.isdigit`` also takes other scripts' digits and superscripts
MAX_NESTING_DEPTH = 100


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _exponents(p: Polynomial):
    """Each variable's largest exponent in ``p``; none for the zero polynomial."""
    return map(max, zip(*p._num))


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
    def __init__(self, tokens: list[_Token], context: VarContext):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
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

    def cap(self, exponents, op: _Token):
        """Fail at the operator ``op`` when its result would carry a
        variable's exponent above ``MAX_EXPONENT``."""
        for name, e in zip(self.context.variables, exponents):
            if e > MAX_EXPONENT:
                self.fail(f"exponent {e} of {name} exceeds the cap {MAX_EXPONENT}", op)

    def budget(self, terms: int, degree: int, exponents: list[int], op: _Token):
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

    def pairs(self, pairs: int, op: _Token):
        """Fail at the operator ``op`` when one of its multiplications may
        take more than ``PAIR_BUDGET`` pair products."""
        if pairs > PAIR_BUDGET:
            self.fail(f"a product may take {pairs} pair products, above the pair budget {PAIR_BUDGET}", op)

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            exponents = [x + y for x, y in zip(_exponents(acc), _exponents(rhs))]
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
            n = int(tok.text)
            if n > MAX_EXPONENT:
                self.fail(f"exponent {tok.text} exceeds the cap {MAX_EXPONENT}")
            exponents = [n * e for e in _exponents(base)]
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
            num = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    self.fail("denominator must be an integer")
                self.advance()
                den = int(den_tok.text)
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
