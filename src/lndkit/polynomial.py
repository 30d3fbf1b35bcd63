"""Sparse multivariate polynomials over the rationals.

A polynomial is stored as integer numerators over one positive
denominator: ``_num`` maps exponent tuples to nonzero ints and ``_den`` is
a positive int with ``gcd(_den, *_num.values()) == 1``, so the form is
canonical and equal polynomials have equal fields.  Rendering walks the
numerators in descending lexicographic order (most significant variable
first, in context order), so serialization is deterministic.  All values
are immutable after construction and every operation is exact.

The degree of the zero polynomial is the sentinel ``None``, never an
integer; callers comparing degrees must treat it explicitly.

Construction contract: the public ``Polynomial(context, terms)`` constructor
is for input from outside the library.  It validates every monomial
(length, non-negative exponents), coerces every coefficient to
``Fraction`` and merges duplicates, so parsed text, job files and user
values always pass through it.  Every result the library computes
(arithmetic, ``partial_derivative``, ``substitute``, ``combine``, derivation
images, generator products, the divisions, pseudo-remainders and gcds of
``groebner`` and ``polygcd``, ``GeneratorSpan.express``'s symbol polynomial,
``kernel_up_to_degree``'s basis elements and the slices that ``find_slice``
returns) is valid by construction and is built by ``_from_ints`` from
integer numerators over one denominator, dividing out one gcd.  The slice
and kernel solver builds no ``Polynomial`` for a basis row of the span or
its image: both are integer vectors (on the full ring a monomial and its
``Derivation.monomial_image``), and only the answer is built.  The library reads only ``_num`` and
``_den``, and a polynomial does not iterate; ``terms``, a ``Fraction`` view
in descending lex order built on each read, is for outside readers (the
benchmark and the tests).

``Polynomial.combine(context, pairs)`` is the one linear-combination
kernel of polynomials: it returns ``sum(a * b)`` over ``(a, b)`` pairs,
accumulating every product's numerators over the pairs' common
denominator in one dict and building one result.  The polynomial product,
the Leibniz images of a ``GeneratorSpan``'s products and every witness
recombination go through it; ``Derivation.apply`` sums its Leibniz terms in
its own pass, ``generator_products`` carries a monic monomial generator as
an exponent shift and builds each product once, and the kernel and slice
solver combines integer vectors with ``linalg.combine``.  ``substitute``
runs its own pass over integer numerators as well: each bound variable's
powers are built once per call, an unbound variable is an exponent shift,
and every monomial's image accumulates in one dict over one common
denominator, so the image is one ``_from_ints`` and no ``Polynomial`` is
built for a term, a power or an unbound variable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Iterable, Mapping, Union

from .context import VarContext
from .errors import ContextMismatchError, UnknownVariableError, UnsupportedSizeError

Monomial = tuple[int, ...]
Scalar = Union[Fraction, int]

# Largest exponent ``**`` and a ``^`` in polynomial text accept; exponents
# the library computes itself go through the uncapped ``_power``.
MAX_EXPONENT = 100
# One term budget for two caps, so they limit work, not only steps: a product
# or power in polynomial text that may hold more terms is refused (``parse``),
# and the iterates of one element may hold at most this many terms in total
# (``derivation.metered_iterates``); the corpus, the tests and the seeded
# families peak at 293 iterate terms.
TERM_BUDGET = 20_000
# The work of one multiplication in polynomial text: a product, or one step of
# a power's square-and-multiply chain, that may take more pair products of
# terms than this is refused (``parse``).  ``(X + Y + t + 1)^30``'s largest step
# takes 658,920 (about 0.5 s); ``(X + Y + t + 1)^20*(X + Y + t + 1)^20`` would
# take 3,136,441 (1.7 s) under the term budget.
PAIR_BUDGET = 1_000_000


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def integer_form(values: Mapping) -> tuple[dict, int]:
    """``(num, den)`` with ``values[k] == num[k] / den`` for every nonzero value.

    ``values`` holds int and ``Fraction`` values; ``den`` is the lcm of their
    denominators, so ``gcd(den, *num.values()) == 1``: a prime power that
    divides ``den`` exactly divides some value's denominator exactly, and
    that value's numerator is prime to it.
    """
    den = lcm(*(v.denominator for v in values.values()))
    if den == 1:
        return {k: v.numerator for k, v in values.items() if v}, 1
    return {k: v.numerator * (den // v.denominator) for k, v in values.items() if v}, den


def _check_context(context: VarContext, p: Polynomial):
    if p.context is not context and p.context != context:
        raise ContextMismatchError(f"context mismatch: {context} vs {p.context}")


class Polynomial:
    """Immutable sparse polynomial attached to a :class:`VarContext`."""

    __slots__ = ("context", "_num", "_den", "_hash")

    def __init__(self, context: VarContext, terms: Mapping[Monomial, Scalar] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        combined: dict[Monomial, Fraction] = {}
        nvars = context.nvars
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong length for {context}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            coeff = Fraction(coeff)
            prev = combined.get(mono)
            combined[mono] = coeff if prev is None else prev + coeff
        _fill(self, context, *integer_form(combined))

    @classmethod
    def _from_ints(cls, context: VarContext, num: dict[Monomial, int], den: int) -> Polynomial:
        """The integer constructor: ``num / den`` made canonical by one gcd.

        ``num`` maps valid monomials of ``context`` to nonzero ints and
        ``den`` is positive.
        """
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        self = object.__new__(cls)
        _fill(self, context, num, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The ``Fraction`` coefficients in descending lex order, for outside readers."""
        den = self._den
        return {m: Fraction(c, den) for m, c in sorted(self._num.items(), reverse=True)}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, context: VarContext) -> Polynomial:
        return cls._from_ints(context, {}, 1)

    @classmethod
    def one(cls, context: VarContext) -> Polynomial:
        return cls._from_ints(context, {(0,) * context.nvars: 1}, 1)

    @classmethod
    def constant(cls, context: VarContext, value: Scalar) -> Polynomial:
        value = Fraction(value)
        num = {(0,) * context.nvars: value.numerator} if value else {}
        return cls._from_ints(context, num, value.denominator)

    @classmethod
    def variable(cls, context: VarContext, name: str) -> Polynomial:
        i = context.index(name)
        mono = [0] * context.nvars
        mono[i] = 1
        return cls._from_ints(context, {tuple(mono): 1}, 1)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not any(map(any, self._num))

    def vanishes_at_origin(self) -> bool:
        """Whether the value at the origin (every variable, coefficient
        variables included, set to 0), that is the constant term, is zero."""
        return (0,) * self.context.nvars not in self._num

    def as_rational(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self._num:
            return Fraction(0)
        if self.is_constant():
            return Fraction(next(iter(self._num.values())), self._den)
        return None

    def degree(self) -> int | None:
        """Total degree; ``None`` for the zero polynomial."""
        if not self._num:
            return None
        return max(map(sum, self._num))

    def degree_in(self, name: str) -> int | None:
        """Degree in one variable; ``None`` for the zero polynomial."""
        if not self._num:
            return None
        i = self.context.index(name)
        return max(m[i] for m in self._num)

    def variables_used(self) -> set[str]:
        names = self.context.variables
        used: set[str] = set()
        for m in self._num:
            for i, e in enumerate(m):
                if e:
                    used.add(names[i])
        return used

    def involves_only(self, names: Iterable[str]) -> bool:
        return self.variables_used() <= set(names)

    def lex_leading(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under descending lex; zero poly raises."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._num)
        return mono, Fraction(self._num[mono], self._den)

    def monic_lex(self) -> Polynomial:
        """Scale so the lex-leading coefficient is 1."""
        if not self._num:
            return self
        _, lead = self.lex_leading()
        if lead == 1:
            return self
        return self * (Fraction(1) / lead)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        _check_context(self.context, other)
        den, oden = self._den, other._den
        if den == oden:
            num = dict(self._num)
            oscale = 1
        else:
            common = lcm(den, oden)
            scale, oscale = common // den, common // oden
            num = {m: c * scale for m, c in self._num.items()}
            den = common
        for m, c in other._num.items():
            total = num.get(m, 0) + c * oscale
            if total:
                num[m] = total
            else:
                del num[m]
        return Polynomial._from_ints(self.context, num, den)

    def __radd__(self, other) -> Polynomial:
        return self.__add__(other)

    def __neg__(self) -> Polynomial:
        return Polynomial._from_ints(self.context, {m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other) -> Polynomial:
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other) -> Polynomial:
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.context)
            n = other.numerator
            num = {m: c * n for m, c in self._num.items()}
            return Polynomial._from_ints(self.context, num, self._den * other.denominator)
        return Polynomial.combine(self.context, ((self, other),))

    def __rmul__(self, other) -> Polynomial:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if exponent > MAX_EXPONENT:
            raise UnsupportedSizeError(f"exponent {exponent} exceeds the cap {MAX_EXPONENT}")
        return self._power(exponent)

    def _power(self, exponent: int) -> Polynomial:
        """``self ** exponent`` without the cap, for exponents the library
        computes (degrees, pseudo-division steps) rather than reads."""
        result = Polynomial.one(self.context)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.context, other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    @classmethod
    def combine(cls, context: VarContext, pairs: Iterable[tuple]) -> Polynomial:
        """``sum(a * b)`` over the ``(a, b)`` pairs, in one pass.

        Either side of a pair may be an int or ``Fraction``, taken as a
        constant; polynomial sides must live in ``context``.  Each pair's
        numerator product is scaled to the lcm of the pairs' denominators
        and accumulates in one dict; the result is one ``_from_ints`` with
        the sums that cancelled dropped.
        """
        one = None
        parts = []  # (numerators, numerators or int factor, denominator) per nonzero pair
        for a, b in pairs:
            if not isinstance(a, Polynomial):
                a, b = b, a  # a scalar side goes second
            if isinstance(b, Polynomial):
                _check_context(context, a)
                _check_context(context, b)
                if a._num and b._num:
                    parts.append((a._num, b._num, a._den * b._den))
                continue
            _check_scalar(b)
            if isinstance(a, Polynomial):
                _check_context(context, a)
                if a._num and b:
                    parts.append((a._num, b.numerator, a._den * b.denominator))
            else:
                _check_scalar(a)
                if a and b:
                    if one is None:
                        one = (0,) * context.nvars
                    parts.append(({one: a.numerator}, b.numerator, a.denominator * b.denominator))
        den = lcm(*(d for _, _, d in parts))
        acc: dict[Monomial, int] = {}
        get = acc.get
        for a_num, b, d in parts:
            scale = den // d
            if isinstance(b, dict):
                b_items = b.items()
                for m1, c1 in a_num.items():
                    c1 *= scale
                    for m2, c2 in b_items:
                        m = tuple(map(add, m1, m2))
                        acc[m] = get(m, 0) + c1 * c2
            else:
                b *= scale
                for m, c in a_num.items():
                    acc[m] = get(m, 0) + c * b
        return cls._from_ints(context, {m: c for m, c in acc.items() if c}, den)

    # -- calculus and substitution --------------------------------------

    def partial_derivative(self, name: str) -> Polynomial:
        i = self.context.index(name)
        # Lowering the i-th exponent is injective on monomials that have
        # one, so no two terms merge.
        out = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in self._num.items() if m[i]}
        return Polynomial._from_ints(self.context, out, self._den)

    def substitute(
        self,
        bindings: Mapping[str, "Polynomial | Scalar"],
        context: VarContext | None = None,
    ) -> Polynomial:
        """Simultaneous substitution; unbound variables map to themselves.

        ``context`` selects the target context (default: this one); every
        unbound variable must exist there under the same name.  One pass over
        the integer numerators: a bound variable's image is its numerators
        and denominator, with its powers built once per call, each from the
        one below by one product; an unbound variable is an exponent shift to
        its index in the target.  Every monomial's image accumulates in one
        dict over the common denominator ``self._den * prod(den_i ** max e_i)``,
        and the result is one ``_from_ints``.
        """
        target = context if context is not None else self.context
        ladders: dict[int, list[dict[Monomial, int]]] = {}  # bound source index -> its powers
        dens: list[tuple[int, int]] = []  # (source index, den_i) where den_i != 1
        shifts: dict[int, int] = {}  # source index of an unbound variable -> target index
        for i, name in enumerate(self.context.variables):
            if name in bindings:
                img = bindings[name]
                if not isinstance(img, Polynomial):
                    img = Polynomial.constant(target, img)
                elif img.context != target:
                    raise ContextMismatchError(
                        f"image of {name!r} lives in {img.context}, expected {target}"
                    )
                ladders[i] = [img._num]
                if img._den != 1:
                    dens.append((i, img._den))
            else:
                shifts[i] = target.index(name)  # raises if missing
        for name in bindings:
            self.context.index(name)  # reject bindings for foreign variables
        if not self._num:
            return Polynomial.zero(target)
        nvars = target.nvars
        top = list(map(max, zip(*self._num)))
        den = self._den
        for i, d in dens:
            den *= d ** top[i]
        unit = {(0,) * nvars: 1}
        acc: dict[Monomial, int] = {}
        get = acc.get
        for m, c in self._num.items():
            for i, d in dens:
                c *= d ** (top[i] - m[i])
            factor = shift = None
            for i, e in enumerate(m):
                if not e:
                    continue
                ladder = ladders.get(i)
                if ladder is None:
                    if shift is None:
                        shift = [0] * nvars
                    shift[shifts[i]] = e
                    continue
                while len(ladder) < e:
                    ladder.append(_mul_nums(ladder[-1], ladder[0]))
                factor = ladder[e - 1] if factor is None else _mul_nums(factor, ladder[e - 1])
            if factor is None:
                factor = unit
            if shift is None:
                for mono, v in factor.items():
                    acc[mono] = get(mono, 0) + c * v
            else:
                for mono, v in factor.items():
                    mono = tuple(map(add, mono, shift))
                    acc[mono] = get(mono, 0) + c * v
        return Polynomial._from_ints(target, {m: c for m, c in acc.items() if c}, den)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a full rational point."""
        missing = self.variables_used() - set(point)
        if missing:
            raise UnknownVariableError(f"no value for variables {sorted(missing)}")
        idx = {self.context.index(name): Fraction(v) for name, v in point.items()}
        total = Fraction(0)
        for m, c in self._num.items():
            val = Fraction(c)
            for i, e in enumerate(m):
                if e:
                    val *= idx[i] ** e
            total += val
        return total / self._den

    # -- equality, hashing, rendering -----------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.context == other.context and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.context, self._den, frozenset(self._num.items())))
            _set_hash(self, h)
        return h

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        """Number of terms."""
        return len(self._num)

    def _render_monomial(self, mono: Monomial) -> str:
        names = self.context.variables
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        """Canonical form: descending lex terms, lowest-term coefficients."""
        if not self._num:
            return "0"
        chunks: list[str] = []
        for k, (mono, coeff) in enumerate(sorted(self._num.items(), reverse=True)):
            mono_s = self._render_monomial(mono)
            mag = Fraction(abs(coeff), self._den)
            if mono_s:
                body = mono_s if mag == 1 else f"{mag}*{mono_s}"
            else:
                body = str(mag)
            if k == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Polynomial({self})"


# The slot descriptors' setters bypass the immutability guard in __setattr__.
_set_context = Polynomial.context.__set__
_set_num = Polynomial._num.__set__
_set_den = Polynomial._den.__set__
_set_hash = Polynomial._hash.__set__


def _fill(p: Polynomial, context: VarContext, num: dict, den: int):
    _set_context(p, context)
    _set_num(p, num)
    _set_den(p, den)
    _set_hash(p, None)


def _mul_nums(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """The numerators of a product, cancelled sums dropped."""
    out: dict[Monomial, int] = {}
    get = out.get
    b_items = b.items()
    for m1, c1 in a.items():
        for m2, c2 in b_items:
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _check_scalar(value):
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot combine Polynomial with {type(value).__name__}")
