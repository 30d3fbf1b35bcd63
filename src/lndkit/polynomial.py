"""Sparse multivariate polynomials over the rationals.

Terms map exponent tuples to nonzero ``Fraction`` coefficients and are kept
in descending lexicographic order (most significant variable first, in
context order), so iteration and serialization are deterministic.  All
values are immutable after construction and every operation is exact.

The degree of the zero polynomial is the sentinel ``None``, never an
integer; callers comparing degrees must treat it explicitly.

Construction contract: the public ``Polynomial(context, terms)`` constructor
validates every monomial (length, non-negative exponents), coerces every
coefficient to ``Fraction`` and merges duplicates, so parsed text, job
files and user values always pass through it.  Arithmetic results
(``+``, ``-``, ``*``, ``**``, negation, ``partial_derivative``,
``substitute`` and ``combine``) are valid by construction and use the
private ``Polynomial._trusted`` path, which only puts their terms into
canonical order.

``Polynomial.combine(context, pairs)`` is the one linear-combination
kernel: it returns ``sum(a * b)`` over ``(a, b)`` pairs, accumulating every
product in one term dict and building one result.  The polynomial product,
substitution, derivation images and every witness recombination go
through it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Iterator, Mapping, Union

from .context import VarContext
from .errors import ContextMismatchError, UnknownVariableError

Monomial = tuple[int, ...]
Scalar = Union[Fraction, int]


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


def mono_degree(a: Monomial) -> int:
    return sum(a)


def _scalar(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot combine Polynomial with {type(value).__name__}")


def _check_context(context: VarContext, p: Polynomial):
    if p.context is not context and p.context != context:
        raise ContextMismatchError(f"context mismatch: {context} vs {p.context}")


class Polynomial:
    """Immutable sparse polynomial attached to a :class:`VarContext`."""

    __slots__ = ("context", "terms", "_hash")

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
        object.__setattr__(self, "context", context)
        object.__setattr__(
            self, "terms", dict(sorted(((m, c) for m, c in combined.items() if c), reverse=True))
        )
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, context: VarContext, terms: dict[Monomial, Fraction]) -> Polynomial:
        """Result of arithmetic on valid polynomials, without re-validation.

        ``terms`` maps valid monomials of ``context`` to nonzero
        ``Fraction`` coefficients, in any order.  Monomials are unique, so
        sorting the items never compares coefficients.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", dict(sorted(terms.items(), reverse=True)))
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, context: VarContext) -> Polynomial:
        return cls(context)

    @classmethod
    def one(cls, context: VarContext) -> Polynomial:
        return cls.constant(context, 1)

    @classmethod
    def constant(cls, context: VarContext, value: Scalar) -> Polynomial:
        return cls(context, {(0,) * context.nvars: Fraction(value)})

    @classmethod
    def variable(cls, context: VarContext, name: str) -> Polynomial:
        i = context.index(name)
        mono = tuple(1 if j == i else 0 for j in range(context.nvars))
        return cls(context, {mono: Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def as_rational(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if self.is_zero():
            return Fraction(0)
        if self.is_constant():
            return next(iter(self.terms.values()))
        return None

    def degree(self) -> int | None:
        """Total degree; ``None`` for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def degree_in(self, name: str) -> int | None:
        """Degree in one variable; ``None`` for the zero polynomial."""
        if not self.terms:
            return None
        i = self.context.index(name)
        return max(m[i] for m in self.terms)

    def variables_used(self) -> set[str]:
        names = self.context.variables
        used: set[str] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(names[i])
        return used

    def involves_only(self, names: Iterable[str]) -> bool:
        return self.variables_used() <= set(names)

    def lex_leading(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under descending lex; zero poly raises."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = next(iter(self.terms))
        return mono, self.terms[mono]

    def monic_lex(self) -> Polynomial:
        """Scale so the lex-leading coefficient is 1."""
        if not self.terms:
            return self
        _, lead = self.lex_leading()
        if lead == 1:
            return self
        return self * (Fraction(1) / lead)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        _check_context(self.context, other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            prev = terms.get(m)
            terms[m] = c if prev is None else prev + c
        return Polynomial._trusted(self.context, {m: c for m, c in terms.items() if c})

    def __radd__(self, other) -> Polynomial:
        return self.__add__(other)

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other) -> Polynomial:
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.context)
            return Polynomial._trusted(self.context, {m: v * c for m, v in self.terms.items()})
        return Polynomial.combine(self.context, ((self, other),))

    def __rmul__(self, other) -> Polynomial:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
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
        constant; polynomial sides must live in ``context``.  Every product
        accumulates in one term dict, and the result is one
        ``Polynomial._trusted`` with the sums that cancelled dropped.
        """
        acc: dict[Monomial, Fraction] = {}
        get = acc.get
        for a, b in pairs:
            if not isinstance(a, Polynomial):
                a, b = b, a  # a scalar side goes second
            if isinstance(b, Polynomial):
                _check_context(context, a)
                _check_context(context, b)
                b_terms = b.terms.items()
                for m1, c1 in a.terms.items():
                    for m2, c2 in b_terms:
                        m = mono_mul(m1, m2)
                        prev = get(m)
                        acc[m] = c1 * c2 if prev is None else prev + c1 * c2
                continue
            c = _scalar(b)
            if isinstance(a, Polynomial):
                _check_context(context, a)
                a_terms = a.terms.items()
            else:
                a_terms = (((0,) * context.nvars, _scalar(a)),)
            for m, v in a_terms:
                prev = get(m)
                acc[m] = v * c if prev is None else prev + v * c
        return cls._trusted(context, {m: c for m, c in acc.items() if c})

    # -- calculus and substitution --------------------------------------

    def partial_derivative(self, name: str) -> Polynomial:
        i = self.context.index(name)
        # Lowering the i-th exponent is injective on monomials that have
        # one, so no two terms merge.
        out = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in self.terms.items() if m[i]}
        return Polynomial._trusted(self.context, out)

    def substitute(
        self,
        bindings: Mapping[str, "Polynomial | Scalar"],
        context: VarContext | None = None,
    ) -> Polynomial:
        """Simultaneous substitution; unbound variables map to themselves.

        ``context`` selects the target context (default: this one); every
        unbound variable must exist there under the same name.
        """
        target = context if context is not None else self.context
        images: list[Polynomial] = []
        for name in self.context.variables:
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
            self.context.index(name)  # reject bindings for foreign variables
        pairs: list[tuple[Fraction, Polynomial | int]] = []
        power_cache: dict[tuple[int, int], Polynomial] = {}
        for m, c in self.terms.items():
            term: Polynomial | None = None
            for i, e in enumerate(m):
                if not e:
                    continue
                key = (i, e)
                p = power_cache.get(key)
                if p is None:
                    p = images[i] ** e
                    power_cache[key] = p
                term = p if term is None else term * p
            pairs.append((c, 1 if term is None else term))
        return Polynomial.combine(target, pairs)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a full rational point."""
        missing = self.variables_used() - set(point)
        if missing:
            raise UnknownVariableError(f"no value for variables {sorted(missing)}")
        idx = {self.context.index(name): Fraction(v) for name, v in point.items()}
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for i, e in enumerate(m):
                if e:
                    val *= idx[i] ** e
            total += val
        return total

    # -- equality, hashing, rendering -----------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.context, tuple(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for k, (mono, coeff) in enumerate(self.terms.items()):
            mono_s = self._render_monomial(mono)
            mag = abs(coeff)
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
