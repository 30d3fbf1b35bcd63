"""Monomial orders: lexicographic and degree-reverse-lexicographic.

An order carries a variable permutation (indices into the context's
variable tuple, most significant first).  ``key`` maps a monomial to a
tuple that sorts consistently with the order, so ``max(..., key=...)``
picks leading monomials; ``neg_key`` sorts in the opposite direction, so a
``heapq`` min-heap pops the largest monomial first.  Both read the
exponents through one ``operator.itemgetter`` built with the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, neg
from typing import Literal

from .context import VarContext
from .polynomial import Monomial


@dataclass(frozen=True)
class MonomialOrder:
    kind: Literal["lex", "degrevlex"]
    permutation: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("permutation must be a bijection on variable indices")
        # The exponents in significance order (lex) or reversed (degrevlex);
        # a one-variable monomial is already in that order.
        picks = self.permutation if self.kind == "lex" else self.permutation[::-1]
        object.__setattr__(self, "_pick", itemgetter(*picks) if len(picks) > 1 else tuple)

    @classmethod
    def lex(cls, context: VarContext, names: tuple[str, ...] | None = None) -> MonomialOrder:
        return cls("lex", _perm(context, names))

    @classmethod
    def degrevlex(cls, context: VarContext, names: tuple[str, ...] | None = None) -> MonomialOrder:
        return cls("degrevlex", _perm(context, names))

    def key(self, mono: Monomial):
        if self.kind == "lex":
            return self._pick(mono)
        return (sum(mono), tuple(map(neg, self._pick(mono))))

    def neg_key(self, mono: Monomial):
        """Component-wise negation of ``key``: ascending here is descending there."""
        if self.kind == "lex":
            return tuple(map(neg, self._pick(mono)))
        return (-sum(mono), self._pick(mono))


def _perm(context: VarContext, names: tuple[str, ...] | None) -> tuple[int, ...]:
    if names is None:
        return tuple(range(context.nvars))
    if sorted(names) != sorted(context.variables):
        raise ValueError("order must name every context variable exactly once")
    return tuple(context.index(n) for n in names)
