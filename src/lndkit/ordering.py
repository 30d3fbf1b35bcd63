"""Monomial orders: lexicographic and degree-reverse-lexicographic.

An order carries a variable permutation (indices into the context's
variable tuple, most significant first).  ``key`` maps a monomial to a
tuple that sorts consistently with the order, so ``max(..., key=...)``
picks leading monomials; ``neg_key`` sorts in the opposite direction, so a
``heapq`` min-heap pops the largest monomial first.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @classmethod
    def lex(cls, context: VarContext, names: tuple[str, ...] | None = None) -> MonomialOrder:
        return cls("lex", _perm(context, names))

    @classmethod
    def degrevlex(cls, context: VarContext, names: tuple[str, ...] | None = None) -> MonomialOrder:
        return cls("degrevlex", _perm(context, names))

    def key(self, mono: Monomial):
        if self.kind == "lex":
            return tuple(mono[i] for i in self.permutation)
        return (sum(mono), tuple(-mono[i] for i in reversed(self.permutation)))

    def neg_key(self, mono: Monomial):
        """Component-wise negation of ``key``: ascending here is descending there."""
        if self.kind == "lex":
            return tuple(-mono[i] for i in self.permutation)
        return (-sum(mono), tuple(mono[i] for i in reversed(self.permutation)))


def _perm(context: VarContext, names: tuple[str, ...] | None) -> tuple[int, ...]:
    if names is None:
        return tuple(range(context.nvars))
    if sorted(names) != sorted(context.variables):
        raise ValueError("order must name every context variable exactly once")
    return tuple(context.index(n) for n in names)
