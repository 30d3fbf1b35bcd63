"""Sparse exact linear algebra over the rationals, eliminated fraction-free.

A vector ``Vec`` is a pair ``(num, den)``: a dict of nonzero int
numerators keyed by ambient monomials (tuples) over one positive
denominator, the integer form of a ``Polynomial`` that ``vec_of`` hands
over.  :class:`RowSpace` maintains a forward-eliminated row space of
integer rows with integer combination tracking (Bareiss's fraction-free
elimination, Math. Comp. 22, 1968, with each new row divided by its
content), which yields membership certificates (express a target over the
inserted vectors) and dependency relations (nullspace vectors of the
inserted family) as by-products, both ``Vec`` pairs keyed by tags.  It is
the one elimination loop: ``RowSpace.rref`` only back-substitutes the rows
it holds, carrying their combinations, into the fully reduced basis that
the slice and kernel solver of ``subalgebra`` reads.  ``combine`` is the
integer linear combination of ``Vec`` pairs.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Hashable, Iterable

Vec = tuple[dict[Hashable, int], int]


def vec_of(poly) -> Vec:
    """Integer form of a polynomial over its monomial support; the dict is
    shared, never mutated."""
    return poly._num, poly._den


def _axpy(target: dict, source: dict, scale):
    for k, v in source.items():
        total = target.get(k)
        val = v * scale
        if total is None:
            target[k] = val
        else:
            total = total + val
            if total:
                target[k] = total
            else:
                del target[k]


def _eliminate(target: dict, row: dict, a: int, b: int) -> int:
    """Clear ``b`` in ``target`` against ``row``'s positive entry ``a`` at that key:
    ``target = f * target - (b / g) * row``, ``g = gcd(a, b)``; returns ``f = a / g``."""
    g = gcd(a, b)
    f = a // g
    if f != 1:
        for k in target:
            target[k] *= f
    _axpy(target, row, -(b // g))
    return f


def combine(pairs: Iterable[tuple[Vec, int]]) -> Vec:
    """``sum(c * v)`` over ``(v, c)`` pairs with int ``c``, over the lcm of the
    denominators; not reduced to lowest terms."""
    pairs = list(pairs)
    den = lcm(*(d for (_, d), _ in pairs))
    out: dict = {}
    for (num, d), c in pairs:
        _axpy(out, num, c * (den // d))
    return out, den


class RowSpace:
    """Row space in echelon form, pivot = largest key in tuple order.

    Each row is stored as ``(row, combo)``, integer dicts with
    ``row == sum(combo[t] * num_t)``, where ``num_t`` are the numerators of
    the vector inserted under tag ``t``; its pivot entry is positive and
    the gcd of all its entries is 1.  Tags are distinct.
    """

    def __init__(self):
        self._rows: dict[tuple, tuple[dict, dict]] = {}
        self._dens: dict[Hashable, int] = {}

    def __len__(self):
        return len(self._rows)

    def _reduce(self, num: dict, combo: dict | None) -> tuple[dict, dict | None, int]:
        """``(red, combo, scale)`` with ``red == scale * num + sum(combo[t] * num_t)``.

        Eliminating the max key introduces only smaller keys, and any
        vector in the span has a pivot as its max key at every step, so
        leading-entry elimination alone decides membership.  Each step is
        one ``_eliminate`` on ``red`` and the same on ``combo``; a ``combo``
        of None is not tracked.
        """
        rows = self._rows
        red = dict(num)
        scale = 1
        while red:
            hit = max(red)
            entry = rows.get(hit)
            if entry is None:
                break
            row, row_combo = entry
            a, b = row[hit], red[hit]
            scale *= _eliminate(red, row, a, b)
            if combo is not None:
                _eliminate(combo, row_combo, a, b)
        return red, combo, scale

    def _combo(self, combo: dict, scale: int, den: int) -> Vec:
        """``-combo / scale`` over the tags' vectors, for a vector with
        denominator ``den`` that reduced to zero."""
        dens = self._dens
        return {t: -c * dens[t] for t, c in combo.items() if c}, den * scale

    def insert(self, vec: Vec, tag: Hashable) -> Vec | None:
        """Insert a vector; returns a dependency combo when it is dependent.

        A returned combo ``(c, d)`` certifies ``vec == sum(c[t] * vector(t)) / d``
        over previously inserted tags.  Independent vectors return None.
        """
        num, den = vec
        red, combo, scale = self._reduce(num, {})
        if not red:
            return self._combo(combo, scale, den)
        combo[tag] = scale
        self._dens[tag] = den
        pivot = max(red)
        g = gcd(*red.values(), *combo.values())
        if red[pivot] < 0:
            g = -g
        if g != 1:
            red = {k: v // g for k, v in red.items()}
            combo = {t: v // g for t, v in combo.items()}
        self._rows[pivot] = (red, combo)
        return None

    def express(self, vec: Vec) -> Vec | None:
        """Combo ``(c, d)`` of inserted vectors with ``vec == sum(c[t] * vector(t)) / d``, or None."""
        num, den = vec
        red, combo, scale = self._reduce(num, {})
        if red:
            return None
        return self._combo(combo, scale, den)

    def contains(self, vec: Vec) -> bool:
        return not self._reduce(vec[0], None)[0]

    def rref(self) -> list[tuple[dict, dict]]:
        """The rows fully reduced, as ``(row, combo)`` pairs by ascending pivot.

        In that order each row and its combination are back-substituted once
        by the reduced rows below it, which have no term on another pivot,
        so no row ends with one.  ``row == sum(combo[t] * num_t)`` still
        holds, and each pair is divided by its content, pivot entry positive.
        """
        out: dict[tuple, tuple[dict, dict]] = {}
        for pivot in sorted(self._rows):
            row, combo = self._rows[pivot]
            row, combo = dict(row), dict(combo)
            for lower in [k for k in row if k in out]:
                lower_row, lower_combo = out[lower]
                a, b = lower_row[lower], row[lower]
                _eliminate(row, lower_row, a, b)
                _eliminate(combo, lower_combo, a, b)
            g = gcd(*row.values(), *combo.values())
            if g != 1:
                row = {k: v // g for k, v in row.items()}
                combo = {t: v // g for t, v in combo.items()}
            out[pivot] = (row, combo)
        return list(out.values())
