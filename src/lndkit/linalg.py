"""Sparse exact linear algebra over the rationals.

Vectors are dicts keyed by ambient monomials (tuples) with nonzero
``Fraction`` entries.  :class:`RowSpace` maintains a forward-eliminated
row space with combination tracking, which yields membership certificates
(express a target over the inserted vectors) and dependency relations
(nullspace vectors of the inserted family) as by-products.  It is the one
elimination loop: ``canonical_rref`` fills a ``RowSpace`` and only
back-substitutes its rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable

Vec = dict[tuple, Fraction]
Combo = dict[Hashable, Fraction]


def vec_of(poly) -> Vec:
    """Coordinate vector of a polynomial over its monomial support."""
    return dict(poly.terms)


def _axpy(target: dict, source: dict, scale: Fraction):
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


class RowSpace:
    """Row space in echelon form, pivot = largest key in tuple order."""

    def __init__(self):
        self._rows: dict[tuple, tuple[Vec, Combo]] = {}

    def __len__(self):
        return len(self._rows)

    def _reduce(self, vec: Vec, combo: Combo) -> tuple[Vec, Combo]:
        # Eliminating the max key introduces only smaller keys, and any
        # vector in the span has a pivot as its max key at every step, so
        # leading-entry elimination alone decides membership.
        vec = dict(vec)
        combo = dict(combo)
        while vec:
            hit = max(vec)
            if hit not in self._rows:
                break
            row_vec, row_combo = self._rows[hit]
            scale = -vec[hit]
            _axpy(vec, row_vec, scale)
            _axpy(combo, row_combo, scale)
        return vec, combo

    def insert(self, vec: Vec, tag: Hashable) -> Combo | None:
        """Insert a vector; returns a dependency combo when it is dependent.

        A returned combo ``c`` certifies ``vec == sum(c[t] * vector(t))``
        over previously inserted tags.  Independent vectors return None.
        """
        red, combo = self._reduce(vec, {})
        if not red:
            return {t: -v for t, v in combo.items()}
        pivot = max(red)
        scale = Fraction(1) / red[pivot]
        red = {k: v * scale for k, v in red.items()}
        combo = {t: v * scale for t, v in combo.items()}
        combo[tag] = combo.get(tag, Fraction(0)) + scale
        self._rows[pivot] = (red, combo)
        return None

    def express(self, vec: Vec) -> Combo | None:
        """Combination of inserted vectors equal to ``vec``, or None."""
        red, combo = self._reduce(vec, {})
        if red:
            return None
        return {t: -v for t, v in combo.items() if v}

    def contains(self, vec: Vec) -> bool:
        red, _ = self._reduce(vec, {})
        return not red


def canonical_rref(vectors: Iterable[Vec]) -> list[Vec]:
    """Fully reduced row echelon form of the span, pivots descending.

    The output depends only on the span, not on the presentation: pivots
    are the largest keys, rows are pivot-monic and mutually reduced, and
    rows are listed by descending pivot.  The ``RowSpace`` rows are
    pivot-monic already; back-substitution in ascending pivot order clears
    the lower pivots from each.
    """
    space = RowSpace()
    for tag, vec in enumerate(vectors):
        space.insert(vec, tag)
    rows = {pivot: space._rows[pivot][0] for pivot in sorted(space._rows)}
    for pivot, row in rows.items():
        for lower in [k for k in row if k in rows and k < pivot]:
            _axpy(row, rows[lower], -row[lower])
    return list(reversed(rows.values()))


def reduce_by_rref(vec: Vec, rref_rows: list[Vec]) -> Vec:
    """Eliminate every rref pivot from ``vec``; canonical coset representative."""
    out = dict(vec)
    for row in rref_rows:
        pivot = max(row)
        if pivot in out:
            _axpy(out, row, -out[pivot])
    return out
