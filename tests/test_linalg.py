"""Sparse exact linear algebra: the canonical reduced row echelon form."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lndkit.linalg import canonical_rref, reduce_by_rref


def _reference_axpy(target, source, scale):
    for k, v in source.items():
        total = target.get(k, 0) + v * scale
        if total:
            target[k] = total
        else:
            target.pop(k, None)


def _reference_canonical_rref(vectors):
    """Eager Gauss-Jordan: each new row clears every pivot, then clears its
    own pivot from the rows before it."""
    rows = {}
    for vec in vectors:
        red = dict(vec)
        while True:
            hits = [k for k in red if k in rows]
            if not hits:
                break
            hit = max(hits)
            _reference_axpy(red, rows[hit], -red[hit])
        if not red:
            continue
        pivot = max(red)
        scale = Fraction(1) / red[pivot]
        red = {k: v * scale for k, v in red.items()}
        for other in rows.values():
            if pivot in other:
                _reference_axpy(other, red, -other[pivot])
        rows[pivot] = red
    return [rows[p] for p in sorted(rows, reverse=True)]


_keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_vectors = st.lists(st.dictionaries(_keys, _coeffs, max_size=5), max_size=7)


def _combination(vectors, rng):
    out = {}
    for vec in vectors:
        _reference_axpy(out, vec, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


@given(_vectors, st.integers(0, 2 ** 30))
@example([{(1, 0): Fraction(2), (0, 0): Fraction(1)}, {(1, 0): Fraction(4), (0, 1): Fraction(1)}], 0)
@settings(max_examples=200, deadline=None)
def test_canonical_rref_depends_only_on_the_span(vectors, seed):
    rows = canonical_rref(vectors)
    assert rows == _reference_canonical_rref(vectors)

    pivots = [max(row) for row in rows]
    assert pivots == sorted(pivots, reverse=True) and len(set(pivots)) == len(pivots)
    for pivot, row in zip(pivots, rows):
        assert row[pivot] == 1 and all(row.values())  # pivot-monic, no stored zeros
        assert all(p not in row for p in pivots if p != pivot)  # mutually reduced
    for vec in vectors:  # every input lies in the span of the rows
        assert not reduce_by_rref(vec, rows)

    # Shuffled, rescaled and padded with combinations and zero vectors: same span.
    rng = random.Random(seed)
    scales = [Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 7])) for _ in vectors]
    other = [{k: v * scale for k, v in vec.items()} for vec, scale in zip(vectors, scales)]
    other += [_combination(vectors, rng) for _ in range(rng.randint(0, 3))] + [{}]
    rng.shuffle(other)
    assert canonical_rref(other) == rows
