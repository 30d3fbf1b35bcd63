"""Sparse exact linear algebra: the fully reduced rows of ``RowSpace.rref``
and the fraction-free row space against their ``Fraction`` references."""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lndkit import Polynomial, VarContext
from lndkit.linalg import RowSpace, vec_of
from lndkit.polynomial import integer_form

from helpers import canonical_rref, reduce_by_rref


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


def _rref(vectors):
    """``RowSpace.rref`` of the integer forms of ``vectors``, tags their positions."""
    space = RowSpace()
    for tag, vec in enumerate(vectors):
        space.insert(integer_form(vec), tag)
    return space.rref()


def _monic(rows):
    """``RowSpace.rref`` rows as pivot-monic ``Vec``s in lowest terms, pivots descending."""
    return [integer_form({k: Fraction(v, row[max(row)]) for k, v in row.items()})
            for row, _ in reversed(rows)]


@given(_vectors, st.integers(0, 2 ** 30))
@example([{(1, 0): Fraction(2), (0, 0): Fraction(1)}, {(1, 0): Fraction(4), (0, 1): Fraction(1)}], 0)
@settings(max_examples=200, deadline=None)
def test_canonical_rref_depends_only_on_the_span(vectors, seed):
    rows = _rref(vectors)
    assert _monic(rows) == [integer_form(row) for row in _reference_canonical_rref(vectors)]

    pivots = [max(row) for row, _ in rows]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    nums = [integer_form(vec)[0] for vec in vectors]
    for pivot, (row, combo) in zip(pivots, rows):
        assert row[pivot] > 0 and all(row.values()) and all(combo.values())  # no stored zeros
        assert math.gcd(*row.values(), *combo.values()) == 1
        assert all(p not in row for p in pivots if p != pivot)  # mutually reduced
        recombined = {}
        for t, c in combo.items():
            _reference_axpy(recombined, nums[t], c)
        assert recombined == row  # row == sum(combo[t] * num_t)
    for vec in vectors:  # every input lies in the span of the rows
        assert not reduce_by_rref(integer_form(vec), [(row, row[max(row)]) for row, _ in rows])[0]

    # Shuffled, rescaled and padded with combinations and zero vectors: same span.
    rng = random.Random(seed)
    scales = [Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 7])) for _ in vectors]
    other = [{k: v * scale for k, v in vec.items()} for vec, scale in zip(vectors, scales)]
    other += [_combination(vectors, rng) for _ in range(rng.randint(0, 3))] + [{}]
    rng.shuffle(other)
    assert _monic(_rref(other)) == _monic(rows)


def _fraction_canonical_rref(vectors):
    """The ``Fraction`` kernel that the integer ``canonical_rref`` (now the
    tests' reference) replaced:
    the ``RowSpace`` rows made pivot-monic, then back-substituted in
    ascending pivot order."""
    space = RowSpace()
    for tag, vec in enumerate(vectors):
        space.insert(vec, tag)
    rows = {}
    for pivot in sorted(space._rows):
        row = space._rows[pivot][0]
        lead = row[pivot]
        rows[pivot] = {k: Fraction(v, lead) for k, v in row.items()}
    for pivot, row in rows.items():
        for lower in [k for k in row if k in rows and k < pivot]:
            _reference_axpy(row, rows[lower], -row[lower])
    return list(reversed(rows.values()))


def _fraction_reduce_by_rref(vec, rref_rows):
    """The ``Fraction`` kernel that the integer ``reduce_by_rref`` replaced."""
    out = dict(vec)
    for row in rref_rows:
        pivot = max(row)
        if pivot in out:
            _reference_axpy(out, row, -out[pivot])
    return out


@given(_vectors, st.lists(st.dictionaries(_keys, _coeffs, max_size=6), max_size=3))
@settings(max_examples=200, deadline=None)
def test_rref_kernels_match_their_fraction_references(vectors, targets):
    """``RowSpace.rref`` and the integer references ``canonical_rref`` and
    ``reduce_by_rref`` agree with the ``Fraction`` kernels."""
    vecs = [integer_form(vec) for vec in vectors]
    rows = _fraction_canonical_rref(vecs)
    got = canonical_rref(vecs)
    assert got == [integer_form(row) for row in rows]
    assert _monic(_rref(vectors)) == got
    for target in targets:
        num, den = reduce_by_rref(integer_form(target), got)
        assert integer_form({k: Fraction(v, den) for k, v in num.items()}) == integer_form(
            _fraction_reduce_by_rref(target, rows))


class _ReferenceRowSpace:
    """The ``Fraction`` row space that the fraction-free ``RowSpace``
    replaced: pivot-monic rows, eliminated by ``Fraction`` arithmetic."""

    def __init__(self):
        self._rows = {}

    def _reduce(self, vec, combo):
        vec = dict(vec)
        combo = dict(combo)
        while vec:
            hit = max(vec)
            if hit not in self._rows:
                break
            row_vec, row_combo = self._rows[hit]
            scale = -vec[hit]
            _reference_axpy(vec, row_vec, scale)
            _reference_axpy(combo, row_combo, scale)
        return vec, combo

    def insert(self, vec, tag):
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

    def express(self, vec):
        red, combo = self._reduce(vec, {})
        if red:
            return None
        return {t: -v for t, v in combo.items() if v}


_CTX = VarContext((), ("X", "Y"))
_polys = st.dictionaries(_keys, _coeffs, max_size=4).map(lambda terms: Polynomial(_CTX, terms))


@st.composite
def _families(draw):
    """Polynomials to insert, some of them combinations or multiples of
    earlier ones (dependent inserts), and targets inside and outside the span."""
    polys = draw(st.lists(_polys, max_size=8))
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    for _ in range(draw(st.integers(0, 3))):
        if polys:
            at = rng.randrange(len(polys) + 1)
            polys.insert(at, Polynomial.combine(_CTX, [
                (p, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for p in polys[:at]
            ]))
    hits = [Polynomial.combine(_CTX, [(p, Fraction(rng.randint(-2, 2), rng.choice([1, 3])))
                                      for p in polys]) for _ in range(2)]
    return polys, hits + draw(st.lists(_polys, max_size=3))


def _as_fractions(answer):
    """A ``RowSpace`` answer ``(num, den)`` as the ``Fraction`` dict it stands for."""
    if answer is None:
        return None
    num, den = answer
    assert den > 0 and all(type(c) is int and c for c in num.values())
    return {t: Fraction(c, den) for t, c in num.items()}


@given(_families())
@example(([Polynomial(_CTX, {(1, 0): Fraction(1, 2)}), Polynomial(_CTX, {(1, 0): Fraction(3)})],
          [Polynomial(_CTX, {(1, 0): Fraction(2, 7)}), Polynomial(_CTX, {(0, 1): 1})]))
@settings(max_examples=300, deadline=None)
def test_fraction_free_row_space_matches_the_fraction_reference(family):
    """Same dependency combos (independent inserts return None) and the
    same ``express`` hits and misses; the integer answers over their
    denominator equal the reference's ``Fraction`` dicts."""
    polys, targets = family
    space, reference = RowSpace(), _ReferenceRowSpace()
    for tag, p in enumerate(polys):
        dep = _as_fractions(space.insert(vec_of(p), tag))
        assert dep == reference.insert(dict(p.terms), tag)
        if dep is not None:
            assert Polynomial.combine(_CTX, ((polys[t], c) for t, c in dep.items())) == p
    for tag, (row, combo) in space._rows.items():
        assert row[tag] > 0 and math.gcd(*row.values(), *combo.values()) == 1
    for target in targets:
        combo = _as_fractions(space.express(vec_of(target)))
        assert combo == reference.express(dict(target.terms))
        assert space.contains(vec_of(target)) == (combo is not None)
        if combo is not None:
            assert Polynomial.combine(_CTX, ((polys[t], c) for t, c in combo.items())) == target
