"""Derivations of a polynomial ring, given by images of the main variables.

A derivation kills every coefficient variable (it is linear over the base
ring) and extends to the whole ring by the Leibniz rule, so ``apply``
computes ``sum_x dp/dx * D(x)`` over the main variables, in one pass that
adds ``c * m[x]`` times the numerators of D(x), shifted by ``m / x``, into
one int dict per term ``c*m`` of p; it builds no partial derivative.  The
same loop gives ``monomial_image``, the image of one monomial as an integer
vector, which the full-ring slice and kernel searches read.  Local
nilpotency is certified on generators by bounded iteration; triangularity
gives an unconditional certificate in characteristic zero.

``iterates`` is the one loop that applies D until the image vanishes:
nilpotency indices, Dixmier sums and the retraction and complementary
certificates read their iterates from it, the first two via ``metered_iterates``.

``apply`` and ``fixes_origin`` are the protocol shared with
``RestrictedDerivation``, so slice search, projection and kernel
computations take either kind; on the full ring they also read
``monomial_image``.  The images of a subalgebra's generator products are
``GeneratorSpan.images``, by the Leibniz rule over the span's products.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import lcm
from operator import add
from typing import Callable, Mapping

from .context import VarContext
from .errors import ContextMismatchError, DomainError, invariant
from .groebner import ideal_member
from .polygcd import gcd_fold
from .polynomial import TERM_BUDGET, Polynomial

DEFAULT_NILPOTENCY_BOUND = 64
ITERATION_CAP = 4096


@dataclass(frozen=True)
class Derivation:
    context: VarContext
    images: dict[str, Polynomial]

    def __post_init__(self):
        missing = set(self.context.main_vars) - set(self.images)
        extra = set(self.images) - set(self.context.main_vars)
        if missing:
            raise ValueError(f"no image for main variables {sorted(missing)}")
        if extra:
            raise ValueError(f"images given for non-main variables {sorted(extra)}")
        for name, img in self.images.items():
            if img.context != self.context:
                raise ContextMismatchError(f"image of {name!r} lives in a foreign context")
        # Per nonzero image D(x): the index of x, the image's terms with x's exponent
        # lowered by one, and the scale of its numerators to the lcm of the denominators.
        nonzero = [(self.context.index(name), img) for name, img in self.images.items() if img]
        den = lcm(*(img._den for _, img in nonzero))
        object.__setattr__(self, "_leibniz", tuple(
            (i, [(m[:i] + (m[i] - 1,) + m[i + 1:], c) for m, c in img._num.items()], den // img._den)
            for i, img in nonzero))
        object.__setattr__(self, "_den", den)

    def __hash__(self):
        return hash((self.context, tuple(sorted(self.images.items()))))

    def _leibniz_sum(self, terms) -> dict[tuple[int, ...], int]:
        """Numerators of ``sum(c * D(m))`` over the ``(m, c)`` int terms, over ``_den``."""
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for m, c in terms:
            for i, shifted, scale in self._leibniz:
                if m[i]:
                    k = c * m[i] * scale
                    for m2, c2 in shifted:
                        key = tuple(map(add, m, m2))
                        acc[key] = get(key, 0) + k * c2
        return {m: c for m, c in acc.items() if c}

    def apply(self, p: Polynomial, span=None) -> Polynomial:
        """D(p) by the Leibniz rule; ``span`` is ignored, every polynomial has an image."""
        if p.context is not self.context and p.context != self.context:
            raise ContextMismatchError("derivation applied across contexts")
        return Polynomial._from_ints(self.context, self._leibniz_sum(p._num.items()), self._den * p._den)

    def monomial_image(self, mono: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], int]:
        """D(x^mono) as an integer vector ``(num, den)``, never a ``Polynomial``;
        not reduced to lowest terms."""
        return self._leibniz_sum(((mono, 1),)), self._den

    def fixes_origin(self) -> bool:
        """Whether every image vanishes at the origin.

        Then every D(p) does too, since each Leibniz term carries an image:
        D has no slice and no combination of its images is 1.
        """
        return all(img.vanishes_at_origin() for img in self.images.values())

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())


@dataclass(frozen=True)
class NilpotencyVerdict:
    certified: bool
    indices: Mapping[str, int] | None  # smallest n with D^n(x) == 0, per main variable
    bound: int

    @property
    def status(self) -> str:
        return "certified-lnd" if self.certified else "inconclusive"


def iterates(
    apply: Callable[[Polynomial], Polynomial], a: Polynomial, cap: int
) -> list[Polynomial] | None:
    """The nonzero iterates ``[a, D(a), ..., D^(n-1)(a)]``, where D^n(a) == 0.

    D is given by ``apply``.  The list has length n, the nilpotency index
    of ``a`` (0 for ``a == 0``), and n may reach ``cap + 1``: None means
    D^(cap+1)(a) is still nonzero, after at most ``cap + 1`` applications.
    """
    out: list[Polynomial] = []
    f = a
    while f:
        if len(out) > cap:
            return None
        out.append(f)
        f = apply(f)
    return out


def metered_iterates(apply: Callable[[Polynomial], Polynomial], a: Polynomial,
                     cap: int = ITERATION_CAP) -> list[Polynomial]:
    """``iterates`` within ``cap`` steps and ``TERM_BUDGET`` terms, else ``DomainError``."""
    spent = len(a)

    def metered(f: Polynomial) -> Polynomial:
        nonlocal spent
        image = apply(f)
        spent += len(image)
        if spent > TERM_BUDGET:
            raise DomainError(f"derivation iterates of {a} exceeded {TERM_BUDGET} terms"
                              " before they vanished")
        return image

    its = iterates(metered, a, cap)
    if its is None:
        raise DomainError(f"derivation iterates of {a} did not vanish within {cap} steps")
    return its


def nilpotency_verdict(D: Derivation, bound: int = DEFAULT_NILPOTENCY_BOUND) -> NilpotencyVerdict:
    """Certify local nilpotency on the ring generators by iteration.

    Each main variable x is certified when D^(bound+1)(x) == 0, so an index
    (the smallest n with D^n(x) == 0) can be ``bound + 1``.  Certification
    on the main variables suffices because the locally nilpotent locus is a
    subalgebra.  An exhausted bound or term budget is inconclusive, never a
    refutation.
    """
    if not 1 <= bound <= ITERATION_CAP:
        raise ValueError(f"bound must be from 1 to {ITERATION_CAP}")
    indices: dict[str, int] = {}
    for name in D.context.main_vars:
        try:
            its = metered_iterates(D.apply, Polynomial.variable(D.context, name), bound)
        except DomainError:
            return NilpotencyVerdict(False, None, bound)
        indices[name] = len(its)
    return NilpotencyVerdict(True, indices, bound)


def is_triangular(D: Derivation) -> tuple[str, ...] | None:
    """The lexicographically first variable ordering making D triangular,
    or None.

    An ordering ``x1 < ... < xn`` is triangular when each image ``D(xi)``
    involves only coefficient variables and ``x1..x(i-1)``.  Kahn's
    algorithm places, at each step, the first main variable in context
    order whose image involves only placed ones, from a min-heap of their
    indices.  A variable that can be placed stays placeable as the placed
    set grows, so no earlier choice is ever wrong, and the greedy order is
    the first valid one in lexicographic order.
    """
    main = D.context.main_vars
    index = {name: i for i, name in enumerate(main)}
    users: list[list[int]] = [[] for _ in main]  # the variables whose image involves each one
    waiting = []  # per variable, how many main variables of its image are unplaced
    for i, name in enumerate(main):
        needs = [index[v] for v in D.images[name].variables_used() if v in index]
        for j in needs:
            users[j].append(i)
        waiting.append(len(needs))
    ready = [i for i, n in enumerate(waiting) if not n]  # ascending, so already a heap
    order = []
    while ready:
        i = heappop(ready)
        order.append(main[i])
        for j in users[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heappush(ready, j)
    return tuple(order) if len(order) == len(main) else None


def divergence(D: Derivation) -> Polynomial:
    return Polynomial.combine(D.context, ((D.images[n].partial_derivative(n), 1)
                                          for n in D.context.main_vars))


def is_irreducible(D: Derivation) -> tuple[bool, Polynomial | None]:
    """(True, None) when no non-unit divides every image, else (False, g).

    ``g`` is the lex-monic gcd of the nonzero images.  The zero derivation
    is rejected.
    """
    images = [img for img in D.images.values() if not img.is_zero()]
    if not images:
        raise DomainError("irreducibility of the zero derivation is undefined")
    acc = gcd_fold(images)
    if acc.is_constant():
        return True, None
    return False, acc.monic_lex()


def is_fixed_point_free(D: Derivation) -> dict[str, Polynomial] | None:
    """Decide ``1 in <D(x) : x main>`` on the full polynomial ring.

    A Yes returns cofactors ``a_x`` with ``sum(a_x * D(x)) == 1``, exact and
    re-verified before returning.  None is a definitive No; a derivation
    that fixes the origin gets it from ``ideal_member`` without a Groebner
    basis.
    """
    names = [n for n in D.context.main_vars if not D.images[n].is_zero()]
    if not names:
        return None  # the zero ideal
    one = Polynomial.one(D.context)
    cof = ideal_member(one, [D.images[n] for n in names])
    if cof is None:
        return None
    witness = {n: c for n, c in zip(names, cof)}
    invariant(Polynomial.combine(D.context, ((c, D.images[n]) for n, c in witness.items())) == one,
              "fixed-point-free witness failed re-verification")
    return witness
