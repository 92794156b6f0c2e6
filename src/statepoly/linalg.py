"""Exact scalars and integer linear algebra: the exact-scalar rule, clearing
denominators, fraction-free row reduction and primitive integer vectors.

Polytope data follows one exact-scalar rule (:func:`exact`): a value is an
``int`` when it is integral and a ``Fraction`` otherwise, never a float.
:func:`common_denominator` scales rational rows to integers.

Row reduction is forward-only and fraction-free: each new row is
cross-multiplied against the kept primitive rows in increasing pivot order,
and no kept row is rewritten.  The kernel is back-substituted only when it
is read.
"""
from __future__ import annotations

from bisect import bisect, insort
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence


def exact(value) -> int | Fraction:
    """``value`` under the exact-scalar rule: an ``int`` when it is
    integral, a ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f.numerator if f.denominator == 1 else f


def exact_vector(values: Iterable) -> tuple[int | Fraction, ...]:
    return tuple([v if type(v) is int else exact(v) for v in values])


def int_rows(rows: Iterable[Iterable]) -> bool:
    """Whether every entry of every row is an ``int``, decided by one
    C-level pass over the entries' types (a ``bool`` is not an ``int``)."""
    return set(map(type, chain.from_iterable(rows))) <= {int}


def common_denominator(
    rows: Iterable[Iterable[int | Fraction]],
) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm ``scale`` of the denominators of all entries, and every row
    times ``scale`` as integers (the content is kept); an all-``int`` set
    (:func:`int_rows`) is returned as it is."""
    rows = [tuple(r) for r in rows]
    if int_rows(rows):
        return 1, rows
    rational = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in r] for r in rows]
    scale = lcm(*(v.denominator for r in rational for v in r))
    return scale, [tuple(v.numerator * (scale // v.denominator) for v in r) for r in rational]


def primitive(vec: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to integers with content 1 (sign preserved)."""
    _, (ints,) = common_denominator([vec])
    content = gcd(*ints)
    if content > 1:
        ints = tuple(v // content for v in ints)
    return ints


class RowEchelon(NamedTuple):
    """Row echelon form of an integer matrix, as the forward reduction left it.

    ``echelon[i]`` is a primitive row that is zero before a positive entry
    in column ``pivots[i]`` (pivots increase); ``basis`` lists, in input
    order, the indices of the input rows that are independent of the rows
    before them.  The kernel is back-substituted on each read.
    """

    width: int
    echelon: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    basis: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def null_vectors(self) -> list[tuple[int, ...]]:
        """A basis of the integer kernel ``{x : A x = 0}``: per free column
        ``f`` in increasing order, the primitive vector with ``x[f] > 0`` and
        zeros at the other free columns, solved from the last pivot up."""
        kernel = []
        for free in range(self.width):
            if free in self.pivots:
                continue
            x = [0] * self.width
            x[free] = 1
            for k in range(bisect(self.pivots, free) - 1, -1, -1):
                row, piv = self.echelon[k], self.pivots[k]
                t = sum(map(mul, row, x))
                if t:
                    g = gcd(row[piv], t)
                    if row[piv] != g:
                        x = [v * (row[piv] // g) for v in x]
                    x[piv] = -t // g
            content = gcd(*x)
            kernel.append(tuple(x) if content == 1 else tuple(v // content for v in x))
        return kernel


def row_reduce(rows: Iterable[Sequence[int]], width: int) -> RowEchelon:
    """Forward fraction-free reduction of integer ``rows`` of length
    ``width``, taking the rows in order and stopping once the rank reaches
    ``width``.  A row is reduced against the kept rows in increasing pivot
    order, and a zero entry at a pivot costs one read."""
    kept: list[tuple[int, tuple[int, ...]]] = []  # (pivot, primitive row), by pivot
    basis: list[int] = []
    for index, row in enumerate(rows):
        if len(kept) == width:
            break
        u = row
        for piv, r in kept:
            factor = u[piv]
            if factor:
                g = gcd(r[piv], factor)
                a, b = r[piv] // g, factor // g
                u = [a * x - b * y for x, y in zip(u, r)]
        # what is left is the one line of the span that is zero at the pivots
        if not any(u):
            continue
        piv = next(j for j, v in enumerate(u) if v)
        content = gcd(*u) if u[piv] > 0 else -gcd(*u)
        insort(kept, (piv, tuple(u) if content == 1 else tuple(v // content for v in u)))
        basis.append(index)
    return RowEchelon(
        width=width,
        echelon=tuple(r for _, r in kept),
        pivots=tuple(piv for piv, _ in kept),
        basis=tuple(basis),
    )
