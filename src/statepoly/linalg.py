"""Exact scalars and integer linear algebra: the exact-scalar rule, clearing
denominators, fraction-free row reduction and primitive integer vectors.

Polytope data follows one exact-scalar rule (:func:`exact`): a value is an
``int`` when it is integral and a ``Fraction`` otherwise, never a float.
:func:`common_denominator` is the one place where rational rows are scaled
to integers.

Row reduction is Bareiss's fraction-free Gauss-Jordan elimination.  Rows
are kept as integer multiples ``d * r`` of the reduced row echelon rows
``r``, where ``d`` is, up to sign, the determinant of the pivot minor, so
every division the reduction makes is exact and no ``Fraction`` is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def exact(value) -> int | Fraction:
    """``value`` under the exact-scalar rule: an ``int`` when it is
    integral, a ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f.numerator if f.denominator == 1 else f


def exact_vector(values: Iterable) -> tuple[int | Fraction, ...]:
    return tuple([v if type(v) is int else exact(v) for v in values])


def common_denominator(
    rows: Iterable[Iterable[int | Fraction]],
) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm ``scale`` of the denominators of all entries, and every row
    times ``scale`` as integers (the content is kept)."""
    rows = [tuple(r) for r in rows]
    if all(type(v) is int for r in rows for v in r):
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


@dataclass(frozen=True)
class RowEchelon:
    """Reduced row echelon form of an integer matrix, scaled to integers.

    ``rows[i]`` is ``det`` times the reduced row whose pivot is in column
    ``pivots[i]`` (pivots increase); ``basis`` lists, in input order, the
    indices of the input rows that are independent of the rows before them.
    """

    width: int
    det: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    basis: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def null_vectors(self) -> list[tuple[int, ...]]:
        """A basis of the integer kernel ``{x : A x = 0}``: per free column
        ``f`` in increasing order, the primitive vector with ``x[f] > 0`` and
        zeros at the other free columns."""
        sign = 1 if self.det > 0 else -1
        out = []
        for free in range(self.width):
            if free in self.pivots:
                continue
            x = [0] * self.width
            x[free] = sign * self.det
            for row, piv in zip(self.rows, self.pivots):
                x[piv] = -sign * row[free]
            out.append(primitive(x))
        return out


def row_reduce(rows: Iterable[Sequence[int]], width: int) -> RowEchelon:
    """Fraction-free reduction of integer ``rows`` of length ``width``,
    taking the rows in order and stopping once the rank reaches ``width``."""
    reduced: list[list[int]] = []
    pivots: list[int] = []
    basis: list[int] = []
    det = 1
    for index, row in enumerate(rows):
        if len(pivots) == width:
            break
        # det times what is left of row once the pivot columns are eliminated
        u = [det * v for v in row]
        for r, piv in zip(reduced, pivots):
            factor = row[piv]
            if factor:
                u = [a - factor * b for a, b in zip(u, r)]
        piv = next((j for j, v in enumerate(u) if v), None)
        if piv is None:
            continue
        # the new pivot minor has determinant u[piv]; Bareiss division by det is exact
        lead = u[piv]
        reduced = [[(lead * a - r[piv] * b) // det for a, b in zip(r, u)] for r in reduced]
        reduced.append(u)
        pivots.append(piv)
        basis.append(index)
        det = lead
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return RowEchelon(
        width=width,
        det=det,
        rows=tuple(tuple(reduced[i]) for i in order),
        pivots=tuple(pivots[i] for i in order),
        basis=tuple(basis),
    )
