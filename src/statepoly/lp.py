"""The reference simplex that the tests compare hull membership with.

:func:`solve_lp` decides ``{x >= 0 : A x = b}`` by phase 1 of a dense simplex
over ``Fraction`` with Bland's anti-cycling rule; no command imports this
module.  Either answer carries a certificate that plain arithmetic can
re-check (:func:`audit_feasibility`):

* feasible -- a point ``x >= 0`` with ``A x = b``;
* infeasible -- a Farkas vector ``y`` with ``y A <= 0`` in every column and
  ``y b > 0``.

The hull queries live in :mod:`statepoly.polytope`; two of them are bound
here as well, under the names the benchmark tracer's ``lp`` spans use.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .polytope import affine_hull, member_convex_hull  # noqa: F401

Vector = tuple[Fraction, ...]


def _vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


class LPResult(NamedTuple):
    status: str  # "feasible" | "infeasible"
    point: Vector | None = None
    farkas: Vector | None = None


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tab[row][col]
    inv = 1 / piv
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r in range(len(tab)):
        if r == row:
            continue
        factor = tab[r][col]
        if factor:
            tab[r] = [v - factor * p for v, p in zip(tab[r], prow)]
    basis[row] = col


def solve_lp(augmented: Sequence[Sequence]) -> LPResult:
    """Find ``x >= 0`` with ``A x = b`` for the augmented matrix ``[A | b]``
    (at least one row), or a Farkas vector proving there is none.

    Phase 1 from an all-artificial basis: maximize minus the sum of the
    artificial variables, entering and leaving by Bland's rule.  Rows with
    ``b < 0`` are negated first, and the artificial columns double as a
    readout of the basis inverse, which gives the Farkas vector.
    """
    rows = [_vec(row) for row in augmented]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("feasibility needs a non-empty rectangular [A | b]")
    m, n = len(rows), len(rows[0]) - 1
    sigma = [-1 if row[-1] < 0 else 1 for row in rows]
    tab = [
        [s * v for v in row[:-1]] + [Fraction(int(i == k)) for k in range(m)] + [s * row[-1]]
        for i, (s, row) in enumerate(zip(sigma, rows))
    ]
    basis = list(range(n, n + m))
    while True:
        artificial = [i for i, k in enumerate(basis) if k >= n]
        entering = next(
            (
                j for j in range(n)
                if j not in basis and sum((tab[i][j] for i in artificial), Fraction(0)) > 0
            ),
            None,
        )
        if entering is None:
            break
        # phase 1 is bounded, so a column that improves it has a positive entry
        leave = -1
        best = Fraction(0)
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        _pivot(tab, basis, leave, entering)
    if any(tab[i][-1] for i in artificial):
        farkas = tuple(
            s * sum((tab[r][n + i] for r in artificial), Fraction(0)) for i, s in enumerate(sigma)
        )
        return LPResult("infeasible", farkas=farkas)
    # an artificial left in the basis sits at level zero and moves no variable
    point = [Fraction(0)] * n
    for i, k in enumerate(basis):
        if k < n:
            point[k] = tab[i][-1]
    return LPResult("feasible", point=tuple(point))


def audit_feasibility(augmented: Sequence[Sequence], res: LPResult) -> list[str]:
    """Exact re-check of the answer and its certificate; empty list == clean."""
    rows = [_vec(row) for row in augmented]
    if res.status == "feasible" and res.point is not None and len(res.point) == len(rows[0]) - 1:
        x = res.point
        issues = [f"variable {j} negative: {v}" for j, v in enumerate(x) if v < 0]
        for i, row in enumerate(rows):
            lhs = sum(map(mul, row[:-1], x), Fraction(0))
            if lhs != row[-1]:
                issues.append(f"row {i} violated: {lhs} != {row[-1]}")
        return issues
    if res.status == "infeasible" and res.farkas is not None and len(res.farkas) == len(rows):
        *columns, value = (sum(map(mul, res.farkas, column), Fraction(0)) for column in zip(*rows))
        issues = [f"farkas column {j} positive: {s}" for j, s in enumerate(columns) if s > 0]
        if not value > 0:
            issues.append(f"farkas value not positive: {value}")
        return issues
    return [f"{res.status!r} answer without a matching certificate"]
