"""Exact hull queries -- membership read off a facet system, the affine
hull -- and the reference simplex that the tests compare membership with.

:func:`solve_lp` decides ``{x >= 0 : A x = b}`` by phase 1 of a dense simplex
over ``Fraction`` with Bland's anti-cycling rule; no command path calls it.
Either answer carries a certificate that plain arithmetic can re-check
(:func:`audit_feasibility`):

* feasible -- a point ``x >= 0`` with ``A x = b``;
* infeasible -- a Farkas vector ``y`` with ``y A <= 0`` in every column and
  ``y b > 0``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

from .linalg import common_denominator, exact_vector, primitive, row_reduce

if TYPE_CHECKING:  # polytope imports this module
    from .polytope import FacetSystem

Vector = tuple[Fraction, ...]


def _vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class LPResult:
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


# ---------------------------------------------------------------------------
# derived geometry queries


@dataclass(frozen=True)
class HullMembership:
    inside: bool
    coefficients: Vector | None = None  # convex weights, aligned with points
    separator: tuple[int, ...] | None = None  # functional larger at target


def member_convex_hull(
    system: FacetSystem, vertices: Sequence[Sequence], target: Sequence
) -> HullMembership:
    """Membership of ``target`` in the hull of ``vertices``, read off
    ``system``, the facet system of that hull, with a certificate either way.

    The separator is the first violated equation normal (signed so that the
    target's side is larger) or facet normal.  Inside weights follow the
    order of ``vertices`` and at most ``hull_dim + 1`` are nonzero: a ray
    from the face's first point through the target exits on a facet, which
    splits the target between the two and leaves a smaller face to recurse
    in (Caratheodory).

    Every test is made in integers: the vertices and offsets are scaled by
    the lcm of their denominators, and the point on the ray is an integer
    vector over one denominator.  Only the weights are ``Fraction``.
    """
    den, (x,) = common_denominator([target])
    if len(x) != system.dim:
        raise ValueError("point dimension mismatch")
    scale, (*pts, equation_offsets, facet_offsets) = common_denominator(
        [*vertices, [c for _, c in system.equations], [c for _, c in system.facets]]
    )
    if scale > 1:
        x = [scale * a for a in x]
    # the scaled target is x / den, so h . target <= c reads h . x <= c * den
    for (normal, _), offset in zip(system.equations, equation_offsets):
        value = sum(map(mul, normal, x))
        if value != offset * den:
            sign = 1 if value > offset * den else -1
            return HullMembership(inside=False, separator=tuple(sign * h for h in normal))
    planes = [(normal, offset) for (normal, _), offset in zip(system.facets, facet_offsets)]
    for normal, offset in planes:
        if sum(map(mul, normal, x)) > offset * den:
            return HullMembership(inside=False, separator=normal)
    weights = [Fraction(0)] * len(pts)
    face = list(range(len(pts)))
    share = Fraction(1)
    while True:
        v = pts[face[0]]
        d = [a - den * b for a, b in zip(x, v)]  # den times the direction target - v
        if not any(d):
            weights[face[0]] += share
            return HullMembership(inside=True, coefficients=tuple(weights))
        # the ray v + s*d/den leaves the polytope at s = t = den*room/slope >= 1
        # on the first facet of least t, found by cross-multiplication (a
        # facet tight at v with slope > 0 would cut off the target)
        room = slope = None
        for normal, offset in planes:
            s = sum(map(mul, normal, d))
            if s > 0:
                r = offset - sum(map(mul, normal, v))
                if slope is None or r * slope < room * s:
                    room, slope, plane = r, s, (normal, offset)
        t = Fraction(den * room, slope)
        weights[face[0]] += share * (1 - 1 / t)
        share /= t
        # the exit point v + t*d/den is (slope*v + room*d) / slope
        x = [slope * b + room * a for a, b in zip(d, v)]
        g = gcd(slope, *x)
        x = [a // g for a in x]
        den = slope // g
        normal, offset = plane
        face = [i for i in face if sum(map(mul, normal, pts[i])) == offset]


@dataclass(frozen=True)
class AffineHull:
    dim: int
    base_point: tuple[int | Fraction, ...]
    spanning: tuple[int, ...]  # indices of the first dim + 1 affinely independent points
    pivots: tuple[int, ...]  # coordinates that parametrize the hull
    equations: tuple[tuple[tuple[int, ...], int | Fraction], ...]  # h.x == c on the hull

    def project(self, point: Sequence) -> tuple[int | Fraction, ...]:
        return tuple(point[j] - self.base_point[j] for j in self.pivots)

    def lift_normal(self, normal: Sequence[int]) -> tuple[int, ...]:
        out = [0] * len(self.base_point)
        for h, j in zip(normal, self.pivots):
            out[j] = h
        return tuple(out)

    def contains(self, point: Sequence) -> bool:
        return all(sum(map(mul, normal, point)) == offset for normal, offset in self.equations)


def affine_hull(points: Sequence[Sequence]) -> AffineHull:
    """Exact affine hull: the pivot coordinates and an affinely independent
    spanning subset of the points, plus the integer-normalized equations
    cutting the hull out.  Integer points give integer offsets."""
    pts = [exact_vector(p) for p in points]
    if not pts:
        raise ValueError("affine hull of an empty point set")
    base = pts[0]
    echelon = row_reduce((primitive([a - b for a, b in zip(p, base)]) for p in pts[1:]), len(base))
    equations: list[tuple[tuple[int, ...], int | Fraction]] = []
    for normal in echelon.null_vectors():
        if next(v for v in normal if v) < 0:
            normal = tuple(-v for v in normal)
        equations.append((normal, sum(map(mul, normal, base))))
    equations.sort()
    return AffineHull(
        dim=echelon.rank,
        base_point=base,
        spanning=(0,) + tuple(i + 1 for i in echelon.basis),
        pivots=echelon.pivots,
        equations=tuple(equations),
    )
