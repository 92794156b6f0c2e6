"""Exact rational polytopes in vertex form.

Coordinates follow the exact-scalar rule of :mod:`statepoly.linalg`: a
vertex coordinate, a level or a facet offset is an ``int`` when it is
integral and a ``Fraction`` only otherwise, so integer vertices stay
``int`` tuples.  Facet enumeration is an incremental beneath-beyond hull
computed inside the affine hull of the input (:func:`affine_hull`), so
lower dimensional polytopes work without perturbation, and membership is
read off its facet system, with a certificate either way
(:func:`member_convex_hull`).  The hull works in ``int`` only: its points, their projections, and every
piece's normal and offset are integers, and :func:`facets` scales a
rational point set to integers by its common denominator before building
it.  Facets are reported as primitive integer inequalities
``normal . x <= offset`` (equality exactly on the facet), together with
the integer equations ``normal . x == offset`` cutting out the affine hull.
The hull keeps the facets themselves, each with the bitmask of the
points tight on it, and a map from each facet to the facets sharing a ridge
with it: a new point walks that map from the first facet it sees to the
whole visible region and its horizon, a horizon facet whose hyperplane holds
the point absorbs it, and each other new facet comes from rotating the
hyperplane of the invisible facet on a horizon ridge onto the point, with
integer arithmetic and no linear solve.
A point of the polytope lies in its relative interior exactly when no facet
is tight at it (:meth:`FacetSystem.relative_interior`).

Extreme points and their certificates come from the facets: the sum of the
outward normals of the facets tight at a vertex is an integer weight that
the vertex maximizes strictly (:func:`vertex_witnesses`).
"""
from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .linalg import common_denominator, exact, exact_vector, int_rows, primitive, row_reduce
from .parsing import ParseError, render_json, scalar_from_json, scalar_to_json

Vector = tuple[int | Fraction, ...]
IntVector = tuple[int, ...]


class ExtremalityError(RuntimeError):
    """Raised when a listed vertex admits no strict maximizing weight (it is
    not an extreme point of the listed points), or when two vertex
    combinations of a chain collide in the Minkowski sum.

    Either condition means the input data does not describe the claimed
    polytope, so the computation refuses to continue rather than silently
    dropping points.
    """


# ---------------------------------------------------------------------------
# vertex-form polytopes


class VPolytope(namedtuple("VPolytope", "dim vertices")):
    """A polytope in ``dim`` coordinates given by its ``vertices``, a sorted
    and deduplicated tuple of exact vectors.

    The constructor trusts its input: it does not check that every point is
    extreme.  An all-``int`` point set (:func:`int_rows`, one check for the
    set) is only deduplicated and sorted, any other normalised per vertex.
    """

    __slots__ = ()

    def __new__(cls, dim: int, vertices: Iterable[Sequence]) -> VPolytope:
        pts = set(map(tuple, vertices))
        if not int_rows(pts):
            pts = set(map(exact_vector, pts))
        pts = sorted(pts)
        for p in pts:
            if len(p) != dim:
                raise ValueError(f"vertex {p} does not have {dim} coordinates")
        return super().__new__(cls, dim, tuple(pts))

    @property
    def level(self) -> int | Fraction | None:
        """Common coordinate sum of all vertices, if there is one."""
        if not self.vertices:
            return None
        sums = set(map(sum, self.vertices))
        return exact(sums.pop()) if len(sums) == 1 else None

    def contains(self, point: Sequence) -> bool:
        if not self.vertices:
            return False
        return member_convex_hull(facets(self), self.vertices, point).inside


def level_quotient(poly: VPolytope, m: int) -> int | None:
    """The integer ``q >= 0`` with ``poly.level == m * q``, or None when the
    vertices share no coordinate sum; ``ValueError`` when the level is not
    ``m`` times a nonnegative integer."""
    level = poly.level
    if level is None:
        return None
    q, rest = divmod(level, m)
    if rest or q < 0:
        raise ValueError(
            f"coordinate sum {level} is not m = {m} times a nonnegative integer"
        )
    return q


def trivial_character_point(n: int, m: int, q: int) -> Vector:
    """The weight-space point with every coordinate ``m*q/(n+1)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = Fraction(m * q, n + 1)
    return tuple(value for _ in range(n + 1))


# ---------------------------------------------------------------------------
# exact facet enumeration (incremental beneath-beyond in the affine hull)


class FacetSystem(NamedTuple):
    """Equations and facet inequalities of a polytope.

    ``equations`` hold with equality on every point of the polytope;
    ``facets`` are valid inequalities ``normal . x <= offset`` tight exactly
    on a facet of the polytope inside its affine hull.
    """

    dim: int
    hull_dim: int
    equations: tuple[tuple[tuple[int, ...], int | Fraction], ...]
    facets: tuple[tuple[tuple[int, ...], int | Fraction], ...]

    def relative_interior(self, point: Sequence) -> bool:
        """Whether a point already known to lie in the polytope lies in its
        relative interior: no facet is tight at it."""
        p = exact_vector(point)
        return all(sum(map(mul, normal, p)) < offset for normal, offset in self.facets)


class AffineHull(NamedTuple):
    dim: int
    base_point: IntVector
    spanning: tuple[int, ...]  # indices of the first dim + 1 affinely independent points
    pivots: tuple[int, ...]  # coordinates that parametrize the hull
    equations: tuple[tuple[IntVector, int], ...]  # h.x == c on the hull

    def project(self, point: Sequence[int]) -> IntVector:
        return tuple(point[j] - self.base_point[j] for j in self.pivots)

    def lift_normal(self, normal: Sequence[int]) -> IntVector:
        out = [0] * len(self.base_point)
        for h, j in zip(normal, self.pivots):
            out[j] = h
        return tuple(out)

    def contains(self, point: Sequence[int]) -> bool:
        return all(sum(map(mul, normal, point)) == offset for normal, offset in self.equations)


def affine_hull(points: Sequence[Sequence[int]]) -> AffineHull:
    """Exact affine hull of integer points: the pivot coordinates and an
    affinely independent spanning subset of the points, plus the primitive
    integer equations cutting the hull out."""
    if not points:
        raise ValueError("affine hull of an empty point set")
    base = tuple(points[0])
    echelon = row_reduce(([a - b for a, b in zip(p, base)] for p in points[1:]), len(base))
    equations = []
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


def _rotate(
    seen: tuple[IntVector, int], a_v: int, unseen: tuple[IntVector, int], a_i: int
) -> tuple[IntVector, int]:
    """Primitive normal and offset of the new facet through a horizon ridge
    and a new point ``p``, by rotating the invisible facet about the ridge.

    ``seen = (n_v, o_v)`` and ``unseen = (n_i, o_i)`` are the visible and
    the invisible facet on the ridge, with ``a_v = n_v . p - o_v > 0`` and
    ``a_i = n_i . p - o_i <= 0``.  The combination
    ``a_v (n_i, o_i) - a_i (n_v, o_v)`` is tight on the ridge (both facets
    are) and on ``p``, and it is valid for the old points because both
    coefficients are nonnegative, so it is outward.  ``a_i = 0`` (``p`` is
    coplanar with the invisible facet) gives that facet's hyperplane."""
    (n_v, o_v), (n_i, o_i) = seen, unseen
    normal = [a_v * x - a_i * y for x, y in zip(n_i, n_v)]
    content = gcd(*normal)
    return tuple(x // content for x in normal), (a_v * o_i - a_i * o_v) // content


def _int_point(point: Sequence) -> IntVector:
    if int_rows((point,)):
        return tuple(point)
    if not all(isinstance(x, (int, Fraction)) and x.denominator == 1 for x in point):
        raise ValueError(f"hull points must have integer coordinates, got {tuple(point)}")
    return tuple(x.numerator for x in point)


def _int_points(points: Iterable[Sequence]) -> list[IntVector]:
    """The distinct points as ``int`` tuples, in first-seen order: an
    all-``int`` set is checked once, any other point by :func:`_int_point`."""
    pts = list(dict.fromkeys(map(tuple, points)))
    return pts if int_rows(pts) else list(map(_int_point, pts))


class IncrementalHull:
    """Exact convex hull of integer points that accepts points one at a time.

    The affine hull of the initial point set is fixed at construction; every
    later point must lie in it.  The boundary is kept as its facets, in the
    projected coordinates of the affine hull: ``pieces`` maps a facet id to
    its primitive integer outward normal and offset, ``masks`` to the
    bitmask of the registered points tight on it (bit ``i`` stands for
    ``points[i]``), and ``adjacent`` to the ids of the facets sharing a
    ridge with it.  Rational point sets go through :func:`facets`, which
    scales them to integers first.

    :meth:`add_point` scans the facets, newest first, only up to the first
    one the point sees, then walks the adjacency map to the rest of the
    visible region, which is connected; a neighbour that is not visible
    lies across a horizon ridge.  A horizon facet whose hyperplane holds
    the point absorbs it; every other horizon ridge gets one new facet
    through the point, found by rotating the invisible facet's hyperplane
    about the ridge until it reaches the point (the rotation step of gift
    wrapping), so no linear system is solved after the initial simplex.
    Two facets through the point are adjacent when their shared points
    span a ridge: they share at least ``k - 1`` points and, for ``k > 3``,
    no third facet through the point holds all of them.  Points that no
    facet sees are not registered.
    """

    def __init__(self, points: Sequence[Sequence]):
        pts = _int_points(points)
        if not pts:
            raise ValueError("a hull needs at least one point")
        self.ambient_dim = len(pts[0])
        self.hull: AffineHull = affine_hull(pts)
        self.k = self.hull.dim
        self.points: list[IntVector] = []
        self.proj: list[IntVector] = []
        self._index: dict[IntVector, int] = {}
        self.pieces: dict[int, tuple[IntVector, int]] = {}
        self.masks: dict[int, int] = {}
        self.adjacent: dict[int, set[int]] = {}
        self._next_id = 0
        if self.k == 0:
            self._register(pts[0])
            return
        for i in self.hull.spanning:
            self._register(pts[i])
        # (k + 1) times the centroid of the initial simplex, an interior point
        ref = tuple(map(sum, zip(*self.proj)))
        everyone = (1 << (self.k + 1)) - 1
        simplex = []
        for omit in range(self.k, -1, -1):
            # k affinely independent points of Z^k span one hyperplane
            ((normal, offset),) = affine_hull(
                [q for i, q in enumerate(self.proj) if i != omit]
            ).equations
            side = sum(map(mul, normal, ref))
            scaled = (self.k + 1) * offset
            if side > scaled:
                normal = tuple(-h for h in normal)
                offset = -offset
            elif side == scaled:
                raise ValueError("interior reference point lies on a facet")  # unreachable
            simplex.append(self._add_facet((normal, offset), everyone ^ (1 << omit)))
        # any two facets of a simplex share a ridge
        for f in simplex:
            self.adjacent[f].update(g for g in simplex if g != f)
        for p in pts:
            self.add_point(p)

    def _register(self, ambient: IntVector) -> int:
        proj = self.hull.project(ambient)
        idx = len(self.points)
        self.points.append(ambient)
        self.proj.append(proj)
        self._index[proj] = idx
        return idx

    def _add_facet(self, plane: tuple[IntVector, int], mask: int) -> int:
        f = self._next_id
        self._next_id += 1
        self.pieces[f] = plane
        self.masks[f] = mask
        self.adjacent[f] = set()
        return f

    def add_point(self, point: Sequence) -> bool:
        """Insert an integer point; returns True when it enlarges the hull."""
        ambient = _int_point(point)
        if len(ambient) != self.ambient_dim:
            raise ValueError("point has the wrong dimension")
        if not self.hull.contains(ambient):
            raise ValueError(f"point {ambient} is outside the fixed affine hull")
        proj = self.hull.project(ambient)
        if proj in self._index or self.k == 0:
            return False  # a registered point, or a 0-dimensional hull's own point
        pieces, masks, adjacent = self.pieces, self.masks, self.adjacent
        # newest facets first: the enumeration's next point tends to lie beyond
        # the region the last insertions built
        for start, (normal, offset) in reversed(pieces.items()):
            excess = sum(map(mul, normal, proj)) - offset
            if excess > 0:
                break
        else:
            return False
        # excess normal . p - offset of every facet met: > 0 exactly when visible
        excesses = {start: excess}
        stack = [start]
        horizon: list[tuple[int, int, int]] = []
        while stack:
            seen = stack.pop()
            for other in adjacent[seen]:
                excess = excesses.get(other)
                if excess is None:
                    plane = pieces.get(other)
                    if plane is None:
                        raise RuntimeError("facet adjacency invariant broken")
                    excess = excesses[other] = sum(map(mul, plane[0], proj)) - plane[1]
                    if excess > 0:
                        stack.append(other)
                if excess <= 0:
                    horizon.append((seen, other, excess))
        bit = 1 << self._register(ambient)
        through: list[int] = []  # the facets that hold the new point
        for seen, other, excess in horizon:
            if excess == 0:
                if not masks[other] & bit:
                    masks[other] |= bit
                    through.append(other)
                continue
            new = self._add_facet(
                _rotate(pieces[seen], excesses[seen], pieces[other], excess),
                masks[seen] & masks[other] | bit,
            )
            adjacent[new].add(other)
            adjacent[other].add(new)
            through.append(new)
        for seen, excess in excesses.items():
            if excess > 0:
                del pieces[seen], masks[seen]
                for other in adjacent.pop(seen):
                    if excesses[other] <= 0:
                        adjacent[other].remove(seen)
        # two facets through the point share a ridge when they share at least
        # k - 1 points and no third facet holds those points; such a third
        # facet shares them with both, so it is among their near facets
        k = self.k
        near: dict[int, list[tuple[int, int]]] = {f: [] for f in through}
        for i, a in enumerate(through):
            for b in through[i + 1:]:
                shared = masks[a] & masks[b]
                if shared.bit_count() >= k - 1:
                    near[a].append((b, shared))
                    near[b].append((a, shared))
        for a, pairs in near.items():
            for b, shared in pairs:
                if a < b and (
                    k <= 3 or all(other & shared != shared for c, other in pairs if c != b)
                ):
                    adjacent[a].add(b)
                    adjacent[b].add(a)
        # a point beyond the hull lies on some new facet, and a facet has at
        # least k ridges
        if not through or any(len(adjacent[f]) < k for f in through):
            raise RuntimeError("facet adjacency invariant broken")
        return True

    def facet_system(self) -> FacetSystem:
        base = self.hull.base_point
        lifted = []
        for normal, offset in self.pieces.values():
            # lift_normal keeps the entries, so the lifted normal stays primitive
            amb = self.hull.lift_normal(normal)
            lifted.append((amb, offset + sum(map(mul, amb, base))))
        return FacetSystem(
            dim=self.ambient_dim,
            hull_dim=self.k,
            equations=self.hull.equations,
            facets=tuple(sorted(lifted)),
        )


def facets(source: VPolytope | Sequence[Sequence]) -> FacetSystem:
    """Facet system of the hull of rational points: the points are scaled by
    their common denominator, which keeps every normal, so the integer
    hull's offsets divide back exactly."""
    if isinstance(source, VPolytope):
        points: Sequence[Vector] = source.vertices
    else:
        points = sorted({exact_vector(p) for p in source})
    scale, ints = common_denominator(points)
    system = IncrementalHull(ints).facet_system()
    if scale == 1:
        return system
    return FacetSystem(
        dim=system.dim,
        hull_dim=system.hull_dim,
        equations=tuple((h, exact(Fraction(c, scale))) for h, c in system.equations),
        facets=tuple((h, exact(Fraction(c, scale))) for h, c in system.facets),
    )


class HullMembership(NamedTuple):
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


def _facet_sum_weights(
    system: FacetSystem, points: Sequence[Vector]
) -> list[tuple[int, ...] | None]:
    """Per point, the primitive sum of the outward normals of the facets tight
    at it when that weight is maximized there strictly over the other
    points, else None.

    Scaling every point by the common denominator keeps all maximizers, so
    tightness and strictness are decided with integer dot products.
    """
    scale, ints = common_denominator(points)
    planes = []
    for normal, offset in system.facets:
        scaled = offset * scale
        if scaled.denominator == 1:  # otherwise no scaled point is tight
            planes.append((normal, scaled.numerator))
    out: list[tuple[int, ...] | None] = []
    for i, p in enumerate(ints):
        w = [0] * system.dim
        for normal, offset in planes:
            if sum(map(mul, normal, p)) == offset:
                w = [a + b for a, b in zip(w, normal)]
        top = sum(map(mul, w, p))
        if all(sum(map(mul, w, q)) < top for j, q in enumerate(ints) if j != i):
            out.append(primitive(w))
        else:
            out.append(None)
    return out


def vertex_witnesses(
    system: FacetSystem, vertices: Sequence[Sequence]
) -> dict[Vector, tuple[int, ...]]:
    """A strict integer maximizing weight for every vertex of a polytope.

    ``system`` must be the facet system of the hull of ``vertices``.  A
    vertex's weight is the sum of the integer outward normals of the facets
    tight at it, which lies in the interior of its normal cone; exact integer
    dot products then check that it beats every other vertex strictly.
    Raises :class:`ExtremalityError` when a listed vertex fails the check: it
    is not extreme, so no strict weight exists.
    """
    pts = [exact_vector(v) for v in vertices]
    out: dict[Vector, tuple[int, ...]] = {}
    for p, w in zip(pts, _facet_sum_weights(system, pts)):
        if w is None:
            raise _not_extreme(p)
        out[p] = w
    return out


def extremality_witness(poly: VPolytope, vertex: Sequence) -> tuple[int, ...]:
    """An integer weight vector at which ``vertex`` is the unique maximizer
    over the polytope's vertices.  Raises :class:`ExtremalityError` when no
    such vector exists (the point is not extreme) and ``ValueError`` when the
    point is not a listed vertex."""
    target = exact_vector(vertex)
    if target not in poly.vertices:
        raise ValueError("witness requested for a point that is not a listed vertex")
    weights = dict(zip(poly.vertices, _facet_sum_weights(facets(poly), poly.vertices)))
    if weights[target] is None:
        raise _not_extreme(target)
    return weights[target]


def _not_extreme(vertex: Vector) -> ExtremalityError:
    return ExtremalityError(
        f"extremality violated: no weight vector separates vertex "
        f"({', '.join(map(str, vertex))}) strictly from the other vertices"
    )


# ---------------------------------------------------------------------------
# JSON form


def polytope_payload(poly: VPolytope) -> dict:
    level = poly.level
    vertices = poly.vertices
    return {
        "dim": poly.dim,
        "level": None if level is None else scalar_to_json(level),
        "vertices": (
            list(map(list, vertices)) if int_rows(vertices)
            else [[scalar_to_json(x) for x in v] for v in vertices]
        ),
    }


def polytope_from_payload(payload: dict) -> VPolytope:
    """The polytope of a JSON payload; ``ParseError`` when the payload does
    not have the shape :func:`polytope_payload` writes."""
    rows = payload.get("vertices") if isinstance(payload, dict) else None
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ParseError("polytope payload needs a 'vertices' list of coordinate lists")
    if not rows:
        raise ParseError("polytope payload has no vertices")
    # a 'p/q' string, a bool or a float sends the whole set through scalar_from_json
    if not int_rows(rows):
        rows = [[scalar_from_json(x) for x in row] for row in rows]
    dim = payload.get("dim", len(rows[0]))
    if type(dim) is not int:
        raise ParseError(f"polytope dimension must be an integer, got {dim!r}")
    return VPolytope(dim, rows)


def save_polytope(path: str | Path, poly: VPolytope) -> None:
    Path(path).write_text(render_json(polytope_payload(poly)) + "\n")


def load_polytope(path: str | Path) -> VPolytope:
    return polytope_from_payload(json.loads(Path(path).read_text()))
