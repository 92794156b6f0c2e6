"""Exact rational polytopes in vertex form.

Coordinates follow the exact-scalar rule of :mod:`statepoly.linalg`: a
vertex coordinate, a level or a facet offset is an ``int`` when it is
integral and a ``Fraction`` only otherwise, so integer vertices stay
``int`` tuples.  Facet enumeration is an incremental beneath-beyond hull
computed inside the affine hull of the input, so lower dimensional
polytopes work without perturbation, and membership is read off its facet
system (:func:`statepoly.lp.member_convex_hull`).  The
hull works in ``int`` only: its points, their projections, and every
piece's normal and offset are integers, and :func:`facets` scales a
rational point set to integers by its common denominator before building
it.  Facets are reported as primitive integer inequalities
``normal . x <= offset`` (equality exactly on the facet), together with
the integer equations ``normal . x == offset`` cutting out the affine hull.
The hull keeps a map from each ridge of its simplicial boundary to the two
pieces sharing it: a new point walks that map from the first piece it sees
to the whole visible region and its horizon, and each new piece comes from
rotating the hyperplane of the invisible piece on a horizon ridge onto the
point, with integer arithmetic and no linear solve.
A point of the polytope lies in its relative interior exactly when no facet
is tight at it (:meth:`FacetSystem.relative_interior`).

Extreme points and their certificates come from the facets: the sum of the
outward normals of the facets tight at a vertex is an integer weight that
the vertex maximizes strictly (:func:`vertex_witnesses`).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul
from pathlib import Path
from typing import Iterable, Sequence

from .linalg import common_denominator, exact, exact_vector, primitive
from .lp import AffineHull, affine_hull, member_convex_hull
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


@dataclass(frozen=True)
class VPolytope:
    """A polytope given by its vertex list (sorted, deduplicated).

    The constructor trusts its input: it does not check that every point is
    extreme.
    """

    dim: int
    vertices: tuple[Vector, ...]

    def __init__(self, dim: int, vertices: Iterable[Sequence]):
        pts = sorted({exact_vector(p) for p in vertices})
        for p in pts:
            if len(p) != dim:
                raise ValueError(f"vertex {p} does not have {dim} coordinates")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", tuple(pts))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def level(self) -> int | Fraction | None:
        """Common coordinate sum of all vertices, if there is one."""
        if not self.vertices:
            return None
        sums = {sum(v) for v in self.vertices}
        return exact(sums.pop()) if len(sums) == 1 else None

    def contains(self, point: Sequence) -> bool:
        if not self.vertices:
            return False
        return member_convex_hull(facets(self), self.vertices, point).inside

    def __iter__(self):
        return iter(self.vertices)


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


@dataclass(frozen=True)
class FacetSystem:
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


def _rotate(
    seen: tuple[IntVector, int], a_v: int, unseen: tuple[IntVector, int], a_i: int
) -> tuple[IntVector, int]:
    """Primitive normal and offset of the new piece through a horizon ridge
    and a new point ``p``, by rotating the invisible piece about the ridge.

    ``seen = (n_v, o_v)`` and ``unseen = (n_i, o_i)`` are the visible and
    the invisible piece on the ridge, with ``a_v = n_v . p - o_v > 0`` and
    ``a_i = n_i . p - o_i <= 0``.  The combination
    ``a_v (n_i, o_i) - a_i (n_v, o_v)`` is tight on the ridge (both pieces
    are) and on ``p``, and it is valid for the old points because both
    coefficients are nonnegative, so it is outward.  ``a_i = 0`` (``p`` is
    coplanar with the invisible piece) gives that piece's hyperplane."""
    (n_v, o_v), (n_i, o_i) = seen, unseen
    normal = [a_v * x - a_i * y for x, y in zip(n_i, n_v)]
    content = gcd(*normal)
    return tuple(x // content for x in normal), (a_v * o_i - a_i * o_v) // content


def _int_point(point: Sequence) -> IntVector:
    if all(type(x) is int for x in point):
        return tuple(point)
    if not all(isinstance(x, (int, Fraction)) and x.denominator == 1 for x in point):
        raise ValueError(f"hull points must have integer coordinates, got {tuple(point)}")
    return tuple(x.numerator for x in point)


class IncrementalHull:
    """Exact convex hull of integer points that accepts points one at a time.

    The affine hull of the initial point set is fixed at construction; every
    later point must lie in it.  The boundary is kept as a set of simplicial
    pieces in the projected coordinates of the affine hull, each with an
    integer outward normal and offset; coplanar pieces merge when facets are
    read out.  Rational point sets go through :func:`facets`, which scales
    them to integers first.

    ``ridges`` maps every ridge (a piece's vertex indices less one) to the
    two pieces that share it: the pieces triangulate a closed boundary, so a
    ridge with any other number of owners means the structure is broken.
    :meth:`add_point` scans the pieces, newest first, only up to the first
    one the point sees, then walks the ridge map across shared ridges to the rest of the
    visible region, which is connected; a ridge whose other owner is not
    visible lies on the horizon.  Each horizon ridge gets one new piece
    through the point, found by rotating the invisible piece's hyperplane
    about the ridge until it reaches the point (the rotation step of gift
    wrapping), so no linear system is solved after the initial simplex.
    """

    def __init__(self, points: Sequence[Sequence]):
        pts = list(dict.fromkeys(_int_point(p) for p in points))
        if not pts:
            raise ValueError("a hull needs at least one point")
        self.ambient_dim = len(pts[0])
        self.hull: AffineHull = affine_hull(pts)
        self.k = self.hull.dim
        self.points: list[IntVector] = []
        self.proj: list[IntVector] = []
        self._index: dict[IntVector, int] = {}
        self.pieces: dict[tuple[int, ...], tuple[IntVector, int]] = {}
        self.ridges: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        if self.k == 0:
            self._register(pts[0])
            return
        for i in self.hull.spanning:
            self._register(pts[i])
        # (k + 1) times the centroid of the initial simplex, an interior point
        ref = tuple(map(sum, zip(*self.proj)))
        for piece in combinations(range(self.k + 1), self.k):
            # k affinely independent points of Z^k span one hyperplane
            ((normal, offset),) = affine_hull([self.proj[i] for i in piece]).equations
            side = sum(map(mul, normal, ref))
            scaled = (self.k + 1) * offset
            if side > scaled:
                normal = tuple(-h for h in normal)
                offset = -offset
            elif side == scaled:
                raise ValueError("interior reference point lies on a facet")  # unreachable
            self._add_piece(piece, normal, offset)
        for p in pts:
            self.add_point(p)

    def _register(self, ambient: IntVector) -> int:
        proj = self.hull.project(ambient)
        idx = len(self.points)
        self.points.append(ambient)
        self.proj.append(proj)
        self._index[proj] = idx
        return idx

    def _add_piece(self, piece: tuple[int, ...], normal: IntVector, offset: int) -> None:
        self.pieces[piece] = (normal, offset)
        for ridge in combinations(piece, self.k - 1):
            self.ridges.setdefault(ridge, []).append(piece)

    def _remove_piece(self, piece: tuple[int, ...]) -> None:
        del self.pieces[piece]
        for ridge in combinations(piece, self.k - 1):
            owners = self.ridges[ridge]
            owners.remove(piece)
            if not owners:
                del self.ridges[ridge]

    def add_point(self, point: Sequence) -> bool:
        """Insert an integer point; returns True when it enlarges the hull."""
        ambient = _int_point(point)
        if len(ambient) != self.ambient_dim:
            raise ValueError("point has the wrong dimension")
        if not self.hull.contains(ambient):
            raise ValueError(f"point {ambient} is outside the fixed affine hull")
        proj = self.hull.project(ambient)
        if proj in self._index:
            return False
        if self.k == 0:
            return False  # equal projections in a 0-dimensional hull: duplicate
        # newest pieces first: the enumeration's next point tends to lie beyond
        # the region the last insertions built (on the rosary state at m=3 this
        # tests 48,106 pieces instead of 275,313 for 224 insertions)
        for start, (normal, offset) in reversed(self.pieces.items()):
            excess = sum(map(mul, normal, proj)) - offset
            if excess > 0:
                break
        else:
            self._register(ambient)
            return False
        # excess normal . p - offset of every piece met: > 0 exactly when visible
        excesses = {start: excess}
        stack = [start]
        rotated: list[tuple[tuple[int, ...], IntVector, int]] = []
        while stack:
            piece = stack.pop()
            for ridge in combinations(piece, self.k - 1):
                owners = self.ridges[ridge]
                if len(owners) != 2:
                    raise RuntimeError("boundary triangulation invariant broken")  # unreachable
                other = owners[1] if owners[0] == piece else owners[0]
                excess = excesses.get(other)
                if excess is None:
                    normal, offset = self.pieces[other]
                    excess = excesses[other] = sum(map(mul, normal, proj)) - offset
                    if excess > 0:
                        stack.append(other)
                if excess <= 0:  # a horizon ridge
                    rotated.append((ridge, *_rotate(
                        self.pieces[piece], excesses[piece], self.pieces[other], excess
                    )))
        for piece, excess in excesses.items():
            if excess > 0:
                self._remove_piece(piece)
        new_index = self._register(ambient)
        for ridge, normal, offset in rotated:
            self._add_piece(ridge + (new_index,), normal, offset)
        return True

    def facet_system(self) -> FacetSystem:
        base = self.hull.base_point
        lifted = []
        for normal, offset in set(self.pieces.values()):
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
    return {
        "dim": poly.dim,
        "level": None if level is None else scalar_to_json(level),
        "vertices": [
            list(v) if set(map(type, v)) == {int} else [scalar_to_json(x) for x in v]
            for v in poly.vertices
        ],
    }


def polytope_from_payload(payload: dict) -> VPolytope:
    """The polytope of a JSON payload; ``ParseError`` when the payload does
    not have the shape :func:`polytope_payload` writes."""
    rows = payload.get("vertices") if isinstance(payload, dict) else None
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ParseError("polytope payload needs a 'vertices' list of coordinate lists")
    if not rows:
        raise ParseError("polytope payload has no vertices")
    vertices = [[scalar_from_json(x) for x in row] for row in rows]
    dim = payload.get("dim", len(vertices[0]))
    if type(dim) is not int:
        raise ParseError(f"polytope dimension must be an integer, got {dim!r}")
    return VPolytope(dim, vertices)


def save_polytope(path: str | Path, poly: VPolytope) -> None:
    Path(path).write_text(render_json(polytope_payload(poly)) + "\n")


def load_polytope(path: str | Path) -> VPolytope:
    return polytope_from_payload(json.loads(Path(path).read_text()))
