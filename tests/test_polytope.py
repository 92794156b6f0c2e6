"""Vertex-presented polytopes: hulls, Minkowski sums, facets, round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly import polytope
from statepoly.lp import member_convex_hull
from statepoly.polytope import (
    ExtremalityError,
    FacetSystem,
    IncrementalHull,
    VPolytope,
    extremality_witness,
    extreme_points,
    facets,
    load_polytope,
    minkowski_sum,
    polytope_from_payload,
    polytope_payload,
    save_polytope,
    trivial_character_point,
    vertex_witnesses,
)
from conftest import (
    affinely_independent,
    brute_extreme_points,
    brute_hull_member,
    fraction_null_space,
    fraction_rref,
    lp_relative_interior,
    rand_point,
)


def test_vpolytope_sorts_and_dedupes():
    poly = VPolytope(2, [(1, 1), (0, 0), (1, 1), (2, 2)])
    assert poly.vertices == ((0, 0), (1, 1), (2, 2))
    assert poly.n_vertices == 3
    assert poly.dim == 2


def test_level_and_translate():
    poly = VPolytope(3, [(2, 0, 0), (0, 1, 1)])
    assert poly.level == 2
    assert VPolytope(2, [(1, 0), (0, 2)]).level is None
    shifted = poly.translate((1, 1, 1))
    assert shifted.vertices == ((1, 2, 2), (3, 1, 1))
    assert shifted.level == 5


def test_contains_uses_exact_hull():
    tri = VPolytope(2, [(0, 0), (4, 0), (0, 4)])
    assert tri.contains((1, 1))
    assert tri.contains((2, 2))  # boundary
    assert not tri.contains((3, 2))
    assert tri.contains((Fraction(1, 3), Fraction(2, 3)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_extreme_points_agree_with_brute_force(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    pts = [rand_point(rng, dim, span=3) for _ in range(rng.randint(1, 7))]
    got = extreme_points(pts)
    assert set(got.vertices) == brute_extreme_points(pts)


def _strictly_separable(points, target) -> bool:
    """Some weight beats every other listed point strictly at ``target``
    exactly when ``target`` is outside the hull of the others."""
    return not brute_hull_member([q for q in points if q != target], target)


def _is_strict(weights, target, points) -> bool:
    top = sum(Fraction(w) * x for w, x in zip(weights, target))
    return all(sum(Fraction(w) * x for w, x in zip(weights, q)) < top for q in points if q != target)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_facet_sum_witnesses_agree_with_strict_separation_lp(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    corners = [rand_point(rng, dim, span=4) for _ in range(rng.randint(1, dim + 2))]
    pts = set(corners)
    # midpoints of corner pairs: edge midpoints when the corners span a
    # simplex, otherwise interior or face points
    for a, b in zip(corners, corners[1:]):
        if rng.random() < 0.5:
            pts.add(tuple((x + y) / 2 for x, y in zip(a, b)))
    if rng.random() < 0.3:
        pts.add(tuple(sum(c) / len(corners) for c in zip(*corners)))
    if rng.random() < 0.5:
        # lift onto the hyperplane of coordinate sum 7: a lower-dimensional hull
        pts = {p + (7 - sum(p),) for p in pts}
        dim += 1
    pts = sorted(pts)
    poly = VPolytope(dim, pts)
    separable = {p: _strictly_separable(pts, p) for p in pts}
    for p in pts:
        if separable[p]:
            weights = extremality_witness(poly, p)
            assert all(type(w) is int for w in weights)
            assert _is_strict(weights, p, pts)
        else:
            with pytest.raises(ExtremalityError):
                extremality_witness(poly, p)
    system = facets(poly)
    if all(separable.values()):
        for p, weights in vertex_witnesses(system, pts).items():
            assert _is_strict(weights, p, pts)
    else:
        with pytest.raises(ExtremalityError):
            vertex_witnesses(system, pts)


def test_minkowski_sum_of_segments_is_square():
    horiz = VPolytope(2, [(0, 0), (1, 0)])
    vert = VPolytope(2, [(0, 0), (0, 1)])
    square = minkowski_sum(horiz, vert)
    assert set(square.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_minkowski_sum_properties(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    p = extreme_points([rand_point(rng, dim, span=3) for _ in range(rng.randint(1, 4))])
    q = extreme_points([rand_point(rng, dim, span=3) for _ in range(rng.randint(1, 4))])
    pq = minkowski_sum(p, q)
    qp = minkowski_sum(q, p)
    assert pq.vertices == qp.vertices  # commutative
    # vertices of the sum are sums of vertices
    pairwise = {tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices}
    assert set(pq.vertices) <= pairwise
    # every pairwise sum lies in the hull
    for s in pairwise:
        assert brute_hull_member(pq.vertices, s)


def test_minkowski_sum_many_matches_iterated():
    polys = [
        VPolytope(2, [(0, 0), (1, 0)]),
        VPolytope(2, [(0, 0), (0, 1)]),
        VPolytope(2, [(0, 0), (1, 1)]),
    ]
    via_many = polys[0] + polys[1] + polys[2]
    via_fold = minkowski_sum(minkowski_sum(polys[0], polys[1]), polys[2])
    assert via_many.vertices == via_fold.vertices
    # levels add when all summands have constant level
    leveled = [VPolytope(2, [(1, 0), (0, 1)]), VPolytope(2, [(2, 0), (0, 2)])]
    assert (leveled[0] + leveled[1]).level == 3


def test_trivial_character_point():
    assert trivial_character_point(11, 2, 50) == (Fraction(25, 3),) * 12
    assert trivial_character_point(4, 3, 18) == (Fraction(54, 5),) * 5
    assert trivial_character_point(1, 1, 1) == (Fraction(1, 2), Fraction(1, 2))


# ---------------------------------------------------------------------------
# facet systems


def audit_facets(system: FacetSystem, vertices):
    # every vertex satisfies every equation exactly and every facet weakly
    for v in vertices:
        for normal, offset in system.equations:
            assert sum(Fraction(n) * Fraction(x) for n, x in zip(normal, v)) == offset
        for normal, offset in system.facets:
            assert sum(Fraction(n) * Fraction(x) for n, x in zip(normal, v)) <= offset
    # each facet is tight on at least hull_dim vertices (a (d-1)-face needs d
    # affinely independent points)
    for normal, offset in system.facets:
        tight = [
            v
            for v in vertices
            if sum(Fraction(n) * Fraction(x) for n, x in zip(normal, v)) == offset
        ]
        assert len(tight) >= system.hull_dim


def test_facets_of_triangle():
    tri = VPolytope(2, [(0, 0), (2, 0), (0, 2)])
    system = facets(tri)
    assert system.hull_dim == 2
    assert len(system.facets) == 3
    assert not system.equations
    audit_facets(system, tri.vertices)
    assert member_convex_hull(system, tri.vertices, (1, 1)).inside
    assert not member_convex_hull(system, tri.vertices, (2, 2)).inside


def test_facets_of_leveled_simplex_have_equation():
    simplex = VPolytope(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    system = facets(simplex)
    assert system.hull_dim == 2
    assert len(system.equations) == 1
    normal, offset = system.equations[0]
    assert abs(offset / sum(normal)) == 2 or offset == 2 * sum(normal) / len(normal)
    audit_facets(system, simplex.vertices)


def test_facets_of_point_and_segment():
    point = VPolytope(2, [(1, 2)])
    system = facets(point)
    assert system.hull_dim == 0
    assert member_convex_hull(system, point.vertices, (1, 2)).inside
    assert not member_convex_hull(system, point.vertices, (1, 3)).inside
    seg = VPolytope(2, [(0, 0), (2, 4)])
    system = facets(seg)
    assert system.hull_dim == 1
    assert member_convex_hull(system, seg.vertices, (1, 2)).inside
    assert not member_convex_hull(system, seg.vertices, (3, 6)).inside
    assert not member_convex_hull(system, seg.vertices, (1, 1)).inside


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_facet_vertex_round_trip(seed):
    """vertices -> facets -> membership agrees with hull membership."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    poly = extreme_points([rand_point(rng, dim, span=3) for _ in range(rng.randint(1, 6))])
    system = facets(poly)
    audit_facets(system, poly.vertices)
    for _ in range(6):
        probe = rand_point(rng, dim, span=4)
        inside = member_convex_hull(system, poly.vertices, probe).inside
        assert inside == brute_hull_member(poly.vertices, probe)
    # vertices of the polytope are exactly the hull points tight on >= hull_dim
    # facets (checked on the vertex set itself: each vertex must be tight on
    # at least hull_dim facet inequalities)
    for v in poly.vertices:
        tight = sum(
            1
            for normal, offset in system.facets
            if sum(Fraction(n) * Fraction(x) for n, x in zip(normal, v)) == offset
        )
        assert tight >= system.hull_dim or poly.n_vertices == 1


def brute_facets(points) -> set[frozenset]:
    """Tight point sets of the facets, by brute force: every affinely
    independent ``d``-subset spans a hyperplane of the ``d``-dimensional
    affine hull; keep those with every point on one side."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    directions, _ = fraction_rref(diffs)
    d = len(directions)
    found: set[frozenset] = set()
    if d == 0:
        return found
    for subset in combinations(pts, d):
        if not affinely_independent(subset):
            continue
        # the normal of the subset's span inside the affine hull
        spans = [
            [sum(x * (a - b) for x, a, b in zip(row, q, subset[0])) for row in directions]
            for q in subset[1:]
        ]
        (coeffs,) = fraction_null_space(spans, d)
        normal = [sum(c * row[j] for c, row in zip(coeffs, directions)) for j in range(len(base))]
        values = {p: sum(h * x for h, x in zip(normal, p)) for p in pts}
        level = values[subset[0]]
        if all(v <= level for v in values.values()) or all(v >= level for v in values.values()):
            found.add(frozenset(p for p in pts if values[p] == level))
    return found


def rand_point_set(rng: random.Random, kind: str) -> list[tuple]:
    dim = rng.randint(1, 3)
    count = rng.randint(1, 7)
    if kind == "integer":
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)]
    else:
        pts = [rand_point(rng, dim, span=3) for _ in range(count)]
    if kind == "lifted":
        pts = [p + (Fraction(5, 2) - sum(p),) for p in pts]
    return pts


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(["integer", "fraction", "lifted"]))
def test_facets_agree_with_brute_force(seed, kind):
    pts = rand_point_set(random.Random(seed), kind)
    system = facets(pts)
    exact = {tuple(Fraction(x) for x in p) for p in pts}
    audit_facets(system, exact)
    tight = [
        frozenset(p for p in exact if sum(h * x for h, x in zip(normal, p)) == offset)
        for normal, offset in system.facets
    ]
    assert len(set(tight)) == len(tight)
    assert set(tight) == brute_facets(pts)
    dim = len(fraction_rref([[a - b for a, b in zip(p, pts[0])] for p in pts])[1])
    assert system.hull_dim == dim
    assert len(system.equations) == len(pts[0]) - dim


def test_integer_points_give_int_facet_systems():
    rng = random.Random(5)
    for _ in range(20):
        pts = rand_point_set(rng, "integer")
        lifted = [p + (4 - sum(p),) for p in pts]
        for system in (facets(pts), facets(VPolytope(len(lifted[0]), lifted))):
            for normal, offset in system.equations + system.facets:
                assert all(type(h) is int for h in normal)
                assert type(offset) is int


def test_hull_accepts_only_integer_points():
    hull = IncrementalHull([(0, 0), (2, 0), (0, 2)])
    before = dict(hull.pieces)
    for bad in [(Fraction(1, 2), 3), (0.0, 3)]:
        with pytest.raises(ValueError, match="integer"):
            hull.add_point(bad)
    assert hull.pieces == before
    assert hull.add_point((Fraction(3), 3)) is True
    with pytest.raises(ValueError, match="integer"):
        IncrementalHull([(0, 0), (Fraction(1, 3), 1)])


# ---------------------------------------------------------------------------
# incremental insertion: ridge map, visible-region walk, ridge rotation


# taken at import, before a test patches the module attribute out
REFERENCE_HYPERPLANE = polytope._hyperplane_through


def audit_ridges(hull: IncrementalHull) -> None:
    """Every ridge has exactly two owners, every piece is registered under
    each of its ridges, and the map holds no other ridge."""
    expected: dict[tuple, set] = {}
    for piece in hull.pieces:
        for ridge in combinations(piece, hull.k - 1):
            expected.setdefault(ridge, set()).add(piece)
    assert {ridge: set(owners) for ridge, owners in hull.ridges.items()} == expected
    assert all(len(owners) == 2 for owners in hull.ridges.values())


def oriented_hyperplane(hull: IncrementalHull, piece: tuple) -> tuple:
    """The reference piece: the Bareiss hyperplane through the piece's
    points, oriented so that every inserted point lies on its inner side."""
    normal, offset = REFERENCE_HYPERPLANE([hull.proj[i] for i in piece])
    if any(sum(h * x for h, x in zip(normal, q)) > offset for q in hull.proj):
        normal, offset = tuple(-h for h in normal), -offset
    assert all(sum(h * x for h, x in zip(normal, q)) <= offset for q in hull.proj)
    return normal, offset



def insertion_cases(seed: int) -> list[list[tuple[int, ...]]]:
    """Integer point sets with many coplanar points: points of a line, grid
    points of the plane and of space, and grid points of the plane lifted
    to a 2-dimensional affine hull in R^3 and in R^4."""
    rng = random.Random(seed)
    grid2 = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    grid3 = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    return [
        [(rng.randint(-6, 6),) for _ in range(6)],
        rng.sample(grid2, 12),
        rng.sample(grid3, 14),
        [(x, y, 4 - x - y) for x, y in rng.sample(grid2, 10)],
        [(x, y, 2 * x - y, 6 - x - y) for x, y in rng.sample(grid2, 10)],
    ]


def simplex_hull(pts: list[tuple[int, ...]]) -> IncrementalHull:
    """A hull on the first affinely spanning points of ``pts`` only, so the
    rest can be inserted one at a time."""
    spanning = IncrementalHull(pts).hull.spanning
    return IncrementalHull([pts[i] for i in spanning])


@pytest.mark.parametrize("seed", range(6))
def test_rotated_pieces_equal_the_hyperplane_through_them(seed, monkeypatch):
    coplanar_insertions = 0
    for pts in insertion_cases(seed):
        hull = simplex_hull(pts)
        audit_ridges(hull)
        # after the initial simplex no piece may come from a linear solve
        monkeypatch.setattr(polytope, "_hyperplane_through", None)
        for p in pts:
            old = dict(hull.pieces)
            hull.add_point(p)
            audit_ridges(hull)
            for piece, plane in hull.pieces.items():
                assert plane == oriented_hyperplane(hull, piece)
                if piece not in old and plane in old.values():
                    coplanar_insertions += 1  # a_i = 0: the new piece extends its neighbour's
        monkeypatch.undo()
    assert coplanar_insertions > 0


@pytest.mark.parametrize("seed", range(4))
def test_random_insertion_orders_agree_with_brute_force(seed):
    rng = random.Random(100 + seed)
    for pts in insertion_cases(seed):
        pts = list(dict.fromkeys(pts))[:7]
        exact = [tuple(Fraction(x) for x in p) for p in pts]
        expected_facets = brute_facets(pts)
        expected_vertices = brute_extreme_points(pts)
        for _ in range(3):
            rng.shuffle(pts)
            hull = simplex_hull(pts)
            for p in pts:
                hull.add_point(p)
                audit_ridges(hull)
            system = hull.facet_system()
            assert system == facets(pts)
            tight = {
                frozenset(p for p in exact if sum(h * x for h, x in zip(normal, p)) == offset)
                for normal, offset in system.facets
            }
            assert tight == expected_facets
            weights = polytope._facet_sum_weights(system, exact)
            assert {p for p, w in zip(exact, weights) if w is not None} == expected_vertices
            for _ in range(3):  # affine combinations p + q - r: in the affine hull
                probe = tuple(a + b - c for a, b, c in zip(*rng.choices(pts, k=3)))
                inside = member_convex_hull(system, pts, probe).inside
                assert inside == brute_hull_member(pts, probe)


def test_a_ridge_with_more_than_two_owners_is_refused():
    hull = IncrementalHull([(0, 0), (2, 0), (0, 2)])
    for owners in hull.ridges.values():
        owners.append(owners[0])
    with pytest.raises(RuntimeError, match="invariant broken"):
        hull.add_point((5, 5))


# ---------------------------------------------------------------------------
# the exact-scalar rule: int when integral, Fraction otherwise, never float


def test_integer_vertices_level_and_witnesses_are_int():
    poly = VPolytope(3, [(2, 0, 0), (0, Fraction(4, 2), 0), (0, 0, 2), (Fraction(2), 0, 0)])
    assert poly.vertices == ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    assert all(type(x) is int for v in poly.vertices for x in v)
    assert type(poly.level) is int and poly.level == 2
    shifted = poly.translate((Fraction(3, 3), 0, -1))
    assert all(type(x) is int for v in shifted.vertices for x in v)
    assert type(shifted.level) is int
    witnesses = vertex_witnesses(facets(poly), poly.vertices)
    for vertex, weights in witnesses.items():
        assert all(type(x) is int for x in vertex)
        assert all(type(w) is int for w in weights)
    summed = minkowski_sum(poly, poly)
    assert all(type(x) is int for v in summed.vertices for x in v)


def test_fraction_only_for_non_integral_coordinates():
    poly = VPolytope(2, [(Fraction(1, 2), Fraction(3, 2)), (Fraction(2, 2), 1)])
    assert [tuple(type(x) for x in v) for v in poly.vertices] == [
        (Fraction, Fraction),
        (int, int),
    ]
    # the half-integral sums add up to an integral level, which is an int
    assert type(poly.level) is int and poly.level == 2
    half = VPolytope(2, [(Fraction(1, 2), 0), (0, Fraction(1, 2))])
    assert half.level == Fraction(1, 2) and type(half.level) is Fraction
    system = facets(poly)
    for _, offset in system.equations + system.facets:
        assert type(offset) in (int, Fraction)
    for weights in vertex_witnesses(system, poly.vertices).values():
        assert all(type(w) is int for w in weights)
    back = polytope_from_payload({"vertices": [["1/2", "3/2"], ["2/2", 1]]})
    assert back == poly
    assert type(back.vertices[1][0]) is int


# ---------------------------------------------------------------------------
# relative interior: no facet tight at a point of the polytope


def _centroid(points):
    return tuple(sum(column, Fraction(0)) / len(points) for column in zip(*points))


def test_relative_interior_predicate_agrees_with_lp():
    outcomes = {True: 0, False: 0}
    for seed in range(20):
        rng = random.Random(seed)
        for kind, lift in (("integer", False), ("fraction", False), ("lifted", False), ("integer", True)):
            pts = rand_point_set(rng, kind)
            if lift:  # integer points on a hyperplane: a lower-dimensional integer hull
                pts = [p + (4 - sum(p),) for p in pts]
            system = facets(pts)
            vertices = extreme_points(pts).vertices
            # vertices, the centroid (relative interior), the centroid of the
            # points on each facet (relative boundary), and a few midpoints
            candidates = list(vertices) + [_centroid(pts)]
            for normal, offset in system.facets:
                on_facet = [p for p in pts if sum(h * x for h, x in zip(normal, p)) == offset]
                candidates.append(_centroid(on_facet))
            pairs = list(combinations(vertices, 2))
            for a, b in rng.sample(pairs, min(3, len(pairs))):
                candidates.append(_centroid([a, b]))
            for point in candidates:
                expected = lp_relative_interior(pts, point)
                outcomes[expected] += 1
                assert member_convex_hull(system, pts, point).inside
                assert system.relative_interior(point) == expected
    assert outcomes[True] > 20 and outcomes[False] > 20


# ---------------------------------------------------------------------------
# serialization


def test_payload_round_trip(tmp_path):
    poly = VPolytope(3, [(1, 0, 2), (0, Fraction(3, 2), Fraction(3, 2))])
    payload = polytope_payload(poly)
    assert payload["dim"] == 3
    assert payload["level"] == 3
    back = polytope_from_payload(payload)
    assert back == poly
    path = tmp_path / "poly.json"
    save_polytope(path, poly)
    assert load_polytope(path) == poly
    # rationals serialize as strings, never floats
    text = path.read_text()
    assert "3/2" in text
    assert not any(
        isinstance(x, float)
        for row in json.loads(text)["vertices"]
        for x in row
    )


def test_payload_rejects_garbage():
    with pytest.raises(ValueError):
        polytope_from_payload({"not": "a polytope"})
    with pytest.raises(ValueError):
        polytope_from_payload({"vertices": []})


def test_vpolytope_assume_extreme_shortcut():
    # extreme_points drops the points that are not vertices; the raw
    # constructor trusts its input
    pts = [(0, 0), (1, 0), (2, 0)]
    assert extreme_points(pts).vertices == ((0, 0), (2, 0))
    assert VPolytope(2, pts).vertices == ((0, 0), (1, 0), (2, 0))
