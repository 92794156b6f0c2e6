"""Vertex-presented polytopes: hulls, Minkowski sums, facets, round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly import polytope
from statepoly.parsing import scalar_to_json
from statepoly.polytope import (
    ExtremalityError,
    FacetSystem,
    IncrementalHull,
    VPolytope,
    extremality_witness,
    facets,
    load_polytope,
    member_convex_hull,
    polytope_from_payload,
    polytope_payload,
    save_polytope,
    trivial_character_point,
    vertex_witnesses,
)
from statepoly.state import enumerate_state_polytope
from conftest import (
    ReferenceIncrementalHull,
    affinely_independent,
    benchmark_ideal,
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
    assert len(poly.vertices) == 3
    assert poly.dim == 2


def test_level_and_translate():
    poly = VPolytope(3, [(2, 0, 0), (0, 1, 1)])
    assert poly.level == 2
    assert VPolytope(2, [(1, 0), (0, 2)]).level is None
    shifted = VPolytope(3, [tuple(a + 1 for a in v) for v in poly.vertices])
    assert shifted.vertices == ((1, 2, 2), (3, 1, 1))
    assert shifted.level == 5


def test_contains_uses_exact_hull():
    tri = VPolytope(2, [(0, 0), (4, 0), (0, 4)])
    assert tri.contains((1, 1))
    assert tri.contains((2, 2))  # boundary
    assert not tri.contains((3, 2))
    assert tri.contains((Fraction(1, 3), Fraction(2, 3)))


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


def test_trivial_character_point():
    assert trivial_character_point(11, 2, 50) == (Fraction(25, 3),) * 12
    assert trivial_character_point(4, 3, 18) == (Fraction(54, 5),) * 5
    assert trivial_character_point(1, 1, 1) == (Fraction(1, 2), Fraction(1, 2))


# ---------------------------------------------------------------------------
# facet systems


def audit_facet_system(system: FacetSystem, vertices):
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
    audit_facet_system(system, tri.vertices)
    assert member_convex_hull(system, tri.vertices, (1, 1)).inside
    assert not member_convex_hull(system, tri.vertices, (2, 2)).inside


def test_facets_of_leveled_simplex_have_equation():
    simplex = VPolytope(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    system = facets(simplex)
    assert system.hull_dim == 2
    assert len(system.equations) == 1
    normal, offset = system.equations[0]
    assert abs(offset / sum(normal)) == 2 or offset == 2 * sum(normal) / len(normal)
    audit_facet_system(system, simplex.vertices)


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
    pts = [rand_point(rng, dim, span=3) for _ in range(rng.randint(1, 6))]
    poly = VPolytope(dim, brute_extreme_points(pts))
    system = facets(poly)
    audit_facet_system(system, poly.vertices)
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
        assert tight >= system.hull_dim or len(poly.vertices) == 1


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
    audit_facet_system(system, exact)
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
# incremental insertion: facet masks, adjacency walk, ridge rotation


# taken at import, before a test patches the module attribute out
REFERENCE_AFFINE_HULL = polytope.affine_hull


def span_dim(points) -> int:
    """Dimension of the affine span of ``points``; -1 for no point."""
    return REFERENCE_AFFINE_HULL(points).dim if points else -1


def registered(hull: IncrementalHull, mask: int) -> list:
    return [q for i, q in enumerate(hull.proj) if mask >> i & 1]


def audit_facets(hull: IncrementalHull) -> None:
    """Each facet's mask is exactly the registered points tight on it, those
    points have affine rank ``k`` and the facet's plane is their one
    equation, oriented outward; adjacency is symmetric and pairs exactly
    the facets whose shared points span dimension ``k - 2``."""
    assert hull.pieces.keys() == hull.masks.keys() == hull.adjacent.keys()
    for f, (normal, offset) in hull.pieces.items():
        values = [sum(h * x for h, x in zip(normal, q)) for q in hull.proj]
        assert max(values) == offset
        assert hull.masks[f] == sum(1 << i for i, v in enumerate(values) if v == offset)
        tight = registered(hull, hull.masks[f])
        assert span_dim(tight) == hull.k - 1
        ((equation, level),) = REFERENCE_AFFINE_HULL(tight).equations
        assert (normal, offset) in ((equation, level), (tuple(-h for h in equation), -level))
        assert hull.adjacent[f] <= hull.pieces.keys()
    for a, b in combinations(hull.pieces, 2):
        ridge = span_dim(registered(hull, hull.masks[a] & hull.masks[b])) == hull.k - 2
        assert (b in hull.adjacent[a]) == (a in hull.adjacent[b]) == ridge


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


def simplex_hull(pts: list[tuple[int, ...]], kind=IncrementalHull):
    """A hull on the first affinely spanning points of ``pts`` only, so the
    rest can be inserted one at a time."""
    spanning = REFERENCE_AFFINE_HULL(pts).spanning
    return kind([pts[i] for i in spanning])


@pytest.mark.parametrize("seed", range(6))
def test_rotated_pieces_equal_the_hyperplane_through_them(seed, monkeypatch):
    absorptions = 0
    for pts in insertion_cases(seed):
        hull = simplex_hull(pts)
        audit_facets(hull)
        # after the initial simplex no facet may come from a linear solve
        monkeypatch.setattr(polytope, "affine_hull", None)
        for p in pts:
            old = dict(hull.masks)
            hull.add_point(p)
            audit_facets(hull)
            # a facet that outlives the insertion and gains the point absorbed it
            absorptions += sum(mask != old.get(f, mask) for f, mask in hull.masks.items())
        monkeypatch.undo()
    assert absorptions > 0


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
                audit_facets(hull)
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


def test_a_broken_adjacency_map_is_refused():
    # a neighbour that is no facet, and a facet with no neighbours
    for breakage in (lambda ids: ids.add(max(ids) + 100), set.clear):
        hull = IncrementalHull([(0, 0), (2, 0), (0, 2)])
        for ids in hull.adjacent.values():
            breakage(ids)
        with pytest.raises(RuntimeError, match="invariant broken"):
            hull.add_point((5, 5))


# ---------------------------------------------------------------------------
# edge cases of insertion, against brute force


def hull_facet_sets(hull: IncrementalHull, pts) -> set[frozenset]:
    """The input points tight on each facet of the hull's facet system."""
    return {
        frozenset(tuple(Fraction(x) for x in p) for p in pts
                  if sum(h * x for h, x in zip(normal, p)) == offset)
        for normal, offset in hull.facet_system().facets
    }


def state_of(hull: IncrementalHull) -> tuple:
    return (list(hull.points), dict(hull.pieces), dict(hull.masks),
            {f: set(ids) for f, ids in hull.adjacent.items()})


def test_a_point_hull_ignores_its_repeated_point():
    hull = IncrementalHull([(3, -1), (3, -1)])
    assert (hull.k, hull.points, hull.pieces) == (0, [(3, -1)], {})
    assert hull.add_point((3, -1)) is False
    assert hull.facet_system().facets == () and brute_facets([(3, -1)]) == set()
    with pytest.raises(ValueError, match="outside the fixed affine hull"):
        hull.add_point((3, 0))


def test_a_segment_grows_at_both_ends_and_ignores_its_interior():
    line = [(x, 2 * x + 1) for x in range(-4, 5)]
    hull = IncrementalHull([line[3], line[5]])
    assert hull.add_point(line[4]) is False  # interior: not registered
    assert len(hull.points) == 2
    inserted = [line[3], line[5]]
    for p, grows in [(line[8], True), (line[6], False), (line[0], True), (line[2], False)]:
        assert hull.add_point(p) is grows
        inserted.append(p)
        audit_facets(hull)
        assert hull_facet_sets(hull, inserted) == brute_facets(inserted)
    assert hull.facet_system().facets == facets([line[0], line[8]]).facets


def test_a_point_on_a_facet_plane_is_absorbed():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    hull = IncrementalHull(square)
    bottom = next(f for f, (normal, offset) in hull.pieces.items() if normal == (0, -1))
    assert hull.add_point((4, 0)) is True  # beyond the right edge, on the bottom's line
    assert bottom in hull.pieces and hull.masks[bottom] >> hull.points.index((4, 0)) & 1
    audit_facets(hull)
    pts = square + [(4, 0)]
    assert hull_facet_sets(hull, pts) == brute_facets(pts)
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    hull = IncrementalHull(cube)
    assert hull.add_point((2, 2, 0)) is True  # in the plane z = 0, beyond an edge
    audit_facets(hull)
    assert hull_facet_sets(hull, cube + [(2, 2, 0)]) == brute_facets(cube + [(2, 2, 0)])


def test_re_adding_an_interior_point_changes_nothing():
    hull = IncrementalHull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
    before = state_of(hull)
    for p in [(1, 1, 1), (1, 1, 1), (0, 0, 0), (2, 0, 0)]:
        assert hull.add_point(p) is False
        assert state_of(hull) == before


def test_integral_fractions_are_integer_points():
    pts = [(Fraction(0), Fraction(4, 2)), (3, 0), (Fraction(6, 3), Fraction(5))]
    hull = IncrementalHull(pts)
    assert all(type(x) is int for p in hull.points for x in p)
    assert hull.add_point((Fraction(9, 3), Fraction(5))) is True
    ints = [(0, 2), (3, 0), (2, 5), (3, 5)]
    assert hull.facet_system() == IncrementalHull(ints).facet_system()
    assert hull_facet_sets(hull, ints) == brute_facets(ints)


# ---------------------------------------------------------------------------
# the facet hull against the simplicial hull it replaced


DATA = Path(__file__).resolve().parent.parent / "data"


def assert_same_as_reference(pts: list[tuple[int, ...]]) -> None:
    """From the first spanning points, every point in turn, then every point
    again: the same ``add_point`` answers and the same facet system as the
    simplicial hull; and the same facet system when built in one go."""
    hull, ref = simplex_hull(pts), simplex_hull(pts, ReferenceIncrementalHull)
    for p in pts + pts:
        assert hull.add_point(p) == ref.add_point(p), p
    assert hull.facet_system() == ref.facet_system()
    assert IncrementalHull(pts).facet_system() == ReferenceIncrementalHull(pts).facet_system()


def lattice_set(rng: random.Random, dim: int) -> list[tuple[int, ...]]:
    """Points of a small box of Z^dim, so many are coplanar; sometimes
    lifted into a dim-dimensional affine hull of Z^(dim + 2)."""
    side = rng.randint(1, 2)
    count = rng.randint(dim + 2, 4 * dim + 4)
    pts = [tuple(rng.randint(0, side) for _ in range(dim)) for _ in range(count)]
    if rng.random() < 0.3:
        pts = [p + (sum(p) - 3, 2 * p[0] - p[-1]) for p in pts]
    return pts


@pytest.mark.parametrize("seed", range(4))
def test_the_facet_hull_matches_the_simplicial_hull_on_coplanar_sets(seed):
    for pts in insertion_cases(seed):
        assert_same_as_reference(pts)
    rng = random.Random(seed)
    for dim in range(1, 7):
        for _ in range(6):
            assert_same_as_reference(lattice_set(rng, dim))


def benchmark_vertices(name: str, m: int | None) -> tuple[tuple[int, ...], ...]:
    if m is None:
        return load_polytope(DATA / f"bridge/{name}.json").vertices
    return enumerate_state_polytope(benchmark_ideal(name), m).polytope.vertices


@pytest.mark.parametrize(
    "name, m",
    [("rosary", 2), ("sextic", 4), ("sextic", 6), ("sextic", 12),
     ("w2_left", None), ("elliptic", None), ("w2_right", None)],
)
def test_the_facet_hull_matches_the_simplicial_hull_on_benchmark_polytopes(name, m):
    pts = list(benchmark_vertices(name, m))
    for seed in range(3):
        random.Random(seed).shuffle(pts)
        assert_same_as_reference(pts)


# ---------------------------------------------------------------------------
# the exact-scalar rule: int when integral, Fraction otherwise, never float


def test_integer_vertices_level_and_witnesses_are_int():
    poly = VPolytope(3, [(2, 0, 0), (0, Fraction(4, 2), 0), (0, 0, 2), (Fraction(2), 0, 0)])
    assert poly.vertices == ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    assert all(type(x) is int for v in poly.vertices for x in v)
    assert type(poly.level) is int and poly.level == 2
    shift = (Fraction(3, 3), 0, -1)
    shifted = VPolytope(3, [tuple(a + b for a, b in zip(v, shift)) for v in poly.vertices])
    assert all(type(x) is int for v in shifted.vertices for x in v)
    assert type(shifted.level) is int
    witnesses = vertex_witnesses(facets(poly), poly.vertices)
    for vertex, weights in witnesses.items():
        assert all(type(x) is int for x in vertex)
        assert all(type(w) is int for w in weights)


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
            vertices = VPolytope(len(pts[0]), brute_extreme_points(pts)).vertices
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


def test_payload_and_file_bytes_match_the_json_module(tmp_path):
    # an all-int vertex row is passed through as a list; the reference
    # converts every coordinate, and save_polytope wrote json.dumps's text
    rng = random.Random(3)
    path = tmp_path / "poly.json"
    for rational in (False, True):
        for _ in range(10):
            dim = rng.randrange(1, 5)
            points = [rand_point(rng, dim) for _ in range(rng.randrange(1, 7))]
            if not rational:
                points = [tuple(int(x) for x in p) for p in points]
            poly = VPolytope(dim, points)
            level = poly.level
            reference = {
                "dim": poly.dim,
                "level": None if level is None else scalar_to_json(level),
                "vertices": [[scalar_to_json(x) for x in v] for v in poly.vertices],
            }
            payload = polytope_payload(poly)
            assert payload == reference
            assert [list(map(type, row)) for row in payload["vertices"]] == [
                list(map(type, row)) for row in reference["vertices"]
            ]
            save_polytope(path, poly)
            assert path.read_text() == json.dumps(reference, indent=2, sort_keys=True) + "\n"
    save_polytope(path, VPolytope(2, [(0, 2), (Fraction(1, 2), Fraction(3, 2))]))
    assert path.read_text() == (
        '{\n  "dim": 2,\n  "level": 2,\n  "vertices": [\n    [\n      0,\n      2\n    ],\n'
        '    [\n      "1/2",\n      "3/2"\n    ]\n  ]\n}\n'
    )


def test_payload_rejects_garbage():
    with pytest.raises(ValueError):
        polytope_from_payload({"not": "a polytope"})
    with pytest.raises(ValueError):
        polytope_from_payload({"vertices": []})


def test_vpolytope_assume_extreme_shortcut():
    # the constructor trusts its input: a point that is not a vertex stays
    pts = [(0, 0), (1, 0), (2, 0)]
    assert VPolytope(2, pts).vertices == ((0, 0), (1, 0), (2, 0))
