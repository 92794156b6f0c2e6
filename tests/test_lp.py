"""Exact LP: known answers, certificate audits, brute-force hull agreement."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly.linalg import primitive
from statepoly.lp import LPResult, audit_feasibility, solve_lp
from statepoly.polytope import affine_hull, facets, member_convex_hull
from conftest import brute_hull_member, lp_hull_member, rand_point, reference_member_convex_hull


def solved(augmented):
    res = solve_lp(augmented)
    assert audit_feasibility(augmented, res) == []
    return res


# ---------------------------------------------------------------------------
# known answers of {x >= 0 : A x = b}, given as [A | b]


def test_infeasible_has_farkas_certificate():
    # x <= 1 and x >= 2 with slack and surplus columns
    res = solved([[1, 1, 0, 1], [1, 0, -1, 2]])
    assert res.status == "infeasible"
    assert res.farkas is not None and res.point is None


def test_rational_data_stays_exact():
    # 2/5 x + y = 11/10 and x + y = 2 meet only at (3/2, 1/2)
    res = solved([[Fraction(2, 5), 1, Fraction(11, 10)], [1, 1, 2]])
    assert res.status == "feasible"
    assert res.point == (Fraction(3, 2), Fraction(1, 2))
    assert all(type(v) is Fraction for v in res.point)


def test_redundant_rows_leave_the_point_alone():
    # a row that repeats another (negated, so its sign flips) keeps its
    # artificial in the basis at level zero
    res = solved([[-1, -1, -2], [1, 1, 2], [1, 0, 1]])
    assert res.point == (Fraction(1), Fraction(1))


def test_degenerate_cycling_guard():
    # Beale's cycling example: its rows with slacks, and its objective pinned
    # at the optimum 1/20; two rows have right-hand side 0, and Bland's rule
    # must still terminate
    res = solved(
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0, 0],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 1, 1],
            [Fraction(3, 4), -150, Fraction(1, 50), -6, 0, 0, 0, Fraction(1, 20)],
        ]
    )
    assert res.status == "feasible"


def test_audit_rejects_broken_certificates():
    feasible = [[1, 1, 2]]
    assert audit_feasibility(feasible, LPResult("feasible", point=(Fraction(3), Fraction(-1)))) != []
    assert audit_feasibility(feasible, LPResult("feasible", point=(Fraction(1), Fraction(0)))) != []
    assert audit_feasibility(feasible, LPResult("infeasible", farkas=(Fraction(1),))) != []
    infeasible = [[1, -1]]
    assert audit_feasibility(infeasible, LPResult("infeasible", farkas=(Fraction(-1),))) == []
    assert audit_feasibility(infeasible, LPResult("infeasible", farkas=(Fraction(1),))) != []
    assert audit_feasibility(infeasible, LPResult("infeasible", farkas=(Fraction(0),))) != []
    assert audit_feasibility(infeasible, LPResult("feasible")) != []


@pytest.mark.parametrize("augmented", [[], [[1, 2], [1]]])
def test_solve_lp_refuses_malformed_matrix(augmented):
    with pytest.raises(ValueError):
        solve_lp(augmented)


# ---------------------------------------------------------------------------
# random audit corpus


def test_every_lp_answer_passes_certificate_audit():
    statuses = set()
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        if seed % 2:
            # b = A x0 for some x0 >= 0: feasible by construction
            x0 = [rng.randint(0, 3) for _ in range(n)]
            augmented = [row + [sum(a * v for a, v in zip(row, x0))] for row in rows]
        else:
            augmented = [row + [rng.randint(-6, 6)] for row in rows]
        res = solved(augmented)
        if seed % 2:
            assert res.status == "feasible"
        statuses.add(res.status)
    assert statuses == {"feasible", "infeasible"}


# ---------------------------------------------------------------------------
# hull membership vs brute force (criterion: <= 7 points, dim <= 4)


def test_member_convex_hull_known_square():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    system = facets(square)
    inside = member_convex_hull(system, square, (1, 1))
    assert inside.inside
    coeffs = inside.coefficients
    # certificate: the convex combination reconstructs the target exactly
    assert sum(coeffs) == 1
    for j in range(2):
        assert sum(c * Fraction(square[i][j]) for i, c in enumerate(coeffs)) == 1
    outside = member_convex_hull(system, square, (3, 1))
    assert not outside.inside
    normal = outside.separator
    # separating functional: strictly larger on the target than on the hull
    target_val = sum(Fraction(n) * v for n, v in zip(normal, (3, 1)))
    assert all(
        target_val > sum(Fraction(n) * Fraction(v) for n, v in zip(normal, p))
        for p in square
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 100_000))
def test_hull_membership_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    n_pts = rng.randint(1, 7)
    points = [rand_point(rng, dim, span=4) for _ in range(n_pts)]
    if rng.random() < 0.5:
        # bias toward inside cases: random convex combination
        weights = [Fraction(rng.randint(0, 4)) for _ in points]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        target = tuple(
            sum(w * p[j] for w, p in zip(weights, points)) / total for j in range(dim)
        )
    else:
        target = rand_point(rng, dim, span=5)
    got = member_convex_hull(facets(points), points, target)
    want = brute_hull_member(points, target)
    assert got.inside == want
    if got.inside:
        coeffs = got.coefficients
        assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
        for j in range(dim):
            assert sum(c * p[j] for c, p in zip(coeffs, points)) == target[j]
    else:
        normal = got.separator
        tv = sum(Fraction(n) * t for n, t in zip(normal, target))
        assert all(tv > sum(Fraction(n) * x for n, x in zip(normal, p)) for p in points)


# ---------------------------------------------------------------------------
# membership from the facet system against the reference simplex


def replay_membership(verdict, points, target, hull_dim):
    """Check a membership certificate with plain ``Fraction`` arithmetic."""
    pts = [tuple(map(Fraction, p)) for p in points]
    tgt = tuple(map(Fraction, target))
    if verdict.inside:
        assert verdict.separator is None
        coeffs = verdict.coefficients
        assert len(coeffs) == len(pts)
        assert all(c >= 0 for c in coeffs) and sum(coeffs) == 1
        assert tuple(sum(c * p[j] for c, p in zip(coeffs, pts)) for j in range(len(tgt))) == tgt
        assert sum(1 for c in coeffs if c) <= hull_dim + 1
    else:
        assert verdict.coefficients is None
        sep = verdict.separator
        assert len(sep) == len(tgt) and all(type(h) is int for h in sep)
        value = sum(h * t for h, t in zip(sep, tgt))
        assert all(sum(h * x for h, x in zip(sep, p)) < value for p in pts)


def membership_case(rng, kind):
    """A listed point set of one kind and targets around its hull."""
    dim = rng.randint(1, 3)
    if kind == "rational":
        pts = [rand_point(rng, dim, span=3) for _ in range(rng.randint(1, 6))]
    else:
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
    if kind == "lifted":  # an integer affine image in a higher dimension
        pts = [p + (sum(p) - 2, 3 - p[0]) for p in pts]
    if kind == "redundant":  # duplicates and non-extreme listed points
        pts += [rng.choice(pts)] + [tuple((a + b) / 2 for a, b in zip(*rng.choices(pts, k=2)))]
        rng.shuffle(pts)
    targets = list(pts)
    targets += [tuple((a + b) / 2 for a, b in zip(*rng.sample(pts, 2)))] if len(pts) > 1 else []
    weights = [Fraction(rng.randint(0, 3)) for _ in pts]
    total = sum(weights) or Fraction(1)
    targets.append(tuple(sum(w * p[j] for w, p in zip(weights, pts)) / total for j in range(len(pts[0]))))
    targets += [rand_point(rng, len(pts[0]), span=5) for _ in range(2)]
    # a hull point shifted off the affine hull of a lower-dimensional set
    targets.append((targets[-3][0] + Fraction(1, 2),) + tuple(targets[-3][1:]))
    return pts, targets


def test_membership_agrees_with_reference_simplex_and_brute_force():
    outcomes = {True: 0, False: 0}
    for seed in range(60):
        rng = random.Random(seed)
        for kind in ("integer", "rational", "lifted", "redundant"):
            pts, targets = membership_case(rng, kind)
            system = facets(pts)
            for target in targets:
                verdict = member_convex_hull(system, pts, target)
                assert verdict.inside == lp_hull_member(pts, target) == brute_hull_member(pts, target)
                replay_membership(verdict, pts, target, system.hull_dim)
                outcomes[verdict.inside] += 1
    assert min(outcomes.values()) > 200


def test_membership_weights_follow_the_listed_order():
    # (1, 1) is listed twice and is not a vertex; (0, 0) is listed last
    square = [(2, 0), (1, 1), (0, 2), (2, 2), (1, 1), (0, 0)]
    system = facets(square)
    for target in [(0, 0), (1, 1), (Fraction(1, 2), Fraction(3, 2)), (2, 1)]:
        verdict = member_convex_hull(system, square, target)
        replay_membership(verdict, square, target, 2)
    assert member_convex_hull(system, square, (0, 0)).coefficients[-1] == 1
    with pytest.raises(ValueError, match="dimension"):
        member_convex_hull(system, square, (1, 1, 1))


def test_separators_are_equation_or_facet_normals():
    segment = [(0, 0, 2), (2, 0, 0)]
    system = facets(segment)
    # off the affine hull on either side of an equation: the equation normal,
    # signed so that the target's side is larger
    below = member_convex_hull(system, segment, (1, -1, 1)).separator
    above = member_convex_hull(system, segment, (1, 1, 1)).separator
    assert below == tuple(-h for h in above)
    assert {below, above} <= {tuple(s * h for h in n) for n, _ in system.equations for s in (1, -1)}
    # in the affine hull but past an end: the first facet it violates
    beyond = member_convex_hull(system, segment, (3, 0, -1)).separator
    assert beyond in {normal for normal, _ in system.facets}


# ---------------------------------------------------------------------------
# integer ray shooting against the Fraction ray shooting it replaced


def lifted_hull(rng):
    """A hull of dimension 0-6 (a scaled simplex plus random points, halved
    or thirded when rational) mapped injectively into 1-2 more dimensions,
    with the ambient coordinates shuffled."""
    k = rng.randint(0, 6)
    den = rng.choice((1, 1, 2, 3))
    pts = [(0,) * k] + [tuple(rng.randint(1, 3) * (i == j) for j in range(k)) for i in range(k)]
    pts += [tuple(rng.randint(-2, 3) for _ in range(k)) for _ in range(rng.randint(0, 4))]
    pts = [tuple(Fraction(x, den) for x in p) for p in pts]
    lifts = [
        ([rng.randint(-2, 2) for _ in range(k)], Fraction(rng.randint(-3, 3), rng.choice((1, den))))
        for _ in range(rng.randint(1, 2))
    ]
    pts = [p + tuple(sum(map(mul, a, p)) + c for a, c in lifts) for p in pts]
    order = list(range(len(pts[0])))
    rng.shuffle(order)
    return [tuple(p[j] for j in order) for p in pts]


def hull_targets(rng, pts, system):
    """The listed points, the midpoints of the hull's edges, convex
    combinations, and points outside the hull or off its affine hull."""
    def value(normal, p):
        return sum(map(mul, normal, p))

    distinct = sorted(set(pts))
    tight = {
        p: frozenset(i for i, (h, c) in enumerate(system.facets) if value(h, p) == c)
        for p in distinct
    }

    def face(planes):  # the listed points on every one of the facets
        return {p for p in distinct if planes <= tight[p]}

    vertices = [p for p in distinct if face(tight[p]) == {p}]
    targets = list(pts)
    for u, v in itertools.combinations(vertices, 2):
        if face(tight[u] & tight[v]) & set(vertices) == {u, v}:
            targets.append(tuple((a + b) / 2 for a, b in zip(u, v)))
    for _ in range(3):
        weights = [Fraction(rng.randint(0, 4)) for _ in pts]
        total = sum(weights) or Fraction(1)
        targets.append(tuple(sum(w * p[j] for w, p in zip(weights, pts)) / total for j in range(len(pts[0]))))
    # a hull point moved off the affine hull of a lower-dimensional hull
    targets.append((targets[-1][0] + Fraction(1, 5),) + targets[-1][1:])
    targets += [rand_point(rng, len(pts[0]), span=4) for _ in range(4)]
    return targets


def test_integer_ray_shooting_matches_the_fraction_ray_shooting():
    cases = 0
    seen = {"inside": 0, "outside": 0, "rational": 0, "dims": set()}
    for seed in itertools.count():
        rng = random.Random(seed)
        pts = lifted_hull(rng)
        system = facets(pts)
        seen["dims"].add(system.hull_dim)
        for target in hull_targets(rng, pts, system):
            got = member_convex_hull(system, pts, target)
            assert got == reference_member_convex_hull(system, pts, target), (pts, target)
            seen["inside" if got.inside else "outside"] += 1
            seen["rational"] += any(type(x) is Fraction and x.denominator > 1 for p in pts for x in p)
            cases += 1
        if cases >= 4000:
            break
    assert seen["dims"] == set(range(7))
    assert min(seen["inside"], seen["outside"], seen["rational"]) > 500, seen


# ---------------------------------------------------------------------------
# relative interior and affine hulls


def test_relative_interior_of_segment():
    seg = [(0, 0), (2, 2)]
    system = facets(seg)
    assert member_convex_hull(system, seg, (1, 1)).inside and system.relative_interior((1, 1))
    assert member_convex_hull(system, seg, (0, 0)).inside and not system.relative_interior((0, 0))
    assert not member_convex_hull(system, seg, (3, 3)).inside
    # off the affine hull: outside, and an equation of the hull is violated
    assert not member_convex_hull(system, seg, (1, 0)).inside
    assert not affine_hull(seg).contains((1, 0))


def test_affine_hull_projection_round_trip():
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    hull = affine_hull(pts)
    assert hull.contains((5, -3, 1))
    assert not hull.contains((0, 0, 2))
    proj = hull.project((1, 1, 1))
    assert len(proj) == 2


def test_normalize_integer_vector():
    assert primitive([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert primitive([2, 4, 6]) == (1, 2, 3)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([Fraction(-2, 7)]) == (-1,)
