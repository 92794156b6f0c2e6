"""Exact LP: known answers, certificate audits, brute-force hull agreement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly.linalg import primitive
from statepoly.lp import (
    LPResult,
    affine_hull,
    audit_feasibility,
    member_convex_hull,
    solve_lp,
)
from statepoly.polytope import facets
from conftest import brute_hull_member, rand_point


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
    inside = member_convex_hull(square, (1, 1))
    assert inside.inside
    coeffs = inside.coefficients
    # certificate: the convex combination reconstructs the target exactly
    assert sum(coeffs) == 1
    for j in range(2):
        assert sum(c * Fraction(square[i][j]) for i, c in enumerate(coeffs)) == 1
    outside = member_convex_hull(square, (3, 1))
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
    got = member_convex_hull(points, target)
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
# relative interior and affine hulls


def test_relative_interior_of_segment():
    seg = [(0, 0), (2, 2)]
    system = facets(seg)
    assert member_convex_hull(seg, (1, 1)).inside and system.relative_interior((1, 1))
    assert member_convex_hull(seg, (0, 0)).inside and not system.relative_interior((0, 0))
    assert not member_convex_hull(seg, (3, 3)).inside and not system.contains((3, 3))
    # off the affine hull: outside, and an equation of the hull is violated
    assert not member_convex_hull(seg, (1, 0)).inside
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
