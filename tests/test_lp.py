"""Exact LP: known answers, certificate audits, brute-force hull agreement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly.linalg import primitive
from statepoly.lp import (
    LinearProgram,
    affine_hull,
    audit_result,
    member_convex_hull,
    relative_interior_member,
    solve_lp,
)
from conftest import brute_hull_member, rand_point


def solved(objective, constraints, **kw):
    lp = LinearProgram(objective, constraints, **kw)
    res = solve_lp(lp)
    assert audit_result(lp, res) == []
    return res


# ---------------------------------------------------------------------------
# known-answer programs


def test_maximize_simple_polytope():
    # max x + y  s.t. x <= 2, y <= 3, x + y <= 4, x,y >= 0
    res = solved(
        [1, 1],
        [([1, 0], "<=", 2), ([0, 1], "<=", 3), ([1, 1], "<=", 4)],
        nonnegative=[True, True],
    )
    assert res.status == "optimal"
    assert res.objective_value == 4


def test_minimize_with_equality():
    # min 2x + 3y  s.t. x + y == 10, x - y >= 2
    res = solved([2, 3], [([1, 1], "==", 10), ([1, -1], ">=", 2)], maximize=False,
                 nonnegative=[True, True])
    assert res.status == "optimal"
    assert res.point == (Fraction(10), Fraction(0))
    assert res.objective_value == 20


def test_free_variables_allow_negative_solutions():
    res = solved([0, 1], [([1, 1], "==", 0), ([0, 1], "<=", -3)])
    assert res.status == "optimal"
    assert res.objective_value == -3
    assert res.point == (Fraction(3), Fraction(-3))


def test_infeasible_has_farkas_certificate():
    lp = LinearProgram([1], [([1], "<=", 1), ([1], ">=", 2)])
    res = solve_lp(lp)
    assert res.status == "infeasible"
    assert res.farkas is not None
    assert audit_result(lp, res) == []


def test_unbounded_has_ray_certificate():
    lp = LinearProgram([1, 0], [([0, 1], "<=", 5)], nonnegative=[True, True])
    res = solve_lp(lp)
    assert res.status == "unbounded"
    assert res.ray is not None
    assert audit_result(lp, res) == []


def test_rational_data_stays_exact():
    res = solved(
        [Fraction(1, 3), Fraction(1, 7)],
        [([Fraction(2, 5), 1], "<=", Fraction(11, 10)), ([1, 1], "<=", 2)],
        nonnegative=[True, True],
    )
    assert res.status == "optimal"
    # the feasible region's vertices are (0,0), (0,11/10), (2,0) and (3/2,1/2)
    assert res.objective_value == max(
        Fraction(0),
        Fraction(1, 7) * Fraction(11, 10),
        Fraction(1, 3) * 2,
        Fraction(1, 3) * Fraction(3, 2) + Fraction(1, 7) * Fraction(1, 2),
    )
    assert res.objective_value == Fraction(2, 3)
    assert res.point == (Fraction(2), Fraction(0))


def test_degenerate_cycling_guard():
    # classic degenerate LP; Bland's rule must terminate
    res = solved(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
        nonnegative=[True] * 4,
    )
    assert res.status == "optimal"
    assert res.objective_value == Fraction(1, 20)


def test_zero_level_artificial_cannot_resurface():
    # the only feasible point is x = 1; a degenerate phase-1 basis keeps an
    # artificial at level zero, and phase 2 must not let it grow again
    res = solve_lp(
        LinearProgram(
            [3],
            [([-1], ">=", -1), ([-4], "==", -4)],
            maximize=False,
            nonnegative=[False],
        )
    )
    assert res.status == "optimal"
    assert res.point == (Fraction(1),)
    assert res.objective_value == Fraction(3)


# ---------------------------------------------------------------------------
# random audit corpus


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_every_lp_answer_passes_certificate_audit(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    n_cons = rng.randint(1, 5)
    constraints = []
    for _ in range(n_cons):
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        rel = rng.choice(["<=", ">=", "=="])
        constraints.append((coeffs, rel, rng.randint(-6, 6)))
    lp = LinearProgram(
        [rng.randint(-3, 3) for _ in range(n)],
        constraints,
        maximize=rng.random() < 0.5,
        nonnegative=[rng.random() < 0.7 for _ in range(n)],
    )
    res = solve_lp(lp)
    assert res.status in ("optimal", "infeasible", "unbounded")
    assert audit_result(lp, res) == []


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
    mid = relative_interior_member(seg, (1, 1))
    assert mid.inside and mid.relative_interior
    end = relative_interior_member(seg, (0, 0))
    assert end.inside and not end.relative_interior
    out = relative_interior_member(seg, (3, 3))
    assert not out.inside and not out.relative_interior
    off = relative_interior_member(seg, (1, 0))
    assert not off.inside and off.violated_equation is not None


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
