"""Integrality decided once per point set, against the per-coordinate routes
it replaced (the ``reference_*`` routines of ``conftest``): equal values,
equal types and the same errors on seeded point sets."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from statepoly.linalg import common_denominator, int_rows
from statepoly.polytope import VPolytope, _int_points, polytope_from_payload

from conftest import (
    rand_scalar_rows,
    reference_common_denominator,
    reference_hull_intake,
    reference_payload_vertices,
    reference_vpolytope_vertices,
)

# the mixes of entries each seeded set is drawn from
KINDS = [
    ("int",),
    ("int", "big"),
    ("int", "fraction"),
    ("int", "fraction", "proper"),
    ("int", "bool"),
    ("int", "big", "fraction", "bool"),
    ("proper",),
]


def types_of(rows) -> list[list[type]]:
    return [[type(x) for x in row] for row in rows]


def outcome(call, *args):
    """The value of ``call(*args)``, or the type and message it raised."""
    try:
        return call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_int_rows_excludes_bool_and_fraction():
    assert int_rows([]) and int_rows([(), [1, 2]]) and int_rows([(10**4000, -1)])
    assert not int_rows([(1, True)])
    assert not int_rows([(1, 2), [Fraction(4, 2)]])
    assert not int_rows([(1, 0.0)])


@pytest.mark.parametrize("seed", range(8))
def test_common_denominator_matches_the_generator_form(seed):
    rng = random.Random(seed)
    for kinds in KINDS:
        for _ in range(10):
            rows = rand_scalar_rows(rng, kinds)
            got, want = common_denominator(rows), reference_common_denominator(rows)
            assert got == want
            assert types_of(got[1]) == types_of(want[1])
            assert all(type(x) is int for row in got[1] for x in row)


@pytest.mark.parametrize("seed", range(8))
def test_vpolytope_matches_per_vertex_normalisation(seed):
    rng = random.Random(100 + seed)
    for kinds in KINDS:
        for _ in range(10):
            rows = rand_scalar_rows(rng, kinds)
            dim = len(rows[0])
            got = VPolytope(dim, rows).vertices
            want = reference_vpolytope_vertices(dim, rows)
            assert got == want
            assert types_of(got) == types_of(want)
            # a generator is read once, and a wrong width is refused alike
            assert VPolytope(dim, iter(rows)).vertices == want
            assert outcome(VPolytope, dim + 1, rows) == outcome(
                reference_vpolytope_vertices, dim + 1, rows
            )


def test_integral_fractions_and_bools_become_int():
    poly = VPolytope(3, [(Fraction(4, 2), True, 0), [1, 2, False]])
    assert poly.vertices == ((1, 2, 0), (2, 1, 0))
    assert types_of(poly.vertices) == [[int] * 3] * 2
    assert common_denominator([(Fraction(4, 2), True)]) == (1, [(2, 1)])
    assert types_of(common_denominator([(Fraction(4, 2), True)])[1]) == [[int, int]]
    assert _int_points([(Fraction(4, 2), True), (2, 1)]) == [(2, 1)]
    assert types_of(_int_points([(Fraction(4, 2), True)])) == [[int, int]]
    # a proper fraction stays a Fraction in a polytope
    (vertex,) = VPolytope(2, [(Fraction(1, 2), Fraction(6, 3))]).vertices
    assert vertex == (Fraction(1, 2), 2) and type(vertex[1]) is int


def _json_entry(rng: random.Random, value):
    """How a stored polytope writes ``value``: an int as itself, a fraction
    as 'p/q' (an integral one sometimes unreduced), a bool as itself."""
    if type(value) is Fraction:
        return f"{value.numerator * 2}/{value.denominator * 2}" if rng.random() < 0.5 else str(value)
    return value


@pytest.mark.parametrize("seed", range(8))
def test_polytope_from_payload_matches_the_per_coordinate_read(seed):
    rng = random.Random(200 + seed)
    for kinds in KINDS + [("int", "float"), ("int", "none")]:
        for _ in range(10):
            rows = rand_scalar_rows(rng, [k for k in kinds if k in ("int", "big", "fraction", "proper", "bool")])
            rows = [[_json_entry(rng, x) for x in row] for row in rows]
            if "float" in kinds:
                rows[rng.randrange(len(rows))][0] = 1.5
            if "none" in kinds:
                rows[rng.randrange(len(rows))][-1] = None
            payload = {"vertices": rows}
            if rng.random() < 0.5:
                payload["dim"] = len(rows[0]) + rng.choice((0, 0, 1))
            want = outcome(reference_payload_vertices, payload)
            if type(want) is tuple and len(want) == 2 and type(want[0]) is int:
                want = outcome(VPolytope, *want)
            got = outcome(polytope_from_payload, payload)
            assert got == want
            if isinstance(got, VPolytope):
                assert types_of(got.vertices) == types_of(want.vertices)


@pytest.mark.parametrize("seed", range(8))
def test_hull_intake_matches_the_per_point_route(seed):
    rng = random.Random(300 + seed)
    for kinds in KINDS:
        for _ in range(10):
            rows = rand_scalar_rows(rng, kinds)
            got, want = outcome(_int_points, rows), outcome(reference_hull_intake, rows)
            assert got == want
            if type(got) is list:
                assert types_of(got) == types_of(want)
                assert all(type(x) is int for row in got for x in row)
