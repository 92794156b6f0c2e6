"""Fraction-free integer row reduction against a ``Fraction`` reference and
against the Bareiss elimination it replaced."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly.linalg import common_denominator, primitive, row_reduce
from conftest import fraction_null_space, fraction_rref, reference_row_reduce


def rand_matrix(rng: random.Random) -> tuple[list[list[int]], int]:
    width = rng.randint(1, 5)
    rows = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(0, 5))]
    # dependent rows and zero rows exercise the rank-deficient paths
    if rows and rng.random() < 0.5:
        a, b = rng.choice(rows), rng.choice(rows)
        c, d = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.insert(rng.randrange(len(rows) + 1), [c * x + d * y for x, y in zip(a, b)])
    if rng.random() < 0.2:
        rows.append([0] * width)
    return rows, width


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_row_reduce_matches_fraction_reference(seed):
    rows, width = rand_matrix(random.Random(seed))
    echelon = row_reduce(rows, width)
    _, pivots = fraction_rref(rows)
    assert echelon.rank == len(pivots)
    assert list(echelon.pivots) == pivots
    # basis: the rows that raise the rank of the rows before them
    ranks = [len(fraction_rref(rows[:i])[1]) for i in range(len(rows) + 1)]
    greedy = [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]
    assert list(echelon.basis) == greedy
    nulls = echelon.null_vectors()
    assert nulls == [primitive(x) for x in fraction_null_space(rows, width)]
    for x in nulls:
        assert all(type(v) is int for v in x)
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)


def test_row_reduce_stops_at_full_rank():
    echelon = row_reduce([[1, 0], [0, 1], [1, 1]], 2)
    assert echelon.basis == (0, 1)
    assert echelon.null_vectors() == []
    empty = row_reduce([], 3)
    assert empty.rank == 0
    assert empty.null_vectors() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def dense_matrix(rng: random.Random) -> tuple[list[list[int]], int]:
    """Seeded dense rows, often more of them than columns, with dependent
    combinations mixed in."""
    width = rng.randint(1, 8)
    rows = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(rng.randint(0, 12))]
    for _ in range(rng.randint(0, 3)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.insert(rng.randrange(len(rows) + 1), [c * x + d * y for x, y in zip(a, b)])
    return rows, width


def near_permutation(rng: random.Random) -> tuple[list[list[int]], int]:
    """Sparse rows of +-1 entries, mostly one or two per row, with repeats
    and zero rows: the shape of the stacked normal forms of a union slice."""
    width = rng.randint(1, 14)
    rows = []
    for _ in range(rng.randint(0, 2 * width)):
        row = [0] * width
        for j in rng.sample(range(width), min(width, rng.choice((0, 1, 1, 1, 2, 2, 3)))):
            row[j] = rng.choice((1, -1))
        rows.append(row)
    if rows and rng.random() < 0.5:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    return rows, width


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from((dense_matrix, near_permutation)))
def test_forward_reduction_matches_bareiss(seed, shape):
    rows, width = shape(random.Random(seed))
    pulled = [0, 0]

    def counted(side):
        for row in rows:
            pulled[side] += 1
            yield row

    got = row_reduce(counted(0), width)
    want = reference_row_reduce(counted(1), width)
    # both stop at the same row once the rank reaches the width
    assert pulled[0] == pulled[1]
    assert (got.rank, got.pivots, got.basis) == (want.rank, want.pivots, want.basis)
    assert got.null_vectors() == want.null_vectors()
    # the kept rows: primitive, zero before a positive pivot
    for row, piv in zip(got.echelon, got.pivots):
        assert not any(row[:piv]) and row[piv] > 0 and gcd(*row) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=12).filter(lambda f: abs(f) < 50), min_size=1, max_size=6))
def test_primitive_is_a_positive_multiple_with_content_one(values):
    vec = primitive(values)
    assert all(type(v) is int for v in vec)
    if not any(values):
        assert vec == (0,) * len(values)
        return
    scale = next(Fraction(v) / f for v, f in zip(vec, values) if f)
    assert scale > 0
    assert all(v == scale * f for v, f in zip(vec, values))
    assert gcd(*vec) == 1


def test_common_denominator_of_integers_matches_the_fraction_path():
    rng = random.Random(5)
    for _ in range(200):
        rows = [
            [rng.randint(-10**12, 10**12) if rng.random() < 0.2 else rng.randint(-9, 9)
             for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(0, 4))
        ]
        fast = common_denominator(rows)
        # one Fraction entry equal to an integer takes the general path
        slow = common_denominator([[Fraction(v) for v in r] for r in rows])
        assert fast == slow
        assert all(type(v) is int for r in fast[1] for v in r)
        assert primitive(rows[0] if rows else []) == primitive([Fraction(v) for v in (rows[0] if rows else [])])
