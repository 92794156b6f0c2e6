"""Monomial orders: axioms, textbook comparisons, junction merging."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly.orders import (
    elimination_order,
    grevlex_order,
    grlex_order,
    lex_order,
    matrix_order,
    merge_chain_weights,
    named_order,
    weight_order,
)
from statepoly.rings import mono_mul
from conftest import rand_monomial

ALL_FAMILIES = [lex_order, grlex_order, grevlex_order]


# ---------------------------------------------------------------------------
# textbook comparisons (arity 3, variables x > y > z)

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def cmp(order, a, b) -> int:
    """-1, 0 or 1 as x^a <, =, > x^b, read from the order's sort key."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def test_lex_textbook_comparisons():
    lex = lex_order(3)
    assert cmp(lex, (1, 2, 0), (0, 3, 4)) > 0  # x y^2 > y^3 z^4
    assert cmp(lex, (3, 2, 4), (3, 2, 1)) > 0
    assert cmp(lex, X, (0, 5, 5)) > 0  # x beats any power of later vars


def test_grlex_textbook_comparisons():
    grlex = grlex_order(3)
    assert cmp(grlex, (1, 2, 3), (3, 2, 0)) > 0  # degree 6 beats degree 5
    assert cmp(grlex, (1, 2, 4), (1, 1, 5)) > 0  # ties broken by lex


def test_grevlex_textbook_comparisons():
    grevlex = grevlex_order(3)
    assert cmp(grevlex, (4, 7, 1), (4, 2, 3)) > 0  # degree decides first
    assert cmp(grevlex, (1, 5, 2), (4, 1, 3)) > 0  # same degree: smaller last exponent wins
    assert cmp(grevlex, (1, 1, 1), (0, 3, 0)) < 0  # x y z < y^3 in grevlex
    assert cmp(grlex_order(3), (1, 1, 1), (0, 3, 0)) > 0  # but > in grlex


@pytest.mark.parametrize("seed", range(4))
def test_key_is_the_plain_dot_product_with_each_row(seed):
    rng = random.Random(seed)
    for _ in range(20):
        arity = rng.randint(1, 6)
        orders = [
            weight_order([rng.randint(0, 9) for _ in range(arity)]),
            weight_order([rng.randint(-9, 9) for _ in range(arity)]),
            matrix_order([[rng.randint(-5, 5) for _ in range(arity)] for _ in range(rng.randint(1, 4))]),
            elimination_order(arity, rng.sample(range(arity), rng.randint(0, arity))),
            grevlex_order(arity),
        ]
        for order in orders:
            for _ in range(10):
                mono = rand_monomial(rng, arity, rng.randint(0, 6))
                plain = tuple(sum(w * e for w, e in zip(row, mono)) for row in order.rows)
                assert order.key(mono) == plain
                assert order.key(mono) == plain  # the cached key too


# ---------------------------------------------------------------------------
# order axioms on random monomials


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.sampled_from(["lex", "grlex", "grevlex"]))
def test_order_axioms(seed, arity, name):
    rng = random.Random(seed)
    order = named_order(name, arity)
    a = rand_monomial(rng, arity, rng.randint(0, 5))
    b = rand_monomial(rng, arity, rng.randint(0, 5))
    c = rand_monomial(rng, arity, rng.randint(0, 3))
    # totality + antisymmetry
    assert cmp(order, a, b) == -cmp(order, b, a)
    assert (cmp(order, a, b) == 0) == (a == b)
    # compatibility with multiplication
    assert cmp(order, mono_mul(a, c), mono_mul(b, c)) == cmp(order, a, b)
    # global order: 1 is minimal
    one = (0,) * arity
    if a != one:
        assert cmp(order, a, one) > 0


def test_order_validate_flags_non_global_orders():
    assert lex_order(3).validate() == []
    assert weight_order([2, 1, 1]).validate() == []
    bad = matrix_order([[1, -1, 0]])
    messages = bad.validate()
    assert messages  # not total / not global


# ---------------------------------------------------------------------------
# weight, matrix, elimination, named orders


def test_weight_order_puts_weight_row_first():
    order = weight_order([0, 1, 3])
    assert cmp(order, (0, 0, 1), (2, 0, 0)) > 0  # weight 3 beats weight 0
    assert cmp(order, (0, 3, 0), (0, 0, 1)) == cmp(order, (0, 3, 0), (0, 0, 1))
    # ties broken by grevlex, or by lex in the matrix order with lex rows
    tie_grevlex = weight_order([1, 1, 1])
    tie_lex = matrix_order([(1, 1, 1), *lex_order(3).rows])
    a, b = (1, 1, 1), (0, 3, 0)
    assert cmp(tie_grevlex, a, b) == cmp(grevlex_order(3), a, b)
    assert cmp(tie_lex, a, b) == cmp(lex_order(3), a, b)


def test_weight_order_accepts_rational_weights():
    order = weight_order([Fraction(1, 2), Fraction(1, 3), 0])
    assert cmp(order, (1, 0, 0), (0, 1, 0)) > 0


def test_elimination_order_eliminates_first():
    order = elimination_order(4, eliminate=[1, 2])
    # any monomial containing an eliminated variable beats any that does not
    assert cmp(order, (0, 1, 0, 0), (5, 0, 0, 5)) > 0
    assert cmp(order, (3, 0, 0, 0), (0, 0, 1, 0)) < 0


def test_named_and_make_order():
    assert named_order("grevlex", 4).name == "grevlex"
    with pytest.raises(ValueError):
        named_order("mystery", 3)
    o = matrix_order([(3, 1, 0), *lex_order(3).rows])
    assert cmp(o, (0, 1, 0), (0, 0, 2)) > 0
    m = matrix_order([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    assert m.arity == 3
    with pytest.raises(ValueError):
        matrix_order([])  # needs a row
    assert cmp(named_order("lex", 2), (1, 0), (0, 9)) > 0


# ---------------------------------------------------------------------------
# junction merging


def test_merge_junction_weights_golden():
    # last coordinate of the first block must line up with the first of the
    # second block; the second block is shifted to agree there
    merged = merge_chain_weights([(5, 3, 2), (4, 1, 0)])
    assert merged == (5, 3, 2, -1, -2)
    # already aligned: plain splice
    assert merge_chain_weights([(1, 0), (0, 2, 7)]) == (1, 0, 2, 7)


def test_merge_junction_weights_scales_to_integers():
    merged = merge_chain_weights([(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))])
    assert all(isinstance(v, int) for v in merged)
    # ratios preserved: (1/2, 0, 1/3) -> (3, 0, 2)
    assert merged == (3, 0, 2)


def test_merge_chain_weights_takes_integer_and_fraction_entries_alike():
    rng = random.Random(5)
    for _ in range(30):
        blocks = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 4))]
        merged = merge_chain_weights(blocks)
        assert all(type(v) is int for v in merged)
        # Fractions of denominator one, and every block over one denominator
        assert merge_chain_weights([[Fraction(v) for v in b] for b in blocks]) == merged
        thirds = merge_chain_weights([[Fraction(v, 3) for v in b] for b in blocks])
        assert thirds == merged and all(type(v) is int for v in thirds)
    with pytest.raises(ValueError, match="nonempty"):
        merge_chain_weights([(1, 2), ()])


def test_merge_chain_weights_three_blocks():
    merged = merge_chain_weights([(2, 1), (1, 0, 0), (3, 3)])
    # splice at both junctions: (2,1), then (1,0,0) aligned at 1 -> (2,1,0,0),
    # then (3,3) aligned at 0 -> (2,1,0,0,0)
    assert merged == (2, 1, 0, 0, 0)


def test_merge_chain_weights_two_blocks():
    merged = merge_chain_weights([(5, 3, 2), (4, 1, 0)])
    assert merged == (5, 3, 2, -1, -2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_merged_weights_preserve_within_block_differences(seed):
    rng = random.Random(seed)
    left = [rng.randint(0, 9) for _ in range(rng.randint(2, 4))]
    right = [rng.randint(0, 9) for _ in range(rng.randint(2, 4))]
    merged = merge_chain_weights([left, right])
    assert len(merged) == len(left) + len(right) - 1
    # weight differences inside each block are preserved up to one positive scale
    diffs_left = [left[i] - left[i + 1] for i in range(len(left) - 1)]
    diffs_right = [right[i] - right[i + 1] for i in range(len(right) - 1)]
    got_left = [merged[i] - merged[i + 1] for i in range(len(left) - 1)]
    offset = len(left) - 1
    got_right = [merged[offset + i] - merged[offset + i + 1] for i in range(len(right) - 1)]
    scales = set()
    for want, got in zip(diffs_left + diffs_right, got_left + got_right):
        if want == 0:
            assert got == 0
        else:
            scales.add(Fraction(got, want))
    assert len(scales) <= 1
    if scales:
        assert next(iter(scales)) > 0
