"""Polynomial and monomial arithmetic against evaluation oracles."""

from __future__ import annotations

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly.rings import (
    Ideal,
    Polynomial,
    count_monomials,
    degree_monomials,
    embed_polynomial,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_support,
    project_polynomial,
    unit_monomial,
)
from conftest import rand_point, rand_polynomial


def evaluate(poly: Polynomial, point) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = coeff
        for j, e in enumerate(mono):
            value *= Fraction(point[j]) ** e
        total += value
    return total


# ---------------------------------------------------------------------------
# monomial layer


def test_monomial_operations():
    a, b = (2, 0, 1), (1, 3, 0)
    assert mono_mul(a, b) == (3, 3, 1)
    assert mono_lcm(a, b) == (2, 3, 1)
    assert mono_degree(a) == 3
    assert mono_support(a) == (0, 2)
    assert not mono_divides(a, b)
    assert mono_divides((1, 0, 0), a)
    assert mono_div(a, (1, 0, 0)) == (1, 0, 1)
    assert mono_coprime((1, 0, 0), (0, 2, 1))
    assert not mono_coprime(a, b)
    assert unit_monomial(4, 2) == (0, 0, 1, 0)
    assert unit_monomial(3, 0, 5) == (5, 0, 0)


@pytest.mark.parametrize("seed", range(4))
def test_monomial_helpers_match_their_naive_definitions(seed):
    rng = random.Random(seed)
    for _ in range(300):
        arity = rng.randint(1, 7)
        # exponents 0 most of the time, so coprime and divisible pairs occur
        a, b = (tuple(rng.choice([0, 0, 0, 1, 2, 5]) for _ in range(arity)) for _ in range(2))
        assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
        assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
        assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
        assert mono_coprime(a, b) == all(x == 0 or y == 0 for x, y in zip(a, b))
        assert mono_div(mono_mul(a, b), b) == a
        lcm = mono_lcm(a, b)
        assert mono_div(lcm, a) == tuple(x - y for x, y in zip(lcm, a))


def test_degree_monomials_order_is_lex_descending():
    for arity in range(0, 5):
        for degree in range(0, 6):
            brute = sorted(
                (e for e in itertools.product(range(degree + 1), repeat=arity) if sum(e) == degree),
                reverse=True,
            )
            assert degree_monomials(arity, degree) == brute
    assert degree_monomials(0, 0) == [()]
    assert degree_monomials(0, 3) == []
    assert degree_monomials(3, -1) == []


def test_degree_monomials_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        degree_monomials(4, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_degree_monomials_count_matches_binomial():
    for arity in range(1, 5):
        for degree in range(0, 6):
            listed = degree_monomials(arity, degree)
            expected = math.comb(degree + arity - 1, arity - 1)
            assert len(listed) == expected
            assert len(set(listed)) == expected
            assert all(sum(m) == degree for m in listed)
            assert count_monomials(arity, degree) == expected


# ---------------------------------------------------------------------------
# polynomial layer: ring axioms via the evaluation homomorphism


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_ring_operations_commute_with_evaluation(seed, arity):
    rng = random.Random(seed)
    f = rand_polynomial(rng, arity, 3)
    g = rand_polynomial(rng, arity, 3)
    pt = rand_point(rng, arity, span=3)
    assert evaluate(f + g, pt) == evaluate(f, pt) + evaluate(g, pt)
    assert evaluate(f - g, pt) == evaluate(f, pt) - evaluate(g, pt)
    assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)
    assert evaluate(-f, pt) == -evaluate(f, pt)
    assert evaluate(f**2, pt) == evaluate(f, pt) ** 2
    assert evaluate(f * Fraction(3, 2), pt) == evaluate(f, pt) * Fraction(3, 2)


def test_power_squares_only_below_the_top_bit(monkeypatch):
    x, y, z = (Polynomial.variable(3, j) for j in range(3))
    p = x + 2 * y - z
    expected = Polynomial.constant(3, 1)
    for _ in range(64):
        expected = expected * p
    products = []
    multiply = Polynomial.__mul__

    def recorded(self, other):
        products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", recorded)
    power = p**64
    assert power == expected
    # 64 = 2^6: six squarings and one product with the constant 1, and no
    # square of p^64 itself
    assert len(products) == 7
    assert all(not (a == power and b == power) for a, b in products)
    assert p**0 == Polynomial.constant(3, 1) and p**1 == p


def test_zero_and_constants():
    zero = Polynomial.zero(3)
    assert zero.is_zero
    assert not zero
    one = Polynomial.constant(3, 1)
    x = Polynomial.variable(3, 0)
    assert (x - x).is_zero
    assert x * one == x
    assert (one * 0).is_zero
    assert Polynomial(3, {(1, 2, 0): 5}).terms[(1, 2, 0)] == 5


def test_homogeneity_and_degree():
    x, y = (Polynomial.variable(2, j) for j in range(2))
    f = x**2 + y * x
    assert f.is_homogeneous()
    assert f.degree() == 2
    g = f + x
    assert not g.is_homogeneous()
    assert Polynomial.zero(2).is_homogeneous()
    assert Polynomial.zero(2).degree() == -1


def test_evaluate_unit_detects_junction_vanishing():
    # value at the coordinate point e_i is the sum of coefficients of pure
    # powers of x_i (plus the constant term)
    a, e = Polynomial.variable(5, 0), Polynomial.variable(5, 4)
    f = e**3 + e**2 - a * e
    assert f.evaluate_unit(4) == 2
    assert f.evaluate_unit(0) == 0
    g = a * a - a * e
    assert g.evaluate_unit(0) == 1


# ---------------------------------------------------------------------------
# projection / embedding


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_project_embed_round_trip(seed):
    rng = random.Random(seed)
    coords = (1, 3, 4)
    inner = rand_polynomial(rng, len(coords), 3)
    outer = embed_polynomial(inner, 6, coords)
    assert outer.arity == 6
    assert outer.support_variables() <= set(coords)
    assert project_polynomial(outer, coords) == inner


def test_project_requires_support_inside_coords():
    x, y, z = (Polynomial.variable(3, j) for j in range(3))
    with pytest.raises(ValueError):
        project_polynomial(x * y + z, (0, 1))


def test_ideal_drops_zero_generators_and_reports_support():
    x, y, z = (Polynomial.variable(3, j) for j in range(3))
    ideal = Ideal(3, (x * y, Polynomial.zero(3), y**2 - z * y))
    assert len(ideal.generators) == 2
    assert ideal.support_variables() == {0, 1, 2}
    assert ideal.is_homogeneous()
    assert not Ideal(3, (x + x * y,)).is_homogeneous()
