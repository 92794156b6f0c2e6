"""Numerical stability index: direct route, chain route, aggregate form."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from statepoly import groebner, hm
from statepoly.chains import ChainInput
from statepoly.groebner import hilbert_values, initial_ideal, monomial_slice
from statepoly.hm import hm_index_decomposed, hm_index_direct
from statepoly.orders import weight_order
from statepoly.rings import Ideal, Polynomial

from conftest import hm_from_aggregates, lex_refined_index, rand_polynomial


def variables(arity):
    return tuple(Polynomial.variable(arity, j) for j in range(arity))


# ---------------------------------------------------------------------------
# direct route on hand-checkable ideals


def test_two_points_in_line_are_balanced():
    # x0 x1 cuts two coordinate points out of the line; their configuration
    # is balanced, so the index vanishes for every weight vector
    x0, x1 = variables(2)
    ideal = Ideal(2, (x0 * x1,))
    for rho in ((1, 0), (0, 1), (5, -2), (7, 7)):
        for m in (1, 2, 3):
            rep = hm_index_direct(ideal, m, rho)
            assert rep.mu == 0


def test_single_point_weight():
    # x1 = 0 leaves the single coordinate point e_0; degree-m standard
    # monomials are {x0^m}, so mu = -m rho_0 + m * 1/2 * (rho_0 + rho_1)
    x0, x1 = variables(2)
    ideal = Ideal(2, (x1,))
    rho = (4, 2)
    for m in (1, 2, 5):
        rep = hm_index_direct(ideal, m, rho)
        assert rep.p_value == 1
        assert rep.standard_weight_sum == 4 * m
        assert rep.mu == -4 * m + Fraction(m * 1, 2) * 6


def test_zero_weights_give_zero_index():
    x0, x1, x2 = variables(3)
    ideal = Ideal(3, (x0 * x2 - x1**2,))
    rep = hm_index_direct(ideal, 3, (0, 0, 0))
    assert rep.mu == 0


def test_direct_rejects_bad_arity_or_degree():
    x0, x1 = variables(2)
    ideal = Ideal(2, (x0 * x1,))
    with pytest.raises(ValueError):
        hm_index_direct(ideal, 2, (1, 0, 0))
    with pytest.raises(ValueError):
        hm_index_direct(ideal, -1, (1, 0))


def test_direct_refuses_a_huge_degree_before_any_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a basis or a walk started before the degree was checked")

    monkeypatch.setattr(groebner, "_buchberger_int", refuse)
    monkeypatch.setattr(hm, "standard_sums", refuse)
    x0, x1, _ = variables(3)
    with pytest.raises(ValueError, match="would enumerate"):
        hm_index_direct(Ideal(3, (x0 * x1,)), 2000, (1, 0, 0))


def test_degree_zero_tells_the_unit_ideal_from_a_proper_one():
    # in degree 0 the state is zero for every ideal; only the count of the
    # one monomial 1 tells whether it is standard
    x0, x1 = variables(2)
    unit = Ideal(2, (Polynomial.constant(2, 1),))
    proper = Ideal(2, (x0 * x1,))
    assert hm_index_direct(unit, 0, (1, 2)).p_value == 0
    assert hm_index_direct(proper, 0, (1, 2)).p_value == 1
    assert hilbert_values(unit, 0) == (1, 0)
    assert hilbert_values(proper, 0) == (0, 1)


def test_direct_agrees_with_the_degree_slice_route():
    # the standard monomials of the full degree-m slice give the same sums
    for seed in range(30):
        rng = random.Random(seed)
        arity = rng.randint(1, 4)
        gens = tuple(
            rand_polynomial(rng, arity, 3, homogeneous=True) for _ in range(rng.randint(0, 3))
        )
        ideal = Ideal(arity, gens)
        rho = tuple(rng.randint(-3, 3) for _ in range(arity))
        for m in range(5):
            rep = hm_index_direct(ideal, m, rho)
            mi = initial_ideal(ideal, weight_order(rho), m)
            standard = monomial_slice(mi, m).standard_monomials
            assert rep.p_value == len(standard)
            assert rep.standard_weight_sum == sum(r * e for mono in standard for r, e in zip(rho, mono))


# ---------------------------------------------------------------------------
# chain route equals direct route


def smallest_chain():
    """Two coordinate lines in the plane meeting at e_1 (blocks 0,1,2)."""
    arity = 3
    return ChainInput((0, 1, 2), (Ideal(arity, ()), Ideal(arity, ())))


def test_two_lines_hand_value():
    # assembled ideal x0 x2: standard degree-1 monomials are all three
    # variables, P(1) = 3, so mu(rho) = -sum(rho) + (1*3/3) sum(rho) = 0;
    # at m = 2 the standard monomials omit x0 x2 only
    chain = smallest_chain()
    rho = (1, 0, 0)
    dec = hm_index_decomposed(chain, 2, rho)
    x0, x1, x2 = variables(3)
    direct = hm_index_direct(Ideal(3, (x0 * x2,)), 2, rho)
    assert dec.mu == direct.mu
    # by hand: standard degree-2 monomials are all but x0 x2; their rho-weight
    # sum is 2+1+0+0+0 = 3; P(2) = 5; mu = -3 + (2*5/3)*1 = 1/3
    assert direct.mu == Fraction(1, 3)
    assert dec.p_value == 5
    assert dec.components is not None and len(dec.components) == 2


def test_decomposed_matches_direct_on_conic_bridge():
    a, b, c, d, e = variables(5)
    chain = ChainInput(
        (0, 2, 4),
        (Ideal(5, (a * c - b**2,)), Ideal(5, (c * e - d**2,))),
    )
    from statepoly.chains import assemble_ideal

    ambient = assemble_ideal(chain)
    rng = random.Random(7)
    for m in (1, 2, 3):
        for _ in range(4):
            rho = tuple(rng.randint(-4, 4) for _ in range(5))
            dec = hm_index_decomposed(chain, m, rho)
            direct = hm_index_direct(ambient, m, rho)
            assert dec.mu == direct.mu, (m, rho)
            assert dec.standard_weight_sum == direct.standard_weight_sum
            assert dec.p_value == direct.p_value


def test_tiebreak_independence():
    a, b, c, d, e = variables(5)
    ideal = Ideal(5, (a * c - b**2, c * e - d**2, a * d, a * e, b * d, b * e))
    rng = random.Random(11)
    for _ in range(6):
        rho = tuple(rng.randint(-3, 3) for _ in range(5))
        via_grevlex = hm_index_direct(ideal, 2, rho)
        assert via_grevlex.mu == lex_refined_index(ideal, 2, rho)


# ---------------------------------------------------------------------------
# aggregate form


def test_aggregates_reproduce_direct_report():
    # feeding a direct report's own aggregates back in returns the same index
    x0, x1 = variables(2)
    ideal = Ideal(2, (x0 * x1,))
    rho = (4, 2)
    m = 3
    rep = hm_index_direct(ideal, m, rho)
    again = hm_from_aggregates(
        sum_y=rep.standard_weight_sum,
        sum_z=0,
        p=rep.p_value,
        n=1,
        m=m,
        sum_r=sum(rho),
    )
    assert again == rep.mu


def test_aggregates_with_junction_term():
    # mu = -(sum_y + sum_z) + (m p / (n+1)) sum_r + m * junction weight
    val = hm_from_aggregates(sum_y=10, sum_z=20, p=6, n=2, m=2, sum_r=9, r_junctions=(4,))
    assert val == -30 + Fraction(2 * 6, 3) * 9 + 2 * 4
