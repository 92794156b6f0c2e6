"""Groebner engine: textbook bases, membership, slices, elimination."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly import groebner
from statepoly.groebner import (
    ENUMERATION_LIMIT,
    DegreeSlice,
    MonomialIdeal,
    UnionSlices,
    buchberger,
    eliminate,
    hilbert_values,
    implicitize,
    initial_ideal,
    intersect_embedded,
    intersect_ideals,
    monomial_slice,
    standard_monomials,
)
from statepoly.orders import grevlex_order, grlex_order, lex_order, named_order, weight_order
from statepoly.rings import (
    Ideal,
    Polynomial,
    count_monomials,
    degree_monomials,
    mono_divides,
    mono_lcm,
)
from statepoly.rosary import RosarySpec, rosary_assembled_ideal, rosary_end_conics
from statepoly.linalg import primitive
from statepoly.state import StateOracle, enumerate_state_polytope
from conftest import (
    brute_standard_monomials,
    brute_state,
    rand_monomial,
    rand_polynomial,
    reference_reduced_basis,
    state_of_slice,
)


def variables(arity):
    return tuple(Polynomial.variable(arity, j) for j in range(arity))


# ---------------------------------------------------------------------------
# textbook bases


def test_twisted_cubic_lex_elimination():
    # x - t^2, y - t^3 with t eliminated leaves y^2 - x^3
    t, x, y = variables(3)
    gb = buchberger(Ideal(3, (x - t**2, y - t**3)), lex_order(3))
    projected = eliminate(Ideal(3, (x - t**2, y - t**3)), keep=[1, 2])
    polys = set(projected.generators)
    assert polys == {y**2 - x**3} or polys == {x**3 - y**2}
    assert gb.contains(y**2 - x**3)


def test_reduced_gb_is_unique_and_monic():
    x, y = variables(2)
    gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x]
    gb1 = buchberger(Ideal(2, gens), grlex_order(2))
    gb2 = buchberger(Ideal(2, reversed(gens)), grlex_order(2))
    assert tuple(gb1.elements) == tuple(gb2.elements)
    # the classic grlex result for this system
    expected = {x**2, x * y, y**2 - x * Fraction(1, 2)}
    got = set(gb1.elements)
    assert got == expected
    for poly in gb1.elements:
        lead = max(poly.terms, key=gb1.order.key)
        assert poly.terms[lead] == 1


@pytest.mark.parametrize("seed", range(4))
def test_reduced_gb_keeps_primitive_integer_elements(seed):
    rng = random.Random(seed)
    for _ in range(10):
        arity = rng.randint(2, 4)
        gens = [rand_polynomial(rng, arity, rng.randint(1, 3), homogeneous=True) for _ in range(3)]
        order = weight_order([rng.randint(-4, 6) for _ in range(arity)])
        gb = buchberger(Ideal(arity, gens), order)
        assert len(gb.integer_elements) == len(gb.elements) == len(gb.leads)
        for g, lead, monic in zip(gb.integer_elements, gb.leads, gb.elements):
            assert all(type(c) is int for c in g.values())
            assert math.gcd(*g.values()) == 1
            assert max(g, key=order.key) == lead and g[lead] > 0
            assert monic == Polynomial(arity, {m: Fraction(c, g[lead]) for m, c in g.items()})


def test_membership_by_normal_form():
    x, y = variables(2)
    one = Polynomial.constant(2, 1)
    gb = buchberger(Ideal(2, (x**2 + y, y**2 - one)), grevlex_order(2))
    inside = (x**2 + y) * (x + y) + (y**2 - one) * x
    assert gb.contains(inside)
    assert gb.normal_form(inside).is_zero
    assert not gb.contains(x)
    # normal form is idempotent
    nf = gb.normal_form
    assert nf(nf(x * y + x)) == nf(x * y + x)
    # leads with coefficients 2 and 3 make the pseudo-division scale its
    # work; the normal form is still exact: p - nf(p) lies in the ideal
    gb = buchberger(Ideal(2, (2 * x**2 + y, 3 * y**2 - one)), grevlex_order(2))
    for p in (x**3, 5 * x**3 * y + Fraction(1, 2) * x):
        assert not gb.normal_form(p).is_zero
        assert gb.contains(p - gb.normal_form(p))
    assert gb.normal_form(x**3) == x * y * Fraction(-1, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_combinations_reduce_to_zero(seed):
    rng = random.Random(seed)
    arity = rng.randint(2, 3)
    gens = [rand_polynomial(rng, arity, 2, max_terms=2) for _ in range(2)]
    order = named_order(rng.choice(["lex", "grlex", "grevlex"]), arity)
    gb = buchberger(Ideal(arity, gens), order)
    combo = Polynomial.zero(arity)
    for g in gens:
        combo = combo + g * rand_polynomial(rng, arity, 2, max_terms=2)
    assert gb.normal_form(combo).is_zero


# ---------------------------------------------------------------------------
# initial ideals and degree slices


def test_initial_ideal_and_slice():
    x, y = variables(2)
    # the S-polynomial of this pair reduces to zero, so the two leads generate
    gb_leads = initial_ideal(Ideal(2, (x**2 - y**2, x * y + y**2)), grevlex_order(2)).gens
    assert set(gb_leads) == {(2, 0), (1, 1)}
    mi = initial_ideal(Ideal(2, (x**2 - y**2, x * y + y**2)), grevlex_order(2))
    assert mi.contains((2, 5))
    assert not mi.contains((1, 0))
    assert not mi.contains((0, 3))
    piece = monomial_slice(mi, 3)
    assert set(piece.in_monomials) | set(piece.standard_monomials) == set(degree_monomials(2, 3))
    # direct check: standard degree-3 monomials avoid all three leads
    expected_standard = {
        m
        for m in degree_monomials(2, 3)
        if not any(mono_divides(lead, m) for lead in gb_leads)
    }
    assert set(piece.standard_monomials) == expected_standard


def test_degree_slice_matches_monomial_slice():
    x, y, z = variables(3)
    ideal = Ideal(3, (x * y - z**2, y**2 - x * z))
    order = lex_order(3)
    piece = monomial_slice(initial_ideal(ideal, order, 4), 4)
    via_mi = monomial_slice(initial_ideal(ideal, order), 4)
    assert piece.in_monomials == via_mi.in_monomials
    assert piece.standard_monomials == via_mi.standard_monomials


def test_initial_ideal_marks_the_basis_it_was_read_from():
    x, y, z = variables(3)
    ideal = Ideal(3, (x**2 - y * z, x * y - z**2))
    order = weight_order([0, 1, 3])
    mi = initial_ideal(ideal, order)
    assert sorted(lead for lead, _ in mi.marked) == sorted(mi.gens)
    for lead, tails in mi.marked:
        assert tails and all(order.key(lead) > order.key(t) for t in tails)
    # equality and hashing see the generators only
    plain = MonomialIdeal(3, mi.gens)
    assert plain.marked == () and plain == mi and hash(plain) == hash(mi)


# ---------------------------------------------------------------------------
# degree-truncated bases against the full run


def truncation_orders(rng: random.Random, arity: int, nonnegative: bool = False):
    low = 0 if nonnegative else -3
    return [grevlex_order(arity), lex_order(arity)] + [
        weight_order([rng.randint(low, 3) for _ in range(arity)]) for _ in range(3)
    ]


def rand_gens(rng: random.Random, homogeneous: bool) -> tuple[int, list[Polynomial]]:
    arity = rng.randint(3, 4)
    count = rng.randint(2, 4)
    return arity, [
        rand_polynomial(rng, arity, 3, max_terms=4, homogeneous=homogeneous) for _ in range(count)
    ]


def test_truncated_initial_ideal_agrees_with_the_full_one_up_to_its_degree():
    rng = random.Random(91)
    above = 0
    for _ in range(14):
        arity, gens = rand_gens(rng, homogeneous=True)
        ideal = Ideal(arity, gens)
        for order in truncation_orders(rng, arity):
            full = initial_ideal(ideal, order)
            for m in range(1, 5):
                cut = initial_ideal(ideal, order, degree=m)
                assert cut.gens == tuple(g for g in full.gens if sum(g) <= m), (gens, order, m)
                for d in range(m + 1):
                    assert standard_monomials(cut, d) == standard_monomials(full, d), (gens, order, m, d)
                above += any(sum(g) > m for g in full.gens)
    # the full bases reach above the cut often, so the cut is exercised
    assert above > 100


def test_truncated_basis_gives_the_full_normal_forms():
    rng = random.Random(92)
    for _ in range(10):
        arity, gens = rand_gens(rng, homogeneous=True)
        ideal = Ideal(arity, gens)
        for order in truncation_orders(rng, arity):
            full = buchberger(ideal, order)
            for d in range(1, 5):
                cut = buchberger(ideal, order, degree=d)
                kept = [(l, g) for l, g in zip(full.leads, full.elements) if sum(l) <= d]
                assert list(zip(cut.leads, cut.elements)) == kept, (gens, order, d)
                for mono in degree_monomials(arity, d):
                    poly = Polynomial(arity, {mono: 1})
                    assert cut.normal_form(poly) == full.normal_form(poly), (gens, order, d, mono)


def test_inhomogeneous_generators_ignore_the_degree():
    rng = random.Random(93)
    runs = 0
    for _ in range(12):
        arity, gens = rand_gens(rng, homogeneous=False)
        # one homogeneous generator more leaves the ideal inhomogeneous
        gens.append(rand_polynomial(rng, arity, 3, homogeneous=True))
        if all(g.is_homogeneous() for g in gens):
            continue
        ideal = Ideal(arity, gens)
        for order in truncation_orders(rng, arity, nonnegative=True):
            full = initial_ideal(ideal, order)
            for m in (1, 2):
                cut = initial_ideal(ideal, order, degree=m)
                assert (cut.gens, cut.marked) == (full.gens, full.marked), (gens, order, m)
                runs += 1
    assert runs > 50


def test_minimal_basis_under_a_weight_with_negative_entries():
    # under the weight (0, -3, -1) the lead y*z^2 of y*z^2 - y^3 ranks below
    # z^2, which divides it: the minimal basis must meet divisors first
    x, y, z = variables(3)
    ideal = Ideal(3, (3 * z**2, 2 * x * z + y * z, 2 * y**3 - 2 * y * z**2))
    gb = buchberger(ideal, weight_order([0, -3, -1]))
    assert gb.leads == ((0, 3, 0), (0, 0, 2), (1, 0, 1))
    assert gb.elements == (y**3, z**2, x * z + Fraction(1, 2) * y * z)
    assert all(gb.contains(g) for g in ideal.generators)


def test_inhomogeneous_generators_need_a_well_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a reduction started before the order was checked")

    monkeypatch.setattr(groebner, "_normal_form_int", refuse)
    x, y = variables(2)
    ideal = Ideal(2, (x - x**2, y - x**2))
    for order in (weight_order([-1, -1]), weight_order([1, -1])):
        assert order.validate()
        with pytest.raises(ValueError, match="need a well-order: not a well-order"):
            buchberger(ideal, order)
        with pytest.raises(ValueError, match="need a well-order"):
            initial_ideal(ideal, order, degree=2)


def test_truncated_runs_pair_no_lcm_above_the_degree(monkeypatch):
    spec = RosarySpec(2)
    ideal = rosary_assembled_ideal(spec, rosary_end_conics(spec))
    m = 2
    degrees = []
    spoly = groebner._spoly

    def recorded(fi, fj, li, lj, key):
        degrees.append(sum(mono_lcm(li, lj)))
        return spoly(fi, fj, li, lj, key)

    monkeypatch.setattr(groebner, "_spoly", recorded)
    # the full basis for this order has an element of degree 3
    order = weight_order([1, 0, 0, 0, 0, 0, 0])
    assert max(sum(g) for g in initial_ideal(ideal, order).gens) > m
    assert max(degrees) > m
    degrees.clear()
    oracle = StateOracle(ideal, m)
    result = enumerate_state_polytope(ideal, m, oracle=oracle)
    assert result.complete and len(result.polytope.vertices) == 62
    assert degrees and max(degrees) <= m
    for key in oracle._memo:
        full = initial_ideal(ideal, weight_order(key))
        assert oracle._memo[key] == brute_state(full.gens, ideal.arity, m), key


# ---------------------------------------------------------------------------
# the pair queue: differential tests against full runs and a textbook run


def queue_weights(rng: random.Random, arity: int) -> list[int]:
    """A weight with negative entries and at least one tie."""
    w = [rng.randint(-3, 3) for _ in range(arity)]
    w[rng.randrange(arity)] = w[rng.randrange(arity)]
    return w


def rand_homogeneous_ideal(rng: random.Random) -> Ideal:
    arity = rng.randint(4, 6)
    gens = [
        rand_polynomial(rng, arity, 3, max_terms=3, homogeneous=True)
        for _ in range(rng.randint(2, 4))
    ]
    return Ideal(arity, gens)


def recorded_lcms(monkeypatch) -> list[tuple]:
    calls = []
    lcm = groebner.mono_lcm

    def recorded(a, b):
        calls.append((a, b))
        return lcm(a, b)

    monkeypatch.setattr(groebner, "mono_lcm", recorded)
    return calls


def test_pruned_truncated_runs_match_the_full_run(monkeypatch):
    rng = random.Random(700)
    calls = recorded_lcms(monkeypatch)
    above = pruned = 0
    for _ in range(24):
        ideal = rand_homogeneous_ideal(rng)
        for _ in range(3):
            w = queue_weights(rng, ideal.arity)
            calls.clear()
            full = initial_ideal(ideal, weight_order(w))
            formed = len(calls)
            for m in range(2, 7):
                calls.clear()
                cut = initial_ideal(ideal, weight_order(w), m)
                # no pair above the degree and no coprime pair was ever formed
                assert all(sum(map(max, a, b)) <= m for a, b in calls), (ideal, w, m)
                assert all(any(map(min, a, b)) for a, b in calls), (ideal, w, m)
                assert cut.gens == tuple(g for g in full.gens if sum(g) <= m), (ideal, w, m)
                state = state_of_slice(monomial_slice(full, m))
                assert state_of_slice(monomial_slice(cut, m)) == state, (ideal, w, m)
                assert StateOracle(ideal, m).state_for_direction(w) == state, (ideal, w, m)
                above += any(sum(g) > m for g in full.gens)
                pruned += len(calls) < formed
    # the full bases reach above the cut, and the cut forms fewer pairs
    assert above > 60 and pruned > 60, (above, pruned)


def test_buchberger_matches_a_textbook_run_on_inhomogeneous_input(monkeypatch):
    calls = recorded_lcms(monkeypatch)
    sizes = []
    for seed in range(10):
        rng = random.Random(800 + seed)
        x = variables(3)
        # every generator vanishes at the origin, so no ideal is the unit
        # ideal, and the cube with terms below it keeps each inhomogeneous
        gens = [rand_polynomial(rng, 3, 2, max_terms=3) * rng.choice(x) for _ in range(2)]
        gens.append(rng.choice(x) ** 3 + rand_polynomial(rng, 3, 2, max_terms=2) * rng.choice(x))
        ideal = Ideal(3, gens)
        assert not ideal.is_homogeneous()
        w = [rng.randint(0, 3) for _ in range(3)]
        w[rng.randrange(3)] = w[rng.randrange(3)]
        for order in (grevlex_order(3), lex_order(3), weight_order(w)):
            calls.clear()
            gb = buchberger(ideal, order, degree=2)
            assert all(any(map(min, a, b)) for a, b in calls), (gens, order)
            want = reference_reduced_basis(ideal.generators, order.rows)
            assert [(l, g.terms) for l, g in zip(gb.leads, gb.elements)] == want, (gens, order)
            sizes.append(len(want))
    assert sum(sizes) > 80 and max(sizes) >= 5, sizes


def test_weight_keys_from_a_shared_grevlex_cache_are_the_row_products():
    rng = random.Random(17)
    for arity in range(1, 7):
        grevlex = grevlex_order(arity)
        for _ in range(6):
            w = [rng.randint(-4, 4) for _ in range(arity)]
            shared = weight_order(w, grevlex)
            alone = weight_order(w)
            assert shared.rows == alone.rows == (primitive(w),) + grevlex.rows
            for _ in range(20):
                mono = rand_monomial(rng, arity, rng.randint(0, 6))
                plain = tuple(sum(r * e for r, e in zip(row, mono)) for row in shared.rows)
                assert shared.key(mono) == alone.key(mono) == plain, (w, mono)
        # the grevlex order itself answers from the cache its weight orders filled
        for mono in degree_monomials(arity, 3):
            plain = tuple(sum(r * e for r, e in zip(row, mono)) for row in grevlex.rows)
            assert grevlex.key(mono) == plain
    with pytest.raises(ValueError, match="is not the grevlex order in 3 variables"):
        weight_order([1, 2, 3], lex_order(3))
    with pytest.raises(ValueError, match="is not the grevlex order in 3 variables"):
        weight_order([1, 2, 3], grevlex_order(4))


def test_standard_monomials_match_a_scan():
    rng = random.Random(11)
    for arity in range(1, 6):
        ideals = [MonomialIdeal(arity, ()), MonomialIdeal(arity, [(0,) * arity])]
        for _ in range(8):
            count = rng.randint(1, 5)
            ideals.append(
                MonomialIdeal(arity, [rand_monomial(rng, arity, rng.randint(1, 4)) for _ in range(count)])
            )
        for mi in ideals:
            for m in range(9):
                standard = brute_standard_monomials(mi.gens, arity, m)
                assert standard_monomials(mi, m) == standard, (mi, m)
                inside = sorted(set(degree_monomials(arity, m)) - set(standard))
                assert monomial_slice(mi, m) == DegreeSlice(arity, m, tuple(inside), tuple(standard))


def test_union_in_slice_of_two_points():
    # [1:0:0] and [0:1:0] are cut out by (x1, x2) and (x0, x2); their union
    # by (x2, x0*x1), and only x0^2 and x1^2 stay standard in degree 2
    point = Ideal(1, ())
    piece = UnionSlices(3, [([0], point), ([1], point)], 2).union(lex_order(3))
    assert piece.standard_monomials == ((0, 2, 0), (2, 0, 0))
    assert piece.in_monomials == ((0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_union_in_slice_brings_blocks_to_one_scale():
    # the point (2x - 3y, z) lies on the line 10x - 15y + z = 0, so the
    # union is the line and x = 3/2*y - 1/10*z modulo both; x reduces with
    # pseudo-division scale 2 modulo the point and 10 modulo the line, and
    # stacking the raw remainders would make x independent of y and z
    x, y, z = variables(3)
    u, v = variables(2)
    point = Ideal(2, (2 * u - 3 * v,))
    line = Ideal(3, (10 * x - 15 * y + z,))
    components = [([0, 1], point), ([0, 1, 2], line)]
    order = grevlex_order(3)
    assert UnionSlices(3, components, 1).union(order).in_monomials == ((1, 0, 0),)
    assembled = intersect_embedded(3, components)
    for d in (1, 2, 3):
        expected = monomial_slice(initial_ideal(assembled, order, d), d)
        assert UnionSlices(3, components, d).union(order) == expected


def test_union_in_slice_matches_elimination_on_overlapping_components():
    # random forms with non-unit coefficients on overlapping coordinate sets:
    # a monomial in two components reduces with a different pseudo-division
    # scale in each, so the blocks of its column need one common scale
    rng = random.Random(31)
    for _ in range(30):
        arity = rng.randint(3, 5)
        components = []
        for _ in range(rng.randint(2, 3)):
            coords = sorted(rng.sample(range(arity), rng.randint(2, 3)))
            gens = [
                rand_polynomial(rng, len(coords), 2, homogeneous=True)
                for _ in range(rng.randint(0, 2))
            ]
            components.append((coords, Ideal(len(coords), gens)))
        assembled = intersect_embedded(arity, components)
        order = weight_order([rng.randint(0, 5) for _ in range(arity)])
        for d in (1, 2, 3):
            piece = UnionSlices(arity, components, d).union(order)
            expected = monomial_slice(initial_ideal(assembled, order, d), d)
            assert piece == expected, (components, d)


def test_union_in_slice_refuses_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("slice work started before the input was checked")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    monkeypatch.setattr(groebner, "degree_monomials", refuse)
    x, y = variables(2)
    conic = Ideal(2, (x * y,))
    with pytest.raises(ValueError, match="component 2 is not homogeneous"):
        UnionSlices(3, [([0, 1], conic), ([1, 2], Ideal(2, (x * y - y,)))], 2)
    # the guard compares the count with the limit; it never lists the monomials
    arity = 1201
    assert count_monomials(arity, 3) > ENUMERATION_LIMIT
    with pytest.raises(ValueError, match="would enumerate"):
        UnionSlices(arity, [([0, 1], conic)], 3)
    with pytest.raises(ValueError, match="lists 3 coordinates for a ring in 2 variables"):
        UnionSlices(3, [([0, 1, 2], conic)], 2)


def test_hilbert_values_against_brute_force_monomial_count():
    x, y, z = variables(3)
    ideal = Ideal(3, (x * y - z**2, y**2 - x * z))
    for m in range(1, 6):
        q, p = hilbert_values(ideal, m)
        mi = initial_ideal(ideal, grevlex_order(3))
        brute_q = sum(1 for mono in degree_monomials(3, m) if mi.contains(mono))
        assert q == brute_q
        assert q + p == len(degree_monomials(3, m))


def test_hilbert_values_refuses_a_huge_degree_before_any_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a basis or a walk started before the degree was checked")

    monkeypatch.setattr(groebner, "_buchberger_int", refuse)
    monkeypatch.setattr(groebner, "standard_monomials", refuse)
    arity = 1201
    assert count_monomials(arity, 3) > ENUMERATION_LIMIT
    x0 = Polynomial.variable(arity, 0)
    for source in (Ideal(arity, (x0,)), MonomialIdeal(arity, [(1,) + (0,) * (arity - 1)])):
        with pytest.raises(ValueError, match="would enumerate"):
            hilbert_values(source, 3)


def test_hilbert_values_order_invariance_small():
    x, y, z = variables(3)
    ideal = Ideal(3, (x**2 - y * z, x * z - y**2))
    orders = [lex_order(3), grlex_order(3), grevlex_order(3), weight_order([3, 1, 2])]
    for m in (1, 2, 3, 4):
        values = {hilbert_values(ideal, m, order)[0] for order in orders}
        assert len(values) == 1


# ---------------------------------------------------------------------------
# elimination toolbox


def test_intersect_monomial_ideals_is_pairwise_lcm():
    # for monomial ideals, the intersection is generated by pairwise lcms
    x, y, z = variables(3)
    left = Ideal(3, (x * y, z**2))
    right = Ideal(3, (y**2, x * z))
    inter = intersect_ideals(left, right)
    gb = buchberger(inter, grevlex_order(3))
    lcms = []
    for a in ((1, 1, 0), (0, 0, 2)):
        for b in ((0, 2, 0), (1, 0, 1)):
            lcms.append(mono_lcm(a, b))
    expected = buchberger(
        Ideal(3, (Polynomial(3, {m: 1}) for m in lcms)), grevlex_order(3)
    )
    assert tuple(gb.elements) == tuple(expected.elements)


def test_intersect_principal_ideals():
    x, y = variables(2)
    inter = intersect_ideals(Ideal(2, (x,)), Ideal(2, (y,)))
    gb = buchberger(inter, grevlex_order(2))
    assert tuple(gb.elements) == (x * y,)


def test_eliminate_keeps_requested_coordinates():
    t, x, y, z = variables(4)
    ideal = Ideal(4, (x - t**2, y - t**3, z - t**4))
    out = eliminate(ideal, keep=[1, 2, 3])
    assert out.arity == 4
    for g in out.generators:
        assert g.support_variables() <= {1, 2, 3}
    gb = buchberger(out, grevlex_order(4))
    assert gb.contains(x * z - y**2)
    assert gb.contains(x**2 - z)


@pytest.mark.parametrize("keep", [[7], [0, -1]])
def test_eliminate_refuses_coordinates_out_of_range(keep):
    x, y, z = variables(3)
    with pytest.raises(ValueError, match=r"kept coordinates \[-?\d\] outside 0..2"):
        eliminate(Ideal(3, (x * z - y**2,)), keep=keep)


def test_implicitize_twisted_cubic():
    s, t = variables(2)
    forms = (s**3, s**2 * t, s * t**2, t**3)
    ideal = implicitize(forms)
    assert ideal.arity == 4
    x0, x1, x2, x3 = variables(4)
    gb = buchberger(ideal, grevlex_order(4))
    for rel in (x0 * x2 - x1**2, x1 * x3 - x2**2, x0 * x3 - x1 * x2):
        assert gb.contains(rel)
    assert all(g.is_homogeneous() for g in ideal.generators)


def test_implicitize_rejects_mixed_arity():
    s, t = variables(2)
    u = Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        implicitize((s * t, u))
