"""Chains: validation, mixed monomials, tau, decomposition, barycenters."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly import groebner
from statepoly.chains import (
    BlockSpec,
    ChainInput,
    ExtremalityError,
    assemble_ideal,
    barycenter_decompose,
    component_block_ideal,
    decomposed_state_polytope,
    extremality_witness,
    initial_slice_partition,
    mixed_ideals,
    semistability_via_components,
    tau_vector,
)
from statepoly.groebner import buchberger, hilbert_values, monomial_slice
from statepoly.orders import grevlex_order
from statepoly.polytope import VPolytope
from statepoly.rings import Ideal, Polynomial
from statepoly.state import enumerate_state_polytope

from conftest import state_of_slice


def variables(arity):
    return tuple(Polynomial.variable(arity, j) for j in range(arity))


# ---------------------------------------------------------------------------
# block bookkeeping


def test_block_spec_basics():
    spec = BlockSpec((0, 2, 4))
    assert spec.n == 4
    assert spec.arity == 5
    assert spec.n_components == 2
    assert spec.junctions == (2,)
    assert list(spec.block_coords(0)) == [0, 1, 2]
    assert list(spec.block_coords(1)) == [2, 3, 4]
    assert spec.block_width(0) == 3
    assert spec.block_start(1) == 2
    assert spec.block_end(1) == 4


def test_structural_violations():
    BlockSpec((0, 2, 4))
    for bounds, problem in [
        ((0,), "need at least two block boundaries"),  # too short
        ((1, 3), "first block boundary is 1, expected 0"),  # must start at 0
        ((0, 3, 2), "block boundaries not strictly increasing: 3 then 2"),
        ((0, 2, 2), "block boundaries not strictly increasing: 2 then 2"),
    ]:
        with pytest.raises(ValueError, match=problem):
            BlockSpec(bounds)


def test_block_spec_raises_on_bad_boundaries():
    with pytest.raises(ValueError):
        BlockSpec((0, 3, 1))
    with pytest.raises(ValueError, match="^invalid chain input: block boundaries not strictly"):
        ChainInput((0, 3, 1), (Ideal(4, ()), Ideal(4, ())))


# ---------------------------------------------------------------------------
# validation at construction


def two_lines_chain():
    # two coordinate lines in the plane-pair arrangement: zero ideals per block
    x0, x1, x2 = variables(3)
    left = Ideal(3, ())
    right = Ideal(3, ())
    return ChainInput((0, 1, 2), (left, right))


def test_validate_accepts_zero_components():
    assert two_lines_chain().warnings == ()


def test_validate_rejects_support_outside_block():
    x0, x1, x2 = variables(3)
    with pytest.raises(ValueError, match="outside block"):
        ChainInput((0, 1, 2), (Ideal(3, (x2,)), Ideal(3, ())))


def test_validate_rejects_junction_nonvanishing():
    x0, x1, x2 = variables(3)
    # generator x0^2 + x1^2 does not vanish at the junction point e_1
    with pytest.raises(ValueError, match="junction"):
        ChainInput((0, 1, 2), (Ideal(3, (x0**2 + x1**2,)), Ideal(3, ())))


def test_validate_warns_on_inhomogeneous():
    x0, x1, x2 = variables(3)
    assert ChainInput((0, 1, 2), (Ideal(3, (x0**2 - x0 * x1,)), Ideal(3, ()))).warnings == ()
    chain2 = ChainInput((0, 1, 2), (Ideal(3, (x0**2 - x0,)), Ideal(3, ())))
    assert any("homogeneous" in w for w in chain2.warnings)


def test_validate_component_count_and_polytopes():
    x0, x1, x2 = variables(3)
    with pytest.raises(ValueError, match="chain has 2 blocks but 1 components"):
        ChainInput((0, 1, 2), (Ideal(3, ()),))
    good_poly = VPolytope(2, [(1, 1), (2, 0)])
    ChainInput((0, 1, 2), (good_poly, Ideal(3, ())))
    bad_dim = VPolytope(5, [(1, 1, 0, 0, 0)])
    with pytest.raises(ValueError, match="polytope dimension 5 is neither"):
        ChainInput((0, 1, 2), (bad_dim, Ideal(3, ())))
    mixed_level = VPolytope(2, [(1, 1), (2, 1)])
    with pytest.raises(ValueError, match="do not share a common coordinate sum"):
        ChainInput((0, 1, 2), (mixed_level, Ideal(3, ())))


def test_component_block_ideal_never_sees_an_invalid_chain():
    # a chain missing a component, or with an ideal of the wrong arity, is
    # refused before any routine (component_block_ideal included) gets it
    x0, x1, x2 = variables(3)
    a, b = variables(2)
    with pytest.raises(ValueError, match="chain has 2 blocks but 1 components"):
        ChainInput((0, 1, 2), (Ideal(3, (x0 * x1,)),))
    with pytest.raises(ValueError, match="component 2: ideal arity 2 does not match ambient arity 3"):
        ChainInput((0, 1, 2), (Ideal(3, ()), Ideal(2, (a**2,))))
    chain = ChainInput((0, 1, 2), (Ideal(3, (x0 * x1,)), Ideal(3, ())))
    assert component_block_ideal(chain, 0) == Ideal(2, (a * b,))


def test_every_violation_is_named_at_once():
    x0, x1, x2 = variables(3)
    with pytest.raises(ValueError) as info:
        ChainInput((0, 1, 2), (Ideal(3, (x2,)), Ideal(3, (x1**2,))))
    assert str(info.value) == (
        "invalid chain input: component 1: generators use coordinates [2] outside "
        "block [0, 1]; component 2: generator does not vanish at the unit point "
        "of junction coordinate 1"
    )


# ---------------------------------------------------------------------------
# mixed monomials and tau


def test_mixed_ideals_three_lines():
    # blocks (0,1,2): one junction at coordinate 1
    # T_1 = <x_0> * <x_2>
    assert mixed_ideals((0, 1, 2)).gens == ((1, 0, 1),)


def test_tau_three_blocks_golden():
    # blocks (0,1,2,3): tau at m=2 counts x_0 x_2, x_0 x_3, x_1 x_3
    tau = tau_vector((0, 1, 2, 3), 2)
    assert tau.mixed_monomial_count == 3
    assert tau.tau == (2, 1, 1, 2)


def test_tau_single_block_is_zero():
    tau = tau_vector((0, 3), 4)
    assert tau.tau == (0, 0, 0, 0)
    assert tau.mixed_monomial_count == 0


def test_tau_counts_each_mixed_monomial_once():
    # blocks (0,1,2,3) at m=3: x_0 x_1 x_3 is mixed for both junctions but
    # must contribute a single exponent vector
    tau = tau_vector((0, 1, 2, 3), 3)
    piece = monomial_slice(mixed_ideals((0, 1, 2, 3)), 3)
    assert tau.mixed_monomial_count == len(piece.in_monomials)
    assert len(set(piece.in_monomials)) == len(piece.in_monomials)


@pytest.mark.parametrize("seed", range(4))
def test_tau_equals_the_state_of_the_full_mixed_slice(seed):
    # the reference enumerates every ambient degree-m monomial; tau walks
    # only the staircase of the mixed ideal
    rng = random.Random(seed)
    for _ in range(3):
        steps = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        blocks = tuple(itertools.accumulate(steps, initial=0))
        for m in range(1, 7):
            piece = monomial_slice(mixed_ideals(blocks), m)
            tau = tau_vector(blocks, m)
            assert tau.tau == state_of_slice(piece), (blocks, m)
            assert tau.mixed_monomial_count == len(piece.in_monomials), (blocks, m)


# ---------------------------------------------------------------------------
# assembling and projecting components


def bridge_of_conics():
    """Two plane conics meeting at a junction point (arity 5, blocks 0,2,4)."""
    a, b, c, d, e = variables(5)
    left = Ideal(5, (a * c - b**2,))
    right = Ideal(5, (c * e - d**2,))
    return ChainInput((0, 2, 4), (left, right))


def test_assemble_ideal_vanishes_on_both_components():
    chain = bridge_of_conics()
    ambient = assemble_ideal(chain)
    gb = buchberger(ambient, grevlex_order(5))
    a, b, c, d, e = variables(5)
    # the ambient ideal contains every product of one generator per side
    assert gb.contains((a * c - b**2) * (c * e - d**2))
    # and the cross products of block variables vanish on the union
    for left_var in (a, b):
        for right_var in (d, e):
            assert gb.contains(left_var * right_var)


def test_component_block_ideal_projects():
    chain = bridge_of_conics()
    small = component_block_ideal(chain, 0)
    assert small.arity == 3
    (gen,) = small.generators
    u, v, w = variables(3)
    assert gen == u * w - v**2


def test_decomposed_equals_direct_for_conic_bridge():
    chain = bridge_of_conics()
    m = 2
    dec = decomposed_state_polytope(chain, m)
    direct = enumerate_state_polytope(assemble_ideal(chain), m)
    assert dec.status == "complete" and direct.status == "complete"
    assert dec.polytope.vertices == direct.polytope.vertices
    assert dec.q == direct.q
    # every decomposed vertex is certified by a strict merged witness
    for vertex, weights in dec.witnesses.items():
        values = {
            v: sum(Fraction(w) * x for w, x in zip(weights, v))
            for v in dec.polytope.vertices
        }
        assert all(values[v] < values[vertex] for v in values if v != vertex)


# ---------------------------------------------------------------------------
# extremality witnesses


def test_extremality_witness_strict():
    poly = VPolytope(2, [(0, 2), (2, 0), (1, 1)])  # midpoint is not a vertex of the hull
    w = extremality_witness(poly, (0, 2))
    assert sum(a * b for a, b in zip(w, (0, 2))) > sum(a * b for a, b in zip(w, (2, 0)))
    with pytest.raises(ExtremalityError):
        extremality_witness(poly, (1, 1))
    with pytest.raises(ValueError):
        extremality_witness(poly, (5, 5))


def test_extremality_witness_single_vertex():
    assert extremality_witness(VPolytope(3, [(1, 2, 3)]), (1, 2, 3)) == (0, 0, 0)


def test_stored_polytope_with_non_extreme_point_is_refused():
    # (1, 1, 0) is the midpoint of the first component's other two points
    left = VPolytope(3, [(2, 0, 0), (0, 2, 0), (1, 1, 0)])
    right = VPolytope(3, [(2, 0, 0), (0, 0, 2)])
    chain = ChainInput((0, 2, 4), [left, right])
    with pytest.raises(ExtremalityError):
        decomposed_state_polytope(chain, 2)


@pytest.mark.parametrize("component", ["ideal", "polytope"])
def test_chain_witnesses_are_plain_ints(component):
    chain = bridge_of_conics()
    if component == "polytope":
        polys = [
            enumerate_state_polytope(component_block_ideal(chain, i), 2).polytope
            for i in range(2)
        ]
        chain = ChainInput(chain.blocks, polys)
    dec = decomposed_state_polytope(chain, 2)
    assert set(dec.witnesses) == set(dec.polytope.vertices)
    for vertex, weights in dec.witnesses.items():
        assert all(type(w) is int for w in weights)
        top = sum(w * x for w, x in zip(weights, vertex))
        others = (v for v in dec.polytope.vertices if v != vertex)
        assert all(sum(w * x for w, x in zip(weights, v)) < top for v in others)


# ---------------------------------------------------------------------------
# barycenter decomposition


def test_barycenter_decompose_golden():
    point = (1, 2, 3, 2, 1)
    summands = barycenter_decompose(point, (0, 2, 4), levels=(5, 4))
    assert summands == (
        (1, 2, 2, 0, 0),
        (0, 0, 1, 2, 1),
    )


def test_barycenter_decompose_requires_matching_levels():
    with pytest.raises(ValueError):
        barycenter_decompose((1, 2, 3, 2, 1), (0, 2, 4), levels=(5, 5))
    with pytest.raises(ValueError):
        barycenter_decompose((1, 2, 3), (0, 2, 4), levels=(4, 4))


def test_barycenter_decompose_allows_negative_entries():
    # the split onto the level hyperplanes always exists when the totals
    # match; junction coordinates may go negative (membership tests reject
    # such summands later, not the decomposition itself)
    summands = barycenter_decompose((5, 0, 0, 0, 1), (0, 2, 4), levels=(2, 4))
    assert summands == ((5, 0, -3, 0, 0), (0, 0, 3, 0, 1))
    assert sum(summands[0]) == 2 and sum(summands[1]) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_barycenter_decompose_reconstructs_and_is_supported(seed):
    rng = random.Random(seed)
    n_blocks = rng.randint(2, 3)
    widths = [rng.randint(2, 3) for _ in range(n_blocks)]
    bounds = [0]
    for w in widths:
        bounds.append(bounds[-1] + w - 1)
    spec = BlockSpec(bounds)
    # build a decomposable point by summing random block-supported vectors
    summands_in = []
    point = [Fraction(0)] * spec.arity
    levels = []
    for i in range(n_blocks):
        coords = list(spec.block_coords(i))
        vec = [Fraction(0)] * spec.arity
        for j in coords:
            vec[j] = Fraction(rng.randint(0, 6), rng.choice([1, 2]))
        levels.append(sum(vec))
        summands_in.append(tuple(vec))
        point = [p + v for p, v in zip(point, vec)]
    got = barycenter_decompose(point, spec, levels)
    # reconstruction is exact
    total = [Fraction(0)] * spec.arity
    for i, s in enumerate(got):
        coords = set(spec.block_coords(i))
        assert all(v == 0 for j, v in enumerate(s) if j not in coords)
        assert sum(s) == levels[i]
        total = [t + v for t, v in zip(total, s)]
    assert tuple(total) == tuple(point)
    # and it is the unique one: greedy reproduces the inputs whenever the
    # inputs already satisfy the left-to-right closing rule
    # (interior coordinates are copied verbatim)
    for i, s in enumerate(got):
        start, end = spec.block_start(i), spec.block_end(i)
        for j in range(start + (1 if i else 0), end if i < n_blocks - 1 else end + 1):
            interior = all(
                j not in (spec.block_start(k), spec.block_end(k))
                for k in range(n_blocks)
                if k != i
            )
            if interior:
                assert s[j] == point[j]


# ---------------------------------------------------------------------------
# semistability via components


def test_semistability_report_structure():
    chain = bridge_of_conics()
    rep = semistability_via_components(chain, 2)
    assert rep.m == 2
    assert len(rep.summands) == 2
    assert len(rep.components) == 2
    assert rep.tau == tau_vector((0, 2, 4), 2).tau
    # target = barycenter - tau
    assert rep.target == tuple(b - t for b, t in zip(rep.barycenter, rep.tau))
    # summands reconstruct the target
    total = [Fraction(0)] * 5
    for s in rep.summands:
        total = [a + b for a, b in zip(total, s)]
    assert tuple(total) == tuple(rep.target)
    assert rep.member_of_hull == all(c.inside for c in rep.components)
    # q is consistent with the assembled ideal
    ambient = assemble_ideal(chain)
    assert rep.q == hilbert_values(ambient, 2)[0]


# ---------------------------------------------------------------------------
# slice partition


def test_initial_slice_partition_conic_bridge():
    chain = bridge_of_conics()
    rep = initial_slice_partition(chain, 2, [(1, 0, 0), (0, 0, 1)])
    assert rep.ok, (rep.missing, rep.extra, rep.overlaps)
    assert rep.junction_powers == ((0, 0, 2, 0, 0),)
    # mixed monomials and embedded slices are disjoint from each other
    families = [set(rep.mixed_monomials)] + [set(s) for s in rep.embedded_slices]
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            assert not families[i] & families[j]
    # and their union is the ambient slice
    union = set().union(*families)
    assert union == set(rep.ambient_in_slice)


def test_initial_slice_partition_computes_one_basis_per_component(monkeypatch):
    orders = []

    def counted(source, order, degree=None):
        orders.append(order)
        return buchberger(source, order, degree)

    monkeypatch.setattr(groebner, "buchberger", counted)
    rep = initial_slice_partition(bridge_of_conics(), 3, [(1, 0, 0), (0, 0, 1)])
    assert rep.ok
    assert len(orders) == len(rep.embedded_slices) == 2


def test_initial_slice_partition_validates_weights():
    chain = bridge_of_conics()
    with pytest.raises(ValueError):
        initial_slice_partition(chain, 2, [(1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        initial_slice_partition(chain, 2, [(1, 0, 0)])
