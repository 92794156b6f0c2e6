"""Chains: validation, mixed monomials, tau, decomposition, barycenters."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepoly import chains, groebner
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
from statepoly.polytope import VPolytope, facets
from statepoly.rings import Ideal, Polynomial
from statepoly.state import enumerate_state_polytope

import conftest
from conftest import (
    brute_extreme_points,
    permute_ideal,
    reference_component_polytopes,
    reference_decomposed_state_polytope,
    sextic_ideal,
    state_of_slice,
)


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


# ---------------------------------------------------------------------------
# the prefix fold against the per-combination assembly it replaced


def random_block_ideal(rng, spec, i):
    """A quadric binomial on block ``i`` with no square of a junction
    variable, so it vanishes at the junction unit points (or no generator
    when the block offers fewer than two such monomials)."""
    x = variables(spec.arity)
    quadrics = [
        x[a] * x[b]
        for a, b in itertools.combinations_with_replacement(spec.block_coords(i), 2)
        if a != b or a not in spec.junctions
    ]
    if len(quadrics) < 2:
        return Ideal(spec.arity, [])
    f, g = rng.sample(quadrics, 2)
    return Ideal(spec.arity, [f - g])


def random_block_polytope(rng, width, m, den):
    """The extreme points of a few random points of coordinate sum ``m*q``
    with coordinates in ``(1/den) Z``."""
    total = den * m * rng.randint(1, 2)
    points = set()
    for _ in range(rng.randint(1, 6)):
        cuts = sorted(rng.randint(0, total) for _ in range(width - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        points.add(tuple(Fraction(p, den) for p in parts))
    return VPolytope(width, brute_extreme_points(points))


def test_the_prefix_fold_matches_the_per_combination_assembly():
    seen = set()
    for seed in range(48):
        rng = random.Random(seed)
        n_components = 1 + seed % 4
        kinds = [rng.choice(("ideal", "integer", "rational")) for _ in range(n_components)]
        widths = [rng.randint(2, 3 if kind == "ideal" else 4) for kind in kinds]
        spec = BlockSpec(itertools.accumulate((w - 1 for w in widths), initial=0))
        m = rng.randint(1, 3)
        components = [
            random_block_ideal(rng, spec, i) if kind == "ideal"
            else random_block_polytope(rng, width, m, 2 if kind == "rational" else 1)
            for i, (kind, width) in enumerate(zip(kinds, widths))
        ]
        chain = ChainInput(spec.boundaries, components)
        got = decomposed_state_polytope(chain, m)
        want = reference_decomposed_state_polytope(chain, m)
        assert got.polytope == want.polytope
        assert list(got.witnesses.items()) == list(want.witnesses.items())
        assert (got.m, got.status, got.q, got.query_count, got.tau) == (
            want.m, want.status, want.q, want.query_count, want.tau
        )
        # the exact-scalar rule: an int where integral, a Fraction otherwise
        assert all(type(x) is int or x.denominator > 1 for v in got.witnesses for x in v)
        assert all(type(h) is int for w in got.witnesses.values() for h in w)
        seen.update((n_components, kind) for kind in kinds)
    assert seen == {(n, kind) for n in range(1, 5) for kind in ("ideal", "integer", "rational")}


def test_the_fold_refuses_colliding_sums_as_the_assembly_did(monkeypatch):
    # two combinations can only meet when a block's vertices have no common
    # coordinate sum, which a ChainInput refuses, so the blocks are passed in
    # behind the chain's back: (0, 1) + (0, 0) and (0, 0) + (1, 0) both give
    # (0, 1, 0)
    blocks = [VPolytope(2, [(0, 1), (0, 0)]), VPolytope(2, [(1, 0), (0, 0)])]

    def colliding(chain, m, budget):
        return tau_vector(chain.spec, m), 0, 0, [(poly, facets(poly)) for poly in blocks]

    monkeypatch.setattr(chains, "_component_polytopes", colliding)
    monkeypatch.setattr(conftest, "_component_polytopes", colliding)
    chain = ChainInput((0, 1, 2), [VPolytope(2, [(1, 0), (0, 1)])] * 2)
    message = "extremality violated: 4 vertex combinations produced only 3 distinct sums"
    for build in (decomposed_state_polytope, reference_decomposed_state_polytope):
        with pytest.raises(ExtremalityError) as raised:
            build(chain, 1)
        assert str(raised.value) == message


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
# equal components enumerated once, against one enumeration per block


def counted_enumerations(monkeypatch) -> list:
    """The block ideals the chain routes enumerate from now on."""
    calls = []

    def counted(ideal, m, budget=None):
        calls.append(ideal)
        return enumerate_state_polytope(ideal, m, budget)

    monkeypatch.setattr(chains, "enumerate_state_polytope", counted)
    return calls


def counted_basis_runs(monkeypatch) -> list:
    """The ideals whose truncated bases the reuse proof computes from now on."""
    calls = []

    def counted(ideal, order, m):
        calls.append(ideal)
        return buchberger(ideal, order, m)

    monkeypatch.setattr(chains, "buchberger", counted)
    return calls


def placed(base, start, width, mirrored):
    """``base``, an ideal on the coordinates ``0..width-1``, moved onto the
    block that starts at ``start``, its coordinates reversed if
    ``mirrored``."""
    arity = base.arity
    if mirrored:
        return permute_ideal(base, [(start + width - 1 - j) % arity for j in range(arity)])
    return permute_ideal(base, [(j - start) % arity for j in range(arity)])


def random_base_ideal(rng, arity, width):
    """One or two random quadric trinomials on the coordinates
    ``0..width-1``, and half the time a cubic binomial, with no power of an
    end variable, so they vanish at both end unit points and the block may
    sit anywhere in a chain.  With the cubic, deciding whether two such
    components are equal takes their truncated bases from degree 3 on."""
    x = variables(arity)

    def forms(degree):
        return [
            math.prod(x[j] for j in js)
            for js in itertools.combinations_with_replacement(range(width), degree)
            if len(set(js)) > 1 or js[0] not in (0, width - 1)
        ]

    quadrics = forms(2)
    gens = []
    for _ in range(rng.randint(1, 2)):
        f, g, h = rng.sample(quadrics, 3)
        gens.append(f - rng.choice((1, 2)) * g + rng.choice((-1, 0, 1)) * h)
    if rng.random() < 0.5:
        f, g = rng.sample(forms(3), 2)
        gens.append(f - g)
    return Ideal(arity, gens)


def both_routes(monkeypatch, chain, m):
    """The decomposed polytope and the semistability report with equal
    components reused, the number of components that enumerated, and both
    again with every block enumerated."""
    calls = counted_enumerations(monkeypatch)
    got = decomposed_state_polytope(chain, m), semistability_via_components(chain, m)
    monkeypatch.setattr(chains, "_component_polytopes", reference_component_polytopes)
    want = decomposed_state_polytope(chain, m), semistability_via_components(chain, m)
    monkeypatch.undo()
    # each route reads every component once
    return got, len(calls) // 2, want


def assert_same_but_fewer_queries(got, want):
    (got_poly, got_semi), (want_poly, want_semi) = got, want
    assert got_poly.polytope == want_poly.polytope
    assert list(got_poly.witnesses.items()) == list(want_poly.witnesses.items())
    assert (got_poly.m, got_poly.status, got_poly.q, got_poly.tau) == (
        want_poly.m, want_poly.status, want_poly.q, want_poly.tau
    )
    assert got_poly.query_count <= want_poly.query_count
    assert got_semi == want_semi


def test_equal_components_are_enumerated_once(monkeypatch):
    kinds_seen, reused, reused_after_basis_runs = set(), 0, 0
    for seed in range(24):
        rng = random.Random(seed)
        width, n_components = rng.randint(3, 4), rng.randint(2, 3)
        spec = BlockSpec(range(0, (width - 1) * n_components + 1, width - 1))
        m = rng.randint(1, 3)
        bases = [random_base_ideal(rng, spec.arity, width)]
        components = [placed(bases[0], 0, width, False)]
        kinds = ["fresh"]
        for i in range(1, n_components):
            kind = rng.choice(("repeat", "mirror", "fresh"))
            if kind == "fresh":
                bases.append(random_base_ideal(rng, spec.arity, width))
            base = bases[-1] if kind == "fresh" else rng.choice(bases)
            components.append(placed(base, spec.block_start(i), width, kind == "mirror"))
            kinds.append(kind)
        basis_runs = counted_basis_runs(monkeypatch)
        got, enumerated, want = both_routes(monkeypatch, ChainInput(spec.boundaries, components), m)
        assert_same_but_fewer_queries(got, want)
        # a repeated or mirrored component is never enumerated
        assert enumerated <= kinds.count("fresh"), (seed, kinds)
        reused += n_components - enumerated
        reused_after_basis_runs += bool(basis_runs) and enumerated < n_components
        kinds_seen.update(kinds)
    assert kinds_seen == {"fresh", "repeat", "mirror"}
    assert reused > 0
    # some components with a cubic were proved equal by their bases
    assert reused_after_basis_runs > 0


def chain_with_a_second_component(kind):
    """The benchmark's sextic chain on blocks 0,4,8 (the sextic at arity 9
    and a second component built from it, or the rational normal quartic),
    or a conic bridge whose second component repeats an inhomogeneous
    first."""
    if kind == "inhomogeneous repeat":
        a, b, c = variables(5)[:3]
        left = Ideal(5, (a * c - b**2 + b,))
        return ChainInput((0, 2, 4), (left, placed(left, 2, 3, False)))
    x = variables(9)
    sextic = Ideal(
        9, [Polynomial(9, {mono + (0,) * 4: c for mono, c in g.terms.items()}) for g in sextic_ideal().generators]
    )
    if kind == "unrelated":
        # the 2x2 minors of [[x4, x5, x6, x7], [x5, x6, x7, x8]]
        quartic = [x[i] * x[j + 1] - x[i + 1] * x[j] for i, j in itertools.combinations(range(4, 8), 2)]
        return ChainInput((0, 4, 8), (sextic, Ideal(9, quartic)))
    left = sextic
    if "cubic" in kind:
        left = Ideal(9, [*sextic.generators, x[1] * x[2] * x[3]])
    right = placed(left, 4, 5, kind != "repeat")
    if kind == "near miss":
        # the mirror with one coefficient changed
        *kept, last = right.generators
        terms = dict(last.terms)
        terms[max(terms)] *= 2
        right = Ideal(9, [*kept, Polynomial(9, terms)])
    if kind == "cubic near miss":
        # the mirror of the sextic with another cubic: equal in degree 2 only
        right = placed(Ideal(9, [*sextic.generators, x[1] ** 2 * x[2]]), 4, 5, True)
    return ChainInput((0, 4, 8), (left, right))


@pytest.mark.parametrize(
    "kind, m, enumerated, basis_runs",
    [
        ("mirror", 2, 1, False),
        ("repeat", 2, 1, False),
        ("near miss", 2, 2, False),
        ("unrelated", 2, 2, False),
        ("mirror with a cubic", 3, 1, True),
        ("cubic near miss", 3, 2, True),
        ("cubic near miss", 2, 1, False),
        ("inhomogeneous repeat", 2, 2, False),
    ],
)
def test_a_component_is_reused_only_when_proved_equal(monkeypatch, kind, m, enumerated, basis_runs):
    # when every generator up to degree m has one degree, the generators of
    # that degree decide with no basis run
    runs = counted_basis_runs(monkeypatch)
    got, calls, want = both_routes(monkeypatch, chain_with_a_second_component(kind), m)
    assert calls == enumerated
    assert bool(runs) is basis_runs
    assert_same_but_fewer_queries(got, want)
    if enumerated == 1:
        assert got[0].query_count < want[0].query_count


def random_homogeneous_ideal(rng, width):
    """One to three random homogeneous binomials or trinomials of degree 1
    to 3 on ``width`` coordinates."""
    x = variables(width)
    gens = []
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(1, 3)
        monomials = list(itertools.combinations_with_replacement(range(width), degree))
        picked = rng.sample(monomials, min(len(monomials), rng.randint(2, 3)))
        terms = [math.prod(x[j] for j in js) for js in picked]
        gens.append(sum((rng.choice((-2, -1, 1, 2)) * t for t in terms[1:]), terms[0]))
    return Ideal(width, gens)


def test_agreement_to_degree_is_the_truncated_basis_comparison(monkeypatch):
    """``_agree_to_degree`` answers what comparing the reduced truncated
    grevlex bases answers, and computes no basis when the generators of
    degree at most ``m`` of both ideals have one degree."""
    runs = counted_basis_runs(monkeypatch)
    outcomes = set()
    for seed in range(150):
        rng = random.Random(seed)
        width, m = rng.randint(2, 4), rng.randint(1, 3)
        a = random_homogeneous_ideal(rng, width)
        reversal = list(range(width - 1, -1, -1))
        kind = rng.choice(("same", "rewritten", "mirror", "extra", "fresh"))
        if kind == "fresh":
            b = random_homogeneous_ideal(rng, width)
        elif kind == "extra":
            b = Ideal(width, [*a.generators, *random_homogeneous_ideal(rng, width).generators[:1]])
        else:
            b = a
            if kind != "same":
                # the same ideal on other generators: a multiple of one, and
                # one replaced by its sum with another of its degree
                first, *rest = b.generators
                alike = [g for g in rest if g.degree() == first.degree()]
                x = variables(width)
                b = Ideal(width, [*rest, first + 2 * alike[0] if alike else first, rng.choice(x) * first])
            if kind == "mirror":
                b = permute_ideal(b, reversal)

        def basis(ideal):
            return buchberger(ideal, grevlex_order(width), m).integer_elements

        def one_degree(ideal):
            return len({d for d in ideal.integer_degrees if d <= m}) <= 1

        for reverse in (False, True):
            image = permute_ideal(a, reversal) if reverse else a
            want = basis(image) == basis(b)
            runs.clear()
            assert chains._agree_to_degree(a, b, m, {}, reverse) is want, (seed, kind, reverse)
            if one_degree(a) and one_degree(b):
                assert not runs
            outcomes.add((want, bool(runs)))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


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
