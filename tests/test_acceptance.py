"""Acceptance gate: one test per shipped guarantee, exact arithmetic only.

Each test prints the key artifacts it checks; ``pytest -v`` shows one
pass/fail line per guarantee.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from statepoly import groebner
from statepoly.chains import (
    ChainInput,
    assemble_ideal,
    barycenter_decompose,
    component_block_ideal,
    decomposed_state_polytope,
    initial_slice_partition,
    semistability_via_components,
    tau_vector,
)
from statepoly.groebner import (
    UnionSlices,
    buchberger,
    degree_slice,
    hilbert_values,
    implicitize,
    initial_ideal,
)
from statepoly.hm import hm_from_aggregates, hm_index_decomposed, hm_index_direct
from statepoly.lp import audit_feasibility, member_convex_hull, solve_lp
from statepoly.orders import (
    elimination_order,
    grevlex_order,
    lex_order,
    matrix_order,
    merge_chain_weights,
    named_order,
    weight_order,
)
from statepoly.parsing import parse_ideal_file
from statepoly.polytope import facets, load_polytope, trivial_character_point
from statepoly.rings import Ideal, Polynomial
from statepoly.rosary import RosarySpec, rosary_component_ideal, rosary_w
from statepoly.state import enumerate_state_polytope

from conftest import brute_hull_member, lex_refined_index, rand_point

DATA = Path(__file__).resolve().parent.parent / "data"


def frac_tuple(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def load_chain_of_ideals(path: Path) -> ChainInput:
    doc = parse_ideal_file(path.read_text(encoding="utf-8"))
    components = tuple(
        Ideal(doc.arity, doc.sections[k]) for k in sorted(doc.sections)
    )
    return ChainInput(doc.blocks, components)


def embed_polynomial(poly: Polynomial, start: int, arity: int) -> Polynomial:
    return Polynomial(
        arity,
        {
            (0,) * start + mono + (0,) * (arity - start - poly.arity): c
            for mono, c in poly.terms.items()
        },
    )


def embed_ideal(ideal: Ideal, start: int, arity: int) -> Ideal:
    return Ideal(arity, tuple(embed_polynomial(g, start, arity) for g in ideal.generators))


# ---------------------------------------------------------------------------
# 1. plane curve: assembled ideal and direct state enumeration


PLANE_CURVE_VERTICES = {
    frac_tuple(v)
    for v in [
        (14, 11, 5, 13, 11),
        (14, 11, 4, 11, 14),
        (12, 11, 6, 11, 14),
        (11, 13, 5, 11, 14),
        (12, 11, 7, 13, 11),
        (11, 13, 6, 13, 11),
    ]
}


def test_criterion_01_plane_curve_assembly_and_state_vertices():
    started = time.monotonic()
    doc = parse_ideal_file((DATA / "examples/planecurve.ideal").read_text())
    curve = Ideal(doc.arity, doc.single_ideal_generators())
    chain = load_chain_of_ideals(DATA / "examples/planecurve_chain.ideal")
    assembled = assemble_ideal(chain)

    order = grevlex_order(5)
    gb_assembled = buchberger(assembled, order)
    gb_curve = buchberger(curve, order)
    assert gb_assembled.elements == gb_curve.elements
    assert gb_assembled.leads == gb_curve.leads

    result = enumerate_state_polytope(curve, 3)
    assert result.status == "complete"
    vertices = set(result.polytope.vertices)
    print("degree-3 state vertices:", sorted(tuple(map(int, v)) for v in vertices))
    assert vertices == PLANE_CURVE_VERTICES
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.2f}s")
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 2. plane curve: component polytopes, translation point, decomposed equality


def test_criterion_02_plane_curve_component_decomposition():
    chain = load_chain_of_ideals(DATA / "examples/planecurve_chain.ideal")

    first = enumerate_state_polytope(component_block_ideal(chain, 0), 3)
    second = enumerate_state_polytope(component_block_ideal(chain, 1), 3)
    assert {tuple(map(int, v)) for v in first.polytope.vertices} == {
        (3, 0, 0),
        (1, 0, 2),
        (0, 2, 1),
    }
    assert {tuple(map(int, v)) for v in second.polytope.vertices} == {
        (1, 2, 0),
        (0, 0, 3),
    }

    tau = tau_vector((0, 2, 4), 3)
    print("tau:", tuple(map(int, tau.tau)), "mixed:", tau.mixed_monomial_count)
    assert tuple(map(int, tau.tau)) == (11, 11, 4, 11, 11)
    assert tau.mixed_monomial_count == 16

    decomposed = decomposed_state_polytope(chain, 3)
    assert set(decomposed.polytope.vertices) == PLANE_CURVE_VERTICES


# ---------------------------------------------------------------------------
# 3. parametrized sextic with a mirrored twin: implicitization, translation,
#    barycenter decomposition, containment


def test_criterion_03_sextic_pair_implicitization_and_containment():
    started = time.monotonic()
    s = Polynomial.variable(2, 0)
    t = Polynomial.variable(2, 1)
    forms = [s**6, s**4 * t**2, s**2 * t**4, s * t**5, t**6]
    left = implicitize(forms)
    right = implicitize(list(reversed(forms)))

    result = enumerate_state_polytope(left, 6)
    assert result.status == "complete"
    vertices = set(result.polytope.vertices)
    assert len(vertices) == 51
    assert frac_tuple((216, 191, 206, 206, 231)) in vertices
    assert frac_tuple((181, 248, 210, 180, 231)) in vertices
    print("degree-6 state polytope has", len(vertices), "vertices")

    # the mirrored parametrization yields the coordinate-reversed polytope
    mirrored = enumerate_state_polytope(right, 6)
    assert {tuple(reversed(v)) for v in mirrored.polytope.vertices} == vertices

    tau = tau_vector((0, 4, 8), 6)
    assert tuple(map(int, tau.tau)) == (1750,) * 4 + (1504,) + (1750,) * 4

    chain = ChainInput((0, 4, 8), (embed_ideal(left, 0, 9), embed_ideal(right, 4, 9)))
    report = semistability_via_components(chain, 6)
    assert report.barycenter == frac_tuple((1956,) * 9)
    target = tuple(g - t for g, t in zip(report.barycenter, tau.tau))
    summands = barycenter_decompose(target, (0, 4, 8), report.levels)
    expected = (
        frac_tuple((206, 206, 206, 206, 226, 0, 0, 0, 0)),
        frac_tuple((0, 0, 0, 0, 226, 206, 206, 206, 206)),
    )
    print("summands:", [tuple(map(int, sm)) for sm in summands])
    assert summands == expected
    assert report.summands == expected
    assert all(component.inside for component in report.components)
    assert report.member_of_hull is True
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.2f}s")
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 4. two quartic arcs joined by a quartic space curve, from stored vertex data


def test_criterion_04_bridge_decomposition_from_stored_polytopes():
    started = time.monotonic()
    chain = ChainInput(
        (0, 4, 7, 11),
        (
            load_polytope(DATA / "bridge/w2_left.json"),
            load_polytope(DATA / "bridge/elliptic.json"),
            load_polytope(DATA / "bridge/w2_right.json"),
        ),
    )

    result = decomposed_state_polytope(chain, 2)
    assert result.status == "complete"
    vertices = result.polytope.vertices
    assert len(vertices) == 18 * 6 * 18 == 1944
    assert len(set(vertices)) == 1944
    assert set(result.witnesses) == set(vertices)

    # independent extremality audit on a sample: each certified direction is
    # uniquely maximized at its vertex
    int_vertices = [tuple(map(int, v)) for v in vertices]
    rng = random.Random(404)
    for v in rng.sample(int_vertices, 60):
        w = result.witnesses[frac_tuple(v)]
        best = sum(a * b for a, b in zip(w, v))
        for u in int_vertices:
            val = sum(a * b for a, b in zip(w, u))
            assert val <= best
            assert val < best or u == v

    tau = tau_vector((0, 4, 7, 11), 2)
    assert tuple(map(int, tau.tau)) == (7, 7, 7, 7, 4, 8, 8, 4, 7, 7, 7, 7)

    report = semistability_via_components(chain, 2)
    assert report.q == 50
    gamma = frac_tuple([Fraction(25, 3)] * 12)
    assert report.barycenter == gamma

    expected_summands = (
        frac_tuple(
            [Fraction(4, 3)] * 4 + [Fraction(8, 3)] + [0] * 7
        ),
        frac_tuple(
            [0] * 4
            + [Fraction(5, 3), Fraction(1, 3), Fraction(1, 3), Fraction(5, 3)]
            + [0] * 4
        ),
        frac_tuple(
            [0] * 7 + [Fraction(8, 3)] + [Fraction(4, 3)] * 4
        ),
    )
    print("summands:", [[str(x) for x in sm] for sm in report.summands])
    assert report.summands == expected_summands
    assert [c.inside for c in report.components] == [False, False, False]
    assert report.member_of_hull is False
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.2f}s")
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 5. index identities from precomputed aggregates, one value per genus


def test_criterion_05_index_identities_from_aggregates():
    for g in range(2, 11):
        mu2 = hm_from_aggregates(35, 8 * (15 * g - 22), 15, 0, 2, 4 * g - 5, (4,))
        mu3 = hm_from_aggregates(77, 12 * (23 * g - 34), 23, 0, 3, 4 * g - 5, (4,))
        print(f"g={g}: m=2 -> {mu2}, m=3 -> {mu3}")
        assert mu2 == Fraction(-1)
        assert mu3 == Fraction(-2)


# ---------------------------------------------------------------------------
# 6. rosary bookkeeping: sequence identities and the middle-component
#    initial ideal


def test_criterion_06_rosary_sequences_and_initial_ideal():
    assert rosary_w(1, 2, "closedForm").value == 6
    assert rosary_w(2, 2, "closedForm").value == 52
    assert rosary_w(1, 3, "closedForm").value == 34
    assert rosary_w(2, 3, "closedForm").value == 366
    for r in range(1, 51):
        for i in (2, 3):
            closed = rosary_w(r, i, "closedForm").value
            recurred = rosary_w(r, i, "recurrence").value
            assert closed == recurred, (r, i)

    spec = RosarySpec(2)
    ideal = rosary_component_ideal(2, spec)
    leads = set(initial_ideal(ideal, lex_order(spec.arity)).gens)

    def mono(*pairs):
        out = [0] * spec.arity
        for idx, exp in pairs:
            out[idx] += exp
        return tuple(out)

    expected = {
        mono((3, 1), (5, 1)),
        mono((2, 1), (5, 1)),
        mono((2, 1), (4, 2)),
        mono((1, 1), (5, 1)),
        mono((1, 1), (4, 1)),
        mono((1, 1), (3, 1)),
        mono((1, 2)),
    }
    print("initial ideal generators:", sorted(leads))
    assert leads == expected
    assert len(leads) == 7


# ---------------------------------------------------------------------------
# random chain machinery shared by the property suites


def rand_block_binomial(rng, width, local_junctions, degree):
    """Homogeneous two-term difference in ``width`` coordinates whose
    monomials avoid pure powers of the junction coordinates, so the form
    vanishes at every junction point."""
    candidates = []
    for combo in itertools.combinations_with_replacement(range(width), degree):
        expo = [0] * width
        for i in combo:
            expo[i] += 1
        if not any(expo[j] == degree for j in local_junctions):
            candidates.append(tuple(expo))
    if len(candidates) < 2:
        return None
    a, b = rng.sample(candidates, 2)
    return Polynomial(width, {a: 1, b: -1})


def rand_block_form(rng, width, local_junctions, degree):
    """Like :func:`rand_block_binomial`, but with up to three terms and
    coefficients in ``±1..±5``, so normal forms need nontrivial scales."""
    candidates = []
    for combo in itertools.combinations_with_replacement(range(width), degree):
        expo = [0] * width
        for i in combo:
            expo[i] += 1
        if not any(expo[j] == degree for j in local_junctions):
            candidates.append(tuple(expo))
    if len(candidates) < 2:
        return None
    terms = rng.sample(candidates, min(3, len(candidates)))
    return Polynomial(width, {t: rng.choice((-5, -3, -2, 2, 3, 5)) for t in terms})


def rand_chain(rng, n_components, form=rand_block_binomial):
    widths = [rng.randint(2, 3) for _ in range(n_components)]
    bounds = [0]
    for w in widths:
        bounds.append(bounds[-1] + w - 1)
    arity = bounds[-1] + 1
    components = []
    for i in range(n_components):
        width = widths[i]
        local_junctions = ([0] if i > 0 else []) + (
            [width - 1] if i < n_components - 1 else []
        )
        gens = []
        if rng.random() < 0.9:
            g = form(rng, width, local_junctions, rng.randint(2, 3))
            if g is not None:
                gens.append(embed_polynomial(g, bounds[i], arity))
        components.append(Ideal(arity, gens))
    return ChainInput(tuple(bounds), tuple(components)), widths


# ---------------------------------------------------------------------------
# 7. on random two-block chains, the weighted initial slice is partitioned by
#    the mixed monomials and the embedded component slices


def test_criterion_07_random_two_block_slice_partition():
    rng = random.Random(20260815)
    checked = 0
    while checked < 120:
        chain, widths = rand_chain(rng, 2)
        assert chain.spec.arity <= 6
        weights = []
        for i, width in enumerate(widths):
            w = rng.sample(range(1, 10), width)
            if i > 0:
                w[0] = 0
            if i < len(widths) - 1:
                w[-1] = 0
            weights.append(tuple(w))
        m = rng.randint(1, 4)
        report = initial_slice_partition(chain, m, weights)
        assert report.ok, (chain.blocks, weights, m, report.missing, report.extra, report.overlaps)
        families = [set(report.mixed_monomials)] + [
            set(piece) for piece in report.embedded_slices
        ]
        union = set().union(*families)
        assert union == set(report.ambient_in_slice)
        assert not any(p in union for p in report.junction_powers)
        checked += 1
    print("instances checked:", checked)
    assert checked >= 100


def test_union_slice_matches_elimination_on_random_chains():
    # the linear-algebra slice of a union against the slice of the ideal
    # assembled by elimination, on seeded chains plus a single-component
    # chain and a chain with a zero-ideal component
    rng = random.Random(20261018)
    single = rand_block_binomial(rng, 3, [], 2)
    chains = [(ChainInput((0, 2), (embed_ideal(Ideal(3, (single,)), 0, 3),)), [3])]
    chain, widths = rand_chain(rng, 2)
    zero = Ideal(chain.spec.arity, ())
    chains.append((ChainInput(chain.blocks, (chain.components[0], zero)), widths))
    while len(chains) < 24:
        form = rng.choice((rand_block_binomial, rand_block_form))
        chains.append(rand_chain(rng, rng.choice((2, 3)), form))
    zero_components = 0
    for chain, widths in chains:
        spec = chain.spec
        components = [
            (spec.block_coords(i), component_block_ideal(chain, i))
            for i in range(spec.n_components)
        ]
        zero_components += sum(1 for _, block in components if not block.generators)
        assembled = assemble_ideal(chain)
        weights = [tuple(rng.randint(0, 9) for _ in range(w)) for w in widths]
        order = weight_order(merge_chain_weights(weights))
        for m in range(1, 5):
            piece = UnionSlices(spec.arity, components, m).union(order)
            assert piece == degree_slice(assembled, order, m), (chain.blocks, weights, m)
            assert len(piece.standard_monomials) == hilbert_values(assembled, m)[1]
    assert zero_components >= 1


def test_slice_partition_refuses_inhomogeneous_component(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a basis was computed before the input was checked")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    chain = load_chain_of_ideals(DATA / "examples/planecurve_chain.ideal")
    with pytest.raises(ValueError, match="component 2 is not homogeneous"):
        initial_slice_partition(chain, 2, [(1, 0, 0), (0, 0, 1)])


# ---------------------------------------------------------------------------
# 8. on random chains, the decomposed state polytope and index agree with the
#    direct computation on the assembled ideal


def test_criterion_08_random_chain_equivalences():
    rng = random.Random(11)
    lengths_seen = set()
    checked = 0
    while checked < 55:
        n_components = rng.choice((2, 2, 3))
        chain, _ = rand_chain(rng, n_components)
        m = rng.randint(1, 3)
        arity = chain.spec.arity

        decomposed = decomposed_state_polytope(chain, m)
        assembled = assemble_ideal(chain)
        direct = enumerate_state_polytope(assembled, m)
        assert direct.status == "complete"
        assert set(decomposed.polytope.vertices) == set(direct.polytope.vertices)
        assert decomposed.q == direct.q

        rho = tuple(rng.randint(-4, 4) for _ in range(arity))
        assert (
            hm_index_decomposed(chain, m, rho).mu
            == hm_index_direct(assembled, m, rho).mu
        )
        lengths_seen.add(n_components)
        checked += 1
    print("instances checked:", checked, "chain lengths:", sorted(lengths_seen))
    assert checked >= 50
    assert lengths_seen == {2, 3}


# ---------------------------------------------------------------------------
# 9. every LP answer carries an audited certificate; hull membership agrees
#    with a brute-force oracle on small instances


def test_criterion_09_exact_lp_certificates_and_hull_oracle():
    rng = random.Random(909)
    statuses = set()
    for _ in range(120):
        nvars = rng.randint(1, 4)
        augmented = [
            [Fraction(rng.randint(-3, 3)) for _ in range(nvars)] + [Fraction(rng.randint(-6, 6))]
            for _ in range(rng.randint(1, 5))
        ]
        res = solve_lp(augmented)
        assert audit_feasibility(augmented, res) == []
        statuses.add(res.status)
    assert statuses == {"feasible", "infeasible"}

    agreements = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        points = [rand_point(rng, dim, span=4) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.5:
            target = rand_point(rng, dim, span=4)
        else:
            weights = [Fraction(rng.randint(0, 3)) for _ in points]
            total = sum(weights) or Fraction(1)
            target = tuple(
                sum(w * p[j] for w, p in zip(weights, points)) / total
                for j in range(dim)
            )
        verdict = member_convex_hull(facets(points), points, target)
        assert verdict.inside == brute_hull_member(points, target)
        if verdict.inside:
            coeffs = verdict.coefficients
            assert coeffs is not None and len(coeffs) == len(points)
            assert all(c >= 0 for c in coeffs) and sum(coeffs) == 1
            rebuilt = tuple(
                sum(c * p[j] for c, p in zip(coeffs, points)) for j in range(dim)
            )
            assert rebuilt == tuple(target)
        else:
            sep = verdict.separator
            assert sep is not None
            value = sum(s * t for s, t in zip(sep, target))
            assert all(
                sum(s * c for s, c in zip(sep, p)) < value for p in points
            )
        agreements += 1
    print("lp answers audited: 120; hull memberships compared:", agreements)


# ---------------------------------------------------------------------------
# 10. slice counts do not depend on the order; the index does not depend on
#     the tie-break


def test_criterion_10_order_invariance():
    rng = random.Random(1010)
    x = [Polynomial.variable(4, j) for j in range(4)]
    fixed = [
        Ideal(4, (x[0] * x[2] - x[1] ** 2, x[1] * x[3] - x[2] ** 2)),
        Ideal(4, (x[0] ** 2 - x[1] * x[2],)),
        Ideal(3, (
            Polynomial.variable(3, 0) ** 2 - Polynomial.variable(3, 1) * Polynomial.variable(3, 2),
            Polynomial.variable(3, 0) * Polynomial.variable(3, 1) - Polynomial.variable(3, 2) ** 2,
        )),
    ]
    ideals = list(fixed)
    for _ in range(5):
        arity = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = rand_block_binomial(rng, arity, [], rng.randint(2, 3))
            if g is not None:
                gens.append(g)
        ideals.append(Ideal(arity, gens))

    for ideal in ideals:
        arity = ideal.arity
        w = tuple(rng.randint(0, 5) for _ in range(arity))
        rows = [tuple(rng.randint(0, 3) for _ in range(arity)) for _ in range(2)]
        rows.append((1,) * arity)
        orders = [
            named_order("lex", arity),
            named_order("grlex", arity),
            named_order("grevlex", arity),
            weight_order(w),
            matrix_order([w, *lex_order(arity).rows]),
            matrix_order(rows),
            elimination_order(arity, [0]),
        ]
        assert len(orders) == 7
        for m in (1, 2, 3):
            values = {hilbert_values(ideal, m, order)[0] for order in orders}
            assert len(values) == 1, (ideal.generators, m)

        for _ in range(3):
            rho = tuple(rng.randint(-3, 3) for _ in range(arity))
            for m in (1, 2):
                default_mu = hm_index_direct(ideal, m, rho).mu
                lex_mu = lex_refined_index(ideal, m, rho)
                assert default_mu == lex_mu
    print("ideals checked:", len(ideals))
