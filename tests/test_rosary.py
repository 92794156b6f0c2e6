"""Tacnodal chains of conics: generators, slices, weight sequences."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from statepoly import groebner
from statepoly.groebner import buchberger, hilbert_values, initial_ideal, monomial_slice
from statepoly.orders import grevlex_order, lex_order, weight_order
from statepoly.rings import Ideal, Polynomial, count_monomials, unit_monomial
from statepoly.rosary import (
    RosarySpec,
    rosary_assembled_ideal,
    rosary_component_ideal,
    rosary_end_conics,
    rosary_mixed_sets,
    rosary_slice_decomposition_check,
    rosary_w,
    rosary_w_table,
)


def variables(arity):
    return tuple(Polynomial.variable(arity, j) for j in range(arity))


# ---------------------------------------------------------------------------
# layout


def test_spec_layout():
    spec = RosarySpec(3)
    assert spec.arity == 10
    assert spec.n_components == 4
    assert list(spec.component_coords(1)) == [0, 1, 2]
    assert list(spec.component_coords(2)) == [1, 2, 3, 4, 5]
    assert list(spec.component_coords(3)) == [4, 5, 6, 7, 8]
    assert list(spec.component_coords(4)) == [7, 8, 9]
    with pytest.raises(ValueError):
        RosarySpec(0)


def test_adjacent_components_overlap_in_two_coordinates():
    spec = RosarySpec(4)
    for l in range(1, spec.n_components):
        left = set(spec.component_coords(l))
        right = set(spec.component_coords(l + 1))
        assert len(left & right) == 2


# ---------------------------------------------------------------------------
# component ideals


def test_middle_component_generators_golden():
    # for l = 2 the span is x1..x5; the six quadrics in (a,b,c,d,e) =
    # (x1,...,x5) are dd-ce, cd-ae, ad-be, cc-be, ac-bd, aa-bc
    spec = RosarySpec(2)
    ideal = rosary_component_ideal(2, spec)
    arity = spec.arity
    x = variables(arity)
    a, b, c, d, e = x[1], x[2], x[3], x[4], x[5]
    expected = {
        d * d - c * e,
        c * d - a * e,
        a * d - b * e,
        c * c - b * e,
        a * c - b * d,
        a * a - b * c,
    }
    assert set(ideal.generators) == expected


def test_middle_component_is_rational_quartic():
    # the six quadrics vanish on (u^3 v, u^4, u^2 v^2, u v^3, v^4)
    spec = RosarySpec(2)
    ideal = rosary_component_ideal(2, spec)
    for u, v in ((1, 1), (2, 1), (1, 3), (-1, 2)):
        a = Fraction(u**3 * v)
        b = Fraction(u**4)
        c = Fraction(u**2 * v**2)
        d = Fraction(u * v**3)
        e = Fraction(v**4)
        point = (0, a, b, c, d, e, 0)[: spec.arity]
        point = (0, a, b, c, d, e) + (0,) * (spec.arity - 6)
        for g in ideal.generators:
            total = Fraction(0)
            for mono, coeff in g.terms.items():
                val = coeff
                for j, exp in enumerate(mono):
                    val *= Fraction(point[j]) ** exp
                total += val
            assert total == 0, (u, v, g)


def test_middle_component_initial_ideal_seven_generators():
    # under the descending lex order the initial ideal has exactly the seven
    # monomial generators (including the one S-pair product)
    spec = RosarySpec(2)
    ideal = rosary_component_ideal(2, spec)
    leads = initial_ideal(ideal, lex_order(spec.arity)).gens
    l = 2

    def mono(*pairs):
        out = [0] * spec.arity
        for idx, exp in pairs:
            out[idx] += exp
        return tuple(out)

    expected = {
        mono((3 * l - 3, 1), (3 * l - 1, 1)),
        mono((3 * l - 4, 1), (3 * l - 1, 1)),
        mono((3 * l - 4, 1), (3 * l - 2, 2)),
        mono((3 * l - 5, 1), (3 * l - 1, 1)),
        mono((3 * l - 5, 1), (3 * l - 2, 1)),
        mono((3 * l - 5, 1), (3 * l - 3, 1)),
        mono((3 * l - 5, 2)),
    }
    assert set(leads) == expected


def test_end_conics_pass_through_junctions_tangentially():
    spec = RosarySpec(2)
    first, last = rosary_end_conics(spec)
    # first: x0 x2 - x1^2 vanishes at e_0 and e_2
    (f,) = first.generators
    assert f.evaluate_unit(0) == 0 and f.evaluate_unit(2) == 0
    # last: x(3r-2)^2 - x(3r-1) x(3r) vanishes at e_(3r-1) and e_(3r)
    (g,) = last.generators
    n = 3 * spec.r
    assert g.evaluate_unit(n - 1) == 0 and g.evaluate_unit(n) == 0
    # leading monomials under descending lex: x0 x2 and x(3r-2)^2
    (lead_f,) = initial_ideal(first, lex_order(spec.arity)).gens
    (lead_g,) = initial_ideal(last, lex_order(spec.arity)).gens
    assert lead_f == (1, 0, 1, 0, 0, 0, 0)
    assert lead_g == (0, 0, 0, 0, 2, 0, 0)


# ---------------------------------------------------------------------------
# mixed sets


def test_mixed_sets_small_golden():
    spec = RosarySpec(2)
    # l = 1, d = 2: monomials in x0..x5 using some x_i, i < 1 and x_j, j > 2:
    # exactly x0 x3, x0 x4, x0 x5
    got = rosary_mixed_sets(1, 2, spec)
    expect = set()
    for j in (3, 4, 5):
        mono = [0] * spec.arity
        mono[0] += 1
        mono[j] += 1
        expect.add(tuple(mono))
    assert got == expect
    # l = r = 2: upper clamp is 3r = 6
    got_last = rosary_mixed_sets(2, 2, spec)
    assert all(sum(m[:4]) >= 1 and m[6] + m[5] >= 0 for m in got_last)
    for mono in got_last:
        assert any(mono[i] for i in range(4))  # i < 3l-2 = 4
        assert any(mono[j] for j in range(6, spec.arity))  # j > 3l-1 = 5


def test_mixed_sets_validate_range():
    spec = RosarySpec(2)
    with pytest.raises(ValueError):
        rosary_mixed_sets(0, 2, spec)
    with pytest.raises(ValueError):
        rosary_mixed_sets(3, 2, spec)


# ---------------------------------------------------------------------------
# slice decomposition


def test_slice_check_computes_one_basis_per_component(monkeypatch):
    orders = []

    def counted(source, order, degree=None):
        orders.append(order)
        return buchberger(source, order, degree)

    monkeypatch.setattr(groebner, "buchberger", counted)
    spec = RosarySpec(4)
    for d in (2, 3):
        orders.clear()
        rep = rosary_slice_decomposition_check(spec, lex_order(spec.arity), d)
        assert rep.ok
        assert len(orders) == len(rep.component_slices) == spec.n_components


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
def test_slice_decomposition_small(r, d):
    spec = RosarySpec(r)
    rep = rosary_slice_decomposition_check(spec, lex_order(spec.arity), d)
    assert rep.ok, (rep.missing, rep.extra)
    # the two sides coincide and the report exposes them
    assert set(rep.left_side) == set(rep.right_side)
    # the augmentation consists of junction-conic leads absent from the
    # ambient initial slice
    for mono in rep.augmentation:
        assert mono not in rep.in_slice


def test_slice_decomposition_matches_elimination_route():
    # both sides of the check against slices of the ideal assembled by
    # elimination: the ambient slice, the Hilbert value and each component
    # slice (the block monomials of the component's ambient slice)
    rng = random.Random(6)
    for r in (1, 2, 3):
        spec = RosarySpec(r)
        ends = rosary_end_conics(spec)
        assembled = rosary_assembled_ideal(spec, end_components=ends)
        ambient_components = [ends[0]] + [
            rosary_component_ideal(l, spec) for l in range(2, r + 1)
        ] + [ends[1]]
        orders = [lex_order(spec.arity), grevlex_order(spec.arity)] + [
            weight_order([rng.randint(1, 9) for _ in range(spec.arity)]) for _ in range(5)
        ]
        for order in orders:
            for d in (2, 3):
                rep = rosary_slice_decomposition_check(spec, order, d, end_components=ends)
                expected_in = monomial_slice(initial_ideal(assembled, order, d), d).in_monomials
                assert rep.in_slice == expected_in
                standard = count_monomials(spec.arity, d) - len(rep.in_slice)
                assert standard == hilbert_values(assembled, d)[1]
                for l, (comp, piece) in enumerate(zip(ambient_components, rep.component_slices), 1):
                    coords = set(spec.component_coords(l))
                    expected = [
                        mono
                        for mono in monomial_slice(initial_ideal(comp, order, d), d).in_monomials
                        if all(j in coords for j, e in enumerate(mono) if e)
                    ]
                    assert piece == tuple(expected), (r, order, d, l)


def test_slice_check_refuses_inhomogeneous_end_component(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a basis was computed before the input was checked")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    spec = RosarySpec(2)
    first, last = rosary_end_conics(spec)
    x6 = Polynomial.variable(spec.arity, 6)
    bent = Ideal(spec.arity, (last.generators[0] + x6,))
    with pytest.raises(ValueError, match="component 3 is not homogeneous"):
        rosary_slice_decomposition_check(spec, lex_order(spec.arity), 2, end_components=(first, bent))


def test_slice_check_augmentation_is_junction_powers():
    spec = RosarySpec(3)
    order = lex_order(spec.arity)
    junctions = (1, 4, 7)
    square = rosary_slice_decomposition_check(spec, order, 2).augmentation
    assert square == tuple(sorted(unit_monomial(10, j, 2) for j in junctions))
    cube = rosary_slice_decomposition_check(spec, order, 3).augmentation
    expected = [unit_monomial(10, j, 3) for j in junctions] + [
        tuple(2 if i == j else 1 if i == j + 1 else 0 for i in range(10)) for j in junctions
    ]
    assert cube == tuple(sorted(expected))
    assert all(type(e) is int for mono in square + cube for e in mono)


# ---------------------------------------------------------------------------
# weight sequences


def test_w_seed_values():
    assert rosary_w(1, 2, "closedForm").value == 6
    assert rosary_w(2, 2, "closedForm").value == 52
    assert rosary_w(1, 3, "closedForm").value == 34
    assert rosary_w(2, 3, "closedForm").value == 366
    assert rosary_w(1, 2, "recurrence").value == 6
    assert rosary_w(2, 3, "recurrence").value == 366


def test_w_closed_forms_next_values():
    assert rosary_w(3, 2, "closedForm").value == 112
    assert rosary_w(4, 2, "closedForm").value == 248
    assert rosary_w(3, 3, "closedForm").value == 949
    assert rosary_w(4, 3, "closedForm").value == 2460


def test_w_closed_equals_recurrence_sample():
    for r in range(1, 12):
        for i in (2, 3):
            assert rosary_w(r, i, "closedForm").value == rosary_w(r, i, "recurrence").value


def test_w_table_rows():
    rows = rosary_w_table(5)
    assert len(rows) == 5
    for row in rows:
        assert row["agree"]
    assert rows[3]["w2_closed"] == 248


def test_w_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rosary_w(0, 2, "closedForm")
    with pytest.raises(ValueError):
        rosary_w(1, 4, "closedForm")
    with pytest.raises(ValueError):
        rosary_w(1, 2, "magic")
