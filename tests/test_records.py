"""The package's records: named tuples, plus the slotted ``MonomialIdeal``.

Every record is immutable, compares and hashes by its fields (a monomial
ideal by its generators alone), and a validating constructor keeps its
normalisation and its error messages.
"""

from __future__ import annotations

import importlib

import pytest

from statepoly.chains import BlockSpec, ChainInput
from statepoly.groebner import MonomialIdeal, buchberger
from statepoly.orders import grevlex_order
from statepoly.polytope import VPolytope
from statepoly.rings import Ideal, Polynomial
from statepoly.rosary import RosarySpec

RECORDS = {
    "linalg": ("RowEchelon",),
    "rings": ("Ideal",),
    "groebner": ("ReducedGB", "DegreeSlice"),
    "parsing": ("IdealFile",),
    "polytope": ("VPolytope", "FacetSystem", "AffineHull", "HullMembership"),
    "state": ("StatePolytopeResult", "SemistabilityReport"),
    "chains": ("BlockSpec", "ChainInput", "TauVector", "ChainSemistabilityReport", "SlicePartitionReport"),
    "hm": ("HMComponent", "HMReport"),
    "rosary": ("RosarySpec", "RosarySliceReport", "WValue"),
    "cli": ("CommandResult",),
    "lp": ("LPResult",),
}


@pytest.mark.parametrize(
    "module_name, name",
    [(module, name) for module, names in RECORDS.items() for name in names],
    ids=lambda value: value,
)
def test_no_field_of_a_record_can_be_assigned_or_deleted(module_name, name):
    cls = getattr(importlib.import_module(f"statepoly.{module_name}"), name)
    # _make fills the fields without a validating constructor
    record = cls._make(range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_a_monomial_ideal_is_immutable_and_ignores_its_supports():
    plain = MonomialIdeal(2, [(2, 0), (1, 0), (0, 3)])
    kept = MonomialIdeal(2, [(1, 0), (0, 3)], supports=(((1, 0), (0, 1)),))
    assert plain.gens == kept.gens == ((0, 3), (1, 0))
    assert plain == kept and hash(plain) == hash(kept) and len({plain, kept}) == 1
    assert plain != MonomialIdeal(2, [(1, 0)]) and plain != MonomialIdeal(3, [(1, 0, 0), (0, 3, 0)])
    assert plain != (2, ((0, 3), (1, 0)))
    assert repr(kept) == "MonomialIdeal(arity=2, gens=((0, 3), (1, 0)))"
    for field in ("arity", "gens", "supports", "other"):
        with pytest.raises(AttributeError):
            setattr(kept, field, ())
        with pytest.raises(AttributeError):
            delattr(kept, field)
    assert kept.supports == (((1, 0), (0, 1)),)


def test_cached_values_do_not_enter_equality_or_hashing():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    ideal, fresh = Ideal(2, (x * y - x, 0 * x, 2 * y**2)), Ideal(2, (x * y - x, 2 * y**2))
    assert ideal.generators == fresh.generators  # the zero generator is dropped
    assert ideal.integer_degrees is None and ideal.integer_generators[1] == {(0, 2): 1}
    assert ideal == fresh and hash(ideal) == hash(fresh)
    order = grevlex_order(2)
    gb, again = buchberger(ideal, order), buchberger(fresh, order)
    assert gb.elements and gb == again  # only gb has its monic elements cached
    with pytest.raises(ValueError, match="^generator arity 2 does not match ring arity 3$"):
        Ideal(3, (x,))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VPolytope(3, [(1, 2, 0), (1, 2)]), "vertex (1, 2) does not have 3 coordinates"),
        (lambda: BlockSpec([0]), "need at least two block boundaries"),
        (
            lambda: BlockSpec([1, 3, 3]),
            "first block boundary is 1, expected 0; block boundaries not strictly increasing: 3 then 3",
        ),
        (lambda: ChainInput([0, 2, 1], []), "invalid chain input: block boundaries not strictly increasing: 2 then 1"),
        (lambda: ChainInput([0, 2, 4], []), "invalid chain input: chain has 2 blocks but 0 components"),
        (
            lambda: ChainInput([0, 2], ["x"]),
            "invalid chain input: component 1: expected an ideal or a polytope, got str",
        ),
        (lambda: RosarySpec(0), "rosary genus must be >= 1, got 0"),
    ],
)
def test_validating_constructors_keep_their_messages(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_validating_constructors_normalise():
    poly = VPolytope(2, [(1, 1), (2, 0), (1, 1)])
    assert poly == VPolytope(2, [(2, 0), (1, 1)]) and poly.vertices == ((1, 1), (2, 0))
    assert BlockSpec(["0", 2, 4]).boundaries == (0, 2, 4) and RosarySpec("3").r == 3
    chain = ChainInput((0, 2), [VPolytope(3, [(1, 1, 0), (0, 2, 0)])])
    assert chain.blocks == (0, 2) and chain.spec == BlockSpec((0, 2)) and chain.warnings == ()
