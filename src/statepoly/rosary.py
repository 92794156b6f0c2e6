"""Open chains of conics glued in pairs ("rosaries") and their slice data.

A rosary of genus ``r`` lives in coordinates ``x_0 .. x_{3r}``; component
``l`` (1-based, ``l = 1 .. r+1``) spans ``x_{3l-5} .. x_{3l-1}`` with the
indices clamped into range, so adjacent components share two coordinates.
The middle components ``2 <= l <= r`` are cut out by six explicit quadrics;
the two end components are user-supplied plane conics.

The module provides the component ideals, the cross-component monomial sets
``T_l^d``, a report-valued check that the degree-2/3 slice of the assembled
ideal's initial ideal (augmented by the junction powers) equals the union of
the component slices and the ``T_l^d``, and the integer sequences ``w_2`` /
``w_3`` (closed form and two-step recurrence) used to weigh those slices.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Sequence

from .groebner import Component, UnionSlices, intersect_embedded, require_enumerable
from .orders import MonomialOrder
from .rings import (
    Ideal,
    Monomial,
    Polynomial,
    degree_monomials,
    mono_mul,
    project_polynomial,
    unit_monomial,
)

__all__ = [
    "RosarySpec",
    "WValue",
    "RosarySliceReport",
    "rosary_component_ideal",
    "rosary_end_conics",
    "rosary_assembled_ideal",
    "rosary_mixed_sets",
    "rosary_slice_decomposition_check",
    "rosary_w",
    "rosary_w_table",
]


class RosarySpec(namedtuple("RosarySpec", "r")):
    """A rosary of genus ``r``: ``r + 1`` components in ``3r + 1`` coordinates."""

    __slots__ = ()

    def __new__(cls, r: int) -> RosarySpec:
        r = int(r)
        if r < 1:
            raise ValueError(f"rosary genus must be >= 1, got {r}")
        return super().__new__(cls, r)

    @property
    def arity(self) -> int:
        return 3 * self.r + 1

    @property
    def n_components(self) -> int:
        return self.r + 1

    def component_coords(self, l: int) -> range:
        """Coordinates spanned by component ``l`` (1-based), clamped into
        ``0 .. 3r``."""
        if not 1 <= l <= self.r + 1:
            raise ValueError(f"component index {l} outside 1..{self.r + 1}")
        lo = max(0, 3 * l - 5)
        hi = min(3 * self.r, 3 * l - 1)
        return range(lo, hi + 1)


def _binomial(arity: int, plus: tuple[int, int], minus: tuple[int, int]) -> Polynomial:
    """The difference of two quadratic monomials given by coordinate pairs."""

    def mono(pair: tuple[int, int]) -> Monomial:
        return mono_mul(unit_monomial(arity, pair[0]), unit_monomial(arity, pair[1]))

    return Polynomial(arity, [(mono(plus), 1), (mono(minus), -1)])


def rosary_component_ideal(l: int, spec: RosarySpec) -> Ideal:
    """The six quadrics cutting out middle component ``l`` (``2 <= l <= r``),
    at ambient arity."""
    if not 2 <= l <= spec.r:
        raise ValueError(
            f"middle component index {l} outside 2..{spec.r}; "
            f"end components are user-supplied"
        )
    arity = spec.arity
    a, b, c, d, e = (3 * l - 5, 3 * l - 4, 3 * l - 3, 3 * l - 2, 3 * l - 1)
    gens = (
        _binomial(arity, (d, d), (c, e)),
        _binomial(arity, (c, d), (a, e)),
        _binomial(arity, (a, d), (b, e)),
        _binomial(arity, (c, c), (b, e)),
        _binomial(arity, (a, c), (b, d)),
        _binomial(arity, (a, a), (b, c)),
    )
    return Ideal(arity, gens)


def rosary_end_conics(spec: RosarySpec) -> tuple[Ideal, Ideal]:
    """Smooth plane conics for the two end components, tangent to their
    neighbors at the shared points: ``x_0 x_2 - x_1^2`` on the left and
    ``x_{3r-2}^2 - x_{3r-1} x_{3r}`` on the right (each repeats the edge
    pattern of the adjacent middle component, giving degree-2 initial data
    ``x_0 x_2`` and ``x_{3r-2}^2`` under an order sorting lower indices
    first)."""
    arity = spec.arity
    first = Ideal(arity, (_binomial(arity, (0, 2), (1, 1)),))
    n = 3 * spec.r
    last = Ideal(arity, (_binomial(arity, (n - 2, n - 2), (n - 1, n)),))
    return first, last


def _components(spec: RosarySpec, end_components: Sequence[Ideal]) -> list[Component]:
    """Every component as its coordinates and its ideal in their small ring."""
    if len(end_components) != 2:
        raise ValueError("expected exactly two end component ideals")
    first, last = end_components
    middle = [rosary_component_ideal(l, spec) for l in range(2, spec.r + 1)]
    out: list[Component] = []
    for l, comp in enumerate([first, *middle, last], start=1):
        if comp.arity != spec.arity:
            raise ValueError(
                f"component {l} has arity {comp.arity}, expected {spec.arity}"
            )
        coords = spec.component_coords(l)
        stray = sorted(comp.support_variables() - set(coords))
        if stray:
            raise ValueError(
                f"component {l} uses coordinates {stray} outside its span "
                f"{list(coords)}"
            )
        block = Ideal(len(coords), (project_polynomial(g, coords) for g in comp.generators))
        out.append((coords, block))
    return out


def rosary_assembled_ideal(
    spec: RosarySpec, end_components: Sequence[Ideal]
) -> Ideal:
    """Intersection of the embedded component ideals: each component
    contributes its generators plus the coordinates outside its span."""
    return intersect_embedded(spec.arity, _components(spec, end_components))


def rosary_mixed_sets(l: int, d: int, spec: RosarySpec) -> frozenset[Monomial]:
    """Degree-``d`` monomials in ``x_0 .. x_{min(3l+2, 3r)}`` that use some
    coordinate below ``3l - 2`` and some coordinate above ``3l - 1``."""
    if d not in (2, 3):
        raise ValueError(f"degree d must be 2 or 3, got {d}")
    if not 1 <= l <= spec.r:
        raise ValueError(f"mixing index {l} outside 1..{spec.r}")
    top = min(3 * l + 2, 3 * spec.r)
    pad = (0,) * (spec.arity - top - 1)
    return frozenset(
        small + pad
        for small in degree_monomials(top + 1, d)
        if any(small[: 3 * l - 2]) and any(small[3 * l :])
    )


def _restrict_order(order: MonomialOrder, coords: Sequence[int]) -> MonomialOrder:
    """The order induced on the subring of the given coordinates (compare by
    the same matrix rows, restricted to those columns)."""
    rows = [tuple(row[j] for j in coords) for row in order.rows]
    return MonomialOrder(len(coords), rows, name=f"{order.name}|{tuple(coords)!r}")


class RosarySliceReport(NamedTuple):
    """Both sides of the degree-``d`` slice comparison and their difference.

    The left side is the initial-ideal slice of the assembled ideal plus the
    junction powers (``x_{3l-2}^2`` for ``d = 2``; ``x_{3l-2}^3`` and
    ``x_{3l-2}^2 x_{3l-1}`` for ``d = 3``); the right side is the union of
    the embedded component slices and the cross-component sets ``T_l^d``.
    """

    r: int
    d: int
    in_slice: tuple[Monomial, ...]
    augmentation: tuple[Monomial, ...]
    component_slices: tuple[tuple[Monomial, ...], ...]
    mixed_sets: tuple[tuple[Monomial, ...], ...]
    left_side: tuple[Monomial, ...]
    right_side: tuple[Monomial, ...]
    missing: tuple[Monomial, ...]
    extra: tuple[Monomial, ...]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra)


def _augmentation(spec: RosarySpec, d: int) -> tuple[Monomial, ...]:
    arity = spec.arity
    out: list[Monomial] = []
    for l in range(1, spec.r + 1):
        j = 3 * l - 2
        out.append(unit_monomial(arity, j, d))
        if d == 3:
            out.append(mono_mul(unit_monomial(arity, j, 2), unit_monomial(arity, j + 1)))
    return tuple(sorted(out))


def rosary_slice_decomposition_check(
    spec: RosarySpec,
    order: MonomialOrder,
    d: int,
    end_components: Sequence[Ideal] | None = None,
) -> RosarySliceReport:
    """Compare the augmented degree-``d`` initial slice of the assembled
    rosary ideal with the union of component slices and ``T_l^d`` sets.

    The ambient and component slices come from one :class:`UnionSlices`,
    so the assembled ideal is never computed and each component's basis is
    computed once.  The end components default to
    :func:`rosary_end_conics`; every component must be homogeneous."""
    if d not in (2, 3):
        raise ValueError(f"degree d must be 2 or 3, got {d}")
    if order.arity != spec.arity:
        raise ValueError(
            f"order arity {order.arity} does not match ambient arity {spec.arity}"
        )
    require_enumerable(spec.arity, d)
    if end_components is None:
        end_components = rosary_end_conics(spec)
    components = _components(spec, end_components)
    slices = UnionSlices(spec.arity, components, d)
    in_slice = slices.union(order).in_monomials
    augmentation = _augmentation(spec, d)
    left = set(in_slice) | set(augmentation)

    component_slices = [
        slices.component(index, _restrict_order(order, coords))
        for index, (coords, _) in enumerate(components)
    ]

    mixed_sets = tuple(
        tuple(sorted(rosary_mixed_sets(l, d, spec))) for l in range(1, spec.r + 1)
    )

    right = set().union(*component_slices, *mixed_sets)

    return RosarySliceReport(
        r=spec.r,
        d=d,
        in_slice=tuple(sorted(in_slice)),
        augmentation=augmentation,
        component_slices=tuple(component_slices),
        mixed_sets=mixed_sets,
        left_side=tuple(sorted(left)),
        right_side=tuple(sorted(right)),
        missing=tuple(sorted(left - right)),
        extra=tuple(sorted(right - left)),
    )


# ---------------------------------------------------------------------------
# the w-sequences


class WValue(NamedTuple):
    """One entry of the degree-2 or degree-3 weight sequence."""

    r: int
    i: int
    value: int
    mode: str


def _w_closed(r: int, i: int) -> int:
    if i == 2:
        if r % 2 == 1:
            return 18 * r * r - 19 * r + 7
        return 18 * r * r - 10 * r
    if r % 2 == 1:
        value = (
            27 * r**3
            + Fraction(81, 2) * r * r
            - Fraction(111, 2) * r
            + 22
        )
        if value.denominator != 1:
            raise ArithmeticError(f"closed form not integral at r={r}")
        return int(value)
    return 27 * r**3 + 54 * r * r - 33 * r


def _w_step(r: int, i: int) -> int:
    """Increment from ``r - 2`` to ``r`` in the two-step recurrence."""
    if i == 2:
        if r % 2 == 1:
            return 72 * r - 110
        return 72 * r - 92
    if r % 2 == 1:
        return 162 * r * r - 162 * r - 57
    return 162 * r * r - 108 * r - 66


_W_SEEDS = {(2, 1): 6, (2, 2): 52, (3, 1): 34, (3, 2): 366}


def _w_recurrence(r: int, i: int) -> int:
    if r <= 2:
        return _W_SEEDS[(i, r)]
    seed_r = 1 if r % 2 == 1 else 2
    value = _W_SEEDS[(i, seed_r)]
    for k in range(seed_r + 2, r + 1, 2):
        value += _w_step(k, i)
    return value


def rosary_w(r: int, i: int, mode: str = "closedForm") -> WValue:
    """The degree-``i`` weight sequence value at genus ``r``, by closed form
    or by the two-step recurrence from the seed values."""
    if r < 1:
        raise ValueError(f"genus must be >= 1, got {r}")
    if i not in (2, 3):
        raise ValueError(f"sequence index must be 2 or 3, got {i}")
    if mode == "closedForm":
        return WValue(r, i, _w_closed(r, i), mode)
    if mode == "recurrence":
        return WValue(r, i, _w_recurrence(r, i), mode)
    raise ValueError(f"unknown mode {mode!r}; expected 'closedForm' or 'recurrence'")


def rosary_w_table(r_max: int) -> list[dict[str, int | bool]]:
    """Rows ``r, w2_closed, w2_rec, w3_closed, w3_rec, agree`` for genus
    ``1 .. r_max``."""
    rows: list[dict[str, int | bool]] = []
    for r in range(1, r_max + 1):
        w2c = rosary_w(r, 2, "closedForm").value
        w2r = rosary_w(r, 2, "recurrence").value
        w3c = rosary_w(r, 3, "closedForm").value
        w3r = rosary_w(r, 3, "recurrence").value
        rows.append(
            {
                "r": r,
                "w2_closed": w2c,
                "w2_rec": w2r,
                "w3_closed": w3c,
                "w3_rec": w3r,
                "agree": w2c == w2r and w3c == w3r,
            }
        )
    return rows
