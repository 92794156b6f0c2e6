"""Chain decomposition of state polytopes.

A chain setup splits the coordinates ``0..n`` into consecutive blocks that
meet only in shared junction coordinates ``n_1 < ... < n_{l-1}``.  Each
component lives on one block (its defining forms use only that block's
variables and vanish at the junction unit points it shares).  For such a
configuration the degree-``m`` state polytope of the assembled ideal is a
translate of the Minkowski sum of the component block polytopes:

* ``tau_vector`` gives the translation, the exponent sum of the degree-``m``
  monomials that mix variables from different sides of a junction;
* ``decomposed_state_polytope`` builds the sum without ever running a basis
  computation at ambient arity, certifying along the way that every
  combination of component vertices is an extreme point of the sum;
* ``barycenter_decompose`` splits an ambient point into block summands with
  prescribed coordinate-sum levels, which turns a membership question about
  the big sum into one membership question per component
  (``semistability_via_components``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .groebner import (
    Component,
    MonomialIdeal,
    UnionSlices,
    intersect_embedded,
    monomial_slice,
)
from .lp import HullMembership, member_convex_hull
from .orders import merge_chain_weights, weight_order
from .polytope import (
    ExtremalityError,
    FacetSystem,
    VPolytope,
    extremality_witness,  # re-exported: part of this module's interface
    facets,
    level_quotient,
    trivial_character_point,
    vertex_witnesses,
)
from .rings import (
    Ideal,
    Monomial,
    embed_monomial,
    mono_mul,
    project_polynomial,
    unit_monomial,
)
from .state import (
    BudgetExhausted,
    StatePolytopeResult,
    enumerate_state_polytope,
    state_of_slice,
)

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# block layout


@dataclass(frozen=True)
class BlockSpec:
    """Consecutive coordinate blocks ``[n_0..n_1], [n_1..n_2], ...`` with
    ``n_0 = 0``; adjacent blocks share exactly the junction coordinate."""

    boundaries: tuple[int, ...]

    def __init__(self, boundaries: Iterable[int]):
        bounds = tuple(int(b) for b in boundaries)
        if len(bounds) < 2:
            raise ValueError("need at least two block boundaries")
        problems = []
        if bounds[0] != 0:
            problems.append(f"first block boundary is {bounds[0]}, expected 0")
        for a, b in zip(bounds, bounds[1:]):
            if b <= a:
                problems.append(f"block boundaries not strictly increasing: {a} then {b}")
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "boundaries", bounds)

    @property
    def n(self) -> int:
        """Largest coordinate index."""
        return self.boundaries[-1]

    @property
    def arity(self) -> int:
        return self.n + 1

    @property
    def n_components(self) -> int:
        return len(self.boundaries) - 1

    @property
    def junctions(self) -> tuple[int, ...]:
        """Coordinates shared by two adjacent blocks."""
        return self.boundaries[1:-1]

    def block_start(self, i: int) -> int:
        return self.boundaries[i]

    def block_end(self, i: int) -> int:
        return self.boundaries[i + 1]

    def block_coords(self, i: int) -> range:
        """Coordinates of block ``i`` (0-based), junction ends included."""
        return range(self.boundaries[i], self.boundaries[i + 1] + 1)

    def block_width(self, i: int) -> int:
        return self.boundaries[i + 1] - self.boundaries[i] + 1


def _coerce_blocks(blocks: BlockSpec | Sequence[int]) -> BlockSpec:
    if isinstance(blocks, BlockSpec):
        return blocks
    return BlockSpec(blocks)


@dataclass(frozen=True)
class ChainInput:
    """Block boundaries plus one component per block, valid by construction.

    A component is either an :class:`~statepoly.rings.Ideal` at ambient arity
    whose generators use only the block's variables and vanish at the unit
    points of its junctions, or an already-known block polytope (a
    :class:`~statepoly.polytope.VPolytope` with a common coordinate sum whose
    dimension is the block width, or the ambient arity with zeros outside the
    block).  The constructor raises ``ValueError`` naming every violation;
    ``warnings`` names the inhomogeneous components.
    """

    blocks: tuple[int, ...]
    components: tuple[Ideal | VPolytope, ...]
    spec: BlockSpec
    warnings: tuple[str, ...]

    def __init__(
        self,
        blocks: Iterable[int],
        components: Iterable[Ideal | VPolytope],
    ):
        try:
            spec = BlockSpec(blocks)
        except ValueError as exc:
            raise ValueError(f"invalid chain input: {exc}") from None
        components = tuple(components)
        violations, warnings = _component_problems(spec, components)
        if violations:
            raise ValueError("invalid chain input: " + "; ".join(violations))
        object.__setattr__(self, "blocks", spec.boundaries)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "warnings", tuple(warnings))


def _component_problems(
    spec: BlockSpec, components: tuple[Ideal | VPolytope, ...]
) -> tuple[list[str], list[str]]:
    """Violations and warnings of the components of a chain on ``spec``."""
    violations: list[str] = []
    warnings: list[str] = []
    expected = spec.n_components
    if len(components) != expected:
        violations.append(
            f"chain has {expected} blocks but {len(components)} components"
        )
        return violations, warnings

    for i, comp in enumerate(components):
        label = f"component {i + 1}"
        coords = set(spec.block_coords(i))
        if isinstance(comp, Ideal):
            if comp.arity != spec.arity:
                violations.append(
                    f"{label}: ideal arity {comp.arity} does not match "
                    f"ambient arity {spec.arity}"
                )
                continue
            stray = sorted(comp.support_variables() - coords)
            if stray:
                violations.append(
                    f"{label}: generators use coordinates {stray} outside "
                    f"block {sorted(coords)}"
                )
            if not comp.is_homogeneous():
                warnings.append(f"{label}: generators are not homogeneous")
            shared = []
            if i > 0:
                shared.append(spec.block_start(i))
            if i < expected - 1:
                shared.append(spec.block_end(i))
            for j in shared:
                for g in comp.generators:
                    if g.evaluate_unit(j) != 0:
                        violations.append(
                            f"{label}: generator does not vanish at the unit "
                            f"point of junction coordinate {j}"
                        )
                        break
        elif isinstance(comp, VPolytope):
            width = spec.block_width(i)
            if comp.dim == spec.arity:
                outside = [j for j in range(spec.arity) if j not in coords]
                for v in comp.vertices:
                    if any(v[j] != 0 for j in outside):
                        violations.append(
                            f"{label}: polytope vertex has support outside "
                            f"block {sorted(coords)}"
                        )
                        break
            elif comp.dim != width:
                violations.append(
                    f"{label}: polytope dimension {comp.dim} is neither the "
                    f"block width {width} nor the ambient arity {spec.arity}"
                )
                continue
            if comp.level is None:
                violations.append(
                    f"{label}: polytope vertices do not share a common "
                    f"coordinate sum"
                )
        else:
            violations.append(
                f"{label}: expected an ideal or a polytope, got {type(comp).__name__}"
            )
    return violations, warnings


# ---------------------------------------------------------------------------
# mixed monomials and the translation vector


def mixed_ideals(blocks: BlockSpec | Sequence[int]) -> MonomialIdeal:
    """The monomials mixing across some junction of a chain with at least two
    blocks: the ideal generated by the products of a variable strictly left
    of a junction with a variable strictly right of it."""
    spec = _coerce_blocks(blocks)
    if spec.n_components < 2:
        raise ValueError("mixed ideals need at least two blocks")
    arity = spec.arity
    return MonomialIdeal(
        arity,
        (
            mono_mul(unit_monomial(arity, a), unit_monomial(arity, b))
            for junction in spec.junctions
            for a in range(junction)
            for b in range(junction + 1, spec.n + 1)
        ),
    )


@dataclass(frozen=True)
class TauVector:
    """Exponent sum of the degree-``m`` monomials mixing across a junction
    (each monomial counted once even when it mixes across several)."""

    tau: tuple[int, ...]
    m: int
    mixed_monomial_count: int


def tau_vector(blocks: BlockSpec | Sequence[int], m: int) -> TauVector:
    """Translation between the Minkowski sum of block polytopes and the state
    polytope of the assembled chain.  A single block gives the zero vector."""
    spec = _coerce_blocks(blocks)
    if m < 1:
        raise ValueError(f"degree m must be >= 1, got {m}")
    if spec.n_components < 2:
        return TauVector((0,) * spec.arity, m, 0)
    piece = monomial_slice(mixed_ideals(spec), m)
    tau = state_of_slice(piece)
    return TauVector(tau, m, len(piece.in_monomials))


# ---------------------------------------------------------------------------
# assembling the ambient ideal


def _block_components(chain: ChainInput) -> list[Component]:
    """Every component of the chain as its block coordinates and its ideal
    in the block ring (polytope components are refused)."""
    spec = chain.spec
    return [
        (spec.block_coords(i), component_block_ideal(chain, i))
        for i in range(spec.n_components)
    ]


def assemble_ideal(chain: ChainInput) -> Ideal:
    """Intersect the embedded component ideals into one ambient ideal.

    Each component contributes its generators together with the ambient
    variables outside its block (the component sits in the coordinate
    subspace of its block).  Requires ideal components throughout.
    """
    return intersect_embedded(chain.spec.arity, _block_components(chain))


def component_block_ideal(chain: ChainInput, i: int) -> Ideal:
    """Component ``i`` rewritten in the small ring of its block coordinates."""
    comp = chain.components[i]
    if not isinstance(comp, Ideal):
        raise ValueError(f"component {i + 1} is polytope data, not an ideal")
    coords = list(chain.spec.block_coords(i))
    return Ideal(
        len(coords),
        tuple(project_polynomial(g, coords) for g in comp.generators),
    )


# ---------------------------------------------------------------------------
# component polytopes and extremality certificates


def _component_block_polytope(
    chain: ChainInput,
    i: int,
    m: int,
    budget: int | None,
) -> tuple[VPolytope, int, FacetSystem]:
    """Block polytope of component ``i``, the number of basis runs spent,
    and the facet system of its hull.

    Ideal components are enumerated in the block ring; polytope components
    are restricted to block coordinates when given at ambient arity.
    """
    comp = chain.components[i]
    if isinstance(comp, Ideal):
        result = enumerate_state_polytope(component_block_ideal(chain, i), m, budget)
        if not result.complete:
            raise BudgetExhausted(budget if budget is not None else 0)
        return result.polytope, result.query_count, result.facet_system
    if comp.dim == chain.spec.arity:
        coords = list(chain.spec.block_coords(i))
        comp = VPolytope(len(coords), [tuple(v[j] for j in coords) for v in comp.vertices])
    return comp, 0, facets(comp)


def _component_level_count(poly: VPolytope, m: int, i: int) -> int:
    """The common coordinate sum of the block polytope divided by ``m``
    (the number of standard degree-``m`` monomials of the component)."""
    try:
        q = level_quotient(poly, m)
    except ValueError as exc:
        raise ValueError(f"component {i + 1}: {exc}") from None
    if q is None:
        raise ValueError(f"component {i + 1}: polytope has no common coordinate sum")
    return q


# ---------------------------------------------------------------------------
# the decomposed state polytope


def decomposed_state_polytope(
    chain: ChainInput, m: int, budget: int | None = None
) -> StatePolytopeResult:
    """State polytope of the assembled chain, built from component polytopes.

    The vertices are ``tau + sum of one vertex per component`` over all
    combinations.  Every component vertex carries a strict integer witness
    (from the enumeration of an ideal component, or from the facets of one
    hull per stored polytope); the witnesses of a combination are spliced
    across junctions into an ambient witness that the sum maximizes
    strictly, so every combination is a genuine extreme point.  Block
    q-values plus the mixed-monomial count give the ambient q-value.
    """
    spec = chain.spec
    tau = tau_vector(spec, m)  # refuses m < 1
    queries = 0
    blocks: list[list[tuple[tuple, tuple[int, ...]]]] = []
    q_total = tau.mixed_monomial_count
    for i in range(spec.n_components):
        poly, spent, system = _component_block_polytope(chain, i, m, budget)
        queries += spent
        q_total += _component_level_count(poly, m, i)
        witnesses = vertex_witnesses(system, poly.vertices)
        blocks.append([(v, witnesses[v]) for v in poly.vertices])

    starts = [spec.block_start(i) for i in range(spec.n_components)]
    witnesses_out: dict[tuple, tuple[int, ...]] = {}
    for combo in itertools.product(*blocks):
        total = list(tau.tau)
        for start, (part, _) in zip(starts, combo):
            for j, value in enumerate(part):
                total[start + j] += value
        witnesses_out[tuple(total)] = merge_chain_weights([w for _, w in combo])

    expected = prod(len(b) for b in blocks)
    if len(witnesses_out) != expected:
        raise ExtremalityError(
            f"extremality violated: {expected} vertex combinations produced "
            f"only {len(witnesses_out)} distinct sums"
        )
    return StatePolytopeResult(
        polytope=VPolytope(spec.arity, witnesses_out),
        m=m,
        status="complete",
        q=q_total,
        query_count=queries,
        witnesses=witnesses_out,
        tau=tau,
    )


# ---------------------------------------------------------------------------
# barycenter decomposition and semistability


def barycenter_decompose(
    point: Sequence,
    blocks: BlockSpec | Sequence[int],
    levels: Sequence,
) -> tuple[Vector, ...]:
    """Split an ambient point into one summand per block, each supported on
    its block's coordinates with the prescribed coordinate sum.

    Working left to right, each summand copies the remaining point on the
    block's interior coordinates and closes its level on the right junction;
    this is the only possible decomposition.  The coordinate sums must add
    up to the point's total, otherwise no decomposition exists.
    """
    spec = _coerce_blocks(blocks)
    target = tuple(map(Fraction, point))
    if len(target) != spec.arity:
        raise ValueError(
            f"point has {len(target)} coordinates, expected {spec.arity}"
        )
    sums = [Fraction(v) for v in levels]
    if len(sums) != spec.n_components:
        raise ValueError(
            f"got {len(sums)} levels for {spec.n_components} blocks"
        )
    if sum(target) != sum(sums):
        raise ValueError(
            f"coordinate sum {sum(target)} does not match the total level "
            f"{sum(sums)}; no decomposition exists"
        )
    residual = list(target)
    out: list[Vector] = []
    for i in range(spec.n_components):
        start, end = spec.block_start(i), spec.block_end(i)
        summand = [Fraction(0)] * spec.arity
        partial = Fraction(0)
        for j in range(start, end):
            summand[j] = residual[j]
            partial += residual[j]
        summand[end] = sums[i] - partial
        for j in range(start, end + 1):
            residual[j] -= summand[j]
        out.append(tuple(summand))
    if any(r != 0 for r in residual):
        raise ValueError("decomposition left a nonzero residual")
    return tuple(out)


@dataclass(frozen=True)
class ChainSemistabilityReport:
    """Barycenter membership for a chain, decided one component at a time.

    ``member_of_hull`` is true exactly when every block summand of
    ``barycenter - tau`` lies in the corresponding component polytope;
    ``components[i]`` decides ``summands[i]`` in block coordinates, with
    weights on the component's sorted block vertices.
    """

    m: int
    q: int
    tau: tuple[int, ...]
    barycenter: Vector
    target: Vector
    levels: tuple[Fraction, ...]
    summands: tuple[Vector, ...]
    components: tuple[HullMembership, ...]
    member_of_hull: bool


def semistability_via_components(
    chain: ChainInput, m: int, budget: int | None = None
) -> ChainSemistabilityReport:
    """Decide whether the chain's barycenter lies in its state polytope
    without forming the Minkowski sum: decompose ``barycenter - tau`` into
    block summands and test each against its component polytope."""
    spec = chain.spec
    tau = tau_vector(spec, m)  # refuses m < 1
    blocks: list[tuple[VPolytope, FacetSystem]] = []
    q_total = tau.mixed_monomial_count
    for i in range(spec.n_components):
        poly, _, system = _component_block_polytope(chain, i, m, budget)
        q_total += _component_level_count(poly, m, i)
        blocks.append((poly, system))
    levels = tuple(poly.level for poly, _ in blocks)
    gamma = trivial_character_point(spec.n, m, q_total)
    target = tuple(g - t for g, t in zip(gamma, tau.tau))
    summands = barycenter_decompose(target, spec, levels)
    memberships = tuple(
        member_convex_hull(system, poly.vertices, [summand[j] for j in spec.block_coords(i)])
        for i, ((poly, system), summand) in enumerate(zip(blocks, summands))
    )
    return ChainSemistabilityReport(
        m=m,
        q=q_total,
        tau=tau.tau,
        barycenter=gamma,
        target=target,
        levels=levels,
        summands=summands,
        components=memberships,
        member_of_hull=all(c.inside for c in memberships),
    )


# ---------------------------------------------------------------------------
# slice bookkeeping


@dataclass(frozen=True)
class SlicePartitionReport:
    """Comparison of the assembled ideal's degree-``m`` slice with the mixed
    monomials plus the embedded component slices.

    When the chain behaves as designed the three families partition the
    ambient slice and no junction power ``x_{n_i}^m`` appears anywhere.
    """

    m: int
    merged_weights: tuple[int, ...]
    ambient_in_slice: tuple[Monomial, ...]
    mixed_monomials: tuple[Monomial, ...]
    embedded_slices: tuple[tuple[Monomial, ...], ...]
    junction_powers: tuple[Monomial, ...]
    missing: tuple[Monomial, ...]
    extra: tuple[Monomial, ...]
    overlaps: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra or self.overlaps)


def initial_slice_partition(
    chain: ChainInput,
    m: int,
    block_weights: Sequence[Sequence[int]],
) -> SlicePartitionReport:
    """Compare the initial-ideal slice of the assembled chain (under spliced
    block weights) with the mixed monomials and the embedded block slices."""
    components = _block_components(chain)
    spec = chain.spec
    if m < 1:
        raise ValueError(f"degree m must be >= 1, got {m}")
    if len(block_weights) != spec.n_components:
        raise ValueError(
            f"got {len(block_weights)} weight vectors for "
            f"{spec.n_components} blocks"
        )
    for i, w in enumerate(block_weights):
        if len(w) != spec.block_width(i):
            raise ValueError(
                f"weight vector {i + 1} has {len(w)} entries, expected the "
                f"block width {spec.block_width(i)}"
            )
    merged = merge_chain_weights(block_weights)
    slices = UnionSlices(spec.arity, components, m)
    ambient_slice = slices.union(weight_order(merged)).in_monomials

    if spec.n_components >= 2:
        mixed = monomial_slice(mixed_ideals(spec), m).in_monomials
    else:
        mixed = ()

    embedded: list[tuple[Monomial, ...]] = []
    for index, ((coords, _), weights) in enumerate(zip(components, block_weights)):
        piece = slices.component(index, weight_order(weights))
        lifted = (embed_monomial(mono, spec.arity, coords) for mono in piece.in_monomials)
        embedded.append(tuple(sorted(lifted)))

    junction_powers = tuple(
        unit_monomial(spec.arity, j, m) for j in spec.junctions
    )

    families: list[tuple[str, set[Monomial]]] = [("mixed", set(mixed))]
    for i, piece in enumerate(embedded):
        families.append((f"component {i + 1}", set(piece)))
    overlaps: list[str] = []
    for (name_a, set_a), (name_b, set_b) in itertools.combinations(families, 2):
        common = set_a & set_b
        if common:
            overlaps.append(
                f"{name_a} and {name_b} share {len(common)} monomials"
            )
    covered = set().union(*(s for _, s in families))
    for power in junction_powers:
        if power in covered:
            overlaps.append(f"junction power {power} appears in a family")
        if power in set(ambient_slice):
            overlaps.append(f"junction power {power} lies in the ambient slice")

    ambient_set = set(ambient_slice)
    missing = tuple(sorted(ambient_set - covered))
    extra = tuple(sorted(covered - ambient_set))
    return SlicePartitionReport(
        m=m,
        merged_weights=merged,
        ambient_in_slice=tuple(sorted(ambient_slice)),
        mixed_monomials=tuple(sorted(mixed)),
        embedded_slices=tuple(embedded),
        junction_powers=junction_powers,
        missing=missing,
        extra=extra,
        overlaps=tuple(overlaps),
    )
