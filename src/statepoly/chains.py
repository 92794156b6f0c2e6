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
from collections import namedtuple
from fractions import Fraction
from math import prod
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .groebner import (
    Component,
    IntPoly,
    MonomialIdeal,
    UnionSlices,
    buchberger,
    intersect_embedded,
    monomial_slice,
    require_enumerable,
    slice_state,
)
from .linalg import exact_vector, int_rows, row_reduce
from .orders import grevlex_order, merge_chain_weights, weight_order
from .polytope import (
    ExtremalityError,
    FacetSystem,
    HullMembership,
    VPolytope,
    extremality_witness,  # re-exported: part of this module's interface
    facets,
    level_quotient,
    member_convex_hull,
    trivial_character_point,
    vertex_witnesses,
)
from .rings import (
    Ideal,
    Monomial,
    mono_mul,
    project_polynomial,
    unit_monomial,
)
from .state import (
    BudgetExhausted,
    StatePolytopeResult,
    enumerate_state_polytope,
)

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# block layout


class BlockSpec(namedtuple("BlockSpec", "boundaries")):
    """Consecutive coordinate blocks ``[n_0..n_1], [n_1..n_2], ...`` with
    ``n_0 = 0``, given by the tuple of ``boundaries``; adjacent blocks share
    exactly the junction coordinate."""

    __slots__ = ()

    def __new__(cls, boundaries: Iterable[int]) -> BlockSpec:
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
        return super().__new__(cls, bounds)

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


class ChainInput(namedtuple("ChainInput", "blocks components spec warnings")):
    """Block boundaries plus one component per block, valid by construction.

    A component is either an :class:`~statepoly.rings.Ideal` at ambient arity
    whose generators use only the block's variables and vanish at the unit
    points of its junctions, or an already-known block polytope (a
    :class:`~statepoly.polytope.VPolytope` with a common coordinate sum whose
    dimension is the block width, or the ambient arity with zeros outside the
    block).  The constructor raises ``ValueError`` naming every violation;
    ``warnings`` names the inhomogeneous components.  The fields are the
    ``blocks`` boundaries, the ``components``, the boundaries as a
    :class:`BlockSpec` ``spec``, and the ``warnings``.
    """

    __slots__ = ()

    def __new__(
        cls,
        blocks: Iterable[int],
        components: Iterable[Ideal | VPolytope],
    ) -> ChainInput:
        try:
            spec = BlockSpec(blocks)
        except ValueError as exc:
            raise ValueError(f"invalid chain input: {exc}") from None
        components = tuple(components)
        violations, warnings = _component_problems(spec, components)
        if violations:
            raise ValueError("invalid chain input: " + "; ".join(violations))
        return super().__new__(cls, spec.boundaries, components, spec, tuple(warnings))


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


class TauVector(NamedTuple):
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
    require_enumerable(spec.arity, m)
    _, tau = slice_state(mixed_ideals(spec), m)
    # every mixed monomial has degree m
    return TauVector(tau, m, sum(tau) // m)


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


def _component_polytopes(
    chain: ChainInput, m: int, budget: int | None
) -> tuple[TauVector, int, int, list[tuple[VPolytope, FacetSystem]]]:
    """What both chain routes read: ``tau``, the ambient q-value, the number
    of basis runs spent, and each component's block polytope with the facet
    system of its hull.

    Ideal components are enumerated in the block ring, except that a
    homogeneous component proved equal to an earlier enumerated one of the
    same width in every degree up to ``m`` (all the degree-``m`` state
    reads), unchanged or with its block coordinates reversed, reuses that
    polytope (:func:`_agree_to_degree` is the proof).  A reversed polytope's
    facet system is rebuilt from its sorted vertices, which gives the system
    an enumeration would (the system is canonical for its vertex set).
    Polytope components are restricted to block coordinates when given at
    ambient arity.  A block's q-value is its common coordinate sum divided
    by ``m``.
    """
    spec = chain.spec
    tau = tau_vector(spec, m)  # refuses m < 1
    q_total = tau.mixed_monomial_count
    queries = 0
    blocks: list[tuple[VPolytope, FacetSystem]] = []
    enumerated: dict[Ideal, tuple[VPolytope, FacetSystem]] = {}  # homogeneous ones
    bases: dict[Ideal, tuple[IntPoly, ...]] = {}
    for i, comp in enumerate(chain.components):
        if isinstance(comp, Ideal):
            ideal = component_block_ideal(chain, i)
            reused = _reused_block(ideal, m, enumerated, bases)
            if reused is not None:
                poly, system = reused
            else:
                result = enumerate_state_polytope(ideal, m, budget)
                if not result.complete:
                    raise BudgetExhausted(budget if budget is not None else 0)
                queries += result.query_count
                poly, system = result.polytope, result.facet_system
                if ideal.is_homogeneous():
                    enumerated[ideal] = (poly, system)
        else:
            if comp.dim == spec.arity:
                coords = spec.block_coords(i)
                comp = VPolytope(len(coords), [tuple(v[j] for j in coords) for v in comp.vertices])
            poly, system = comp, facets(comp)
        try:
            q = level_quotient(poly, m)
        except ValueError as exc:
            raise ValueError(f"component {i + 1}: {exc}") from None
        if q is None:
            raise ValueError(f"component {i + 1}: polytope has no common coordinate sum")
        q_total += q
        blocks.append((poly, system))
    return tau, q_total, queries, blocks


def _reused_block(
    ideal: Ideal,
    m: int,
    enumerated: dict[Ideal, tuple[VPolytope, FacetSystem]],
    bases: dict[Ideal, tuple[IntPoly, ...]],
) -> tuple[VPolytope, FacetSystem] | None:
    """The block polytope of a homogeneous ``ideal`` read from an enumerated
    component whose ideal equals it, unchanged or with the block coordinates
    reversed, in every degree up to ``m``; ``None`` when there is none."""
    width = ideal.arity
    candidates = [(other, block) for other, block in enumerated.items() if block[0].dim == width]
    if not candidates or not ideal.is_homogeneous():
        return None
    for reverse in (False, True):
        for other, (poly, system) in candidates:
            if not _agree_to_degree(ideal, other, m, bases, reverse):
                continue
            if not reverse:
                return poly, system
            # the reversal sends the other component's states to this one's
            flipped = VPolytope(width, (v[::-1] for v in poly.vertices))
            return flipped, facets(flipped)
    return None


def _agree_to_degree(
    a: Ideal, b: Ideal, m: int, bases: dict[Ideal, tuple[IntPoly, ...]], reverse: bool
) -> bool:
    """Whether the homogeneous ideal ``a``, with its coordinates reversed if
    ``reverse``, and the homogeneous ideal ``b`` of the same ring agree in
    every degree up to ``m``.

    Below its generators' lowest degree ``d`` an ideal is zero, and in
    degree ``d`` it is the span of the generators of that degree: a
    different ``d`` or span refutes equality with no Groebner basis, and
    equal spans prove it when no generator of degree at most ``m`` has
    another degree.  Otherwise the reduced ``m``-truncated grevlex bases
    decide, since that basis is unique; ``bases`` keeps each one computed.
    """
    if a == b and not reverse:
        return True

    def lowest(ideal: Ideal, flip: bool) -> tuple[int | None, list[IntPoly], bool]:
        kept = [(e, g) for e, g in zip(ideal.integer_degrees, ideal.integer_generators) if e <= m]
        d = min((e for e, _ in kept), default=None)
        low = [{mono[::-1]: c for mono, c in g.items()} if flip else g for e, g in kept if e == d]
        return d, low, all(e == d for e, _ in kept)

    (d_a, low_a, one_degree_a), (d_b, low_b, one_degree_b) = lowest(a, reverse), lowest(b, False)
    if d_a != d_b or not _same_span(low_a, low_b):
        return False
    if one_degree_a and one_degree_b:
        return True
    if reverse:
        reversal = range(a.arity - 1, -1, -1)
        a = Ideal(a.arity, (project_polynomial(g, reversal) for g in a.generators))

    def basis(ideal: Ideal) -> tuple[IntPoly, ...]:
        if ideal not in bases:
            bases[ideal] = buchberger(ideal, grevlex_order(ideal.arity), m).integer_elements
        return bases[ideal]

    return basis(a) == basis(b)


def _same_span(f: list[IntPoly], g: list[IntPoly]) -> bool:
    """Whether two lists of integer polynomials span one space."""
    # a span's support is the union of its spanning polynomials' supports
    support = {mono for p in f for mono in p}
    if support != {mono for p in g for mono in p}:
        return False
    monomials = sorted(support)

    def rank(polys: list[IntPoly]) -> int:
        rows = ([p.get(mono, 0) for mono in monomials] for p in polys)
        return row_reduce(rows, len(monomials)).rank

    return rank(f) == rank(g) == rank(f + g)


# ---------------------------------------------------------------------------
# the decomposed state polytope


def _splice(
    partials: Iterable[tuple[Vector, tuple[int, ...]]],
    block: Sequence[tuple[Vector, tuple[int, ...]]],
) -> Iterator[tuple[Vector, tuple[int, ...]]]:
    """Every partial sum ending on a junction, with its witness, extended by
    every vertex of the next block, with its witness: the vertex adds its
    first coordinate to the junction and brings in the rest, and its
    witness, shifted to agree with the partial one on the junction, brings
    in the rest of its entries (the splice of :func:`merge_chain_weights`)."""
    parts = [(v[0], v[1:], w[0], w[1:]) for v, w in block]
    for row, witness in partials:
        head, junction, top = row[:-1], row[-1], witness[-1]
        for first, rest, lead, tail in parts:
            shift = top - lead
            yield head + (junction + first,) + rest, witness + tuple([shift + x for x in tail])


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
    tau, q_total, queries, polytopes = _component_polytopes(chain, m, budget)
    # per block, (vertex, witness) pairs with tau added to the coordinates
    # the block brings in: all of the first block's, and every later block's
    # but its left junction, which the block before it brought in
    blocks: list[list[tuple[Vector, tuple[int, ...]]]] = []
    rational = False
    for i, (poly, system) in enumerate(polytopes):
        witnesses = vertex_witnesses(system, poly.vertices)
        fresh = 0 if i == 0 else 1
        part = tau.tau[spec.block_start(i) + fresh : spec.block_end(i) + 1]
        blocks.append(
            [(v[:fresh] + tuple(map(add, v[fresh:], part)), witnesses[v]) for v in poly.vertices]
        )
        rational = rational or not int_rows(poly.vertices)

    # the Minkowski product as a prefix fold; the last level fills the
    # vertex -> witness map directly
    partials = blocks[0]
    for block in blocks[1:-1]:
        partials = list(_splice(partials, block))
    witnesses_out = dict(_splice(partials, blocks[-1]) if len(blocks) > 1 else partials)
    if rational:  # a junction sum of two fractions may be integral
        witnesses_out = {exact_vector(v): w for v, w in witnesses_out.items()}

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


class ChainSemistabilityReport(NamedTuple):
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
    tau, q_total, _, blocks = _component_polytopes(chain, m, budget)
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


class SlicePartitionReport(NamedTuple):
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

    embedded = [
        slices.component(index, weight_order(weights))
        for index, weights in enumerate(block_weights)
    ]

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
