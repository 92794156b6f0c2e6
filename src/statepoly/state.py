"""State polytopes of homogeneous ideals by oracle-driven vertex enumeration.

The degree-``m`` state vector of an ideal under a monomial order is the sum
of the exponent vectors of the degree-``m`` monomials inside the initial
ideal.  Ranging over all orders, these vectors are exactly the vertices of a
polytope; a weight vector ``w`` refined by grevlex realizes a vertex
maximizing ``w . x`` over that polytope.  That support-function oracle drives
the enumeration:

1. seed with the coordinate directions and their negatives,
2. certify the affine hull (query both signs of every hull equation until no
   new vertex appears), then
3. confirm every facet of the current hull (query its outward normal; either
   the support value matches, or a new vertex is found and the hull grows).

When every facet of the running hull is confirmed, the hull is the state
polytope.  The oracle pays one Groebner basis run per Groebner cone it
meets, not per direction; an optional budget caps the distinct normalized
directions it answers.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .groebner import (
    DegreeSlice,
    Marked,
    MonomialIdeal,
    initial_ideal,
    require_enumerable,
    standard_monomials,
)
from .linalg import exact_vector, primitive
from .lp import affine_hull, member_convex_hull
from .orders import grevlex_order, weight_order
from .polytope import (
    FacetSystem,
    IncrementalHull,
    VPolytope,
    facets,
    level_quotient,
    trivial_character_point,
    vertex_witnesses,
)
from .rings import Ideal, Monomial

if TYPE_CHECKING:
    from .chains import TauVector

StateVector = tuple[int, ...]

BUDGET_ENV_VAR = "STATEC_BUDGET"


class BudgetExhausted(RuntimeError):
    """Raised when an enumeration would exceed its budget of distinct
    normalized query directions."""

    def __init__(self, budget: int):
        super().__init__(f"Groebner-run budget of {budget} exhausted")
        self.budget = budget


def state_of_slice(piece: DegreeSlice) -> StateVector:
    """Sum of the exponent vectors of the slice's initial-ideal monomials."""
    total = [0] * piece.arity
    for mono in piece.in_monomials:
        for j, e in enumerate(mono):
            total[j] += e
    return tuple(total)


# a Groebner cone as (lead - tail, grevlex prefers the lead) per marked term
ConeTest = tuple[tuple[tuple[int, ...], bool], ...]


def _cone_test(marked: Marked, tiebreak: Callable[[Monomial], tuple[int, ...]]) -> ConeTest:
    return tuple(
        (tuple(a - b for a, b in zip(lead, tail)), tiebreak(lead) > tiebreak(tail))
        for lead, tails in marked
        for tail in tails
    )


def _keeps_marked_leads(cone: ConeTest, key: Sequence[int]) -> bool:
    """Whether every marked lead beats each of its tails under the weight
    ``key`` refined by grevlex, the order ``weight_order(key)``."""
    for diff, grevlex_wins in cone:
        margin = sum(map(mul, key, diff))
        if margin < 0 or (margin == 0 and not grevlex_wins):
            return False
    return True


class StateOracle:
    """Memoized support-function oracle for one ideal and degree.

    Directions are normalized by subtracting their minimum entry and scaling
    to a content-one integer vector, so equivalent queries share one answer.
    The shift keeps every weight row nonnegative (hence the refined order a
    genuine well-order) and does not change how equal-degree monomials
    compare; on a polytope whose points share one coordinate sum it shifts
    all support values equally, so maximizers are preserved.

    A new direction is answered once per Groebner cone.  Every Groebner basis
    the oracle computes is kept as its marked supports (lead and tail
    monomials per element) with its state.  When, under the new order ``≺'``,
    every element of a kept basis ``G`` still has its marked lead above each
    of its tail monomials, ``G`` is a Groebner basis for ``≺'`` with the same
    initial ideal, so the kept state is the answer and no Buchberger run is
    made.  Proof: ``G`` is a Groebner basis for its own order, so every
    S-pair ``S(g, h)`` reduces to zero modulo ``G`` by steps that each
    replace a term ``u * lead(g_k)`` by ``u * tails(g_k)``.  Under ``≺'``
    these are still reductions by the marked leads, and each step only
    produces terms below the term it removes.  The S-pair's own terms lie
    below ``lcm(lead(g), lead(h))`` under ``≺'``, so every ``u * lead(g_k)``
    of the reduction does too: each S-pair has a standard representation
    for ``≺'``, and by Buchberger's criterion ``G`` is a Groebner basis for
    ``≺'`` with ``in_≺'(I) = <lead(g) : g in G>``.  Nothing in this needs
    ``G`` reduced or the ideal homogeneous.

    For a homogeneous ideal each run stops at degree ``m`` (the
    ``degree`` of :func:`statepoly.groebner.initial_ideal`), and the kept
    ``G`` is an ``m``-truncated basis: every S-pair of degree at most ``m``
    reduces to zero modulo ``G``.  The argument above applies to exactly
    those S-pairs, so when the marked leads still beat their tails under
    ``≺'``, ``G`` is an ``m``-truncated basis for ``≺'`` as well and
    ``in_≺'(I)_d = <lead(g) : g in G>_d`` for every ``d <= m``, which is all
    the state reads.  A truncated basis has fewer marked terms than the full
    one, so its cone test accepts more directions.

    The state is the closed-form column total ``C(m+n-1, n)`` (each
    coordinate summed over all degree-``m`` monomials in ``n`` variables)
    minus the sum of the standard monomials, found by a walk of the
    staircase (:func:`statepoly.groebner.standard_monomials`).

    ``gb_runs`` counts the distinct normalized directions answered (a cone
    hit included), which is what ``query_count`` reports and ``budget``
    caps; ``cone_hits`` counts those answered from a kept basis, so
    ``gb_runs - cone_hits`` Buchberger runs were made.
    """

    def __init__(self, ideal: Ideal, m: int, budget: int | None = None):
        if m < 1:
            raise ValueError(f"degree must be positive, got {m}")
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        require_enumerable(ideal.arity, m)
        self.ideal = ideal
        self.m = m
        self.budget = budget
        self.gb_runs = 0
        self.cone_hits = 0
        self._memo: dict[tuple[int, ...], StateVector] = {}
        self._cones: list[tuple[ConeTest, StateVector]] = []
        self._tiebreak = grevlex_order(ideal.arity).key

    @staticmethod
    def normalize_direction(weights: Sequence[int | Fraction]) -> tuple[int, ...]:
        values = exact_vector(weights)
        low = min(values)
        return primitive([w - low for w in values])

    def state_for_direction(self, weights: Sequence[int | Fraction]) -> StateVector:
        if len(weights) != self.ideal.arity:
            raise ValueError("direction length does not match the ring arity")
        key = self.normalize_direction(weights)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.budget is not None and self.gb_runs >= self.budget:
            raise BudgetExhausted(self.budget)
        self.gb_runs += 1
        state = next((st for cone, st in self._cones if _keeps_marked_leads(cone, key)), None)
        if state is None:
            mi = initial_ideal(self.ideal, weight_order(key), self.m)
            state = self._state_of(mi)
            self._cones.append((_cone_test(mi.marked, self._tiebreak), state))
        else:
            self.cone_hits += 1
        self._memo[key] = state
        return state

    def _state_of(self, mi: MonomialIdeal) -> StateVector:
        """The exponent sum of the degree-``m`` monomials of ``mi``."""
        n = self.ideal.arity
        state = [comb(self.m + n - 1, n)] * n
        for mono in standard_monomials(mi, self.m):
            for j, e in enumerate(mono):
                state[j] -= e
        return tuple(state)


@dataclass(frozen=True)
class StatePolytopeResult:
    """A (possibly partial) state polytope with per-vertex witness weights.

    ``witnesses[v]`` is an integer direction.  In a complete result ``v`` is
    its unique maximizer over the polytope (a strict witness, built from the
    facet normals tight at ``v``).  A ``budget_exhausted`` result keeps the
    oracle query direction that found ``v``: a weak maximizer, whose maximum
    another vertex may share, though the query's grevlex refinement picks
    ``v``.  ``q`` is the number of degree-``m`` monomials in the initial
    ideal (the common vertex coordinate sum is ``m * q``).  A result
    assembled from chain components carries the chain's ``tau``.
    """

    polytope: VPolytope
    m: int
    status: str  # "complete" or "budget_exhausted"
    q: int | None
    query_count: int
    witnesses: Mapping[StateVector, tuple[int, ...]]
    hull_dim: int | None = None
    facet_system: FacetSystem | None = None
    tau: TauVector | None = None

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def enumerate_state_polytope(
    ideal: Ideal,
    m: int,
    budget: int | None = None,
    oracle: StateOracle | None = None,
) -> StatePolytopeResult:
    orc = oracle if oracle is not None else StateOracle(ideal, m, budget=budget)
    arity = ideal.arity
    vertices: set[StateVector] = set()
    witnesses: dict[StateVector, tuple[int, ...]] = {}
    status = "complete"
    hull_dim: int | None = None
    system: FacetSystem | None = None

    def query(direction: Sequence[int]) -> StateVector:
        found = orc.state_for_direction(direction)
        witnesses.setdefault(found, tuple(int(d) for d in direction))
        return found

    try:
        seeds: list[tuple[int, ...]] = [(0,) * arity]
        for i in range(arity):
            seeds.append(tuple(1 if j == i else 0 for j in range(arity)))
            seeds.append(tuple(-1 if j == i else 0 for j in range(arity)))
        for w in seeds:
            vertices.add(query(w))
        while True:
            hull = affine_hull(sorted(vertices))
            hull_dim = hull.dim
            grew = False
            for normal, _offset in hull.equations:
                for sign in (1, -1):
                    found = query(tuple(sign * h for h in normal))
                    if found not in vertices:
                        vertices.add(found)
                        grew = True
            if not grew:
                break
        hull_obj = IncrementalHull(sorted(vertices))
        confirmed: set[tuple[tuple[int, ...], int]] = set()
        while True:
            candidate = hull_obj.facet_system()
            pending = [f for f in candidate.facets if f not in confirmed]
            if not pending:
                system = candidate
                hull_dim = candidate.hull_dim
                break
            for normal, offset in pending:
                found = query(normal)
                value = sum(h * x for h, x in zip(normal, found))
                if value == offset:
                    confirmed.add((normal, offset))
                elif value < offset:
                    raise ValueError(
                        "oracle support fell below a hull facet: the states do not "
                        "form one polytope, most likely because the input is not homogeneous"
                    )
                if found not in vertices:
                    vertices.add(found)
                    hull_obj.add_point(found)
    except BudgetExhausted:
        status = "budget_exhausted"
    polytope = VPolytope(arity, sorted(vertices))
    if system is not None:
        witnesses = vertex_witnesses(system, polytope.vertices)
    return StatePolytopeResult(
        polytope=polytope,
        m=m,
        status=status,
        q=level_quotient(polytope, m),
        query_count=orc.gb_runs,
        witnesses={v: witnesses[v] for v in polytope.vertices},
        hull_dim=hull_dim,
        facet_system=system,
    )


# ---------------------------------------------------------------------------
# barycenter membership


@dataclass(frozen=True)
class SemistabilityReport:
    m: int
    q: int
    barycenter: tuple[Fraction, ...]
    member_of_hull: bool
    relative_interior: bool
    coefficients: tuple[Fraction, ...] | None  # hull coefficients when inside
    separator: tuple[int, ...] | None  # separating functional when outside


def semistability_report(result: StatePolytopeResult, n: int | None = None) -> SemistabilityReport:
    """Barycenter membership for a completed state polytope.

    The barycenter is the point with all coordinates ``m*q/(n+1)``.  One
    facet system -- ``result.facet_system``, or the polytope's hull when the
    result carries none -- gives hull membership with its certificate and,
    for a member, whether it lies in the relative interior (no facet is
    tight at it); no stability label is attached to either flag.
    """
    if not result.complete:
        raise ValueError("state polytope enumeration is incomplete (budget exhausted)")
    polytope = result.polytope
    if n is None:
        n = polytope.dim - 1
    elif n != polytope.dim - 1:
        raise ValueError(f"n={n} does not match the polytope dimension {polytope.dim}")
    if result.q is None:
        raise ValueError("polytope has no common level; cannot form the barycenter")
    gamma = trivial_character_point(n, result.m, result.q)
    system = result.facet_system or facets(polytope)
    membership = member_convex_hull(system, polytope.vertices, gamma)
    return SemistabilityReport(
        m=result.m,
        q=result.q,
        barycenter=gamma,
        member_of_hull=membership.inside,
        relative_interior=membership.inside and system.relative_interior(gamma),
        coefficients=membership.coefficients,
        separator=membership.separator,
    )


def read_budget_from_env() -> int | None:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be nonnegative, got {value}")
    return value
