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
   A facet that a vertex found earlier in the same round lies strictly
   beyond is no longer a facet, and is not queried.

When every facet of the running hull is confirmed, the hull is the state
polytope.  For a homogeneous ideal the oracle answers most directions from
the supports of the bases it has already computed, certified by the Hilbert
count, and makes a Groebner basis run only when that certificate fails; an
optional budget caps the distinct normalized directions it answers.
"""
from __future__ import annotations

import os
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .groebner import (
    MonomialIdeal,
    initial_ideal,
    require_enumerable,
    slice_state,
)
from .linalg import exact_vector, primitive
from .orders import MonomialOrder, grevlex_order, weight_order
from .polytope import (
    FacetSystem,
    IncrementalHull,
    VPolytope,
    affine_hull,
    facets,
    level_quotient,
    member_convex_hull,
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


class StateOracle:
    """Memoized support-function oracle for one ideal and degree.

    Directions are normalized by subtracting their minimum entry and scaling
    to a content-one integer vector, so equivalent queries share one answer.
    The shift keeps every weight row nonnegative (hence the refined order a
    genuine well-order) and does not change how equal-degree monomials
    compare; on a polytope whose points share one coordinate sum it shifts
    all support values equally, so maximizers are preserved.

    For a homogeneous ideal a new direction is answered from a pool of
    basis supports whenever the Hilbert count certifies it, and only
    otherwise by a Buchberger run.  Every run the oracle makes stops at
    degree ``m`` (the ``degree`` of
    :func:`statepoly.groebner.initial_ideal`) and adds to the pool the
    support of each element of its basis.  Under the new order ``≺'`` (the
    weight ``key`` refined by grevlex) the answer takes from every pooled
    support its largest monomial, minimalises these leads to ``L`` and
    walks the staircase of ``<L>`` in degree ``m``.  If the walk finds
    exactly ``h(m)`` standard monomials, the state is read off that walk.
    Proof: each support is that of an element ``f`` of the ideal with
    nonzero coefficients, so its largest monomial is ``in_≺'(f)`` and
    ``<L>_m ⊆ in_≺'(I)_m``.  A homogeneous ideal and all its initial ideals
    share one Hilbert function (Macaulay), so ``in_≺'(I)_m`` leaves exactly
    ``h(m)`` standard monomials; an ideal inside it that leaves as many is
    all of it in degree ``m``, which is all the state reads.  When the
    count differs the oracle makes the run, whose supports then join the
    pool.  The pool is a degree-``m`` universal Groebner basis in the making
    (Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 1-2).

    ``h(m)`` and the first supports come from one grevlex run made at
    construction, after the degree is checked against the enumeration
    limit: it is the one run every homogeneous oracle needs, and made there
    it is not counted as a query.  Lead sets already walked are kept with
    their state (or with ``None`` when the count differed), so a repeated
    lead set costs no walk.

    An inhomogeneous ideal has no shared Hilbert function, so it gets one
    Buchberger run, in full, per distinct normalized direction.

    Each walk is one :func:`statepoly.groebner.slice_state`, which also
    gives a chain's ``tau`` (:func:`statepoly.chains.tau_vector`): its
    count of standard monomials is the certificate, and its state is the
    answer.  It reads :func:`statepoly.groebner.standard_sums`, the one
    staircase walk, which also gives the Hilbert-Mumford index and
    ``hilbert_values``.  The ideal converts its generators to primitive
    integer polynomials on its first run (``Ideal.integer_generators``).

    ``gb_runs`` counts the distinct normalized directions answered, which is
    what ``query_count`` reports and ``budget`` caps; ``pool_answers``
    counts those answered without a run, so ``gb_runs - pool_answers``
    Buchberger runs were made for queries, besides the set-up run.
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
        self.pool_answers = 0
        self._memo: dict[tuple[int, ...], StateVector] = {}
        self._grevlex = grevlex_order(ideal.arity)
        # each pooled support lists its monomials in decreasing grevlex
        # order, so the first of equal weight is the refined order's lead
        self._pool: set[tuple[Monomial, ...]] = set()
        self._monomials: set[Monomial] = set()
        self._states: dict[tuple[Monomial, ...], StateVector | None] = {}
        self._hilbert: int | None = None
        if ideal.integer_degrees is not None:
            self._hilbert, _ = self._run(self._grevlex)

    @staticmethod
    def normalize_direction(weights: Sequence[int | Fraction]) -> tuple[int, ...]:
        values = exact_vector(weights)
        low = min(values)
        return primitive([w - low for w in values])

    def _run(self, order: MonomialOrder) -> tuple[int, StateVector]:
        """One Buchberger run: its number of degree-``m`` standard monomials
        and its state.  A homogeneous ideal's run pools its supports and
        keeps its state under its leads."""
        mi = initial_ideal(self.ideal, order, self.m)
        count, state = slice_state(mi, self.m)
        if self.ideal.integer_degrees is not None:
            descending = self._grevlex.descending_key
            for support in mi.supports:
                self._pool.add(tuple(sorted(support, key=descending)))
                self._monomials.update(support)
            self._states[mi.gens] = state
        return count, state

    def _pooled_state(self, key: tuple[int, ...]) -> StateVector | None:
        """The state under ``weight_order(key)`` if the pool's leads are
        certified by the Hilbert count, else ``None``."""
        weight = {mono: sum(map(mul, key, mono)) for mono in self._monomials}
        leads = MonomialIdeal(
            self.ideal.arity, {max(support, key=weight.__getitem__) for support in self._pool}
        )
        if leads.gens not in self._states:
            count, state = slice_state(leads, self.m)
            self._states[leads.gens] = state if count == self._hilbert else None
        return self._states[leads.gens]

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
        state = self._pooled_state(key) if self._hilbert is not None else None
        if state is None:
            _, state = self._run(weight_order(key))
        else:
            self.pool_answers += 1
        self._memo[key] = state
        return state


class StatePolytopeResult(NamedTuple):
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
    """The state polytope of ``ideal`` in degree ``m``, found by querying
    ``oracle``, or a new ``StateOracle(ideal, m, budget)``.  A given oracle
    must be for this ideal and degree, and carries its own budget."""
    if oracle is None:
        oracle = StateOracle(ideal, m, budget=budget)
    elif budget is not None:
        raise ValueError("pass the budget to the oracle, not with it")
    elif m != oracle.m or ideal != oracle.ideal:
        raise ValueError("the oracle answers for another ideal or degree")
    arity = ideal.arity
    vertices: set[StateVector] = set()
    witnesses: dict[StateVector, tuple[int, ...]] = {}
    status = "complete"
    hull_dim: int | None = None
    system: FacetSystem | None = None

    def query(direction: Sequence[int]) -> StateVector:
        found = oracle.state_for_direction(direction)
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
            # a point found this round that lies strictly beyond a pending
            # facet has cut it away: its query could confirm nothing, and
            # the next round queries the facets of the grown hull
            added: list[StateVector] = []
            for normal, offset in pending:
                if any(sum(map(mul, normal, p)) > offset for p in added):
                    continue
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
                    added.append(found)
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
        query_count=oracle.gb_runs,
        witnesses={v: witnesses[v] for v in polytope.vertices},
        hull_dim=hull_dim,
        facet_system=system,
    )


# ---------------------------------------------------------------------------
# barycenter membership


class SemistabilityReport(NamedTuple):
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
