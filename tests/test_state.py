"""State polytopes: grid-search oracle, witnesses, budgets, verdicts."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statepoly.lp as lp_module
import statepoly.state as state_module
from statepoly.groebner import hilbert_values, implicitize, initial_ideal, monomial_slice
from statepoly.orders import weight_order
from statepoly.polytope import VPolytope, facets
from statepoly.rings import Ideal, Polynomial
from statepoly.rosary import RosarySpec, rosary_assembled_ideal, rosary_end_conics
from statepoly.state import (
    BUDGET_ENV_VAR,
    BudgetExhausted,
    StateOracle,
    StatePolytopeResult,
    enumerate_state_polytope,
    read_budget_from_env,
    semistability_report,
)
from conftest import (
    brute_hull_member,
    brute_state,
    lp_relative_interior,
    rand_polynomial,
    state_of_slice,
)


def variables(arity):
    return tuple(Polynomial.variable(arity, j) for j in range(arity))


def grid_states(ideal: Ideal, m: int, span: int = 3) -> set[tuple[int, ...]]:
    """All states realized by integer weight vectors in a grid (plus grevlex
    refinement), computed through plain degree slices."""
    out = set()
    for w in itertools.product(range(-span, span + 1), repeat=ideal.arity):
        order = weight_order([x - min(w) for x in w])
        piece = monomial_slice(initial_ideal(ideal, order, m), m)
        out.add(state_of_slice(piece))
    return out


# ---------------------------------------------------------------------------
# basics


def test_monomial_ideal_has_single_state():
    x, y, z = variables(3)
    ideal = Ideal(3, (x * y, z**2))
    res = enumerate_state_polytope(ideal, 3)
    assert res.status == "complete"
    assert res.polytope.n_vertices == 1
    # the unique state is the exponent sum over the degree-3 in-monomials
    piece = monomial_slice(initial_ideal(ideal, weight_order([0, 0, 0]), 3), 3)
    assert res.polytope.vertices[0] == state_of_slice(piece)


def test_level_equals_m_times_q():
    x, y, z = variables(3)
    ideal = Ideal(3, (x**2 - y * z,))
    for m in (2, 3):
        res = enumerate_state_polytope(ideal, m)
        assert res.q == hilbert_values(ideal, m)[0]
        assert res.polytope.level == m * res.q


def test_vertices_match_weight_grid_oracle():
    x, y = variables(2)
    ideal = Ideal(2, (x**2 - y**2,))
    for m in (2, 3, 4):
        res = enumerate_state_polytope(ideal, m)
        realized = grid_states(ideal, m)
        # every grid state lies in the polytope; the vertex set is exactly the
        # set of extreme realized states
        assert set(res.polytope.vertices) <= realized
        for s in realized:
            assert brute_hull_member(res.polytope.vertices, s)


def test_vertices_match_weight_grid_oracle_arity3():
    x, y, z = variables(3)
    ideal = Ideal(3, (x * y - z**2, x**2 - y * z))
    res = enumerate_state_polytope(ideal, 2)
    realized = grid_states(ideal, 2, span=2)
    assert set(res.polytope.vertices) <= realized
    for s in realized:
        assert brute_hull_member(res.polytope.vertices, s)


def test_witnesses_strictly_maximize_and_replay():
    x, y, z = variables(3)
    ideal = Ideal(3, (x * y - z**2, x**2 - y * z))
    for m in (2, 3):
        res = enumerate_state_polytope(ideal, m)
        assert res.status == "complete"
        assert set(res.witnesses) == set(res.polytope.vertices)
        oracle = StateOracle(ideal, m)
        for vertex, weights in res.witnesses.items():
            assert all(type(w) is int for w in weights)
            values = {
                v: sum(Fraction(w) * x for w, x in zip(weights, v))
                for v in res.polytope.vertices
            }
            # weight functional uniquely maximized at the vertex ...
            assert all(values[v] < values[vertex] for v in values if v != vertex)
            # ... so replaying the witness query returns exactly this vertex
            assert oracle.state_for_direction(weights) == vertex


def test_oracle_memoizes_and_counts_queries():
    x, y = variables(2)
    oracle = StateOracle(Ideal(2, (x**2 - y**2,)), 2)
    first = oracle.state_for_direction((1, 0))
    again = oracle.state_for_direction((1, 0))
    assert first == again
    assert oracle.gb_runs == 1  # second call served from the cache
    scaled = oracle.state_for_direction((2, 0))
    assert scaled == first
    assert oracle.gb_runs == 1  # scaling-invariant directions share the cache


def test_argmax_state_helper():
    x, y = variables(2)
    ideal = Ideal(2, (x**2 - y**2,))
    # the oracle's answer to a direction is the state that maximizes it
    oracle = StateOracle(ideal, 2)
    s = oracle.state_for_direction((5, 0))
    t = oracle.state_for_direction((0, 5))
    assert s != t
    assert sum(s) == sum(t)


# ---------------------------------------------------------------------------
# budgets


def test_budget_exhaustion_raises_or_reports():
    x, y, z = variables(3)
    ideal = Ideal(3, (x * y - z**2, x**2 - y * z))
    with pytest.raises(BudgetExhausted):
        oracle = StateOracle(ideal, 3, budget=1)
        oracle.state_for_direction((1, 0, 0))
        oracle.state_for_direction((0, 1, 0))
    res = enumerate_state_polytope(ideal, 3, budget=3)
    assert res.status == "budget_exhausted"
    assert not res.complete
    assert res.query_count <= 3
    # partial vertices are genuine states
    full = enumerate_state_polytope(ideal, 3)
    assert set(res.polytope.vertices) <= set(full.polytope.vertices)
    # partial witnesses are the query directions: weak maximizers over the
    # full polytope whose grevlex refinement picks their vertex
    oracle = StateOracle(ideal, 3)
    for vertex, weights in res.witnesses.items():
        best = sum(w * x for w, x in zip(weights, vertex))
        assert all(sum(w * x for w, x in zip(weights, v)) <= best for v in full.polytope.vertices)
        assert oracle.state_for_direction(weights) == vertex


def test_read_budget_from_env(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert read_budget_from_env() is None
    monkeypatch.setenv(BUDGET_ENV_VAR, "120")
    assert read_budget_from_env() == 120
    monkeypatch.setenv(BUDGET_ENV_VAR, "not a number")
    with pytest.raises(ValueError):
        read_budget_from_env()


# ---------------------------------------------------------------------------
# determinism and the convenience wrapper


def test_enumeration_is_deterministic():
    x, y, z = variables(3)
    gens = (x * y - z**2, x**2 - y * z)
    a = enumerate_state_polytope(Ideal(3, gens), 3)
    b = enumerate_state_polytope(Ideal(3, tuple(reversed(gens))), 3)
    assert a.polytope.vertices == b.polytope.vertices
    assert a.q == b.q


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_principal_ideals_states_are_extreme(seed):
    rng = random.Random(seed)
    arity = rng.randint(2, 3)
    f = rand_polynomial(rng, arity, 2, max_terms=2, homogeneous=True)
    ideal = Ideal(arity, (f,))
    m = rng.randint(2, 3)
    res = enumerate_state_polytope(ideal, m)
    assert res.status == "complete"
    # every vertex is extreme: outside the hull of the others
    verts = list(res.polytope.vertices)
    for v in verts:
        others = [u for u in verts if u != v]
        if others:
            assert not brute_hull_member(others, v)
    # q is order-independent
    assert res.q == hilbert_values(ideal, m)[0]


# ---------------------------------------------------------------------------
# semistability verdicts


def test_semistability_report_for_balanced_ideal():
    # x^2 - y^2 in two variables: the state polytope of degree-2 is the
    # segment between (2,2)-ish states; its barycenter is the midpoint
    x, y = variables(2)
    res = enumerate_state_polytope(Ideal(2, (x**2 - y**2,)), 2)
    report = semistability_report(res)
    assert report.q == res.q
    expected = tuple(Fraction(2 * res.q, 2) for _ in range(2))
    assert report.barycenter == expected
    if report.member_of_hull:
        assert report.coefficients is not None
    else:
        assert report.separator is not None


def test_semistability_unstable_monomial_ideal():
    # a monomial ideal gives a point polytope away from the barycenter
    x, y = variables(2)
    res = enumerate_state_polytope(Ideal(2, (x * y**2,)), 3)
    report = semistability_report(res)
    assert not report.member_of_hull
    assert report.separator is not None
    # separator certifies: strictly larger on barycenter than on every vertex
    normal = report.separator
    bval = sum(Fraction(n) * b for n, b in zip(normal, report.barycenter))
    for v in res.polytope.vertices:
        assert bval > sum(Fraction(n) * x for n, x in zip(normal, v))


def _scalars(obj):
    """Every number inside a (nested) dataclass, tuple or dict."""
    if isinstance(obj, (bool, str)) or obj is None:
        return
    if isinstance(obj, (int, float, Fraction)):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _scalars(key)
            yield from _scalars(value)
    elif isinstance(obj, (tuple, list, set)):
        for item in obj:
            yield from _scalars(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            yield from _scalars(getattr(obj, name))


def test_state_data_is_int_and_reports_hold_no_float():
    x, y, z = variables(3)
    res = enumerate_state_polytope(Ideal(3, (x**3 + y**3 + z**3,)), 3)
    assert res.complete and res.polytope.n_vertices == 3
    assert all(type(c) is int for v in res.polytope.vertices for c in v)
    assert type(res.polytope.level) is int and type(res.q) is int
    assert all(type(w) is int for ws in res.witnesses.values() for w in ws)
    assert not any(isinstance(v, float) for v in _scalars(res))
    report = semistability_report(res)
    assert report.member_of_hull and report.relative_interior
    assert not any(isinstance(v, float) for v in _scalars(report))


def test_semistability_relative_interior_reads_facets(monkeypatch):
    # no LP: membership and the relative interior read one facet system; a
    # result without a facet system falls back to the polytope's facets
    solves = []
    real_solve = lp_module.solve_lp
    monkeypatch.setattr(lp_module, "solve_lp", lambda program: solves.append(1) or real_solve(program))
    segment = VPolytope(2, [(2, 0), (0, 2)])
    corner = VPolytope(2, [(2, 0), (1, 1)])  # the barycenter (1, 1) is a vertex
    for poly, interior in ((segment, True), (corner, False)):
        for system in (None, facets(poly)):
            result = StatePolytopeResult(
                polytope=poly, m=2, status="complete", q=1, query_count=0,
                witnesses={}, facet_system=system,
            )
            solves.clear()
            report = semistability_report(result)
            assert len(solves) == 0
            assert report.member_of_hull
            assert report.relative_interior is interior
            assert lp_relative_interior(poly.vertices, report.barycenter) is interior


# ---------------------------------------------------------------------------
# Groebner-cone reuse and the staircase state


class FreshSliceOracle(StateOracle):
    """The reference oracle: one Buchberger run and a scan of every
    degree-``m`` monomial per distinct normalized direction, no cone reuse."""

    def __init__(self, ideal, m, budget=None):
        super().__init__(ideal, m, budget)
        self.answers = {}

    def state_for_direction(self, weights):
        key = self.normalize_direction(weights)
        if key not in self.answers:
            if self.budget is not None and self.gb_runs >= self.budget:
                raise BudgetExhausted(self.budget)
            self.gb_runs += 1
            gens = initial_ideal(self.ideal, weight_order(key)).gens
            self.answers[key] = brute_state(gens, self.ideal.arity, self.m)
        return self.answers[key]


def rand_ideal(rng: random.Random, homogeneous: bool) -> Ideal:
    arity = 4
    gens = tuple(
        rand_polynomial(rng, arity, 2, max_terms=10, homogeneous=homogeneous)
        for _ in range(rng.randint(2, 3))
    )
    return Ideal(arity, gens)


@pytest.mark.parametrize("homogeneous", [True, False])
def test_cone_oracle_matches_fresh_slices_for_every_direction(homogeneous):
    rng = random.Random(20 + homogeneous)
    hits = 0
    for _ in range(12):
        ideal = rand_ideal(rng, homogeneous)
        m = rng.randint(2, 3)
        oracle = StateOracle(ideal, m)
        directions = [(0,) * ideal.arity] + [
            tuple(rng.randint(-3, 3) for _ in range(ideal.arity)) for _ in range(30)
        ]
        for w in directions:
            key = StateOracle.normalize_direction(w)
            fresh = state_of_slice(monomial_slice(initial_ideal(ideal, weight_order(key)), m))
            assert oracle.state_for_direction(w) == fresh, (ideal, m, w)
        hits += oracle.cone_hits
    assert hits > 0


def enumeration_fields(ideal: Ideal, m: int, oracle: StateOracle):
    try:
        result = enumerate_state_polytope(ideal, m, oracle=oracle)
    except ValueError as exc:
        # an inhomogeneous ideal's states need not be the vertices of one
        # polytope; both oracles must then fail alike
        return str(exc), oracle.gb_runs
    return (
        result.status,
        result.polytope.vertices,
        result.witnesses,
        result.facet_system,
        result.hull_dim,
        result.q,
        result.query_count,
    )


@pytest.mark.parametrize("homogeneous", [True, False])
def test_cone_oracle_enumerates_the_fresh_slice_polytope(homogeneous):
    rng = random.Random(40 + homogeneous)
    sizes = []
    for _ in range(10):
        ideal = rand_ideal(rng, homogeneous)
        m = rng.randint(2, 3)
        for budget in (None, rng.randint(1, 8)):
            fast = enumeration_fields(ideal, m, StateOracle(ideal, m, budget))
            slow = enumeration_fields(ideal, m, FreshSliceOracle(ideal, m, budget))
            assert fast == slow, (ideal, m, budget)
            if len(fast) > 2:
                sizes.append(len(fast[1]))
    assert max(sizes) >= 10


def test_cone_hits_and_buchberger_runs_add_up_to_gb_runs(monkeypatch):
    runs = []

    def counted(source, order, degree=None):
        runs.append(order)
        return initial_ideal(source, order, degree)

    monkeypatch.setattr(state_module, "initial_ideal", counted)
    x, y, z, u = variables(4)
    twisted_cubic = Ideal(4, (x * z - y**2, x * u - y * z, y * u - z**2))
    oracle = StateOracle(twisted_cubic, 3)
    result = enumerate_state_polytope(twisted_cubic, 3, oracle=oracle)
    assert result.complete
    assert oracle.cone_hits + len(runs) == oracle.gb_runs == result.query_count
    # pinned: 19 distinct directions, 11 of them in a cone already met
    assert (oracle.cone_hits, len(runs)) == (11, 8)
    # a replayed seed direction is a memo hit, neither a cone hit nor a run
    oracle.state_for_direction((2, 0, 0, 0))
    assert oracle.cone_hits + len(runs) == oracle.gb_runs == result.query_count


def sextic_ideal() -> Ideal:
    """The ideal of the curve (s^6 : s^4t^2 : s^2t^4 : st^5 : t^6)."""
    s, t = variables(2)
    return implicitize([s**a * t**b for a, b in ((6, 0), (4, 2), (2, 4), (1, 5), (0, 6))])


@pytest.mark.parametrize(
    "name, m, work",
    [("rosary", 2, (116, 45)), ("sextic", 2, (24, 12)), ("sextic", 4, (68, 28)),
     ("sextic", 6, (92, 40)), ("sextic", 12, (89, 37))],
)
def test_oracle_work_on_the_benchmark_ideals_is_pinned(name, m, work):
    # the pair queue decides the marked tails of every kept basis, and with
    # them which directions are cone hits: pin (gb_runs, cone_hits)
    if name == "rosary":
        spec = RosarySpec(2)
        ideal = rosary_assembled_ideal(spec, rosary_end_conics(spec))
    else:
        ideal = sextic_ideal()
    oracle = StateOracle(ideal, m)
    result = enumerate_state_polytope(ideal, m, oracle=oracle)
    assert result.complete
    assert (oracle.gb_runs, oracle.cone_hits) == work


def test_oracle_refuses_a_huge_degree_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Groebner work started before the degree was checked")

    monkeypatch.setattr(state_module, "initial_ideal", refuse)
    x, y, z = variables(3)
    with pytest.raises(ValueError, match="would enumerate"):
        StateOracle(Ideal(3, (x * y - z**2,)), 2000)
