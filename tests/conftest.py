"""Shared brute-force oracles and deterministic random generators.

Everything here is intentionally naive and independent of the library's own
algorithms so that tests compare two different routes to the same answer.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from math import prod
from operator import itemgetter, mul
from typing import Iterable, Sequence

from statepoly.chains import (
    ChainInput,
    TauVector,
    _component_polytopes,
    component_block_ideal,
    tau_vector,
)
from statepoly.groebner import DegreeSlice, MonomialIdeal, implicitize, initial_ideal
from statepoly.linalg import exact_vector, primitive
from statepoly.lp import solve_lp
from statepoly.orders import lex_order, matrix_order, merge_chain_weights
from statepoly.polytope import (
    AffineHull,
    ExtremalityError,
    FacetSystem,
    HullMembership,
    IntVector,
    VPolytope,
    IncrementalHull,
    _rotate,
    affine_hull,
    facets,
    level_quotient,
    vertex_witnesses,
)
from statepoly.rings import (
    Ideal,
    Monomial,
    Polynomial,
    degree_monomials,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    primitive_terms,
)
from statepoly.parsing import ParseError, scalar_from_json
from statepoly.rosary import RosarySpec, rosary_assembled_ideal, rosary_end_conics
from statepoly.state import BudgetExhausted, StateOracle, StatePolytopeResult, StateVector


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, failing with the first difference in context: a full
    diff of texts with long lines takes minutes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    start = max(at - 40, 0)
    raise AssertionError(
        f"texts differ at character {at}: {got[start:at + 40]!r} != {want[start:at + 40]!r}"
    )


# ---------------------------------------------------------------------------
# exact linear algebra (tiny, standalone)


def gauss_solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve ``A x = b`` exactly for a unique solution.

    Returns the solution vector, or None when the system is inconsistent.
    Raises if a free column remains (callers only pass full-column-rank
    systems).
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, m):
        if aug[r][n] != 0:
            return None
    if len(pivots) != n:
        raise ValueError("system is underdetermined")
    solution = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        solution[col] = aug[r][n]
    return solution


def fraction_rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over ``Fraction``: the nonzero rows and their
    pivot columns."""
    mat = [[Fraction(v) for v in row] for row in rows]
    m, n = len(mat), len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((r for r in range(rank, m) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def fraction_null_space(rows: Sequence[Sequence], width: int) -> list[list[Fraction]]:
    """Kernel basis of ``rows`` over ``Fraction``: per free column, the vector
    with a 1 there and 0 at the other free columns."""
    reduced, pivots = fraction_rref(rows)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for row, piv in zip(reduced, pivots):
            x[piv] = -row[free]
        basis.append(x)
    return basis


@dataclass(frozen=True)
class ReferenceRowEchelon:
    """Reduced row echelon form of an integer matrix, scaled to integers.

    ``rows[i]`` is ``det`` times the reduced row whose pivot is in column
    ``pivots[i]`` (pivots increase); ``basis`` lists, in input order, the
    indices of the input rows that are independent of the rows before them.
    """

    width: int
    det: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    basis: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def null_vectors(self) -> list[tuple[int, ...]]:
        """A basis of the integer kernel ``{x : A x = 0}``: per free column
        ``f`` in increasing order, the primitive vector with ``x[f] > 0`` and
        zeros at the other free columns."""
        sign = 1 if self.det > 0 else -1
        out = []
        for free in range(self.width):
            if free in self.pivots:
                continue
            x = [0] * self.width
            x[free] = sign * self.det
            for row, piv in zip(self.rows, self.pivots):
                x[piv] = -sign * row[free]
            out.append(primitive(x))
        return out


def reference_row_reduce(rows: Iterable[Sequence[int]], width: int) -> ReferenceRowEchelon:
    """Bareiss's fraction-free Gauss-Jordan elimination, the slow path the
    forward reduction of ``linalg.row_reduce`` replaced: rows are kept as
    integer multiples ``d * r`` of the reduced row echelon rows ``r``, where
    ``d`` is, up to sign, the determinant of the pivot minor, and every
    earlier row is rewritten at each new pivot."""
    reduced: list[list[int]] = []
    pivots: list[int] = []
    basis: list[int] = []
    det = 1
    for index, row in enumerate(rows):
        if len(pivots) == width:
            break
        # det times what is left of row once the pivot columns are eliminated
        u = [det * v for v in row]
        for r, piv in zip(reduced, pivots):
            factor = row[piv]
            if factor:
                u = [a - factor * b for a, b in zip(u, r)]
        piv = next((j for j, v in enumerate(u) if v), None)
        if piv is None:
            continue
        # the new pivot minor has determinant u[piv]; Bareiss division by det is exact
        lead = u[piv]
        reduced = [[(lead * a - r[piv] * b) // det for a, b in zip(r, u)] for r in reduced]
        reduced.append(u)
        pivots.append(piv)
        basis.append(index)
        det = lead
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return ReferenceRowEchelon(
        width=width,
        det=det,
        rows=tuple(tuple(reduced[i]) for i in order),
        pivots=tuple(pivots[i] for i in order),
        basis=tuple(basis),
    )


def reference_greedy_slice(arity, d, columns, rows, order) -> DegreeSlice:
    """The greedy column basis of a union slice as it was read before the
    forward reduction: every degree-``d`` monomial sorted, dense
    ``Fraction`` rows made primitive, Bareiss elimination."""
    ascending = sorted(degree_monomials(arity, d), key=order.key)
    candidates = [mono for mono in ascending if columns.get(mono)]
    matrix = [primitive([columns[m].get(i, 0) for i in rows]) for m in candidates]
    standard = {candidates[i] for i in reference_row_reduce(matrix, len(rows)).basis}
    inside = tuple(sorted(m for m in ascending if m not in standard))
    return DegreeSlice(arity, d, inside, tuple(sorted(standard)))


def affinely_independent(points: Sequence[Sequence[Fraction]]) -> bool:
    if len(points) <= 1:
        return True
    base = points[0]
    rows = [[Fraction(p[j]) - Fraction(base[j]) for j in range(len(base))] for p in points[1:]]
    return len(fraction_rref(rows)[1]) == len(rows)


def brute_hull_member(points: Sequence[Sequence], target: Sequence) -> bool:
    """Brute-force convex-hull membership via affinely independent subsets.

    Any point of the hull is a convex combination supported on an affinely
    independent subset (of size at most dim+1), for which the barycentric
    coordinates are the unique solution of an exact linear system.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    tgt = tuple(Fraction(x) for x in target)
    dim = len(tgt)
    max_size = min(len(pts), dim + 1)
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(pts, size):
            if not affinely_independent(subset):
                continue
            rows = [[Fraction(1)] * size]
            rhs = [Fraction(1)]
            for j in range(dim):
                rows.append([p[j] for p in subset])
                rhs.append(tgt[j])
            lam = gauss_solve(rows, rhs)
            if lam is not None and all(v >= 0 for v in lam):
                return True
    return False


def brute_extreme_points(points: Sequence[Sequence]) -> set[tuple[Fraction, ...]]:
    """A point is extreme iff it is outside the hull of the other points."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    unique = sorted(set(pts))
    out = set()
    for p in unique:
        others = [q for q in unique if q != p]
        if not others or not brute_hull_member(others, p):
            out.add(p)
    return out


def lp_hull_member(points: Sequence[Sequence], target: Sequence) -> bool:
    """Hull membership by the reference simplex: the feasibility of
    ``lambda >= 0`` with ``sum_i lambda_i p_i = target`` and
    ``sum_i lambda_i = 1``."""
    augmented = [[p[j] for p in points] + [t] for j, t in enumerate(target)]
    augmented.append([1] * (len(points) + 1))
    return solve_lp(augmented).status == "feasible"


def lp_relative_interior(points: Sequence[Sequence], point: Sequence) -> bool:
    """Relative-interior test by LP: a point is in the relative interior of
    the hull of ``points`` exactly when it is a convex combination of all of
    them with every weight positive.  With ``c`` the centroid of the ``N``
    points, weights ``nu_i + 1`` do that exactly when ``nu >= 0`` solves
    ``sum_i nu_i (p_i - point) = N (point - c)``."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    target = tuple(Fraction(x) for x in point)
    augmented = [
        [p[j] - t for p in pts] + [sum(t - p[j] for p in pts)] for j, t in enumerate(target)
    ]
    return solve_lp(augmented).status == "feasible"


# ---------------------------------------------------------------------------
# random object generators (all driven by a caller-supplied random.Random)


def rand_monomial(rng: random.Random, arity: int, degree: int) -> tuple[int, ...]:
    mono = [0] * arity
    for _ in range(degree):
        mono[rng.randrange(arity)] += 1
    return tuple(mono)


def rand_polynomial(
    rng: random.Random,
    arity: int,
    max_degree: int,
    max_terms: int = 3,
    homogeneous: bool = False,
) -> Polynomial:
    degree = rng.randint(1, max_degree)
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        d = degree if homogeneous else rng.randint(0, degree)
        mono = rand_monomial(rng, arity, d)
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    poly = Polynomial(arity, terms)
    if poly.is_zero:
        return Polynomial(arity, {rand_monomial(rng, arity, degree): 1})
    return poly


def rand_point(rng: random.Random, dim: int, span: int = 6) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3])) for _ in range(dim)
    )


# ---------------------------------------------------------------------------
# integrality decided value by value: the routes that every point set took
# before integrality was decided once per set


def reference_exact_vector(values: Iterable) -> tuple:
    """Each value under the exact-scalar rule, one by one."""
    out = []
    for v in values:
        if type(v) is not int:
            f = v if isinstance(v, Fraction) else Fraction(v)
            v = f.numerator if f.denominator == 1 else f
        out.append(v)
    return tuple(out)


def reference_vpolytope_vertices(dim: int, vertices: Iterable[Sequence]) -> tuple:
    """``VPolytope``'s vertices by per-vertex normalisation, then dedup and
    sort, with its dimension check."""
    pts = sorted({reference_exact_vector(p) for p in vertices})
    for p in pts:
        if len(p) != dim:
            raise ValueError(f"vertex {p} does not have {dim} coordinates")
    return tuple(pts)


def reference_common_denominator(rows: Iterable[Iterable]) -> tuple[int, list[tuple[int, ...]]]:
    """``common_denominator`` with integrality tested by a generator."""
    rows = [tuple(r) for r in rows]
    if all(type(v) is int for r in rows for v in r):
        return 1, rows
    rational = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in r] for r in rows]
    scale = lcm(*(v.denominator for r in rational for v in r))
    return scale, [tuple(v.numerator * (scale // v.denominator) for v in r) for r in rational]


def reference_payload_vertices(payload: dict) -> tuple[int, list[list]]:
    """The dimension and vertex rows ``polytope_from_payload`` hands to
    ``VPolytope``, read coordinate by coordinate."""
    rows = payload.get("vertices") if isinstance(payload, dict) else None
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ParseError("polytope payload needs a 'vertices' list of coordinate lists")
    if not rows:
        raise ParseError("polytope payload has no vertices")
    vertices = [[scalar_from_json(x) for x in row] for row in rows]
    dim = payload.get("dim", len(vertices[0]))
    if type(dim) is not int:
        raise ParseError(f"polytope dimension must be an integer, got {dim!r}")
    return dim, vertices


def reference_int_point(point: Sequence) -> IntVector:
    """One hull point as ``int``s, tested coordinate by coordinate."""
    if all(type(x) is int for x in point):
        return tuple(point)
    if not all(isinstance(x, (int, Fraction)) and x.denominator == 1 for x in point):
        raise ValueError(f"hull points must have integer coordinates, got {tuple(point)}")
    return tuple(x.numerator for x in point)


def reference_hull_intake(points: Iterable[Sequence]) -> list[IntVector]:
    """The hull's initial points: each through :func:`reference_int_point`,
    then deduplicated in first-seen order."""
    return list(dict.fromkeys(reference_int_point(p) for p in points))


def rand_scalar_rows(rng: random.Random, kinds: Sequence[str], dim: int | None = None) -> list:
    """Seeded rows (lists or tuples) of one width, drawn from ``kinds``:
    ``int``, ``big`` (4,000 digits), ``fraction`` (integral), ``proper``
    (a proper fraction) and ``bool``; a few rows repeat an earlier one."""
    dim = rng.randint(1, 5) if dim is None else dim
    draw = {
        "int": lambda: rng.randint(-9, 9),
        "big": lambda: rng.choice((-1, 1)) * rng.randrange(10**3999, 10**4000),
        "fraction": lambda: Fraction(2 * rng.randint(-9, 9), 2),
        "proper": lambda: Fraction(rng.randint(-9, 9), rng.choice((2, 3))) + Fraction(1, 5),
        "bool": lambda: rng.random() < 0.5,
    }
    rows: list = []
    for _ in range(rng.randint(1, 8)):
        if rows and rng.random() < 0.2:
            row = list(rng.choice(rows))
        else:
            row = [draw[rng.choice(kinds)]() for _ in range(dim)]
        rows.append(row if rng.random() < 0.5 else tuple(row))
    return rows


def sextic_ideal() -> Ideal:
    """The ideal of the curve (s^6 : s^4t^2 : s^2t^4 : st^5 : t^6)."""
    s, t = (Polynomial.variable(2, j) for j in range(2))
    return implicitize([s**a * t**b for a, b in ((6, 0), (4, 2), (2, 4), (1, 5), (0, 6))])


def permute_ideal(ideal: Ideal, perm: Sequence[int]) -> Ideal:
    """The ideal with variable ``perm[i]`` renamed to variable ``i``."""
    return Ideal(
        ideal.arity,
        [
            Polynomial(ideal.arity, {tuple(mono[p] for p in perm): c for mono, c in g.terms.items()})
            for g in ideal.generators
        ],
    )


def benchmark_ideal(name: str) -> Ideal:
    """The genus-2 rosary or the sextic curve, the ideals of the benchmark's
    state workloads."""
    if name == "rosary":
        spec = RosarySpec(2)
        return rosary_assembled_ideal(spec, rosary_end_conics(spec))
    return sextic_ideal()


# ---------------------------------------------------------------------------
# degree-m scans of monomial ideals


def brute_standard_monomials(gens, arity: int, m: int) -> list[tuple[int, ...]]:
    """The degree-``m`` monomials no generator divides, by testing every one,
    in increasing lex order."""
    return sorted(
        mono
        for mono in itertools.product(range(m + 1), repeat=arity)
        if sum(mono) == m and not any(all(g <= e for g, e in zip(gen, mono)) for gen in gens)
    )


def column_sums(arity: int, monomials) -> tuple[int, ...]:
    """The sum of the exponent vectors of ``monomials``."""
    total = [0] * arity
    for mono in monomials:
        for j, e in enumerate(mono):
            total[j] += e
    return tuple(total)


def state_of_slice(piece) -> tuple[int, ...]:
    """Sum of the exponent vectors of a degree slice's initial-ideal
    monomials, the reference for ``statepoly.groebner.slice_state``."""
    return column_sums(piece.arity, piece.in_monomials)


def brute_state(gens, arity: int, m: int) -> tuple[int, ...]:
    """Exponent sum of the degree-``m`` monomials some generator divides."""
    standard = set(brute_standard_monomials(gens, arity, m))
    total = [0] * arity
    for mono in itertools.product(range(m + 1), repeat=arity):
        if sum(mono) == m and mono not in standard:
            total = [t + e for t, e in zip(total, mono)]
    return tuple(total)


def lex_refined_index(ideal, m: int, rho: Sequence) -> Fraction:
    """The index ``hm_index_direct`` reports, with the standard monomials
    taken under the ``rho``-weight order refined by lex instead of grevlex:
    ``-(rho-weight sum) + m * P(m) / arity * sum(rho)``."""
    order = matrix_order([rho, *lex_order(ideal.arity).rows])
    standard = brute_standard_monomials(initial_ideal(ideal, order, m).gens, ideal.arity, m)
    weight_sum = sum(Fraction(r) * e for mono in standard for r, e in zip(rho, mono))
    return -weight_sum + Fraction(m * len(standard), ideal.arity) * sum(map(Fraction, rho))


def hm_from_aggregates(
    sum_y: Fraction | int,
    sum_z: Fraction | int,
    p: int,
    n: int,
    m: int,
    sum_r: Fraction | int,
    r_junctions: Sequence = (),
) -> Fraction:
    """The index from precomputed aggregates:

    ``mu = -sum_y - sum_z + (m * p / (n + 1)) * sum_r + m * sum(r_junctions)``

    where ``sum_y``/``sum_z`` are standard-monomial weight sums of the two
    sides of a decomposition, ``p`` the ambient standard-monomial count, and
    ``r_junctions`` the weights of the junction coordinates.
    """
    value = (
        -Fraction(sum_y)
        - Fraction(sum_z)
        + Fraction(m * p, n + 1) * Fraction(sum_r)
        + Fraction(m) * sum((Fraction(r) for r in r_junctions), Fraction(0))
    )
    return value


# ---------------------------------------------------------------------------
# the staircase walk that listed every degree-m standard monomial, which the
# counting walk ``standard_sums`` replaced, kept verbatim as the reference for
# its differential test (only the names are changed)


def reference_standard_last_two(
    k: int,
    left: int,
    active: list[tuple[Monomial, tuple[int, ...]]],
    prefix: list[int],
    out: list[Monomial],
) -> None:
    """Append the standard completions ``prefix[:k] + (e, left - e)``, the
    last two exponents, in increasing ``e``.  An active ``g`` divides such
    a completion exactly for ``e`` in ``[g[k], left - g[k + 1]]`` (not
    empty, as ``g[k] + g[k + 1] <= left``), so the standard ``e`` are the
    gaps between these intervals."""
    j = k + 1
    e = 0
    for low, high in sorted([(g[k], left - g[j]) for g, _ in active]):
        for x in range(e, low):
            prefix[k] = x
            prefix[j] = left - x
            out.append(tuple(prefix))
        if high >= e:
            e = high + 1
    for x in range(e, left + 1):
        prefix[k] = x
        prefix[j] = left - x
        out.append(tuple(prefix))


def reference_standard_walk(
    k: int,
    left: int,
    active: list[tuple[Monomial, tuple[int, ...]]],
    prefix: list[int],
    out: list[Monomial],
) -> None:
    """Extend ``prefix[:k]`` by every exponent ``prefix[k]`` in increasing
    order, ``k`` before the last two coordinates.  ``active`` holds the
    generators (with their suffix degrees) that divide no prefix so far but
    may divide a completion: ``g[i] <= prefix[i]`` for ``i < k`` and ``g``
    has degree at most ``left`` in the coordinates from ``k`` on."""
    for e in range(left + 1):
        carried = []
        for g, rest in active:
            if g[k] <= e:
                if not rest[k + 1]:
                    # g divides the prefix, and so every completion of it
                    # and of every larger exponent here
                    return
                if rest[k + 1] <= left - e:
                    carried.append((g, rest))
        prefix[k] = e
        if e == left:
            # the one completion is zeros, and nothing carried divides it
            prefix[k + 1 :] = [0] * (len(prefix) - k - 1)
            out.append(tuple(prefix))
        elif k + 3 == len(prefix):
            reference_standard_last_two(k + 1, left - e, carried, prefix, out)
        else:
            reference_standard_walk(k + 1, left - e, carried, prefix, out)


def reference_standard_monomials(mi: MonomialIdeal, m: int) -> list[Monomial]:
    """The degree-``m`` monomials outside ``mi``, in increasing lex order.

    A depth-first walk over exponent prefixes, one coordinate at a time: it
    carries only the generators that can still divide a completion and
    prunes a prefix as soon as one of them divides it, so the work follows
    the staircase, not the ``count_monomials(arity, m)`` degree-``m``
    monomials.  The last two exponents ``(e, left - e)`` of a prefix are
    read in closed form: each carried generator rules out one interval of
    ``e``, and the standard monomials fill the gaps (with two variables
    that is the whole walk).  With one variable, ``(m,)`` is standard
    unless a generator has degree at most ``m``.
    """
    if m < 0:
        return []
    if mi.arity == 0:
        return [()] if m == 0 and not mi.gens else []
    active = []
    for g in mi.gens:
        if mono_degree(g) <= m:
            rest = [0] * (mi.arity + 1)
            for i in range(mi.arity - 1, -1, -1):
                rest[i] = rest[i + 1] + g[i]
            active.append((g, tuple(rest)))
    if mi.arity == 1:
        return [] if active else [(m,)]
    out: list[Monomial] = []
    walk = reference_standard_last_two if mi.arity == 2 else reference_standard_walk
    walk(0, m, active, [0] * mi.arity, out)
    return out


# ---------------------------------------------------------------------------
# a textbook Buchberger, the reference for the engine's pair criteria


def reference_reduced_basis(gens: Sequence[Polynomial], rows: Sequence[Sequence[int]]):
    """The reduced Groebner basis as ``(lead, {monomial: Fraction})`` pairs in
    increasing lead order, by Buchberger's algorithm with no criterion: every
    pair of every basis is reduced.  Monomials compare by their plain dot
    products with ``rows``, which must give a well-order."""

    def key(mono):
        return tuple(sum(r * e for r, e in zip(row, mono)) for row in rows)

    def lead(poly):
        return max(poly, key=key)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def shifted(poly, shift, factor):
        return {tuple(s + e for s, e in zip(shift, mono)): factor * c for mono, c in poly.items()}

    def subtract(left, right):
        out = dict(left)
        for mono, c in right.items():
            value = out.get(mono, 0) - c
            if value:
                out[mono] = value
            else:
                out.pop(mono, None)
        return out

    def reduce(poly, basis):
        poly, rest = dict(poly), {}
        while poly:
            mono = lead(poly)
            g = next((g for g in basis if divides(lead(g), mono)), None)
            if g is None:
                rest[mono] = poly.pop(mono)
                continue
            shift = tuple(a - b for a, b in zip(mono, lead(g)))
            poly = subtract(poly, shifted(g, shift, poly[mono] / g[lead(g)]))
        return rest

    basis = [{m: Fraction(c) for m, c in g.terms.items()} for g in gens if g.terms]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        lcm = tuple(max(a, b) for a, b in zip(lead(f), lead(g)))
        s = subtract(
            shifted(f, tuple(a - b for a, b in zip(lcm, lead(f))), 1 / f[lead(f)]),
            shifted(g, tuple(a - b for a, b in zip(lcm, lead(g))), 1 / g[lead(g)]),
        )
        r = reduce(s, basis)
        if r:
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    minimal = []
    for g in sorted(basis, key=lambda g: key(lead(g))):
        if not any(divides(lead(h), lead(g)) for h in minimal):
            minimal.append(g)
    out = []
    for index, g in enumerate(minimal):
        others = minimal[:index] + minimal[index + 1 :]
        tail = reduce({m: c for m, c in g.items() if m != lead(g)}, others)
        head = lead(g)
        monic = {m: c / g[head] for m, c in tail.items()}
        monic[head] = Fraction(1)
        out.append((head, monic))
    return out


# ---------------------------------------------------------------------------
# the heap-based engine the lead-first kernel replaced, kept verbatim as the
# reference for its differential test (only the names are changed)


def reference_lead(p, key):
    return max(p, key=key)


def reference_orient(p, key):
    """Make the leading coefficient positive."""
    if p and p[reference_lead(p, key)] < 0:
        return {m: -c for m, c in p.items()}
    return p


def reference_normal_form_int(p, leads, polys, key):
    """Full normal form by pseudo-division.

    Returns ``(r, s)`` with ``s > 0`` such that ``s*p - r`` lies in the ideal
    generated by ``polys`` and no monomial of ``r`` is divisible by any lead.
    """
    work = dict(p)
    remainder = {}
    scale = 1
    heap = [(tuple(-v for v in key(m)), m) for m in work]
    heapq.heapify(heap)
    nbasis = len(leads)
    while heap:
        _, mono = heapq.heappop(heap)
        coeff = work.get(mono, 0)
        if coeff == 0:
            continue
        hit = -1
        for idx in range(nbasis):
            if mono_divides(leads[idx], mono):
                hit = idx
                break
        if hit < 0:
            remainder[mono] = remainder.get(mono, 0) + coeff
            del work[mono]
            continue
        g = polys[hit]
        glead = leads[hit]
        gcoeff = g[glead]
        t = gcd(coeff, gcoeff)
        mult_work = gcoeff // t
        mult_g = coeff // t
        if mult_work != 1:
            for m in work:
                work[m] *= mult_work
            for m in remainder:
                remainder[m] *= mult_work
            scale *= mult_work
            coeff *= mult_work
        shift = mono_div(mono, glead)
        for gm, gc in g.items():
            target = mono_mul(shift, gm)
            cur = work.get(target, 0) - mult_g * gc
            if cur:
                if target not in work:
                    heapq.heappush(heap, (tuple(-v for v in key(target)), target))
                work[target] = cur
            elif target in work:
                del work[target]
    return remainder, scale


def reference_spoly(fi, fj, li, lj, key):
    lcm = mono_lcm(li, lj)
    ci, cj = fi[li], fj[lj]
    t = gcd(ci, cj)
    mi, mj = cj // t, ci // t
    si, sj = mono_div(lcm, li), mono_div(lcm, lj)
    out = {}
    for m, c in fi.items():
        target = mono_mul(si, m)
        out[target] = out.get(target, 0) + mi * c
    for m, c in fj.items():
        target = mono_mul(sj, m)
        cur = out.get(target, 0) - mj * c
        if cur:
            out[target] = cur
        elif target in out:
            del out[target]
    return {m: c for m, c in out.items() if c}


def reference_buchberger_int(gens, order, degree=None):
    """Minimal (lead-interreduced) Groebner basis of primitive integer
    generators, with primitive integer coefficients and positive leading
    coefficients.  The generators are read, never changed.

    When ``degree`` is given and every generator is homogeneous, the run
    stops at degree ``degree``: the result is the ``degree``-truncated
    basis, which agrees with the full one in every degree up to it.
    Inhomogeneous generators ignore ``degree`` and run in full, and they
    need an order that passes :meth:`MonomialOrder.validate` (``ValueError``
    before any reduction otherwise).
    """
    key = order.key
    if not all(len(set(map(mono_degree, g))) == 1 for g in gens):
        problems = order.validate()
        if problems:
            # reductions of mixed degrees need a well-order to terminate
            raise ValueError(
                f"inhomogeneous generators need a well-order: {'; '.join(problems)}"
            )
        degree = None
    elif degree is not None:
        gens = [g for g in gens if mono_degree(next(iter(g))) <= degree]
    basis = []
    leads = []
    for lead, g in sorted(((reference_lead(g, key), g) for g in gens), key=lambda t: key(t[0])):
        basis.append(g if g[lead] > 0 else {m: -c for m, c in g.items()})
        leads.append(lead)

    pending = set()
    heap = []

    def push_pair(i, j):
        li, lj = leads[i], leads[j]
        if degree is not None and sum(map(max, li, lj)) > degree:
            return
        if mono_coprime(li, lj):
            return
        lcm = mono_lcm(li, lj)
        pending.add((i, j))
        heapq.heappush(heap, ((mono_degree(lcm),) + key(lcm), i, j))

    n = len(basis)
    for i in range(n):
        for j in range(i + 1, n):
            push_pair(i, j)

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm = mono_lcm(li, lj)
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(leads[k], lcm):
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (a, b) not in pending and (c, d) not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = reference_spoly(basis[i], basis[j], li, lj, key)
        if not s:
            continue
        r, _ = reference_normal_form_int(s, leads, basis, key)
        r = reference_orient(primitive_terms(r), key)
        if not r:
            continue
        basis.append(r)
        leads.append(reference_lead(r, key))
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)
    # drop elements whose lead is divisible by another lead (keep first of
    # equal leads).  A divisor has the lower degree, so scanning by degree
    # meets it first even when the order ranks it above its multiple (a
    # weight with negative entries); the result is in increasing lead order.
    idx = sorted(range(len(basis)), key=lambda i: (mono_degree(leads[i]), key(leads[i])))
    kept = []
    kept_leads = []
    for i in idx:
        if any(mono_divides(l, leads[i]) for l in kept_leads):
            continue
        kept.append(i)
        kept_leads.append(leads[i])
    return [basis[i] for i in sorted(kept, key=lambda i: (key(leads[i]), i))]


# ---------------------------------------------------------------------------
# the simplicial hull the facet hull replaced, kept verbatim as the reference
# for its differential test (only the name is changed)


class ReferenceIncrementalHull:
    """Exact convex hull of integer points that accepts points one at a time.

    The affine hull of the initial point set is fixed at construction; every
    later point must lie in it.  The boundary is kept as a set of simplicial
    pieces in the projected coordinates of the affine hull, each with an
    integer outward normal and offset; coplanar pieces merge when facets are
    read out.  Rational point sets go through :func:`facets`, which scales
    them to integers first.

    ``ridges`` maps every ridge (a piece's vertex indices less one) to the
    two pieces that share it: the pieces triangulate a closed boundary, so a
    ridge with any other number of owners means the structure is broken.
    :meth:`add_point` scans the pieces, newest first, only up to the first
    one the point sees, then walks the ridge map across shared ridges to the rest of the
    visible region, which is connected; a ridge whose other owner is not
    visible lies on the horizon.  Each horizon ridge gets one new piece
    through the point, found by rotating the invisible piece's hyperplane
    about the ridge until it reaches the point (the rotation step of gift
    wrapping), so no linear system is solved after the initial simplex.
    """

    def __init__(self, points: Sequence[Sequence]):
        pts = reference_hull_intake(points)
        if not pts:
            raise ValueError("a hull needs at least one point")
        self.ambient_dim = len(pts[0])
        self.hull: AffineHull = affine_hull(pts)
        self.k = self.hull.dim
        self.points: list[IntVector] = []
        self.proj: list[IntVector] = []
        self._index: dict[IntVector, int] = {}
        self.pieces: dict[tuple[int, ...], tuple[IntVector, int]] = {}
        self.ridges: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        if self.k == 0:
            self._register(pts[0])
            return
        for i in self.hull.spanning:
            self._register(pts[i])
        # (k + 1) times the centroid of the initial simplex, an interior point
        ref = tuple(map(sum, zip(*self.proj)))
        for piece in combinations(range(self.k + 1), self.k):
            # k affinely independent points of Z^k span one hyperplane
            ((normal, offset),) = affine_hull([self.proj[i] for i in piece]).equations
            side = sum(map(mul, normal, ref))
            scaled = (self.k + 1) * offset
            if side > scaled:
                normal = tuple(-h for h in normal)
                offset = -offset
            elif side == scaled:
                raise ValueError("interior reference point lies on a facet")  # unreachable
            self._add_piece(piece, normal, offset)
        for p in pts:
            self.add_point(p)

    def _register(self, ambient: IntVector) -> int:
        proj = self.hull.project(ambient)
        idx = len(self.points)
        self.points.append(ambient)
        self.proj.append(proj)
        self._index[proj] = idx
        return idx

    def _add_piece(self, piece: tuple[int, ...], normal: IntVector, offset: int) -> None:
        self.pieces[piece] = (normal, offset)
        for ridge in combinations(piece, self.k - 1):
            self.ridges.setdefault(ridge, []).append(piece)

    def _remove_piece(self, piece: tuple[int, ...]) -> None:
        del self.pieces[piece]
        for ridge in combinations(piece, self.k - 1):
            owners = self.ridges[ridge]
            owners.remove(piece)
            if not owners:
                del self.ridges[ridge]

    def add_point(self, point: Sequence) -> bool:
        """Insert an integer point; returns True when it enlarges the hull."""
        ambient = reference_int_point(point)
        if len(ambient) != self.ambient_dim:
            raise ValueError("point has the wrong dimension")
        if not self.hull.contains(ambient):
            raise ValueError(f"point {ambient} is outside the fixed affine hull")
        proj = self.hull.project(ambient)
        if proj in self._index:
            return False
        if self.k == 0:
            return False  # equal projections in a 0-dimensional hull: duplicate
        # newest pieces first: the enumeration's next point tends to lie beyond
        # the region the last insertions built (on the rosary state at m=3 this
        # tests 48,106 pieces instead of 275,313 for 224 insertions)
        for start, (normal, offset) in reversed(self.pieces.items()):
            excess = sum(map(mul, normal, proj)) - offset
            if excess > 0:
                break
        else:
            self._register(ambient)
            return False
        # excess normal . p - offset of every piece met: > 0 exactly when visible
        excesses = {start: excess}
        stack = [start]
        rotated: list[tuple[tuple[int, ...], IntVector, int]] = []
        while stack:
            piece = stack.pop()
            for ridge in combinations(piece, self.k - 1):
                owners = self.ridges[ridge]
                if len(owners) != 2:
                    raise RuntimeError("boundary triangulation invariant broken")  # unreachable
                other = owners[1] if owners[0] == piece else owners[0]
                excess = excesses.get(other)
                if excess is None:
                    normal, offset = self.pieces[other]
                    excess = excesses[other] = sum(map(mul, normal, proj)) - offset
                    if excess > 0:
                        stack.append(other)
                if excess <= 0:  # a horizon ridge
                    rotated.append((ridge, *_rotate(
                        self.pieces[piece], excesses[piece], self.pieces[other], excess
                    )))
        for piece, excess in excesses.items():
            if excess > 0:
                self._remove_piece(piece)
        new_index = self._register(ambient)
        for ridge, normal, offset in rotated:
            self._add_piece(ridge + (new_index,), normal, offset)
        return True

    def facet_system(self) -> FacetSystem:
        base = self.hull.base_point
        lifted = []
        for normal, offset in set(self.pieces.values()):
            # lift_normal keeps the entries, so the lifted normal stays primitive
            amb = self.hull.lift_normal(normal)
            lifted.append((amb, offset + sum(map(mul, amb, base))))
        return FacetSystem(
            dim=self.ambient_dim,
            hull_dim=self.k,
            equations=self.hull.equations,
            facets=tuple(sorted(lifted)),
        )


# ---------------------------------------------------------------------------
# the per-combination chain assembly and the Fraction ray shooting that the
# prefix fold and the integer ray shooting replaced, kept verbatim as the
# references of their differential tests (only the names are changed)


def reference_decomposed_state_polytope(
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
    blocks: list[list[tuple[tuple, tuple[int, ...]]]] = []
    for poly, system in polytopes:
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


def reference_member_convex_hull(
    system: FacetSystem, vertices: Sequence[Sequence], target: Sequence
) -> HullMembership:
    """Membership of ``target`` in the hull of ``vertices``, read off
    ``system``, the facet system of that hull, with a certificate either way.

    The separator is the first violated equation normal (signed so that the
    target's side is larger) or facet normal.  Inside weights follow the
    order of ``vertices`` and at most ``hull_dim + 1`` are nonzero: a ray
    from the face's first point through the target exits on a facet, which
    splits the target between the two and leaves a smaller face to recurse
    in (Caratheodory).
    """
    p = exact_vector(target)
    if len(p) != system.dim:
        raise ValueError("point dimension mismatch")
    for normal, offset in system.equations:
        value = sum(map(mul, normal, p))
        if value != offset:
            sign = 1 if value > offset else -1
            return HullMembership(inside=False, separator=tuple(sign * h for h in normal))
    for normal, offset in system.facets:
        if sum(map(mul, normal, p)) > offset:
            return HullMembership(inside=False, separator=normal)
    pts = [exact_vector(v) for v in vertices]
    weights = [Fraction(0)] * len(pts)
    face = list(range(len(pts)))
    share = Fraction(1)
    while True:
        v = pts[face[0]]
        d = tuple(a - b for a, b in zip(p, v))
        if not any(d):
            weights[face[0]] += share
            return HullMembership(inside=True, coefficients=tuple(weights))
        # the ray v + s*d leaves the polytope at s = t >= 1: a facet tight at
        # v with normal . d > 0 would cut off p
        t, normal, offset = min(
            (
                (Fraction(offset - sum(map(mul, normal, v)), slope), normal, offset)
                for normal, offset in system.facets
                if (slope := sum(map(mul, normal, d))) > 0
            ),
            key=itemgetter(0),
        )
        weights[face[0]] += share * (1 - 1 / t)
        share /= t
        p = tuple(a + t * b for a, b in zip(v, d))
        face = [i for i in face if sum(map(mul, normal, pts[i])) == offset]


# ---------------------------------------------------------------------------
# the enumeration that queried every pending facet of a round, and the chain
# components enumerated once per block, which the cut-facet skip and the
# reuse of equal components replaced, kept verbatim as the references of
# their differential tests (only the names are changed)


def reference_enumerate_state_polytope(
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
        query_count=oracle.gb_runs,
        witnesses={v: witnesses[v] for v in polytope.vertices},
        hull_dim=hull_dim,
        facet_system=system,
    )


def reference_component_polytopes(
    chain: ChainInput, m: int, budget: int | None
) -> tuple[TauVector, int, int, list[tuple[VPolytope, FacetSystem]]]:
    """What both chain routes read: ``tau``, the ambient q-value, the number
    of basis runs spent, and each component's block polytope with the facet
    system of its hull.

    Ideal components are enumerated in the block ring; polytope components
    are restricted to block coordinates when given at ambient arity.  A
    block's q-value is its common coordinate sum divided by ``m``.
    """
    spec = chain.spec
    tau = tau_vector(spec, m)  # refuses m < 1
    q_total = tau.mixed_monomial_count
    queries = 0
    blocks: list[tuple[VPolytope, FacetSystem]] = []
    for i, comp in enumerate(chain.components):
        if isinstance(comp, Ideal):
            result = reference_enumerate_state_polytope(component_block_ideal(chain, i), m, budget)
            if not result.complete:
                raise BudgetExhausted(budget if budget is not None else 0)
            queries += result.query_count
            poly, system = result.polytope, result.facet_system
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
