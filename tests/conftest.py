"""Shared brute-force oracles and deterministic random generators.

Everything here is intentionally naive and independent of the library's own
algorithms so that tests compare two different routes to the same answer.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from statepoly.groebner import initial_ideal
from statepoly.lp import solve_lp
from statepoly.orders import lex_order, matrix_order
from statepoly.rings import Polynomial, degree_monomials


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
        return Polynomial.from_monomial(arity, rand_monomial(rng, arity, degree))
    return poly


def rand_point(rng: random.Random, dim: int, span: int = 6) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3])) for _ in range(dim)
    )


def all_degree_monomials(arity: int, degree: int):
    return degree_monomials(arity, degree)


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
