"""Exact rational linear programming with verifiable certificates.

Dense two-phase simplex over ``Fraction`` with Bland's anti-cycling rule.
Every answer carries a certificate that plain arithmetic can re-check:

* optimal -- a feasible point plus dual multipliers with exact strong duality;
* infeasible -- row multipliers establishing a contradiction (Farkas);
* unbounded -- a feasible point plus an improving ray.

Certificate conventions (for the maximization form; a minimization problem is
audited on its negated objective):

* dual ``y``: ``y_i >= 0`` for ``<=`` rows, ``y_i <= 0`` for ``>=`` rows, free
  for ``==`` rows; for each variable ``s_j = sum_i y_i a_ij`` satisfies
  ``s_j == c_j`` (free variable) or ``s_j >= c_j`` (non-negative variable);
  and ``sum_i y_i b_i`` equals the optimal value.
* farkas ``y``: ``y_i <= 0`` for ``<=`` rows, ``y_i >= 0`` for ``>=`` rows,
  free for ``==`` rows; ``s_j == 0`` (free) or ``s_j <= 0`` (non-negative);
  and ``sum_i y_i b_i > 0``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .linalg import exact_vector, primitive, row_reduce

Vector = tuple[Fraction, ...]
Constraint = tuple[tuple[Fraction, ...], str, Fraction]

RELATIONS = ("<=", ">=", "==")


def _vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class LinearProgram:
    objective: Vector
    constraints: tuple[Constraint, ...]
    maximize: bool = True
    nonnegative: tuple[bool, ...] | None = None

    def __init__(
        self,
        objective: Sequence,
        constraints: Sequence[tuple[Sequence, str, object]],
        maximize: bool = True,
        nonnegative: Sequence[bool] | None = None,
    ):
        obj = _vec(objective)
        rows = []
        for coeffs, rel, rhs in constraints:
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            row = _vec(coeffs)
            if len(row) != len(obj):
                raise ValueError("constraint width does not match objective")
            rows.append((row, rel, Fraction(rhs)))
        flags = tuple(bool(f) for f in nonnegative) if nonnegative is not None else None
        if flags is not None and len(flags) != len(obj):
            raise ValueError("nonnegative flags must cover every variable")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "maximize", bool(maximize))
        object.__setattr__(self, "nonnegative", flags)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def flag(self, j: int) -> bool:
        return bool(self.nonnegative[j]) if self.nonnegative is not None else False


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Vector | None = None
    objective_value: Fraction | None = None
    dual: Vector | None = None
    farkas: Vector | None = None
    ray: Vector | None = None


class _Standard:
    """Equality standard form ``A x = b`` with ``x >= 0`` and ``b >= 0``."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n_vars
        self.columns: list[tuple[int, int]] = []  # (original var, sign)
        for j in range(n):
            self.columns.append((j, 1))
            if not lp.flag(j):
                self.columns.append((j, -1))
        self.slack_of_row: list[int | None] = []
        ncols = len(self.columns)
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        self.sigma: list[int] = []
        slack_cols = 0
        for coeffs, rel, b in lp.constraints:
            if rel != "==":
                slack_cols += 1
        total_cols = ncols + slack_cols
        slack_at = ncols
        for coeffs, rel, b in lp.constraints:
            row = [Fraction(0)] * total_cols
            for col, (j, sign) in enumerate(self.columns):
                if coeffs[j]:
                    row[col] = sign * coeffs[j]
            if rel == "<=":
                row[slack_at] = Fraction(1)
                self.slack_of_row.append(slack_at)
                slack_at += 1
            elif rel == ">=":
                row[slack_at] = Fraction(-1)
                self.slack_of_row.append(slack_at)
                slack_at += 1
            else:
                self.slack_of_row.append(None)
            sig = 1
            if b < 0:
                sig = -1
                row = [-v for v in row]
                b = -b
            self.sigma.append(sig)
            rows.append(row)
            rhs.append(Fraction(b))
        self.rows = rows
        self.rhs = rhs
        self.n_struct = total_cols  # structural + slack columns
        self.n_rows = len(rows)

    def fold_point(self, xstd: Sequence[Fraction]) -> Vector:
        out = [Fraction(0)] * self.lp.n_vars
        for col, (j, sign) in enumerate(self.columns):
            if xstd[col]:
                out[j] += sign * xstd[col]
        return tuple(out)


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tab[row][col]
    inv = 1 / piv
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r in range(len(tab)):
        if r == row:
            continue
        factor = tab[r][col]
        if factor:
            tab[r] = [v - factor * p for v, p in zip(tab[r], prow)]
    basis[row] = col


def _run_simplex(
    tab: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    enterable: list[bool],
) -> tuple[str, int | None]:
    """Maximize; Bland's rule.  Returns ("optimal", None) or ("unbounded", col)."""
    ncols = len(tab[0]) - 1
    while True:
        cb = [cost[k] for k in basis]
        entering = -1
        for j in range(ncols):
            if not enterable[j] or j in basis:
                continue
            zj = Fraction(0)
            for i in range(len(tab)):
                if cb[i]:
                    zj += cb[i] * tab[i][j]
            if cost[j] - zj > 0:
                entering = j
                break
        if entering < 0:
            return "optimal", None
        leave = -1
        best: Fraction | None = None
        for i in range(len(tab)):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", entering
        _pivot(tab, basis, leave, entering)


def solve_lp(lp: LinearProgram) -> LPResult:
    std = _Standard(lp)
    m, ns = std.n_rows, std.n_struct
    ncols = ns + m  # artificial columns trail; they double as a B^-1 readout
    tab = [list(std.rows[i]) + [Fraction(0)] * m + [std.rhs[i]] for i in range(m)]
    for i in range(m):
        tab[i][ns + i] = Fraction(1)
    basis = [ns + i for i in range(m)]
    sign = 1 if lp.maximize else -1

    if m == 0:
        # no constraints: either some variable can improve forever, or 0 is best
        obj = [sign * c for c in lp.objective]
        point = tuple(Fraction(0) for _ in range(lp.n_vars))
        for j, c in enumerate(obj):
            direction = None
            if c > 0:
                direction = Fraction(1)
            elif c < 0 and not lp.flag(j):
                direction = Fraction(-1)
            if direction is not None:
                ray = [Fraction(0)] * lp.n_vars
                ray[j] = direction
                return LPResult("unbounded", point=point, ray=tuple(ray))
        return LPResult("optimal", point=point, objective_value=Fraction(0), dual=())

    # phase 1: drive artificials to zero
    cost1 = [Fraction(0)] * ns + [Fraction(-1)] * m
    enterable = [True] * ns + [False] * m
    status, _ = _run_simplex(tab, basis, cost1, enterable)
    assert status == "optimal"
    value1 = sum(cost1[k] * tab[i][-1] for i, k in enumerate(basis))
    if value1 < 0:
        ystd = [
            sum(cost1[basis[r]] * tab[r][ns + i] for r in range(m))
            for i in range(m)
        ]
        farkas = tuple(-ystd[i] * std.sigma[i] for i in range(m))
        return LPResult("infeasible", farkas=farkas)

    # drive any zero-level artificials out of the basis so phase 2 cannot
    # raise them again; a row left with zeros on every real column is
    # redundant and its artificial stays pinned at zero
    for i in range(m):
        if basis[i] >= ns:
            for j in range(ns):
                if tab[i][j] != 0:
                    _pivot(tab, basis, i, j)
                    break

    # phase 2
    cost2 = [Fraction(0)] * ncols
    for col, (j, colsign) in enumerate(std.columns):
        cost2[col] = sign * colsign * lp.objective[j]
    status, ent = _run_simplex(tab, basis, cost2, enterable)
    xstd = [Fraction(0)] * ns
    for i, k in enumerate(basis):
        if k < ns:
            xstd[k] = tab[i][-1]
    point = std.fold_point(xstd)
    if status == "unbounded":
        assert ent is not None
        dstd = [Fraction(0)] * ns
        if ent < ns:
            dstd[ent] = Fraction(1)
        for i, k in enumerate(basis):
            if k < ns:
                dstd[k] = -tab[i][ent]
        ray = std.fold_point(dstd)
        return LPResult("unbounded", point=point, ray=ray)
    value = sum(cost2[k] * tab[i][-1] for i, k in enumerate(basis))
    ystd = [
        sum(cost2[basis[r]] * tab[r][ns + i] for r in range(m))
        for i in range(m)
    ]
    dual = tuple(ystd[i] * std.sigma[i] for i in range(m))
    return LPResult(
        "optimal",
        point=point,
        objective_value=sign * value,
        dual=dual,
    )


# ---------------------------------------------------------------------------
# certificate audit (plain arithmetic, independent of the solver internals)


def audit_result(lp: LinearProgram, res: LPResult) -> list[str]:
    """Exact re-check of the answer and its certificate; empty list == clean."""
    issues: list[str] = []
    sign = 1 if lp.maximize else -1
    cmax = [sign * c for c in lp.objective]

    def feasible(x: Sequence[Fraction]) -> list[str]:
        probs = []
        for idx, (coeffs, rel, rhs) in enumerate(lp.constraints):
            lhs = sum(a * v for a, v in zip(coeffs, x))
            ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
            if not ok:
                probs.append(f"constraint {idx} violated: {lhs} {rel} {rhs}")
        for j in range(lp.n_vars):
            if lp.flag(j) and x[j] < 0:
                probs.append(f"variable {j} negative: {x[j]}")
        return probs

    if res.status == "optimal":
        if res.point is None or res.dual is None or res.objective_value is None:
            return ["optimal result missing point/dual/value"]
        issues += feasible(res.point)
        actual = sum(c * v for c, v in zip(lp.objective, res.point))
        if actual != res.objective_value:
            issues.append(f"objective mismatch: {actual} != {res.objective_value}")
        y = res.dual
        if len(y) != len(lp.constraints):
            return issues + ["dual length mismatch"]
        for idx, (_, rel, _) in enumerate(lp.constraints):
            if rel == "<=" and y[idx] < 0:
                issues.append(f"dual sign: row {idx} (<=) has y={y[idx]} < 0")
            if rel == ">=" and y[idx] > 0:
                issues.append(f"dual sign: row {idx} (>=) has y={y[idx]} > 0")
        for j in range(lp.n_vars):
            sj = sum(y[idx] * lp.constraints[idx][0][j] for idx in range(len(y)))
            if lp.flag(j):
                if sj < cmax[j]:
                    issues.append(f"reduced cost: var {j} has {sj} < {cmax[j]}")
            elif sj != cmax[j]:
                issues.append(f"reduced cost: free var {j} has {sj} != {cmax[j]}")
        bound = sum(y[idx] * lp.constraints[idx][2] for idx in range(len(y)))
        if bound != sign * res.objective_value:
            issues.append(f"strong duality fails: {bound} != {sign * res.objective_value}")
    elif res.status == "infeasible":
        if res.farkas is None:
            return ["infeasible result missing farkas certificate"]
        y = res.farkas
        if len(y) != len(lp.constraints):
            return ["farkas length mismatch"]
        for idx, (_, rel, _) in enumerate(lp.constraints):
            if rel == "<=" and y[idx] > 0:
                issues.append(f"farkas sign: row {idx} (<=) has y={y[idx]} > 0")
            if rel == ">=" and y[idx] < 0:
                issues.append(f"farkas sign: row {idx} (>=) has y={y[idx]} < 0")
        for j in range(lp.n_vars):
            sj = sum(y[idx] * lp.constraints[idx][0][j] for idx in range(len(y)))
            if lp.flag(j):
                if sj > 0:
                    issues.append(f"farkas column: nonneg var {j} has {sj} > 0")
            elif sj != 0:
                issues.append(f"farkas column: free var {j} has {sj} != 0")
        gap = sum(y[idx] * lp.constraints[idx][2] for idx in range(len(y)))
        if not gap > 0:
            issues.append(f"farkas value not positive: {gap}")
    elif res.status == "unbounded":
        if res.point is None or res.ray is None:
            return ["unbounded result missing point/ray"]
        issues += feasible(res.point)
        d = res.ray
        for idx, (coeffs, rel, _) in enumerate(lp.constraints):
            change = sum(a * v for a, v in zip(coeffs, d))
            if rel == "<=" and change > 0:
                issues.append(f"ray leaves row {idx} (<=): {change}")
            if rel == ">=" and change < 0:
                issues.append(f"ray leaves row {idx} (>=): {change}")
            if rel == "==" and change != 0:
                issues.append(f"ray leaves row {idx} (==): {change}")
        for j in range(lp.n_vars):
            if lp.flag(j) and d[j] < 0:
                issues.append(f"ray negative on nonneg var {j}")
        gain = sum(c * v for c, v in zip(cmax, d))
        if not gain > 0:
            issues.append(f"ray does not improve objective: {gain}")
    else:
        issues.append(f"unknown status {res.status!r}")
    return issues


# ---------------------------------------------------------------------------
# derived geometry queries


@dataclass(frozen=True)
class HullMembership:
    inside: bool
    coefficients: Vector | None = None  # convex weights, aligned with points
    separator: tuple[int, ...] | None = None  # functional larger at target

    @property
    def certificate(self) -> Vector | tuple[int, ...]:
        return self.coefficients if self.inside else self.separator  # type: ignore[return-value]


def member_convex_hull(points: Sequence[Sequence], target: Sequence) -> HullMembership:
    """Exact convex-hull membership with a certificate either way."""
    pts = [_vec(p) for p in points]
    tgt = _vec(target)
    if not pts:
        raise ValueError("membership query needs at least one point")
    dim = len(tgt)
    for p in pts:
        if len(p) != dim:
            raise ValueError("point dimension mismatch")
    constraints: list[tuple[list[Fraction], str, Fraction]] = []
    for k in range(dim):
        constraints.append(([p[k] for p in pts], "==", tgt[k]))
    constraints.append(([Fraction(1)] * len(pts), "==", Fraction(1)))
    lp = LinearProgram(
        objective=[Fraction(0)] * len(pts),
        constraints=constraints,
        maximize=True,
        nonnegative=[True] * len(pts),
    )
    res = solve_lp(lp)
    if res.status == "optimal":
        return HullMembership(inside=True, coefficients=res.point)
    assert res.status == "infeasible" and res.farkas is not None
    h = res.farkas[:dim]
    separator = primitive(h)
    return HullMembership(inside=False, separator=separator)


@dataclass(frozen=True)
class AffineHull:
    dim: int
    base_point: tuple[int | Fraction, ...]
    spanning: tuple[int, ...]  # indices of the first dim + 1 affinely independent points
    pivots: tuple[int, ...]  # coordinates that parametrize the hull
    equations: tuple[tuple[tuple[int, ...], int | Fraction], ...]  # h.x == c on the hull

    def project(self, point: Sequence) -> tuple[int | Fraction, ...]:
        return tuple(point[j] - self.base_point[j] for j in self.pivots)

    def lift_normal(self, normal: Sequence[int]) -> tuple[int, ...]:
        out = [0] * len(self.base_point)
        for h, j in zip(normal, self.pivots):
            out[j] = h
        return tuple(out)

    def contains(self, point: Sequence) -> bool:
        return all(sum(map(mul, normal, point)) == offset for normal, offset in self.equations)


def affine_hull(points: Sequence[Sequence]) -> AffineHull:
    """Exact affine hull: the pivot coordinates and an affinely independent
    spanning subset of the points, plus the integer-normalized equations
    cutting the hull out.  Integer points give integer offsets."""
    pts = [exact_vector(p) for p in points]
    if not pts:
        raise ValueError("affine hull of an empty point set")
    base = pts[0]
    echelon = row_reduce((primitive([a - b for a, b in zip(p, base)]) for p in pts[1:]), len(base))
    equations: list[tuple[tuple[int, ...], int | Fraction]] = []
    for normal in echelon.null_vectors():
        if next(v for v in normal if v) < 0:
            normal = tuple(-v for v in normal)
        equations.append((normal, sum(map(mul, normal, base))))
    equations.sort()
    return AffineHull(
        dim=echelon.rank,
        base_point=base,
        spanning=(0,) + tuple(i + 1 for i in echelon.basis),
        pivots=echelon.pivots,
        equations=tuple(equations),
    )


@dataclass(frozen=True)
class InteriorMembership:
    inside: bool
    relative_interior: bool
    separator: tuple[int, ...] | None = None
    violated_equation: tuple[tuple[int, ...], int | Fraction] | None = None
    coefficients: Vector | None = None


def relative_interior_member(points: Sequence[Sequence], target: Sequence) -> InteriorMembership:
    """Membership in the hull and in its relative interior (no facet of the
    hull is tight at the target)."""
    from .polytope import facets  # deferred: polytope builds on this module

    hull = affine_hull(points)
    tgt = exact_vector(target)
    for normal, offset in hull.equations:
        if sum(map(mul, normal, tgt)) != offset:
            return InteriorMembership(
                inside=False,
                relative_interior=False,
                violated_equation=(normal, offset),
            )
    membership = member_convex_hull(points, target)
    if not membership.inside:
        return InteriorMembership(
            inside=False, relative_interior=False, separator=membership.separator
        )
    return InteriorMembership(
        inside=True,
        relative_interior=facets(points).relative_interior(tgt),
        coefficients=membership.coefficients,
    )
