"""Buchberger's algorithm over the rationals with weight-matrix orders.

The public API works with ``Polynomial`` (Fraction coefficients); internally
the engine keeps coefficient-primitive integer polynomials and pseudo-reduces,
which avoids Fraction overhead on the hot path while staying exact.

Pair selection uses the normal strategy (smallest lcm degree, then smallest
lcm under the active order) and both classical pair-skipping criteria: the
coprimality criterion and the chain criterion.  For homogeneous generators
the pairs therefore come in order of degree, and every basis element of
degree ``d`` exists once the pairs of degree ``d`` are done.  A caller that
reads one degree ``m`` passes it as ``degree``: the run drops the generators
above ``m`` and stops at the first pair above ``m``, which gives the
``m``-truncated basis (Bayer–Morrison 1988; Sturmfels, *Gröbner Bases and
Convex Polytopes*, ch. 2).  Its leads generate the initial ideal in every
degree up to ``m``, and it gives the full basis's normal forms there.
Inhomogeneous generators ignore ``degree`` and run in full.
"""
from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .linalg import primitive, row_reduce
from .orders import MonomialOrder, elimination_order, grevlex_order
from .rings import (
    ENUMERATION_LIMIT,
    Ideal,
    Monomial,
    Polynomial,
    count_monomials,
    degree_monomials,
    embed_monomial,
    embed_polynomial,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    project_polynomial,
)

IntPoly = dict[Monomial, int]


# ---------------------------------------------------------------------------
# integer-polynomial helpers


def _primitive(p: IntPoly) -> IntPoly:
    return dict(zip(p, primitive(list(p.values()))))


def _lead(p: IntPoly, key) -> Monomial:
    return max(p, key=key)


def _orient(p: IntPoly, key) -> IntPoly:
    """Make the leading coefficient positive."""
    if p and p[_lead(p, key)] < 0:
        return {m: -c for m, c in p.items()}
    return p


def _normal_form_int(p: IntPoly, leads: list[Monomial], polys: list[IntPoly], key) -> tuple[IntPoly, int]:
    """Full normal form by pseudo-division.

    Returns ``(r, s)`` with ``s > 0`` such that ``s*p - r`` lies in the ideal
    generated by ``polys`` and no monomial of ``r`` is divisible by any lead.
    """
    work = dict(p)
    remainder: IntPoly = {}
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


def _spoly(fi: IntPoly, fj: IntPoly, li: Monomial, lj: Monomial, key) -> IntPoly:
    lcm = mono_lcm(li, lj)
    ci, cj = fi[li], fj[lj]
    t = gcd(ci, cj)
    mi, mj = cj // t, ci // t
    si, sj = mono_div(lcm, li), mono_div(lcm, lj)
    out: IntPoly = {}
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


def _buchberger_int(
    gens: list[IntPoly], order: MonomialOrder, degree: int | None = None
) -> list[IntPoly]:
    """Minimal (lead-interreduced) Groebner basis of primitive integer
    generators, with primitive integer coefficients and positive leading
    coefficients.

    When ``degree`` is given and every generator is homogeneous, the run
    stops at degree ``degree``: the result is the ``degree``-truncated
    basis, which agrees with the full one in every degree up to it.
    Inhomogeneous generators ignore ``degree`` and run in full, and they
    need an order that passes :meth:`MonomialOrder.validate` (``ValueError``
    before any reduction otherwise).
    """
    key = order.key
    gens = [g for g in gens if g]
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
    basis: list[IntPoly] = []
    leads: list[Monomial] = []
    for g in sorted(gens, key=lambda g: key(_lead(g, key))):
        basis.append(_orient(g, key))
        leads.append(_lead(basis[-1], key))

    pending: set[tuple[int, int]] = set()
    heap: list[tuple[tuple[int, ...], int, int]] = []

    def push_pair(i: int, j: int) -> None:
        if i > j:
            i, j = j, i
        lcm = mono_lcm(leads[i], leads[j])
        pending.add((i, j))
        heapq.heappush(heap, ((mono_degree(lcm),) + key(lcm), i, j))

    n = len(basis)
    for i in range(n):
        for j in range(i + 1, n):
            push_pair(i, j)

    while heap:
        rank, i, j = heapq.heappop(heap)
        if degree is not None and rank[0] > degree:
            # every pair left has an lcm of at least this degree
            break
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        if mono_coprime(li, lj):
            continue
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
        s = _spoly(basis[i], basis[j], li, lj, key)
        if not s:
            continue
        r, _ = _normal_form_int(s, leads, basis, key)
        r = _orient(_primitive(r), key)
        if not r:
            continue
        basis.append(r)
        leads.append(_lead(r, key))
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)
    # drop elements whose lead is divisible by another lead (keep first of
    # equal leads).  A divisor has the lower degree, so scanning by degree
    # meets it first even when the order ranks it above its multiple (a
    # weight with negative entries); the result is in increasing lead order.
    idx = sorted(range(len(basis)), key=lambda i: (mono_degree(leads[i]), key(leads[i])))
    kept: list[int] = []
    kept_leads: list[Monomial] = []
    for i in idx:
        if any(mono_divides(l, leads[i]) for l in kept_leads):
            continue
        kept.append(i)
        kept_leads.append(leads[i])
    return [basis[i] for i in sorted(kept, key=lambda i: (key(leads[i]), i))]


def _minimal_leads(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    monos = sorted(set(gens), key=lambda m: (mono_degree(m), m))
    kept: list[Monomial] = []
    for m in monos:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


# ---------------------------------------------------------------------------
# public objects


@dataclass(frozen=True)
class ReducedGB:
    """The unique reduced Groebner basis: monic elements, fully tail-reduced,
    sorted by increasing leading monomial."""

    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    leads: tuple[Monomial, ...]

    @property
    def arity(self) -> int:
        return self.order.arity

    def normal_form(self, poly: Polynomial) -> Polynomial:
        if poly.arity != self.arity:
            raise ValueError("arity mismatch in normal form")
        if poly.is_zero or not self.elements:
            return poly
        ints = [_primitive(g.terms) for g in self.elements]
        leads = list(self.leads)
        p = _primitive(poly.terms)
        if not p:
            return Polynomial.zero(self.arity)
        # recover the exact normal form of poly itself: scale back by the
        # factor poly / p and the pseudo-division multiplier
        mono = next(iter(p))
        ratio = Fraction(poly.terms[mono], p[mono])
        r, s = _normal_form_int(p, leads, ints, self.order.key)
        factor = ratio / s
        return Polynomial(self.arity, {m: Fraction(c) * factor for m, c in r.items()})

    def contains(self, poly: Polynomial) -> bool:
        return self.normal_form(poly).is_zero


Marked = tuple[tuple[Monomial, tuple[Monomial, ...]], ...]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generators.

    An initial ideal also keeps ``marked``, the supports of the Groebner
    basis it was read from: each element's lead monomial and its tail
    monomials.  Equality and hashing ignore them.
    """

    arity: int
    gens: tuple[Monomial, ...]
    marked: Marked = field(default=(), compare=False, repr=False)

    def __init__(self, arity: int, gens: Iterable[Monomial], marked: Marked = ()):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "gens", _minimal_leads(tuple(g) for g in gens))
        object.__setattr__(self, "marked", marked)

    def contains(self, mono: Monomial) -> bool:
        return any(mono_divides(g, mono) for g in self.gens)

    def __or__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return MonomialIdeal(self.arity, self.gens + other.gens)


@dataclass(frozen=True)
class DegreeSlice:
    """The degree-``m`` monomials of an initial ideal and its complement."""

    arity: int
    m: int
    in_monomials: tuple[Monomial, ...]
    standard_monomials: tuple[Monomial, ...]


def buchberger(ideal: Ideal, order: MonomialOrder, degree: int | None = None) -> ReducedGB:
    """The reduced Groebner basis of the ideal under the given order.

    With ``degree`` and homogeneous generators, the reduced
    ``degree``-truncated basis: the elements of the full reduced basis of
    degree at most ``degree``, so it agrees with the full one (normal forms
    included) in every degree up to ``degree``.  Inhomogeneous generators
    ignore ``degree``.
    """
    arity = order.arity
    if ideal.arity != arity:
        raise ValueError("generator arity does not match order arity")
    key = order.key
    basis = _buchberger_int([_primitive(g.terms) for g in ideal.generators], order, degree)
    leads = [_lead(g, key) for g in basis]
    # tail-reduce each element against the others, then make monic
    reduced: list[Polynomial] = []
    for i, g in enumerate(basis):
        other_leads = leads[:i] + leads[i + 1 :]
        other_polys = basis[:i] + basis[i + 1 :]
        r, _ = _normal_form_int(dict(g), other_leads, other_polys, key)
        r = _orient(_primitive(r), key)
        lead_coeff = r[_lead(r, key)]
        reduced.append(Polynomial(arity, {m: Fraction(c, lead_coeff) for m, c in r.items()}))
    pairs = sorted(zip(leads, reduced), key=lambda t: key(t[0]))
    return ReducedGB(
        order=order,
        elements=tuple(p for _, p in pairs),
        leads=tuple(l for l, _ in pairs),
    )


def initial_ideal(ideal: Ideal, order: MonomialOrder, degree: int | None = None) -> MonomialIdeal:
    """The initial ideal, marked with the supports of the Groebner basis it
    was read from.

    With ``degree`` and homogeneous generators, the basis is the
    ``degree``-truncated one: the result agrees with the full initial ideal
    in every degree up to ``degree`` (its generators are the full one's of
    degree at most ``degree``).  Inhomogeneous generators ignore ``degree``.
    """
    basis = _buchberger_int([_primitive(g.terms) for g in ideal.generators], order, degree)
    key = order.key
    marked = []
    for g in basis:
        lead = _lead(g, key)
        marked.append((lead, tuple(sorted(m for m in g if m != lead))))
    return MonomialIdeal(order.arity, (lead for lead, _ in marked), tuple(marked))


def _standard_walk(
    k: int,
    left: int,
    active: list[tuple[Monomial, tuple[int, ...]]],
    prefix: list[int],
    out: list[Monomial],
) -> None:
    """Extend ``prefix[:k]`` by every exponent ``prefix[k]`` in increasing
    order.  ``active`` holds the generators (with their suffix degrees)
    that divide no prefix so far but may divide a completion: ``g[i] <=
    prefix[i]`` for ``i < k`` and ``g`` has degree at most ``left`` in the
    coordinates from ``k`` on."""
    if k == len(prefix) - 1:
        # every active generator fits in the last exponent, ``left``
        if not active:
            prefix[k] = left
            out.append(tuple(prefix))
        return
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
        _standard_walk(k + 1, left - e, carried, prefix, out)


def standard_monomials(mi: MonomialIdeal, m: int) -> list[Monomial]:
    """The degree-``m`` monomials outside ``mi``, in increasing lex order.

    A depth-first walk over exponent prefixes, one coordinate at a time: it
    carries only the generators that can still divide a completion and
    prunes a prefix as soon as one of them divides it, so the work follows
    the staircase, not the ``count_monomials(arity, m)`` degree-``m``
    monomials.
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
    out: list[Monomial] = []
    _standard_walk(0, m, active, [0] * mi.arity, out)
    return out


def require_enumerable(arity: int, d: int) -> None:
    """Refuse, before any work, a degree slice too large to enumerate."""
    total = count_monomials(arity, d)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"degree slice would enumerate {total} monomials (> {ENUMERATION_LIMIT})"
        )


def monomial_slice(mi: MonomialIdeal, m: int) -> DegreeSlice:
    """Split the degree-``m`` monomials into ideal members and standard ones
    (the standard ones by :func:`standard_monomials`, the members as their
    complement)."""
    require_enumerable(mi.arity, m)
    standard = standard_monomials(mi, m)
    outside = set(standard)
    inside = [mono for mono in reversed(degree_monomials(mi.arity, m)) if mono not in outside]
    return DegreeSlice(mi.arity, m, tuple(inside), tuple(standard))


def degree_slice(ideal: Ideal, order: MonomialOrder, m: int) -> DegreeSlice:
    return monomial_slice(initial_ideal(ideal, order, m), m)


def hilbert_values(
    source: Ideal | MonomialIdeal, m: int, order: MonomialOrder | None = None
) -> tuple[int, int]:
    """``(Q, P)``: the number of degree-``m`` monomials inside the initial
    ideal and the number of standard ones (``Q + P`` counts all degree-``m``
    monomials).  The split is independent of the order used internally."""
    arity = source.arity
    require_enumerable(arity, m)
    if isinstance(source, MonomialIdeal):
        mi = source
    else:
        mi = initial_ideal(source, order if order is not None else grevlex_order(arity), m)
    total = count_monomials(arity, m)
    q = total - len(standard_monomials(mi, m))
    return q, total - q


# ---------------------------------------------------------------------------
# degree slices of unions by linear algebra

# an ideal of the small ring on the listed ambient coordinates; embedded, it
# also contains every ambient coordinate outside the list
Component = tuple[Sequence[int], Ideal]


class UnionSlices:
    """Degree-``d`` slices of the intersection of embedded components, and
    of each component alone, with no intersection computed and one grevlex
    basis per component.

    For homogeneous ideals ``(J_1 ∩ ... ∩ J_k)_d = (J_1)_d ∩ ... ∩ (J_k)_d``:
    a degree-``d`` form lies in the intersection exactly when its normal form
    modulo every component is zero.  So each degree-``d`` monomial gets one
    column, its normal forms modulo the components' grevlex bases stacked
    (zero modulo a component whose coordinates it leaves).  Taken in
    increasing order, the columns that raise the rank are the standard
    monomials; every other monomial lies in the initial ideal.  The normal
    forms are computed once, here, and serve every order.
    """

    def __init__(self, arity: int, components: Sequence[Component], d: int):
        require_enumerable(arity, d)
        for index, (coords, block) in enumerate(components, start=1):
            if len(coords) != block.arity:
                raise ValueError(
                    f"component {index} lists {len(coords)} coordinates for a ring "
                    f"in {block.arity} variables"
                )
            if not block.is_homogeneous():
                raise ValueError(
                    f"component {index} is not homogeneous; union slices need "
                    f"homogeneous components"
                )
        self.arity = arity
        self.d = d
        # per component: its coordinates and, for every degree-d monomial of
        # its block ring, its exact normal form as {row: coefficient}, with
        # one row per (component, standard monomial); and its row range
        self._forms: list[tuple[Sequence[int], dict[Monomial, dict[int, Fraction]]]] = []
        self._rows: list[range] = []
        height = 0
        for coords, block in components:
            gb = buchberger(block, grevlex_order(block.arity), d)
            leads, polys = list(gb.leads), [_primitive(g.terms) for g in gb.elements]
            rows: dict[Monomial, int] = {}
            forms = {}
            for mono in degree_monomials(block.arity, d):
                # s * mono - r lies in the block ideal: mono reduces to r / s,
                # an exact value, so the blocks of one column share one scale
                r, s = _normal_form_int({mono: 1}, leads, polys, gb.order.key)
                forms[mono] = {
                    rows.setdefault(std, height + len(rows)): Fraction(c, s) for std, c in r.items()
                }
            self._forms.append((coords, forms))
            self._rows.append(range(height, height + len(rows)))
            height += len(rows)
        self._height = height

    def union(self, order: MonomialOrder) -> DegreeSlice:
        """The slice of ``in_order`` of the intersection, in the ambient ring."""
        columns: dict[Monomial, dict[int, Fraction]] = {}
        for coords, forms in self._forms:
            for mono, form in forms.items():
                key = embed_monomial(mono, self.arity, coords)
                column = columns.get(key)
                columns[key] = form if column is None else {**column, **form}
        return _greedy_slice(self.arity, self.d, columns, range(self._height), order)

    def component(self, index: int, order: MonomialOrder) -> DegreeSlice:
        """The slice of ``in_order`` of component ``index`` in its block ring."""
        coords, forms = self._forms[index]
        return _greedy_slice(len(coords), self.d, forms, self._rows[index], order)


def _greedy_slice(
    arity: int, d: int, columns: dict[Monomial, dict[int, Fraction]], rows: range, order: MonomialOrder
) -> DegreeSlice:
    ascending = sorted(degree_monomials(arity, d), key=order.key)
    candidates = [mono for mono in ascending if columns.get(mono)]
    matrix = [primitive([columns[m].get(i, 0) for i in rows]) for m in candidates]
    standard = {candidates[i] for i in row_reduce(matrix, len(rows)).basis}
    inside = tuple(sorted(m for m in ascending if m not in standard))
    return DegreeSlice(arity, d, inside, tuple(sorted(standard)))


# ---------------------------------------------------------------------------
# elimination toolbox


def eliminate(source: Ideal, keep: Sequence[int]) -> Ideal:
    """Intersect the ideal with the subring on the kept coordinates.

    The result stays in the ambient arity; its generators use only kept
    coordinates.
    """
    keep_set = set(keep)
    stray = sorted(i for i in keep_set if not 0 <= i < source.arity)
    if stray:
        raise ValueError(f"kept coordinates {stray} outside 0..{source.arity - 1}")
    dead = [i for i in range(source.arity) if i not in keep_set]
    if not dead:
        return source
    order = elimination_order(source.arity, dead)
    gb = buchberger(source, order)
    kept = tuple(
        g for g in gb.elements if g.support_variables() <= keep_set
    )
    return Ideal(source.arity, kept)


def intersect_ideals(left: Ideal, right: Ideal) -> Ideal:
    """Ideal intersection via the single-parameter trick: eliminate ``t`` from
    t*left + (1-t)*right in an extended ring with ``t`` appended last."""
    if left.arity != right.arity:
        raise ValueError("arity mismatch in ideal intersection")
    arity = left.arity
    ext = arity + 1
    t = Polynomial.variable(ext, arity)
    one = Polynomial.constant(ext, 1)
    base = range(arity)
    gens = [t * embed_polynomial(f, ext, base) for f in left.generators]
    gens += [(one - t) * embed_polynomial(g, ext, base) for g in right.generators]
    flat = eliminate(Ideal(ext, gens), keep=base)
    return Ideal(arity, (project_polynomial(g, base) for g in flat.generators))


def intersect_embedded(arity: int, components: Sequence[Component]) -> Ideal:
    """The intersection of the embedded components, one elimination per
    component after the first (the route :class:`UnionSlices` avoids)."""
    embedded = []
    for coords, block in components:
        outside = [Polynomial.variable(arity, j) for j in range(arity) if j not in coords]
        lifted = [embed_polynomial(g, arity, coords) for g in block.generators]
        embedded.append(Ideal(arity, lifted + outside))
    return functools.reduce(intersect_ideals, embedded)


def implicitize(forms: Sequence[Polynomial], target_arity: int | None = None) -> Ideal:
    """Kernel of the ring map sending target variable ``i`` to ``forms[i]``.

    ``forms`` live in the parameter ring; the result is an ideal in
    ``len(forms)`` variables (the defining ideal of the image closure).
    """
    if not forms:
        raise ValueError("need at least one form")
    params = forms[0].arity
    for f in forms:
        if f.arity != params:
            raise ValueError("all forms must share the parameter ring")
    n_targets = len(forms)
    if target_arity is not None and target_arity != n_targets:
        raise ValueError("target arity must equal the number of forms")
    ext = params + n_targets
    gens = [
        Polynomial.variable(ext, params + i) - embed_polynomial(f, ext, range(params))
        for i, f in enumerate(forms)
    ]
    targets = range(params, ext)
    flat = eliminate(Ideal(ext, gens), keep=targets)
    return Ideal(n_targets, (project_polynomial(g, targets) for g in flat.generators))
