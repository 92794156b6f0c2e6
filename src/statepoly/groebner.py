"""Buchberger's algorithm over the rationals with weight-matrix orders.

Ideals come in as ``Polynomial`` (Fraction coefficients) and are read through
their primitive integer generators.  The engine pseudo-reduces integer
polynomials, and a reduced basis keeps its elements that way: each one
primitive with a positive leading coefficient.  Its monic ``Polynomial`` view
(:attr:`ReducedGB.elements`) is made only when something reads it.

Pair selection uses the normal strategy (smallest lcm degree, then smallest
lcm under the active order).  For homogeneous generators the pairs therefore
come in order of degree, and every basis element of degree ``d`` exists once
the pairs of degree ``d`` are done.  A caller that reads one degree ``m``
passes it as ``degree``: the run drops the generators above ``m`` and makes
no pair above ``m``, which gives the ``m``-truncated basis (Bayer–Morrison
1988; Sturmfels, *Gröbner Bases and Convex Polytopes*, ch. 2).  Its leads
generate the initial ideal in every degree up to ``m``, and it gives the
full basis's normal forms there.  Inhomogeneous generators ignore
``degree`` and run in full.

A pair is queued only when the run may pop and use it:

- a pair with coprime leads is never queued (the product criterion): its
  S-polynomial has a standard representation from the start, so it counts
  as done (Gebauer–Möller 1988);
- a pair of two one-term elements is never queued either: its
  S-polynomial is zero, so it too counts as done from the start;
- in a truncated run, a pair whose lcm has degree above ``m`` is never
  queued, and its order key is never computed.  The chain criterion, which
  skips the pair ``(i, j)`` when some lead ``k`` divides its lcm and the
  pairs ``(i, k)`` and ``(j, k)`` are done, only consults pairs whose lcm
  divides that of ``(i, j)``, so none of them lies above ``m``.

Each queued pair keeps its lcm, and every element lists its lead first, so
a run neither scans for a lead nor forms a lead term that cancels.  A
reduction takes the largest monomial first from a heap keyed by
:meth:`MonomialOrder.descending_key`, the negated order key, which each
order caches once per monomial.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, le, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .linalg import row_reduce
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
    mono_degree,
    mono_divides,
    mono_lcm,
    primitive_terms,
    project_polynomial,
)

IntPoly = dict[Monomial, int]


# ---------------------------------------------------------------------------
# integer-polynomial helpers
#
# Every polynomial the engine reduces by lists its lead term first: a basis
# element is a generator copied lead first, or a remainder, which comes out
# in decreasing order.  So the lead of an element is ``next(iter(g))``, and
# the lead terms, which cancel exactly in an S-polynomial and in a
# reduction step, are skipped rather than formed.


def _normal_form_int(
    p: IntPoly, leads: Sequence[Monomial], polys: Sequence[IntPoly], descending_key
) -> tuple[IntPoly, int]:
    """Full normal form by pseudo-division.

    Returns ``(r, s)`` with ``s > 0`` such that ``s*p - r`` lies in the ideal
    generated by ``polys`` and no monomial of ``r`` is divisible by any lead.
    Each of ``polys`` lists its lead ``leads[i]`` first.  The largest
    monomial is taken first, from a heap keyed by ``descending_key`` (the
    order's cached negated key), so ``r`` comes out in decreasing order: its
    first term is its lead.
    """
    work = dict(p)
    remainder: IntPoly = {}
    scale = 1
    heap = [(descending_key(m), m) for m in work]
    heapify(heap)
    divisors = list(zip(leads, polys))
    while heap:
        mono = heappop(heap)[1]
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        for glead, g in divisors:
            if all(map(le, glead, mono)):
                break
        else:
            remainder[mono] = remainder.get(mono, 0) + coeff
            continue
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
        shift = tuple(map(sub, mono, glead))
        terms = iter(g.items())
        next(terms)  # the lead term cancels ``mono`` exactly
        for gm, gc in terms:
            target = tuple(map(add, shift, gm))
            cur = work.get(target, 0) - mult_g * gc
            if cur:
                if target not in work:
                    heappush(heap, (descending_key(target), target))
                work[target] = cur
            else:
                del work[target]
    return remainder, scale


def _spoly(fi: IntPoly, fj: IntPoly, li: Monomial, lj: Monomial, lcm: Monomial) -> IntPoly:
    """The S-polynomial of two elements that list their leads first, without
    the lead terms, which cancel exactly."""
    ci, cj = fi[li], fj[lj]
    t = gcd(ci, cj)
    mi, mj = cj // t, ci // t
    si, sj = tuple(map(sub, lcm, li)), tuple(map(sub, lcm, lj))
    terms = iter(fi.items())
    next(terms)
    out = {tuple(map(add, si, m)): mi * c for m, c in terms}
    terms = iter(fj.items())
    next(terms)
    for m, c in terms:
        target = tuple(map(add, sj, m))
        cur = out.get(target, 0) - mj * c
        if cur:
            out[target] = cur
        else:
            del out[target]
    return out


def _buchberger_int(
    ideal: Ideal, order: MonomialOrder, degree: int | None = None
) -> tuple[list[IntPoly], list[Monomial]]:
    """Minimal (lead-interreduced) Groebner basis of the ideal's primitive
    integer generators, and its leads.  Each element has primitive integer
    coefficients and lists its lead first, with a positive coefficient; the
    elements come in increasing lead order.  The generators are read, never
    changed.

    When ``degree`` is given and every generator is homogeneous, the run
    stops at degree ``degree``: the result is the ``degree``-truncated
    basis, which agrees with the full one in every degree up to it.
    Inhomogeneous generators ignore ``degree`` and run in full, and they
    need an order that passes :meth:`MonomialOrder.validate` (``ValueError``
    before any reduction otherwise).
    """
    key = order.key
    descending_key = order.descending_key
    gens = ideal.integer_generators
    degrees = ideal.integer_degrees
    if degrees is None:
        problems = order.validate()
        if problems:
            # reductions of mixed degrees need a well-order to terminate
            raise ValueError(
                f"inhomogeneous generators need a well-order: {'; '.join(problems)}"
            )
        degree = None
    elif degree is not None:
        gens = [g for g, d in zip(gens, degrees) if d <= degree]
    basis: list[IntPoly] = []
    leads: list[Monomial] = []
    for lead, g in sorted(((max(g, key=key), g) for g in gens), key=lambda t: key(t[0])):
        c = g[lead]
        basis.append({lead: c, **g} if c > 0 else {lead: -c, **{m: -v for m, v in g.items()}})
        leads.append(lead)

    # pairs (i, j), i < j, queued and not yet popped; the heap holds
    # (lcm degree, lcm key, i, j, lcm), so it pops by the normal strategy
    pending: set[tuple[int, int]] = set()
    heap: list[tuple[int, tuple[int, ...], int, int, Monomial]] = []

    def push_pairs(new: int) -> None:
        ln = leads[new]
        one_term = len(basis[new]) == 1
        for k in range(new):
            lk = leads[k]
            if degree is not None and sum(map(max, lk, ln)) > degree:
                continue
            if not any(map(mul, lk, ln)) or (one_term and len(basis[k]) == 1):
                continue
            lcm = mono_lcm(lk, ln)
            pending.add((k, new))
            heappush(heap, (sum(lcm), key(lcm), k, new, lcm))

    for new in range(len(basis)):
        push_pairs(new)

    while heap:
        _, _, i, j, lcm = heappop(heap)
        pending.discard((i, j))
        # the chain criterion: some lead k divides the lcm, and the pairs
        # (i, k) and (j, k) are done
        for k, lk in enumerate(leads):
            if (
                k != i
                and k != j
                and all(map(le, lk, lcm))
                and ((i, k) if i < k else (k, i)) not in pending
                and ((j, k) if j < k else (k, j)) not in pending
            ):
                break
        else:
            s = _spoly(basis[i], basis[j], leads[i], leads[j], lcm)
            if not s:
                continue
            r, _ = _normal_form_int(s, leads, basis, descending_key)
            if not r:
                continue
            # primitive, with the lead (the first term) positive
            content = gcd(*r.values())
            if next(iter(r.values())) < 0:
                content = -content
            if content != 1:
                r = {m: c // content for m, c in r.items()}
            basis.append(r)
            leads.append(next(iter(r)))
            push_pairs(len(basis) - 1)
    # keep the first element of each minimal lead; the keys of a total order
    # are distinct, so sorting by key gives increasing lead order
    first: dict[Monomial, int] = {}
    for i, lead in enumerate(leads):
        first.setdefault(lead, i)
    kept = sorted((first[m] for m in _minimal_leads(leads)), key=lambda i: key(leads[i]))
    return [basis[i] for i in kept], [leads[i] for i in kept]


def _minimal_leads(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The minimal monomials of ``gens`` under divisibility, sorted.  Only a
    monomial of lower degree can divide another one (equal ones are merged
    first), so each is tested against the kept ones below its degree."""
    kept: list[Monomial] = []
    lower = 0
    degree = -1
    for m in sorted(set(gens), key=sum):
        d = sum(m)
        if d > degree:
            degree, lower = d, len(kept)
        if not any(all(map(le, k, m)) for k in kept[:lower]):
            kept.append(m)
    return tuple(sorted(kept))


# ---------------------------------------------------------------------------
# public objects


class ReducedGB(namedtuple("ReducedGB", "order integer_elements leads")):
    """The unique reduced Groebner basis under a :class:`MonomialOrder`:
    fully interreduced, sorted by increasing leading monomial.
    ``integer_elements`` holds each element as a primitive integer
    polynomial with a positive leading coefficient, ``leads`` their leading
    monomials."""

    @property
    def arity(self) -> int:
        return self.order.arity

    @functools.cached_property
    def elements(self) -> tuple[Polynomial, ...]:
        """The monic elements, made on first use."""
        return tuple(
            Polynomial(self.arity, {m: Fraction(c, g[lead]) for m, c in g.items()})
            for g, lead in zip(self.integer_elements, self.leads)
        )

    def normal_form(self, poly: Polynomial) -> Polynomial:
        if poly.arity != self.arity:
            raise ValueError("arity mismatch in normal form")
        if poly.is_zero or not self.leads:
            return poly
        p = primitive_terms(poly.terms)
        # recover the exact normal form of poly itself: scale back by the
        # factor poly / p and the pseudo-division multiplier
        mono = next(iter(p))
        r, s = _normal_form_int(
            p, self.leads, self.integer_elements, self.order.descending_key
        )
        factor = Fraction(poly.terms[mono], p[mono] * s)
        return Polynomial(self.arity, {m: c * factor for m, c in r.items()})

    def contains(self, poly: Polynomial) -> bool:
        return self.normal_form(poly).is_zero


Supports = tuple[tuple[Monomial, ...], ...]


class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generators.

    An initial ideal also keeps ``supports``, those of the Groebner basis it
    was read from: each element's monomials, lead first.  Equality and
    hashing ignore them.  No attribute can be assigned or deleted.
    """

    __slots__ = ("arity", "gens", "supports")

    def __init__(self, arity: int, gens: Iterable[Monomial], supports: Supports = ()):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "gens", _minimal_leads(tuple(g) for g in gens))
        object.__setattr__(self, "supports", supports)

    @classmethod
    def _of_minimal(cls, arity: int, gens: tuple[Monomial, ...], supports: Supports) -> "MonomialIdeal":
        """The ideal of generators that are already minimal and sorted."""
        mi = cls.__new__(cls)
        object.__setattr__(mi, "arity", arity)
        object.__setattr__(mi, "gens", gens)
        object.__setattr__(mi, "supports", supports)
        return mi

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to MonomialIdeal.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete MonomialIdeal.{name}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not MonomialIdeal:
            return NotImplemented
        return self.arity == other.arity and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.arity, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(arity={self.arity!r}, gens={self.gens!r})"

    def contains(self, mono: Monomial) -> bool:
        return any(mono_divides(g, mono) for g in self.gens)


class DegreeSlice(NamedTuple):
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
    if ideal.arity != order.arity:
        raise ValueError("generator arity does not match order arity")
    descending_key = order.descending_key
    # the minimal basis comes sorted by lead, each lead positive; reduce the
    # other terms of each element by the other elements: no other lead
    # divides its lead, so the lead stays first, scaled by the positive
    # pseudo-division factor
    basis, leads = _buchberger_int(ideal, order, degree)
    reduced = []
    for i, g in enumerate(basis):
        r, _ = _normal_form_int(
            g, leads[:i] + leads[i + 1 :], basis[:i] + basis[i + 1 :], descending_key
        )
        reduced.append(primitive_terms(r))
    return ReducedGB(order=order, integer_elements=tuple(reduced), leads=tuple(leads))


def initial_ideal(ideal: Ideal, order: MonomialOrder, degree: int | None = None) -> MonomialIdeal:
    """The initial ideal, with the supports of the Groebner basis it was
    read from.

    With ``degree`` and homogeneous generators, the basis is the
    ``degree``-truncated one: the result agrees with the full initial ideal
    in every degree up to ``degree`` (its generators are the full one's of
    degree at most ``degree``).  Inhomogeneous generators ignore ``degree``.
    """
    basis, leads = _buchberger_int(ideal, order, degree)
    # each element lists its lead first, and the leads are already minimal
    supports = tuple(tuple(g) for g in basis)
    return MonomialIdeal._of_minimal(order.arity, tuple(sorted(leads)), supports)


def _standard_walk(
    k: int,
    left: int,
    active: list[tuple[Monomial, tuple[int, ...]]],
    sums: list[int],
) -> int:
    """The number of standard completions of an exponent prefix in the
    coordinates ``k`` on, of degree ``left``; adds their exponents there to
    ``sums``.  ``active`` holds the generators (with their suffix degrees)
    that divide no prefix so far but may divide a completion:
    ``g[i] <= prefix[i]`` for ``i < k`` and ``g`` has degree at most
    ``left`` in the coordinates from ``k`` on."""
    n = len(sums)
    if not active:
        # every completion is standard: C(left + w - 1, w - 1) of them in
        # the w coordinates left, each coordinate summing to C(left + w - 1, w)
        width = n - k
        share = comb(left + width - 1, width)
        for j in range(k, n):
            sums[j] += share
        return comb(left + width - 1, width - 1)
    if k + 1 == n:
        # one variable: an active generator divides the one completion
        return 0
    count = 0
    for e in range(left + 1):
        carried = []
        for g, rest in active:
            if g[k] <= e:
                if not rest[k + 1]:
                    # g divides the prefix, and so every completion of it
                    # and of every larger exponent here
                    return count
                if rest[k + 1] <= left - e:
                    carried.append((g, rest))
        if k + 2 < n:
            below = _standard_walk(k + 1, left - e, carried, sums)
        elif carried:
            # a carried generator divides the one completion (e, left - e)
            continue
        else:
            below = 1
            sums[k + 1] += left - e
        sums[k] += e * below
        count += below
    return count


def standard_sums(mi: MonomialIdeal, m: int) -> tuple[int, tuple[int, ...]]:
    """The number of degree-``m`` monomials outside ``mi`` and the sum of
    their exponent vectors.

    A depth-first walk over exponent prefixes, one coordinate at a time,
    that builds no monomial: it carries only the generators that can still
    divide a completion, prunes a prefix as soon as one of them divides it,
    and counts a prefix that none of them can divide in closed form.  Each
    coordinate's sum gains its exponent times the standard completions
    below it.  So the work follows the staircase, not the
    ``count_monomials(arity, m)`` degree-``m`` monomials.
    """
    n = mi.arity
    if m < 0:
        return 0, (0,) * n
    if n == 0:
        return int(m == 0 and not mi.gens), ()
    active = []
    for g in mi.gens:
        if mono_degree(g) <= m:
            rest = [0] * (n + 1)
            for i in range(n - 1, -1, -1):
                rest[i] = rest[i + 1] + g[i]
            active.append((g, tuple(rest)))
    sums = [0] * n
    count = _standard_walk(0, m, active, sums)
    return count, tuple(sums)


def slice_state(mi: MonomialIdeal, m: int) -> tuple[int, tuple[int, ...]]:
    """The number of degree-``m`` standard monomials of ``mi`` and the
    exponent sum of its degree-``m`` monomials (its state): the column total
    ``C(m+n-1, n)`` (each coordinate summed over all degree-``m`` monomials
    in ``n`` variables) minus the sums of :func:`standard_sums`, so only the
    complement of the ideal is walked."""
    count, sums = standard_sums(mi, m)
    total = comb(m + mi.arity - 1, mi.arity)
    return count, tuple(total - s for s in sums)


def require_enumerable(arity: int, d: int) -> None:
    """Refuse, before any work, a degree slice too large to enumerate."""
    total = count_monomials(arity, d)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"degree slice would enumerate {total} monomials (> {ENUMERATION_LIMIT})"
        )


def monomial_slice(mi: MonomialIdeal, m: int) -> DegreeSlice:
    """Split the degree-``m`` monomials, in increasing lex order, into ideal
    members and standard ones."""
    require_enumerable(mi.arity, m)
    inside: list[Monomial] = []
    standard: list[Monomial] = []
    for mono in reversed(degree_monomials(mi.arity, m)):
        (inside if mi.contains(mono) else standard).append(mono)
    return DegreeSlice(mi.arity, m, tuple(inside), tuple(standard))


def hilbert_values(source: Ideal | MonomialIdeal, m: int) -> tuple[int, int]:
    """``(Q, P)``: the number of degree-``m`` monomials inside the initial
    ideal and the number of standard ones (``Q + P`` counts all degree-``m``
    monomials).  An ``Ideal`` is read under grevlex; for a homogeneous one
    the split is the same under every order (Macaulay)."""
    arity = source.arity
    require_enumerable(arity, m)
    if isinstance(source, MonomialIdeal):
        mi = source
    else:
        mi = initial_ideal(source, grevlex_order(arity), m)
    p, _ = standard_sums(mi, m)
    return count_monomials(arity, m) - p, p


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
        # its block ring, its normal form as {row: coefficient}, with one row
        # per (component, standard monomial); and its row range
        self._forms: list[tuple[Sequence[int], dict[Monomial, dict[int, int]]]] = []
        self._rows: list[range] = []
        height = 0
        for coords, block in components:
            gb = buchberger(block, grevlex_order(block.arity), d)
            rows: dict[Monomial, int] = {}
            forms = {}
            for mono in degree_monomials(block.arity, d):
                # s * mono - r lies in the block ideal: mono reduces to r / s
                forms[mono] = _normal_form_int(
                    {mono: 1}, gb.leads, gb.integer_elements, gb.order.descending_key
                )
            # every form times the lcm of the component's scales: one positive
            # factor on the component's rows keeps the rank of every column set
            scale = lcm(*(s for _, s in forms.values()))
            for mono, (r, s) in forms.items():
                forms[mono] = {
                    rows.setdefault(std, height + len(rows)): c * (scale // s) for std, c in r.items()
                }
            self._forms.append((coords, forms))
            self._rows.append(range(height, height + len(rows)))
            height += len(rows)
        self._height = height

    def union(self, order: MonomialOrder) -> DegreeSlice:
        """The slice of ``in_order`` of the intersection, in the ambient ring."""
        columns: dict[Monomial, dict[int, int]] = {}
        for coords, forms in self._forms:
            for mono, form in forms.items():
                key = embed_monomial(mono, self.arity, coords)
                column = columns.get(key)
                columns[key] = form if column is None else {**column, **form}
        return _greedy_slice(self.arity, self.d, columns, range(self._height), order)

    def component(self, index: int, order: MonomialOrder) -> tuple[Monomial, ...]:
        """The degree-``d`` monomials of ``in_order`` of component ``index``,
        for an order of its block ring, embedded in the ambient ring and
        sorted."""
        coords, forms = self._forms[index]
        piece = _greedy_slice(len(coords), self.d, forms, self._rows[index], order)
        return tuple(sorted(embed_monomial(mono, self.arity, coords) for mono in piece.in_monomials))


def _greedy_slice(
    arity: int, d: int, columns: dict[Monomial, dict[int, int]], rows: range, order: MonomialOrder
) -> DegreeSlice:
    # only a monomial with a nonzero normal form can be standard (the keys of
    # a total order are distinct, so sorting just these keeps their order)
    candidates = sorted((m for m, column in columns.items() if column), key=order.key)
    matrix = []
    for mono in candidates:
        row = [0] * len(rows)
        for i, c in columns[mono].items():
            row[i - rows.start] = c
        matrix.append(row)
    standard = {candidates[i] for i in row_reduce(matrix, len(rows)).basis}
    inside = tuple(m for m in reversed(degree_monomials(arity, d)) if m not in standard)
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
