"""Sparse multivariate polynomials over the rationals.

A monomial is an exponent tuple ``(e0, ..., e_{arity-1})`` of non-negative
integers.  A polynomial is a mapping from exponent tuples to nonzero
``Fraction`` coefficients; the zero polynomial has an empty mapping.  All
arithmetic is exact -- no floats anywhere.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from operator import add, le, mul, sub
from typing import Iterable, Mapping, Sequence, Union

from .linalg import primitive

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b (caller guarantees divisibility)."""
    return tuple(map(sub, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if x^a divides x^b."""
    return all(map(le, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def mono_support(a: Monomial) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(a) if e)


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    """True if no variable divides both (exponents are nonnegative, so a
    product is 0 exactly when one factor is)."""
    return not any(map(mul, a, b))


def unit_monomial(arity: int, index: int, power: int = 1) -> Monomial:
    exp = [0] * arity
    exp[index] = power
    return tuple(exp)


def degree_monomials(arity: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, lexicographically
    descending (the canonical enumeration order used throughout).

    Sorted index multisets in increasing order give exponent tuples in
    decreasing lex order: the first multiset that repeats a smaller index
    has the larger exponent there.
    """
    if degree < 0:
        return []
    out: list[Monomial] = []
    for combo in combinations_with_replacement(range(arity), degree):
        exponents = [0] * arity
        for i in combo:
            exponents[i] += 1
        out.append(tuple(exponents))
    return out


# the most monomials a degree slice may enumerate or a parsed power may expand to
ENUMERATION_LIMIT = 10**6


def count_monomials(arity: int, degree: int) -> int:
    """Number of degree-``degree`` monomials in ``arity`` variables."""
    if degree < 0:
        return 0
    from math import comb

    return comb(degree + arity - 1, arity - 1)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        if arity < 0:
            raise ValueError(f"arity must be non-negative, got {arity}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != arity:
                raise ValueError(f"monomial {mono} does not match arity {arity}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            c = clean.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                clean[mono] = c
            elif mono in clean:
                del clean[mono]
        self.arity = arity
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return cls(arity)
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        return cls(arity, {unit_monomial(arity, index): Fraction(1)})

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def support_variables(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(mono_support(m))
        return frozenset(out)

    def evaluate_unit(self, index: int) -> Fraction:
        """Value at the point with coordinate ``index`` equal to 1 and all
        other coordinates 0 (sum of pure-power coefficients of that variable)."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            if all(e == 0 for i, e in enumerate(mono) if i != index):
                total += coeff
        return total

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono, Fraction(0)) + coeff
            if c:
                terms[mono] = c
            elif mono in terms:
                del terms[mono]
        return Polynomial(self.arity, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return Polynomial(self.arity)
            return Polynomial(self.arity, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = terms.get(m, Fraction(0)) + c1 * c2
                if c:
                    terms[m] = c
                elif m in terms:
                    del terms[m]
        return Polynomial(self.arity, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.arity, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no square after the top bit
                base = base * base
        return result

    # -- structural ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in lexicographically descending monomial order (canonical
        serialization order)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = [f"{c}*x^{m}" for m, c in self.sorted_terms()]
        return "Polynomial(" + " + ".join(parts) + ")"


def primitive_terms(terms: Mapping[Monomial, Scalar]) -> dict[Monomial, int]:
    """The terms scaled to coprime integer coefficients (the sign kept)."""
    return dict(zip(terms, primitive(list(terms.values()))))


def project_polynomial(poly: Polynomial, coords: Sequence[int]) -> Polynomial:
    """Rewrite a polynomial supported on ``coords`` in the smaller ring whose
    variables are exactly those coordinates (in the given order)."""
    coords = list(coords)
    index = {c: i for i, c in enumerate(coords)}
    terms: dict[Monomial, Fraction] = {}
    for mono, coeff in poly.terms.items():
        small = [0] * len(coords)
        for i, e in enumerate(mono):
            if e:
                if i not in index:
                    raise ValueError(f"polynomial uses coordinate {i} outside {coords}")
                small[index[i]] = e
        terms[tuple(small)] = coeff
    return Polynomial(len(coords), terms)


def embed_monomial(mono: Monomial, arity: int, coords: Sequence[int]) -> Monomial:
    """Send exponent ``i`` of a small-ring monomial to coordinate
    ``coords[i]`` of a ring in ``arity`` variables."""
    big = [0] * arity
    for c, e in zip(coords, mono):
        big[c] = e
    return tuple(big)


def embed_polynomial(poly: Polynomial, arity: int, coords: Sequence[int]) -> Polynomial:
    """Embed a small-ring polynomial into a larger ring, sending variable ``i``
    of the small ring to coordinate ``coords[i]``."""
    if len(coords) != poly.arity:
        raise ValueError("coords must list one target coordinate per variable")
    return Polynomial(
        arity, {embed_monomial(m, arity, coords): c for m, c in poly.terms.items()}
    )


# ---------------------------------------------------------------------------
# ideals


class Ideal(namedtuple("Ideal", "arity generators")):
    """A finitely generated ideal, kept as its ``arity`` and its tuple of
    nonzero ``generators``.

    :attr:`integer_generators` and :attr:`integer_degrees` are computed on
    first use and kept with the ideal (equality and hashing ignore them).
    """

    def __new__(cls, arity: int, generators: Iterable[Polynomial]) -> Ideal:
        gens = tuple(g for g in generators if not g.is_zero)
        for g in gens:
            if g.arity != arity:
                raise ValueError(f"generator arity {g.arity} does not match ring arity {arity}")
        return super().__new__(cls, arity, gens)

    @cached_property
    def integer_generators(self) -> tuple[dict[Monomial, int], ...]:
        """Each generator scaled to a primitive integer polynomial, for the
        Groebner engine; the dictionaries are shared, so nothing may change
        them."""
        return tuple(primitive_terms(g.terms) for g in self.generators)

    @cached_property
    def integer_degrees(self) -> tuple[int, ...] | None:
        """The degree of each of :attr:`integer_generators`, or ``None``
        when one of them is not homogeneous."""
        degrees = []
        for g in self.integer_generators:
            found = set(map(sum, g))
            if len(found) != 1:
                return None
            degrees.append(found.pop())
        return tuple(degrees)

    def is_homogeneous(self) -> bool:
        return self.integer_degrees is not None

    def support_variables(self) -> frozenset[int]:
        out: set[int] = set()
        for g in self.generators:
            out |= g.support_variables()
        return frozenset(out)
