"""Monomial orders as integer weight matrices.

An order is a list of row vectors; monomials compare lexicographically on
their images under the rows.  Rows are stored with integer entries (rational
input rows are cleared by scaling, which never changes comparisons).  An
order is *valid* when it is total (the rows have full column rank) and a
well-order (in every column, the topmost nonzero entry is positive, so every
variable exceeds 1).
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .linalg import common_denominator, primitive, row_reduce
from .rings import Monomial


class MonomialOrder:
    """Total multiplicative monomial order given by weight rows."""

    __slots__ = ("arity", "rows", "name", "_key_cache", "_descending_cache")

    def __init__(self, arity: int, rows: Iterable[Sequence[int | Fraction]], name: str = "matrix"):
        rows = tuple(primitive(r) for r in rows)
        for r in rows:
            if len(r) != arity:
                raise ValueError(f"order row {r} does not match arity {arity}")
        self.arity = arity
        self.rows = rows
        self.name = name
        self._key_cache: dict[Monomial, tuple[int, ...]] = {}
        self._descending_cache: dict[Monomial, tuple[int, ...]] = {}

    # -- comparisons ---------------------------------------------------------

    def key(self, mono: Monomial) -> tuple[int, ...]:
        """Sort key, cached: the dot products with the rows, so tuples
        compare the same way the order compares monomials."""
        k = self._key_cache.get(mono)
        if k is None:
            k = self._key_cache[mono] = tuple([sum(map(mul, row, mono)) for row in self.rows])
        return k

    def descending_key(self, mono: Monomial) -> tuple[int, ...]:
        """The negated key, cached apart: a min-heap keyed by it pops the
        largest monomial first."""
        k = self._descending_cache.get(mono)
        if k is None:
            k = self._descending_cache[mono] = tuple([-sum(map(mul, row, mono)) for row in self.rows])
        return k

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Violation messages; empty means the matrix is a genuine monomial
        order (total and a well-order)."""
        problems: list[str] = []
        if row_reduce(self.rows, self.arity).rank < self.arity:
            problems.append(
                f"not total: rows have rank < {self.arity}, distinct monomials can compare equal"
            )
        for col in range(self.arity):
            lead = next((row[col] for row in self.rows if row[col] != 0), None)
            if lead is None or lead < 0:
                problems.append(
                    f"not a well-order: first nonzero entry in column {col} must be positive"
                    f" (variable {col} would not exceed 1)"
                )
        return problems

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name}, arity={self.arity})"


# ---------------------------------------------------------------------------
# constructors


def lex_order(arity: int) -> MonomialOrder:
    rows = [tuple(1 if j == i else 0 for j in range(arity)) for i in range(arity)]
    return MonomialOrder(arity, rows, name="lex")


def grlex_order(arity: int) -> MonomialOrder:
    rows = [(1,) * arity]
    rows += [tuple(1 if j == i else 0 for j in range(arity)) for i in range(arity - 1)]
    return MonomialOrder(arity, rows, name="grlex")


def grevlex_order(arity: int) -> MonomialOrder:
    rows = [(1,) * arity]
    rows += [tuple(-1 if j == i else 0 for j in range(arity)) for i in range(arity - 1, 0, -1)]
    return MonomialOrder(arity, rows, name="grevlex")


def weight_order(weights: Sequence[int | Fraction]) -> MonomialOrder:
    """Weight row refined by grevlex."""
    arity = len(weights)
    rows = [weights, *grevlex_order(arity).rows]
    return MonomialOrder(arity, rows, name=f"weight{tuple(weights)!r}")


def matrix_order(rows: Sequence[Sequence[int | Fraction]], name: str = "matrix") -> MonomialOrder:
    if not rows:
        raise ValueError("matrix order needs at least one row")
    arity = len(rows[0])
    return MonomialOrder(arity, rows, name=name)


def elimination_order(arity: int, eliminate: Iterable[int]) -> MonomialOrder:
    """Block order in which any monomial using an eliminated variable exceeds
    every monomial free of them; grevlex refines both blocks."""
    dead = sorted(set(eliminate))
    for i in dead:
        if not 0 <= i < arity:
            raise ValueError(f"eliminated coordinate {i} out of range")
    indicator = tuple(1 if i in set(dead) else 0 for i in range(arity))
    rows = [indicator] + list(grevlex_order(arity).rows)
    return MonomialOrder(arity, rows, name=f"eliminate{tuple(dead)!r}")


def named_order(name: str, arity: int) -> MonomialOrder:
    """Look up one of the standard order families by name."""
    table = {"lex": lex_order, "grlex": grlex_order, "grevlex": grevlex_order}
    if name not in table:
        raise ValueError(f"unknown order name {name!r}; expected one of {sorted(table)}")
    return table[name](arity)


# ---------------------------------------------------------------------------
# junction splicing


def merge_chain_weights(block_weights: Sequence[Sequence[int | Fraction]]) -> tuple[int, ...]:
    """Splice a chain of block weight vectors in which each block shares its
    first coordinate with the last coordinate of the block before it.

    Each later block is translated by a constant so that the shared
    coordinate agrees, then the vectors are concatenated; translation by a
    constant does not change how equal-degree monomials supported on the
    block compare.  The fold is exact (integer input stays integer), and the
    result is scaled to integers once by the common denominator (the
    content is kept).  The chain assembly
    (:func:`statepoly.chains.decomposed_state_polytope`) applies the same
    splice to integer witnesses one block at a time, as it extends each
    partial sum of its prefix fold."""
    if not block_weights:
        raise ValueError("need at least one block weight vector")
    if not all(block_weights):
        raise ValueError("every block weight vector must be nonempty")
    acc = list(block_weights[0])
    for nxt in block_weights[1:]:
        shift = acc[-1] - nxt[0]
        acc.extend([v + shift for v in nxt[1:]])
    _, (ints,) = common_denominator([acc])
    return ints
