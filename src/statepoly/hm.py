"""Weight pairings of diagonal one-parameter subgroups with Hilbert points.

For a homogeneous ideal ``I`` at arity ``n + 1``, a weight vector
``rho = (r_0, ..., r_n)`` and a degree ``m``, the index computed here is

    mu = - sum of rho-weights of the standard degree-m monomials
         + (m * P(m) / (n + 1)) * (r_0 + ... + r_n)

where the standard monomials are taken under the rho-weight order refined by
grevlex and ``P(m)`` counts them.  Negative values certify that the
corresponding diagonal subgroup destabilizes the dual Hilbert point.

``hm_index_decomposed`` evaluates the same number for a chain of components
block by block (no ambient basis computation).  Both take ``rho`` as a
plain sequence of rationals (``int``, ``Fraction`` or anything
``Fraction`` accepts), one per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .chains import ChainInput, component_block_ideal
from .groebner import initial_ideal, require_enumerable, standard_monomials
from .orders import weight_order
from .rings import Ideal

__all__ = [
    "HMComponent",
    "HMReport",
    "hm_index_direct",
    "hm_index_decomposed",
]


@dataclass(frozen=True)
class HMComponent:
    """Per-block pieces of a decomposed index computation."""

    index: int
    mu: Fraction
    p_value: int
    weight_total: Fraction
    correction: Fraction


@dataclass(frozen=True)
class HMReport:
    """An index value together with the quantities that produced it."""

    mu: Fraction
    m: int
    standard_weight_sum: Fraction
    p_value: int
    weight_total: Fraction
    components: tuple[HMComponent, ...] | None = None
    junction_term: Fraction | None = None


def hm_index_direct(ideal: Ideal, m: int, rho: Sequence) -> HMReport:
    """Index of the degree-``m`` dual Hilbert point of ``ideal`` at ``rho``.

    The standard monomials are taken under the ``rho``-weight order refined
    by grevlex (any refinement gives the same value).
    """
    rho = tuple(map(Fraction, rho))
    if len(rho) != ideal.arity:
        raise ValueError(
            f"weight arity {len(rho)} does not match ideal arity {ideal.arity}"
        )
    if m < 0:
        raise ValueError(f"degree m must be >= 0, got {m}")
    require_enumerable(ideal.arity, m)
    standard = standard_monomials(initial_ideal(ideal, weight_order(rho), m), m)
    sws = sum((sum(map(mul, rho, mono)) for mono in standard), Fraction(0))
    p_value = len(standard)
    total = sum(rho, Fraction(0))
    mu = -sws + Fraction(m * p_value, ideal.arity) * total
    return HMReport(
        mu=mu,
        m=m,
        standard_weight_sum=sws,
        p_value=p_value,
        weight_total=total,
    )


def hm_index_decomposed(chain: ChainInput, m: int, rho: Sequence) -> HMReport:
    """Index of the assembled chain's dual Hilbert point, block by block.

    Each component contributes its own index at the restricted weights; the
    per-block centering terms are swapped for the ambient one, and each
    junction coordinate adds ``m`` times its weight (its pure power is
    standard for both adjacent blocks but is one ambient monomial).
    """
    spec = chain.spec
    rho = tuple(map(Fraction, rho))
    if len(rho) != spec.arity:
        raise ValueError(
            f"weight arity {len(rho)} does not match ambient arity {spec.arity}"
        )

    components: list[HMComponent] = []
    block_sws_total = Fraction(0)
    p_blocks = 0
    for i in range(spec.n_components):
        coords = list(spec.block_coords(i))
        block_report = hm_index_direct(
            component_block_ideal(chain, i), m, [rho[j] for j in coords]
        )
        block_total = block_report.weight_total
        correction = Fraction(m * block_report.p_value, len(coords)) * block_total
        components.append(
            HMComponent(
                index=i,
                mu=block_report.mu,
                p_value=block_report.p_value,
                weight_total=block_total,
                correction=correction,
            )
        )
        block_sws_total += block_report.standard_weight_sum
        p_blocks += block_report.p_value

    junctions = spec.junctions
    junction_term = Fraction(m) * sum((rho[j] for j in junctions), Fraction(0))
    p_value = p_blocks - len(junctions)
    total = sum(rho, Fraction(0))
    mu = (
        sum((c.mu for c in components), Fraction(0))
        - sum((c.correction for c in components), Fraction(0))
        + Fraction(m * p_value, spec.arity) * total
        + junction_term
    )
    standard_weight_sum = block_sws_total - junction_term
    return HMReport(
        mu=mu,
        m=m,
        standard_weight_sum=standard_weight_sum,
        p_value=p_value,
        weight_total=total,
        components=tuple(components),
        junction_term=junction_term,
    )
