"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` at every
place a ``statepoly`` module binds them (modules import each other with
``from .x import y``, so patching the defining module alone would miss most
calls) and wraps methods on their class.  One span stack gives each span its
parent; spans stay in memory until ``layer_metrics`` reads them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable

# (module, qualified name) of every wrapped callable; the span name is the
# module's last component plus the qualified name.
TARGETS = (
    ("statepoly.parsing", "parse_ideal_file"),
    ("statepoly.polytope", "load_polytope"),
    ("statepoly.groebner", "initial_ideal"),
    ("statepoly.groebner", "buchberger"),
    ("statepoly.groebner", "monomial_slice"),
    ("statepoly.groebner", "eliminate"),
    ("statepoly.state", "StateOracle.state_for_direction"),
    ("statepoly.state", "enumerate_state_polytope"),
    ("statepoly.polytope", "IncrementalHull.add_point"),
    ("statepoly.polytope", "IncrementalHull.facet_system"),
    ("statepoly.lp", "solve_lp"),
    ("statepoly.lp", "member_convex_hull"),
    ("statepoly.lp", "affine_hull"),
    ("statepoly.chains", "extremality_witness"),
    ("statepoly.chains", "decomposed_state_polytope"),
    ("statepoly.chains", "tau_vector"),
    ("statepoly.orders", "merge_chain_weights"),
    ("statepoly.hm", "hm_index_direct"),
    ("statepoly.hm", "hm_index_decomposed"),
    ("statepoly.rosary", "rosary_assembled_ideal"),
    ("statepoly.rosary", "rosary_slice_decomposition_check"),
    ("statepoly.cli", "run_command"),
    ("statepoly.cli", "CommandResult.rendered"),
)


def _slice_size(args, kwargs, result) -> int:
    return len(result.in_monomials) + len(result.standard_monomials)


def _hull_pieces(args, kwargs, result) -> int:
    return len(args[0].pieces)


# what a span records about its call besides its times
OBSERVERS: dict[str, Callable] = {
    "groebner.monomial_slice": _slice_size,
    "polytope.IncrementalHull.add_point": _hull_pieces,
}


class Tracer:
    """Spans as ``[name, parent, start, end, observed]`` lists, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "statepoly" or key.startswith("statepoly."))
        ]
        for module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            name = module_name.rsplit(".", 1)[-1] + "." + qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(attr)
                if original is None:
                    self.missing.append(name)
                    continue
                self._patch(cls, attr, self.wrap(name, original))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def group_time(spans: list[list], group: set[str]) -> float:
    """Inclusive time of the group's outermost spans (a span inside another
    span of the same group is not counted twice)."""
    total = 0.0
    for name, parent, start, end, _ in spans:
        if name not in group:
            continue
        while parent >= 0 and spans[parent][0] not in group:
            parent = spans[parent][1]
        if parent < 0:
            total += end - start
    return total


def self_time(spans: list[list], name: str) -> float:
    """Time in the named spans not covered by their wrapped children."""
    children: dict[int, float] = {}
    for child in spans:
        if child[1] >= 0:
            children[child[1]] = children.get(child[1], 0.0) + child[3] - child[2]
    return sum(
        (span[3] - span[2] - children.get(i, 0.0) for i, span in enumerate(spans) if span[0] == name),
        0.0,
    )


def count(spans: list[list], group: set[str]) -> int:
    return sum(1 for span in spans if span[0] in group)


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer values of one traced pass (document-derived values are
    added by the caller)."""
    queries = count(spans, {"state.StateOracle.state_for_direction"})
    oracle_runs = sum(
        1
        for i, span in enumerate(spans)
        if span[0] == "groebner.initial_ideal"
        and _has_ancestor(spans, i, "state.StateOracle.state_for_direction")
    )
    pieces = [span[4] for span in spans if span[0] == "polytope.IncrementalHull.add_point"]
    return {
        "parsing.read_s": group_time(spans, {"parsing.parse_ideal_file", "polytope.load_polytope"}),
        "groebner.gb_runs": count(spans, {"groebner.initial_ideal", "groebner.buchberger"}),
        "groebner.initial_ideal_s": group_time(spans, {"groebner.initial_ideal"}),
        "groebner.slice_s": group_time(spans, {"groebner.monomial_slice"}),
        "groebner.slice_monomials": sum(
            span[4] for span in spans if span[0] == "groebner.monomial_slice"
        ),
        "groebner.eliminate_s": group_time(spans, {"groebner.eliminate"}),
        "groebner.eliminate_calls": count(spans, {"groebner.eliminate"}),
        "state.oracle_queries": queries,
        "state.memo_hit_ratio": (queries - oracle_runs) / queries if queries else 0.0,
        "state.enumerate_self_s": self_time(spans, "state.enumerate_state_polytope"),
        "polytope.hull_add_s": group_time(spans, {"polytope.IncrementalHull.add_point"}),
        "polytope.hull_add_calls": len(pieces),
        "polytope.hull_pieces_max": max(pieces, default=0),
        "polytope.facet_readout_s": group_time(spans, {"polytope.IncrementalHull.facet_system"}),
        "lp.solves": count(spans, {"lp.solve_lp"}),
        "lp.solve_s": group_time(spans, {"lp.solve_lp"}),
        "lp.membership_s": group_time(spans, {"lp.member_convex_hull"}),
        "lp.affine_hull_s": group_time(spans, {"lp.affine_hull"}),
        "chains.witness_lps": count(spans, {"chains.extremality_witness"}),
        "chains.witness_s": group_time(spans, {"chains.extremality_witness"}),
        "chains.assembly_self_s": self_time(spans, "chains.decomposed_state_polytope"),
        "chains.tau_s": group_time(spans, {"chains.tau_vector"}),
        "orders.splice_s": group_time(spans, {"orders.merge_chain_weights"}),
        "orders.splice_calls": count(spans, {"orders.merge_chain_weights"}),
        "hm.index_s": group_time(spans, {"hm.hm_index_direct", "hm.hm_index_decomposed"}),
        "rosary.assemble_s": group_time(spans, {"rosary.rosary_assembled_ideal"}),
        "rosary.check_self_s": self_time(spans, "rosary.rosary_slice_decomposition_check"),
        "cli.self_s": self_time(spans, "cli.run_command"),
        "cli.render_s": group_time(spans, {"cli.CommandResult.rendered"}),
    }
