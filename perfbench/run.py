"""The statepoly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each pass runs the workload's ``statec`` commands
one after another through ``statepoly.cli.run_command`` and ``.rendered()``,
in a fresh interpreter, as a ``statec`` user pays a fresh process per
command.  Passes repeat until ``--seconds`` is used up (at least one).
Extra set-up-only interpreters give ``setup_s`` more samples.  Times are
scaled to a reference speed (see ``CAL_REF_S``).  Every document is checked
here, in the parent, outside the timed region, by ``checks.py``.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
passes); with ``--trace 1`` untraced and traced passes alternate and the
result holds the per-layer metrics of the traced passes.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8
# Seconds of passrun.calibrate() at the reference speed.  The shared host's
# speed drifts by a third over minutes, so times are reported as if the run
# had gone at that speed: scaled by CAL_REF_S over the median of the run's
# calibration blocks (one after each set-up, one before and one after each
# pass's operations).
CAL_REF_S = 0.2
# every child must end before this many seconds after the run started
RUN_DEADLINE_S = 170
STARTED = time.monotonic()

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "parsing.read_s": "s",
    "groebner.gb_runs": "count",
    "groebner.initial_ideal_s": "s",
    "groebner.slice_s": "s",
    "groebner.slice_monomials": "count",
    "groebner.eliminate_s": "s",
    "groebner.eliminate_calls": "count",
    "state.oracle_queries": "count",
    "state.memo_hit_ratio": "ratio",
    "state.enumerate_self_s": "s",
    "state.witnesses_nonstrict": "count",
    "polytope.hull_add_s": "s",
    "polytope.hull_add_calls": "count",
    "polytope.hull_pieces_max": "count",
    "polytope.facet_readout_s": "s",
    "lp.solves": "count",
    "lp.solve_s": "s",
    "lp.membership_s": "s",
    "lp.affine_hull_s": "s",
    "chains.witness_lps": "count",
    "chains.witness_s": "s",
    "chains.assembly_self_s": "s",
    "chains.tau_s": "s",
    "orders.splice_s": "s",
    "orders.splice_calls": "count",
    "hm.index_s": "s",
    "rosary.assemble_s": "s",
    "rosary.check_self_s": "s",
    "cli.self_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


def spawn(work: Path, workload: str, seed: int, mode: str) -> dict:
    """Run one child interpreter and return its JSON report."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), str(ROOT), workload, str(seed), mode, repr(t0)],
        cwd=work,
        capture_output=True,
        text=True,
        timeout=max(1.0, STARTED + RUN_DEADLINE_S - t0),
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["elapsed_s"] = time.monotonic() - t0
    report["mode"] = mode
    return report


def measure(work: Path, workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list, list]:
    """Set-up samples, untraced passes and traced passes of one run."""
    setups = [spawn(work, workload, seed, "setup") for _ in range(SETUP_SAMPLES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    while True:
        untraced.append(spawn(work, workload, seed, "pass"))
        if trace:
            traced.append(spawn(work, workload, seed, "traced"))
        rounds = untraced if not trace else [
            {"elapsed_s": a["elapsed_s"] + b["elapsed_s"]} for a, b in zip(untraced, traced)
        ]
        typical = statistics.median(p["elapsed_s"] for p in rounds)
        if time.monotonic() - started + typical > seconds:
            break
    return setups, untraced, traced


def document_failures(workload: str, seed: int, passes: list[dict]) -> tuple[int, list[str], list[str]]:
    """Failed operations over all passes, errors (operations that raised or
    exited non-zero) and check failures.

    The first pass is checked in full; every later pass, traced or not, must
    reproduce its documents byte for byte (identical inputs give identical
    output bytes, and tracing must not change them).
    """
    first = passes[0]["ops"]
    failures = checks.check_documents(workload, seed, ROOT, first)
    failed_labels = {label for label, _, _ in failures}
    errors = [f"{label}: {issues[0]}" for label, issues, errored in failures if errored]
    problems = [f"{label}: {'; '.join(issues)}" for label, issues, errored in failures if not errored]
    failed = len(failures)
    for index, later in enumerate(passes[1:], start=2):
        for op, ref in zip(later["ops"], first):
            if op["label"] in failed_labels:
                failed += 1
            elif op["text"] != ref["text"]:
                failed += 1
                problems.append(f"{later['mode']} pass {index}: {op['label']}: document differs from pass 1")
    return failed, errors, problems


def layer_values(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians of the traced passes' layer values, plus the values read from
    the documents and the tracing overhead."""
    values = {}
    for name, first in traced[0]["layers"].items():
        samples = [p["layers"][name] for p in traced]
        # counts stay whole numbers
        values[name] = statistics.median_low(samples) if isinstance(first, int) else statistics.median(samples)
    docs = [op for op in traced[0]["ops"] if op["text"] is not None]
    values["cli.output_bytes"] = sum(len(op["text"].encode("utf-8")) for op in docs)
    nonstrict = 0
    for op in docs:
        if op["argv"][0] == "state":
            nonstrict += checks.nonstrict_witnesses(json.loads(op["text"])["payload"])
    values["state.witnesses_nonstrict"] = nonstrict
    values["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced)
    )
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "statepoly" / "cli.py").is_file():
        print(f"error: no statepoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "data" / "bridge").is_dir():
        print(f"error: no bridge data under {ROOT / 'data'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, untraced, traced = measure(work, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    passes = untraced + traced
    per_pass = len(workloads.steps_for(args.workload))
    failed, errors, problems = document_failures(args.workload, args.seed, passes)
    for error in errors:
        print(f"operation failed: {error}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        missing = traced[0].get("missing_targets") or []
        if missing:
            print(f"warning: not found, not traced: {', '.join(missing)}", file=sys.stderr)
        values = layer_values(traced, untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        setup_raw = statistics.median(p["setup_s"] for p in setups + untraced)
        wall_raw = statistics.median(p["wall_s"] for p in untraced)
        calibration = statistics.median(c for p in setups + untraced for c in p["cal_s"])
        scale = CAL_REF_S / calibration
        values = {
            "setup_s": setup_raw * scale,
            "wall_s": wall_raw * scale,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in untraced),
        }
        print(f"  measured medians: setup_s {setup_raw:.4f} wall_s {wall_raw:.4f}"
              f" calibration {calibration:.4f} (reference {CAL_REF_S})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {per_pass} operations")
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in untraced))
    for i, op in enumerate(untraced[0]["ops"]):
        seconds = statistics.median(p["ops"][i]["seconds"] for p in untraced)
        print(f"  {seconds:8.3f} s  {op['label']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": per_pass * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
