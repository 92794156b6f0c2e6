"""One pass of a workload, in a fresh interpreter.

Run by ``run.py`` with the work directory as the current directory::

    python passrun.py ROOT WORKLOAD SEED MODE T0

``MODE`` is ``setup`` (set up and stop), ``pass`` or ``traced``.  ``T0`` is
the ``time.monotonic()`` reading the parent took just before starting this
process, so ``setup_s`` covers interpreter start, ``import statepoly`` and
writing then reading back the generated input files.  Prints one JSON
object on standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed block of the kind of work
    the program does: tuple keys, dict updates, integer and ``Fraction``
    arithmetic.  ``run.py`` scales every time by it."""
    from fractions import Fraction

    started = time.perf_counter()
    table: dict[tuple[int, int, int], int] = {}
    acc = Fraction(0)
    for i in range(300000):
        key = (i % 61, i % 7, i % 3)
        table[key] = table.get(key, 0) + i * i
        if i % 16 == 0:
            acc += Fraction(i % 1000 + 1, i % 13 + 1)
    return time.perf_counter() - started


def main(argv: list[str]) -> int:
    root, workload, seed, mode, t0 = Path(argv[0]), argv[1], int(argv[2]), argv[3], float(argv[4])
    sys.path.insert(0, str(root / "src"))
    import statepoly.cli as cli

    from workloads import Context, make_inputs, steps_for

    work = Path.cwd()
    files = make_inputs(workload, seed, root)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    for name, text in files.items():
        if (work / name).read_text(encoding="utf-8") != text:
            raise RuntimeError(f"generated input {name} did not read back intact")
    setup_s = time.monotonic() - t0
    cal_s = [calibrate()]
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "cal_s": cal_s}))
        return 0

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer().install()

    ctx = Context(work=work)
    ops = []
    wall_s = 0.0
    for step in steps_for(workload):
        op = {"label": step.label, "argv": None, "exit_code": None, "error": None, "text": None,
              "seconds": 0.0}
        ops.append(op)
        try:
            argv_step = step.argv(ctx)
        except Exception as exc:  # an earlier step's output is missing or malformed
            op["error"] = f"glue: {type(exc).__name__}: {exc}"
            continue
        op["argv"] = argv_step
        started = time.perf_counter()
        try:
            result = cli.run_command(argv_step)
            text = result.rendered()
        except (Exception, SystemExit) as exc:  # the operation failed; record it, go on
            op["error"] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            op["seconds"] = time.perf_counter() - started
            wall_s += op["seconds"]
        op["exit_code"] = result.exit_code
        op["text"] = text
        ctx.payloads[step.label] = result.payload
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal_s.append(calibrate())

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": peak_rss_mib, "cal_s": cal_s, "ops": ops}
    if tracer is not None:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer.spans)
        out["missing_targets"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
