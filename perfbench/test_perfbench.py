"""Tests of the benchmark itself: its checks reject corrupted documents, its
tracer leaves documents unchanged, and the command prints exactly the
metric names of BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from statepoly import cli  # noqa: E402


def payload_of(argv: list[str]) -> dict:
    result = cli.run_command(argv)
    assert result.exit_code == 0
    return json.loads(result.rendered())["payload"]


@pytest.fixture(scope="module")
def sextic(tmp_path_factory) -> dict:
    """Documents of a small sextic_sweep: the curve, its state polytope at
    m=2, and the two-block chain at m=2."""
    work = tmp_path_factory.mktemp("sextic")
    (work / "param.ideal").write_text(wl.param_text(wl.SEXTIC_FORMS))
    (work / "mirror.ideal").write_text(wl.param_text(wl.MIRROR_FORMS))
    left = payload_of(["implicitize", "--ideal", str(work / "param.ideal")])["generators"]
    right = payload_of(["implicitize", "--ideal", str(work / "mirror.ideal")])["generators"]
    (work / "left.ideal").write_text(wl.ideal_text(wl.names(5), [left]))
    right = [wl.shift_variables(g, 4) for g in right]
    (work / "chain.ideal").write_text(wl.ideal_text(wl.names(9), [left, right], "blocks: 0,4,8"))
    return {
        "state": payload_of(["state", "--ideal", str(work / "left.ideal"), "--m", "2"]),
        "chain": payload_of(["chain-state", "--ideal", str(work / "chain.ideal"), "--m", "2"]),
    }


def chain_problems(state: dict, chain: dict) -> list[str]:
    meta = {"kind": "sextic_chain_state", "m": 2, "left": "left"}
    env = checks.Env(ROOT, 1)
    env.payloads["left"] = state
    return checks.check_op(meta, chain, env)


def shift_first_vertex(payload: dict) -> dict:
    bad = copy.deepcopy(payload)
    bad["polytope"]["vertices"][0][0] += 1
    return bad


def swap_first_witnesses(payload: dict) -> dict:
    bad = copy.deepcopy(payload)
    first, second = sorted(bad["witnesses"])[:2]
    bad["witnesses"][first], bad["witnesses"][second] = (
        bad["witnesses"][second], bad["witnesses"][first])
    return bad


def test_state_check_accepts_and_rejects(sextic):
    state = sextic["state"]
    assert checks.check_state(state, 2, checks.sextic_q(2)) == []
    assert checks.check_state(shift_first_vertex(state), 2, checks.sextic_q(2))
    assert checks.check_state(swap_first_witnesses(state), 2, checks.sextic_q(2))


def test_chain_state_check_accepts_and_rejects(sextic):
    assert chain_problems(sextic["state"], sextic["chain"]) == []
    assert chain_problems(sextic["state"], shift_first_vertex(sextic["chain"]))
    assert chain_problems(sextic["state"], swap_first_witnesses(sextic["chain"]))


def contains_doc(component: int, point) -> tuple[dict, list]:
    path = ROOT / "data" / "bridge" / wl.BRIDGE_COMPONENTS[component]
    doc = payload_of(["contains", "--polytope", str(path), f"--point={wl.vector_arg(point)}"])
    return doc, wl.load_vertices(path)


def test_membership_replay_rejects_flipped_verdict_and_separator():
    vertices = wl.load_vertices(ROOT / "data" / "bridge" / wl.BRIDGE_COMPONENTS[1])
    inside_point = checks.vec([Fraction(a + b, 2) for a, b in zip(vertices[0], vertices[1])])
    outside_point = checks.vec(v + (j == 5) for j, v in enumerate(vertices[0]))
    for point, inside in ((inside_point, True), (outside_point, False)):
        doc, verts = contains_doc(1, point)
        assert doc["inside"] is inside
        assert checks.replay_membership(doc, verts, point) == []
        flipped = dict(doc, inside=not inside)
        assert checks.replay_membership(flipped, verts, point)
    doc, verts = contains_doc(1, outside_point)
    negated = dict(doc, separator=[-h for h in doc["separator"]])
    assert checks.replay_membership(negated, verts, outside_point)


def test_rosary_check_rejects_a_dropped_monomial():
    doc = payload_of(["rosary", "--r", "2", "--what", "check", "--d", "2"])
    assert checks.check_rosary(doc, 2, 2) == []
    bad = copy.deepcopy(doc)
    bad["right_side"] = bad["right_side"][1:]
    assert checks.check_rosary(bad, 2, 2)


def test_inputs_follow_the_seed():
    first = wl.make_inputs("bridge", 1, ROOT)
    assert first == wl.make_inputs("bridge", 1, ROOT)
    assert first["points.json"] != wl.make_inputs("bridge", 2, ROOT)["points.json"]
    assert wl.make_inputs("rosary_state", 1, ROOT) == wl.make_inputs("rosary_state", 2, ROOT)


def test_tracer_wraps_every_binding_and_keeps_documents(tmp_path):
    import statepoly.chains
    import statepoly.groebner

    ideal = tmp_path / "cubic.ideal"
    ideal.write_text("ring: x,y,z\nideal:\nx^2 - y*z\nx*y - z^2\n")
    argv = ["state", "--ideal", str(ideal), "--m", "3"]
    plain = cli.run_command(argv).rendered()
    original = statepoly.groebner.monomial_slice
    tracer = tracing.Tracer().install()
    try:
        assert statepoly.chains.monomial_slice is statepoly.groebner.monomial_slice
        assert statepoly.groebner.monomial_slice is not original
        traced = cli.run_command(argv).rendered()
    finally:
        tracer.uninstall()
    assert statepoly.groebner.monomial_slice is original
    assert tracer.missing == []
    assert traced == plain
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["state.oracle_queries"] > 0
    assert 0 <= layers["state.memo_hit_ratio"] < 1
    assert layers["groebner.gb_runs"] >= layers["state.oracle_queries"] * (1 - layers["state.memo_hit_ratio"])


def test_span_arithmetic():
    spans = [
        ["a", -1, 0.0, 10.0, None],
        ["b", 0, 1.0, 4.0, None],
        ["a", 1, 2.0, 3.0, None],
        ["b", 0, 5.0, 6.0, None],
    ]
    assert tracing.group_time(spans, {"a"}) == 10.0
    assert tracing.group_time(spans, {"b"}) == 4.0
    assert tracing.self_time(spans, "a") == (10.0 - 4.0) + 1.0
    assert tracing.self_time(spans, "b") == (3.0 - 1.0) + 1.0


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rosary_assembly",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] % len(wl.steps_for("rosary_assembly")) == 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
