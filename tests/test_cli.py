"""End-to-end tests of the ``statec`` command line."""

from __future__ import annotations

import argparse
import json
import re
import shlex
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from statepoly import chains, cli, groebner, lp, rosary
from statepoly.chains import tau_vector
from statepoly.cli import (
    COMMANDS,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VALIDATION,
    _digest,
    main,
    run_command,
)
from statepoly.polytope import VPolytope, load_polytope, save_polytope
from statepoly.rings import Polynomial

ROOT = Path(__file__).resolve().parents[1]
DATA = "data/examples"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.ideal"
    path.write_text(
        "ring: x, y, z\nideal:\nx^2 - y*z\nx*y - z^2\n", encoding="utf-8"
    )
    return str(path)


@pytest.fixture
def conic_file(tmp_path):
    path = tmp_path / "conic.ideal"
    path.write_text("ring: x, y, z\nideal: x*z - y^2\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# exit-code families


def test_missing_file_is_a_validation_error(capsys, tmp_path):
    code, out, err = run(capsys, "gb", "--ideal", str(tmp_path / "nope.ideal"))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "error:" in err


def test_parse_error_in_file_is_a_validation_error(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring: x\nideal: x $ y\n", encoding="utf-8")
    code, _, err = run(capsys, "gb", "--ideal", str(bad))
    assert code == EXIT_VALIDATION
    assert "error:" in err


def test_unknown_order_is_a_validation_error(capsys, conic_file):
    code, _, err = run(capsys, "gb", "--ideal", conic_file, "--order", "mystery")
    assert code == EXIT_VALIDATION
    assert "unknown order" in err


def test_valid_matrix_order_matches_its_named_order(capsys, cubic_file):
    _, named = run_json(capsys, "gb", "--ideal", cubic_file, "--order", "grevlex")
    _, matrix = run_json(capsys, "gb", "--ideal", cubic_file, "--order", "1,1,1;0,0,-1;0,-1,0")
    assert matrix["payload"]["basis"] == named["payload"]["basis"]


@pytest.mark.parametrize(
    "rows, problem",
    [("-1,0,0;0,1,0;0,0,1", "not a well-order"), ("1,1,1;0,1,1", "not total")],
)
def test_invalid_matrix_order_is_a_validation_error(capsys, conic_file, rows, problem):
    for form in (("--order", rows), (f"--order={rows}",)):
        code, out, err = run(capsys, "gb", "--ideal", conic_file, *form)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert problem in err
    with pytest.raises(ValueError, match=problem):
        run_command(["gb", "--ideal", conic_file, "--order", rows])


def test_budget_flag_reports_partial_result(capsys, cubic_file):
    code, doc = run_json(
        capsys, "state", "--ideal", cubic_file, "--m", "2", "--budget", "1"
    )
    assert code == EXIT_BUDGET
    assert doc["payload"]["status"] == "budget_exhausted"
    assert doc["payload"]["query_count"] <= 1


def test_budget_env_variable(capsys, cubic_file, monkeypatch):
    monkeypatch.setenv("STATEC_BUDGET", "1")
    code, doc = run_json(capsys, "state", "--ideal", cubic_file, "--m", "2")
    assert code == EXIT_BUDGET
    assert doc["payload"]["status"] == "budget_exhausted"
    monkeypatch.setenv("STATEC_BUDGET", "junk")
    code, _, err = run(capsys, "state", "--ideal", cubic_file, "--m", "2")
    assert code == EXIT_VALIDATION
    assert "STATEC_BUDGET" in err


# ---------------------------------------------------------------------------
# determinism and output plumbing


def test_repeated_runs_are_byte_identical(capsys, cubic_file):
    code1, out1, _ = run(capsys, "state", "--ideal", cubic_file, "--m", "2")
    code2, out2, _ = run(capsys, "state", "--ideal", cubic_file, "--m", "2")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.endswith("\n")


def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, conic_file, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run(
        capsys, "gb", "--ideal", conic_file, "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == "" and err == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["command"] == "gb"


def test_digest_tracks_arguments_and_file_content(capsys, cubic_file, tmp_path):
    _, doc_m2 = run_json(capsys, "state", "--ideal", cubic_file, "--m", "2")
    _, doc_m2_again = run_json(capsys, "state", "--ideal", cubic_file, "--m", "2")
    _, doc_m3 = run_json(capsys, "state", "--ideal", cubic_file, "--m", "3")
    assert doc_m2["input_digest"] == doc_m2_again["input_digest"]
    assert doc_m2["input_digest"] != doc_m3["input_digest"]

    other = tmp_path / "other.ideal"
    other.write_text(
        "ring: x, y, z\nideal:\nx^2 - y*z\nx*y - z^2\n# trailing comment\n",
        encoding="utf-8",
    )
    _, doc_other = run_json(capsys, "state", "--ideal", str(other), "--m", "2")
    assert doc_other["input_digest"] != doc_m2["input_digest"]
    assert doc_other["payload"] == doc_m2["payload"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("tau", "--blocks", "0,2,4", "--m", "3"),
            "7cfec5b0d02c80e98d872e5684460eb7ffcfd4fef48d00b23fc10a8258d48bd9",
        ),
        (
            ("state", "--ideal", f"{DATA}/planecurve.ideal", "--m", "3"),
            "0868d401bc3369671ec356f15b8aeb2fa816f1f341aad76aea045c9fc6379bc8",
        ),
        (
            ("rosary", "--r", "4", "--what", "check", "--d", "2"),
            "a38896cf3df58d3de97101aed21351f1fdb368ecf8be2fb8dbd2fd4c7c17fd32",
        ),
    ],
)
def test_digests_are_pinned(capsys, monkeypatch, argv, digest):
    # each command hashes its listed inputs; these digests predate the list
    monkeypatch.chdir(ROOT)
    _, doc = run_json(capsys, *argv)
    assert doc["input_digest"] == digest


def test_digest_hashes_the_polytope_files_an_ideal_file_lists(capsys, tmp_path):
    (tmp_path / "examples").mkdir()
    shutil.copytree(ROOT / "data" / "bridge", tmp_path / "bridge")
    ideal = tmp_path / "examples" / "bridge_chain.ideal"
    shutil.copy(ROOT / DATA / "bridge_chain.ideal", ideal)
    argv = ("semistable", "--ideal", str(ideal), "--m", "2")
    _, before = run_json(capsys, *argv)
    # the same vertices with one more trailing newline: only the bytes differ
    listed = tmp_path / "bridge" / "elliptic.json"
    listed.write_text(listed.read_text() + "\n")
    _, after = run_json(capsys, *argv)
    assert after["payload"] == before["payload"]
    assert after["input_digest"] != before["input_digest"]
    # a file the ideal file does not list leaves the digest alone
    (tmp_path / "bridge" / "unlisted.json").write_text("{}\n")
    assert run_json(capsys, *argv)[1]["input_digest"] == after["input_digest"]


def test_digest_ignores_options_it_does_not_list():
    args = argparse.Namespace(blocks="0,2,4", m=3, nvars=None)
    plain = _digest("tau", args, [])
    args.verbose = True
    assert _digest("tau", args, []) == plain
    args.m = 4
    assert _digest("tau", args, []) != plain


# ---------------------------------------------------------------------------
# golden runs per subcommand


def test_gb_golden(capsys, tmp_path):
    path = tmp_path / "gb.ideal"
    path.write_text(
        "ring: x, y\nideal:\nx^3 - 2*x*y\nx^2*y - 2*y^2 + x\n", encoding="utf-8"
    )
    code, doc = run_json(capsys, "gb", "--ideal", str(path), "--order", "grlex")
    assert code == EXIT_OK
    assert doc["payload"]["order"] == "grlex"
    assert sorted(doc["payload"]["basis"]) == ["x*y", "x^2", "y^2 - 1/2*x"]
    assert sorted(map(tuple, doc["payload"]["leads"])) == [(0, 2), (1, 1), (2, 0)]
    assert doc["warnings"] == ["input generators are not homogeneous"]


def test_gb_under_a_weight_with_negative_entries(capsys, tmp_path):
    path = tmp_path / "negative.ideal"
    path.write_text(
        "ring: x, y, z\nweights: 0,-3,-1\nideal:\n3*z^2\n2*x*z + y*z\n2*y^3 - 2*y*z^2\n",
        encoding="utf-8",
    )
    code, doc = run_json(capsys, "gb", "--ideal", str(path), "--order", "weight")
    assert code == EXIT_OK
    assert doc["payload"]["leads"] == [[0, 3, 0], [0, 0, 2], [1, 0, 1]]


def test_gb_refuses_inhomogeneous_input_under_a_non_well_order(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a reduction started before the order was checked")

    monkeypatch.setattr(groebner, "_normal_form_int", refuse)
    path = tmp_path / "inhomogeneous.ideal"
    path.write_text("ring: x, y\nweights: -1,-1\nideal:\nx - x^2\ny - x^2\n", encoding="utf-8")
    code, out, err = run(capsys, "gb", "--ideal", str(path), "--order", "weight")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "inhomogeneous generators need a well-order" in err


def test_initial_golden(capsys, cubic_file):
    code, doc = run_json(
        capsys, "initial", "--ideal", cubic_file, "--order", "lex"
    )
    assert code == EXIT_OK
    assert doc["payload"]["order"] == "lex"
    gens = [tuple(m) for m in doc["payload"]["generators"]]
    assert (2, 0, 0) in gens or (1, 1, 0) in gens
    assert doc["warnings"] == []


def test_state_golden(capsys, conic_file):
    code, doc = run_json(capsys, "state", "--ideal", conic_file, "--m", "2")
    assert code == EXIT_OK
    payload = doc["payload"]
    assert payload["status"] == "complete"
    assert payload["m"] == 2
    # the quadric contributes a single degree-two lead, either y^2 or x*z
    assert payload["q"] == 1
    vertices = [tuple(v) for v in payload["polytope"]["vertices"]]
    assert set(vertices) == {(0, 2, 0), (1, 0, 1)}
    assert set(payload["witnesses"]) == {
        ",".join(str(c) for c in v) for v in vertices
    }


def test_intersect_golden(capsys, tmp_path):
    path = tmp_path / "two.ideal"
    path.write_text("ring: x, y\nideal[1]: x\nideal[2]: y\n", encoding="utf-8")
    code, doc = run_json(capsys, "intersect", "--ideal", str(path))
    assert code == EXIT_OK
    assert doc["payload"]["generators"] == ["x*y"]


def test_eliminate_golden(capsys, tmp_path):
    path = tmp_path / "elim.ideal"
    path.write_text(
        "ring: t, x, y\nideal:\nx - t^2\ny - t^3\n", encoding="utf-8"
    )
    code, doc = run_json(capsys, "eliminate", "--ideal", str(path), "--keep", "1,2")
    assert code == EXIT_OK
    assert doc["payload"]["keep"] == [1, 2]
    assert doc["payload"]["generators"] == ["x^3 - y^2"]


def test_intersect_refuses_polytope_sections(capsys, tmp_path):
    save_polytope(tmp_path / "third.json", VPolytope(2, [(1, 0), (0, 1)]))
    path = tmp_path / "three.ideal"
    path.write_text(
        "ring: x, y\nideal[1]: x\nideal[2]: y\npolytope[3]: third.json\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "intersect", "--ideal", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "this command needs ideal sections, not polytope files" in err


def test_eliminate_refuses_coordinates_out_of_range(capsys, conic_file):
    code, out, err = run(capsys, "eliminate", "--ideal", conic_file, "--keep", "7")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "kept coordinates [7] outside 0..2" in err


def test_implicitize_golden(capsys, tmp_path):
    path = tmp_path / "veronese.ideal"
    path.write_text("ring: s, t\nideal:\ns^2\ns*t\nt^2\n", encoding="utf-8")
    code, doc = run_json(capsys, "implicitize", "--ideal", str(path), "--nvars", "3")
    assert code == EXIT_OK
    assert doc["payload"]["variables"] == ["x0", "x1", "x2"]
    assert doc["payload"]["generators"] == ["x1^2 - x0*x2"]


def test_chain_state_golden(capsys):
    code, doc = run_json(
        capsys, "chain-state", "--ideal", f"{DATA}/planecurve_chain.ideal", "--m", "2"
    )
    assert code == EXIT_OK
    payload = doc["payload"]
    assert payload["status"] == "complete"
    assert payload["tau"] == [2, 2, 0, 2, 2]
    assert payload["mixed_monomial_count"] == 4
    assert payload["polytope"]["vertices"]


def test_chain_state_computes_tau_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tau_vector(*args)

    monkeypatch.setattr(chains, "tau_vector", counted)
    monkeypatch.setattr(cli, "tau_vector", counted)
    code, doc = run_json(
        capsys, "chain-state", "--ideal", f"{DATA}/planecurve_chain.ideal", "--m", "2"
    )
    assert code == EXIT_OK
    assert len(calls) == 1
    assert doc["payload"]["tau"] == [2, 2, 0, 2, 2]


@pytest.mark.parametrize(
    "argv", [("chain-state",), ("semistable",), ("hm", "--weights", "1,0,0,0,0")]
)
def test_chain_commands_name_a_section_beyond_the_blocks(capsys, tmp_path, argv):
    path = tmp_path / "stray.ideal"
    path.write_text(CONTRACT_FILES["stray.ideal"], encoding="utf-8")
    code, out, err = run(capsys, argv[0], "--ideal", str(path), "--m", "2", *argv[1:])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "section 3 of the ideal file is not one of the 2 components" in err


def test_chain_state_refuses_non_extreme_stored_point(capsys, tmp_path):
    # (1, 1, 0) is the midpoint of the first component's other two points
    save_polytope(tmp_path / "left.json", VPolytope(3, [(2, 0, 0), (0, 2, 0), (1, 1, 0)]))
    save_polytope(tmp_path / "right.json", VPolytope(3, [(2, 0, 0), (0, 0, 2)]))
    chain = tmp_path / "chain.ideal"
    chain.write_text(
        "ring: a, b, c, d, e\nblocks: 0,2,4\n"
        "polytope[1]: left.json\npolytope[2]: right.json\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "chain-state", "--ideal", str(chain), "--m", "2")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "extremality violated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("state", "--ideal", "CUBIC", "--m", "3"),
        ("chain-state", "--ideal", f"{DATA}/planecurve_chain.ideal", "--m", "2"),
        ("chain-state", "--ideal", f"{DATA}/bridge_chain.ideal", "--m", "2"),
    ],
)
def test_witness_entries_are_ints(capsys, cubic_file, argv):
    argv = [cubic_file if a == "CUBIC" else a for a in argv]
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_OK
    witnesses = doc["payload"]["witnesses"]
    assert witnesses
    assert all(type(w) is int for entry in witnesses.values() for w in entry)


def test_tau_golden(capsys):
    code, doc = run_json(capsys, "tau", "--blocks", "0,1,2,3", "--m", "2")
    assert code == EXIT_OK
    assert doc["payload"]["tau"] == [2, 1, 1, 2]
    assert doc["payload"]["mixed_monomial_count"] == 3

    code, _, err = run(capsys, "tau", "--blocks", "0,1,2,3", "--m", "2", "--nvars", "7")
    assert code == EXIT_VALIDATION
    assert "disagrees" in err


def test_decompose_point_golden(capsys):
    code, doc = run_json(
        capsys,
        "decompose-point",
        "--blocks",
        "0,2,4",
        "--point",
        "1,2,3,2,1",
        "--levels",
        "5,4",
    )
    assert code == EXIT_OK
    assert doc["payload"]["summands"] == [[1, 2, 2, 0, 0], [0, 0, 1, 2, 1]]


def test_contains_golden(capsys, tmp_path):
    code, doc = run_json(
        capsys,
        "contains",
        "--polytope",
        "data/bridge/elliptic.json",
        "--point",
        "0,0,0,0,1,0,3,0,0,0,0,0",
    )
    assert code == EXIT_OK
    assert doc["payload"]["inside"] is True
    assert doc["payload"]["coefficients"] is not None

    code, doc = run_json(
        capsys,
        "contains",
        "--polytope",
        "data/bridge/elliptic.json",
        "--point",
        "0,0,0,0,4,0,0,0,0,0,0,0",
    )
    assert code == EXIT_OK
    assert doc["payload"]["inside"] is False
    assert doc["payload"]["separator"] is not None


def test_semistable_direct_golden(capsys, tmp_path):
    path = tmp_path / "points.ideal"
    path.write_text("ring: x, y\nideal: x*y\n", encoding="utf-8")
    code, doc = run_json(capsys, "semistable", "--ideal", str(path), "--m", "2")
    assert code == EXIT_OK
    payload = doc["payload"]
    assert payload["route"] == "direct"
    assert payload["member_of_hull"] is True
    assert any("slice counts" in w for w in doc["warnings"])


def test_semistable_chain_golden(capsys):
    code, doc = run_json(
        capsys, "semistable", "--ideal", f"{DATA}/planecurve_chain.ideal", "--m", "2"
    )
    assert code == EXIT_OK
    payload = doc["payload"]
    assert payload["route"] == "components"
    assert len(payload["summands"]) == 2
    assert len(payload["components"]) == 2
    assert payload["member_of_hull"] == all(
        entry["inside"] for entry in payload["components"]
    )


def replay_certificate(entry: dict, vertices: list, point: list) -> None:
    """Replay a ``contains``-style certificate with plain ``Fraction``
    arithmetic: convex weights on the sorted vertices, or a strict separator."""
    vertices = sorted({tuple(map(Fraction, v)) for v in vertices})
    point = tuple(map(Fraction, point))
    if entry["inside"]:
        assert entry["separator"] is None
        weights = [Fraction(c) for c in entry["coefficients"]]
        assert len(weights) == len(vertices) and min(weights) >= 0 and sum(weights) == 1
        assert tuple(
            sum(w * v[j] for w, v in zip(weights, vertices)) for j in range(len(point))
        ) == point
    else:
        assert entry["coefficients"] is None
        value = sum(h * x for h, x in zip(entry["separator"], point))
        assert all(sum(h * x for h, x in zip(entry["separator"], v)) < value for v in vertices)


def replay_component_certificates(payload: dict, blocks: list, components: list) -> None:
    """Every component entry of a chain ``semistable`` payload, replayed
    against its ambient-arity vertices restricted to the block."""
    assert len(payload["components"]) == len(components)
    for k, (entry, vertices) in enumerate(zip(payload["components"], components)):
        coords = range(blocks[k], blocks[k + 1] + 1)
        assert entry["index"] == k + 1 and entry["summand"] == payload["summands"][k]
        replay_certificate(
            entry, [[v[j] for j in coords] for v in vertices], [entry["summand"][j] for j in coords]
        )


def test_semistable_chain_renders_component_certificates(capsys):
    code, doc = run_json(
        capsys, "semistable", "--ideal", f"{DATA}/bridge_chain.ideal", "--m", "2"
    )
    assert code == EXIT_OK
    components = [
        json.loads((ROOT / "data" / "bridge" / name).read_text())["vertices"]
        for name in ("w2_left.json", "elliptic.json", "w2_right.json")
    ]
    replay_component_certificates(doc["payload"], [0, 4, 7, 11], components)


def inside_chain(tmp_path) -> tuple[Path, list]:
    """Blocks 0,2,4 and m = 2 split the barycenter into the summands
    (6/5, 6/5, 8/5) and (8/5, 6/5, 6/5) at level 4: the first lies in the
    level-4 simplex of its block, and the second misses the other component,
    whose first block coordinate is at least 2."""
    simplex = [[4, 0, 0, 0, 0], [0, 4, 0, 0, 0], [0, 0, 4, 0, 0]]
    corner = [[0, 0, 4, 0, 0], [0, 0, 2, 2, 0], [0, 0, 2, 0, 2]]
    for name, vertices in (("simplex.json", simplex), ("corner.json", corner)):
        save_polytope(tmp_path / name, VPolytope(5, vertices))
    path = tmp_path / "inside.ideal"
    path.write_text(
        "ring: a,b,c,d,e\nblocks: 0,2,4\npolytope[1]: simplex.json\npolytope[2]: corner.json\n",
        encoding="utf-8",
    )
    return path, [simplex, corner]


def test_semistable_chain_component_inside_certificate(capsys, tmp_path):
    path, components = inside_chain(tmp_path)
    code, doc = run_json(capsys, "semistable", "--ideal", str(path), "--m", "2")
    assert code == EXIT_OK
    payload = doc["payload"]
    assert [entry["inside"] for entry in payload["components"]] == [True, False]
    assert payload["member_of_hull"] is False
    replay_component_certificates(payload, [0, 2, 4], components)


def test_no_command_solves_an_lp(capsys, monkeypatch, tmp_path):
    def refuse(augmented):
        raise AssertionError("a command path solved an LP")

    monkeypatch.setattr(lp, "solve_lp", refuse)
    elliptic = "data/bridge/elliptic.json"
    monkeypatch.chdir(ROOT)
    for point, inside in (("0,0,0,0,1,0,3,0,0,0,0,0", True), ("0,0,0,0,4,0,0,0,0,0,0,0", False)):
        code, doc = run_json(capsys, "contains", "--polytope", elliptic, "--point", point)
        assert code == EXIT_OK and doc["payload"]["inside"] is inside
    code, doc = run_json(capsys, "semistable", "--ideal", f"{DATA}/planecurve.ideal", "--m", "3")
    assert code == EXIT_OK and doc["payload"]["separator"] == [2, 2, 2, -1, 0]
    for ideal in (f"{DATA}/bridge_chain.ideal", str(inside_chain(tmp_path)[0])):
        code, doc = run_json(capsys, "semistable", "--ideal", ideal, "--m", "2")
        assert code == EXIT_OK and doc["payload"]["route"] == "components"
    poly = load_polytope(elliptic)
    assert poly.contains(poly.vertices[0]) and not poly.contains((0,) * 4 + (4,) + (0,) * 7)


def test_hm_direct_golden(capsys, tmp_path):
    path = tmp_path / "points.ideal"
    path.write_text("ring: x, y\nideal: x*y\n", encoding="utf-8")
    code, doc = run_json(
        capsys, "hm", "--ideal", str(path), "--m", "1", "--weights", "1,0"
    )
    assert code == EXIT_OK
    assert doc["payload"]["mu"] == 0
    assert doc["payload"]["p_value"] == 2

    code, _, err = run(capsys, "hm", "--ideal", str(path), "--m", "1")
    assert code == EXIT_VALIDATION
    assert "--weights" in err


def test_hm_chain_golden(capsys):
    code, doc = run_json(
        capsys,
        "hm",
        "--ideal",
        f"{DATA}/planecurve_chain.ideal",
        "--m",
        "2",
        "--weights",
        "1,1,0,0,0",
    )
    assert code == EXIT_OK
    payload = doc["payload"]
    assert "junction_term" in payload
    assert [c["index"] for c in payload["components"]] == [1, 2]


def test_rosary_wtable_csv(capsys):
    code, out, err = run(capsys, "rosary", "--r", "4")
    assert code == EXIT_OK and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "r,w2_closed,w2_rec,w3_closed,w3_rec,agree"
    assert lines[1].startswith("1,6,6,34,34,")
    assert lines[4].startswith("4,248,248,2460,2460,")
    assert len(lines) == 5

    code, doc = run_json(capsys, "rosary", "--r", "2", "--format", "json")
    assert code == EXIT_OK
    assert doc["payload"]["rows"][1]["w2_closed"] == 52


def test_rosary_component_and_check(capsys):
    code, doc = run_json(
        capsys, "rosary", "--r", "2", "--what", "component", "--l", "2"
    )
    assert code == EXIT_OK
    assert len(doc["payload"]["generators"]) == 6

    code, doc = run_json(capsys, "rosary", "--r", "2", "--what", "check", "--d", "2")
    assert code == EXIT_OK
    assert doc["payload"]["ok"] is True
    assert doc["payload"]["missing"] == []
    assert doc["payload"]["extra"] == []

    code, _, err = run(capsys, "rosary", "--r", "2", "--what", "component")
    assert code == EXIT_VALIDATION
    assert "--l" in err


def test_rosary_check_refuses_a_huge_slice_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("slice work started before the size was checked")

    for module in (groebner, rosary):
        monkeypatch.setattr(module, "degree_monomials", refuse)
    monkeypatch.setattr(groebner, "buchberger", refuse)
    code, out, err = run(capsys, "rosary", "--r", "400", "--what", "check", "--d", "3")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "would enumerate 289442201 monomials" in err


def test_state_refuses_a_huge_degree_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("state work started before the degree was checked")

    monkeypatch.setattr(groebner, "_buchberger_int", refuse)
    monkeypatch.setattr(groebner, "degree_monomials", refuse)
    code, out, err = run(capsys, "state", "--ideal", f"{DATA}/planecurve.ideal", "--m", "400")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "would enumerate 1093567501 monomials" in err


def test_huge_power_of_a_sum_is_a_validation_error(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the power was expanded before its size was checked")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    path = tmp_path / "power.ideal"
    path.write_text("ring: x, y, z\nideal: (x+y+z)^200 - x^200\n", encoding="utf-8")
    code, out, err = run(capsys, "gb", "--ideal", str(path))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "could expand to 1373701 monomials" in err


@pytest.mark.parametrize(
    "line, position, message",
    [
        # 7^6000 has 5071 digits; the coefficient would not render
        ("x - 7^6000", 6, "power of a constant has more than 4300 digits"),
        ("x - 7^" + "9" * 5000, 6, "number of 5000 digits (> 4300"),
        ("x^" + "1" * 5000 + " - y", 2, "number of 5000 digits (> 4300"),
        ("x - 1/" + "3" * 5000, 6, "number of 5000 digits (> 4300"),
        # the monomial bound of this power has about 8600 digits
        ("(x + y)^" + "9" * 4300, 8, "could expand to 10^4300 or more monomials"),
    ],
    ids=["constant-power", "constant-exponent", "variable-exponent", "denominator", "sum-power-bound"],
)
def test_huge_numeric_literal_is_a_parse_error(capsys, monkeypatch, tmp_path, line, position, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the constant was powered before its size was checked")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    path = tmp_path / "huge.ideal"
    path.write_text(f"ring: x, y\nideal: {line}\n", encoding="utf-8")
    code, out, err = run(capsys, "gb", "--ideal", str(path))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert message in err
    assert f"(at position {position})" in err
    assert "integer string conversion" not in err


def test_inconsistent_oracle_is_a_validation_error(capsys, tmp_path):
    # an inhomogeneous ideal whose states do not form one polytope
    path = tmp_path / "inconsistent.ideal"
    path.write_text("ring: x, y, z\nideal:\nx^2 - y\nx*z - y^2\n", encoding="utf-8")
    code, out, err = run(capsys, "state", "--ideal", str(path), "--m", "2")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "oracle support fell below a hull facet" in err
    assert "not homogeneous" in err


def test_csv_rejected_for_non_tabular_payload(capsys, conic_file):
    code, _, err = run(capsys, "gb", "--ideal", conic_file, "--format", "csv")
    assert code == EXIT_VALIDATION
    assert "tabular" in err


# ---------------------------------------------------------------------------
# vector options whose value starts with a minus sign


@pytest.mark.parametrize(
    "argv, values",
    [
        (
            ("contains", "--polytope", "data/bridge/elliptic.json"),
            {"--point": "-1,0,0,0,1,0,3,0,0,0,0,1"},
        ),
        (
            ("decompose-point", "--blocks", "0,1,2"),
            {"--point": "-1,2,5", "--levels": "-3,9"},
        ),
        (
            ("hm", "--ideal", f"{DATA}/planecurve_chain.ideal", "--m", "2"),
            {"--weights": "-3,1,1,0,1"},
        ),
    ],
)
def test_vector_options_take_negative_leading_values(capsys, argv, values):
    separate = [token for flag, value in values.items() for token in (flag, value)]
    joined = [f"{flag}={value}" for flag, value in values.items()]
    code, out, err = run(capsys, *argv, *separate)
    assert (code, err) == (EXIT_OK, "")
    assert run(capsys, *argv, *joined) == (EXIT_OK, out, "")


# ---------------------------------------------------------------------------
# the README's examples

# README lines whose ideal files stand for the reader's own input
README_PLACEHOLDERS = {"parametrization.ideal", "some.ideal", "two_sections.ideal"}


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = (line for block in re.findall(r"```sh\n(.*?)```", text, re.S) for line in block.splitlines())
    return [argv[1:] for argv in map(lambda line: shlex.split(line, comments=True), lines)
            if argv and argv[0] == "statec"]


def test_readme_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    commands = readme_commands()
    skipped = [argv for argv in commands if README_PLACEHOLDERS & set(argv)]
    # one line per placeholder is skipped; every other example must run
    assert len(skipped) == len(README_PLACEHOLDERS)
    assert {name for argv in skipped for name in argv} >= README_PLACEHOLDERS
    ran = [argv for argv in commands if argv not in skipped]
    assert len(ran) >= 12  # the examples the README had when this test was written
    for argv in ran:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
        assert out


# ---------------------------------------------------------------------------
# the exit-code contract: an input statec cannot answer exits 2 or 3 with a
# message, never with a traceback

CONTRACT_FILES = {
    "conic.ideal": "ring: x, y, z\nideal: x*z - y^2\n",
    "inconsistent.ideal": "ring: x, y, z\nideal:\nx^2 - y\nx*z - y^2\n",
    "inhomogeneous.ideal": "ring: x, y, z\nideal: x^2 - y\n",
    "zero.ideal": "ring: x, y, z\nideal: 0\n",
    "unit.ideal": "ring: x, y, z\nideal: 1\n",
    "bad_blocks.ideal": "ring: a, b, c, d, e\nblocks: 0,3,2\nideal[1]: a*c - b^2\nideal[2]: c*e - d^2\n",
    "missing.ideal": "ring: a, b, c, d, e\nblocks: 0,2,4\nideal[1]: a*c - b^2\n",
    "stray.ideal": "ring: a, b, c, d, e\nblocks: 0,2,4\nideal[1]: a*c - b^2\nideal[2]: c*e - d^2\nideal[3]: a*e\n",
    "stray_polytope.ideal": "ring: a, b, c, d, e\nblocks: 0,2,4\nideal[1]: a*c - b^2\nideal[2]: c*e - d^2\npolytope[0]: wide.json\n",
    "wrong_arity.ideal": "ring: a, b, c, d, e\nblocks: 0,2,6\nideal[1]: a*c - b^2\nideal[2]: c*e - d^2\n",
    "ragged_chain.ideal": "ring: a, b, c, d, e\nblocks: 0,2,4\npolytope[1]: ragged.json\nideal[2]: c*e - d^2\n",
    "nonjson_chain.ideal": "ring: a, b, c, d, e\nblocks: 0,2,4\npolytope[1]: nonjson.json\nideal[2]: c*e - d^2\n",
    "wide_chain.ideal": "ring: a, b, c, d, e\nblocks: 0,2,4\npolytope[1]: wide.json\nideal[2]: c*e - d^2\n",
    "sections.ideal": "ring: x, y, z\nideal[1]: x\nideal[2]: y\npolytope[3]: wide.json\n",
    "gaps.ideal": "ring: x, y\nideal[1]: x\nideal[3]: y\n",
    "ragged.json": '{"dim": 2, "vertices": [[1, 1], [2]]}\n',
    "nonjson.json": "not json\n",
    "wide.json": '{"dim": 4, "vertices": [[1, 1, 0, 0], [2, 0, 0, 0]]}\n',
}

# (argv with file names, STATEC_BUDGET or None, expected exit code)
CONTRACT_CASES = [
    (("gb", "--ideal", "zero.ideal"), None, EXIT_OK),
    (("gb", "--ideal", "unit.ideal"), None, EXIT_OK),
    (("gb", "--ideal", "nope.ideal"), None, EXIT_VALIDATION),
    (("gb",), None, EXIT_VALIDATION),
    (("initial", "--ideal", "inhomogeneous.ideal", "--order", "lex"), None, EXIT_OK),
    (("state", "--ideal", "inconsistent.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("state", "--ideal", "inhomogeneous.ideal", "--m", "2"), None, EXIT_OK),
    (("state", "--ideal", "zero.ideal", "--m", "2"), None, EXIT_OK),
    (("state", "--ideal", "unit.ideal", "--m", "2"), None, EXIT_OK),
    (("state", "--ideal", "conic.ideal", "--m", "0"), None, EXIT_VALIDATION),
    (("state", "--ideal", "conic.ideal", "--m", "2", "--budget", "-1"), None, EXIT_VALIDATION),
    (("state", "--ideal", "conic.ideal", "--m", "2", "--budget", "0"), None, EXIT_BUDGET),
    (("state", "--ideal", "conic.ideal", "--m", "2"), "-1", EXIT_VALIDATION),
    (("state", "--ideal", "conic.ideal", "--m", "2"), "abc", EXIT_VALIDATION),
    (("state", "--ideal", "conic.ideal", "--m", "two"), None, EXIT_VALIDATION),
    (("intersect", "--ideal", "sections.ideal"), None, EXIT_VALIDATION),
    (("intersect", "--ideal", "conic.ideal"), None, EXIT_VALIDATION),
    (("intersect", "--ideal", "gaps.ideal"), None, EXIT_OK),
    (("eliminate", "--ideal", "conic.ideal", "--keep", "7"), None, EXIT_VALIDATION),
    (("eliminate", "--ideal", "conic.ideal", "--keep", "-1"), None, EXIT_VALIDATION),
    (("implicitize", "--ideal", "zero.ideal"), None, EXIT_OK),
    (("implicitize", "--ideal", "conic.ideal", "--nvars", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "bad_blocks.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "missing.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "wrong_arity.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "ragged_chain.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "nonjson_chain.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "wide_chain.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "conic.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "missing.ideal", "--m", "0"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "stray.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "stray_polytope.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("tau", "--blocks", "0,3,2", "--m", "2"), None, EXIT_VALIDATION),
    (("tau", "--blocks", "0,2,4", "--m", "0"), None, EXIT_VALIDATION),
    (("tau", "--blocks", "0,2,4", "--m", "2", "--nvars", "4"), None, EXIT_VALIDATION),
    (("decompose-point", "--blocks", "0,1,2", "--point", "1,2", "--levels", "1,2"), None, EXIT_VALIDATION),
    (("decompose-point", "--blocks", "0,1,2", "--point", "1,2,3", "--levels", "1,2"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "ragged.json", "--point", "1,1"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "nonjson.json", "--point", "1,1"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "nope.json", "--point", "1,1"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "wide.json", "--point", "1,1"), None, EXIT_VALIDATION),
    (("semistable", "--ideal", "inconsistent.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("semistable", "--ideal", "zero.ideal", "--m", "2"), None, EXIT_OK),
    (("semistable", "--ideal", "unit.ideal", "--m", "2"), None, EXIT_OK),
    (("semistable", "--ideal", "conic.ideal", "--m", "0"), None, EXIT_VALIDATION),
    (("semistable", "--ideal", "bad_blocks.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("semistable", "--ideal", "wrong_arity.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("hm", "--ideal", "conic.ideal", "--m", "0", "--weights", "1,0,0"), None, EXIT_OK),
    (("hm", "--ideal", "unit.ideal", "--m", "2", "--weights", "1,0,0"), None, EXIT_OK),
    (("hm", "--ideal", "conic.ideal", "--m", "2", "--weights", "1,0"), None, EXIT_VALIDATION),
    (("hm", "--ideal", "conic.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("hm", "--ideal", "bad_blocks.ideal", "--m", "2", "--weights", "1,0,0,0,0"), None, EXIT_VALIDATION),
    (("semistable", "--ideal", "missing.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("semistable", "--ideal", "stray.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("hm", "--ideal", "missing.ideal", "--m", "2", "--weights", "1,0,0,0,0"), None, EXIT_VALIDATION),
    (("hm", "--ideal", "stray.ideal", "--m", "2", "--weights", "1,0,0,0,0"), None, EXIT_VALIDATION),
    (("rosary", "--r", "0"), None, EXIT_VALIDATION),
    (("rosary", "--r", "2", "--what", "component", "--l", "9"), None, EXIT_VALIDATION),
    (("rosary", "--r", "2", "--what", "check", "--d", "0"), None, EXIT_VALIDATION),
    (("rosary", "--r", "2", "--what", "mystery"), None, EXIT_VALIDATION),
]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("contract")
    for name, text in CONTRACT_FILES.items():
        (base / name).write_text(text, encoding="utf-8")
    return base


def test_contract_corpus_covers_every_command():
    assert {argv[0] for argv, _, _ in CONTRACT_CASES} == set(COMMANDS)


@pytest.mark.parametrize(
    "argv, budget, expected",
    CONTRACT_CASES,
    ids=[" ".join(argv) + (f" STATEC_BUDGET={b}" if b else "") for argv, b, _ in CONTRACT_CASES],
)
def test_exit_code_contract(capsys, monkeypatch, contract_dir, argv, budget, expected):
    monkeypatch.chdir(contract_dir)
    monkeypatch.delenv("STATEC_BUDGET", raising=False)
    if budget is not None:
        monkeypatch.setenv("STATEC_BUDGET", budget)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses the command line itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == expected, err
    assert "Traceback" not in err
    if code == EXIT_VALIDATION:
        assert out == ""
        assert err.startswith(("error: ", "usage: "))
