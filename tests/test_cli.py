"""End-to-end tests of the ``statec`` command line."""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from statepoly import chains, cli, groebner, lp, polytope, rosary
from statepoly.chains import tau_vector
from statepoly.cli import (
    COMMANDS,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VALIDATION,
    OPTIONS,
    _build_parser,
    _digest,
    main,
    run_command,
)
from statepoly.parsing import format_polynomial, format_rational, render_json
from statepoly.polytope import VPolytope, load_polytope, save_polytope
from statepoly.rings import Polynomial

from conftest import assert_same_text, sextic_ideal

ROOT = Path(__file__).resolve().parents[1]
DATA = "data/examples"


@pytest.fixture(autouse=True)
def rendered_documents(monkeypatch) -> list[str]:
    """Every document rendered in this module is also written by the json
    module, and the two texts must be equal."""
    texts: list[str] = []

    def checked(value) -> str:
        text = render_json(value)
        assert_same_text(text, json.dumps(value, indent=2, sort_keys=True))
        texts.append(text)
        return text

    monkeypatch.setattr(cli, "render_json", checked)
    return texts


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


@pytest.mark.parametrize("command", ["chain-state", "semistable"])
def test_chain_budget_exhaustion_exits_with_the_budget_code(capsys, command):
    # a chain has no partial result: the exhausted component ends the command
    code, out, err = run(
        capsys, command, "--ideal", f"{DATA}/planecurve_chain.ideal", "--m", "2", "--budget", "1"
    )
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "error: Groebner-run budget of 1 exhausted\n"


@pytest.mark.parametrize("command", ["chain-state", "semistable"])
def test_a_reused_chain_component_spends_no_budget(capsys, monkeypatch, tmp_path, command):
    # at m=4 the sextic takes 61 queries and its mirror, enumerated on its
    # own, 62; the chain enumerates the sextic and reuses its polytope for
    # the mirror, so a budget of 61 completes and 60 does not
    (tmp_path / "sextic_chain.ideal").write_text(BASIS_INPUTS["sextic_chain.ideal"], encoding="utf-8")
    (tmp_path / "mirror.ideal").write_text(
        "ring: x0, x1, x2, x3, x4\nideal:\nx3^2 - x2*x4\nx2*x3 - x0*x4\nx2^2 - x0*x3\nx1^2 - x0*x2\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    code, doc = run_json(capsys, "state", "--ideal", "mirror.ideal", "--m", "4", "--budget", "61")
    assert (code, doc["payload"]["status"]) == (EXIT_BUDGET, "budget_exhausted")
    code, doc = run_json(capsys, command, "--ideal", "sextic_chain.ideal", "--m", "4", "--budget", "61")
    assert code == EXIT_OK
    if command == "chain-state":
        assert doc["payload"]["query_count"] == 61
    code, out, err = run(capsys, command, "--ideal", "sextic_chain.ideal", "--m", "4", "--budget", "60")
    assert (code, out, err) == (EXIT_BUDGET, "", "error: Groebner-run budget of 60 exhausted\n")


def test_direct_semistable_budget_exhaustion_returns_the_partial_state(capsys, cubic_file):
    code, doc = run_json(capsys, "semistable", "--ideal", cubic_file, "--m", "2", "--budget", "1")
    assert code == EXIT_BUDGET
    assert doc["payload"]["status"] == "budget_exhausted"
    assert doc["payload"]["query_count"] == 1


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


# ---------------------------------------------------------------------------
# the payload bytes of commands that read a reduced basis


def rosary_sections(r: int) -> list[list[str]]:
    """The components of the genus-``r`` rosary in ``x0..x{3r}``: the end
    conics, the six quadrics of each middle component on ``x{3l-5}..x{3l-1}``,
    and for each component the coordinates outside its span."""
    n = 3 * r
    components = [["x0*x2 - x1^2"]]
    for l in range(2, r + 1):
        a, b, c, d, e = (f"x{3 * l - 5 + i}" for i in range(5))
        components.append([
            f"{d}^2 - {c}*{e}", f"{c}*{d} - {a}*{e}", f"{a}*{d} - {b}*{e}",
            f"{c}^2 - {b}*{e}", f"{a}*{c} - {b}*{d}", f"{a}^2 - {b}*{c}",
        ])
    components.append([f"x{n - 2}^2 - x{n - 1}*x{n}"])
    sections = []
    for l, gens in enumerate(components, start=1):
        span = range(max(0, 3 * l - 5), min(n, 3 * l - 1) + 1)
        sections.append(gens + [f"x{j}" for j in range(n + 1) if j not in span])
    return sections


def rosary_text(r: int, sections: list[list[str]]) -> str:
    lines = ["ring: " + ", ".join(f"x{i}" for i in range(3 * r + 1))]
    for k, gens in enumerate(sections, start=1):
        lines += [f"ideal[{k}]:" if len(sections) > 1 else "ideal:", *gens]
    return "\n".join(lines) + "\n"


BASIS_INPUTS = {
    "rosary2.ideal": rosary_text(2, rosary_sections(2)),
    "rosary3.ideal": rosary_text(3, rosary_sections(3)),
    "sextic_param.ideal": "ring: s, t\nideal:\ns^6\ns^4*t^2\ns^2*t^4\ns*t^5\nt^6\n",
    # the component generators of the genus-2 rosary in one ideal
    "rosary2_sum.ideal": rosary_text(
        2, [[g for section in rosary_sections(2) for g in section if " - " in g]]
    ),
    # the sextic, the genus-2 rosary and the sextic chain on blocks 0,4,8
    # (the sextic and its mirror), with the chain's assembled ideal, as
    # ``implicitize`` and ``intersect`` print them
    "sextic.ideal": "ring: x0, x1, x2, x3, x4\nideal:\n"
    "x3^2 - x2*x4\nx2^2 - x1*x4\nx1*x2 - x0*x4\nx1^2 - x0*x2\n",
    "rosary2_state.ideal": "ring: " + ", ".join(f"x{i}" for i in range(7)) + "\nideal:\n"
    "x3*x6\nx2*x6\nx1*x6\nx0*x6\nx0*x5\nx4^2 - x3*x5 - x5*x6\nx3*x4 - x1*x5\n"
    "x1*x4 - x2*x5\nx0*x4\nx3^2 - x2*x5\nx1*x3 - x2*x4\nx0*x3\nx1^2 - x0*x2 - x2*x3\n",
    "sextic_chain.ideal": "ring: " + ", ".join(f"x{i}" for i in range(9)) + "\nblocks: 0,4,8\n"
    "ideal[1]:\nx3^2 - x2*x4\nx2^2 - x1*x4\nx1*x2 - x0*x4\nx1^2 - x0*x2\n"
    "ideal[2]:\nx7^2 - x6*x8\nx6*x7 - x4*x8\nx6^2 - x4*x7\nx5^2 - x4*x6\n",
    "sextic_chain_assembled.ideal": "ring: " + ", ".join(f"x{i}" for i in range(9))
    + "\nideal:\n" + "\n".join(
        [f"x{i}*x{j}" for j in (8, 7, 6, 5) for i in range(4)]
        + ["x7^2 - x6*x8", "x6*x7 - x4*x8", "x6^2 - x4*x7", "x5^2 - x4*x6",
           "x3^2 - x2*x4", "x2^2 - x1*x4", "x1*x2 - x0*x4", "x1^2 - x0*x2"]
    ) + "\n",
}

# the benchmark's seed-1 weights for the sextic chain's Hilbert-Mumford index
SEXTIC_CHAIN_WEIGHTS = "--weights=-3,4,8,7,7,-4,-1,-4,2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("intersect", "--ideal", "rosary2.ideal"),
            "4e4d0141ea0239ec3e526fe2a19ae0f0c4518c9488a090bbd440d823079280f7",
        ),
        (
            ("intersect", "--ideal", "rosary3.ideal"),
            "2cd6f42a800620b15d335d6fcc72514cd0ec6fe2c5a458b15ef00e32b46f36c8",
        ),
        (
            ("implicitize", "--ideal", "sextic_param.ideal", "--nvars", "5"),
            "b26557c3333193cc95aa09f1909ba1f2809dd936e2fc70413c9b39a0a399d27a",
        ),
        (
            ("rosary", "--r", "4", "--what", "check", "--d", "2"),
            "79a6642f4385188a7be35f4c3bb3b20cb978c5ed401988bcec10d9eb84c3f120",
        ),
        (
            ("rosary", "--r", "4", "--what", "check", "--d", "3"),
            "6186b1ecb68a03cac3c7512379132fcd9036710710783077bd727e580f0cebe6",
        ),
        (
            ("rosary", "--r", "3", "--what", "check", "--d", "3"),
            "4fe1f679830bc0393333b944739f03419a37f5250f2315ba849c134ef1e196bf",
        ),
        (
            ("rosary", "--r", "5", "--what", "check", "--d", "2"),
            "e4a9add833b34dcdf4410e9af0020c1476a04782766e9fb7e906692edb85527f",
        ),
        (
            ("rosary", "--r", "5", "--what", "check", "--d", "3"),
            "d215015810d51406ee889760212d3d8dbca96c67e289387dc82e5d0e2cb6e015",
        ),
        (
            ("gb", "--ideal", str(ROOT / DATA / "planecurve.ideal"), "--order", "lex"),
            "da4e66fed308b8c3ff5a76266c9db13bf95fffdeb9d5f768e505fb37c66ddd3e",
        ),
        (
            ("eliminate", "--ideal", "rosary2_sum.ideal", "--keep", "2,3,4,5,6"),
            "466e782d24047eb0d04224c10b90a60df5a4f423a8dd96341391a09f8e671d33",
        ),
        # the commands that read degree-m slices
        *(
            (("state", "--ideal", "sextic.ideal", "--m", str(m)), digest)
            for m, digest in (
                (2, "62fab161a46bfcf3bf96afef1c0eb5c80a53e70d6989a7efc34c41eeac52c691"),
                (4, "7feb791a4f2461b8063339d76f60d2c6e5c655643f73a6250842f25693f3d625"),
                (6, "9efa92bf27395445aff4ae9de98f48366a77a1e6b5a8a577ab7ed81b8818a293"),
                (12, "d1bce76a0565c18904bc2ec30532ea886210f26deac821a88737d6d082935f49"),
            )
        ),
        (
            ("state", "--ideal", "rosary2_state.ideal", "--m", "2"),
            "19707e74fd4a75374b94d165188edcc81f26b311ab347ffe5223209bff331f56",
        ),
        (
            ("hm", "--ideal", "sextic_chain_assembled.ideal", "--m", "6", SEXTIC_CHAIN_WEIGHTS),
            "75694718d78bbdecdac7bb5d533cc8a3decfe201398e42117bdd90f5aa88cb88",
        ),
        (
            ("hm", "--ideal", "sextic_chain.ideal", "--m", "6", SEXTIC_CHAIN_WEIGHTS),
            "87a104042ef83d909a122805fd9adc2d50268499a2660102ef8e45dd820c99fa",
        ),
        (
            ("tau", "--blocks", "0,4,8", "--m", "6"),
            "b9452af1c9045ae284fc0ec263738d78e8b8085da6f8383fb041fdd9faf2bdd8",
        ),
        (
            ("chain-state", "--ideal", "sextic_chain.ideal", "--m", "2"),
            "2e7ef420e398a03d7c3f987a17632c5a71324c783968eb576af86c5aeb4e18c2",
        ),
        (
            ("semistable", "--ideal", "sextic_chain.ideal", "--m", "6"),
            "b9ba4a1f2c41f3e1266011124355d33e8f4b508efc07efc6a9832f26b74bc367",
        ),
    ],
    ids=[
        "intersect rosary2", "intersect rosary3", "implicitize sextic", "rosary check d2",
        "rosary check d3", "rosary3 check d3", "rosary5 check d2", "rosary5 check d3",
        "gb lex planecurve", "eliminate rosary2",
        "state sextic m2", "state sextic m4", "state sextic m6", "state sextic m12",
        "state rosary2 m2", "hm direct sextic chain", "hm decomposed sextic chain",
        "tau sextic chain", "chain-state sextic chain", "semistable sextic chain m6",
    ],
)
def test_basis_payload_bytes_are_pinned(capsys, monkeypatch, tmp_path, argv, digest):
    # the payload, not the document: the input digest hashes the file paths
    for name, text in BASIS_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(render_json(doc["payload"]).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the reduced basis is unique: a change of generators that keeps the ideal
# keeps every document read from it, byte for byte but the input digest

# (ring, generators, m for ``state``): the sextic (s^6 : s^4t^2 : s^2t^4 :
# st^5 : t^6) as ``implicitize`` prints it, and the middle component of the
# genus-2 rosary
SAME_IDEAL_INPUTS = {
    "sextic": ("x0, x1, x2, x3, x4", ("x3^2 - x2*x4", "x2^2 - x1*x4", "x1*x2 - x0*x4", "x1^2 - x0*x2"), "4"),
    "rosary_component": (
        "a, b, c, d, e",
        ("d^2 - c*e", "c*d - a*e", "a*d - b*e", "c^2 - b*e", "a*c - b*d", "a^2 - b*c"),
        "3",
    ),
}


def _nonzero_rational(rng: random.Random) -> str:
    return f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"


def shuffle_generators(gens: list[str], rng: random.Random) -> list[str]:
    rng.shuffle(gens)
    return gens


def scale_one_generator(gens: list[str], rng: random.Random) -> list[str]:
    i = rng.randrange(len(gens))
    gens[i] = f"({_nonzero_rational(rng)})*({gens[i]})"
    return gens


def add_a_combination(gens: list[str], rng: random.Random) -> list[str]:
    f, g = rng.sample(gens, 2)
    gens.insert(rng.randrange(len(gens) + 1), f"({f}) + ({_nonzero_rational(rng)})*({g})")
    return gens


@pytest.mark.parametrize("change", [shuffle_generators, scale_one_generator, add_a_combination])
@pytest.mark.parametrize("name", sorted(SAME_IDEAL_INPUTS))
def test_generators_of_the_same_ideal_give_the_same_payloads(capsys, tmp_path, name, change):
    ring, gens, m = SAME_IDEAL_INPUTS[name]
    commands = (("gb",), ("initial",), ("eliminate", "--keep", "1,2,3,4"), ("state", "--m", m))

    def payloads(generators: list[str]) -> list[str]:
        path = tmp_path / "same.ideal"
        path.write_text(f"ring: {ring}\nideal:\n" + "\n".join(generators) + "\n", encoding="utf-8")
        texts = []
        for command, *options in commands:
            code, doc = run_json(capsys, command, "--ideal", str(path), *options)
            assert code == EXIT_OK
            # the whole document but the input digest, which hashes the file
            del doc["input_digest"]
            texts.append(render_json(doc))
        return texts

    expected = payloads(list(gens))
    for seed in range(3):
        changed = change(list(gens), random.Random(seed))
        assert payloads(changed) == expected, changed


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


# ---------------------------------------------------------------------------
# a chain does not depend on the order of each block's interior coordinates:
# permuting them (junctions fixed) permutes the chain-state vertices and
# witnesses and keeps tau, q and the semistable verdict


def interior_permutation(blocks: tuple[int, ...], rng: random.Random) -> list[int]:
    """``perm[j]``, the new place of coordinate ``j``: each block's coordinates
    other than the junctions are shuffled among themselves."""
    junctions = set(blocks[1:-1])
    perm = list(range(blocks[-1] + 1))
    for lo, hi in zip(blocks, blocks[1:]):
        inner = [j for j in range(lo, hi + 1) if j not in junctions]
        for j, k in zip(inner, rng.sample(inner, len(inner))):
            perm[j] = k
    return perm


def permuted(values: list, perm: list[int]) -> list:
    out = [None] * len(values)
    for j, value in enumerate(values):
        out[perm[j]] = value
    return out


def bridge_chain_file(tmp_path: Path, perm: list[int]) -> Path:
    # the stored component polytopes are given at the ambient arity
    lines = ["ring: " + ",".join(f"x{j}" for j in range(12)), "blocks: 0,4,7,11"]
    for i, name in enumerate(("w2_left", "elliptic", "w2_right")):
        poly = load_polytope(ROOT / "data" / "bridge" / f"{name}.json")
        save_polytope(tmp_path / f"{name}.json", VPolytope(12, [permuted(list(v), perm) for v in poly.vertices]))
        lines.append(f"polytope[{i + 1}]: {name}.json")
    path = tmp_path / "bridge.ideal"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sextic_chain_file(tmp_path: Path, perm: list[int]) -> Path:
    # the sextic on x0..x4 and its mirror, the sextic with reversed
    # variables, shifted onto x4..x8
    names = [f"x{k}" for k in perm]
    left = [format_polynomial(g, names[:5]) for g in sextic_ideal().generators]
    right = [format_polynomial(g, names[8:3:-1]) for g in sextic_ideal().generators]
    path = tmp_path / "sextic.ideal"
    path.write_text(
        "ring: " + ",".join(f"x{j}" for j in range(9)) + "\nblocks: 0,4,8\n"
        + "ideal[1]:\n" + "\n".join(left) + "\nideal[2]:\n" + "\n".join(right) + "\n",
        encoding="utf-8",
    )
    return path


# A component witness is a sum of facet normals lifted from the pivot
# coordinates of the component's affine hull, so a permutation may change it
# by a multiple of an equation of that hull.  Each bridge component hull has
# one equation on its block, the coordinate sum: the splice absorbs a change along it in a
# later block, and in the first block the permutation never moves the one
# coordinate off the pivots, its junction.  The sextic's component hulls have
# a second equation, and a change along it survives the splice, so there the
# permuted witnesses are checked as strict witnesses of the permuted vertices.
@pytest.mark.parametrize(
    "chain_file, blocks, state_m, semistable_m, exact_witnesses",
    [(bridge_chain_file, (0, 4, 7, 11), "2", "2", True), (sextic_chain_file, (0, 4, 8), "2", "6", False)],
    ids=["bridge", "sextic chain"],
)
def test_permuting_block_interiors_permutes_the_chain(
    capsys, tmp_path, chain_file, blocks, state_m, semistable_m, exact_witnesses
):
    def documents(perm):
        path = chain_file(tmp_path, perm)
        code, state_doc = run_json(capsys, "chain-state", "--ideal", str(path), "--m", state_m)
        assert code == EXIT_OK
        code, semistable_doc = run_json(capsys, "semistable", "--ideal", str(path), "--m", semistable_m)
        assert code == EXIT_OK
        return state_doc["payload"], semistable_doc["payload"]

    state, semistable = documents(list(range(blocks[-1] + 1)))
    rng = random.Random(len(blocks))
    for _ in range(2):
        perm = interior_permutation(blocks, rng)
        assert perm != sorted(perm)
        got_state, got_semistable = documents(perm)
        for key in ("m", "q", "tau", "mixed_monomial_count", "status"):
            assert got_state[key] == state[key], key
        assert sorted(got_state["polytope"]["vertices"]) == sorted(
            permuted(v, perm) for v in state["polytope"]["vertices"]
        )
        witnesses = {
            ",".join(permuted(key.split(","), perm)): permuted(w, perm)
            for key, w in state["witnesses"].items()
        }
        if exact_witnesses:
            assert got_state["witnesses"] == witnesses
        else:
            assert got_state["witnesses"].keys() == witnesses.keys()
            points = {key: [Fraction(x) for x in key.split(",")] for key in witnesses}
            for key, w in got_state["witnesses"].items():
                top = sum(map(operator.mul, w, points[key]))
                assert all(sum(map(operator.mul, w, p)) < top for k, p in points.items() if k != key)
        for key in ("q", "tau", "levels", "member_of_hull"):
            assert got_semistable[key] == semistable[key], key
        assert [c["inside"] for c in got_semistable["components"]] == [
            c["inside"] for c in semistable["components"]
        ]
        assert got_semistable["summands"] == [permuted(s, perm) for s in semistable["summands"]]


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


def test_tau_refuses_a_huge_degree_before_enumerating(capsys, monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("the staircase walk ran")

    # tau_vector reads groebner.slice_state, which walks by groebner.standard_sums
    monkeypatch.setattr(groebner, "standard_sums", enumerate_nothing)
    code, out, err = run(capsys, "tau", "--blocks", "0,2,4", "--m", "10000")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "degree slice would enumerate" in err


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

# stored polytopes of the wrong shape, each read by `contains` and as a
# chain's `polytope[1]:` file
MALFORMED_POLYTOPES = {
    "flat_vertices": '{"vertices": [1, 2]}\n',
    "number_vertices": '{"vertices": 5}\n',
    "list_dim": '{"dim": [3], "vertices": [[1, 1, 0]]}\n',
    "float_dim": '{"dim": 3.5, "vertices": [[1, 1, 0], [2, 0, 0]]}\n',
    # a coordinate that is not an integer or a 'p/q' string
    "bool_coordinate": '{"dim": 3, "vertices": [[true, 1, 0], [2, 0, 0]]}\n',
    "float_coordinate": '{"dim": 3, "vertices": [[1.5, 1, 0], [2, 0, 0]]}\n',
}

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
    # a repeated header is refused even when its second value alone would do
    "twice_blocks.ideal": "ring: a, b, c, d, e\nblocks: 0,3,2\nblocks: 0,2,4\nideal[1]: a*c - b^2\nideal[2]: c*e - d^2\n",
    "twice_weights.ideal": "ring: x, y, z\nweights: 1,2,3\nweights: 3,2,1\nideal: x*z - y^2\n",
    "twice_polytope.ideal": "ring: a, b, c, d, e\nblocks: 0,2,4\npolytope[1]: wide.json\npolytope: conic.json\nideal[2]: c*e - d^2\n",
    "conic.json": '{"dim": 3, "vertices": [[0, 2, 0], [1, 0, 1]]}\n',
    # reduced bases with the coefficients 1/7^6000 (5,071 digits) and 7^5600
    # (4,733 digits), past the integer string limit of 4,300
    "big_coefficient.ideal": "ring: x, y\nideal: (7*x)^6000 - y^6000\n",
    "big_product.ideal": "ring: x\nideal: x - 7^1400*7^1400*7^1400*7^1400\n",
    # under the monomial bound, but about 1.9 million term products to expand
    "slow_power.ideal": "ring: x, y, z\nideal: (x+y+z)^100 - x^100\n",
    # each power admitted, their product about 1.3 million term products
    "slow_product.ideal": "ring: x, y, z\nideal: (x+y+z)^46*(x+y+z)^46\n",
    "ragged.json": '{"dim": 2, "vertices": [[1, 1], [2]]}\n',
    "nonjson.json": "not json\n",
    "wide.json": '{"dim": 4, "vertices": [[1, 1, 0, 0], [2, 0, 0, 0]]}\n',
    # one power admitted, the text's next power of a sum passes the budget
    "summed_powers.ideal": "ring: x, y, z\nideal: " + " + ".join(["(x+y+z)^46"] * 4) + "\n",
    "power_product.ideal": "ring: x, y, z\nideal: (x+y+z)^46*(x+y+z)^46\n",
    **{f"{name}.json": text for name, text in MALFORMED_POLYTOPES.items()},
    **{
        f"{name}_chain.ideal": (
            f"ring: a, b, c, d, e\nblocks: 0,2,4\npolytope[1]: {name}.json\nideal[2]: c*e - d^2\n"
        )
        for name in MALFORMED_POLYTOPES
    },
}

# (argv with file names, STATEC_BUDGET or None, expected exit code)
CONTRACT_CASES = [
    (("gb", "--ideal", "zero.ideal"), None, EXIT_OK),
    (("gb", "--ideal", "unit.ideal"), None, EXIT_OK),
    (("gb", "--ideal", "nope.ideal"), None, EXIT_VALIDATION),
    (("gb",), None, EXIT_VALIDATION),
    (("gb", "--ideal", "big_coefficient.ideal"), None, EXIT_VALIDATION),
    (("gb", "--ideal", "big_product.ideal"), None, EXIT_VALIDATION),
    (("gb", "--ideal", "slow_power.ideal"), None, EXIT_VALIDATION),
    (("gb", "--ideal", "slow_product.ideal"), None, EXIT_VALIDATION),
    (("gb", "--ideal", "summed_powers.ideal"), None, EXIT_VALIDATION),
    (("gb", "--ideal", "power_product.ideal"), None, EXIT_VALIDATION),
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
    (("chain-state", "--ideal", "twice_blocks.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("chain-state", "--ideal", "twice_polytope.ideal", "--m", "2"), None, EXIT_VALIDATION),
    (("tau", "--blocks", "0,3,2", "--m", "2"), None, EXIT_VALIDATION),
    (("tau", "--blocks", "0,2,4", "--m", "0"), None, EXIT_VALIDATION),
    (("tau", "--blocks", "0,2,4", "--m", "2", "--nvars", "4"), None, EXIT_VALIDATION),
    (("decompose-point", "--blocks", "0,1,2", "--point", "1,2", "--levels", "1,2"), None, EXIT_VALIDATION),
    (("decompose-point", "--blocks", "0,1,2", "--point", "1,2,3", "--levels", "1,2"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "ragged.json", "--point", "1,1"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "nonjson.json", "--point", "1,1"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "nope.json", "--point", "1,1"), None, EXIT_VALIDATION),
    (("contains", "--polytope", "wide.json", "--point", "1,1"), None, EXIT_VALIDATION),
    *(
        (("contains", "--polytope", f"{name}.json", "--point", "1,1,0"), None, EXIT_VALIDATION)
        for name in MALFORMED_POLYTOPES
    ),
    *(
        (("chain-state", "--ideal", f"{name}_chain.ideal", "--m", "2"), None, EXIT_VALIDATION)
        for name in MALFORMED_POLYTOPES
    ),
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
    (("hm", "--ideal", "twice_weights.ideal", "--m", "2"), None, EXIT_VALIDATION),
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


@pytest.mark.parametrize(
    "name, message",
    [("bool_coordinate", "expected a number, got True"),
     ("float_coordinate", "expected an integer or 'p/q' string, got 1.5")],
)
def test_a_stored_coordinate_that_is_not_a_rational_is_refused_by_the_parser(
    capsys, monkeypatch, contract_dir, name, message
):
    monkeypatch.chdir(contract_dir)
    code, out, err = run(capsys, "contains", "--polytope", f"{name}.json", "--point", "1,1,0")
    assert code == EXIT_VALIDATION and out == ""
    assert message in err and "Traceback" not in err


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


UNREADABLE_CASES = [
    ("gb", "--ideal", "conic.ideal"),
    ("state", "--ideal", "conic.ideal", "--m", "2"),
    ("chain-state", "--ideal", "wide_chain.ideal", "--m", "2"),
    ("contains", "--polytope", "wide.json", "--point", "1,1,0,0"),
]


def run_unreadable(capsys, argv) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", UNREADABLE_CASES, ids=" ".join)
def test_a_file_the_read_refuses_exits_2(capsys, monkeypatch, contract_dir, argv):
    # the input file exists but its read raises, as for a file without read
    # permission (the suite may run as root, which reads any file)
    monkeypatch.chdir(contract_dir)
    read_text = Path.read_text

    def refused(path, *args, **kwargs):
        if path.name == argv[2]:
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refused)
    code, out, err = run_unreadable(capsys, argv)
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("error: ") and "Permission denied" in err
    assert "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads a file whatever its mode"
)
@pytest.mark.parametrize("argv", UNREADABLE_CASES, ids=" ".join)
def test_a_file_without_read_permission_exits_2(capsys, monkeypatch, tmp_path, argv):
    for name, text in CONTRACT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    locked = tmp_path / argv[2]
    locked.chmod(0)
    monkeypatch.chdir(tmp_path)
    try:
        code, out, err = run_unreadable(capsys, argv)
    finally:
        locked.chmod(0o600)
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("error: ") and "Permission denied" in err
    assert "Traceback" not in err


def test_an_integer_past_the_string_limit_is_refused_by_name(capsys, tmp_path):
    path = tmp_path / "big.ideal"
    path.write_text(CONTRACT_FILES["big_coefficient.ideal"], encoding="utf-8")
    code, out, err = run(capsys, "gb", "--ideal", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "Exceeds the limit" not in err


def test_witness_keys_join_integers_and_refuse_them_past_the_string_limit():
    # vertex keys are all-int and joined in one pass; the bytes and the
    # refusal are those of writing each coordinate by format_rational
    limit = sys.get_int_max_str_digits()
    keys = {(1, -20, 0, 10**40): (1, 0), (Fraction(1, 2), 3): (0, 1)}
    assert cli._witnesses_json(keys) == {
        ",".join(map(format_rational, v)): list(w) for v, w in keys.items()
    }
    if not limit:
        pytest.skip("this interpreter has no integer string limit")
    for too_long in ((1, 10**limit), (Fraction(1, 2), -(10**limit))):
        with pytest.raises(ValueError) as refused:
            cli._witnesses_json({too_long: (1, 0)})
        assert str(refused.value) == (
            f"an integer of more than {limit} digits cannot be written (the integer string limit)"
        )


# ---------------------------------------------------------------------------
# one parser and one writer per process


def test_documents_are_written_by_the_one_writer(conic_file, rendered_documents):
    text = run_command(["state", "--ideal", conic_file, "--m", "2"]).rendered()
    assert rendered_documents == [text[:-1]]


def test_one_parser_per_process():
    assert _build_parser() is _build_parser()


def _exit_of(capsys, call) -> tuple:
    with pytest.raises(SystemExit) as stop:
        call()
    return (stop.value.code, *capsys.readouterr())


@pytest.mark.parametrize("name", list(COMMANDS))
def test_the_invoked_command_parser_prints_what_the_full_parser_prints(capsys, name):
    # a process builds only its command's subparser; help, a missing required
    # option and an unknown option read the same as with every command built
    assert _build_parser(name) is _build_parser(name) is not _build_parser()
    # with its required options given, an unknown option is reported by the
    # top parser, under the usage line that lists the commands
    required = [
        token
        for option in COMMANDS[name].options
        if OPTIONS[option].settings.get("required")
        for token in (f"--{option}", "1")
    ]
    for argv in ([name, "--help"], [name], [name, *required, "--bogus", "1"]):
        want = _exit_of(capsys, lambda: _build_parser().parse_args(argv))
        assert want[0] in (0, EXIT_VALIDATION)
        assert _exit_of(capsys, lambda: _build_parser(name).parse_args(argv)) == want
        assert _exit_of(capsys, lambda: main(argv)) == want


def test_help_and_an_unknown_command_list_every_command(capsys):
    code, out, _ = _exit_of(capsys, lambda: main(["--help"]))
    assert code == 0 and all(name in out for name in COMMANDS)
    code, _, err = _exit_of(capsys, lambda: main(["no-such-command"]))
    assert code == EXIT_VALIDATION and "invalid choice" in err
    assert all(repr(name) in err for name in COMMANDS)


def test_alternating_commands_match_fresh_processes(conic_file, cubic_file):
    argvs = [
        ["gb", "--ideal", cubic_file, "--order", "lex"],
        ["tau", "--blocks", "0,2,4", "--m", "2"],
        ["state", "--ideal", conic_file, "--m", "2"],
        ["decompose-point", "--blocks", "0,1,2", "--point", "-1,2,5", "--levels", "-3,9"],
        ["rosary", "--r", "3"],
        ["gb", "--ideal", conic_file],
        ["semistable", "--ideal", str(ROOT / DATA / "planecurve.ideal"), "--m", "3"],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "statepoly.cli", *argv],
            capture_output=True, text=True, check=True, env=env, cwd=ROOT,
        ).stdout
        for argv in argvs
    ]
    in_process = []
    for argv in argvs:
        # an argparse error between commands leaves nothing behind
        with pytest.raises(SystemExit):
            run_command([argv[0], "--no-such-option"])
        in_process.append(run_command(argv).rendered())
    assert in_process == fresh


def test_documents_do_not_depend_on_the_hash_seed(tmp_path):
    # the sextic at m=4 is answered both from the oracle's pool and by runs,
    # so its document guards the oracle's tie order
    sextic = tmp_path / "sextic.ideal"
    sextic.write_text(
        "ring: x0,x1,x2,x3,x4\nideal:\nx3^2 - x2*x4\nx2^2 - x1*x4\nx1*x2 - x0*x4\nx1^2 - x0*x2\n",
        encoding="utf-8",
    )
    argvs = [
        ["state", "--ideal", str(sextic), "--m", "4"],
        ["chain-state", "--ideal", f"{DATA}/bridge_chain.ideal", "--m", "2"],
    ]
    for argv in argvs:
        outputs = {
            subprocess.run(
                [sys.executable, "-m", "statepoly.cli", *argv],
                capture_output=True, text=True, check=True, cwd=ROOT,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in range(4)
        }
        assert len(outputs) == 1, argv


def test_no_command_loads_the_reference_simplex(conic_file):
    # the hull geometry lives in polytope; lp holds the tests' simplex and
    # binds two polytope names for the benchmark tracer's lp spans.  The
    # records are named tuples or slotted classes, so a command loads
    # neither dataclasses nor inspect, and only CSV output loads csv.
    argvs = [
        ["state", "--ideal", conic_file, "--m", "2"],
        ["chain-state", "--ideal", f"{DATA}/bridge_chain.ideal", "--m", "2"],
        ["semistable", "--ideal", f"{DATA}/planecurve_chain.ideal", "--m", "2"],
        ["contains", "--polytope", "data/bridge/elliptic.json", "--point", "0,0,0,0,0,0,3,1,0,0,0,0"],
        ["rosary", "--r", "2", "--what", "check", "--d", "2"],
    ]
    script = (
        "import json, sys\n"
        "import statepoly.cli as cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert "statepoly.polytope" in loaded and "statepoly.lp" not in loaded
    assert {"dataclasses", "inspect", "csv"}.isdisjoint(loaded)
    assert lp.affine_hull is polytope.affine_hull
    assert lp.member_convex_hull is polytope.member_convex_hull
