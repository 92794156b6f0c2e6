"""The ``statec`` command line tool.

Commands operate on ideal files (see :mod:`statepoly.parsing` for the
format) and emit a deterministic ``CommandResult`` document: the command
name, a digest of the inputs, any warnings, and a payload that is valid
JSON with rationals printed as ``p/q`` strings (never floats).  The
``--format csv`` option renders tabular payloads as CSV instead.

Exit codes: 0 on success, 2 on validation or parse failures, 3 when an
oracle budget was exhausted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .chains import (
    ChainInput,
    ExtremalityError,
    barycenter_decompose,
    decomposed_state_polytope,
    semistability_via_components,
    tau_vector,
)
from .groebner import (
    buchberger,
    eliminate,
    implicitize,
    initial_ideal,
    intersect_ideals,
)
from .hm import hm_index_decomposed, hm_index_direct
from .lp import HullMembership, member_convex_hull
from .orders import MonomialOrder, matrix_order, named_order, weight_order
from .parsing import (
    IdealFile,
    ParseError,
    format_polynomial,
    format_vector,
    parse_ideal_file,
    parse_int_vector,
    parse_vector,
    render_json,
    scalar_to_json,
)
from .polytope import VPolytope, facets, load_polytope, polytope_payload
from .rings import Ideal
from .rosary import (
    RosarySpec,
    rosary_component_ideal,
    rosary_slice_decomposition_check,
    rosary_w_table,
)
from .state import (
    BudgetExhausted,
    enumerate_state_polytope,
    read_budget_from_env,
    semistability_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class CommandResult:
    """What a command produced: a deterministic document plus exit status."""

    command: str
    input_digest: str
    payload: object
    warnings: tuple[str, ...] = ()
    format: str = "json"
    exit_code: int = EXIT_OK
    out: str | None = None

    def document(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "payload": self.payload,
            "warnings": list(self.warnings),
        }

    def rendered(self) -> str:
        if self.format == "csv":
            return _render_csv(self.payload)
        return render_json(self.document()) + "\n"


def _render_csv(payload: object) -> str:
    if not (isinstance(payload, dict) and "columns" in payload and "rows" in payload):
        raise ValueError("this command has no tabular payload; use --format json")
    columns = payload["columns"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in payload["rows"]:
        writer.writerow([row[c] for c in columns])
    return out.getvalue()


# ---------------------------------------------------------------------------
# small serialization helpers


def _json_vector(values: Sequence) -> list:
    return [scalar_to_json(v) for v in values]


def _json_monomial(mono: Sequence[int]) -> list[int]:
    return [int(e) for e in mono]


def _witnesses_json(witnesses) -> dict[str, list[int]]:
    return {format_vector(v): list(direction) for v, direction in witnesses.items()}


def _single_ideal(doc: IdealFile) -> Ideal:
    return Ideal(doc.arity, doc.single_ideal_generators())


def _generators_json(ideal: Ideal, variables: Sequence[str]) -> list[str]:
    """The generators, each written from its grevlex-largest term down."""
    display = named_order("grevlex", ideal.arity)
    return [format_polynomial(g, variables, display) for g in ideal.generators]


def _homogeneity_warnings(ideal: Ideal) -> list[str]:
    if ideal.is_homogeneous():
        return []
    return ["input generators are not homogeneous"]


def _order_from_args(
    name: str | None, arity: int, weights: Sequence[Fraction] | None = None
) -> MonomialOrder:
    """Accept a family name, ``weight`` (uses --weights), or semicolon-
    separated matrix rows such as ``1,1,1;0,-1,0``."""
    if name is None:
        return named_order("grevlex", arity)
    if name in ("lex", "grlex", "grevlex"):
        return named_order(name, arity)
    if name == "weight":
        if weights is None:
            raise ValueError("--order weight needs --weights")
        return weight_order(weights)
    if ";" in name or "," in name:
        rows = [parse_vector(row) for row in name.split(";") if row.strip()]
        order = matrix_order(rows)
        problems = order.validate()
        if problems:
            raise ValueError(f"--order {name!r} is not a monomial order: {'; '.join(problems)}")
        return order
    raise ValueError(
        f"unknown order {name!r}: expected lex, grlex, grevlex, weight, "
        f"or semicolon-separated matrix rows"
    )


def _polytope_files(args: argparse.Namespace, doc: IdealFile) -> dict[int, Path]:
    """The ``polytope[k]:`` files of the ideal file, by section, relative to
    its directory."""
    base = Path(args.ideal).resolve().parent
    return {k: base / path for k, path in sorted(doc.polytope_paths.items())}


def _chain_from_file(args: argparse.Namespace, doc: IdealFile) -> ChainInput:
    if doc.blocks is None:
        raise ValueError("chain commands need a 'blocks:' line in the ideal file")
    n_components = len(doc.blocks) - 1
    polytopes = _polytope_files(args, doc)
    stray = sorted(k for k in {*doc.sections, *polytopes} if not 1 <= k <= n_components)
    if stray:
        raise ValueError(
            f"section {', '.join(map(str, stray))} of the ideal file is not one of the "
            f"{n_components} components of its 'blocks:' line"
        )
    components: list[Ideal | VPolytope] = []
    for k in range(1, n_components + 1):
        has_ideal = k in doc.sections
        has_poly = k in polytopes
        if has_ideal and has_poly:
            raise ValueError(f"component {k} given both as an ideal and a polytope")
        if has_ideal:
            components.append(Ideal(doc.arity, doc.sections[k]))
        elif has_poly:
            components.append(load_polytope(polytopes[k]))
        else:
            raise ValueError(f"component {k} missing from the ideal file")
    return ChainInput(doc.blocks, components)


def _input_files(args: argparse.Namespace, doc: IdealFile | None) -> list[str | Path]:
    """The files a command's digest hashes, in order: its ``--ideal`` file
    and that file's polytope files in section order, or its ``--polytope``
    file."""
    if doc is not None:
        return [args.ideal, *_polytope_files(args, doc).values()]
    return [args.polytope] if "polytope" in COMMANDS[args.command].options else []


def _digest(command: str, args: argparse.Namespace, files: Sequence[str | Path]) -> str:
    inputs = {name: getattr(args, name) for name in COMMANDS[command].options}
    # digests once hashed every parsed option, the subcommand name and the
    # removed --parallel option (default 1) included; hashing those two
    # keeps every earlier digest valid
    inputs.update(command=command, parallel=1)
    parts = [command] + [f"{key}={value!r}" for key, value in sorted(inputs.items())]
    for path in files:
        body = Path(path).read_bytes()
        parts.append(hashlib.sha256(body).hexdigest())
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _budget(args: argparse.Namespace) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    return read_budget_from_env()


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed options and, for a command with an
# ``--ideal`` file, the parsed file; ``run_command`` builds the result


class Outcome(NamedTuple):
    payload: object
    warnings: Sequence[str] = ()
    exit_code: int = EXIT_OK


def _cmd_gb(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    ideal = _single_ideal(doc)
    order = _order_from_args(args.order, doc.arity, doc.weights)
    gb = buchberger(ideal, order)
    payload = {
        "order": order.name,
        "basis": [format_polynomial(g, doc.variables, order) for g in gb.elements],
        "leads": [_json_monomial(m) for m in gb.leads],
    }
    return Outcome(payload, _homogeneity_warnings(ideal))


def _cmd_initial(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    ideal = _single_ideal(doc)
    order = _order_from_args(args.order, doc.arity, doc.weights)
    mi = initial_ideal(ideal, order)
    payload = {
        "order": order.name,
        "generators": [_json_monomial(m) for m in sorted(mi.gens)],
    }
    return Outcome(payload, _homogeneity_warnings(ideal))


def _state_payload(result) -> dict:
    payload = {
        "m": result.m,
        "q": result.q,
        "status": result.status,
        "query_count": result.query_count,
        "polytope": polytope_payload(result.polytope),
        "witnesses": _witnesses_json(result.witnesses),
    }
    if result.hull_dim is not None:
        payload["hull_dim"] = result.hull_dim
    return payload


def _cmd_state(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    ideal = _single_ideal(doc)
    result = enumerate_state_polytope(ideal, args.m, _budget(args))
    return Outcome(
        _state_payload(result),
        _homogeneity_warnings(ideal),
        EXIT_OK if result.complete else EXIT_BUDGET,
    )


def _cmd_intersect(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    ideals = [Ideal(doc.arity, gens) for _, gens in sorted(doc.ideal_sections().items())]
    if len(ideals) < 2:
        raise ValueError("intersect needs ideal[1] and ideal[2] sections")
    out = functools.reduce(intersect_ideals, ideals)
    return Outcome({"generators": _generators_json(out, doc.variables)})


def _cmd_eliminate(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    ideal = _single_ideal(doc)
    keep = parse_int_vector(args.keep)
    out = eliminate(ideal, keep)
    return Outcome({"keep": list(keep), "generators": _generators_json(out, doc.variables)})


def _cmd_implicitize(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    forms = doc.single_ideal_generators()
    out = implicitize(forms, args.nvars)
    names = [f"x{i}" for i in range(out.arity)]
    return Outcome({"variables": names, "generators": _generators_json(out, names)})


def _cmd_chain_state(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    chain = _chain_from_file(args, doc)
    result = decomposed_state_polytope(chain, args.m, _budget(args))
    payload = _state_payload(result)
    payload["tau"] = list(result.tau.tau)
    payload["mixed_monomial_count"] = result.tau.mixed_monomial_count
    return Outcome(payload, chain.warnings, EXIT_OK if result.complete else EXIT_BUDGET)


def _cmd_tau(args: argparse.Namespace, doc: None) -> Outcome:
    blocks = parse_int_vector(args.blocks)
    if args.nvars is not None and args.nvars != blocks[-1] + 1:
        raise ValueError(
            f"--nvars {args.nvars} disagrees with blocks ending at {blocks[-1]}"
        )
    tau = tau_vector(blocks, args.m)
    payload = {
        "m": args.m,
        "blocks": list(blocks),
        "tau": list(tau.tau),
        "mixed_monomial_count": tau.mixed_monomial_count,
    }
    return Outcome(payload)


def _cmd_decompose_point(args: argparse.Namespace, doc: None) -> Outcome:
    blocks = parse_int_vector(args.blocks)
    point = parse_vector(args.point)
    levels = parse_vector(args.levels)
    summands = barycenter_decompose(point, blocks, levels)
    payload = {
        "blocks": list(blocks),
        "point": _json_vector(point),
        "levels": _json_vector(levels),
        "summands": [_json_vector(s) for s in summands],
    }
    return Outcome(payload)


def _cmd_contains(args: argparse.Namespace, doc: None) -> Outcome:
    poly = load_polytope(args.polytope)
    point = parse_vector(args.point)
    hull = member_convex_hull(facets(poly), poly.vertices, point)
    return Outcome({"point": _json_vector(point), **_certificate(hull)})


def _certificate(hull: HullMembership) -> dict:
    return {
        "inside": hull.inside,
        "coefficients": _json_vector(hull.coefficients) if hull.coefficients else None,
        "separator": list(hull.separator) if hull.separator else None,
    }


def _cmd_semistable(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    warnings: list[str] = [
        "the barycenter uses the supplied degree's slice counts as-is"
    ]
    if doc.blocks is not None:
        chain = _chain_from_file(args, doc)
        warnings.extend(chain.warnings)
        report = semistability_via_components(chain, args.m, _budget(args))
        payload = {
            "route": "components",
            "m": report.m,
            "q": report.q,
            "tau": list(report.tau),
            "barycenter": _json_vector(report.barycenter),
            "levels": _json_vector(report.levels),
            "summands": [_json_vector(s) for s in report.summands],
            "components": [
                {"index": i + 1, **_certificate(c), "summand": _json_vector(s)}
                for i, (c, s) in enumerate(zip(report.components, report.summands))
            ],
            "member_of_hull": report.member_of_hull,
        }
    else:
        ideal = _single_ideal(doc)
        warnings.extend(_homogeneity_warnings(ideal))
        result = enumerate_state_polytope(ideal, args.m, _budget(args))
        if not result.complete:
            return Outcome(_state_payload(result), warnings, EXIT_BUDGET)
        report = semistability_report(result, n=args.n)
        payload = {
            "route": "direct",
            "m": report.m,
            "q": report.q,
            "barycenter": _json_vector(report.barycenter),
            "member_of_hull": report.member_of_hull,
            "relative_interior": report.relative_interior,
            "coefficients": (
                _json_vector(report.coefficients) if report.coefficients else None
            ),
            "separator": list(report.separator) if report.separator else None,
        }
    return Outcome(payload, warnings)


def _cmd_hm(args: argparse.Namespace, doc: IdealFile) -> Outcome:
    if args.weights is not None:
        rho = parse_vector(args.weights)
    elif doc.weights is not None:
        rho = doc.weights
    else:
        raise ValueError("hm needs --weights or a 'weights:' line in the ideal file")
    if doc.blocks is not None:
        report = hm_index_decomposed(_chain_from_file(args, doc), args.m, rho)
    else:
        report = hm_index_direct(_single_ideal(doc), args.m, rho)
    payload = {
        "m": report.m,
        "mu": scalar_to_json(report.mu),
        "standard_weight_sum": scalar_to_json(report.standard_weight_sum),
        "p_value": report.p_value,
        "weight_total": scalar_to_json(report.weight_total),
    }
    if report.components is not None:
        payload["junction_term"] = scalar_to_json(report.junction_term)
        payload["components"] = [
            {
                "index": c.index + 1,
                "mu": scalar_to_json(c.mu),
                "p_value": c.p_value,
                "weight_total": scalar_to_json(c.weight_total),
                "correction": scalar_to_json(c.correction),
            }
            for c in report.components
        ]
    return Outcome(payload)


def _cmd_rosary(args: argparse.Namespace, doc: None) -> Outcome:
    spec = RosarySpec(args.r)
    what = args.what
    if what == "wtable":
        return Outcome({
            "columns": ["r", "w2_closed", "w2_rec", "w3_closed", "w3_rec", "agree"],
            "rows": rosary_w_table(args.r),
        })
    if what == "component":
        if args.l is None:
            raise ValueError("rosary --what component needs --l")
        ideal = rosary_component_ideal(args.l, spec)
        names = [f"x{i}" for i in range(spec.arity)]
        return Outcome({
            "l": args.l,
            "generators": [format_polynomial(g, names) for g in ideal.generators],
        })
    if what == "check":
        if args.d is None:
            raise ValueError("rosary --what check needs --d")
        order = named_order("lex", spec.arity)
        report = rosary_slice_decomposition_check(spec, order, args.d)
        return Outcome({
            "r": report.r,
            "d": report.d,
            "left_side": [_json_monomial(m) for m in report.left_side],
            "right_side": [_json_monomial(m) for m in report.right_side],
            "missing": [_json_monomial(m) for m in report.missing],
            "extra": [_json_monomial(m) for m in report.extra],
            "ok": report.ok,
        })
    raise ValueError(f"unknown rosary request {what!r}")


# ---------------------------------------------------------------------------
# the command and option tables, argument parsing and dispatch


class Option(NamedTuple):
    settings: dict
    # a comma-separated vector or matrix value that may start with a minus sign
    signed: bool = False


OPTIONS = {
    "out": Option({"help": "write the result to this file"}),
    # without --format a table prints as CSV and anything else as JSON
    "format": Option({"choices": ["json", "csv"]}),
    "ideal": Option({"required": True, "help": "ideal file"}),
    "order": Option({"help": "lex, grlex, grevlex, weight or matrix rows"}, signed=True),
    "m": Option({"type": int, "required": True}),
    "budget": Option({"type": int}),
    "keep": Option({"required": True, "help": "comma-separated coordinates to keep"}),
    "nvars": Option({"type": int, "help": "expected number of variables"}),
    "blocks": Option({"required": True}),
    "point": Option({"required": True}, signed=True),
    "levels": Option({"required": True, "help": "coordinate sum per block"}, signed=True),
    "polytope": Option({"required": True}),
    "n": Option({"type": int, "help": "projective ambient dimension (defaults to arity - 1)"}),
    "weights": Option({"help": "comma-separated rationals"}, signed=True),
    "r": Option({"type": int, "required": True}),
    "what": Option({"choices": ["wtable", "component", "check"], "default": "wtable"}),
    "l": Option({"type": int}),
    "d": Option({"type": int}),
}


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace, IdealFile | None], Outcome]
    help: str
    # what the digest hashes besides the input files; every command also
    # takes --out and --format, which no digest hashes
    options: tuple[str, ...]


COMMANDS = {
    "gb": Command(_cmd_gb, "reduced basis under an order", ("ideal", "order")),
    "initial": Command(_cmd_initial, "initial-ideal generators", ("ideal", "order")),
    "state": Command(_cmd_state, "enumerate a state polytope", ("ideal", "m", "budget")),
    "intersect": Command(_cmd_intersect, "intersect the file's ideals", ("ideal",)),
    "eliminate": Command(
        _cmd_eliminate, "eliminate all but the kept coordinates", ("ideal", "keep")
    ),
    "implicitize": Command(_cmd_implicitize, "kernel of a parametrization", ("ideal", "nvars")),
    "chain-state": Command(
        _cmd_chain_state, "state polytope via block components", ("ideal", "m", "budget")
    ),
    "tau": Command(_cmd_tau, "translation vector of a block chain", ("blocks", "m", "nvars")),
    "decompose-point": Command(
        _cmd_decompose_point, "split a point into block summands", ("blocks", "point", "levels")
    ),
    "contains": Command(
        _cmd_contains, "convex-hull membership for a stored polytope", ("polytope", "point")
    ),
    "semistable": Command(
        _cmd_semistable, "barycenter membership verdict", ("ideal", "m", "n", "budget")
    ),
    "hm": Command(_cmd_hm, "weight pairing of a diagonal subgroup", ("ideal", "m", "weights")),
    "rosary": Command(
        _cmd_rosary, "rosary tables, components, slice checks", ("r", "what", "l", "d")
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statec",
        description="Exact state-polytope and stability computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in ("out", *command.options, "format"):
            p.add_argument(f"--{option}", **OPTIONS[option].settings)
    return parser


def _attach_vector_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--point -1,0`` as ``--point=-1,0``: argparse takes a
    separate value that starts with ``-`` (and is not a plain number) for an
    option flag and stops with "expected one argument"."""
    signed = {f"--{name}" for name, option in OPTIONS.items() if option.signed}
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token in signed:
            value = next(tokens, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def run_command(argv: Sequence[str]) -> CommandResult:
    """Parse arguments, dispatch, and return the result document."""
    args = _build_parser().parse_args(_attach_vector_values(argv))
    command = COMMANDS[args.command]
    doc = None
    if "ideal" in command.options:
        doc = parse_ideal_file(Path(args.ideal).read_text(encoding="utf-8"))
    outcome = command.handler(args, doc)
    tabular = isinstance(outcome.payload, dict) and "columns" in outcome.payload
    return CommandResult(
        command=args.command,
        input_digest=_digest(args.command, args, _input_files(args, doc)),
        payload=outcome.payload,
        warnings=tuple(outcome.warnings),
        format=args.format or ("csv" if tabular else "json"),
        exit_code=outcome.exit_code,
        out=args.out,
    )


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        result = run_command(argv)
        text = result.rendered()
        if result.out:
            Path(result.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ExtremalityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
