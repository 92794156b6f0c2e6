"""The benchmark's workloads: seeded input files and the steps of one pass.

Each workload is a fixed list of ``statec`` commands.  A step's ``argv``
function is the glue between commands (it may write a file derived from an
earlier command's payload) and runs outside the timed region.  A step's
``check`` dict names the independent check that the parent process applies
to the rendered document (see ``checks.py``).

This module imports nothing from ``statepoly``: the parent process uses it
to know the planned steps without loading the code under test.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("bridge", "sextic_sweep", "rosary_state", "rosary_assembly")

# bridge: the three stored component polytopes of data/examples/bridge_chain.ideal
BRIDGE_BLOCKS = (0, 4, 7, 11)
BRIDGE_COMPONENTS = ("w2_left.json", "elliptic.json", "w2_right.json")
BRIDGE_M = 2
BRIDGE_SEEDED_POINTS = 6

# sextic_sweep: the curve (s^6 : s^4t^2 : s^2t^4 : st^5 : t^6) and its mirror
SEXTIC_FORMS = ((6, 0), (4, 2), (2, 4), (1, 5), (0, 6))
MIRROR_FORMS = tuple(reversed(SEXTIC_FORMS))
SEXTIC_LADDER = (2, 4, 6, 12)
SEXTIC_MIRROR_M = 6
SEXTIC_CHAIN_BLOCKS = (0, 4, 8)
SEXTIC_CHAIN_M = 2
SEXTIC_SEMISTABLE_M = 6
SEXTIC_HM_M = 6

# rosary_state: the genus-2 rosary (arity 7) at m = 2; at m = 3 one pass
# takes 14-21 s, too long to repeat within a run
ROSARY_STATE_R = 2
ROSARY_STATE_M = 2

# rosary_assembly: slice checks of a genus-4 rosary
ROSARY_ASSEMBLY_R = 4
ROSARY_ASSEMBLY_DEGREES = (2, 3)


@dataclass
class Context:
    """What the glue between steps may read and write."""

    work: Path
    payloads: dict[str, object] = field(default_factory=dict)

    def write(self, name: str, text: str) -> str:
        (self.work / name).write_text(text, encoding="utf-8")
        return name


@dataclass(frozen=True)
class Step:
    label: str
    argv: Callable[[Context], list[str]]
    check: dict


def names(count: int) -> list[str]:
    return [f"x{i}" for i in range(count)]


def ideal_text(variables: list[str], sections: list[list[str]], header: str = "") -> str:
    lines = [f"ring: {','.join(variables)}"]
    if header:
        lines.append(header)
    for k, gens in enumerate(sections, start=1):
        lines.append(f"ideal[{k}]:")
        lines.extend(gens)
    return "\n".join(lines) + "\n"


def param_text(forms) -> str:
    gens = ["*".join(p for p in (_power("s", a), _power("t", b)) if p) for a, b in forms]
    return "ring: s,t\nideal:\n" + "\n".join(gens) + "\n"


def _power(name: str, e: int) -> str:
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


def shift_variables(poly: str, offset: int) -> str:
    return re.sub(r"x(\d+)", lambda m: f"x{int(m.group(1)) + offset}", poly)


def vector_arg(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


# ---------------------------------------------------------------------------
# rosary components, written from their definitions


def rosary_component_coords(l: int, r: int) -> range:
    return range(max(0, 3 * l - 5), min(3 * r, 3 * l - 1) + 1)


def rosary_components(r: int) -> list[list[str]]:
    """Generators of each component of the genus-``r`` rosary: the end conics
    ``x0*x2 - x1^2`` and ``x_{3r-2}^2 - x_{3r-1}*x_{3r}`` and, for the middle
    components on ``a..e = x_{3l-5}..x_{3l-1}``, the six quadrics
    ``d^2-ce, cd-ae, ad-be, c^2-be, ac-bd, a^2-bc``."""
    n = 3 * r
    out = [["x0*x2 - x1^2"]]
    for l in range(2, r + 1):
        a, b, c, d, e = (f"x{3 * l - 5 + i}" for i in range(5))
        out.append([
            f"{d}^2 - {c}*{e}", f"{c}*{d} - {a}*{e}", f"{a}*{d} - {b}*{e}",
            f"{c}^2 - {b}*{e}", f"{a}*{c} - {b}*{d}", f"{a}^2 - {b}*{c}",
        ])
    out.append([f"x{n - 2}^2 - x{n - 1}*x{n}"])
    return out


def rosary_embedded_sections(r: int) -> list[list[str]]:
    """Each component's generators plus the coordinates outside its span."""
    arity = 3 * r + 1
    sections = []
    for l, gens in enumerate(rosary_components(r), start=1):
        span = set(rosary_component_coords(l, r))
        sections.append(gens + [f"x{j}" for j in range(arity) if j not in span])
    return sections


# ---------------------------------------------------------------------------
# seeded inputs


def bridge_points(seed: int, components: list[list[tuple[Fraction, ...]]]) -> list[dict]:
    """Extra ``contains`` queries: per component, one convex combination of
    three vertices and one vertex moved by a lattice step inside its block."""
    rng = random.Random(seed)
    points = []
    for i in range(BRIDGE_SEEDED_POINTS):
        k = i % len(components)
        verts = components[k]
        if i < len(components):
            chosen = rng.sample(verts, 3)
            weights = [rng.randint(1, 9) for _ in chosen]
            total = sum(weights)
            point = tuple(
                sum(Fraction(w) * v[j] for w, v in zip(weights, chosen)) / total
                for j in range(len(verts[0]))
            )
        else:
            block = range(BRIDGE_BLOCKS[k], BRIDGE_BLOCKS[k + 1] + 1)
            up, down = rng.sample(list(block), 2)
            point = list(rng.choice(verts))
            point[up] += 1
            point[down] -= 1
            point = tuple(point)
        points.append({"component": k, "point": [str(x) for x in point]})
    return points


def hm_weights(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(-5, 9) for _ in range(SEXTIC_CHAIN_BLOCKS[-1] + 1)]


def load_vertices(path: Path) -> list[tuple[int, ...]]:
    """Vertices of a stored polytope (stored polytopes have integer vertices)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return [tuple(int(x) for x in row) for row in data["vertices"]]


def make_inputs(workload: str, seed: int, root: Path) -> dict[str, str]:
    """The workload's generated input files, by name; the same seed always
    gives the same bytes."""
    if workload == "bridge":
        files = {}
        comps = []
        for k, name in enumerate(BRIDGE_COMPONENTS, start=1):
            source = root / "data" / "bridge" / name
            files[f"component{k}.json"] = source.read_text(encoding="utf-8")
            comps.append(load_vertices(source))
        header = "blocks: " + ",".join(map(str, BRIDGE_BLOCKS)) + "\n" + "\n".join(
            f"polytope[{k}]: component{k}.json" for k in range(1, 4)
        )
        files["chain.ideal"] = ideal_text(names(BRIDGE_BLOCKS[-1] + 1), [], header)
        files["points.json"] = json.dumps(bridge_points(seed, comps), indent=1) + "\n"
        return files
    if workload == "sextic_sweep":
        return {
            "param_left.ideal": param_text(SEXTIC_FORMS),
            "param_mirror.ideal": param_text(MIRROR_FORMS),
            "weights.txt": vector_arg(hm_weights(seed)) + "\n",
        }
    if workload == "rosary_state":
        arity = 3 * ROSARY_STATE_R + 1
        return {
            "components.ideal": ideal_text(
                names(arity), rosary_embedded_sections(ROSARY_STATE_R)
            )
        }
    if workload == "rosary_assembly":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# steps


def _const(*argv: str) -> Callable[[Context], list[str]]:
    return lambda ctx: list(argv)


def bridge_steps() -> list[Step]:
    m = str(BRIDGE_M)
    steps = [
        Step("chain-state", _const("chain-state", "--ideal", "chain.ideal", "--m", m),
             {"kind": "bridge_chain_state", "m": BRIDGE_M}),
        Step("semistable", _const("semistable", "--ideal", "chain.ideal", "--m", m),
             {"kind": "bridge_semistable", "m": BRIDGE_M}),
    ]
    for k in range(len(BRIDGE_COMPONENTS)):
        def summand(ctx: Context, k: int = k) -> list[str]:
            point = ctx.payloads["semistable"]["summands"][k]
            return ["contains", "--polytope", f"component{k + 1}.json",
                    f"--point={vector_arg(point)}"]
        steps.append(Step(f"contains summand {k + 1}", summand,
                          {"kind": "contains", "component": k, "point": "summand"}))
    for i in range(BRIDGE_SEEDED_POINTS):
        def seeded(ctx: Context, i: int = i) -> list[str]:
            entry = json.loads((ctx.work / "points.json").read_text())[i]
            return ["contains", "--polytope", f"component{entry['component'] + 1}.json",
                    f"--point={','.join(entry['point'])}"]
        steps.append(Step(f"contains seeded {i + 1}", seeded,
                          {"kind": "contains", "component": i % len(BRIDGE_COMPONENTS),
                           "point": "seeded", "index": i}))
    return steps


def _write_curve(ctx: Context, source: str, name: str) -> str:
    gens = ctx.payloads[source]["generators"]
    return ctx.write(name, ideal_text(names(5), [gens]))


def _sextic_chain_sections(ctx: Context) -> tuple[list[str], list[str]]:
    left = list(ctx.payloads["implicitize left"]["generators"])
    right = [shift_variables(g, 4) for g in ctx.payloads["implicitize mirror"]["generators"]]
    return left, right


def sextic_steps() -> list[Step]:
    steps = [
        Step("implicitize left",
             _const("implicitize", "--ideal", "param_left.ideal", "--nvars", "5"),
             {"kind": "implicitize", "forms": SEXTIC_FORMS}),
        Step("implicitize mirror",
             _const("implicitize", "--ideal", "param_mirror.ideal", "--nvars", "5"),
             {"kind": "implicitize", "forms": MIRROR_FORMS}),
    ]
    for m in SEXTIC_LADDER:
        def left_state(ctx: Context, m: int = m) -> list[str]:
            path = _write_curve(ctx, "implicitize left", "left.ideal")
            return ["state", "--ideal", path, "--m", str(m)]
        steps.append(Step(f"state left m={m}", left_state,
                          {"kind": "state", "m": m, "curve": "sextic"}))

    def mirror_state(ctx: Context) -> list[str]:
        path = _write_curve(ctx, "implicitize mirror", "mirror.ideal")
        return ["state", "--ideal", path, "--m", str(SEXTIC_MIRROR_M)]
    steps.append(Step(f"state mirror m={SEXTIC_MIRROR_M}", mirror_state,
                      {"kind": "state", "m": SEXTIC_MIRROR_M, "curve": "sextic",
                       "mirror_of": f"state left m={SEXTIC_MIRROR_M}"}))

    def chain_file(ctx: Context) -> str:
        left, right = _sextic_chain_sections(ctx)
        header = "blocks: " + ",".join(map(str, SEXTIC_CHAIN_BLOCKS))
        return ctx.write("chain.ideal", ideal_text(names(9), [left, right], header))

    steps.append(Step(
        f"chain-state m={SEXTIC_CHAIN_M}",
        lambda ctx: ["chain-state", "--ideal", chain_file(ctx), "--m", str(SEXTIC_CHAIN_M)],
        {"kind": "sextic_chain_state", "m": SEXTIC_CHAIN_M,
         "left": f"state left m={SEXTIC_CHAIN_M}"}))
    steps.append(Step(
        f"semistable m={SEXTIC_SEMISTABLE_M}",
        lambda ctx: ["semistable", "--ideal", chain_file(ctx), "--m", str(SEXTIC_SEMISTABLE_M)],
        {"kind": "sextic_semistable", "m": SEXTIC_SEMISTABLE_M}))

    def embedded(ctx: Context) -> list[str]:
        left, right = _sextic_chain_sections(ctx)
        sections = [left + [f"x{j}" for j in range(5, 9)],
                    right + [f"x{j}" for j in range(0, 4)]]
        return ["intersect", "--ideal", ctx.write("embedded.ideal", ideal_text(names(9), sections))]
    steps.append(Step("intersect chain", embedded, {"kind": "sextic_intersect"}))

    def weights(ctx: Context) -> str:
        return (ctx.work / "weights.txt").read_text().strip()
    steps.append(Step(
        "hm decomposed",
        lambda ctx: ["hm", "--ideal", chain_file(ctx), "--m", str(SEXTIC_HM_M),
                     f"--weights={weights(ctx)}"],
        {"kind": "hm", "m": SEXTIC_HM_M}))

    def direct(ctx: Context) -> list[str]:
        gens = ctx.payloads["intersect chain"]["generators"]
        path = ctx.write("assembled.ideal", ideal_text(names(9), [gens]))
        return ["hm", "--ideal", path, "--m", str(SEXTIC_HM_M), f"--weights={weights(ctx)}"]
    steps.append(Step("hm direct", direct,
                      {"kind": "hm", "m": SEXTIC_HM_M, "equal_to": "hm decomposed"}))
    return steps


def rosary_state_steps() -> list[Step]:
    r, m = ROSARY_STATE_R, ROSARY_STATE_M
    arity = 3 * r + 1

    def state(ctx: Context) -> list[str]:
        gens = ctx.payloads["intersect"]["generators"]
        path = ctx.write("assembled.ideal", ideal_text(names(arity), [gens]))
        return ["state", "--ideal", path, "--m", str(m)]

    def barycenter(ctx: Context) -> list[str]:
        payload = ctx.payloads[f"state m={m}"]
        path = ctx.write("state.json", json.dumps(payload["polytope"]) + "\n")
        point = [Fraction(payload["m"] * payload["q"], arity)] * arity
        return ["contains", "--polytope", path, f"--point={vector_arg(point)}"]

    return [
        Step("intersect", _const("intersect", "--ideal", "components.ideal"),
             {"kind": "rosary_intersect", "r": r}),
        Step(f"state m={m}", state, {"kind": "state", "m": m, "curve": "rosary", "r": r}),
        Step("contains barycenter", barycenter,
             {"kind": "contains_barycenter", "state": f"state m={m}", "m": m, "r": r}),
    ]


def rosary_assembly_steps() -> list[Step]:
    r = ROSARY_ASSEMBLY_R
    return [
        Step(f"rosary check d={d}",
             _const("rosary", "--r", str(r), "--what", "check", "--d", str(d)),
             {"kind": "rosary_check", "r": r, "d": d})
        for d in ROSARY_ASSEMBLY_DEGREES
    ]


def steps_for(workload: str) -> list[Step]:
    return {
        "bridge": bridge_steps,
        "sextic_sweep": sextic_steps,
        "rosary_state": rosary_state_steps,
        "rosary_assembly": rosary_assembly_steps,
    }[workload]()
