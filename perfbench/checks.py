"""Independent checks of every operation's document.

Nothing here imports ``statepoly``.  Each check recomputes what it can from
definitions (brute-force monomial counts, Hilbert polynomials, curve
parametrisations), replays certificates in plain ``Fraction`` arithmetic,
or tests a property the method must have.  A check returns the list of
problems it found; an empty list means the document passed.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Sequence

import workloads as wl

Vector = tuple[Fraction, ...]


def num(value) -> Fraction | int:
    """A document scalar (an int or a ``"p/q"`` string) as an exact number;
    integral values stay ``int`` so that sums of products stay fast."""
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def vec(values: Sequence) -> Vector:
    return tuple(num(v) for v in values)


def dot(a: Sequence, b: Sequence) -> Fraction | int:
    return sum(x * y for x, y in zip(a, b))


def key_vector(key: str) -> Vector:
    return vec(key.split(","))


def degree_monomials(nvars: int, m: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), m):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


# ---------------------------------------------------------------------------
# polynomials as printed by statec, and curve parametrisations


def parse_poly(text: str, variables: Sequence[str]) -> dict[tuple[int, ...], Fraction]:
    """Terms of a polynomial printed as ``c*x^e*y - z + ...``."""
    index = {name: i for i, name in enumerate(variables)}
    pieces = re.split(r" ([+-]) ", text.strip())
    signs = [1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff = Fraction(sign)
        exp = [0] * len(variables)
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                exp[index[name]] += int(power or 1)
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {k: c for k, c in terms.items() if c}


def vanishes_on(poly: dict, param: dict[int, tuple[int, int]]) -> bool:
    """Whether the polynomial is zero after substituting the monomial
    parametrisation ``x_i -> s^a t^b`` (coordinates missing from ``param``
    are zero)."""
    image: dict[tuple[int, int], Fraction] = {}
    for exp, coeff in poly.items():
        if any(e and i not in param for i, e in enumerate(exp)):
            continue
        a = sum(e * param[i][0] for i, e in enumerate(exp) if e)
        b = sum(e * param[i][1] for i, e in enumerate(exp) if e)
        image[(a, b)] = image.get((a, b), Fraction(0)) + coeff
    return not any(image.values())


def rosary_parametrisations(r: int) -> list[dict[int, tuple[int, int]]]:
    """A monomial parametrisation of each rosary component: the end conics
    ``(s^2, st, t^2)`` and ``(st, s^2, t^2)``, and on ``a..e`` of each middle
    component the quartic ``(s^3t, s^4, s^2t^2, st^3, t^4)``."""
    n = 3 * r
    params = [{0: (2, 0), 1: (1, 1), 2: (0, 2)}]
    quartic = ((3, 1), (4, 0), (2, 2), (1, 3), (0, 4))
    for l in range(2, r + 1):
        params.append({3 * l - 5 + i: quartic[i] for i in range(5)})
    params.append({n - 2: (1, 1), n - 1: (2, 0), n: (0, 2)})
    return params


# ---------------------------------------------------------------------------
# chains


def mixed_monomials(blocks: Sequence[int], m: int) -> list[tuple[int, ...]]:
    """Degree-``m`` monomials using a variable strictly left and one strictly
    right of some junction (the generators of ``mixed_ideals``)."""
    out = []
    for mono in degree_monomials(blocks[-1] + 1, m):
        support = [i for i, e in enumerate(mono) if e]
        if any(support[0] < j < support[-1] for j in blocks[1:-1]):
            out.append(mono)
    return out


def tau_of(blocks: Sequence[int], m: int) -> tuple[list[int], int]:
    mixed = mixed_monomials(blocks, m)
    tau = [sum(mono[j] for mono in mixed) for j in range(blocks[-1] + 1)]
    return tau, len(mixed)


def sextic_q(m: int) -> int:
    """Degree-``m`` monomials in the initial ideal of a degree-6 curve of
    arithmetic genus 2 in P^4 (Hilbert polynomial 6m - 1), for m >= 2."""
    return comb(m + 4, 4) - (6 * m - 1)


def rosary_q(r: int, m: int) -> int:
    """The same count for the genus-``r`` rosary: degree ``4r`` in
    ``P^{3r}``, arithmetic genus ``r``, Hilbert polynomial ``4rm + 1 - r``."""
    return comb(m + 3 * r, 3 * r) - (4 * r * m + 1 - r)


def check_chain_state(payload: dict, blocks: Sequence[int], components: list[list[Vector]],
                      m: int) -> list[str]:
    """``components`` hold each block polytope's vertices at ambient arity."""
    problems = []
    tau, mixed = tau_of(blocks, m)
    if payload.get("tau") != tau or payload.get("mixed_monomial_count") != mixed:
        problems.append(f"tau/mixed count {payload.get('tau')}/{payload.get('mixed_monomial_count')}"
                        f" != brute force {tau}/{mixed}")
    q = mixed + Fraction(sum(sum(comp[0]) for comp in components), m)
    if payload.get("q") != q or payload.get("m") != m or payload.get("status") != "complete":
        problems.append(f"q/m/status {payload.get('q')}/{payload.get('m')}/{payload.get('status')}"
                        f" != {q}/{m}/complete")
    combos: dict[Vector, tuple[Vector, ...]] = {}
    for combo in itertools.product(*components):
        total = tuple(t + sum(v[j] for v in combo) for j, t in enumerate(tau))
        combos[total] = combo
    expected = 1
    for comp in components:
        expected *= len(comp)
    if len(combos) != expected:
        problems.append(f"only {len(combos)} distinct sums for {expected} combinations")
    vertices = [vec(v) for v in payload["polytope"]["vertices"]]
    if set(vertices) != set(combos) or len(vertices) != len(combos):
        problems.append("vertices are not tau plus one stored vertex per component")
        return problems
    if any(sum(v) != m * q for v in vertices):
        problems.append("a vertex's coordinate sum is not m*q")
    witnesses = {key_vector(k): w for k, w in payload["witnesses"].items()}
    if set(witnesses) != set(vertices):
        problems.append("witness keys differ from the vertex set")
        return problems
    # Minkowski separability: w is strict on the sum exactly when each
    # block's part of w is uniquely maximised at that component's vertex.
    blocks_coords = [range(a, b + 1) for a, b in zip(blocks, blocks[1:])]
    for vertex, w in witnesses.items():
        for part, comp, coords in zip(combos[vertex], components, blocks_coords):
            w_block = [w[j] for j in coords]
            best = dot(w_block, [part[j] for j in coords])
            if any(u != part and dot(w_block, [u[j] for j in coords]) >= best for u in comp):
                problems.append(f"witness {w} is not strict at {list(map(str, vertex))}")
                break
        else:
            continue
        break
    return problems


def check_chain_semistable(payload: dict, blocks: Sequence[int], levels: Sequence[Fraction],
                           m: int) -> list[str]:
    problems = []
    n = blocks[-1]
    tau, mixed = tau_of(blocks, m)
    q = mixed + sum(Fraction(level, m) for level in levels)
    if payload.get("m") != m or payload.get("q") != q or payload.get("tau") != tau:
        problems.append(f"m/q/tau {payload.get('m')}/{payload.get('q')}/{payload.get('tau')}"
                        f" != {m}/{q}/{tau}")
    barycenter = vec(payload["barycenter"])
    if barycenter != (Fraction(m * q, n + 1),) * (n + 1):
        problems.append("barycenter is not m*q/(n+1) in every coordinate")
    if vec(payload["levels"]) != vec(levels):
        problems.append(f"levels {payload['levels']} != {list(map(str, levels))}")
    summands = [vec(s) for s in payload["summands"]]
    target = [b - t for b, t in zip(barycenter, tau)]
    if len(summands) != len(levels):
        return problems + ["wrong number of summands"]
    # the split of barycenter - tau into block summands with the given
    # levels is unique, so these properties pin it down
    for k, (summand, level) in enumerate(zip(summands, levels)):
        block = range(blocks[k], blocks[k + 1] + 1)
        if any(x for j, x in enumerate(summand) if j not in block):
            problems.append(f"summand {k + 1} has support outside its block")
        if sum(summand) != level:
            problems.append(f"summand {k + 1} has coordinate sum {sum(summand)} != {level}")
    if [sum(col) for col in zip(*summands)] != target:
        problems.append("summands do not add up to barycenter - tau")
    components = payload["components"]
    if [vec(c["summand"]) for c in components] != summands:
        problems.append("component summands differ from the summand list")
    if payload["member_of_hull"] != all(c["inside"] for c in components):
        problems.append("member_of_hull disagrees with the component verdicts")
    return problems


# ---------------------------------------------------------------------------
# state polytopes and hull certificates


def witness_problems(payload: dict) -> list[str]:
    """Every witness must (at least weakly) maximise at its vertex."""
    vertices = [vec(v) for v in payload["polytope"]["vertices"]]
    witnesses = {key_vector(k): w for k, w in payload["witnesses"].items()}
    if set(witnesses) != set(vertices):
        return ["witness keys differ from the vertex set"]
    for vertex, w in witnesses.items():
        best = dot(w, vertex)
        if any(dot(w, u) > best for u in vertices):
            return [f"witness {w} does not maximise at {list(map(str, vertex))}"]
    return []


def nonstrict_witnesses(payload: dict) -> int:
    """Witnesses whose maximum is also attained by another vertex."""
    vertices = [vec(v) for v in payload["polytope"]["vertices"]]
    shared = 0
    for key, w in payload["witnesses"].items():
        vertex = key_vector(key)
        best = dot(w, vertex)
        shared += any(u != vertex and dot(w, u) == best for u in vertices)
    return shared


def check_state(payload: dict, m: int, q: int) -> list[str]:
    problems = []
    if payload.get("m") != m or payload.get("q") != q or payload.get("status") != "complete":
        problems.append(f"m/q/status {payload.get('m')}/{payload.get('q')}/{payload.get('status')}"
                        f" != {m}/{q}/complete")
    vertices = [vec(v) for v in payload["polytope"]["vertices"]]
    if not vertices or any(sum(v) != m * q for v in vertices):
        problems.append("a vertex's coordinate sum is not m*q")
    return problems + witness_problems(payload)


def replay_membership(payload: dict, vertices: list[Vector], point: Vector) -> list[str]:
    """Replay a ``contains`` certificate: convex coefficients aligned with the
    sorted vertices that reproduce the point, or a strict separator."""
    if vec(payload["point"]) != point:
        return [f"queried point {payload['point']} != {list(map(str, point))}"]
    coefficients, separator = payload["coefficients"], payload["separator"]
    if payload["inside"] is True and separator is None and coefficients is not None:
        lam = vec(coefficients)
        ordered = sorted(set(vertices))
        if len(lam) != len(ordered) or any(x < 0 for x in lam) or sum(lam) != 1:
            return ["coefficients are not a convex combination"]
        combination = tuple(sum(l * v[j] for l, v in zip(lam, ordered)) for j in range(len(point)))
        if combination != point:
            return ["coefficients do not reproduce the point"]
        return []
    if payload["inside"] is False and coefficients is None and separator is not None:
        if len(separator) != len(point):
            return ["separator has the wrong length"]
        if dot(separator, point) <= max(dot(separator, v) for v in vertices):
            return [f"separator {separator} is not strict"]
        return []
    return ["certificate does not match the inside flag"]


# ---------------------------------------------------------------------------
# dispatch


class Env:
    """What the checks of one run may consult besides the document."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.payloads: dict[str, dict] = {}

    def bridge_component(self, k: int) -> list[Vector]:
        return wl.load_vertices(self.root / "data" / "bridge" / wl.BRIDGE_COMPONENTS[k])


def check_op(meta: dict, payload: dict, env: Env) -> list[str]:
    kind = meta["kind"]
    if kind == "bridge_chain_state":
        comps = [env.bridge_component(k) for k in range(len(wl.BRIDGE_COMPONENTS))]
        return check_chain_state(payload, wl.BRIDGE_BLOCKS, comps, meta["m"])
    if kind == "bridge_semistable":
        levels = [sum(env.bridge_component(k)[0]) for k in range(len(wl.BRIDGE_COMPONENTS))]
        return check_chain_semistable(payload, wl.BRIDGE_BLOCKS, levels, meta["m"])
    if kind == "contains":
        k = meta["component"]
        if meta["point"] == "summand":
            semistable = env.payloads["semistable"]
            point = vec(semistable["summands"][k])
            if payload["inside"] != semistable["components"][k]["inside"]:
                return ["contains disagrees with the semistable verdict"]
        else:
            comps = [env.bridge_component(j) for j in range(len(wl.BRIDGE_COMPONENTS))]
            entry = wl.bridge_points(env.seed, comps)[meta["index"]]
            point = vec(entry["point"])
        return replay_membership(payload, env.bridge_component(k), point)
    if kind == "implicitize":
        variables = payload["variables"]
        param = dict(enumerate(meta["forms"]))
        gens = [parse_poly(g, variables) for g in payload["generators"]]
        if not gens or any(not g or not vanishes_on(g, param) for g in gens):
            return ["a generator does not vanish on the parametrised curve"]
        return []
    if kind == "state":
        m = meta["m"]
        if meta["curve"] == "sextic":
            problems = check_state(payload, m, sextic_q(m))
        else:
            problems = check_state(payload, m, rosary_q(meta["r"], m))
        if "mirror_of" in meta:
            left = {vec(v) for v in env.payloads[meta["mirror_of"]]["polytope"]["vertices"]}
            mirrored = {tuple(reversed(vec(v))) for v in payload["polytope"]["vertices"]}
            if mirrored != left:
                problems.append("the mirror polytope is not the coordinate reversal")
        return problems
    if kind == "sextic_chain_state":
        left = [vec(v) for v in env.payloads[meta["left"]]["polytope"]["vertices"]]
        pad = (0,) * 4
        comps = [[v + pad for v in left], [pad + tuple(reversed(v)) for v in left]]
        return check_chain_state(payload, wl.SEXTIC_CHAIN_BLOCKS, comps, meta["m"])
    if kind == "sextic_semistable":
        level = meta["m"] * sextic_q(meta["m"])
        return check_chain_semistable(payload, wl.SEXTIC_CHAIN_BLOCKS, [level, level], meta["m"])
    if kind == "sextic_intersect":
        variables = wl.names(9)
        left = dict(enumerate(wl.SEXTIC_FORMS))
        right = {4 + i: f for i, f in enumerate(wl.MIRROR_FORMS)}
        return _vanish_on_all(payload, variables, [left, right])
    if kind == "rosary_intersect":
        variables = wl.names(3 * meta["r"] + 1)
        return _vanish_on_all(payload, variables, rosary_parametrisations(meta["r"]))
    if kind == "hm":
        return check_hm(payload, meta, env)
    if kind == "contains_barycenter":
        state = env.payloads[meta["state"]]
        arity = 3 * meta["r"] + 1
        point = (Fraction(meta["m"] * rosary_q(meta["r"], meta["m"]), arity),) * arity
        return replay_membership(payload, [vec(v) for v in state["polytope"]["vertices"]], point)
    if kind == "rosary_check":
        return check_rosary(payload, meta["r"], meta["d"])
    raise ValueError(f"no check named {kind!r}")


def _vanish_on_all(payload: dict, variables: list[str], params: list[dict]) -> list[str]:
    gens = [parse_poly(g, variables) for g in payload["generators"]]
    if not gens:
        return ["no generators"]
    for g in gens:
        if not g or not all(vanishes_on(g, p) for p in params):
            return ["a generator does not vanish on every component"]
    return []


def check_hm(payload: dict, meta: dict, env: Env) -> list[str]:
    m = meta["m"]
    weights = wl.hm_weights(env.seed)
    problems = []
    total = Fraction(sum(weights))
    p = payload["p_value"]
    sws = Fraction(payload["standard_weight_sum"])
    mu = Fraction(payload["mu"])
    if payload["m"] != m or Fraction(payload["weight_total"]) != total:
        problems.append("m or weight total differs from the query")
    if mu != -sws + Fraction(m * p, len(weights)) * total:
        problems.append("mu != -standard_weight_sum + m*p/(n+1)*weight_total")
    # two degree-6 genus-2 curves meeting in one point: degree 12, genus 4
    if p != 12 * m - 3:
        problems.append(f"p_value {p} != 12m - 3")
    if "equal_to" in meta:
        other = env.payloads[meta["equal_to"]]
        for key in ("mu", "p_value", "standard_weight_sum", "weight_total"):
            if other[key] != payload[key]:
                problems.append(f"{key} differs between the decomposed and direct routes")
    return problems


def check_rosary(payload: dict, r: int, d: int) -> list[str]:
    problems = []
    arity = 3 * r + 1
    left = [tuple(x) for x in payload["left_side"]]
    right = [tuple(x) for x in payload["right_side"]]
    if payload["r"] != r or payload["d"] != d:
        problems.append("r or d differs from the query")
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        problems.append("a side lists a monomial twice")
    if set(left) != set(right) or payload["missing"] or payload["extra"] or payload["ok"] is not True:
        problems.append("the two sides differ")
    if any(len(x) != arity or sum(x) != d for x in left + right):
        problems.append("a monomial has the wrong arity or degree")
    augmentation = set()
    for l in range(1, r + 1):
        j = 3 * l - 2
        powers = [{j: 2}] if d == 2 else [{j: 3}, {j: 2, j + 1: 1}]
        for exps in powers:
            augmentation.add(tuple(exps.get(i, 0) for i in range(arity)))
    if not augmentation <= set(left):
        problems.append("a junction power is missing from the left side")
    mixed = set()
    for l in range(1, r + 1):
        top = min(3 * l + 2, 3 * r)
        for mono in degree_monomials(arity, d):
            support = [i for i, e in enumerate(mono) if e]
            if support[-1] <= top and support[0] < 3 * l - 2 and support[-1] > 3 * l - 1:
                mixed.add(mono)
    if not mixed <= set(right):
        problems.append("a T_l^d monomial is missing from the right side")
    spans = [set(wl.rosary_component_coords(l, r)) for l in range(1, r + 2)]
    for mono in set(right) - mixed:
        support = {i for i, e in enumerate(mono) if e}
        if not any(support <= span for span in spans):
            problems.append(f"{mono} is neither mixed nor inside one component")
            break
    return problems


def check_documents(workload: str, seed: int, root: Path,
                    ops: list[dict]) -> list[tuple[str, list[str], bool]]:
    """Check every operation of one pass in order.  Returns ``(label,
    problems, errored)`` for each operation that failed: ``errored`` when it
    raised or exited non-zero (it is then not checked)."""
    env = Env(root, seed)
    metas = {step.label: step.check for step in wl.steps_for(workload)}
    failures = []
    for op in ops:
        label = op["label"]
        if op["error"] is not None or op["exit_code"] != 0:
            failures.append((label, [op["error"] or f"exit code {op['exit_code']}"], True))
            continue
        try:
            payload = json.loads(op["text"])["payload"]
            env.payloads[label] = payload
            problems = check_op(metas[label], payload, env)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed document: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((label, problems, False))
    return failures
