"""Open ZX multigraphs: phase-carrying spiders, H boxes, ordered boundaries.

Wire shape is not represented at all: a diagram is a multiset of unordered
edges between node ids and boundary-port ids, so the wire-bending equations
hold definitionally.  Diagrams are plain values; every operation returns a
fresh diagram and never mutates its arguments.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable, Optional, Union

TWO_PI = 2 * math.pi

Z, X, H = "Z", "X", "H"


class DiagramError(ValueError):
    """Raised for malformed construction requests (bad arity, bad phase)."""


@dataclass(frozen=True)
class PiRational:
    """An exact angle (num/den) * pi, normalized into [0, 2*pi)."""

    num: int
    den: int = 1

    def __post_init__(self):
        if self.den <= 0:
            raise DiagramError(f"denominator must be positive, got {self.den}")
        num = self.num % (2 * self.den)
        g = gcd(num, self.den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def parse(text: str) -> "PiRational":
        """The angle of the literal ``n`` or ``n/d`` (ASCII digits, ``n``
        optionally negative) in units of pi."""
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
            raise DiagramError(f"bad phase literal {text!r}")
        num, _, den = text.partition("/")
        return PiRational(int(num), int(den or 1))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __add__(self, other: "PiRational") -> "PiRational":
        return PiRational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, k: int) -> "PiRational":
        return PiRational(self.num * k, self.den)

    def __neg__(self) -> "PiRational":
        return PiRational(-self.num, self.den)

    @property
    def radians(self) -> float:
        return math.pi * self.num / self.den


# A phase is either exact (a rational multiple of pi) or a float in radians.
Phase = Union[PiRational, float]


def normalize_float_phase(radians: float) -> float:
    if not math.isfinite(radians):
        raise DiagramError(f"float phase must be finite, got {radians}")
    return radians % TWO_PI


def phase_radians(phase: Phase) -> float:
    return phase.radians if isinstance(phase, PiRational) else phase


def phase_is_exact(phase: Phase) -> bool:
    return isinstance(phase, PiRational)


def scale_phase(phase: Phase, k: int) -> Phase:
    if isinstance(phase, PiRational):
        return phase * k
    return normalize_float_phase(phase * k)


def add_phases(a: Phase, b: Phase) -> Phase:
    if isinstance(a, PiRational) and isinstance(b, PiRational):
        return a + b
    return normalize_float_phase(phase_radians(a) + phase_radians(b))


@dataclass(frozen=True)
class NodeKind:
    """A Z spider, X spider (with phase) or an H box (no phase)."""

    kind: str
    phase: Optional[Phase] = None

    def __post_init__(self):
        if self.kind not in (Z, X, H):
            raise DiagramError(f"unknown node kind {self.kind!r}")
        if self.kind == H:
            if self.phase is not None:
                raise DiagramError("H boxes carry no phase")
        else:
            if self.phase is None:
                raise DiagramError("spiders need a phase")
            if isinstance(self.phase, float):
                object.__setattr__(self, "phase", normalize_float_phase(self.phase))


def zspider(phase: Phase = PiRational(0)) -> NodeKind:
    return NodeKind(Z, phase)


def xspider(phase: Phase = PiRational(0)) -> NodeKind:
    return NodeKind(X, phase)


def hbox() -> NodeKind:
    return NodeKind(H)


Edge = tuple[str, str]


def _norm_edge(a: str, b: str) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass
class Diagram:
    """An open graph: nodes, a multiset of edges, and ordered boundaries.

    Edge endpoints are node ids or boundary-port ids; ports occur in exactly
    one edge.  Parallel edges and spider self-loops are allowed.
    """

    nodes: dict[str, NodeKind] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    # -- basic queries -------------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def ports(self) -> set[str]:
        return set(self.inputs) | set(self.outputs)

    def edge_counts(self) -> tuple[dict[str, int], dict[Edge, int]]:
        """Each id's degree (a self-loop counts 2) and each edge's multiplicity."""
        degree, mult = {}, {}
        for e in self.edges:
            mult[e] = mult.get(e, 0) + 1
            for end in e:
                degree[end] = degree.get(end, 0) + 1
        return degree, mult

    def degree(self, node_id: str) -> int:
        return self.edge_counts()[0].get(node_id, 0)

    def edge_multiplicity(self, a: str, b: str) -> int:
        return self.edge_counts()[1].get(_norm_edge(a, b), 0)

    def copy(self) -> "Diagram":
        return Diagram(dict(self.nodes), list(self.edges), self.inputs, self.outputs)

    def add_edge(self, a: str, b: str) -> None:
        self.edges.append(_norm_edge(a, b))

    def all_ids(self) -> set[str]:
        return set(self.nodes) | self.ports()

    def phases(self) -> list[Phase]:
        return [nk.phase for nk in self.nodes.values() if nk.phase is not None]

    def is_exact(self) -> bool:
        return all(phase_is_exact(p) for p in self.phases())

    # -- structural equality up to a supplied node bijection ------------------

    def matches_under(self, other: "Diagram", node_map: dict[str, str]) -> Optional[str]:
        """Check this diagram equals ``other`` under node_map (ports by order).

        Returns None on success and a human-readable reason on failure.
        """
        if set(node_map.keys()) != set(self.nodes) or set(node_map.values()) != set(other.nodes):
            return "node map is not a bijection between node sets"
        if len(self.inputs) != len(other.inputs) or len(self.outputs) != len(other.outputs):
            return "boundary arity differs"
        full = dict(node_map)
        for p, q in zip(self.inputs + self.outputs, other.inputs + other.outputs):
            full[p] = q
        for n, kind in self.nodes.items():
            if other.nodes[node_map[n]] != kind:
                return f"node {n} maps to a different kind/phase"
        mapped = sorted(_norm_edge(full[a], full[b]) for a, b in self.edges)
        if mapped != sorted(other.edges):
            return "edge multisets differ under the map"
        return None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}" + (f" ({self.detail})" if self.detail else "")


def validate_diagram(d: Diagram) -> list[Violation]:
    """Check every structural invariant; an empty list means well-formed."""
    out: list[Violation] = []
    ports = list(d.inputs) + list(d.outputs)
    if len(set(ports)) != len(ports):
        out.append(Violation("duplicate port", ",".join(ports)))
    port_set = set(ports)
    overlap = port_set & set(d.nodes)
    if overlap:
        out.append(Violation("port/node id clash", ",".join(sorted(overlap))))
    known = port_set | set(d.nodes)
    deg: dict[str, int] = {}
    for a, b in d.edges:
        for end in (a, b):
            if end not in known:
                out.append(Violation("orphan endpoint", end))
            deg[end] = deg.get(end, 0) + 1
        if a == b and a in d.nodes and d.nodes[a].kind == H:
            out.append(Violation("HBox self-loop", a))
    for p in ports:
        if deg.get(p, 0) != 1:
            out.append(Violation("dangling port", p, f"degree {deg.get(p, 0)}"))
    for n, kind in d.nodes.items():
        if kind.kind == H and deg.get(n, 0) != 2:
            out.append(Violation("HBox degree", n, f"degree {deg.get(n, 0)}"))
        if kind.phase is not None and isinstance(kind.phase, float) and not math.isfinite(kind.phase):
            out.append(Violation("non-finite phase", n))
    return out


def ensure_valid(d: Diagram) -> Diagram:
    violations = validate_diagram(d)
    if violations:
        raise DiagramError("; ".join(str(v) for v in violations))
    return d


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def make_spider(kind: str, phase: Phase, n_in: int, n_out: int, node_id: str = "s0") -> Diagram:
    """A single spider with n_in input legs and n_out output legs."""
    if kind not in (Z, X):
        raise DiagramError(f"spider kind must be Z or X, got {kind!r}")
    if n_in < 0 or n_out < 0:
        raise DiagramError("leg counts must be non-negative")
    d = Diagram()
    d.nodes[node_id] = NodeKind(kind, phase)
    d.inputs = tuple(f"i{k}" for k in range(n_in))
    d.outputs = tuple(f"o{k}" for k in range(n_out))
    for p in d.inputs + d.outputs:
        d.add_edge(p, node_id)
    return d


def make_generator(name: str) -> Diagram:
    """One of the wire generators: identity, swap, cup, cap, hbox, empty."""
    d = Diagram()
    if name == "empty":
        return d
    if name == "identity":
        d.inputs, d.outputs = ("i0",), ("o0",)
        d.add_edge("i0", "o0")
        return d
    if name == "swap":
        d.inputs, d.outputs = ("i0", "i1"), ("o0", "o1")
        d.add_edge("i0", "o1")
        d.add_edge("i1", "o0")
        return d
    if name == "cup":
        d.inputs = ("i0", "i1")
        d.add_edge("i0", "i1")
        return d
    if name == "cap":
        d.outputs = ("o0", "o1")
        d.add_edge("o0", "o1")
        return d
    if name == "hbox":
        d.nodes["h0"] = hbox()
        d.inputs, d.outputs = ("i0",), ("o0",)
        d.add_edge("i0", "h0")
        d.add_edge("h0", "o0")
        return d
    raise DiagramError(f"unknown generator {name!r}")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _freshen(ids: Iterable[str], taken: set[str]) -> dict[str, str]:
    """Each id, or its first ``id~k`` (k >= 1) not in ``taken``; adds the results to ``taken``."""
    mapping = {}
    for i in ids:
        cand = i
        k = 1
        while cand in taken:
            cand = f"{i}~{k}"
            k += 1
        mapping[i] = cand
        taken.add(cand)
    return mapping


def tensor_product(d1: Diagram, d2: Diagram) -> Diagram:
    """Disjoint union; d2's ids are freshened deterministically on collision."""
    taken = d1.all_ids()
    ren = _freshen(sorted(d2.all_ids()), taken)
    out = d1.copy()
    for n, kind in d2.nodes.items():
        out.nodes[ren[n]] = kind
    for a, b in d2.edges:
        out.add_edge(ren[a], ren[b])
    out.inputs = d1.inputs + tuple(ren[p] for p in d2.inputs)
    out.outputs = d1.outputs + tuple(ren[p] for p in d2.outputs)
    return out


def sequential_compose(later: Diagram, earlier: Diagram) -> Diagram:
    """Plug the outputs of ``earlier`` into the inputs of ``later``.

    Fused port pairs become degree-2 junction points that are spliced away.
    A chain of wires that closes into a pure circle is materialized as a
    phase-0 Z spider with a self-loop, which has the same interpretation
    (the scalar 2).
    """
    if earlier.n_outputs != later.n_inputs:
        raise DiagramError(
            f"arity mismatch: earlier has {earlier.n_outputs} outputs, later expects {later.n_inputs}")
    taken = earlier.all_ids()
    ren = _freshen(sorted(later.all_ids()), taken)
    nodes = dict(earlier.nodes)
    for n, kind in later.nodes.items():
        nodes[ren[n]] = kind

    junctions = list(_freshen([f"junction~{k}" for k in range(later.n_inputs)], taken).values())
    junction_of: dict[str, str] = {}
    for j, p_out, p_in in zip(junctions, earlier.outputs, later.inputs):
        junction_of[p_out] = j
        junction_of[ren[p_in]] = j

    def resolve(end: str) -> str:
        return junction_of.get(end, end)

    edges: list[Edge] = [_norm_edge(resolve(a), resolve(b)) for a, b in earlier.edges]
    edges += [_norm_edge(resolve(ren[a]), resolve(ren[b])) for a, b in later.edges]

    loops = 0
    for j in junctions:
        incident = [i for i, (a, b) in enumerate(edges) if a == j or b == j]
        if len(incident) == 1 and edges[incident[0]] == (j, j):
            del edges[incident[0]]
            loops += 1
        elif len(incident) == 2:
            i1, i2 = incident
            a1, b1 = edges[i1]
            a2, b2 = edges[i2]
            end1 = b1 if a1 == j else a1
            end2 = b2 if a2 == j else a2
            if end1 == j or end2 == j:
                raise DiagramError(f"composition junction {j} is over-connected")
            for i in sorted(incident, reverse=True):
                del edges[i]
            edges.append(_norm_edge(end1, end2))
        else:
            raise DiagramError(f"composition junction {j} has degree {len(incident)}, expected 2")

    result = Diagram(nodes, edges, earlier.inputs, tuple(ren[p] for p in later.outputs))
    for loop_id in _freshen([f"loop~{k}" for k in range(loops)], result.all_ids()).values():
        result.nodes[loop_id] = zspider(PiRational(0))
        result.edges.append((loop_id, loop_id))
    return result


# ---------------------------------------------------------------------------
# structural functors
# ---------------------------------------------------------------------------

def transform_variant(d: Diagram, color_swap: bool = False, vertical_flip: bool = False) -> Diagram:
    """Swap spider colours and/or read the diagram bottom-to-top."""
    out = d.copy()
    if color_swap:
        swapped = {}
        for n, kind in out.nodes.items():
            if kind.kind == Z:
                swapped[n] = NodeKind(X, kind.phase)
            elif kind.kind == X:
                swapped[n] = NodeKind(Z, kind.phase)
            else:
                swapped[n] = kind
        out.nodes = swapped
    if vertical_flip:
        out.inputs, out.outputs = out.outputs, out.inputs
    return out


def scale_angles(d: Diagram, factor: int) -> Diagram:
    """Multiply every spider phase by ``factor`` (mod 2*pi)."""
    if factor < 1:
        raise DiagramError(f"scale factor must be >= 1, got {factor}")
    out = d.copy()
    out.nodes = {
        n: kind if kind.phase is None else NodeKind(kind.kind, scale_phase(kind.phase, factor))
        for n, kind in d.nodes.items()
    }
    return out


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------

def phase_to_json(phase: Phase) -> object:
    if isinstance(phase, PiRational):
        return str(phase)
    return {"float": phase}


def phase_from_json(obj: object) -> Phase:
    if isinstance(obj, str):
        return PiRational.parse(obj)
    if isinstance(obj, dict) and "float" in obj:
        x = obj["float"]
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return normalize_float_phase(float(x))
    if isinstance(obj, int) and not isinstance(obj, bool):
        return PiRational(obj)
    raise DiagramError(f"bad phase value {obj!r}")


def diagram_to_json(d: Diagram) -> dict:
    nodes = []
    for n in sorted(d.nodes):
        kind = d.nodes[n]
        entry: dict[str, object] = {"id": n, "kind": kind.kind}
        if kind.phase is not None:
            entry["phase"] = phase_to_json(kind.phase)
        nodes.append(entry)
    return {
        "inputs": list(d.inputs),
        "outputs": list(d.outputs),
        "nodes": nodes,
        "edges": [[a, b] for a, b in d.edges],
    }


_JSON_TYPES = {dict: "a JSON object", list: "a JSON list", str: "a string", int: "an integer",
               bool: "a boolean"}


def _json(value: object, kind: type, what: str, item: Optional[type] = None,
          keys: tuple = ()):
    """``value`` when it is of JSON type ``kind``, if ``item`` is given every
    element of a list (or value of an object) is of type ``item``, and if
    ``keys`` are given an object has no other key; otherwise a DiagramError
    naming ``what``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DiagramError(f"{what} must be {_JSON_TYPES[kind]}")
    if item is not None:
        for x in value.values() if kind is dict else value:
            if not isinstance(x, item):
                raise DiagramError(f"every item of {what} must be {_JSON_TYPES[item]}")
    for key in value if keys else ():
        if key not in keys:
            raise DiagramError(f"{what} has an unknown key {key!r}")
    return value


def diagram_from_json(obj: object) -> Diagram:
    """The diagram of a JSON object; raises DiagramError for a malformed one,
    including a repeated node id and a key it does not know."""
    _json(obj, dict, "a diagram", keys=("inputs", "outputs", "nodes", "edges"))
    d = Diagram()
    d.inputs = tuple(_json(obj.get("inputs", []), list, "inputs", str))
    d.outputs = tuple(_json(obj.get("outputs", []), list, "outputs", str))
    for entry in _json(obj.get("nodes", []), list, "nodes", dict):
        _json(entry, dict, "a node", keys=("id", "kind", "phase"))
        node_id = _json(entry.get("id"), str, "a node id")
        if node_id in d.nodes:
            raise DiagramError(f"node id {node_id!r} appears twice")
        kind, phase = entry.get("kind"), entry.get("phase", "0")
        bare_h = kind == H and "phase" not in entry  # ``NodeKind`` refuses an H box's phase
        d.nodes[node_id] = NodeKind(kind, None if bare_h else phase_from_json(phase))
    for pair in _json(obj.get("edges", []), list, "edges", list):
        if len(pair) != 2 or not all(isinstance(end, str) for end in pair):
            raise DiagramError(f"an edge must be two ids, got {pair!r}")
        d.add_edge(pair[0], pair[1])
    return d


def _load_json(path: str, build: Callable[[object], object], what: str):
    """``build`` applied to the JSON value in the file at ``path``.  A file
    that cannot be read, is not UTF-8 or is not JSON, and a value that
    ``build`` refuses, raise a DiagramError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise DiagramError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DiagramError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    try:
        return build(obj)
    except DiagramError as exc:
        raise DiagramError(f"{path}: malformed {what}: {exc}") from exc


def load_diagram(path: str) -> Diagram:
    return _load_json(path, lambda obj: ensure_valid(diagram_from_json(obj)), "diagram")


def dump_diagram(d: Diagram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diagram_to_json(d), fh, indent=2, sort_keys=True)
        fh.write("\n")
