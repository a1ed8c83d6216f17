"""The rewrite-rule catalogue and its soundness harnesses.

Schemas are parametric in angles and leg counts; ``instantiate`` produces a
concrete left/right diagram pair, optionally colour-swapped or flipped
upside-down (every rule also holds in those variants).  Soundness of an
instance is decided by comparing the two interpretations, exactly whenever
all phases are exact.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .diagram import (
    Diagram, Phase, PiRational, Z,
    add_phases, hbox, make_spider, normalize_float_phase,
    scale_phase, transform_variant, xspider, zspider,
)
from .interpret import (
    EXACT, FLOAT, MAX_MODULUS, ResourceLimitError, interpret, invariant_r, matrix_compare,
)


class RuleError(ValueError):
    """Unknown rule, bad binding, or an out-of-range arity."""


# The largest leg count or wire multiplicity a binding may ask for.  Every
# instance is built as an explicit diagram, so a script binding 10^30 legs
# would hang; the bundled scripts and sweeps use at most 3.
MAX_ARITY = 1024


@dataclass(frozen=True)
class RuleSchema:
    """A parametric rewrite rule with a builder from bindings to diagrams."""

    name: str
    origin: str  # axiom-fig1 | axiom-fig3 | derived-imported | schema
    angle_params: tuple[str, ...]
    arity_floors: dict[str, int]
    build: Callable[[dict], tuple[Diagram, Diagram]]
    arity_grid: Callable[[int], list[dict]]
    note: str = ""


@dataclass(frozen=True)
class RuleInstance:
    schema: str
    bindings: dict
    color_swap: bool
    vertical_flip: bool
    lhs: Diagram
    rhs: Diagram

    def key(self) -> str:
        items = ",".join(f"{k}={_binding_str(v)}" for k, v in sorted(self.bindings.items()))
        flags = ("S" if self.color_swap else "") + ("F" if self.vertical_flip else "")
        return f"{self.schema}[{items}]{flags or '-'}"


def _binding_str(v) -> str:
    if isinstance(v, PiRational):
        return str(v)
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


# ---------------------------------------------------------------------------
# builders (canonical node ids are part of the rule's public shape: scripts
# reference them in embeddings)
# ---------------------------------------------------------------------------

def _ports(d: Diagram, n_in: int, n_out: int) -> None:
    d.inputs = tuple(f"i{k}" for k in range(n_in))
    d.outputs = tuple(f"o{k}" for k in range(n_out))


def _build_s1(b: dict) -> tuple[Diagram, Diagram]:
    j = b["wires"]
    a_in, a_out, b_in, b_out = b["a_in"], b["a_out"], b["b_in"], b["b_out"]
    lhs = Diagram()
    lhs.nodes["a"] = zspider(b["alpha"])
    lhs.nodes["b"] = zspider(b["beta"])
    _ports(lhs, a_in + b_in, a_out + b_out)
    for k in range(a_in):
        lhs.add_edge(f"i{k}", "a")
    for k in range(b_in):
        lhs.add_edge(f"i{a_in + k}", "b")
    for k in range(a_out):
        lhs.add_edge("a", f"o{k}")
    for k in range(b_out):
        lhs.add_edge("b", f"o{a_out + k}")
    for _ in range(j):
        lhs.add_edge("a", "b")
    return lhs, make_spider(Z, add_phases(b["alpha"], b["beta"]), a_in + b_in, a_out + b_out, "m")


def _build_s2(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    lhs.nodes["u"] = zspider(PiRational(0))
    _ports(lhs, 1, 1)
    lhs.add_edge("i0", "u")
    lhs.add_edge("u", "o0")
    rhs = Diagram()
    _ports(rhs, 1, 1)
    rhs.add_edge("i0", "o0")
    return lhs, rhs


def _build_s3(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    _ports(lhs, 0, 2)
    lhs.add_edge("o0", "o1")
    rhs = Diagram()
    rhs.nodes["u"] = zspider(PiRational(0))
    _ports(rhs, 0, 2)
    rhs.add_edge("u", "o0")
    rhs.add_edge("u", "o1")
    return lhs, rhs


def _pair(d: Diagram, xid: str, zid: str, x_phase: Phase = PiRational(0),
          z_phase: Phase = PiRational(0), wires: int = 1) -> None:
    """Add an X and a Z spider joined by ``wires`` parallel edges; at phase
    0 that is the scalar sqrt2 for one wire and 1/sqrt2 for three."""
    d.nodes[xid] = xspider(x_phase)
    d.nodes[zid] = zspider(z_phase)
    for _ in range(wires):
        d.add_edge(xid, zid)


def _build_iv(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    _pair(lhs, "x1", "z1")
    _pair(lhs, "x3", "z3", wires=3)
    return lhs, Diagram()


def _build_b1(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    _pair(lhs, "px", "pz")
    lhs.nodes["s"] = xspider(PiRational(0))
    lhs.nodes["f"] = zspider(PiRational(0))
    _ports(lhs, 0, 2)
    lhs.add_edge("s", "f")
    lhs.add_edge("f", "o0")
    lhs.add_edge("f", "o1")
    rhs = Diagram()
    rhs.nodes["u"] = xspider(PiRational(0))
    rhs.nodes["v"] = xspider(PiRational(0))
    _ports(rhs, 0, 2)
    rhs.add_edge("u", "o0")
    rhs.add_edge("v", "o1")
    return lhs, rhs


def _build_b2(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    _pair(lhs, "px", "pz")
    lhs.nodes["za"] = zspider(PiRational(0))
    lhs.nodes["zb"] = zspider(PiRational(0))
    lhs.nodes["xc"] = xspider(PiRational(0))
    lhs.nodes["xd"] = xspider(PiRational(0))
    _ports(lhs, 2, 2)
    lhs.add_edge("i0", "za")
    lhs.add_edge("i1", "zb")
    lhs.add_edge("xc", "o0")
    lhs.add_edge("xd", "o1")
    for zn in ("za", "zb"):
        for xn in ("xc", "xd"):
            lhs.add_edge(zn, xn)
    rhs = Diagram()
    rhs.nodes["xm"] = xspider(PiRational(0))
    rhs.nodes["zm"] = zspider(PiRational(0))
    _ports(rhs, 2, 2)
    rhs.add_edge("i0", "xm")
    rhs.add_edge("i1", "xm")
    rhs.add_edge("xm", "zm")
    rhs.add_edge("zm", "o0")
    rhs.add_edge("zm", "o1")
    return lhs, rhs


def _build_k1(b: dict) -> tuple[Diagram, Diagram]:
    m = b["legs"]
    lhs = Diagram()
    lhs.nodes["k"] = zspider(PiRational(1))
    lhs.nodes["x"] = xspider(PiRational(0))
    _ports(lhs, 1, m)
    lhs.add_edge("i0", "k")
    lhs.add_edge("k", "x")
    for j in range(m):
        lhs.add_edge("x", f"o{j}")
    rhs = Diagram()
    rhs.nodes["x"] = xspider(PiRational(0))
    _ports(rhs, 1, m)
    rhs.add_edge("i0", "x")
    for j in range(m):
        rhs.nodes[f"k{j}"] = zspider(PiRational(1))
        rhs.add_edge("x", f"k{j}")
        rhs.add_edge(f"k{j}", f"o{j}")
    return lhs, rhs


def _build_k2(b: dict) -> tuple[Diagram, Diagram]:
    alpha = b["alpha"]
    lhs = Diagram()
    _pair(lhs, "px", "pz")
    lhs.nodes["xa"] = xspider(alpha)
    lhs.nodes["zp"] = zspider(PiRational(1))
    _ports(lhs, 1, 1)
    lhs.add_edge("i0", "xa")
    lhs.add_edge("xa", "zp")
    lhs.add_edge("zp", "o0")
    rhs = Diagram()
    _pair(rhs, "px", "pz", x_phase=alpha, z_phase=PiRational(1))
    rhs.nodes["zp2"] = zspider(PiRational(1))
    rhs.nodes["xa2"] = xspider(scale_phase(alpha, -1))
    _ports(rhs, 1, 1)
    rhs.add_edge("i0", "zp2")
    rhs.add_edge("zp2", "xa2")
    rhs.add_edge("xa2", "o0")
    return lhs, rhs


def _build_eu(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    lhs.nodes["h"] = hbox()
    _ports(lhs, 1, 1)
    lhs.add_edge("i0", "h")
    lhs.add_edge("h", "o0")
    rhs = Diagram()
    rhs.nodes["zt"] = zspider(PiRational(1, 2))
    rhs.nodes["xm"] = xspider(PiRational(0))
    rhs.nodes["zb"] = zspider(PiRational(1, 2))
    rhs.nodes["zs"] = zspider(PiRational(-1, 2))
    _ports(rhs, 1, 1)
    rhs.add_edge("i0", "zt")
    rhs.add_edge("zt", "xm")
    rhs.add_edge("xm", "zb")
    rhs.add_edge("zb", "o0")
    rhs.add_edge("xm", "zs")
    return lhs, rhs


def _build_h(b: dict) -> tuple[Diagram, Diagram]:
    n, m = b["n_in"], b["n_out"]
    alpha = b["alpha"]
    lhs = Diagram()
    lhs.nodes["x"] = xspider(alpha)
    _ports(lhs, n, m)
    for k in range(n):
        hid = f"hi{k}"
        lhs.nodes[hid] = hbox()
        lhs.add_edge(f"i{k}", hid)
        lhs.add_edge(hid, "x")
    for k in range(m):
        hid = f"ho{k}"
        lhs.nodes[hid] = hbox()
        lhs.add_edge("x", hid)
        lhs.add_edge(hid, f"o{k}")
    return lhs, make_spider(Z, alpha, n, m, "z")


def _build_zo(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    lhs.nodes["zpi"] = zspider(PiRational(1))
    _ports(lhs, 1, 1)
    lhs.add_edge("i0", "o0")
    rhs = Diagram()
    rhs.nodes["zpi"] = zspider(PiRational(1))
    rhs.nodes["ze"] = zspider(PiRational(0))
    rhs.nodes["xs"] = xspider(PiRational(0))
    _ports(rhs, 1, 1)
    rhs.add_edge("i0", "ze")
    rhs.add_edge("xs", "o0")
    return lhs, rhs


def _build_supn(b: dict) -> tuple[Diagram, Diagram]:
    n = b["n"]
    alpha = b["alpha"]
    lhs = Diagram()
    lhs.nodes["x"] = xspider(PiRational(0))
    _ports(lhs, 0, 1)
    lhs.add_edge("x", "o0")
    for k in range(n):
        tid = f"t{k}"
        lhs.nodes[tid] = zspider(add_phases(alpha, PiRational(2 * k, n)))
        lhs.add_edge(tid, "x")
    rhs = Diagram()
    rhs.nodes["x"] = xspider(PiRational(0))
    rhs.nodes["tm"] = zspider(add_phases(scale_phase(alpha, n), PiRational(n - 1)))
    _ports(rhs, 0, 1)
    rhs.add_edge("x", "o0")
    for _ in range(n):
        rhs.add_edge("tm", "x")
    return lhs, rhs


def _build_sup(b: dict) -> tuple[Diagram, Diagram]:
    return _build_supn({"n": 2, "alpha": b["alpha"]})


def _build_e(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    lhs.nodes["g"] = zspider(PiRational(1, 4))
    lhs.nodes["r"] = xspider(PiRational(-1, 4))
    lhs.add_edge("g", "r")
    return lhs, Diagram()


def _build_hl(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    _pair(lhs, "p1x", "p1z")
    _pair(lhs, "p2x", "p2z")
    lhs.nodes["xh"] = xspider(PiRational(0))
    lhs.nodes["zg"] = zspider(PiRational(0))
    _ports(lhs, 1, 1)
    lhs.add_edge("i0", "xh")
    lhs.add_edge("xh", "zg")
    lhs.add_edge("xh", "zg")
    lhs.add_edge("zg", "o0")
    rhs = Diagram()
    rhs.nodes["xh"] = xspider(PiRational(0))
    rhs.nodes["zg"] = zspider(PiRational(0))
    _ports(rhs, 1, 1)
    rhs.add_edge("i0", "xh")
    rhs.add_edge("zg", "o0")
    return lhs, rhs


def _build_l51(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    _pair(lhs, "p1x", "p1z")
    _pair(lhs, "p2x", "p2z")
    rhs = Diagram()
    rhs.nodes["two"] = zspider(PiRational(0))
    return lhs, rhs


def _build_l52(b: dict) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    _pair(lhs, "px", "pz", x_phase=b["alpha"])
    rhs = Diagram()
    _pair(rhs, "px", "pz")
    return lhs, rhs


def _build_gb(b: dict) -> tuple[Diagram, Diagram]:
    n, m = b["n"], b["m"]
    lhs = Diagram()
    _ports(lhs, n, m)
    for k in range(n):
        lhs.nodes[f"g{k}"] = zspider(PiRational(0))
        lhs.add_edge(f"i{k}", f"g{k}")
    for j in range(m):
        lhs.nodes[f"r{j}"] = xspider(PiRational(0))
        lhs.add_edge(f"r{j}", f"o{j}")
    for k in range(n):
        for j in range(m):
            lhs.add_edge(f"g{k}", f"r{j}")
    rhs = Diagram()
    _ports(rhs, n, m)
    rhs.nodes["xm"] = xspider(PiRational(0))
    rhs.nodes["zm"] = zspider(PiRational(0))
    for k in range(n):
        rhs.add_edge(f"i{k}", "xm")
    rhs.add_edge("xm", "zm")
    for j in range(m):
        rhs.add_edge("zm", f"o{j}")
    for t in range((n - 1) * (m - 1)):
        _pair(rhs, f"lx{t}", f"lz{t}", wires=3)
    return lhs, rhs


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def _grid_fixed(_ceiling: int) -> list[dict]:
    return [{}]


def _grid_s1(c: int) -> list[dict]:
    out = []
    for j in range(1, max(2, min(c, 3) + 1)):
        for a_in in range(c + 1):
            for a_out in range(c + 1 - a_in):
                for b_in in range(c + 1 - a_in - a_out):
                    for b_out in range(c + 1 - a_in - a_out - b_in):
                        out.append({"wires": j, "a_in": a_in, "a_out": a_out,
                                    "b_in": b_in, "b_out": b_out})
    return out


def _grid_k1(c: int) -> list[dict]:
    return [{"legs": m} for m in range(c + 1)]


def _grid_h(c: int) -> list[dict]:
    return [{"n_in": n, "n_out": m} for n in range(c + 1) for m in range(c + 1 - n)]


def _grid_supn(c: int) -> list[dict]:
    return [{"n": n} for n in range(1, max(1, c) + 1)]


def _grid_gb(c: int) -> list[dict]:
    top = max(1, min(c, 3))
    return [{"n": n, "m": m} for n in range(1, top + 1) for m in range(1, top + 1)]


_SCHEMAS: list[RuleSchema] = [
    RuleSchema("S1", "axiom-fig1", ("alpha", "beta"),
               {"wires": 1, "a_in": 0, "a_out": 0, "b_in": 0, "b_out": 0},
               _build_s1, _grid_s1, "spider fusion"),
    RuleSchema("S2", "axiom-fig1", (), {}, _build_s2, _grid_fixed, "phase-0 spider is a wire"),
    RuleSchema("S3", "axiom-fig1", (), {}, _build_s3, _grid_fixed, "bent wire absorbs a dot"),
    RuleSchema("IV", "axiom-fig1", (), {}, _build_iv, _grid_fixed, "inverse scalar pair"),
    RuleSchema("B1", "axiom-fig1", (), {}, _build_b1, _grid_fixed, "copy"),
    RuleSchema("B2", "axiom-fig1", (), {}, _build_b2, _grid_fixed, "bialgebra"),
    RuleSchema("K1", "axiom-fig1", (), {"legs": 0}, _build_k1, _grid_k1, "pi copies through"),
    RuleSchema("K2", "axiom-fig1", ("alpha",), {}, _build_k2, _grid_fixed, "pi flips a phase"),
    RuleSchema("EU", "axiom-fig1", (), {}, _build_eu, _grid_fixed, "Euler decomposition of H"),
    RuleSchema("H", "axiom-fig1", ("alpha",), {"n_in": 0, "n_out": 0},
               _build_h, _grid_h, "colour change"),
    RuleSchema("ZO", "axiom-fig1", (), {}, _build_zo, _grid_fixed, "zero scalar disconnects"),
    RuleSchema("SUP", "axiom-fig1", ("alpha",), {}, _build_sup, _grid_fixed, "supplementarity"),
    RuleSchema("E", "axiom-fig3", (), {}, _build_e, _grid_fixed, "pi/4 scalar pair vanishes"),
    RuleSchema("SUPn", "schema", ("alpha",), {"n": 1}, _build_supn, _grid_supn,
               "cyclotomic supplementarity"),
    RuleSchema("HL", "derived-imported", (), {}, _build_hl, _grid_fixed, "Hopf law"),
    RuleSchema("L51", "derived-imported", (), {}, _build_l51, _grid_fixed,
               "two root-2 pairs make the 2 scalar"),
    RuleSchema("L52", "derived-imported", ("alpha",), {}, _build_l52, _grid_fixed,
               "pair value ignores the red phase"),
    RuleSchema("GB", "derived-imported", (), {"n": 1, "m": 1}, _build_gb, _grid_gb,
               "generalised bialgebra"),
]

_BY_NAME = {s.name: s for s in _SCHEMAS}

RULESETS: dict[str, tuple[str, ...]] = {
    "ZX": ("S1", "S2", "S3", "IV", "B1", "B2", "K1", "K2", "EU", "H", "ZO", "SUP"),
    "ZX_E": ("S1", "S2", "S3", "B1", "B2", "K1", "K2", "EU", "H", "SUP", "E"),
    "ZX_cyclo": ("S1", "S2", "S3", "E", "B1", "B2", "K2", "H", "EU", "SUPn"),
}

DERIVED_IMPORTED: tuple[str, ...] = ("HL", "L51", "L52", "GB")


def catalogue() -> list[RuleSchema]:
    return list(_SCHEMAS)


def get_schema(name: str) -> RuleSchema:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise RuleError(f"unknown rule {name!r}") from None


def ruleset_schemas(name: str) -> list[RuleSchema]:
    try:
        names = RULESETS[name]
    except KeyError:
        raise RuleError(f"unknown ruleset {name!r}") from None
    return [_BY_NAME[n] for n in names]


def instantiate(schema: RuleSchema | str, bindings: dict,
                color_swap: bool = False, vertical_flip: bool = False) -> RuleInstance:
    """Build the concrete instance; raises RuleError on bad bindings."""
    if isinstance(schema, str):
        schema = get_schema(schema)
    norm: dict = {}
    for p in schema.angle_params:
        if p not in bindings:
            raise RuleError(f"{schema.name} needs angle binding {p!r}")
        v = bindings[p]
        if isinstance(v, str):
            v = PiRational.parse(v)
        elif isinstance(v, float):
            v = normalize_float_phase(v)
        elif isinstance(v, int) and not isinstance(v, bool):
            v = PiRational(v)
        elif not isinstance(v, PiRational):
            raise RuleError(f"bad angle binding {p}={v!r}")
        norm[p] = v
    for p, floor in schema.arity_floors.items():
        v = bindings.get(p, floor)
        if not isinstance(v, int) or isinstance(v, bool) or v < floor:
            raise RuleError(f"{schema.name} binding {p}={v!r} below floor {floor}")
        if v > MAX_ARITY:
            raise RuleError(f"{schema.name} binding {p}={v!r} above cap {MAX_ARITY}")
        norm[p] = v
    extra = set(bindings) - set(norm)
    if extra:
        raise RuleError(f"{schema.name} got unknown bindings {sorted(extra)}")
    lhs, rhs = schema.build(norm)
    if (lhs.n_inputs, lhs.n_outputs) != (rhs.n_inputs, rhs.n_outputs):
        raise AssertionError(f"{schema.name}: sides have different arities")
    if color_swap or vertical_flip:
        lhs = transform_variant(lhs, color_swap, vertical_flip)
        rhs = transform_variant(rhs, color_swap, vertical_flip)
    return RuleInstance(schema.name, norm, color_swap, vertical_flip, lhs, rhs)


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------

@dataclass
class SoundnessResult:
    sound: bool
    witness: Optional[tuple[int, int, str, str]] = None

    def __bool__(self) -> bool:
        return self.sound


def check_soundness(instance: RuleInstance, backend: str = EXACT,
                    tol: float = 1e-9, max_rank: int = 16) -> SoundnessResult:
    lhs = interpret(instance.lhs, backend=backend, max_rank=max_rank)
    rhs = interpret(instance.rhs, backend=backend, max_rank=max_rank)
    cmp = matrix_compare(lhs, rhs, tol=tol)
    return SoundnessResult(cmp.equal, cmp.witness)


_VARIANTS = ((False, False), (True, False), (False, True), (True, True))


def _angle_grid(grid_den: int) -> list[PiRational]:
    return [PiRational(k, grid_den) for k in range(2 * grid_den)]


@dataclass
class SuiteEntry:
    key: str
    backend: str
    status: str  # PASS | FAIL | SKIP
    witness: Optional[tuple[int, int, str, str]] = None

    def line(self) -> str:
        tail = f"[{self.witness}]" if self.witness else ""
        return f"RULE {self.key} {self.backend} -> {self.status}{tail}"


@dataclass
class SuiteReport:
    entries: list[SuiteEntry] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(e.status == "PASS" for e in self.entries)

    def failures(self) -> list[SuiteEntry]:
        return [e for e in self.entries if e.status == "FAIL"]

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "all_pass": self.all_pass,
            "entries": [
                {"key": e.key, "backend": e.backend, "status": e.status,
                 "witness": list(e.witness) if e.witness else None}
                for e in self.entries
            ],
        }


def _check_grids(max_arity: int, grid_den: int, n_random: int = 0) -> None:
    """Refuse a sweep that is empty or whose arities or angle field pass a
    cap, before any grid is built."""
    if grid_den < 1:
        raise RuleError(f"angle grid pi/{grid_den} is empty: the grid must be at least 1")
    if max_arity < 0:
        raise RuleError(f"max arity {max_arity} is negative")
    if n_random < 0:
        raise RuleError(f"random draw count {n_random} is negative")
    if max_arity > MAX_ARITY:
        raise RuleError(f"max arity {max_arity} above cap {MAX_ARITY}")
    M = math.lcm(8, 2 * grid_den)
    if M > MAX_MODULUS:
        raise RuleError(f"angle grid pi/{grid_den} needs modulus {M}, above cap {MAX_MODULUS}")


def _instances(schema: RuleSchema, max_arity: int, grid_den: int) -> Iterable[RuleInstance]:
    """Every exact instance of ``schema``: each arity layout up to
    ``max_arity`` and angle tuple on the pi/``grid_den`` grid, in its four
    variants."""
    angle_values = _angle_grid(grid_den)
    for arities in schema.arity_grid(max_arity):
        for angles in itertools.product(angle_values, repeat=len(schema.angle_params)):
            bindings = dict(arities, **dict(zip(schema.angle_params, angles)))
            for swap, flip in _VARIANTS:
                yield instantiate(schema, bindings, swap, flip)


def _suite_entry(inst: RuleInstance, backend: str, tol: float, max_rank: int) -> SuiteEntry:
    try:
        res = check_soundness(inst, backend=backend, tol=tol, max_rank=max_rank)
    except ResourceLimitError as exc:
        return SuiteEntry(inst.key(), backend, "SKIP", (0, 0, str(exc), ""))
    return SuiteEntry(inst.key(), backend, "PASS" if res.sound else "FAIL", res.witness)


def soundness_suite(ruleset: str, max_arity: int = 3, grid_den: int = 4,
                    n_random: int = 0, seed: int = 0, tol: float = 1e-9,
                    max_rank: int = 16,
                    schema_names: Optional[list[str]] = None) -> SuiteReport:
    """Check every schema x variant x arity x grid angle exactly, plus
    ``n_random`` float-angle draws per schema at tolerance ``tol``."""
    _check_grids(max_arity, grid_den, n_random)
    report = SuiteReport()
    schemas = ruleset_schemas(ruleset)
    if schema_names is not None:
        schemas = [s for s in schemas if s.name in schema_names]
    for schema in schemas:
        for inst in _instances(schema, max_arity, grid_den):
            report.entries.append(_suite_entry(inst, EXACT, tol, max_rank))
        if n_random:
            rng = random.Random((seed, schema.name).__repr__())
            arity_choices = schema.arity_grid(max_arity)
            for _ in range(n_random):
                bindings = dict(rng.choice(arity_choices))
                for p in schema.angle_params:
                    bindings[p] = rng.uniform(0.0, 6.283185307179586)
                swap, flip = rng.choice(_VARIANTS)
                inst = instantiate(schema, bindings, swap, flip)
                report.entries.append(_suite_entry(inst, FLOAT, tol, max_rank))
    report.entries.sort(key=lambda e: (e.key, e.backend))
    return report


@dataclass
class PreservationEntry:
    rule: str
    preserving: bool
    counterexample: Optional[str] = None


def invariant_preservation_check(ruleset: str, max_arity: int = 3,
                                 grid_den: int = 4) -> list[PreservationEntry]:
    """Which rules keep the odd-red-plus-H parity equal on both sides."""
    _check_grids(max_arity, grid_den)
    out = []
    for schema in ruleset_schemas(ruleset):
        bad = next((inst.key() for inst in _instances(schema, max_arity, grid_den)
                    if invariant_r(inst.lhs) != invariant_r(inst.rhs)), None)
        out.append(PreservationEntry(schema.name, bad is None, bad))
    return out
