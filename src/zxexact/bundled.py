"""Construction and loading of the bundled derivation scripts.

The shipped JSON scripts under ``data/`` replay the headline derivations
step by step: IV from the ZX_E rules, ZO from the ZX_E rules, and SUP_4 from
two SUP_2 applications plus a twin merge.  Textbook presentations of these
chains freely fuse and split spiders between displayed diagrams; here every
split and merge is its own S1 step, so each embedding is arity-exact.  The builders in this module are the source of
those files: they apply every step through the checker while constructing,
so an illegal embedding cannot be generated.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional

from .diagram import Diagram, PiRational, _norm_edge, diagram_from_json, diagram_to_json
from .derive import (
    DerivationScript, DerivationStep, Embedding, HalfEdge, apply_step,
)
from .rules import instantiate

BUNDLED_SCRIPTS = ("iv_from_zxe", "zo_from_zxe", "sup4_from_sup2")

PI = PiRational(1)
ZERO = PiRational(0)
QUARTER = PiRational(1, 4)
NEG_QUARTER = PiRational(-1, 4)


def leg(u: str, v: str, k: int = 0) -> HalfEdge:
    """The k-th (u, v) edge with the far (context) side at ``v``."""
    a, b = _norm_edge(u, v)
    return HalfEdge(a, b, k, 1 if v == b else 0)


class ScriptBuilder:
    """Accumulates steps, applying each to a live host as it is added."""

    def __init__(self, ruleset: str, initial: Diagram):
        self.ruleset = ruleset
        self.initial = initial.copy()
        self.state = initial.copy()
        self.steps: list[DerivationStep] = []

    @property
    def index(self) -> int:
        return len(self.steps)

    def fresh(self, idx: int, name: str) -> str:
        node = f"s{idx}.{name}"
        if node not in self.state.nodes:
            raise AssertionError(f"expected fresh node {node}")
        return node

    def apply(self, rule: str, direction: str, nodes: dict[str, str],
              boundary: Optional[dict[str, HalfEdge]] = None,
              bindings: Optional[dict] = None,
              swap: bool = False, flip: bool = False) -> int:
        idx = self.index
        step = DerivationStep(
            rule=rule, direction=direction, bindings=dict(bindings or {}),
            color_swap=swap, vertical_flip=flip,
            embedding=Embedding(dict(nodes), dict(boundary or {})),
        )
        self.state = apply_step(self.state, step, step_index=idx)
        self.steps.append(step)
        return idx

    def finish(self, final: Diagram, final_iso: dict[str, str]) -> DerivationScript:
        return DerivationScript(self.ruleset, self.initial, self.steps, final, final_iso)


# ---------------------------------------------------------------------------
# S1 helpers: every spider fuse/split as an arity-exact instance
# ---------------------------------------------------------------------------

def _s1_layout(a_in: list, a_out: list, b_in: list, b_out: list) -> dict[str, HalfEdge]:
    boundary = {}
    for t, he in enumerate(a_in + b_in):
        boundary[f"i{t}"] = he
    for t, he in enumerate(a_out + b_out):
        boundary[f"o{t}"] = he
    return boundary


def s1_merge(b: ScriptBuilder, node_a: str, node_b: str, alpha, beta, *,
             swap: bool = False, wires: int = 1,
             a_in=(), a_out=(), b_in=(), b_out=()) -> str:
    """Fuse adjacent same-colour spiders a and b; returns the merged node."""
    bindings = {"alpha": alpha, "beta": beta, "wires": wires,
                "a_in": len(a_in), "a_out": len(a_out),
                "b_in": len(b_in), "b_out": len(b_out)}
    idx = b.apply("S1", "ltr", {"a": node_a, "b": node_b},
                  _s1_layout(list(a_in), list(a_out), list(b_in), list(b_out)),
                  bindings, swap=swap)
    return b.fresh(idx, "m")


def s1_split(b: ScriptBuilder, node_m: str, alpha, beta, *,
             swap: bool = False, wires: int = 1,
             a_in=(), a_out=(), b_in=(), b_out=()) -> tuple[str, str]:
    """Split spider m into a (phase alpha) and b (phase beta) joined by
    ``wires`` wires, distributing the listed legs; returns (a, b)."""
    bindings = {"alpha": alpha, "beta": beta, "wires": wires,
                "a_in": len(a_in), "a_out": len(a_out),
                "b_in": len(b_in), "b_out": len(b_out)}
    idx = b.apply("S1", "rtl", {"m": node_m},
                  _s1_layout(list(a_in), list(a_out), list(b_in), list(b_out)),
                  bindings, swap=swap)
    return b.fresh(idx, "a"), b.fresh(idx, "b")


# ---------------------------------------------------------------------------
# the broken-wire macro: Z(pi) (x) [u--v]  <->  Z(pi) (x) [u--Z0] (x) [Z0--v]
# (the appendix's S2/HL/SUP/B1/S1 chain, spelled out in 13 exact steps)
# ---------------------------------------------------------------------------

def break_wire(b: ScriptBuilder, u_end: str, v_end: str, catalyst: str,
               k: int = 0) -> tuple[str, str, str]:
    """Forward direction.  Returns (z_at_u, z_at_v, new_catalyst)."""
    # insert a phase-0 X on the wire
    idx = b.apply("S2", "rtl", {}, {"i0": leg(v_end, u_end, k), "o0": leg(u_end, v_end, k)},
                  swap=True)
    xm = b.fresh(idx, "u")
    # split the catalyst
    zd, ze = s1_split(b, catalyst, PI, ZERO)
    # grow a phase-0 X stub off the wire
    xa, xf = s1_split(b, xm, ZERO, ZERO, swap=True,
                      a_in=[leg(xm, u_end)], a_out=[leg(xm, v_end)])
    # Hopf in reverse: connect the stub to the catalyst half, minting pairs
    idx = b.apply("HL", "rtl", {"xh": xf, "zg": ze},
                  {"i0": leg(xf, xa), "o0": leg(ze, zd)})
    xh, zg = b.fresh(idx, "xh"), b.fresh(idx, "zg")
    p1x, p1z = b.fresh(idx, "p1x"), b.fresh(idx, "p1z")
    p2x, p2z = b.fresh(idx, "p2x"), b.fresh(idx, "p2z")
    zpi = s1_merge(b, zd, zg, PI, ZERO,
                   b_out=[leg(zg, xh, 0), leg(zg, xh, 1)])
    xm2 = s1_merge(b, xa, xh, ZERO, ZERO, swap=True,
                   a_in=[leg(xa, u_end)], a_out=[leg(xa, v_end)],
                   b_out=[leg(xh, zpi, 0), leg(xh, zpi, 1)])
    # supplementarity in reverse on the doubled wire
    xp, xq = s1_split(b, xm2, ZERO, ZERO, swap=True,
                      a_out=[leg(xm2, zpi, 0), leg(xm2, zpi, 1)],
                      b_in=[leg(xm2, u_end)], b_out=[leg(xm2, v_end)])
    idx = b.apply("SUP", "rtl", {"tm": zpi, "x": xp}, {"o0": leg(xp, xq)},
                  {"alpha": ZERO})
    t0, t1, xp2 = b.fresh(idx, "t0"), b.fresh(idx, "t1"), b.fresh(idx, "x")
    xm3 = s1_merge(b, xp2, xq, ZERO, ZERO, swap=True,
                   a_out=[leg(xp2, t0), leg(xp2, t1)],
                   b_in=[leg(xq, u_end)], b_out=[leg(xq, v_end)])
    xt, xu = s1_split(b, xm3, ZERO, ZERO, swap=True,
                      a_in=[leg(xm3, u_end)], a_out=[leg(xm3, t0)],
                      b_out=[leg(xm3, t1), leg(xm3, v_end)])
    # copy the 0 state through each X half, consuming the two pairs
    idx = b.apply("B1", "ltr", {"px": p1z, "pz": p1x, "s": t0, "f": xt},
                  {"o0": leg(xt, u_end), "o1": leg(xt, xu)}, swap=True)
    zv, zw = b.fresh(idx, "u"), b.fresh(idx, "v")
    idx = b.apply("B1", "ltr", {"px": p2z, "pz": p2x, "s": zw, "f": xu},
                  {"o0": leg(xu, t1), "o1": leg(xu, v_end)}, swap=True)
    zy, zx = b.fresh(idx, "u"), b.fresh(idx, "v")
    cat = s1_merge(b, t1, zy, PI, ZERO)
    return zv, zx, cat


def mend_wire(b: ScriptBuilder, z_u: str, u_end: str, z_v: str, v_end: str,
              catalyst: str) -> str:
    """Reverse direction: consume [u--z_u] and [z_v--v] into a single wire.
    Returns the restored catalyst node."""
    t1, zy = s1_split(b, catalyst, PI, ZERO)
    idx = b.apply("B1", "rtl", {"u": zy, "v": z_v},
                  {"o0": leg(zy, t1), "o1": leg(z_v, v_end)}, swap=True)
    zw, xu = b.fresh(idx, "s"), b.fresh(idx, "f")
    # under colour swap the built pair's "px" node is the green one
    p2z, p2x = b.fresh(idx, "px"), b.fresh(idx, "pz")
    idx = b.apply("B1", "rtl", {"u": z_u, "v": zw},
                  {"o0": leg(z_u, u_end), "o1": leg(zw, xu)}, swap=True)
    z0r, xt = b.fresh(idx, "s"), b.fresh(idx, "f")
    p1z, p1x = b.fresh(idx, "px"), b.fresh(idx, "pz")
    xm3 = s1_merge(b, xt, xu, ZERO, ZERO, swap=True,
                   a_in=[leg(xt, u_end)], a_out=[leg(xt, z0r)],
                   b_in=[leg(xu, v_end)], b_out=[leg(xu, t1)])
    xp2, xq = s1_split(b, xm3, ZERO, ZERO, swap=True,
                       a_out=[leg(xm3, z0r), leg(xm3, t1)],
                       b_in=[leg(xm3, u_end)], b_out=[leg(xm3, v_end)])
    idx = b.apply("SUP", "ltr", {"t0": z0r, "t1": t1, "x": xp2},
                  {"o0": leg(xp2, xq)}, {"alpha": ZERO})
    zpi, xp = b.fresh(idx, "tm"), b.fresh(idx, "x")
    xm2 = s1_merge(b, xp, xq, ZERO, ZERO, swap=True,
                   a_out=[leg(xp, zpi, 0), leg(xp, zpi, 1)],
                   b_in=[leg(xq, u_end)], b_out=[leg(xq, v_end)])
    xh, xm = s1_split(b, xm2, ZERO, ZERO, swap=True,
                      a_out=[leg(xm2, zpi, 0), leg(xm2, zpi, 1)],
                      b_in=[leg(xm2, u_end)], b_out=[leg(xm2, v_end)])
    ze2, zd = s1_split(b, zpi, ZERO, PI,
                       a_out=[leg(zpi, xh, 0), leg(zpi, xh, 1)])
    idx = b.apply("HL", "ltr", {"xh": xh, "zg": ze2, "p1x": p1x, "p1z": p1z,
                                "p2x": p2x, "p2z": p2z},
                  {"i0": leg(xh, xm), "o0": leg(ze2, zd)})
    xf, ze3 = b.fresh(idx, "xh"), b.fresh(idx, "zg")
    xm_final = s1_merge(b, xf, xm, ZERO, ZERO, swap=True,
                        b_in=[leg(xm, u_end)], b_out=[leg(xm, v_end)])
    cat = s1_merge(b, zd, ze3, PI, ZERO)
    b.apply("S2", "ltr", {"u": xm_final},
            {"i0": leg(xm_final, u_end), "o0": leg(xm_final, v_end)}, swap=True)
    return cat


# ---------------------------------------------------------------------------
# the IV chain: [X0--Z0] (x) [X0=Z0 triple] <-> empty (one E pair in, one out)
# ---------------------------------------------------------------------------

def consume_inverse_pair(b: ScriptBuilder, x1: str, z1: str, x3: str, z3: str) -> None:
    """Dissolve a single-wire pair plus a triple-wire pair into nothing."""
    idx = b.apply("E", "rtl", {})
    g, r = b.fresh(idx, "g"), b.fresh(idx, "r")
    x3a, xn1 = s1_split(b, x3, ZERO, ZERO, swap=True,
                        a_out=[leg(x3, z3, 0), leg(x3, z3, 1), leg(x3, z3, 2)])
    ra, xn2 = s1_split(b, r, NEG_QUARTER, ZERO, swap=True, a_out=[leg(r, g)])
    idx = b.apply("B1", "rtl", {"u": xn1, "v": xn2},
                  {"o0": leg(xn1, x3a), "o1": leg(xn2, ra)})
    s3s, s3f = b.fresh(idx, "s"), b.fresh(idx, "f")
    p3x, p3z = b.fresh(idx, "px"), b.fresh(idx, "pz")
    s4a, s4b = s1_split(b, x3a, ZERO, ZERO, swap=True,
                        a_out=[leg(x3a, z3, 0), leg(x3a, z3, 1)],
                        b_out=[leg(x3a, z3, 2), leg(x3a, s3f)])
    s5a, s5b = s1_split(b, z3, ZERO, ZERO,
                        a_out=[leg(z3, s4a, 0), leg(z3, s4a, 1)],
                        b_out=[leg(z3, s4b)])
    idx = b.apply("HL", "ltr", {"xh": s4a, "zg": s5a, "p1x": x1, "p1z": z1,
                                "p2x": p3x, "p2z": p3z},
                  {"i0": leg(s4a, s4b), "o0": leg(s5a, s5b)})
    s6x, s6z = b.fresh(idx, "xh"), b.fresh(idx, "zg")
    s7 = s1_merge(b, s6x, s4b, ZERO, ZERO, swap=True,
                  b_out=[leg(s4b, s5b), leg(s4b, s3f)])
    s8 = s1_merge(b, s6z, s5b, ZERO, ZERO, b_out=[leg(s5b, s7)])
    b.apply("S2", "ltr", {"u": s7}, {"i0": leg(s7, s8), "o0": leg(s7, s3f)}, swap=True)
    s10 = s1_merge(b, s8, s3f, ZERO, ZERO, b_out=[leg(s3f, s3s), leg(s3f, ra)])
    b.apply("S2", "ltr", {"u": s10}, {"i0": leg(s10, s3s), "o0": leg(s10, ra)})
    s12 = s1_merge(b, s3s, ra, ZERO, NEG_QUARTER, swap=True, b_out=[leg(ra, g)])
    b.apply("E", "ltr", {"g": g, "r": s12})


def make_inverse_pair(b: ScriptBuilder) -> tuple[str, str, str, str]:
    """Mint [x1--z1] (x) [x3=z3 triple] out of nothing (reverse IV chain)."""
    idx = b.apply("E", "rtl", {})
    g, r = b.fresh(idx, "g"), b.fresh(idx, "r")
    s3s, ra = s1_split(b, r, ZERO, NEG_QUARTER, swap=True, b_out=[leg(r, g)])
    idx = b.apply("S2", "rtl", {}, {"i0": leg(ra, s3s), "o0": leg(s3s, ra)})
    s10 = b.fresh(idx, "u")
    s8, s3f = s1_split(b, s10, ZERO, ZERO, b_out=[leg(s10, s3s), leg(s10, ra)])
    idx = b.apply("S2", "rtl", {}, {"i0": leg(s3f, s8), "o0": leg(s8, s3f)}, swap=True)
    s7 = b.fresh(idx, "u")
    s6z, s5b = s1_split(b, s8, ZERO, ZERO, b_out=[leg(s8, s7)])
    s6x, s4b = s1_split(b, s7, ZERO, ZERO, swap=True,
                        b_out=[leg(s7, s5b), leg(s7, s3f)])
    idx = b.apply("HL", "rtl", {"xh": s6x, "zg": s6z},
                  {"i0": leg(s6x, s4b), "o0": leg(s6z, s5b)})
    s4a, s5a = b.fresh(idx, "xh"), b.fresh(idx, "zg")
    p1x, p1z = b.fresh(idx, "p1x"), b.fresh(idx, "p1z")
    p2x, p2z = b.fresh(idx, "p2x"), b.fresh(idx, "p2z")
    z3 = s1_merge(b, s5a, s5b, ZERO, ZERO,
                  a_out=[leg(s5a, s4a, 0), leg(s5a, s4a, 1)],
                  b_out=[leg(s5b, s4b)])
    x3a = s1_merge(b, s4a, s4b, ZERO, ZERO, swap=True,
                   a_out=[leg(s4a, z3, 0), leg(s4a, z3, 1)],
                   b_out=[leg(s4b, z3), leg(s4b, s3f)])
    idx = b.apply("B1", "ltr", {"px": p2x, "pz": p2z, "s": s3s, "f": s3f},
                  {"o0": leg(s3f, x3a), "o1": leg(s3f, ra)})
    xn1, xn2 = b.fresh(idx, "u"), b.fresh(idx, "v")
    r2 = s1_merge(b, xn2, ra, ZERO, NEG_QUARTER, swap=True, b_out=[leg(ra, g)])
    x3 = s1_merge(b, xn1, x3a, ZERO, ZERO, swap=True,
                  b_out=[leg(x3a, z3, 0), leg(x3a, z3, 1), leg(x3a, z3, 2)])
    b.apply("E", "ltr", {"g": g, "r": r2})
    return p1x, p1z, x3, z3


# ---------------------------------------------------------------------------
# green scalars against the zero catalyst (the appendix's middle chain)
# ---------------------------------------------------------------------------

def make_green_scalar(b: ScriptBuilder, alpha, catalyst: str) -> tuple[str, str]:
    """Z(pi) -> Z(pi) (x) Z(alpha)^0; returns (scalar node, catalyst)."""
    x1, z1, x3, z3 = make_inverse_pair(b)
    idx = b.apply("L52", "rtl", {"px": z1, "pz": x1}, {}, {"alpha": alpha}, swap=True)
    zk, xw = b.fresh(idx, "px"), b.fresh(idx, "pz")
    zu, zv, cat = break_wire(b, zk, xw, catalyst)
    g = s1_merge(b, zk, zu, alpha, ZERO)
    consume_inverse_pair(b, xw, zv, x3, z3)
    return g, cat


def make_pair(b: ScriptBuilder, catalyst: str) -> tuple[str, str, str]:
    """Z(pi) -> Z(pi) (x) [Z0--X0]; returns (green, red, catalyst)."""
    z0s, cat = make_green_scalar(b, ZERO, catalyst)
    idx = b.apply("L51", "rtl", {"two": z0s})
    p1x, p1z = b.fresh(idx, "p1x"), b.fresh(idx, "p1z")
    p2x, p2z = b.fresh(idx, "p2x"), b.fresh(idx, "p2z")
    zq, cat = make_green_scalar(b, QUARTER, cat)
    zq4, zq0 = s1_split(b, zq, QUARTER, ZERO)
    idx = b.apply("L52", "rtl", {"px": p2x, "pz": p2z}, {}, {"alpha": NEG_QUARTER})
    rx, rz = b.fresh(idx, "px"), b.fresh(idx, "pz")
    cat = mend_wire(b, z_u=zq0, u_end=zq4, z_v=rz, v_end=rx, catalyst=cat)
    b.apply("E", "ltr", {"g": zq4, "r": rx})
    return p1z, p1x, cat


# ---------------------------------------------------------------------------
# the three bundled derivations
# ---------------------------------------------------------------------------

def build_iv_script() -> DerivationScript:
    inst = instantiate("IV", {})
    b = ScriptBuilder("ZX_E", inst.lhs)
    consume_inverse_pair(b, "x1", "z1", "x3", "z3")
    return b.finish(inst.rhs, {})


def build_zo_script() -> DerivationScript:
    inst = instantiate("ZO", {})
    b = ScriptBuilder("ZX_E", inst.lhs)
    za, zb, cat = break_wire(b, "i0", "o0", "zpi")
    zp, xp, cat = make_pair(b, cat)
    cat = mend_wire(b, z_u=zp, u_end=xp, z_v=zb, v_end="o0", catalyst=cat)
    return b.finish(inst.rhs, {cat: "zpi", za: "ze", xp: "xs"})


def build_sup4_script() -> DerivationScript:
    quarter = PiRational(1, 4)
    inst = instantiate("SUPn", {"n": 4, "alpha": quarter})
    b = ScriptBuilder("ZX_E", inst.lhs)
    xa, xb = s1_split(b, "x", ZERO, ZERO, swap=True,
                      a_out=[leg("x", "t0"), leg("x", "t2")],
                      b_out=[leg("x", "t1"), leg("x", "t3"), leg("x", "o0")])
    idx = b.apply("SUP", "ltr", {"t0": "t0", "t1": "t2", "x": xa},
                  {"o0": leg(xa, xb)}, {"alpha": quarter})
    tm1, xa2 = b.fresh(idx, "tm"), b.fresh(idx, "x")
    xc, xd = s1_split(b, xb, ZERO, ZERO, swap=True,
                      a_out=[leg(xb, "t1"), leg(xb, "t3")],
                      b_out=[leg(xb, xa2), leg(xb, "o0")])
    idx = b.apply("SUP", "ltr", {"t0": "t1", "t1": "t3", "x": xc},
                  {"o0": leg(xc, xd)}, {"alpha": PiRational(3, 4)})
    tm2, xc2 = b.fresh(idx, "tm"), b.fresh(idx, "x")
    xe = s1_merge(b, xa2, xd, ZERO, ZERO, swap=True,
                  a_out=[leg(xa2, tm1, 0), leg(xa2, tm1, 1)],
                  b_out=[leg(xd, xc2), leg(xd, "o0")])
    xf = s1_merge(b, xc2, xe, ZERO, ZERO, swap=True,
                  a_out=[leg(xc2, tm2, 0), leg(xc2, tm2, 1)],
                  b_out=[leg(xe, tm1, 0), leg(xe, tm1, 1), leg(xe, "o0")])
    before = set(b.state.nodes)
    b.apply("TWINS", "ltr", {"t0": tm1, "t1": tm2}, {}, {"n": 2})
    merged = next(iter(set(b.state.nodes) - before))
    return b.finish(inst.rhs, {merged: "tm", xf: "x"})


_BUILDERS = {
    "iv_from_zxe": build_iv_script,
    "zo_from_zxe": build_zo_script,
    "sup4_from_sup2": build_sup4_script,
}


def build_script(name: str) -> DerivationScript:
    return _BUILDERS[name]()


def load_bundled(name: str) -> DerivationScript:
    """Load a bundled derivation script from the package data files."""
    text = resources.files("zxexact.data").joinpath(f"{name}.json").read_text("utf-8")
    return DerivationScript.from_json(json.loads(text))


def load_bundled_pair(name: str) -> tuple[Diagram, Diagram]:
    """Load a bundled plugged/reduced diagram pair (the Theorem 2 chains)."""
    text = resources.files("zxexact.data").joinpath(f"{name}.json").read_text("utf-8")
    obj = json.loads(text)
    return diagram_from_json(obj["plugged"]), diagram_from_json(obj["reduced"])


def write_data_files(directory: str) -> None:
    """Regenerate every bundled data file into ``directory``."""
    import os

    from . import witness

    os.makedirs(directory, exist_ok=True)
    for name, builder in _BUILDERS.items():
        script = builder()
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(script.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    for name, (plugged, reduced) in witness.theorem2_plug_pairs().items():
        obj = {"schema": "1", "name": name,
               "plugged": diagram_to_json(plugged), "reduced": diagram_to_json(reduced)}
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
