"""Mechanized incompleteness witnesses.

Four independent arguments are replayed here: the invariant separation that
makes the pi/4 scalar pair unprovable, the sqrt(2) subfield-membership
criterion behind the fragment invariants, the angle-multiplication harness
showing each odd-prime cyclotomic supplementarity is underivable from the
others, and the numeric checks behind the general-calculus incompleteness
proof (the quartic root and the four-solution modulus equation).  Checks
that only compare two diagrams go through ``rules.check_equation``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable

from .cyclotomic import _prime_factors, lift_modulus, membership_solve, sqrt_two
from .diagram import (
    Diagram, PiRational, Z, make_spider, normalize_float_phase, scale_angles,
    tensor_product, xspider, zspider,
)
from .interpret import (
    DEFAULT_TOLERANCE, FLOAT, MAX_MODULUS, backend_for, field_modulus, interpret, invariant_r,
    is_zero, matrix_compare,
)
from .rules import (
    RuleInstance, _instances, _pair, check_equation, check_soundness, instantiate,
    ruleset_schemas,
)


@dataclass
class SubCheck:
    name: str
    passed: bool
    evidence: str = ""

    def line(self) -> str:
        return f"  [{'ok' if self.passed else 'FAIL'}] {self.name}: {self.evidence}"


@dataclass
class WitnessReport:
    name: str
    checks: list[SubCheck] = field(default_factory=list)
    applicable: bool = True

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        return "pass" if all(c.passed for c in self.checks) else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def add(self, name: str, passed: bool, evidence: str = "") -> None:
        self.checks.append(SubCheck(name, bool(passed), evidence))

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "witness": self.name,
            "verdict": self.verdict,
            "checks": [
                {"name": c.name, "passed": c.passed, "evidence": c.evidence}
                for c in self.checks
            ],
        }

    def lines(self) -> list[str]:
        out = [f"witness {self.name}: {self.verdict}"]
        out.extend(c.line() for c in self.checks)
        return out


# ---------------------------------------------------------------------------
# invariant separation for the pi/4 scalar pair
# ---------------------------------------------------------------------------

def separation_status(instance: RuleInstance) -> str:
    """Classify a rule instance for the invariant argument."""
    lhs_m = interpret(instance.lhs)
    rhs_m = interpret(instance.rhs)
    if is_zero(lhs_m) or is_zero(rhs_m):
        return "lemma-inapplicable"
    if invariant_r(instance.lhs) != invariant_r(instance.rhs):
        return "separated"
    return "not-separated"


def witness_E_independence() -> WitnessReport:
    rep = WitnessReport("prop1")
    inst = instantiate("E", {})
    lhs_m, rhs_m = interpret(inst.lhs), interpret(inst.rhs)
    one = rhs_m.entries[0][0]
    rep.add("both sides are the scalar 1",
            lhs_m.scalar() == one and rhs_m.scalar() == one,
            f"lhs={lhs_m.scalar()} rhs={rhs_m.scalar()}")
    rep.add("both sides non-zero", not is_zero(lhs_m) and not is_zero(rhs_m))
    bl, br = invariant_r(inst.lhs), invariant_r(inst.rhs)
    rep.add("odd-red-plus-H parity separates the sides", bl == 1 and br == 0,
            f"bits {bl} vs {br}")
    rep.add("classified as separated", separation_status(inst) == "separated")
    rep.add("control S2 is not separated",
            separation_status(instantiate("S2", {})) == "not-separated")
    rep.add("control ZO evades the lemma (zero interpretation)",
            separation_status(instantiate("ZO", {})) == "lemma-inapplicable")
    return rep


# ---------------------------------------------------------------------------
# sqrt(2) subfield membership
# ---------------------------------------------------------------------------

def witness_sqrt2(ks: Iterable[int] = range(1, 13)) -> WitnessReport:
    rep = WitnessReport("sqrt2")
    ks = list(ks)
    for k in ks:  # every k is checked before any field is built
        if k < 1:
            raise ValueError("k must be >= 1")
        if (M := field_modulus(k)) > MAX_MODULUS:
            raise ValueError(f"k={k} needs modulus {M}, above cap {MAX_MODULUS}")
    for k in ks:
        K = 2 * k
        M = field_modulus(k)
        coords = membership_solve(lift_modulus(sqrt_two(8), M), K)
        member = coords is not None
        expected = k % 4 == 0
        if member:
            ev = "coords " + ",".join(str(c) for c in coords)
        else:
            ev = "no rational solution"
        rep.add(f"sqrt2 in Q(zeta_{K}) iff {k} = 0 mod 4", member == expected, ev)
    return rep


# ---------------------------------------------------------------------------
# necessity of each odd-prime supplementarity (angle multiplication by p^2)
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [(n, 1)]


def _scaled_instance(inst: RuleInstance, factor: int) -> RuleInstance:
    return RuleInstance(inst.schema, inst.bindings, inst.color_swap, inst.vertical_flip,
                        scale_angles(inst.lhs, factor), scale_angles(inst.rhs, factor))


def _scalar_pairs(n: int, wires: int) -> Diagram:
    d = Diagram()
    for t in range(n):
        _pair(d, f"px{t}", f"pz{t}", wires=wires)
    return d


def witness_sup_necessity(p: int) -> WitnessReport:
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    rep = WitnessReport(f"supnec-p{p}")
    if p not in (3, 5, 7):
        rep.applicable = False
        rep.add("applicability", False,
                "the angle-multiplication argument needs an odd prime p in {3,5,7}")
        return rep
    f = p * p
    grid_den = 4

    # (a) every ZX_E rule survives multiplying all angles by p^2
    for schema in ruleset_schemas("ZX_E"):
        bad = None
        for inst in _instances(schema, 2, grid_den):  # arities up to 2
            inst = _scaled_instance(inst, f)
            res = check_soundness(inst)
            if not res.sound:
                bad = f"{inst.key()} witness {res.witness}"
                break
        rep.add(f"ZX_E rule {schema.name} sound under x{f}", bad is None, bad or "")

    # ... and so does every other prime's supplementarity
    for q in filter(_is_prime, range(2, 14)):
        if q == p:
            continue
        dens = range(2 * grid_den) if q <= 7 else range(0, 2 * grid_den, grid_den // 2)
        bad = None
        for num in dens:
            inst = _scaled_instance(
                instantiate("SUPn", {"n": q, "alpha": PiRational(num, grid_den)}), f)
            res = check_soundness(inst)
            if not res.sound:
                bad = f"alpha={num}/{grid_den} witness {res.witness}"
                break
        rep.add(f"SUP_{q} sound under x{f} (gcd({f},{q})=1)", bad is None, bad or "")

    # (b) SUP_p at alpha=0 breaks; reproduce the closed-form values too
    inst = _scaled_instance(instantiate("SUPn", {"n": p, "alpha": PiRational(0)}), f)
    lhs_m, rhs_m = interpret(inst.lhs), interpret(inst.rhs)
    cmp = matrix_compare(lhs_m, rhs_m)
    rep.add(f"SUP_{p} at alpha=0 unsound under x{f}", not cmp.equal,
            f"entry {cmp.witness}" if cmp.witness else "sides agree unexpectedly")

    lhs_red = tensor_product(_scalar_pairs(p - 1, 1), make_spider(Z, PiRational(0), 0, 1))
    rhs_red = tensor_product(_scalar_pairs(p - 1, 3), make_spider(Z, PiRational(0), 0, 1))
    rep.add("scaled lhs equals (sqrt2 pair)^(p-1) (x) copy-through",
            matrix_compare(lhs_m, interpret(lhs_red)).equal)
    rep.add("scaled rhs equals (triple pair)^(p-1) (x) copy-through",
            matrix_compare(rhs_m, interpret(rhs_red)).equal)

    # informational: the failure is already visible at alpha = 0 only
    other = []
    for num in range(1, 2 * grid_den):
        inst_a = _scaled_instance(
            instantiate("SUPn", {"n": p, "alpha": PiRational(num, grid_den)}), f)
        if not check_soundness(inst_a).sound:
            other.append(f"{num}/{grid_den}")
    rep.add("grid angles where the scaled rule also fails (informational)", True,
            ",".join(other) if other else "none besides alpha=0")
    return rep


# ---------------------------------------------------------------------------
# the general-calculus incompleteness numerics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem2Constants:
    """The angles and polynomial from the incompleteness construction."""

    alpha0: float = math.pi / 2 - math.acos(math.sqrt(2.0 / 3.0))
    theta0: float = math.acos(math.sqrt(2.0) / 2.0 + math.sqrt(3.0) / 6.0)
    quartic: tuple[int, ...] = (3, 0, 2, 0, 3)  # low-to-high coefficients

    def quartic_at(self, z: complex) -> complex:
        acc = complex(0)
        for c in reversed(self.quartic):
            acc = acc * z + c
        return acc


def theorem2_d1() -> Diagram:
    d = Diagram()
    d.nodes["a1"] = xspider(PiRational(1, 4))
    d.nodes["a2"] = zspider(PiRational(1, 2))
    d.nodes["a3"] = xspider(PiRational(1, 4))
    d.inputs, d.outputs = ("i0",), ("o0",)
    d.add_edge("i0", "a1")
    d.add_edge("a1", "a2")
    d.add_edge("a2", "a3")
    d.add_edge("a3", "o0")
    return d


def theorem2_d2(alpha, theta) -> Diagram:
    d = Diagram()
    _pair(d, "lx", "lz", wires=3)
    _pair(d, "sx", "sz", PiRational(1), theta)
    d.nodes["b1"] = zspider(alpha)
    d.nodes["b2"] = xspider(PiRational(1, 3))
    d.nodes["b3"] = zspider(alpha)
    d.inputs, d.outputs = ("i0",), ("o0",)
    d.add_edge("i0", "b1")
    d.add_edge("b1", "b2")
    d.add_edge("b2", "b3")
    d.add_edge("b3", "o0")
    return d


def _plug(d: Diagram) -> Diagram:
    """Plug the pi green state at the input and the 0 green state at the
    output, yielding a closed diagram."""
    out = d.copy()
    out.nodes["plug_in"] = zspider(PiRational(1))
    out.nodes["plug_out"] = zspider(PiRational(0))
    i0, o0 = d.inputs[0], d.outputs[0]
    out.edges = [tuple(sorted(("plug_in" if x == i0 else "plug_out" if x == o0 else x
                               for x in e))) for e in out.edges]
    out.inputs, out.outputs = (), ()
    return out


def theorem2_plug_pairs() -> dict[str, tuple[Diagram, Diagram]]:
    """The two plugged diagrams and their fully reduced forms."""
    consts = Theorem2Constants()
    d1p = _plug(theorem2_d1())
    d1r = Diagram()
    _pair(d1r, "px", "pz", PiRational(1, 4), PiRational(1))
    d1r.nodes["half"] = zspider(PiRational(3, 2))
    _pair(d1r, "lx", "lz", wires=3)

    alpha = normalize_float_phase(consts.alpha0)
    theta = normalize_float_phase(consts.theta0)
    d2p = _plug(theorem2_d2(alpha, theta))
    d2r = Diagram()
    for t in range(3):
        _pair(d2r, f"lx{t}", f"lz{t}", wires=3)
    _pair(d2r, "sx", "sz", PiRational(1), theta)
    d2r.nodes["third"] = xspider(PiRational(1, 3))
    d2r.nodes["merged"] = zspider(normalize_float_phase(2 * alpha + math.pi))
    return {"thm2_d1_plug": (d1p, d1r), "thm2_d2_plug": (d2p, d2r)}


def _modulus_equation_roots() -> list[float]:
    """All roots of |cos(a + pi/2)| = sqrt(2/3) in [0, 2*pi), by a scan in
    steps of 1e-4 plus bisection to a bracket of 1e-13."""
    target = math.sqrt(2.0 / 3.0)

    def f(a: float) -> float:
        return abs(math.cos(a + math.pi / 2)) - target

    roots = []
    a = 0.0
    prev = f(0.0)
    while a < 2 * math.pi:
        b = min(a + 1e-4, 2 * math.pi)
        cur = f(b)
        if prev == 0.0:
            roots.append(a)
        elif prev * cur < 0:
            lo, hi = a, b
            flo = prev
            while hi - lo > 1e-13:
                mid = (lo + hi) / 2
                fmid = f(mid)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append((lo + hi) / 2)
        a, prev = b, cur
    deduped = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > 1e-6:
            deduped.append(r)
    return deduped


def witness_theorem2(tol: float = DEFAULT_TOLERANCE) -> WitnessReport:
    rep = WitnessReport("thm2")
    consts = Theorem2Constants()
    a0, t0 = consts.alpha0, consts.theta0
    rep.add("constants", 0 < a0 < math.pi / 2 and 0 < t0 < math.pi / 2,
            f"alpha0={a0:.6f} rad, theta0={t0:.6f} rad")

    # (a) the two diagrams agree entrywise at (alpha0, theta0)
    d2 = theorem2_d2(normalize_float_phase(a0), normalize_float_phase(t0))
    cmp = check_equation(theorem2_d1(), d2, FLOAT, tol)
    rep.add("D1 = D2 at (alpha0, theta0)", cmp.equal,
            f"witness {cmp.witness}" if cmp.witness else f"within {tol}")

    # (b) e^{i alpha0} is a root of the quartic
    val = consts.quartic_at(cmath.exp(1j * a0))
    rep.add("quartic vanishes at e^{i alpha0}", abs(val) <= tol, f"|value|={abs(val):.3e}")

    # (c) exactly four solutions of the modulus equation
    roots = _modulus_equation_roots()
    expected = sorted(x % (2 * math.pi)
                      for x in (a0, math.pi - a0, math.pi + a0, 2 * math.pi - a0))
    match = (len(roots) == 4 and
             all(abs(r - e) <= 1e-9 for r, e in zip(sorted(roots), expected)))
    rep.add("modulus equation has exactly the four classes +-pi/2 +- arccos",
            match, f"roots {[f'{r:.6f}' for r in roots]}")

    # (d) the plugged-state reductions agree semantically
    for name, (plugged, reduced) in theorem2_plug_pairs().items():
        backend = backend_for(plugged, reduced)
        c = check_equation(plugged, reduced, backend, tol)
        rep.add(f"{name} reduction agrees ({backend})", c.equal,
                f"witness {c.witness}" if c.witness else "")

    # ingredient facts of the modular meta-argument, spot-checked
    pol10 = sum(c * 10 ** i for i, c in enumerate(consts.quartic))
    rep.add("quartic at 10 is the prime 30203 (Cohn)", pol10 == 30203 and _is_prime(pol10),
            str(pol10))
    for q in range(2, 8):
        fact = math.factorial(q + 4)
        ok = fact % 8 == 0 and fact % 6 == 0 and all(
            fact % r == 0 for r in filter(_is_prime, range(2, q + 1)))
        rep.add(f"(q+4)! divisibility facts at q={q}", ok,
                "divisible by 8, 6 and all primes <= q")
    return rep
