"""The four benchmark workloads.

Each workload builds its inputs from the seed, hands them to zxexact's public
API one verdict at a time, and checks every verdict against an answer known
in advance.  Inputs come in blocks; block ``i`` depends only on the seed and
``i``, so any run replays the same inputs however long it lasts.

A workload exposes ``block(i)`` (a list of cases), ``run(case)`` (the timed
calls into zxexact) and ``check(case, result)``, which returns
``(verdicts, wrong)``: how many verdicts the case produced and how many of
them disagree with the known answer.  ``run`` may return an exception, which
``check`` counts as wrong.

zxexact is reached through module objects looked up at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import cmath
import copy
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from tracer import layer_module as zx

EXACT, FLOAT = "exact", "float"
VARIANTS = ((False, False), (True, False), (False, True), (True, True))
TOL = 1e-9
MAX_RANK = 16


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


def _scaled(inst, factor: int):
    """The instance with every angle multiplied by ``factor``."""
    diagram = zx("diagram")
    return zx("rules").RuleInstance(
        inst.schema, inst.bindings, inst.color_swap, inst.vertical_flip,
        diagram.scale_angles(inst.lhs, factor), diagram.scale_angles(inst.rhs, factor))


# ---------------------------------------------------------------------------
# rule instances (sweep and wide_modulus)
# ---------------------------------------------------------------------------

@dataclass
class RuleCase:
    """One rule instance: instantiate, optionally scale all angles, check."""

    schema: str
    bindings: dict
    swap: bool = False
    flip: bool = False
    factor: int = 1
    backend: str = EXACT
    expect_sound: bool = True


def run_rule_case(case: RuleCase):
    rules = zx("rules")
    inst = rules.instantiate(case.schema, case.bindings, case.swap, case.flip)
    if case.factor != 1:
        inst = _scaled(inst, case.factor)
    try:
        return rules.check_soundness(inst, backend=case.backend, tol=TOL, max_rank=MAX_RANK)
    except zx("interpret").ResourceLimitError:
        return "SKIP"


def _sound(result) -> bool | None:
    """True/False for a soundness verdict; None for a skip or an exception."""
    if result == "SKIP" or isinstance(result, BaseException):
        return None
    return bool(result.sound)


def sup_negative_controls(variants=VARIANTS) -> list[RuleCase]:
    """SUP_p at alpha = 0 with every angle times p^2: known to be unsound."""
    zero = zx("diagram").PiRational(0)
    return [RuleCase("SUPn", {"n": p, "alpha": zero}, swap, flip, p * p, EXACT, False)
            for p in (3, 5, 7) for swap, flip in variants]


@dataclass
class SuiteCase:
    """One ``soundness_suite`` call: one schema of one rule set, arity <= 3,
    the pi/4 grid, all four variants and ``n_random`` seeded float draws."""

    ruleset: str
    schema: str
    seed: int
    max_arity: int = 3

    grid_den: ClassVar[int] = 4
    n_random: ClassVar[int] = 20

    def expected_entries(self) -> int:
        """The population size, counted from the schema's own grids."""
        schema = zx("rules").get_schema(self.schema)
        angles = (2 * self.grid_den) ** len(schema.angle_params)
        return len(schema.arity_grid(self.max_arity)) * angles * len(VARIANTS) + self.n_random


class Sweep:
    """Criterion-01 sweep through ``soundness_suite`` itself: block ``i``
    checks one of the rule sets ``ZX`` and ``ZX_cyclo`` in full, one call
    per schema in seeded order, with seeded float draws, plus one negative
    control.  The rule sets alternate from a seeded first one, so two blocks
    make the whole criterion-01 population.  A verdict is one suite entry;
    a call's time is shared evenly by its entries."""

    name = "sweep"
    tail_pct = 99.0
    cli_args = ["rule", "check", "S1", "--bind", "alpha=1/4", "--bind", "beta=3/4", "--json"]
    trace_blocks = 1
    rulesets = ("ZX", "ZX_cyclo")

    def __init__(self, seed: int):
        self.seed = seed
        self.first = random.Random(f"{self.name}/{seed}").randrange(len(self.rulesets))
        self.negatives = sup_negative_controls()

    def block(self, i: int) -> list:
        rng = _rng(self.name, self.seed, i)
        ruleset = self.rulesets[(self.first + i) % len(self.rulesets)]
        draws = rng.randrange(2 ** 31)
        cases: list = [SuiteCase(ruleset, s.name, draws)
                       for s in zx("rules").ruleset_schemas(ruleset)]
        rng.shuffle(cases)
        return cases + [self.negatives[i % len(self.negatives)]]

    @staticmethod
    def run(case):
        if isinstance(case, RuleCase):
            return run_rule_case(case)
        return zx("rules").soundness_suite(
            case.ruleset, max_arity=case.max_arity, grid_den=case.grid_den,
            n_random=case.n_random, seed=case.seed, tol=TOL, max_rank=MAX_RANK,
            schema_names=[case.schema])

    @staticmethod
    def check(case, result) -> tuple[int, int]:
        if isinstance(case, RuleCase):
            return 1, int(_sound(result) is not case.expect_sound)
        expected = case.expected_entries()
        if isinstance(result, BaseException):
            return expected, expected
        entries = result.entries
        # every entry must PASS (a SKIP is a rank-cap hit), and the report
        # must hold the whole population, no more and no less
        wrong = sum(e.status != "PASS" for e in entries) + abs(len(entries) - expected)
        return max(expected, len(entries)), min(wrong, max(expected, len(entries)))


# ---------------------------------------------------------------------------
# wide_modulus
# ---------------------------------------------------------------------------

@dataclass
class Sqrt2Case:
    k: int


def supn_oracle(n: int, alpha: Fraction, factor: int = 1) -> bool:
    """Criterion 04's scalar identity, computed apart from any diagram:
    prod_k (1 + e^{i f (a + 2k pi/n)}) == 1 + e^{i f (n a + (n-1) pi)},
    with every phase written as a fraction of pi."""
    cyclo = zx("cyclotomic")
    phases = [factor * (alpha + Fraction(2 * k, n)) for k in range(n)]
    rhs = factor * (n * alpha + (n - 1))
    M = 8
    for ph in phases + [rhs]:
        M = math.lcm(M, 2 * ph.denominator)
    one = cyclo.CycloScalar.one(M)

    def e(ph: Fraction):
        return cyclo.root_of_unity(ph.numerator, ph.denominator, M)

    prod = one
    for ph in phases:
        prod = prod * (one + e(ph))
    return prod == one + e(rhs)


class WideModulus:
    """SUP_n for n in {1..8, 11, 13} on the pi/12 grid (modulus up to 312) in
    all four variants, checked against the scalar-product oracle, plus
    sqrt(2) membership witnesses and three known-unsound scaled SUP_p.  Every
    block holds the whole population plus one witness for a seeded k, in
    seeded order; the cost of a SUP_n instance depends on its angle and
    variant, so a sampled subset would make the tail jump from seed to seed."""

    name = "wide_modulus"
    tail_pct = 99.0
    cli_args = ["witness", "sqrt2", "--k", "4,13", "--json"]
    trace_blocks = 1
    ns = (1, 2, 3, 4, 5, 6, 7, 8, 11, 13)
    grid_den = 12
    sqrt2_ks = tuple(range(1, 13)) + (13, 26, 39, 52, 78, 156)
    sqrt2_seeded_ks = range(14, 41)

    def __init__(self, seed: int):
        self.seed = seed
        self._oracle: dict[tuple, bool] = {}

    def block(self, i: int) -> list:
        rng = _rng(self.name, self.seed, i)
        PiRational = zx("diagram").PiRational
        cases: list = [RuleCase("SUPn", {"n": n, "alpha": PiRational(num, self.grid_den)},
                                swap, flip)
                       for n in self.ns for num in range(2 * self.grid_den)
                       for swap, flip in VARIANTS]
        ks = self.sqrt2_ks + (rng.choice(self.sqrt2_seeded_ks),)
        cases += [Sqrt2Case(k) for k in ks]
        cases += sup_negative_controls(VARIANTS[:1])
        rng.shuffle(cases)
        return cases

    @staticmethod
    def run(case):
        if isinstance(case, Sqrt2Case):
            return zx("witness").witness_sqrt2([case.k])
        return run_rule_case(case)

    def oracle(self, case: RuleCase) -> bool:
        alpha = case.bindings["alpha"]
        key = (case.bindings["n"], alpha.num, alpha.den, case.factor)
        if key not in self._oracle:
            self._oracle[key] = supn_oracle(key[0], Fraction(alpha.num, alpha.den), case.factor)
        return self._oracle[key]

    def check(self, case, result) -> tuple[int, int]:
        if isinstance(case, Sqrt2Case):
            if isinstance(result, BaseException):
                return 1, 1
            # the witness must find coordinates exactly when k = 0 mod 4
            ok = (result.passed and len(result.checks) == 1
                  and result.checks[0].evidence.startswith("coords") == (case.k % 4 == 0))
            return 1, int(not ok)
        sound = _sound(result)
        return 1, int(sound is None or sound != case.expect_sound
                      or sound != self.oracle(case))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayCase:
    script: object
    expect: object  # "accept", a step index, or "final"
    mutation: str = ""


def _pattern(rules, step):
    inst = rules.instantiate(step.rule, step.bindings, step.color_swap, step.vertical_flip)
    return inst.lhs if step.direction == "ltr" else inst.rhs


class Replay:
    """check_derivation(paranoid=True) on the three bundled scripts.  Every
    block replays each script once as shipped and once under each of three
    mutations, which must be rejected at the mutated step (binding,
    embedding) or at the final isomorphism."""

    name = "replay"
    tail_pct = 99.0
    cli_args = ["derive", "check", "src/zxexact/data/zo_from_zxe.json", "--paranoid", "--json"]
    traced_loads = ("iv_from_zxe", "zo_from_zxe", "sup4_from_sup2")
    trace_blocks = 3

    def __init__(self, seed: int):
        self.seed = seed
        bundled, rules = zx("bundled"), zx("rules")
        PiRational = zx("diagram").PiRational
        self.scripts = {name: bundled.load_bundled(name) for name in bundled.BUNDLED_SCRIPTS}
        self.binding_sites: dict[str, list] = {}
        self.embedding_sites: dict[str, list] = {}
        for name, script in self.scripts.items():
            bsites, esites = [], []
            for i, step in enumerate(script.steps):
                try:
                    pattern = _pattern(rules, step)
                except rules.RuleError:
                    continue  # not a catalogue rule (twin merge)
                for key, val in sorted(step.bindings.items()):
                    if isinstance(val, PiRational):
                        moved = dict(step.bindings, **{key: val + PiRational(1)})
                        mutated = copy.copy(step)
                        mutated.bindings = moved
                        if _pattern(rules, mutated).nodes != pattern.nodes:
                            bsites.append((i, key))
                nodes = sorted(x for x in step.embedding.node_map if x in pattern.nodes)
                for a in range(len(nodes)):
                    for b in range(a + 1, len(nodes)):
                        if pattern.nodes[nodes[a]] != pattern.nodes[nodes[b]]:
                            esites.append((i, nodes[a], nodes[b]))
            self.binding_sites[name] = bsites
            self.embedding_sites[name] = esites
        self.mutations_attempted = 0
        self.mutations_rejected = 0

    def _site(self, sites: list, kind: str, i: int):
        """Block i's mutation site: a seeded start, then a golden-ratio stride
        through the sites (which are in step order), so that any run of
        blocks spreads its mutations evenly over the script whatever the
        seed; where a mutation lands sets how many steps the replay runs."""
        n = len(sites)
        stride = max(1, round(n * 0.618))
        while math.gcd(stride, n) != 1:
            stride += 1
        start = random.Random(f"{self.name}/{self.seed}/{kind}").randrange(n)
        return sites[(start + i * stride) % n]

    def block(self, i: int) -> list[ReplayCase]:
        rng = _rng(self.name, self.seed, i)
        PiRational = zx("diagram").PiRational
        cases = []
        for name, script in self.scripts.items():
            cases.append(ReplayCase(script, "accept"))
            if self.binding_sites[name]:
                step_i, key = self._site(self.binding_sites[name], f"binding/{name}", i)
                bad = copy.deepcopy(script)
                bad.steps[step_i].bindings[key] = bad.steps[step_i].bindings[key] + PiRational(1)
                cases.append(ReplayCase(bad, step_i, "binding"))
            if self.embedding_sites[name]:
                step_i, x, y = self._site(self.embedding_sites[name], f"embedding/{name}", i)
                bad = copy.deepcopy(script)
                nm = bad.steps[step_i].embedding.node_map
                nm[x], nm[y] = nm[y], nm[x]
                cases.append(ReplayCase(bad, step_i, "embedding"))
            bad = copy.deepcopy(script)
            if len(bad.final_iso) >= 2:
                key = self._site(sorted(bad.final_iso), f"final/{name}", i)
                others = sorted(v for k, v in bad.final_iso.items() if k != key)
                bad.final_iso[key] = rng.choice(others)  # no longer a bijection
            else:
                ghost = sorted(bad.initial.nodes)[0]
                bad.final.nodes["bench~ghost"] = bad.initial.nodes[ghost]
            cases.append(ReplayCase(bad, "final", "final_iso"))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def run(case: ReplayCase):
        return zx("derive").check_derivation(case.script, paranoid=True,
                                              tol=TOL, max_rank=MAX_RANK)

    def check(self, case: ReplayCase, result) -> tuple[int, int]:
        if case.mutation:
            self.mutations_attempted += 1
        if isinstance(result, BaseException):
            return 1, 1
        step = result.failed_step
        # a paranoid interpret that hit the rank cap was skipped, not checked
        skipped = bool(result.paranoid_notes)
        if isinstance(step, int):
            verdicts = step + 1
        elif step is None and not result.accepted:
            verdicts = 1  # rejected before the first step
        else:
            verdicts = max(1, len(case.script.steps))
        if case.expect == "accept":
            return verdicts, int(not result.accepted or skipped)
        ok = not result.accepted and step == case.expect and not skipped
        self.mutations_rejected += ok
        return verdicts, int(not ok)


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

@dataclass
class CircuitCase:
    qubits: int
    gates: list  # ("z"|"x", wire, phase) | ("h", wire) | ("cx", control, target)
    diagram: object
    exact: bool
    oracle: bool = False


ROTATIONS = (1, 2, 3, 5, 6, 7)  # times pi/4


def random_gates(rng: random.Random, qubits: int, nodes: int, float_angles: bool) -> list:
    """A layered Clifford+T-shaped circuit with at least ``nodes`` diagram
    nodes.  Layer ``k`` puts one gate on every wire (an H box on the wire
    ``k mod qubits``, Z and X rotations elsewhere) and then one CNOT on the
    neighbour pair ``k mod (qubits - 1)``; a CNOT costs two nodes.  The seed
    picks the rotation angles and the CNOT directions, not the wiring, so
    diagrams of one shape cost about the same.  Exact angles are the
    non-trivial multiples of pi/4: angles 0 and pi make sparse spider tensors
    whose share would swing the cost of a shape from seed to seed."""
    PiRational = zx("diagram").PiRational
    gates, count, layer = [], 0, 0
    while count < nodes:
        for w in range(qubits):
            if w == layer % qubits:
                gates.append(("h", w))
            else:
                phase = (rng.uniform(0.0, 2 * math.pi) if float_angles
                         else PiRational(rng.choice(ROTATIONS), 4))
                gates.append(("z" if (w + layer) % 2 else "x", w, phase))
        c = layer % (qubits - 1)
        gates.append(("cx", c, c + 1) if rng.random() < 0.5 else ("cx", c + 1, c))
        count += qubits + 2
        layer += 1
    return gates


def circuit_diagram(qubits: int, gates: list):
    diagram = zx("diagram")
    d = diagram.Diagram()
    d.inputs = tuple(f"i{k}" for k in range(qubits))
    d.outputs = tuple(f"o{k}" for k in range(qubits))
    end = list(d.inputs)
    for g in gates:
        nid = f"n{len(d.nodes)}"
        if g[0] == "cx":
            c, t = g[1], g[2]
            xid = f"n{len(d.nodes) + 1}"
            d.nodes[nid] = diagram.zspider()
            d.nodes[xid] = diagram.xspider()
            d.add_edge(end[c], nid)
            d.add_edge(end[t], xid)
            d.add_edge(nid, xid)
            end[c], end[t] = nid, xid
            continue
        w = g[1]
        if g[0] == "h":
            d.nodes[nid] = diagram.hbox()
        else:
            d.nodes[nid] = (diagram.zspider if g[0] == "z" else diagram.xspider)(g[2])
        d.add_edge(end[w], nid)
        end[w] = nid
    for w in range(qubits):
        d.add_edge(end[w], d.outputs[w])
    return d


def gate_by_gate(qubits: int, gates: list, backend: str):
    """The circuit's matrix as a product of per-gate layers, each the
    Kronecker product of identities and one generator matrix: matmul/kron
    only, no contraction."""
    interp, diagram, cyclo = zx("interpret"), zx("diagram"), zx("cyclotomic")
    M = 8 if backend == EXACT else None
    one = cyclo.CycloScalar.one(8) if backend == EXACT else complex(1)
    zero = cyclo.CycloScalar.zero(8) if backend == EXACT else complex(0)

    def eye(k: int):
        size = 1 << k
        return interp.SemanticMatrix(
            [[one if r == c else zero for c in range(size)] for r in range(size)],
            k, k, backend, M)

    def layer(before: int, gen, after: int):
        return eye(before).kron(gen).kron(eye(after))

    def gen(kind, n_in, n_out):
        return interp.node_tensor(kind, n_in, n_out, backend, modulus=M)

    u = eye(qubits)
    for g in gates:
        if g[0] == "cx":
            c, t = g[1], g[2]
            top = min(c, t)
            copy_ = gen(diagram.zspider(), 1, 2)
            merge = gen(diagram.xspider(), 2, 1)
            if c < t:
                first = layer(top, copy_, qubits - top - 1)
                second = layer(top + 1, merge, qubits - top - 2)
            else:
                first = layer(top + 1, copy_, qubits - top - 2)
                second = layer(top, merge, qubits - top - 1)
            u = second.matmul(first.matmul(u))
            continue
        w = g[1]
        kind = diagram.hbox() if g[0] == "h" else (
            diagram.zspider if g[0] == "z" else diagram.xspider)(g[2])
        u = layer(w, gen(kind, 1, 1), qubits - w - 1).matmul(u)
    return u


def _complex(m) -> list[list[complex]]:
    """Entries as complex numbers.  Exact entries are converted from their
    canonical coefficients: summing a long unreduced term list in floating
    point (as ``to_complex`` does) loses every digit on large circuits."""
    if m.backend == FLOAT:
        return m.entries

    def convert(s) -> complex:
        M = s.modulus
        return sum(float(c) * cmath.exp(2j * cmath.pi * k / M)
                   for k, c in enumerate(s.canonical()) if c)

    return [[convert(s) for s in row] for row in m.entries]


def _max_gap(a, b) -> float:
    return max(abs(x - y) for ra, rb in zip(_complex(a), _complex(b)) for x, y in zip(ra, rb))


class Circuits:
    """Seeded Clifford+T-shaped circuit diagrams of 3-5 qubits and 40-125
    nodes, interpreted by the exact and the float backend.  Each block holds
    one diagram of every shape below, in seeded order; the last two shapes
    carry random float angles and use the float backend only.  Small 3-qubit
    diagrams are also checked, by a seeded coin, against a gate-by-gate
    matmul/kron oracle."""

    name = "circuits"
    tail_pct = 75.0
    cli_args = ["interpret", "src/zxexact/data/e_lhs.zx", "--json"]
    trace_blocks = 1
    # (qubits, nodes, backend); sized so the shapes nearest the median and
    # the 75th percentile come in pairs of similar cost, which keeps those
    # order statistics from jumping between shapes from run to run
    shapes = ((3, 40, EXACT), (4, 48, EXACT), (3, 56, EXACT), (5, 56, EXACT),
              (4, 64, EXACT), (3, 72, EXACT), (3, 88, EXACT), (5, 80, EXACT),
              (3, 104, EXACT), (4, 104, EXACT), (3, 120, EXACT), (4, 120, EXACT),
              (4, 96, FLOAT), (5, 88, FLOAT))
    oracle_max_nodes = 100

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, i: int) -> list[CircuitCase]:
        rng = _rng(self.name, self.seed, i)
        cases = []
        for q, n, backend in self.shapes:
            gates = random_gates(rng, q, n, float_angles=backend == FLOAT)
            oracle = q == 3 and n <= self.oracle_max_nodes and rng.random() < 0.5
            cases.append(CircuitCase(q, gates, circuit_diagram(q, gates), backend == EXACT,
                                     oracle))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def run(case: CircuitCase):
        interpret = zx("interpret").interpret
        exact = interpret(case.diagram, EXACT, MAX_RANK) if case.exact else None
        return exact, interpret(case.diagram, FLOAT, MAX_RANK)

    @staticmethod
    def check(case: CircuitCase, result) -> tuple[int, int]:
        if isinstance(result, BaseException):
            return 1, 1
        exact, flt = result
        ok = exact is None or _max_gap(exact, flt) <= TOL
        if ok and case.oracle:
            if exact is not None:
                want = gate_by_gate(case.qubits, case.gates, EXACT)
                ok = zx("interpret").matrix_compare(exact, want).equal
            else:
                ok = _max_gap(flt, gate_by_gate(case.qubits, case.gates, FLOAT)) <= TOL
        return 1, int(not ok)


WORKLOADS = {w.name: w for w in (Sweep, Replay, WideModulus, Circuits)}
