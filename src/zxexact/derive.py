"""Derivation proof checking: embedded rule applications, step replay,
invariant ledger, and cyclotomic-twin merging.

There is no subgraph matching here by design: a script supplies, for every
step, the exact node map and the host half-edges its boundary attaches to,
so checking is linear and verdicts are reproducible.  Derived-imported rules
(``rules.DERIVED_IMPORTED``) and twin merges are re-verified at every
application by ``rules.check_equation``, on the backend that
``interpret.backend_for`` picks; the declared rule set's axioms are trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagram import (
    Diagram, DiagramError, NodeKind, PiRational, H,
    _freshen, _json, _load_json, _norm_edge, add_phases, diagram_from_json, diagram_to_json,
    phase_from_json, phase_is_exact, phase_to_json, scale_phase, validate_diagram,
)
from .interpret import (
    DEFAULT_MAX_RANK, DEFAULT_TOLERANCE, ResourceLimitError, backend_for, interpret,
    invariant_r, matrix_compare,
)
from .rules import (
    DERIVED_IMPORTED, RULESETS, RuleError, check_equation, check_soundness, instantiate,
)

TWINS_RULE = "TWINS"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfEdge:
    """One end of a specific host edge: endpoints (normalized order), the
    occurrence index among parallel copies, and which end is designated."""

    a: str
    b: str
    k: int
    end: int  # 0 -> a side, 1 -> b side

    def designated(self) -> str:
        return (self.a, self.b)[self.end]

    def other(self) -> str:
        return (self.a, self.b)[1 - self.end]

    def to_json(self) -> dict:
        return {"edge": [self.a, self.b], "k": self.k, "end": self.end}

    @staticmethod
    def from_json(obj: object) -> "HalfEdge":
        _json(obj, dict, "a boundary half-edge", keys=("edge", "k", "end"))
        edge = _json(obj.get("edge"), list, "a half-edge's edge", str)
        end = _json(obj.get("end"), int, "a half-edge's end")
        k = _json(obj.get("k", 0), int, "a half-edge's k")
        if len(edge) != 2 or end not in (0, 1) or k < 0:
            raise DiagramError(f"bad half-edge {obj!r}: want two ids, end 0 or 1 and k >= 0")
        a, b = edge
        designated = (a, b)[end]
        aa, bb = _norm_edge(a, b)
        if aa != bb:  # re-anchor the end after normalizing the pair order
            end = 1 if designated == bb else 0
        return HalfEdge(aa, bb, k, end)


@dataclass
class Embedding:
    node_map: dict[str, str]
    boundary_map: dict[str, HalfEdge] = field(default_factory=dict)


def _edge_index(host: Diagram, he: HalfEdge) -> Optional[int]:
    target = _norm_edge(he.a, he.b)
    seen = 0
    for i, e in enumerate(host.edges):
        if e == target:
            if seen == he.k:
                return i
            seen += 1
    return None


def validate_embedding(host: Diagram, pattern: Diagram, emb: Embedding) -> Optional[str]:
    """Check all embedding conditions; None means the match is valid."""
    nm = emb.node_map
    if set(nm.keys()) != set(pattern.nodes):
        return "node map does not cover the pattern nodes"
    values = list(nm.values())
    if len(set(values)) != len(values):
        return "non-injective map"
    image = set(values)
    for x, hx in nm.items():
        if hx not in host.nodes:
            return f"orphan reference: {hx} is not a host node"
        want, got = pattern.nodes[x], host.nodes[hx]
        if want.kind != got.kind:
            return f"kind mismatch at {x}->{hx}"
        if want.phase != got.phase:
            return f"phase mismatch at {x}->{hx}"

    # internal multiplicities, exactly
    (pat_degree, pat_mult), (host_degree, host_mult) = pattern.edge_counts(), host.edge_counts()
    pat_nodes = sorted(pattern.nodes)
    for i, x in enumerate(pat_nodes):
        for y in pat_nodes[i:]:
            pm = pat_mult.get(_norm_edge(x, y), 0)
            hm = host_mult.get(_norm_edge(nm[x], nm[y]), 0)
            if pm > hm:
                return f"multiplicity mismatch between {x} and {y}"
            if pm < hm:
                return f"degree leak between {nm[x]} and {nm[y]}"

    # boundary half-edges
    ports = pattern.ports()
    if set(emb.boundary_map.keys()) != ports:
        return "boundary map does not cover the pattern ports"
    used: dict[tuple[str, str, int], set[int]] = {}
    port_edge: dict[str, tuple[str, str]] = {}
    for a, b in pattern.edges:
        for p, w in ((a, b), (b, a)):
            if p in ports:
                if p in port_edge:
                    return f"pattern port {p} has degree > 1"
                port_edge[p] = (p, w)
    for p in ports:
        if p not in port_edge:
            return f"pattern port {p} is dangling"
        _, w = port_edge[p]
        he = emb.boundary_map[p]
        idx = _edge_index(host, he)
        if idx is None:
            return f"orphan reference: boundary of {p} names a missing host edge"
        if he.designated() in image:
            return f"boundary of {p} points into the matched region"
        key = (he.a, he.b, he.k)
        ends = used.setdefault(key, set())
        if he.end in ends:
            return f"boundary conflict: half-edge of {p} already claimed"
        ends.add(he.end)
        if w in ports:
            mate = emb.boundary_map.get(w)
            if mate is None or (mate.a, mate.b, mate.k) != key or mate.end == he.end:
                return f"wire {p}-{w} must claim the two ends of one host edge"
        else:
            if he.other() != nm[w]:
                return f"boundary mismatch: {p} should attach at {nm[w]}"

    # degree accounting catches any uncounted host edge into the region
    for x, hx in nm.items():
        if host_degree.get(hx, 0) != pat_degree.get(x, 0):
            return f"degree leak at {hx}"
    return None


def apply_rewrite(host: Diagram, pattern: Diagram, replacement: Diagram,
                  emb: Embedding, fresh_prefix: str) -> Diagram:
    """Replace the embedded pattern by the replacement.  The embedding must
    already have been validated."""
    nm = emb.node_map
    image = set(nm.values())
    remove_idx: set[int] = set()
    # images of internal pattern edges: all host edges within the image
    for i, (a, b) in enumerate(host.edges):
        if a in image and b in image:
            remove_idx.add(i)
    attach: dict[str, str] = {}
    for p, he in emb.boundary_map.items():
        idx = _edge_index(host, he)
        remove_idx.add(idx)
        attach[p] = he.designated()

    out = host.copy()
    out.edges = [e for i, e in enumerate(out.edges) if i not in remove_idx]
    for hx in image:
        del out.nodes[hx]

    names = sorted(replacement.nodes)
    taken = out.all_ids() | set(host.nodes)
    fresh = dict(zip(names, _freshen([fresh_prefix + u for u in names], taken).values()))
    for u in names:
        out.nodes[fresh[u]] = replacement.nodes[u]

    rports = replacement.ports()
    for a, b in replacement.edges:
        ea = attach[a] if a in rports else fresh[a]
        eb = attach[b] if b in rports else fresh[b]
        out.add_edge(ea, eb)
    return out


# ---------------------------------------------------------------------------
# cyclotomic twins
# ---------------------------------------------------------------------------

class TwinError(ValueError):
    """A merge_twins precondition failed; the message names the clause."""


def _twin_base_phase(phases: list[PiRational], n: int) -> PiRational:
    """Find alpha such that the phases are {alpha + 2k*pi/n}, else raise."""
    target = sorted((p.num, p.den) for p in phases)
    for cand in phases:
        shifted = (add_phases(cand, PiRational(2 * k, n)) for k in range(n))
        if sorted((p.num, p.den) for p in shifted) == target:
            return cand
    raise TwinError("phase pattern: angles do not divide the circle into equal parts")


def merge_twins(host: Diagram, twin_ids: list[str], n: int) -> Diagram:
    """Merge n cyclotomic twins into one spider of phase n*alpha + (n-1)*pi
    with n-fold wires to each neighbour."""
    if n != len(twin_ids) or n < 1:
        raise TwinError(f"expected {n} twin ids, got {len(twin_ids)}")
    if len(set(twin_ids)) != n:
        raise TwinError("twin ids are not distinct")
    for t in twin_ids:
        if t not in host.nodes:
            raise TwinError(f"unknown node {t}")
    kinds = {host.nodes[t].kind for t in twin_ids}
    if len(kinds) != 1 or kinds == {H}:
        raise TwinError("colour: twins must be same-colour spiders")
    colour = kinds.pop()
    phases = []
    for t in twin_ids:
        p = host.nodes[t].phase
        if not phase_is_exact(p):
            raise TwinError("phase pattern: twins need exact phases")
        phases.append(p)
    alpha = _twin_base_phase(phases, n)

    twin_set = set(twin_ids)
    for a, b in host.edges:
        if a in twin_set and b in twin_set:
            raise TwinError("neighbourhood: twins are interconnected")

    mult: dict[str, dict[str, int]] = {t: {} for t in twin_ids}
    for a, b in host.edges:
        if a in twin_set:
            mult[a][b] = mult[a].get(b, 0) + 1
        elif b in twin_set:
            mult[b][a] = mult[b].get(a, 0) + 1
    common = mult[twin_ids[0]]
    for t in twin_ids[1:]:
        if mult[t] != common:
            raise TwinError(f"neighbourhood: {t} differs from {twin_ids[0]}")

    merged_phase = add_phases(scale_phase(alpha, n), PiRational(n - 1))
    out = host.copy()
    out.edges = [e for e in out.edges if e[0] not in twin_set and e[1] not in twin_set]
    for t in twin_ids:
        del out.nodes[t]
    mid = _freshen(["twins~0"], out.all_ids())["twins~0"]
    out.nodes[mid] = NodeKind(colour, merged_phase)
    for v, m in sorted(common.items()):
        for _ in range(n * m):
            out.add_edge(mid, v)
    return out


def twin_local_equivalence(host: Diagram, twin_ids: list[str], n: int,
                           max_rank: int = DEFAULT_MAX_RANK,
                           tol: float = DEFAULT_TOLERANCE) -> bool:
    """Semantic check of a twin merge on the local subdiagram (twins plus
    their neighbours, the neighbours' outer legs opened as ports); ``tol``
    applies when a neighbour's float phase puts it on the float backend."""
    merged = merge_twins(host, twin_ids, n)  # validates preconditions
    twin_set = set(twin_ids)
    # the far end of every edge with exactly one end on a twin
    neigh = {b if a in twin_set else a for a, b in host.edges
             if (a in twin_set) != (b in twin_set)}
    if not neigh.issubset(host.nodes.keys()):
        # ports in the neighbourhood only pass the precondition when n == 1
        return True

    def local(diagram: Diagram, centre: set[str]) -> Diagram:
        d = Diagram()
        keep = centre | neigh
        for v in keep:
            d.nodes[v] = diagram.nodes[v]
        ports = []
        for a, b in diagram.edges:
            a_in, b_in = a in keep, b in keep
            if a_in and b_in:
                d.add_edge(a, b)
            elif a_in or b_in:
                p = f"q{len(ports)}"
                ports.append(p)
                d.add_edge(a if a_in else b, p)
        d.outputs = tuple(ports)
        return d

    # the sides share the neighbour nodes, and the outer legs are enumerated
    # in host edge order, which merge_twins preserves for non-twin edges
    lhs = local(host, twin_set)
    merged_id = next(v for v in merged.nodes if v not in host.nodes)
    rhs = local(merged, {merged_id})
    return check_equation(lhs, rhs, backend_for(lhs, rhs), tol, max_rank).equal


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

@dataclass
class DerivationStep:
    rule: str
    direction: str = "ltr"
    bindings: dict = field(default_factory=dict)
    color_swap: bool = False
    vertical_flip: bool = False
    embedding: Embedding = field(default_factory=lambda: Embedding({}))

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "variant": {"swap": self.color_swap, "flip": self.vertical_flip},
            "dir": self.direction,
            "bindings": {k: _binding_to_json(v) for k, v in sorted(self.bindings.items())},
            "match": {
                "nodes": dict(sorted(self.embedding.node_map.items())),
                "boundary": {p: he.to_json()
                             for p, he in sorted(self.embedding.boundary_map.items())},
            },
        }

    @staticmethod
    def from_json(obj: object) -> "DerivationStep":
        _json(obj, dict, "a step", keys=("rule", "variant", "dir", "bindings", "match"))
        variant = _json(obj.get("variant", {}), dict, "a step's variant", keys=("swap", "flip"))
        match = _json(obj.get("match", {}), dict, "a step's match", keys=("nodes", "boundary"))
        direction = obj.get("dir", "ltr")
        if direction not in ("ltr", "rtl"):
            raise DiagramError(f"a step's dir must be \"ltr\" or \"rtl\", got {direction!r}")
        return DerivationStep(
            rule=_json(obj.get("rule"), str, "a step's rule"),
            direction=direction,
            bindings={k: _binding_from_json(v) for k, v in
                      _json(obj.get("bindings", {}), dict, "a step's bindings").items()},
            color_swap=_json(variant.get("swap", False), bool, "a step's variant.swap"),
            vertical_flip=_json(variant.get("flip", False), bool, "a step's variant.flip"),
            embedding=Embedding(
                node_map=dict(_json(match.get("nodes", {}), dict, "match.nodes", str)),
                boundary_map={p: HalfEdge.from_json(h) for p, h in
                              _json(match.get("boundary", {}), dict, "match.boundary").items()},
            ),
        )


def _binding_to_json(v) -> object:
    return v if isinstance(v, (int, str)) else phase_to_json(v)


def _binding_from_json(v) -> object:
    """A phase string, {"float": x} or a count; a bare float or a boolean
    is refused rather than read as radians or as an integer."""
    if isinstance(v, (str, dict)):
        return phase_from_json(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise DiagramError(f'a binding must be a phase string, {{"float": x}} or an integer, got {v!r}')


@dataclass
class DerivationScript:
    ruleset: str
    initial: Diagram
    steps: list[DerivationStep]
    final: Diagram
    final_iso: dict[str, str]

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "ruleset": self.ruleset,
            "initial": diagram_to_json(self.initial),
            "steps": [s.to_json() for s in self.steps],
            "final": diagram_to_json(self.final),
            "final_iso": dict(sorted(self.final_iso.items())),
        }

    @staticmethod
    def from_json(obj: object) -> "DerivationScript":
        """The script of a JSON object; raises DiagramError for a malformed one."""
        _json(obj, dict, "a script",
              keys=("schema", "ruleset", "initial", "steps", "final", "final_iso"))
        return DerivationScript(
            ruleset=_json(obj.get("ruleset"), str, "ruleset"),
            initial=diagram_from_json(_json(obj.get("initial"), dict, "initial")),
            steps=[DerivationStep.from_json(s)
                   for s in _json(obj.get("steps", []), list, "steps")],
            final=diagram_from_json(_json(obj.get("final"), dict, "final")),
            final_iso=dict(_json(obj.get("final_iso", {}), dict, "final_iso", str)),
        )


def load_script(path: str) -> DerivationScript:
    return _load_json(path, DerivationScript.from_json, "script")


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

@dataclass
class LedgerEntry:
    step: int  # -1 for the initial diagram
    rule: str
    invariant: int
    flagged: bool


@dataclass
class Verdict:
    accepted: bool
    failed_step: Optional[Union[int, str]] = None
    reason: str = ""
    ledger: list[LedgerEntry] = field(default_factory=list)
    paranoid_notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "accepted": self.accepted,
            "failed_step": self.failed_step,
            "reason": self.reason,
            "ledger": [
                {"step": e.step, "rule": e.rule, "invariant_r": e.invariant,
                 "flagged": e.flagged}
                for e in self.ledger
            ],
            "paranoid_notes": self.paranoid_notes,
        }


def apply_step(host: Diagram, step: DerivationStep, step_index: int = 0,
               tol: float = DEFAULT_TOLERANCE, max_rank: int = DEFAULT_MAX_RANK) -> Diagram:
    """Apply one step to the host; raises on any rejection.  Twin merges and
    derived-imported rules are re-verified semantically at every use."""
    if step.rule == TWINS_RULE:
        n = step.bindings.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise TwinError(f"twin step needs a positive integer count n, got {n!r}")
        node_map = step.embedding.node_map
        if n > len(node_map) or any(f"t{k}" not in node_map for k in range(n)):
            raise TwinError("twin step must map t0..t{n-1}")
        ids = [node_map[f"t{k}"] for k in range(n)]
        if not twin_local_equivalence(host, ids, n, max_rank=max_rank, tol=tol):
            raise TwinError("twin merge failed its semantic re-verification")
        return merge_twins(host, ids, n)
    inst = instantiate(step.rule, step.bindings, step.color_swap, step.vertical_flip)
    if step.rule in DERIVED_IMPORTED and not check_soundness(
            inst, backend_for(inst.lhs, inst.rhs), tol, max_rank):
        raise RuleError(f"derived rule {step.rule} failed its semantic re-verification")
    if step.direction == "ltr":
        pattern, replacement = inst.lhs, inst.rhs
    elif step.direction == "rtl":
        pattern, replacement = inst.rhs, inst.lhs
    else:
        raise RuleError(f"bad direction {step.direction!r}")
    reason = validate_embedding(host, pattern, step.embedding)
    if reason is not None:
        raise RuleError(reason)
    return apply_rewrite(host, pattern, replacement, step.embedding, f"s{step_index}.")


def check_derivation(script: DerivationScript, paranoid: bool = False,
                     tol: float = DEFAULT_TOLERANCE, max_rank: int = DEFAULT_MAX_RANK) -> Verdict:
    """Replay every step, verify the claimed final diagram, and report the
    invariant ledger.  Paranoid mode re-interprets the whole diagram after
    each step and insists on semantic equality with the previous state."""
    if script.ruleset not in RULESETS:
        return Verdict(False, failed_step=None, reason=f"unknown ruleset {script.ruleset!r}")
    allowed = set(RULESETS[script.ruleset]) | set(DERIVED_IMPORTED) | {TWINS_RULE}
    violations = validate_diagram(script.initial)
    if violations:
        return Verdict(False, failed_step=None, reason=f"initial diagram: {violations[0]}")

    state = script.initial
    ledger = [LedgerEntry(-1, "", invariant_r(state), False)]
    notes: list[str] = []
    prev_matrix = None
    if paranoid:
        prev_matrix, note = _try_interpret(state, max_rank)
        if note:
            notes.append(f"initial: {note}")

    for i, step in enumerate(script.steps):
        if step.rule not in allowed:
            return Verdict(False, i, f"rule {step.rule} not available in {script.ruleset}",
                           ledger, notes)
        try:
            new_state = apply_step(state, step, step_index=i, tol=tol, max_rank=max_rank)
        except (RuleError, TwinError, DiagramError) as exc:
            return Verdict(False, i, str(exc), ledger, notes)
        violations = validate_diagram(new_state)
        if violations:
            return Verdict(False, i, f"step result malformed: {violations[0]}", ledger, notes)
        inv = invariant_r(new_state)
        ledger.append(LedgerEntry(i, step.rule, inv, inv != ledger[-1].invariant))
        if paranoid:
            cur_matrix, note = _try_interpret(new_state, max_rank)
            if note:
                notes.append(f"step {i}: {note}")
            if prev_matrix is not None and cur_matrix is not None:
                cmp = matrix_compare(prev_matrix, cur_matrix, tol=tol)
                if not cmp.equal:
                    return Verdict(False, i, f"semantic drift at entry {cmp.witness}",
                                   ledger, notes)
            prev_matrix = cur_matrix if cur_matrix is not None else prev_matrix
        state = new_state

    reason = state.matches_under(script.final, script.final_iso)
    if reason is not None:
        return Verdict(False, "final", reason, ledger, notes)
    return Verdict(True, None, "", ledger, notes)


def _try_interpret(d: Diagram, max_rank: int):
    try:
        return interpret(d, backend=backend_for(d), max_rank=max_rank), None
    except ResourceLimitError as exc:
        return None, str(exc)
