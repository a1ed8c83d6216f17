"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when some check fails,
2 for malformed input or bad arguments (a malformed environment override
and a tolerance that is not a finite positive number among them).  All
JSON reports carry a top-level "schema": "1" field and are
byte-deterministic for fixed inputs and seed.

Environment overrides: ZXEXACT_TOLERANCE, ZXEXACT_MAX_RANK, ZXEXACT_SEED.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .diagram import DiagramError, PiRational, load_diagram
from .derive import check_derivation, load_script
from .interpret import (
    EXACT, FLOAT, ResourceLimitError, interpret, invariant_g, invariant_r,
)
from .rules import (
    RULESETS, RuleError, catalogue, check_soundness, get_schema, instantiate,
    invariant_preservation_check, soundness_suite,
)
from .witness import (
    witness_E_independence, witness_sqrt2, witness_sup_necessity, witness_theorem2,
)

PASS, FAIL, USAGE = 0, 1, 2


def _env(name: str, kind: type, default):
    """The environment variable ``name`` read as ``kind``; ``ValueError``
    names the variable when it does not parse."""
    val = os.environ.get(name)
    if not val:
        return default
    try:
        return kind(val)
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {val!r}") from None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_binding(text: str):
    key, _, raw = text.partition("=")
    if not _ or not key:
        raise RuleError(f"binding must look like name=value, got {text!r}")
    if raw.startswith("float:"):
        return key, float(raw[6:])
    try:
        return key, int(raw)
    except ValueError:
        return key, PiRational.parse(raw)


def _parse_variant(text: str) -> tuple[bool, bool]:
    flags = {f for f in text.split(",") if f}
    unknown = flags - {"swap", "flip", "none"}
    if unknown:
        raise RuleError(f"unknown variant flags {sorted(unknown)}")
    return "swap" in flags, "flip" in flags


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_interpret(args) -> int:
    d = load_diagram(args.file)
    m = interpret(d, backend=args.backend, max_rank=args.max_rank)
    rows = [[m.entry_str(r, c) for c in range(m.cols)] for r in range(m.rows)]
    payload = {
        "schema": "1",
        "inputs": d.n_inputs,
        "outputs": d.n_outputs,
        "backend": m.backend,
        "entries": rows,
    }
    if m.is_scalar():
        lines = [f"scalar: {rows[0][0]}"]
    else:
        lines = [f"matrix {m.rows}x{m.cols} ({m.backend})"]
        lines += ["  ".join(row) for row in rows]
    _emit(args, payload, lines)
    return PASS


def _cmd_invariant(args) -> int:
    d = load_diagram(args.file)
    r, g = invariant_r(d), invariant_g(d)
    _emit(args, {"schema": "1", "invariant_r": r, "invariant_g": g},
          [f"invariant_r: {r}", f"invariant_g: {g}"])
    return PASS


def _cmd_rule(args) -> int:
    if args.action == "list":
        lines, entries = [], []
        for s in catalogue():
            sets = ",".join(n for n, members in sorted(RULESETS.items()) if s.name in members)
            lines.append(f"{s.name:5s} {s.origin:17s} {sets or '-':20s} {s.note}")
            entries.append({"name": s.name, "origin": s.origin, "rulesets": sets,
                            "note": s.note})
        _emit(args, {"schema": "1", "rules": entries}, lines)
        return PASS
    schema = get_schema(args.name)
    if args.action == "show":
        payload = {
            "schema": "1", "name": schema.name, "origin": schema.origin,
            "angle_params": list(schema.angle_params),
            "arity_params": {k: v for k, v in schema.arity_floors.items()},
            "note": schema.note,
        }
        lines = [f"rule {schema.name} ({schema.origin}): {schema.note}",
                 f"  angles: {', '.join(schema.angle_params) or 'none'}",
                 f"  arities (floors): {schema.arity_floors or 'none'}"]
        _emit(args, payload, lines)
        return PASS
    # check
    bindings = dict(_parse_binding(b) for b in args.bind or [])
    swap, flip = _parse_variant(args.variant)
    inst = instantiate(schema, bindings, swap, flip)
    backend = EXACT if args.backend == "exact" and inst.lhs.is_exact() and inst.rhs.is_exact() else FLOAT
    res = check_soundness(inst, backend=backend, tol=args.tolerance, max_rank=args.max_rank)
    status = "sound" if res.sound else "unsound"
    payload = {"schema": "1", "instance": inst.key(), "backend": backend,
               "status": status, "witness": list(res.witness) if res.witness else None}
    lines = [f"{inst.key()} [{backend}]: {status}"]
    if res.witness:
        r, c, a, b = res.witness
        lines.append(f"  differing entry ({r},{c}): {a} vs {b}")
    _emit(args, payload, lines)
    return PASS if res.sound else FAIL


def _cmd_suite(args) -> int:
    if args.kind == "soundness":
        report = soundness_suite(args.ruleset, max_arity=args.max_arity,
                                 grid_den=args.grid, n_random=args.random,
                                 seed=args.seed, tol=args.tolerance,
                                 max_rank=args.max_rank)
        lines = [e.line() for e in report.entries if e.status != "PASS"]
        lines.append(f"suite soundness {args.ruleset}: "
                     f"{len(report.entries)} instances, "
                     f"{len(report.failures())} failures")
        _emit(args, report.to_json(), lines)
        return PASS if report.all_pass else FAIL
    # invariants: observed preservation must match the invariant lemma
    entries = invariant_preservation_check(args.ruleset, max_arity=args.max_arity,
                                           grid_den=args.grid)
    expected_breakers = {"ZO", "E"}
    ok = all((e.rule in expected_breakers) != e.preserving for e in entries)
    payload = {"schema": "1", "ruleset": args.ruleset, "as_expected": ok,
               "entries": [{"rule": e.rule, "preserving": e.preserving,
                            "counterexample": e.counterexample} for e in entries]}
    lines = [f"RULE {e.rule} -> {'preserving' if e.preserving else 'not preserving'}"
             + (f" [{e.counterexample}]" if e.counterexample else "")
             for e in entries]
    lines.append(f"suite invariants {args.ruleset}: {'as expected' if ok else 'UNEXPECTED'}")
    _emit(args, payload, lines)
    return PASS if ok else FAIL


def _cmd_derive(args) -> int:
    script = load_script(args.file)
    verdict = check_derivation(script, paranoid=args.paranoid, tol=args.tolerance,
                               max_rank=args.max_rank)
    lines = []
    for e in verdict.ledger:
        tag = " *" if e.flagged else ""
        lines.append(f"  step {e.step:3d} {e.rule or '(initial)':6s} "
                     f"invariant_r={e.invariant}{tag}")
    if verdict.accepted:
        lines.append(f"accepted ({len(script.steps)} steps)")
    else:
        lines.append(f"rejected at {verdict.failed_step}: {verdict.reason}")
    _emit(args, verdict.to_json(), lines)
    return PASS if verdict.accepted else FAIL


def _cmd_witness(args) -> int:
    if args.which == "prop1":
        rep = witness_E_independence()
    elif args.which == "sqrt2":
        ks = [int(k) for k in args.k.split(",")] if args.k else range(1, 13)
        rep = witness_sqrt2(ks)
    elif args.which == "supnec":
        rep = witness_sup_necessity(args.p)
    else:
        rep = witness_theorem2(tol=args.tolerance)
    _emit(args, rep.to_json(), rep.lines())
    return PASS if rep.passed else FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--tolerance", "--tol", type=float,
                        default=_env("ZXEXACT_TOLERANCE", float, 1e-9))
    common.add_argument("--max-rank", type=int,
                        default=_env("ZXEXACT_MAX_RANK", int, 16))
    parser = argparse.ArgumentParser(prog="zxexact",
                                     description="exact ZX-calculus engine",
                                     parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("interpret", help="evaluate a diagram file")
    p.add_argument("file")
    p.add_argument("--backend", choices=[EXACT, FLOAT], default=EXACT)
    p.set_defaults(func=_cmd_interpret)

    p = add_parser("invariant", help="graphical parity invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariant)

    p = add_parser("rule", help="rule catalogue")
    p.add_argument("action", choices=["list", "show", "check"])
    p.add_argument("name", nargs="?")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p.add_argument("--variant", default="none", help="swap,flip")
    p.add_argument("--backend", choices=[EXACT, FLOAT], default=EXACT)
    p.set_defaults(func=_cmd_rule)

    p = add_parser("suite", help="soundness / invariant sweeps")
    p.add_argument("kind", choices=["soundness", "invariants"])
    p.add_argument("--ruleset", default="ZX", choices=sorted(RULESETS))
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--grid", type=int, default=4, metavar="K", help="pi/K angle grid")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=_env("ZXEXACT_SEED", int, 0))
    p.set_defaults(func=_cmd_suite)

    p = add_parser("derive", help="check a derivation script")
    p.add_argument("action", choices=["check"])
    p.add_argument("file")
    p.add_argument("--paranoid", action="store_true",
                   help="re-interpret the whole diagram after every step")
    p.set_defaults(func=_cmd_derive)

    p = add_parser("witness", help="incompleteness witnesses")
    p.add_argument("which", choices=["prop1", "sqrt2", "supnec", "thm2"])
    p.add_argument("--k", help="comma-separated k values for sqrt2")
    p.add_argument("--p", type=int, default=3, help="odd prime for supnec")
    p.set_defaults(func=_cmd_witness)
    return parser


def run(argv: list[str]) -> int:
    try:
        parser = _build_parser()
    except ValueError as exc:  # a malformed environment variable
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        print("error: tolerance must be a finite positive number", file=sys.stderr)
        return USAGE
    if args.max_rank < 4:
        print("error: rank cap must be at least 4", file=sys.stderr)
        return USAGE
    try:
        return args.func(args)
    except (DiagramError, RuleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return FAIL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
