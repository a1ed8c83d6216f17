"""CLI behaviour: exit codes, output shapes, determinism."""

import copy
import json
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxexact import rules, witness
from zxexact.cli import run
from zxexact.diagram import Diagram, PiRational, dump_diagram, xspider, zspider


@pytest.fixture()
def e_lhs_file(tmp_path):
    d = Diagram()
    d.nodes["g"] = zspider(PiRational(1, 4))
    d.nodes["r"] = xspider(PiRational(-1, 4))
    d.add_edge("g", "r")
    path = tmp_path / "e_lhs.zx"
    dump_diagram(d, str(path))
    return str(path)


def test_interpret_scalar_one(e_lhs_file, capsys):
    assert run(["interpret", e_lhs_file, "--backend", "exact"]) == 0
    assert "scalar: 1" in capsys.readouterr().out


def test_interpret_float_backend(e_lhs_file, capsys):
    assert run(["interpret", e_lhs_file, "--backend", "float"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scalar: 1")


def test_modulus_cap_gives_exit_1(tmp_path, capsys):
    d = Diagram()
    d.nodes["x"] = xspider(PiRational(1, 99991))
    d.add_edge("x", "x")
    path = tmp_path / "huge_modulus.zx"
    dump_diagram(d, str(path))
    assert run(["interpret", str(path)]) == 1
    assert "modulus 799928 exceeds cap" in capsys.readouterr().err


def test_invariant_command(e_lhs_file, capsys):
    assert run(["invariant", e_lhs_file]) == 0
    out = capsys.readouterr().out
    assert "invariant_r: 1" in out and "invariant_g: 1" in out


def test_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.zx"
    path.write_text("{broken", encoding="utf-8")
    assert run(["interpret", str(path)]) == 2


@pytest.mark.parametrize("phase", [0.25, True, {"float": True}, {"float": "0.5"}])
def test_coerced_phase_literal_exits_two(tmp_path, phase):
    path = tmp_path / "phase.zx"
    path.write_text(json.dumps({"inputs": [], "outputs": [], "edges": [],
                                "nodes": [{"id": "g", "kind": "Z", "phase": phase}]}),
                    encoding="utf-8")
    assert run(["interpret", str(path)]) == 2
    assert run(["interpret", str(path), "--backend", "float"]) == 2


def _bundled(name: str):
    return json.loads(resources.files("zxexact.data").joinpath(name).read_text("utf-8"))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def test_malformed_script_shapes_exit_two(tmp_path, capsys):
    script = _bundled("zo_from_zxe.json")
    k, step = next((k, s) for k, s in enumerate(script["steps"]) if s["match"]["nodes"])
    j, port = next((j, min(s["match"]["boundary"])) for j, s in enumerate(script["steps"])
                   if s["match"]["boundary"])
    cases = [
        (["steps", 0, "variant"], [], 2),
        (["initial"], [], 2),
        (["steps", j, "match", "boundary", port, "end"], 5, 2),
        (["steps", k, "match", "nodes", min(step["match"]["nodes"])], ["x"], 2),
        (["steps", 0, "bindings"], [], 2),
        (["steps", 1, "bindings", "a_in"], 10 ** 30, 1),  # refused at the step
    ]
    target = tmp_path / "bad.json"
    for path, value, code in cases:
        bad = copy.deepcopy(script)
        _at(bad, path[:-1])[path[-1]] = value
        target.write_text(json.dumps(bad), encoding="utf-8")
        assert run(["derive", "check", str(target)]) == code, path
        if code == 2:
            assert capsys.readouterr().err.count("\n") == 1
    target.write_text("[1, 2]", encoding="utf-8")
    assert run(["interpret", str(target)]) == 2
    assert "a diagram must be a JSON object" in capsys.readouterr().err


# every bundled CLI input, and the commands that read it
FUZZ_TARGETS = {
    "circle.zx": (["interpret"], ["invariant"]),
    "e_lhs.zx": (["interpret"], ["interpret", "--backend", "float"], ["invariant"]),
    "zo_from_zxe.json": (["derive", "check"], ["derive", "check", "--paranoid"]),
    "iv_from_zxe.json": (["derive", "check"], ["derive", "check", "--paranoid"]),
    "sup4_from_sup2.json": (["derive", "check"], ["derive", "check", "--paranoid"]),
}
# other types, known and unknown ids, huge counts and bad phases
FUZZ_VALUES = (None, True, 0, -1, 5, 1.5, 10 ** 30, "x", "zpi", "1/0", "1/99991", [],
               ["x"], [1, 2], {}, {"x": 1}, {"float": "x"})


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, prefix + (key,))


@given(st.sampled_from(sorted(FUZZ_TARGETS)), st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_bundled_inputs_never_raise(name, data):
    obj = _bundled(name)
    path = data.draw(st.sampled_from(list(_paths(obj))), label="path")
    op = data.draw(st.sampled_from(("replace", "delete", "add")), label="op")
    value = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
    target = _at(obj, path)
    if not path:
        obj = value
    elif op == "add" and isinstance(target, dict):
        target[data.draw(st.sampled_from(("x", "id", "kind", "end")), label="key")] = value
    elif op == "add" and isinstance(target, list):
        target.append(value)
    elif op == "delete":
        del _at(obj, path[:-1])[path[-1]]
    else:
        _at(obj, path[:-1])[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / name
        file.write_text(json.dumps(obj), encoding="utf-8")
        for command in FUZZ_TARGETS[name]:
            assert run(command + [str(file)]) in (0, 1, 2)


@pytest.mark.parametrize("argv, message", [
    (["suite", "soundness", "--grid", "100000"], "pi/100000 needs modulus 200000, above cap"),
    (["suite", "invariants", "--grid", "32769"], "pi/32769 needs modulus 262152, above cap"),
    (["suite", "soundness", "--max-arity", "100000"], "max arity 100000 above sweep cap 6"),
    (["suite", "invariants", "--max-arity", "1025"], "max arity 1025 above sweep cap 6"),
    (["witness", "sqrt2", "--k", "4,1000000"], "k=1000000 needs modulus 2000000, above cap"),
    # a sweep that would be empty
    (["suite", "soundness", "--grid", "0"], "angle grid pi/0 is empty"),
    (["suite", "invariants", "--grid", "-4"], "angle grid pi/-4 is empty"),
    (["suite", "soundness", "--max-arity", "-1"], "max arity -1 is negative"),
    (["suite", "soundness", "--random", "-5"], "random draw count -5 is negative"),
    (["witness", "supnec", "--p", "-3"], "p must be >= 2, got -3"),
    # a sweep too large to finish
    (["suite", "soundness", "--max-arity", "1024"], "max arity 1024 above sweep cap 6"),
    (["suite", "invariants", "--max-arity", "12"], "max arity 12 above sweep cap 6"),
    (["suite", "soundness", "--grid", "1000", "--max-arity", "0"],
     "sweep of 16024032 instances above cap 200000"),
    (["suite", "invariants", "--grid", "2000", "--max-arity", "0"],
     "sweep of 64048032 instances above cap 200000"),
    (["suite", "soundness", "--random", "1000000", "--max-arity", "0"],
     "sweep of 12000384 instances above cap 200000"),
])
def test_oversized_flags_exit_two_before_any_grid_or_field(argv, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid or field was built")

    for module, name in ((rules, "ruleset_schemas"), (rules, "_angle_grid"),
                         (witness, "sqrt_two"), (witness, "lift_modulus"),
                         (witness, "membership_solve")):
        monkeypatch.setattr(module, name, refuse)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("name, value", [
    ("ZXEXACT_TOLERANCE", "abc"), ("ZXEXACT_MAX_RANK", "x"), ("ZXEXACT_SEED", "x"),
    ("ZXEXACT_MAX_RANK", "1.5"),
])
def test_malformed_env_var_exits_two(name, value, monkeypatch, capsys):
    monkeypatch.setenv(name, value)
    assert run(["rule", "list"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ") and repr(value) in err
    assert err.count("\n") == 1


SUP3_AT_FLOAT_ANGLE = ["rule", "check", "SUPn", "--bind", "n=3", "--bind", "alpha=float:0.3"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_tolerance_that_is_not_finite_positive_exits_two(tol, monkeypatch, capsys):
    # below float rounding the sound rule fails; nan or inf must not pass it
    assert run(SUP3_AT_FLOAT_ANGLE + ["--tol", "1e-300"]) == 1
    capsys.readouterr()
    assert run(SUP3_AT_FLOAT_ANGLE + [f"--tol={tol}"]) == 2
    assert capsys.readouterr().err == "error: tolerance must be a finite positive number\n"
    monkeypatch.setenv("ZXEXACT_TOLERANCE", tol)
    assert run(SUP3_AT_FLOAT_ANGLE) == 2


def test_missing_file_exits_two():
    assert run(["interpret", "/nonexistent/file.zx"]) == 2


@pytest.mark.parametrize("command", [["interpret"], ["invariant"], ["derive", "check"]])
@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_unreadable_path_exits_two_naming_it(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"nodes": "\xff"}')
    assert run(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("literal", ["x/y", "", " 1/2", "1/2 ", "1/2/3", "+1/2", "1/-2",
                                     "\u0661/2"])
def test_bad_phase_literal_exits_two_naming_it(tmp_path, capsys, literal):
    script = _bundled("sup4_from_sup2.json")
    script["steps"][0]["bindings"]["alpha"] = literal
    diagram = {"inputs": [], "outputs": [], "edges": [],
               "nodes": [{"id": "g", "kind": "Z", "phase": literal}]}
    named = f"bad phase literal {literal!r}"
    for argv, obj in ((["derive", "check"], script), (["interpret"], diagram)):
        path = tmp_path / f"{argv[0]}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err and str(path) in err
    assert run(["rule", "check", "K2", "--bind", f"alpha={literal}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


@pytest.mark.parametrize("literal", ["1_0", "+1", " 1", "\u0661"])
def test_bind_value_that_is_no_integer_or_phase_literal_exits_two(capsys, literal):
    assert run(["rule", "check", "K2", "--bind", f"alpha={literal}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"bad phase literal {literal!r}" in err


@pytest.mark.parametrize("args, backend, instance", [
    (["SUPn", "--bind", "n=3", "--bind", "alpha=3"], "exact", "SUPn[alpha=1/1,n=3]-"),
    (["K2", "--bind", "alpha=3"], "exact", "K2[alpha=1/1]-"),
    (["K2", "--bind", "alpha=-1/4"], "exact", "K2[alpha=7/4]-"),
    (["K2", "--bind", "alpha=float:0.3"], "float", "K2[alpha=0.300000]-"),
])
def test_bind_values_keep_their_reports(capsys, args, backend, instance):
    assert run(["rule", "check"] + args + ["--json"]) == 0
    assert capsys.readouterr().out == (
        f'{{"backend": "{backend}", "instance": "{instance}", "schema": "1", '
        f'"status": "sound", "witness": null}}\n')


@pytest.mark.parametrize("n, message", [("1/2", "binding n='1/2' must be an integer"),
                                        ("+3", "binding n='+3' must be an integer"),
                                        ("0", "binding n=0 below floor 1")])
def test_arity_binding_that_is_no_integer_is_named_as_such(capsys, n, message):
    assert run(["rule", "check", "SUPn", "--bind", f"n={n}", "--bind", "alpha=0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_rule_list_and_show(capsys):
    assert run(["rule", "list"]) == 0
    assert "SUPn" in capsys.readouterr().out
    assert run(["rule", "show", "SUP"]) == 0
    assert "supplementarity" in capsys.readouterr().out
    assert run(["rule", "show", "NOPE"]) == 2


def test_rule_check_sound(capsys):
    assert run(["rule", "check", "SUPn", "--bind", "n=3", "--bind", "alpha=1/3"]) == 0
    assert "sound" in capsys.readouterr().out


def test_rule_check_bad_binding():
    assert run(["rule", "check", "SUPn", "--bind", "n=0", "--bind", "alpha=0"]) == 2


def test_suite_soundness_json_deterministic(capsys):
    args = ["suite", "soundness", "--ruleset", "ZX_E", "--max-arity", "1",
            "--grid", "2", "--random", "5", "--seed", "3", "--json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "1" and payload["all_pass"] is True


def test_suite_invariants(capsys):
    assert run(["suite", "invariants", "--ruleset", "ZX", "--max-arity", "1",
                "--grid", "2"]) == 0
    out = capsys.readouterr().out
    assert "RULE ZO -> not preserving" in out


def test_derive_check_bundled(tmp_path, capsys):
    data = resources.files("zxexact.data").joinpath("sup4_from_sup2.json").read_text("utf-8")
    path = tmp_path / "script.json"
    path.write_text(data, encoding="utf-8")
    assert run(["derive", "check", str(path), "--paranoid"]) == 0
    assert "accepted" in capsys.readouterr().out


def test_derive_check_rejected(tmp_path, capsys):
    data = json.loads(resources.files("zxexact.data")
                      .joinpath("iv_from_zxe.json").read_text("utf-8"))
    data["ruleset"] = "ZX"  # the E steps are not ZX rules
    path = tmp_path / "script.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["derive", "check", str(path)]) == 1
    assert "rejected at 0" in capsys.readouterr().out


def test_witness_commands(capsys):
    assert run(["witness", "prop1"]) == 0
    capsys.readouterr()
    assert run(["witness", "sqrt2", "--k", "3,4"]) == 0
    capsys.readouterr()
    assert run(["witness", "supnec", "--p", "2"]) == 1
    out = capsys.readouterr().out
    assert "inapplicable" in out


def test_witness_json_schema(capsys):
    assert run(["witness", "prop1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "1" and payload["verdict"] == "pass"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "zxexact.cli", "rule", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "S1" in proc.stdout



# -- flags in any position ------------------------------------------------------

K2_CHECK = ["rule", "check", "K2", "--bind", "alpha=3"]
# plans within rank 16, not within rank 5
S1_WIDE = ["rule", "check", "S1", "--bind", "alpha=1/4", "--bind", "beta=3/4",
           "--bind", "a_in=3", "--bind", "b_out=3"]


def _outcome(capsys, argv: list[str]) -> tuple:
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("flag, codes", [
    (["--json"], (0, 0, 0)),
    # the float-angle SUP_3 is unsound only below float rounding
    (["--tolerance", "1e-300"], (0, 1, 0)),
    (["--tol=1e-300"], (0, 1, 0)),
    (["--max-rank", "5"], (0, 0, 1)),
    (["--max-rank", "2"], (2, 2, 2)),
])
def test_common_flag_means_the_same_before_and_after_the_subcommand(capsys, flag, codes):
    for command, code in zip((K2_CHECK, SUP3_AT_FLOAT_ANGLE, S1_WIDE), codes):
        after = _outcome(capsys, command + flag)
        assert after[0] == code
        assert _outcome(capsys, flag + command) == after
        assert _outcome(capsys, command[:1] + flag + command[1:]) == after
    if flag == ["--json"]:
        assert json.loads(after[1])["status"] == "sound"


def test_rule_check_takes_options_before_the_rule_name(capsys):
    want = _outcome(capsys, K2_CHECK + ["--json"])
    assert want[0] == 0 and json.loads(want[1])["instance"] == "K2[alpha=1/1]-"
    for argv in (["rule", "check", "--json", "K2", "--bind", "alpha=3"],
                 ["rule", "check", "--bind", "alpha=3", "--json", "K2"],
                 ["--json", "rule", "check", "K2", "--bind", "alpha=3"]):
        assert _outcome(capsys, argv) == want
    assert _outcome(capsys, ["rule", "show", "--json", "SUP"])[0] == 0


@pytest.mark.parametrize("value", ["\u0661\u0662", "1_2", "+3", "3.0"])
@pytest.mark.parametrize("argv", [
    ["witness", "sqrt2", "--k", "{}"], ["witness", "sqrt2", "--k", "4,{}"],
    ["witness", "supnec", "--p", "{}"], ["suite", "soundness", "--grid", "{}"],
    ["suite", "invariants", "--max-arity", "{}"], ["suite", "soundness", "--random", "{}"],
    ["suite", "soundness", "--seed", "{}"], ["rule", "list", "--max-rank", "{}"],
    ["--max-rank", "{}", "rule", "list"],
])
def test_integer_flag_takes_only_ascii_digits(capsys, argv, value):
    assert run([a.format(value) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --") and f"not an integer: {value!r}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["ZXEXACT_SEED", "ZXEXACT_MAX_RANK"])
@pytest.mark.parametrize("value", ["\u0661\u0662", "1_2", "+3"])
def test_integer_env_var_takes_only_ascii_digits(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert run(["rule", "list"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("phase, message", [
    ("1/2", "H boxes carry no phase"), ({"bogus": 1}, "bad phase value {'bogus': 1}"),
])
def test_h_box_with_a_phase_exits_two(tmp_path, capsys, phase, message):
    node = {"id": "h", "kind": "H"}
    path = tmp_path / "h.zx"
    for extra, code in (({}, 0), ({"phase": phase}, 2)):
        path.write_text(json.dumps({"inputs": ["i"], "outputs": ["o"], "nodes": [{**node, **extra}],
                                    "edges": [["i", "h"], ["h", "o"]]}))
        assert run(["interpret", str(path)]) == code
    out = capsys.readouterr()
    assert out.err == f"error: {path}: malformed diagram: {message}\n"


@pytest.mark.parametrize("change, message", [
    # the second node of one id used to replace the first
    (lambda d: d["nodes"].append({"id": "n", "kind": "X", "phase": "0"}),
     "node id 'n' appears twice"),
    # a misspelt key used to leave phase 0
    (lambda d: d["nodes"][0].update(phse="1"), "a node has an unknown key 'phse'"),
    (lambda d: d.update(extra=1), "a diagram has an unknown key 'extra'"),
], ids=["repeated-id", "node-key", "diagram-key"])
def test_ambiguous_diagram_file_exits_two(tmp_path, capsys, change, message):
    diagram = {"inputs": ["i"], "outputs": ["o"], "nodes": [{"id": "n", "kind": "Z", "phase": "1"}],
               "edges": [["i", "n"], ["n", "o"]]}
    path = tmp_path / "d.zx"
    path.write_text(json.dumps(diagram))
    assert run(["interpret", str(path)]) == 0
    capsys.readouterr()
    change(diagram)
    path.write_text(json.dumps(diagram))
    assert run(["interpret", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: malformed diagram: {message}\n"


@pytest.mark.parametrize("where, message", [
    ([], "a script has an unknown key 'extra'"),
    (["steps", 0], "a step has an unknown key 'extra'"),
    (["steps", 0, "variant"], "a step's variant has an unknown key 'extra'"),
    (["steps", 0, "match"], "a step's match has an unknown key 'extra'"),
    (["initial"], "a diagram has an unknown key 'extra'"),
], ids=["script", "step", "variant", "match", "initial"])
def test_unknown_script_key_exits_two(tmp_path, capsys, where, message):
    script = _bundled("sup4_from_sup2.json")
    assert "schema" in script  # the bundled scripts carry it, and it is accepted
    _at(script, where)["extra"] = 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(script))
    assert run(["derive", "check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: malformed script: {message}\n"
