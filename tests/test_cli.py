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
    (["suite", "soundness", "--max-arity", "100000"], "max arity 100000 above cap 1024"),
    (["suite", "invariants", "--max-arity", "1025"], "max arity 1025 above cap 1024"),
    (["witness", "sqrt2", "--k", "4,1000000"], "k=1000000 needs modulus 2000000, above cap"),
    # a sweep that would be empty
    (["suite", "soundness", "--grid", "0"], "angle grid pi/0 is empty"),
    (["suite", "invariants", "--grid", "-4"], "angle grid pi/-4 is empty"),
    (["suite", "soundness", "--max-arity", "-1"], "max arity -1 is negative"),
    (["suite", "soundness", "--random", "-5"], "random draw count -5 is negative"),
    (["witness", "supnec", "--p", "-3"], "p must be >= 2, got -3"),
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
