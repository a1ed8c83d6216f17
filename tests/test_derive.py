"""Embedding validation, step application, script checking, twin merging."""

import dataclasses
import json
import random

import pytest

from zxexact import rules
from zxexact.cli import run
from zxexact.diagram import (
    Diagram, PiRational, Z, make_generator, make_spider, tensor_product,
    xspider, zspider,
)
from zxexact.derive import (
    DerivationScript, DerivationStep, Embedding, HalfEdge, TwinError,
    apply_step, check_derivation, load_script, merge_twins,
    twin_local_equivalence, validate_embedding,
)
from zxexact.interpret import interpret, matrix_compare
from zxexact.rules import RuleError, instantiate
from zxexact.bundled import leg, load_bundled


def _s1_host():
    """Two adjacent Z spiders with one outer leg each."""
    d = Diagram()
    d.nodes["a"] = zspider(PiRational(1, 4))
    d.nodes["b"] = zspider(PiRational(1, 2))
    d.inputs, d.outputs = ("i0",), ("o0",)
    d.add_edge("i0", "a")
    d.add_edge("a", "b")
    d.add_edge("b", "o0")
    return d


def _s1_pattern():
    return instantiate("S1", {"alpha": PiRational(1, 4), "beta": PiRational(1, 2),
                              "wires": 1, "a_in": 1, "b_out": 1}).lhs


def _s1_embedding():
    return Embedding({"a": "a", "b": "b"},
                     {"i0": leg("a", "i0"), "o0": leg("b", "o0")})


def test_validate_embedding_ok():
    assert validate_embedding(_s1_host(), _s1_pattern(), _s1_embedding()) is None


def test_validate_degree_leak():
    host = _s1_host()
    host.nodes["c"] = zspider(PiRational(0))
    host.add_edge("a", "c")  # undeclared extra edge into the matched region
    reason = validate_embedding(host, _s1_pattern(), _s1_embedding())
    assert "degree leak" in reason


def test_validate_kind_mismatch():
    host = _s1_host()
    host.nodes["b"] = xspider(PiRational(1, 2))
    reason = validate_embedding(host, _s1_pattern(), _s1_embedding())
    assert "kind mismatch" in reason


def test_validate_phase_mismatch():
    host = _s1_host()
    host.nodes["b"] = zspider(PiRational(3, 2))
    reason = validate_embedding(host, _s1_pattern(), _s1_embedding())
    assert "phase mismatch" in reason


def test_validate_non_injective():
    host = _s1_host()
    emb = Embedding({"a": "a", "b": "a"}, _s1_embedding().boundary_map)
    assert "non-injective" in validate_embedding(host, _s1_pattern(), emb)


def test_validate_multiplicity_mismatch():
    pattern = instantiate("S1", {"alpha": PiRational(1, 4), "beta": PiRational(1, 2),
                                 "wires": 2, "a_in": 1, "b_out": 1}).lhs
    reason = validate_embedding(_s1_host(), pattern, _s1_embedding())
    assert "multiplicity mismatch" in reason


def test_validate_boundary_conflict():
    host = _s1_host()
    emb = Embedding({"a": "a", "b": "b"},
                    {"i0": leg("a", "i0"), "o0": leg("a", "i0")})
    reason = validate_embedding(host, _s1_pattern(), emb)
    assert reason is not None


def test_validate_boundary_into_region():
    host = _s1_host()
    emb = Embedding({"a": "a", "b": "b"},
                    {"i0": leg("i0", "a"), "o0": leg("b", "o0")})
    reason = validate_embedding(host, _s1_pattern(), emb)
    assert "matched region" in reason


def test_validate_missing_host_edge():
    host = _s1_host()
    emb = Embedding({"a": "a", "b": "b"},
                    {"i0": HalfEdge("a", "i0", 3, 1), "o0": leg("b", "o0")})
    reason = validate_embedding(host, _s1_pattern(), emb)
    assert "missing host edge" in reason


# -- step application ----------------------------------------------------------

def test_apply_e_on_scalar_component():
    host = tensor_product(make_generator("identity"), instantiate("E", {}).lhs)
    step = DerivationStep("E", "ltr", embedding=Embedding({"g": "g", "r": "r"}))
    out = apply_step(host, step)
    assert not out.nodes and out.edges == [("i0", "o0")]


def test_apply_s2_reverse_inserts_dot():
    host = make_generator("identity")
    step = DerivationStep("S2", "rtl", embedding=Embedding(
        {}, {"i0": leg("o0", "i0"), "o0": leg("i0", "o0")}))
    out = apply_step(host, step, step_index=4)
    assert len(out.nodes) == 1
    node = next(iter(out.nodes))
    assert out.nodes[node].kind == Z and out.degree(node) == 2
    assert matrix_compare(interpret(out), interpret(host)).equal


def test_apply_zo_breaks_wire():
    inst = instantiate("ZO", {})
    host = inst.lhs
    step = DerivationStep("ZO", "ltr", embedding=Embedding(
        {"zpi": "zpi"}, {"i0": leg("o0", "i0"), "o0": leg("i0", "o0")}))
    out = apply_step(host, step)
    assert out.matches_under(inst.rhs, {n: n.split(".", 1)[1] for n in out.nodes}) is None


def test_apply_direction_and_rule_errors():
    host = _s1_host()
    with pytest.raises(RuleError):
        apply_step(host, DerivationStep("S1", "up", {"alpha": PiRational(0)}))
    with pytest.raises(RuleError):
        apply_step(host, DerivationStep("NOPE", "ltr"))


def test_apply_rejects_bad_embedding():
    host = _s1_host()
    step = DerivationStep("S1", "ltr",
                          bindings={"alpha": PiRational(1, 4), "beta": PiRational(1, 2),
                                    "wires": 1, "a_in": 1, "b_out": 1},
                          embedding=Embedding({"a": "b", "b": "a"},
                                              _s1_embedding().boundary_map))
    with pytest.raises(RuleError):
        apply_step(host, step)


# -- scripts ---------------------------------------------------------------------

def _one_step_script():
    inst = instantiate("E", {})
    initial = tensor_product(make_generator("identity"), inst.lhs)
    step = DerivationStep("E", "ltr", embedding=Embedding({"g": "g", "r": "r"}))
    final = make_generator("identity")
    return DerivationScript("ZX_E", initial, [step], final, {})


def test_check_derivation_accepts():
    verdict = check_derivation(_one_step_script(), paranoid=True)
    assert verdict.accepted
    assert [e.flagged for e in verdict.ledger] == [False, True]
    assert verdict.ledger[1].rule == "E"


def test_check_derivation_rule_not_in_ruleset():
    script = _one_step_script()
    script.ruleset = "ZX"  # E is not a ZX rule
    verdict = check_derivation(script)
    assert not verdict.accepted and verdict.failed_step == 0
    assert "not available" in verdict.reason


def test_check_derivation_bad_final_iso():
    script = _one_step_script()
    script.final = make_spider(Z, PiRational(0), 1, 1)
    script.final_iso = {}
    verdict = check_derivation(script)
    assert not verdict.accepted and verdict.failed_step == "final"


def test_script_json_round_trip(tmp_path):
    script = _one_step_script()
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script.to_json()), encoding="utf-8")
    back = load_script(str(path))
    assert check_derivation(back, paranoid=True).accepted


def test_load_script_malformed(tmp_path):
    from zxexact.diagram import DiagramError
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DiagramError):
        load_script(str(path))


def _bundled_step_field(path, field, value):
    """Write the bundled sup4_from_sup2 script to ``path`` with one field of
    its first step (an S1 split, applied colour-swapped) replaced."""
    obj = load_bundled("sup4_from_sup2").to_json()
    target = obj["steps"][0]
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path.write_text(json.dumps(obj), encoding="utf-8")


@pytest.mark.parametrize("field, value, message", [
    (("variant", "swap"), "false", "variant.swap must be a boolean"),
    (("variant", "flip"), "no", "variant.flip must be a boolean"),
    (("variant", "swap"), 0, "variant.swap must be a boolean"),
    (("bindings", "alpha"), 0.25, "a binding must be a phase string"),
    (("bindings", "alpha"), True, "a binding must be a phase string"),
    (("bindings", "wires"), True, "a binding must be a phase string"),
    (("bindings", "wires"), None, "a binding must be a phase string"),
    (("dir",), "up", "dir must be"),
    (("dir",), 1, "dir must be"),
])
def test_script_step_fields_are_checked_not_coerced(tmp_path, capsys, field, value, message):
    from zxexact.cli import run
    from zxexact.diagram import DiagramError
    path = tmp_path / "script.json"
    _bundled_step_field(path, field, value)
    with pytest.raises(DiagramError, match=message):
        load_script(str(path))
    assert run(["derive", "check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_script_step_well_typed_fields_still_load(tmp_path):
    path = tmp_path / "script.json"
    _bundled_step_field(path, ("bindings", "alpha"), {"float": 0.0})
    step = load_script(str(path)).steps[0]
    assert step.bindings["alpha"] == 0.0 and step.color_swap is True
    _bundled_step_field(path, ("variant", "swap"), False)
    assert load_script(str(path)).steps[0].color_swap is False


@pytest.mark.parametrize("bindings", [
    {"alpha": True, "beta": PiRational(0), "wires": 1},
    {"alpha": PiRational(0), "beta": False, "wires": 1},
    {"alpha": PiRational(0), "beta": PiRational(0), "wires": True},
])
def test_instantiate_refuses_bool_bindings(bindings):
    with pytest.raises(RuleError):
        instantiate("S1", bindings)


# -- twins -------------------------------------------------------------------------

def _twin_host(n, alpha, neighbour_mult=1):
    d = Diagram()
    d.nodes["x"] = xspider(PiRational(1, 4))
    d.outputs = ("o0",)
    d.add_edge("x", "o0")
    for k in range(n):
        d.nodes[f"t{k}"] = zspider(alpha + PiRational(2 * k, n))
        for _ in range(neighbour_mult):
            d.add_edge(f"t{k}", "x")
    return d


def test_twin_step_without_count_is_rejected():
    script = load_bundled("sup4_from_sup2")
    i = next(k for k, step in enumerate(script.steps) if step.rule == "TWINS")
    del script.steps[i].bindings["n"]
    verdict = check_derivation(script)
    assert not verdict.accepted and verdict.failed_step == i
    assert "positive integer count" in verdict.reason


def test_merge_antiphase_twins():
    host = _twin_host(2, PiRational(1, 4))
    out = merge_twins(host, ["t0", "t1"], 2)
    merged = next(v for v in out.nodes if v.startswith("twins"))
    assert out.nodes[merged].phase == PiRational(3, 2)  # 2a + pi
    assert out.edge_multiplicity(merged, "x") == 2
    assert matrix_compare(interpret(host), interpret(out)).equal


def test_merge_three_twins_scalar():
    d = Diagram()
    for k in range(3):
        d.nodes[f"t{k}"] = zspider(PiRational(2 * k, 3))
    out = merge_twins(d, ["t0", "t1", "t2"], 3)
    merged = next(iter(out.nodes))
    assert out.nodes[merged].phase == PiRational(0)  # 3*0 + 2pi
    assert not out.edges


def test_merge_twins_rejections():
    host = _twin_host(2, PiRational(1, 4))
    host.nodes["t1"] = zspider(PiRational(1, 4) + PiRational(1, 2))
    with pytest.raises(TwinError, match="phase pattern"):
        merge_twins(host, ["t0", "t1"], 2)

    host = _twin_host(2, PiRational(1, 4))
    host.add_edge("t0", "x")  # unequal multiplicities
    with pytest.raises(TwinError, match="neighbourhood"):
        merge_twins(host, ["t0", "t1"], 2)

    host = _twin_host(2, PiRational(1, 4))
    host.add_edge("t0", "t1")
    with pytest.raises(TwinError, match="interconnected"):
        merge_twins(host, ["t0", "t1"], 2)

    host = _twin_host(2, PiRational(1, 4))
    host.nodes["t0"] = xspider(PiRational(1, 4))
    with pytest.raises(TwinError, match="colour"):
        merge_twins(host, ["t0", "t1"], 2)

    with pytest.raises(TwinError):
        merge_twins(_twin_host(2, PiRational(0)), ["t0", "t0"], 2)


def test_merge_twins_rejects_boundary_contact():
    d = _twin_host(2, PiRational(0))
    d.outputs = ("o0", "o1")
    d.add_edge("t0", "o1")
    with pytest.raises(TwinError, match="neighbourhood"):
        merge_twins(d, ["t0", "t1"], 2)


def test_single_twin_is_trivial():
    host = _twin_host(1, PiRational(1, 4))
    out = merge_twins(host, ["t0"], 1)
    assert matrix_compare(interpret(host), interpret(out)).equal


def test_twin_local_equivalence_random():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        alpha = PiRational(rng.randrange(8), 4)
        d = Diagram()
        neighbours = rng.randint(0, 3) if n > 1 else rng.randint(1, 3)
        mults = [rng.randint(1, 2) for _ in range(neighbours)]
        for j in range(neighbours):
            kind = xspider if rng.random() < 0.7 else zspider
            d.nodes[f"v{j}"] = kind(PiRational(rng.randrange(8), 4))
            for _ in range(rng.randint(0, 2)):
                port = f"o{len(d.outputs)}"
                d.outputs = d.outputs + (port,)
                d.add_edge(f"v{j}", port)
        for k in range(n):
            d.nodes[f"t{k}"] = zspider(alpha + PiRational(2 * k, n))
            for j in range(neighbours):
                for _ in range(mults[j]):
                    d.add_edge(f"t{k}", f"v{j}")
        assert twin_local_equivalence(d, [f"t{k}" for k in range(n)], n)
        out = merge_twins(d, [f"t{k}" for k in range(n)], n)
        assert matrix_compare(interpret(d), interpret(out)).equal


def _float_neighbour_twin_script():
    """Z(0) and Z(pi) twins on one X spider of float phase 0.3 that also
    carries an output: the twin merge is re-checked on the float backend."""
    d = Diagram()
    d.nodes["x"] = xspider(0.3)
    d.outputs = ("o0",)
    d.add_edge("x", "o0")
    for k, phase in enumerate((PiRational(0), PiRational(1))):
        d.nodes[f"t{k}"] = zspider(phase)
        d.add_edge(f"t{k}", "x")
    final = merge_twins(d, ["t0", "t1"], 2)
    step = DerivationStep("TWINS", bindings={"n": 2},
                          embedding=Embedding({"t0": "t0", "t1": "t1"}))
    return DerivationScript("ZX", d, [step], final, {v: v for v in final.nodes})


def test_twin_recheck_uses_the_given_tolerance(tmp_path, capsys):
    script = _float_neighbour_twin_script()
    assert check_derivation(script).accepted
    verdict = check_derivation(script, tol=1e-300)
    assert not verdict.accepted and verdict.failed_step == 0
    assert "semantic re-verification" in verdict.reason
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(script.to_json()), encoding="utf-8")
    assert run(["derive", "check", str(path)]) == 0
    assert run(["derive", "check", str(path), "--tol", "1e-300"]) == 1
    assert "rejected at 0" in capsys.readouterr().out


def _s2_round_trip_script():
    """A dot put on the wire into a 3-legged spider by S2, then taken off."""
    initial = make_spider(Z, PiRational(1, 4), 1, 2, "a")
    put = DerivationStep("S2", "rtl", embedding=Embedding(
        {}, {"i0": leg("a", "i0"), "o0": leg("i0", "a")}))
    take = DerivationStep("S2", "ltr", embedding=Embedding(
        {"u": "s0.u"}, {"i0": leg("s0.u", "i0"), "o0": leg("s0.u", "a")}))
    return DerivationScript("ZX", initial, [put, take], initial.copy(), {"a": "a"})


def test_paranoid_check_rejects_semantic_drift(monkeypatch):
    # a corrupted axiom: S2's dot rewrites to Z(pi), not to a plain wire
    def corrupt(b):
        return rules._build_s2(b)[0], make_spider(Z, PiRational(1), 1, 1, "u")
    monkeypatch.setitem(rules._BY_NAME, "S2",
                        dataclasses.replace(rules.get_schema("S2"), build=corrupt))
    script = DerivationScript("ZX", make_spider(Z, PiRational(0), 1, 1, "u"), [
        DerivationStep("S2", "ltr", embedding=Embedding(
            {"u": "u"}, {"i0": leg("u", "i0"), "o0": leg("u", "o0")}))],
        make_spider(Z, PiRational(1), 1, 1, "v"), {"s0.u": "v"})
    assert check_derivation(script).accepted
    verdict = check_derivation(script, paranoid=True)
    assert not verdict.accepted and verdict.failed_step == 0
    assert verdict.reason.startswith("semantic drift")


def test_paranoid_check_notes_each_diagram_over_the_rank_cap():
    verdict = check_derivation(_s2_round_trip_script(), paranoid=True, max_rank=2)
    assert verdict.accepted
    assert [n.split(":")[0] for n in verdict.paranoid_notes] == ["initial", "step 0", "step 1"]
    assert all("exceeds cap 2" in n for n in verdict.paranoid_notes)
    assert check_derivation(_s2_round_trip_script(), paranoid=True).paranoid_notes == []
