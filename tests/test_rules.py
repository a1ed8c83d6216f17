"""Rule catalogue, instantiation, soundness sweeps, invariant preservation."""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxexact.diagram import NodeKind, PiRational, X
from zxexact.interpret import (
    EXACT, FLOAT, ResourceLimitError, interpret, invariant_r, matrix_compare,
)
from zxexact.rules import (
    DERIVED_IMPORTED, RULESETS, RuleError, RuleInstance, catalogue,
    check_equation, check_soundness, get_schema, instantiate, invariant_preservation_check,
    ruleset_schemas, soundness_suite,
)

from helpers import random_diagram

rules_module = importlib.import_module("zxexact.rules")


def test_catalogue_contents():
    names = {s.name for s in catalogue()}
    assert {"S1", "S2", "S3", "IV", "B1", "B2", "K1", "K2", "EU", "H", "ZO",
            "SUP", "E", "SUPn", "HL", "L51", "L52", "GB"} == names
    assert get_schema("K1").origin == "axiom-fig1"
    assert "K1" not in RULESETS["ZX_cyclo"]
    assert get_schema("SUPn").origin == "schema"
    for name in DERIVED_IMPORTED:
        assert get_schema(name).origin == "derived-imported"


def test_rulesets():
    assert "E" in RULESETS["ZX_E"] and "IV" not in RULESETS["ZX_E"]
    assert "ZO" not in RULESETS["ZX_E"]
    assert set(RULESETS["ZX"]) >= {"IV", "ZO", "SUP"}
    with pytest.raises(RuleError):
        ruleset_schemas("nope")
    with pytest.raises(RuleError):
        get_schema("nope")


def test_sup_is_supn_at_two():
    a = instantiate("SUP", {"alpha": PiRational(1, 4)})
    b = instantiate("SUPn", {"n": 2, "alpha": PiRational(1, 4)})
    assert a.lhs.nodes == b.lhs.nodes and sorted(a.lhs.edges) == sorted(b.lhs.edges)
    assert a.rhs.nodes == b.rhs.nodes and sorted(a.rhs.edges) == sorted(b.rhs.edges)


def test_e_shape():
    inst = instantiate("E", {})
    assert (inst.lhs.n_inputs, inst.lhs.n_outputs) == (0, 0)
    assert len(inst.lhs.nodes) == 2 and len(inst.lhs.edges) == 1
    assert not inst.rhs.nodes


def test_supn_instantiation_example():
    inst = instantiate("SUPn", {"n": 3, "alpha": PiRational(0)})
    phases = sorted(str(inst.lhs.nodes[f"t{k}"].phase) for k in range(3))
    assert phases == ["0/1", "2/3", "4/3"]
    assert inst.rhs.nodes["tm"].phase == PiRational(0)  # 3*0 + 2pi
    assert inst.rhs.edge_multiplicity("tm", "x") == 3


def test_s1_merged_phase():
    inst = instantiate("S1", {"alpha": PiRational(1, 4), "beta": PiRational(1, 4),
                              "wires": 2, "a_in": 1, "a_out": 0,
                              "b_in": 0, "b_out": 1})
    assert inst.rhs.nodes["m"].phase == PiRational(1, 2)
    assert check_soundness(inst).sound


def test_eu_color_swap_variant():
    inst = instantiate("EU", {}, color_swap=True)
    assert inst.lhs.nodes["h"].kind == "H"
    assert inst.rhs.nodes["zt"].kind == X
    assert check_soundness(inst).sound


def test_binding_errors():
    with pytest.raises(RuleError):
        instantiate("SUPn", {"n": 0, "alpha": PiRational(0)})
    with pytest.raises(RuleError):
        instantiate("K2", {})
    with pytest.raises(RuleError):
        instantiate("S2", {"bogus": 1})


def test_corrupted_rule_detected():
    good = instantiate("S1", {"alpha": PiRational(1, 4), "beta": PiRational(1, 2),
                              "wires": 1})
    bad_rhs = good.rhs.copy()
    from zxexact.diagram import zspider
    bad_rhs.nodes["m"] = zspider(PiRational(7, 4))  # alpha + beta + pi
    corrupted = RuleInstance("S1", good.bindings, False, False, good.lhs, bad_rhs)
    res = check_soundness(corrupted)
    assert not res.sound and res.witness is not None


def test_soundness_suite_small():
    rep = soundness_suite("ZX", max_arity=2, grid_den=2, n_random=4, seed=1)
    assert rep.all_pass and rep.entries
    keys = [(e.key, e.backend) for e in rep.entries]
    assert keys == sorted(keys)
    js = rep.to_json()
    assert js["schema"] == "1" and js["all_pass"] is True


def test_soundness_suite_deterministic():
    a = soundness_suite("ZX_E", max_arity=1, grid_den=2, n_random=6, seed=9).to_json()
    b = soundness_suite("ZX_E", max_arity=1, grid_den=2, n_random=6, seed=9).to_json()
    assert a == b


def test_derived_rules_sound_on_grids():
    for name in DERIVED_IMPORTED:
        schema = get_schema(name)
        for arities in schema.arity_grid(3):
            bindings = dict(arities)
            for p in schema.angle_params:
                bindings[p] = PiRational(5, 4)
            for swap in (False, True):
                for flip in (False, True):
                    inst = instantiate(schema, bindings, swap, flip)
                    assert check_soundness(inst).sound, inst.key()


@pytest.mark.parametrize("kwargs, message", [
    ({"grid_den": 0}, "angle grid pi/0 is empty"),
    ({"grid_den": -2}, "angle grid pi/-2 is empty"),
    ({"max_arity": -1}, "max arity -1 is negative"),
])
def test_empty_sweeps_are_refused(kwargs, message):
    with pytest.raises(RuleError, match=message):
        soundness_suite("ZX", **kwargs)
    with pytest.raises(RuleError, match=message):
        invariant_preservation_check("ZX", **kwargs)
    with pytest.raises(RuleError, match="random draw count -5 is negative"):
        soundness_suite("ZX", n_random=-5)


@pytest.mark.parametrize("max_arity", [rules_module.MAX_SWEEP_ARITY + 1, 12, 1024])
def test_sweeps_past_the_sweep_cap_are_refused_before_any_grid(max_arity, monkeypatch):
    # S1 alone has 5,460 arity layouts at 12; at 1,024 they would fill memory
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(rules_module, "ruleset_schemas", refuse)
    monkeypatch.setattr(rules_module, "_angle_grid", refuse)
    message = f"max arity {max_arity} above sweep cap {rules_module.MAX_SWEEP_ARITY}"
    with pytest.raises(RuleError, match=message):
        soundness_suite("ZX", max_arity=max_arity, n_random=3)
    with pytest.raises(RuleError, match=message):
        invariant_preservation_check("ZX_cyclo", max_arity=max_arity)
    rules_module._check_grids(rules_module.MAX_SWEEP_ARITY, 4)  # the cap itself is swept


def test_invariant_preservation_zx():
    report = {e.rule: e.preserving for e in invariant_preservation_check(
        "ZX", max_arity=2, grid_den=2)}
    assert report["ZO"] is False
    assert all(v for rule, v in report.items() if rule != "ZO")


def test_invariant_preservation_zxe_flags_e():
    report = {e.rule: e.preserving for e in invariant_preservation_check(
        "ZX_E", max_arity=1, grid_den=2)}
    assert report["E"] is False
    assert all(v for rule, v in report.items() if rule != "E")


def test_supn_preserves_invariant():
    for n in range(1, 6):
        inst = instantiate("SUPn", {"n": n, "alpha": PiRational(1, 4)})
        assert invariant_r(inst.lhs) == invariant_r(inst.rhs)


def test_derived_rules_preserve_invariant():
    for name in DERIVED_IMPORTED:
        schema = get_schema(name)
        for arities in schema.arity_grid(3):
            bindings = dict(arities)
            for p in schema.angle_params:
                bindings[p] = PiRational(1, 4)
            inst = instantiate(schema, bindings)
            assert invariant_r(inst.lhs) == invariant_r(inst.rhs), name


def test_props56_semantic_instances():
    # endpoint equalities of the divisibility propositions at small (p, q),
    # with angles chosen so alpha/p stays in the fragment
    for p, q in ((3, 2), (5, 2), (3, 4)):
        beta = PiRational(1, 4)
        alpha = beta * p
        for n in (q, p * q):
            inst = instantiate("SUPn", {"n": n, "alpha": alpha})
            assert check_soundness(inst).sound
        inst = instantiate("SUPn", {"n": p, "alpha": beta})
        assert check_soundness(inst).sound


def test_variant_instance_keys():
    inst = instantiate("SUP", {"alpha": PiRational(1, 2)}, True, True)
    assert inst.key().endswith("SF")


def test_derived_imported_is_read_off_the_catalogue():
    by_origin = tuple(s.name for s in catalogue() if s.origin == "derived-imported")
    assert DERIVED_IMPORTED == by_origin == ("HL", "L51", "L52", "GB")


@pytest.mark.parametrize("names, message", [
    ([], "the schema selection is empty"),
    (["S2", "nope"], "unknown rule 'nope'"),
    (["S2", "SUPn"], "rule 'SUPn' is not in ruleset 'ZX'"),
])
def test_suite_refuses_a_selection_that_checks_nothing_it_names(monkeypatch, names, message):
    def refuse(*args):
        raise AssertionError("an instance was built")
    monkeypatch.setattr(rules_module, "_instances", refuse)
    with pytest.raises(RuleError, match=message):
        soundness_suite("ZX", schema_names=names)


def _perturbed(d, rng):
    """``d`` with one spider's phase moved by a grid step, or ``d`` itself."""
    spiders = [n for n, kind in d.nodes.items() if kind.phase is not None]
    out = d.copy()
    if spiders and rng.random() < 0.7:
        n = rng.choice(spiders)
        out.nodes[n] = NodeKind(out.nodes[n].kind, out.nodes[n].phase + PiRational(1, 4))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([EXACT, FLOAT]))
def test_check_equation_is_interpret_then_compare(seed, backend):
    rng = random.Random(seed)
    if rng.random() < 0.3:  # a rule instance, whose sides are equal
        schema = rng.choice(catalogue())
        bindings = dict(rng.choice(schema.arity_grid(2)))
        bindings.update((p, PiRational(rng.randrange(8), 4)) for p in schema.angle_params)
        inst = instantiate(schema, bindings, rng.random() < 0.5, rng.random() < 0.5)
        lhs, rhs = inst.lhs, inst.rhs
    else:
        lhs = random_diagram(rng, max_nodes=5)
        rhs = _perturbed(lhs, rng)
    want = matrix_compare(interpret(lhs, backend=backend), interpret(rhs, backend=backend),
                          tol=1e-9)
    got = check_equation(lhs, rhs, backend, 1e-9)
    assert got == want and got.sound == got.equal == bool(got)
    assert (got.witness is None) == got.equal


def test_rank_cap_hits_are_skip_entries_in_a_whole_report():
    # at a cap of 2, S1's spiders of three or more legs are refused: each
    # refused instance is a SKIP entry carrying the cap's message, and the
    # report still holds every instance of the population
    s1 = get_schema("S1")
    report = soundness_suite("ZX", max_arity=2, grid_den=1, n_random=3, seed=1, max_rank=2,
                             schema_names=["S1"])
    assert len(report.entries) == len(s1.arity_grid(2)) * 2 ** len(s1.angle_params) * 4 + 3
    want = {}
    for inst in rules_module._instances(s1, 2, 1):
        try:
            sound = check_soundness(inst, max_rank=2).sound
            want[inst.key()] = ("PASS" if sound else "FAIL", None)
        except ResourceLimitError as exc:
            want[inst.key()] = ("SKIP", (0, 0, str(exc), ""))
    assert {e.key: (e.status, e.witness) for e in report.entries if e.backend == EXACT} == want
    skips = [e for e in report.entries if e.status == "SKIP"]
    assert skips and {e.witness[2] for e in skips} == {"node tensor rank 3 exceeds cap 2"}
    assert {e.status for e in report.entries} == {"PASS", "SKIP"}
    assert not report.all_pass and report.to_json()["all_pass"] is False
    assert [e["status"] for e in report.to_json()["entries"]] == [e.status for e in report.entries]
