"""Bundled derivation scripts: construction, data files, replay, mutations."""

import copy
from importlib import resources

import pytest

from zxexact.bundled import (
    BUNDLED_SCRIPTS, build_script, load_bundled, load_bundled_pair, write_data_files,
)
from zxexact.derive import check_derivation
from zxexact.diagram import PiRational
from zxexact.interpret import interpret, matrix_compare


@pytest.mark.parametrize("name", BUNDLED_SCRIPTS)
def test_data_files_match_builders(name):
    assert build_script(name).to_json() == load_bundled(name).to_json()


def test_data_files_regenerate_byte_for_byte(tmp_path):
    write_data_files(str(tmp_path))
    data = resources.files("zxexact.data")
    names = BUNDLED_SCRIPTS + ("thm2_d1_plug", "thm2_d2_plug")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.json" for n in names)
    for name in names:
        assert ((tmp_path / f"{name}.json").read_bytes()
                == data.joinpath(f"{name}.json").read_bytes()), name


@pytest.mark.parametrize("name", BUNDLED_SCRIPTS)
def test_bundled_scripts_accepted_paranoid(name):
    verdict = check_derivation(load_bundled(name), paranoid=True)
    assert verdict.accepted, (verdict.failed_step, verdict.reason)


def test_iv_ledger_flags_only_e_steps():
    script = load_bundled("iv_from_zxe")
    verdict = check_derivation(script)
    flagged = [(e.step, e.rule) for e in verdict.ledger if e.flagged]
    assert flagged and all(rule == "E" for _, rule in flagged)
    e_steps = [i for i, s in enumerate(script.steps) if s.rule == "E"]
    assert [i for i, _ in flagged] == e_steps


def test_zo_ledger_flags_exactly_e_steps():
    script = load_bundled("zo_from_zxe")
    verdict = check_derivation(script)
    flagged = {e.step for e in verdict.ledger if e.flagged}
    e_steps = {i for i, s in enumerate(script.steps) if s.rule == "E"}
    assert flagged == e_steps
    assert len(e_steps) % 2 == 1  # the zero rule flips the invariant once


def test_sup4_ledger_constant():
    verdict = check_derivation(load_bundled("sup4_from_sup2"))
    assert not any(e.flagged for e in verdict.ledger)


def test_thm2_pairs_agree():
    for name in ("thm2_d1_plug", "thm2_d2_plug"):
        plugged, reduced = load_bundled_pair(name)
        backend = "exact" if plugged.is_exact() and reduced.is_exact() else "float"
        assert matrix_compare(interpret(plugged, backend=backend),
                              interpret(reduced, backend=backend)).equal


# -- mutation controls: each defect is rejected at the correct step ----------------

def _mutate_binding(script):
    """Corrupt the phase binding of the first angle-carrying step."""
    bad = copy.deepcopy(script)
    for i, step in enumerate(bad.steps):
        for key, val in step.bindings.items():
            if isinstance(val, PiRational):
                step.bindings[key] = val + PiRational(1)
                return bad, i
    raise AssertionError("no angle binding to mutate")


def _mutate_embedding(script):
    """Point one node-map entry at the wrong host node."""
    bad = copy.deepcopy(script)
    for i, step in enumerate(bad.steps):
        nm = step.embedding.node_map
        if len(nm) >= 2:
            keys = sorted(nm)
            nm[keys[0]], nm[keys[1]] = nm[keys[1]], nm[keys[0]]
            return bad, i
    raise AssertionError("no embedding to mutate")


def _mutate_final_iso(script):
    bad = copy.deepcopy(script)
    if bad.final_iso:
        key = sorted(bad.final_iso)[0]
        others = [v for k, v in bad.final_iso.items() if k != key]
        bad.final_iso[key] = others[0] if others else key
    else:
        bad.final.nodes["ghost"] = bad.initial.nodes[sorted(bad.initial.nodes)[0]]
    return bad, "final"


@pytest.mark.parametrize("name", BUNDLED_SCRIPTS)
@pytest.mark.parametrize("mutate", [_mutate_binding, _mutate_embedding, _mutate_final_iso])
def test_mutated_scripts_rejected_at_the_right_step(name, mutate):
    script = load_bundled(name)
    bad, expected_step = mutate(script)
    verdict = check_derivation(bad, paranoid=True)
    assert not verdict.accepted
    assert verdict.failed_step == expected_step
