"""Witness reports: invariant separation, membership, necessity, numerics."""

import cmath
import math

import pytest

from zxexact.diagram import normalize_float_phase
from zxexact.interpret import interpret, matrix_compare
from zxexact.witness import (
    Theorem2Constants, separation_status, theorem2_d1, theorem2_d2,
    witness_E_independence, witness_sqrt2, witness_sup_necessity,
    witness_theorem2,
)
from zxexact.rules import instantiate


def test_prop1_passes_with_controls():
    rep = witness_E_independence()
    assert rep.verdict == "pass"
    names = [c.name for c in rep.checks]
    assert any("scalar 1" in n for n in names)
    assert any("S2" in n for n in names) and any("ZO" in n for n in names)


def test_separation_classifications():
    assert separation_status(instantiate("E", {})) == "separated"
    assert separation_status(instantiate("S2", {})) == "not-separated"
    assert separation_status(instantiate("ZO", {})) == "lemma-inapplicable"


def test_sqrt2_witness_full_range():
    rep = witness_sqrt2(range(1, 13))
    assert rep.verdict == "pass" and len(rep.checks) == 12


def test_sqrt2_witness_rejects_bad_k():
    with pytest.raises(ValueError):
        witness_sqrt2([0])


def test_sup_necessity_p3():
    rep = witness_sup_necessity(3)
    assert rep.verdict == "pass"
    unsound = [c for c in rep.checks if "unsound" in c.name]
    assert unsound and unsound[0].passed
    assert "(2 | M=8)" in unsound[0].evidence and "1/2" in unsound[0].evidence


def test_sup_necessity_inapplicable_for_two():
    rep = witness_sup_necessity(2)
    assert rep.verdict == "inapplicable" and not rep.passed


def test_theorem2_constants():
    c = Theorem2Constants()
    assert 0 < c.alpha0 < math.pi / 2 and 0 < c.theta0 < math.pi / 2
    assert abs(c.alpha0 - 0.9553166181245093) < 1e-12
    # theta0 = pi/3 - alpha0 in closed form
    assert abs(c.theta0 - (math.pi / 3 - c.alpha0)) < 1e-12
    assert abs(c.quartic_at(cmath.exp(1j * c.alpha0))) < 1e-12


def test_quartic_at_eighth_root_fails():
    c = Theorem2Constants()
    z = cmath.exp(1j * math.pi / 4)
    assert abs(c.quartic_at(z) - 2j) < 1e-12  # |value| = 2, far from zero


def test_theorem2_passes():
    rep = witness_theorem2(tol=1e-9)
    assert rep.verdict == "pass"


def test_theorem2_sensitive_to_theta():
    c = Theorem2Constants()
    m1 = interpret(theorem2_d1(), backend="float")
    bad = theorem2_d2(normalize_float_phase(c.alpha0),
                      normalize_float_phase(c.theta0 + 1e-3))
    assert not matrix_compare(m1, interpret(bad, backend="float"), tol=1e-9).equal
