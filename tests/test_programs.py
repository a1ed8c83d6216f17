"""The program memo of ``interpret``: a diagram shape of three or more leaves
is planned once, and every later diagram of that shape runs the stored
plan and offset layouts.  Each test runs with the memo cold (nothing is
stored, so every call plans afresh) and warm (shapes seen before are read
back from the memo)."""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zxexact.cyclotomic import CycloScalar, root_of_unity
from zxexact.diagram import (
    Diagram, PiRational, scale_angles, transform_variant, xspider, zspider,
)
from zxexact.interpret import ResourceLimitError, interpret, plan_contraction
from zxexact.rules import RuleInstance, check_soundness, instantiate

from helpers import random_diagram

# the package re-exports interpret() under the module's own name
interp = importlib.import_module("zxexact.interpret")

VARIANTS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.fixture(params=["cold", "warm"])
def memo(request, monkeypatch):
    """A memo of this test's own: ``cold`` stores nothing, ``warm`` keeps
    every shape it plans."""
    cache: dict = {}
    monkeypatch.setattr(interp, "_PROGRAM_CACHE", cache)
    if request.param == "cold":
        monkeypatch.setattr(interp, "PROGRAM_CACHE_LEAVES", 0)
    return cache


def chain(k: int, phase=PiRational(1, 4)) -> Diagram:
    """``k`` spiders of alternating colour on one wire: k leaves."""
    d = Diagram()
    d.inputs, d.outputs = ("i",), ("o",)
    names = [f"n{j}" for j in range(k)]
    for j, name in enumerate(names):
        d.nodes[name] = (zspider if j % 2 else xspider)(phase)
    for a, b in zip(("i", *names), (*names, "o")):
        d.add_edge(a, b)
    return d


def leaf_axes(d: Diagram, max_rank: int = 16) -> list:
    return [axes for _, axes in interp._tensor_axes(d, max_rank)]


def max_gap(a, b) -> float:
    ca, cb = a.to_complex(), b.to_complex()
    return max(abs(x - y) for ra, rb in zip(ca, cb) for x, y in zip(ra, rb))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_diagram_twice_gives_one_kernel_that_float_agrees_with(memo, seed):
    d = random_diagram(random.Random(seed), max_nodes=8, den=4)
    first, again = interpret(d), interpret(d)
    assert first._kernel == again._kernel
    assert max_gap(first, interpret(d, backend="float")) < 1e-9
    plan = plan_contraction(d)
    want = interp._plan_greedy(leaf_axes(d), 16)
    assert (plan.steps, plan.peak_rank) == (want.steps, want.peak_rank)


def sup_oracle(n: int, alpha: Fraction, factor: int) -> bool:
    """SUP_n with every angle times f, decided apart from any diagram.

    Its left side is the state prod_k (1 + e^{i t_k}) |+> + prod_k (1 - e^{i t_k}) |->
    over sqrt2^n, with t_k = f (a + 2k pi/n); its right side (1 + e^{i r}) |+>
    + (1 + (-1)^n e^{i r}) |-> over sqrt2^n, with r = f (n a + (n-1) pi).  At
    f = 1 the |+> half is criterion 04's scalar identity."""
    phases = [factor * (alpha + Fraction(2 * k, n)) for k in range(n)]
    rhs = factor * (n * alpha + (n - 1))
    M = 8
    for ph in phases + [rhs]:
        M = math.lcm(M, 2 * ph.denominator)
    one = CycloScalar.one(M)

    def e(ph: Fraction) -> CycloScalar:
        return root_of_unity(ph.numerator, ph.denominator, M)

    for sign in (1, -1):
        prod = one
        for ph in phases:
            prod = prod * (one + e(ph).scale(sign))
        if prod != one + e(rhs).scale(sign ** n):
            return False
    return True


@pytest.mark.parametrize("n", [3, 7, 13])
def test_sup_n_of_one_shape_across_the_grid_matches_the_scalar_oracle(memo, n):
    verdicts = set()
    for factor in (1, n * n):
        for num in range(24):
            for swap, flip in VARIANTS:
                inst = instantiate("SUPn", {"n": n, "alpha": PiRational(num, 12)}, swap, flip)
                inst = RuleInstance(inst.schema, inst.bindings, swap, flip,
                                    scale_angles(inst.lhs, factor),
                                    scale_angles(inst.rhs, factor))
                sound = check_soundness(inst).sound
                assert sound == sup_oracle(n, Fraction(num, 12), factor), (factor, num, swap, flip)
                verdicts.add(sound)
    assert verdicts == {True, False}  # the scaled instances include unsound ones
    # one program per side and direction whatever the angle: a colour swap
    # keeps the axes, and a right side of n = 3 or 7 has two leaves
    assert len(memo) <= 4


def test_flipped_variant_gets_its_own_program(memo):
    up = instantiate("SUPn", {"n": 5, "alpha": PiRational(1, 12)}).lhs
    down = transform_variant(up, vertical_flip=True)
    assert leaf_axes(up) == leaf_axes(down) and len(leaf_axes(up)) >= 3
    assert (down.inputs, down.outputs) == (up.outputs, up.inputs)
    for _ in range(2):
        column, row = interpret(up), interpret(down)
        assert (column.rows, column.cols, row.rows, row.cols) == (2, 1, 1, 2)
        assert row.entries == [list(r) for r in zip(*column.entries)]
    assert len(memo) == (0 if interp.PROGRAM_CACHE_LEAVES == 0 else 2)


def test_shape_planned_within_the_cap_still_raises_under_a_lower_one(memo):
    # three spiders in a triangle, two ports each: the result has rank 6
    d = Diagram()
    d.outputs = tuple(f"o{k}" for k in range(6))
    for k, name in enumerate("abc"):
        d.nodes[name] = zspider(PiRational(k, 4))
        d.add_edge(name, f"o{2 * k}")
        d.add_edge(name, f"o{2 * k + 1}")
    for a, b in ("ab", "bc", "ca"):
        d.add_edge(a, b)
    assert len(leaf_axes(d, 4)) == 3
    for _ in range(2):
        assert interpret(d).rows == 64 and plan_contraction(d).peak_rank == 6
        with pytest.raises(ResourceLimitError):
            interpret(d, max_rank=4)
        with pytest.raises(ResourceLimitError):
            plan_contraction(d, max_rank=4)
    assert all(key[3] == 16 for key in memo)


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_more_shapes_than_the_bound_evict_the_oldest(monkeypatch, start):
    cache: dict = {}
    monkeypatch.setattr(interp, "_PROGRAM_CACHE", cache)
    monkeypatch.setattr(interp, "PROGRAM_CACHE_LEAVES", 20)
    if start == "warm":
        for k in (10, 11):
            interpret(chain(k))
        assert [len(key[0]) for key in cache] == [11]
    for k in range(3, 10):
        interpret(chain(k))
        assert sum(len(key[0]) for key in cache) <= 20
    assert [len(key[0]) for key in cache] == [8, 9]  # the newest that fit
    interpret(chain(25))  # more leaves than the bound: kept out, evicts nothing
    assert [len(key[0]) for key in cache] == [8, 9]
    searched = []
    plan_greedy = interp._plan_greedy
    monkeypatch.setattr(interp, "_plan_greedy", lambda *a: searched.append(a) or plan_greedy(*a))
    d = chain(9, PiRational(3, 4))  # a kept shape with other phases
    assert max_gap(interpret(d), interpret(d, backend="float")) < 1e-9
    assert searched == []  # read back, not planned again


def test_mutating_a_returned_plan_changes_no_later_plan(memo):
    d = chain(6)
    plan = plan_contraction(d)
    want = (list(plan.steps), plan.peak_rank)
    plan.steps.reverse()
    plan.steps.append((0, 0))
    plan.peak_rank = 0
    again = plan_contraction(d)
    assert (again.steps, again.peak_rank) == want and again.steps is not plan.steps
    assert max_gap(interpret(d), interpret(d, backend="float")) < 1e-9
