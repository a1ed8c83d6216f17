"""``interpret`` against the path sum of ``helpers.path_sum``, an oracle that
shares no code with it: not validation, axis naming (self-loops, the chain
cut, port-to-port wires), planning, programs, Z or absorb steps, nor the
packed kernel.  Exact matrices must be equal; float ones within 1e-9 of the
path sum's values.  Each diagram runs at rank caps 16, 4 and 3, which cut
wide spiders into chains of 8, 4 and 3 legs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxexact.diagram import X, Z, Diagram, NodeKind, PiRational, hbox
from zxexact.interpret import ResourceLimitError, interpret
from zxexact.rules import instantiate

from helpers import path_sum, random_diagram

MAX_RANKS = (16, 4, 3)


def _agrees(d: Diagram, max_rank: int) -> None:
    """``d``'s exact and float matrices at ``max_rank`` are its path sum,
    unless the plan passes the cap."""
    expected = path_sum(d)
    try:
        exact, flt = interpret(d, max_rank=max_rank), interpret(d, "float", max_rank=max_rank)
    except ResourceLimitError:
        return
    assert exact.entries == expected
    assert all(abs(a - b.to_complex()) <= 1e-9
               for row_f, row_e in zip(flt.entries, expected) for a, b in zip(row_f, row_e))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3, 4, 6, 12)),
       st.sampled_from(MAX_RANKS))
@settings(max_examples=200, deadline=None)
def test_random_diagrams_are_their_path_sum(seed, den, max_rank):
    d = random_diagram(random.Random(seed), max_nodes=6, den=den)
    _agrees(d, max_rank)


def _spider(data, name: str) -> NodeKind:
    return NodeKind(data.draw(st.sampled_from((Z, X)), label=f"{name} colour"),
                    PiRational(data.draw(st.integers(0, 23), label=f"{name} phase"), 12))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_wide_spiders_fed_by_states_are_their_path_sum(data):
    # one spider of up to 14 legs: one-legged states on most of them (an
    # absorb step each), some through an H box, then up to 3 ports, a
    # self-loop and two parallel wires to a second spider; at most 8
    # internal edges
    d = Diagram()
    d.nodes["w"] = _spider(data, "wide")
    loop, parallel = data.draw(st.booleans(), label="self-loop"), data.draw(st.booleans())
    budget = 8 - loop - 2 * parallel
    n_states = data.draw(st.integers(1, min(7, budget)), label="states")
    n_h = data.draw(st.integers(0, budget - n_states), label="H boxes")
    for s in range(n_states):
        d.nodes[f"s{s}"] = _spider(data, "state")
        if s < n_h:
            d.nodes[f"h{s}"] = hbox()
            d.add_edge(f"s{s}", f"h{s}")
            d.add_edge(f"h{s}", "w")
        else:
            d.add_edge(f"s{s}", "w")
    if loop:
        d.add_edge("w", "w")
    if parallel:
        d.nodes["v"] = _spider(data, "second")
        d.add_edge("w", "v")
        d.add_edge("w", "v")
    ports = [f"p{p}" for p in range(data.draw(st.integers(0, 3), label="ports"))]
    for p in ports:
        d.add_edge("w", p)
    cut = data.draw(st.integers(0, len(ports)), label="inputs")
    d.inputs, d.outputs = tuple(ports[:cut]), tuple(ports[cut:])
    if data.draw(st.booleans(), label="a port-to-port wire"):
        d.inputs += ("wi",)
        d.outputs += ("wo",)
        d.add_edge("wi", "wo")
    for max_rank in MAX_RANKS:
        _agrees(d, max_rank)


@pytest.mark.parametrize("swap", [False, True], ids=["plain", "swapped"])
@pytest.mark.parametrize("n", [3, 9, 11])
def test_sup_n_sides_are_their_path_sum(n, swap):
    inst = instantiate("SUPn", {"n": n, "alpha": PiRational(1, 12)}, swap)
    for side in (inst.lhs, inst.rhs):
        for max_rank in MAX_RANKS:
            _agrees(side, max_rank)
