"""The exact kernel's Z step (``contract_z``) against the generic pairwise
contraction (``contract_pair``), its oracle: the same ring element over the
same denominator, with a bound that holds.  Pairs are drawn at M = 8, 24 and
312, with the Z leaf on either side, 0 to 2 free legs, with or without shared
axes, and operands in 32- or 64-bit fields; whole diagrams with port-to-port
wires and chain-cut spiders are run both ways.  A summed Z step whose operand
bound sits at the fields' limit is checked against the path sum.  The float
backend has no Z step."""

import functools
import importlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxexact.cyclotomic import _norm_bits
from zxexact.diagram import (
    X, Z, Diagram, NodeKind, PiRational, make_generator, make_spider, sequential_compose,
    tensor_product,
)
from zxexact.interpret import ResourceLimitError, interpret
from zxexact.rules import instantiate

from helpers import contract_pair, path_sum, random_diagram

interp = importlib.import_module("zxexact.interpret")

MODULI = (8, 24, 312)
# sparse values whose norms often sit on a power of two, so a bound one too
# small shows; all-even ones let a result strip a factor of 2
COEFFS = (1, -1, 3, -2, 2 ** 29, -(2 ** 30))

def _pair(data, M: int):
    """A Z leaf of a phase zeta_M^j and the axes of it and of another operand."""
    n_shared = data.draw(st.integers(0, 4), label="shared legs")
    n_free = data.draw(st.integers(0 if n_shared else 1, 2), label="free Z legs")
    n_other = data.draw(st.integers(0, 3), label="free legs of the other operand")
    shared = [f"s{k}" for k in range(n_shared)]
    z_axes = data.draw(st.permutations(shared + [f"z{k}" for k in range(n_free)]))
    other_axes = data.draw(st.permutations(shared + [f"o{k}" for k in range(n_other)]))
    j = data.draw(st.sampled_from((0, M // 2)) | st.integers(0, M - 1), label="j")
    return PiRational(2 * j, M), z_axes, other_axes, data.draw(st.booleans(), label="z first")


@given(st.sampled_from(MODULI), st.data())
@settings(max_examples=300, deadline=None)
def test_exact_z_step_is_the_generic_contraction(M, data):
    ring = interp._exact_ring(M)
    phase, z_axes, other_axes, z_first = _pair(data, M)
    z = interp._leaf_tensor(NodeKind(Z, phase), len(z_axes), ring)
    n = M // 2
    sparse = st.dictionaries(st.integers(0, n - 1), st.sampled_from(COEFFS), max_size=3)
    coeffs = [[terms.get(k, 0) for k in range(n)] for terms in data.draw(
        st.lists(sparse, min_size=1 << len(other_axes), max_size=1 << len(other_axes)))]
    bits = max(map(_norm_bits, coeffs))
    wide = data.draw(st.booleans(), label="64-bit fields")
    fields = ring.fields(max(bits, 32) if wide else bits)
    den = data.draw(st.sampled_from((1, 2, 8)), label="den")
    other = interp._Tensor(den, [fields.encode(c) for c in coeffs], bits, fields)
    axes, layout = interp._pair_layout(*((z_axes, other_axes) if z_first
                                         else (other_axes, z_axes)))
    dense = interp._dense(z, 1 << len(z_axes))
    generic_axes, generic = contract_pair(ring, *((dense, z_axes, other, other_axes) if z_first
                                                  else (other, other_axes, dense, z_axes)))
    fast = ring.contract_z(z, other, layout, z_first)
    assert axes == generic_axes and fast.den == generic.den
    assert ([fast.fields.decode(v) for v in fast.data]
            == [generic.fields.decode(v) for v in generic.data])
    if fast.fields is generic.fields:
        assert fast.data == generic.data
    norms = [sum(map(abs, fast.fields.decode(v))) for v in fast.data]
    assert max(norms) <= 2 ** fast.bits and 0 <= fast.bits <= fast.fields.limit


def _generic_only(ring):
    """Patch ``ring`` so that every Z step runs the generic loop instead, over
    the Z leaf's entries."""
    def contract_z(z, t, layout, z_first):
        b1, b2, sh1, sh2 = layout
        z = interp._dense(z, len(b1) * len(sh1) if z_first else len(b2) * len(sh2))
        t1, t2 = (z, t) if z_first else (t, z)
        return ring.contract(t1, t2, layout)
    return mock.patch.object(ring, "contract_z", contract_z)


def _assert_z_steps_change_nothing(d, max_rank: int = 16) -> None:
    exact = interpret(d, max_rank=max_rank)
    with _generic_only(interp._exact_ring(exact.modulus)):
        assert interpret(d, max_rank=max_rank).entries == exact.entries


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((4, 12, 156)), st.sampled_from((Z, X)),
       st.integers(0, 6), st.integers(1, 6), st.sampled_from((4, 6, 16)))
@settings(max_examples=80, deadline=None)
def test_interpret_with_z_steps_matches_the_generic_loop(seed, den, colour, n_in, n_out,
                                                          max_rank):
    # a spider of more legs than max(3, min(8, max_rank)) is cut into a chain
    # whose later pieces have phase 0; the identity beside the composite is a
    # port-to-port wire
    rng = random.Random(seed)
    spider = make_spider(colour, PiRational(rng.randrange(2 * den), den), n_in, n_out)
    later = random_diagram(rng, max_nodes=5, den=den, n_inputs=n_out, max_ports=6)
    d = tensor_product(sequential_compose(later, spider), make_generator("identity"))
    try:
        _assert_z_steps_change_nothing(d, max_rank)
    except ResourceLimitError:
        pass


@pytest.mark.parametrize("n", [5, 9, 13])
def test_chain_cut_z_pieces_match_the_generic_loop(n):
    # colour-swapped, SUP_n's (n + 1)-leg X spider is a Z spider cut into
    # phase-0 pieces of 8 legs, each met by one-legged X spiders
    alpha = PiRational(1, 12)
    _assert_z_steps_change_nothing(instantiate("SUPn", {"n": n, "alpha": alpha}, True).lhs)


def _closed_loop(alpha: PiRational) -> Diagram:
    """A phase-0 Z spider and a 7pi/4 X spider joined by two edges, each with an
    X state, and a Z spider of phase ``alpha`` on one more edge to each."""
    d = Diagram()
    d.nodes.update({"x0": NodeKind(Z, PiRational(0)), "x1": NodeKind(X, PiRational(7, 4)),
                    "s0": NodeKind(X, PiRational(1, 4)), "s1": NodeKind(X, PiRational(3, 4)),
                    "zz": NodeKind(Z, alpha)})
    for a, b in (("zz", "x0"), ("zz", "x1"), ("x0", "x1"), ("x0", "x1"), ("s0", "x0"),
                 ("s1", "x1")):
        d.add_edge(a, b)
    return d


@pytest.mark.parametrize("alpha", [PiRational(1, 4), PiRational(1, 12)], ids=["M=8", "M=24"])
def test_summed_z_step_refits_an_operand_at_the_limit(alpha, monkeypatch):
    # in 8-bit fields (limit 6) the rest of the loop is bounded at the limit
    # when "zz", the last leaf, sums its two slices: the Z step must recompute
    # that bound (``fit``) before it adds the slices
    monkeypatch.setattr(interp, "FIELD_WIDTH", 8)
    monkeypatch.setattr(interp, "_TENSOR_CACHE", {})  # leaves in 8-bit fields
    monkeypatch.setattr(interp, "_exact_ring", functools.lru_cache(None)(interp._ExactRing))
    refits, fit = [], interp._ExactRing.fit

    def spy(self, tensors, extra):
        if len(tensors) == 1:  # only a summed Z step fits one operand
            refits.append((tensors[0].bits, tensors[0].fields.limit, extra))
        return fit(self, tensors, extra)

    monkeypatch.setattr(interp._ExactRing, "fit", spy)
    d = _closed_loop(alpha)
    exact = interpret(d)
    assert exact.modulus == (8 if alpha.den == 4 else 24)
    assert refits == [(6, 6, 1)]
    assert exact.entries == path_sum(d)
