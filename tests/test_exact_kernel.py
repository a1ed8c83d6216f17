"""The exact contraction kernel against independent oracles at moduli beyond
8 (the float backend, matmul/kron functoriality, a long H-box chain), and
the size bounds of the module caches."""

import importlib
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zxexact import cyclotomic
from zxexact.diagram import (
    Diagram, PiRational, hbox, make_generator, sequential_compose, tensor_product,
    xspider, zspider,
)
from zxexact.interpret import interpret, matrix_compare, node_tensor

from helpers import random_diagram

# the package re-exports interpret() under the module's own name
interp = importlib.import_module("zxexact.interpret")

# phase denominators: moduli 8, 24 and 40, and their lcms when combined
DENS = (1, 2, 3, 4, 5, 6, 12)
seeds = st.integers(0, 2 ** 32 - 1)


def _diagram(seed: int, den: int, two_parts: bool) -> Diagram:
    """A random diagram (self-loops, H boxes and disconnected parts occur),
    optionally beside a second random diagram."""
    rng = random.Random(seed)
    d = random_diagram(rng, max_nodes=6, den=den, max_ports=4)
    if two_parts:
        d = tensor_product(d, random_diagram(rng, max_nodes=3, den=den, max_ports=2))
    return d


def _loop_and_h() -> Diagram:
    """A pi/5 Z spider with a self-loop, wired to an output through an H box,
    beside a scalar pi/3 X spider."""
    d = Diagram()
    d.nodes["z"] = zspider(PiRational(1, 5))
    d.nodes["h"] = hbox()
    d.nodes["x"] = xspider(PiRational(2, 3))
    d.outputs = ("o",)
    d.add_edge("z", "z")
    d.add_edge("z", "h")
    d.add_edge("h", "o")
    return d


def _max_gap(a, b) -> float:
    ca, cb = a.to_complex(), b.to_complex()
    return max(abs(x - y) for ra, rb in zip(ca, cb) for x, y in zip(ra, rb))


@given(seeds, st.sampled_from(DENS), st.booleans())
@settings(max_examples=150, deadline=None)
def test_exact_agrees_with_float(seed, den, two_parts):
    d = _diagram(seed, den, two_parts)
    assert _max_gap(interpret(d), interpret(d, backend="float")) < 1e-9


def test_exact_agrees_with_float_on_loop_and_h():
    d = _loop_and_h()
    exact = interpret(d)
    assert exact.modulus == 120
    assert _max_gap(exact, interpret(d, backend="float")) < 1e-9


@given(seeds, st.sampled_from(DENS), st.sampled_from(DENS))
@settings(max_examples=100, deadline=None)
@example(0, 5, 3)
def test_exact_functoriality(seed, den_a, den_b):
    rng = random.Random(seed)
    earlier = random_diagram(rng, max_nodes=5, den=den_a, max_ports=3)
    later = random_diagram(rng, max_nodes=5, den=den_b, n_inputs=earlier.n_outputs,
                           max_ports=3)
    a, b = interpret(earlier), interpret(later)
    assert matrix_compare(interpret(sequential_compose(later, earlier)), b.matmul(a)).equal
    assert matrix_compare(interpret(tensor_product(earlier, later)), a.kron(b)).equal


def test_chain_of_400_h_boxes_is_the_identity():
    d = Diagram()
    d.inputs, d.outputs = ("i",), ("o",)
    names = [f"h{k:03d}" for k in range(400)]
    for name in names:
        d.nodes[name] = hbox()
    for a, b in zip(["i"] + names, names + ["o"]):
        d.add_edge(a, b)
    assert interpret(d).entries == interpret(make_generator("identity")).entries


def test_contraction_keeps_one_denominator_in_lowest_terms():
    ring = interp._exact_ring(8)
    den, data = interp._hbox_tensor(ring)
    assert den == 2  # 1/sqrt2 = (z - z^3) / 2
    t = interp._Tensor(["a0", "a1"], data, den)
    for k in range(1, 400):
        t = interp._contract_pair(t, interp._Tensor([f"a{k}", f"a{k + 1}"], data, den),
                                  ring, 16)
        # k + 1 H boxes: the identity when k + 1 is even, H otherwise
        assert (t.den, list(t.data)) == ((1, [((0, 1),), None, None, ((0, 1),)])
                                         if k % 2 else (den, list(data)))


def test_module_caches_stay_bounded():
    # more distinct moduli than any modulus cache holds
    for k in range(1, cyclotomic.MODULUS_CACHE_SIZE + 3):
        state = node_tensor(zspider(PiRational(1, 4 * k)), 0, 1, modulus=8 * k)
        hash(state.entries[1][0])
    assert len(interp._RING_CACHE) <= interp.RING_CACHE_SIZE
    for cache in (cyclotomic.cyclotomic_polynomial, cyclotomic._phi_tail,
                  cyclotomic._hash_weights):
        assert cache.cache_info().currsize <= cyclotomic.MODULUS_CACHE_SIZE
    # more distinct leaf tensors than the tensor cache holds, at one modulus
    kinds = [spider(PiRational(num, 420)) for num in range(840)
             for spider in (zspider, xspider)]
    assert 3 * len(kinds) > interp.TENSOR_CACHE_SIZE
    for kind in kinds:
        for n_in in range(3):
            node_tensor(kind, n_in, 0, modulus=840)
    assert len(interp._TENSOR_CACHE) <= interp.TENSOR_CACHE_SIZE
