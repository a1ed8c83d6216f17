"""The exact contraction kernel against independent oracles (the float
backend, matmul/kron functoriality, a long H-box chain, itself at a larger
modulus): one packed kernel in Z[X]/(X^(M/2) + 1) at every modulus M.
Also the widening of packed fields, the kernel form kept by
``SemanticMatrix`` and the compare that reads it, and the size bounds of
the module caches."""

import functools
import importlib
import random
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zxexact import cyclotomic
from zxexact.cyclotomic import CycloScalar, FieldLayout, root_of_unity, sqrt_two
from zxexact.diagram import (
    X, Z, Diagram, NodeKind, PiRational, hbox, make_generator, make_spider, sequential_compose,
    tensor_product, xspider, zspider,
)
from zxexact.interpret import interpret, matrix_compare, node_tensor
from zxexact.rules import instantiate

from helpers import contract_pair, random_diagram

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


def _h_chain(length: int) -> Diagram:
    d = Diagram()
    d.inputs, d.outputs = ("i",), ("o",)
    names = [f"h{k:03d}" for k in range(length)]
    for name in names:
        d.nodes[name] = hbox()
    for a, b in zip(["i"] + names, names + ["o"]):
        d.add_edge(a, b)
    return d


def test_chain_of_400_h_boxes_is_the_identity():
    assert interpret(_h_chain(400)).entries == interpret(make_generator("identity")).entries


@given(seeds, st.sampled_from((1, 2, 4, 8)))
@settings(max_examples=100, deadline=None)
def test_packed_kernel_agrees_with_row_kernel(seed, den):
    d = random_diagram(random.Random(seed), max_nodes=6, den=den, max_ports=4)
    # beside a scalar 2pi/3 spider the product interprets at M = 24 or 48,
    # where the kernel's ring Z[X]/(X^(M/2) + 1) is larger than Z[zeta_M];
    # d alone interprets at M = 8 or 16, where the two are the same
    s = make_spider(Z, PiRational(2, 3), 0, 0)
    packed = interpret(d)
    assert packed.modulus in (8, 16)
    assert matrix_compare(interpret(tensor_product(d, s)), packed.kron(interpret(s))).equal


def _scalars(kind, count: int) -> Diagram:
    d = Diagram()
    for k in range(count):
        d.nodes[f"s{k:03d}"] = kind
    return d


def test_packed_kernel_widens_fields_for_wide_values():
    # each zero-legged spider is the scalar 1 + e^(i alpha); both products
    # have coefficients past 2^64, wider than the first fields
    assert interpret(_scalars(zspider(PiRational(0)), 130)).scalar() == \
        CycloScalar.from_rational(2 ** 130, 8)
    one_plus_zeta = CycloScalar.one(8) + root_of_unity(1, 4, 8)
    want = CycloScalar.one(8)
    for _ in range(90):
        want = want * one_plus_zeta
    assert max(map(abs, want.coeffs)) > 2 ** 64
    assert interpret(_scalars(zspider(PiRational(1, 4)), 90)).scalar() == want


def test_long_h_chain_recomputes_its_bound(monkeypatch):
    # the bound on a tensor's entries grows along the chain while the
    # values stay small: it is recomputed, and the narrowest fields suffice
    recomputed, widths = [], set()
    bits, fit = FieldLayout.bits, interp._ExactRing.fit

    def counting_bits(self, values):
        recomputed.append(len(values))
        return bits(self, values)

    def recording_fit(self, tensors, extra):
        out = fit(self, tensors, extra)
        widths.update(t.fields.width for t in out)
        return out

    monkeypatch.setattr(FieldLayout, "bits", counting_bits)
    monkeypatch.setattr(interp._ExactRing, "fit", recording_fit)
    assert interpret(_h_chain(200)).entries == interpret(make_generator("identity")).entries
    assert recomputed and widths == {interp.FIELD_WIDTH}


def test_fit_writes_nothing_into_the_shared_leaves(monkeypatch):
    # a step reads the cached leaves themselves; in 8-bit fields (limit 6) the
    # colour-swapped SUP_13's absorb steps ``fit`` cached states into wider
    # fields, which must make new tensors: every cached leaf keeps its den,
    # data, bits and fields, and two runs read the same leaf objects
    monkeypatch.setattr(interp, "FIELD_WIDTH", 8)
    monkeypatch.setattr(interp, "_TENSOR_CACHE", {})
    monkeypatch.setattr(interp, "_exact_ring", functools.lru_cache(None)(interp._ExactRing))
    d = instantiate("SUPn", {"n": 13, "alpha": PiRational(1, 12)}, True).lhs
    want = interpret(d).entries
    cache = {key: (t, t.den, t.data, t.bits, t.fields) for key, t in interp._TENSOR_CACHE.items()}
    fit, leaf_tensor, widened, runs = interp._ExactRing.fit, interp._leaf_tensor, [], []

    def recording_fit(self, tensors, extra):
        out = fit(self, tensors, extra)
        widened.extend(t for t, o in zip(tensors, out) if o.fields is not t.fields
                       and any(t is entry[0] for entry in cache.values()))
        return out

    monkeypatch.setattr(interp._ExactRing, "fit", recording_fit)
    monkeypatch.setattr(interp, "_leaf_tensor", lambda *args: runs[-1].append(leaf_tensor(*args))
                        or runs[-1][-1])
    for _ in range(2):
        runs.append([])
        assert interpret(d).entries == want
    assert widened and len(runs[0]) == len(runs[1]) > 13
    assert all(a is b for a, b in zip(*runs))
    assert {key: (t, t.den, t.data, t.bits, t.fields) for key, (t, *_) in cache.items()} == cache


def _values(t) -> list:
    return [t.fields.scalar(v, t.den) for v in t.data]


def test_contraction_keeps_one_denominator_in_lowest_terms():
    # at M = 8 the kernel's ring is Z[zeta_8]; at 24 and 312 it is larger
    # than the field, and the denominator must still strip
    for modulus in (8, 24, 312):
        ring = interp._exact_ring(modulus)
        one, zero = CycloScalar.one(modulus), CycloScalar.zero(modulus)
        s = sqrt_two(modulus).scale(Fraction(1, 2))
        h = interp._leaf_tensor(hbox(), 2, ring)
        assert h.den == 2  # 1/sqrt2 = (z^(M/8) - z^(3M/8)) / 2
        assert _values(h) == [s, s, s, -s]
        axes, t = ["a0", "a1"], h
        for k in range(1, 400):
            axes, t = contract_pair(ring, t, axes, h, [f"a{k}", f"a{k + 1}"])
            # k + 1 H boxes: the identity when k + 1 is even, H otherwise
            assert (t.den, _values(t)) == ((1, [one, zero, zero, one]) if k % 2
                                            else (2, [s, s, s, -s]))


@pytest.mark.parametrize("modulus", [8, 24])
def test_leaves_are_born_in_lowest_terms(modulus):
    # e.g. the degree-1, phase-0 X spider is sqrt2 |0>: 2 * (1/sqrt2) over
    # den 2 before the strip, the binomial over den 1 after it
    ring = interp._exact_ring(modulus)
    kinds = [(hbox(), 2)] + [(NodeKind(colour, PiRational(k, 4)), degree)
                             for colour in (Z, X) for k in range(8) for degree in range(7)]
    for kind, degree in kinds:
        leaf = interp._leaf_tensor(kind, degree, ring)
        assert leaf.den == 1 or any(c % 2 for v in leaf.data for c in leaf.fields.decode(v)), \
            (kind, degree)


@given(st.lists(st.integers(0, 99), min_size=1, max_size=16, unique=True), st.data())
@settings(max_examples=200, deadline=None)
def test_offsets_sum_the_strides_of_the_set_bits(names, data):
    axes = [f"a{n}" for n in names]
    subset = data.draw(st.permutations(axes))[:data.draw(st.integers(0, min(8, len(axes))))]
    table = interp._offsets(axes, subset)
    assert len(table) == 1 << len(subset)
    for i, offset in enumerate(table):
        assert offset == sum(2 ** (len(axes) - 1 - axes.index(a))
                             for bit, a in enumerate(reversed(subset)) if i >> bit & 1)


def test_compare_passes_on_kernel_form_without_scalars(monkeypatch):
    d = _diagram(7, 4, True)
    lhs, rhs = interpret(d), interpret(d)
    assert lhs.modulus == 8

    def refuse(*args, **kwargs):
        raise AssertionError("a CycloScalar was made")

    monkeypatch.setattr(CycloScalar, "_make", refuse)
    monkeypatch.setattr(CycloScalar, "__init__", refuse)
    again = interpret(d)
    assert matrix_compare(lhs, again).equal and matrix_compare(again, rhs).equal


@pytest.mark.parametrize("lhs, rhs, witness", [
    (make_spider(Z, PiRational(1, 3), 1, 1), make_spider(Z, PiRational(2, 3), 1, 1),
     (1, 1, "(1*z^4 | M=24)", "(-1 + 1*z^4 | M=24)")),
    (make_generator("hbox"), make_generator("identity"),
     (0, 0, "(1/2*z + -1/2*z^3 | M=8)", "(1 | M=8)")),
    (make_spider(X, PiRational(1, 13), 1, 2), make_spider(X, PiRational(-1, 13), 1, 2),
     (0, 0, "(1/4*z^13 + 1/4*z^17 + -1/4*z^39 + -1/4*z^43 | M=104)",
      "(1/4*z^9 + 1/4*z^13 + -1/4*z^35 + -1/4*z^39 | M=104)")),
])
def test_compare_failure_names_the_first_differing_entry(lhs, rhs, witness):
    # the witnesses of the per-entry compare, as written before matrices
    # kept their kernel form
    assert matrix_compare(interpret(lhs), interpret(rhs)).witness == witness


def test_semantic_matrix_compares_by_value_and_is_unhashable():
    d = _diagram(11, 3, False)
    lazy, built = interpret(d), interpret(d)
    plain = interp.SemanticMatrix([list(row) for row in built.entries], built.n_inputs,
                                  built.m_outputs, built.backend, built.modulus)
    assert lazy == plain and plain == lazy and lazy == built
    assert lazy != interpret(d, backend="float") and lazy != "matrix"
    for m in (lazy, plain):
        with pytest.raises(TypeError):
            hash(m)
    assert repr(plain) == repr(lazy) and repr(plain).startswith("SemanticMatrix(entries=[[")


def test_module_caches_stay_bounded():
    # more distinct moduli than any modulus cache holds
    for k in range(1, cyclotomic.MODULUS_CACHE_SIZE + 3):
        state = node_tensor(zspider(PiRational(1, 4 * k)), 0, 1, modulus=8 * k)
        hash(state.entries[1][0])
    for cache in (interp._exact_ring, cyclotomic.cyclotomic_polynomial, cyclotomic._phi_tail,
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
