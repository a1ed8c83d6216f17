"""The exact kernel's absorb step (``absorb``) against the dense contraction
of the same pair (``_contract_pair`` over the spider's entries, built here by
popcount), its oracle: the same ring element over the same denominator, with
a bound that holds and fields widened when the bound needs it.  Spiders of 1
to 8 legs are drawn at M = 8, 24 and 312, COPY (Z) and PARITY (X), as leaves
or held by two values, with monomial (Z) and other states on either side;
SUP_n's left sides are run with and without absorb steps and against the
float backend, which runs no spider step."""

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxexact.cyclotomic import _norm_bits
from zxexact.diagram import X, Z, NodeKind, PiRational
from zxexact.interpret import interpret, matrix_compare, plan_contraction
from zxexact.rules import instantiate

interp = importlib.import_module("zxexact.interpret")

MODULI = (8, 24, 312)
# sparse values whose norms often sit on a power of two, so a bound one too
# small shows; large ones make a product outgrow 32-bit fields
COEFFS = (1, -1, 3, -2, 2 ** 29, -(2 ** 30))


def _spider_entries(colour, v0, v1, legs):
    """The dense entries of a COPY (Z) or PARITY (X) spider of two values."""
    size = 1 << legs
    if colour == Z:
        return [v0 if i == 0 else v1 if i == size - 1 else 0 for i in range(size)]
    return [v1 if bin(i).count("1") % 2 else v0 for i in range(size)]


def _pair(data, colour):
    """The spider's axes, its shared leg and whether the state comes first."""
    legs = data.draw(st.integers(1, 8), label="legs")
    axes = data.draw(st.permutations([f"a{k}" for k in range(legs)]))
    return axes, data.draw(st.sampled_from(axes), label="shared"), data.draw(st.booleans())


def _packed(data, ring, count, label):
    """``count`` sparse values in 32- or 64-bit fields, their bound and den."""
    n = ring.modulus // 2
    sparse = st.dictionaries(st.integers(0, n - 1), st.sampled_from(COEFFS), max_size=3)
    coeffs = [[terms.get(k, 0) for k in range(n)]
              for terms in data.draw(st.lists(sparse, min_size=count, max_size=count), label)]
    bits = max(map(_norm_bits, coeffs))
    wide = data.draw(st.booleans(), label=f"{label} in 64-bit fields")
    fields = ring.fields(max(bits, 32) if wide else bits)
    den = data.draw(st.sampled_from((1, 2, 8)), label=f"{label} den")
    return [fields.encode(c) for c in coeffs], bits, fields, den


def _exact_spider(data, ring, colour, axes):
    """(spider, its dense oracle): a leaf of a drawn phase, or drawn values."""
    if data.draw(st.booleans(), label="leaf"):
        phase = PiRational(data.draw(st.integers(0, ring.modulus - 1), label="j") * 2,
                           ring.modulus)
        den, (v0, v1), bits, fields, spider = interp._leaf_tensor(NodeKind(colour, phase),
                                                                  len(axes), ring)
        assert spider == colour
    else:
        (v0, v1), bits, fields, den = _packed(data, ring, 2, "spider values")
    return (interp._Tensor(axes, den, (v0, v1), bits, fields, colour),
            interp._Tensor(axes, den, _spider_entries(colour, v0, v1, len(axes)), bits, fields))


def _exact_state(data, ring, leg):
    """Two copies of a rank-1 tensor: a Z state (monomials), an X state, or
    drawn values."""
    kind = data.draw(st.sampled_from((Z, X, None)), label="state")
    if kind is None:
        values, bits, fields, den = _packed(data, ring, 2, "state values")
        return [interp._Tensor([leg], den, list(values), bits, fields) for _ in range(2)]
    phase = PiRational(data.draw(st.integers(0, ring.modulus - 1), label="state j") * 2,
                       ring.modulus)
    den, values, bits, fields, _ = interp._leaf_tensor(NodeKind(kind, phase), 1, ring)
    return [interp._Tensor([leg], den, values, bits, fields) for _ in range(2)]


def _norms(t):
    return [sum(map(abs, t.fields.decode(v))) for v in t.data]


@given(st.sampled_from(MODULI), st.sampled_from((Z, X)), st.data())
@settings(max_examples=400, deadline=None)
def test_exact_absorb_is_the_dense_contraction(M, colour, data):
    ring = interp._exact_ring(M)
    axes, leg, state_first = _pair(data, colour)
    spider, dense = _exact_spider(data, ring, colour, axes)
    state, state_copy = _exact_state(data, ring, leg)
    generic = interp._contract_pair(*((state_copy, dense) if state_first else (dense, state_copy)),
                                    ring)
    size = 1 << (len(axes) - 1)
    fast = ring.absorb(spider, state, size)
    # one leg fewer: two values from rank 2 on, the one sum at rank 0
    assert len(fast.data) == min(size, 2)
    assert fast.spider == (colour if size > 1 else None)
    entries = _spider_entries(colour, *fast.data, len(axes) - 1) if size > 1 else fast.data
    assert fast.den == generic.den
    assert ([fast.fields.decode(v) for v in entries]
            == [generic.fields.decode(v) for v in generic.data])
    if fast.fields is generic.fields:
        assert entries == generic.data
    # an all-zero result may strip its bound below 0
    assert max(_norms(fast)) <= 2 ** fast.bits and fast.bits <= fast.fields.limit


@pytest.mark.parametrize("colour", [Z, X])
def test_absorb_widens_fields_that_the_bound_outgrows(colour):
    # spider values of norm 2^30 fill a 32-bit field's limit; an X state's
    # 1/sqrt2 binomial (norm 2) doubles them, so the result needs 64 bits
    ring = interp._exact_ring(24)
    fields = ring.fields(30)
    big = fields.encode([2 ** 30] + [0] * 11)
    spider = interp._Tensor(None, 1, [big, -big], 30, fields, colour)
    state = interp._Tensor(None, *interp._leaf_tensor(NodeKind(X, PiRational(0)), 1, ring))
    assert state.bits + spider.bits > fields.limit and fields.width == 32
    fast = ring.absorb(spider, state, 4)
    assert fast.fields.width == 64 and fast.spider == colour
    assert max(_norms(fast)) <= 2 ** fast.bits <= 2 ** fast.fields.limit


def _dense_only(ring):
    """Patch ``ring`` so that every absorb step contracts the spider's dense
    entries instead."""
    def absorb(s, x, size):
        legs = size.bit_length()
        axes = [f"a{k}" for k in range(legs)]
        dense = interp._Tensor(axes, s.den, _spider_entries(s.spider, *s.data, legs),
                               s.bits, s.fields)
        return interp._contract_pair(dense, interp._Tensor(["a0"], x.den, x.data, x.bits,
                                                           x.fields), ring)
    return mock.patch.object(ring, "absorb", absorb)


@pytest.mark.parametrize("swap", [False, True], ids=["plain", "swapped"])
@pytest.mark.parametrize("n", [2, 5, 13])
def test_sup_n_left_sides_absorb_every_state(n, swap):
    # the left side is an (n + 1)-leg X spider (cut into 8-leg pieces) fed by
    # n one-legged Z spiders; colour-swapped, a Z spider fed by X states
    lhs = instantiate("SUPn", {"n": n, "alpha": PiRational(1, 12)}, swap).lhs
    ring = interp._exact_ring(interp.choose_modulus(lhs))
    with mock.patch.object(ring, "absorb", wraps=ring.absorb) as absorb:
        exact = interpret(lhs)
    assert absorb.call_count >= n
    with _dense_only(ring):
        dense = interpret(lhs)
    assert exact.entries == dense.entries
    if exact._kernel[2] is dense._kernel[2]:
        assert exact._kernel == dense._kernel
    assert matrix_compare(exact, interpret(lhs, "float"))


@pytest.mark.parametrize("swap", [False, True], ids=["plain", "swapped"])
def test_float_backend_runs_only_the_product_loop(swap):
    # the float backend is an oracle for the exact kernel's spider steps, so
    # it must not share them: SUP_13's left side, where the exact kernel
    # absorbs every state, runs one ``_products`` per planned step
    lhs = instantiate("SUPn", {"n": 13, "alpha": PiRational(1, 12)}, swap).lhs
    with mock.patch.object(interp, "_absorb", wraps=interp._absorb) as absorb, \
            mock.patch.object(interp, "_products", wraps=interp._products) as products:
        interpret(lhs, "float")
        assert absorb.call_count == 0
        assert products.call_count == len(plan_contraction(lhs).steps)
        interpret(lhs)
    assert absorb.call_count >= 13
