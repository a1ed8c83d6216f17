"""The exact kernel's generic step (``_ExactRing.contract``, one bigint
multiply per output row and shared pattern) against the per-entry product
loop that the float backend keeps (``_products``), each entry reduced and the
result brought to lowest terms (``FieldLayout.reduce_in_lowest_terms``): the
same denominator, entries and bound.  Operands are drawn at M = 8, 24 and 312
in 32- or 64-bit fields, with negative coefficients, all-zero rows and
columns, a single free pattern on either side, and bounds that sum with the
shared axes exactly to the fields' limit."""

import importlib

from hypothesis import given, settings
from hypothesis import strategies as st

from zxexact.diagram import Z, NodeKind, PiRational

interp = importlib.import_module("zxexact.interpret")


def _value(data, n: int, bits: int) -> list[int]:
    """The coefficients of a value whose norm is at most 2^bits: zero, one
    coefficient of +-2^bits (products of these fill a field to the limit),
    or a few of either sign."""
    kind = data.draw(st.sampled_from(("zero", "extreme", "spread")), label="value")
    coeffs = [0] * n
    if kind == "extreme":
        k = data.draw(st.integers(0, n - 1), label="field")
        coeffs[k] = data.draw(st.sampled_from((1, -1)), label="sign") << bits
    elif kind == "spread":
        budget = 1 << bits
        for k in data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="fields"):
            c = data.draw(st.integers(-budget, budget), label="coefficient")
            coeffs[k] += c
            budget -= abs(c)
    return coeffs


def _tensor(data, axes: list[str], free: list[str], bits: int, fields):
    """A packed tensor over ``axes`` bounded by 2^bits, maybe with the entries
    of its first free pattern (a row) or of its first shared pattern (a
    column) all zero."""
    coeffs = [_value(data, fields.n, bits) for _ in range(1 << len(axes))]
    zero_row, zero_col = data.draw(st.booleans(), label="zero row"), data.draw(
        st.booleans(), label="zero column")
    shared = [a for a in axes if a not in free]
    for offsets, zero in ((interp._offsets(axes, shared), zero_row),
                          (interp._offsets(axes, free), zero_col)):
        if zero:  # every entry with the other axes at 0
            for o in offsets:
                coeffs[o] = [0] * fields.n
    den = 1 << data.draw(st.integers(0, 20), label="den exponent")  # 2^40: past a field
    return interp._Tensor(den, [fields.encode(c) for c in coeffs], bits, fields)


@given(st.sampled_from((8, 24, 312)), st.sampled_from((32, 64)), st.data())
@settings(max_examples=300, deadline=None)
def test_row_kernel_is_the_product_loop(M, width, data):
    ring = interp._exact_ring(M)
    fields = ring.fields(width - 10)
    assert fields.width == width
    n_free1 = data.draw(st.integers(0, 3), label="free axes of t1")
    n_free2 = data.draw(st.integers(0, 3), label="free axes of t2")
    n_shared = data.draw(st.integers(0, 3 if M < 312 else 2), label="shared axes")
    free1, free2 = [f"a{k}" for k in range(n_free1)], [f"b{k}" for k in range(n_free2)]
    shared = [f"s{k}" for k in range(n_shared)]
    bits1 = data.draw(st.integers(0, fields.limit - n_shared), label="bound of t1")
    bits2 = fields.limit - n_shared - bits1  # the bounds and shared axes sum to the limit
    axes1 = data.draw(st.permutations(free1 + shared))
    axes2 = data.draw(st.permutations(shared + free2))
    t1, t2 = _tensor(data, axes1, free1, bits1, fields), _tensor(data, axes2, free2, bits2, fields)
    _, layout = interp._pair_layout(axes1, axes2)

    want = interp._products(t1.data, t2.data, *layout, 0)
    den, strip = fields.reduce_in_lowest_terms(want, t1.den * t2.den)
    got = ring.contract(t1, t2, layout)
    assert got.fields is fields  # no field was widened: the bound is at the limit
    # the bound is the sum less the 2s divided out, but never below 0 (a zero result)
    assert (got.den, got.data, got.bits) == (den, want, max(bits1 + bits2 + n_shared - strip, 0))


def test_a_row_that_reduces_to_zero_strips_as_the_product_loop_does():
    # X^12 + 1 = (X^4 + 1)(X^8 - X^4 + 1): at M = 24 the sum of two products
    # of these values is a non-zero int that reduces to 0, over a denominator
    # of 2^40, more 2s than a 32-bit field has bits
    ring = interp._exact_ring(24)
    fields = ring.leaf_fields
    a = fields.encode([1, 0, 0, 0, 1] + [0] * 7)
    b = fields.encode([1, 0, 0, 0, -1, 0, 0, 0, 1] + [0] * 3)
    t1 = interp._Tensor(1 << 20, [a, 0, a, 0], 1, fields)
    t2 = interp._Tensor(1 << 20, [b, b], 2, fields)
    _, layout = interp._pair_layout(["s", "a"], ["s"])
    want = interp._products(t1.data, t2.data, *layout, 0)
    den, strip = fields.reduce_in_lowest_terms(want, t1.den * t2.den)
    got = ring.contract(t1, t2, layout)
    assert got.data == want == [0, 0]
    assert (got.den, got.bits) == (den, max(1 + 2 + 1 - strip, 0))


def test_a_tensor_that_reduces_to_zero_is_zero_over_one():
    # entries that are non-zero sums reducing to 0 leave only each field's top
    # bit in the parity word: both reducers must still strip every 2 of the
    # denominator, and the bound must stay at 0 or more
    ring = interp._exact_ring(24)  # the row above, through ``contract``
    fields = ring.leaf_fields
    a = fields.encode([1, 0, 0, 0, 1] + [0] * 7)
    b = fields.encode([1, 0, 0, 0, -1, 0, 0, 0, 1] + [0] * 3)
    _, layout = interp._pair_layout(["s", "a"], ["s"])
    got = ring.contract(interp._Tensor(1 << 20, [a, 0, a, 0], 1, fields),
                        interp._Tensor(1 << 20, [b, b], 2, fields), layout)
    assert (got.data, got.den) == ([0, 0], 1) and got.bits >= 0
    # at M = 8, 1 + X^4 is 0 modulo X^4 + 1: alone, and as the Z step
    # (``contract_z``, u = X) of the entries 1 and X^3 over one shared leg
    ring = interp._exact_ring(8)
    fields = ring.leaf_fields
    data = [(1 << 4 * fields.width) + 1]
    assert fields.reduce_in_lowest_terms(data, 1 << 40) == (1, 40) and data == [0]
    z = interp._leaf_tensor(NodeKind(Z, PiRational(1, 4)), 1, ring)
    t = interp._Tensor(1 << 40, [fields.encode([1, 0, 0, 0]), fields.encode([0, 0, 0, 1])], 0,
                       fields)
    got = ring.contract_z(z, t, interp._pair_layout(["s"], ["s"])[1], True)
    assert (got.data, got.den) == ([0], 1) and got.bits >= 0
