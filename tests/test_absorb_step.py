"""The exact kernel's absorb step (``absorb``) against the dense contraction
of the same pair (``contract_pair`` over the spider's entries, built here by
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
from zxexact.diagram import X, Z, NodeKind, PiRational, hbox
from zxexact.interpret import interpret, matrix_compare, plan_contraction
from zxexact.rules import instantiate

from helpers import contract_pair, path_sum

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
        leaf = interp._leaf_tensor(NodeKind(colour, phase), len(axes), ring)
        assert leaf.spider == colour
        (v0, v1), bits, fields, den, terms = leaf.data, leaf.bits, leaf.fields, leaf.den, leaf.terms
    else:
        (v0, v1), bits, fields, den = _packed(data, ring, 2, "spider values")
        terms = None
    return (interp._Tensor(den, (v0, v1), bits, fields, colour, terms),
            interp._Tensor(den, _spider_entries(colour, v0, v1, len(axes)), bits, fields))


def _exact_state(data, ring):
    """Two copies of a rank-1 tensor: a Z state (monomials), an X state, or
    drawn values."""
    kind = data.draw(st.sampled_from((Z, X, None)), label="state")
    if kind is None:
        values, bits, fields, den = _packed(data, ring, 2, "state values")
        return [interp._Tensor(den, list(values), bits, fields) for _ in range(2)]
    phase = PiRational(data.draw(st.integers(0, ring.modulus - 1), label="state j") * 2,
                       ring.modulus)
    leaf = interp._leaf_tensor(NodeKind(kind, phase), 1, ring)
    return [interp._Tensor(leaf.den, leaf.data, leaf.bits, leaf.fields, None, leaf.terms)
            for _ in range(2)]


def _norms(t):
    return [sum(map(abs, t.fields.decode(v))) for v in t.data]


@given(st.sampled_from(MODULI), st.sampled_from((Z, X)), st.data())
@settings(max_examples=400, deadline=None)
def test_exact_absorb_is_the_dense_contraction(M, colour, data):
    ring = interp._exact_ring(M)
    axes, leg, state_first = _pair(data, colour)
    spider, dense = _exact_spider(data, ring, colour, axes)
    state, state_copy = _exact_state(data, ring)
    _, generic = contract_pair(ring, *((state_copy, [leg], dense, axes) if state_first
                                       else (dense, axes, state_copy, [leg])))
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
    assert max(_norms(fast)) <= 2 ** fast.bits and 0 <= fast.bits <= fast.fields.limit


@pytest.mark.parametrize("colour", [Z, X])
def test_absorb_widens_fields_that_the_bound_outgrows(colour):
    # spider values of norm 2^30 fill a 32-bit field's limit; an X state's
    # 1/sqrt2 binomial (norm 2) doubles them, so the result needs 64 bits
    ring = interp._exact_ring(24)
    fields = ring.fields(30)
    big = fields.encode([2 ** 30] + [0] * 11)
    spider = interp._Tensor(1, [big, -big], 30, fields, colour)
    state = interp._leaf_tensor(NodeKind(X, PiRational(0)), 1, ring)
    assert state.bits + spider.bits > fields.limit and fields.width == 32
    fast = ring.absorb(spider, state, 4)
    assert fast.fields.width == 64 and fast.spider == colour
    assert max(_norms(fast)) <= 2 ** fast.bits <= 2 ** fast.fields.limit


@pytest.mark.parametrize("colour", [Z, X])
def test_absorb_shifts_by_terms_in_fields_the_bound_widened(colour):
    # as above at M = 312, where the X state carries its terms: ``fit``
    # re-encodes both operands in 64-bit fields and the terms, kept by field
    # index, still give the dense contraction's values
    ring = interp._exact_ring(312)
    fields = ring.fields(30)
    big = fields.encode([2 ** 30, -(2 ** 29)] + [0] * 154)
    spider = interp._Tensor(1, [big, -big], 30, fields, colour)
    state = interp._leaf_tensor(NodeKind(X, PiRational(1, 156)), 1, ring)
    assert state.terms is not None and state.bits + spider.bits > fields.limit
    fast = ring.absorb(spider, state, 4)
    _, dense = contract_pair(
        ring, interp._Tensor(1, _spider_entries(colour, big, -big, 3), 30, fields),
        ["a0", "a1", "a2"], interp._Tensor(state.den, state.data, state.bits, state.fields), ["a0"])
    assert fast.fields.width == 64 and fast.den == dense.den
    assert ([fast.fields.decode(v) for v in _spider_entries(colour, *fast.data, 2)]
            == [dense.fields.decode(v) for v in dense.data])


def _dense_only(ring):
    """Patch ``ring`` so that every absorb step contracts the spider's dense
    entries instead."""
    def absorb(s, x, size):
        legs = size.bit_length()
        dense = interp._Tensor(s.den, _spider_entries(s.spider, *s.data, legs), s.bits, s.fields)
        return contract_pair(ring, dense, [f"a{k}" for k in range(legs)],
                             interp._Tensor(x.den, x.data, x.bits, x.fields), ["a0"])[1]
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
    # absorbs every state, runs one ``_products`` per planned step and builds
    # or expands no exact leaf
    lhs = instantiate("SUPn", {"n": 13, "alpha": PiRational(1, 12)}, swap).lhs
    exact_only = [mock.patch.object(interp, name, wraps=getattr(interp, name))
                  for name in ("_absorb", "_dense", "_spider_tensor_fresh")]
    with exact_only[0] as absorb, exact_only[1] as dense, exact_only[2] as fresh, \
            mock.patch.object(interp, "_products", wraps=interp._products) as products:
        interpret(lhs, "float")
        assert absorb.call_count == dense.call_count == fresh.call_count == 0
        assert products.call_count == len(plan_contraction(lhs).steps)
        interpret(lhs)
    assert absorb.call_count >= 13 and dense.call_count > 0


# -- products by a leaf value as shifts ---------------------------------------------


def _leaf_value(data, ring):
    """A packed leaf value in the ring's leaf fields: a Z or X state's value,
    an H box's entry, or an X state's value before its factors of 2 are
    divided out, whose coefficients can be +-2."""
    source = data.draw(st.sampled_from(("Z state", "X state", "H entry", "unstripped")))
    phase = PiRational(data.draw(st.integers(0, ring.modulus - 1), label="j") * 2, ring.modulus)
    if source == "unstripped":
        sign = data.draw(st.sampled_from((1, -1)), label="sign")
        return ring.leaf_fields.reduce(ring.inv_sqrt2_pow(1)[1] * (1 + sign * ring.phase(phase)))
    kind = hbox() if source == "H entry" else NodeKind(source[0], phase)
    values = interp._leaf_tensor(kind, 2 if source == "H entry" else 1, ring).data
    return data.draw(st.sampled_from(values), label="value")


@given(st.sampled_from((8, 24, 104, 312)), st.sampled_from((32, 64)), st.data())
@settings(max_examples=300, deadline=None)
def test_shift_product_is_the_multiply(M, width, data):
    # ``_times`` by a leaf value's terms is the same int as the bigint
    # multiply, in 32- or 64-bit fields, for dense multiplicands whose fields
    # take both signs: an unreduced product, as ``absorb`` sums it
    ring = interp._exact_ring(M)
    fields = ring.fields(width - 2 - 8)
    assert fields.width == width
    value = _leaf_value(data, ring)
    terms = interp._leaf_terms(ring.leaf_fields, value)
    coeffs = ring.leaf_fields.decode(value)
    assert len(terms) <= 4 and all(abs(c) <= 2 for _, c in terms)  # () for a zero value
    assert all(coeffs[k] == c for k, c in terms) and sum(map(bool, coeffs)) == len(terms)
    b = fields.encode(coeffs)
    bound = 2 ** (width - 2 - 8)
    a = fields.encode(data.draw(st.lists(st.integers(-bound, bound), min_size=M // 2,
                                         max_size=M // 2), label="multiplicand"))
    assert interp._times(a, terms, width) == a * b == interp._times(a, b, width)


def test_leaf_values_with_a_coefficient_two_have_terms_of_two():
    ring = interp._exact_ring(104)
    value = ring.leaf_fields.reduce(ring.inv_sqrt2_pow(1)[1] * (1 + ring.phase(PiRational(1, 2))))
    assert sorted(c for _, c in interp._leaf_terms(ring.leaf_fields, value)) == [2]


@pytest.mark.parametrize("flip", [False, True], ids=["state", "effect"])
@pytest.mark.parametrize("n", [5, 7, 11])
def test_colour_swapped_sup_n_shifts_and_is_its_path_sum(n, flip):
    # the swapped left side is a Z spider fed by X states (1 +- u)/sqrt2: at
    # M = 120, 168 and 264 every absorb step multiplies by their terms
    inst = instantiate("SUPn", {"n": n, "alpha": PiRational(1, 12)}, True, flip)
    assert interp.choose_modulus(inst.lhs) >= interp.SHIFT_PRODUCT_MODULUS
    for side in (inst.lhs, inst.rhs):
        with mock.patch.object(interp, "_times", wraps=interp._times) as times:
            exact = interpret(side)
        shifted = sum(not isinstance(call.args[1], int) for call in times.call_args_list)
        assert shifted >= (2 * n if side is inst.lhs else 0)
        expected = path_sum(side)
        assert exact.entries == expected
        assert all(abs(f - e.to_complex()) <= 1e-9 for row_f, row_e in
                   zip(interpret(side, "float").entries, expected) for f, e in zip(row_f, row_e))
