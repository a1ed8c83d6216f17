"""Exact cyclotomic arithmetic: polynomials, field ops, membership."""

import cmath
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxexact.cyclotomic import (
    MAX_MODULUS, CycloScalar, FieldLayout, ModulusError, _norm_bits, cyclotomic_polynomial,
    euler_phi, lift_modulus, membership_solve, root_exponent, root_of_unity, sqrt_two,
)
from zxexact.diagram import PiRational
from zxexact.interpret import _exact_ring

from helpers import cyclotomic_polynomial_reference

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    4: (1, 0, 1),
    8: (1, 0, 0, 0, 1),          # X^4 + 1
    12: (1, 0, -1, 0, 1),        # X^4 - X^2 + 1
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
}


def test_cyclotomic_polynomial_known_values():
    for m, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_cyclotomic_polynomial_degree_and_roots():
    for m in (8, 16, 24, 40, 104):
        poly = cyclotomic_polynomial(m)
        assert len(poly) - 1 == euler_phi(m)
        assert poly[-1] == 1
        for j in range(1, m):
            if math.gcd(j, m) == 1:
                z = cmath.exp(2j * cmath.pi * j / m)
                val = sum(c * z ** i for i, c in enumerate(poly))
                assert abs(val) < 1e-6


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(ModulusError):
        cyclotomic_polynomial(0)


def test_zeta_products_reduce():
    z = CycloScalar.zeta_power(8, 1)
    z3 = CycloScalar.zeta_power(8, 3)
    assert z * z3 == CycloScalar.from_rational(-1, 8)
    assert (z * z3).canonical() == (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))


def test_additive_inverse():
    a = CycloScalar(8, {1: Fraction(3, 2), 3: Fraction(-1)})
    assert (a + (-a)).is_zero()


def test_sqrt_two_squares_to_two():
    for m in (8, 16, 24, 40, 104, 624):
        s = sqrt_two(m)
        assert s * s == CycloScalar.from_rational(2, m)


def test_root_of_unity():
    assert root_of_unity(1, 4, 8) == CycloScalar.zeta_power(8, 1)
    assert root_of_unity(1, 1, 8) == CycloScalar.from_rational(-1, 8)
    w = root_of_unity(2, 3, 24)
    assert w == CycloScalar.zeta_power(24, 8)
    assert w * w * w == CycloScalar.one(24)
    with pytest.raises(ModulusError):
        root_of_unity(1, 3, 8)


def test_lift_modulus():
    assert lift_modulus(CycloScalar.zeta_power(8, 1), 24) == CycloScalar.zeta_power(24, 3)
    a = CycloScalar.zeta_power(8, 1) + CycloScalar.from_rational(Fraction(1, 3), 8)
    assert lift_modulus(lift_modulus(a, 16), 48) == lift_modulus(a, 48)
    assert lift_modulus(sqrt_two(8), 24) == sqrt_two(24)
    with pytest.raises(ModulusError):
        lift_modulus(a, 12)


def test_lifting_past_the_modulus_cap_raises_at_once():
    # a lift, and so a sum, product or comparison across moduli, is refused
    # above the cap before any field of that modulus is built
    one = CycloScalar.one(8)
    a, b = CycloScalar.one(8 * 4099), CycloScalar.one(8 * 4111)  # lcm 134,807,912
    built = cyclotomic_polynomial.cache_info().misses
    with pytest.raises(ModulusError, match="^modulus 8000000 exceeds cap 65536$"):
        lift_modulus(one, 8_000_000)
    for op in (operator.add, operator.mul, operator.eq):
        with pytest.raises(ModulusError, match="^modulus 134807912 exceeds cap 65536$"):
            op(a, b)
    with pytest.raises(ModulusError, match="exceeds cap"):
        CycloScalar(8_000_000)
    assert cyclotomic_polynomial.cache_info().misses == built
    assert lift_modulus(one, MAX_MODULUS) == CycloScalar.one(MAX_MODULUS)


def test_membership_sqrt2_criterion():
    for k in range(1, 13):
        K = 2 * k
        M = math.lcm(8, K)
        coords = membership_solve(lift_modulus(sqrt_two(8), M), K)
        assert (coords is not None) == (k % 4 == 0), k


def test_membership_coordinates_at_k4():
    # sqrt2 = zeta_8 + zeta_8^(-1) = zeta_8 - zeta_8^3
    coords = membership_solve(sqrt_two(8), 8)
    assert coords == [Fraction(0), Fraction(1), Fraction(0), Fraction(-1)]


def test_membership_requires_divisor():
    with pytest.raises(ModulusError):
        membership_solve(sqrt_two(8), 6)


@st.composite
def _tower_member_case(draw):
    """(M, K, x): 8 | M, K | M with every prime of M dividing K, and x half
    the time a combination of zeta_K powers, otherwise that plus one stray
    term z^e."""
    M = 8 * draw(st.integers(1, 15))
    primes = [p for p in range(2, M + 1) if M % p == 0 and all(p % q for q in range(2, p))]
    radical = math.prod(primes)
    K = draw(st.sampled_from([K for K in range(radical, M + 1, radical) if M % K == 0]))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    terms = draw(st.dictionaries(st.integers(0, K - 1), rational, max_size=5))
    x = CycloScalar(M, {j * (M // K): c for j, c in terms.items()})
    if draw(st.booleans()):
        x = x + CycloScalar(M, {draw(st.integers(0, M - 1)): draw(rational.filter(bool))})
    return M, K, x


@settings(max_examples=150, deadline=None)
@given(_tower_member_case())
def test_membership_matches_the_galois_fixed_field(case):
    M, K, x = case
    coords = membership_solve(x, K)
    # Q(zeta_K) is the fixed field of the sigma_a: z^i -> z^(a*i), a = 1 mod K
    fixed = all(CycloScalar(M, {a * i: Fraction(c, x.den) for i, c in enumerate(x.coeffs)}) == x
                for a in range(1, M, K) if math.gcd(a, M) == 1)
    assert (coords is not None) == fixed
    if coords is not None:
        total = CycloScalar.zero(M)
        for j, c in enumerate(coords):
            total = total + CycloScalar.zeta_power(M, j * (M // K)).scale(c)
        assert total == x


@pytest.mark.parametrize("K", [8, 3])
def test_membership_needs_every_prime_of_the_modulus(K):
    with pytest.raises(ModulusError):
        membership_solve(CycloScalar.one(24), K)


def _random_scalar(rng: random.Random, m: int) -> CycloScalar:
    terms = {rng.randrange(m): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(rng.randint(0, 4))}
    return CycloScalar(m, terms)


def test_field_axioms_spot_check():
    rng = random.Random(7)
    for m in (8, 16, 24, 40):
        for _ in range(200):
            a, b, c = (_random_scalar(rng, m) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_numeric_consistency():
    rng = random.Random(11)
    for m in (8, 24, 40):
        for _ in range(50):
            a = _random_scalar(rng, m)
            direct = a.to_complex()
            from_canonical = sum(
                complex(c) * cmath.exp(2j * cmath.pi * i / m)
                for i, c in enumerate(a.canonical()))
            assert abs(direct - from_canonical) < 1e-9


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_integer_embedding_is_a_ring_hom(x, y, z):
    def embed(v):
        return CycloScalar.from_rational(v, 8)

    assert embed(x) + embed(y) * embed(z) == embed(x + y * z)


ORACLE_MODULI = (8, 24, 40, 104, 312)


@st.composite
def _moduli_and_terms(draw):
    M = draw(st.sampled_from(ORACLE_MODULI))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    terms = st.dictionaries(st.integers(0, M - 1), coeff, max_size=5)
    return M, draw(terms), draw(terms)


def _evaluate(M, terms):
    """The value of a term dict, computed apart from CycloScalar."""
    return sum(complex(c) * cmath.exp(2j * cmath.pi * e / M) for e, c in terms.items())


@given(_moduli_and_terms())
@settings(max_examples=80, deadline=None)
def test_ops_agree_with_complex_oracle(case):
    M, ta, tb = case
    a, b = CycloScalar(M, ta), CycloScalar(M, tb)
    za, zb = _evaluate(M, ta), _evaluate(M, tb)
    assert abs(a.to_complex() - za) < 1e-9
    assert abs((a * b).to_complex() - za * zb) < 1e-9
    assert abs((a + b).to_complex() - (za + zb)) < 1e-9
    assert abs((-a).to_complex() + za) < 1e-9
    for x in (a, b, a * b, a + b, -a, a - a):
        assert bool(x) == (not x.is_zero())


def test_bool_is_exact():
    assert bool(CycloScalar(8, {1: 1, 5: 1})) is False
    assert bool(CycloScalar(8, {1: 1})) is True


def test_equal_values_hash_equal_across_moduli():
    for base in (sqrt_two(8), CycloScalar(8, {0: Fraction(1, 3), 1: 2, 3: -1}),
                 CycloScalar.zeta_power(8, 5) * sqrt_two(8).scale(Fraction(1, 2))):
        lifted = [lift_modulus(base, M) for M in (8, 16, 24, 48)]
        assert all(x == base for x in lifted)
        assert len({hash(x) for x in lifted}) == 1
        assert len(set(lifted)) == 1
    assert len({sqrt_two(M) for M in (8, 16, 24, 48)}) == 1


def test_scale_with_odd_denominator():
    a = sqrt_two(8).scale(Fraction(2, 3))
    assert a + a + a == sqrt_two(8) * CycloScalar.from_rational(2, 8)


def test_str_and_modulus_guard():
    assert "M=8" in str(CycloScalar.one(8))
    with pytest.raises(ModulusError):
        CycloScalar.zero(12)


def test_cyclotomic_polynomial_matches_dense_division():
    for m in range(1, 601):
        assert cyclotomic_polynomial(m) == cyclotomic_polynomial_reference(m), m


def test_cyclotomic_polynomial_large_moduli():
    # 7976 = 8 * 997 is the modulus of the phase pi/997:
    # Phi_7976(X) = Phi_997(-X^4) = sum over j < 997 of (-1)^j X^(4j)
    want = [0] * (4 * 996 + 1)
    want[::4] = [(-1) ** j for j in range(997)]
    assert cyclotomic_polynomial(7976) == tuple(want)
    for m in (2 * 3 * 5 * 7 * 11 * 13, 4096, 8 * 9973, 9240):
        poly = cyclotomic_polynomial(m)
        assert len(poly) - 1 == euler_phi(m)
        assert poly[0] == poly[-1] == 1


@given(_moduli_and_terms())
@settings(max_examples=80, deadline=None)
def test_rows_agree_with_scalar_ops(case):
    # sparse values at every oracle modulus, carried as a packed row of M/2
    # coefficients over a denominator, as the exact kernel carries them
    M, ta, tb = case
    a, b = CycloScalar(M, ta), CycloScalar(M, tb)
    fields = FieldLayout(M, 128)

    def to_row(x, den):
        coeffs = [c * (den // x.den) for c in x.coeffs]
        return fields.encode(coeffs + [0] * (fields.n - len(coeffs)))

    ra, rb = to_row(a, a.den), to_row(b, b.den)
    assert fields.scalar(ra, a.den) == a and fields.scalar(rb, b.den) == b
    # products and sums of two products stay within the fields
    assert fields.bits([ra]) + fields.bits([rb]) + 1 <= fields.limit
    product = fields.reduce(ra * rb)
    assert fields.scalar(product, a.den * b.den) == a * b
    assert fields.scalar(product, a.den * b.den).is_zero() == (a * b).is_zero()
    den = math.lcm(a.den, b.den)
    ra2, rb2 = to_row(a, den), to_row(b, den)
    assert fields.scalar(ra2 + rb2, den) == a + b
    rows = [ra2, rb2, 0]
    small, strip = fields.reduce_in_lowest_terms(rows, 6 * den)
    assert small * 2 ** strip == 6 * den
    assert [fields.scalar(r, small) for r in rows] == [a.scale(Fraction(1, 6)),
                                                       b.scale(Fraction(1, 6)),
                                                       CycloScalar.zero(M)]


@given(st.sampled_from((8, 16, 32, 24, 40, 104, 312)), st.sampled_from((32, 64, 128)), st.data())
@settings(max_examples=120, deadline=None)
def test_packed_fields_agree_with_scalar_ops(M, width, data):
    # packed values live in Z[X]/(X^(M/2) + 1), which X -> zeta_M maps onto
    # Z[zeta_M] (the same ring at a power-of-two M); the CycloScalar
    # constructor reduces each value's M/2 coefficients modulo Phi_M
    n = M // 2
    # coefficients up to the largest for which 24 * (a sum of 2 products of
    # n terms each) stays within the fields' limit
    top = 2 ** ((width - 2 - (2 * n).bit_length() - 5) // 2)
    coeffs = st.lists(st.integers(-top, top), min_size=n, max_size=n)
    ca, cb = data.draw(coeffs), data.draw(coeffs)
    a, b = CycloScalar(M, dict(enumerate(ca))), CycloScalar(M, dict(enumerate(cb)))
    fields = FieldLayout(M, width)
    pa, pb = fields.encode(ca), fields.encode(cb)
    assert fields.decode(pa) == ca and fields.decode(pb) == cb
    assert fields.bits([pa, 0, pb]) == max(_norm_bits(ca), _norm_bits(cb))
    assert fields.scalar(pa, 1) == a and fields.scalar(pb, 1) == b
    assert fields.scalar(pa + pb, 1) == a + b
    assert fields.scalar(fields.reduce(pa * pb), 1) == a * b
    # a product, a sum of two products, then 2 * 3 * 4 over the denominator 4 * 16
    entries = [pa * pb, pa * pb + pb * pb, 0, 24 * pa * pa]
    den, strip = fields.reduce_in_lowest_terms(entries, 64)
    got = [fields.scalar(v, den) for v in entries]
    want = [(a * b).scale(Fraction(1, 64)), (a * b + b * b).scale(Fraction(1, 64)),
            CycloScalar.zero(M), (a * a).scale(Fraction(24, 64))]
    assert got == want
    assert den * 2 ** strip == 64
    assert den == 1 or any(c % 2 for v in entries for c in fields.decode(v))  # lowest terms
    doubled = [2 * v for v in entries]
    assert fields.reduce_in_lowest_terms(doubled, 2 * den) == (den, 1) and doubled == entries


@given(st.sampled_from((8, 24, 40, 312)), st.sampled_from((32, 64)), st.data())
@settings(max_examples=120, deadline=None)
def test_reduce_leaves_a_reduced_value_unchanged(M, width, data):
    # leaves are brought to lowest terms through reduce_in_lowest_terms, whose
    # reduce must then be the identity on every value the fields hold
    fields = FieldLayout(M, width)
    top = 2 ** fields.limit
    budget, coeffs = top, []
    for c in data.draw(st.lists(st.integers(-top, top), min_size=fields.n, max_size=fields.n)):
        c = max(-budget, min(budget, c))
        coeffs.append(c)
        budget -= abs(c)
    assert sum(map(abs, coeffs)) <= top
    value = fields.encode(coeffs)
    assert fields.reduce(value) == value


@given(st.sampled_from((8, 24, 312)), st.sampled_from((32, 64, 96)), st.data())
@settings(max_examples=150, deadline=None)
def test_bits_is_the_largest_norm_of_the_decoded_values(M, width, data):
    # 32- and 64-bit fields take the bound from one unpack of all values, 96-bit
    # ones decode each value; both are the largest norm's bits, 0 for no norm
    fields = FieldLayout(M, width)
    top = 2 ** (width - 1)
    field = st.sampled_from((0, 1, -1, top - 1, -top)) | st.integers(-top, top - 1)
    coeffs = data.draw(st.lists(st.lists(field, min_size=fields.n, max_size=fields.n),
                                max_size=6))
    values = [fields.encode(c) for c in coeffs] + [0] * data.draw(st.integers(0, 2))
    assert [fields.decode(v) for v in values[:len(coeffs)]] == coeffs
    want = max((_norm_bits(fields.decode(v)) for v in values if v), default=0)
    assert want == max(map(_norm_bits, coeffs), default=0)
    assert fields.bits(values) == fields.bits(iter(values)) == want
    assert fields.bits([0] * 3) == fields.bits([]) == 0


def test_packed_fields_refuse_a_coefficient_that_does_not_fit():
    fields = FieldLayout(8, 64)
    assert fields.decode(fields.encode([2 ** 63 - 1, -2 ** 63, 0, 1])) == [
        2 ** 63 - 1, -2 ** 63, 0, 1]
    for c in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(OverflowError):
            fields.encode([0, c, 0, 0])



@settings(max_examples=300, deadline=None)
@given(st.integers(-200, 200), st.integers(1, 30), st.integers(1, 16))
def test_root_exponent_is_the_exponent_of_every_root_of_unity(num, den, k):
    M, phase = 8 * k, PiRational(num, den)
    if M % (2 * den):
        for call in (lambda: root_exponent(num, den, M), lambda: root_of_unity(num, den, M)):
            with pytest.raises(ModulusError, match=rf"^modulus {M} not divisible by 2\*{den}$"):
                call()
    else:
        j = root_exponent(num, den, M)
        assert 0 <= j < M and j == root_exponent(phase.num, phase.den, M)
        assert abs(cmath.exp(2j * math.pi * j / M) - cmath.exp(1j * math.pi * num / den)) < 1e-9
        assert root_of_unity(num, den, M) == CycloScalar.zeta_power(M, j)
    # the exact ring reads the phase in lowest terms
    ring = _exact_ring(M)
    if M % (2 * phase.den):
        with pytest.raises(ModulusError, match=rf"^modulus {M} not divisible by 2\*{phase.den}$"):
            ring.phase(phase)
    else:
        j = root_exponent(phase.num, phase.den, M)
        assert ring.exponent(phase) == j
        assert ring.leaf_fields.scalar(ring.phase(phase), 1) == CycloScalar.zeta_power(M, j)
