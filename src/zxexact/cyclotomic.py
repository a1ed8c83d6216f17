"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Scalars are rational-coefficient combinations of powers of a primitive M-th
root of unity ``z``, with M always divisible by 8 so that
sqrt(2) = z^(M/8) + z^(7M/8) is available as a field element.

A value has one representation: a tuple of phi(M) integer coefficients over
the power basis 1, z, ..., z^(phi(M)-1) and one positive integer
denominator, kept in lowest terms (the gcd of the denominator and all the
coefficients is 1).  Equality, truth and hashing therefore read the fields
directly, and ``canonical()`` only divides.  Products multiply the non-zero
coefficients schoolbook-style and reduce the high part by the sparse tail of
the cyclotomic polynomial Phi_M, built as a Moebius product of binomials.
``Fraction`` appears only at the edges: constructor input, ``scale``,
``canonical`` and subfield membership.

Bulk work uses one internal form, for many values over one shared
power-of-two denominator, so that exact contraction makes no scalar per
product and per sum.  M is divisible by 8, so Phi_M divides X^(M/2) + 1
and the negacyclic ring Z[X]/(X^(M/2) + 1) maps onto Z[zeta_M]; a
``FieldLayout`` packs a value of that ring into fixed-width fields of one
Python int, so a product is one bigint multiply and its reduction a mask,
a shift and a subtraction.  Only ``FieldLayout.scalar`` reduces modulo
Phi_M, when a final entry becomes a ``CycloScalar``; at a power-of-two M
that reduction does nothing.  The caches keyed by a modulus are bounded.
``root_exponent`` alone computes the exponent j of e^(i pi k/d) = zeta_M^j.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from struct import Struct, unpack
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]


class ModulusError(ValueError):
    """Raised when a modulus is unsupported or incompatible with a lift."""


# Caches keyed by a modulus are bounded.  The four benchmark workloads use
# at most 12 moduli; the limits leave room for many more without letting a
# long run over fresh moduli grow memory without end.
MODULUS_CACHE_SIZE = 128

# The largest modulus a field is built for (tests use at most 1,040, the
# benchmark 312); the field of phase 1/99991, M = 799,928, takes seconds.
MAX_MODULUS = 65536


# ---------------------------------------------------------------------------
# number theory and cyclotomic polynomials (low-to-high integer coefficients)
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of ``n >= 1``, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    result = n
    for p, _ in _prime_factors(n):
        result -= result // p
    return result


def _mobius(n: int) -> int:
    factors = _prime_factors(n)
    return 0 if any(k > 1 for _, k in factors) else (-1) ** len(factors)


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of Phi_M.

    Phi_M(X) = Phi_r(X^(M/r)) for the radical r of M, and Phi_r is the
    Moebius product of (X^d - 1)^mu(r/d) over the divisors d of r.  Each
    factor multiplies or exactly divides by a binomial in one linear pass;
    all multiplications come first, so every quotient is a polynomial."""
    if M < 1:
        raise ModulusError(f"modulus must be positive, got {M}")
    primes = [p for p, _ in _prime_factors(M)]
    r = prod(primes)
    up, down = [], []  # the divisors d of r with mu(r/d) = +1 and -1
    for subset in range(1 << len(primes)):
        q = prod(p for i, p in enumerate(primes) if subset >> i & 1)
        (down if bin(subset).count("1") % 2 else up).append(r // q)
    poly = [1]
    for d in up:
        out = [0] * (len(poly) + d)
        for i, c in enumerate(poly):
            out[i] -= c
            out[i + d] += c
        poly = out
    for d in down:  # poly = q * (X^d - 1), so q_k = q_(k-d) - poly_k
        q = [0] * (len(poly) - d)
        for k in range(len(q)):
            q[k] = (q[k - d] if k >= d else 0) - poly[k]
        poly = q
    s = M // r
    out = [0] * (s * (len(poly) - 1) + 1)
    out[::s] = poly
    return tuple(out)


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def _phi_tail(M: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(M) and the sparse tail of Phi_M: X^phi = sum of t * X^i over (i, t)."""
    poly = cyclotomic_polynomial(M)
    phi = len(poly) - 1
    return phi, tuple((i, -c) for i, c in enumerate(poly[:phi]) if c)


def _reduce(M: int, buf: list[int]) -> list[int]:
    """Reduce a dense integer polynomial (low to high) modulo Phi_M in place;
    returns its phi(M) power-basis coefficients."""
    phi, tail = _phi_tail(M)
    if len(buf) < phi:
        buf += [0] * (phi - len(buf))
    for k in range(len(buf) - 1, phi - 1, -1):
        c = buf[k]
        if c:
            base = k - phi
            for i, t in tail:
                buf[base + i] += c * t
    del buf[phi:]
    return buf


def _norm_bits(coeffs: Sequence[int]) -> int:
    """The least b >= 0 with sum(|c|) <= 2^b over ``coeffs``."""
    return max(sum(map(abs, coeffs)) - 1, 0).bit_length()


# ---------------------------------------------------------------------------
# packed values: the storage of exact tensors
# ---------------------------------------------------------------------------
# Every modulus M is divisible by 8, so zeta_M^n = -1 with n = M/2: Phi_M
# divides X^n + 1, and X -> zeta_M maps the negacyclic ring Z[X]/(X^n + 1)
# onto Z[zeta_M].  Exact tensors are computed in that ring and reduced
# modulo Phi_M only when a final entry becomes a scalar; at a power-of-two
# M, X^n + 1 is Phi_M itself.  A packed value is one Python int,
# sum(c_k << (k * width)) over its n coefficients, each in a signed field
# that holds -2^(width-1) <= c_k < 2^(width-1).  Sums and products of packed
# ints are the packed sums and products of the values (a product has 2n - 1
# fields) as long as no field leaves that range; a field that did would
# silently spill into its neighbour, so callers bound their values' sizes.
# The bound is on the norm |a| = sum of |a_k|, which bounds every
# coefficient and every field of a product: |a * b| <= |a| * |b|, reduced
# or not, and |a + b| <= |a| + |b|.

class FieldLayout:
    """Fields of ``width`` bits, a multiple of 8, for the n = M/2
    coefficients of values in Z[X]/(X^n + 1) at a modulus M divisible by 8.
    The fields hold every value, product or sum of products whose norm is
    at most 2^limit."""

    __slots__ = ("modulus", "n", "width", "limit", "shift", "low", "bias", "half", "words",
                 "slots")

    def __init__(self, modulus: int, width: int):
        n = modulus // 2
        ones = ((1 << (2 * n * width)) - 1) // ((1 << width) - 1)  # a 1 in each of 2n fields
        self.modulus, self.n, self.width = modulus, n, width
        self.limit = width - 2
        self.shift = n * width
        self.low = (1 << self.shift) - 1
        self.bias = ones << (width - 1)  # 2^(width-1) in each field of a product: all >= 0
        self.half = self.bias & self.low  # the same for the n fields of a value
        # 32- and 64-bit fields, the common widths, decode in one call
        code = {32: "I", 64: "Q"}.get(width)
        self.words = Struct(f"<{n}{code}") if code else None
        # ``row`` by row length, a power of two up to 2^(rank cap): at most 2x the longest
        self.slots = {1: (self.half, self.bias, self.low, ones & self.low)}

    def encode(self, coeffs: Sequence[int]) -> int:
        """The packed int of n coefficients; raises OverflowError for a
        coefficient that does not fit its field."""
        h, step = 1 << (self.width - 1), self.width // 8
        raw = b"".join((c + h).to_bytes(step, "little") for c in coeffs)
        return int.from_bytes(raw, "little") - self.half

    def decode(self, value: int) -> list[int]:
        """The n coefficients of a packed value."""
        h, step = 1 << (self.width - 1), self.width // 8
        raw = (value + self.half).to_bytes(self.n * step, "little")
        if self.words is not None:
            return [w - h for w in self.words.unpack(raw)]
        return [int.from_bytes(raw[k:k + step], "little") - h for k in range(0, len(raw), step)]

    def bits(self, values: Iterable[int]) -> int:
        """The least b >= 0 with norm at most 2^b for each of ``values``."""
        if self.words is None:
            return max((_norm_bits(self.decode(v)) for v in values if v), default=0)
        # a biased field, top bit flipped, is a signed word; zip takes n per value
        half, size, signed = self.half, self.shift // 8, self.words.format[-1].lower()
        raw = b"".join([((v + half) ^ half).to_bytes(size, "little") for v in values if v])
        coeffs = map(abs, unpack(f"<{len(raw) // size * self.n}{signed}", raw))
        return _norm_bits((max(map(sum, zip(*[coeffs] * self.n)), default=0),))

    def reduce(self, value: int) -> int:
        """A packed product (2n - 1 fields) modulo X^n + 1: with every field
        biased to be non-negative, the low n fields minus the high n."""
        q = value + self.bias
        return (q & self.low) - (q >> self.shift)

    def row(self, count: int) -> tuple[int, int, int, int]:
        """``half``, ``bias``, ``low`` and bit 0 of each value field, in each of
        ``count`` slots of 2n fields, the first lowest: a value times values in
        such slots is the row of their unreduced products."""
        if (consts := self.slots.get(count)) is None:
            consts = self.slots[count] = tuple(int.from_bytes(
                c.to_bytes(self.shift // 4, "little") * count, "little") for c in self.slots[1])
        return consts

    def reduce_in_lowest_terms(self, data: list[int], den: int) -> tuple[int, int]:
        """``reduce`` every entry of ``data`` in place, then ``strip`` it.  An
        entry that is already reduced (n fields) is unchanged by ``reduce``,
        so this also brings reduced values to lowest terms."""
        bias, low, shift, half = self.bias, self.low, self.shift, self.half
        seen = 0
        for k, v in enumerate(data):
            if v:
                q = v + bias
                v = data[k] = (q & low) - (q >> shift)
                seen |= v + half
        return self.strip(data, den, seen, self.slots[1][3])

    def strip(self, data: list[int], den: int, seen: int, parity: int) -> tuple[int, int]:
        """Divide ``data`` (in place) and ``den`` by the largest power of two
        dividing both, given ``seen`` (below each field's top bit, the OR of its
        coefficients) and ``parity`` (bit 0 of each field): (den, 2s divided).
        All-zero ``data`` loses every 2; only it stops at a field's top bit."""
        strip = 0
        while not den & 1 and not seen & (parity << strip):
            strip += 1
            den >>= 1
        if strip == self.width - 1:
            strip, den = strip + (den & -den).bit_length() - 1, den // (den & -den)
        if strip:
            data[:] = [v >> strip for v in data]
        return den, strip

    def scalar(self, value: int, den: int) -> "CycloScalar":
        """The canonical scalar of a packed value over ``den``: its
        coefficients reduced modulo Phi_M."""
        return CycloScalar._make(self.modulus, _reduce(self.modulus, self.decode(value)), den)


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def _hash_weights(M: int) -> tuple[tuple[int, ...], ...]:
    """Row j, entry i: the trace over Q of z^i * zeta_8^(-j), a primitive n-th
    root of unity with n = M / gcd(i - j*M/8, M).  That trace is phi(M)/phi(n)
    times the sum of the primitive n-th roots, which is mu(n).

    Traces divided by phi(M) do not change when a value is lifted to a larger
    modulus, and the four rows together determine the projection of a value
    onto Q(zeta_8), so every M=8 value hashes by its whole content."""
    phi = euler_phi(M)
    traces: dict[int, int] = {}  # by n: a handful of divisors of M
    rows = []
    for j in range(4):
        row = []
        for i in range(phi):
            n = M // gcd(i - j * M // 8, M)
            t = traces.get(n)
            if t is None:
                t = traces[n] = _mobius(n) * (phi // euler_phi(n))
            row.append(t)
        rows.append(tuple(row))
    return tuple(rows)


def _normalized(coeffs: list[int], den: int) -> tuple[tuple[int, ...], int]:
    g = gcd(den, *coeffs)
    if g != 1:
        return tuple(c // g for c in coeffs), den // g
    return tuple(coeffs), den


def _check_modulus(M: int) -> None:
    if M % 8 != 0:
        raise ModulusError(f"modulus must be divisible by 8, got {M}")
    if M > MAX_MODULUS:
        raise ModulusError(f"modulus {M} exceeds cap {MAX_MODULUS}")


class CycloScalar:
    """An element of Q(zeta_M) with M divisible by 8, stored as
    ``sum(coeffs[i] * z^i for i < phi(M)) / den`` in lowest terms."""

    __slots__ = ("modulus", "coeffs", "den")

    def __init__(self, modulus: int, terms: Optional[dict] = None):
        """``terms`` maps exponents (any integer, taken mod M) to rationals."""
        _check_modulus(modulus)
        fracs = [(e % modulus, Fraction(c)) for e, c in (terms or {}).items()]
        den = lcm(*(c.denominator for _, c in fracs))
        buf = [0] * (1 + max((e for e, _ in fracs), default=0))
        for e, c in fracs:
            buf[e] += c.numerator * (den // c.denominator)
        self.modulus = modulus
        self.coeffs, self.den = _normalized(_reduce(modulus, buf), den)

    @classmethod
    def _make(cls, modulus: int, coeffs: list[int], den: int) -> "CycloScalar":
        """Internal constructor from reduced power-basis coefficients."""
        out = object.__new__(cls)
        out.modulus = modulus
        out.coeffs, out.den = _normalized(coeffs, den)
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(M: int) -> "CycloScalar":
        return CycloScalar(M)

    @staticmethod
    def one(M: int) -> "CycloScalar":
        return CycloScalar(M, {0: 1})

    @staticmethod
    def from_rational(value: Rational, M: int) -> "CycloScalar":
        return CycloScalar(M, {0: value})

    @staticmethod
    def zeta_power(M: int, exponent: int) -> "CycloScalar":
        return CycloScalar(M, {exponent: 1})

    # -- ring operations ---------------------------------------------------

    def _lifted_pair(self, other: "CycloScalar") -> tuple["CycloScalar", "CycloScalar"]:
        if self.modulus == other.modulus:
            return self, other
        M = lcm(self.modulus, other.modulus)
        return lift_modulus(self, M), lift_modulus(other, M)

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        a, b = self._lifted_pair(other)
        den = lcm(a.den, b.den)
        ka, kb = den // a.den, den // b.den
        return CycloScalar._make(a.modulus, [x * ka + y * kb for x, y in zip(a.coeffs, b.coeffs)],
                                 den)

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        return self + (-other)

    def __neg__(self) -> "CycloScalar":
        return CycloScalar._make(self.modulus, [-c for c in self.coeffs], self.den)

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        a, b = self._lifted_pair(other)
        nz = [(j, y) for j, y in enumerate(b.coeffs) if y]
        buf = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in nz:
                    buf[i + j] += x * y
        return CycloScalar._make(a.modulus, _reduce(a.modulus, buf), a.den * b.den)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def scale(self, factor: Rational) -> "CycloScalar":
        f = Fraction(factor)
        return CycloScalar._make(self.modulus, [c * f.numerator for c in self.coeffs],
                                 self.den * f.denominator)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloScalar):
            return NotImplemented
        a, b = self._lifted_pair(other)
        return a.coeffs == b.coeffs and a.den == b.den

    def __hash__(self) -> int:
        scale = self.den * euler_phi(self.modulus)
        return hash(tuple(Fraction(sum(map(mul, self.coeffs, row)), scale)
                          for row in _hash_weights(self.modulus)))

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> tuple[Fraction, ...]:
        """Coefficients over the power basis 1, z, ..., z^(phi(M)-1)."""
        return tuple(Fraction(c, self.den) for c in self.coeffs)

    def to_complex(self) -> complex:
        M = self.modulus
        return sum((c * cmath.exp(2j * cmath.pi * i / M) for i, c in enumerate(self.coeffs) if c),
                   0j) / self.den

    def __str__(self) -> str:
        coeffs = self.canonical()
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"({body} | M={self.modulus})"

    def __repr__(self) -> str:
        return f"CycloScalar{self}"


def lift_modulus(a: CycloScalar, M2: int) -> CycloScalar:
    """Re-express ``a`` in Q(zeta_M2); requires modulus(a) | M2."""
    if M2 == a.modulus:
        return a
    if M2 % a.modulus != 0:
        raise ModulusError(f"cannot lift modulus {a.modulus} to {M2}")
    _check_modulus(M2)
    k = M2 // a.modulus
    buf = [0] * (k * (len(a.coeffs) - 1) + 1)
    buf[::k] = a.coeffs
    return CycloScalar._make(M2, _reduce(M2, buf), a.den)


def root_exponent(num: int, den: int, M: int) -> int:
    """The j in [0, M) with exp(i*pi*num/den) = zeta_M^j, j = num*M/(2*den)
    mod M; raises ``ModulusError`` unless 2*den divides M."""
    if M % (2 * den):
        raise ModulusError(f"modulus {M} not divisible by 2*{den}")
    return num * (M // (2 * den)) % M


def root_of_unity(num: int, den: int, M: int) -> CycloScalar:
    """exp(i*pi*num/den) as zeta_M^j, j from ``root_exponent``."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    _check_modulus(M)
    return CycloScalar.zeta_power(M, root_exponent(num, den, M))


def sqrt_two(M: int) -> CycloScalar:
    """sqrt(2) as zeta_M^(M/8) + zeta_M^(7M/8); squares exactly to 2."""
    return CycloScalar(M, {M // 8: 1, 7 * M // 8: 1})


# ---------------------------------------------------------------------------
# subfield membership
# ---------------------------------------------------------------------------

def membership_solve(target: CycloScalar, generator_order: int) -> Optional[list[Fraction]]:
    """Decide whether ``target`` lies in the subfield Q(zeta_K) of its field.

    K = ``generator_order`` must divide the target's modulus M, and every
    prime factor of M must divide K.  Then Phi_M(X) = Phi_K(X^s) with
    s = M/K, so the power basis z^i (i < phi(M)) is the tower basis
    zeta_K^j * z^r (j < phi(K), r < s) with i = j*s + r, and the target is
    a member exactly when every coefficient at an exponent not divisible by
    s is zero.  Returns its rational coordinates over {zeta_K^j} when it is
    a member, and None otherwise.
    """
    M = target.modulus
    K = generator_order
    if K < 1 or M % K != 0:
        raise ModulusError(f"subfield order {K} does not divide modulus {M}")
    for p, _ in _prime_factors(M):
        if K % p:
            raise ModulusError(f"prime {p} of modulus {M} does not divide subfield order {K}")
    s = M // K
    coeffs = target.coeffs
    if any(any(coeffs[r::s]) for r in range(1, s)):
        return None
    return [Fraction(c, target.den) for c in coeffs[::s]]
