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
the cyclotomic polynomial Phi_M.  ``Fraction`` appears only at the edges:
constructor input, ``scale``, ``canonical`` and subfield membership.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence, Union

Rational = Union[int, Fraction]


class ModulusError(ValueError):
    """Raised when a modulus is unsupported or incompatible with a lift."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, low-to-high coefficient lists)
# ---------------------------------------------------------------------------

def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials; ``den`` must be monic."""
    assert den[-1] == 1, "divisor must be monic"
    rem = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(1, len(num) - deg_d)
    for k in range(len(rem) - 1 - deg_d, -1, -1):
        c = rem[k + deg_d]
        if c == 0:
            continue
        quot[k] = c
        for j, dj in enumerate(den):
            rem[k + j] -= c * dj
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of Phi_M, by exact division of
    X^M - 1 by the product of Phi_d over proper divisors d of M."""
    if M < 1:
        raise ModulusError(f"modulus must be positive, got {M}")
    if M == 1:
        return (-1, 1)
    num = [0] * (M + 1)
    num[0], num[M] = -1, 1
    den = [1]
    for d in divisors(M):
        if d < M:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quot, rem = _poly_divmod(num, den)
    assert rem == [0], "X^M - 1 not divisible by product of lower Phi_d"
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return tuple(quot)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _hash_weights(M: int) -> tuple[tuple[int, ...], ...]:
    """Row j, entry i: the trace over Q of z^i * zeta_8^(-j), a primitive n-th
    root of unity with n = M / gcd(i - j*M/8, M).  That trace is phi(M)/phi(n)
    times the sum of the primitive n-th roots, which is minus the sub-leading
    coefficient of Phi_n.

    Traces divided by phi(M) do not change when a value is lifted to a larger
    modulus, and the four rows together determine the projection of a value
    onto Q(zeta_8), so every M=8 value hashes by its whole content."""
    phi = euler_phi(M)
    rows = []
    for j in range(4):
        polys = [cyclotomic_polynomial(M // gcd(i - j * M // 8, M)) for i in range(phi)]
        rows.append(tuple(-p[-2] * (phi // (len(p) - 1)) for p in polys))
    return tuple(rows)


def _normalized(coeffs: list[int], den: int) -> tuple[tuple[int, ...], int]:
    g = gcd(den, *coeffs)
    if g != 1:
        return tuple(c // g for c in coeffs), den // g
    return tuple(coeffs), den


def _check_modulus(M: int) -> None:
    if M % 8 != 0:
        raise ModulusError(f"modulus must be divisible by 8, got {M}")


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
    k = M2 // a.modulus
    buf = [0] * (k * (len(a.coeffs) - 1) + 1)
    buf[::k] = a.coeffs
    return CycloScalar._make(M2, _reduce(M2, buf), a.den)


def root_of_unity(num: int, den: int, M: int) -> CycloScalar:
    """The element zeta_M^(num*M/(2*den)) representing exp(i*pi*num/den)."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    _check_modulus(M)
    if M % (2 * den) != 0:
        raise ModulusError(f"modulus {M} not divisible by 2*{den}")
    return CycloScalar.zeta_power(M, num * (M // (2 * den)))


def sqrt_two(M: int) -> CycloScalar:
    """sqrt(2) as zeta_M^(M/8) + zeta_M^(7M/8); squares exactly to 2."""
    return CycloScalar(M, {M // 8: 1, 7 * M // 8: 1})


# ---------------------------------------------------------------------------
# subfield membership
# ---------------------------------------------------------------------------

def _solve_exact(matrix: list[list[int]], rhs: list[int]) -> Optional[list[Fraction]]:
    """Solve A x = b over the rationals by fraction-free (Bareiss) elimination.

    Returns None if the system is inconsistent.  The matrix may have more rows
    than columns; a rank-deficient but consistent system yields one solution
    with free variables set to zero.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    width = n + 1
    prev_pivot = 1
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        p = a[row][col]
        for r in range(row + 1, m):
            factor = a[r][col]
            for c in range(width):
                a[r][c] = (a[r][c] * p - factor * a[row][c]) // prev_pivot
        prev_pivot = p
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r in range(len(pivot_cols) - 1, -1, -1):
        col = pivot_cols[r]
        acc = Fraction(a[r][n])
        for c in range(col + 1, n):
            acc -= Fraction(a[r][c]) * sol[c]
        sol[col] = acc / a[r][col]
    return sol


def membership_solve(target: CycloScalar, generator_order: int) -> Optional[list[Fraction]]:
    """Decide whether ``target`` lies in the subfield Q(zeta_K) of its field.

    K = ``generator_order`` must divide the target's modulus.  Returns the
    rational coordinates of the target over the power basis {zeta_K^j} when it
    is a member, and None otherwise.
    """
    M = target.modulus
    K = generator_order
    if K < 1 or M % K != 0:
        raise ModulusError(f"subfield order {K} does not divide modulus {M}")
    basis = [CycloScalar.zeta_power(M, j * (M // K)).coeffs for j in range(euler_phi(K))]
    # powers of zeta have integer coordinates, so only the target's den remains
    sol = _solve_exact([list(row) for row in zip(*basis)], list(target.coeffs))
    return None if sol is None else [x / target.den for x in sol]
