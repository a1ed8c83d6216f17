"""The standard matrix interpretation of ZX diagrams.

Every node becomes a leg-symmetric tensor (Z spiders are diagonal deltas,
X spiders their Hadamard conjugates, H boxes the 2x2 Hadamard matrix) and
every edge an index pairing; boundary ports stay open.  The axes are named
in one pass over the edges, which also applies two of the calculus's own
equations: a spider's self-loop is dropped (tracing two legs of a Z or X
spider leaves the same spider with two fewer legs), and a spider of high
degree is cut into a same-colour chain (spider fusion), so no leaf is wider
than the degree limit.  A port-to-port wire is a phase-0 Z spider of degree
2, the identity.  Contraction is pairwise, in a greedy order that keeps
intermediate rank small, with a hard cap; the order is built incrementally,
rescoring after each merge only the pairs of the new tensor.  A diagram's
program (steps, offset layouts, port offsets, each leaf's node) and its
validity depend only on its shape (``_ProgramMemo.key``), not on colours or
phases.  Programs of three or more leaves are kept in a memo of at most
``PROGRAM_CACHE_LEAVES`` leaves, oldest dropped first, so a shape met again
(SUP_n over an angle grid and its colour swap, one circuit's exact and float
runs) is validated, named and planned once: a hit builds only the modulus,
the leaves and the steps.  One- and two-leaf programs, nearly every
rule-sweep diagram, are rebuilt per call: storing them raises the sweep's
peak memory past its benchmark bound.

The float backend stores complex entries.  The exact backend has one
kernel for every modulus M (divisible by 8).  zeta_M^(M/2) = -1, so Phi_M
divides X^(M/2) + 1 and the negacyclic ring Z[X]/(X^(M/2) + 1) maps onto
Z[zeta_M]; contraction runs in that ring.  Each tensor has one
power-of-two denominator and each entry is one Python int holding its M/2
signed coefficients in fixed-width fields (``cyclotomic.FieldLayout``).
A generic step is one bigint multiply per output row and shared pattern,
each slot of the row reduced modulo X^(M/2) + 1 by a biased mask, a shift
and a subtraction; lowest terms take a parity mask and a shift.  A bound on
each tensor's values keeps every field from spilling into the next,
widening the fields when needed.  Leaves are built in the ring itself.

``interpret`` returns a ``SemanticMatrix`` that keeps the final
denominator and packed entries; it reduces an entry modulo Phi_M into a
``CycloScalar`` only when ``entries`` is first read, and at a power-of-two
M that reduction does nothing.  ``matrix_compare`` decides two matrices of
identical kernel form equal without making any scalar.

A Z or X spider with legs, leaf or not, is its two values: v0 at
all-zeros and v1 at all-ones for Z (COPY; a leaf's are 1 and u = e^(ia)),
v0 on even patterns and v1 on odd ones for X (PARITY; a leaf's are
(1 +- u)/sqrt2^degree).  Leaves are built and cached in that form; an H box
keeps its four entries and a spider with no legs its one.  A step meeting a
spider with a rank-1 (x0, x1) on one leg is an absorb step: COPY becomes
(v0 x0, v1 x1), PARITY (v0 x0 + v1 x1, v1 x0 + v0 x1), at rank 0 the sum
v0 x0 + v1 x1; from ``SHIFT_PRODUCT_MODULUS`` on, a product by a spider
leaf's value is a few shifts (``_times``).  A step consuming a Z leaf
otherwise is a Z step (``contract_z``), the other operand's all-zeros
shared slice and u times its all-ones one (their sum if the leaf has no
free leg), and the rest expand their spiders (``_dense``) and run the
generic step (``contract``).  The float backend expands its leaves and runs
every step through ``_products``, a per-entry product loop, so it shares no
step with the kernel it serves as an oracle for.  The modulus is capped at
``MAX_MODULUS``.
``backend_for`` is the one exactness policy: EXACT when every phase is
exact, FLOAT otherwise.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .cyclotomic import (
    MODULUS_CACHE_SIZE, CycloScalar, FieldLayout, _check_modulus, lift_modulus, root_exponent,
)
from .diagram import (
    Diagram, NodeKind, Phase, PiRational, H, X, Z,
    ensure_valid, phase_is_exact, phase_radians, xspider, zspider,
)

EXACT, FLOAT = "exact", "float"
DEFAULT_MAX_RANK = 16
DEFAULT_TOLERANCE = 1e-9  # float-backend entrywise tolerance


class BackendError(ValueError):
    """Raised when the exact backend is asked to handle a float phase."""


class ResourceLimitError(RuntimeError):
    """Raised when contraction would exceed the configured tensor rank cap,
    or a field would exceed the modulus cap."""


# ---------------------------------------------------------------------------
# scalar backends
# ---------------------------------------------------------------------------
# A ring builds leaf tensors from its leaf scalars (``one``, ``phase``,
# ``inv_sqrt2_pow`` and ``mul``) and stores tensors in its own form:
# ``pack`` turns a leaf's denominator and scalars (a spider's two values)
# into the ``_Tensor`` fields after the axes (``den``, ``data``, ``bits``,
# ``fields``, ``spider`` and ``terms``), ``contract`` runs a pairwise
# contraction's inner loop over dense operands and ``matrix`` makes the
# final ``SemanticMatrix``.  The float ring stores plain complex numbers and
# has nothing more than ``_products``; the exact ring stores packed ints
# (``cyclotomic.FieldLayout``) and also runs the spider steps: ``contract_z``
# a Z step's (u is the leaf's second value) and ``absorb`` an absorb step's.

# Bounds of the module caches: the four benchmark workloads use at most 10
# rings (bounded with the other per-modulus caches, by
# ``cyclotomic.MODULUS_CACHE_SIZE``) and about 2,000 leaf tensors.
TENSOR_CACHE_SIZE = 4096
PROGRAM_CACHE_LEAVES = 2048

# The largest modulus the exact backend builds a field for.  Tests use at
# most 1,040 and the benchmark 312; the field of phase 1/99991 (M = 799,928)
# takes seconds to build and its values are 400k coefficients long.
MAX_MODULUS = 65536

# Bits per coefficient field of a packed tensor; a tensor whose coefficient
# bound outgrows its fields is re-encoded in wider ones (a multiple of this).
FIELD_WIDTH = 32

# Spider leaves keep their values' terms, for shifts (``_times``), from this
# modulus on; below it one multiply is as fast as four shifts or faster (0.25
# against 0.5-0.7 us at M = 24, even at 40, 0.9 against 0.65 at 56; x86-64).
SHIFT_PRODUCT_MODULUS = 48


def _capped(M: int) -> int:
    if M > MAX_MODULUS:
        raise ResourceLimitError(f"modulus {M} exceeds cap {MAX_MODULUS}")
    return M


class _ExactRing:
    """Packed ints in Z[X]/(X^n + 1), n = M/2, which X -> zeta_M maps onto
    Z[zeta_M].

    Leaf scalars are packed ints in the narrowest fields: e^(i pi k/d) is
    the monomial +-X^(j mod n) with j = kM/(2d), and 1/sqrt2 is
    (X^(M/8) - X^(3M/8))/2, whose square is 1/2 in the ring, so
    (1/sqrt2)^deg is 2^(-deg/2) for an even deg and that binomial over
    2^((deg+1)/2) for an odd one.  X^n + 1 is the product of the Phi_d
    with d | M and M/d odd; modulo each, X^(M/8) is a primitive 8th root of
    unity, so 1/sqrt2 goes to +-1/sqrt2 and values stay as small as a
    diagram's, over a power-of-two denominator.  Only the factor Phi_M is
    read, by ``FieldLayout.scalar``.  A generic step (``contract``) is one
    bigint multiply per output row and shared pattern (``FieldLayout.row``).

    Each tensor carries a bound ``bits``: no entry's norm
    (``cyclotomic.FieldLayout``) exceeds 2^bits.  It is exact for leaves;
    after a product it is b1 + b2 + the number of shared axes (a sum of
    2^shared products, in each slot of a row), less the 2s divided out.
    When a result's bound would pass its fields' limit, ``fit`` recomputes
    the operands' bounds exactly and, if that is not enough, re-encodes them
    in wider fields, so no field ever spills into its neighbour.  A Z step
    keeps the other operand's bound, +1 if it sums two slices, less the 2s
    divided out; an absorb step's is the two bounds' sum, +1 for a PARITY or
    rank-0 sum."""

    one = 1

    def __init__(self, modulus: int):
        _check_modulus(modulus)
        self.modulus = modulus
        self._layouts: dict[int, FieldLayout] = {}
        self.leaf_fields = self.fields(0)
        w = FIELD_WIDTH
        self._root2 = (1 << (modulus // 8) * w) - (1 << (3 * modulus // 8) * w)

    def fields(self, bits: int) -> FieldLayout:
        """The narrowest layout whose fields hold norms of 2^bits."""
        width = FIELD_WIDTH * ((bits + 1) // FIELD_WIDTH + 1)
        layout = self._layouts.get(width)
        if layout is None:
            layout = self._layouts[width] = FieldLayout(self.modulus, width)
        return layout

    def exponent(self, phase: Phase) -> int:
        """The j in [0, M) with e^(i phase) = zeta_M^j."""
        if not isinstance(phase, PiRational):
            raise BackendError("exact backend requires exact phases")
        return root_exponent(phase.num, phase.den, self.modulus)

    def phase(self, phase: Phase) -> int:
        j, n = self.exponent(phase), self.modulus // 2
        return (1 << j * FIELD_WIDTH) if j < n else -(1 << (j - n) * FIELD_WIDTH)

    def inv_sqrt2_pow(self, k: int) -> tuple[int, int]:
        """(1/sqrt2)^k as a denominator and a leaf scalar."""
        return (1 << k // 2, 1) if k % 2 == 0 else (1 << (k + 1) // 2, self._root2)

    def mul(self, a: int, b: int) -> int:
        return self.leaf_fields.reduce(a * b)

    def pack(self, den: int, values, spider: Optional[str] = None) -> tuple:
        """A leaf's ``_Tensor`` fields after its axes, in lowest terms."""
        fields, data = self.leaf_fields, list(values)
        den, _ = fields.reduce_in_lowest_terms(data, den)
        wide = spider and self.modulus >= SHIFT_PRODUCT_MODULUS
        terms = tuple(_leaf_terms(fields, v) for v in data) if wide else None
        return den, tuple(data), fields.bits(data), fields, spider, terms

    def fit(self, tensors, extra: int):
        """``tensors`` in one layout whose fields hold a result bounded by
        ``sum(bits) + extra``, their bounds recomputed exactly, re-encoding
        those in another layout."""
        for t in tensors:
            t.bits = t.fields.bits(t.data)
        fields = self.fields(sum(t.bits for t in tensors) + extra)
        return [t if t.fields is fields else _Tensor(
                    t.axes, t.den, [fields.encode(t.fields.decode(v)) for v in t.data],
                    t.bits, fields, t.spider, t.terms)
                for t in tensors]

    def contract(self, t1: "_Tensor", t2: "_Tensor", axes: list[str], layout) -> "_Tensor":
        b1, b2, sh1, sh2 = layout
        extra = len(sh1).bit_length() - 1  # the number of shared axes
        if t1.fields is not t2.fields or t1.bits + t2.bits + extra > t1.fields.limit:
            t1, t2 = self.fit((t1, t2), extra)
        fields, d1, d2, count = t1.fields, t1.data, t2.data, len(b2)
        half, size, from_bytes = fields.half, fields.shift // 4, int.from_bytes  # size: slot bytes
        half_r, bias_r, low_r, parity_r = fields.row(count)
        cols = []
        for o1, o2 in zip(sh1, sh2):
            raw = b"".join([(d2[b + o2] + half).to_bytes(size, "little") for b in b2])
            if col := from_bytes(raw, "little") - half_r:
                cols.append((o1, col))
        data, seen = [], 0
        for base in b1:
            row = 0
            for o1, c in cols:
                if v := d1[base + o1]:
                    row += v * c
            if not row:
                data += [0] * count
                continue
            q = row + bias_r  # each field of each slot biased, as in ``FieldLayout.reduce``
            r = (q & low_r) + half_r - ((q >> fields.shift) & low_r)  # slot k: entry k + half
            seen |= r  # as ``FieldLayout.reduce_in_lowest_terms`` ORs each entry + half
            raw = r.to_bytes(count * size, "little")
            data += [from_bytes(raw[k:k + size // 2], "little") - half
                     for k in range(0, len(raw), size)]
        den, strip = fields.strip(data, t1.den * t2.den, seen, parity_r)
        return _Tensor(axes, den, data, t1.bits + t2.bits + extra - strip, fields)

    def contract_z(self, z: "_Tensor", t: "_Tensor", axes, layout, z_first: bool) -> "_Tensor":
        """``contract`` with the Z leaf ``z``: its v1, u = +-X^k, is a shift."""
        base, hi, nz, rows = _z_view(layout, z_first)
        if nz == 1 and t.bits + 1 > t.fields.limit:
            t, = self.fit((t,), 1)
        d, fields, u = t.data, t.fields, z.data[1]
        shift = (abs(u).bit_length() - 1) // z.fields.width * fields.width
        ones = [d[o + hi] << shift for o in base]
        if u < 0:
            ones = [-v for v in ones]
        if nz == 1:
            data = [d[o] + v for o, v in zip(base, ones)]
        else:
            data = [0] * (nz * len(base))
            data[rows[0]], data[rows[1]] = [d[o] for o in base], ones
        den, strip = fields.reduce_in_lowest_terms(data, t.den)
        return _Tensor(axes, den, data, t.bits + (nz == 1) - strip, fields)

    def absorb(self, s: "_Tensor", x: "_Tensor", size: int) -> "_Tensor":
        """``_absorb`` of the state ``x`` into the spider ``s``."""
        summed = s.spider == X or size == 1
        if s.fields is not x.fields or s.bits + x.bits + summed > s.fields.limit:
            s, x = self.fit((s, x), summed)
        data = _absorb(s, x, size)
        den, strip = s.fields.reduce_in_lowest_terms(data, s.den * x.den)
        return _Tensor(None, den, data, s.bits + x.bits + summed - strip, s.fields,
                       s.spider if size > 1 else None)

    @staticmethod
    def matrix(den: int, data: list, fields: FieldLayout, n_in: int, n_out: int):
        # already in lowest terms: at a power-of-two M this form is canonical
        return SemanticMatrix._packed(den, data, fields, n_in, n_out)


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def _exact_ring(modulus: int) -> _ExactRing:
    return _ExactRing(_capped(modulus))  # a refused modulus raises, so is not cached


class _FloatRing:
    modulus = None
    one = complex(1)
    mul = staticmethod(operator.mul)

    @staticmethod
    def phase(phase: Phase) -> complex:
        return cmath.exp(1j * phase_radians(phase))

    @staticmethod
    def inv_sqrt2_pow(k: int) -> tuple[int, complex]:
        return 1, complex(2 ** (-k / 2.0))

    @staticmethod
    def pack(den: int, values, spider: Optional[str] = None) -> tuple:
        return 1, tuple(values), 0, None, spider, None

    @staticmethod
    def contract(t1: "_Tensor", t2: "_Tensor", axes: list[str], layout) -> "_Tensor":
        return _Tensor(axes, 1, _products(t1.data, t2.data, *layout, complex(0)))

    @staticmethod
    def matrix(den: int, data: list, fields, n_in: int, n_out: int):
        cols = 1 << n_in
        return SemanticMatrix([data[r:r + cols] for r in range(0, len(data), cols)],
                              n_in, n_out, FLOAT)


def field_modulus(den: int) -> int:
    """lcm(8, 2*den), the modulus of the field of e^(i pi k/den) and 1/sqrt2."""
    return math.lcm(8, 2 * den)


def choose_modulus(d: Diagram) -> int:
    """Smallest modulus M = lcm(8, 2*den(phase) for all spider phases);
    raises ``ResourceLimitError`` above ``MAX_MODULUS``."""
    M = 8
    for p in d.phases():
        if not phase_is_exact(p):
            raise BackendError("diagram has a float phase; exact backend unavailable")
        M = _capped(math.lcm(M, field_modulus(p.den)))
    return M


_FLOAT_RING = _FloatRing()


def backend_for(*diagrams: Diagram) -> str:
    """EXACT when every phase of every diagram is exact, FLOAT otherwise."""
    return EXACT if all(d.is_exact() for d in diagrams) else FLOAT


def _ring_for(d: Diagram, backend: str):
    if backend == EXACT:
        return _exact_ring(choose_modulus(d))
    if backend == FLOAT:
        return _FLOAT_RING
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

class _Tensor:
    """Entries over axes (the first most significant; None when a program's
    layouts place them) in a ring's storage form, all divided by ``den``; a
    packed tensor also has ``fields`` and a bound ``bits`` (``_ExactRing``).

    A packed tensor is in lowest terms: ``den`` is 1 or some coefficient of
    some entry is odd.  ``_ExactRing.pack`` strips each leaf once, when it
    is built, and each contraction strips its result.  ``spider`` is Z or X
    for a spider with legs, leaf or not: its ``data`` is then its two values,
    which ``_dense`` expands, and from ``SHIFT_PRODUCT_MODULUS`` on a leaf's
    ``terms`` are their ``_leaf_terms``."""

    __slots__ = ("axes", "den", "data", "bits", "fields", "spider", "terms")

    def __init__(self, axes: list[str], den: int, data, bits: int = 0,
                 fields: Optional[FieldLayout] = None, spider: Optional[str] = None, terms=None):
        self.axes = axes
        self.den = den
        self.data = data
        self.bits = bits
        self.fields = fields
        self.spider = spider
        self.terms = terms


def _leaf_terms(fields: FieldLayout, value: int) -> tuple:
    """A packed value's non-zero (field, coefficient) pairs: a leaf value's,
    a product of +-X^j, 1 +- u and the sqrt2 binomial, are at most four."""
    return tuple((k, c) for k, c in enumerate(fields.decode(value)) if c)


def _times(a: int, b, width: int) -> int:
    """a times b, a packed int or a leaf value's terms: then a's shifted copies,
    the same int, as a packed value is sum(coefficient << field * width)."""
    if b.__class__ is int:
        return a * b
    p = 0
    for k, c in b:
        t = a << k * width
        p = p + t if c == 1 else p - t if c == -1 else p + c * t
    return p


def _absorb(s: _Tensor, x: _Tensor, size: int) -> list:
    """The packed values of the spider ``s`` after it absorbs the rank-1
    ``x``, ``size`` patterns left.  Each is symmetric in the spider's values
    and the state's, so the spider's terms serve when the state has none."""
    swap = s.terms and not x.terms
    (v0, v1), (x0, x1) = (x.data, s.terms) if swap else (s.data, x.terms or x.data)
    w = s.fields.width
    if size == 1:
        return [_times(v0, x0, w) + _times(v1, x1, w)]
    if s.spider == Z:
        return [_times(v0, x0, w), _times(v1, x1, w)]
    return [_times(v0, x0, w) + _times(v1, x1, w), _times(v1, x0, w) + _times(v0, x1, w)]


def _dense(t: _Tensor, size: int) -> _Tensor:
    """The ``size`` entries of a spider ``t`` (COPY with zeros between,
    PARITY by doubling); any other tensor as it is."""
    if not t.spider:
        return t
    v0, v1 = t.data
    if t.spider == Z:
        data = [v0] + [0] * (size - 2) + [v1]
    else:
        data, odd = [v0], [v1]
        while len(data) < size:
            data, odd = data + odd, odd + data
    return _Tensor(t.axes, t.den, data, t.bits, t.fields)


def _spider_tensor_fresh(kind: NodeKind, degree: int, ring) -> tuple:
    """A leaf's ``ring.pack`` fields: an H box's four entries, a spider's
    two values and colour, or the one entry of a spider with no legs."""
    if kind.kind == H:
        den, s = ring.inv_sqrt2_pow(1)
        return ring.pack(den, (s, s, s, -s))
    ph = ring.phase(kind.phase)
    if kind.kind == Z:  # 1 at all-zeros, e^{ia} at all-ones
        den, values = 1, (ring.one, ph)
    else:  # (1/sqrt2)^degree (1 + e^{ia} (-1)^popcount)
        den, scale = ring.inv_sqrt2_pow(degree)
        values = (ring.mul(scale, ring.one + ph), ring.mul(scale, ring.one - ph))
    if not degree:  # the empty pattern is all-zeros, all-ones and even
        return ring.pack(den, (sum(values) if kind.kind == Z else values[0],))
    return ring.pack(den, values, kind.kind)


# (modulus, kind, phase, degree) -> a leaf's ``ring.pack`` fields (tuples: calls share them)
_TENSOR_CACHE: dict[tuple, tuple] = {}
_PIECES = {Z: zspider(), X: xspider()}  # a chain piece after the first, and a wire (Z)


def _leaf_tensor(kind: NodeKind, degree: int, ring) -> tuple:
    """The ``ring.pack`` fields of a spider or H box with ``degree`` legs."""
    if isinstance(kind.phase, float):  # a float angle rarely recurs: not cached
        return _spider_tensor_fresh(kind, degree, ring)
    key = (ring.modulus, kind.kind, kind.phase, degree)
    if (packed := _TENSOR_CACHE.get(key)) is None:
        if len(_TENSOR_CACHE) >= TENSOR_CACHE_SIZE:  # drop the oldest
            del _TENSOR_CACHE[next(iter(_TENSOR_CACHE))]
        packed = _TENSOR_CACHE[key] = _spider_tensor_fresh(kind, degree, ring)
    return packed


def _offsets(axes, subset) -> list[int]:
    """out[i] = the flat offset, in a tensor over ``axes``, of bit pattern i
    over ``subset`` (bit 0 = the last axis of ``subset``)."""
    top = len(axes) - 1
    out = [0]
    for a in reversed(subset):
        step = 1 << (top - axes.index(a))
        out += [o + step for o in out]
    return out


def _pair_layout(a1, a2) -> tuple:
    """The axes of the contraction of tensors over ``a1`` and ``a2`` (the
    free ones of each in turn) and the offset layout that ``_products`` reads."""
    in1, in2 = set(a1), set(a2)
    shared = [a for a in a1 if a in in2]
    f1 = [a for a in a1 if a not in in2]
    f2 = [a for a in a2 if a not in in1]
    return f1 + f2, (_offsets(a1, f1), _offsets(a2, f2), _offsets(a1, shared),
                     _offsets(a2, shared))


def _contract_pair(t1: _Tensor, t2: _Tensor, ring) -> _Tensor:
    """Sum over the shared axes, in either ring (``ring.contract``)."""
    return ring.contract(t1, t2, *_pair_layout(t1.axes, t2.axes))


def _z_view(layout, z_first: bool) -> tuple:
    """A pair layout as a Z step reads it: the other operand's free offsets and
    all-ones shared offset, and the Z leaf's free pattern count and slices."""
    b1, b2, sh1, sh2 = layout
    if z_first:
        return b2, sh2[-1], len(b1), (slice(0, len(b2)), slice((len(b1) - 1) * len(b2), None))
    return b1, sh1[-1], len(b2), (slice(0, None, len(b2)), slice(len(b2) - 1, None, len(b2)))


def _products(d1, d2, b1, b2, sh1, sh2, zero) -> list:
    """Each output entry's sum of products, for entries that add and
    multiply as Python numbers (complex, or packed ints left unreduced);
    ``zero`` fills the entries with no non-zero product."""
    n_f2 = len(b2)
    data = [zero] * (len(b1) * n_f2)
    for i1, base1 in enumerate(b1):
        row = i1 * n_f2
        pairs = [(v1, o2) for o1, o2 in zip(sh1, sh2) if (v1 := d1[base1 + o1])]
        for i2, base2 in enumerate(b2):
            acc = None
            for v1, o2 in pairs:
                v2 = d2[base2 + o2]
                if not v2:
                    continue
                term = v1 * v2
                acc = term if acc is None else acc + term
            if acc is not None:
                data[row + i2] = acc
    return data


@dataclass
class ContractionPlan:
    """Pairwise contraction order (indices into a growing tensor list)."""

    steps: list[tuple[int, int]]
    peak_rank: int


def _plan_greedy(axes_list: list[list[str]], max_rank: int) -> ContractionPlan:
    """Greedy pairwise order minimizing intermediate rank.

    Merging tensors i and j leaves the symmetric difference of their axis
    sets under the next free id, so an axis repeated within one list counts
    once and stays open (``_tensor_axes`` makes none).  Each step merges the
    live pair with the least ``(result rank, i, j)`` among pairs sharing an
    axis, or, when none share one, the least ``(|A| + |B|, i, j)``.  An
    index from each axis to its live holders seeds a heap with the sharing
    pairs; a merge pushes the new tensor's pairs, ranked by counting the axes
    each holder of its axes shares with it, and drops consumed ones lazily.
    Once the heap is empty no live pair shares an axis, and none will again.
    """
    for axes in axes_list:
        if len(axes) > max_rank:
            raise ResourceLimitError(
                f"node tensor rank {len(axes)} exceeds cap {max_rank}")
    n = len(axes_list)
    if n < 2:
        return ContractionPlan([], len(set(axes_list[0])) if n else 0)
    if n == 2:  # the common case has one possible step: build no index or heap
        a, b = map(set, axes_list)
        rank = len(a ^ b)
        if rank > max_rank:
            raise ResourceLimitError(f"planned rank {rank} exceeds cap {max_rank}")
        return ContractionPlan([(0, 1)], max(len(a), len(b), rank))
    sets: list[Optional[set[str]]] = [set(a) for a in axes_list]
    peak = max(map(len, sets))

    holders: dict[str, list[int]] = {}  # each live holder once
    for i, s in enumerate(sets):
        for a in s:
            holders.setdefault(a, []).append(i)
    heap = [(len(s ^ sets[j]), i, j) for i, s in enumerate(sets)
            for j in {j for a in s for j in holders[a] if j > i}]
    heapq.heapify(heap)
    steps: list[tuple[int, int]] = []
    for _ in range(len(sets) - 1):
        while heap and (sets[heap[0][1]] is None or sets[heap[0][2]] is None):
            heapq.heappop(heap)
        if heap:
            _, i, j = heapq.heappop(heap)
        else:
            live = [(len(s), k) for k, s in enumerate(sets) if s is not None]
            i, j = sorted(k for _, k in heapq.nsmallest(2, live))
        merged = (si := sets[i]) ^ (sj := sets[j])
        rank = len(merged)
        if rank > max_rank:
            raise ResourceLimitError(f"planned rank {rank} exceeds cap {max_rank}")
        peak = max(peak, rank)
        sets[i] = sets[j] = None
        for a in si & sj:  # cancelled
            holders[a].remove(i)
            holders[a].remove(j)
        new, shared = len(sets), {}  # live neighbour k -> |merged & S_k|
        for a in merged:
            held = holders[a]
            held.remove(i if a in si else j)
            for k in held:
                shared[k] = shared.get(k, 0) + 1
            held.append(new)
        for k, c in shared.items():  # |merged ^ S_k|
            heapq.heappush(heap, (rank + len(sets[k]) - 2 * c, k, new))
        sets.append(merged)
        steps.append((i, j))
    return ContractionPlan(steps, peak)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

Scalar = Union[CycloScalar, complex]


class SemanticMatrix:
    """A 2^m x 2^n matrix; row bits are outputs (output 0 most significant).

    An exact matrix from ``interpret`` or ``node_tensor`` keeps the kernel's
    form of its entries, one denominator and the packed values in row-major
    order, and makes the ``CycloScalar``s of ``entries`` when they are
    first read; treat a matrix as immutable.  Matrices compare by value and
    are unhashable."""

    __hash__ = None

    def __init__(self, entries: list[list[Scalar]], n_inputs: int, m_outputs: int,
                 backend: str, modulus: Optional[int] = None):
        self._entries = entries
        self.n_inputs = n_inputs
        self.m_outputs = m_outputs
        self.backend = backend
        self.modulus = modulus
        self._kernel: Optional[tuple[int, list[int], FieldLayout]] = None

    @classmethod
    def _packed(cls, den: int, data: list[int], fields: FieldLayout, n_inputs: int,
                m_outputs: int) -> "SemanticMatrix":
        m = cls(None, n_inputs, m_outputs, EXACT, fields.modulus)
        m._kernel = (den, data, fields)
        return m

    @property
    def entries(self) -> list[list[Scalar]]:
        if self._entries is None:
            den, data, fields = self._kernel
            cols = self.cols
            self._entries = [[fields.scalar(v, den) for v in data[r:r + cols]]
                             for r in range(0, len(data), cols)]
        return self._entries

    def _key(self) -> tuple:
        return self.entries, self.n_inputs, self.m_outputs, self.backend, self.modulus

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.backend == other.backend == EXACT:  # lifted to one modulus, as compared
            self, other = _align(self, other)
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("SemanticMatrix(entries={!r}, n_inputs={!r}, m_outputs={!r}, backend={!r}, "
                "modulus={!r})".format(*self._key()))

    @property
    def rows(self) -> int:
        return 1 << self.m_outputs

    @property
    def cols(self) -> int:
        return 1 << self.n_inputs

    def entry(self, r: int, c: int) -> Scalar:
        return self.entries[r][c]

    def is_scalar(self) -> bool:
        return self.n_inputs == 0 and self.m_outputs == 0

    def scalar(self) -> Scalar:
        if not self.is_scalar():
            raise ValueError("matrix is not 1x1")
        return self.entries[0][0]

    def to_complex(self) -> list[list[complex]]:
        if self.backend == FLOAT:
            return [list(row) for row in self.entries]
        return [[e.to_complex() for e in row] for row in self.entries]

    def matmul(self, other: "SemanticMatrix") -> "SemanticMatrix":
        if other.m_outputs != self.n_inputs:
            raise ValueError("matrix composition dimension mismatch")
        a, b = _align(self, other)
        zero = CycloScalar.zero(a.modulus) if a.backend == EXACT else complex(0)
        ents = []
        for r in range(a.rows):
            row = []
            for c in range(b.cols):
                acc = zero
                for k in range(a.cols):
                    acc = acc + a.entries[r][k] * b.entries[k][c]
                row.append(acc)
            ents.append(row)
        return SemanticMatrix(ents, b.n_inputs, a.m_outputs, a.backend, a.modulus)

    def kron(self, other: "SemanticMatrix") -> "SemanticMatrix":
        a, b = _align(self, other)
        ents = []
        for r1 in range(a.rows):
            for r2 in range(b.rows):
                row = []
                for c1 in range(a.cols):
                    for c2 in range(b.cols):
                        row.append(a.entries[r1][c1] * b.entries[r2][c2])
                ents.append(row)
        return SemanticMatrix(ents, a.n_inputs + b.n_inputs, a.m_outputs + b.m_outputs,
                              a.backend, a.modulus)

    def entry_str(self, r: int, c: int) -> str:
        """Entry (r, c) as text; a rational exact entry is a plain fraction."""
        e = self.entries[r][c]
        if self.backend == EXACT:
            coeffs = e.canonical()
            return str(e) if any(coeffs[1:]) else str(coeffs[0])
        sign = "+" if e.imag >= 0 else "-"
        return f"{e.real:.12g}{sign}{abs(e.imag):.12g}i"


def _align(a: SemanticMatrix, b: SemanticMatrix) -> tuple[SemanticMatrix, SemanticMatrix]:
    if a.backend != b.backend:
        raise ValueError("cannot combine exact and float matrices")
    if a.backend == EXACT and a.modulus != b.modulus:
        M = _capped(math.lcm(a.modulus, b.modulus))
        return _lift_matrix(a, M), _lift_matrix(b, M)
    return a, b


def _lift_matrix(m: SemanticMatrix, M: int) -> SemanticMatrix:
    if m.modulus == M:
        return m
    ents = [[lift_modulus(e, M) for e in row] for row in m.entries]
    return SemanticMatrix(ents, m.n_inputs, m.m_outputs, m.backend, M)


# ---------------------------------------------------------------------------
# interpretation
# ---------------------------------------------------------------------------

def _matrix(t: _Tensor, ring, rows: tuple, cols: tuple) -> SemanticMatrix:
    """The matrix whose entry (r, c) is ``t``'s at offset rows[r] + cols[c]."""
    flat = [t.data[r + c] for r in rows for c in cols]
    return ring.matrix(t.den, flat, t.fields, len(cols).bit_length() - 1,
                       len(rows).bit_length() - 1)


def node_tensor(kind: NodeKind, n_in: int, n_out: int, backend: str = EXACT,
                modulus: Optional[int] = None) -> SemanticMatrix:
    """The generator matrix for a single spider or H box."""
    if kind.kind == H and (n_in, n_out) != (1, 1):
        raise ValueError("H box is a 1 -> 1 generator")
    if backend == EXACT and modulus is None:
        modulus = field_modulus(kind.phase.den) if phase_is_exact(kind.phase) else 8
    ring = _exact_ring(modulus) if backend == EXACT else _FLOAT_RING
    # legs ordered inputs then outputs (symmetric tensors make the order moot),
    # so the output bits are the low ones
    leaf = _Tensor(None, *_leaf_tensor(kind, n_in + n_out, ring))
    return _matrix(_dense(leaf, 1 << (n_in + n_out)), ring,
                   range(1 << n_out), range(0, 1 << (n_in + n_out), 1 << n_out))


def _tensor_axes(d: Diagram, max_rank: int) -> list[tuple]:
    """One ``(kind, axes, source)`` per leaf tensor: the nodes in sorted id
    order, then one per port-to-port wire.

    Edge k between two nodes shares axis ``e<k>``; an edge end at a port is
    named after the port so the open axis is identifiable.  A self-loop is
    dropped (exact for Z and X spiders; validation refuses an H box's).  A
    spider with more than ``max(3, min(8, max_rank))`` legs becomes a chain
    of that colour joined by fresh axes ``s<j>``, its phase on the first
    piece (source: the node id) and 0 on the rest (``(node id,)``).  A
    port-to-port wire (``()``) is the identity, a phase-0 Z spider of degree 2.
    """
    ports = d.ports()
    node_axes: dict[str, list[str]] = {n: [] for n in d.nodes}
    wires = []
    for k, (a, b) in enumerate(d.edges):
        a_port, b_port = a in ports, b in ports
        if a_port and b_port:
            wires.append((_PIECES[Z], [f"p:{a}", f"p:{b}"], ()))
        elif a_port:
            node_axes[b].append(f"p:{a}")
        elif b_port:
            node_axes[a].append(f"p:{b}")
        elif a != b:
            node_axes[a].append(f"e{k}")
            node_axes[b].append(f"e{k}")
    limit = max(3, min(8, max_rank))
    leaves = []
    for n in sorted(d.nodes):
        kind, axes, source = d.nodes[n], node_axes[n], n
        while len(axes) > limit:
            link = f"s{len(leaves)}"
            leaves.append((kind, axes[:limit - 1] + [link], source))
            kind, axes, source = _PIECES[kind.kind], [link] + axes[limit - 1:], (n,)
        leaves.append((kind, axes, source))
    return leaves + wires


class _ProgramMemo(dict):
    """Programs by ``key``, oldest first: (steps (i, j, layout), peak rank,
    output and input offsets, each leaf's (source, axes)), ``leaves`` leaves
    in all.  ``sizes`` counts them by node count, so that most diagrams of
    one or two nodes (one or two leaves, not stored) build no key."""

    def __init__(self):
        super().__init__()
        self.leaves, self.sizes = 0, Counter()

    @staticmethod
    def key(d: Diagram, max_rank: int) -> tuple:
        """All that ``d``'s program and validity depend on: the edges in order,
        the ports, each node id and whether it is an H box, and the cap; no
        colour, and no phase (a ``NodeKind`` cannot hold a non-finite one)."""
        return (tuple(d.edges), tuple(d.inputs), tuple(d.outputs),
                tuple([(n, kind.kind == H) for n, kind in d.nodes.items()]), max_rank)

    def put(self, key: tuple, prog: tuple) -> None:
        while self and self.leaves + len(prog[3]) > PROGRAM_CACHE_LEAVES:
            oldest = next(iter(self), None)
            if (old := self.pop(oldest, None)) is not None:  # None when threads raced
                self.leaves -= len(old[3])
                self.sizes[len(oldest[3])] -= 1
        self[key] = prog
        self.leaves += len(prog[3])
        self.sizes[len(key[3])] += 1


_PROGRAM_CACHE = _ProgramMemo()


def _program(d: Diagram, max_rank: int) -> tuple:
    """The program of the valid diagram ``d``, with each leaf's (kind, axes,
    source); stored when it has three to ``PROGRAM_CACHE_LEAVES`` leaves."""
    leaves = _tensor_axes(d, max_rank)
    axes_list = [axes for _, axes, _ in leaves]
    n = len(axes_list)
    plan = _plan_greedy(axes_list, max_rank)
    if n == 2:  # one step, rebuilt per call: lists will do
        final, layout = _pair_layout(*axes_list)
        steps = [(0, 1, layout)]
    else:  # no step, or ones to store as tuples
        pool, steps = dict(enumerate(axes_list)), []
        for new, (i, j) in enumerate(plan.steps, n):
            pool[new], layout = _pair_layout(pool.pop(i), pool.pop(j))
            steps.append((i, j, tuple(map(tuple, layout))))
        final = pool.popitem()[1] if pool else ()
    # a valid diagram's ports are exactly the open axes, each once
    order = (_offsets(final, [f"p:{p}" for p in d.outputs]),
             _offsets(final, [f"p:{p}" for p in d.inputs]))
    if not 2 < n <= PROGRAM_CACHE_LEAVES:
        return steps, plan.peak_rank, order, leaves
    _PROGRAM_CACHE.put(_ProgramMemo.key(d, max_rank), (
        tuple(steps), plan.peak_rank, tuple(map(tuple, order)),
        tuple([(source, tuple(axes)) for _, axes, source in leaves])))
    return steps, plan.peak_rank, order, leaves


def plan_contraction(d: Diagram, max_rank: int = DEFAULT_MAX_RANK) -> ContractionPlan:
    """The contraction order and peak rank that ``interpret`` follows for ``d``;
    raises ``DiagramError`` for a malformed ``d``, as ``interpret`` does."""
    prog = _PROGRAM_CACHE.get(_ProgramMemo.key(d, max_rank)) or _program(ensure_valid(d), max_rank)
    return ContractionPlan([(i, j) for i, j, _ in prog[0]], prog[1])


def interpret(d: Diagram, backend: str = EXACT, max_rank: int = DEFAULT_MAX_RANK) -> SemanticMatrix:
    """Contract the diagram to its 2^m x 2^n standard-interpretation matrix."""
    memo = _PROGRAM_CACHE
    prog = memo.sizes.get(len(d.nodes)) and memo.get(memo.key(d, max_rank))
    if prog:  # a stored shape: valid and planned; a later chain piece has phase 0
        ring, nodes = _ring_for(d, backend), d.nodes
        steps, _, order, sources = prog
        leaves = [(nodes[s] if s.__class__ is str else _PIECES[nodes[s[0]].kind if s else Z],
                   axes, s) for s, axes in sources]
    else:
        ring = _ring_for(ensure_valid(d), backend)
        steps, _, order, leaves = _program(d, max_rank)
    pool = {i: _Tensor(axes, *_leaf_tensor(kind, len(axes), ring))
            for i, (kind, axes, _) in enumerate(leaves)}
    if ring is _FLOAT_RING:  # spider steps are the exact kernel's alone
        pool = {i: _dense(t, 1 << len(t.axes)) for i, t in pool.items()}
    n = len(leaves)
    for new, (i, j, layout) in enumerate(steps, n):
        t1, t2 = pool.pop(i), pool.pop(j)
        b1, b2, sh1, sh2 = layout
        if t1.spider and len(sh2) == 2 and len(b2) == 1:  # t2: rank 1, on t1
            pool[new] = ring.absorb(t1, t2, len(b1))
        elif t2.spider and len(sh1) == 2 and len(b1) == 1:
            pool[new] = ring.absorb(t2, t1, len(b2))
        elif i < n and t1.spider == Z:  # a Z leaf, not a spider that absorbed states
            pool[new] = ring.contract_z(t1, _dense(t2, len(b2) * len(sh2)), None, layout, True)
        elif j < n and t2.spider == Z:
            pool[new] = ring.contract_z(t2, _dense(t1, len(b1) * len(sh1)), None, layout, False)
        else:
            pool[new] = ring.contract(_dense(t1, len(b1) * len(sh1)),
                                      _dense(t2, len(b2) * len(sh2)), None, layout)
    final = pool.popitem()[1] if pool else _Tensor([], *ring.pack(1, [ring.one]))
    return _matrix(_dense(final, len(order[0]) * len(order[1])), ring, *order)


# ---------------------------------------------------------------------------
# graphical invariants
# ---------------------------------------------------------------------------

def _invariant(d: Diagram, colour: str) -> int:
    degree = d.edge_counts()[0]
    return sum(kind.kind == H or (kind.kind == colour and degree.get(n, 0) % 2 == 1)
               for n, kind in d.nodes.items()) % 2


def invariant_r(d: Diagram) -> int:
    """Parity of (# odd-degree X spiders) + (# H boxes)."""
    return _invariant(d, X)


def invariant_g(d: Diagram) -> int:
    """Parity of (# odd-degree Z spiders) + (# H boxes)."""
    return _invariant(d, Z)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

@dataclass
class CompareResult:
    equal: bool
    witness: Optional[tuple[int, int, str, str]] = None  # the first differing entry
    sound = property(lambda self: self.equal)  # the name rule checks read

    def __bool__(self) -> bool:
        return self.equal


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be a finite positive number")


def matrix_compare(a: SemanticMatrix, b: SemanticMatrix,
                   tol: float = DEFAULT_TOLERANCE) -> CompareResult:
    """Exact equality for exact backends, entrywise |delta| <= tol otherwise;
    ``tol`` must be a finite positive number."""
    _check_tolerance(tol)
    if (a.n_inputs, a.m_outputs) != (b.n_inputs, b.m_outputs):
        raise ValueError("matrix dimensions differ")
    if a.backend == EXACT and b.backend == EXACT:
        if a._kernel is not None and a._kernel == b._kernel:
            return CompareResult(True)  # one packed form, one ring element
        aa, bb = _align(a, b)
        rows_a, rows_b, differs = aa.entries, bb.entries, operator.ne
    else:
        rows_a, rows_b = a.to_complex(), b.to_complex()
        differs = lambda x, y: abs(x - y) > tol
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for c, (x, y) in enumerate(zip(row_a, row_b)):
            if differs(x, y):
                return CompareResult(False, (r, c, str(x), str(y)))
    return CompareResult(True)


def is_zero(a: SemanticMatrix, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Every entry zero, or of modulus at most ``tol`` on the float backend;
    ``tol`` must be a finite positive number."""
    _check_tolerance(tol)
    if a.backend == EXACT:
        return all(e.is_zero() for row in a.entries for e in row)
    return all(abs(e) <= tol for row in a.entries for e in row)
