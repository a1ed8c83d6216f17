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
rescoring after each merge only the pairs of the new tensor.

The float backend stores complex entries.  The exact backend has one
kernel for every modulus M (divisible by 8).  zeta_M^(M/2) = -1, so Phi_M
divides X^(M/2) + 1 and the negacyclic ring Z[X]/(X^(M/2) + 1) maps onto
Z[zeta_M]; contraction runs in that ring.  Each tensor has one
power-of-two denominator and each entry is one Python int holding its M/2
signed coefficients in fixed-width fields (``cyclotomic.FieldLayout``).
The products of an output entry are bigint multiplies summed into one int,
reduced modulo X^(M/2) + 1 by a biased mask, a shift and a subtraction;
lowest terms take a parity mask and a shift.  A bound on each tensor's
values keeps every field from spilling into the next, widening the fields
when needed.  Leaves are built in the ring itself (``_ExactRing``) and
cached.

``interpret`` returns a ``SemanticMatrix`` that keeps the final
denominator and packed entries; it reduces an entry modulo Phi_M into a
``CycloScalar`` only when ``entries`` is first read, and at a power-of-two
M that reduction does nothing.  ``matrix_compare`` decides two matrices of
identical kernel form equal without making any scalar.  All backends share
the axis bookkeeping and the inner loop of a contraction.  The modulus is
capped at ``MAX_MODULUS``.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

from .cyclotomic import (
    CycloScalar, FieldLayout, ModulusError, _check_modulus, lift_modulus,
)
from .diagram import (
    Diagram, NodeKind, Phase, PiRational, H, X, Z,
    ensure_valid, phase_is_exact, phase_radians, zspider,
)

EXACT, FLOAT = "exact", "float"
DEFAULT_MAX_RANK = 16


class BackendError(ValueError):
    """Raised when the exact backend is asked to handle a float phase."""


class ResourceLimitError(RuntimeError):
    """Raised when contraction would exceed the configured tensor rank cap,
    or a field would exceed the modulus cap."""


# ---------------------------------------------------------------------------
# scalar backends
# ---------------------------------------------------------------------------
# A ring builds leaf tensors from its leaf scalars (``one``, ``zero``,
# ``phase``, ``inv_sqrt2_pow`` and ``mul``) and stores tensors in its own
# form: ``pack`` turns a leaf's denominator and scalars into the ``_Tensor``
# fields after the axes (``den``, ``data`` and, for exact tensors, ``bits``
# and ``fields``), ``contract`` runs the inner loop of a pairwise
# contraction, and ``matrix`` makes the final ``SemanticMatrix``.  The float
# ring stores plain complex numbers, the exact ring packed ints
# (``cyclotomic.FieldLayout``).

# Bounds of the module caches: the four benchmark workloads use at most 10
# rings and about 2,000 leaf tensors.
RING_CACHE_SIZE = 64
TENSOR_CACHE_SIZE = 4096

# The largest modulus the exact backend builds a field for.  Tests use at
# most 1,040 and the benchmark 312; the field of phase 1/99991 (M = 799,928)
# takes seconds to build and its values are 400k coefficients long.
MAX_MODULUS = 65536

# Bits per coefficient field of a packed tensor; a tensor whose coefficient
# bound outgrows its fields is re-encoded in wider ones (a multiple of this).
FIELD_WIDTH = 32


def _bounded_put(cache: dict, key, value, limit: int):
    """Store ``value`` under ``key``, first dropping the oldest entry if the
    cache holds ``limit`` of them; returns ``value``."""
    if len(cache) >= limit:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


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
    read, by ``FieldLayout.scalar``.

    Each tensor carries a bound ``bits``: no entry's norm
    (``cyclotomic.FieldLayout``) exceeds 2^bits.  It is exact for leaves;
    after a product it is b1 + b2 + the number of shared axes (a sum of
    2^shared products), less the factors of 2 divided out.  When a result's
    bound would pass its fields' limit, ``fit`` recomputes the operands'
    bounds exactly and, if that is not enough, re-encodes them in wider
    fields, so no field ever spills into its neighbour."""

    one, zero = 1, 0

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

    def phase(self, phase: Phase) -> int:
        if not isinstance(phase, PiRational):
            raise BackendError("exact backend requires exact phases")
        M, n = self.modulus, self.modulus // 2
        if M % (2 * phase.den):
            raise ModulusError(f"modulus {M} not divisible by 2*{phase.den}")
        j = phase.num * (M // (2 * phase.den)) % M
        return (1 << j * FIELD_WIDTH) if j < n else -(1 << (j - n) * FIELD_WIDTH)

    def inv_sqrt2_pow(self, k: int) -> tuple[int, int]:
        """(1/sqrt2)^k as a denominator and a leaf scalar."""
        return (1 << k // 2, 1) if k % 2 == 0 else (1 << (k + 1) // 2, self._root2)

    def mul(self, a: int, b: int) -> int:
        return self.leaf_fields.reduce(a * b)

    def pack(self, den: int, values) -> tuple:
        """A leaf's fields in lowest terms; each distinct value is one shared int."""
        fields = self.leaf_fields
        distinct = set(values)
        den, strip = fields.lowest_terms(list(distinct), den)
        shared = {v: v >> strip for v in distinct}
        return den, tuple(map(shared.get, values)), fields.bits(shared.values()), fields

    def fit(self, tensors, extra: int):
        """``tensors`` in one layout whose fields hold a result bounded by
        ``sum(bits) + extra``, their bounds recomputed exactly, re-encoding
        those in another layout."""
        for t in tensors:
            t.bits = t.fields.bits(t.data)
        fields = self.fields(sum(t.bits for t in tensors) + extra)
        return [t if t.fields is fields else _Tensor(
                    t.axes, t.den, [fields.encode(t.fields.decode(v)) for v in t.data],
                    t.bits, fields)
                for t in tensors]

    def contract(self, t1: "_Tensor", t2: "_Tensor", axes: list[str], layout) -> "_Tensor":
        extra = len(layout[2]).bit_length() - 1  # the number of shared axes
        if t1.fields is not t2.fields or t1.bits + t2.bits + extra > t1.fields.limit:
            t1, t2 = self.fit((t1, t2), extra)
        data = _products(t1.data, t2.data, *layout, 0)
        den, strip = t1.fields.reduce_in_lowest_terms(data, t1.den * t2.den)
        return _Tensor(axes, den, data, t1.bits + t2.bits + extra - strip, t1.fields)

    @staticmethod
    def matrix(den: int, data: list, fields: FieldLayout, n_in: int, n_out: int):
        # already in lowest terms: at a power-of-two M this form is canonical
        return SemanticMatrix._packed(den, data, fields, n_in, n_out)


_RING_CACHE: dict[int, _ExactRing] = {}


def _exact_ring(modulus: int) -> _ExactRing:
    ring = _RING_CACHE.get(modulus)
    if ring is None:
        ring = _bounded_put(_RING_CACHE, modulus, _ExactRing(_capped(modulus)), RING_CACHE_SIZE)
    return ring


class _FloatRing:
    modulus = None
    zero = complex(0)
    one = complex(1)
    mul = staticmethod(operator.mul)

    @staticmethod
    def phase(phase: Phase) -> complex:
        return cmath.exp(1j * phase_radians(phase))

    @staticmethod
    def inv_sqrt2_pow(k: int) -> tuple[int, complex]:
        return 1, complex(2 ** (-k / 2.0))

    @staticmethod
    def pack(den: int, values) -> tuple[int, tuple]:
        return 1, tuple(values)

    @staticmethod
    def contract(t1: "_Tensor", t2: "_Tensor", axes: list[str], layout) -> "_Tensor":
        return _Tensor(axes, 1, _products(t1.data, t2.data, *layout, complex(0)))

    @staticmethod
    def matrix(den: int, data: list, fields, n_in: int, n_out: int):
        cols = 1 << n_in
        return SemanticMatrix([data[r:r + cols] for r in range(0, len(data), cols)],
                              n_in, n_out, FLOAT)


def choose_modulus(d: Diagram) -> int:
    """Smallest modulus M = lcm(8, 2*den(phase) for all spider phases);
    raises ``ResourceLimitError`` above ``MAX_MODULUS``."""
    M = 8
    for p in d.phases():
        if not phase_is_exact(p):
            raise BackendError("diagram has a float phase; exact backend unavailable")
        M = _capped(math.lcm(M, 2 * p.den))
    return M


_FLOAT_RING = _FloatRing()


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
    """Entries over axes (the first axis most significant) in a ring's
    storage form, all divided by ``den``; a packed tensor also has its
    ``fields`` and a bound ``bits`` on its entries' norm (``_ExactRing``).

    A packed tensor is in lowest terms: ``den`` is 1 or some coefficient of
    some entry is odd.  ``_ExactRing.pack`` strips each leaf once, when it
    is built, and each contraction strips its result."""

    __slots__ = ("axes", "den", "data", "bits", "fields")

    def __init__(self, axes: list[str], den: int, data, bits: int = 0,
                 fields: Optional[FieldLayout] = None):
        self.axes = axes
        self.den = den
        self.data = data
        self.bits = bits
        self.fields = fields


def _spider_tensor_fresh(kind: NodeKind, degree: int, ring) -> tuple:
    if kind.kind == H:
        den, s = ring.inv_sqrt2_pow(1)
        return ring.pack(den, (s, s, s, -s))
    ph = ring.phase(kind.phase)
    size = 1 << degree
    if kind.kind == Z:
        if degree == 0:
            return ring.pack(1, (ring.one + ph,))
        data = [ring.zero] * size
        data[0] = ring.one
        data[size - 1] = ph
        return ring.pack(1, data)
    # X spider: (1/sqrt2)^degree * (1 + e^{ia} * (-1)^popcount)
    den, scale = ring.inv_sqrt2_pow(degree)
    plus = ring.mul(scale, ring.one + ph)
    minus = ring.mul(scale, ring.one - ph)
    return ring.pack(den, [plus if bin(i).count("1") % 2 == 0 else minus for i in range(size)])


# (modulus, kind, phase, degree) -> a leaf's ``ring.pack`` fields
_TENSOR_CACHE: dict[tuple, tuple] = {}


def _leaf_tensor(kind: NodeKind, degree: int, ring) -> tuple:
    """The ``ring.pack`` fields of a spider or H box with ``degree`` legs."""
    if isinstance(kind.phase, float):  # a float angle rarely recurs: not cached
        return _spider_tensor_fresh(kind, degree, ring)
    key = (ring.modulus, kind.kind, kind.phase, degree)
    packed = _TENSOR_CACHE.get(key)
    if packed is None:
        packed = _bounded_put(_TENSOR_CACHE, key, _spider_tensor_fresh(kind, degree, ring),
                              TENSOR_CACHE_SIZE)
    return packed


def _offsets(axes: list[str], subset: list[str]) -> list[int]:
    """out[i] = the flat offset, in a tensor over ``axes``, of bit pattern i
    over ``subset`` (bit 0 = the last axis of ``subset``)."""
    top = len(axes) - 1
    out = [0]
    for a in reversed(subset):
        step = 1 << (top - axes.index(a))
        out += [o + step for o in out]
    return out


def _contract_pair(t1: _Tensor, t2: _Tensor, ring) -> _Tensor:
    """Sum over the shared axes; the result's axes are t1's free axes, then
    t2's.  The axis bookkeeping is common to both rings; each calls the
    shared inner loop ``_products`` (``ring.contract``).  The result's axes
    are the symmetric difference whose rank ``_plan_greedy`` capped."""
    a1, a2 = t1.axes, t2.axes
    in1, in2 = set(a1), set(a2)
    shared = [a for a in a1 if a in in2]
    f1 = [a for a in a1 if a not in in2]
    f2 = [a for a in a2 if a not in in1]
    layout = (_offsets(a1, f1), _offsets(a2, f2), _offsets(a1, shared), _offsets(a2, shared))
    return ring.contract(t1, t2, f1 + f2, layout)


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
    pairs; a merge pushes only the new tensor's pairs and drops consumed ones
    lazily.  Once the heap is empty no live pair shares an axis, and none
    will again.
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

    holders: dict[str, set[int]] = {}
    for i, s in enumerate(sets):
        for a in s:
            holders.setdefault(a, set()).add(i)
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
        merged = sets[i] ^ sets[j]
        rank = len(merged)
        if rank > max_rank:
            raise ResourceLimitError(f"planned rank {rank} exceeds cap {max_rank}")
        peak = max(peak, rank)
        for k in (i, j):
            for a in sets[k]:
                holders[a].discard(k)
            sets[k] = None
        new = len(sets)
        for k in {k for a in merged for k in holders[a]}:
            heapq.heappush(heap, (len(merged ^ sets[k]), k, new))
        for a in merged:
            holders[a].add(new)
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

def _matrix(t: _Tensor, ring, inputs: list[str], outputs: list[str]) -> SemanticMatrix:
    """The matrix of ``t``: rows over the output axes and columns over the
    input axes (the first of each most significant)."""
    cols = _offsets(t.axes, inputs)
    flat = [t.data[r + c] for r in _offsets(t.axes, outputs) for c in cols]
    return ring.matrix(t.den, flat, t.fields, len(inputs), len(outputs))


def node_tensor(kind: NodeKind, n_in: int, n_out: int, backend: str = EXACT,
                modulus: Optional[int] = None) -> SemanticMatrix:
    """The generator matrix for a single spider or H box."""
    if kind.kind == H and (n_in, n_out) != (1, 1):
        raise ValueError("H box is a 1 -> 1 generator")
    if backend == EXACT and modulus is None:
        modulus = math.lcm(8, 2 * kind.phase.den) if phase_is_exact(kind.phase) else 8
    ring = _exact_ring(modulus) if backend == EXACT else _FLOAT_RING
    # legs ordered inputs then outputs; symmetric tensors make the order moot
    inputs = [f"i{k}" for k in range(n_in)]
    outputs = [f"o{k}" for k in range(n_out)]
    return _matrix(_Tensor(inputs + outputs, *_leaf_tensor(kind, n_in + n_out, ring)), ring,
                   inputs, outputs)


def _tensor_axes(d: Diagram, max_rank: int) -> list[tuple[NodeKind, list[str]]]:
    """One ``(kind, axes)`` per leaf tensor: the nodes in sorted id order,
    then one per port-to-port wire.

    Edge k between two nodes shares axis ``e<k>``; an edge end at a port is
    named after the port so the open axis is identifiable.  A self-loop is
    dropped (exact for Z and X spiders; validation refuses an H box's).  A
    spider with more than ``max(3, min(8, max_rank))`` legs becomes a chain
    of that colour joined by fresh axes ``s<j>``, its phase on the first
    piece and 0 on the rest.  A port-to-port wire is the identity, a phase-0
    Z spider of degree 2.
    """
    ports = d.ports()
    node_axes: dict[str, list[str]] = {n: [] for n in d.nodes}
    wires = []
    for k, (a, b) in enumerate(d.edges):
        a_port, b_port = a in ports, b in ports
        if a_port and b_port:
            if a == b:
                raise BackendError("a boundary port cannot loop onto itself")
            wires.append((zspider(), [f"p:{a}", f"p:{b}"]))
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
        kind, axes = d.nodes[n], node_axes[n]
        while len(axes) > limit:
            link = f"s{len(leaves)}"
            leaves.append((kind, axes[:limit - 1] + [link]))
            kind, axes = NodeKind(kind.kind, PiRational(0)), [link] + axes[limit - 1:]
        leaves.append((kind, axes))
    return leaves + wires


def plan_contraction(d: Diagram, max_rank: int = DEFAULT_MAX_RANK) -> ContractionPlan:
    """The contraction order and peak rank that ``interpret`` follows for ``d``."""
    return _plan_greedy([axes for _, axes in _tensor_axes(d, max_rank)], max_rank)


def interpret(d: Diagram, backend: str = EXACT, max_rank: int = DEFAULT_MAX_RANK) -> SemanticMatrix:
    """Contract the diagram to its 2^m x 2^n standard-interpretation matrix."""
    ensure_valid(d)
    ring = _ring_for(d, backend)
    leaves = _tensor_axes(d, max_rank)
    plan = _plan_greedy([axes for _, axes in leaves], max_rank)

    pool = {i: _Tensor(axes, *_leaf_tensor(kind, len(axes), ring))
            for i, (kind, axes) in enumerate(leaves)}
    for new, (i, j) in enumerate(plan.steps, len(leaves)):
        pool[new] = _contract_pair(pool.pop(i), pool.pop(j), ring)
    final = pool.popitem()[1] if pool else _Tensor([], *ring.pack(1, [ring.one]))

    # order open axes: inputs then outputs, then reshape to a matrix
    inputs = [f"p:{p}" for p in d.inputs]
    outputs = [f"p:{p}" for p in d.outputs]
    if sorted(inputs + outputs) != sorted(final.axes):
        raise AssertionError("open axes do not match boundary ports")
    return _matrix(final, ring, inputs, outputs)


# ---------------------------------------------------------------------------
# graphical invariants
# ---------------------------------------------------------------------------

def _invariant(d: Diagram, colour: str) -> int:
    count = 0
    for n, kind in d.nodes.items():
        if kind.kind == H:
            count += 1
        elif kind.kind == colour and d.degree(n) % 2 == 1:
            count += 1
    return count % 2


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
    witness: Optional[tuple[int, int, str, str]] = None

    def __bool__(self) -> bool:
        return self.equal


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")


def matrix_compare(a: SemanticMatrix, b: SemanticMatrix, tol: float = 1e-9) -> CompareResult:
    """Exact equality for exact backends, entrywise |delta| <= tol otherwise;
    ``tol`` must be a finite positive number."""
    _check_tolerance(tol)
    if (a.n_inputs, a.m_outputs) != (b.n_inputs, b.m_outputs):
        raise ValueError("matrix dimensions differ")
    if a.backend == EXACT and b.backend == EXACT:
        if a._kernel is not None and a._kernel == b._kernel:
            return CompareResult(True)  # one packed form, one ring element
        aa, bb = _align(a, b)
        for r in range(aa.rows):
            for c in range(aa.cols):
                if aa.entries[r][c] != bb.entries[r][c]:
                    return CompareResult(False, (r, c, str(aa.entries[r][c]), str(bb.entries[r][c])))
        return CompareResult(True)
    ca, cb = a.to_complex(), b.to_complex()
    for r in range(len(ca)):
        for c in range(len(ca[0])):
            if abs(ca[r][c] - cb[r][c]) > tol:
                return CompareResult(False, (r, c, str(ca[r][c]), str(cb[r][c])))
    return CompareResult(True)


def is_zero(a: SemanticMatrix, tol: float = 1e-9) -> bool:
    """Every entry zero, or of modulus at most ``tol`` on the float backend;
    ``tol`` must be a finite positive number."""
    _check_tolerance(tol)
    if a.backend == EXACT:
        return all(e.is_zero() for row in a.entries for e in row)
    return all(abs(e) <= tol for row in a.entries for e in row)
