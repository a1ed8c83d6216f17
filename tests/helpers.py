"""Shared random generators and reference constructions for the tests."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from zxexact.cyclotomic import CycloScalar
from zxexact.diagram import Diagram, NodeKind, PiRational, _norm_edge, hbox, xspider, zspider
from zxexact.interpret import ContractionPlan, ResourceLimitError, _pair_layout


def random_diagram(rng: random.Random, max_nodes: int = 6, den: int = 4,
                   n_inputs: int | None = None, with_h: bool = True,
                   max_ports: int = 6) -> Diagram:
    """A random well-formed open diagram with spider phases on the pi/den grid.

    Stubs are paired into internal edges (self-loops permitted); leftovers
    become boundary ports.  H boxes always receive exactly two stubs.
    """
    d = Diagram()
    n = rng.randint(1, max_nodes)
    stubs: list[str] = []
    for i in range(n):
        name = f"n{i}"
        roll = rng.random()
        if with_h and roll < 0.15:
            d.nodes[name] = hbox()
            stubs += [name, name]
            continue
        phase = PiRational(rng.randrange(2 * den), den)
        d.nodes[name] = zspider(phase) if roll < 0.6 else xspider(phase)
        stubs += [name] * rng.randint(0, 3)
    rng.shuffle(stubs)
    port_stubs: list[str] = []
    while stubs:
        a = stubs.pop()
        is_h = d.nodes[a].kind == "H"
        partner = next((j for j in range(len(stubs) - 1, -1, -1)
                        if not (is_h and stubs[j] == a)), None)
        if partner is not None and (is_h or rng.random() < 0.55):
            d.add_edge(a, stubs.pop(partner))
        else:
            port_stubs.append(a)
    while len(port_stubs) > max_ports:
        a = port_stubs.pop()
        j = next((j for j in range(len(port_stubs) - 1, -1, -1)
                  if not (d.nodes[a].kind == "H" and port_stubs[j] == a)), None)
        if j is None:
            port_stubs.insert(0, a)
            break
        d.add_edge(a, port_stubs.pop(j))
    inputs, outputs = [], []
    for k, a in enumerate(port_stubs):
        if n_inputs is not None and len(inputs) < n_inputs:
            pid = f"i{len(inputs)}"
            inputs.append(pid)
        elif rng.random() < 0.5 and n_inputs is None:
            pid = f"i{len(inputs)}"
            inputs.append(pid)
        else:
            pid = f"o{len(outputs)}"
            outputs.append(pid)
        d.add_edge(a, pid)
    while n_inputs is not None and len(inputs) < n_inputs:
        # top up with wires straight through to outputs
        pid_i, pid_o = f"i{len(inputs)}", f"o{len(outputs)}"
        inputs.append(pid_i)
        outputs.append(pid_o)
        d.add_edge(pid_i, pid_o)
    d.inputs = tuple(inputs)
    d.outputs = tuple(outputs)
    return d


def plan_greedy_reference(axes_list: list[list[str]], max_rank: int) -> ContractionPlan:
    """The greedy contraction order by brute force: at every step, score every
    live pair by ``(0 if they share an axis else 1, result rank, i, j)`` and
    merge the least.  O(n^3); the oracle for ``interpret._plan_greedy``."""
    pool: dict[int, set[str]] = {i: set(a) for i, a in enumerate(axes_list)}
    # duplicated axes within one tensor resolve to the deduplicated open set
    steps: list[tuple[int, int]] = []
    for i, axes in enumerate(axes_list):
        if len(axes) > max_rank:
            raise ResourceLimitError(
                f"node tensor rank {len(axes)} exceeds cap {max_rank}")
    peak = max((len(s) for s in pool.values()), default=0)
    next_id = len(axes_list)
    while len(pool) > 1:
        best = None
        ids = sorted(pool)
        for ii, i in enumerate(ids):
            for j in ids[ii + 1:]:
                shared = pool[i] & pool[j]
                rank = len(pool[i] | pool[j]) - len(shared)
                key = (0 if shared else 1, rank, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        rank = len((pool[i] | pool[j]) - (pool[i] & pool[j]))
        if rank > max_rank:
            raise ResourceLimitError(f"planned rank {rank} exceeds cap {max_rank}")
        peak = max(peak, rank)
        pool[next_id] = (pool[i] | pool[j]) - (pool[i] & pool[j])
        steps.append((i, j))
        del pool[i], pool[j]
        next_id += 1
    return ContractionPlan(steps, peak)


def contract_pair(ring, t1, axes1: list[str], t2, axes2: list[str]) -> tuple:
    """The generic step (``ring.contract``) of ``t1`` over ``axes1`` and ``t2``
    over ``axes2``, summing their shared axes: (the result's axes, tensor)."""
    axes, layout = _pair_layout(axes1, axes2)
    return axes, ring.contract(t1, t2, layout)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
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


@lru_cache(maxsize=None)
def cyclotomic_polynomial_reference(M: int) -> tuple[int, ...]:
    """Phi_M by exact dense division of X^M - 1 by the product of Phi_d over
    the proper divisors d of M; the oracle for
    ``cyclotomic.cyclotomic_polynomial``."""
    if M == 1:
        return (-1, 1)
    num = [0] * (M + 1)
    num[0], num[M] = -1, 1
    den = [1]
    for d in range(1, M):
        if M % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial_reference(d)))
    quot, rem = _poly_divmod(num, den)
    assert rem == [0], "X^M - 1 not divisible by product of lower Phi_d"
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return tuple(quot)


def _path_weight(kind: NodeKind, bits: tuple, M: int):
    """A node's weight on the bits of its legs as (k, {exponent: int}), the
    polynomial in zeta_M times (1/sqrt2)^k, or None when it is zero."""
    if kind.kind == "H":
        return 1, {0: -1 if bits[0] & bits[1] else 1}
    e = kind.phase.num * (M // (2 * kind.phase.den)) % M  # e^(i pi num/den) = zeta_M^e
    if kind.kind == "Z":
        if not bits:
            terms = ((0, 1), (e, 1))
        elif not any(bits) or all(bits):
            terms = ((e if bits[0] else 0, 1),)
        else:
            return None
        k = 0
    else:
        terms, k = ((0, 1), (e, -1 if sum(bits) % 2 else 1)), len(bits)
    poly: dict[int, int] = {}
    for exp, c in terms:
        poly[exp] = poly.get(exp, 0) + c
    return (k, poly) if any(poly.values()) else None


def path_sum(d: Diagram, max_internal: int = 12) -> list[list[CycloScalar]]:
    """The matrix of ``d`` as a sum over paths, an oracle that shares no code
    with ``interpret``.  Every edge carries one bit.  Entry (r, c) fixes the
    bits of the port edges (r over the outputs, c over the inputs, the first
    port most significant; a port-to-port wire needs its two ports' bits
    equal) and sums, over the bits of the internal edges, the product of the
    nodes' weights on the bits of their legs (a self-loop gives its bit to two
    legs): a Z spider 1 at all-zeros and e^(ia) at all-ones, 1 + e^(ia) with
    no legs; an X spider (1 + (-1)^(ones) e^(ia)) / sqrt2^legs; an H box
    (-1)^(b1 b2) / sqrt2.  Exact, on ``CycloScalar`` arithmetic at
    M = lcm(8, 2 den) over the phases; raises ValueError above
    ``max_internal`` internal edges."""
    M = math.lcm(8, *(2 * k.phase.den for k in d.nodes.values() if k.phase is not None))
    ports = list(d.outputs) + list(d.inputs)
    port_edge = {end: k for k, edge in enumerate(d.edges) for end in edge if end in ports}
    internal = [k for k, (a, b) in enumerate(d.edges) if a in d.nodes and b in d.nodes]
    if len(internal) > max_internal:
        raise ValueError(f"{len(internal)} internal edges, above {max_internal}")
    legs = {n: [k for k, (a, b) in enumerate(d.edges) for end in (a, b) if end == n]
            for n in d.nodes}
    inv_sqrt2 = CycloScalar(M, {M // 8: Fraction(1, 2), -M // 8: Fraction(1, 2)})
    weights: dict[tuple, object] = {}
    rows = []
    for port_bits in itertools.product((0, 1), repeat=len(ports)):
        bit, consistent = [None] * len(d.edges), True
        for p, b in zip(ports, port_bits):
            consistent &= bit[port_edge[p]] in (None, b)  # a wire's two ports agree
            bit[port_edge[p]] = b
        sums: dict[int, dict[int, int]] = {}  # by the power of 1/sqrt2
        for inner in itertools.product((0, 1), repeat=len(internal)) if consistent else ():
            for k, b in zip(internal, inner):
                bit[k] = b
            power, poly = 0, {0: 1}
            for n, kind in d.nodes.items():
                key = (n, tuple(bit[k] for k in legs[n]))
                if key not in weights:
                    weights[key] = _path_weight(kind, key[1], M)
                if weights[key] is None:
                    break
                scale, w = weights[key]
                power += scale
                product: dict[int, int] = {}
                for e1, c1 in poly.items():
                    for e2, c2 in w.items():
                        product[(e1 + e2) % M] = product.get((e1 + e2) % M, 0) + c1 * c2
                poly = product
            else:
                total = sums.setdefault(power, {})
                for e, c in poly.items():
                    total[e] = total.get(e, 0) + c
        value = CycloScalar.zero(M)
        for power, poly in sums.items():
            term = CycloScalar(M, poly)
            for _ in range(power):
                term = term * inv_sqrt2
            value = value + term
        rows.append(value)
    cols = 1 << len(d.inputs)
    return [rows[r:r + cols] for r in range(0, len(rows), cols)]
