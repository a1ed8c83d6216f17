"""Shared random generators and reference constructions for the tests."""

from __future__ import annotations

import random
from functools import lru_cache

from zxexact.diagram import Diagram, NodeKind, PiRational, _norm_edge, hbox, xspider, zspider
from zxexact.interpret import ContractionPlan, ResourceLimitError


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
