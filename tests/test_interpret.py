"""Standard interpretation: generator matrices, contraction, invariants."""

import cmath
import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zxexact.cyclotomic import (
    CycloScalar, cyclotomic_polynomial, membership_solve, root_of_unity, sqrt_two,
)
from zxexact.diagram import (
    Diagram, DiagramError, NodeKind, PiRational, X, Z, hbox, make_generator, make_spider,
    sequential_compose, tensor_product, xspider, zspider,
)
from zxexact.interpret import (
    BackendError, ResourceLimitError, choose_modulus, interpret,
    invariant_g, invariant_r, is_zero, matrix_compare, node_tensor,
    plan_contraction,
)

from helpers import plan_greedy_reference, random_diagram

# the package re-exports interpret() under the module's own name
interp = importlib.import_module("zxexact.interpret")

ONE = CycloScalar.one(8)
ZEROS = CycloScalar.zero(8)
INV_SQRT2 = sqrt_two(8).scale(Fraction(1, 2))


def exact(num, den=1, M=8):
    return CycloScalar.from_rational(Fraction(num, den), M)


# -- generator matrices as tabulated ------------------------------------------

def test_identity_and_swap_matrices():
    m = interpret(make_generator("identity"))
    assert m.entries == [[ONE, ZEROS], [ZEROS, ONE]]
    sw = interpret(make_generator("swap"))
    want = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert [[int(e.canonical()[0]) for e in row] for row in sw.entries] == want


def test_cup_cap_matrices():
    cup = interpret(make_generator("cup"))
    assert (cup.rows, cup.cols) == (1, 4)
    assert [e == ONE for e in cup.entries[0]] == [True, False, False, True]
    cap = interpret(make_generator("cap"))
    assert (cap.rows, cap.cols) == (4, 1)
    assert [cap.entries[r][0] == ONE for r in range(4)] == [True, False, False, True]


def test_hadamard_matrix():
    m = interpret(make_generator("hbox"))
    assert m.entries[0][0] == INV_SQRT2 and m.entries[0][1] == INV_SQRT2
    assert m.entries[1][0] == INV_SQRT2 and m.entries[1][1] == -INV_SQRT2


def test_z_spider_matrix_shape():
    m = interpret(make_spider(Z, PiRational(1, 4), 2, 1))
    # 1 at top-left, e^{i pi/4} at bottom-right, zeros elsewhere
    assert m.entries[0][0] == ONE
    assert m.entries[1][3] == CycloScalar.zeta_power(8, 1)
    others = [m.entries[r][c] for r in range(2) for c in range(4)
              if (r, c) not in ((0, 0), (1, 3))]
    assert all(e.is_zero() for e in others)


def test_z_pi_is_diag():
    m = interpret(make_spider(Z, PiRational(1), 1, 1))
    assert m.entries == [[ONE, ZEROS], [ZEROS, exact(-1)]]


def test_zero_legged_scalars():
    assert interpret(make_spider(Z, PiRational(1), 0, 0)).scalar().is_zero()
    got = interpret(make_spider(Z, PiRational(1, 4), 0, 0)).scalar()
    assert got == ONE + CycloScalar.zeta_power(8, 1)
    # X 0-legged matches the same formula
    got_x = interpret(make_spider(X, PiRational(1, 4), 0, 0)).scalar()
    assert got_x == got


def test_x_effect_is_h_conjugated():
    m = interpret(make_spider(X, PiRational(0), 1, 0))
    assert m.entries[0][0] == sqrt_two(8) and m.entries[0][1].is_zero()


def test_x_spider_equals_h_conjugation():
    alpha = PiRational(3, 4)
    direct = interpret(make_spider(X, alpha, 1, 1))
    h = make_generator("hbox")
    conj = sequential_compose(h, sequential_compose(make_spider(Z, alpha, 1, 1), h))
    assert matrix_compare(direct, interpret(conj)).equal


def test_node_tensor_generator_table():
    m = node_tensor(zspider(PiRational(1)), 1, 1)
    assert m.entries[1][1] == exact(-1)
    h = node_tensor(hbox(), 1, 1)
    assert h.entries[1][1] == -INV_SQRT2
    with pytest.raises(ValueError):
        node_tensor(hbox(), 2, 1)


@given(st.sampled_from((8, 24, 312)), st.sampled_from((Z, X)), st.integers(1, 8),
       st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_spider_leaves_are_two_values_that_expand_to_their_entries(M, colour, legs, exact_ring,
                                                                   data):
    # a spider leaf is held by its two values; ``_dense``, which node_tensor
    # and the float backend share, must expand them to the entries built
    # here apart from it: COPY (Z) by index, PARITY (X) by popcount
    k = data.draw(st.integers(0, M - 1), label="k")
    ring = interp._exact_ring(M) if exact_ring else interp._FLOAT_RING
    leaf = interp._Tensor(None, *interp._leaf_tensor(NodeKind(colour, PiRational(2 * k, M)),
                                                     legs, ring))
    assert leaf.spider == colour and len(leaf.data) == 2
    entries = interp._dense(leaf, 1 << legs).data
    if exact_ring:
        got = [leaf.fields.scalar(v, leaf.den) for v in entries]
        one, zero, u = CycloScalar.one(M), CycloScalar.zero(M), root_of_unity(k, M // 2, M)
        scale = one
        for _ in range(legs):
            scale = scale * sqrt_two(M).scale(Fraction(1, 2))
    else:
        got, one, zero, u = entries, 1, 0, cmath.exp(1j * math.pi * 2 * k / M)
        scale = 2 ** (-legs / 2)
    size = 1 << legs
    if colour == Z:
        expected = [one if i == 0 else u if i == size - 1 else zero for i in range(size)]
    else:
        expected = [scale * (one - u if bin(i).count("1") % 2 else one + u) for i in range(size)]
    if exact_ring:
        assert got == expected
    else:
        assert len(got) == size and all(abs(g - e) < 1e-12 for g, e in zip(got, expected))


# -- interpretation of composites ----------------------------------------------

def _e_lhs():
    d = Diagram()
    d.nodes["g"] = zspider(PiRational(1, 4))
    d.nodes["r"] = xspider(PiRational(-1, 4))
    d.add_edge("g", "r")
    return d


def test_e_pair_is_one():
    assert interpret(_e_lhs()).scalar() == ONE


def test_state_effect_pair_is_sqrt2():
    d = Diagram()
    d.nodes["z"] = zspider(PiRational(0))
    d.nodes["x"] = xspider(PiRational(0))
    d.add_edge("z", "x")
    assert interpret(d).scalar() == sqrt_two(8)


def test_choose_modulus():
    assert choose_modulus(make_spider(Z, PiRational(1, 4), 0, 0)) == 8
    assert choose_modulus(make_generator("identity")) == 8
    d = tensor_product(make_spider(Z, PiRational(1, 3), 0, 0),
                       make_spider(Z, PiRational(1, 4), 0, 0))
    assert choose_modulus(d) == 24
    dd = Diagram()
    dd.nodes["n"] = zspider(0.5)
    with pytest.raises(BackendError):
        choose_modulus(dd)


def test_self_loop_matches_cap_cup_composition():
    d = Diagram()
    d.nodes["z"] = zspider(PiRational(1, 4))
    d.add_edge("z", "z")
    by_loop = interpret(d).scalar()
    spider = make_spider(Z, PiRational(1, 4), 2, 0)
    closed = sequential_compose(spider, make_generator("cap"))
    assert by_loop == interpret(closed).scalar()


def test_resource_cap():
    d = make_spider(Z, PiRational(0), 3, 3)
    with pytest.raises(ResourceLimitError):
        interpret(d, max_rank=4)
    plan = plan_contraction(make_spider(Z, PiRational(0), 2, 2))
    assert plan.peak_rank <= 4


def test_modulus_cap_rejects_a_field_before_building_it():
    # an X spider with a self-loop at phase pi/99991: M = 799,928
    d = Diagram()
    d.nodes["x"] = xspider(PiRational(1, 99991))
    d.add_edge("x", "x")
    built = cyclotomic_polynomial.cache_info().misses
    rings = interp._exact_ring.cache_info().currsize
    with pytest.raises(ResourceLimitError, match="modulus 799928 exceeds cap"):
        interpret(d)
    with pytest.raises(ResourceLimitError):
        node_tensor(zspider(PiRational(1, 4)), 0, 1, modulus=2 * interp.MAX_MODULUS)
    assert cyclotomic_polynomial.cache_info().misses == built
    # a refused modulus keeps no ring, so asking again is refused again
    assert interp._exact_ring.cache_info().currsize == rings
    with pytest.raises(ResourceLimitError):
        interp._exact_ring(2 * interp.MAX_MODULUS)
    # each matrix within the cap, the field of both beyond it
    a = node_tensor(zspider(PiRational(1, 257)), 0, 1)
    b = node_tensor(zspider(PiRational(1, 263)), 0, 1)
    assert math.lcm(a.modulus, b.modulus) > interp.MAX_MODULUS
    with pytest.raises(ResourceLimitError):
        a.kron(b)


# -- contraction planner ------------------------------------------------------------

def _plan_outcome(planner, axes_list, max_rank):
    try:
        plan = planner([list(a) for a in axes_list], max_rank)
    except ResourceLimitError as exc:
        return str(exc)
    return plan.steps, plan.peak_rank


# a tensor is (component, axis ids): axes of different components never meet,
# a repeated id is a self-loop, and an id may be carried by three or more tensors
_axis_lists = st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 5), max_size=6)),
    max_size=12,
).map(lambda ts: [[f"c{c}:{a}" for a in axes] for c, axes in ts])


@given(_axis_lists, st.integers(1, 8))
@settings(max_examples=400, deadline=None)
@example([], 1)
@example([["a", "b"]], 2)
@example([["a", "b"], ["b", "c"]], 2)
@example([["a", "a", "b"], ["b"], ["c"]], 3)  # self-loop
@example([["a", "b"], ["b"], ["c", "d"], ["d"], ["e"]], 4)  # three components
@example([["a", "b", "c"], ["c", "d", "e"], ["a", "f"]], 3)  # cap hit at step 2
@example([["a", "b", "c"], ["d"]], 2)  # a node tensor above the cap
def test_planner_matches_reference_scan(axes_list, max_rank):
    assert (_plan_outcome(interp._plan_greedy, axes_list, max_rank)
            == _plan_outcome(plan_greedy_reference, axes_list, max_rank))


def test_plan_of_long_spider_chain():
    d = Diagram()
    d.inputs, d.outputs = ("i",), ("o",)
    names = [f"n{k:03d}" for k in range(256)]
    for name in names:
        d.nodes[name] = zspider(PiRational(1, 4))
    for a, b in zip(["i"] + names, names + ["o"]):
        d.add_edge(a, b)
    plan = plan_contraction(d)
    assert len(plan.steps) == 255 and plan.peak_rank == 2
    # 256 phases of pi/4 add up to a multiple of 2 pi: the identity
    assert matrix_compare(interpret(d), interpret(make_generator("identity"))).equal


def test_plan_refuses_port_self_loop_as_malformed():
    d = Diagram()
    d.outputs = ("o",)
    d.add_edge("o", "o")
    for check in (plan_contraction, interpret):
        with pytest.raises(DiagramError, match="dangling port"):
            check(d)


def test_plan_refuses_edge_to_unknown_id():
    d = make_spider(Z, PiRational(0), 1, 1)
    d.add_edge("s0", "ghost")
    for check in (plan_contraction, interpret):
        with pytest.raises(DiagramError, match="orphan endpoint: ghost"):
            check(d)


def test_float_angles_leave_tensor_cache_unchanged():
    rng = random.Random(31)
    interpret(make_generator("hbox"), backend="float")
    before = len(interp._TENSOR_CACHE)
    for _ in range(60):
        d = random_diagram(rng, max_nodes=6)
        for n, kind in d.nodes.items():
            if kind.kind != "H":
                spider = zspider if kind.kind == Z else xspider
                d.nodes[n] = spider(rng.uniform(0, 2 * math.pi))
        interpret(d, backend="float")
    assert len(interp._TENSOR_CACHE) == before


def test_backend_agreement_random():
    rng = random.Random(21)
    for _ in range(60):
        d = random_diagram(rng, max_nodes=6, den=4)
        ce = interpret(d).to_complex()
        cf = interpret(d, backend="float").to_complex()
        err = max(abs(ce[r][c] - cf[r][c]) for r in range(len(ce))
                  for c in range(len(ce[0])))
        assert err < 1e-9


def _clifford_t_chain(qubits: int = 3, layers: int = 20) -> Diagram:
    """Layers of one H box, phase spiders on the other wires (Z and X
    alternating, phases cycling through pi/4, 3pi/4, 5pi/4, 7pi/4) and one
    CNOT-shaped Z-X pair: five nodes per layer on three qubits."""
    d = Diagram()
    d.inputs = tuple(f"i{w}" for w in range(qubits))
    d.outputs = tuple(f"o{w}" for w in range(qubits))
    end = list(d.inputs)

    def place(w, kind):
        nid = f"n{len(d.nodes)}"
        d.nodes[nid] = kind
        d.add_edge(end[w], nid)
        end[w] = nid
        return nid

    for layer in range(layers):
        for w in range(qubits):
            if w == layer % qubits:
                place(w, hbox())
            else:
                spider = zspider if (w + layer) % 2 else xspider
                place(w, spider(PiRational(2 * (len(d.nodes) % 4) + 1, 4)))
        c = layer % (qubits - 1)
        d.add_edge(place(c, zspider()), place(c + 1, xspider()))
    for w in range(qubits):
        d.add_edge(end[w], d.outputs[w])
    return d


def test_to_complex_keeps_precision_on_long_circuits():
    d = _clifford_t_chain()
    assert len(d.nodes) == 100
    ce = interpret(d).to_complex()
    cf = interpret(d, backend="float").to_complex()
    err = max(abs(ce[r][c] - cf[r][c]) for r in range(len(ce)) for c in range(len(ce[0])))
    assert err < 1e-9


# -- invariants ------------------------------------------------------------------

def test_invariant_examples():
    assert invariant_r(make_generator("hbox")) == 1
    assert invariant_r(make_generator("identity")) == 0
    assert invariant_r(_e_lhs()) == 1
    assert invariant_r(Diagram()) == 0
    assert invariant_g(_e_lhs()) == 1  # odd-degree green plus no H


def test_degree_sum_identity():
    rng = random.Random(13)
    for _ in range(80):
        d = random_diagram(rng, max_nodes=6)
        assert (invariant_r(d) + invariant_g(d)) % 2 == (d.n_inputs + d.n_outputs) % 2


def test_invariant_counts_self_loops_evenly():
    d = Diagram()
    d.nodes["x"] = xspider(PiRational(0))
    d.add_edge("x", "x")
    d.outputs = ("o0",)
    d.add_edge("x", "o0")
    assert invariant_r(d) == 1  # degree 3: odd


# -- comparison -------------------------------------------------------------------

def test_matrix_compare_witness():
    a = interpret(make_spider(Z, PiRational(0), 1, 1))
    b = interpret(make_spider(Z, PiRational(1), 1, 1))
    res = matrix_compare(a, b)
    assert not res.equal and res.witness[0:2] == (1, 1)
    with pytest.raises(ValueError):
        matrix_compare(a, interpret(make_generator("cup")))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_matrix_compare_refuses_a_tolerance_that_is_not_finite_positive(tol):
    for backend in ("float", "exact"):
        a = interpret(make_spider(X, PiRational(1, 4), 1, 1), backend=backend)
        with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
            matrix_compare(a, a, tol=tol)


def test_is_zero_examples():
    assert is_zero(interpret(make_spider(Z, PiRational(1), 0, 0)))
    assert not is_zero(interpret(make_generator("identity")))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_is_zero_refuses_a_tolerance_that_is_not_finite_positive(tol):
    # a phase-pi Z scalar is zero: nan read it as non-zero, inf made every matrix zero
    for d in (make_spider(Z, PiRational(1), 0, 0), make_generator("identity")):
        for backend in ("float", "exact"):
            with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
                is_zero(interpret(d, backend=backend), tol=tol)
    assert is_zero(interpret(make_spider(Z, PiRational(1), 0, 0), backend="float"), tol=1e-12)


def test_sup2_at_zero_both_sides_vanish():
    from zxexact.rules import instantiate
    inst = instantiate("SUP", {"alpha": PiRational(0)})
    lhs, rhs = interpret(inst.lhs), interpret(inst.rhs)
    assert is_zero(lhs) and is_zero(rhs)
    assert matrix_compare(lhs, rhs).equal


def test_float_entry_formatting():
    m = interpret(make_generator("hbox"), backend="float")
    assert "0.7" in m.entry_str(0, 0)


def test_rational_exact_entry_prints_as_a_fraction():
    from zxexact.witness import _scalar_pairs
    half = interpret(_scalar_pairs(2, 3))  # (1/sqrt2)^2
    assert half.entry_str(0, 0) == "1/2" and str(half.scalar()) == "(1/2 | M=8)"
    h = interpret(make_generator("hbox"))
    assert h.entry_str(1, 1) == str(h.entry(1, 1)) == "(-1/2*z + 1/2*z^3 | M=8)"


# -- fragment normalization (sqrt2 bookkeeping) -----------------------------------

def test_pi3_fragment_entries_live_in_subfield():
    from zxexact.cyclotomic import lift_modulus
    rng = random.Random(17)
    for _ in range(25):
        d = random_diagram(rng, max_nodes=4, den=3, with_h=False)
        m = interpret(d)
        M = math.lcm(m.modulus, 24)
        scale = sqrt_two(M) if invariant_r(d) else CycloScalar.one(M)
        for row in m.entries:
            for e in row:
                assert membership_solve(lift_modulus(e, M) * scale, 6) is not None


# -- self-loops and high-degree spiders ---------------------------------------------

def _spider_closed_form(colour: str, phase: PiRational, n_in: int, n_out: int, ring):
    """Entry (r, c) of the spider from its closed form over ``ring``'s scalars
    ``one``, ``e^{i alpha}`` and ``1/sqrt2``: a Z spider is 1 on the all-zeros
    entry, e^{i alpha} on the all-ones one and 0 elsewhere; an X spider is
    2^(-d/2) (1 + e^{i alpha} (-1)^popcount)."""
    one, ph, inv_sqrt2 = ring
    d = n_in + n_out
    rows, cols = 1 << n_out, 1 << n_in
    if colour == Z:
        def value(r, c):
            return ((one if r == 0 and c == 0 else one - one)
                    + (ph if r == rows - 1 and c == cols - 1 else one - one))
        return value
    scale = one
    for _ in range(d):
        scale = scale * inv_sqrt2
    even, odd = scale * (one + ph), scale * (one - ph)
    return lambda r, c: odd if (bin(r).count("1") + bin(c).count("1")) % 2 else even


@pytest.mark.parametrize("loops", [0, 1, 3])
@pytest.mark.parametrize("colour", [Z, X])
def test_spiders_with_self_loops_match_closed_form(colour, loops):
    # up to 12 legs, past the degree limit of 8 at which a spider is cut
    # into a chain; each self-loop must vanish
    for d in range(13):
        for n_in in range(d + 1):
            n_out = d - n_in
            phase = PiRational(2 * d + 1, 12 if d % 2 else 4)
            spider = make_spider(colour, phase, n_in, n_out)
            for _ in range(loops):
                spider.add_edge("s0", "s0")
            M = choose_modulus(spider)
            exact_form = _spider_closed_form(colour, phase, n_in, n_out, (
                CycloScalar.one(M), root_of_unity(phase.num, phase.den, M),
                sqrt_two(M).scale(Fraction(1, 2))))
            m = interpret(spider)
            assert all(e == exact_form(r, c) for r, row in enumerate(m.entries)
                       for c, e in enumerate(row)), (colour, n_in, n_out, loops)
            float_form = _spider_closed_form(colour, phase, n_in, n_out, (
                complex(1), cmath.exp(1j * phase.radians), complex(2 ** -0.5)))
            m = interpret(spider, backend="float")
            assert all(abs(e - float_form(r, c)) < 1e-9 for r, row in enumerate(m.entries)
                       for c, e in enumerate(row)), (colour, n_in, n_out, loops)


def test_twenty_self_loops_fit_the_default_cap():
    d = make_spider(Z, PiRational(1, 4), 1, 1)
    for _ in range(20):
        d.add_edge("s0", "s0")
    assert plan_contraction(d).peak_rank == 2
    assert interpret(d) == interpret(make_spider(Z, PiRational(1, 4), 1, 1))
    assert interpret(d, backend="float").to_complex() == [[1, 0], [0, cmath.exp(1j * math.pi / 4)]]


@pytest.mark.parametrize("max_rank", [4, 16])
@pytest.mark.parametrize("edges", [20, 27])
@pytest.mark.parametrize("colour", [Z, X])
def test_parallel_edges_fuse_through_multi_piece_chains(colour, edges, max_rank):
    # two spiders joined by many parallel edges, with self-loops among them:
    # each is cut into a chain of four or more pieces, and spider fusion (S1)
    # makes the whole a 1 -> 1 spider with the summed phase
    alpha, beta = PiRational(1, 4), PiRational(5, 12)
    node = zspider if colour == Z else xspider
    d = Diagram()
    d.nodes["a"], d.nodes["b"] = node(alpha), node(beta)
    d.inputs, d.outputs = ("i0",), ("o0",)
    d.add_edge("i0", "a")
    for k in range(edges):
        d.add_edge("a", "b")
        if k % 7 == 3:
            d.add_edge("a", "a")
            d.add_edge("b", "b")
    d.add_edge("b", "o0")
    phase = alpha + beta
    M = choose_modulus(d)
    exact_form = _spider_closed_form(colour, phase, 1, 1, (
        CycloScalar.one(M), root_of_unity(phase.num, phase.den, M),
        sqrt_two(M).scale(Fraction(1, 2))))
    assert interpret(d, max_rank=max_rank).entries == [
        [exact_form(r, c) for c in range(2)] for r in range(2)]
    float_form = _spider_closed_form(colour, phase, 1, 1, (
        complex(1), cmath.exp(1j * phase.radians), complex(2 ** -0.5)))
    m = interpret(d, backend="float", max_rank=max_rank)
    assert all(abs(m.entry(r, c) - float_form(r, c)) < 1e-9 for r in range(2) for c in range(2))


# -- graphical invariants ------------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_invariants_match_a_brute_force_degree_count(seed, loops):
    rng = random.Random(seed)
    d = random_diagram(rng, max_nodes=8, max_ports=4)
    spiders = [n for n, k in d.nodes.items() if k.kind != "H"]
    for _ in range(loops if spiders else 0):
        n = rng.choice(spiders)
        d.add_edge(n, n)

    def degree(n):  # a self-loop meets its node at both ends
        return sum((a == n) + (b == n) for a, b in d.edges)

    for colour, invariant in ((X, invariant_r), (Z, invariant_g)):
        odd = [n for n, k in d.nodes.items() if k.kind == colour and degree(n) % 2]
        h_boxes = [n for n, k in d.nodes.items() if k.kind == "H"]
        assert invariant(d) == (len(odd) + len(h_boxes)) % 2
    deg, mult = d.edge_counts()
    assert all(deg.get(n, 0) == degree(n) for n in d.all_ids())
    assert all(mult[e] == d.edges.count(e) for e in d.edges)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.booleans(), max_size=3))
def test_backend_for_is_exact_exactly_when_every_phase_is(seed, floats):
    rng = random.Random(seed)
    diagrams = [random_diagram(rng, max_nodes=4) for _ in floats]
    for d, to_float in zip(diagrams, floats):
        spiders = [n for n, kind in d.nodes.items() if kind.kind != "H"]
        if to_float and spiders:
            n = rng.choice(spiders)
            d.nodes[n] = NodeKind(d.nodes[n].kind, rng.uniform(0.0, 2 * math.pi))
    scan = [kind.phase for d in diagrams for kind in d.nodes.values()]
    exact = all(p is None or type(p) is PiRational for p in scan)
    assert interp.backend_for(*diagrams) == ("exact" if exact else "float")
