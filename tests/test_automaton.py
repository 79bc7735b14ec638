"""Cone-type automata: the root path against the ball extraction, the ball
extraction's own checks, reduction, and export."""

import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import reference
from conetypes import (
    ConeTypeAutomaton,
    ConeTypesError,
    InvalidParameter,
    MultipleTerminalSCCs,
    NonHyperbolic,
    NotPrimitive,
    SchemaError,
    VerificationFailed,
    automaton_from_json,
    automaton_to_json,
    build_ball,
    check_on_ball,
    extract_automaton,
    new_params,
    reduce_automaton,
    theorem_case,
    to_digraph_dot,
    types_on_ball,
)
from conetypes.automaton import _admissible_perms, _elementary_roots, _root_states
from conftest import DOCUMENTS, EXPECTED_COUNTS, HYPERBOLIC_12, TABLE
from reference import (
    LabelLayers,
    NotStabilized,
    cone_levels,
    cones_isomorphic,
    extract_escalating,
    extract_from_ball,
    refine_labels,
    row_ids,
    sphere_type_census,
    successor_table,
    truncated_cone,
    twisted_maps,
    verify_classes_per_depth,
)

# adjacency matrix of the (4,4,4) automaton in canonical numbering
M444 = np.array([
    [0, 3, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 2, 0, 0],
])
M444_REDUCED = np.array([
    [1, 1, 0, 0],
    [1, 0, 1, 0],
    [0, 0, 0, 1],
    [0, 2, 0, 0],
])


def test_theorem_case_formulas():
    # every parameter pattern, checked against the closed-form counts
    assert theorem_case(4, 4, 4) == ("(i)", 4 + 2)
    assert theorem_case(7, 7, 7) == ("(i)", 7 + 2)
    assert theorem_case(3, 4, 4) == ("(ii.1)", 3 + 2 * 4 + 1)
    assert theorem_case(3, 3, 4) == ("(ii.1)", 4 + 2 * 3 + 1)
    assert theorem_case(2, 5, 5) == ("(ii.2)", 2 * 5 + 5)
    assert theorem_case(2, 6, 6) == ("(ii.2)", 2 * 6 + 5)
    assert theorem_case(3, 4, 5) == ("(iii.1)", 2 * (3 + 4 + 5) - 2)
    assert theorem_case(3, 5, 7) == ("(iii.1)", 2 * (3 + 5 + 7) - 2)
    assert theorem_case(2, 4, 5) == ("(iii.2)", 2 * 4 + 2 * 5 + 7)
    assert theorem_case(2, 3, 7) == ("(iii.3)", 2 * 7 + 21)
    for triple, count in EXPECTED_COUNTS.items():
        assert theorem_case(*triple)[1] == count


@pytest.mark.parametrize("triple, error", [
    ((2, 3, 6), NonHyperbolic), ((3, 3, 3), NonHyperbolic), ((2, 3, 5), NonHyperbolic),
    ((1, 4, 4), InvalidParameter), ((2, 3, 7.0), InvalidParameter),
], ids=["2-3-6", "3-3-3", "2-3-5", "1-4-4", "2-3-7.0"])
def test_theorem_case_refuses_a_triple_that_is_not_hyperbolic(triple, error):
    # the closed forms count the cone types of hyperbolic triples only
    with pytest.raises(error):
        theorem_case(*triple)


def test_truncated_cone_of_base_point(data444):
    ball = data444["ball"]
    cone = truncated_cone(ball, 0, 2)
    # the cone at the base point is the whole ball
    assert set(cone.vertices) == set(np.flatnonzero(ball.norms <= 2))
    with pytest.raises(ValueError):
        truncated_cone(ball, 0, ball.radius + 1)


def test_cone_isomorphism_reflexive_and_type_faithful(data444):
    ball = data444["ball"]
    type_of = types_on_ball(data444["automaton"], ball)
    k = data444["reference"].k_star
    # same-type vertices have isomorphic truncated cones; cross-type do not
    reps: dict[int, int] = {}
    for v in range(ball.offsets[4]):
        t = int(type_of[v])
        reps.setdefault(t, v)
    types = sorted(reps)
    for t in types:
        c = truncated_cone(ball, reps[t], k)
        assert cones_isomorphic(c, c)
    for v in range(ball.offsets[3], ball.offsets[4]):
        t = int(type_of[v])
        c1 = truncated_cone(ball, v, k)
        c2 = truncated_cone(ball, reps[t], k)
        assert cones_isomorphic(c1, c2)
    c_diff = truncated_cone(ball, reps[types[1]], k)
    c_other = truncated_cone(ball, reps[types[2]], k)
    assert not cones_isomorphic(c_diff, c_other)


def test_automaton_444_matches_reference_matrix(data444):
    a = data444["automaton"]
    assert a.K_total == 6
    assert np.array_equal(a.M, M444)
    assert a.root_type == 0
    assert a.degree == 3  # trivalent graph: every type has degree 3
    assert (a.M.sum(axis=1) == a.degree - a.r).all()  # successors + predecessors = degree
    assert a.r[0] == 0  # base point has no predecessor


def test_reduction_444(data444):
    ra = data444["reduced"]
    assert ra.types == (2, 3, 4, 5)
    assert np.array_equal(ra.M, M444_REDUCED)
    assert 1 <= ra.p <= len(ra.types) ** 2


def test_reduction_237(data237):
    assert len(data237["reduced"].types) == 24


def _automaton(M):
    return ConeTypeAutomaton(params=None, K_total=len(M), M=np.array(M), degree=3,
                             root_type=0)


def test_reduction_refuses_two_terminal_components():
    # types 1 and 2 each lead only to themselves: no type is reached from both
    with pytest.raises(MultipleTerminalSCCs):
        reduce_automaton(_automaton([[0, 1, 2], [0, 2, 0], [0, 0, 2]]))


def test_reduction_refuses_an_imprimitive_component():
    # the terminal component {1, 2} is a 2-cycle: its powers alternate.
    # {1, 2, 3, 4} has period 3, through the classes {1, 2} -> {3} -> {4}:
    # the squarings pass exponent KT^2 = 16 at 32 with no positive power,
    # and so does the stepwise oracle
    a = _automaton([[0, 2, 1], [0, 0, 1], [0, 1, 0]])
    assert a.r.tolist() == [0, 2, 2]
    with pytest.raises(NotPrimitive, match="^no positive power up to exponent 4$"):
        reduce_automaton(a)
    a = _automaton([[0, 1, 1, 1, 0], [0, 0, 0, 2, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 2],
                    [0, 1, 1, 0, 0]])
    assert a.r.tolist() == [0, 1, 1, 1, 1]
    for reduce in (reduce_automaton, reference.reduce_stepwise):
        with pytest.raises(NotPrimitive, match="^no positive power up to exponent 16$"):
            reduce(a)


def test_reduction_closes_the_longest_chain():
    # type i leads to type i + 1 and the last type to itself twice: type 0
    # reaches the terminal type only along the chain's K - 1 arcs, the
    # longest simple path there can be, and the closure must cover it
    for K in range(1, 40):
        M = np.zeros((K, K), dtype=np.int64)
        M[np.arange(K - 1), np.arange(1, K)] = 1
        M[K - 1, K - 1] = 2
        ra = reduce_automaton(_automaton(M))
        assert ra.types == (K - 1,) and ra.p == 1, K


def test_reduction_equals_the_stepwise_oracle():
    # the primitivity exponent by binary lifting equals the one found a
    # power at a time, with the same types and M, on the atlas, the 28
    # committed documents and two large triples
    automata = [extract_automaton(new_params(*t)) for t in HYPERBOLIC_12]
    automata += [automaton_from_json(path.read_text())[0] for path in DOCUMENTS]
    automata += [extract_automaton(new_params(*t)) for t in [(37, 41, 43), (61, 67, 71)]]
    assert len(automata) == 269 + 28 + 2
    exponents = set()
    for a in automata:
        got, want = reduce_automaton(a), reference.reduce_stepwise(a)
        assert got.types == want.types and got.p == want.p, (a.params, a.K_total)
        assert np.array_equal(got.M, want.M), (a.params, a.K_total)
        exponents.add(got.p)
    assert len(exponents) > 4


def test_verify_counts_all_groups(graph_data):
    for triple in TABLE:
        a = graph_data[triple]["automaton"]
        case, expected = theorem_case(*graph_data[triple]["params"].triple())
        assert a.K_total == expected == EXPECTED_COUNTS[triple], (triple, case)


def test_degree_predecessor_split(graph_data):
    # successors + predecessors = 3 for every type: each vertex is trivalent
    for triple in TABLE:
        a = graph_data[triple]["automaton"]
        assert a.degree == 3
        assert (a.M.sum(axis=1) + a.r == 3).all()
        assert (a.r[1:] >= 1).all()  # only the base point lacks predecessors


def test_sphere_census_recursion(census_data):
    """Exact integer identity: r_j * s_{k+1}(j) = sum_i M_ij s_k(i)."""
    for triple in [(4, 4, 4), (2, 3, 7), (3, 5, 7)]:
        ball, a = census_data[triple]
        census = sphere_type_census(ball, a)
        assert census.shape[1] == a.K_total
        # every row advances by the matrix, from the base point on
        for k in range(census.shape[0] - 1):
            lhs = census[k + 1] * np.asarray(a.r)
            rhs = census[k] @ np.asarray(a.M)
            assert np.array_equal(lhs[np.asarray(a.r) > 0], rhs[np.asarray(a.r) > 0]), (triple, k)


def test_summit_types_have_single_successor(graph_data):
    # a type with two predecessors (polygon summit) has exactly one successor
    for triple in TABLE:
        a = graph_data[triple]["automaton"]
        summit = np.asarray(a.r) == 2
        assert summit.any()
        assert (a.M.sum(axis=1)[summit] == 1).all()


def test_extraction_deterministic(data444):
    a1 = data444["automaton"]
    a2 = extract_automaton(data444["params"])
    assert np.array_equal(a1.M, a2.M)
    assert np.array_equal(a1.transitions, a2.transitions)
    assert np.array_equal(a1.state_type, a2.state_type)


def test_not_stabilized_on_tiny_ball():
    ball = build_ball(new_params(4, 4, 4), 5)
    with pytest.raises(NotStabilized):
        extract_from_ball(ball)


# Radii at which stabilization alone accepts a wrong partition (K = 2, 4, 6
# or 8, e.g. the 3-regular tree for (7,7,7)): all have R <= max(l,m,n).
SPURIOUS_RADII = (
    [((7, 7, 7), r) for r in (5, 6, 7)] + [((2, 3, 7), 7)]
    + [((2, 3, 8), r) for r in (7, 8)] + [((2, 5, 5), 5)]
    + [((2, 6, 6), r) for r in (5, 6)] + [((2, 7, 7), r) for r in (5, 6, 7)]
    + [((3, 3, 7), 7), ((5, 5, 5), 5)]
)


@pytest.mark.parametrize("triple,radius", SPURIOUS_RADII)
def test_no_spurious_stabilization(triple, radius):
    ball = build_ball(new_params(*triple), radius)
    with pytest.raises(NotStabilized):
        extract_from_ball(ball)


@pytest.mark.parametrize("triple,radius", [((4, 5, 5), 11), ((6, 6, 5), 13)])
def test_verifier_refutes_overmerged_partition(triple, radius):
    # these radii stabilize on a partition that no twisted walk confirms
    ball = build_ball(new_params(*triple), radius)
    t0 = time.perf_counter()
    with pytest.raises(VerificationFailed):
        extract_from_ball(ball)
    assert time.perf_counter() - t0 < 5.0


def _reference_walk(nbr, norm, nsucc, x, y, depth, perm):
    """The twisted walk one vertex at a time, on the ball's tables as lists."""
    phi, used, level = {x: y}, {y}, [x]
    for _ in range(depth):
        nxt, ex, ey = [], 0, 0
        for v in level:
            fv = phi[v]
            ey += nsucc[fv]
            for g in range(3):
                s = nbr[v][g]
                if s < 0 or norm[s] <= norm[v]:
                    continue
                ex += 1
                w = nbr[fv][perm[g]]
                if w < 0 or norm[w] <= norm[fv]:
                    return False
                if s in phi:
                    if phi[s] != w:
                        return False
                elif w in used:
                    return False
                else:
                    phi[s] = w
                    used.add(w)
                    nxt.append(s)
        if ex != ey:
            return False
        level = nxt
    return True


@pytest.mark.parametrize("triple,radius,depth", [((4, 4, 5), 13, 6), ((4, 5, 5), 11, 5)])
def test_twisted_maps_match_reference_walk(triple, radius, depth):
    # (4,4,5) at its k* = 6; (4,5,5) at depth 5 holds the class refuted above
    ball = build_ball(new_params(*triple), radius)
    labels = [np.zeros(ball.n_vertices, dtype=np.int64)]
    while len(labels) <= depth:
        refine_labels(ball, labels)
    dom = int(ball.offsets[radius - depth + 1])
    lab = labels[depth][:dom]
    tables = (ball.nbr.tolist(), ball.norms.tolist(),
              successor_table(ball)[1].tolist())
    # every member of every class but its least, and 20 random outsiders
    # per class, mapped through their class's cone in one batch
    rng = np.random.default_rng(3)
    reps, ys, ycls = [], [], []
    for c in np.unique(lab):
        members = np.flatnonzero(lab == c)
        cand = np.concatenate([members[1:], rng.integers(0, dom, 20)])
        reps.append(members[0])
        ys.append(cand)
        ycls.append(np.full(cand.size, len(reps) - 1))
    reps, ys, ycls = np.array(reps), np.concatenate(ys), np.concatenate(ycls)
    levels = cone_levels(ball, reps, depth)
    confirmed = np.zeros(ys.size, dtype=bool)
    for perm in _admissible_perms(ball.params):
        got = twisted_maps(ball, levels, ys, ycls, np.full(ys.size, depth),
                           np.array(perm)).tolist()
        want = [_reference_walk(*tables, int(reps[c]), int(y), depth, perm)
                for y, c in zip(ys, ycls)]
        assert got == want
        confirmed |= want
    outcomes = set(zip(confirmed.tolist(), (lab[ys] == lab[reps[ycls]]).tolist()))
    # confirmed members, refuted outsiders, and members no twist confirms
    assert {(True, True), (False, False)} <= outcomes
    assert ((False, True) in outcomes) == (triple == (4, 5, 5))


class _ToyBall:
    """The tables cone_levels and twisted_maps read, for a hand-made graph."""

    def __init__(self, nbr, norms):
        self.nbr, self.norms = np.array(nbr), np.array(norms)
        self.n_vertices = self.norms.size
        up = (self.nbr >= 0) & (self.norms[self.nbr] > self.norms[:, None])
        self.nsucc = up.sum(axis=1)


def test_twisted_maps_need_well_defined_and_injective():
    # On the Cayley balls tried, neither check ever decides alone, so a toy
    # graph does: the cone of x is a square x-a-c-b; y's twin square does not
    # close (c has two images), and z reaches one vertex along two
    # generators (a and b have one image).  Every other check passes.  Both
    # are then mapped at depths 1 and 2 in one call, as the verifier does.
    x, a, b, c, y, a2, b2, c1, c2, z, u = range(11)
    nbr = [[a, b, -1], [x, c, -1], [c, x, -1], [b, a, -1],
           [a2, b2, -1], [y, c1, -1], [c2, y, -1], [-1, a2, -1], [b2, -1, -1],
           [u, u, -1], [z, z, -1]]
    norms = [0, 1, 1, 2, 10, 11, 11, 12, 12, 20, 21]
    ball = _ToyBall(nbr, norms)
    tables = (nbr, norms, ball.nsucc.tolist())
    ys, ycls = np.array([y, z]), np.zeros(2, dtype=np.int64)
    perm = (0, 1, 2)
    separate = []
    for depth, want in [(1, [True, False]), (2, [False, False])]:
        levels = cone_levels(ball, np.array([x]), depth)
        got = twisted_maps(ball, levels, ys, ycls, np.full(2, depth),
                           np.array(perm)).tolist()
        assert got == want == [_reference_walk(*tables, x, v, depth, perm) for v in ys]
        separate += got
    together = twisted_maps(ball, levels, np.tile(ys, 2), np.zeros(4, dtype=np.int64),
                            np.array([1, 1, 2, 2]), np.array(perm)).tolist()
    assert together == separate


def _assert_layers_match_reference(ball, layers):
    """Every stored layer against the from-scratch lexicographic one."""
    R = ball.radius
    labels = [np.zeros(ball.n_vertices, dtype=np.int64)]
    while refine_labels(ball, labels):
        pass
    assert len(layers.lab) >= len(labels)
    for j in range(1, len(labels)):
        dom = int(ball.offsets[R - j + 1])
        _, first, inv = np.unique(labels[j][:dom], return_index=True, return_inverse=True)
        # the same partition, numbered by first occurrence along vertex id
        rank = np.argsort(np.argsort(first))
        assert np.array_equal(layers.lab[j], np.append(rank[inv], -1)), (R, j)
        assert np.array_equal(layers.first[j], np.sort(first)), (R, j)
        want = [np.unique(labels[j][:ball.offsets[s + 1]]).size for s in range(R - j + 1)]
        assert layers.counts[j] == want, (R, j)


@pytest.mark.parametrize("triple,radius", [
    ((2, 3, 7), 22), ((3, 5, 7), 15), ((4, 4, 5), 13), ((2, 5, 6), 16), ((4, 5, 5), 13),
])
def test_label_layers_grow_with_the_ball(triple, radius):
    # one sphere at a time, every layer; then a fresh ball labelled in one go
    params = new_params(*triple)
    ball, layers = build_ball(params, 2), LabelLayers()
    while ball.radius < radius:
        ball.grow()
        layers.extend(ball, ball.radius - 1)
        _assert_layers_match_reference(ball, layers)
    fresh, layers = build_ball(params, radius), LabelLayers()
    layers.extend(fresh, radius - 1)
    _assert_layers_match_reference(fresh, layers)


def test_label_layers_refuse_keys_past_the_base(monkeypatch):
    # (4,4,5) has 3 ids on layer 1 and 4 on layer 2; in base 4 a key holds
    # ids up to 2, so layer 2 still packs and layer 3 must raise rather than
    # intern colliding keys
    ball = build_ball(new_params(4, 4, 5), 8)
    want = LabelLayers()
    want.extend(ball, 2)
    monkeypatch.setattr(reference, "KEY_BASE", 4)
    layers = LabelLayers()
    layers.extend(ball, 2)
    assert [c[-1] for c in layers.counts] == [1, 3, 4]
    for j in (1, 2):
        assert np.array_equal(layers.lab[j], want.lab[j])
    with pytest.raises(OverflowError, match="label layer 2 has too many ids"):
        layers.extend(ball, 3)


def _stable_depth(ball, labels):
    """The least depth k* the stabilization test accepts, on reference labels."""
    R = ball.radius

    def count(j, s):
        return np.unique(labels[j][:ball.offsets[s + 1]]).size

    return next(k for k in range(1, len(labels) - 1)
                if count(k, R - k) == count(k, R - k - 1) == count(k + 1, R - k - 1))


SWEEP_POOL = [
    (l, m, n) for l in range(2, 7) for m in range(l, 7) for n in range(m, 7)
    if Fraction(1, l) + Fraction(1, m) + Fraction(1, n) < 1
] + [(2, 3, 7), (2, 3, 8)]


@pytest.mark.parametrize("triple", SWEEP_POOL)
def test_one_pass_verifier_matches_per_depth(triple):
    params = new_params(*triple)
    diag: dict = {}
    a = extract_escalating(params, diag=diag)
    ball = build_ball(params, a.radius)
    labels = [np.zeros(ball.n_vertices, dtype=np.int64)]
    while len(labels) <= a.k_star + 1:
        refine_labels(ball, labels)
    assert _stable_depth(ball, labels) == a.k_star
    want = np.sum([verify_classes_per_depth(ball, labels[d], d)
                   for d in (a.k_star + 1, a.k_star)], axis=0)
    assert diag["verifier"]["confirmed_by_perm"] == want.tolist()
    assert diag["verifier"]["members"] == want.sum()


@pytest.mark.parametrize("triple,radius", [((4, 5, 5), 11), ((6, 6, 5), 13), ((5, 5, 4), 11)])
def test_one_pass_verifier_refutes_as_per_depth(triple, radius):
    ball = build_ball(new_params(*triple), radius)
    with pytest.raises(VerificationFailed) as got:
        extract_from_ball(ball)
    labels = [np.zeros(ball.n_vertices, dtype=np.int64)]
    while refine_labels(ball, labels):
        pass
    k = _stable_depth(ball, labels)
    with pytest.raises(VerificationFailed) as want:
        for d in (k + 1, k):
            verify_classes_per_depth(ball, labels[d], d)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", range(6))
def test_row_ids_match_unique_rows(seed):
    # values up to 2^40 in 4-7 columns overflow one 62-bit key, so the key
    # is compressed on the way; small ranges exercise the plain packing
    rng = np.random.default_rng(seed)
    for high in (3, 1000, 1 << 40):
        n, width = int(rng.integers(1, 500)), int(rng.integers(4, 8))
        rows = rng.integers(-high, high, size=(n, width))
        rows[n // 2:] = rows[: n - n // 2]  # repeated rows
        _, want = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(row_ids(rows), want.reshape(-1))


HYPERBOLIC_8 = [
    (l, m, n) for l in range(2, 9) for m in range(l, 9) for n in range(m, 9)
    if Fraction(1, l) + Fraction(1, m) + Fraction(1, n) < 1
]


@pytest.mark.parametrize("triple", HYPERBOLIC_8)
def test_root_automaton_equals_ball_reference(triple):
    # both number the types by their shortlex-least element, so the type
    # bijection is the identity
    params = new_params(*triple)
    got, want = extract_automaton(params), extract_escalating(params)
    assert got.K_total == want.K_total
    assert got.root_type == want.root_type == 0
    assert np.array_equal(got.r, want.r)
    assert np.array_equal(got.M, want.M)


def test_root_path_equals_its_scalar_oracles():
    # the closed-form roots, the member-list states, the keyed Moore
    # refinement and the list-based orbits give the scalar BFS's act table,
    # the bit scan's states minimized by np.unique, the array orbits and a
    # byte-identical cta-1 document, in two orders;
    # E is the three chains, l + m + n - 3 roots, plus one root for a
    # commuting pair and two more for (2,3,q)
    for triple in HYPERBOLIC_12:
        for order in (triple, triple[::-1]):
            params = new_params(*order)
            act, want = reference.root_automaton_reference(params)
            got = extract_automaton(params, diag := {})
            lo, mid, _ = sorted(order)
            assert diag["roots"] == sum(order) - 3 + (lo == 2) + 2 * ((lo, mid) == (2, 3)), order
            assert np.array_equal(_elementary_roots(params.orders())[0], act), order
            assert np.array_equal(got.transitions, want.transitions), order
            assert np.array_equal(got.state_type, want.state_type), order
            assert np.array_equal(got.M, want.M), order
            assert got.root_type == want.root_type, order
            doc = automaton_to_json(got, reduce_automaton(got))
            assert doc == reference.cta1_reference(want), order


def test_every_state_has_its_types_row():
    # M is read off the least state of each type; every state of the type
    # has the same successor-type counts, on the atlas and on two triples
    # far beyond the radius the ball guard checks
    states = 0
    for triple in HYPERBOLIC_12 + [(2, 3, 97), (61, 67, 71)]:
        a = extract_automaton(new_params(*triple))
        succ, K = a.transitions, a.K_total
        q, s = np.nonzero(succ >= 0)
        got = np.bincount(q * K + a.state_type[succ[q, s]], minlength=len(succ) * K)
        assert np.array_equal(got.reshape(-1, K), a.M[a.state_type]), triple
        states += len(succ)
    assert states == 11991


def test_root_path_work_over_hyperbolic_12():
    # tripwire: the root layers closed and the Moore rounds over the 269
    # triples when this test was written; more of either fails here.  The
    # state totals, before and after minimization, are the automata's own
    # sizes and must stay exactly these
    totals = Counter()
    for triple in HYPERBOLIC_12:
        diag = {}
        extract_automaton(new_params(*triple), diag)
        totals.update(closure=diag["closure_rounds"], moore=diag["moore_rounds"],
                      before=diag["states"]["before"], after=diag["states"]["after"])
    assert len(HYPERBOLIC_12) == 269
    assert totals["closure"] <= 1366
    assert totals["moore"] <= 2677
    assert totals["before"] == 11454
    assert totals["after"] == 11380


@pytest.mark.parametrize("triple", [(2, 3, 97), (2, 4, 101), (3, 89, 97),
                                    (61, 67, 71), (89, 97, 101)])
def test_root_states_equal_the_bit_scan(triple):
    # the states D(w) with members listed once give the table of the scan of
    # every bit below each state's top bit; the mean state holds 42-45% of E
    # on (2,3,97) and (2,4,101), and 17-25% of it on the other three
    act, _ = _elementary_roots(new_params(*triple).orders())
    assert _root_states(act) == reference.bitscan_root_states(act).tolist()


def test_admissible_perms_equal_the_pairwise_orders():
    # the permutations fixing the exponent triple are those that preserve
    # the rotation order of every ordered generator pair
    ordered = {p for t in HYPERBOLIC_12 for p in permutations(t)}
    assert len(ordered) == 1275
    for triple in sorted(ordered):
        params = new_params(*triple)
        assert _admissible_perms(params) == \
            reference.pairwise_admissible_perms(params), triple


@pytest.mark.parametrize("triple", [(12, 16, 18), (12, 16, 20), (12, 18, 20),
                                    (15, 16, 20), (15, 18, 20)])
def test_root_automaton_on_one_large_field_factor(triple):
    # all three cosines lie in one field of degree 48 or 64, beyond the
    # triples the scalar oracle checks; the count is the closed form's and
    # the automaton passes the ball guard
    params = new_params(*triple)
    a = extract_automaton(params)
    assert a.K_total == theorem_case(*triple)[1]
    check_on_ball(a, build_ball(params, 8))


def test_root_automaton_on_large_exponents():
    # the elementary roots come from the exponents alone, so automata with
    # about 400 types take milliseconds, whatever the degree of the cosine
    # field (34,650 for (61,67,71)); the budget is CPU time of this process
    elapsed = 0.0
    for triple in [(61, 67, 71), (3, 89, 97)]:
        start = time.process_time()
        a = extract_automaton(new_params(*triple))
        elapsed += time.process_time() - start
        assert a.K_total == theorem_case(*triple)[1], triple
    assert elapsed <= 0.25


def test_ball_check_refuses_a_document_automaton():
    # an automaton read from a cta-1 document has no transitions: its sphere
    # sizes agree with the ball, but it cannot type the ball's vertices
    path = Path(__file__).resolve().parents[1] / "perfbench" / "automata" / "cta-4-4-4.json"
    a, _ = automaton_from_json(path.read_text())
    ball = build_ball(new_params(4, 4, 4), 6)
    for check in (types_on_ball, check_on_ball):
        with pytest.raises(VerificationFailed, match="no transitions"):
            check(a, ball)


def test_ball_typing_refuses_a_missing_transition():
    # an automaton without the transition from the identity by generator 0
    # refuses a geodesic of length 1
    params = new_params(4, 4, 4)
    a = extract_automaton(params)
    a.transitions = a.transitions.copy()
    a.transitions[0, 0] = -1
    with pytest.raises(VerificationFailed, match="refuses a geodesic of length 1$"):
        types_on_ball(a, build_ball(params, 3))


def test_ball_check_refuses_fractional_type_counts():
    # one of the root's successors moved to a type with r >= 2, in the same
    # row so that r is unchanged: sphere 1 would then hold a count of that
    # type that its r does not divide, and the identity's successor types
    # are off its row
    params = new_params(4, 4, 4)
    a = extract_automaton(params)
    root, r = a.root_type, a.r
    j = int(np.flatnonzero(a.M[root])[0])
    i = next(i for i in range(a.K_total) if r[i] >= 2 and (a.M[root, i] + 1) % r[i])
    a.M = a.M.copy()
    a.M[root, j] -= 1
    a.M[root, i] += 1
    assert np.array_equal(a.r, r)
    with pytest.raises(VerificationFailed, match="^vertex 0 on sphere 0 has successor types"):
        check_on_ball(a, build_ball(params, 3))


def test_ball_check_refuses_a_successor_lost_on_the_last_sphere():
    # type 7 of (7,7,7), with r = 2, first appears on sphere 7: at radius 7
    # no vertex has its successor row, and only the predecessor counts of
    # the last sphere see a successor removed from it
    params = new_params(7, 7, 7)
    a = extract_automaton(params)
    ball = build_ball(params, 7)
    assert a.r[7] == 2 and ball.norms[np.flatnonzero(types_on_ball(a, ball) == 7)].min() == 7
    a.M = a.M.copy()
    a.M[7, np.flatnonzero(a.M[7])[0]] -= 1
    with pytest.raises(VerificationFailed, match="^vertex 190 on sphere 7 has 2 predecessors"):
        check_on_ball(a, ball)


CORRUPTIONS = ("retarget", "swap", "move", "plus_minus")


def _corrupt(a: ConeTypeAutomaton, kind: str, rng) -> ConeTypeAutomaton:
    """A corrupted copy of the automaton: a transition retargeted, two types
    swapped, an M entry moved within its row, or an M entry off by one."""
    a = replace(a, M=a.M.copy(), transitions=a.transitions.copy())
    K = a.K_total
    if kind == "retarget":
        q, s = rng.choice(np.argwhere(a.transitions >= 0))
        a.transitions[q, s] = rng.integers(len(a.transitions))
    elif kind == "swap":
        i, j = rng.choice(K, 2, replace=False)
        perm = np.arange(K)
        perm[[i, j]] = j, i
        a.state_type = perm[a.state_type]
    elif kind == "move":
        i, j = rng.choice(np.argwhere(a.M > 0))
        a.M[i, j] -= 1
        a.M[i, rng.choice(np.delete(np.arange(K), j))] += 1
    else:
        a.M[tuple(rng.integers(K, size=2))] += rng.choice([-1, 1])
    return a


def test_ball_check_refuses_what_the_census_refuses():
    # the local guard against the sphere counts and successor rows of
    # reference.census_refuses, on a seeded corpus of corruptions
    refused = Counter()
    for triple in [(2, 3, 7), (2, 4, 5), (3, 3, 4), (3, 4, 5), (4, 4, 4), (3, 5, 7), (7, 7, 7)]:
        params = new_params(*triple)
        a = extract_automaton(params)
        for R in (3, 6):
            ball = build_ball(params, R)
            for k, kind in enumerate(CORRUPTIONS):
                rng = np.random.default_rng([*triple, R, k])
                for _ in range(16):
                    bad = _corrupt(a, kind, rng)
                    try:
                        check_on_ball(bad, ball)
                        got = False
                    except VerificationFailed:
                        got = True
                    assert got == reference.census_refuses(ball, bad), (triple, R, kind)
                    refused[kind, got] += 1
    assert all(refused[kind, True] and refused[kind, False] for kind in CORRUPTIONS), refused


def test_json_refuses_booleans_in_integer_arrays():
    # numpy reads a bool among ints as an int, so np.array([1, True]) is
    # int64; a bool standing for the very count it equals is still refused,
    # and the message names the array
    import json as _json

    good = (Path(__file__).resolve().parents[1] / "perfbench" / "automata"
            / "cta-4-4-4.json").read_text()
    automaton_from_json(good)
    for name, path, value in [("M", ("M", 2, 2), True), ("M", ("M", 0, 0), False),
                              ("r", ("r",), [0, True, True, True, 2, True]),
                              ("reduced.M", ("reduced", "M", 0, 0), True)]:
        doc = _json.loads(good)
        *keys, last = path
        node = doc
        for key in keys:
            node = node[key]
        assert node[last] == value  # the same count, as a bool
        node[last] = value
        with pytest.raises(SchemaError, match=rf"^{name} holds a boolean"):
            automaton_from_json(_json.dumps(doc))


MUTATION_VALUES = [None, True, False, 0, -1, 1, 2, 3, 4, 2 ** 63, 2 ** 70, 1.0, 1.5, "1",
                   [], [1], [[1]], {}]


def _json_paths(node, prefix=()):
    """Every path below the root of a parsed JSON document, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def test_json_single_value_mutations_are_accepted_or_refused():
    # each path of the (4,4,4) document set to each of MUTATION_VALUES but
    # its own value: the reader accepts it or raises a ConeTypesError, and
    # nothing else escapes.  It accepts another exponent triple, no triple,
    # and another root type, since nothing yet ties a document to its group
    import json as _json

    good = _json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "automata"
                        / "cta-4-4-4.json").read_text())
    accepted, count = set(), 0
    for path in _json_paths(good):
        *keys, last = path
        parent = good
        for key in keys:
            parent = parent[key]
        for value in MUTATION_VALUES:
            if type(value) is type(parent[last]) and value == parent[last]:
                continue
            doc = _json.loads(_json.dumps(good))
            node = doc
            for key in keys:
                node = node[key]
            node[last] = value
            count += 1
            try:
                automaton_from_json(_json.dumps(doc))
            except ConeTypesError:
                continue
            accepted.add((path, _json.dumps(value)))
    assert count == 1585
    assert accepted == ({(("params",), "null")}
                        | {(("params", i), str(v)) for i in range(3) for v in (3, 2 ** 63, 2 ** 70)}
                        | {(("root_type",), str(t)) for t in range(1, 5)})


def test_root_types_are_the_reference_partition(graph_data):
    # the automaton run along the reference extraction ball types every
    # vertex as the reference does, on the reference's domain
    for triple in TABLE:
        data = graph_data[triple]
        ref = data["reference"]
        types = types_on_ball(data["automaton"], data["ball"])
        dom = ref.type_of >= 0
        assert dom.sum() == data["ball"].offsets[ref.radius - ref.k_star + 1]
        assert np.array_equal(types[dom], ref.type_of[dom]), triple


def _traces(M):
    power, out = np.eye(len(M), dtype=np.int64), []
    for _ in range(len(M)):
        power = power @ M
        out.append(int(np.trace(power)))
    return out


@pytest.mark.parametrize("triple", SWEEP_POOL)
def test_exponent_order_does_not_change_the_automaton(triple):
    want = extract_automaton(new_params(*triple))
    for order in set(permutations(triple)):
        got = extract_automaton(new_params(*order))
        assert got.K_total == want.K_total, order
        assert len(reduce_automaton(got).types) == len(reduce_automaton(want).types)
        assert _traces(got.M) == _traces(want.M), order


def test_iii2_count_is_one_below_the_closed_form():
    # reproduction note: for (2, b, c) with 5 <= b < c the root path counts
    # 2b + 2c + 6 cone types, one less than the paper's 2b + 2c + 7, which
    # theorem_case keeps; the ball extraction agrees where it is cheap
    checked = 0
    for b in range(5, 13):
        for c in range(b + 1, 13):
            params = new_params(2, b, c)
            assert theorem_case(2, b, c) == ("(iii.2)", 2 * b + 2 * c + 7)
            K = extract_automaton(params).K_total
            assert K == 2 * b + 2 * c + 6, (b, c)
            if c <= 8:
                assert extract_escalating(params).K_total == K, (b, c)
                checked += 1
    assert checked == 6


def test_dot_output(data444):
    a = data444["automaton"]
    lines = to_digraph_dot(a).splitlines()
    assert lines[0] == "digraph cone_types {" and lines[-1] == "}"
    arcs = [line for line in lines[1:-1] if "->" in line]
    nodes = [line for line in lines[1:-1] if "->" not in line]
    # M_ij parallel arcs from type i to type j, 12 in all
    assert len(arcs) == int(a.M.sum()) == 12
    assert Counter(arcs) == {f"  n{i} -> n{j};": int(a.M[i, j]) for i, j in zip(*np.nonzero(a.M))}
    assert len(nodes) == a.K_total
    # r_i != 1 on exactly the root type (0) and type 4 (2)
    assert [line for line in nodes if "xlabel" in line] == [
        '  n0 [label="0", xlabel="0"];', '  n4 [label="4", xlabel="2"];']


def test_json_round_trip(data444):
    a, ra = data444["automaton"], data444["reduced"]
    doc = automaton_to_json(a, ra)
    assert '"schema": "cta-1"' in doc
    a2, ra2 = automaton_from_json(doc)
    assert a2.K_total == a.K_total
    assert np.array_equal(a2.M, a.M)
    assert a2.degree == a.degree
    assert np.array_equal(a2.r, a.r)
    assert ra2.types == ra.types
    assert np.array_equal(ra2.M, ra.M)
    # byte-deterministic export
    assert doc == automaton_to_json(a, ra)


def test_json_schema_errors(data444):
    a, ra = data444["automaton"], data444["reduced"]
    good = automaton_to_json(a, ra)
    with pytest.raises(SchemaError):
        automaton_from_json("not json at all {")
    with pytest.raises(SchemaError):
        automaton_from_json(good.replace("cta-1", "cta-9"))
    with pytest.raises(SchemaError):
        automaton_from_json(good.replace('"K_total": 6', '"K_total": 7'))
    import json as _json

    doc = _json.loads(good)
    doc["M"][0][1] = -3
    with pytest.raises(SchemaError):
        automaton_from_json(_json.dumps(doc))
    doc = _json.loads(good)
    del doc["M"]
    with pytest.raises(SchemaError, match="^malformed cta-1 document: 'M'$"):
        automaton_from_json(_json.dumps(doc))
    doc = _json.loads(good)
    doc["root_type"] = 99
    with pytest.raises(SchemaError):
        automaton_from_json(_json.dumps(doc))
    # the lower bound needs a regular graph: one positive degree for all types
    for d in ([3, 3, 3, 4, 3, 3], [0] * 6, [-3] * 6):
        doc = _json.loads(good)
        doc["d"] = d
        with pytest.raises(SchemaError):
            automaton_from_json(_json.dumps(doc))
    # r and the reduced block must be what M and d give, and every count is
    # an integer: a float, string or bool is refused, not truncated or parsed
    assert 1 not in ra.types
    assert (a.K_total, a.root_type, int(a.M[0, 1])) == (6, 0, 3)
    for path, value in [(("r", 1), int(a.r[1]) + 1),  # a type outside the reduced set
                        (("reduced", "p"), ra.p + 1),
                        (("reduced", "types"), [1, 3, 4, 5]),
                        (("reduced", "M", 0, 0), int(ra.M[0, 0]) + 1),
                        (("d",), [4] * 6),  # with the degree-3 M and r
                        (("K_total",), 6.7), (("root_type",), "0"), (("root_type",), 0.9),
                        (("root_type",), True), (("reduced", "p"), ra.p + 0.5),
                        (("M", 0, 1), 3.9), (("d",), [3.0] * 6),
                        (("reduced", "types"), [2.0, 3, 4, 5])]:
        doc = _json.loads(good)
        *keys, last = path
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        with pytest.raises(SchemaError):
            automaton_from_json(_json.dumps(doc))
    # params, when given, is a list of three JSON integers: a float, string
    # or bool exponent is refused like any other count
    for params in ([4, 4], 5, [4, 4, 4, 4], [4.0, 4, 4], ["4", 4, 4], [True, 4, 4]):
        doc = _json.loads(good)
        doc["params"] = params
        with pytest.raises(SchemaError):
            automaton_from_json(_json.dumps(doc))
    # integer exponents are then checked as a triple
    doc = _json.loads(good)
    doc["params"] = [2, 3, 6]
    with pytest.raises(NonHyperbolic):
        automaton_from_json(_json.dumps(doc))
    # more successors than the degree: r = d - row sums is negative
    doc = _json.loads(good)
    doc["d"], doc["r"] = [2] * 6, (2 - a.M.sum(axis=1)).tolist()
    with pytest.raises(SchemaError):
        automaton_from_json(_json.dumps(doc))
    # a count outside int64 is refused, not carried into int64 arithmetic:
    # one degree of 2**70 for every type, with the r it gives, or a 2**63
    # entry of M, r or the reduced M
    for path, value in [(("d",), [2 ** 70] * 6), (("M", 0, 1), 2 ** 63),
                        (("r", 1), 2 ** 63), (("reduced", "M", 0, 0), 2 ** 63)]:
        doc = _json.loads(good)
        if path == ("d",):
            doc["r"] = (2 ** 70 - a.M.sum(axis=1).astype(object)).tolist()
        *keys, last = path
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        with pytest.raises(SchemaError):
            automaton_from_json(_json.dumps(doc))
    # row 4 as four counts of 2**62 and a 1: its int64 sum wraps to 1, so r
    # and the reduced block rewritten from the int64 M agree with it, but the
    # row's true sum is far above the degree
    doc = _json.loads(good)
    doc["M"][4] = [2 ** 62] * 4 + [0, 1]
    wrapped = replace(a, M=np.array(doc["M"], dtype=np.int64))
    assert wrapped.M.sum(axis=1)[4] == 1
    rw = reduce_automaton(wrapped)
    doc["r"] = wrapped.r.tolist()
    doc["reduced"] = {"types": list(rw.types), "M": rw.M.tolist(), "p": rw.p}
    with pytest.raises(SchemaError, match="^predecessor vector"):
        automaton_from_json(_json.dumps(doc))
