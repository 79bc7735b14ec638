"""Cone-type automaton extraction, verification, reduction, and export."""

import time

import numpy as np
import pytest

from conetypes import (
    DepthExceedsBall,
    NotStabilized,
    SchemaError,
    VerificationFailed,
    automaton_from_json,
    automaton_to_json,
    build_ball,
    cones_isomorphic,
    extract_automaton,
    new_params,
    sphere_type_census,
    theorem_case,
    to_digraph_dot,
    truncated_cone,
    verify_counts,
)
from conetypes.automaton import (
    _admissible_perms,
    _cone_levels,
    _refine_labels,
    _twisted_maps,
)
from conftest import EXPECTED_COUNTS, TABLE

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


def test_truncated_cone_of_base_point(data444):
    ball = data444["ball"]
    cone = truncated_cone(ball, 0, 2)
    # the cone at the base point is the whole ball
    assert set(cone.vertices) == set(np.flatnonzero(ball.norms <= 2))
    with pytest.raises(DepthExceedsBall):
        truncated_cone(ball, 0, ball.radius + 1)


def test_cone_isomorphism_reflexive_and_type_faithful(data444):
    ball, a = data444["ball"], data444["automaton"]
    k = a.k_star
    # same-type vertices have isomorphic truncated cones; cross-type do not
    reps: dict[int, int] = {}
    for v in range(ball.offsets[4]):
        t = int(a.type_of[v])
        reps.setdefault(t, v)
    types = sorted(reps)
    for t in types:
        c = truncated_cone(ball, reps[t], k)
        assert cones_isomorphic(c, c)
    for v in range(ball.offsets[3], ball.offsets[4]):
        t = int(a.type_of[v])
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
    assert (a.d == 3).all()  # trivalent graph: every type has degree 3
    assert (a.M.sum(axis=1) == a.d - a.r).all()  # successors + predecessors = degree
    assert a.r[0] == 0  # base point has no predecessor


def test_reduction_444(data444):
    ra = data444["reduced"]
    assert ra.types == (2, 3, 4, 5)
    assert np.array_equal(ra.M, M444_REDUCED)
    assert 1 <= ra.p <= len(ra.types) ** 2


def test_reduction_237(data237):
    assert len(data237["reduced"].types) == 24


def test_verify_counts_all_groups(graph_data):
    for triple in TABLE:
        a = graph_data[triple]["automaton"]
        report = verify_counts(graph_data[triple]["params"], a)
        assert report.matches, (triple, report)
        assert report.actual == EXPECTED_COUNTS[triple]


def test_degree_predecessor_split(graph_data):
    # successors + predecessors = 3 for every type: each vertex is trivalent
    for triple in TABLE:
        a = graph_data[triple]["automaton"]
        assert (a.d == 3).all()
        assert (a.M.sum(axis=1) + a.r == 3).all()
        assert (a.r[1:] >= 1).all()  # only the base point lacks predecessors


def test_sphere_census_recursion(graph_data):
    """Exact integer identity: r_j * s_{k+1}(j) = sum_i M_ij s_k(i)."""
    for triple in [(4, 4, 4), (2, 3, 7), (3, 5, 7)]:
        ball = graph_data[triple]["ball"]
        a = graph_data[triple]["automaton"]
        census = sphere_type_census(ball, a)
        assert census.shape[1] == a.K_total
        # past the transient prefix every row advances by the matrix
        start = 2 * a.k_star + 2
        for k in range(start, census.shape[0] - 1):
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
    ball = data444["ball"]
    a1 = data444["automaton"]
    a2 = extract_automaton(ball)
    assert np.array_equal(a1.M, a2.M)
    assert np.array_equal(a1.type_of, a2.type_of)
    assert a1.k_star == a2.k_star


def test_not_stabilized_on_tiny_ball():
    ball = build_ball(new_params(4, 4, 4), 5)
    with pytest.raises(NotStabilized):
        extract_automaton(ball)


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
        extract_automaton(ball)


@pytest.mark.parametrize("triple,radius", [((4, 5, 5), 11), ((6, 6, 5), 13)])
def test_verifier_refutes_overmerged_partition(triple, radius):
    # these radii stabilize on a partition that no twisted walk confirms
    ball = build_ball(new_params(*triple), radius)
    t0 = time.perf_counter()
    with pytest.raises(VerificationFailed):
        extract_automaton(ball)
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
        _refine_labels(ball, labels)
    dom = int(ball.offsets[radius - depth + 1])
    lab = labels[depth][:dom]
    tables = (ball.neighbor_table().tolist(), ball.norms.tolist(),
              ball.successor_table()[1].tolist())
    rng = np.random.default_rng(3)
    outcomes = set()
    for c in np.unique(lab):
        members = np.flatnonzero(lab == c)
        x = int(members[0])
        ys = np.concatenate([members[1:], rng.integers(0, dom, 20)])
        levels = _cone_levels(ball, x, depth)
        confirmed = np.zeros(ys.size, dtype=bool)
        for perm in _admissible_perms(ball.params):
            got = _twisted_maps(ball, levels, ys, np.array(perm)).tolist()
            want = [_reference_walk(*tables, x, int(y), depth, perm) for y in ys]
            assert got == want
            confirmed |= want
        outcomes.update(zip(confirmed.tolist(), np.isin(ys, members).tolist()))
    # confirmed members, refuted outsiders, and members no twist confirms
    assert {(True, True), (False, False)} <= outcomes
    assert ((False, True) in outcomes) == (triple == (4, 5, 5))


def test_dot_output(data444):
    a = data444["automaton"]
    dot = to_digraph_dot(a)
    assert dot.startswith("digraph")
    assert dot.count("->") == int(np.count_nonzero(a.M) + (a.M > 1).sum() * 0) or "->" in dot
    ra = data444["reduced"]
    dot_r = to_digraph_dot(ra)
    assert "->" in dot_r


def test_json_round_trip(data444):
    a, ra = data444["automaton"], data444["reduced"]
    doc = automaton_to_json(a, ra)
    assert '"schema": "cta-1"' in doc
    a2, ra2 = automaton_from_json(doc)
    assert a2.K_total == a.K_total
    assert np.array_equal(a2.M, a.M)
    assert np.array_equal(a2.d, a.d)
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
    doc["root_type"] = 99
    with pytest.raises(SchemaError):
        automaton_from_json(_json.dumps(doc))
