"""Group parameters, word problem, and exact Cayley-ball construction."""

from collections import Counter

import numpy as np
import pytest

from conetypes import (
    CapExceeded,
    InvalidParameter,
    MemoryCap,
    NonHyperbolic,
    build_ball,
    free_reduce,
    new_params,
    reflection_rep,
    tits_equal,
)
from conetypes.coxeter import _geodesic_closure


def tits_ball(triple, radius):
    """Brute-force ball from the presentation alone: canonical geodesic BFS.

    Independent of the reflection representation; the canonical form of a
    word is the lex-least element of its braid-move closure.
    """
    def canon(word):
        return min(_geodesic_closure(triple, word))

    seen = {(): 0}
    levels = [[()]]
    edges = set()
    for _ in range(radius):
        nxt = []
        for w in levels[-1]:
            u = seen[w]
            for g in range(3):
                if w and w[-1] == g:
                    continue
                cw = canon(w + (g,))
                if len(cw) == len(w) + 1:
                    if cw not in seen:
                        seen[cw] = len(seen)
                        nxt.append(cw)
                    edges.add((u, seen[cw], g))
                else:
                    edges.add((seen[cw], u, g))
        levels.append(nxt)
    norms = {i: len(w) for w, i in seen.items()}
    return [len(lv) for lv in levels], edges, norms


def test_params_validation():
    assert new_params(2, 3, 7).triple() == (2, 3, 7)
    with pytest.raises(NonHyperbolic):
        new_params(2, 3, 6)  # Euclidean
    with pytest.raises(NonHyperbolic):
        new_params(2, 3, 5)  # spherical
    with pytest.raises(InvalidParameter):
        new_params(1, 4, 5)
    with pytest.raises(InvalidParameter):
        new_params(0, 4, 5)


def test_angle_sum_below_one():
    p = new_params(3, 5, 7)
    assert p.angle_sum() < 1
    assert float(p.angle_sum()) == pytest.approx(1 / 3 + 1 / 5 + 1 / 7)


def test_reflection_rep_is_involutive_with_symmetric_gram():
    rep = reflection_rep(new_params(4, 4, 4))
    assert np.allclose(rep.gram, rep.gram.T)
    for s in rep.sigma:
        assert np.allclose(s @ s, np.eye(3), atol=1e-12)


def test_free_reduce():
    assert free_reduce((0, 1, 1, 2)) == (0, 2)
    assert free_reduce((0, 0)) == ()
    assert free_reduce((0, 1, 2)) == (0, 1, 2)
    assert free_reduce((0, 1, 1, 0, 2)) == (2,)


def test_tits_equal_relators():
    p444 = new_params(4, 4, 4)
    # (LM)^4 = identity: order of LM is the parameter playing n
    assert tits_equal(p444, (0, 1) * 4, ())
    assert not tits_equal(p444, (0, 1) * 2, ())
    assert tits_equal(p444, (0,), (0,))
    assert not tits_equal(p444, (0,), (1,))
    p237 = new_params(2, 3, 7)
    # (MN)^2 = identity means M and N commute
    assert tits_equal(p237, (1, 2), (2, 1))
    assert tits_equal(p237, (0, 1) * 7, ())


def test_tits_equal_cap():
    p = new_params(4, 4, 4)
    with pytest.raises(CapExceeded):
        tits_equal(p, (0, 1) * 10, (), cap=10)


@pytest.mark.parametrize("triple,radius", [((4, 4, 4), 6), ((2, 3, 7), 7), ((3, 5, 7), 6)])
def test_ball_matches_presentation_bruteforce(triple, radius):
    """Sphere sizes and labeled-edge census agree with the Tits-word ball."""
    sizes, edges, norms = tits_ball(triple, radius)
    ball = build_ball(new_params(*triple), radius)
    assert [int(s) for s in ball.sphere_sizes()] == sizes
    assert len(ball.edges) == len(edges)
    ours = Counter((int(ball.norms[u]), int(g)) for u, v, g in ball.edges)
    theirs = Counter((norms[u], g) for u, v, g in edges)
    assert ours == theirs


@pytest.mark.parametrize("triple", [(4, 4, 4), (2, 3, 7)])
def test_ball_structure_invariants(triple, request):
    ball = build_ball(new_params(*triple), 8)
    V, R = ball.n_vertices, ball.radius
    # edges go from a sphere to the next (bipartite by parity)
    assert (ball.norms[ball.edges[:, 1]] == ball.norms[ball.edges[:, 0]] + 1).all()
    # simple graph: no duplicated (u, v) pair
    pairs = set(map(tuple, ball.edges[:, :2]))
    assert len(pairs) == len(ball.edges)
    # trivalent in the interior
    deg = np.zeros(V, dtype=int)
    for u, v, g in ball.edges:
        deg[u] += 1
        deg[v] += 1
    interior = ball.norms < R
    assert (deg[interior] == 3).all()
    # offsets consistent with norms, norms nondecreasing in vertex id
    assert (np.diff(ball.norms) >= 0).all()
    assert ball.offsets[0] == 0 and ball.offsets[-1] == V
    for k in range(R + 1):
        assert (ball.norms[ball.offsets[k]:ball.offsets[k + 1]] == k).all()
    # parent lives on the previous sphere
    assert (ball.norms[ball.parent[1:]] == ball.norms[1:] - 1).all()


def test_sphere_sizes_known_prefixes():
    ball = build_ball(new_params(4, 4, 4), 4)
    assert [int(s) for s in ball.sphere_sizes()[:3]] == [1, 3, 6]
    ball = build_ball(new_params(2, 3, 7), 4)
    assert int(ball.sphere_sizes()[2]) == 5  # (MN)^2 relator merges one pair


def test_ball_deterministic_rebuild():
    b1 = build_ball(new_params(3, 4, 4), 7)
    b2 = build_ball(new_params(3, 4, 4), 7)
    assert np.array_equal(b1.edges, b2.edges)
    assert np.array_equal(b1.norms, b2.norms)
    assert np.array_equal(b1.parent, b2.parent)


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 5, 7), (4, 4, 5)])
def test_grown_ball_equals_fresh_build(triple):
    params = new_params(*triple)
    ball = build_ball(params, 1)
    while ball.radius < 13:
        # fill the lazy tables, which growing must invalidate
        ball.successor_table()
        ball.neighbor_table()
        ball.grow()
        fresh = build_ball(params, ball.radius)
        for name in ("norms", "offsets", "edges", "parent", "parent_gen"):
            got, want = getattr(ball, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for got, want in zip(ball.successor_table(), fresh.successor_table()):
            assert np.array_equal(got, want)
        assert np.array_equal(ball.neighbor_table(), fresh.neighbor_table())


def test_representative_words_are_geodesics():
    ball = build_ball(new_params(4, 4, 4), 6)
    p = ball.params
    for v in range(0, ball.n_vertices, 17):
        w = ball.representative_word(v)
        assert len(w) == int(ball.norms[v])
        assert free_reduce(w) == w


def test_two_predecessor_vertices_have_equal_words():
    """Where two edges meet a vertex, both parent routes spell equal elements."""
    ball = build_ball(new_params(4, 4, 4), 6)
    p = ball.params
    incoming: dict[int, list] = {}
    for u, v, g in ball.edges:
        incoming.setdefault(int(v), []).append((int(u), int(g)))
    checked = 0
    for v, pres in incoming.items():
        if len(pres) == 2 and ball.norms[v] <= 5:
            (u1, g1), (u2, g2) = pres
            w1 = ball.representative_word(u1) + (g1,)
            w2 = ball.representative_word(u2) + (g2,)
            assert tits_equal(p, w1, w2)
            checked += 1
            if checked >= 10:
                break
    assert checked > 0


def test_memory_cap():
    with pytest.raises(MemoryCap):
        build_ball(new_params(2, 3, 7), 12, max_vertices=20)


def test_monotone_growth_and_export():
    ball = build_ball(new_params(2, 5, 5), 8)
    sizes = ball.sphere_sizes()
    assert (sizes[2:] >= sizes[1:-1]).all()
    doc = ball.to_json()
    assert '"edges"' in doc and '"radius": 8' in doc
    csv = ball.to_adjacency_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "vertex,norm,neighbors"
    assert len(lines) == ball.n_vertices + 1
