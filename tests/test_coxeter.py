"""Group parameters and exact Cayley-ball construction, against independent references."""

import hashlib
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conetypes import (
    CayleyBall,
    IdentificationAmbiguity,
    InvalidParameter,
    MemoryCap,
    NonHyperbolic,
    VerificationFailed,
    build_ball,
    curvature,
    new_params,
)
from conetypes import coxeter
from conetypes.cli import main
from reference import (
    CosineRing,
    NotStabilized,
    WordCapExceeded,
    extract_from_ball,
    free_reduce,
    geodesic_closure,
    reflection_rep,
    reflection_tensors,
    representative_words,
    tits_equal,
)


def tits_ball(triple, radius):
    """Brute-force ball from the presentation alone: canonical geodesic BFS.

    Independent of the reflection representation; the canonical form of a
    word is the lex-least element of its braid-move closure.
    """
    def canon(word):
        return min(geodesic_closure(triple, word))

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


def test_hyperbolic_exactly_when_the_angle_sum_is_below_one():
    # new_params decides hyperbolicity in integers; the test sums Fractions
    for triple in product(range(2, 31), repeat=3):
        total = sum(Fraction(1, v) for v in triple)
        if total < 1:
            p = new_params(*triple)
            assert p.angle_sum() == total and curvature(p) == total - 1, triple
        else:
            with pytest.raises(NonHyperbolic):
                new_params(*triple)
    # the Euclidean boundary, where the sum is exactly 1, and exponents whose
    # products overflow int64, given as Python ints and as np.int64
    for triple in [(2, 3, 6), (2, 4, 4), (3, 3, 3), (2 ** 40, 2 ** 41, 2 ** 62), (2, 3, 2 ** 62)]:
        total = sum(Fraction(1, v) for v in triple)
        for given in (triple, tuple(np.int64(v) for v in triple)):
            if total == 1:
                with pytest.raises(NonHyperbolic):
                    new_params(*given)
                continue
            p = new_params(*given)
            assert p.triple() == triple and {type(v) for v in p.triple()} == {int}
            assert p.angle_sum() == total and curvature(p) == total - 1


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
    with pytest.raises(WordCapExceeded):
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


# sha256 of to_json(), recorded with the dense-product, numpy.random-weighted
# grow: vertex ids and edge order must not move with the growth's internals
BALL_DIGESTS = {
    ((2, 3, 7), 10): "dd00657dd2da2813d35b432e5fd6d6e2e203a04f29612c2a67fdae082880e58e",
    ((3, 5, 7), 8): "0f80fa88e14d52cae6ec6de0decf8f1877ae5d62a2da100b750b782cb4f358b5",
    ((4, 7, 8), 8): "32cb65dd09ab0cfa664b403c2cfeb787824a7ae14d0fcc24b0e6f36c3eed22c6",
}


@pytest.mark.parametrize("triple,radius", list(BALL_DIGESTS))
def test_ball_json_digest_is_pinned(triple, radius):
    text = build_ball(new_params(*triple), radius).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == BALL_DIGESTS[triple, radius]


# sha256 of the parent and parent_gen bytes of the same balls, recorded when
# grow stored both arrays; the JSON digests do not cover them
PARENT_DIGESTS = {
    ((2, 3, 7), 10): ("d66a0047756b6052b55e43e2d670238a611c27b2d2f9625f4e600973b282329a",
                      "7976a20d056e9ee6c48728c2900f914f8cc2544f434516b7a886fac9cea3571d"),
    ((3, 5, 7), 8): ("50cd72d7a61492d9bf21b0eabe781f131842e93e9583f25a38402748204cce30",
                     "5c8dd0effda3adcdf954bfe44ce29dc71176f5df5d0d5110b72aafc8705b62ef"),
    ((4, 7, 8), 8): ("c741e26a05bac43091cd7dd31ec6c4b3fe09cb71439940297cb85e3d76bd06af",
                     "420102d78842b391d68a158481b7a0b2b32313c33dd4ca522078caec65fe40ff"),
}


@pytest.mark.parametrize("triple,radius", list(PARENT_DIGESTS))
def test_ball_parent_digest_is_pinned(triple, radius):
    ball = build_ball(new_params(*triple), radius)
    parent, parent_gen = ball.parent, ball.parent_gen
    assert (parent.dtype, parent_gen.dtype) == (np.int64, np.int16)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (parent, parent_gen))
    assert got == PARENT_DIGESTS[triple, radius]


# sha256 of the ball command's exports, recorded when both writers read
# one numpy scalar at a time
EXPORT_DIGESTS = {
    ("ball 4 4 4", "csv"): "3452a03f485933d31bfbcad602e2e438bd2de4c389dbaea32408413237fb9895",
    ("ball 4 4 4", "json"): "afb8c986c148e1773c1e15e703ca2778c9074656dbedd7237d9667995f29422e",
    ("--radius 9 ball 2 3 7", "csv"):
        "a563d502c92d61fc8eaf891774433561ceb5c17182c1317854c2eaef29a96159",
    ("--radius 9 ball 2 3 7", "json"):
        "ed89a160e6ab0d4c2acec0909f2ad8bd440b4faa24251f6bc2a3912f529ec915",
}


@pytest.mark.parametrize("command,fmt", list(EXPORT_DIGESTS))
def test_ball_export_digest_is_pinned(command, fmt):
    result = CliRunner().invoke(main, command.split() + ["--format", fmt])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == EXPORT_DIGESTS[command, fmt]


def test_ball_growth_imports_no_numpy_random():
    """build_ball and run_group leave numpy.random unimported.

    A subprocess, because other test modules import numpy.random here."""
    script = (
        "import sys\n"
        "from conetypes import build_ball, new_params, run_group\n"
        "build_ball(new_params(2, 3, 7), 10)\n"
        "assert run_group(new_params(2, 3, 7)).ok\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(coxeter.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["False"]


# the triples with max <= 8 on which a tensor product of one basis per order
# would be larger than the cosine field: 2cos(pi/4) = sqrt 2 is a polynomial
# in 2cos(pi/8)
FIELD_MERGED = [(2, 4, 8), (3, 4, 8), (4, 4, 8), (4, 5, 8), (4, 6, 8), (4, 7, 8), (4, 8, 8)]


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 5, 7), (4, 4, 5)] + FIELD_MERGED)
def test_grown_ball_equals_fresh_build(triple):
    params = new_params(*triple)
    ball = build_ball(params, 1)
    while ball.radius < 13:
        ball.grow()
        fresh = build_ball(params, ball.radius)
        for name in ("norms", "offsets", "edges", "parent", "parent_gen"):
            got, want = getattr(ball, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.array_equal(ball.nbr, fresh.nbr)
        # the last sphere's rows, whose links are its descent sets
        assert np.array_equal(*(b.nbr[b.offsets[-2]:] >= 0 for b in (ball, fresh))), "descents"
        # the walks of the last sphere, from which the next grow continues
        for name, got, want in zip(("length", "end"), walks(ball), walks(fresh)):
            assert np.array_equal(got, want), name


def test_representative_words_are_geodesics():
    ball = build_ball(new_params(4, 4, 4), 6)
    p = ball.params
    words = representative_words(ball)
    for v in range(0, ball.n_vertices, 17):
        w = words[v]
        assert len(w) == int(ball.norms[v])
        assert free_reduce(w) == w


def test_two_predecessor_vertices_have_equal_words():
    """Where two edges meet a vertex, both parent routes spell equal elements."""
    ball = build_ball(new_params(4, 4, 4), 6)
    p = ball.params
    words = representative_words(ball)
    incoming: dict[int, list] = {}
    for u, v, g in ball.edges:
        incoming.setdefault(int(v), []).append((int(u), int(g)))
    checked = 0
    for v, pres in incoming.items():
        if len(pres) == 2 and ball.norms[v] <= 5:
            (u1, g1), (u2, g2) = pres
            w1 = words[u1] + (g1,)
            w2 = words[u2] + (g2,)
            assert tits_equal(p, w1, w2)
            checked += 1
            if checked >= 10:
                break
    assert checked > 0


def test_memory_cap(monkeypatch):
    monkeypatch.setattr(coxeter, "MAX_VERTICES", 20)
    with pytest.raises(MemoryCap):
        build_ball(new_params(2, 3, 7), 12)


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


def walks(ball):
    """The last sphere's walks unpacked: their lengths and their ends as
    vertex ids, each indexed by (vertex - offsets[-2], column)."""
    length = ball._walk & coxeter._LENGTH
    return length, (ball._walk >> coxeter._BITS) + ball.offsets[ball.radius - length]


def set_walk(ball, x, c, length, end):
    """Write walk c of the last sphere's vertex x through the packing."""
    start = int(ball.offsets[ball.radius - length])
    assert start <= end < int(ball.offsets[ball.radius - length + 1])
    ball._walk[x, c] = (end - start) << coxeter._BITS | length


def test_rank2_walks_match_words():
    """Each walk of the last sphere is the walk down the neighbour table
    along g, h, g, ...: the same number of steps, at most m(g, h), and the
    same end."""
    ball = build_ball(new_params(3, 4, 5), 7)
    orders, norms = ball.params.orders(), ball.norms
    first = int(ball.offsets[-2])
    length, end = walks(ball)
    for x in range(first, ball.n_vertices):
        for c, (g, h) in enumerate(zip(coxeter._PAIR_G, coxeter._PAIR_H)):
            steps, v = 0, x
            while True:
                w = ball.nbr[v, (g, h)[steps % 2]]
                if w < 0 or norms[w] > norms[v]:
                    break
                steps, v = steps + 1, w
            assert steps <= orders[g, h]
            assert (length[x - first, c], end[x - first, c]) == (steps, v)


def assert_grow_refused(ball):
    """grow raises IdentificationAmbiguity naming the next radius and
    changes no field."""
    before = {name: getattr(ball, name).copy()
              for name in ("norms", "offsets", "nbr", "parent", "parent_gen")}
    with pytest.raises(IdentificationAmbiguity, match=f"radius {ball.radius + 1}$"):
        ball.grow()
    for name, want in before.items():
        got = getattr(ball, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("triple", [(4, 4, 4), (2, 3, 7)])
def test_pairing_guard_raises(triple):
    """A corrupt walk length pairs a candidate with nothing: grow refuses it
    and changes no field."""
    params = new_params(*triple)
    ball = build_ball(params, 5)
    # the column (g, h) of a vertex that h does not lead back from: its
    # last-sphere row has no h-link
    last = ball.nbr[ball.offsets[-2]:]
    length = walks(ball)[0]
    x, c = next((x, c) for x in range(length.shape[0]) for c in range(6)
                if length[x, c] == 0 and last[x, coxeter._PAIR_H[c]] < 0)
    g, h = coxeter._PAIR_G[c], coxeter._PAIR_H[c]
    ball._walk[x, c] += params.orders()[g, h] - 1
    assert_grow_refused(ball)
    assert ball.radius == 5


def pairing_walks(ball):
    """The last sphere's walks that pair a candidate, as (x, c); the
    candidate columns (x, c) of the vertices with no such walk; and each
    column's pairing length m(g, h) - 1."""
    length, _ = walks(ball)
    top = np.array([m - 1 for m in ball.params.triple()])[coxeter._OUT]
    pairs = length == top
    last = ball.nbr[ball.offsets[-2]:]
    free = [(x, c) for x in range(len(last)) for c in range(6)
            if last[x, coxeter._PAIR_H[c]] < 0 and not pairs[x].any()]
    return [tuple(xc) for xc in np.argwhere(pairs)], free, top


@pytest.mark.parametrize("triple", [(4, 4, 4), (2, 3, 7), (3, 5, 7)])
@pytest.mark.parametrize("times", [3, 4])
def test_pairing_guard_refuses_a_key_more_than_twice(triple, times):
    """Walks rewritten to end where a pairing walk of the same pair ends
    give its key three or four times; the even count is refused too."""
    ball = build_ball(new_params(*triple), 7)
    paired, free, top = pairing_walks(ball)
    x, c = paired[0]
    end = walks(ball)[1][x, c]
    same = [(y, d) for y, d in free if coxeter._OUT[d] == coxeter._OUT[c]]
    assert len(same) >= times - 2
    for y, d in same[:times - 2]:
        set_walk(ball, y, d, top[d], end)
    assert_grow_refused(ball)


@pytest.mark.parametrize("triple", [(4, 4, 4), (2, 3, 7), (3, 5, 7)])
def test_pairing_guard_refuses_a_candidate_paired_twice(triple):
    """A candidate paired through one generator is paired through the other
    too, with a key that occurs exactly twice: every key count is right and
    grow still refuses."""
    ball = build_ball(new_params(*triple), 7)
    paired, free, top = pairing_walks(ball)
    end, k = walks(ball)[1], ball.radius
    # a paired candidate x h, its other column c ^ 1 = (g', h), whose walks
    # pair on sphere k - top[c ^ 1], and a free candidate column of that pair
    x, c, y, e = next((x, c, y, e) for x, c in paired for y, e in free
                      if coxeter._OUT[e] == coxeter._OUT[c ^ 1] and y != x and top[c ^ 1] < k)
    # an end on that sphere that no pairing walk of the pair ends on
    taken = {end[p] for p in paired if coxeter._OUT[p[1]] == coxeter._OUT[c ^ 1]}
    sphere = k - top[c ^ 1]
    fresh = next(v for v in range(ball.offsets[sphere], ball.offsets[sphere + 1])
                 if v not in taken)
    set_walk(ball, x, c ^ 1, top[c ^ 1], fresh)
    set_walk(ball, y, e, top[e], fresh)
    assert_grow_refused(ball)


def test_large_exponents_give_the_tree_ball_fast():
    """With every exponent above 2 R no rank-2 coset closes inside the
    ball, which is the 3-regular tree's: sphere k holds 3 2^(k-1) vertices.
    The exponents cost nothing, since no field arithmetic is done."""
    start = time.process_time()
    ball = build_ball(new_params(61, 67, 71), 10)
    assert time.process_time() - start < 0.5
    assert ball.sphere_sizes().tolist() == [1] + [3 * 2 ** (k - 1) for k in range(1, 11)]
    assert ball.n_vertices == 3070


@pytest.mark.parametrize("huge,small,radius", [
    ((2, 3, 2**62), (2, 3, 25), 12), ((3, 2**62, 5), (3, 13, 5), 12),
    ((2**40, 2**41, 2**62), (61, 67, 71), 10),
])
def test_huge_exponents_leave_a_small_ball_unchanged(huge, small, radius):
    """A rank-2 coset of order m > R closes outside the radius-R ball, so
    exponents past the walks' bit budget give the ball of small ones."""
    a, b = build_ball(new_params(*huge), radius), build_ball(new_params(*small), radius)
    assert np.array_equal(a.nbr, b.nbr) and np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a._walk, b._walk)


@pytest.mark.parametrize("triple,radius", [((4, 4, 4), 9), ((2, 3, 7), 14), ((3, 5, 7), 9)])
def test_vertex_ids_are_shortlex(triple, radius):
    """Ids follow ShortLex (L < M < N); parent is the least-id predecessor."""
    ball = build_ball(new_params(*triple), radius)
    V = ball.n_vertices
    u, v = ball.edges[:, 0], ball.edges[:, 1]
    least_pred = np.full(V, V, dtype=np.int64)
    np.minimum.at(least_pred, v, u)
    parent, parent_gen = ball.parent, ball.parent_gen
    assert np.array_equal(parent[1:], least_pred[1:])
    key = parent * 3 + parent_gen
    for k in range(1, radius + 1):
        lo, hi = ball.offsets[k], ball.offsets[k + 1]
        assert (np.diff(key[lo:hi]) > 0).all()
    words = representative_words(ball)
    assert all((len(a), a) < (len(b), b) for a, b in zip(words, words[1:]))


@pytest.mark.parametrize("triple,radius", [((4, 4, 4), 6), ((2, 3, 7), 8), ((3, 5, 7), 5)])
def test_representative_word_is_shortlex_normal_form(triple, radius):
    """The parent chain spells the lex-least geodesic of the braid closure."""
    ball = build_ball(new_params(*triple), radius)
    for w in representative_words(ball):
        assert min(geodesic_closure(triple, w)) == w


def matrix_balls(params, radius):
    """Reference growth on full 3x3 reflection matrices, one ball per radius.

    Each vertex keeps its whole matrix P_w in ring coordinates, candidates are
    merged by an exact unique of the matrix rows, and new vertices are
    numbered in the rows' lexicographic order.  This is the representation the
    orbit-covector ball replaced.
    """
    orders = params.orders()
    ring = CosineRing(orders.values())
    W = reflection_tensors(orders, ring)
    mats = np.zeros((1, 3, 3, ring.dim), dtype=np.int64)
    for i in range(3):
        mats[0, i, i] = ring.one()
    down = np.zeros((1, 3), dtype=bool)
    norms, offsets, edges = [0], [0, 1], np.zeros((0, 3), dtype=np.int64)
    for k in range(radius):
        base, first = offsets[-2], offsets[-1]
        cands, pars, gens = [], [], []
        for s in range(3):
            mask = ~down[:, s]
            sub = mats[mask]
            out = np.empty_like(sub)
            for t in range(3):
                out[:, :, t, :] = sub[:, :, t, :] + sub[:, :, s, :] @ W[s, t]
            cands.append(out)
            pars.append(base + np.flatnonzero(mask))
            gens.append(np.full(int(mask.sum()), s))
        cand, pars, gens = np.concatenate(cands), np.concatenate(pars), np.concatenate(gens)
        uniq, inv = np.unique(cand.reshape(len(cand), -1), axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        n_new = len(uniq)
        mats = uniq.reshape(n_new, 3, 3, ring.dim)
        down = np.zeros((n_new, 3), dtype=bool)
        down[inv, gens] = True
        chunk = np.column_stack([pars, first + inv, gens])
        edges = np.concatenate([edges, chunk[np.lexsort(chunk.T[::-1])]])
        norms += [k + 1] * n_new
        offsets.append(first + n_new)
        nbr = np.full((len(norms), 3), -1, dtype=np.int64)
        nbr[edges[:, 0], edges[:, 2]] = edges[:, 1]
        nbr[edges[:, 1], edges[:, 2]] = edges[:, 0]
        yield CayleyBall(params=params, nbr=nbr, _offsets=list(offsets))


def _extract(ball):
    try:
        return extract_from_ball(ball)
    except (NotStabilized, VerificationFailed) as exc:
        return type(exc)


@pytest.mark.parametrize("triple,radius", [
    ((2, 3, 7), 22), ((3, 5, 7), 15), ((4, 4, 5), 13), ((2, 5, 6), 16), ((7, 7, 7), 15),
] + [(t, 9) for t in FIELD_MERGED] + [
    # three factors: 2cos(pi/7) acts on a middle axis, with identities on both sides
    ((5, 7, 8), 9),
])
def test_ball_matches_matrix_reference(triple, radius):
    """Radius by radius: same spheres, same labelled edges and same cone types.

    The vertex map follows parent/parent_gen from the identity; the extracted
    types must correspond by a bijection that carries M to M.  Up to radius
    max(l,m,n) + 1 no extraction is tried, and the balls alone are compared.
    """
    params = new_params(*triple)
    ball = build_ball(params, 1)
    extracted = 0
    for ref in matrix_balls(params, radius):
        if ref.radius > 1:
            ball.grow()
        assert np.array_equal(ball.sphere_sizes(), ref.sphere_sizes())
        phi = np.zeros(ball.n_vertices, dtype=np.int64)
        ref_nbr = ref.nbr
        parent, parent_gen = ball.parent, ball.parent_gen
        for k in range(1, ball.radius + 1):
            vs = np.arange(ball.offsets[k], ball.offsets[k + 1])
            phi[vs] = ref_nbr[phi[parent[vs]], parent_gen[vs]]
        assert np.array_equal(np.sort(phi), np.arange(ball.n_vertices))
        mapped = np.column_stack([phi[ball.edges[:, 0]], phi[ball.edges[:, 1]],
                                  ball.edges[:, 2]])
        mapped = mapped[np.lexsort(mapped.T[::-1])]
        assert np.array_equal(mapped, ref.edges)

        if ref.radius <= max(triple) + 1:
            continue
        got, want = _extract(ball), _extract(ref)
        if isinstance(want, type):
            assert got is want
            continue
        extracted += 1
        assert (got.K_total, got.k_star) == (want.K_total, want.k_star)
        dom = got.type_of >= 0
        assert np.array_equal(dom, want.type_of[phi] >= 0)
        pairs = np.unique(np.column_stack([got.type_of[dom], want.type_of[phi[dom]]]), axis=0)
        assert len(pairs) == got.K_total
        assert np.array_equal(pairs[:, 0], np.arange(got.K_total))
        pi = pairs[:, 1]
        assert np.array_equal(np.sort(pi), np.arange(got.K_total))
        assert np.array_equal(got.M, want.M[np.ix_(pi, pi)])
    assert extracted >= 1 or radius <= max(triple) + 1
