"""Independent references for the tests: the word problem, float
reflections, truncated-cone isomorphism, the ball extraction of cone types,
the post-fixed-point and below-least checks in Fractions, the root path one
root and one generator at a time with np.unique minimization, dense
reflection tensors for the oracles that multiply whole matrices, and
helpers only the tests read.

Most work from the presentation alone (braid moves and free cancellation),
in floating point, or by a backtracking graph-isomorphism search, so they
check the exact ring-coordinate Cayley balls without sharing any of their
code.  The ball extraction finds the cone types of a Cayley ball by label
layers that stabilize and an exact verifier of twisted cone isomorphisms,
escalating the radius until both succeed; it shares no code with the
library's root-system automaton, which the tests compare against it.  Its
own label layers are checked against from-scratch ones at one radius with
lexicographic ids, and its one-pass verifier against one depth at a time.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from conetypes import (
    ConeTypeAutomaton,
    CosineRing,
    GroupParams,
    IdentificationAmbiguity,
    ReturnSeries,
    VerificationFailed,
    build_ball,
    types_on_ball,
)
from conetypes.automaton import _admissible_perms, _root_states


class WordCapExceeded(Exception):
    """Word-problem oracle called beyond its configured length cap."""


class NotStabilized(Exception):
    """No depth k with R - k >= max(l,m,n) + 1 yields two consecutive identical partitions."""


class NonDeterministic(Exception):
    """Two vertices of equal type disagree on successor-type multisets."""


@dataclass(frozen=True)
class ReflectionRep:
    """Geometric representation: sigma_s = I - 2 e_s (B e_s)^T."""

    sigma: tuple[np.ndarray, np.ndarray, np.ndarray]
    gram: np.ndarray


def reflection_rep(params: GroupParams) -> ReflectionRep:
    orders = params.orders()
    B = np.eye(3)
    for (s, t), k in orders.items():
        B[s, t] = -np.cos(np.pi / k)
    sigmas = []
    for s in range(3):
        e = np.zeros(3)
        e[s] = 1.0
        sigmas.append(np.eye(3) - 2.0 * np.outer(e, B @ e))
    return ReflectionRep(sigma=tuple(sigmas), gram=B)


def mul_by_2cos(ring: CosineRing, k: int) -> np.ndarray:
    """Matrix of multiplication by 2cos(pi/k) acting on coefficient rows:
    CosineRing.add_times_2cos applied to the identity."""
    mat = np.zeros((ring.dim, ring.dim), dtype=np.int64)
    ring.add_times_2cos(k, np.eye(ring.dim, dtype=np.int64), mat)
    return mat


def reflection_tensors(orders: dict, ring: CosineRing) -> np.ndarray:
    """Coordinate-update tensors W for right multiplication by a generator.

    A covector y = (y_0, y_1, y_2), such as a row of a matrix P, maps under
    y -> y sigma_s to y_t + y_s * 2cos(pi/order(s,t)) in coordinate t != s,
    and coordinate s flips sign.  W[s, t] holds the corresponding [dim, dim]
    coefficient-space matrix, so the update is y_t + y_s @ W[s, t] for every
    t (W[s, s] = -2 I gives the sign flip).  Only the matrix oracles read W;
    the library multiplies on one factor axis instead.
    """
    W = np.zeros((3, 3, ring.dim, ring.dim), dtype=np.int64)
    W[range(3), range(3)] = -2 * np.eye(ring.dim, dtype=np.int64)
    for s in range(3):
        for t in range(s + 1, 3):
            W[s, t] = W[t, s] = mul_by_2cos(ring, orders[(s, t)])
    return W


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent equal letters (the involutions s^2 = e)."""
    out: list[int] = []
    for g in word:
        if out and out[-1] == int(g):
            out.pop()
        else:
            out.append(int(g))
    return tuple(out)


def _braid_run(a: int, b: int, length: int) -> tuple[int, ...]:
    return tuple(a if i % 2 == 0 else b for i in range(length))


@lru_cache(maxsize=65536)
def geodesic_closure(triple: tuple[int, int, int], word: tuple[int, ...]) -> frozenset:
    """All geodesic words of the element, via braid moves plus cancellation."""
    orders = GroupParams(*triple).orders()
    current = free_reduce(word)
    while True:
        seen = {current}
        queue = [current]
        shorter = None
        while queue and shorter is None:
            w = queue.pop()
            for i in range(len(w)):
                for j in range(3):
                    a = w[i]
                    if j == a:
                        continue
                    k = orders[(a, j)]
                    if i + k > len(w) or w[i:i + k] != _braid_run(a, j, k):
                        continue
                    v = w[:i] + _braid_run(j, a, k) + w[i + k:]
                    r = free_reduce(v)
                    if len(r) < len(v):
                        shorter = r
                        break
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
                if shorter is not None:
                    break
        if shorter is None:
            return frozenset(seen)
        current = shorter


def tits_equal(params: GroupParams, w1, w2, cap: int = 24) -> bool:
    """Exact word-problem oracle by exhaustive braid-move closure."""
    w1 = tuple(int(g) for g in w1)
    w2 = tuple(int(g) for g in w2)
    if len(w1) + len(w2) > cap:
        raise WordCapExceeded(f"total word length {len(w1) + len(w2)} exceeds cap {cap}")
    c1 = geodesic_closure(params.triple(), w1)
    c2 = geodesic_closure(params.triple(), w2)
    g1 = next(iter(c1))
    g2 = next(iter(c2))
    if len(g1) != len(g2):
        return False
    return min(c1) == min(c2)


@dataclass
class TruncatedCone:
    """Induced subgraph of C(x) on vertices within cone distance k of x."""

    root: int
    depth: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    levels: dict[int, int]


def successor_table(ball):
    """(succ, nsucc, npred): succ[v] lists v's up-neighbors padded with -1,
    nsucc and npred count the up- and down-neighbors of each vertex."""
    nbr = ball.neighbor_table()
    V = ball.n_vertices
    # ids run sphere by sphere, so a neighbour is up exactly when its id is larger
    up = nbr > np.arange(V)[:, None]
    down = (nbr >= 0) & ~up
    nsucc = up[:, 0].astype(np.int64) + up[:, 1] + up[:, 2]
    npred = down[:, 0].astype(np.int64) + down[:, 1] + down[:, 2]
    width = int(nsucc.max()) if V > 1 else 0
    # each row's up-neighbours in increasing order, then the -1 padding: the
    # three columns sorted by a min/max network, with V standing for padding
    a, b, c = np.where(up, nbr, V).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    succ = np.column_stack([np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)),
                            np.maximum(hi, c)])[:, :width]
    succ[succ == V] = -1
    return succ, nsucc, npred


def truncated_cone(ball, x: int, k: int) -> TruncatedCone:
    """Exact depth-k truncation of the cone rooted at x in a CayleyBall."""
    if int(ball.norms[x]) + k > ball.radius:
        raise ValueError(f"|x|+k = {int(ball.norms[x]) + k} > radius {ball.radius}")
    succ = successor_table(ball)[0]
    levels = {x: 0}
    frontier = [x]
    for depth in range(1, k + 1):
        nxt = []
        for v in frontier:
            for s in succ[v]:
                s = int(s)
                if s >= 0 and s not in levels:
                    levels[s] = depth
                    nxt.append(s)
        frontier = nxt
    verts = sorted(levels)
    vset = set(verts)
    nbr = ball.neighbor_table()
    edges = []
    for v in verts:
        for w in nbr[v]:
            w = int(w)
            if w > v and w in vset:
                edges.append((v, w))
    return TruncatedCone(
        root=x, depth=k, vertices=tuple(verts), edges=tuple(sorted(edges)), levels=levels
    )


def _refine_colors(cone: TruncatedCone) -> dict[int, int]:
    """Stable neighborhood-refinement coloring seeded by cone level."""
    adj: dict[int, list[int]] = {v: [] for v in cone.vertices}
    for u, v in cone.edges:
        adj[u].append(v)
        adj[v].append(u)
    color = {v: cone.levels[v] for v in cone.vertices}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in adj[v])))
            for v in cone.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in cone.vertices}
        if len(set(new.values())) == len(set(color.values())):
            return new
        color = new


def cones_isomorphic(c1: TruncatedCone, c2: TruncatedCone) -> bool:
    """Root-preserving isomorphism decision for two truncated cones."""
    if c1.depth != c2.depth:
        raise ValueError("cones must have equal depths")
    if len(c1.vertices) != len(c2.vertices) or len(c1.edges) != len(c2.edges):
        return False
    col1, col2 = _refine_colors(c1), _refine_colors(c2)
    if sorted(col1.values()) != sorted(col2.values()):
        return False
    if col1[c1.root] != col2[c2.root]:
        return False
    adj1: dict[int, list[int]] = {v: [] for v in c1.vertices}
    for u, v in c1.edges:
        adj1[u].append(v)
        adj1[v].append(u)
    adj2: dict[int, list[int]] = {v: [] for v in c2.vertices}
    for u, v in c2.edges:
        adj2[u].append(v)
        adj2[v].append(u)
    order = sorted(c1.vertices, key=lambda v: (c1.levels[v], col1[v], v))
    order.remove(c1.root)
    order.insert(0, c1.root)
    cands = {v: [w for w in c2.vertices if col2[w] == col1[v]] for v in c1.vertices}

    def extend(i: int, phi: dict[int, int], used: set[int]) -> bool:
        if i == len(order):
            return True
        v = order[i]
        pool = [c2.root] if v == c1.root else cands[v]
        for w in pool:
            if w in used:
                continue
            # bijective homomorphism with equal edge counts is an isomorphism
            ok = all(phi[u] in adj2[w] for u in adj1[v] if u in phi)
            if ok:
                phi[v] = w
                used.add(w)
                if extend(i + 1, phi, used):
                    return True
                del phi[v]
                used.discard(w)
        return False

    return extend(0, {}, set())


def row_ids(rows: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of an integer matrix, in lexicographic row order.

    The columns are packed into one mixed-radix int64 key and the key is
    uniqued once.  When the next column would push the key past 2^62, the
    key is first compressed to its dense ids, which keeps the order.
    """
    key = np.zeros(rows.shape[0], dtype=np.int64)
    bound = 1
    for col in rows.T:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if bound * span > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * span + (col - lo)
        bound *= span
    return np.unique(key, return_inverse=True)[1]


def refine_labels(ball, labels: list) -> bool:
    """Append the next label layer, recomputed at this radius; False if none.

    Layer d labels each vertex of norm <= R - d by its layer-(d-1) label and
    the sorted layer-(d-1) labels of its successors (-1 padded); the ids are
    the lexicographic ranks of these rows (row_ids).
    """
    succ = successor_table(ball)[0]
    d = len(labels) - 1
    dom = int(ball.offsets[ball.radius - d])
    if dom <= 1:
        return False
    prev = labels[-1]
    gathered = np.where(succ[:dom] >= 0, prev[succ[:dom].clip(min=0)], -1)
    gathered.sort(axis=1)
    lab = -np.ones(ball.n_vertices, dtype=np.int64)
    lab[:dom] = row_ids(np.column_stack([prev[:dom], gathered]))
    labels.append(lab)
    return True


def verify_classes_per_depth(ball, lab: np.ndarray, depth: int) -> list[int]:
    """The verifier one depth at a time: classes of `lab` on norm <= R - depth + 1.

    A class's representative is its least vertex; its other members are
    mapped at `depth` only.  Returns how many members each admissible
    permutation confirmed; raises VerificationFailed naming the first member
    no permutation confirms, in (label, vertex id) order.
    """
    perms = [np.array(p) for p in _admissible_perms(ball.params)]
    dom = int(ball.offsets[ball.radius - depth + 1])
    order = np.argsort(lab[:dom], kind="stable")
    sl = lab[order]
    head = np.ones(dom, dtype=bool)
    head[1:] = sl[1:] != sl[:-1]
    cls = np.cumsum(head) - 1
    reps, ys, ycls = order[head], order[~head], cls[~head]
    levels = cone_levels(ball, reps, depth)
    confirmed = [0] * len(perms)
    for i, perm in enumerate(perms):
        if ys.size == 0:
            break
        ok = twisted_maps(ball, levels, ys, ycls, np.full(ys.size, depth), perm)
        confirmed[i] = int(ok.sum())
        ys, ycls = ys[~ok], ycls[~ok]
    if ys.size:
        raise VerificationFailed(
            f"no twisted walk confirms vertices {int(reps[ycls[0]])} and {int(ys[0])} "
            f"at depth {depth}: the certificate class over-merges"
        )
    return confirmed


def sphere_type_census(ball, a) -> np.ndarray:
    """counts[k, i] = number of type-i vertices on the k-sphere, read by the automaton."""
    types = types_on_ball(a, ball)
    counts = np.zeros((ball.radius + 1, a.K_total), dtype=np.int64)
    for k in range(ball.radius + 1):
        lo, hi = int(ball.offsets[k]), int(ball.offsets[k + 1])
        counts[k] = np.bincount(types[lo:hi], minlength=a.K_total)
    return counts


def representative_words(ball) -> list[tuple[int, ...]]:
    """A geodesic word for every vertex, read off the BFS parent chain."""
    parent, gen = ball.parent.tolist(), ball.parent_gen.tolist()
    words = [()]
    for v in range(1, ball.n_vertices):
        words.append(words[parent[v]] + (gen[v],))
    return words


def stepwise_returns(ball, n_max: int) -> ReturnSeries:
    """Reference for return_probabilities: p^(k) for k = 0..n_max from the
    walk counts after each of n_max steps, read at the base point; int64
    while 3^n_max < 2^63 bounds the counts, Python integers beyond."""
    dtype = np.int64 if 3 ** n_max < 2 ** 63 else object
    V = ball.n_vertices
    nbr = ball.neighbor_table()
    n0, n1, n2 = np.ascontiguousarray(np.where(nbr >= 0, nbr, V).T)
    vec = np.zeros(V + 1, dtype=dtype)
    vec[0] = 1
    values = [Fraction(1)]
    for k in range(1, n_max + 1):
        vec[:V] = vec[n0] + vec[n1] + vec[n2]
        values.append(Fraction(int(vec[0]), 3 ** k))
    return ReturnSeries(n_max=n_max, values=values)


def tree_return_series(n_max: int) -> ReturnSeries:
    """Exact SRW return probabilities on the 3-regular tree.

    Walks from the root are counted by their distance profile, a lattice
    path with 3 upward choices at the root and 2 elsewhere; the count DP
    is exact in integers and p^(k) = walks_k(0) / 3^k.
    """
    counts = {0: 1}
    values: list = [Fraction(1)]
    for k in range(1, n_max + 1):
        new: dict[int, int] = {}
        for h, c in counts.items():
            up = 3 if h == 0 else 2
            new[h + 1] = new.get(h + 1, 0) + c * up
            if h > 0:
                new[h - 1] = new.get(h - 1, 0) + c
        counts = new
        values.append(Fraction(counts.get(0, 0), 3 ** k))
    return ReturnSeries(n_max=n_max, values=values)


def post_fixed_point_fractions(spec, z: Fraction, w: np.ndarray) -> bool:
    """The post-fixed-point check of upper.is_post_fixed_point in Fractions.

    z(r_i + w_i sum_j M_ij w_j) <= d w_i for every type and
    z sum_j M_root,j w_j < d, on the exact binary values of w >= 0,
    one Fraction per term.
    """
    W = [Fraction(x) for x in w.tolist()]
    if min(W) < 0:
        return False
    d, M = spec.ra.degree, spec.ra.M.tolist()
    for row, ri, wi in zip(M, spec.ra.r.tolist(), W):
        out = sum(int(m) * wj for m, wj in zip(row, W) if m)
        if z * (ri + wi * out) > d * wi:
            return False
    root = sum(int(m) * wj for m, wj in zip(M[spec.root], W) if m)
    return z * root < d


def below_least_fractions(spec, z: Fraction, v: np.ndarray, x: np.ndarray) -> bool:
    """The check of upper.is_below_least in Fractions.

    v >= 0, x > 0, z(r_i + v_i sum_j M_ij v_j) >= d v_i and
    z(x_i sum_j M_ij v_j + v_i sum_j M_ij x_j) < d x_i for every type, on
    the exact binary values of v and x, one Fraction per term.
    """
    V, X = [Fraction(a) for a in v.tolist()], [Fraction(a) for a in x.tolist()]
    if min(V) < 0 or min(X) <= 0:
        return False
    d, M = spec.ra.degree, spec.ra.M.tolist()
    for row, ri, vi, xi in zip(M, spec.ra.r.tolist(), V, X):
        mv = sum(int(m) * vj for m, vj in zip(row, V) if m)
        mx = sum(int(m) * xj for m, xj in zip(row, X) if m)
        if z * (ri + vi * mv) < d * vi or z * (xi * mv + vi * mx) >= d * xi:
            return False
    return True


# The ball extraction of cone types.

@dataclass
class BallAutomaton:
    """Cone types of a ball: the automaton with the type of each inner vertex.

    type_of[v] is the type of v on norm <= radius - k_star, -1 beyond.
    """

    params: GroupParams
    K_total: int
    M: np.ndarray
    d: np.ndarray
    r: np.ndarray
    root_type: int
    type_of: np.ndarray
    k_star: int
    radius: int


# A label row (own id, three successor ids) packs into one int64 key in base
# 2^15 while the ids lie in [-1, 2^15 - 2]: the key stays below 2^60.
KEY_BASE = 1 << 15


class LabelLayers:
    """The certificate label layers of a growing ball, cached on the ball.

    Layer 0 labels every vertex 0; layer j labels each vertex v of norm
    <= R - j by its row: v's layer-(j-1) id and its successors' sorted
    layer-(j-1) ids, padded with -1.  v's successors are all in the ball, so
    the label does not depend on R.  Ids are numbered by first occurrence
    along vertex id, which growing the ball keeps, so an extension interns
    only the new spheres' rows against the layer's known rows.

    lab[j] holds the layer's ids and then a -1 for padded successor slots to
    read; first[j][c] is the first vertex of id c, counts[j][s] the number of
    ids on norm <= s, and known[j] the sorted packed keys of the known rows
    and the keys' ids.  Every vertex of one cone type has one label on each
    layer, so a layer has at most K ids, far below the key base.  table is
    the ball's successor_table at table_radius, built once per radius.
    """

    def __init__(self):
        self.lab = [np.array([0, -1])]
        self.first = [np.zeros(1, dtype=np.int64)]
        self.counts = [[1]]
        self.known = [None]
        self.table, self.table_radius = None, -1

    def successors(self, ball):
        """successor_table(ball), built once per radius of the growing ball."""
        if self.table_radius != ball.radius:
            self.table, self.table_radius = successor_table(ball), ball.radius
        return self.table

    def extend(self, ball, depth: int) -> None:
        """Bring layers 0..depth up to the ball's radius, in order."""
        R, off = ball.radius, ball.offsets
        if len(self.counts[0]) <= R:
            self.lab[0] = np.append(np.zeros(ball.n_vertices, dtype=np.int64), -1)
            self.counts[0] = [1] * (R + 1)
        succ = self.successors(ball)[0]
        for _ in range(len(self.lab), depth + 1):
            self.lab.append(np.array([-1]))
            self.first.append(np.zeros(0, dtype=np.int64))
            self.counts.append([])
            self.known.append((np.zeros(0, dtype=np.int64),) * 2)
        for j in range(1, depth + 1):
            s0 = len(self.counts[j])
            if s0 > R - j:
                continue
            lo, hi = int(off[s0]), int(off[R - j + 1])
            prev = self.lab[j - 1]
            rows = np.column_stack([prev[lo:hi], np.sort(prev[succ[lo:hi]], axis=1)])
            ids = self._intern(j, rows, lo)
            self.lab[j] = np.concatenate([self.lab[j][:-1], ids, [-1]])
            self.counts[j] += np.searchsorted(self.first[j], off[s0 + 1:R - j + 2]).tolist()

    def _intern(self, j: int, rows: np.ndarray, lo: int) -> np.ndarray:
        """Layer-j ids of the rows of vertices lo, lo + 1, ...

        Each row is packed into one key.  When no row is new the ids are
        looked up in the sorted known keys; otherwise the known keys, in id
        order, and the new keys are uniqued together and the new ids numbered
        by first occurrence.
        """
        if self.counts[j - 1][-1] >= KEY_BASE:
            raise OverflowError(f"label layer {j - 1} has too many ids to pack")
        skeys, sids = self.known[j]
        n = skeys.size
        key = rows @ KEY_BASE ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
        if n:
            pos = np.searchsorted(skeys, key).clip(max=n - 1)
            if (skeys[pos] == key).all():
                return sids[pos]
        by_id = np.empty_like(skeys)
        by_id[sids] = skeys
        skeys, first, inv = np.unique(np.concatenate([by_id, key]), return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.argsort(order)
        self.known[j] = (skeys, rank)
        self.first[j] = np.concatenate([self.first[j], first[order[n:]] - n + lo])
        return rank[inv[n:]]


def ranges(off: np.ndarray, cls: np.ndarray):
    """The ranges off[c] .. off[c+1] of the classes cls, concatenated.

    Returns (owner, idx, shift): flat entry j is index idx[j] of the range
    of cls[owner[j]], and index i of cls[o]'s range sits at flat i + shift[o].
    """
    counts = off[cls + 1] - off[cls]
    owner = np.repeat(np.arange(cls.size), counts)
    shift = np.cumsum(counts) - counts - off[cls]
    return owner, np.arange(owner.size) - shift[owner], shift


def cone_levels(ball, reps: np.ndarray, depth: int) -> list:
    """Up-edges of the depth-`depth` cones of all reps, level by level.

    The nodes of a level are (class, vertex) pairs, class c being the cone
    of reps[c], sorted by class and then vertex.  Each level is
    (src, gen, first, dst, noff, eoff, noff1): edge j leaves node src[j]
    along generator gen[j] and reaches node dst[j] of the next level, whose
    node i is first reached by edge first[i]; class c owns the nodes
    noff[c] .. noff[c+1] of the level, the edges eoff[c] .. eoff[c+1] and
    the nodes noff1[c] .. noff1[c+1] of the next level.
    """
    nbr, norms = ball.neighbor_table(), ball.norms
    V, C = ball.n_vertices, reps.size
    cls, ver = np.arange(C), reps
    noff = np.arange(C + 1)
    out = []
    for _ in range(depth):
        nb = nbr[ver]
        src, gen = np.nonzero((nb >= 0) & (norms[nb] > norms[ver][:, None]))
        csrc = cls[src]
        eoff = np.searchsorted(csrc, np.arange(C + 1))
        keys, first, dst = np.unique(csrc * V + nb[src, gen],
                                     return_index=True, return_inverse=True)
        cls, ver = np.divmod(keys, V)
        noff1 = np.searchsorted(cls, np.arange(C + 1))
        out.append((src, gen, first, dst, noff, eoff, noff1))
        noff = noff1
    return out


def twisted_maps(ball, levels: list, ys: np.ndarray, ycls: np.ndarray,
                  ydepth: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Which ys the twist by `perm` maps their class's cone onto, as a mask.

    Member y of class c starts at phi(reps[c]) = y and follows
    phi(v . g) = phi(v) . perm(g) through the first ydepth[y] levels of the
    cone of reps[c] (see cone_levels; ydepth is at most len(levels)).  y
    passes when every cone up-edge maps to an up-edge, phi is well defined
    and injective (on each level; levels differ in norm), and the images'
    successor counts match the cone's level by level: then phi is a rooted
    isomorphism.  All members are mapped together, on flat arrays of
    (member, node) and (member, edge) pairs; a member leaves the batch once
    its depth is reached.
    """
    nbr, norms = ball.neighbor_table(), ball.norms
    nsucc = ((nbr >= 0) & (norms[nbr] > norms[:, None])).sum(axis=1)
    V = ball.n_vertices
    mask = np.zeros(ys.size, dtype=bool)
    alive = np.arange(ys.size)
    img = ys
    for level, (src, gen, first, dst, noff, eoff, noff1) in enumerate(levels, 1):
        n = alive.size
        po, _, pshift = ranges(noff, ycls)
        eo, ee, eshift = ranges(eoff, ycls)
        qo, qn, qshift = ranges(noff1, ycls)
        fsrc = img[src[ee] + pshift[eo]]
        w = nbr[fsrc, perm[gen[ee]]]
        nxt = w[first[qn] + eshift[qo]]
        bad = np.zeros(n, dtype=bool)
        bad[eo[(w < 0) | (norms[w] <= norms[fsrc])
               | (w != nxt[dst[ee] + qshift[eo]])]] = True
        key = np.sort(qo * (V + 1) + nxt + 1)
        bad[key[1:][key[1:] == key[:-1]] // (V + 1)] = True
        bad |= np.bincount(po, nsucc[img], minlength=n) != np.diff(eoff)[ycls]
        done = ydepth == level
        mask[alive[done & ~bad]] = True
        keep = ~(bad | done)
        alive, ycls, ydepth, img = alive[keep], ycls[keep], ydepth[keep], nxt[keep[qo]]
    return mask


def verify_classes(ball, lab: np.ndarray, reps: np.ndarray,
                    depth: int) -> list[int]:
    """Confirm every class of `lab` by twisted maps of cones at depth + 1 and depth.

    `lab` numbers the classes on norm <= R - depth by first occurrence and
    reps[c] is the first vertex of class c; on norm <= R - depth - 1 these
    are also the depth + 1 classes.  The representatives' cones are walked
    once, to depth + 1.  Each other member is an entry at depth + 1 if its
    norm is <= R - depth - 1, and at depth always; all entries are mapped in
    one batch per admissible generator permutation, each permutation tried
    only on the entries still unconfirmed.  Returns how many entries each
    permutation confirmed.  An entry none confirms raises VerificationFailed,
    naming the first in (depth + 1 before depth, label, vertex id) order.
    """
    perms = [np.array(p) for p in _admissible_perms(ball.params)]
    dom = int(ball.offsets[ball.radius - depth + 1])
    order = np.argsort(lab[:dom], kind="stable")
    is_rep = np.zeros(dom, dtype=bool)
    is_rep[reps] = True
    ys = order[~is_rep[order]]
    inner = ys[ys < ball.offsets[ball.radius - depth]]
    ys = np.concatenate([inner, ys])
    ycls = lab[ys]
    ydepth = np.repeat([depth + 1, depth], [inner.size, ys.size - inner.size])
    levels = cone_levels(ball, reps, depth + 1)
    confirmed = [0] * len(perms)
    for i, perm in enumerate(perms):
        if ys.size == 0:
            break
        ok = twisted_maps(ball, levels, ys, ycls, ydepth, perm)
        confirmed[i] = int(ok.sum())
        ys, ycls, ydepth = ys[~ok], ycls[~ok], ydepth[~ok]
    if ys.size:
        raise VerificationFailed(
            f"no twisted walk confirms vertices {int(reps[ycls[0]])} and {int(ys[0])} "
            f"at depth {int(ydepth[0])}: the certificate class over-merges"
        )
    return confirmed


def extract_from_ball(ball, diag: dict | None = None, layers=None) -> BallAutomaton:
    """Stabilized cone-type partition of a ball, verified exactly.

    Finds the least k with identical depth-k and depth-(k+1) partitions on
    the exact domains (class counts conserved across the domain restriction),
    checks successor determinism, and confirms every certificate class by
    exact isomorphism at depths k+1 and k in one pass (see verify_classes).
    Label layers passed in are extended, so a caller that grows the ball
    labels only its new spheres (see LabelLayers).  Stabilization is a
    heuristic: it is only accepted with R - k >= max(l,m,n) + 1, so that the
    exact domain contains whole relator cycles, and the verifier then either
    confirms every class or raises VerificationFailed.

    On success, diag["label_rounds"] is the number of label layers the
    accepted extraction reads (k + 1) and diag["verifier"] holds the members
    mapped at both depths and how many of them each admissible permutation
    confirmed.
    """
    R = ball.radius
    offsets = ball.offsets
    layers = LabelLayers() if layers is None else layers
    maxp = max(ball.params.triple())
    k_star = None
    for k in range(1, R - maxp):
        layers.extend(ball, k + 1)
        counts, counts1 = layers.counts[k], layers.counts[k + 1]
        if counts[R - k] == counts[R - k - 1] == counts1[R - k - 1]:
            k_star = k
            break
    if k_star is None:
        raise NotStabilized(
            f"no depth k with R - k >= max(l,m,n) + 1 = {maxp + 1} "
            f"stabilizes within radius {R}"
        )

    dom_k = int(offsets[R - k_star + 1])
    dom_k1 = int(offsets[R - k_star])
    # ids are first occurrences along vertex id: the canonical numbering
    reps = layers.first[k_star]
    K = reps.size
    type_of = -np.ones(ball.n_vertices, dtype=np.int64)
    type_of[:dom_k] = layers.lab[k_star][:dom_k]
    # equal counts on norm <= R - k and R - k - 1: every type has a
    # representative below dom_k1, whose successors all carry a type

    succ, _, npred = layers.successors(ball)
    # a padded slot reads the last vertex, on sphere R: type -1
    rows = np.sort(type_of[succ[:dom_k1]], axis=1)
    tvec = type_of[:dom_k1]
    if (rows != rows[reps][tvec]).any():
        raise NonDeterministic("equal-type vertices disagree on successor types")
    if (npred[:dom_k1] != npred[reps][tvec]).any():
        raise NonDeterministic("equal-type vertices disagree on predecessor counts")

    M = (rows[reps][:, :, None] == np.arange(K)).sum(axis=1, dtype=np.int64)
    d = np.full(K, 3, dtype=np.int64)
    r = d - M.sum(axis=1)
    root_type = int(type_of[0])
    if r[root_type] != 0:
        raise NonDeterministic("base-point type does not have r = 0")

    confirmed = verify_classes(ball, type_of, reps, k_star)
    if diag is not None:
        diag["label_rounds"] = k_star + 1
        diag["verifier"] = {"members": int(sum(confirmed)),
                            "confirmed_by_perm": confirmed}

    return BallAutomaton(
        params=ball.params,
        K_total=int(K),
        M=M,
        d=d,
        r=r,
        root_type=root_type,
        type_of=type_of,
        k_star=int(k_star),
        radius=R,
    )


def extract_escalating(params, radius=None, diag: dict | None = None) -> BallAutomaton:
    """The ball extraction at the least radius where it succeeds.

    Radii run from max(l,m,n) + 2 up to 2 max(l,m,n) + 16 on one ball,
    grown by one sphere per radius with its label layers.  NotStabilized and
    VerificationFailed both mean "radius too small"; the last such error is
    raised when every radius fails.  A given `radius` is tried alone.
    """
    maxp = max(params.triple())
    first, last = (maxp + 2, 2 * maxp + 16) if radius is None else (radius, radius)
    ball, layers = build_ball(params, first), LabelLayers()
    for R in range(first, last + 1):
        if R > first:
            ball.grow()
        try:
            return extract_from_ball(ball, diag, layers)
        except (NotStabilized, VerificationFailed) as exc:
            # a traceback would hold this frame, and the frame `error`: that
            # cycle would keep the ball alive past the return until a full
            # garbage collection
            error = exc.with_traceback(None)
    raise error


def scalar_sign(ring: CosineRing, x: np.ndarray) -> int:
    """Sign of one field element with the root path's float margin; a value
    within the margin raises IdentificationAmbiguity at once."""
    if not x.any():
        return 0
    terms = x * ring.basis_values
    value, size = float(terms.sum()), float(np.abs(terms).sum())
    margin = 2 * (ring.dim + 2 * sum(ring.factors) + 8) * np.finfo(float).eps * size
    if abs(value) <= margin:
        raise IdentificationAmbiguity(f"root form {value!r} is within its error {margin:.1e}")
    return 1 if value > 0 else -1


def scalar_elementary_roots(params: GroupParams) -> np.ndarray:
    """act[s, i] of the elementary roots by a scalar BFS: one root and one
    generator at a time, a sign read only where the closure needs it."""
    orders = params.orders()
    ring = CosineRing(orders.values())
    W = reflection_tensors(orders, ring)
    roots = list(np.einsum("st,d->std", np.eye(3, dtype=np.int64), ring.one()))
    index = {beta.tobytes(): i for i, beta in enumerate(roots)}
    images = []
    for beta in roots:  # grows while it is read
        for s in range(3):
            b = -np.einsum("td,tde->e", beta, W[s])  # 2B(alpha_s, beta)
            image = beta.copy()
            image[s] -= b
            images.append(image.tobytes())
            if (images[-1] not in index
                    and scalar_sign(ring, b) < 0 < scalar_sign(ring, b + 2 * ring.one())):
                index[images[-1]] = len(roots)
                roots.append(image)
    return np.array([index.get(k, -1) for k in images]).reshape(-1, 3).T


def unique_minimize(table: np.ndarray) -> np.ndarray:
    """Moore refinement with np.unique over whole signature rows, classes
    renumbered by their first state at the end."""
    cls = np.zeros(len(table), dtype=np.int64)
    while True:
        sig = np.column_stack([cls, np.where(table >= 0, cls[table], -1)])
        new = np.unique(sig, axis=0, return_inverse=True)[1].reshape(-1)
        if new.max() == cls.max():
            break
        cls = new
    first = np.unique(cls, return_index=True)[1]
    rank = np.append(np.argsort(np.argsort(first))[cls], -1)
    return rank[table[np.sort(first)]]


def array_state_types(table: np.ndarray, perms) -> np.ndarray:
    """Orbits of the states under the permutations, by numpy indexing."""
    least = np.arange(len(table))
    for p in perms:
        pi = np.zeros(len(table), dtype=np.int64)
        for q, s in zip(*np.nonzero(table >= 0)):
            pi[table[q, s]] = table[pi[q], p[s]]
        least = np.minimum(least, pi)
    return np.unique(least, return_inverse=True)[1].reshape(-1)


def root_automaton_reference(params: GroupParams) -> tuple[np.ndarray, ConeTypeAutomaton]:
    """act and the root-path automaton from the scalar closure, np.unique
    minimization and array orbits; the states D(w) are the library's."""
    act = scalar_elementary_roots(params)
    table = unique_minimize(_root_states(act))
    state_type = array_state_types(table, _admissible_perms(params))
    K = int(state_type.max()) + 1
    succ = table[np.unique(state_type, return_index=True)[1]]
    M = np.zeros((K, K), dtype=np.int64)
    rows, gens = np.nonzero(succ >= 0)
    np.add.at(M, (rows, state_type[succ[rows, gens]]), 1)
    return act, ConeTypeAutomaton(params=params, K_total=K, M=M, degree=3,
                                  root_type=int(state_type[0]), transitions=table,
                                  state_type=state_type)


def cta1_reference(a: ConeTypeAutomaton) -> str:
    """The cta-1 document of a, with the reduction by boolean matrix powers
    and every number converted one at a time."""
    K = a.K_total
    reach = (a.M > 0) | np.eye(K, dtype=bool)
    for _ in range(int(np.ceil(np.log2(max(K, 2)))) + 1):
        reach = reach @ reach
    idx = np.flatnonzero(reach.all(axis=0))
    MT = a.M[np.ix_(idx, idx)]
    power, p = MT > 0, 1
    while not power.all():
        power, p = power @ (MT > 0), p + 1
    doc = {
        "schema": "cta-1",
        "params": list(a.params.triple()),
        "K_total": K,
        "root_type": a.root_type,
        "M": [[int(x) for x in row] for row in a.M],
        "d": [a.degree] * K,
        "r": [int(x) for x in a.r],
        "reduced": {"types": [int(t) for t in idx],
                    "M": [[int(x) for x in row] for row in MT], "p": p},
    }
    return json.dumps(doc, sort_keys=True)
