"""Independent references for the tests: the word problem, float
reflections, truncated-cone isomorphism, from-scratch label layers and the
per-depth verifier, and helpers only the tests read.

Most work from the presentation alone (braid moves and free cancellation),
in floating point, or by a backtracking graph-isomorphism search, so they
check the exact ring-coordinate Cayley balls and the batched cone-type
verifier of the library without sharing any of its code.  The label layers
are recomputed from scratch at one radius with lexicographic ids, against
the library's incremental first-occurrence ids; the per-depth verifier runs
the library's twisted maps one depth per batch, against its one-pass
verifier.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from conetypes import GroupParams, ReturnSeries, VerificationFailed
from conetypes.automaton import _admissible_perms, _cone_levels, _twisted_maps


class WordCapExceeded(Exception):
    """Word-problem oracle called beyond its configured length cap."""


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


def truncated_cone(ball, x: int, k: int) -> TruncatedCone:
    """Exact depth-k truncation of the cone rooted at x in a CayleyBall."""
    if int(ball.norms[x]) + k > ball.radius:
        raise ValueError(f"|x|+k = {int(ball.norms[x]) + k} > radius {ball.radius}")
    succ, _, _ = ball.successor_table()
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
    succ, _, _ = ball.successor_table()
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
    levels = _cone_levels(ball, reps, depth)
    confirmed = [0] * len(perms)
    for i, perm in enumerate(perms):
        if ys.size == 0:
            break
        ok = _twisted_maps(ball, levels, ys, ycls, np.full(ys.size, depth), perm)
        confirmed[i] = int(ok.sum())
        ys, ycls = ys[~ok], ycls[~ok]
    if ys.size:
        raise VerificationFailed(
            f"no twisted walk confirms vertices {int(reps[ycls[0]])} and {int(ys[0])} "
            f"at depth {depth}: the certificate class over-merges"
        )
    return confirmed


def sphere_type_census(ball, a) -> np.ndarray:
    """counts[k, i] = number of type-i vertices on the k-sphere, k <= R - k*."""
    kmax = ball.radius - a.k_star
    counts = np.zeros((kmax + 1, a.K_total), dtype=np.int64)
    for k in range(kmax + 1):
        lo, hi = int(ball.offsets[k]), int(ball.offsets[k + 1])
        counts[k] = np.bincount(a.type_of[lo:hi], minlength=a.K_total)
    return counts


def representative_word(ball, v: int) -> tuple[int, ...]:
    """A geodesic word for vertex v, read off the BFS parent chain."""
    out = []
    while v != 0:
        out.append(int(ball.parent_gen[v]))
        v = int(ball.parent[v])
    return tuple(reversed(out))


def basis_values(ring) -> np.ndarray:
    """Float values of a CosineRing's basis monomials."""
    vals = np.array([1.0])
    for k, d in zip(ring.factors, ring.degrees):
        vals = np.kron(vals, (2.0 * math.cos(math.pi / k)) ** np.arange(d))
    return vals


def ring_to_float(ring, a) -> float:
    """Float value of the ring element with coefficient vector a."""
    return float(np.dot(np.asarray(a, dtype=float), basis_values(ring)))


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
