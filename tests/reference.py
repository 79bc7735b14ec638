"""Independent references for the tests: the word problem, float
reflections and truncated-cone isomorphism.

These work from the presentation alone (braid moves and free cancellation),
in floating point, or by a backtracking graph-isomorphism search, so they
check the exact ring-coordinate Cayley balls and the batched cone-type
verifier of the library without sharing any of its code.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from conetypes import GroupParams


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
