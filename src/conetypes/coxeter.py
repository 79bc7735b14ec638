"""Triangle-group elements and exact Cayley-graph balls.

The group Delta(l,m,n) = <L,M,N | L^2 = M^2 = N^2 = (LM)^n = (MN)^l = (NL)^m>
is realized through its geometric reflection representation.  Balls of the
Cayley graph are built breadth first with exact integer coordinates (see
ring.py), so two words represent the same element iff their coefficient
tensors are identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    CapExceeded,
    IdentificationAmbiguity,
    InvalidParameter,
    MemoryCap,
    NonHyperbolic,
)
from .ring import CosineRing, reflection_tensors

COEFF_GUARD = 2 ** 57
DEFAULT_MAX_VERTICES = 8_000_000


GEN_NAMES = ("L", "M", "N")


@dataclass(frozen=True)
class GroupParams:
    """Validated exponent triple (l, m, n), in the order given."""

    l: int
    m: int
    n: int

    def triple(self) -> tuple[int, int, int]:
        return (self.l, self.m, self.n)

    def orders(self) -> dict[tuple[int, int], int]:
        """Rotation order of each ordered generator pair: LM->n, MN->l, NL->m."""
        l, m, n = self.l, self.m, self.n
        return {(0, 1): n, (1, 0): n, (1, 2): l, (2, 1): l, (2, 0): m, (0, 2): m}

    def angle_sum(self) -> Fraction:
        return Fraction(1, self.l) + Fraction(1, self.m) + Fraction(1, self.n)

    def name(self) -> str:
        return f"Delta({self.l},{self.m},{self.n})"


def new_params(l: int, m: int, n: int) -> GroupParams:
    """Validate a hyperbolic triple; order is preserved."""
    for v in (l, m, n):
        if not isinstance(v, (int, np.integer)) or v < 2:
            raise InvalidParameter(f"exponents must be integers >= 2, got {(l, m, n)}")
    p = GroupParams(int(l), int(m), int(n))
    if p.angle_sum() >= 1:
        raise NonHyperbolic(f"1/l+1/m+1/n = {p.angle_sum()} >= 1 for {(l, m, n)}")
    return p


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
def _geodesic_closure(triple: tuple[int, int, int], word: tuple[int, ...]) -> frozenset:
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
        raise CapExceeded(f"total word length {len(w1) + len(w2)} exceeds cap {cap}")
    c1 = _geodesic_closure(params.triple(), w1)
    c2 = _geodesic_closure(params.triple(), w2)
    g1 = next(iter(c1))
    g2 = next(iter(c2))
    if len(g1) != len(g2):
        return False
    return min(c1) == min(c2)


@dataclass
class CayleyBall:
    """Radius-R ball of the Cayley graph with exact vertex identification.

    Vertex ids run sphere by sphere, and `edges` is sorted by (u, v, g), so
    the radius-R ball is a prefix of the radius-(R+1) ball and `grow`
    extends it in place.
    """

    params: GroupParams
    radius: int
    norms: np.ndarray
    offsets: np.ndarray
    edges: np.ndarray
    parent: np.ndarray
    parent_gen: np.ndarray
    # exact state of the last sphere, from which grow() continues
    _W: np.ndarray | None = field(default=None, repr=False)
    _mats: np.ndarray | None = field(default=None, repr=False)
    _down: np.ndarray | None = field(default=None, repr=False)
    _succ: np.ndarray | None = field(default=None, repr=False)
    _nsucc: np.ndarray | None = field(default=None, repr=False)
    _npred: np.ndarray | None = field(default=None, repr=False)
    _nbr: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return int(self.norms.size)

    def sphere_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def representative_word(self, v: int) -> tuple[int, ...]:
        """A geodesic word for vertex v, read off the BFS parent chain."""
        out = []
        while v != 0:
            out.append(int(self.parent_gen[v]))
            v = int(self.parent[v])
        return tuple(reversed(out))

    def successor_table(self):
        """CSR-like successor table: succ[v] lists up-neighbors, padded with -1."""
        if self._succ is None:
            V = self.n_vertices
            u = self.edges[:, 0].astype(np.int64)
            v = self.edges[:, 1].astype(np.int64)
            nsucc = np.bincount(u, minlength=V)
            npred = np.bincount(v, minlength=V)
            width = int(nsucc.max()) if V > 1 else 0
            succ = -np.ones((V, width), dtype=np.int64)
            # edges are sorted by u, so each vertex's up-edges are contiguous
            starts = np.zeros(V, dtype=np.int64)
            starts[1:] = np.cumsum(nsucc)[:-1]
            slot = np.arange(u.size) - starts[u]
            succ[u, slot] = v
            self._succ, self._nsucc, self._npred = succ, nsucc, npred
        return self._succ, self._nsucc, self._npred

    def neighbor_table(self) -> np.ndarray:
        """nbr[v, g] is the g-neighbor of v, or -1 outside the ball."""
        if self._nbr is None:
            nbr = -np.ones((self.n_vertices, 3), dtype=np.int64)
            u = self.edges[:, 0]
            v = self.edges[:, 1]
            g = self.edges[:, 2]
            nbr[u, g] = v
            nbr[v, g] = u
            self._nbr = nbr
        return self._nbr

    def successors(self, v: int) -> list[int]:
        succ, nsucc, _ = self.successor_table()
        return [int(s) for s in succ[v] if s >= 0]

    def predecessors(self, v: int) -> list[int]:
        nbr = self.neighbor_table()
        return [int(w) for w in nbr[v] if w >= 0 and self.norms[w] < self.norms[v]]

    def to_json(self) -> str:
        doc = {
            "params": list(self.params.triple()),
            "radius": self.radius,
            "vertices": [{"id": i, "norm": int(n)} for i, n in enumerate(self.norms)],
            "edges": [[int(u), int(v), GEN_NAMES[g]] for u, v, g in self.edges],
        }
        return json.dumps(doc, sort_keys=True)

    def to_adjacency_csv(self) -> str:
        lines = ["vertex,norm,neighbors"]
        nbr = self.neighbor_table()
        for v in range(self.n_vertices):
            ns = " ".join(str(int(w)) for w in nbr[v] if w >= 0)
            lines.append(f"{v},{int(self.norms[v])},{ns}")
        return "\n".join(lines) + "\n"

    def grow(self, max_vertices: int = DEFAULT_MAX_VERTICES) -> None:
        """Add the next sphere in place; every existing id is kept.

        Each last-sphere vertex is expanded along its non-predecessor
        generators; bipartiteness puts every candidate on the next sphere,
        so deduplication is an exact unique of coefficient rows, and new ids
        follow their lexicographic order.
        """
        W, mats, down = self._W, self._mats, self._down
        k = self.radius
        base = int(self.offsets[-2])
        cand_list, par_list, gen_list = [], [], []
        for s in range(3):
            mask = ~down[:, s]
            if not mask.any():
                continue
            sub = mats[mask]
            out = np.empty_like(sub)
            for t in range(3):
                out[:, :, t, :] = sub[:, :, t, :] + sub[:, :, s, :] @ W[s, t]
            cand_list.append(out)
            par_list.append(base + np.flatnonzero(mask))
            gen_list.append(np.full(int(mask.sum()), s, dtype=np.int64))
        cand = np.concatenate(cand_list)
        pars = np.concatenate(par_list)
        gens = np.concatenate(gen_list)

        keys = cand.reshape(cand.shape[0], -1)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        n_new = uniq.shape[0]
        if int(np.abs(uniq).max(initial=0)) >= COEFF_GUARD:
            raise IdentificationAmbiguity(
                f"coefficient guard 2^57 exhausted at radius {k + 1}"
            )
        if self.n_vertices + n_new > max_vertices:
            raise MemoryCap(f"ball would exceed {max_vertices} vertices at radius {k + 1}")

        first = int(self.offsets[-1])
        chunk = np.column_stack([pars, first + inv, gens])
        chunk = chunk[np.lexsort((chunk[:, 2], chunk[:, 1], chunk[:, 0]))]
        new_down = np.zeros((n_new, 3), dtype=bool)
        new_down[inv, gens] = True
        par = np.full(n_new, -1, dtype=np.int64)
        par_gen = np.full(n_new, -1, dtype=np.int16)
        # last write wins; reverse order makes the lowest-index parent canonical
        order = np.arange(inv.size - 1, -1, -1)
        par[inv[order]] = pars[order]
        par_gen[inv[order]] = gens[order]

        self.radius = k + 1
        self.norms = np.concatenate([self.norms, np.full(n_new, k + 1, dtype=np.int16)])
        self.offsets = np.append(self.offsets, first + n_new)
        self.edges = np.concatenate([self.edges, chunk])
        self.parent = np.concatenate([self.parent, par])
        self.parent_gen = np.concatenate([self.parent_gen, par_gen])
        self._mats = uniq.reshape(n_new, 3, 3, W.shape[-1])
        self._down = new_down
        self._succ = self._nsucc = self._npred = self._nbr = None


def build_ball(params: GroupParams, radius: int,
               max_vertices: int = DEFAULT_MAX_VERTICES) -> CayleyBall:
    """Exact radius-R ball, grown sphere by sphere from the identity."""
    if radius < 1:
        raise InvalidParameter("radius must be >= 1")
    orders = params.orders()
    ring = CosineRing(orders.values())
    mats = np.zeros((1, 3, 3, ring.dim), dtype=np.int64)
    for i in range(3):
        mats[0, i, i] = ring.one()
    ball = CayleyBall(
        params=params,
        radius=0,
        norms=np.zeros(1, dtype=np.int16),
        offsets=np.array([0, 1], dtype=np.int64),
        edges=np.zeros((0, 3), dtype=np.int64),
        parent=np.array([-1], dtype=np.int64),
        parent_gen=np.array([-1], dtype=np.int16),
        _W=reflection_tensors(orders, ring),
        _mats=mats,
        _down=np.zeros((1, 3), dtype=bool),
    )
    while ball.radius < radius:
        ball.grow(max_vertices)
    return ball
