"""Triangle-group elements and exact Cayley-graph balls.

The group Delta(l,m,n) = <L,M,N | L^2 = M^2 = N^2 = (LM)^n = (MN)^l = (NL)^m>
acts on covectors through the contragredient of its geometric reflection
representation, with exact integer coordinates (see ring.py).  The covector
y0 = (1, 1, 1) is positive on every simple root, so it lies in the open
fundamental chamber, whose points have trivial stabilizer (Tits; Humphreys,
Reflection Groups and Coxeter Groups, 5.13).  Hence w is identified exactly
by its orbit covector y_w = y0 P_w, where P_w is the product of the
reflection matrices along any word for w, and balls of the right Cayley
graph w -- ws are built breadth first from three ring coordinates per vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    IdentificationAmbiguity,
    InvalidParameter,
    MemoryCap,
    NonHyperbolic,
)
from .ring import CosineRing

COEFF_GUARD = 2 ** 57
_MASK64 = 2 ** 64 - 1
# vertex budget of a ball; grow raises MemoryCap past it
MAX_VERTICES = 8_000_000


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


def ring_of(params: GroupParams) -> CosineRing:
    """The cosine ring of Delta(l,m,n), built once per field for the root
    closure and the ball alike: orders 2 and 3 have rational cosines and
    add no factor, so (2,3,7) shares the ring of (7,7,7)."""
    return _field_ring(tuple(sorted({k for k in params.triple() if k >= 4})))


@lru_cache(maxsize=8)
def _field_ring(orders: tuple[int, ...]) -> CosineRing:
    return CosineRing(orders)


@lru_cache(maxsize=None)
def _multipliers(width: int) -> np.ndarray:
    """Fixed odd uint64 weights of the fingerprint of a width-`width` row:
    the splitmix64 sequence from state 0, each made odd."""
    weights, state = [], 0
    for _ in range(width):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        weights.append(z ^ (z >> 31) | 1)
    mult = np.array(weights, dtype=np.uint64)
    mult.flags.writeable = False
    return mult


@dataclass
class CayleyBall:
    """Radius-R ball of the Cayley graph with exact vertex identification.

    Vertex ids run sphere by sphere and, within a sphere, in the shortlex
    order of the vertices' normal forms (L < M < N).  parent[v] is the
    least-id predecessor of v and parent_gen[v] the last letter of v's normal
    form.  The ball's one adjacency is the neighbour table `nbr`, which
    `grow` extends in place: nbr[v, g] is the g-neighbour of v, or -1 outside
    the ball, so the radius-R ball is a prefix of the radius-(R+1) ball up to
    the last sphere's up-links.  `edges` is derived from it for export.
    """

    params: GroupParams
    radius: int
    norms: np.ndarray
    offsets: np.ndarray
    nbr: np.ndarray
    parent: np.ndarray
    parent_gen: np.ndarray
    # exact state of the last sphere, from which grow() continues: the
    # cosine ring, the orbit covectors [3, dim] of its candidates, the row of
    # _y of each vertex and its descent set (the generators leading back to
    # the previous sphere)
    _ring: CosineRing | None = field(default=None, repr=False)
    _y: np.ndarray | None = field(default=None, repr=False)
    _rows: np.ndarray | None = field(default=None, repr=False)
    _down: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return int(self.norms.size)

    @property
    def edges(self) -> np.ndarray:
        """The edges (u, v, g) with |v| = |u| + 1 and v = u g, sorted by (u, v)."""
        u, g = np.nonzero(self.nbr > np.arange(self.n_vertices)[:, None])
        v = self.nbr[u, g]
        order = np.lexsort((v, u))
        return np.column_stack([u[order], v[order], g[order]])

    def sphere_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbor_table(self) -> np.ndarray:
        """nbr[v, g] is the g-neighbor of v, or -1 outside the ball; the
        stored table itself, which grow replaces and never writes into."""
        return self.nbr

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
        for v in range(self.n_vertices):
            ns = " ".join(str(int(w)) for w in self.nbr[v] if w >= 0)
            lines.append(f"{v},{int(self.norms[v])},{ns}")
        return "\n".join(lines) + "\n"

    def grow(self) -> None:
        """Add the next sphere in place; every existing id is kept.

        Each last-sphere vertex w is expanded along its non-descent
        generators s; bipartiteness puts every candidate ws on the next
        sphere.  The candidates come generator by generator, and within a
        generator by w, so that each generator updates one slice in place;
        candidate ws has shortlex rank 3 w + s.  Right multiplication by s
        maps the covector y_w to y_t + y_s 2cos(pi/order(s, t)) (t != s) and
        -y_s, each product on one factor axis of the ring
        (CosineRing.add_times_2cos).  One sort on a uint64 fingerprint groups
        the candidates, and every member of a group must equal its
        predecessor in that order exactly, else IdentificationAmbiguity is
        raised: rows are never merged on a fingerprint alone.  A new vertex
        takes the least rank in its group, which is its shortlex position,
        and keeps one member's row of the new _y.  The table gains the new
        rows, holding their down-links, and the last sphere's up-links; the
        new descent sets are the new rows' links.
        """
        ring, y, rows, down = self._ring, self._y, self._rows, self._down
        orders = self.params.orders()
        k = self.radius
        gens, src = np.nonzero(~down.T)
        cand = y[rows[src]]
        lo = 0
        for s, hi in enumerate(np.cumsum(np.bincount(gens, minlength=3))):
            block = cand[lo:hi]
            ys = block[:, s].copy()
            np.negative(ys, out=block[:, s])
            for t in range(3):
                if t != s:
                    ring.add_times_2cos(orders[s, t], ys, block[:, t])
            lo = hi

        flat = cand.reshape(src.size, -1)
        keys = flat.view(np.uint64) @ _multipliers(flat.shape[1])
        order = np.argsort(keys)
        keys = keys[order]
        new = np.empty(keys.size, dtype=bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        n_new = starts.size
        if self.n_vertices + n_new > MAX_VERTICES:
            raise MemoryCap(f"ball would exceed {MAX_VERTICES} vertices at radius {k + 1}")
        dup = np.flatnonzero(~new)
        if not np.array_equal(flat[order[dup]], flat[order[dup - 1]]):
            raise IdentificationAmbiguity(
                f"distinct covectors share a fingerprint at radius {k + 1}"
            )
        # every duplicate equals its first, so cand bounds the new covectors
        if max(int(cand.max()), -int(cand.min())) >= COEFF_GUARD:
            raise IdentificationAmbiguity(
                f"coefficient guard 2^57 exhausted at radius {k + 1}"
            )
        # a group's id is the rank of its shortlex-first candidate among
        # those of all groups
        first_rank = np.minimum.reduceat((3 * src + gens)[order], starts)
        by_rank = np.argsort(first_rank)
        group_id = np.empty(n_new, dtype=np.int64)
        group_id[by_rank] = np.arange(n_new)
        ids = np.empty(keys.size, dtype=np.int64)
        ids[order] = group_id[np.cumsum(new) - 1]
        first_rank = first_rank[by_rank]

        base, first_id = int(self.offsets[-2]), int(self.offsets[-1])
        new_rows = np.full((n_new, 3), -1, dtype=np.int64)
        new_rows[ids, gens] = base + src
        nbr = np.concatenate([self.nbr, new_rows])
        nbr[base + src, gens] = first_id + ids

        self.radius = k + 1
        self.norms = np.concatenate([self.norms, np.full(n_new, k + 1, dtype=np.int16)])
        self.offsets = np.append(self.offsets, first_id + n_new)
        self.nbr = nbr
        self.parent = np.concatenate([self.parent, base + first_rank // 3])
        self.parent_gen = np.concatenate([self.parent_gen, (first_rank % 3).astype(np.int16)])
        self._y = cand
        self._rows = order[starts[by_rank]]
        self._down = new_rows >= 0


def build_ball(params: GroupParams, radius: int) -> CayleyBall:
    """Exact radius-R ball, grown sphere by sphere from the identity."""
    if radius < 1:
        raise InvalidParameter("radius must be >= 1")
    ring = ring_of(params)
    y0 = np.zeros((1, 3, ring.dim), dtype=np.int64)
    y0[0, :] = ring.one()
    ball = CayleyBall(
        params=params,
        radius=0,
        norms=np.zeros(1, dtype=np.int16),
        offsets=np.array([0, 1], dtype=np.int64),
        nbr=np.full((1, 3), -1, dtype=np.int64),
        parent=np.array([-1], dtype=np.int64),
        parent_gen=np.array([-1], dtype=np.int16),
        _ring=ring,
        _y=y0,
        _rows=np.zeros(1, dtype=np.int64),
        _down=np.zeros((1, 3), dtype=bool),
    )
    while ball.radius < radius:
        ball.grow()
    return ball
