"""Triangle-group elements and exact Cayley-graph balls.

The group Delta(l,m,n) = <L,M,N | L^2 = M^2 = N^2 = (LM)^n = (MN)^l = (NL)^m>
is a Coxeter group, and balls of its right Cayley graph w -- ws are grown
breadth first from the exponents alone.  A vertex v of the next sphere has
two geodesic predecessors, v = ws = w's' with s != s', exactly when both s
and s' are descents of v.  Then v = u w0(s, s') is the top of the rank-2
coset u W_{s,s'}, whose minimal element is u, and l(v) = l(u) + m(s, s')
(Bjorner and Brenti, Combinatorics of Coxeter Groups, GTM 231, 2005,
section 2.4).  Equivalently, the walk down from w along s', s, s', ...
takes m(s, s') - 1 steps, each to the previous sphere, and so does the walk
from w' along s, s', s, ...; both end at u.  Delta(l,m,n) is infinite, so
no element has three descents, and each new vertex has one or two
predecessors.  No field arithmetic is needed, and the root closure of
automaton.py needs none either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import (
    IdentificationAmbiguity,
    InvalidParameter,
    MemoryCap,
    NonHyperbolic,
)

# vertex budget of a ball; grow raises MemoryCap past it
MAX_VERTICES = 8_000_000
# column c of CayleyBall._len and _end is the walk along g, h, g, ... for
# (g, h) = (_PAIR_G[c], _PAIR_H[c]), so that a vertex w's two columns with
# h = s are 2 s and 2 s + 1, and 6 w + c is twice the rank 3 w + s of the
# candidate w s; _FLIP[c] is the column of (h, g) and _OUT[c] the
# generator outside {g, h}
_PAIR_H, _PAIR_G = np.nonzero(1 - np.eye(3, dtype=np.int64))
_FLIP = 2 * _PAIR_G + _PAIR_H - (_PAIR_H > _PAIR_G)
_OUT = 3 - _PAIR_G - _PAIR_H


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


@dataclass
class CayleyBall:
    """Radius-R ball of the Cayley graph, its vertices identified by the
    rank-2 cosets of the group (see the module docstring).

    Vertex ids run sphere by sphere and, within a sphere, in the shortlex
    order of the vertices' normal forms (L < M < N).  The ball's one
    adjacency, from which `edges`, `parent` and `parent_gen` are derived, is
    the neighbour table `nbr`, which `grow` extends in place: nbr[v, g] is
    the g-neighbour of v, or -1 outside the ball, so the radius-R ball is a
    prefix of the radius-(R+1) ball up to the last sphere's up-links.
    """

    params: GroupParams
    radius: int
    norms: np.ndarray
    offsets: np.ndarray
    nbr: np.ndarray
    # the last sphere, from which grow() continues: for each ordered pair
    # (g, h) with g != h, the number of steps of the walk down from it along
    # g, h, g, ... and the vertex where that walk ends
    _len: np.ndarray | None = field(default=None, repr=False)
    _end: np.ndarray | None = field(default=None, repr=False)

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

    @property
    def parent_gen(self) -> np.ndarray:
        """The last letter of each normal form, int16, -1 at the identity: the
        generator to the least-id neighbour, which is on the sphere below once
        the -1 of a missing neighbour is read unsigned, as the largest id."""
        return np.append(-1, self.nbr[1:].view(np.uint64).argmin(axis=1)).astype(np.int16)

    @property
    def parent(self) -> np.ndarray:
        """The normal form's prefix, int64: the neighbour along parent_gen."""
        return np.append(-1, reduce(np.minimum, self.nbr[1:].view(np.uint64).T).view(np.int64))

    def sphere_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

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

        The last sphere's rows of nbr hold only down-links, so its descent
        sets (the generators leading back to the previous sphere) are the
        rows' links, and each last-sphere vertex w is expanded along its
        missing links s; bipartiteness puts every candidate ws on the next
        sphere, and np.nonzero gives the candidates in shortlex rank 3 w + s.
        Candidate ws is paired through s' != s when the walk down from w
        along s', s, s', ... takes m(s, s') - 1 steps; its key is that walk's
        end and the pair {s, s'}, and the two candidates of one key are one
        vertex.  Unless every key occurs exactly twice and no candidate
        pairs through both other generators, IdentificationAmbiguity is
        raised before anything changes.  A new vertex takes the least rank
        of its candidates, which is its shortlex position.  The table gains
        the new rows, holding their down-links, and the last sphere's
        up-links; a new vertex's walk along g, h, ... with g a descent is one
        step to the last sphere followed by that vertex's walk along
        h, g, ....
        """
        k = self.radius
        cand = self.nbr[self.offsets[-2]:] < 0
        rank = np.flatnonzero(cand)
        # column (s', s) of vertex w pairs the candidate w s through s' when
        # its walk reaches m(s, s') - 1 steps; the key is the walk's end
        # and the generator outside {s, s'}
        tops = np.array(self.params.triple())[_OUT] - 1
        at = np.flatnonzero((self._len == tops) & cand[:, _PAIR_H])
        paired = at // 2
        keys = 3 * self._end.take(at) + _OUT[at % 6]
        order = np.argsort(keys)
        gaps = np.diff(keys[order])
        if keys.size % 2 or gaps[0::2].any() or not gaps[1::2].all() or not np.diff(paired).all():
            raise IdentificationAmbiguity(
                f"the rank-2 cosets do not pair the candidates at radius {k + 1}"
            )
        first, second = paired[order[0::2]], paired[order[1::2]]
        n_new = rank.size - first.size
        if self.n_vertices + n_new > MAX_VERTICES:
            raise MemoryCap(f"ball would exceed {MAX_VERTICES} vertices at radius {k + 1}")
        # the later candidate of a pair is the vertex of the earlier one
        dup = np.searchsorted(rank, np.maximum(first, second))
        keep = np.ones(rank.size, dtype=bool)
        keep[dup] = False
        ids = np.cumsum(keep) - 1
        ids[dup] = ids[np.searchsorted(rank, np.minimum(first, second))]

        base, first_id = int(self.offsets[-2]), int(self.offsets[-1])
        src, gens = np.divmod(rank, 3)
        new_rows = np.full((n_new, 3), -1, dtype=np.int64)
        new_rows[ids, gens] = base + src
        nbr = np.concatenate([self.nbr, new_rows])
        nbr.reshape(-1)[3 * base + rank] = first_id + ids

        prev = new_rows[:, _PAIR_G] - base
        step = prev >= 0
        at = np.maximum(prev, 0) * 6 + _FLIP
        self.radius = k + 1
        self.norms = np.concatenate([self.norms, np.full(n_new, k + 1, dtype=np.int16)])
        self.offsets = np.append(self.offsets, first_id + n_new)
        self.nbr = nbr
        self._len = np.where(step, self._len.take(at) + 1, 0)
        self._end = np.where(step, self._end.take(at),
                             np.arange(first_id, first_id + n_new)[:, None])


def build_ball(params: GroupParams, radius: int) -> CayleyBall:
    """Exact radius-R ball, grown sphere by sphere from the identity."""
    if radius < 1:
        raise InvalidParameter("radius must be >= 1")
    ball = CayleyBall(
        params=params,
        radius=0,
        norms=np.zeros(1, dtype=np.int16),
        offsets=np.array([0, 1], dtype=np.int64),
        nbr=np.full((1, 3), -1, dtype=np.int64),
        _len=np.zeros((1, 6), dtype=np.int64),
        _end=np.zeros((1, 6), dtype=np.int64),
    )
    while ball.radius < radius:
        ball.grow()
    return ball
