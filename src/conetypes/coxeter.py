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
from functools import cached_property, reduce

import numpy as np

from .errors import (
    IdentificationAmbiguity,
    InvalidParameter,
    MemoryCap,
    NonHyperbolic,
)

# vertex budget of a ball; grow raises MemoryCap past it
MAX_VERTICES = 8_000_000
# bit budget of a walk of CayleyBall._walk, end << _BITS | length: the end's
# index on its sphere and the length, at most the radius, are both below
# MAX_VERTICES whatever the exponents
_BITS = MAX_VERTICES.bit_length()
_LENGTH = (1 << _BITS) - 1
# column c of CayleyBall._walk is the walk along g, h, g, ... for
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
        l, m, n = self.l, self.m, self.n
        return Fraction(l * m + m * n + n * l, l * m * n)

    def name(self) -> str:
        return f"Delta({self.l},{self.m},{self.n})"


def new_params(l: int, m: int, n: int) -> GroupParams:
    """Validate a hyperbolic triple; order is preserved."""
    if not all(isinstance(v, (int, np.integer)) and v >= 2 for v in (l, m, n)):
        raise InvalidParameter(f"exponents must be integers >= 2, got {(l, m, n)}")
    p = GroupParams(int(l), int(m), int(n))
    a, b, c = p.triple()
    if a * b + b * c + c * a >= a * b * c:  # 1/a + 1/b + 1/c >= 1, times abc, in ints
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
    prefix of the radius-(R+1) ball up to the last sphere's up-links.  The
    spheres' bounds are Python ints, from which `offsets`, `radius`,
    `n_vertices` and `norms` are read.

    `grow` continues from the last sphere's walks, one int64 per vertex and
    ordered pair: column c of `_walk` is the walk down from the vertex along
    g, h, g, ... for (g, h) = (_PAIR_G[c], _PAIR_H[c]), packed as
    end << _BITS | length, where end is the walk's last vertex numbered on
    its own sphere, radius - length.  Both fields are below MAX_VERTICES <
    2**_BITS, whatever the exponents.
    """

    params: GroupParams
    nbr: np.ndarray
    # sphere k is the ids _offsets[k]:_offsets[k + 1]
    _offsets: list[int]
    _walk: np.ndarray | None = field(default=None, repr=False)

    @property
    def radius(self) -> int:
        return len(self._offsets) - 2

    @property
    def offsets(self) -> np.ndarray:
        """The spheres' first ids and the vertex count, int64."""
        return np.array(self._offsets, dtype=np.int64)

    @property
    def n_vertices(self) -> int:
        return self._offsets[-1]

    @property
    def norms(self) -> np.ndarray:
        """Each vertex's word length, its sphere, int16."""
        return np.repeat(np.arange(self.radius + 1, dtype=np.int16), np.diff(self._offsets))

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

    @cached_property
    def _tops(self) -> np.ndarray:
        """Per column, the length m(g, h) - 1 of a walk that pairs; an order
        past the bit budget gives _LENGTH, which no length reaches."""
        return np.array([min(m, _LENGTH + 1) - 1 for m in self.params.triple()])[_OUT]

    def sphere_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def to_json(self) -> str:
        doc = {
            "params": list(self.params.triple()),
            "radius": self.radius,
            "vertices": [{"id": i, "norm": n} for i, n in enumerate(self.norms.tolist())],
            "edges": [[u, v, GEN_NAMES[g]] for u, v, g in self.edges.tolist()],
        }
        return json.dumps(doc, sort_keys=True)

    def to_adjacency_csv(self) -> str:
        lines = ["vertex,norm,neighbors"]
        for v, (n, row) in enumerate(zip(self.norms.tolist(), self.nbr.tolist())):
            lines.append(f"{v},{n}," + " ".join(str(w) for w in row if w >= 0))
        return "\n".join(lines) + "\n"

    def grow(self) -> None:
        """Add the next sphere in place; every existing id is kept.

        The last sphere's rows of nbr hold only down-links, so its descent
        sets (the generators leading back to the previous sphere) are the
        rows' links, and each last-sphere vertex w is expanded along its
        missing links s; bipartiteness puts every candidate ws on the next
        sphere, and np.nonzero gives the candidates in shortlex rank 3 w + s.
        Candidate ws is paired through s' != s when the walk down from w
        along s', s, s', ... takes m(s, s') - 1 steps.  Only candidates have
        such walks: from a w with descent s the walk takes no step, or all
        m(s, s') if s' is a descent too.  The key of a pairing is the walk's
        end and the pair {s, s'}, and the two candidates of one key are one
        vertex.

        Keys are matched by counting.  The walks of {s, s'} that pair all
        end on sphere k + 1 - m(s, s'), so a key is the end's index on that
        sphere, times 3, plus the generator outside {s, s'}: the counts take
        three entries per vertex of the largest of these at most three
        spheres, not of the ball.  Unless every key occurs exactly twice and
        no candidate pairs through both other generators,
        IdentificationAmbiguity is raised, and MemoryCap past MAX_VERTICES,
        before anything changes.  A key's two candidates are found from the
        sum of their positions, and the new vertex takes the lesser rank,
        which is its shortlex position.  The table gains the new rows,
        holding their down-links, and the last sphere's up-links; a new
        vertex's walk along g, h, ... with g a descent is one step to the
        last sphere followed by that vertex's walk along h, g, ....
        """
        offsets, walk = self._offsets, self._walk
        k, base, first_id = len(offsets) - 2, offsets[-2], offsets[-1]
        rank = (self.nbr[base:] < 0).ravel().nonzero()[0]
        at = ((walk & _LENGTH) == self._tops).ravel().nonzero()[0]
        keys = (walk.take(at) >> _BITS) * 3 + _OUT.take(at % 6)
        pos = rank.searchsorted(at // 2)
        count = np.bincount(keys)
        if np.count_nonzero(count.take(keys) != 2) or np.count_nonzero(pos[1:] == pos[:-1]):
            raise IdentificationAmbiguity(
                f"the rank-2 cosets do not pair the candidates at radius {k + 1}"
            )
        twin = np.bincount(keys, pos).take(keys).astype(np.int64) - pos
        n_new = rank.size - pos.size // 2
        if first_id + n_new > MAX_VERTICES:
            raise MemoryCap(f"ball would exceed {MAX_VERTICES} vertices at radius {k + 1}")
        # the later candidate of a pair is the vertex of the earlier one;
        # position 0 is never later, and carries the first id
        later = np.maximum(pos, twin)
        ids = np.ones(rank.size, dtype=np.int64)
        ids[later] = 0
        ids[0] = first_id
        ids = ids.cumsum()
        ids[later] = ids.take(np.minimum(pos, twin))

        nbr = np.concatenate([self.nbr, np.full((n_new, 3), -1, dtype=np.int64)])
        src = rank // 3
        nbr[ids, rank - 3 * src] = src + base
        nbr.reshape(-1)[rank + 3 * base] = ids
        # a new vertex's walk along g, h, ... is one step to its g-neighbour
        # and that vertex's walk along h, g, ..., or no step when g is not a
        # descent: then it ends at the new vertex, numbered on its sphere
        at = nbr[first_id:, _PAIR_G] * 6 + (_FLIP - 6 * base)
        walk = walk.take(at, mode="clip")
        walk += 1
        np.copyto(walk, np.arange(0, n_new << _BITS, 1 << _BITS)[:, None], where=at < 0)
        self.nbr, self._walk = nbr, walk
        offsets.append(first_id + n_new)


def build_ball(params: GroupParams, radius: int) -> CayleyBall:
    """Exact radius-R ball, grown sphere by sphere from the identity, whose
    six walks take no step and end at it.  A radius that is not an integer
    >= 1, a bool among them, raises InvalidParameter."""
    if isinstance(radius, bool) or not (isinstance(radius, (int, np.integer)) and radius >= 1):
        raise InvalidParameter(f"radius must be an integer >= 1, got {radius!r}")
    ball = CayleyBall(params=params, nbr=np.full((1, 3), -1, dtype=np.int64),
                      _offsets=[0, 1], _walk=np.zeros((1, 6), dtype=np.int64))
    while ball.radius < radius:
        ball.grow()
    return ball
