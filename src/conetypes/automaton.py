"""Cone-type partition extraction and the associated automaton.

The cone C(x) is the set of vertices v with x on a geodesic from the base
point to v; on a bipartite norm-layered Cayley graph this is the closure of
{x} under "has a predecessor in the cone".  Vertices are partitioned by
rooted isomorphism of depth-k truncated cones: interned certificate labels
propose the partition, and every class is then verified exactly by
generator-twisted deterministic maps.  The label layers are kept on the
ball and grow with it, one sphere per layer and radius, since a label of
an inner vertex does not depend on the radius.  Verification runs on all
classes and both depths at once: one pass walks the cones of all class
representatives, and every other member of every class is mapped through
its own class's cone in one batch per permutation, so the Python loops run
over permutations and depth levels only.  A member no twist confirms fails
the verification: the partition is refuted, never patched by a search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .coxeter import CayleyBall, GroupParams
from .errors import (
    MultipleTerminalSCCs,
    NonDeterministic,
    NotPrimitive,
    NotStabilized,
    SchemaError,
    VerificationFailed,
)


@dataclass
class ConeTypeAutomaton:
    """Cone-type partition of a ball with its successor-count matrix."""

    params: GroupParams | None
    K_total: int
    M: np.ndarray
    d: np.ndarray
    r: np.ndarray
    root_type: int
    type_of: np.ndarray | None
    k_star: int
    radius: int


@dataclass
class ReducedAutomaton:
    """Restriction of the automaton to the unique terminal SCC."""

    types: tuple[int, ...]
    M: np.ndarray
    d: np.ndarray
    r: np.ndarray
    p: int


@dataclass
class VerificationReport:
    case: str
    expected: int
    actual: int
    matches: bool


def _admissible_perms(params: GroupParams) -> list[tuple[int, int, int]]:
    """Generator permutations preserving all pairwise rotation orders."""
    orders = params.orders()
    out = []
    for p in permutations(range(3)):
        if all(
            orders[(p[a], p[b])] == orders[(a, b)]
            for a in range(3)
            for b in range(3)
            if a != b
        ):
            out.append(p)
    return out


# A label row (own id, three successor ids) packs into one int64 key in base
# 2^15 while the ids lie in [-1, 2^15 - 2]: the key stays below 2^60.
_KEY_BASE = 1 << 15


class _LabelLayers:
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
    layer, so a layer has at most K ids, far below the key base.
    """

    def __init__(self):
        self.lab = [np.array([0, -1])]
        self.first = [np.zeros(1, dtype=np.int64)]
        self.counts = [[1]]
        self.known = [None]

    def extend(self, ball: CayleyBall, depth: int) -> None:
        """Bring layers 0..depth up to the ball's radius, in order."""
        R, off = ball.radius, ball.offsets
        if len(self.counts[0]) <= R:
            self.lab[0] = np.append(np.zeros(ball.n_vertices, dtype=np.int64), -1)
            self.counts[0] = [1] * (R + 1)
        succ = ball.successor_table()[0]
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
        if self.counts[j - 1][-1] >= _KEY_BASE:
            raise OverflowError(f"label layer {j - 1} has too many ids to pack")
        skeys, sids = self.known[j]
        n = skeys.size
        key = rows @ _KEY_BASE ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
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


def _ranges(off: np.ndarray, cls: np.ndarray):
    """The ranges off[c] .. off[c+1] of the classes cls, concatenated.

    Returns (owner, idx, shift): flat entry j is index idx[j] of the range
    of cls[owner[j]], and index i of cls[o]'s range sits at flat i + shift[o].
    """
    counts = off[cls + 1] - off[cls]
    owner = np.repeat(np.arange(cls.size), counts)
    shift = np.cumsum(counts) - counts - off[cls]
    return owner, np.arange(owner.size) - shift[owner], shift


def _cone_levels(ball: CayleyBall, reps: np.ndarray, depth: int) -> list:
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


def _twisted_maps(ball: CayleyBall, levels: list, ys: np.ndarray, ycls: np.ndarray,
                  ydepth: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Which ys the twist by `perm` maps their class's cone onto, as a mask.

    Member y of class c starts at phi(reps[c]) = y and follows
    phi(v . g) = phi(v) . perm(g) through the first ydepth[y] levels of the
    cone of reps[c] (see _cone_levels; ydepth is at most len(levels)).  y
    passes when every cone up-edge maps to an up-edge, phi is well defined
    and injective (on each level; levels differ in norm), and the images'
    successor counts match the cone's level by level: then phi is a rooted
    isomorphism.  All members are mapped together, on flat arrays of
    (member, node) and (member, edge) pairs; a member leaves the batch once
    its depth is reached.
    """
    nbr, norms = ball.neighbor_table(), ball.norms
    _, nsucc, _ = ball.successor_table()
    V = ball.n_vertices
    mask = np.zeros(ys.size, dtype=bool)
    alive = np.arange(ys.size)
    img = ys
    for level, (src, gen, first, dst, noff, eoff, noff1) in enumerate(levels, 1):
        n = alive.size
        po, _, pshift = _ranges(noff, ycls)
        eo, ee, eshift = _ranges(eoff, ycls)
        qo, qn, qshift = _ranges(noff1, ycls)
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


def _verify_classes(ball: CayleyBall, lab: np.ndarray, reps: np.ndarray,
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
    levels = _cone_levels(ball, reps, depth + 1)
    confirmed = [0] * len(perms)
    for i, perm in enumerate(perms):
        if ys.size == 0:
            break
        ok = _twisted_maps(ball, levels, ys, ycls, ydepth, perm)
        confirmed[i] = int(ok.sum())
        ys, ycls, ydepth = ys[~ok], ycls[~ok], ydepth[~ok]
    if ys.size:
        raise VerificationFailed(
            f"no twisted walk confirms vertices {int(reps[ycls[0]])} and {int(ys[0])} "
            f"at depth {int(ydepth[0])}: the certificate class over-merges"
        )
    return confirmed


def extract_automaton(ball: CayleyBall, diag: dict | None = None) -> ConeTypeAutomaton:
    """Stabilized cone-type partition of a ball, verified exactly.

    Finds the least k with identical depth-k and depth-(k+1) partitions on
    the exact domains (class counts conserved across the domain restriction),
    checks successor determinism, and confirms every certificate class by
    exact isomorphism at depths k+1 and k in one pass (see _verify_classes).
    The label layers are cached on the ball and only their new spheres are
    labelled when it grows (see _LabelLayers).  Stabilization is a
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
    layers = ball._labels = ball._labels or _LabelLayers()
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

    succ, _, npred = ball.successor_table()
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

    confirmed = _verify_classes(ball, type_of, reps, k_star)
    if diag is not None:
        diag["label_rounds"] = k_star + 1
        diag["verifier"] = {"members": int(sum(confirmed)),
                            "confirmed_by_perm": confirmed}

    return ConeTypeAutomaton(
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


def reduce_automaton(a: ConeTypeAutomaton) -> ReducedAutomaton:
    """Restrict to the unique terminal strongly connected component."""
    K = a.K_total
    A = (a.M > 0)
    reach = A | np.eye(K, dtype=bool)
    for _ in range(int(np.ceil(np.log2(max(K, 2)))) + 1):
        reach = reach @ reach
    mutual = reach & reach.T
    comp_of = np.full(K, -1, dtype=np.int64)
    comps = []
    for i in range(K):
        if comp_of[i] < 0:
            members = np.where(mutual[i])[0]
            comp_of[members] = len(comps)
            comps.append(members)
    terminal = []
    for ci, members in enumerate(comps):
        out = np.where(A[members].any(axis=0))[0]
        if all(comp_of[j] == ci for j in out):
            terminal.append(ci)
    if len(terminal) != 1:
        raise MultipleTerminalSCCs(f"found {len(terminal)} terminal components")
    types = tuple(int(t) for t in sorted(comps[terminal[0]]))
    idx = np.array(types, dtype=np.int64)
    MT = a.M[np.ix_(idx, idx)]
    if a.M[idx].sum() != MT.sum():
        raise MultipleTerminalSCCs("arcs leave the terminal component")
    KT = len(types)
    power = (MT > 0)
    p = 1
    while not power.all():
        if p > KT * KT:
            raise NotPrimitive(f"no positive power up to exponent {KT * KT}")
        power = (power @ (MT > 0))
        p += 1
    return ReducedAutomaton(
        types=types, M=MT, d=a.d[idx].copy(), r=a.r[idx].copy(), p=int(p)
    )


def theorem_case(l: int, m: int, n: int) -> tuple[str, int]:
    """Classification-case label and predicted cone-type count."""
    a, b, c = sorted((l, m, n))
    if a == b == c:
        return "(i)", c + 2
    if a == b or b == c:
        nn = a if a == b else b
        ll = c if a == b else a
        if ll == 2:
            return "(ii.2)", 2 * nn + 5
        return "(ii.1)", ll + 2 * nn + 1
    if a >= 3:
        return "(iii.1)", 2 * (a + b + c) - 2
    if b >= 4:
        return "(iii.2)", 2 * b + 2 * c + 7
    return "(iii.3)", 2 * c + 21


def verify_counts(params: GroupParams, a: ConeTypeAutomaton) -> VerificationReport:
    """Compare K_total against the classification formula for (l,m,n)."""
    case, expected = theorem_case(*params.triple())
    return VerificationReport(
        case=case, expected=expected, actual=a.K_total, matches=expected == a.K_total
    )


def to_digraph_dot(a) -> str:
    """DOT rendering: one node per type, M_{i,j} parallel arcs, r annotations."""
    if isinstance(a, ReducedAutomaton):
        names = list(a.types)
    else:
        names = list(range(a.K_total))
    M = np.asarray(a.M)
    r = np.asarray(a.r)
    lines = ["digraph cone_types {"]
    for pos, t in enumerate(names):
        attr = f'label="{t}"'
        if r[pos] != 1:
            attr += f', xlabel="{int(r[pos])}"'
        lines.append(f"  n{t} [{attr}];")
    for i in range(len(names)):
        for j in range(len(names)):
            for _ in range(int(M[i, j])):
                lines.append(f"  n{names[i]} -> n{names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def automaton_to_json(a: ConeTypeAutomaton, reduced: ReducedAutomaton | None = None) -> str:
    """Versioned document (schema cta-1) for export and re-import."""
    if reduced is None:
        reduced = reduce_automaton(a)
    doc = {
        "schema": "cta-1",
        "params": list(a.params.triple()) if a.params is not None else None,
        "K_total": a.K_total,
        "root_type": a.root_type,
        "M": [[int(x) for x in row] for row in a.M],
        "d": [int(x) for x in a.d],
        "r": [int(x) for x in a.r],
        "reduced": {
            "types": list(reduced.types),
            "M": [[int(x) for x in row] for row in reduced.M],
            "p": reduced.p,
        },
    }
    return json.dumps(doc, sort_keys=True)


def automaton_from_json(text: str) -> tuple[ConeTypeAutomaton, ReducedAutomaton]:
    """Parse and validate a cta-1 document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema") != "cta-1":
        raise SchemaError("missing or unsupported schema field (expected cta-1)")
    try:
        K = int(doc["K_total"])
        M = np.array(doc["M"], dtype=np.int64)
        d = np.array(doc["d"], dtype=np.int64)
        r = np.array(doc["r"], dtype=np.int64)
        root_type = int(doc["root_type"])
        red = doc["reduced"]
        types = tuple(int(t) for t in red["types"])
        MT = np.array(red["M"], dtype=np.int64)
        p = int(red["p"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed cta-1 document: {e}") from None
    if M.shape != (K, K) or d.shape != (K,) or r.shape != (K,):
        raise SchemaError("matrix/vector shapes disagree with K_total")
    if (M < 0).any() or not 0 <= root_type < K:
        raise SchemaError("negative multiplicities or root type out of range")
    # the lower bound holds for a d-regular graph only
    if (d <= 0).any() or (d != d[0]).any():
        raise SchemaError(f"degree vector {d.tolist()} is not one positive value")
    if MT.shape != (len(types), len(types)) or any(not 0 <= t < K for t in types):
        raise SchemaError("reduced block inconsistent with K_total")
    params = None
    if doc.get("params") is not None:
        from .coxeter import new_params

        params = new_params(*doc["params"])
    idx = np.array(types, dtype=np.int64)
    a = ConeTypeAutomaton(
        params=params, K_total=K, M=M, d=d, r=r, root_type=root_type,
        type_of=None, k_star=0, radius=0,
    )
    reduced = ReducedAutomaton(
        types=types, M=MT, d=d[idx].copy(), r=r[idx].copy(), p=p
    )
    return a, reduced
