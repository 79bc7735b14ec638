"""Cone-type partition extraction and the associated automaton.

The cone C(x) is the set of vertices v with x on a geodesic from the base
point to v; on a bipartite norm-layered Cayley graph this is the closure of
{x} under "has a predecessor in the cone".  Vertices are partitioned by
rooted isomorphism of depth-k truncated cones: a fast interned-certificate
refinement proposes the partition (one integer key per vertex and layer),
and every class is then verified exactly by generator-twisted deterministic
maps.  Verification runs on all classes at once: one pass walks the cones
of all class representatives, and every other member of every class is
mapped through its own class's cone in one batch per permutation, so the
Python loops run over permutations and depth levels only.  A member no
twist confirms fails the verification: the partition is refuted, never
patched by a search.
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


def _row_ids(rows: np.ndarray) -> np.ndarray:
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


def _refine_labels(ball: CayleyBall, labels: list[np.ndarray]) -> bool:
    """Append the next unfolding-certificate layer; False if domain exhausted."""
    succ, _, _ = ball.successor_table()
    d = len(labels) - 1
    dom = int(ball.offsets[ball.radius - d])
    if dom <= 1:
        return False
    prev = labels[-1]
    gathered = np.where(succ[:dom] >= 0, prev[succ[:dom].clip(min=0)], -1)
    gathered.sort(axis=1)
    lab = -np.ones(ball.n_vertices, dtype=np.int64)
    lab[:dom] = _row_ids(np.column_stack([prev[:dom], gathered]))
    labels.append(lab)
    return True


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
                  perm: np.ndarray) -> np.ndarray:
    """Which ys the twist by `perm` maps their class's cone onto, as a mask.

    Member y of class c starts at phi(reps[c]) = y and follows
    phi(v . g) = phi(v) . perm(g) through the cone of reps[c] (see
    _cone_levels).  y passes when every cone up-edge maps to an up-edge, phi
    is well defined and injective (on each level; levels differ in norm),
    and the images' successor counts match the cone's level by level: then
    phi is a rooted isomorphism.  All members are mapped together, on flat
    arrays of (member, node) and (member, edge) pairs.
    """
    nbr, norms = ball.neighbor_table(), ball.norms
    _, nsucc, _ = ball.successor_table()
    V = ball.n_vertices
    alive = np.arange(ys.size)
    img = ys
    for src, gen, first, dst, noff, eoff, noff1 in levels:
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
        keep = ~bad
        alive, ycls, img = alive[keep], ycls[keep], nxt[keep[qo]]
    mask = np.zeros(ys.size, dtype=bool)
    mask[alive] = True
    return mask


def _verify_classes(ball: CayleyBall, lab: np.ndarray, depth: int) -> list[int]:
    """Confirm every class of `lab` by twisted maps of depth-`depth` cones.

    A class's representative is its least vertex.  The cones of all
    representatives are walked in one pass, and all other members of all
    classes are then mapped at once under each admissible generator
    permutation in turn, each permutation being tried only on the members
    still unconfirmed.  Returns how many members each permutation confirmed.
    A member no permutation confirms raises VerificationFailed, naming the
    first such member in (label, vertex id) order.
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
        ok = _twisted_maps(ball, levels, ys, ycls, perm)
        confirmed[i] = int(ok.sum())
        ys, ycls = ys[~ok], ycls[~ok]
    if ys.size:
        raise VerificationFailed(
            f"no twisted walk confirms vertices {int(reps[ycls[0]])} and {int(ys[0])} "
            f"at depth {depth}: the certificate class over-merges"
        )
    return confirmed


def _class_count(lab: np.ndarray, dom: int) -> int:
    return int(np.count_nonzero(np.bincount(lab[:dom])))


def extract_automaton(ball: CayleyBall, diag: dict | None = None) -> ConeTypeAutomaton:
    """Stabilized cone-type partition of a ball, verified exactly.

    Finds the least k with identical depth-k and depth-(k+1) partitions on
    the exact domains (class counts conserved across the domain restriction),
    checks successor determinism, and confirms every certificate class by
    exact isomorphism at depths k+1 and k (see _verify_classes: one pass
    walks the cones of all class representatives, and all other members are
    mapped together per permutation).  Stabilization is a heuristic: it is
    only accepted with R - k >= max(l,m,n) + 1, so that the exact domain
    contains whole relator cycles, and the verifier then either confirms
    every class or raises VerificationFailed.

    On success, diag["label_rounds"] is the number of label layers computed
    and diag["verifier"] holds the members mapped at both depths and how
    many of them each admissible permutation confirmed.
    """
    R = ball.radius
    offsets = ball.offsets
    labels = [np.zeros(ball.n_vertices, dtype=np.int64)]
    maxp = max(ball.params.triple())
    k_max = R - maxp - 1
    k_star = None
    for k in range(1, k_max + 1):
        while len(labels) <= k + 1:
            if not _refine_labels(ball, labels):
                break
        if len(labels) <= k + 1:
            break
        dom_k = int(offsets[R - k + 1])
        dom_k1 = int(offsets[R - k])
        n_full = _class_count(labels[k], dom_k)
        n_common = _class_count(labels[k], dom_k1)
        n_next = _class_count(labels[k + 1], dom_k1)
        if n_full == n_common == n_next:
            k_star = k
            break
    if k_star is None:
        raise NotStabilized(
            f"no depth k with R - k >= max(l,m,n) + 1 = {maxp + 1} "
            f"stabilizes within radius {R}"
        )

    dom_k = int(offsets[R - k_star + 1])
    dom_k1 = int(offsets[R - k_star])
    lab = labels[k_star]
    classes, first, inv = np.unique(lab[:dom_k], return_index=True, return_inverse=True)
    K = classes.size
    # canonical numbering: first occurrence along increasing vertex id
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    type_of = -np.ones(ball.n_vertices, dtype=np.int64)
    type_of[:dom_k] = rank[inv.reshape(-1)]
    reps = np.empty(K, dtype=np.int64)
    reps[rank] = first

    succ, nsucc, npred = ball.successor_table()
    rows = np.where(succ[:dom_k1] >= 0, type_of[succ[:dom_k1].clip(min=0)], -1)
    rows.sort(axis=1)
    tvec = type_of[:dom_k1]
    table = np.column_stack([tvec, rows])
    _, firsts = np.unique(_row_ids(table), return_index=True)
    uniq_rows = table[firsts]
    n_types = np.unique(tvec).size
    if uniq_rows.shape[0] != n_types:
        raise NonDeterministic("equal-type vertices disagree on successor types")
    if n_types != K:
        raise NotStabilized("a cone type has no interior representative")
    if _row_ids(np.column_stack([tvec, npred[:dom_k1]])).max() + 1 != K:
        raise NonDeterministic("equal-type vertices disagree on predecessor counts")

    M = np.zeros((K, K), dtype=np.int64)
    for t, *succ_types in uniq_rows:
        for st in succ_types:
            if st >= 0:
                M[t, st] += 1
    d = np.full(K, 3, dtype=np.int64)
    r = d - M.sum(axis=1)
    root_type = int(type_of[0])
    if r[root_type] != 0:
        raise NonDeterministic("base-point type does not have r = 0")

    confirmed = np.sum([_verify_classes(ball, labels[depth], depth)
                        for depth in (k_star + 1, k_star)], axis=0)
    if diag is not None:
        diag["label_rounds"] = len(labels) - 1
        diag["verifier"] = {"members": int(confirmed.sum()),
                            "confirmed_by_perm": confirmed.tolist()}

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


def sphere_type_census(ball: CayleyBall, a: ConeTypeAutomaton) -> np.ndarray:
    """counts[k, i] = number of type-i vertices on the k-sphere, k <= R - k*."""
    kmax = ball.radius - a.k_star
    counts = np.zeros((kmax + 1, a.K_total), dtype=np.int64)
    for k in range(kmax + 1):
        lo, hi = int(ball.offsets[k]), int(ball.offsets[k + 1])
        seg = a.type_of[lo:hi]
        counts[k] = np.bincount(seg, minlength=a.K_total)
    return counts


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
