"""Cone-type automata from the root system, their reduction and export.

The cone type of w is the set of v with l(wv) = l(w) + l(v).  Brink and
Howlett's elementary roots E decide it exactly, with no ball (Brink &
Howlett, Math. Ann. 1993; Parkinson & Yau, "Cone types, automata, and
regular partitions in Coxeter groups"): with N(w) the positive roots w
makes negative, D(w) = N(w) & E is empty at the identity, ws is longer than
w exactly when alpha_s is not in D(w), and D(ws) = {alpha_s} | (s D(w) & E).
E and the action of the generators on it are known in closed form from the
exponents, so no field arithmetic enters.  Moore-minimized, these states
are the labelled cone types.  A type of the package is an orbit of them
under the admissible generator permutations, numbered by its
shortlex-least element, as along the vertex ids of a ball.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, permutations

import numpy as np

from .coxeter import CayleyBall, GroupParams, new_params
from .errors import (
    MultipleTerminalSCCs,
    NotPrimitive,
    SchemaError,
    VerificationFailed,
)


class _Regular:
    """Types of a degree-regular graph, with successor-count matrix M."""

    @property
    def r(self) -> np.ndarray:
        """Predecessors of each type: r_i = degree - sum_j M_ij."""
        return self.degree - self.M.sum(axis=1)


@dataclass
class ConeTypeAutomaton(_Regular):
    """Cone types and their successor-count matrix M.

    transitions[q, s] is the minimized state of ws for w in state q, or -1
    where ws is shorter; state 0 is the identity's, and state_type[q] is
    the cone type of state q.  Both are None for an automaton read from a
    cta-1 document.
    """

    params: GroupParams | None
    K_total: int
    M: np.ndarray
    degree: int
    root_type: int
    transitions: np.ndarray | None = None
    state_type: np.ndarray | None = None


@dataclass
class ReducedAutomaton(_Regular):
    """Restriction of the automaton to the unique terminal SCC.

    No arc leaves that component, so its row sums, and hence r, are those
    of the full automaton.
    """

    types: tuple[int, ...]
    M: np.ndarray
    degree: int
    p: int


def _admissible_perms(params: GroupParams) -> list[tuple[int, int, int]]:
    """Generator permutations preserving all pairwise rotation orders, in
    lexicographic order, so the identity comes first: the p with t[p(k)] =
    t[k] for the exponent triple t.  The order m(s,u) of a pair is t[k], the
    exponent of the third generator k, and p maps k to the third generator
    of {p(s), p(u)}, so m(p(s), p(u)) = t[p(k)]."""
    t = params.triple()
    return [p for p in permutations(range(3)) if all(t[p[k]] == t[k] for k in range(3))]


def _elementary_roots(orders: dict) -> tuple[np.ndarray, int]:
    """act[s, i], the index of s beta_i in E or -1 if it is not in E, and the
    number of root layers closed, from the rotation orders m_st alone.

    E is the closure of the simple roots alpha_0, alpha_1, alpha_2 under
    beta -> s beta whenever -1 < B(alpha_s, beta) < 0, with B(alpha_s,
    alpha_s) = 1 and B(alpha_s, alpha_t) = -cos(pi/m_st); a root s beta with
    B(alpha_s, beta) <= -1 dominates alpha_s and is not elementary.  The
    chain of a pair {t, u} of order m is its rank-2 roots rho_k = U_k alpha_t
    + U_(k-1) alpha_u, 0 <= k < m, U_k = sin((k+1)pi/m)/sin(pi/m), from
    rho_0 = alpha_t to rho_(m-1) = alpha_u, with s_t rho_k = rho_(m-k) for
    k >= 1 and s_u rho_k = rho_(m-2-k) for k <= m-2; its roots are
    elementary, and U_k >= 1 on its inner roots.  For the third generator s,

        B(alpha_s, rho_k) = -U_k cos(pi/m_st) - U_(k-1) cos(pi/m_su),

    and each case of E follows from one inequality in it:
    - every order >= 3: on an inner root B <= -cos(pi/m_st) - cos(pi/m_su)
      <= -1, so E is the three chains;
    - s_a and s_b commute, c the third generator: on the chain from alpha_a
      to alpha_c, B(alpha_b, rho_k) = -U_(k-1) cos(pi/m_bc), which lies in
      (-1, 0) at k = 1 and, unless m_ac or m_bc is 3, is at most
      -2cos(pi/m_ac) cos(pi/m_bc) < -1 beyond, and likewise with a and b
      swapped.  So E adds gamma =
      s_a s_b alpha_c, with s_a gamma = s_b alpha_c and s_b gamma =
      s_a alpha_c, and s_c sends gamma out of E: B(alpha_c, gamma) =
      1 - 2cos^2(pi/m_bc) - 2cos^2(pi/m_ac) < -1;
    - in addition m_xc = 3 for one x in {a, b}, y the other, and rho the
      chain from alpha_y to alpha_c, of order q >= 7: B(alpha_x, rho_k) =
      -U_(k-1)/2 is -cos(pi/q) at k = 2 and k = q - 2 and at most
      -U_2/2 < -1 between.  So E adds s_x rho_2 and s_x rho_(q-2), which
      s_x sends back to their chain roots and s_y, commuting with s_x,
      swaps; B(alpha_c, s_x rho_k) = -U_(k+1)/2, so s_c fixes
      s_x rho_(q-2) and sends s_x rho_2 out of E (B = -cos(3pi/q) -
      cos(pi/q) < -1).
    A root's layer is its depth less one, so an image with B >= 0, the root
    itself or a shallower one, is never new: a BFS of these images in
    (root, s) order numbers E as the closure does (Brink & Howlett, Math.
    Ann. 1993).
    """
    def rho(t, u, k):
        """rho_k of the chain from alpha_t to alpha_u: the simple root t or u
        at its ends, else the inner root (t, u, k) with t < u."""
        m = orders[t, u]
        if k in (0, m - 1):
            return u if k else t
        return (t, u, k) if t < u else (u, t, m - 1 - k)

    # the images of and into the roots outside the chains, None outside E
    extra = {}
    for c in range(3):
        a, b = (t for t in range(3) if t != c)
        if orders[a, b] != 2:
            continue
        extra.update({(rho(a, c, 1), b): "gamma", (rho(b, c, 1), a): "gamma",
                      ("gamma", a): rho(b, c, 1), ("gamma", b): rho(a, c, 1),
                      ("gamma", c): None})
        for x, y in ((a, b), (b, a)):
            if orders[x, c] == 3:
                q = orders[y, c]
                for k in (2, q - 2):
                    extra[rho(y, c, k), x] = ("delta", k)
                    extra[("delta", k), x] = rho(y, c, k)
                    extra[("delta", k), y] = ("delta", q - k)
                extra[("delta", 2), c], extra[("delta", q - 2), c] = None, ("delta", q - 2)

    def image(beta, s):
        if (beta, s) in extra:
            return extra[beta, s]
        if isinstance(beta, int):
            return None if s == beta else rho(s, beta, 1)
        t, u, k = beta
        if s in (t, u):
            return rho(t, u, orders[t, u] - k - 2 * (s == u))
        return None

    roots, layer, images = [0, 1, 2], [0, 0, 0], []
    index = {beta: i for i, beta in enumerate(roots)}
    for i, beta in enumerate(roots):  # grows while it is read
        for s in range(3):
            images.append(image(beta, s))
            if images[-1] is not None and images[-1] not in index:
                index[images[-1]] = len(roots)
                roots.append(images[-1])
                layer.append(layer[i] + 1)
    return np.array([index.get(j, -1) for j in images]).reshape(-1, 3).T, layer[-1] + 1


def _root_states(act: np.ndarray) -> list[list[int]]:
    """Transitions of the states D(w) reachable from D(e) = {}, in BFS order.

    A state is a bitset over E in a Python int, of any width; bit s is
    alpha_s.  Row q holds the state of ws, or -1 when alpha_s is in D(w).
    Each state's members are listed once, when it is first met: those of
    D(ws) are alpha_s and the images in E of D(w)'s, so no state's bits are
    ever scanned.  A state of k roots costs O(k) steps for each of its three
    images, against O(|E|) for a scan below its top bit.
    """
    # bit[j] is the bit of s beta_j, or 0 when s beta_j is not in E
    gens = [(s, 1 << s, [1 << j if j >= 0 else 0 for j in image], image)
            for s, image in enumerate(act.tolist())]
    states, members, index, table = [0], [[]], {0: 0}, []
    for D, mem in zip(states, members):  # both grow while they are read
        row = [-1, -1, -1]
        for s, alpha, bit, image in gens:
            if not D & alpha:
                nxt = sum([bit[j] for j in mem], alpha)
                t = row[s] = index.setdefault(nxt, len(states))
                if t == len(states):
                    states.append(nxt)
                    nxt_mem = [image[j] for j in mem if image[j] >= 0]
                    nxt_mem.append(s)
                    members.append(nxt_mem)
        table.append(row)
    return table


def _minimize(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Moore-minimized table of a BFS-ordered table, in BFS order again, and
    the number of refinement rounds, the last of which splits no class.

    States are merged when they accept the same words.  Refinement starts
    from one class, and each round keys a dict on (class, successor
    classes), with -1 for a refused step: every round costs O(1) per state.
    Every round numbers the classes by their first state, so the final
    numbering is that of the classes' shortlex-least words: the BFS follows
    the generators in order.  The first round splits the states by the steps
    they refuse, and the identity's state refuses none while every other
    state refuses its last one, so it always splits; the keys of the last
    round, which splits no class, are the minimized rows in class order.
    """
    # the one-class partition, with n_cls = 0 so that the first round runs
    new, ids, n_cls, rounds = [0] * len(rows), {(): 0}, 0, 0
    while len(ids) != n_cls:
        # cls ends in -1, the class of the missing successor -1
        cls, n_cls, ids = new + [-1], len(ids), {}
        rounds += 1
        new = [ids.setdefault((c, cls[a], cls[b], cls[d]), len(ids))
               for c, (a, b, d) in zip(cls, rows)]
    return [list(key[1:]) for key in ids], rounds


def _state_types(rows: list[list[int]], perms) -> tuple[list[int], list[int]]:
    """The cone type of each state, its orbit under the permutations, and
    the least state of each orbit, in type order.

    p maps the cone type of w to that of p(w), so it maps state q to pi(q),
    with pi(0) = 0 and pi(rows[q][s]) = rows[pi(q)][p(s)].  The
    permutations form a group, so the least image of q is the least state
    of its orbit, which is the first state of its type in BFS order; the
    types are numbered in the order of these representatives.  perms[0] is
    the identity, as _admissible_perms yields it first, and is skipped:
    each other permutation costs O(1) per arc, and a triple with distinct
    exponents has none, so its states are its types.
    """
    least = list(range(len(rows)))
    for p0, p1, p2 in perms[1:]:
        pi = [0] * len(rows)
        for q, (a, b, d) in enumerate(rows):  # q is reached from a smaller state
            image = rows[pi[q]]
            if a >= 0:
                pi[a] = image[p0]
            if b >= 0:
                pi[b] = image[p1]
            if d >= 0:
                pi[d] = image[p2]
        least = list(map(min, least, pi))
    reps = [q for q, m in enumerate(least) if m == q]
    type_of = {q: t for t, q in enumerate(reps)}
    return [type_of[m] for m in least], reps


def extract_automaton(params: GroupParams, diag: dict | None = None) -> ConeTypeAutomaton:
    """The cone-type automaton of Delta(l,m,n), from its elementary roots.

    M counts the successor types of one state of each type in the
    trivalent Cayley graph.  diag receives "roots", |E|; "closure_rounds",
    the number of root layers closed; "states", the number of states before
    and after minimization; and "moore_rounds", the refinement rounds.
    """
    act, closure_rounds = _elementary_roots(params.orders())
    states = _root_states(act)
    table, moore_rounds = _minimize(states)
    state_type, reps = _state_types(table, _admissible_perms(params))
    K = len(reps)
    # every state of a type has the type's row of M, so its representative's is read
    cells = [t * K + state_type[u] for t, q in enumerate(reps) for u in table[q] if u >= 0]
    M = np.bincount(cells, minlength=K * K).reshape(K, K)
    if diag is not None:
        diag["roots"] = act.shape[1]
        diag["closure_rounds"] = closure_rounds
        diag["states"] = {"before": len(states), "after": len(table)}
        diag["moore_rounds"] = moore_rounds
    return ConeTypeAutomaton(params=params, K_total=K, M=M, degree=3,
                             root_type=state_type[0], transitions=np.array(table, dtype=np.int64),
                             state_type=np.array(state_type, dtype=np.int64))


def types_on_ball(a: ConeTypeAutomaton, ball: CayleyBall) -> np.ndarray:
    """The cone type of every ball vertex, read along its shortlex normal form.

    parent[v] is the prefix of v's normal form and parent_gen[v] its last
    letter.  A normal form the automaton refuses, or an automaton without
    transitions (one read from a cta-1 document), raises VerificationFailed.
    """
    if a.transitions is None:
        raise VerificationFailed("the automaton has no transitions to type the ball's vertices")
    parent, gen, offsets = ball.parent, ball.parent_gen, ball.offsets.tolist()
    state = np.zeros(ball.n_vertices, dtype=np.int64)
    for lo, hi in zip(offsets[1:], offsets[2:]):
        state[lo:hi] = a.transitions[state[parent[lo:hi]], gen[lo:hi]]
    # after a refused step (-1) the last row is read: the first -1 is on its sphere
    refused = np.flatnonzero(state < 0)
    if refused.size:
        k = ball.norms[refused[0]]
        raise VerificationFailed(f"the automaton refuses a geodesic of length {k}")
    return a.state_type[state]


def check_on_ball(a: ConeTypeAutomaton, ball: CayleyBall) -> None:
    """Raise VerificationFailed unless the automaton agrees with the ball.

    The automaton must be for the ball's ordered triple.  Every vertex must
    have r of its type predecessors, every vertex inside the last sphere the
    successor types of its row of M, and the type counts of sphere R, times
    M, must be whole multiples of r on sphere R + 1.  These local facts give
    the count recursion r_j s_(k+1)(j) = sum_i s_k(i) M_ij on every sphere k
    < R: the graph is bipartite, so each of a vertex's 3 neighbours is a
    predecessor or a successor, and the edges from sphere k to the type-j
    vertices of sphere k + 1 number sum_i s_k(i) M_ij by the successor rows
    and r_j s_(k+1)(j) by the predecessor counts.
    """
    if a.params is not None and a.params != ball.params:
        raise VerificationFailed(f"a {a.params.name()} automaton on a {ball.params.name()} ball")
    types = types_on_ball(a, ball)
    K, r, inner = a.K_total, a.r, int(ball.offsets[-2])
    # ids run sphere by sphere, so a smaller neighbour id is on the sphere
    # below and a larger one on the sphere above; the -1 of a missing
    # neighbour, read unsigned, is the largest id
    ids = np.arange(ball.n_vertices)[:, None]
    down = np.flatnonzero(ball.nbr.view(np.uint64) < ids.view(np.uint64))
    pred = np.bincount(down // 3, minlength=ball.n_vertices)
    bad = np.flatnonzero(pred != r[types])
    if bad.size:
        v = bad[0]
        raise VerificationFailed(f"vertex {v} on sphere {ball.norms[v]} has {pred[v]} predecessors, "
                                 f"not the r = {r[types[v]]} of its type {types[v]}")
    up = np.flatnonzero(ball.nbr[:inner] > ids[:inner])
    got = np.bincount(up // 3 * K + types[ball.nbr.flat[up]], minlength=inner * K).reshape(inner, K)
    bad = np.flatnonzero(got != a.M.take(types[:inner], axis=0)) // K
    if bad.size:
        v = bad[0]
        raise VerificationFailed(f"vertex {v} on sphere {ball.norms[v]} has successor types "
                                 f"{got[v].tolist()}, not the row of its type {types[v]}")
    into = np.bincount(types[inner:], minlength=K) @ a.M
    if (into % np.maximum(r, 1)).any() or into[r <= 0].any():
        raise VerificationFailed(f"M gives no whole type counts on sphere {ball.radius + 1}")


def reduce_automaton(a: ConeTypeAutomaton) -> ReducedAutomaton:
    """Restrict to the unique terminal strongly connected component.

    That component is the set of types every type reaches; the set is empty
    when there are two or more terminal components.  A type reaches another
    along a simple path of at most K - 1 arcs, so ceil(log2 K) squarings of
    the reflexive 0/1 matrix, covering 2^ceil(log2 K) >= K arcs, close
    reachability.  The 0/1 matrix products are float64 products clipped to
    1, exact on 0/1 entries.

    The primitivity exponent p, the least k with S^k > 0 for the component's
    0/1 matrix S, is found by binary lifting.  Positivity is monotone in k:
    an irreducible S has no zero column, so S^k > 0 gives
    S^(k+1) = S^k S > 0.  So S is squared until S^(2^J) > 0, and the
    largest e < 2^J with S^e not positive is read off bit by bit from the
    top, keeping a lower power S^(2^j) in the product when the product
    stays non-positive; p = e + 1, in about 2 log2 p products instead of p.
    A primitive S has p <= (KT - 1)^2 + 1 <= KT^2 (Wielandt), so squaring
    past exponent KT^2 without a positive power raises NotPrimitive.
    """
    K = a.K_total
    reach = np.maximum(a.M > 0, np.eye(K))
    for _ in range(int(np.ceil(np.log2(max(K, 2))))):
        reach = np.minimum(reach @ reach, 1.0)
    idx = np.flatnonzero(reach.all(axis=0))
    if idx.size == 0:
        raise MultipleTerminalSCCs("no type is reached from every type")
    MT = a.M[np.ix_(idx, idx)]
    KT = len(idx)
    lifts = [(MT > 0).astype(float)]  # S^(2^j)
    while not lifts[-1].all():
        if 2 ** (len(lifts) - 1) > KT * KT:
            raise NotPrimitive(f"no positive power up to exponent {KT * KT}")
        lifts.append(np.minimum(lifts[-1] @ lifts[-1], 1.0))
    e, below = 0, None  # below = S^e, not positive (None for e = 0)
    for j in range(len(lifts) - 2, -1, -1):
        power = lifts[j] if below is None else np.minimum(below @ lifts[j], 1.0)
        if not power.all():
            e, below = e + 2 ** j, power
    return ReducedAutomaton(types=tuple(int(t) for t in idx), M=MT, degree=a.degree, p=e + 1)


def theorem_case(l: int, m: int, n: int) -> tuple[str, int]:
    """Classification-case label and predicted cone-type count of a
    hyperbolic triple; any other raises as new_params does."""
    a, b, c = sorted(new_params(l, m, n).triple())
    if a == b == c:
        return "(i)", c + 2
    if a == b or b == c:
        nn = b
        ll = c if a == b else a
        if ll == 2:
            return "(ii.2)", 2 * nn + 5
        return "(ii.1)", ll + 2 * nn + 1
    if a >= 3:
        return "(iii.1)", 2 * (a + b + c) - 2
    if b >= 4:
        return "(iii.2)", 2 * b + 2 * c + 7
    return "(iii.3)", 2 * c + 21


def to_digraph_dot(a: ConeTypeAutomaton) -> str:
    """DOT rendering: one node per type, M_{i,j} parallel arcs, r annotations."""
    r = a.r
    lines = ["digraph cone_types {"]
    for t in range(a.K_total):
        attr = f'label="{t}"'
        if r[t] != 1:
            attr += f', xlabel="{int(r[t])}"'
        lines.append(f"  n{t} [{attr}];")
    for i in range(a.K_total):
        for j in range(a.K_total):
            for _ in range(int(a.M[i, j])):
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def automaton_to_json(a: ConeTypeAutomaton, reduced: ReducedAutomaton) -> str:
    """Versioned document (schema cta-1) for export and re-import; reduced
    is reduce_automaton(a)."""
    doc = {
        "schema": "cta-1",
        "params": list(a.params.triple()) if a.params is not None else None,
        "K_total": a.K_total,
        "root_type": a.root_type,
        "M": a.M.tolist(),
        "d": [a.degree] * a.K_total,
        "r": a.r.tolist(),
        "reduced": {
            "types": list(reduced.types),
            "M": reduced.M.tolist(),
            "p": reduced.p,
        },
    }
    return json.dumps(doc, sort_keys=True)


def _json_int(value, name: str) -> int:
    """A JSON integer as it was parsed; a float, string or bool is refused."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer, not {type(value).__name__}")
    return value


def _json_array(value, name: str, rows: bool = False) -> list:
    """A JSON array of integers, or with rows an array of such arrays, as
    parsed, refused unless every entry's type is int; a bool, which a list
    comparison takes for 0 or 1, is named."""
    kinds = set(map(type, chain.from_iterable(value) if rows else value))
    if not kinds <= {int}:
        why = "holds a boolean, not an integer" if bool in kinds else "is not an array of integers"
        raise SchemaError(f"{name} {why}")
    return value


def automaton_from_json(text: str) -> tuple[ConeTypeAutomaton, ReducedAutomaton]:
    """Parse a cta-1 document and check it against what its M and d imply.

    Every count must be a JSON integer, r must be d - sum_j M_ij >= 0, and
    the reduced block (types, M, p) must be the reduction of M, which is
    returned with the automaton.  Only M becomes an int64 array: d, r and
    the reduced block are compared as lists, and no count may exceed int64.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema") != "cta-1":
        raise SchemaError("missing or unsupported schema field (expected cta-1)")
    try:
        K = _json_int(doc["K_total"], "K_total")
        rows = _json_array(doc["M"], "M", rows=True)
        M = np.array(rows, dtype=np.int64)
        d = _json_array(doc["d"], "d")
        r = _json_array(doc["r"], "r")
        root_type = _json_int(doc["root_type"], "root_type")
        red = doc["reduced"]
        types = _json_array(red["types"], "reduced.types")
        MT = _json_array(red["M"], "reduced.M", rows=True)
        p = _json_int(red["p"], "reduced.p")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"malformed cta-1 document: {e}") from None
    if M.shape != (K, K) or len(d) != K or len(r) != K:
        raise SchemaError("matrix/vector shapes disagree with K_total")
    if (M < 0).any() or not 0 <= root_type < K:
        raise SchemaError("negative multiplicities or root type out of range")
    # the lower bound holds for a d-regular graph only
    if d != [d[0]] * K or not 0 < d[0] < 2 ** 63:
        raise SchemaError(f"degree vector {d} is not one positive int64 value")
    params = doc.get("params")
    if params is not None:
        if not isinstance(params, list) or len(params) != 3:
            raise SchemaError(f"params {params!r} is not a list of three exponents")
        params = new_params(*(_json_int(v, "params") for v in params))
    a = ConeTypeAutomaton(params=params, K_total=K, M=M, degree=d[0], root_type=root_type)
    # in Python ints: an int64 row sum of huge counts can wrap around
    want = [d[0] - sum(row) for row in rows]
    if r != want or min(r) < 0:
        raise SchemaError(f"predecessor vector {r} is not d - row sums {want}, or not >= 0")
    ra = reduce_automaton(a)
    if list(ra.types) != types or ra.p != p or ra.M.tolist() != MT:
        raise SchemaError("reduced block disagrees with the reduction of M")
    return a, ra
