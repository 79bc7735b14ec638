"""Exact certification of the fold radius for small reduced automata.

The first-return system is cleared to integer polynomials, all unknowns but
one are eliminated by iterated Sylvester resultants (Bareiss determinants
over the polynomial ring), and the candidate radii are the real positive
roots of the leading coefficient and of the discriminant of the eliminated
polynomial, isolated by Sturm sequences in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import Infeasible, NoMatchingCandidate, ZeroResultant
from .upper import TreeWalkSpec

MAX_SYSTEM_SIZE = 6


def _grlex(e: tuple) -> tuple:
    return (sum(e), e)


class MultiPoly:
    """Sparse integer polynomial; terms maps exponent tuples to coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict):
        self.vars = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c: int) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): int(c)})

    @classmethod
    def var(cls, variables, name: str) -> "MultiPoly":
        i = tuple(variables).index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.vars == other.vars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return MultiPoly(self.vars, t)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return MultiPoly(self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        out = MultiPoly.const(self.vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def leading(self) -> tuple[tuple, int]:
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def degree(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def evaluate(self, point: dict):
        """Exact evaluation; point maps every variable to an int or Fraction."""
        out = Fraction(0)
        for e, c in self.terms.items():
            term = Fraction(c)
            for i, k in enumerate(e):
                if k:
                    term *= Fraction(point[self.vars[i]]) ** k
            out += term
        return out

    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        t = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                t[tuple(ne)] = t.get(tuple(ne), 0) + c * e[i]
        return MultiPoly(self.vars, t)

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g if g else 1

    def normalized(self) -> "MultiPoly":
        """Divide by content; flip sign so the graded-lex leading coefficient > 0."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading()[1] < 0:
            g = -g
        return MultiPoly(self.vars, {e: c // g for e, c in self.terms.items()})

    def strip_var_power(self, name: str) -> "MultiPoly":
        """Remove the largest common power of one variable."""
        if self.is_zero():
            return self
        i = self.vars.index(name)
        k = min(e[i] for e in self.terms)
        if k == 0:
            return self
        t = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i] -= k
            t[tuple(ne)] = c
        return MultiPoly(self.vars, t)

    def coefficients_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients of name^d, name^{d-1}, ..., name^0 as polynomials."""
        i = self.vars.index(name)
        d = self.degree(name)
        rows: list[dict] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            rows[d - k][tuple(ne)] = rows[d - k].get(tuple(ne), 0) + c
        return [MultiPoly(self.vars, r) for r in rows]

    def divide(self, g: "MultiPoly"):
        """Exact quotient if g divides self over the integers, else None."""
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ge, gc = g.leading()
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            re = max(rem, key=_grlex)
            rc = rem[re]
            de = tuple(a - b for a, b in zip(re, ge))
            if any(d < 0 for d in de) or rc % gc != 0:
                return None
            qc = rc // gc
            quot[de] = quot.get(de, 0) + qc
            for e2, c2 in g.terms.items():
                ne = tuple(a + b for a, b in zip(de, e2))
                nv = rem.get(ne, 0) - qc * c2
                if nv:
                    rem[ne] = nv
                else:
                    rem.pop(ne, None)
        return MultiPoly(self.vars, quot)

    def restricted(self, variables: tuple[str, ...]) -> "MultiPoly":
        """Project onto a subset of variables; others must not occur."""
        keep = [self.vars.index(v) for v in variables]
        drop = [i for i in range(len(self.vars)) if self.vars[i] not in variables]
        t = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                raise Infeasible("a variable in use cannot be dropped")
            t[tuple(e[i] for i in keep)] = c
        return MultiPoly(variables, t)

    def univariate_coefficients(self, name: str) -> list[int]:
        """Ascending integer coefficients; all other variables must be absent."""
        i = self.vars.index(name)
        out = [0] * (self.degree(name) + 1)
        for e, c in self.terms.items():
            if any(k for j, k in enumerate(e) if j != i):
                raise Infeasible(f"polynomial is not univariate in {name}")
            out[e[i]] = c
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
            c = self.terms[e]
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


@dataclass
class RootInterval:
    lo: Fraction
    hi: Fraction
    source: str = ""

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return float(self.lo) - tol <= x <= float(self.hi) + tol


@dataclass
class UnivariateCandidateSet:
    eliminated: MultiPoly
    a0: MultiPoly
    disc: MultiPoly
    roots: list[RootInterval] = field(default_factory=list)


@dataclass
class CertificateReport:
    matched: RootInterval
    source: str
    candidates: list[RootInterval]


def system_polynomials(spec: TreeWalkSpec) -> list[MultiPoly]:
    """Integer polynomials d_i w_i - r_i z - z sum_j M_ij w_i w_j."""
    names = tuple(f"w{t}" for t in spec.types) + ("z",)
    K = len(spec.types)
    z = MultiPoly.var(names, "z")
    w = [MultiPoly.var(names, f"w{t}") for t in spec.types]
    out = []
    for i in range(K):
        p = int(spec.d[i]) * w[i] - int(spec.r[i]) * z
        for j in range(K):
            mij = int(spec.M[i, j])
            if mij:
                p = p - mij * (z * w[i] * w[j])
        out.append(p)
    return out


def _bareiss_det(mat: list[list[MultiPoly]], variables) -> MultiPoly:
    """Fraction-free determinant; every division is exact by construction."""
    n = len(mat)
    if n == 0:
        return MultiPoly.const(variables, 1)
    m = [row[:] for row in mat]
    sign = 1
    prev = MultiPoly.const(variables, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(variables)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q = num.divide(prev)
                if q is None:
                    raise Infeasible("Bareiss division is not exact")
                m[i][j] = q
            m[i][k] = MultiPoly.zero(variables)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Sylvester resultant eliminating one variable."""
    dp, dq = p.degree(name), q.degree(name)
    if dp < 0 or dq < 0:
        return MultiPoly.zero(p.vars)
    if dp == 0:
        return p ** dq
    if dq == 0:
        return q ** dp
    pc = p.coefficients_in(name)
    qc = q.coefficients_in(name)
    n = dp + dq
    zero = MultiPoly.zero(p.vars)
    mat = [[zero] * n for _ in range(n)]
    for i in range(dq):
        for j, c in enumerate(pc):
            mat[i][i + j] = c
    for i in range(dp):
        for j, c in enumerate(qc):
            mat[dq + i][i + j] = c
    return _bareiss_det(mat, p.vars)


def _poly_sort_key(p: MultiPoly, name: str):
    return (p.degree(name), len(p.terms), sorted(p.terms, key=_grlex))


def _eliminate_once(system: list[MultiPoly], order: list[str]) -> list[MultiPoly]:
    polys = list(system)
    for name in order:
        having = [p for p in polys if p.degree(name) > 0]
        rest = [p for p in polys if p.degree(name) <= 0 and not p.is_zero()]
        if not having:
            polys = rest
            continue
        pivot = min(having, key=lambda p: _poly_sort_key(p, name))
        new = []
        for q in having:
            if q is pivot:
                continue
            r = resultant(pivot, q, name).normalized().strip_var_power("z")
            r = r.normalized()
            if r.is_zero():
                raise ZeroResultant(f"resultant vanished while eliminating {name}")
            new.append(r)
        polys = rest + new
    return polys


def eliminate(system: list[MultiPoly], keep: str) -> MultiPoly:
    """Eliminate every w-variable except `keep`; result lives in (keep, z)."""
    if not system:
        raise Infeasible("empty system")
    names = system[0].vars
    wnames = [v for v in names if v != "z"]
    if len(wnames) > MAX_SYSTEM_SIZE:
        raise Infeasible(
            f"{len(wnames)} unknowns exceed the exact-elimination guard "
            f"({MAX_SYSTEM_SIZE})"
        )
    if keep not in wnames:
        raise Infeasible(f"unknown variable to keep: {keep}")
    elim = [v for v in wnames if v != keep]
    # fewest-occurrences-first default order, then bounded retries over permutations
    occ = {v: sum(1 for p in system if p.degree(v) > 0) for v in elim}
    base = sorted(elim, key=lambda v: (occ[v], v))
    orders = [base]
    for perm in itertools.permutations(base):
        if list(perm) != base:
            orders.append(list(perm))
        if len(orders) >= 24:
            break
    last_err = None
    for order in orders:
        try:
            polys = _eliminate_once(system, order)
        except ZeroResultant as exc:
            last_err = exc
            continue
        finals = [p for p in polys if not p.is_zero()]
        withkeep = [p for p in finals if p.degree(keep) > 0]
        if withkeep:
            best = min(withkeep, key=lambda p: _poly_sort_key(p, keep))
            return best.restricted((keep, "z")).normalized()
    raise last_err if last_err else ZeroResultant("no nonzero eliminant found")


def discriminant(p: MultiPoly, name: str) -> MultiPoly:
    """Res(p, dp/dvar) divided by the leading coefficient, content-normalized."""
    res = resultant(p, p.derivative(name), name)
    lc = p.coefficients_in(name)[0]
    q = res.divide(lc)
    if q is None:
        # divide primitive parts instead; exact up to the integer scalar allowed
        q = res.normalized().divide(lc.normalized())
        if q is None:
            raise Infeasible("discriminant division is not exact")
    return q.normalized()


# ---------------------------------------------------------------------------
# univariate real-root isolation (exact rational Sturm sequences)

def _uni_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_eval(c: list[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for a in reversed(c):
        out = out * x + a
    return out


def _uni_deriv(c: list[Fraction]) -> list[Fraction]:
    return [i * a for i, a in enumerate(c)][1:]


def _uni_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = a[:]
    while len(r) >= len(b) and _uni_trim(r):
        k = len(r) - len(b)
        f = r[-1] / b[-1]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
        _uni_trim(r)
    return r


def _uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _uni_trim(a[:]), _uni_trim(b[:])
    while b:
        a, b = b, _uni_trim(_uni_rem(a, b))
    return a


def _squarefree(coeffs: list[int]) -> list[Fraction]:
    c = _uni_trim([Fraction(x) for x in coeffs])
    if len(c) <= 1:
        return c
    g = _uni_gcd(c, _uni_deriv(c))
    if len(g) <= 1:
        return c
    # exact division by the gcd
    q: list[Fraction] = []
    r = c[:]
    while len(r) >= len(g):
        k = len(r) - len(g)
        f = r[-1] / g[-1]
        q.append(f)
        for i, a in enumerate(g):
            r[k + i] -= f * a
        r.pop()
    q.reverse()
    return _uni_trim(q)


def _sturm_chain(c: list[Fraction]) -> list[list[Fraction]]:
    chain = [c[:], _uni_deriv(c)]
    while len(chain[-1]) > 1:
        r = _uni_rem(chain[-2], chain[-1])
        r = [-x for x in r]
        if not _uni_trim(r):
            break
        chain.append(r)
    return [p for p in chain if p]


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _uni_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_positive_roots(p: MultiPoly, width=Fraction(1, 10 ** 12)) -> list[RootInterval]:
    """Isolating rational intervals for the positive real roots of p."""
    if p.is_zero():
        return []
    name = next((v for v in p.vars if p.degree(v) > 0), None)
    if name is None:
        return []
    coeffs = p.univariate_coefficients(name)
    sf = _squarefree(coeffs)
    if len(sf) <= 1:
        return []
    chain = _sturm_chain(sf)
    bound = Fraction(1) + max(abs(a / sf[-1]) for a in sf[:-1])
    out: list[RootInterval] = []
    # Sturm counts roots in the half-open interval (a, b]
    stack = [(Fraction(0), bound,
              _sign_changes(chain, Fraction(0)) - _sign_changes(chain, bound))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1 and hi - lo <= width:
            out.append(RootInterval(lo=lo, hi=hi))
            continue
        mid = (lo + hi) / 2
        if _uni_eval(sf, mid) == 0:
            # splitting at a root would double-count it at the hi endpoint of
            # the left piece; shift among deg+1 candidates, one must be free
            span = hi - lo
            for k in range(3, len(sf) + 4):
                cand = lo + span / k
                if _uni_eval(sf, cand) != 0:
                    mid = cand
                    break
        smid = _sign_changes(chain, mid)
        stack.append((lo, mid, _sign_changes(chain, lo) - smid))
        stack.append((mid, hi, smid - _sign_changes(chain, hi)))
    out.sort(key=lambda r: r.lo)
    return out


def candidate_set(spec: TreeWalkSpec, keep: str | None = None) -> UnivariateCandidateSet:
    """Eliminate to one unknown; candidates are roots of a0 and the discriminant."""
    if keep is None:
        # keep the variable of the root type's successor when unique, else its own
        succ = [j for j in range(len(spec.types)) if spec.root_row[j] > 0]
        target = spec.types[succ[0]] if len(succ) == 1 else spec.root_type
        keep = f"w{target}"
    system = system_polynomials(spec)
    elim = eliminate(system, keep)
    a0 = elim.coefficients_in(keep)[0].restricted(("z",)).normalized()
    disc = discriminant(elim, keep).restricted(("z",)).normalized()
    roots = []
    for r in real_positive_roots(a0):
        roots.append(RootInterval(lo=r.lo, hi=r.hi, source="a0"))
    for r in real_positive_roots(disc):
        roots.append(RootInterval(lo=r.lo, hi=r.hi, source="discriminant"))
    roots.sort(key=lambda r: (r.lo, r.source))
    return UnivariateCandidateSet(eliminated=elim, a0=a0, disc=disc, roots=roots)


def certify(numeric_RF: float, cs: UnivariateCandidateSet,
            tol: float = 1e-9) -> CertificateReport:
    """Match the numeric fold radius against the isolated candidate roots."""
    for r in cs.roots:
        if r.contains(numeric_RF, tol):
            return CertificateReport(matched=r, source=r.source, candidates=cs.roots)
    raise NoMatchingCandidate(
        f"{numeric_RF} lies in none of {len(cs.roots)} candidate intervals"
    )


def poly_to_coeff_list(p: MultiPoly) -> list[list[int]]:
    """JSON-friendly [exponents..., coefficient] rows in graded-lex order."""
    return [[*e, p.terms[e]] for e in sorted(p.terms, key=_grlex)]
