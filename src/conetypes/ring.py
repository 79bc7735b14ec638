"""Exact integer arithmetic in the field Q(2cos(pi/k1), ..., 2cos(pi/kr)).

The geometric reflections of a triangle group act on roots and covectors
through the numbers 2cos(pi/k) for the finite rotation orders k of the
presentation.  Elements are stored as int64 coefficient vectors over a
tensor product of Chebyshev bases whose dimension equals the degree of the
field, so a coefficient vector is zero exactly when its number is: equality
of group elements and of roots is exact equality of vectors, and no
floating tolerance enters vertex identification.  CosineRing is the only
module that knows this layout.  Its one product, add_times_2cos, adds
x * 2cos(pi/k) on one factor axis, and its one float read, signs, gives a
sign only outside the error of the basis values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import IdentificationAmbiguity


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, ascending coefficients: x^n - 1 divided by Phi_d for d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic(d)
            q = [0] * (len(num) - len(den) + 1)
            for i in range(len(q) - 1, -1, -1):
                q[i] = num[i + len(den) - 1]
                for j, c in enumerate(den):
                    num[i + j] -= q[i] * c
            num = q
    return tuple(num)


@lru_cache(maxsize=None)
def minpoly_2cos(k: int) -> tuple[int, ...]:
    """Monic minimal polynomial of 2cos(pi/k) over Q, ascending coefficients.

    2cos(pi/k) = z + 1/z with z = exp(i pi/k), a root of Phi_2k, which is
    palindromic of degree 2d.  So x^-d Phi_2k(x) = c_d + sum_j c_(d+j) D_j
    with D_j = x^j + x^-j a polynomial in y = x + 1/x: D_0 = 2, D_1 = y,
    D_(j+1) = y D_j - D_(j-1).
    """
    c = _cyclotomic(2 * k)
    d = (len(c) - 1) // 2
    out = [c[d]] + [0] * d
    prev, cur = [2], [0, 1]
    for j in range(1, d + 1):
        for i, a in enumerate(cur):
            out[i] += c[d + j] * a
        nxt = [0] + cur
        for i, a in enumerate(prev):
            nxt[i] -= a
        prev, cur = cur, nxt
    return tuple(out)


def _field_degree(orders) -> int:
    """Degree over Q of the field generated by the 2cos(pi/k), k in orders.

    The field lies in Q(zeta_2L), L = lcm, where the unit a mod 2L sends
    2cos(pi/k) to 2cos(a pi/k).  So the field is fixed by the units with
    a = +-1 mod 2k for every k, and its degree is phi(2L) over their number.
    """
    n = 2 * math.lcm(*orders, 1)
    a = np.arange(n)
    units = np.gcd(a, n) == 1
    fixing = units.copy()
    for k in orders:
        fixing &= (a % (2 * k) == 1) | (a % (2 * k) == 2 * k - 1)
    return int(units.sum()) // int(fixing.sum())


def _field_factors(orders) -> list[int]:
    """Orders whose bases tensor to the field of all the 2cos(pi/k).

    Q(2cos(pi/a)) and Q(2cos(pi/b)) meet in Q(2cos(pi/g)), g = gcd(a, b),
    and for g >= 2 their compositum is Q(2cos(pi/lcm)): a unit that is 1
    mod 2a and -1 mod 2b would be 1 = -1 mod 2g.  So two orders with
    g >= 4, whose tensor product counts Q(2cos(pi/g)) twice, merge into
    their lcm; an order dividing another merges into it.  Orders 2 and 3
    have rational cosines and no factor.
    """
    ks = {k for k in orders if k >= 4}
    while pair := next((p for p in combinations(sorted(ks), 2) if math.gcd(*p) >= 4), None):
        ks = ks - set(pair) | {math.lcm(*pair)}
    return sorted(ks)


class CosineRing:
    """Arithmetic in the field of several 2cos(pi/k), on Chebyshev bases.

    Factor f, with y = 2cos(pi/f) of degree d, has the basis 1, D_1, ...,
    D_(d-1), D_j = 2cos(j pi/f) = D_j(y) (D_0 = 2, D_(j+1) = y D_j - D_(j-1)):
    the lattice of the powers of y, but y D_j = D_(j+1) + D_(j-1) keeps the
    matrices small where the minimal polynomial of y does not (coefficients
    up to 4e12 for f = 240).  D_d follows from x^-d Phi_2f(x) = 0 at
    x = exp(i pi/f), and 2cos(pi/k) = D_(f/k) for k dividing f.
    """

    def __init__(self, orders):
        orders = list(orders)
        self.factors = _field_factors(orders)
        self.degrees = []
        y_mul = []
        values = np.ones(1)
        for f in self.factors:
            c = _cyclotomic(2 * f)
            d = (len(c) - 1) // 2
            # D_0 .. D_d in the basis; row j of y_mul is y times element j
            D = np.vstack([2 * np.eye(1, d, dtype=np.int64), np.eye(d, dtype=np.int64)[1:],
                           -np.array([c[d:2 * d]], dtype=np.int64)])
            y_mul.append(D[1:].copy())
            y_mul[-1][1:] += D[:d - 1]
            self.degrees.append(d)
            cosines = np.append(1.0, 2 * np.cos(np.pi * np.arange(1, d) / f))
            values = np.multiply.outer(values, cosines).ravel()
        self.dim = int(np.prod(self.degrees)) if self.degrees else 1
        self.basis_values = values
        # a basis value 2cos(j pi/f), j < f/2, errs by less than (1.5 f + 2)
        # eps relatively, so the float sum of a row times the basis values
        # errs by less than (dim + 2 sum(factors) + 8) eps times the sum of
        # the absolute terms; signs refuses a value within twice that
        self._sign_error = 2 * (self.dim + 2 * sum(self.factors) + 8) * np.finfo(float).eps
        # 2cos(pi/k) = D_(f/k) of the first factor f that k divides, as its
        # d x d matrix on rows, and the size of the factors after f
        self._factor_mul = {}
        for k in {k for k in orders if k >= 4}:
            idx = next(i for i, f in enumerate(self.factors) if f % k == 0)
            x = y_mul[idx]
            prev, cur = 2 * np.eye(len(x), dtype=np.int64), x
            for _ in range(1, self.factors[idx] // k):
                prev, cur = cur, x @ cur - prev
            self._factor_mul[k] = (cur, math.prod(self.degrees[idx + 1:]))
        degree = _field_degree(orders)
        if self.dim != degree:
            raise IdentificationAmbiguity(
                f"ring of dimension {self.dim} for a field of degree {degree}: "
                "coefficient vectors would not identify numbers"
            )

    def one(self) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[0] = 1
        return e

    def add_times_2cos(self, k: int, x: np.ndarray, out: np.ndarray) -> None:
        """out += x * 2cos(pi/k), for coefficient rows x and out of shape [n, dim].

        2cos(pi/2) = 0 adds nothing and 2cos(pi/3) = 1 adds x.  Any other
        2cos(pi/k) lies in one factor; its small Chebyshev matrix acts on that
        factor's axis of x, seen as [n, before, d, after], and the identity
        on the factors before and after it.
        """
        if k == 2:
            return
        if k == 3:
            out += x
            return
        X, after = self._factor_mul[k]
        # a last factor's axis is contiguous: one flat [rows, d] product,
        # which numpy runs faster than a stack of [d, 1] ones
        if after == 1:
            prod = x.reshape(-1, len(X)) @ X
        else:
            prod = X.T @ x.reshape(-1, len(X), after)
        out += prod.reshape(out.shape)

    def signs(self, x: np.ndarray) -> list[int | None]:
        """Signs of the field elements with coefficient rows x; zero is exact.

        A nonzero element whose float value lies within twice the error
        bound of its float sum (see __init__) has the sign None: the caller
        raises IdentificationAmbiguity if it reads it.
        """
        value, size = x @ self.basis_values, np.abs(x) @ np.abs(self.basis_values)
        zero = ~x.any(axis=1)
        unsure = (np.abs(value) <= self._sign_error * size) & ~zero
        sign = np.where(zero, 0, np.where(value > 0, 1, -1))
        return [None if u else g for g, u in zip(sign.tolist(), unsure.tolist())]
