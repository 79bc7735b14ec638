"""Exact integer arithmetic in Z[2cos(pi/k1)] x ... x Z[2cos(pi/kr)].

Entries of the geometric reflection matrices of a triangle group live in the
ring generated over Z by the numbers 2cos(pi/k) for the finite rotation
orders k of the presentation.  Elements are stored as int64 coefficient
vectors over the tensor-product power basis, so equality of group elements
is exact equality of vectors and no floating tolerance enters vertex
identification.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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


class CosineRing:
    """Power-basis arithmetic for the tensor ring of several 2cos(pi/k).

    Orders 2 and 3 have rational cosines (0 and 1) and contribute no basis
    factor; every order >= 4 contributes one factor of degree deg(minpoly).
    """

    def __init__(self, orders):
        self.factors = sorted({k for k in orders if k >= 4})
        self.degrees = []
        self.companions = []
        for k in self.factors:
            mp = minpoly_2cos(k)
            d = len(mp) - 1
            comp = np.zeros((d, d), dtype=np.int64)
            for j in range(d - 1):
                comp[j + 1, j] = 1
            comp[:, d - 1] -= np.array(mp[:d], dtype=np.int64)
            self.degrees.append(d)
            self.companions.append(comp)
        self.dim = int(np.prod(self.degrees)) if self.degrees else 1

    def _embed(self, idx: int, mat: np.ndarray) -> np.ndarray:
        """Kronecker-embed a factor-local matrix into the full basis."""
        out = np.eye(1, dtype=np.int64)
        for i, d in enumerate(self.degrees):
            block = mat if i == idx else np.eye(d, dtype=np.int64)
            out = np.kron(out, block)
        return out

    def one(self) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[0] = 1
        return e

    def mul_by_2cos(self, k: int) -> np.ndarray:
        """Matrix of multiplication by 2cos(pi/k) acting on coefficient rows.

        The companion matrix acts on coefficient columns; row vectors in the
        ascending power basis need its transpose.
        """
        if k == 2:
            return np.zeros((self.dim, self.dim), dtype=np.int64)
        if k == 3:
            return np.eye(self.dim, dtype=np.int64)
        idx = self.factors.index(k)
        return self._embed(idx, self.companions[idx].T.copy())


def reflection_tensors(orders: dict[tuple[int, int], int], ring: CosineRing) -> np.ndarray:
    """Coordinate-update tensors W for right multiplication by a generator.

    A covector y = (y_0, y_1, y_2), such as a row of a matrix P, maps under
    y -> y sigma_s to y_t + y_s * 2cos(pi/order(s,t)) in coordinate t != s,
    and coordinate s flips sign.  W[s, t] holds the corresponding [dim, dim]
    coefficient-space matrix, so the update is y_t + y_s @ W[s, t] for every
    t (W[s, s] = -2 I gives the sign flip).
    """
    dim = ring.dim
    W = np.zeros((3, 3, dim, dim), dtype=np.int64)
    for s in range(3):
        for t in range(3):
            if s == t:
                W[s, t] = -2 * np.eye(dim, dtype=np.int64)
            else:
                W[s, t] = ring.mul_by_2cos(orders[(s, t)])
    return W
