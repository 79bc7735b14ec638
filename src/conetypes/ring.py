"""Minimal polynomials of the numbers 2cos(pi/k), with integer coefficients.

No library code calls minpoly_2cos: the Cayley balls and the elementary
roots are built from the rotation orders alone.  The benchmark harness
calls it to warm up a worker and traces it as one of its layers, which is
why the module stays.
"""

from __future__ import annotations

from functools import lru_cache


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
