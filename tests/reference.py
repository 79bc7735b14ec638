"""Independent references for the tests: the word problem and float reflections.

These work from the presentation alone (braid moves and free cancellation)
or in floating point, so they check the exact ring-coordinate Cayley balls
of the library without sharing any of its code.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from conetypes import GroupParams


class WordCapExceeded(Exception):
    """Word-problem oracle called beyond its configured length cap."""


@dataclass(frozen=True)
class ReflectionRep:
    """Geometric representation: sigma_s = I - 2 e_s (B e_s)^T."""

    sigma: tuple[np.ndarray, np.ndarray, np.ndarray]
    gram: np.ndarray


def reflection_rep(params: GroupParams) -> ReflectionRep:
    orders = params.orders()
    B = np.eye(3)
    for (s, t), k in orders.items():
        B[s, t] = -np.cos(np.pi / k)
    sigmas = []
    for s in range(3):
        e = np.zeros(3)
        e[s] = 1.0
        sigmas.append(np.eye(3) - 2.0 * np.outer(e, B @ e))
    return ReflectionRep(sigma=tuple(sigmas), gram=B)


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent equal letters (the involutions s^2 = e)."""
    out: list[int] = []
    for g in word:
        if out and out[-1] == int(g):
            out.pop()
        else:
            out.append(int(g))
    return tuple(out)


def _braid_run(a: int, b: int, length: int) -> tuple[int, ...]:
    return tuple(a if i % 2 == 0 else b for i in range(length))


@lru_cache(maxsize=65536)
def geodesic_closure(triple: tuple[int, int, int], word: tuple[int, ...]) -> frozenset:
    """All geodesic words of the element, via braid moves plus cancellation."""
    orders = GroupParams(*triple).orders()
    current = free_reduce(word)
    while True:
        seen = {current}
        queue = [current]
        shorter = None
        while queue and shorter is None:
            w = queue.pop()
            for i in range(len(w)):
                for j in range(3):
                    a = w[i]
                    if j == a:
                        continue
                    k = orders[(a, j)]
                    if i + k > len(w) or w[i:i + k] != _braid_run(a, j, k):
                        continue
                    v = w[:i] + _braid_run(j, a, k) + w[i + k:]
                    r = free_reduce(v)
                    if len(r) < len(v):
                        shorter = r
                        break
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
                if shorter is not None:
                    break
        if shorter is None:
            return frozenset(seen)
        current = shorter


def tits_equal(params: GroupParams, w1, w2, cap: int = 24) -> bool:
    """Exact word-problem oracle by exhaustive braid-move closure."""
    w1 = tuple(int(g) for g in w1)
    w2 = tuple(int(g) for g in w2)
    if len(w1) + len(w2) > cap:
        raise WordCapExceeded(f"total word length {len(w1) + len(w2)} exceeds cap {cap}")
    c1 = geodesic_closure(params.triple(), w1)
    c2 = geodesic_closure(params.triple(), w2)
    g1 = next(iter(c1))
    g2 = next(iter(c2))
    if len(g1) != len(g2):
        return False
    return min(c1) == min(c2)
