"""Exact n-step return probabilities of the simple random walk on a ball.

A walk that returns to the base point at step k never goes beyond distance
k/2, so counting walks inside a ball of radius R gives the exact
infinite-graph return probabilities for every k <= 2R.  Walks are counted
in integers, so every p^(k) is an exact Fraction, and each even-step value
p^(2n)^(1/2n) is a rigorous lower bound for the spectral radius.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .coxeter import CayleyBall
from .errors import HorizonExceedsBall


def return_probabilities(ball: CayleyBall, n_max: int) -> list[Fraction]:
    """The list of p^(k)(x0, x0) for k = 0..n_max, as exact Fractions.

    With c_k the integer counts of the k-step walks from x0 at each vertex,
    p^(2k) = sum_v c_k(v)^2 / 9^k for 2k <= n_max (the walk is symmetric), and
    p^(2k+1) = 0 (the Cayley graph is bipartite).  The counts are int64 while
    3^n_max < 2^63 bounds the sums, Python integers beyond that.
    """
    dtype = np.int64 if 3 ** n_max < 2 ** 63 else object
    if n_max > 2 * ball.radius:
        raise HorizonExceedsBall(
            f"horizon {n_max} exceeds twice the ball radius {ball.radius}"
        )
    V = ball.n_vertices
    # a missing neighbour reads the always-zero entry at index V
    n0, n1, n2 = np.ascontiguousarray(np.where(ball.nbr >= 0, ball.nbr, V).T)
    vec = np.zeros(V + 1, dtype=dtype)
    vec[0] = 1
    values: list = [Fraction(1)]
    # c_k(w) sums c_(k-1) over w's neighbours; beyond distance k, from id hi, it is 0
    for k, hi in enumerate(ball.offsets[2:n_max // 2 + 2].tolist(), 1):
        vec[:hi] = vec[n0[:hi]] + vec[n1[:hi]] + vec[n2[:hi]]
        values += [Fraction(0), Fraction(int(vec[:hi] @ vec[:hi]), 9 ** k)]
    return (values + [Fraction(0)])[:n_max + 1]


def empirical_envelope(ball: CayleyBall) -> float:
    """max_n p^(2n)^(1/2n) over the ball's whole exact range 2n <= 2R, a
    lower bound for the spectral radius."""
    p = return_probabilities(ball, 2 * ball.radius)
    return max(float(p[2 * n]) ** (1.0 / (2 * n)) for n in range(1, ball.radius + 1))
