"""Exact n-step return probabilities of the simple random walk on a ball.

A walk that returns to the base point at step k never goes beyond distance
k/2, so counting walks inside a ball of radius R gives the exact
infinite-graph return probabilities for every k <= 2R.  Walks are counted
in integers, so every p^(k) is an exact Fraction, and each even-step value
p^(2n)^(1/2n) is a rigorous lower bound for the spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coxeter import CayleyBall
from .errors import HorizonExceedsBall


@dataclass
class ReturnSeries:
    n_max: int
    values: list

    def envelope_sequence(self) -> list[float]:
        """e_n = p^(2n) ** (1/(2n)) for 2n <= n_max."""
        out = []
        for n in range(1, self.n_max // 2 + 1):
            out.append(float(self.values[2 * n]) ** (1.0 / (2 * n)))
        return out


def return_probabilities(ball: CayleyBall, n_max: int) -> ReturnSeries:
    """p^(k)(x0, x0) for k = 0..n_max as exact Fractions.

    The walks of length k ending at each vertex are counted as integers,
    and p^(k) = count / 3^k.  The counts are int64 while 3^n_max < 2^63
    bounds them, Python integers beyond that.
    """
    dtype = np.int64 if 3 ** n_max < 2 ** 63 else object
    if n_max > 2 * ball.radius:
        raise HorizonExceedsBall(
            f"horizon {n_max} exceeds twice the ball radius {ball.radius}"
        )
    V = ball.n_vertices
    # a missing neighbour reads the always-zero entry at index V
    nbr = ball.neighbor_table()
    n0, n1, n2 = np.ascontiguousarray(np.where(nbr >= 0, nbr, V).T)
    vec = np.zeros(V + 1, dtype=dtype)
    vec[0] = 1
    values: list = [Fraction(1)]
    for k in range(1, n_max + 1):
        # the count at w is the sum over its neighbours (the graph is undirected)
        vec[:V] = vec[n0] + vec[n1] + vec[n2]
        values.append(Fraction(int(vec[0]), 3 ** k))
    return ReturnSeries(n_max=n_max, values=values)


def empirical_envelope(rs: ReturnSeries) -> float:
    """max_n p^(2n)^(1/2n), a lower bound for the spectral radius."""
    seq = rs.envelope_sequence()
    return max(seq) if seq else 0.0

