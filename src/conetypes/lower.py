"""Lower bound 2*lambda/(d*sqrt(nu)) from the reduced cone-type matrix.

nu is the Perron-Frobenius eigenvalue of the sphere-recursion matrix
M~_{ij} = M_{ji}/r_i, A its positive eigenvector, and lambda the largest
eigenvalue of the symmetrization M'' of M' = D^{-1/2} M^T D^{1/2} with
D = diag(A).  The graph is bipartite and d-regular, which is what makes
the comparison argument behind the bound valid; d is the automaton's
degree.

Both Perron roots come from repeated squaring, not from a dense
eigensolve: M~ and M'' are nonnegative and primitive, so mat^(2^k), rescaled
by its largest entry, tends to the rank-one v w^T, and its row sums give
the Perron vector v.  Squaring only adds and multiplies nonnegative
numbers, so every entry of v stays accurate relative to itself, however
small; at large exponents the entries of A fall below 1e-16 of the largest
along the chain of types, which a dense eigensolve loses to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import ReducedAutomaton
from .errors import NotConverged, ZeroPredecessor

# largest accepted eigenpair residual max|mat v - theta v|
EIGEN_TOL = 1e-12
# The squaring schedule.  After k squarings the error is |mu/theta|^(2^k),
# mu the second eigenvalue of mat.  On the 1,305 hyperbolic triples with
# max <= 20 and the 28 committed automata, nu converges after 6-8
# squarings and lambda after 6-9.  A residual check costs about two
# squarings on such small matrices, so the first check follows the 8th
# squaring: over the committed automata, first checks after the 7th and
# the 8th took the least time of 6-10, and by the 8th every nu has
# converged.  The loop gives up after mat^(2^64).
FIRST_CHECK = 8
SQUARING_CAP = 64


@dataclass
class LowerBoundResult:
    """bound = 2 lam/(d sqrt(nu)), with the residuals of both eigenpairs."""

    nu: float
    lam: float
    bound: float
    residual_nu: float
    residual_lam: float


def tilde_matrix(ra: ReducedAutomaton) -> np.ndarray:
    """Sphere recursion matrix: entry (i, j) is M_{ji} / r_i."""
    r = ra.r
    if (r <= 0).any():
        bad = [t for t, rv in zip(ra.types, r) if rv <= 0]
        raise ZeroPredecessor(f"types {bad} have no predecessor inside the reduced set")
    return ra.M.T / r[:, None]


def _squared_power(mat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(theta, v, max|mat v - theta v|) by repeated squaring of mat >= 0.

    P = mat / max(mat) is squared and rescaled by its largest entry, so it
    tends to v w^T: v is P 1 scaled to sum 1, w = 1^T P, and theta is the
    two-sided Rayleigh quotient w mat v / w v, whose error is second order
    in those of v and w; all three are sums of nonnegative terms.  The loop
    stops at the first checked squaring (see FIRST_CHECK) whose residual is
    below EIGEN_TOL / sqrt(K), or after SQUARING_CAP; it raises nothing.  As
    ||v||_2 >= 1/sqrt(K), that residual stays below EIGEN_TOL with v scaled
    to unit 2-norm too.  Nothing is subtracted, so v >= 0 entry by entry.
    """
    tol = EIGEN_TOL / np.sqrt(mat.shape[0])
    P = mat / mat.max()
    for k in range(1, SQUARING_CAP + 1):
        P = P @ P
        P /= P.max()
        if k >= FIRST_CHECK:
            v, w = P.sum(axis=1), P.sum(axis=0)
            v /= v.sum()
            mv = mat @ v
            theta = float(w @ mv / (w @ v))
            residual = float(abs(mv - theta * v).max())
            if residual < tol:
                break
    return theta, v, residual


def perron(mat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Perron eigenpair of a nonnegative primitive matrix, by repeated squaring.

    Returns (eigenvalue, eigenvector with sum 1, max|mat v - theta v|).  A
    vector with an entry <= 0 (a reducible matrix, or an underflow) raises
    NotConverged, as does a residual not below EIGEN_TOL, which is what an
    imprimitive matrix leaves: its squared powers never become rank one.
    """
    theta, v, residual = _squared_power(mat)
    if not (v > 0).all():
        raise NotConverged("the Perron vector is not positive")
    if not residual < EIGEN_TOL:
        raise NotConverged(f"Perron residual {residual} is not below {EIGEN_TOL}")
    return theta, v, residual


def symmetrize(ra: ReducedAutomaton, A: np.ndarray) -> np.ndarray:
    """M'' = (M' + M'^T)/2 with M' = D^{-1/2} M^T D^{1/2}, D = diag(A)."""
    if not (A > 0).all():
        raise NotConverged("the Perron vector A is not positive")
    s = np.sqrt(A)
    Mp = ra.M.T * s[None, :] / s[:, None]
    return 0.5 * (Mp + Mp.T)


def lower_bound(ra: ReducedAutomaton) -> LowerBoundResult:
    """2*lambda/(d*sqrt(nu)) for the d-regular bipartite Cayley graph, d = ra.degree.

    nu and A come from perron on M~; lambda from the same squaring on M'',
    with its residual measured on the eigenvector scaled to unit 2-norm.
    Either residual at or above EIGEN_TOL, or A not positive, raises
    NotConverged.
    """
    nu, A, residual_nu = perron(tilde_matrix(ra))
    S = symmetrize(ra, A)
    lam, v, _ = _squared_power(S)
    v = v / np.sqrt(v @ v)
    residual_lam = float(abs(S @ v - lam * v).max())
    if not residual_lam < EIGEN_TOL:
        raise NotConverged(f"lambda residual {residual_lam} is not below {EIGEN_TOL}")
    return LowerBoundResult(nu=nu, lam=lam, bound=2.0 * lam / (ra.degree * np.sqrt(nu)),
                            residual_nu=residual_nu, residual_lam=residual_lam)
