"""Lower bound 2*lambda/(d*sqrt(nu)) from the reduced cone-type matrix.

nu is the Perron-Frobenius eigenvalue of the sphere-recursion matrix
M~_{ij} = M_{ji}/r_i, A its positive eigenvector, and lambda the largest
eigenvalue of the symmetrization M'' of M' = D^{-1/2} M^T D^{1/2} with
D = diag(A).  The graph is bipartite and d-regular, which is what makes
the comparison argument behind the bound valid; d is the automaton's
degree.

Both Perron roots come from perron, by repeated squaring, not from a
dense eigensolve: M~ and M'' are nonnegative and primitive, so mat^(2^k),
rescaled by its largest entry, tends to the rank-one v w^T, and its row
sums give the Perron vector v.  Squaring only adds and multiplies
nonnegative numbers, so every entry of v can be accurate relative to
itself, however small; at large exponents the entries of A fall below
1e-16 of the largest along the chain of types, which a dense eigensolve
loses to cancellation.  One rule accepts both eigenpairs, and it checks
that accuracy: v > 0 and every entry's relative residual
|(mat v)_i - theta v_i| / v_i below EIGEN_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import ReducedAutomaton
from .errors import NotConverged, ZeroPredecessor

# largest accepted relative residual max_i |(mat v)_i - theta v_i| / v_i
EIGEN_TOL = 1e-12
# The squaring schedule.  After k squarings the error is |mu/theta|^(2^k),
# mu the second eigenvalue of mat, and mat^(2^k) has a zero entry while
# 2^k is below the primitivity exponent p.  On the 1,305 hyperbolic
# triples with max <= 20, perron accepts nu at the 8th squaring, and
# lambda at the 8th on 1,180 of them and at the 9th on 125, (2,3,7) among
# them; on the 28 committed automata only (2,3,7) needs a 9th.  Past
# p = 256, as on (2,3,n) with n >= 250, (3,3,260), (2,4,260) and
# (300,300,300), each takes 8-10.  A residual check costs about two
# squarings on such small matrices, so the first check follows the 8th
# squaring: over the committed automata, first checks after the 7th and
# the 8th took the least time of 6-10.  The loop gives up after mat^(2^64).
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


def perron(mat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Perron eigenpair of a nonnegative primitive matrix, by repeated squaring.

    Returns (theta, v, residual): v sums to 1 and residual is the largest
    relative residual max_i |(mat v)_i - theta v_i| / v_i.  P = mat / max(mat)
    is squared and rescaled by its largest entry, so it tends to v w^T: v is
    P 1, w = 1^T P, and theta is the two-sided Rayleigh quotient
    w mat v / w v, whose error is second order in those of v and w.  The
    first checked squaring (see FIRST_CHECK) whose v is positive and whose
    residual is below EIGEN_TOL is accepted, so every entry of v is checked
    against itself, however small.  If no check passes by SQUARING_CAP, a
    last v with an entry <= 0 (a reducible matrix, or an underflow) raises
    NotConverged, as does a residual not below EIGEN_TOL, which is what an
    imprimitive matrix leaves: its squared powers never become rank one.
    """
    P = mat / mat.max()
    for k in range(1, SQUARING_CAP + 1):
        P = P @ P
        P /= P.max()
        if k < FIRST_CHECK:
            continue
        v, w = P.sum(axis=1), P.sum(axis=0)
        v /= v.sum()
        if (v > 0).all():
            mv = mat @ v
            theta = float(w @ mv / (w @ v))
            residual = float((abs(mv - theta * v) / v).max())
            if residual < EIGEN_TOL:
                return theta, v, residual
    raise NotConverged("the Perron vector is not positive" if not (v > 0).all()
                       else f"Perron residual {residual} is not below {EIGEN_TOL}")


def symmetrize(ra: ReducedAutomaton, A: np.ndarray) -> np.ndarray:
    """M'' = (M' + M'^T)/2 with M' = D^{-1/2} M^T D^{1/2}, D = diag(A)."""
    if not (A > 0).all():
        raise NotConverged("the Perron vector A is not positive")
    s = np.sqrt(A)
    Mp = ra.M.T * s[None, :] / s[:, None]
    return 0.5 * (Mp + Mp.T)


def lower_bound(ra: ReducedAutomaton) -> LowerBoundResult:
    """2*lambda/(d*sqrt(nu)) for the d-regular bipartite Cayley graph, d = ra.degree.

    nu and A come from perron on M~, lambda from perron on M''.  perron's
    one rule accepts each pair: v > 0 and every entry's relative residual
    below EIGEN_TOL.  A refused pair raises NotConverged, whose message
    starts with "lambda residual" for M''.
    """
    nu, A, residual_nu = perron(tilde_matrix(ra))
    try:
        lam, _, residual_lam = perron(symmetrize(ra, A))
    except NotConverged as exc:
        raise NotConverged(f"lambda residual: {exc}") from None
    return LowerBoundResult(nu=nu, lam=lam, bound=2.0 * lam / (ra.degree * np.sqrt(nu)),
                            residual_nu=residual_nu, residual_lam=residual_lam)
