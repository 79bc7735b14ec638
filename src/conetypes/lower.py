"""Lower bound 2*lambda/(d*sqrt(nu)) from the reduced cone-type matrix.

nu is the Perron-Frobenius eigenvalue of the sphere-recursion matrix
M~_{ij} = M_{ji}/r_i, A its positive eigenvector, and lambda the largest
eigenvalue of the symmetrization M'' of M' = D^{-1/2} M^T D^{1/2} with
D = diag(A).  The graph is bipartite and d-regular, which is what makes
the comparison argument behind the bound valid; d is the automaton's
degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import ReducedAutomaton
from .errors import NotConverged, ZeroPredecessor

# largest accepted eigenpair residual max|mat v - theta v|
EIGEN_TOL = 1e-12


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
    if (ra.r <= 0).any():
        bad = [t for t, rv in zip(ra.types, ra.r) if rv <= 0]
        raise ZeroPredecessor(f"types {bad} have no predecessor inside the reduced set")
    return ra.M.T.astype(float) / ra.r.astype(float)[:, None]


def perron(mat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Perron eigenpair from a dense eigensolve.

    Returns (eigenvalue, eigenvector with sum 1, max|mat v - theta v|).  The
    Perron root of a nonnegative irreducible matrix is its eigenvalue of
    largest real part.
    """
    vals, vecs = np.linalg.eig(mat)
    k = int(np.argmax(vals.real))
    theta = float(vals[k].real)
    v = vecs[:, k].real
    v = v / v.sum()
    if not (v > 0).all():
        raise NotConverged("the Perron vector is not positive")
    residual = float(np.max(np.abs(mat @ v - theta * v)))
    if not residual < EIGEN_TOL:
        raise NotConverged(f"Perron residual {residual} is not below {EIGEN_TOL}")
    return theta, v, residual


def symmetrize(ra: ReducedAutomaton, A: np.ndarray) -> np.ndarray:
    """M'' = (M' + M'^T)/2 with M' = D^{-1/2} M^T D^{1/2}, D = diag(A)."""
    if not (A > 0).all():
        raise NotConverged("the Perron vector A is not positive")
    s = np.sqrt(A)
    Mp = (ra.M.T.astype(float) * s[None, :]) / s[:, None]
    return 0.5 * (Mp + Mp.T)


def lower_bound(ra: ReducedAutomaton) -> LowerBoundResult:
    """2*lambda/(d*sqrt(nu)) for the d-regular bipartite Cayley graph, d = ra.degree.

    Both eigenpairs must have residual below EIGEN_TOL, else NotConverged.
    """
    nu, A, residual_nu = perron(tilde_matrix(ra))
    S = symmetrize(ra, A)
    vals, vecs = np.linalg.eigh(S)
    lam, v = float(vals[-1]), vecs[:, -1]
    residual_lam = float(np.max(np.abs(S @ v - lam * v)))
    if not residual_lam < EIGEN_TOL:
        raise NotConverged(f"lambda residual {residual_lam} is not below {EIGEN_TOL}")
    return LowerBoundResult(nu=nu, lam=lam, bound=2.0 * lam / (ra.degree * np.sqrt(nu)),
                            residual_nu=residual_nu, residual_lam=residual_lam)
