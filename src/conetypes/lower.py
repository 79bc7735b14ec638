"""Lower bound 2*lambda/(d*sqrt(nu)) from the reduced cone-type matrix.

nu is the Perron-Frobenius eigenvalue of the sphere-recursion matrix
M~_{ij} = M_{ji}/r_i, A its positive eigenvector, and lambda the largest
eigenvalue of the symmetrization M'' of M' = D^{-1/2} M^T D^{1/2} with
D = diag(A).  The graph is bipartite and d-regular, which is what makes
the comparison argument behind the bound valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import ReducedAutomaton
from .errors import NotConverged, ZeroPredecessor

ITERATION_CAP = 1_000_000


@dataclass
class LowerBoundResult:
    nu: float
    A: np.ndarray
    lam: float
    d: int
    bound: float
    residual_nu: float
    jacobi_offnorm: float


def tilde_matrix(ra: ReducedAutomaton) -> np.ndarray:
    """Sphere recursion matrix: entry (i, j) is M_{ji} / r_i."""
    if (ra.r <= 0).any():
        bad = [t for t, rv in zip(ra.types, ra.r) if rv <= 0]
        raise ZeroPredecessor(f"types {bad} have no predecessor inside the reduced set")
    return ra.M.T.astype(float) / ra.r.astype(float)[:, None]


def perron(mat: np.ndarray, primitive: bool = True,
           residual_tol: float = 1e-12) -> tuple[float, np.ndarray, float]:
    """Power iteration; returns (eigenvalue, eigenvector with sum 1, residual)."""
    K = mat.shape[0]
    v = np.full(K, 1.0 / K)
    theta_old = np.inf
    for _ in range(ITERATION_CAP):
        nv = mat @ v
        s = nv.sum()
        if s <= 0:
            raise NotConverged("iterate left the positive cone")
        nv /= s
        theta = float(nv @ (mat @ nv) / (nv @ nv))
        v = nv
        residual = float(np.max(np.abs(mat @ v - theta * v)))
        if abs(theta - theta_old) < 1e-13 and residual < residual_tol:
            return theta, v / v.sum(), residual
        theta_old = theta
    raise NotConverged("power iteration did not settle within the cap")


def symmetrize(ra: ReducedAutomaton, A: np.ndarray) -> np.ndarray:
    """M'' = (M' + M'^T)/2 with M' = D^{-1/2} M^T D^{1/2}, D = diag(A)."""
    if not (A > 0).all():
        raise NotConverged("the Perron vector A is not positive")
    s = np.sqrt(A)
    Mp = (ra.M.T.astype(float) * s[None, :]) / s[:, None]
    return 0.5 * (Mp + Mp.T)


def _jacobi_eigenvalues(S: np.ndarray, tol: float = 1e-13) -> tuple[np.ndarray, float]:
    """Cyclic Jacobi rotations on a symmetric matrix; returns (eigenvalues, offnorm)."""
    A = S.copy()
    n = A.shape[0]
    for _ in range(100):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2)
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2 * A[p, q])
                t = np.sign(tau) / (abs(tau) + np.sqrt(1 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                A = 0.5 * (A + A.T)
    off = float(np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2))
    return np.sort(np.diag(A)), off


def lower_bound(ra: ReducedAutomaton, d: int = 3,
                residual_tol: float = 1e-12) -> LowerBoundResult:
    """2*lambda/(d*sqrt(nu)) for the d-regular bipartite Cayley graph."""
    tilde = tilde_matrix(ra)
    nu, A, residual = perron(tilde, primitive=True, residual_tol=residual_tol)
    S = symmetrize(ra, A)
    eigs, off = _jacobi_eigenvalues(S)
    lam = float(eigs[-1])
    bound = 2.0 * lam / (d * np.sqrt(nu))
    return LowerBoundResult(
        nu=nu, A=A, lam=lam, d=d, bound=bound,
        residual_nu=residual, jacobi_offnorm=off,
    )
