"""Upper bound on the spectral radius via the walk on the tree of geodesics.

The nearest-neighbour walk on the tree of geodesics has first-return series
w_i = F_{-i}(z) solving the monotone polynomial system
w_i = p_{-i} z + z w_i sum_j M_ij p_ij w_j.  Its minimal solution, found by
Newton's method, exists up to a fold point R_F (Jacobian eigenvalue 1).

R_F is found in a few solves.  The system has a square-root singularity at
the fold (Drmota-Lalley-Woods; Flajolet and Sedgewick, Analytic
Combinatorics, Thm VII.6), so g = 1/max(x)^2 with x = (I - J)^-1 1, which
every Newton step computes, is close to linear in R_F - z.  Starting at
z = 1, z steps most of the way to where the last two solutions extrapolate
g to 0, each solve warm-started from the previous solution (a pre-fixed
point below the next least solution, so Newton still rises to it).  Near
the estimate, Newton on the bordered fold system polishes it.  The polished
z is accepted only if it lies above the last solved z and below any z found
past the fold, and the minimal solution exists at z (1 - 1e-9) but not at
z (1 + 1e-9).  There is no fallback: anything else raises NotConverged.

The Green-kernel radius R_Gk is R_F itself.  The root's own row of the
system reads w_root = z r_root/d_root + w_root F(z), so the first-return
value F(z) = 1 - z r_root/(d_root w_root) stays below 1 wherever the
minimal solution exists, as r_root >= 1 (only the identity's type has no
predecessor, and it is not in the reduced set).  So F never reaches 1 up
to the fold, and no smaller root of F(z) = 1 can bound the radius;
upper_bound raises NotConverged should F(R_F) >= 1 all the same.

The bound is certified exactly.  A rational z and w >= 0 with
z(r_i + w_i sum_j M_ij w_j) <= d_i w_i for every type and
z sum_j M_root,j w_j < d_root make w a post-fixed point of the monotone
system, so the least solution exists at z and lies below w (Etessami and
Yannakakis, JACM 2009); then F(z) < 1 and rho_T <= 1/z.  The check runs in
Fractions on the polished fold solution at z = R_F (1 - CERT_MARGIN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automaton import ReducedAutomaton
from .errors import InvalidRoot, NotConverged

STEP_CAP = 100
DIVERGENCE_CAP = 1e6
# approach to the fold: first trial z, share of the estimated distance to
# step, relative distance at which the bordered Newton takes over, and the
# relative gap on each side of the polished z where the solver is rerun
FIRST_STEP = 0.01
APPROACH_STEP = 0.9
HANDOFF = 1e-3
CONFIRM_GAP = 1e-9
SOLVE_CAP = 40
# relative step below the fold point at which the exact check is made; far
# above the fold residual (< 1e-13), far below the reported digits
CERT_MARGIN = 1e-9


@dataclass
class TreeWalkSpec:
    """Transition data of the tree walk over the reduced type set."""

    types: tuple[int, ...]
    M: np.ndarray
    d: np.ndarray
    r: np.ndarray
    p_minus: np.ndarray
    p_step: np.ndarray
    root_type: int
    root_row: np.ndarray
    root_d: int


@dataclass
class FixedPointSolution:
    z: float
    w: np.ndarray
    residual: float
    jacobian_spectral_radius: float
    iterations: int
    x_max: float  # max of (I - J)^-1 1 at the last step, ||(I - J)^-1||_inf


@dataclass
class Diverged:
    z: float
    iterations: int
    cap_hit: bool


@dataclass
class FoldResult:
    R_F: float
    w: np.ndarray  # the minimal fixed point at R_F
    u: np.ndarray
    residual: float
    # always False; kept only because the benchmark's trace hook reads it
    fallback: bool
    # fixed-point solves of the search, their Newton steps, Diverged count
    solves: int
    newton_steps: int
    diverged: int


@dataclass
class UpperBoundResult:
    R_F: float
    F_at_RF: float
    R_Gk: float
    rho_T: float
    root_type: int
    fold_residual: float
    jacobian_radius: float
    certified_upper: Fraction | None
    fold_solves: int
    fold_newton_steps: int
    fold_diverged: int


def default_root_type(ra: ReducedAutomaton) -> int:
    """Lowest r=2 type (a polygon summit analogue), else lowest type."""
    for t, rv in zip(ra.types, ra.r):
        if rv == 2:
            return t
    return ra.types[0]


def tree_walk_spec(ra: ReducedAutomaton, root_type: int) -> TreeWalkSpec:
    """Probabilities p_{-i} = r_i/d_i and p_{i,j} = 1/d_i over the reduced set."""
    if root_type not in ra.types:
        raise InvalidRoot(f"type {root_type} is not in the reduced set {ra.types}")
    pos = ra.types.index(root_type)
    d = ra.d.astype(float)
    r = ra.r.astype(float)
    spec = TreeWalkSpec(
        types=ra.types,
        M=ra.M.astype(float),
        d=ra.d.copy(),
        r=ra.r.copy(),
        p_minus=r / d,
        p_step=1.0 / d,
        root_type=root_type,
        root_row=ra.M[pos].astype(float),
        root_d=int(ra.d[pos]),
    )
    balance = spec.p_minus + (spec.M * spec.p_step[:, None]).sum(axis=1)
    if not np.allclose(balance, 1.0, atol=1e-12):
        raise InvalidRoot("transition probabilities do not sum to 1 per type")
    return spec


def _phi(spec: TreeWalkSpec, z: float, w: np.ndarray) -> np.ndarray:
    Mp = spec.M * spec.p_step[:, None]
    return z * (spec.p_minus + w * (Mp @ w))


def _jacobian(spec: TreeWalkSpec, z: float, w: np.ndarray) -> np.ndarray:
    Mp = spec.M * spec.p_step[:, None]
    return z * (np.diag(Mp @ w) + w[:, None] * Mp)


def minimal_fixed_point(spec: TreeWalkSpec, z: float, w0: np.ndarray | None = None):
    """Newton's method from w0 (0 when None); FixedPointSolution or Diverged.

    On this monotone system Newton from 0, or from any pre-fixed point below
    the least fixed point (such as the least fixed point at a smaller z),
    increases to the least fixed point when one exists, with no slowdown
    near the fold (Esparza, Kiefer and Luttenberger, JACM 2010).  Each step
    also solves (I - J) x = 1: x > 0 holds exactly when rho(J) < 1, and
    max(x) is ||(I - J)^-1||_inf, which sets the roundoff floor of the step.
    A singular system, rho(J) >= 1, a step below -floor or a blow-up means
    z is past the fold.
    """
    K = spec.M.shape[0]
    eye, ones = np.eye(K), np.ones(K)
    w = np.zeros(K) if w0 is None else np.array(w0, dtype=float)
    for it in range(1, STEP_CAP + 1):
        try:
            step, x = np.linalg.solve(
                eye - _jacobian(spec, z, w),
                np.column_stack([_phi(spec, z, w) - w, ones]),
            ).T
        except np.linalg.LinAlgError:
            return Diverged(z=z, iterations=it, cap_hit=False)
        # roundoff in the step, measured within 1e-12 of the fold on every root
        # of the reference automata, stays below 0.6 eps ||(I - J)^-1|| max(1, w)
        floor = 1e-14 * float(x.max()) * max(1.0, float(w.max()))
        if x.min() <= 0.0 or step.min() < -floor:
            return Diverged(z=z, iterations=it, cap_hit=False)
        w = w + step
        if w.max() > DIVERGENCE_CAP:
            return Diverged(z=z, iterations=it, cap_hit=True)
        if float(np.max(np.abs(step))) <= floor:
            rad = float(np.max(np.abs(np.linalg.eigvals(_jacobian(spec, z, w)))))
            if rad >= 1.0:
                return Diverged(z=z, iterations=it, cap_hit=False)
            residual = float(np.max(np.abs(_phi(spec, z, w) - w)))
            return FixedPointSolution(
                z=z, w=w, residual=residual, jacobian_spectral_radius=rad,
                iterations=it, x_max=float(x.max()),
            )
    return Diverged(z=z, iterations=STEP_CAP, cap_hit=False)


def _fold_newton(spec: TreeWalkSpec, w0, u0, z0, tol: float):
    """Newton on (Phi(w)-w, J(w)u-u, sum(u)-1) in the unknowns (w, u, z)."""
    K = w0.size
    Mp = spec.M * spec.p_step[:, None]
    w, u, z = w0.copy(), u0.copy(), float(z0)
    for _ in range(60):
        J = _jacobian(spec, z, w)
        F1 = _phi(spec, z, w) - w
        F2 = J @ u - u
        F3 = np.array([u.sum() - 1.0])
        res = float(max(np.max(np.abs(F1)), np.max(np.abs(F2)), abs(F3[0])))
        if res < tol:
            return w, u, z, res
        A = np.zeros((2 * K + 1, 2 * K + 1))
        A[:K, :K] = J - np.eye(K)
        A[:K, 2 * K] = _phi(spec, z, w) / z
        A[K:2 * K, :K] = z * (u[:, None] * Mp + np.diag(Mp @ u))
        A[K:2 * K, K:2 * K] = J - np.eye(K)
        A[K:2 * K, 2 * K] = (J @ u) / z
        A[2 * K, K:2 * K] = 1.0
        try:
            step = np.linalg.solve(A, np.concatenate([F1, F2, F3]))
        except np.linalg.LinAlgError:
            return None
        w = w - step[:K]
        u = u - step[K:2 * K]
        z = z - float(step[2 * K])
        if not np.isfinite(z) or z <= 0:
            return None
    return None


def fold_point(spec: TreeWalkSpec, tol: float = 1e-13) -> FoldResult:
    """Locate R_F: extrapolated approach, bordered Newton, two-sided confirm.

    Each solve is warm-started from the last converged one.  From the last
    two converged points g = 1/max(x)^2 is extrapolated linearly to 0 (the
    square-root singularity makes it nearly linear in R_F - z) and z steps
    APPROACH_STEP of the way there, never past the midpoint to the least
    z found Diverged.  Within HANDOFF z of the estimate, Newton on the fold
    system polishes it.  The polished z is accepted only inside the bracket,
    with w >= 0 and u > 0, when the minimal solution exists at
    z (1 - CONFIRM_GAP) and not at z (1 + CONFIRM_GAP); else NotConverged.
    """
    counts = {"solves": 0, "newton_steps": 0, "diverged": 0}

    def solve(z: float, w0: np.ndarray | None):
        out = minimal_fixed_point(spec, z, w0)
        counts["solves"] += 1
        counts["newton_steps"] += out.iterations
        counts["diverged"] += isinstance(out, Diverged)
        return out

    last = solve(1.0, None)
    if isinstance(last, Diverged):
        raise NotConverged("no minimal fixed point at z = 1")
    prev, hi, z = None, math.inf, 1.0 + FIRST_STEP
    while True:
        if counts["solves"] >= SOLVE_CAP:
            raise NotConverged(f"fold not approached in {SOLVE_CAP} solves")
        out = solve(z, last.w)
        if isinstance(out, Diverged):
            hi = z
        else:
            prev, last = last, out
        target = 0.5 * (last.z + hi)
        if prev is not None:
            # x grows with z, so g falls; equal values would leave no estimate
            g0, g1 = prev.x_max ** -2, last.x_max ** -2
            if g1 < g0:
                target = min(target, last.z + g1 * (last.z - prev.z) / (g0 - g1))
        if not math.isfinite(target):
            raise NotConverged(f"1/max(x)^2 does not fall between z = {prev.z} and {last.z}")
        if target - last.z <= HANDOFF * last.z:
            break
        z = last.z + APPROACH_STEP * (target - last.z)
    vals, vecs = np.linalg.eig(_jacobian(spec, last.z, last.w))
    u = np.real(vecs[:, np.argmax(np.abs(vals))])
    polished = _fold_newton(spec, last.w, u / u.sum(), target, tol)
    if polished is None:
        raise NotConverged(f"bordered Newton failed from z = {target}")
    w, u, z, res = polished
    if not (last.z < z < hi and (w >= -1e-12).all() and (u > 0).all()):
        raise NotConverged(f"polished fold z = {z} outside ({last.z}, {hi}) or not positive")
    z_below = z * (1.0 - CONFIRM_GAP)
    below = solve(z_below, last.w if last.z < z_below else None)
    if isinstance(below, Diverged):
        raise NotConverged(f"no minimal fixed point just below the polished fold z = {z}")
    if not isinstance(solve(z * (1.0 + CONFIRM_GAP), below.w), Diverged):
        raise NotConverged(f"minimal fixed point just above the polished fold z = {z}")
    return FoldResult(R_F=z, w=w, u=u, residual=res, fallback=False, **counts)


def first_return_value(spec: TreeWalkSpec, z: float, w: np.ndarray | None = None) -> float:
    """F(root, root | z) = sum_j M_{root,j} (1/d_root) z w_j."""
    if w is None:
        sol = minimal_fixed_point(spec, z)
        if isinstance(sol, Diverged):
            raise NotConverged(f"no minimal fixed point at z = {z}")
        w = sol.w
    return float(z * np.dot(spec.root_row, w) / spec.root_d)


def is_post_fixed_point(spec: TreeWalkSpec, z: Fraction, w: np.ndarray) -> bool:
    """Exact check that w >= 0 satisfies Phi(z, w) <= w and F(z, w) < 1.

    Rows are multiplied through by d_i, so the check is
    z(r_i + w_i sum_j M_ij w_j) <= d_i w_i and z sum_j M_root,j w_j < d_root,
    in Fractions on the exact binary values of w.
    """
    W = [Fraction(x) for x in w.tolist()]
    if min(W) < 0:
        return False
    # M holds integer counts stored as floats
    for row, di, ri, wi in zip(spec.M.tolist(), spec.d.tolist(), spec.r.tolist(), W):
        out = sum(int(m) * wj for m, wj in zip(row, W) if m)
        if z * (ri + wi * out) > di * wi:
            return False
    root = sum(int(m) * wj for m, wj in zip(spec.root_row.tolist(), W) if m)
    return z * root < spec.root_d


def upper_bound(ra: ReducedAutomaton, root_type: int | None = None,
                tol_fold: float = 1e-13) -> UpperBoundResult:
    """rho_T = 1/R_F, with 1/z certified exactly just above it (or None)."""
    root = default_root_type(ra) if root_type is None else root_type
    spec = tree_walk_spec(ra, root)
    fold = fold_point(spec, tol=tol_fold)
    F_rf = first_return_value(spec, fold.R_F, fold.w)
    if F_rf >= 1.0:
        raise NotConverged(f"first-return value {F_rf} >= 1 at the fold point")
    z = Fraction(fold.R_F * (1.0 - CERT_MARGIN))
    jac_rad = float(
        np.max(np.abs(np.linalg.eigvals(_jacobian(spec, fold.R_F, fold.w))))
    )
    return UpperBoundResult(
        R_F=fold.R_F,
        F_at_RF=F_rf,
        R_Gk=fold.R_F,
        rho_T=1.0 / fold.R_F,
        root_type=root,
        fold_residual=fold.residual,
        jacobian_radius=jac_rad,
        certified_upper=1 / z if is_post_fixed_point(spec, z, fold.w) else None,
        fold_solves=fold.solves,
        fold_newton_steps=fold.newton_steps,
        fold_diverged=fold.diverged,
    )
