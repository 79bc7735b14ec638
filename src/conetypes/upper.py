"""Upper bound on the spectral radius via the walk on the tree of geodesics.

The nearest-neighbour walk on the tree of geodesics has first-return series
w_i = F_{-i}(z) solving the monotone polynomial system
w_i = p_{-i} z + z w_i sum_j M_ij p_ij w_j.  Its minimal solution, found by
Newton's method, exists up to a fold point R_F (Jacobian eigenvalue 1).
The system has no root, so neither has R_F: the walk is rooted once, at
default_root_type, and the root enters only F and the certificate's root
row below.

R_F is found by Newton on the bordered fold system (Phi(w) - w,
J(w) u - u, sum(u) - 1) in (w, u, z), started at the fold of the radial
walk, which steps back with the mean probability pbar = mean(p_minus):
z0 = 1/(2 sqrt(pbar (1 - pbar))), w0 = sqrt(pbar / (1 - pbar)) in every
entry and u0 = 1/K (Woess, Random Walks on Infinite Graphs and Groups,
2000), the exact fold of the 3-regular tree (_radial_fold).  The start
sets only whether the search converges: the polished (w, u, z) is accepted
only if z lies above 1 with u > 0, the exact check below proves w a
post-fixed point at z (1 - 1e-12), and the minimal solution does not
exist at z (1 + 1e-12).  That solve, the search's only one, starts just
below the fold, from v = w - t u with t = sqrt(1e-12) max(w) / max(u),
which a second exact check, is_below_least, first proves to lie below
every fixed point at z (1 + 1e-12); Newton from it rises to the least
solution wherever one exists, so its Diverged result shows there is none,
in 2 steps.  There is no fallback: anything else raises NotConverged.

The Green-kernel radius is R_F itself.  The graph is d-regular, and the
root's own row of the system reads w_root = z r_root/d + w_root F(z), so the
first-return value F(z) = 1 - z r_root/(d w_root) stays below 1 wherever the
minimal solution exists, as r_root >= 1 (only the identity's type has no
predecessor, and it is not in the reduced set).  So F never reaches 1 up
to the fold, and no smaller root of F(z) = 1 can bound the radius;
upper_bound raises NotConverged should F(R_F) >= 1 all the same.

The bound is certified exactly, and the same check confirms the fold from
below.  A rational z and w >= 0 with
z(r_i + w_i sum_j M_ij w_j) <= d w_i for every type and
z sum_j M_root,j w_j < d make w a post-fixed point of the monotone
system, so the least solution exists at z and lies below w (Etessami and
Yannakakis, JACM 2009); then F(z) < 1, R_F >= z and rho_T <= 1/z.  The
check is made once, on the polished fold solution at
z = R_F (1 - CERT_MARGIN), in exact integer arithmetic: every w_i is a
dyadic rational, so over one common power of two and z's denominator the
same inequalities compare Python ints.  The confirm above the fold has the
matching exact check: a rational z, v >= 0 and x > 0 with Phi_z(v) >= v
and J_z(v) x < x put v below every fixed point at z (the proof is in
is_below_least's docstring), compared in integers the same way.  Both
checks sum only the nonzeros of M, at most d a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automaton import ReducedAutomaton
from .errors import NotConverged

STEP_CAP = 100
DIVERGENCE_CAP = 1e6
# residual at which the bordered Newton accepts the polished fold
FOLD_TOL = 1e-13
# relative gap on each side of the polished fold: the exact check is made
# below it and the solver must diverge above it; above the fold residual
# (< 1e-13), far below the reported digits.  Both exact checks held at
# 1e-13 on all 269 triples with max <= 12 and five larger ones, and failed
# on 7 of them at 1e-14: 1e-12 leaves a factor 10
CERT_MARGIN = 1e-12


@dataclass
class TreeWalkSpec:
    """Transition data of the tree walk over the reduced type set.

    The exact checks read M and r as Python ints, stored once here: the
    nonzeros of M as (i, j, M_ij) and r as a list.
    """

    ra: ReducedAutomaton
    root: int  # position of the root type in ra.types
    p_minus: np.ndarray  # r_i / d, the step back
    Mp: np.ndarray  # M_ij / d, the steps forward
    M_nonzeros: list  # (i, j, M_ij) for each M_ij != 0, in Python ints
    r: list  # r_i in Python ints


@dataclass
class FixedPointSolution:
    """The least fixed point w, where Newton's step fell below its roundoff
    floor (see minimal_fixed_point); iterations is the Newton steps made."""

    w: np.ndarray
    iterations: int


@dataclass
class Diverged:
    """Evidence that no least fixed point exists: a singular I - J, an x
    with a component <= 0, a step below -floor or an iterate above
    DIVERGENCE_CAP (see minimal_fixed_point); iterations is the Newton
    steps made."""

    iterations: int


@dataclass
class FoldResult:
    """The polished fold, confirmed on both sides by exact checks.

    w is proven a post-fixed point at certified_z = R_F (1 - CERT_MARGIN),
    so the least solution exists there and rho_T <= 1/certified_z; the
    solver diverged at R_F (1 + CERT_MARGIN) from a start that
    is_below_least proves below every fixed point there.  That Diverged
    solve is the search's only one.
    """

    R_F: float
    w: np.ndarray  # the minimal fixed point at R_F
    residual: float
    certified_z: Fraction
    # always False; kept only because the benchmark's trace hook reads it
    fallback: bool
    # Newton steps of the search's one solve (the confirm), and the linear
    # solves of the bordered Newton
    newton_steps: int
    bordered_steps: int


@dataclass
class UpperBoundResult:
    """The bound from one fold search, whose FoldResult is kept as fold.

    rho_T = 1/fold.R_F; F_at_RF is F(root, root | R_F) < 1; certified_upper
    = 1/fold.certified_z is the exact bound just above rho_T.  R_F, the fold
    residual and the search counters are read from fold only.
    """

    rho_T: float
    F_at_RF: float
    root_type: int
    certified_upper: Fraction
    fold: FoldResult


def default_root_type(ra: ReducedAutomaton) -> int:
    """Lowest r=2 type (a polygon summit analogue), else lowest type."""
    for t, rv in zip(ra.types, ra.r):
        if rv == 2:
            return t
    return ra.types[0]


def tree_walk_spec(ra: ReducedAutomaton) -> TreeWalkSpec:
    """Probabilities p_{-i} = r_i/d and p_{i,j} = 1/d over the reduced set,
    rooted at default_root_type(ra).  R_F does not depend on the root:
    only first_return_value and the root row of is_post_fixed_point read it."""
    r = ra.r
    rows, cols = np.nonzero(ra.M)
    return TreeWalkSpec(ra=ra, root=ra.types.index(default_root_type(ra)), p_minus=r / ra.degree,
                        Mp=ra.M * (1.0 / ra.degree),
                        M_nonzeros=list(zip(rows.tolist(), cols.tolist(),
                                            ra.M[rows, cols].tolist())),
                        r=r.tolist())


def minimal_fixed_point(spec: TreeWalkSpec, z: float, w0: np.ndarray | None = None):
    """Newton's method from w0 (0 when None); FixedPointSolution or Diverged.

    On this monotone system Newton from 0, or from any pre-fixed point below
    the least fixed point (such as the least fixed point at a smaller z),
    increases to the least fixed point when one exists, with no slowdown
    near the fold, and converges only when one exists (Esparza, Kiefer and
    Luttenberger, JACM 2010).  Each step also solves (I - J) x = 1.  As
    J >= 0, a solution x > 0 proves rho(J) < 1, and max(x) is
    ||(I - J)^-1||_inf, which sets the roundoff floor of the step.  A step
    below the floor gives FixedPointSolution.  A singular system, a solution
    x with a component <= 0, a step below -floor or an iterate above
    DIVERGENCE_CAP means z is past the fold: Diverged.  STEP_CAP steps with
    neither outcome are no evidence: NotConverged.
    """
    Mp = spec.Mp
    K = Mp.shape[0]
    # the factors of z, once per solve; A = I - J is refilled in place, its
    # diagonal written through a strided view
    nzMp, zMp_diag, zp = -z * Mp, z * Mp.diagonal(), z * spec.p_minus
    A = np.empty((K, K))
    A_diag = A.reshape(-1)[::K + 1]
    rhs = np.empty((K, 2))
    rhs[:, 1] = 1.0
    w = np.zeros(K) if w0 is None else np.array(w0, dtype=float)
    w_max = float(w.max())
    for it in range(1, STEP_CAP + 1):
        # I - J and Phi - w from one nv = -z Mp w: entries
        # 1 + nv_i - w_i z Mp_ii, w_i (-z Mp_ij) and z p_i - w_i nv_i - w_i
        nv = nzMp @ w
        np.multiply(w[:, None], nzMp, out=A)
        A_diag[:] = 1.0 + nv - w * zMp_diag
        rhs[:, 0] = zp - w * nv - w
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return Diverged(iterations=it)
        (step_min, x_min), (step_max, x_max) = sol.min(axis=0).tolist(), sol.max(axis=0).tolist()
        # roundoff in the step, measured within 1e-12 of the fold on every root
        # of the reference automata, stays below 0.6 eps ||(I - J)^-1|| max(1, w)
        floor = 1e-14 * x_max * max(1.0, w_max)
        if x_min <= 0.0 or step_min < -floor:
            return Diverged(iterations=it)
        w = w + sol[:, 0]
        w_max = float(w.max())
        if w_max > DIVERGENCE_CAP:
            return Diverged(iterations=it)
        if max(step_max, -step_min) <= floor:
            return FixedPointSolution(w=w, iterations=it)
    raise NotConverged(f"{STEP_CAP} Newton steps at z = {z} neither converged nor diverged")


def _fold_newton(spec: TreeWalkSpec, w0, u0, z0):
    """Newton on (Phi(w)-w, J(w)u-u, sum(u)-1) in the unknowns (w, u, z).

    J(w) = z (diag(Mp w) + w_i Mp_ij).  The bordered matrix
    [[J(w) - I, 0, Phi/z], [J(u), J(w) - I, J(w)u/z], [0, 1, 0]] (using
    J(w) u = J(u) w, so d(J(w) u)/dw = J(u)) is refilled in place each step,
    its three diagonals written through strided views of the flat array.
    fold_point starts it at the radial walk's fold (_radial_fold).
    Returns (w, u, z, residual, linear solves made), or None on failure.
    """
    K = w0.size
    n = 2 * K + 1
    Mp = spec.Mp
    A = np.zeros((n, n))
    A[2 * K, K:2 * K] = 1.0
    top, low, mid = A[:K, :K], A[K:2 * K, :K], A[K:2 * K, K:2 * K]
    flat = A.reshape(-1)
    top_diag, low_diag = flat[::n + 1][:K], flat[K * n::n + 1][:K]
    rhs = np.empty(n)
    w, u, z = w0.copy(), u0.copy(), float(z0)
    for steps in range(60):
        v, mu = Mp @ w, Mp @ u
        phi = z * (spec.p_minus + w * v)
        Ju = z * (v * u + w * mu)
        rhs[:K] = phi - w
        rhs[K:2 * K] = Ju - u
        rhs[2 * K] = u.sum() - 1.0
        res = float(np.max(np.abs(rhs)))
        if res < FOLD_TOL:
            return w, u, z, res, steps
        np.multiply(w[:, None], Mp, out=top)
        top_diag += v
        top *= z
        top_diag -= 1.0
        mid[:] = top
        np.multiply(u[:, None], Mp, out=low)
        low_diag += mu
        low *= z
        A[:K, 2 * K] = phi / z
        A[K:2 * K, 2 * K] = Ju / z
        try:
            step = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return None
        w = w - step[:K]
        u = u - step[K:2 * K]
        z = z - float(step[2 * K])
        if not np.isfinite(z) or z <= 0:
            return None
    return None


def _radial_fold(spec: TreeWalkSpec):
    """The fold (w0, u0, z0) of the radial walk, the start of _fold_newton.

    The walk on N that steps back with pbar = mean(p_minus) and forward
    with 1 - pbar has first-return series w = z (pbar + (1 - pbar) w^2),
    whose discriminant 1 - 4 z^2 pbar (1 - pbar) vanishes at
    z0 = 1/(2 sqrt(pbar (1 - pbar))), the inverse of the radial walk's
    spectral radius, with the double root w0 = sqrt(pbar / (1 - pbar)) in
    every entry and u0 = 1/K.  Row i of Mp sums to 1 - p_minus_i, so with
    every w_j = c the system's row i reads c = z (p_i + (1 - p_i) c^2): the
    radial walk's system is this one averaged over the rows, and the exact
    fold of the 3-regular tree (K = 1, pbar = 1/3).  With pbar = 0 no type
    steps back, the least solution is 0 for every z, and there is no fold:
    NotConverged.
    """
    K = spec.p_minus.size
    pbar = float(spec.p_minus.mean())
    if not 0.0 < pbar < 1.0:
        raise NotConverged(f"no radial-walk fold at mean step-back probability {pbar}")
    return (np.full(K, (pbar / (1.0 - pbar)) ** 0.5), np.full(K, 1.0 / K),
            0.5 / (pbar * (1.0 - pbar)) ** 0.5)


def fold_point(spec: TreeWalkSpec) -> FoldResult:
    """Locate R_F: bordered Newton from a closed-form start, two-sided confirm.

    Newton on the fold system starts from the radial walk's fold
    (_radial_fold).  The polished (w, u, z) is accepted only with z above 1
    and u > 0, when is_post_fixed_point proves w >= 0 a post-fixed point at
    z (1 - CERT_MARGIN), and when the solver diverges at z (1 + CERT_MARGIN)
    from the start v = w - t u, t = sqrt(CERT_MARGIN) max(w) / max(u), which
    is_below_least first proves to lie below every fixed point there; else
    NotConverged.  That confirm is the search's one fixed-point solve.
    """
    w0, u0, z0 = _radial_fold(spec)
    polished = _fold_newton(spec, w0, u0, z0)
    if polished is None:
        raise NotConverged(f"bordered Newton failed from the radial-walk fold z = {z0}")
    w, u, z, res, bordered_steps = polished
    if not (z > 1.0 and (u > 0).all()):
        raise NotConverged(f"polished fold z = {z} not above 1 or u not positive")
    certified_z = Fraction(z * (1.0 - CERT_MARGIN))
    if not is_post_fixed_point(spec, certified_z, w):
        raise NotConverged(f"polished fold solution is no post-fixed point just below z = {z}")
    # Diverged means "no solution" only from a start proven below every
    # fixed point; one sqrt(CERT_MARGIN) below the fold along u diverges
    # in 2 Newton steps
    above = z * (1.0 + CERT_MARGIN)
    v = w - CERT_MARGIN ** 0.5 * w.max() / u.max() * u
    if not is_below_least(spec, Fraction(above), v, u):
        raise NotConverged(f"no start proven below the least solution just above z = {z}")
    confirm = minimal_fixed_point(spec, above, v)
    if not isinstance(confirm, Diverged):
        raise NotConverged(f"minimal fixed point just above the polished fold z = {z}")
    return FoldResult(R_F=z, w=w, residual=res, certified_z=certified_z, fallback=False,
                      newton_steps=confirm.iterations, bordered_steps=bordered_steps)


def first_return_value(spec: TreeWalkSpec, z: float, w: np.ndarray) -> float:
    """F(root, root | z) = sum_j M_{root,j} (1/d) z w_j, with w the fixed
    point at z."""
    return float(z * np.dot(spec.ra.M[spec.root], w) / spec.ra.degree)


def _dyadic(a: np.ndarray):
    """(A, S): Python ints A_i and one power of two S with a_i = A_i / S
    exactly, or None when a holds NaN or an infinity."""
    if not np.isfinite(a).all():
        return None
    ratios = [x.as_integer_ratio() for x in a.tolist()]
    S = max(den for _, den in ratios)
    return [num * (S // den) for num, den in ratios], S


def _int_matvec(M_nonzeros: list, A: list) -> list:
    """M A in Python ints, summing only the nonzeros of M (at most d a row)."""
    out = [0] * len(A)
    for i, j, m in M_nonzeros:
        out[i] += m * A[j]
    return out


def is_post_fixed_point(spec: TreeWalkSpec, z: Fraction, w: np.ndarray) -> bool:
    """Exact check that w >= 0 satisfies Phi(z, w) <= w and F(z, w) < 1.

    Rows are multiplied through by d, so the check is
    z(r_i + w_i sum_j M_ij w_j) <= d w_i and z sum_j M_root,j w_j < d,
    on the exact binary values of w.  Each w_i is a dyadic W_i / S over one
    common power of two S, and z = zn / zd, so the rows are compared in
    integers as zn (r_i S^2 + W_i MW_i) <= zd d W_i S and
    zn MW_root < zd d S, with MW = M W.  A w holding NaN or an infinity
    proves nothing: the check fails.
    """
    dyadic = _dyadic(w)
    if dyadic is None:
        return False
    W, S = dyadic
    if min(W) < 0:
        return False
    zn, zd = z.as_integer_ratio()
    S2, d, MW = S * S, spec.ra.degree, _int_matvec(spec.M_nonzeros, W)
    for ri, Wi, MWi in zip(spec.r, W, MW):
        if zn * (ri * S2 + Wi * MWi) > zd * d * Wi * S:
            return False
    return zn * MW[spec.root] < zd * d * S


def is_below_least(spec: TreeWalkSpec, z: Fraction, v: np.ndarray, x: np.ndarray) -> bool:
    """Exact check that v lies below every fixed point w* >= 0 of Phi_z.

    The check is v >= 0, x > 0, Phi_z(v) >= v and J_z(v) x < x, where
    J_z(v) = z (diag(Mp v) + v_i Mp_ij) >= 0 is Phi_z's Jacobian.  With v =
    V / S, x = X / T over powers of two (T cancels) and z = zn / zd, the
    rows read zn (r_i S^2 + V_i MV_i) >= zd d V_i S and
    zn (MV_i X_i + V_i MX_i) < zd d X_i S in integers.  A NaN or an
    infinity proves nothing: the check fails.

    Proof.  Suppose v <= w* fails for a fixed point w* >= 0.  Let
    t = max_i (v_i - w*_i) / x_i > 0 and s = v - t x; then s <= w*, with
    equality at some index i.  Phi is quadratic, with second-order term
    Q(h)_i = z h_i (Mp h)_i >= 0 for h >= 0.  About w*, with h = w* - s >= 0
    and h_i = 0, Q(h)_i vanishes, so Phi(s)_i = w*_i - (J(w*) h)_i <= s_i.
    About v, Phi(s) = Phi(v) - t J(v) x + t^2 Q(x), so
    Phi(s)_i >= v_i - t (J(v) x)_i > v_i - t x_i = s_i, a contradiction.
    So v <= w*, and as Phi_z(v) >= v, Newton from v rises to the least
    fixed point at z wherever one exists (Esparza, Kiefer and Luttenberger,
    JACM 2010): there, a Diverged solve from v shows that none exists.
    """
    dv, dx = _dyadic(v), _dyadic(x)
    if dv is None or dx is None:
        return False
    (V, S), (X, _) = dv, dx
    if min(V) < 0 or min(X) <= 0:
        return False
    zn, zd = z.as_integer_ratio()
    S2, d, nz = S * S, spec.ra.degree, spec.M_nonzeros
    for ri, Vi, Xi, MVi, MXi in zip(spec.r, V, X, _int_matvec(nz, V), _int_matvec(nz, X)):
        if zn * (ri * S2 + Vi * MVi) < zd * d * Vi * S:
            return False
        if zn * (MVi * Xi + Vi * MXi) >= zd * d * Xi * S:
            return False
    return True


def upper_bound(ra: ReducedAutomaton) -> UpperBoundResult:
    """rho_T = 1/R_F, with 1/z certified exactly just above it by fold_point,
    on the tree walk rooted at default_root_type(ra)."""
    spec = tree_walk_spec(ra)
    fold = fold_point(spec)
    F_rf = first_return_value(spec, fold.R_F, fold.w)
    if F_rf >= 1.0:
        raise NotConverged(f"first-return value {F_rf} >= 1 at the fold point")
    return UpperBoundResult(rho_T=1.0 / fold.R_F, F_at_RF=F_rf, root_type=ra.types[spec.root],
                            certified_upper=1 / fold.certified_z, fold=fold)
