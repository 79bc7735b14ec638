"""Tree-walk fixed point, fold detection, and the upper spectral-radius bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conetypes import (
    Diverged,
    FixedPointSolution,
    InvalidRoot,
    NotConverged,
    ReducedAutomaton,
    default_root_type,
    first_return_value,
    fold_point,
    is_post_fixed_point,
    minimal_fixed_point,
    tree_walk_spec,
    upper_bound,
)
from conetypes.upper import CERT_MARGIN
from conftest import TABLE, UPPER_BOUNDS

# on the trivalent tree everything is solvable in closed form:
# Phi_z(w) = z/3 + (2z/3) w^2, fold at z = 3/(2 sqrt 2), rho = 2 sqrt 2 / 3
TREE_RF = 3.0 / (2.0 * math.sqrt(2.0))
TREE_RHO = 2.0 * math.sqrt(2.0) / 3.0


def tree_w(z):
    return (1.0 - math.sqrt(1.0 - 8.0 * z * z / 9.0)) / (4.0 * z / 3.0)


def test_spec_probabilities(tree_reduced):
    spec = tree_walk_spec(tree_reduced, 0)
    assert spec.p_minus == pytest.approx([1.0 / 3.0])
    assert spec.p_step == pytest.approx([1.0 / 3.0])
    assert spec.root_d == 3


def test_spec_rejects_unknown_root(tree_reduced):
    with pytest.raises(InvalidRoot):
        tree_walk_spec(tree_reduced, 5)


def test_spec_balance_all_groups(graph_data):
    # p_{-i} + sum_j M_ij / d_i = 1 holds for every group's reduced set
    for triple in TABLE:
        ra = graph_data[triple]["reduced"]
        spec = tree_walk_spec(ra, default_root_type(ra))
        balance = spec.p_minus + (spec.M * spec.p_step[:, None]).sum(axis=1)
        assert np.allclose(balance, 1.0, atol=1e-12)


def test_tree_fixed_point_closed_form(tree_reduced):
    spec = tree_walk_spec(tree_reduced, 0)
    for z in [0.2, 0.5, 0.9, 1.0, 1.05]:
        sol = minimal_fixed_point(spec, z)
        assert isinstance(sol, FixedPointSolution)
        assert sol.w[0] == pytest.approx(tree_w(z), abs=1e-12)
    sol1 = minimal_fixed_point(spec, 1.0)
    assert sol1.w[0] == pytest.approx(0.5, abs=1e-13)


def test_fixed_point_monotone_in_z(tree_reduced, data444):
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra, default_root_type(ra))
        prev = np.zeros(len(ra.types))
        for z in np.linspace(0.1, 1.0, 10):
            sol = minimal_fixed_point(spec, float(z))
            assert (sol.w >= prev - 1e-13).all()
            prev = sol.w


def test_divergence_past_fold(tree_reduced):
    spec = tree_walk_spec(tree_reduced, 0)
    out = minimal_fixed_point(spec, 1.2)
    assert isinstance(out, Diverged)
    with pytest.raises(NotConverged):
        first_return_value(spec, 1.2)


def test_newton_fast_just_below_fold(tree_reduced, data444):
    # Newton from 0 needs a few dozen steps next to the fold; plain
    # fixed-point iteration needs ~3e5 there
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra, default_root_type(ra))
        R_F = fold_point(spec).R_F
        sol = minimal_fixed_point(spec, R_F * (1.0 - 1e-9))
        assert isinstance(sol, FixedPointSolution)
        assert sol.iterations <= 60
        assert sol.residual < 1e-13
        assert sol.jacobian_spectral_radius < 1.0


def test_newton_diverges_just_above_fold(tree_reduced, data444):
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra, default_root_type(ra))
        R_F = fold_point(spec).R_F
        out = minimal_fixed_point(spec, R_F * (1.0 + 1e-9))
        assert isinstance(out, Diverged)
        assert out.iterations <= 100


def test_newton_tree_closed_form_near_fold(tree_reduced):
    spec = tree_walk_spec(tree_reduced, 0)
    # below the fold the solution is accurate to its roundoff floor,
    # about eps / sqrt(1 - z/R_F)
    for gap in [1e-3, 1e-6, 1e-9]:
        z = TREE_RF * (1.0 - gap)
        assert minimal_fixed_point(spec, z).w[0] == pytest.approx(tree_w(z), abs=1e-10)
    # the confirmed fold, solvable just below and Diverged just above, holds
    # the exact fold; the value 1/sqrt(2) at the fold itself is checked on the
    # polished fold point, since at the rounded fold even the closed form is
    # ~sqrt(eps) off
    fold = fold_point(spec)
    assert fold.R_F * (1.0 - 1e-9) <= TREE_RF <= fold.R_F * (1.0 + 1e-9)


def test_tree_fold_point(tree_reduced):
    spec = tree_walk_spec(tree_reduced, 0)
    fold = fold_point(spec)
    assert fold.R_F == pytest.approx(TREE_RF, abs=1e-12)
    assert not fold.fallback
    assert fold.residual < 1e-10
    # minimal solution at the fold: w = 1/sqrt(2), Jacobian has eigenvalue 1
    assert fold.w[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
    assert abs(fold.u).sum() == pytest.approx(1.0, abs=1e-12)


def test_fold_off_the_fold_raises(tree_reduced, monkeypatch):
    # a polished z 1e-6 past or short of the fold fails the two-sided confirm
    import conetypes.upper as upper

    polish = upper._fold_newton
    spec = tree_walk_spec(tree_reduced, 0)
    for shift in [1e-6, -1e-6]:
        def off_fold(spec, w0, u0, z0, tol, shift=shift):
            w, u, z, res = polish(spec, w0, u0, z0, tol)
            return w, u, z + shift, res

        monkeypatch.setattr(upper, "_fold_newton", off_fold)
        with pytest.raises(NotConverged):
            fold_point(spec)


def test_first_trial_past_the_fold(tree_reduced, monkeypatch):
    # a first trial z past the fold is Diverged; the search then steps no
    # further than the midpoint and still finds the fold
    import conetypes.upper as upper

    monkeypatch.setattr(upper, "FIRST_STEP", 0.5)
    fold = fold_point(tree_walk_spec(tree_reduced, 0))
    assert fold.R_F == pytest.approx(TREE_RF, abs=1e-12)
    assert fold.diverged >= 2


def test_warm_start_matches_cold_solve(tree_reduced, data444):
    # Newton from the least solution at a smaller z rises to the same least
    # solution, in no more steps than from 0.  Within 1e-7 of the fold the
    # fixed point itself is only defined to about eps ||(I - J)^-1||_inf
    # (5e-12 at 1e-9 on the tree, where both solves have residual 0), so
    # the two agree to 1e-12 or to four times that, whichever is larger
    eps = np.finfo(float).eps
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra, default_root_type(ra))
        R_F = fold_point(spec).R_F
        gaps = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
        prev = minimal_fixed_point(spec, 1.0)
        for z in [R_F * (1.0 - gap) for gap in gaps]:
            cold = minimal_fixed_point(spec, z)
            warm = minimal_fixed_point(spec, z, prev.w)
            assert isinstance(cold, FixedPointSolution)
            assert isinstance(warm, FixedPointSolution)
            tol = max(1e-12, 4 * eps * cold.x_max)
            assert np.max(np.abs(warm.w - cold.w)) <= tol, z
            assert warm.iterations <= cold.iterations, z
            prev = warm


def test_fold_search_solve_count(tree_reduced, data444, data237, monkeypatch):
    # the extrapolated approach plus the two confirming solves stay within 8
    import conetypes.upper as upper

    calls = []
    solver = upper.minimal_fixed_point

    def counted(spec, z, w0=None):
        calls.append(z)
        return solver(spec, z, w0)

    monkeypatch.setattr(upper, "minimal_fixed_point", counted)
    runs = [(tree_reduced, 0)] + [(data["reduced"], t) for data in [data444, data237]
                                  for t in data["reduced"].types]
    for ra, t in runs:
        calls.clear()
        res = upper_bound(ra, root_type=int(t))
        assert res.fold_solves == len(calls) <= 8, (ra.types, t)
        assert res.fold_diverged >= 1
        assert res.fold_newton_steps >= res.fold_solves


def test_tree_first_return_value(tree_reduced):
    spec = tree_walk_spec(tree_reduced, 0)
    # F(z) = z * 2 w(z) / 3; at the fold this equals 1/2
    assert first_return_value(spec, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    fold = fold_point(spec)
    assert first_return_value(spec, fold.R_F, fold.w) == pytest.approx(0.5, abs=1e-10)


def test_tree_upper_bound(tree_reduced):
    res = upper_bound(tree_reduced)
    assert res.R_F == pytest.approx(TREE_RF, abs=1e-12)
    assert res.F_at_RF == pytest.approx(0.5, abs=1e-10)
    assert res.rho_T == pytest.approx(TREE_RHO, abs=1e-10)
    assert res.jacobian_radius == pytest.approx(1.0, abs=1e-6)


def test_444_upper_bound(data444):
    res = upper_bound(data444["reduced"])
    assert res.rho_T == pytest.approx(UPPER_BOUNDS[(4, 4, 4)], abs=1e-9)
    assert res.rho_T * res.R_Gk == pytest.approx(1.0, abs=1e-14)
    assert res.R_Gk <= res.R_F + 1e-12


def test_upper_bound_root_independent(data444, data237):
    # the certified radius does not depend on which type roots the tree walk
    for data in [data444, data237]:
        ra = data["reduced"]
        values = [upper_bound(ra, root_type=t).rho_T for t in ra.types]
        assert max(values) - min(values) < 1e-9


def test_all_groups_match_reference(graph_data):
    for triple in TABLE:
        res = upper_bound(graph_data[triple]["reduced"])
        assert res.rho_T == pytest.approx(UPPER_BOUNDS[triple], abs=1e-9), triple
        assert res.fold_residual < 1e-10


def test_tree_certified_upper(tree_reduced):
    cert = upper_bound(tree_reduced).certified_upper
    assert isinstance(cert, Fraction)
    # cert > 2 sqrt 2 / 3 exactly, since both sides are positive
    assert cert * cert > Fraction(8, 9)
    assert float(cert) - TREE_RHO <= 2e-9


def test_certificate_rejects_non_post_fixed_points(tree_reduced, data444):
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra, default_root_type(ra))
        fold = fold_point(spec)
        z = Fraction(fold.R_F * (1.0 - CERT_MARGIN))
        assert is_post_fixed_point(spec, z, fold.w)
        assert not is_post_fixed_point(spec, z, -fold.w)
        # past the fold no w is a post-fixed point
        past = Fraction(fold.R_F * (1.0 + 1e-6))
        assert not is_post_fixed_point(spec, past, fold.w)
        assert not is_post_fixed_point(spec, past, 2.0 * fold.w)
        # a shrunken w violates some row; on the tree only at second order
        # in the shrinkage, so check it at the fold, where no margin hides it
        assert not is_post_fixed_point(spec, Fraction(fold.R_F), fold.w * (1.0 - 1e-6))
    # on (4,4,4) the violation is first order, far above the margin
    assert not is_post_fixed_point(spec, z, fold.w * (1.0 - 1e-6))


def test_certificate_demands_first_return_below_one():
    # with r_root = 0 the root row allows F = 1; only the strict root check
    # rejects w = 1/z, where Phi(z, w) = z w^2 = w
    ra = ReducedAutomaton(types=(0,), M=np.array([[3]]), d=np.array([3]),
                          r=np.array([0]), p=1)
    spec = tree_walk_spec(ra, 0)
    assert first_return_value(spec, 1.0, np.array([1.0])) == 1.0
    assert not is_post_fixed_point(spec, Fraction(1), np.array([1.0]))
    assert is_post_fixed_point(spec, Fraction(1), np.array([0.5]))


def test_every_summit_root_is_certified(data444, data237):
    for data in [data444, data237]:
        ra = data["reduced"]
        for t, rv in zip(ra.types, ra.r):
            if rv != 2:
                continue
            res = upper_bound(ra, root_type=int(t))
            assert res.certified_upper is not None, t
            gap = res.certified_upper - Fraction(res.rho_T)
            assert 0 < gap <= 2e-9, (t, float(gap))
