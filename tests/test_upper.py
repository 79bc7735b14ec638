"""Tree-walk fixed point, fold detection, and the upper spectral-radius bound."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import conetypes
from conetypes import (
    Diverged,
    NotConverged,
    ReducedAutomaton,
    automaton_from_json,
    extract_automaton,
    first_return_value,
    fold_point,
    is_below_least,
    is_post_fixed_point,
    lower_bound,
    minimal_fixed_point,
    new_params,
    perron,
    reduce_automaton,
    run_from_automaton,
    tilde_matrix,
    tree_walk_spec,
    upper_bound,
)
from conetypes.cli import main
from conetypes.upper import CERT_MARGIN
from conftest import DOCUMENTS, HYPERBOLIC_12, TABLE, UPPER_BOUNDS, counted_solves
from reference import below_least_fractions, least_fixed_point, post_fixed_point_fractions

# on the trivalent tree everything is solvable in closed form:
# Phi_z(w) = z/3 + (2z/3) w^2, fold at z = 3/(2 sqrt 2), rho = 2 sqrt 2 / 3
TREE_RF = 3.0 / (2.0 * math.sqrt(2.0))
TREE_RHO = 2.0 * math.sqrt(2.0) / 3.0


def tree_w(z):
    return (1.0 - math.sqrt(1.0 - 8.0 * z * z / 9.0)) / (4.0 * z / 3.0)


@contextmanager
def recorded_polish():
    """The (w, u, z, residual, steps) of every bordered Newton run inside."""
    import conetypes.upper as upper

    polish, polished = upper._fold_newton, []

    def recorded(*args):
        polished.append(polish(*args))
        return polished[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(upper, "_fold_newton", recorded)
        yield polished


def solve_with_x(spec, z, w0=None):
    """The least fixed point w below the fold from the reference solve, its
    Newton steps, and x = (I - J(w))^-1 1 > 0 at w, where rho(J(w)) < 1."""
    w, steps = least_fixed_point(spec, z, w0)
    J = jacobian(spec, z, w)
    x = np.linalg.solve(np.eye(J.shape[0]) - J, np.ones(J.shape[0]))
    assert (x > 0).all() and eig_radius(spec, z, w) < 1.0
    return w, steps, x


def least_solution_exists(z, steps=None):
    """pytest.raises for minimal_fixed_point's refusal at a z where Newton
    converged (in the given number of steps), so a least solution exists."""
    tail = "" if steps is None else f"{steps} steps$"
    return pytest.raises(NotConverged, match="^" + re.escape(
        f"a least solution exists at z = {z}: converged in ") + tail)


def start_below(w, u, offset):
    """w - t u with t = offset max(w) / max(u): fold_point's confirm start
    at offset sqrt(CERT_MARGIN)."""
    return w - offset * w.max() / u.max() * u


def jacobian(spec, z, w):
    """J(w)_ij = z (delta_ij sum_k M_ik w_k + w_i M_ij) / d, built from the
    integer M and the degree."""
    M = spec.ra.M
    return z * (np.diag(M @ w) + w[:, None] * M) / spec.ra.degree


def eig_radius(spec, z, w):
    """max |eig J(w)|."""
    return float(np.max(np.abs(np.linalg.eigvals(jacobian(spec, z, w)))))


def bound_from_root(ra, i):
    """upper_bound with the tree walk rooted at the i-th reduced type:
    (rho_T, certified_upper, fold), checking F(R_F) < 1 from that root."""
    spec = replace(tree_walk_spec(ra), root=i)
    fold = fold_point(spec)
    assert first_return_value(spec, fold.R_F, fold.w) < 1.0, (ra.types, i)
    return 1.0 / fold.R_F, 1 / fold.certified_z, fold


def singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def test_spec_probabilities(tree_reduced):
    spec = tree_walk_spec(tree_reduced)
    assert spec.p_minus == pytest.approx([1.0 / 3.0])
    assert spec.Mp == pytest.approx(np.array([[2.0 / 3.0]]))  # two arcs, 1/3 each
    assert spec.ra.degree == 3


def test_spec_balance_all_groups(graph_data):
    # p_{-i} + sum_j M_ij / d = 1 holds for every group's reduced set
    for triple in TABLE:
        ra = graph_data[triple]["reduced"]
        spec = tree_walk_spec(ra)
        balance = spec.p_minus + spec.Mp.sum(axis=1)
        assert np.allclose(balance, 1.0, atol=1e-12)


def test_tree_fixed_point_closed_form(tree_reduced):
    # below the fold the reference solve's least fixed point is the closed
    # form, and the library's solve, which only proves that none exists,
    # refuses each z
    spec = tree_walk_spec(tree_reduced)
    for z in [0.2, 0.5, 0.9, 1.0, 1.05]:
        w, steps = least_fixed_point(spec, z)
        assert w[0] == pytest.approx(tree_w(z), abs=1e-12)
        with least_solution_exists(z, steps):
            minimal_fixed_point(spec, z, np.zeros(1))
    assert least_fixed_point(spec, 1.0)[0][0] == pytest.approx(0.5, abs=1e-13)


def test_fixed_point_monotone_in_z(tree_reduced, data444):
    # the reference solve's least fixed point grows with z
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra)
        prev = np.zeros(len(ra.types))
        for z in np.linspace(0.1, 1.0, 10):
            w, _ = least_fixed_point(spec, float(z))
            assert (w >= prev - 1e-13).all()
            prev = w


def test_divergence_past_fold(tree_reduced):
    spec = tree_walk_spec(tree_reduced)
    out = minimal_fixed_point(spec, 1.2, np.zeros(1))
    assert isinstance(out, Diverged)


def test_newton_fast_just_below_fold(tree_reduced, data444):
    # Newton from 0 needs a few dozen steps next to the fold; plain
    # fixed-point iteration needs ~3e5 there.  The library's solve from 0
    # converges in as many steps as the reference solve, and so refuses z
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra)
        z = fold_point(spec).R_F * (1.0 - 1e-9)
        w, steps, _ = solve_with_x(spec, z)
        assert steps <= 60
        residual = np.max(np.abs(z * (spec.p_minus + w * (spec.Mp @ w)) - w))
        assert residual < 1e-13
        with least_solution_exists(z, steps):
            minimal_fixed_point(spec, z, np.zeros(len(ra.types)))


def test_newton_diverges_just_above_fold(tree_reduced, data444):
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra)
        R_F = fold_point(spec).R_F
        out = minimal_fixed_point(spec, R_F * (1.0 + 1e-9), np.zeros(len(ra.types)))
        assert isinstance(out, Diverged)
        assert out.iterations <= 100


def test_newton_tree_closed_form_near_fold(tree_reduced):
    spec = tree_walk_spec(tree_reduced)
    # below the fold the reference solve is accurate to its roundoff floor,
    # about eps / sqrt(1 - z/R_F)
    for gap in [1e-3, 1e-6, 1e-9]:
        z = TREE_RF * (1.0 - gap)
        assert least_fixed_point(spec, z)[0][0] == pytest.approx(tree_w(z), abs=1e-10)
    # the confirmed fold, solvable just below and Diverged just above, holds
    # the exact fold; the value 1/sqrt(2) at the fold itself is checked on the
    # polished fold point, since at the rounded fold even the closed form is
    # ~sqrt(eps) off
    fold = fold_point(spec)
    assert fold.R_F * (1.0 - 1e-9) <= TREE_RF <= fold.R_F * (1.0 + 1e-9)


def test_tree_fold_point(tree_reduced):
    spec = tree_walk_spec(tree_reduced)
    with recorded_polish() as polished:
        fold = fold_point(spec)
    assert fold.R_F == pytest.approx(TREE_RF, abs=1e-12)
    # the search has no fallback: a constant the benchmark reads, not a field
    assert not fold.fallback and "fallback" not in {f.name for f in fields(fold)}
    assert fold.residual < 1e-10
    # minimal solution at the fold: w = 1/sqrt(2), Jacobian has eigenvalue 1
    assert fold.w[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
    # the polished null vector u of J - I keeps its normalization
    [(_, u, z, _, _)] = polished
    assert z == fold.R_F
    assert abs(u).sum() == pytest.approx(1.0, abs=1e-12)


def test_fold_off_the_fold_raises(tree_reduced, data444, monkeypatch):
    # a polished z 1e-6 past the fold fails the exact check below it, and
    # 1e-6 short of it the start check above it; a z not above 1 or a u not
    # positive is refused; so is a polish stopped short of the fold, at
    # z = R_F (1 - 1e-4) with the least solution there from the reference
    # solve: it passes both exact checks, but the confirm just above it
    # converges, and minimal_fixed_point refuses it
    import conetypes.upper as upper

    polish, least = upper._fold_newton, {}

    def short(spec, w, u, z):
        z *= 1.0 - 1e-4
        if z not in least:
            least[z] = least_fixed_point(spec, z)[0]
        return least[z], u, z

    def changed_by(change):
        def changed(spec, w0, u0, z0):
            w, u, z, res, steps = polish(spec, w0, u0, z0)
            return (*change(spec, w, u, z), res, steps)

        return changed

    cases = [(lambda spec, w, u, z: (w, u, z + 1e-6), "is no post-fixed point"),
             (lambda spec, w, u, z: (w, u, z - 1e-6), "^no start proven below"),
             (lambda spec, w, u, z: (w, u, 1.0), "not above 1 or u not positive"),
             (lambda spec, w, u, z: (w, -u, z), "not above 1 or u not positive"),
             (short, "^a least solution exists at z = ")]
    for ra in [tree_reduced, data444["reduced"]]:
        for change, message in cases:
            monkeypatch.setattr(upper, "_fold_newton", changed_by(change))
            with pytest.raises(NotConverged, match=message):
                fold_point(tree_walk_spec(ra))


def test_fold_refused_without_the_certificate(tree_reduced, data444, monkeypatch):
    # the exact post-fixed-point check confirms the fold from below: a
    # polished fold it does not prove is refused
    import conetypes.upper as upper

    monkeypatch.setattr(upper, "is_post_fixed_point", lambda spec, z, w: False)
    for ra in [tree_reduced, data444["reduced"]]:
        with pytest.raises(NotConverged):
            fold_point(tree_walk_spec(ra))


def test_fold_refused_without_a_proven_start(tree_reduced, data444, monkeypatch):
    # the Diverged confirm above the fold means "no solution there" only
    # from a start the exact check proves below the least solution
    import conetypes.upper as upper

    monkeypatch.setattr(upper, "is_below_least", lambda spec, z, v, x: False)
    for ra in [tree_reduced, data444["reduced"]]:
        with pytest.raises(NotConverged):
            fold_point(tree_walk_spec(ra))


def test_step_cap_is_no_evidence_of_divergence(data444, monkeypatch):
    # running out of steps shows neither a solution nor its absence: at
    # z = 1, below the fold, Newton from 0 converges in 7 steps, as in the
    # reference solve, and is refused; cut at 3 it raises instead of
    # reporting Diverged; and a confirm above the fold cut at 1 step is not
    # taken for a divergence
    import conetypes.upper as upper

    spec = tree_walk_spec(data444["reduced"])
    zeros = np.zeros(len(spec.r))
    assert least_fixed_point(spec, 1.0)[1] == 7
    with least_solution_exists(1.0, 7):
        minimal_fixed_point(spec, 1.0, zeros)
    monkeypatch.setattr(upper, "STEP_CAP", 3)
    with pytest.raises(NotConverged, match="^3 Newton steps at z = 1.0 neither converged"):
        minimal_fixed_point(spec, 1.0, zeros)
    monkeypatch.setattr(upper, "STEP_CAP", 1)
    with pytest.raises(NotConverged, match="^1 Newton steps at z = .* neither converged"):
        fold_point(spec)


def test_fixed_point_singular_system_diverges(data444, monkeypatch):
    # a singular I - J at the current w puts z past the fold
    monkeypatch.setattr(np.linalg, "solve", singular)
    spec = tree_walk_spec(data444["reduced"])
    assert minimal_fixed_point(spec, 1.0, np.zeros(len(spec.r))) == Diverged(iterations=1)


def test_fixed_point_blow_up_diverges(tree_reduced, monkeypatch):
    # past the tree's fold, at z = 1.2, from just below w = 3/(4z), where
    # J = 4zw/3 = 1: the first step passes DIVERGENCE_CAP.  With the cap
    # raised, the same solve diverges one step later on an x of the wrong
    # sign, so the first result is the blow-up exit's
    import conetypes.upper as upper

    spec, z = tree_walk_spec(tree_reduced), 1.2
    w0 = np.array([3.0 / (4.0 * z) - 1e-9])
    assert minimal_fixed_point(spec, z, w0) == Diverged(iterations=1)
    monkeypatch.setattr(upper, "DIVERGENCE_CAP", 1e9)
    assert minimal_fixed_point(spec, z, w0) == Diverged(iterations=2)


def test_bordered_newton_failures(data444, monkeypatch):
    # _fold_newton raises NotConverged on a singular bordered matrix, on a
    # step that takes z to 0, below it or to NaN, and after 60 steps without
    # a residual below FOLD_TOL; fold_point passes the same error on
    import conetypes.upper as upper

    spec = tree_walk_spec(data444["reduced"])
    start = (spec, *upper._radial_fold(spec))
    z0 = start[-1]
    failed = "^" + re.escape(f"bordered Newton failed from the radial-walk fold z = {z0}") + "$"
    assert upper._fold_newton(*start)[3] < upper.FOLD_TOL
    solve = np.linalg.solve
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "solve", singular)
        with pytest.raises(NotConverged, match=failed):
            upper._fold_newton(*start)
    for z_step in [z0, z0 + 1.0, math.nan]:  # z = z0 - z_step: 0, -1, NaN
        def bad_z(a, b, z_step=z_step):
            step = solve(a, b)
            step[-1] = z_step
            return step

        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "solve", bad_z)
            with pytest.raises(NotConverged, match=failed):
                upper._fold_newton(*start)
    solves = []

    def counted(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(upper, "FOLD_TOL", 0.0)
    monkeypatch.setattr(np.linalg, "solve", counted)
    with pytest.raises(NotConverged, match=failed):
        upper._fold_newton(*start)
    assert len(solves) == 60
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(NotConverged, match=failed):
        fold_point(spec)


def test_fold_search_refuses_a_walk_that_never_steps_back():
    # a valid cta-1 document whose one row of M sums to d: r = 0, so the
    # least solution is 0 at every z and the radial walk, with pbar = 0, has
    # no fold to start from; the upper stage records the refusal
    doc = {"schema": "cta-1", "K_total": 1, "M": [[3]], "d": [3], "r": [0], "root_type": 0,
           "reduced": {"types": [0], "M": [[3]], "p": 1}}
    _, ra = automaton_from_json(json.dumps(doc))
    message = "no radial-walk fold at mean step-back probability 0.0"
    with pytest.raises(NotConverged, match=f"^{message}$"):
        upper_bound(ra)
    report = run_from_automaton(json.dumps(doc))
    assert not report.ok and report.diagnostics["errors"]["upper"] == message


def test_upper_bound_refuses_a_first_return_value_of_one(data444, monkeypatch):
    import conetypes.upper as upper

    monkeypatch.setattr(upper, "first_return_value", lambda spec, z, w: 1.0)
    with pytest.raises(NotConverged, match="^first-return value 1.0 >= 1 at the fold point$"):
        upper_bound(data444["reduced"])


def test_fold_needs_no_eigen_solve(tree_reduced, data444, monkeypatch):
    # the bordered Newton is seeded with u = 1/K in closed form, not an eigenvector
    def no_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    fold = fold_point(tree_walk_spec(tree_reduced))
    assert fold.R_F == pytest.approx(TREE_RF, abs=1e-12)
    ra = data444["reduced"]
    fold = fold_point(tree_walk_spec(ra))
    assert 1.0 / fold.R_F == pytest.approx(UPPER_BOUNDS[(4, 4, 4)], abs=1e-9)


def test_warm_start_matches_cold_solve(tree_reduced, data444):
    # the reference solve: Newton from the least solution at a smaller z
    # rises to the same least solution, in no more steps than from 0.  Within 1e-7 of the fold the
    # fixed point itself is only defined to about eps ||(I - J)^-1||_inf
    # (5e-12 at 1e-9 on the tree, where both solves have residual 0), so
    # the two agree to 1e-12 or to four times that, whichever is larger
    eps = np.finfo(float).eps
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra)
        R_F = fold_point(spec).R_F
        gaps = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
        prev, _ = least_fixed_point(spec, 1.0)
        for z in [R_F * (1.0 - gap) for gap in gaps]:
            cold, cold_steps, x = solve_with_x(spec, z)
            warm, warm_steps = least_fixed_point(spec, z, prev)
            tol = max(1e-12, 4 * eps * x.max())
            assert np.max(np.abs(warm - cold)) <= tol, z
            assert warm_steps <= cold_steps, z
            prev = warm


def test_fold_search_solve_count(tree_reduced, data444, data237):
    # one solve, the confirm above the fold, Diverged in 2 Newton steps,
    # from every root type, as on the committed documents; the bordered
    # Newton starts in closed form
    runs = [(tree_reduced, 0)] + [(data["reduced"], i) for data in [data444, data237]
                                  for i in range(len(data["reduced"].types))]
    for ra, i in runs:
        with counted_solves() as solves:
            _, _, fold = bound_from_root(ra, i)
        [(z, confirm)] = solves
        assert z > fold.R_F, (ra.types, i)
        assert isinstance(confirm, Diverged), (ra.types, i)
        assert fold.newton_steps == confirm.iterations == 2, (ra.types, i)


def test_tree_first_return_value(tree_reduced):
    spec = tree_walk_spec(tree_reduced)
    # F(z) = z * 2 w(z) / 3; at the fold this equals 1/2
    w, _ = least_fixed_point(spec, 1.0)
    assert first_return_value(spec, 1.0, w) == pytest.approx(1.0 / 3.0, abs=1e-12)
    fold = fold_point(spec)
    assert first_return_value(spec, fold.R_F, fold.w) == pytest.approx(0.5, abs=1e-10)


def test_tree_upper_bound(tree_reduced):
    # the radial walk's fold is the tree's own: the bordered Newton starts
    # with a residual below FOLD_TOL and makes no linear solve
    res = upper_bound(tree_reduced)
    assert res.fold.bordered_steps == 0
    assert res.fold.R_F == pytest.approx(TREE_RF, abs=1e-15)
    assert res.F_at_RF == pytest.approx(0.5, abs=1e-10)
    assert res.rho_T == pytest.approx(TREE_RHO, abs=1e-10)


def test_jacobian_radius_is_one_at_the_fold(tree_reduced, data444):
    # the polished fold solves J u = u with u > 0, so rho(J(R_F, w)) = 1;
    # also on the 269 triples of the atlas, each in 1 solve, where the
    # reference solve just below R_F from the z = 1 solution converges with
    # rho(J) < 1, and where, at R_F (1 - CERT_MARGIN), a start built as the
    # confirm's but 100 times further from the fold passes the exact check
    # and the library's solve from it converges and is refused: so neither
    # the check nor the Diverged confirm just above R_F is vacuous.
    # From the radial walk's fold the bordered Newton makes at most 5
    # linear solves on a triple, 1,108 over the atlas (from z = 1 it made
    # up to 6, 1,539 in all)
    atlas = [reduce_automaton(extract_automaton(new_params(*t))) for t in HYPERBOLIC_12]
    bordered = []
    for ra in [tree_reduced, data444["reduced"], *atlas]:
        spec = tree_walk_spec(ra)
        with recorded_polish() as polished:
            fold = fold_point(spec)
        [(_, u, _, _, _)] = polished
        with counted_solves() as solves:
            res = upper_bound(ra)
        assert fold.R_F == res.fold.R_F and len(solves) == 1, ra.types
        assert fold.bordered_steps <= 5, ra.types
        bordered.append(fold.bordered_steps)
        assert eig_radius(spec, fold.R_F, fold.w) == pytest.approx(1.0, abs=1e-6)
        start, _ = least_fixed_point(spec, 1.0)
        below, _ = least_fixed_point(spec, fold.R_F * (1.0 - 1e-7), start)
        assert eig_radius(spec, fold.R_F * (1.0 - 1e-7), below) < 1.0, ra.types
        z = fold.R_F * (1.0 - CERT_MARGIN)
        v = start_below(fold.w, u, 100.0 * math.sqrt(CERT_MARGIN))
        assert is_below_least(spec, Fraction(z), v, u), ra.types
        with least_solution_exists(z):
            minimal_fixed_point(spec, z, v)
    assert sum(bordered[2:]) <= 1150


def test_444_upper_bound(data444):
    res = upper_bound(data444["reduced"])
    assert res.rho_T == pytest.approx(UPPER_BOUNDS[(4, 4, 4)], abs=1e-9)


def test_upper_bound_root_independent(data444, data237):
    # the certified radius does not depend on which type roots the tree walk
    for data in [data444, data237]:
        ra = data["reduced"]
        values = [bound_from_root(ra, i)[0] for i in range(len(ra.types))]
        assert max(values) - min(values) < 1e-9
        assert upper_bound(ra).rho_T in values


def test_all_groups_match_reference(graph_data):
    for triple in TABLE:
        res = upper_bound(graph_data[triple]["reduced"])
        assert res.rho_T == pytest.approx(UPPER_BOUNDS[triple], abs=1e-9), triple
        assert res.fold.residual < 1e-10


def test_tree_certified_upper(tree_reduced):
    cert = upper_bound(tree_reduced).certified_upper
    assert isinstance(cert, Fraction)
    # cert > 2 sqrt 2 / 3 exactly, since both sides are positive
    assert cert * cert > Fraction(8, 9)
    assert float(cert) - TREE_RHO <= 2e-9


def test_certificate_rejects_non_post_fixed_points(tree_reduced, data444):
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra)
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
    ra = ReducedAutomaton(types=(0,), M=np.array([[3]]), degree=3, p=1)
    spec = tree_walk_spec(ra)
    assert first_return_value(spec, 1.0, np.array([1.0])) == 1.0
    assert not is_post_fixed_point(spec, Fraction(1), np.array([1.0]))
    assert is_post_fixed_point(spec, Fraction(1), np.array([0.5]))


def test_every_summit_root_is_certified(data444, data237):
    for data in [data444, data237]:
        ra = data["reduced"]
        for i, rv in enumerate(ra.r):
            if rv != 2:
                continue
            rho_T, certified_upper, _ = bound_from_root(ra, i)
            gap = certified_upper - Fraction(rho_T)
            assert 0 < gap <= 2e-9, (ra.types[i], float(gap))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_certificate_refuses_non_finite_w(tree_reduced, data444, bad):
    # a non-finite w proves nothing; the check fails instead of raising
    for ra in [tree_reduced, data444["reduced"]]:
        spec = tree_walk_spec(ra)
        fold = fold_point(spec)
        z = Fraction(fold.R_F * (1.0 - CERT_MARGIN))
        w = fold.w.copy()
        w[-1] = bad
        assert is_post_fixed_point(spec, z, w) is False


def test_every_root_of_the_committed_documents_is_certified():
    # 402 (document, root type) pairs: each bound is certified from the
    # closed-form start in one solve, the Diverged confirm in 2 Newton
    # steps, with at most 5 bordered steps, and rho_T does not depend on
    # the root
    pairs = 0
    for path in DOCUMENTS:
        _, ra = automaton_from_json(path.read_text())
        values = []
        for i in range(len(ra.types)):
            with counted_solves() as solves:
                rho_T, certified_upper, fold = bound_from_root(ra, i)
            assert isinstance(certified_upper, Fraction), (path.name, i)
            assert 0 < certified_upper - Fraction(rho_T) <= 2e-9, (path.name, i)
            [(_, confirm)] = solves
            assert isinstance(confirm, Diverged), (path.name, i)
            assert fold.newton_steps == confirm.iterations == 2, (path.name, i)
            assert fold.bordered_steps <= 5, (path.name, i)
            values.append(rho_T)
            pairs += 1
        assert max(values) - min(values) <= 1e-12 * max(values), path.name
    assert pairs == 402


def certificate_points(R_F):
    """z at the certificate margin, at the fold, and just past it."""
    return [Fraction(R_F * (1.0 - CERT_MARGIN)), Fraction(R_F), Fraction(R_F * (1.0 + 1e-6))]


def start_points(R_F):
    """z at the confirm above the fold, at the certificate margin below it,
    and at the fold."""
    return [Fraction(R_F * (1.0 + CERT_MARGIN)), Fraction(R_F * (1.0 - CERT_MARGIN)),
            Fraction(R_F)]


@pytest.fixture(scope="module")
def committed_folds(tree_reduced):
    """(spec, polished fold, polished u) of the tree and of every committed
    document at each r = 2 root."""
    specs = [tree_walk_spec(tree_reduced)]
    for path in DOCUMENTS:
        _, ra = automaton_from_json(path.read_text())
        specs += [replace(tree_walk_spec(ra), root=i) for i, rv in enumerate(ra.r) if rv == 2]
    with recorded_polish() as polished:
        folds = [fold_point(spec) for spec in specs]
    return [(spec, fold, u) for spec, fold, (_, u, _, _, _) in zip(specs, folds, polished)]


def test_integer_certificate_matches_fraction_oracle(committed_folds):
    assert len(DOCUMENTS) == 28
    for spec, fold, _ in committed_folds:
        w = fold.w
        assert is_post_fixed_point(spec, certificate_points(fold.R_F)[0], w)
        for wv in [w, -w, 2.0 * w, w * (1.0 - 1e-6)]:
            for z in certificate_points(fold.R_F):
                assert is_post_fixed_point(spec, z, wv) == \
                    post_fixed_point_fractions(spec, z, wv), (spec.ra.types, spec.root)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_certificate_matches_oracle_on_perturbed_w(committed_folds, data):
    # w + k 2^e, k a small integer per type: dyadic perturbations on both
    # sides of the certificate margin (about 2^-30 relative)
    spec, fold, _ = data.draw(st.sampled_from(committed_folds), label="fold")
    e = data.draw(st.integers(-60, -20), label="exponent")
    k = data.draw(st.lists(st.integers(-8, 8), min_size=fold.w.size,
                           max_size=fold.w.size), label="k")
    w = fold.w + np.ldexp(np.array(k, dtype=float), e)
    z = data.draw(st.sampled_from(certificate_points(fold.R_F)), label="z")
    assert is_post_fixed_point(spec, z, w) == post_fixed_point_fractions(spec, z, w)


def test_start_check_matches_fraction_oracle(committed_folds):
    # fold_point's start passes at the confirm above the fold; the fold
    # solution itself, where J u = u, and the start reflected or doubled fail
    for spec, fold, u in committed_folds:
        v = start_below(fold.w, u, math.sqrt(CERT_MARGIN))
        assert is_below_least(spec, start_points(fold.R_F)[0], v, u)
        for vv in [v, fold.w, -v, 2.0 * v]:
            for z in start_points(fold.R_F):
                assert is_below_least(spec, z, vv, u) == \
                    below_least_fractions(spec, z, vv, u), (spec.ra.types, spec.root)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_start_check_matches_oracle_on_perturbed_v(committed_folds, data):
    # v + k 2^e, k a small integer per type: dyadic perturbations of the
    # confirm's start on both sides of its Phi(v) >= v margin (about 2^-30
    # relative at the confirm's z)
    spec, fold, u = data.draw(st.sampled_from(committed_folds), label="fold")
    e = data.draw(st.integers(-60, -20), label="exponent")
    k = data.draw(st.lists(st.integers(-8, 8), min_size=u.size, max_size=u.size), label="k")
    v = start_below(fold.w, u, math.sqrt(CERT_MARGIN)) + np.ldexp(np.array(k, dtype=float), e)
    z = data.draw(st.sampled_from(start_points(fold.R_F)), label="z")
    assert is_below_least(spec, z, v, u) == below_least_fractions(spec, z, v, u)


def test_start_check_refuses_points_above_the_least_solution(tree_reduced, data444):
    # at z = R_F (1 - 1e-4), with w the least solution and x = (I - J)^-1 1
    # > 0 from its solve: no point above w passes, as the check proves its
    # point below every fixed point; w - 1e-6 x passes, since there
    # Phi(v) - v = 1e-6 (I - J) x + O(1e-12) = 1e-6 + O(1e-12)
    tree_spec = tree_walk_spec(tree_reduced)
    for spec in [tree_spec, tree_walk_spec(data444["reduced"])]:
        z = fold_point(spec).R_F * (1.0 - 1e-4)
        w, _, x = solve_with_x(spec, z)
        z = Fraction(z)
        assert not is_below_least(spec, z, w * (1.0 + 1e-6), x)
        assert not is_below_least(spec, z, w + 1e-6 * x, x)
        assert is_below_least(spec, z, w - 1e-6 * x, x)
        # a scaled-down w has Phi(v) - v = 1e-6 (2 z p_minus - w) + O(1e-12):
        # it passes on the tree, where w < 2 z p_minus, and fails on
        # (4,4,4), where some w_i exceeds 2 z p_minus_i
        assert is_below_least(spec, z, w * (1.0 - 1e-6), x) == (spec is tree_spec)


@pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, -math.inf])
def test_start_check_refuses_bad_entries(committed_folds, bad):
    # a negative or non-finite entry in v or x proves nothing: the check
    # fails instead of raising
    for spec, fold, u in committed_folds:
        z = start_points(fold.R_F)[0]
        v = start_below(fold.w, u, math.sqrt(CERT_MARGIN))
        bad_v, bad_x = v.copy(), u.copy()
        bad_v[-1] = bad_x[-1] = bad
        assert is_below_least(spec, z, bad_v, u) is False
        assert is_below_least(spec, z, v, bad_x) is False


def test_start_check_refuses_x_with_a_zero_entry(committed_folds):
    for spec, fold, u in committed_folds:
        v = start_below(fold.w, u, math.sqrt(CERT_MARGIN))
        x = u.copy()
        x[0] = 0.0
        assert is_below_least(spec, start_points(fold.R_F)[0], v, x) is False


def test_fold_search_work_on_committed_documents():
    # 1 solve per document, the Diverged confirm in 2 Newton steps, as the
    # README states; the bordered Newton's linear solves are the search's
    # work over the 28 documents when this test was written, so more fail
    # here.  The bordered Newton starts at the radial walk's fold: 4 or 5
    # solves a document, 114 in all (from Newton's first step from 0 at
    # z = 1 it took up to 6, 149 in all)
    totals = Counter()
    for path in DOCUMENTS:
        with counted_solves() as solves:
            fold = run_from_automaton(path.read_text()).diagnostics["fold"]
        [(_, confirm)] = solves
        assert isinstance(confirm, Diverged), path.name
        assert set(fold) == {"newton_steps", "bordered_steps"}, path.name
        assert fold["newton_steps"] == confirm.iterations == 2, path.name
        assert fold["bordered_steps"] <= 5, path.name
        totals.update(fold, solves=1)
    assert len(DOCUMENTS) == 28
    assert totals["solves"] == 28
    assert totals["newton_steps"] == 56
    assert totals["bordered_steps"] <= 120


LARGE_TRIPLES = [(56, 56, 56), (60, 60, 60), (64, 64, 64), (3, 68, 68), (30, 40, 50),
                 (37, 41, 43), (61, 67, 71), (2, 3, 97)]

# prints the CPU time of upper_bound and lower_bound over the triples in argv[1]
TIMED_BOUNDS = """
import json, sys, time
from conetypes import extract_automaton, lower_bound, new_params, reduce_automaton, upper_bound
elapsed = 0.0
for triple in json.loads(sys.argv[1]):
    ra = reduce_automaton(extract_automaton(new_params(*triple)))
    start = time.process_time()
    upper_bound(ra)
    lower_bound(ra)
    elapsed += time.process_time() - start
print(elapsed)
"""


def test_upper_bound_on_large_triples():
    # K from 58 to 396: every stage runs, the fold search is still the
    # closed-form start and the one Diverged confirm, the certificate lies
    # within 2e-12 of rho_T, and the Perron vector of M~, whose smallest
    # entries fall below 1e-16 of the largest from (56,56,56) on, is
    # positive, each entry's residual within 1e-12 of the entry itself.
    # The work is bounded by counts: two Newton steps and at most six
    # bordered steps
    for triple in LARGE_TRIPLES:
        ra = reduce_automaton(extract_automaton(new_params(*triple)))
        with counted_solves() as solves:
            upper = upper_bound(ra)
            lower = lower_bound(ra)
        [(_, confirm)] = solves
        assert isinstance(confirm, Diverged), triple
        assert upper.fold.newton_steps == 2, triple
        assert upper.fold.bordered_steps <= 6, triple
        # the proven upper bound: at (60,60,60) lower and rho_T agree to
        # within their rounding (the float lower lies 2 ulps above rho_T)
        assert lower.bound <= upper.certified_upper, triple
        assert float(upper.certified_upper - Fraction(upper.rho_T)) <= 2e-12, triple
        T = tilde_matrix(ra)
        nu, A, _ = perron(T)
        assert np.max(np.abs(T @ A - nu * A) / A) <= 1e-12, triple
    # The budget is CPU time, taken in a child interpreter with one BLAS
    # thread: CPU time counts every thread of a process, and a BLAS pool's
    # threads spin longer while other load holds the cores
    src = str(Path(conetypes.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", TIMED_BOUNDS, json.dumps(LARGE_TRIPLES)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 3.0
    result = CliRunner().invoke(main, ["bounds", "56", "56", "56"])
    assert result.exit_code == 0, result.output
    assert "error[lower]" not in result.output
