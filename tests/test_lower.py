"""Sphere-recursion eigenvalue, symmetrization, and the lower bound."""

import math

import numpy as np
import pytest

from conetypes import (
    NotConverged,
    ReducedAutomaton,
    ZeroPredecessor,
    lower_bound,
    perron,
    symmetrize,
    tilde_matrix,
)
from conftest import LOWER_BOUNDS, TABLE

TILDE_444 = np.array([
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 2.0],
    [0.0, 0.5, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
])


def test_tilde_matrix_444(data444):
    assert np.allclose(tilde_matrix(data444["reduced"]), TILDE_444, atol=0)


def test_tilde_matrix_requires_predecessors():
    # every arc of the 3-regular graph leads forward: r = 3 - 3 = 0
    ra = ReducedAutomaton(types=(0,), M=np.array([[3]]), degree=3, p=1)
    with pytest.raises(ZeroPredecessor):
        tilde_matrix(ra)


def test_perron_scalar():
    val, vec, res = perron(np.array([[2.0]]))
    assert val == pytest.approx(2.0, abs=1e-14)
    assert vec == pytest.approx([1.0])
    assert res < 1e-12


def test_perron_matches_dense_eigensolver(data444):
    rng = np.random.default_rng(13)
    mats = [tilde_matrix(data444["reduced"]), rng.uniform(0.1, 2.0, (6, 6))]
    for mat in mats:
        val, vec, res = perron(mat)
        eigvals, eigvecs = np.linalg.eig(mat)
        k = int(np.argmax(eigvals.real))
        assert val == pytest.approx(float(eigvals[k].real), abs=1e-11)
        ref = np.abs(eigvecs[:, k].real)
        ref /= ref.sum()
        assert np.allclose(vec, ref, atol=1e-9)
        assert res < 1e-12
        assert (vec > 0).all()


def test_symmetrize_scale_invariant(data444):
    ra = data444["reduced"]
    val, A, _ = perron(tilde_matrix(ra))
    S1 = symmetrize(ra, A)
    S2 = symmetrize(ra, 7.5 * A)
    assert np.allclose(S1, S2, atol=1e-14)
    assert np.allclose(S1, S1.T, atol=0)


@pytest.mark.parametrize("bad", [0.0, -0.25])
def test_symmetrize_rejects_nonpositive_vector(data444, bad):
    ra = data444["reduced"]
    A = np.full(len(ra.types), 0.25)
    A[1] = bad
    with pytest.raises(NotConverged):
        symmetrize(ra, A)


def test_tree_bound_is_exact(tree_reduced):
    # on the tree the comparison bound is tight: 2 sqrt 2 / 3
    res = lower_bound(tree_reduced)
    assert res.nu == pytest.approx(2.0, abs=1e-13)
    assert res.lam == pytest.approx(2.0, abs=1e-13)
    assert res.bound == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


@pytest.mark.parametrize("change,message", [
    (lambda v: v * np.where(v == v.max(), -1.0, 1.0), "the Perron vector is not positive"),
    (lambda v: v * (1.0 + 1e-6 * np.arange(v.size)), "Perron residual .* is not below"),
])
def test_perron_refuses_a_bad_eigenvector(data444, monkeypatch, change, message):
    # a Perron vector with an entry of the wrong sign, or one off by a
    # relative 1e-6 per entry, is refused
    eig = np.linalg.eig

    def changed(mat):
        vals, vecs = eig(mat)
        k = int(np.argmax(vals.real))
        vecs = vecs.copy()
        vecs[:, k] = change(vecs[:, k])
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", changed)
    with pytest.raises(NotConverged, match=message):
        perron(tilde_matrix(data444["reduced"]))


def test_lambda_residual_is_checked(data444, monkeypatch):
    # an eigenvector of M'' off by 1e-9 fails the residual check, as the
    # Perron vector's does
    eigh = np.linalg.eigh

    def perturbed(mat):
        vals, vecs = eigh(mat)
        vecs = vecs.copy()
        vecs[0, -1] += 1e-9
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NotConverged, match="lambda residual"):
        lower_bound(data444["reduced"])


def test_all_groups_match_reference(graph_data):
    for triple in TABLE:
        ra = graph_data[triple]["reduced"]
        res = lower_bound(ra)
        assert res.bound == pytest.approx(LOWER_BOUNDS[triple], abs=1e-9), triple
        assert res.residual_nu < 1e-12
        assert res.residual_lam < 1e-12
        assert res.nu > 1.0  # exponential sphere growth
        assert (perron(tilde_matrix(ra))[1] > 0).all()
