"""Sphere-recursion eigenvalue, symmetrization, and the lower bound."""

import math

import numpy as np
import pytest

from conetypes import (
    NotConverged,
    ReducedAutomaton,
    ZeroPredecessor,
    automaton_from_json,
    extract_automaton,
    lower_bound,
    new_params,
    perron,
    reduce_automaton,
    symmetrize,
    tilde_matrix,
)
from conetypes import lower
from conftest import DOCUMENTS, HYPERBOLIC_12, LOWER_BOUNDS, TABLE

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


@pytest.mark.parametrize("mat,message", [
    (np.array([[0.0, 0.0], [1.0, 1.0]]), "the Perron vector is not positive"),
    (np.array([[0.0, 2.0], [1.0, 0.0]]), "Perron residual .* is not below"),
], ids=["reducible", "imprimitive"])
def test_perron_refuses_a_bad_eigenvector(mat, message):
    # a reducible matrix whose dominant eigenvector has an exact zero, and an
    # imprimitive one, whose squared powers never become rank one (here they
    # are the identity, so the residual stays 1/4), are refused
    with pytest.raises(NotConverged, match=message):
        perron(mat)


def test_lambda_residual_is_checked(data444, monkeypatch):
    # M'' replaced by the bipartite path on three vertices, eigenvalues
    # sqrt 2, 0 and -sqrt 2: its squared powers never become rank one, and
    # the residual of lambda's unit vector is refused as the Perron vector's is
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    monkeypatch.setattr(lower, "symmetrize", lambda ra, A: path)
    with pytest.raises(NotConverged, match="lambda residual"):
        lower_bound(data444["reduced"])


def test_atlas_matches_dense_eigensolvers():
    # nu, lambda and the bound by repeated squaring agree with numpy's dense
    # eig and eigh to 1e-13 relative on the 269 triples with max <= 12
    for triple in HYPERBOLIC_12:
        ra = reduce_automaton(extract_automaton(new_params(*triple)))
        res = lower_bound(ra)
        T = tilde_matrix(ra)
        vals, vecs = np.linalg.eig(T)
        k = int(np.argmax(vals.real))
        nu = float(vals[k].real)
        A = np.abs(vecs[:, k].real)
        lam = float(np.linalg.eigh(symmetrize(ra, A / A.sum()))[0][-1])
        bound = 2.0 * lam / (ra.degree * math.sqrt(nu))
        assert res.nu == pytest.approx(nu, rel=1e-13, abs=0), triple
        assert res.lam == pytest.approx(lam, rel=1e-13, abs=0), triple
        assert res.bound == pytest.approx(bound, rel=1e-13, abs=0), triple


def test_all_groups_match_reference(graph_data):
    for triple in TABLE:
        ra = graph_data[triple]["reduced"]
        res = lower_bound(ra)
        assert res.bound == pytest.approx(LOWER_BOUNDS[triple], abs=1e-9), triple
        assert res.residual_nu < 1e-12
        assert res.residual_lam < 1e-12
        assert res.nu > 1.0  # exponential sphere growth
        assert (perron(tilde_matrix(ra))[1] > 0).all()


def test_perron_vector_is_accurate_entry_by_entry():
    # every entry of A is checked against itself, down to the smallest, on
    # every committed document and on (3,3,260): its primitivity exponent,
    # 266, is past 2^FIRST_CHECK, and a vector whose absolute residual is
    # below 1e-12 there can still have a relative residual of 110
    ras = [reduce_automaton(extract_automaton(new_params(3, 3, 260)))]
    ras += [automaton_from_json(path.read_text())[1] for path in DOCUMENTS]
    assert len(ras) == 1 + 28
    for ra in ras:
        T = tilde_matrix(ra)
        nu, A, _ = perron(T)
        assert (abs(T @ A - nu * A) / A).max() < 1e-12, ra.types


def test_bounds_past_primitivity_exponent_256():
    # past p = 2^FIRST_CHECK the bound still follows its family: (300,300,300)
    # gives the tree's 2 sqrt 2 / 3 to 1e-12, and (3,3,260) gives (3,3,97)'s
    def bound(*triple):
        return lower_bound(reduce_automaton(extract_automaton(new_params(*triple)))).bound

    assert bound(300, 300, 300) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
    assert bound(3, 3, 260) == pytest.approx(bound(3, 3, 97), abs=1e-12)
