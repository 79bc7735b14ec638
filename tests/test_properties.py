"""Property-based invariants for words, curvature, and iterations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conetypes import (
    curvature,
    new_params,
    perron,
    tree_walk_spec,
)
from conetypes.errors import NonHyperbolic
from reference import (
    envelope_sequence,
    free_reduce,
    least_fixed_point,
    tits_equal,
    tree_return_series,
)

words = st.lists(st.integers(0, 2), max_size=8)
small_params = st.sampled_from([(4, 4, 4), (2, 3, 7), (3, 3, 4)])


@given(words)
def test_free_reduce_idempotent(w):
    once = free_reduce(tuple(w))
    assert free_reduce(once) == once
    # no immediate repetition survives
    assert all(a != b for a, b in zip(once, once[1:]))


@given(words)
def test_word_times_reverse_reduces_away(w):
    # s_i are involutions, so w followed by reversed w freely reduces to nothing
    assert free_reduce(tuple(w) + tuple(reversed(w))) == ()


@settings(max_examples=25, deadline=None)
@given(small_params, st.lists(st.integers(0, 2), max_size=4),
       st.lists(st.integers(0, 2), max_size=4))
def test_tits_equal_symmetric(triple, u, v):
    params = new_params(*triple)
    assert tits_equal(params, tuple(u), tuple(v), cap=8) \
        == tits_equal(params, tuple(v), tuple(u), cap=8)


@given(st.integers(2, 12), st.integers(2, 12), st.integers(2, 12))
def test_curvature_negative_iff_hyperbolic(l, m, n):
    try:
        params = new_params(l, m, n)
    except NonHyperbolic:
        q = Fraction(1, l) + Fraction(1, m) + Fraction(1, n)
        assert q >= 1
        return
    assert curvature(params) < 0


@settings(max_examples=40, deadline=None)
@given(z1=st.floats(0.05, 1.05), z2=st.floats(0.05, 1.05))
def test_tree_fixed_point_monotone(tree_reduced, z1, z2):
    assume(z1 < z2)
    spec = tree_walk_spec(tree_reduced)
    w1, _ = least_fixed_point(spec, z1)
    w2, _ = least_fixed_point(spec, z2)
    assert w1[0] <= w2[0] + 1e-13


@given(st.integers(2, 60))
def test_tree_envelope_monotone(n):
    env = envelope_sequence(tree_return_series(n))
    assert all(b >= a - 1e-15 for a, b in zip(env, env[1:]))
    if env:
        assert env[-1] <= 2.0 * math.sqrt(2.0) / 3.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_perron_invariant_under_diagonal_similarity(seed, size):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.1, 2.0, (size, size))
    scale = rng.uniform(0.5, 2.0, size)
    conj = mat * scale[:, None] / scale[None, :]
    val, _, _ = perron(mat)
    val2, _, _ = perron(conj)
    assert val2 == pytest.approx(val, rel=1e-9)
