"""Exact return probabilities on balls and the trivalent-tree reference series."""

import itertools
import math
from fractions import Fraction

import pytest

from conetypes import (
    HorizonExceedsBall,
    InvalidParameter,
    build_ball,
    empirical_envelope,
    new_params,
    return_probabilities,
)
from conftest import HYPERBOLIC_12
from reference import envelope_sequence, stepwise_returns, tits_equal, tree_return_series

TREE_RHO = 2.0 * math.sqrt(2.0) / 3.0


def brute_force_returns(params, length):
    """Count words over the three reflections that multiply to the identity."""
    hits = 0
    for word in itertools.product((0, 1, 2), repeat=length):
        if tits_equal(params, word, (), cap=length + 2):
            hits += 1
    return Fraction(hits, 3 ** length)


def test_first_steps_exact(data444):
    rs = return_probabilities(data444["ball"], 4)
    assert rs[0] == 1
    assert rs[1] == 0
    assert rs[2] == Fraction(1, 3)
    assert rs[3] == 0


def test_odd_returns_vanish(data444, data237):
    for data in [data444, data237]:
        rs = return_probabilities(data["ball"], 9)
        assert all(rs[k] == 0 for k in range(1, 10, 2))


def test_step4_matches_word_enumeration(data444, data237):
    # (4,4,4) has girth 8, so step 4 behaves like the tree; (2,3,7) has squares
    assert brute_force_returns(new_params(4, 4, 4), 4) == Fraction(15, 81)
    assert brute_force_returns(new_params(2, 3, 7), 4) == Fraction(17, 81)
    rs4 = return_probabilities(data444["ball"], 4)
    rs7 = return_probabilities(data237["ball"], 4)
    assert rs4[4] == Fraction(15, 81)
    assert rs7[4] == Fraction(17, 81)


def test_step6_matches_word_enumeration(data237):
    expected = brute_force_returns(new_params(2, 3, 7), 6)
    rs = return_probabilities(data237["ball"], 6)
    assert rs[6] == expected


def test_ball_radius_does_not_matter():
    # a walk of length <= n cannot feel the ball boundary at radius >= n
    params = new_params(4, 4, 4)
    rs10 = return_probabilities(build_ball(params, 10), 10)
    rs13 = return_probabilities(build_ball(params, 13), 10)
    assert rs10 == rs13


def test_horizon_guard():
    # exact up to twice the radius: a returning walk stays within half its length
    ball = build_ball(new_params(4, 4, 4), 5)
    return_probabilities(ball, 10)
    with pytest.raises(HorizonExceedsBall):
        return_probabilities(ball, 11)


def test_negative_horizon_guard():
    # a negative horizon is refused, not answered with no values
    ball = build_ball(new_params(4, 4, 4), 2)
    assert return_probabilities(ball, 0) == [Fraction(1)]
    with pytest.raises(InvalidParameter, match="^horizon must be >= 0, got -1$"):
        return_probabilities(ball, -1)


@pytest.mark.parametrize("triple", [(4, 4, 4), (3, 5, 7)])
def test_half_radius_ball_is_exact(census_data, triple):
    big = census_data[triple][0]
    assert big.radius >= 20
    small = build_ball(big.params, 10)
    assert return_probabilities(small, 20) == return_probabilities(big, 20)


def loop_returns(ball, n_max):
    """Reference: walk counts in Python integers, one edge at a time."""
    nbr = ball.nbr.tolist()
    counts = {0: 1}
    values = [Fraction(1)]
    for k in range(1, n_max + 1):
        new = {}
        for v, c in counts.items():
            for w in nbr[v]:
                if w >= 0:
                    new[w] = new.get(w, 0) + c
        counts = new
        values.append(Fraction(counts.get(0, 0), 3 ** k))
    return values


def test_counts_beyond_int64_are_exact():
    # 3^41 >= 2^63 > 3^39: the counts are Python integers at n = 41, int64 at 39
    params = new_params(2, 3, 7)
    assert 3 ** 41 >= 2 ** 63 > 3 ** 39
    ball = build_ball(params, 21)
    rs = return_probabilities(ball, 41)
    assert rs == loop_returns(ball, 41)
    assert rs == return_probabilities(build_ball(params, 24), 41)
    assert rs[:40] == return_probabilities(build_ball(params, 20), 39)
    assert all(rs[k] == 0 for k in range(1, 42, 2))


HYPERBOLIC_8 = [t for t in HYPERBOLIC_12 if max(t) <= 8]


@pytest.mark.parametrize("n_max", [11, 12])
def test_half_length_walks_equal_stepwise_counts(n_max):
    # an odd and an even horizon, both reaching the radius-6 ball's edge
    assert len(HYPERBOLIC_8) == 71
    for triple in HYPERBOLIC_8:
        ball = build_ball(new_params(*triple), 6)
        assert return_probabilities(ball, n_max) == stepwise_returns(ball, n_max), triple


def test_tree_series_closed_values():
    rs = tree_return_series(6)
    assert rs[0] == 1
    assert rs[2] == Fraction(1, 3)
    assert rs[3] == 0
    assert rs[4] == Fraction(15, 81)
    assert rs[6] == Fraction(87, 729)


def test_tree_envelope_monotone_below_rho():
    env = envelope_sequence(tree_return_series(60))
    assert all(b >= a - 1e-15 for a, b in zip(env, env[1:]))
    assert env[-1] <= TREE_RHO + 1e-12
    # convergence is slow (polynomial correction), so only a loose floor
    assert env[-1] > 0.85


def test_envelope_of_a_tree_ball():
    # Delta(11,11,11) has no cycle shorter than 22, so the walks that return
    # within 20 steps are the tree's, and the radius-10 envelope is the
    # tree's at n = 10
    ball = build_ball(new_params(11, 11, 11), 10)
    tree = tree_return_series(20)
    assert return_probabilities(ball, 20) == tree
    assert empirical_envelope(ball) == envelope_sequence(tree)[-1]


@pytest.mark.parametrize("radius", [2, 10])
def test_envelope_reads_the_whole_exact_range(data237, radius):
    ball = build_ball(data237["params"], radius)
    env = envelope_sequence(return_probabilities(ball, 2 * radius))
    assert len(env) == radius
    assert empirical_envelope(ball) == max(env)


def test_envelope_lower_bounds_walk():
    # the envelope never exceeds the certified range of the true spectral radius
    from conftest import UPPER_BOUNDS

    assert empirical_envelope(build_ball(new_params(4, 4, 4), 10)) <= \
        UPPER_BOUNDS[(4, 4, 4)] + 1e-12


def test_smallest_ball_envelope():
    # a radius-1 ball's exact range is the one return p^(2) = 1/3
    assert empirical_envelope(build_ball(new_params(4, 4, 4), 1)) == \
        float(Fraction(1, 3)) ** 0.5
