"""minpoly_2cos, and the exact cosine ring of the elementary-root oracle in
tests/reference.py, against high-precision numeric oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

import reference
from conetypes import IdentificationAmbiguity, new_params
from conetypes.ring import minpoly_2cos
from reference import CosineRing, mul_by_2cos, reflection_rep, reflection_tensors, scalar_sign

mpmath.mp.dps = 50


def ring_to_float(ring, a) -> float:
    return float(np.dot(np.asarray(a, dtype=float), ring.basis_values))


@pytest.mark.parametrize("k", range(2, 13))
def test_minpoly_vanishes_at_2cos(k):
    coeffs = minpoly_2cos(k)
    x = 2 * mpmath.cos(mpmath.pi / k)
    value = sum(c * x ** i for i, c in enumerate(coeffs))
    assert abs(value) < mpmath.mpf(10) ** -40
    assert coeffs[-1] == 1  # monic


@pytest.mark.parametrize("k", range(2, 13))
def test_minpoly_degree_matches_totient(k):
    # [2cos(pi/k)] generates the maximal real subfield of Q(zeta_2k)
    expected = 1 if k <= 2 else sympy.totient(2 * k) // 2
    assert len(minpoly_2cos(k)) - 1 == expected


def _conjugate_product(k):
    """prod (x - 2cos(j pi/k)) over 1 <= j < k, gcd(j, 2k) = 1, rounded.

    The factors are the Galois conjugates of 2cos(pi/k), so the product is
    its minimal polynomial; at 50 digits every coefficient is an integer to
    far better than the rounding needs.
    """
    coeffs = [mpmath.mpf(1)]  # ascending powers
    for j in range(1, k):
        if math.gcd(j, 2 * k) == 1:
            root = 2 * mpmath.cos(j * mpmath.pi / k)
            coeffs = ([-root * coeffs[0]]
                      + [coeffs[i - 1] - root * coeffs[i] for i in range(1, len(coeffs))]
                      + [coeffs[-1]])
    rounded = tuple(int(mpmath.nint(c)) for c in coeffs)
    assert all(abs(c - r) < mpmath.mpf(10) ** -30 for c, r in zip(coeffs, rounded))
    return rounded


def test_minpoly_matches_conjugate_product():
    for k in range(2, 61):
        assert minpoly_2cos(k) == _conjugate_product(k), k


def test_minpoly_matches_sympy():
    # sympy's own minimal polynomial up to k = 40; k = 41..60 would add
    # about 4.5 s, and the conjugate product covers them exactly
    x = sympy.Symbol("x")
    for k in range(2, 41):
        poly = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / k), x)
        want = tuple(int(c) for c in reversed(sympy.Poly(poly, x).all_coeffs()))
        assert minpoly_2cos(k) == want, k


@pytest.mark.parametrize("orders", [(4, 4, 4), (5, 7, 3), (7, 7, 7), (2, 5, 5), (6, 6, 2)])
def test_ring_dimension_and_unit(orders):
    ring = CosineRing(orders)
    # orders 2 and 3 contribute rational values, no ring extension
    degrees = [len(minpoly_2cos(k)) - 1 for k in sorted({o for o in orders if o >= 4})]
    assert ring.dim == int(np.prod(degrees)) if degrees else ring.dim == 1
    one = ring.one()
    assert ring_to_float(ring, one) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("orders", [(4, 4, 4), (3, 5, 7), (2, 3, 7)])
def test_generator_matrices_match_numeric_value(orders):
    ring = CosineRing(orders)
    one = ring.one()
    for k in set(orders):
        g = one @ mul_by_2cos(ring, k)
        assert ring_to_float(ring, g) == pytest.approx(2 * np.cos(np.pi / k), abs=1e-12)


@pytest.mark.parametrize("orders", [(4, 4, 4), (3, 5, 7), (2, 3, 7), (2, 6, 6), (4, 7, 8), (12, 16, 18)])
def test_ring_multiplication_matches_floats(orders):
    """Exact products by each 2cos(pi/k) agree with floats on random elements."""
    ring = CosineRing(orders)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(-5, 6, size=ring.dim)
        for k in set(orders):
            prod = a @ mul_by_2cos(ring, k)
            assert ring_to_float(ring, prod) == pytest.approx(
                ring_to_float(ring, a) * 2 * np.cos(np.pi / k), abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("orders", [(5, 7, 8), (6, 7, 8)])
def test_factor_axis_products_match_floats(orders):
    """Three factors, so the middle one has identities on both sides.  The
    in-place product into a strided coordinate of covector rows agrees with
    the matrix and with floats, and leaves the other coordinates alone."""
    ring = CosineRing(orders)
    assert len(ring.factors) == 3
    rng = np.random.default_rng(11)
    y = rng.integers(-50, 51, size=(40, 3, ring.dim))
    for k in set(orders):
        out = y.copy()
        ring.add_times_2cos(k, y[:, 0].copy(), out[:, 2])
        assert np.array_equal(out[:, :2], y[:, :2])
        assert np.array_equal(out[:, 2], y[:, 2] + y[:, 0] @ mul_by_2cos(ring, k))
        got = (out[:, 2] - y[:, 2]) @ ring.basis_values
        want = y[:, 0] @ ring.basis_values * 2 * math.cos(math.pi / k)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9), k


def _unit_count_degree(orders):
    """Degree of Q(2cos(pi/k) : k in orders), by counting units.

    With L = lcm(orders), the unit a mod 2L sends 2cos(pi/k) to
    2cos(a pi/k), so it fixes the field when a = +-1 mod 2k for every k,
    and the degree is phi(2L) over the number of such units.
    """
    n = 2 * math.lcm(*orders)
    units = [a for a in range(n) if math.gcd(a, n) == 1]
    fixing = [a for a in units if all(a % (2 * k) in (1, 2 * k - 1) for k in orders)]
    return len(units) // len(fixing)


def test_ring_dimension_is_the_field_degree():
    # every hyperbolic triple with max <= 20: the tensor product of the
    # factors is the field, so a zero number has the zero vector
    merged = 0
    for l in range(2, 21):
        for m in range(l, 21):
            for n in range(m, 21):
                if Fraction(1, l) + Fraction(1, m) + Fraction(1, n) >= 1:
                    continue
                ring = CosineRing((l, m, n))
                assert ring.dim == _unit_count_degree((l, m, n)), (l, m, n)
                merged += any(f not in (l, m, n) for f in ring.factors)
    assert merged > 0


def test_ring_refuses_a_dimension_off_the_field_degree(monkeypatch):
    # coefficient vectors identify numbers only when the ring's dimension is
    # the field's degree
    degree = reference._field_degree
    monkeypatch.setattr(reference, "_field_degree", lambda orders: degree(orders) + 1)
    with pytest.raises(IdentificationAmbiguity,
                       match="^ring of dimension 2 for a field of degree 3:"):
        CosineRing((4, 4, 4))


def test_root_sign_test_refuses_what_floats_cannot_decide():
    ring = CosineRing((4, 4, 4))  # basis 1, sqrt 2
    assert [scalar_sign(ring, np.array(x)) for x in ([0, 0], [3, -2], [-3, 2])] == [0, 1, -1]
    # a Pell pair: 22619537 - 15994428 sqrt 2 = 2.2e-8, below the float
    # error bound of terms near 2.3e7, has no sign
    with pytest.raises(IdentificationAmbiguity, match="^root form .* is within its error"):
        scalar_sign(ring, np.array([22619537, -15994428]))


def test_ring_basis_values_match_math_cos():
    for orders in [(4, 7, 8), (4, 6, 8), (6, 14, 16), (3, 5, 7), (2, 3, 7)]:
        ring = CosineRing(orders)
        want = np.array([1.0])
        for f, d in zip(ring.factors, ring.degrees):
            want = np.kron(want, [1.0] + [2 * math.cos(j * math.pi / f) for j in range(1, d)])
        assert np.allclose(ring.basis_values, want, rtol=1e-14, atol=0), orders
        for k in orders:
            assert ring_to_float(ring, ring.one() @ mul_by_2cos(ring, k)) == \
                pytest.approx(2 * math.cos(math.pi / k), abs=1e-12), (orders, k)


@pytest.mark.parametrize("orders", [(4, 4, 4), (3, 5, 7), (2, 3, 7), (4, 7, 8), (4, 6, 8),
                                    (6, 14, 16), (12, 16, 18)])
def test_ring_axioms_exact(orders):
    """The multiplication matrices commute and satisfy their minimal polynomials."""
    ring = CosineRing(orders)
    mats = {k: mul_by_2cos(ring, k) for k in set(orders)}
    for k, A in mats.items():
        for B in mats.values():
            assert np.array_equal(A @ B, B @ A)
        value = np.zeros_like(A)
        power = np.eye(ring.dim, dtype=np.int64)
        for c in minpoly_2cos(k):
            value = value + c * power
            power = power @ A
        assert not value.any(), k


@pytest.mark.parametrize("triple", [(4, 4, 4), (3, 5, 7), (2, 3, 7), (2, 5, 5)])
def test_reflection_tensors_match_float_representation(triple):
    """W[s,t] acts on coefficients exactly as sigma_s acts numerically."""
    params = new_params(*triple)
    orders = params.orders()
    ring = CosineRing(orders.values())
    W = reflection_tensors(orders, ring)
    rep = reflection_rep(params)
    values = ring.basis_values

    # exact product sigma_s as coefficient tensors, compared entrywise
    ident = np.zeros((3, 3, ring.dim), dtype=np.int64)
    for i in range(3):
        ident[i, i] = ring.one()
    for s in range(3):
        out = np.empty_like(ident)
        for t in range(3):
            out[:, t, :] = ident[:, t, :] + ident[:, s, :] @ W[s, t]
        numeric = out @ values
        assert np.allclose(numeric, rep.sigma[s], atol=1e-10)


@pytest.mark.parametrize("triple", [(4, 4, 4), (3, 5, 7), (2, 3, 7)])
def test_reflection_orders_numeric(triple):
    params = new_params(*triple)
    rep = reflection_rep(params)
    orders = params.orders()
    for s in range(3):
        assert np.allclose(rep.sigma[s] @ rep.sigma[s], np.eye(3), atol=1e-10)
    for (s, t), k in orders.items():
        prod = rep.sigma[s] @ rep.sigma[t]
        power = np.linalg.matrix_power(prod, k)
        assert np.allclose(power, np.eye(3), atol=1e-8)
