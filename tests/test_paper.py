"""The structure of the paper's proof on genuine forms, not random series.

theta1^2 = -theta_{1,1} theta_j(1,0) + theta_{1,0} theta_j(1,1) is the
square of the odd Jacobi theta function, up to a constant: weight 1,
index 1, killed by the restriction to z = 0.  lambda2_inv sends a pair
(psi xi2, -psi xi0), which the heat operator kills too, to
psi eta(tau)^2 eta(2 tau)^2 theta1^4 / 8, so the D0 + D2 kernel at index 2
factors through theta1^4; and every squarefree lambda_star_inv is a
multiple of theta1^2 dilated to index m.

Each identity is compared term by term below the lesser validity bound of
its two sides, and each has a broken variant that must fail.
"""

import random
from fractions import Fraction

import pytest

from jfkernel.construct import lambda2_inv, lambda_star_inv, xi_pair_hat
from jfkernel.cyclotomic import imag_unit
from jfkernel.jacobi import JacobiSeries, d2_hat, recompose, restrict_z0, tau_shift, theta_component
from jfkernel.series import PuiseuxSeries, dilate, eta_power

F = Fraction


def theta1_sq(order) -> JacobiSeries:
    """theta1^2 = recompose({0: -theta_{1,1}, 1: theta_{1,0}}, 1, order)."""
    order = F(order)
    return recompose({0: -theta_component(1, 1, order), 1: theta_component(1, 0, order)}, 1, order)


def dilated(phi: JacobiSeries, m: int) -> JacobiSeries:
    """phi(m tau, m z): each term (n, r) relabelled to (m n, m r)."""
    return JacobiSeries({(m * n, m * r): c for (n, r), c in phi.terms.items()}, m * phi.valid_below)


def agree(lhs, rhs, least):
    """Term-exact agreement below the lesser validity bound of the two
    sides, which must reach ``least`` so that no comparison is vacuous."""
    bound = min(lhs.valid_below, rhs.valid_below)
    assert bound >= least, (bound, least)
    return lhs.same_below(rhs, bound)


def sparse(rng, valid_below):
    return PuiseuxSeries({F(rng.randint(0, int(8 * valid_below) - 1), 8):
                          rng.randint(-5, 5) + rng.randint(-2, 2) * imag_unit()
                          for _ in range(8)}, valid_below)


def dense(rng, valid_below):
    return PuiseuxSeries({F(k, 8): rng.randint(-5, 5) + rng.randint(-2, 2) * imag_unit()
                          for k in range(int(8 * valid_below))}, valid_below)


def test_theta1_squared_begins_q_quarter_times_zeta_minus_2_plus_inverse():
    th = theta1_sq(3)
    assert th.val() == F(1, 4)
    assert {r: th.coeff(F(1, 4), r) for r in (-1, 0, 1)} == {-1: 1, 0: -2, 1: 1}


def test_theta1_squared_restricts_to_zero():
    assert restrict_z0(theta1_sq(30)).is_zero()
    # broken: the wrong sign on theta_{1,1} leaves 2 theta_{1,0} theta_{1,1}
    wrong = recompose({0: theta_component(1, 1, 30), 1: theta_component(1, 0, 30)}, 1, 30)
    assert not restrict_z0(wrong).is_zero()


@pytest.mark.parametrize("k", [2, 4, 10])
def test_heat_operator_sends_theta1_squared_to_2k_eta6(k):
    th = theta1_sq(30)
    eta6 = eta_power(6, 30)
    assert agree(d2_hat(th, k), eta6 * (2 * k), 30)
    # broken: k eta^6
    assert not agree(d2_hat(th, k), eta6 * k, 30)


def test_tau_shift_multiplies_theta1_squared_by_i_and_theta1_fourth_by_minus_one():
    th = theta1_sq(20)
    assert agree(tau_shift(th), th * imag_unit(), 20)
    th4 = th * th
    assert agree(tau_shift(th4), -th4, 20)
    # broken: -i, and +theta1^4
    assert not agree(tau_shift(th), th * -imag_unit(), 20)
    assert not agree(tau_shift(th4), th4, 20)


def _kernel_sides(psi, order, constant):
    """lambda2_inv(psi xi2, -psi xi0) and psi eta(tau)^2 eta(2 tau)^2 theta1^4
    times ``constant``."""
    xi0, xi2 = xi_pair_hat(order + 2)
    lhs = lambda2_inv(psi * xi2, -(psi * xi0), order)
    eta_part = eta_power(2, order) * dilate(eta_power(2, F(order, 2) + 1), 2)
    th = theta1_sq(order)
    return lhs, th * th * (psi * eta_part * constant)


@pytest.mark.parametrize("order", [20, 30])
@pytest.mark.parametrize("draw", [sparse, dense])
def test_the_d0_d2_kernel_factors_through_theta1_fourth(order, draw):
    psi = draw(random.Random(order), F(order))
    lhs, rhs = _kernel_sides(psi, order, F(1, 8))
    assert agree(lhs, rhs, order)
    # broken: 1/4 in place of 1/8
    assert not agree(*_kernel_sides(psi, order, F(1, 4)), order)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10])
def test_lambda_star_inv_is_minus_phi_times_dilated_theta1_squared(m):
    order = 20
    phi = sparse(random.Random(m), F(order))
    lhs = lambda_star_inv(phi, m, order)
    th = dilated(theta1_sq(F(order, m) + 1), m)
    assert agree(lhs, th * -phi, order)
    # broken: +phi
    assert not agree(lhs, th * phi, order)
