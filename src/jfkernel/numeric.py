"""Floating-point evaluation on the upper half-plane.

Two paths:

* :func:`eval_series` sums a truncated series object and refuses points
  where the truncation tail could matter (TailTooLarge);
* dedicated adaptive evaluators for the concrete modular objects (theta
  components, their normalised derivatives, eta powers).  These sum the
  defining series directly with a point-dependent range, so they stay
  accurate at the low-imaginary-part points produced by group actions.

Branch convention, used everywhere: w^{1/2} is the principal square root,
exp(Log(w)/2) with Arg w in (-pi, pi], so the result's argument lies in
(-pi/2, pi/2].  That is exactly `cmath.sqrt`.
"""

from __future__ import annotations

import cmath
import math

from .cyclotomic import CYC24
from .jacobi import JacobiSeries

TWO_PI = 2 * math.pi

# terms are summed until the exponent bound pushes |term| below e^{-TAIL_LOG}
TAIL_LOG = 46.0  # e^-46 ~ 1e-20


class TailTooLarge(ValueError):
    """The truncation tail of a series is too large at the requested point."""


class SnapFailed(ArithmeticError):
    """No root of unity within tolerance of the fitted projective scalar."""


def principal_sqrt(w: complex) -> complex:
    return cmath.sqrt(w)


def eval_series(series, tau: complex, z: complex | None = None,
                min_im: float = 0.3) -> complex:
    """Sum a truncated PuiseuxSeries/JacobiSeries at a point.

    Requires Im tau >= min_im and a negligible tail:
    |q|^valid_below * (term count + 1) * max|zeta-part| < 1e-14.
    The default floor of 0.3 suits generic series; the cusp sampler relaxes
    it because heights y map to Im = 1/y, and the tail bound still protects
    the result there.
    """
    y = tau.imag
    if y < min_im:
        raise TailTooLarge(f"Im tau = {y} below {min_im}")
    qlog = -TWO_PI * y
    two_var = isinstance(series, JacobiSeries)
    zmag = 0.0
    if two_var and z is not None:
        rmax = max((abs(r) for (_n, r) in series.terms), default=0)
        zmag = TWO_PI * rmax * abs(z.imag)
    tail = math.exp(qlog * float(series.valid_below) + zmag) * (len(series.terms) + 1)
    if tail > 1e-14:
        raise TailTooLarge(f"tail bound {tail:.2e} at Im tau = {y}")
    total = 0j
    if two_var:
        zz = z if z is not None else 0j
        for (n, r), c in series.terms.items():
            total += c.to_complex() * cmath.exp(2j * math.pi * (float(n) * tau + r * zz))
    else:
        for e, c in series.terms.items():
            total += c.to_complex() * cmath.exp(2j * math.pi * float(e) * tau)
    return total


def _theta_range(m: int, y: float, zim: float) -> int:
    # need 2 pi m y t^2 - 4 pi m |Im z| t >= TAIL_LOG for all |t| >= T
    b = 2.0 * abs(zim) / y
    T = 0.5 * (b + math.sqrt(b * b + 2.0 * TAIL_LOG / (math.pi * m * y)))
    return int(T) + 2


def theta_jacobi_num(m: int, r: int, tau: complex, z: complex) -> complex:
    """theta_j(m, r)(tau, z) by direct adaptive summation."""
    y = tau.imag
    if y <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    x0 = r / (2.0 * m)
    N = _theta_range(m, y, z.imag)
    total = 0j
    for n in range(-N - 1, N + 2):
        xv = n + x0
        total += cmath.exp(2j * math.pi * m * (xv * xv * tau + 2 * xv * z))
    return total


def theta_vector_num(m: int, tau: complex, z: complex) -> list[complex]:
    return [theta_jacobi_num(m, r, tau, z) for r in range(2 * m)]


def theta_num(m: int, r: int, tau: complex) -> complex:
    """theta_{m,r}(tau) = theta_j(m, r)(tau, 0)."""
    return theta_jacobi_num(m, r, tau, 0j)


def dtheta_num(m: int, r: int, tau: complex) -> complex:
    """(q d/dq) theta_{m,r} at tau: sum of m(n + r/2m)^2 q^{m(n+r/2m)^2}."""
    y = tau.imag
    if y <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    x0 = r / (2.0 * m)
    N = _theta_range(m, y, 0.0) + 2
    total = 0j
    for n in range(-N - 1, N + 2):
        xv = n + x0
        e = m * xv * xv
        total += e * cmath.exp(2j * math.pi * e * tau)
    return total


def eta_num(tau: complex) -> complex:
    """Dedekind eta via the pentagonal-number series, adaptive range."""
    y = tau.imag
    if y <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    # exponents k(3k-1)/2 + 1/24; need 2 pi y (3k^2/2 - |k|/2) >= TAIL_LOG
    K = int(math.sqrt(2.0 * TAIL_LOG / (3.0 * TWO_PI * y)) + 2.0)
    total = 0j
    for k in range(-K, K + 1):
        e = k * (3 * k - 1) / 2.0 + 1.0 / 24.0
        total += (-1) ** k * cmath.exp(2j * math.pi * e * tau)
    return total


def eta_pow_num(tau: complex, exponent: int) -> complex:
    return eta_num(tau) ** exponent


# -- the weight-3 theta Wronskians, as honest functions ----------------------


def xi_hat_num(tau: complex) -> complex:
    """theta_{1,1} D theta_{1,0} - theta_{1,0} D theta_{1,1} (equals -eta^6/2)."""
    return theta_num(1, 1, tau) * dtheta_num(1, 0, tau) - theta_num(1, 0, tau) * dtheta_num(1, 1, tau)


def xi0_hat_num(tau: complex) -> complex:
    return theta_num(2, 1, tau) * dtheta_num(2, 0, tau) - theta_num(2, 0, tau) * dtheta_num(2, 1, tau)


def xi2_hat_num(tau: complex) -> complex:
    return theta_num(2, 1, tau) * dtheta_num(2, 2, tau) - theta_num(2, 2, tau) * dtheta_num(2, 1, tau)


def xi_star_hat_num(m: int, tau: complex) -> complex:
    return theta_num(m, m, tau) * dtheta_num(m, 0, tau) - theta_num(m, 0, tau) * dtheta_num(m, m, tau)


# -- the theta transformation law, and the numeric scalar oracle ---------------

ORACLE_TAU = 0.11 + 1.21j
ORACLE_Z = 0.07 + 0.13j


def transform_rhs(m: int, gamma, U_complex, tau: complex, z: complex):
    """e^{2 pi i m c z^2/(c tau+d)} (c tau+d)^{1/2} U Theta(tau, z)."""
    den = gamma.c * tau + gamma.d
    fac = cmath.exp(2j * cmath.pi * m * gamma.c * z * z / den) * principal_sqrt(den)
    theta = theta_vector_num(m, tau, z)
    return [fac * sum(U_complex[i][j] * theta[j] for j in range(2 * m)) for i in range(2 * m)]


def fit_scalar(m: int, word, U, tau: complex = ORACLE_TAU, z: complex = ORACLE_Z):
    """Fit the scalar s with true multiplier matrix = s * U, numerically.

    An oracle for the exact scalar of :func:`jfkernel.weil.resolve_scalar`:
    evaluates both sides of the transformation law of ``word`` at one point
    (Im tau >= 0.5 required), least-squares fits the ratio and snaps it to
    the nearest 24th root of unity in Q(zeta_24), with tolerance 1e-6
    (SnapFailed beyond it).  The cost grows with the lower-left entry c of
    the word's matrix, since the image point has height about 1/c^2.
    """
    if tau.imag < 0.5:
        raise ValueError("resolution point needs Im tau >= 0.5")
    gamma = word.to_matrix()
    lhs = theta_vector_num(m, *gamma.act_jacobi(tau, z))
    rhs = transform_rhs(m, gamma, U.to_complex(), tau, z)
    num = sum(l * r.conjugate() for l, r in zip(lhs, rhs))
    den = sum(abs(r) ** 2 for r in rhs)
    sigma = num / den
    best_k, best_err = None, 1.0
    for k in range(24):
        err = abs(sigma - cmath.exp(2j * cmath.pi * k / 24))
        if err < best_err:
            best_k, best_err = k, err
    if best_err > 1e-6:
        raise SnapFailed(f"scalar {sigma} is no 24th root of unity (err {best_err:.2e})")
    return CYC24.zeta(best_k)


class NumericForm:
    """A named function of tau, for the transformation checkers."""

    def __init__(self, name: str, fn):
        self.name = name
        self._fn = fn

    def __call__(self, tau: complex) -> complex:
        return self._fn(tau)

    def __repr__(self):
        return f"NumericForm({self.name})"


ETA6 = NumericForm("eta^6", lambda tau: eta_pow_num(tau, 6))
XI_HAT = NumericForm("xi_hat", xi_hat_num)
XI0_HAT = NumericForm("xi0_hat", xi0_hat_num)
XI2_HAT = NumericForm("xi2_hat", xi2_hat_num)
CONST_ONE = NumericForm("1", lambda tau: 1.0 + 0j)


def xi_star_form(m: int) -> NumericForm:
    return NumericForm(f"xi{m}_star_hat", lambda tau: xi_star_hat_num(m, tau))


def sample_points(rng, count: int):
    """Sample points with Im tau in [0.8, 1.5], |Re tau| <= 0.5, |z| <= 0.3."""
    pts = []
    for _ in range(count):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
        radius = rng.uniform(0.0, 0.3)
        angle = rng.uniform(0.0, TWO_PI)
        pts.append((tau, radius * cmath.exp(1j * angle)))
    return pts
