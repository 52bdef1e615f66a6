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

TWO_PI = 2 * math.pi

# terms are summed until the exponent bound pushes |term| below e^{-TAIL_LOG}
TAIL_LOG = 46.0  # e^-46 ~ 1e-20


class TailTooLarge(ValueError):
    """The truncation tail of a series is too large at the requested point."""


class SnapFailed(ArithmeticError):
    """No root of unity within tolerance of the fitted projective scalar."""


def eval_series(series, tau: complex, min_im: float = 0.3) -> complex:
    """Sum a truncated PuiseuxSeries at a point.

    Requires Im tau >= min_im and a negligible tail:
    |q|^valid_below * (term count + 1) < 1e-14.  That bounds the tail only
    when every |coefficient| <= 1: it is not scaled by the largest one.
    The default floor of 0.3 suits generic series; the cusp sampler relaxes
    it because heights y map to Im = 1/y.
    """
    y = tau.imag
    if y < min_im:
        raise TailTooLarge(f"Im tau = {y} below {min_im}")
    tail = math.exp(-TWO_PI * y * float(series.valid_below)) * (len(series._terms) + 1)
    if tail > 1e-14:
        raise TailTooLarge(f"tail bound {tail:.2e} at Im tau = {y}")
    # n / den is float(Fraction(n, den)): both are correctly rounded.  A
    # coefficient is sum(v zeta^i) / cden, summed as CycNumber.to_complex does
    total, den, cden = 0j, series.den, series.cden
    roots = series.field._roots
    for n, xs in series._terms.items():
        c = sum((v * roots[i] for i, v in xs), 0j) / cden
        total += c * cmath.exp(2j * math.pi * (n / den) * tau)
    return total


def _height(tau: complex) -> float:
    """Im tau, refused (ValueError) off the upper half-plane."""
    y = tau.imag
    if y <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return y


def _theta_range(m: int, y: float, zim: float) -> int:
    # need 2 pi m y t^2 - 4 pi m |Im z| t >= TAIL_LOG for all |t| >= T
    b = 2.0 * abs(zim) / y
    T = 0.5 * (b + math.sqrt(b * b + 2.0 * TAIL_LOG / (math.pi * m * y)))
    return int(T) + 2


def theta_jacobi_num(m: int, r: int, tau: complex, z: complex) -> complex:
    """theta_j(m, r)(tau, z) by direct adaptive summation."""
    y = _height(tau)
    x0 = r / (2.0 * m)
    N = _theta_range(m, y, z.imag)
    # hoisted in the grouping of 2j * math.pi * m * (...), so every float is unchanged
    c, exp = 2j * math.pi * m, cmath.exp
    total = 0j
    for n in range(-N - 1, N + 2):
        xv = n + x0
        total += exp(c * (xv * xv * tau + 2 * xv * z))
    return total


def theta_vector_num(m: int, tau: complex, z: complex) -> list[complex]:
    return [theta_jacobi_num(m, r, tau, z) for r in range(2 * m)]


def theta_num(m: int, r: int, tau: complex) -> complex:
    """theta_{m,r}(tau) = theta_j(m, r)(tau, 0)."""
    return theta_jacobi_num(m, r, tau, 0j)


def dtheta_num(m: int, r: int, tau: complex) -> complex:
    """(q d/dq) theta_{m,r} at tau: sum of m(n + r/2m)^2 q^{m(n+r/2m)^2}."""
    y = _height(tau)
    x0 = r / (2.0 * m)
    N = _theta_range(m, y, 0.0) + 2
    c, exp = 2j * math.pi, cmath.exp
    total = 0j
    for n in range(-N - 1, N + 2):
        xv = n + x0
        e = m * xv * xv
        total += e * exp(c * e * tau)
    return total


def eta_num(tau: complex) -> complex:
    """Dedekind eta via the pentagonal-number series, adaptive range."""
    y = _height(tau)
    # exponents k(3k-1)/2 + 1/24; need 2 pi y (3k^2/2 - |k|/2) >= TAIL_LOG
    K = int(math.sqrt(2.0 * TAIL_LOG / (3.0 * TWO_PI * y)) + 2.0)
    c, exp = 2j * math.pi, cmath.exp
    total = 0j
    for k in range(-K, K + 1):
        e = k * (3 * k - 1) / 2.0 + 1.0 / 24.0
        total += (-1) ** k * exp(c * e * tau)
    return total


# -- the weight-3 theta Wronskians, as honest functions ----------------------


def wronskian_num(m: int, a: int, b: int, tau: complex) -> complex:
    """theta_{m,a} D theta_{m,b} - theta_{m,b} D theta_{m,a}.

    (m, a, b) = (1, 1, 0) is xi_hat (equal to -eta^6/2), (2, 1, 0) and
    (2, 1, 2) are xi0 and xi2, and (m, m, 0) is xi_star_hat(m).
    """
    return theta_num(m, a, tau) * dtheta_num(m, b, tau) - theta_num(m, b, tau) * dtheta_num(m, a, tau)


# -- the theta transformation law, and the numeric scalar oracle ---------------

ORACLE_TAU = 0.11 + 1.21j
ORACLE_Z = 0.07 + 0.13j

# The largest |c tau + d| the fit accepts: the image point has height
# Im tau / |c tau + d|^2, so the theta sums there grow linearly in it.
# Words with entries <= 4000 stay below it at every |tau| <= 1.5.
FIT_MAX_J = 10 ** 4


def transform_rhs(m: int, gamma, U_complex, tau: complex, z: complex):
    """e^{2 pi i m c z^2/(c tau+d)} (c tau+d)^{1/2} U Theta(tau, z)."""
    den = gamma.c * tau + gamma.d
    fac = cmath.exp(2j * cmath.pi * m * gamma.c * z * z / den) * cmath.sqrt(den)
    theta = theta_vector_num(m, tau, z)
    return [fac * sum(U_complex[i][j] * theta[j] for j in range(2 * m)) for i in range(2 * m)]


def fit_scalar(m: int, word, U, tau: complex = ORACLE_TAU, z: complex = ORACLE_Z):
    """Fit the scalar s with true multiplier matrix = s * U, numerically.

    An oracle for the exact scalar of :func:`jfkernel.weil.resolve_scalar`:
    evaluates both sides of the transformation law of ``word`` at one point
    (Im tau >= 0.5 required), least-squares fits the ratio and snaps it to
    the nearest 24th root of unity in Q(zeta_24), with tolerance 1e-6
    (SnapFailed beyond it).  The cost grows with |c tau + d| for the word's
    matrix, so the fit refuses (ValueError) above FIT_MAX_J.
    """
    if tau.imag < 0.5:
        raise ValueError("resolution point needs Im tau >= 0.5")
    gamma = word.to_matrix()
    j = abs(gamma.c * tau + gamma.d)
    if j > FIT_MAX_J:
        raise ValueError(f"numeric fit refused: |c tau + d| = {j:.3g} at tau={tau} "
                         f"exceeds {FIT_MAX_J}")
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


ETA6 = NumericForm("eta^6", lambda tau: eta_num(tau) ** 6)
XI0_HAT = NumericForm("xi0_hat", lambda tau: wronskian_num(2, 1, 0, tau))
XI2_HAT = NumericForm("xi2_hat", lambda tau: wronskian_num(2, 1, 2, tau))
CONST_ONE = NumericForm("1", lambda tau: 1.0 + 0j)


def xi_star_form(m: int) -> NumericForm:
    return NumericForm(f"xi{m}_star_hat", lambda tau: wronskian_num(m, m, 0, tau))


def sample_points(rng, count: int):
    """Sample points with Im tau in [0.8, 1.5], |Re tau| <= 0.5, |z| <= 0.3."""
    pts = []
    for _ in range(count):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
        radius = rng.uniform(0.0, 0.3)
        angle = rng.uniform(0.0, TWO_PI)
        pts.append((tau, radius * cmath.exp(1j * angle)))
    return pts
