"""The kernel isomorphisms and the distinguished weight-3 forms.

Everything is built from the one-variable theta components and the
normalised derivative D = q d/dq:

* xi_m_star_hat     = theta_{m,m} D theta_{m,0} - theta_{m,0} D theta_{m,m},
                      equal to m * xi_hat(m tau) and -(m/2) eta^6(m tau);
* xi_hat            = its index-1 case (equals -eta^6/2);
* xi_pair_hat       = (xi0, xi2), the index-2 Wronskians against
                      theta_{2,1};
* lambda2_fwd/inv   = the index-2 kernel isomorphism: divide the 0- and
                      2-components by theta_{2,1}, resp. rebuild a
                      two-variable series whose z = 0 restriction vanishes
                      identically;
* lambda_star_fwd/inv = the squarefree-index analogue on series supported
                      on the 0 and m components;
* psi_form          = the quotient phi0/xi2 = -phi2/xi0 attached to a pair
                      killed by both restriction and heat operator, whose
                      agreement is the pair's compatibility check;
* psi_0m            = the projection onto the 0 and m components.

The two inverse maps and the projection are theta sums sum_r h_r
theta_j(m, r), built by :func:`~jfkernel.jacobi.recompose` as relabellings
of each h_r's terms onto the theta lattice, with no product and no
reduction.

The Wronskians are fixed forms: each is built once per (index, order), from
one bounded cache, and every caller shares it.

The heat operator interacts with the inverse maps through exact series
identities (constants 8k and 4mk) which the verify module re-derives by
brute force before asserting.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._value import Value
from .cyclotomic import _square_part
from .jacobi import JacobiSeries, d2_hat, recompose, theta_component, theta_decompose
from .series import FormMeta, PuiseuxSeries, _entry, _expect, dilate, div_exact, eta_power, euler_d


class InconsistentPair(ValueError):
    """The two defining quotients of a component pair disagree."""


class CompatibilityFailed(ValueError):
    """phi0 xi0 + phi2 xi2 does not vanish on the common range."""


class NonSquarefreeIndex(ValueError):
    """The squarefree-index construction was called with a squareful index."""


class VVPair(Value):
    """A two-component vector of q-series sharing a common valid range."""

    __slots__ = ("comp0", "comp2", "meta")

    def __init__(self, comp0: PuiseuxSeries, comp2: PuiseuxSeries, meta: FormMeta | None = None):
        self.comp0, self.comp2, self.meta = comp0, comp2, meta

    def to_json(self):
        return {
            "phi0": self.comp0.to_json(),
            "phi2": self.comp2.to_json(),
            "meta": self.meta.to_json() if self.meta is not None else None,
        }

    @staticmethod
    def from_json(obj) -> "VVPair":
        """Decode :meth:`to_json` output, or any object with the series
        "phi0" and "phi2"; malformed input raises ValueError."""
        _expect(obj, dict, "pair")
        return VVPair(
            PuiseuxSeries.from_json(_entry(obj, "phi0", "pair")),
            PuiseuxSeries.from_json(_entry(obj, "phi2", "pair")),
            FormMeta.from_json(obj.get("meta")),
        )


def is_squarefree(m: int) -> bool:
    return m >= 1 and _square_part(m)[0] == 1


# ---------------------------------------------------------------------------
# The weight-3 Wronskians (all stored divided by 2 pi i)


def _wronskian(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    return a * euler_d(b) - b * euler_d(a)


# The most Wronskians :func:`_fixed_form` keeps.  A key holds the caller's
# order, so only a bound caps the cache.  At seed 3 a kernel-deep run builds
# 24 keys and ``verify --suite all`` 28, so a bound of 64 evicts nothing.  At
# order 400, the largest either uses, the pair (xi0, xi2) holds 92 KB and
# xi*_1 48 KB, so a full cache holds at most 5.9 MB.
_WRONSKIANS = 64


@lru_cache(maxsize=_WRONSKIANS)
def _fixed_form(build, *key):
    """``build(*key)``, built once per key.  The Wronskians are fixed forms,
    and no caller modifies a series it is given, so every caller shares one."""
    return build(*key)


def xi_hat(order) -> PuiseuxSeries:
    """:func:`xi_m_star_hat` at index 1, theta_{1,1} D theta_{1,0} -
    theta_{1,0} D theta_{1,1}, which equals -eta^6/2; ``order`` must exceed
    1/4, the exponent of its first term."""
    if Fraction(order) <= Fraction(1, 4):
        raise ValueError("order must exceed 1/4")
    return xi_m_star_hat(1, order).with_meta(FormMeta(weight=Fraction(3), level=1,
                                                      character="omega_m", kind="cuspidal",
                                                      source="xi_hat"))


def _xi_m_star(m: int, order: Fraction) -> PuiseuxSeries:
    out = _wronskian(theta_component(m, m, order), theta_component(m, 0, order))
    return out.with_meta(FormMeta(weight=Fraction(3), level=m, character="omega_m",
                                  kind="cuspidal", source=f"xi_star_hat({m})"))


def xi_m_star_hat(m: int, order) -> PuiseuxSeries:
    """The index-m Wronskian theta_{m,m} D theta_{m,0} - theta_{m,0} D theta_{m,m},
    built once per (m, order)."""
    if m < 1:
        raise ValueError("index must be a positive integer")
    return _fixed_form(_xi_m_star, m, Fraction(order))


def _xi_pair(order: Fraction):
    t1 = theta_component(2, 1, order)
    meta = FormMeta(weight=Fraction(3), level=2, kind="cuspidal", source="xi_pair_hat")
    return tuple(_wronskian(t1, theta_component(2, r, order)).with_meta(meta) for r in (0, 2))


def xi_pair_hat(order):
    """(xi0, xi2): Wronskians of theta_{2,0}, theta_{2,2} against theta_{2,1},
    built once per order."""
    order = Fraction(order)
    if order <= Fraction(5, 8):
        raise ValueError("order must exceed 5/8")
    return _fixed_form(_xi_pair, order)


def eta6_dilated(m: int, order) -> PuiseuxSeries:
    """eta^6(m tau), known below ``order`` + m."""
    return dilate(eta_power(6, Fraction(order) / m + 1), m)


# ---------------------------------------------------------------------------
# Index 2: the kernel pair and its inverse


def lambda2_fwd(h20: PuiseuxSeries, h22: PuiseuxSeries) -> VVPair:
    """Divide the 0- and 2-components by theta_{2,1} (which never vanishes)."""
    order = max(h20.valid_below, h22.valid_below) + 1
    t1 = theta_component(2, 1, order)
    phi0 = div_exact(h20, t1)
    phi2 = div_exact(h22, t1)
    meta = FormMeta(source="lambda2_fwd", kind="unchecked")
    return VVPair(phi0, phi2, meta)


def _inverse_meta(phi: PuiseuxSeries, m: int, source: str) -> FormMeta:
    """The metadata of an inverse map's output at index m: weight + 1 at
    phi's level when phi has a weight."""
    if phi.meta is not None and phi.meta.weight is not None:
        return FormMeta(weight=phi.meta.weight + 1, index=m, level=phi.meta.level,
                        kind="unchecked", source=source)
    return FormMeta(index=m, kind="unchecked", source=source)


def lambda2_inv(phi0: PuiseuxSeries, phi2: PuiseuxSeries, order) -> JacobiSeries:
    """Rebuild the kernel element of a pair:

        phi = phi0 th21 theta_j(2,0) - (phi0 th20 + phi2 th22)/2 *
              (theta_j(2,1) + theta_j(2,3)) + phi2 th21 theta_j(2,2).

    The z = 0 restriction cancels identically because the 1- and 3-
    components restrict to the same series.
    """
    order = Fraction(order)
    t0 = theta_component(2, 0, order)
    t1 = theta_component(2, 1, order)
    t2 = theta_component(2, 2, order)
    mid = (phi0 * t0 + phi2 * t2) * Fraction(-1, 2)
    out = recompose({0: phi0 * t1, 1: mid, 2: phi2 * t1, 3: mid}, 2, order)
    return out.with_meta(_inverse_meta(phi0, 2, "lambda2_inv"))


# ---------------------------------------------------------------------------
# Squarefree index: the scalar quotient and its inverse


def _common_quotient(a1, b1, a2, b2, error):
    """a1/b1, checked term-exactly against a2/b2 in one difference scan below
    the lesser of the two quotient bounds, and truncated there; ``error(at)``
    is the exception raised when they first differ, at q-exponent ``at``."""
    q1 = div_exact(a1, b1)
    q2 = div_exact(a2, b2)
    bound = min(q1.valid_below, q2.valid_below)
    at = q1.first_difference(q2, bound)
    if at is not None:
        raise error(at)
    return q1.truncate(bound)


def lambda_star_fwd(h_m0: PuiseuxSeries, h_mm: PuiseuxSeries, m: int) -> PuiseuxSeries:
    """The common quotient h_{m,0}/theta_{m,m} = -h_{m,m}/theta_{m,0}.

    Raises :class:`InconsistentPair` when the two quotients disagree, i.e.
    when h_{m,0} theta_{m,0} + h_{m,m} theta_{m,m} != 0, and
    :class:`NonSquarefreeIndex` when m is not squarefree.
    """
    if not is_squarefree(m):
        raise NonSquarefreeIndex(f"{m} is not squarefree")
    order = max(h_m0.valid_below, h_mm.valid_below) + m
    t0 = theta_component(m, 0, order)
    tm = theta_component(m, m, order)
    return _common_quotient(h_m0, tm, -h_mm, t0,
                            lambda at: InconsistentPair(f"quotients differ at q^{at}"))


def lambda_star_inv(phi: PuiseuxSeries, m: int, order) -> JacobiSeries:
    """phi * (theta_{m,m} theta_j(m,0) - theta_{m,0} theta_j(m,m)).

    Only squarefree m is allowed; the result restricts to zero at z = 0 and
    is supported on the 0 and m components.
    """
    if not is_squarefree(m):
        raise NonSquarefreeIndex(f"{m} is not squarefree")
    order = Fraction(order)
    t0 = theta_component(m, 0, order)
    tm = theta_component(m, m, order)
    out = recompose({0: phi * tm, m: -(phi * t0)}, m, order)
    return out.with_meta(_inverse_meta(phi, m, f"lambda_star_inv({m})"))


# ---------------------------------------------------------------------------
# The weight-(k-4) quotient


def psi_form(phi0: PuiseuxSeries, phi2: PuiseuxSeries) -> PuiseuxSeries:
    """The common quotient phi0/xi2 = -phi2/xi0, in one checked quotient.

    Since phi0 xi0 + phi2 xi2 = xi0 xi2 (phi0/xi2 - (-phi2/xi0)), the pair
    is compatible exactly when the two quotients agree below the lesser of
    their bounds.  Otherwise :class:`CompatibilityFailed` names the least
    term of phi0 xi0 + phi2 xi2: the quotients' first difference plus
    val xi0 + val xi2.  The 2 pi i normalisation of the Wronskians cancels
    in the quotient.
    """
    xi0, xi2 = xi_pair_hat(max(phi0.valid_below, phi2.valid_below) + 2)
    shift = xi0.val() + xi2.val()
    q = _common_quotient(phi0, xi2, -phi2, xi0, lambda at: CompatibilityFailed(
        f"phi0 xi0 + phi2 xi2 has a term at q^{at + shift}"))
    return q.with_meta(FormMeta(kind="unchecked", source="psi_form"))


def psi_0m(phi: JacobiSeries, m: int) -> JacobiSeries:
    """Project onto the 0 and m components: h_0 theta_j(m,0) + h_m theta_j(m,m).

    Idempotent on decomposable series.
    """
    comps = theta_decompose(phi, m)
    out = recompose({0: comps[0], m: comps[m]}, m, phi.valid_below)
    return out.with_meta(FormMeta(index=m, kind="unchecked", source=f"psi_0m({m})"))


# ---------------------------------------------------------------------------
# Brute-force constant derivations (used before freezing identity tests)


def bridge_sides(order):
    """th22 xi0 - th20 xi2 and th21 xi_star_hat(2), to ``order``: the two
    sides of the bridge identity before its constant."""
    order = Fraction(order)
    xi0, xi2 = xi_pair_hat(order)
    t0, t1, t2 = (theta_component(2, r, order) for r in range(3))
    return t2 * xi0 - t0 * xi2, t1 * xi_m_star_hat(2, order)


def _constant_quotient(lhs, rhs, message):
    """The constant lhs / rhs, by exact division; ArithmeticError(message)
    when the quotient is not a constant."""
    q = div_exact(lhs, rhs)
    if len(q._terms) != 1 or q.val() != 0:
        raise ArithmeticError(message)
    return q.coeff(0)


def derive_bridge_constant(order):
    """The constant c in th22 xi0 - th20 xi2 = c * th21 xi_star_hat(2), by exact division."""
    return _constant_quotient(*bridge_sides(order), "bridge sides are not proportional")


def derive_heat_constant(m: int):
    """C with d2_hat(lambda_star_inv(phi, m), k) = C * k * phi * xi_star_hat(m),
    derived at k = 2 from a probe input, to order 10, by exact division."""
    order = Fraction(10)
    probe = PuiseuxSeries({Fraction(0): 1, Fraction(1): 1}, order + m)
    lhs = d2_hat(lambda_star_inv(probe, m, order), 2)
    rhs = probe * xi_m_star_hat(m, order) * Fraction(2)
    c = _constant_quotient(lhs, rhs, "heat image is not proportional to phi * xi_star")
    return c.rational_value()
