"""The kernel isomorphisms and the distinguished weight-3 forms.

Everything is built from the one-variable theta components and the
normalised derivative D = q d/dq:

* xi_hat            = theta_{1,1} D theta_{1,0} - theta_{1,0} D theta_{1,1}
                      (equals -eta^6/2);
* xi_m_star_hat     = the same Wronskian at index m, equal to
                      m * xi_hat(m tau) and -(m/2) eta^6(m tau);
* xi_pair_hat       = (xi0, xi2), the index-2 Wronskians against
                      theta_{2,1};
* lambda2_fwd/inv   = the index-2 kernel isomorphism: divide the 0- and
                      2-components by theta_{2,1}, resp. rebuild a
                      two-variable series whose z = 0 restriction vanishes
                      identically;
* lambda_star_fwd/inv = the squarefree-index analogue on series supported
                      on the 0 and m components;
* psi_form          = the quotient phi0/xi2 = -phi2/xi0 attached to a pair
                      killed by both restriction and heat operator;
* psi_0m            = the projection onto the 0 and m components;
* remark_maps       = the auxiliary isomorphisms between the vector-valued
                      and scalar pictures.

The heat operator interacts with the inverse maps through exact series
identities (constants 8k and 4mk) which the verify module re-derives by
brute force before asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jacobi import JacobiSeries, theta_component, theta_decompose, theta_j
from .series import FormMeta, PuiseuxSeries, dilate, div_exact, eta_power, euler_d


class InconsistentPair(ValueError):
    """The two defining quotients of a component pair disagree."""


class CompatibilityFailed(ValueError):
    """phi0 xi0 + phi2 xi2 does not vanish on the common range."""


class ConstraintFailed(ValueError):
    """A remark-map precondition fails on the given pair."""


class NonSquarefreeIndex(ValueError):
    """The squarefree-index construction was called with a squareful index."""


@dataclass(frozen=True)
class VVPair:
    """A two-component vector of q-series sharing a common valid range."""

    comp0: PuiseuxSeries
    comp2: PuiseuxSeries
    meta: FormMeta | None = None

    def agreement_bound(self):
        return min(self.comp0.valid_below, self.comp2.valid_below)

    def to_json(self):
        return {
            "phi0": self.comp0.to_json(),
            "phi2": self.comp2.to_json(),
            "meta": self.meta.to_json() if self.meta is not None else None,
        }

    @staticmethod
    def from_json(obj) -> "VVPair":
        return VVPair(
            PuiseuxSeries.from_json(obj["phi0"]),
            PuiseuxSeries.from_json(obj["phi2"]),
            FormMeta.from_json(obj.get("meta")),
        )


def is_squarefree(m: int) -> bool:
    if m < 1:
        return False
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        p += 1
    return True


# ---------------------------------------------------------------------------
# The weight-3 Wronskians (all stored divided by 2 pi i)


def xi_hat(order) -> PuiseuxSeries:
    """theta_{1,1} D theta_{1,0} - theta_{1,0} D theta_{1,1}; equals -eta^6/2."""
    order = Fraction(order)
    if order <= Fraction(1, 4):
        raise ValueError("order must exceed 1/4")
    t0 = theta_component(1, 0, order)
    t1 = theta_component(1, 1, order)
    out = t1 * euler_d(t0) - t0 * euler_d(t1)
    return out.with_meta(FormMeta(weight=Fraction(3), level=1, character="omega_m",
                                  kind="cuspidal", source="xi_hat"))


def xi_m_star_hat(m: int, order) -> PuiseuxSeries:
    """The index-m Wronskian theta_{m,m} D theta_{m,0} - theta_{m,0} D theta_{m,m}."""
    if m < 1:
        raise ValueError("index must be a positive integer")
    order = Fraction(order)
    t0 = theta_component(m, 0, order)
    tm = theta_component(m, m, order)
    out = tm * euler_d(t0) - t0 * euler_d(tm)
    return out.with_meta(FormMeta(weight=Fraction(3), level=m, character="omega_m",
                                  kind="cuspidal", source=f"xi_star_hat({m})"))


def xi_pair_hat(order):
    """(xi0, xi2): Wronskians of theta_{2,0}, theta_{2,2} against theta_{2,1}."""
    order = Fraction(order)
    if order <= Fraction(5, 8):
        raise ValueError("order must exceed 5/8")
    t0 = theta_component(2, 0, order)
    t1 = theta_component(2, 1, order)
    t2 = theta_component(2, 2, order)
    xi0 = t1 * euler_d(t0) - t0 * euler_d(t1)
    xi2 = t1 * euler_d(t2) - t2 * euler_d(t1)
    meta = FormMeta(weight=Fraction(3), level=2, kind="cuspidal", source="xi_pair_hat")
    return xi0.with_meta(meta), xi2.with_meta(meta)


def eta6_dilated(m: int, order) -> PuiseuxSeries:
    """eta^6(m tau), truncated below ``order``."""
    base = eta_power(6, (Fraction(order) / m) + Fraction(1))
    return dilate(base, m).truncate(Fraction(order) + m)


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
    out = (
        (phi0 * t1) * theta_j(2, 0, order)
        + mid * (theta_j(2, 1, order) + theta_j(2, 3, order))
        + (phi2 * t1) * theta_j(2, 2, order)
    )
    meta = FormMeta(index=2, kind="unchecked", source="lambda2_inv")
    if phi0.meta is not None and phi0.meta.weight is not None:
        meta = FormMeta(weight=phi0.meta.weight + 1, index=2,
                        level=phi0.meta.level, kind="unchecked", source="lambda2_inv")
    return out.with_meta(meta)


# ---------------------------------------------------------------------------
# Squarefree index: the scalar quotient and its inverse


def _common_quotient(a1, b1, a2, b2, error):
    """a1/b1, checked term-exactly against a2/b2 below the lesser of the two
    quotient bounds and truncated there; ``error(q1, q2, bound)`` is the
    exception raised when the quotients differ."""
    q1 = div_exact(a1, b1)
    q2 = div_exact(a2, b2)
    bound = min(q1.valid_below, q2.valid_below)
    if not q1.same_below(q2, bound):
        raise error(q1, q2, bound)
    return q1.truncate(bound)


def lambda_star_fwd(h_m0: PuiseuxSeries, h_mm: PuiseuxSeries, m: int) -> PuiseuxSeries:
    """The common quotient h_{m,0}/theta_{m,m} = -h_{m,m}/theta_{m,0}.

    Raises :class:`InconsistentPair` when the two quotients disagree, i.e.
    when h_{m,0} theta_{m,0} + h_{m,m} theta_{m,m} != 0.
    """
    order = max(h_m0.valid_below, h_mm.valid_below) + m
    t0 = theta_component(m, 0, order)
    tm = theta_component(m, m, order)
    return _common_quotient(
        h_m0, tm, -h_mm, t0,
        lambda q1, q2, bound: InconsistentPair(f"quotients differ at q^{q1.first_difference(q2, bound)}"))


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
    out = (phi * tm) * theta_j(m, 0, order) - (phi * t0) * theta_j(m, m, order)
    meta = FormMeta(index=m, kind="unchecked", source=f"lambda_star_inv({m})")
    if phi.meta is not None and phi.meta.weight is not None:
        meta = FormMeta(weight=phi.meta.weight + 1, index=m,
                        level=phi.meta.level, kind="unchecked",
                        source=f"lambda_star_inv({m})")
    return out.with_meta(meta)


# ---------------------------------------------------------------------------
# The weight-(k-4) quotient


def psi_form(phi0: PuiseuxSeries, phi2: PuiseuxSeries, order=None) -> PuiseuxSeries:
    """The common quotient phi0/xi2 = -phi2/xi0.

    Requires phi0 xi0 + phi2 xi2 = 0 on the common range
    (:class:`CompatibilityFailed` otherwise).  The 2 pi i normalisation of
    the Wronskians cancels in the quotient.
    """
    if order is None:
        order = max(phi0.valid_below, phi2.valid_below) + 2
    xi0, xi2 = xi_pair_hat(Fraction(order))
    combo = phi0 * xi0 + phi2 * xi2
    if not combo.is_zero():
        raise CompatibilityFailed(
            f"phi0 xi0 + phi2 xi2 has a term at q^{combo.val()}"
        )
    q = _common_quotient(phi0, xi2, -phi2, xi0,
                         lambda *_: CompatibilityFailed("the two psi quotients disagree"))
    return q.with_meta(FormMeta(kind="unchecked", source="psi_form"))


def psi_0m(phi: JacobiSeries, m: int) -> JacobiSeries:
    """Project onto the 0 and m components: h_0 theta_j(m,0) + h_m theta_j(m,m).

    Idempotent on decomposable series.
    """
    comps = theta_decompose(phi, m)
    order = phi.valid_below
    out = comps[0] * theta_j(m, 0, order) + comps[m] * theta_j(m, m, order)
    return out.with_meta(FormMeta(index=m, kind="unchecked", source=f"psi_0m({m})"))


# ---------------------------------------------------------------------------
# Remark maps between the two vector-valued pictures


def remark_maps(pair: VVPair, direction: str):
    """Auxiliary isomorphisms on component pairs.

    * ``r3_fwd``: divide both components by theta_{2,1};
    * ``r3_inv``: multiply both components by theta_{2,1};
    * ``r4``: for a pair with phi0 th20 + phi2 th22 = 0, return
      phi0 th21 / th22, checking it equals -phi2 th21 / th20.
    """
    order = pair.agreement_bound() + 2
    t1 = theta_component(2, 1, order)
    if direction == "r3_fwd":
        return VVPair(div_exact(pair.comp0, t1), div_exact(pair.comp2, t1),
                      FormMeta(source="remark_r3_fwd"))
    if direction == "r3_inv":
        return VVPair(pair.comp0 * t1, pair.comp2 * t1, FormMeta(source="remark_r3_inv"))
    if direction == "r4":
        t0 = theta_component(2, 0, order)
        t2 = theta_component(2, 2, order)
        combo = pair.comp0 * t0 + pair.comp2 * t2
        if not combo.is_zero():
            raise ConstraintFailed(
                f"phi0 th20 + phi2 th22 has a term at q^{combo.val()}"
            )
        q = _common_quotient(pair.comp0 * t1, t2, -(pair.comp2 * t1), t0,
                             lambda *_: ConstraintFailed("the two quotients disagree"))
        return q.with_meta(FormMeta(source="remark_r4"))
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Brute-force constant derivations (used before freezing identity tests)


def derive_bridge_constant(order=12):
    """The constant c in th22 xi0 - th20 xi2 = c * th21 xi_star_hat(2).

    Derived by exact series division, term by term.
    """
    order = Fraction(order)
    xi0, xi2 = xi_pair_hat(order)
    t0 = theta_component(2, 0, order)
    t1 = theta_component(2, 1, order)
    t2 = theta_component(2, 2, order)
    lhs = t2 * xi0 - t0 * xi2
    rhs = t1 * xi_m_star_hat(2, order)
    q = div_exact(lhs, rhs)
    if len(q.terms) != 1 or q.val() != 0:
        raise ArithmeticError("bridge sides are not proportional")
    return q.coeff(0)


def derive_heat_constant(m: int, k=2, order=10):
    """C with d2_hat(lambda_star_inv(phi, m), k) = C * k * phi * xi_star_hat(m),
    derived from a probe input by exact division."""
    from .jacobi import d2_hat

    order = Fraction(order)
    probe = PuiseuxSeries({Fraction(0): 1, Fraction(1): 1}, order + m)
    lhs = d2_hat(lambda_star_inv(probe, m, order), k)
    rhs = probe * xi_m_star_hat(m, order) * Fraction(k)
    q = div_exact(lhs, rhs)
    if len(q.terms) != 1 or q.val() != 0:
        raise ArithmeticError("heat image is not proportional to phi * xi_star")
    c = q.coeff(0)
    return c.rational_value()
