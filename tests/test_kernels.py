"""Differential tests of the series kernels against per-pair reference loops.

The references below are the straightforward loops over pairs of terms, with
Fraction exponents and a normalised CycNumber for every partial product.
The kernels in jfkernel.series and jfkernel.jacobi must give the same terms,
with the same canonical coordinates, the same validity bound and the same
insertion order (numeric evaluation sums terms in that order).
"""

import random
import time
from fractions import Fraction as F

import pytest

from jfkernel.construct import lambda2_fwd, lambda2_inv, xi_hat
from jfkernel.cyclotomic import CYC24, CycNumber, cyclotomic_field, imag_unit
from jfkernel.jacobi import JacobiSeries, d2_hat, restrict_z0, theta_decompose, theta_j
from jfkernel.series import ExactDivisionError, PuiseuxSeries, div_exact, eta, eta_power

DENS = (24, 8, 5, 12)


# -- references ----------------------------------------------------------------


def ref_mul(a, b):
    vb = min(a.valid_below + b.val(), b.valid_below + a.val())
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            if e < vb:
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
    return PuiseuxSeries(out, vb)


def ref_jmul(a, b):
    if isinstance(b, PuiseuxSeries):
        b = JacobiSeries.from_puiseux(b)
    vb = min(a.valid_below + b.val(), b.valid_below + a.val())
    out = {}
    for (n1, r1), c1 in a.terms.items():
        for (n2, r2), c2 in b.terms.items():
            n = n1 + n2
            if n < vb:
                k = (n, r1 + r2)
                p = c1 * c2
                s = out.get(k)
                out[k] = p if s is None else s + p
    return JacobiSeries(out, vb)


def ref_restrict(phi):
    out = {}
    for (n, _r), c in phi.terms.items():
        s = out.get(n)
        out[n] = c if s is None else s + c
    return PuiseuxSeries(out, phi.valid_below)


def ref_d2_hat(phi, k):
    k = F(k)
    out = {}
    for (n, r), c in phi.terms.items():
        factor = k * r * r - 4 * n
        if factor:
            v = c * CYC24.from_fraction(factor)
            s = out.get(n)
            out[n] = v if s is None else s + v
    return PuiseuxSeries(out, phi.valid_below)


def ref_div(a, b):
    if b.is_zero():
        raise ExactDivisionError("division by zero series")
    vb_b = b.val()
    lead = b.terms[vb_b]
    vb = min(a.valid_below, b.valid_below + a.val() - vb_b) - vb_b
    rem = dict(a.terms)
    out = {}
    lead_inv = lead.inverse()
    b_items = sorted(b.terms.items())
    while rem:
        e = min(rem)
        ce = rem.pop(e)
        eq = e - vb_b
        if eq >= vb:
            break
        cq = ce * lead_inv
        out[eq] = cq
        for eb, cb in b_items[1:]:
            et = eq + eb
            s = rem.get(et)
            v = (s if s is not None else CYC24.zero) - cq * cb
            if v.is_zero():
                rem.pop(et, None)
            else:
                rem[et] = v
    return PuiseuxSeries(out, vb)


def ref_eta(order):
    order = F(order)
    bound = order - F(1, 24)
    prod = {F(0): 1}
    n = 1
    while F(n) < bound:
        nxt = dict(prod)
        for e, c in prod.items():
            e2 = e + n
            if e2 < bound:
                nxt[e2] = nxt.get(e2, 0) - c
        prod = {e: c for e, c in nxt.items() if c}
        n += 1
    return PuiseuxSeries({e + F(1, 24): c for e, c in prod.items()}, order)


def ref_add(a, b):
    vb = min(a.valid_below, b.valid_below)
    out = {k: c for k, c in a.terms.items() if (k[0] if isinstance(k, tuple) else k) < vb}
    for k, c in b.terms.items():
        if (k[0] if isinstance(k, tuple) else k) < vb:
            s = out.get(k)
            out[k] = c if s is None else s + c
    return type(a)(out, vb)


def ref_theta_decompose(phi, m):
    two_m = 2 * m
    slots = {}
    violations = []
    for (n, r), c in phi.terms.items():
        key = (r % two_m, n - F(r * r, 4 * m))
        prev = slots.get(key)
        if prev is None:
            slots[key] = (c, (n, r))
        elif prev[0] != c:
            violations.append((prev[1], (n, r)))
    if violations:
        return sorted(violations)
    comps = []
    for r in range(two_m):
        rmin = min(r, two_m - r) if r else 0
        bound = phi.valid_below - F(rmin * rmin, 4 * m)
        terms = {e: c for (rr, e), (c, _) in slots.items() if rr == r and e < bound}
        comps.append(PuiseuxSeries(terms, bound))
    return comps


def assert_identical(got, want):
    """Same bound, same keys in the same order, same canonical coefficients."""
    assert got.valid_below == want.valid_below
    assert list(got.terms) == list(want.terms)
    for k, c in want.terms.items():
        g = got.terms[k]
        assert (g.field.n, g.num, g.den) == (c.field.n, c.num, c.den), k


# -- operands ------------------------------------------------------------------


def coeff(rng):
    """A nonzero element of Q(zeta_24): rational, Gaussian, or general with a
    denominator other than 1."""
    kind = rng.randrange(3)
    while True:
        if kind == 0:
            c = CYC24.from_fraction(F(rng.randint(-6, 6), rng.choice((1, 2, 3))))
        elif kind == 1:
            c = rng.randint(-5, 5) + rng.randint(-2, 2) * imag_unit()
        else:
            c = CYC24.element([rng.randint(-3, 3) for _ in range(8)], rng.choice((2, 3, 6, 7)))
        if not c.is_zero():
            return c


def exponent(rng, lo, hi):
    den = rng.choice(DENS)
    return F(rng.randint(int(lo * den), int(hi * den) - 1), den)


def puiseux(rng, vb, nterms=10, lo=0):
    return PuiseuxSeries({exponent(rng, lo, vb): coeff(rng) for _ in range(nterms)}, vb)


def jacobi(rng, vb, nterms=12, rmax=5):
    return JacobiSeries(
        {(exponent(rng, 0, vb), rng.randint(-rmax, rmax)): coeff(rng) for _ in range(nterms)}, vb
    )


# -- products ------------------------------------------------------------------


def test_product_matches_reference_on_mixed_grids():
    rng = random.Random(101)
    for _ in range(60):
        a = puiseux(rng, F(rng.randint(2, 9), rng.choice(DENS)) + 3, lo=rng.choice((0, 1)))
        b = puiseux(rng, F(rng.randint(2, 9), rng.choice(DENS)) + 3)
        assert_identical(a * b, ref_mul(a, b))


def test_product_drops_the_pair_exactly_at_the_bound():
    a = PuiseuxSeries({F(0): 1, F(39, 8): 3}, 5)
    b = PuiseuxSeries({F(0): 1, F(1, 8): 2}, 20)
    p = a * b
    assert p.valid_below == 5 and F(5) not in p.terms
    assert p.coeff(F(39, 8)) == 3 and p.coeff(F(1, 8)) == 2
    assert_identical(p, ref_mul(a, b))


def test_product_cancellation_and_zero_series():
    a = PuiseuxSeries({0: 1, F(1, 5): 1}, 4)
    b = PuiseuxSeries({0: 1, F(1, 5): -1}, 4)
    p = a * b
    assert F(1, 5) not in p.terms and p.coeff(F(2, 5)) == -1
    assert_identical(p, ref_mul(a, b))
    z = PuiseuxSeries.zero(F(7, 3))
    for x, y in ((z, a), (a, z), (z, z)):
        assert_identical(x * y, ref_mul(x, y))
        assert (x * y).is_zero()


def test_jacobi_product_matches_reference():
    rng = random.Random(103)
    for _ in range(40):
        a = jacobi(rng, F(rng.randint(3, 8)))
        b = jacobi(rng, F(rng.randint(3, 8)), rmax=rng.choice((0, 3, 9)))
        assert_identical(a * b, ref_jmul(a, b))


def test_puiseux_times_jacobi_matches_reference():
    rng = random.Random(107)
    for _ in range(30):
        h = puiseux(rng, F(rng.randint(3, 8)))
        phi = jacobi(rng, F(rng.randint(3, 8)))
        assert_identical(h * phi, ref_jmul(phi, h))
        assert_identical(phi * h, ref_jmul(phi, h))
    t = theta_j(2, 1, 6)
    h = PuiseuxSeries({0: 1, 1: -1}, 6)
    assert_identical(h * t, ref_jmul(t, h))


def test_jacobi_product_cancellation_to_zero():
    # (z - z^-1)(z + z^-1) = z^2 - z^-2; the zeta^0 terms cancel
    a = JacobiSeries({(0, 1): 1, (0, -1): -1}, 3)
    b = JacobiSeries({(0, 1): 1, (0, -1): 1}, 3)
    p = a * b
    assert set(p.terms) == {(0, 2), (0, -2)}
    assert_identical(p, ref_jmul(a, b))


def test_scalar_products():
    rng = random.Random(109)
    a = puiseux(rng, 6)
    phi = jacobi(rng, 6)
    for x in (3, F(-2, 7), 0, imag_unit(), CYC24.element([1, 2, 0, 0, 0, 0, 0, 1], 5)):
        # the reference multiplies by the scalar as a field element
        cx = x if isinstance(x, CycNumber) else CYC24.from_fraction(x)
        want = {e: c * cx for e, c in a.terms.items() if not (c * cx).is_zero()}
        assert (a * x).terms == want and (x * a).terms == want
        jwant = {k: c * cx for k, c in phi.terms.items() if not (c * cx).is_zero()}
        assert (phi * x).terms == jwant


def test_product_across_coefficient_fields():
    # coefficients in Q(zeta_40) and Q(zeta_24) multiply in Q(zeta_120)
    f40 = cyclotomic_field(40)
    a = PuiseuxSeries({0: f40.zeta(1), F(1, 8): 2}, 4)
    b = PuiseuxSeries({0: CYC24.zeta(1), F(1, 3): f40.zeta(3)}, 4)
    p = a * b
    want = ref_mul(a, b)
    assert p.valid_below == want.valid_below and p.terms == want.terms


def test_sums_match_reference():
    rng = random.Random(151)
    for _ in range(30):
        a = puiseux(rng, F(rng.randint(3, 8)))
        b = puiseux(rng, F(rng.randint(3, 8)))
        assert_identical(a + b, ref_add(a, b))
        assert_identical(a - a, ref_add(a, -a))
        x, y = jacobi(rng, F(rng.randint(3, 8))), jacobi(rng, F(rng.randint(3, 8)))
        assert_identical(x + y, ref_add(x, y))
        assert_identical(x - x, ref_add(x, -x))
    # shared coefficient objects: every theta_j coefficient is the same one
    t = theta_j(1, 0, 9)
    assert_identical(t + t, ref_add(t, t))


# -- the heat operator and the restriction --------------------------------------


@pytest.mark.parametrize("k", [2, 4, 10, F(5, 2), F(-1, 3), 0])
def test_d2_hat_matches_reference(k):
    rng = random.Random(113)
    for _ in range(25):
        phi = jacobi(rng, F(rng.randint(3, 8)), nterms=20)
        assert_identical(d2_hat(phi, k), ref_d2_hat(phi, k))


def test_restrict_matches_reference():
    rng = random.Random(127)
    for _ in range(25):
        phi = jacobi(rng, F(rng.randint(3, 8)), nterms=20)
        assert_identical(restrict_z0(phi), ref_restrict(phi))


def test_collapse_cancellation_and_zero_series():
    c = CYC24.element([1, 0, 2, 0, 0, 0, -1, 0], 3)
    phi = JacobiSeries({(F(1, 8), 3): c, (F(1, 8), -3): -c, (F(9, 8), 1): c}, 4)
    assert restrict_z0(phi).terms == {F(9, 8): c}
    assert_identical(restrict_z0(phi), ref_restrict(phi))
    # the heat factor k r^2 - 4n is even in r, so the +-3 pair cancels as
    # well; at k = 9/2 the factor of (9/8, 1) vanishes too
    assert_identical(d2_hat(phi, 2), ref_d2_hat(phi, 2))
    assert d2_hat(phi, F(9, 2)).is_zero()
    z = JacobiSeries.zero(5)
    assert_identical(d2_hat(z, 2), ref_d2_hat(z, 2))
    assert_identical(restrict_z0(z), ref_restrict(z))


# -- theta decomposition ---------------------------------------------------------


def test_theta_decompose_matches_reference():
    from jfkernel.construct import lambda_star_inv
    from jfkernel.jacobi import DecompositionInconsistent, recompose

    rng = random.Random(157)
    cases = [(lambda2_inv(puiseux(rng, 6), puiseux(rng, 6), 8), 2)]
    for m in (1, 3, 5):
        cases.append((lambda_star_inv(puiseux(rng, 5), m, F(13, 2)), m))
        cases.append((recompose([puiseux(rng, 6) for _ in range(2 * m)], m, 7), m))
    for phi, m in cases:
        got = theta_decompose(phi, m)
        for g, w in zip(got, ref_theta_decompose(phi, m)):
            assert_identical(g, w)
    bad = jacobi(rng, 5, nterms=40, rmax=6)
    with pytest.raises(DecompositionInconsistent) as info:
        theta_decompose(bad, 2)
    assert info.value.witnesses == ref_theta_decompose(bad, 2)


# -- division ------------------------------------------------------------------


def test_div_exact_matches_reference():
    rng = random.Random(131)
    for _ in range(40):
        a = puiseux(rng, F(rng.randint(4, 9)), lo=rng.choice((0, 1)))
        b = puiseux(rng, F(rng.randint(4, 9)), nterms=6)
        assert_identical(div_exact(a, b), ref_div(a, b))


def test_div_exact_by_theta_components_matches_reference():
    from jfkernel.jacobi import theta_component

    rng = random.Random(137)
    for m, r in ((2, 1), (2, 2), (3, 3), (5, 0), (1, 1)):
        t = theta_component(m, r, 12)
        a = puiseux(rng, 10) * t
        assert_identical(div_exact(a, t), ref_div(a, t))


def test_div_exact_non_rational_leading_coefficient():
    lead = CYC24.element([1, 1, 0, 0, 0, 0, 1, 0], 2)
    b = PuiseuxSeries({F(1, 8): lead, F(9, 8): imag_unit(), F(5, 3): 3}, 9)
    rng = random.Random(139)
    for _ in range(10):
        p = puiseux(rng, 7)
        a = p * b
        q = div_exact(a, b)
        assert_identical(q, ref_div(a, b))
        assert q.same_below(p, min(q.valid_below, p.valid_below))


def test_div_exact_remainder_that_cancels():
    # (1 - q)/(1 - q) = 1: every remainder term after the first cancels
    b = PuiseuxSeries({0: 1, 1: -1}, 10)
    q = div_exact(b, b)
    assert q.terms == {F(0): CYC24.one}
    assert_identical(q, ref_div(b, b))
    assert_identical(div_exact(PuiseuxSeries.zero(4), b), ref_div(PuiseuxSeries.zero(4), b))
    with pytest.raises(ExactDivisionError):
        div_exact(b, PuiseuxSeries.zero(4))


# -- eta -----------------------------------------------------------------------


@pytest.mark.parametrize("order", [F(1, 12), F(25, 24), F(2), F(49, 24) + F(1, 1000), 40, 150])
def test_eta_matches_product_expansion(order):
    assert_identical(eta(order), ref_eta(order))


def test_eta_power_matches_reference_products():
    base = ref_eta(F(60) - F(5, 24))
    want = base
    for _ in range(5):
        want = ref_mul(want, base)
    assert eta_power(6, 60).terms == want.terms


# -- extreme order -------------------------------------------------------------


def test_eta6_is_minus_two_xi_at_order_1000_quickly():
    start = time.perf_counter()
    e6 = eta_power(6, 1000)
    xi = xi_hat(1000)
    assert e6.same_below(xi * -2, 1000)
    assert time.perf_counter() - start < 2.0


def test_sparse_lambda2_round_trip_at_order_200_quickly():
    rng = random.Random(149)

    def sparse(vb):
        slots = rng.sample(range(int(vb * 8)), 8)
        return PuiseuxSeries({F(k, 8): coeff(rng) for k in slots}, vb)

    phi0, phi2 = sparse(F(200)), sparse(F(200))
    start = time.perf_counter()
    phi = lambda2_inv(phi0, phi2, 202)
    assert restrict_z0(phi).is_zero()
    h = theta_decompose(phi, 2)
    back = lambda2_fwd(h[0], h[2])
    assert back.comp0.same_below(phi0, 200)
    assert back.comp2.same_below(phi2, F(399, 2))
    assert time.perf_counter() - start < 2.0
