"""Differential tests of the series kernels against per-pair reference loops.

The references below are the straightforward loops over pairs of terms, with
Fraction exponents and a normalised CycNumber for every partial product.
The kernels in jfkernel.series and jfkernel.jacobi must give the same terms,
with the same canonical coordinates, the same validity bound and the same
insertion order (numeric evaluation sums terms in that order).
"""

import math
import operator
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfkernel import series
from jfkernel.construct import (
    VVPair,
    lambda2_fwd,
    lambda2_inv,
    lambda_star_fwd,
    lambda_star_inv,
    psi_0m,
    psi_form,
    xi_hat,
    xi_pair_hat,
)
from jfkernel.cyclotomic import CYC24, CycNumber, common_field, cyclotomic_field, imag_unit
from jfkernel.jacobi import (
    JacobiSeries,
    d2_hat,
    recompose,
    restrict_z0,
    theta_component,
    theta_decompose,
    theta_j,
)
from jfkernel.series import (
    ExactDivisionError,
    PuiseuxSeries,
    dilate,
    div_exact,
    eta,
    eta_power,
    euler_d,
)

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
    got_terms = got.terms  # the view builds its coefficients on each access
    assert list(got_terms) == list(want.terms)
    for k, c in want.terms.items():
        g = got_terms[k]
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


def ref_scalar(s, x):
    """s * x for a rational x = p/q by the normalising route: every
    coordinate times p, over cden q, then one content scan."""
    p, q = F(x).as_integer_ratio()
    terms = {k: tuple([(i, v * p) for i, v in xs]) for k, xs in s._terms.items()} if p else {}
    return series._normalised(type(s), terms, s.den, s.valid_below, s.meta, s.field, s.cden * q)


def scalar_operands():
    """Puiseux and Jacobi series in Q(zeta_24) and Q(zeta_40) over cden 1
    and 8, and xi0, which carries a meta."""
    rng = random.Random(163)
    for f in (CYC24, cyclotomic_field(40)):
        for d in (1, 8):
            def c():
                xs = [rng.randint(-9, 9) for _ in range(f.degree)]
                xs[0] |= 1  # an odd coordinate keeps the denominator d
                return f.element(xs, d)

            for s in (PuiseuxSeries({exponent(rng, 0, 6): c() for _ in range(8)}, 6),
                      JacobiSeries({(exponent(rng, 0, 6), rng.randint(-4, 4)): c()
                                    for _ in range(10)}, 6)):
                assert (s.field, s.cden) == (f, d)
                yield s
    yield xi_pair_hat(12)[0]


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
    # an int or Fraction p/q scales the coordinates by p/g over (cden/g) q,
    # g = gcd(p, cden): the bytes of the normalising route; the scalars are
    # zero, signs, a power of two above cden 8, an int sharing 4 with it,
    # and Fractions over 1, 2 and 4.  Negation is the route at -1.
    for s in scalar_operands():
        for x in (0, 1, -1, 16, -12, F(2), F(-1, 2), F(3, 4), F(-7, 2)):
            got, want = s * x, ref_scalar(s, x)
            assert got.to_json_text() == want.to_json_text() == (x * s).to_json_text(), x
            assert ((got.den, got.cden, got.field, got.valid_below, got.meta)
                    == (want.den, want.cden, want.field, want.valid_below, want.meta))
            assert math.gcd(got.cden, *[v for xs in got._terms.values() for _i, v in xs]) == 1
        neg = -s
        assert neg.to_json_text() == (s * -1).to_json_text() == ref_scalar(s, -1).to_json_text()
        assert (neg.field, neg.cden, neg.meta) == (s.field, s.cden, s.meta)


def ref_field_scalar(s, x):
    """s * x for a field element x through the series product kernel, with
    x as a one-term operand at exponent 0."""
    field = common_field(s.field, x.field)
    y = field.embed(x)
    out = series._product(s._triples(s.den, field), [(0, 0, y.xs)] if y.xs else [],
                          series._top(s.valid_below, s.den), field)
    return series._normalised(type(s), s._from_triples(out), s.den, s.valid_below, s.meta,
                              field, s.cden * y.den)


def test_a_field_scalar_multiplies_each_coefficient_once(monkeypatch):
    # zeta_24^3 + 2, i/3, zeta_40 (which lifts a Q(zeta_24) series into
    # Q(zeta_120)) and zero, against the product kernel with a one-term operand
    scalars = (CYC24.zeta(3) + 2, imag_unit().scale(F(1, 3)), cyclotomic_field(40).zeta(1),
               CYC24.zero)
    cases = [(s, x, ref_field_scalar(s, x)) for s in scalar_operands() for x in scalars]
    monkeypatch.setattr(series, "_product", None)
    for s, x, want in cases:
        for got in (s * x, x * s):
            assert got.to_json_text() == want.to_json_text()
            assert ((got.den, got.cden, got.field, got.valid_below, got.meta)
                    == (want.den, want.cden, want.field, want.valid_below, want.meta))
            assert list(got._terms) == list(want._terms)
    assert {want.field.n for _s, _x, want in cases} == {24, 40, 120}


def test_a_rational_scalar_looks_for_content_only_over_a_denominator(monkeypatch):
    xi0 = xi_pair_hat(12)[0]
    assert xi0.cden == 8
    scans = []
    monkeypatch.setattr(series, "_content",
                        lambda *args, _content=series._content: scans.append(1) or _content(*args))
    for x, want in ((2, 0), (F(2), 0), (-1, 0), (F(-4, 1), 0), (F(3, 4), 1), (F(-1, 2), 1)):
        scans.clear()
        xi0 * x
        assert len(scans) == want, x
    scans.clear()
    -xi0
    assert not scans


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


def assert_same_values(got, want, field_order):
    """Same bound, same keys in the same order, equal coefficients, and the
    result held in Q(zeta_field_order).  The references multiply in the
    operands' own fields; the kernels in their join with Q(zeta_24)."""
    assert got.valid_below == want.valid_below
    got_terms = got.terms
    assert list(got_terms) == list(want.terms)
    for k, c in want.terms.items():
        assert got_terms[k] == c, k
    assert got.is_zero() or got.field.n == field_order


def field_coeff(rng, f, rational=False):
    """A nonzero element of ``f``, often with a denominator."""
    while True:
        if rational:
            c = f.from_fraction(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))))
        else:
            c = f.element([rng.randint(-3, 3) if rng.random() < 0.5 else 0
                           for _ in range(f.degree)], rng.choice((1, 2, 4, 6)))
        if not c.is_zero():
            return c


def field_series(rng, f, vb, nterms=10, rational=False, lo=0):
    return PuiseuxSeries({exponent(rng, lo, vb): field_coeff(rng, f, rational)
                          for _ in range(nterms)}, vb)


@pytest.mark.parametrize("n", [24, 40, 120])
def test_products_in_three_fields_match_reference(n):
    rng = random.Random(n + 1)
    f = cyclotomic_field(n)
    join = math.lcm(24, n)
    for _ in range(8):
        a = field_series(rng, f, F(rng.randint(3, 7)))
        b = field_series(rng, f, F(rng.randint(3, 7)))
        q = field_series(rng, f, F(rng.randint(3, 7)), rational=True)
        t = theta_component(2, rng.randint(0, 3), 8)
        # non-rational with non-rational, and a rational operand on either side
        for x, y in ((a, b), (a, q), (q, a), (a, t), (t, a), (q, t)):
            assert_same_values(x * y, ref_mul(x, y), join)
        phi = JacobiSeries({(exponent(rng, 0, 5), rng.randint(-3, 3)): field_coeff(rng, f)
                            for _ in range(12)}, 5)
        tj = theta_j(2, 1, 5)
        for x, y in ((phi, tj), (tj, phi), (phi, a), (phi, phi)):
            assert_same_values(x * y, ref_jmul(x, y), join)
        # scalars multiply in the join of the two fields only
        for x in (3, F(-5, 6), field_coeff(rng, f), field_coeff(rng, f, rational=True),
                  imag_unit()):
            cx = x if isinstance(x, CycNumber) else f.from_fraction(x)
            want = PuiseuxSeries({e: c * cx for e, c in a.terms.items()}, a.valid_below)
            scalar_field = math.lcm(n, cx.field.n)
            assert_same_values(a * x, want, scalar_field)
            assert_same_values(x * a, want, scalar_field)


@pytest.mark.parametrize("n", [24, 40, 120])
def test_division_heat_and_restriction_in_three_fields_match_reference(n):
    rng = random.Random(n + 2)
    f = cyclotomic_field(n)
    join = math.lcm(24, n)
    for _ in range(6):
        a = field_series(rng, f, F(rng.randint(4, 8)), lo=rng.choice((0, 1)))
        b = field_series(rng, f, F(rng.randint(4, 8)), nterms=5)
        t = theta_component(2, 1, 10)
        for x, y in ((a, b), (a * b, b), (a * t, t), (a, t)):
            assert_same_values(div_exact(x, y), ref_div(x, y), join)
        phi = JacobiSeries({(exponent(rng, 0, 5), rng.randint(-4, 4)): field_coeff(rng, f)
                            for _ in range(20)}, 5)
        assert_same_values(restrict_z0(phi), ref_restrict(phi), join)
        for k in (2, F(5, 2), 0):
            assert_same_values(d2_hat(phi, k), ref_d2_hat(phi, k), join)


# -- the heat operator and the restriction --------------------------------------


@pytest.mark.parametrize("k", [2, 4, 10, F(5, 2), F(-1, 3), 0])
def test_d2_hat_matches_reference(k):
    rng = random.Random(113)
    for _ in range(25):
        phi = jacobi(rng, F(rng.randint(3, 8)), nterms=20)
        assert_identical(d2_hat(phi, k), ref_d2_hat(phi, k))


def kernel_elements(rng, field=None):
    """lambda2_inv and lambda_star_inv outputs, m = 1, 2, 3, 5, from random
    inputs in Q(zeta_24) or, given ``field``, in that field."""
    vb = F(rng.randint(3, 6))

    def make():
        return puiseux(rng, vb) if field is None else field_series(rng, field, vb)

    yield lambda2_inv(make(), make(), vb + 2)
    for m in (1, 2, 3, 5):
        yield lambda_star_inv(make(), m, vb + m)


def test_restrict_matches_reference():
    rng = random.Random(127)
    for _ in range(25):
        phi = jacobi(rng, F(rng.randint(3, 8)), nterms=20)
        assert_identical(restrict_z0(phi), ref_restrict(phi))
    # kernel elements restrict to zero identically, with Q(zeta_24) and
    # Q(zeta_120) coefficients: the zero series in Q(zeta_24) over 1, on
    # phi's grid and below phi's bound
    for field in (None, cyclotomic_field(120)):
        for _ in range(3):
            for phi in kernel_elements(rng, field):
                got = restrict_z0(phi)
                assert_identical(got, ref_restrict(phi))
                assert got.is_zero() and got.field is CYC24 and got.cden == 1
                assert (got.den, got.valid_below) == (phi.den, phi.valid_below)


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
    # the heat operator on kernel elements, whose restriction vanishes, with
    # Q(zeta_24) and Q(zeta_120) coefficients and weights over 1, 2 and 3
    rng = random.Random(131)
    for field in (None, cyclotomic_field(120)):
        for phi in kernel_elements(rng, field):
            for k in (2, F(5, 2), F(-7, 3)):
                assert_identical(d2_hat(phi, k), ref_d2_hat(phi, k))


# -- theta decomposition ---------------------------------------------------------


def test_theta_decompose_matches_reference():
    from jfkernel.construct import lambda_star_inv
    from jfkernel.jacobi import DecompositionInconsistent, recompose

    rng = random.Random(157)
    cases = [(lambda2_inv(puiseux(rng, 6), puiseux(rng, 6), 8), 2)]
    for m in (1, 3, 5):
        cases.append((lambda_star_inv(puiseux(rng, 5), m, F(13, 2)), m))
        comps = dict(enumerate([puiseux(rng, 6) for _ in range(2 * m)]))
        cases.append((recompose(comps, m, 7), m))
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


def test_div_exact_non_rational_leading_coefficient():
    lead = CYC24.element([1, 1, 0, 0, 0, 0, 1, 0], 2)
    b = PuiseuxSeries({F(1, 8): lead, F(9, 8): imag_unit(), F(5, 3): 3}, 9)
    rng = random.Random(139)
    for _ in range(10):
        p = puiseux(rng, 7)
        a = p * b
        q = div_exact(a, b)
        assert_identical(q, ref_div(a, b))
        assert q.same_below(p)


def test_div_exact_remainder_that_cancels():
    # (1 - q)/(1 - q) = 1: every remainder term after the first cancels
    b = PuiseuxSeries({0: 1, 1: -1}, 10)
    q = div_exact(b, b)
    assert q.terms == {F(0): CYC24.one}
    assert_identical(q, ref_div(b, b))
    assert_identical(div_exact(PuiseuxSeries.zero(4), b), ref_div(PuiseuxSeries.zero(4), b))
    with pytest.raises(ExactDivisionError):
        div_exact(b, PuiseuxSeries.zero(4))


def _dividends(rng):
    """Dividends in Q(zeta_24), Q(zeta_40) and Q(zeta_120), with and
    without a coefficient denominator."""
    for f in (CYC24, cyclotomic_field(40), cyclotomic_field(120)):
        for _ in range(2):
            yield field_series(rng, f, F(rng.randint(5, 9)), lo=rng.choice((0, 1)))
        # the coefficients' denominators divide 12
        yield field_series(rng, f, 7) * 12
    yield puiseux(rng, 8) * F(1, 6)


# Every theta component at m <= 6, and integer or rational multiples of
# monic series over Z, divide one integer coordinate at a time with no field
# inverse.  Every other divisor takes the cyclotomic long division, which
# multiplies both operands by the inverse of the lead, whatever it is: 2 + q
# and 3 + q^2, whose lead does not divide their tail, a monic divisor with
# cyclotomic coefficients, a lead zeta_24^3, and xi2, whose lead 3/4 has a
# rational inverse.
@pytest.mark.parametrize("divisor, inverts", [
    *[pytest.param(lambda m=m, r=r: theta_component(m, r, 10), False, id=f"theta_{m},{r}")
      for m in range(1, 7) for r in range(m + 1)],
    pytest.param(lambda: theta_component(2, 1, 10) * -3, False, id="-3 theta_2,1"),
    pytest.param(lambda: theta_component(2, 1, 10) * F(1, 3), False, id="theta_2,1 / 3"),
    pytest.param(lambda: PuiseuxSeries({0: -5, F(1, 2): 10, 3: -15}, 9), False,
                 id="-5 + 10q^(1/2) - 15q^3"),
    pytest.param(lambda: PuiseuxSeries({0: 2, 1: 1}, 9), True, id="2 + q"),
    pytest.param(lambda: PuiseuxSeries({0: 3, 2: 1}, 9), True, id="3 + q^2"),
    pytest.param(lambda: PuiseuxSeries({0: 1, F(1, 2): CYC24.zeta(1), 2: imag_unit()}, 9), True,
                 id="1 + zeta_24 q^(1/2) + i q^2"),
    pytest.param(lambda: PuiseuxSeries({F(1, 8): CYC24.zeta(3), 1: 2, F(3, 2): CYC24.zeta(5)}, 9),
                 True, id="zeta_24^3 q^(1/8) + 2q + zeta_24^5 q^(3/2)"),
    pytest.param(lambda: xi_pair_hat(10)[1], True, id="xi2"),
])
def test_div_exact_matches_reference_on_both_sides_of_the_integer_branch(
        request, divisor, inverts, monkeypatch):
    b = divisor()
    rng = random.Random(request.node.callspec.id)
    cdens = set()
    for p in _dividends(rng):
        for a in (p, p * b):
            q = div_exact(a, b)
            assert_identical(q, ref_div(a, b))
            assert q.den == math.lcm(a.den, b.den)
            assert q.is_zero() or q.field.n == math.lcm(24, a.field.n, b.field.n)
            cdens.add(a.cden > 1)
    assert cdens == {False, True}
    # the reference inverts the lead itself: count the kernel's calls only
    inverses = []
    monkeypatch.setattr(CycNumber, "inverse",
                        lambda x, _inverse=CycNumber.inverse: inverses.append(x) or _inverse(x))
    div_exact(p, b)
    assert bool(inverses) == inverts


def test_div_exact_drops_the_terms_past_the_quotient_bound():
    # below q^(11/4) = 3 - 2/8: the dividend's terms at q^3 and q^5 are cut
    for b in (theta_component(2, 1, 3), PuiseuxSeries({F(1, 8): 2, F(9, 8): 1}, 3)):
        a = PuiseuxSeries({0: 1, 1: F(-2, 3), 3: 7, 5: imag_unit()}, 10)
        q = div_exact(a, b)
        assert q.valid_below == F(11, 4) and q.val() == F(-1, 8)
        assert_identical(q, ref_div(a, b))


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


# -- validity bounds -------------------------------------------------------------
#
# A kernel applied to inputs truncated to B claims no term it does not know:
# below its bound it agrees with the same kernel applied to the same inputs
# known further, and its bound is no larger than that run's.


def _cut_series(rng, b, top, lo=0):
    """A random series known below ``top``, on mixed grids, with a term
    exactly at the cut ``b``."""
    return puiseux(rng, top, lo=lo) + PuiseuxSeries({b: coeff(rng)}, top)


def _cut_jacobi(rng, b, top):
    return jacobi(rng, top) + JacobiSeries({(b, rng.randint(-3, 3)): coeff(rng)}, top)


def _decomposable(rng, b, top, m):
    """sum_r h_r theta_j(m, r) for random components h_r."""
    return recompose({r: _cut_series(rng, b, top) for r in range(2 * m)}, m, top)


def _lambda_star_case(m):
    def case(rng, b, top):
        return (lambda phi: lambda_star_inv(phi, m, top + m)), (_cut_series(rng, b, top),)
    return case


def _lambda_star_fwd_case(m):
    def case(rng, b, top):
        g = _cut_series(rng, b, top)
        h0 = g * theta_component(m, m, top)
        return (lambda a, c: lambda_star_fwd(a, c, m)), (h0, -(g * theta_component(m, 0, top)))
    return case


def _dilate_case(rng, b, top):
    m = rng.randint(2, 4)
    return (lambda a: dilate(a, m)), (_cut_series(rng, b, top, lo=-1),)


def _div_eta_case(rng, b, top):
    return div_exact, (_cut_series(rng, b, top, lo=-1), eta_power(rng.randint(1, 8), top))


def _d2_hat_case(rng, b, top):
    k = rng.choice((2, 4, F(5, 2), F(-1, 3)))
    return (lambda phi: d2_hat(phi, k)), (_cut_jacobi(rng, b, top),)


def _theta_decompose_case(rng, b, top):
    m = rng.randint(1, 3)
    return (lambda phi: theta_decompose(phi, m)), (_decomposable(rng, b, top, m),)


def _psi_0m_case(rng, b, top):
    m = rng.randint(1, 3)
    return (lambda phi: psi_0m(phi, m)), (_decomposable(rng, b, top, m),)


def _psi_form_case(rng, b, top):
    g = _cut_series(rng, b, top)
    xi0, xi2 = xi_pair_hat(top)
    return psi_form, (g * xi2, -(g * xi0))


BOUND_CASES = {
    "*": lambda rng, b, top: (operator.mul, (_cut_series(rng, b, top),
                                             _cut_series(rng, b, top, lo=-1))),
    "* (two variables)": lambda rng, b, top: (operator.mul, (_cut_jacobi(rng, b, top),
                                                             _cut_series(rng, b, top))),
    "+": lambda rng, b, top: (operator.add, (_cut_series(rng, b, top),
                                             _cut_series(rng, b, top, lo=-1))),
    "euler_d": lambda rng, b, top: (euler_d, (_cut_series(rng, b, top, lo=-1),)),
    "dilate": _dilate_case,
    "div_exact by eta^p": _div_eta_case,
    "div_exact by theta_{2,1}": lambda rng, b, top: (
        div_exact, (_cut_series(rng, b, top), theta_component(2, 1, top))),
    "restrict_z0": lambda rng, b, top: (restrict_z0, (_cut_jacobi(rng, b, top),)),
    "d2_hat": _d2_hat_case,
    "theta_decompose": _theta_decompose_case,
    "lambda2_inv": lambda rng, b, top: (
        (lambda a, c: lambda2_inv(a, c, top + 2)),
        (_cut_series(rng, b, top), _cut_series(rng, b, top))),
    "lambda2_fwd": lambda rng, b, top: (
        lambda2_fwd, (_cut_series(rng, b, top), _cut_series(rng, b, top))),
    **{f"lambda_star_inv m={m}": _lambda_star_case(m) for m in (1, 2, 3, 5, 6)},
    **{f"lambda_star_fwd m={m}": _lambda_star_fwd_case(m) for m in (1, 2, 3, 5, 6)},
    "psi_0m": _psi_0m_case,
    "psi_form": _psi_form_case,
}


def _outputs(result):
    if isinstance(result, VVPair):
        return [result.comp0, result.comp2]
    return result if isinstance(result, list) else [result]


def _check_bounds(case, seed, b, top, claim=lambda s: s):
    """The kernel of ``case`` on inputs truncated to ``b`` against the same
    kernel on the inputs known below ``top``, each output through ``claim``."""
    kernel, inputs = BOUND_CASES[case](random.Random(seed), b, top)
    full = _outputs(kernel(*inputs))
    cut = _outputs(kernel(*[s.truncate(b) for s in inputs]))
    for t, f in zip(map(claim, cut), map(claim, full), strict=True):
        assert t.valid_below <= f.valid_below, (case, t.valid_below, f.valid_below)
        assert t.same_below(f), (case, t.first_difference(f))


@pytest.mark.parametrize("case", list(BOUND_CASES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b8=st.integers(24, 200), extra8=st.integers(1, 32))
def test_a_validity_bound_never_claims_an_unknown_term(case, seed, b8, extra8):
    b = F(b8, 8)
    _check_bounds(case, seed, b, b + F(extra8, 8))


# the common quotients of lambda_star_fwd and psi_form lie on the lcm of
# their inputs' mixed grids, where one step past the bound rarely holds a term
@pytest.mark.parametrize("case", [c for c in BOUND_CASES
                                  if not c.startswith(("lambda_star_fwd", "psi_form"))])
def test_a_kernel_claiming_one_grid_step_more_fails_the_bound_property(case):
    def one_step_more(s):
        return type(s)(s.terms, s.valid_below + F(1, s.den))

    with pytest.raises(AssertionError):
        for seed in range(10):
            _check_bounds(case, seed, F(5), F(7), one_step_more)
