import random
from fractions import Fraction

import pytest

from jfkernel.cyclotomic import CYC24, imag_unit
from jfkernel.series import (
    ExactDivisionError,
    FormMeta,
    PuiseuxSeries,
    dilate,
    div_exact,
    eta,
    eta_power,
    euler_d,
)

F = Fraction


def series(d, vb):
    return PuiseuxSeries(d, vb)


def random_series(rng, vb, nterms=8, grid=8, leading_one=False, min_exp=0):
    terms = {}
    for _ in range(nterms):
        e = F(rng.randint(min_exp * grid, int(vb * grid) - 1), grid)
        c = rng.randint(-5, 5) + rng.randint(-2, 2) * imag_unit()
        terms[e] = c
    s = PuiseuxSeries(terms, vb)
    if leading_one and not s.is_zero():
        v = s.val()
        t = dict(s.terms)
        t[v] = CYC24.one
        s = PuiseuxSeries(t, vb)
    return s


# -- two-squares oracle for theta_{1,0}^2 ------------------------------------


def sum_of_two_squares(n, span=40):
    return sum(
        1
        for a in range(-span, span + 1)
        for b in range(-span, span + 1)
        if a * a + b * b == n
    )


def theta10(order):
    # direct defining sum, independent of the jacobi module
    terms = {}
    n = 0
    while F(n * n) < order:
        terms[F(n * n)] = terms.get(F(n * n), 0) + (1 if n == 0 else 2)
        n += 1
    return PuiseuxSeries(terms, order)


def test_mul_basic():
    a = series({0: 1, 1: 2}, 10)
    b = series({0: 1, 1: -2}, 10)
    assert (a * b).same_below(series({0: 1, 2: -4}, 10))


def test_theta_square_counts_two_squares():
    t = theta10(F(30))
    sq = t * t
    for n in range(25):
        assert sq.coeff(n) == sum_of_two_squares(n), n


def test_exponent_addition():
    a = PuiseuxSeries.monomial(1, F(1, 8), 10)
    b = PuiseuxSeries.monomial(1, F(1, 2), 10)
    assert (a * b).coeff(F(5, 8)) == 1


def test_euler_d():
    assert euler_d(PuiseuxSeries.one(10)).is_zero()
    m = PuiseuxSeries.monomial(1, F(1, 8), 10)
    assert euler_d(m).coeff(F(1, 8)) == F(1, 8)
    d = euler_d(theta10(F(12)))
    assert d.coeff(1) == 2 and d.coeff(4) == 8 and d.coeff(9) == 18
    assert d.coeff(0) == 0


def test_dilate():
    t = theta10(F(10))
    d = dilate(t, 2)
    assert d.valid_below == 20
    assert d.coeff(0) == 1 and d.coeff(2) == 2 and d.coeff(8) == 2
    assert dilate(t, 1) == t
    assert dilate(eta(F(3)), 2).val() == F(1, 12)


@pytest.mark.parametrize("m", [0, -2])
def test_dilate_refuses_a_factor_below_one(m):
    with pytest.raises(ValueError, match=r"^dilation factor must be a positive integer$"):
        dilate(theta10(F(10)), m)


def test_eta_pentagonal_oracle():
    # Euler: prod(1-q^n) = sum_k (-1)^k q^{k(3k-1)/2} over all integers k
    e = eta(F(40))
    expected = {}
    for k in range(-10, 11):
        g = F(k * (3 * k - 1), 2) + F(1, 24)
        if g < 40:
            expected[g] = (-1) ** k
    assert dict((x, y.rational_value()) for x, y in e.terms.items()) == expected


def test_eta3_dilated_jacobi_oracle():
    # eta(2 tau)^3 = sum (-1)^k (2k+1) q^{k(k+1)+1/4}
    e3 = dilate(eta_power(3, F(15)), 2)
    for k in range(5):
        assert e3.coeff(F(k * (k + 1)) + F(1, 4)) == (-1) ** k * (2 * k + 1)
    assert e3.val() == F(1, 4)


def test_eta6_leading_terms():
    e6 = eta_power(6, F(10))
    assert e6.val() == F(1, 4)
    assert e6.coeff(F(1, 4)) == 1
    assert e6.coeff(F(5, 4)) == -6
    assert e6.coeff(F(9, 4)) == 9


def test_div_exact_round_trip():
    t21 = PuiseuxSeries(
        {F(1, 8): 1, F(9, 8): 1, F(25, 8): 1, F(49, 8): 1}, F(58, 8)
    )
    a = t21 * series({0: 1, 1: 1}, 6)
    q = div_exact(a, t21)
    assert q.same_below(series({0: 1, 1: 1}, 6), min(q.valid_below, 6))


def pentagonal_eta(order):
    """eta below ``order`` from Euler's pentagonal sum
    sum_k (-1)^k q^{k(3k-1)/2 + 1/24} through the constructor, with no
    recurrence."""
    terms = {}
    k = 0
    while F(k * (3 * k - 1), 2) < order:
        for j in {k, -k}:
            terms[F(j * (3 * j - 1), 2) + F(1, 24)] = (-1) ** k
        k += 1
    return PuiseuxSeries(terms, order)


@pytest.mark.parametrize("order", [F(1, 2), F(7, 3), F(50), F(400)])
def test_eta_power_matches_the_repeated_product(order):
    """Miller's recurrence against p - 1 products with Euler's pentagonal sum
    below the order they need: the same terms, bound, grid and field for
    p = 1..30, stored in ascending order, and a refusal of an order at or
    below p/24 that names p/24."""
    for p in range(1, 31):
        if order <= F(p, 24):
            with pytest.raises(ValueError, match=f"^order must exceed {F(p, 24)}$"):
                eta_power(p, order)
            continue
        base = pentagonal_eta(order - F(p - 1, 24))
        want = base
        for _ in range(p - 1):
            want = want * base
        got = eta_power(p, order)
        assert got._terms == want._terms, p
        assert (got.valid_below, got.den, got.field, got.cden) == \
            (want.valid_below, want.den, want.field, want.cden)
        assert list(got._terms) == sorted(got._terms)
        assert got.meta == FormMeta(weight=F(p, 2), level=1, kind="cuspidal", source=f"eta^{p}")


def test_div_exact_eta_cube():
    e6 = eta_power(6, 12)
    e3 = eta_power(3, 12)
    q = div_exact(e6, e3)
    assert q.same_below(e3)


def test_div_exact_leading_behavior():
    # theta_{2,2}/theta_{2,1} starts with 2 q^{3/8}
    t22 = PuiseuxSeries({F(1, 2): 2, F(9, 2): 2, F(25, 2): 2}, F(27, 2))
    t21 = PuiseuxSeries({F(1, 8): 1, F(9, 8): 1, F(25, 8): 1, F(49, 8): 1, F(81, 8): 1}, F(98, 8))
    q = div_exact(t22, t21)
    assert q.val() == F(3, 8)
    assert q.coeff(F(3, 8)) == 2
    # long-division oracle: re-multiply
    assert (q * t21).same_below(t22)


def test_div_by_zero_series():
    with pytest.raises(ExactDivisionError):
        div_exact(PuiseuxSeries.one(5), PuiseuxSeries.zero(5))


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(60):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        c = random_series(rng, 6)
        assert ((a + b) + c) == (a + (b + c))
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.same_below(rhs)
        p1 = (a * b) * c
        p2 = a * (b * c)
        assert p1.same_below(p2)


def test_derivation_property():
    rng = random.Random(29)
    for _ in range(40):
        a = random_series(rng, 8)
        b = random_series(rng, 8)
        lhs = euler_d(a * b)
        rhs = euler_d(a) * b + a * euler_d(b)
        assert lhs.same_below(rhs)


def test_dilate_properties():
    rng = random.Random(31)
    for _ in range(30):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        m = rng.randint(1, 5)
        assert dilate(a * b, m) == dilate(a, m) * dilate(b, m)
        assert euler_d(dilate(a, m)) == m * dilate(euler_d(a), m)


def test_div_round_trip_random():
    rng = random.Random(37)
    for _ in range(40):
        a = random_series(rng, 7)
        b = random_series(rng, 7, leading_one=True)
        if b.is_zero():
            continue
        q = div_exact(a * b, b)
        assert q.same_below(a)


def test_zero_series_val_is_bound():
    z = PuiseuxSeries.zero(F(7, 2))
    assert z.val() == F(7, 2)
    assert (z * PuiseuxSeries.one(10)).valid_below == F(7, 2) + 0


def test_json_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        a = random_series(rng, 9)
        b = PuiseuxSeries.from_json(a.to_json())
        assert a == b
    e = eta(F(5))
    assert PuiseuxSeries.from_json(e.to_json()) == e
    assert e.to_json()["meta"]["weight"] == "1/2"


def test_text_rendering():
    s = PuiseuxSeries({F(1, 8): 1, F(9, 8): 1}, 5)
    assert s.to_text() == "q^(1/8) + q^(9/8)"
    t = PuiseuxSeries({0: 1, 1: -1, 2: -1, 5: 1}, 13)
    assert t.to_text() == "1 - q - q^2 + q^5"


def test_truncate_and_bounds():
    e = eta(F(10))
    t = e.truncate(3)
    assert t.valid_below == 3 and max(t.terms) < 3
    with pytest.raises(ValueError):
        t.truncate(5)
    with pytest.raises(ValueError):
        t.same_below(e, 8)
