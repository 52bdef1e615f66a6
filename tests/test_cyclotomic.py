import cmath
import json
import operator
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from jfkernel.cyclotomic import (
    CYC24,
    MAX_JSON_ORDER,
    CycNumber,
    _factor,
    coerce24,
    common_field,
    cyclotomic_field,
    cyclotomic_poly,
    from_rational,
    imag_unit,
    root_of_unity,
)


def test_minimal_polynomial_order_24():
    # Phi_24(x) = x^8 - x^4 + 1
    assert cyclotomic_poly(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    assert CYC24.degree == 8


def test_small_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_power_reduction():
    # zeta^8 reduces to zeta^4 - 1 in the power basis.
    z8 = root_of_unity(8)
    assert z8 == root_of_unity(4) - 1
    assert root_of_unity(0) == 1
    assert root_of_unity(12) == -1
    # zeta_24^6 = i and i^2 = -1.
    i = root_of_unity(6)
    assert i * i == -1


def test_sqrt2_identity():
    # (zeta_8 + zeta_8^-1)^2 = 2, with zeta_8 = zeta_24^3.
    s = CYC24.sqrt_int(2)
    assert s == root_of_unity(3) + root_of_unity(-3)
    assert s * s == 2


def test_conjugation():
    assert from_rational(1).conj() == 1
    assert imag_unit().conj() == -imag_unit()
    z = root_of_unity(1)
    assert z.conj() == root_of_unity(23)
    assert z.conj().conj() == z


def test_to_complex_examples():
    assert from_rational(1).to_complex() == 1.0 + 0.0j
    v = root_of_unity(3).to_complex()
    assert abs(v - complex(0.7071067811865476, 0.7071067811865476)) < 1e-12
    w = root_of_unity(6).to_complex()
    assert abs(w - 1j) < 1e-12
    x = (root_of_unity(5) + 3 * root_of_unity(17)) / 7
    ref = (cmath.exp(2j * cmath.pi * 5 / 24) + 3 * cmath.exp(2j * cmath.pi * 17 / 24)) / 7
    assert abs(x.to_complex() - ref) < 1e-13


def test_to_complex_without_mpmath():
    # a None entry in sys.modules makes any import of mpmath fail
    code = ("import sys; sys.modules['mpmath'] = None; import jfkernel; "
            "from jfkernel.cyclotomic import root_of_unity; "
            "print(repr(((root_of_unity(5) + 3 * root_of_unity(17)) / 7).to_complex()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    x = (root_of_unity(5) + 3 * root_of_unity(17)) / 7
    assert complex(proc.stdout.strip()) == x.to_complex()


def _random_element(rng, field=CYC24, span=20):
    num = [rng.randint(-span, span) for _ in range(field.degree)]
    den = rng.randint(1, span)
    return field.element(num, den)


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(1000):
        a = _random_element(rng)
        b = _random_element(rng)
        c = _random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    for _ in range(200):
        a = _random_element(rng)
        if not a.is_zero():
            assert a * a.inverse() == 1
            assert a / a == 1


def test_inverse_dense_and_sparse_in_several_fields():
    rng = random.Random(19)
    # Gauss-sum square roots, sparse sums of roots of unity, negative rationals
    roots = {24: (2, 3, 6), 40: (2, 5, 10), 120: (3, 5, 30), 168: (2, 7, 42)}
    for n, ds in roots.items():
        f = cyclotomic_field(n)
        xs = [_random_element(rng, f), _random_element(rng, f, span=3),
              f.from_fraction(Fraction(-7, 3)), f.from_fraction(-1),
              f.zeta(1) + 3 * f.zeta(5) - 2, f.zeta(n // 2 + 1) * Fraction(5, 2)]
        xs += [f.sqrt_int(d) for d in ds] + [1 - f.sqrt_int(d) / 3 for d in ds]
        for x in xs:
            y = x.inverse()
            assert y.field is f
            assert x * y == 1, (n, x)
            assert abs(y.to_complex() * x.to_complex() - 1) < 1e-9
    assert from_rational(Fraction(-3, 4)).inverse() == from_rational(Fraction(-4, 3))


def test_galois_is_a_field_automorphism():
    rng = random.Random(23)
    for n in (24, 40, 120):
        f = cyclotomic_field(n)
        units = [k for k in range(1, n) if gcd(k, n) == 1]
        for _ in range(12):
            a, b = _random_element(rng, f, span=5), _random_element(rng, f, span=5)
            k, l = rng.choice(units), rng.choice(units)
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
            assert a.galois(k).galois(l) == a.galois(k * l % n)
            assert f.zeta(1).galois(k) == f.zeta(k)
            assert a.galois(1) == a and a.galois(-1) == a.conj()
            assert f.from_fraction(Fraction(-5, 7)).galois(k) == Fraction(-5, 7)


def test_conj_is_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        a = _random_element(rng)
        b = _random_element(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a


def test_embedding_homomorphism_on_units():
    rng = random.Random(13)
    for _ in range(200):
        a = root_of_unity(rng.randrange(24))
        b = root_of_unity(rng.randrange(24))
        lhs = (a * b).to_complex()
        rhs = a.to_complex() * b.to_complex()
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("n", [24, 120])
def test_reflected_division_is_the_inverse_times_the_numerator(n):
    rng = random.Random(n)
    f = cyclotomic_field(n)
    for x in [f.zeta(7), f.one - f.zeta(1), *(_random_element(rng, f, span=5) for _ in range(4))]:
        assert 2 / x == x.inverse() * 2
        assert Fraction(1, 3) / x == x.inverse() / 3
        assert (2 / x).field is f


@pytest.mark.parametrize("n", [24, 120])
def test_powers_match_the_repeated_product(n):
    rng = random.Random(n + 1)
    f = cyclotomic_field(n)
    for x in [f.zeta(5), from_rational(Fraction(-2, 3)), _random_element(rng, f, span=3)]:
        assert x ** 0 == 1
        up, down = f.one, f.one
        for e in range(1, 13):
            up, down = up * x, down * x.inverse()
            assert x ** e == up, e
            if e <= 4:
                assert x ** -e == down, -e


def test_operators_refuse_an_operand_that_does_not_coerce():
    x = CYC24.zeta(5) + 2
    for op, sign in [(operator.add, r"\+"), (operator.sub, "-"), (operator.truediv, "/")]:
        with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for {sign}: "
                                            r"'CycNumber' and 'object'"):
            op(x, object())
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /: 'object' and 'CycNumber'"):
        object() / x
    assert (x == "a") is False and (x != "a") is True


def test_reflected_subtraction_goes_through_the_one_coercion():
    x = CYC24.zeta(5) + 2
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'object' and 'CycNumber'"):
        object() - x
    assert 3 - x == -(x - 3) and Fraction(1, 2) - x == -(x - Fraction(1, 2))
    assert (3 - cyclotomic_field(40).zeta(1)).field.n == 40


def test_refusals_of_the_field_module():
    with pytest.raises(ValueError, match=r"^order must be positive$"):
        cyclotomic_poly(0)
    with pytest.raises(ValueError, match=r"^cyc24\[0,1,0,0,0,0,0,0\] is not rational$"):
        CYC24.zeta(1).rational_value()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        from_rational(1) / from_rational(0)
    with pytest.raises(ZeroDivisionError):
        CYC24.zero.inverse()


def test_canonical_representation():
    a = CYC24.element([2, 4, 0, 0, 0, 0, 0, 0], 6)
    b = CYC24.element([1, 2, 0, 0, 0, 0, 0, 0], 3)
    assert a.num == b.num and a.den == b.den
    # the dense vector is a view: an element stores only its coordinates
    assert CycNumber.__slots__ == ("field", "xs", "den") and isinstance(a.num, tuple)
    neg = CYC24.element([1, 0, 0, 0, 0, 0, 0, 0], -2)
    assert neg == from_rational(Fraction(-1, 2))


def test_json_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        a = _random_element(rng)
        assert CycNumber.from_json(a.to_json()) == a
    obj = from_rational(Fraction(3, 4)).to_json()
    assert obj == {"num": [3, 0, 0, 0, 0, 0, 0, 0], "den": 4}


def test_bigger_field_and_embedding():
    f120 = cyclotomic_field(120)
    z24 = root_of_unity(1)
    assert f120.embed(z24) == f120.zeta(5)
    # mixed-field arithmetic lands in the compositum: (i + zeta_5)^2
    x = root_of_unity(6) + f120.zeta(24)
    assert x * x == -1 + 2 * f120.zeta(54) + f120.zeta(48)


def test_sqrt_int_gauss_sums():
    assert CYC24.sqrt_int(2) == root_of_unity(3) + root_of_unity(-3)
    # sqrt(21) = -(i sqrt(3))(i sqrt(7)) lies in Q(zeta_42) although i does not
    cases = [(24, 2), (24, 3), (24, 6), (120, 5), (120, 10), (12, 3), (20, 5), (60, 15),
             (42, 21), (168, 21), (168, 42)]
    for field, d in [(cyclotomic_field(n), d) for n, d in cases]:
        s = field.sqrt_int(d)
        assert s * s == d
        # positive real root
        assert abs(s.to_complex() - d ** 0.5) < 1e-9


@pytest.mark.parametrize("n, d", [(6, 3), (30, 15), (42, 7), (70, 35)])
def test_sqrt_int_refuses_a_root_that_needs_i_when_4_does_not_divide_n(n, d):
    # sqrt(d) for d = 3 mod 4 needs i, and zeta_n^(n//4) is not i unless 4 | n
    with pytest.raises(ValueError, match=rf"^sqrt\({d}\) not in Q\(zeta_{n}\)$"):
        cyclotomic_field(n).sqrt_int(d)


@pytest.mark.parametrize("d", [0, -3, 4, 8, 12, 18, 50])
def test_sqrt_int_refuses_what_is_not_a_positive_squarefree_integer(d):
    # 8 used to loop for ever: the factor 2 left 4, which no odd prime divides
    with pytest.raises(ValueError):
        cyclotomic_field(120).sqrt_int(d)


def test_sqrt_int_succeeds_exactly_where_the_rules_per_prime_allow():
    # the rules the one conductor test replaces: 8 | n for the factor 2,
    # p | n for each odd prime p | d, and 4 | n for d = 3 mod 4
    ds = [d for d in range(1, 61) if all(d % (p * p) for p in range(2, 8))]
    for n in range(1, 121):
        f = cyclotomic_field(n)
        for d in ds:
            odd = [p for p in range(3, d + 1, 2) if d % p == 0 and all(p % k for k in range(3, p))]
            if ((d % 2 or not n % 8) and all(not n % p for p in odd)
                    and (d % 4 != 3 or not n % 4)):
                s = f.sqrt_int(d)
                assert s * s == d and abs(s.to_complex() - d ** 0.5) < 1e-9, (n, d)
            else:
                with pytest.raises(ValueError, match=rf"^sqrt\({d}\) not in Q\(zeta_{n}\)$"):
                    f.sqrt_int(d)


def test_sqrt_int_refuses_a_large_prime_in_bounded_time():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^sqrt\(1000000000039\) not in Q\(zeta_24\)$"):
        CYC24.sqrt_int(10 ** 12 + 39)
    assert time.perf_counter() - start < 1.0


def test_sqrt_int_refuses_a_large_squarefree_cofactor_in_bounded_time():
    # only the primes up to n are tried: the product of two primes near
    # 10^12 used to take about 10^12 trial divisions
    d = (10 ** 12 + 39) * (10 ** 12 + 61)
    for f, extra in ((CYC24, 1), (cyclotomic_field(120), 30)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^sqrt\({extra * d}\) not in Q\(zeta_{f.n}\)$"):
            f.sqrt_int(extra * d)
        assert time.perf_counter() - start < 1.0
    # a square past n with a non-square cofactor is refused as not in the
    # field too, where the unbounded rule said "need a positive squarefree
    # integer"; 29^2 31 is the least such d for Q(zeta_24)
    with pytest.raises(ValueError, match=r"^sqrt\(26071\) not in Q\(zeta_24\)$"):
        CYC24.sqrt_int(29 ** 2 * 31)


def test_sqrt_int_keeps_its_refusal_text_up_to_10_to_the_4():
    # the text of the unbounded rule (factor d completely, refuse a square
    # factor, then test the conductor), kept on every field of order n >= 24:
    # a square past n with a non-square cofactor is then above 10^4
    for n in (24, 40, 120):
        f = cyclotomic_field(n)
        for d in range(-2, 10 ** 4 + 1):
            primes = _factor(d)
            if d <= 0 or any(e > 1 for _p, e in primes):
                want = "need a positive squarefree integer"
            elif n % (d if d % 4 == 1 else 4 * d):
                want = f"sqrt({d}) not in Q(zeta_{n})"
            else:
                assert f.sqrt_int(d) ** 2 == d
                continue
            with pytest.raises(ValueError) as info:
                f.sqrt_int(d)
            assert str(info.value) == want, (n, d)


def test_factor_agrees_with_a_sieve_and_on_large_primes():
    spf = list(range(5001))  # the smallest prime factor of each k
    for p in range(2, 71):
        if spf[p] == p:
            for k in range(p * p, 5001, p):
                spf[k] = min(spf[k], p)
    for n in range(1, 5001):
        want, k = {}, n
        while k > 1:
            want[spf[k]] = want.get(spf[k], 0) + 1
            k //= spf[k]
        assert _factor(n) == sorted(want.items()), n
    big = {10 ** 12 + 39: [(10 ** 12 + 39, 1)],
           999983 * 1000003: [(999983, 1), (1000003, 1)],
           1000003 ** 2: [(1000003, 2)],
           2 ** 31 - 1: [(2 ** 31 - 1, 1)],
           2 ** 40 * 3 ** 5 * 999983: [(2, 40), (3, 5), (999983, 1)]}
    for n, want in big.items():
        assert _factor(n) == want, n


def test_bounded_factor_folds_a_square_cofactor_and_refuses_any_other():
    # below 1001^2 the bound changes nothing
    rng = random.Random(1001)
    for n in [*range(1, 2000), *rng.sample(range(2000, 1002001), 500), 1002000, 1001 ** 2]:
        assert _factor(n, 1000) == _factor(n), n
    p, q = 10 ** 12 + 39, 10 ** 12 + 61
    assert _factor(12 * p * p, 1000) == [(2, 2), (3, 1), (p, 2)]
    assert _factor(1009 ** 2 * 1013 ** 2, 1000) == [(1009 * 1013, 2)]
    # what is left past the bound and not a square could not be made canonical
    for n, rest in [(p * q, p * q), (6 * p, p), (1009 * 1013, 1009 * 1013), (10 ** 8 + 7, 10 ** 8 + 7)]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^{n} leaves {rest} after the primes up to 1000, "
                                             r"not a square$"):
            _factor(n, 1000)
        assert time.perf_counter() - start < 1.0


def test_common_field_is_the_lcm_of_the_orders():
    f8, f12, f40 = (cyclotomic_field(n) for n in (8, 12, 40))
    assert common_field(CYC24) is CYC24
    assert common_field(f8, CYC24, f8) is CYC24
    assert common_field(f8, f12) is CYC24
    assert common_field(f40, f12) is cyclotomic_field(120)
    assert (f8.zeta(1) + f12.zeta(1)).field is CYC24


def test_common_field_refuses_a_new_field_above_the_json_bound():
    f997, f999 = cyclotomic_field(997), cyclotomic_field(999)
    assert MAX_JSON_ORDER == 1000
    # a join that is one of its operands is never refused
    assert common_field(cyclotomic_field(1008), CYC24).n == 1008
    with pytest.raises(ValueError, match=r"^fields of orders \[24, 997\] join in order 23928, above 1000$"):
        common_field(CYC24, f997)
    with pytest.raises(ValueError, match=r"orders \[997, 999\] join in order 996003"):
        f997.zeta(1) + f999.zeta(1)
    with pytest.raises(ValueError):
        f997.one == CYC24.one


def test_roots_of_unity_match_unit_circle():
    for k in range(24):
        assert abs(root_of_unity(k).to_complex() - cmath.exp(2j * cmath.pi * k / 24)) < 1e-12


def test_str_rendering():
    assert str(from_rational(5)) == "5"
    assert str(from_rational(Fraction(-1, 2))) == "-1/2"
    assert str(imag_unit()) == "i"
    assert str(1 - imag_unit()) == "1-i"
    assert str(coerce24(Fraction(1, 3)) * imag_unit()) == "1/3*i"
    assert str(root_of_unity(1)).startswith("cyc24[")
    # i lies in Q(zeta_n) only when 4 | n: zeta_n^(n//4) is not i otherwise
    assert str(cyclotomic_field(5).zeta(1)) == "cyc5[0,1,0,0]"
    assert str(cyclotomic_field(6).zeta(1)) == "cyc6[0,1]"
    assert str(cyclotomic_field(6).zeta(1) / 3 + 1) == "cyc6[3,1]/3"
    assert str(cyclotomic_field(10).zeta(2)) == "cyc10[0,0,1,0]"
    assert cyclotomic_field(6).zeta(1)._gaussian_parts() is None
    assert cyclotomic_field(12).zeta(3)._gaussian_parts() is not None
    # in Q(zeta_420) and Q(zeta_840), n/4 >= phi(n): i is not the one
    # coordinate n/4, and the i form is read off the element itself
    for n in (420, 840):
        f = cyclotomic_field(n)
        i = f.zeta(n // 4)
        assert f.degree <= n // 4 and i * i == -1
        assert str(i) == "i" and str(1 + 2 * i) == "1+2*i"
        assert str((1 + 2 * i) / 3) == "1/3+2/3*i"
        assert f.zeta(1)._gaussian_parts() is None
        assert str(f.zeta(1)) == f"cyc{n}[0,1" + ",0" * (f.degree - 2) + "]"


# str, to_json bytes and to_complex floats of rational, Gaussian and general
# elements (-7/3, (2 - 3i)/5 and (zeta^5 + 3 zeta^(n-7))/7 - 1/2).
PINNED = [
    (24, "-7/3", '{"num": [-7, 0, 0, 0, 0, 0, 0, 0], "den": 3}', -2.3333333333333335 + 0j),
    (24, "2/5-3/5*i", '{"num": [2, 0, 0, 0, 0, 0, -3, 0], "den": 5}', 0.39999999999999997 - 0.6j),
    (24, "cyc24[-7,0,0,0,0,-4,0,0]/14", '{"num": [-7, 0, 0, 0, 0, -4, 0, 0], "den": 14}',
     -0.5739482986007202 - 0.2759788075111624j),
    (40, "-7/3", '{"num": [-7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "den": 3, "order": 40}',
     -2.3333333333333335 + 0j),
    (40, "2/5-3/5*i",
     '{"num": [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, -3, 0, 0, 0, 0, 0], "den": 5, "order": 40}',
     0.39999999999999997 - 0.6j),
    (40, "cyc40[-7,0,0,0,0,2,0,0,0,0,0,0,0,-6,0,0]/14",
     '{"num": [-7, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, -6, 0, 0], "den": 14, "order": 40}',
     -0.20441738851354466 - 0.28084468448265093j),
    (120, "-7/3", '{"num": [-7' + ", 0" * 31 + '], "den": 3, "order": 120}', -2.3333333333333335 + 0j),
    (120, "2/5-3/5*i", '{"num": [2' + ", 0" * 29 + ', -3, 0], "den": 5, "order": 120}',
     0.3999999999999998 - 0.6j),
    (120, "cyc120[-7,6,0,0,0,8,0,0,0,0,0,0,0,0,0,0,0,-6,0,0,0,-6,0,0,0,0,0,0,0,6,0,0]/14",
     '{"num": [-7, 6, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -6, 0, 0, 0, -6, 0, 0, 0, 0, 0, 0, '
     '0, 6, 0, 0], "den": 14, "order": 120}', 0.03809530082581044 - 0.11661211479048283j),
]


def _pinned_elements(n):
    f = cyclotomic_field(n)
    i = f.zeta(n // 4)
    return [f.from_fraction(Fraction(-7, 3)), (2 - 3 * i) / 5,
            (f.zeta(5) + 3 * f.zeta(n - 7)) / 7 - Fraction(1, 2)]


def test_text_json_and_floats_are_pinned():
    got = [(n, str(x), json.dumps(x.to_json()), x.to_complex())
           for n in (24, 40, 120) for x in _pinned_elements(n)]
    assert got == PINNED


# Dense references for the sparse kernels: long division by Phi_n over every
# column, per-coordinate Fractions, and the full convolution.


def _dense_reduce(coeffs, n):
    """coeffs mod Phi_n, by schoolbook division from the top coordinate."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    r = list(coeffs) + [0] * max(0, d - len(coeffs))
    for k in range(len(r) - 1, d - 1, -1):
        c, r[k] = r[k], 0
        for j in range(d):
            r[k - d + j] -= c * phi[j]
    return r[:d]


def _dense_normalise(num, den):
    """(numerators, denominator) of the Fractions num[i]/den over their lcm."""
    fracs = [Fraction(c, den) for c in num]
    common = lcm(*(x.denominator for x in fracs))
    return tuple(int(x * common) for x in fracs), common


def _dense_mul(a, b):
    """(order, numerators, denominator) of a*b in Q(zeta_lcm)."""
    n = lcm(a.field.n, b.field.n)

    def lift(x):
        step = n // x.field.n
        out = [0] * (step * (len(x.num) - 1) + 1)
        out[::step] = x.num
        return out

    u, v = lift(a), lift(b)
    conv = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            conv[i + j] += x * y
    return (n, *_dense_normalise(_dense_reduce(conv, n), a.den * b.den))


@pytest.mark.parametrize("n", [24, 40, 120, 168, 240])
def test_sparse_reduce_matches_dense_reduction(n):
    f = cyclotomic_field(n)
    rng = random.Random(n)
    width = max(n, 2 * f.degree - 1)
    for k in range(width):
        monomial = [0] * width
        monomial[k] = 1
        assert f._reduce(monomial) == _dense_reduce(monomial, n), k
    for _ in range(30):
        coeffs = [rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(width)]
        assert f._reduce(coeffs) == _dense_reduce(coeffs, n)
    for k in range(-n, 2 * n):
        z = f.zeta(k)
        assert (z.num, z.den) == (tuple(_dense_reduce([0] * (k % n) + [1], n)), 1), k


@pytest.mark.parametrize("n", [24, 120])
def test_element_normalises_like_fractions(n):
    f = cyclotomic_field(n)
    d = f.degree
    rng = random.Random(n + 1)
    vectors = [
        [6, -4, 0, 2] + [0] * (d - 4),           # common factor 2 with den 10
        [rng.randint(-50, 50) for _ in range(d)],
        [0] * d,                                 # the zero vector
        [3],                                     # shorter than the degree
        [rng.randint(-9, 9) for _ in range(2 * d - 1)],   # a product's length
        [rng.randint(-9, 9) for _ in range(n)],           # one coordinate per root
    ]
    for num in vectors:
        for den in (1, -1, 10, -10, 7, -21, 2 ** 70):
            x = f.element(num, den)
            want = _dense_normalise(_dense_reduce(num, n), den)
            assert (x.num, x.den) == want, (num, den)
            assert x.den > 0 and gcd(x.den, *x.num) == 1
            # the stored coordinates are the nonzero entries of the dense view
            assert x.xs == tuple((i, v) for i, v in enumerate(want[0]) if v)
    assert f.element([0] * d, -5).den == 1
    with pytest.raises(ZeroDivisionError):
        f.element([1], 0)


def test_sparse_mul_matches_dense_convolution():
    rng = random.Random(29)
    fields = [cyclotomic_field(n) for n in (24, 40, 120)]
    for f in fields:
        monomials = [f.zeta(k) for k in (0, 1, f.n // 4, f.n // 2 + 1, f.n - 1)]
        dense = [_random_element(rng, f) for _ in range(4)]
        sparse = [f.element([rng.randint(-5, 5) if rng.random() < 0.2 else 0
                             for _ in range(f.degree)], rng.randint(1, 9)) for _ in range(4)]
        elements = monomials + dense + sparse + [f.zero, f.one]
        for a in elements:
            for b in elements:
                p = a * b
                assert (p.field.n, p.num, p.den) == _dense_mul(a, b)
    # cross-field pairs land in the compositum
    for a, b in [(root_of_unity(5), fields[1].zeta(3)),
                 (_random_element(rng), _random_element(rng, fields[1])),
                 (_random_element(rng, fields[1]), _random_element(rng, fields[2])),
                 (_random_element(rng, cyclotomic_field(8)), _random_element(rng, fields[2]))]:
        for p, q in ((a, b), (b, a)):
            r = p * q
            assert (r.field.n, r.num, r.den) == _dense_mul(p, q)


def _dense_galois(x, k):
    """(numerators, denominator) of zeta -> zeta^k on x, as the dense code
    did it: coordinate j goes to j k mod n, then the vector is reduced."""
    n = x.field.n
    out = [0] * n
    for j, c in enumerate(x.num):
        out[j * k % n] += c
    return _dense_normalise(_dense_reduce(out, n), x.den)


def _dense_embed(n, x):
    """(numerators, denominator) of x lifted into Q(zeta_n), as the dense
    code did it: coordinate j goes to j n/a, then the vector is reduced."""
    step = n // x.field.n
    out = [0] * (step * (len(x.num) - 1) + 1)
    out[::step] = x.num
    return _dense_normalise(_dense_reduce(out, n), x.den)


@pytest.mark.parametrize("n", [24, 40, 120, 168])
def test_coordinate_map_matches_the_dense_galois_embedding_and_product(n):
    f = cyclotomic_field(n)
    rng = random.Random(n + 3)
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    for _ in range(10):
        x = _random_element(rng, f, span=6)
        k, shift = rng.choice(units), rng.randrange(n)
        y = x.galois(k)
        assert (y.num, y.den) == _dense_galois(x, k)
        assert f._map(x.xs, k) == y.xs
        shifted = f._element(f._map(x.xs, k, shift), x.den)
        assert (n, shifted.num, shifted.den) == _dense_mul(y, f.zeta(shift))
    for a in (a for a in range(1, n) if n % a == 0):
        sub = cyclotomic_field(a)
        x = _random_element(rng, sub, span=6)
        y = f.embed(x)
        assert (y.num, y.den) == _dense_embed(n, x)
        assert f._map(x.xs, n // a) == y.xs
        # a lift and a shift at once, as tau_shift does it
        shift = rng.randrange(n)
        moved = f._element(f._map(x.xs, n // a, shift), x.den)
        assert (n, moved.num, moved.den) == _dense_mul(y, f.zeta(shift))
    assert f._map((), 5, 7) == () and f._map(f.one.xs) is f.one.xs
