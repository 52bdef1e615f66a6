"""Series are stored on an int exponent grid 1/den, with every coefficient
as a tuple of integer coordinates in one field over one series denominator
``cden``; ``terms`` is the Fraction-keyed view.  Results must not depend on
which grid holds a series, and every series keeps the canonical layout."""

import io
import json
import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfkernel import cli, series
from jfkernel.construct import lambda2_fwd, lambda2_inv, lambda_star_fwd, lambda_star_inv, xi_hat
from jfkernel.cyclotomic import CYC24, coerce24, cyclotomic_field, imag_unit
from jfkernel.jacobi import (
    JacobiSeries,
    d2_hat,
    restrict_z0,
    tau_shift,
    theta_component,
    theta_decompose,
    theta_j,
)
from jfkernel.series import (
    FormMeta,
    PuiseuxSeries,
    _assemble,
    _top,
    dilate,
    div_exact,
    eta,
    eta_power,
    euler_d,
)


def regrid(s, den):
    """The same series held on the finer grid 1/den."""
    return _assemble(type(s), s._on_grid(den, s.field), den, s.valid_below, s.meta,
                     s.field, s.cden)


def dump(s):
    return json.dumps(s.to_json())


def _reference_json(s):
    """The JSON object of a series built from its public views, apart from
    the writer: the terms ascending in key, each coefficient as its
    CycNumber writes it."""
    name = "exp" if isinstance(s, PuiseuxSeries) else "n"
    terms = [{name: str(k), "coeff": c.to_json()} if name == "exp" else
             {name: str(k[0]), "r": k[1], "coeff": c.to_json()}
             for k, c in sorted(s.terms.items())]
    return {"valid_below": str(s.valid_below), "terms": terms,
            "meta": None if s.meta is None else s.meta.to_json()}


def test_regrid_holds_the_same_terms():
    a = PuiseuxSeries({F(3, 8): 2, F(1, 8): 1, F(2): -1}, 5)
    a24 = regrid(a, 24)
    assert (a.den, a24.den) == (8, 24)
    assert list(a24.terms.items()) == list(a.terms.items())
    assert a24.coeff(F(3, 8)) == 2 and a24.coeff(F(1, 24)) == 0


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
def test_grid_does_not_change_comparison_or_arithmetic(kind):
    i = imag_unit()
    if kind == "puiseux":
        a = PuiseuxSeries({F(3, 8): 2 + i, F(1, 8): 1, F(2): -1}, 5)
        b = PuiseuxSeries({F(3, 8): 2 + i, F(1, 8): 1, F(2): -1, F(5, 8): 3}, 5)
        c = PuiseuxSeries({F(1, 24): 1, F(1, 3): -i, F(0): 2}, F(9, 2))
        diff = F(5, 8)
    else:
        a = JacobiSeries({(F(3, 8), 2): 2 + i, (F(1, 8), -1): 1, (F(2), 0): -1}, 5)
        b = JacobiSeries({(F(3, 8), 2): 2 + i, (F(1, 8), -1): 1, (F(2), 0): -1,
                          (F(5, 8), 1): 3}, 5)
        c = JacobiSeries({(F(1, 24), 1): 1, (F(1, 3), 0): -i, (F(0), -2): 2}, F(9, 2))
        diff = (F(5, 8), 1)
    a24, b24 = regrid(a, 24), regrid(b, 24)
    assert a.den == 8 and a24.den == 24
    assert a == a24 and a24 == a and not a == b24
    assert a.same_below(a24) and a24.same_below(a, 3)
    assert not a.same_below(b24) and not b24.same_below(a)
    assert a.same_below(b24, F(5, 8)) and b24.same_below(a, F(5, 8))
    assert a.first_difference(b24) == diff and b24.first_difference(a) == diff
    assert a.first_difference(a24) is None
    for x, y in ((a, c), (c, a), (a, -a24), (b, c)):
        for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
            want = op(x, y)
            for got in (op(regrid(x, 24), y), op(x, regrid(y, 48)), op(regrid(x, 48), regrid(y, 72))):
                assert got == want
                assert list(got.terms.items()) == list(want.terms.items())
                assert dump(got) == dump(want)


def test_integer_exponents_on_a_finer_grid_dump_the_same_bytes():
    s = PuiseuxSeries({F(0): 1, F(1): 2 * imag_unit(), F(3): -1}, F(7, 2))
    assert s.den == 1
    s8 = regrid(s, 8)
    assert dump(s8) == dump(s) and str(s8) == str(s)
    j = JacobiSeries({(F(0), 0): 1, (F(2), -3): 4}, 5)
    assert dump(regrid(j, 8)) == dump(j)
    # theta_{1,0} is built on the grid 1/4, its exponents are the squares
    t = theta_component(1, 0, 30)
    assert t.den == 4
    assert dump(t) == dump(PuiseuxSeries(dict(t.terms), 30, t.meta))


def test_terms_view_is_fraction_keyed_and_read_only():
    s = PuiseuxSeries({F(1, 2): 1, F(1, 3): 2}, 4)
    assert all(type(e) is F for e in s.terms)
    with pytest.raises(TypeError):
        s.terms[F(1)] = 1
    j = JacobiSeries({(F(1, 2), 1): 1}, 4)
    assert all(type(n) is F and type(r) is int for n, r in j.terms)


def test_terms_view_keeps_insertion_order():
    a = PuiseuxSeries({F(1, 8): 1, F(0): 2, F(3, 4): -1}, 3)
    b = PuiseuxSeries({F(1, 3): 5, F(0): 1, F(5, 4): 7}, F(5, 2))
    # a's keys first, then b's new keys, both in their own order
    assert list((a + b).terms) == [F(1, 8), F(0), F(3, 4), F(1, 3), F(5, 4)]
    # first occurrence over the pairs, a outer and b inner
    assert list((a * b).terms) == [F(11, 24), F(1, 8), F(11, 8), F(1, 3), F(0), F(5, 4),
                                  F(13, 12), F(3, 4), F(2)]
    phi = JacobiSeries({(F(9, 8), 3): 1, (F(1), 0): 2, (F(1, 8), 1): 3, (F(0), 0): 4,
                        (F(17, 8), 1): 5}, 3)
    h = theta_decompose(phi, 2)
    assert list(h[0].terms) == [F(1), F(0)]
    assert list(h[1].terms) == [F(0), F(2)]


def _random_pair(rng, kind):
    """Two series that agree on most terms, on different grids, with some
    coefficients held in larger cyclotomic fields and some over the
    denominators 3 and 5, so that the two series' denominators may differ."""
    i = imag_unit()
    fields = [cyclotomic_field(n) for n in (8, 48, 120)]

    def key(grid):
        n = F(rng.randint(0, 6 * grid - 1), grid)
        return n if kind == "puiseux" else (n, rng.randint(-2, 2))

    def over():
        return F(1, rng.choice((1, 1, 3, 5)))

    def lift(c):
        # the same Gaussian value, sometimes held in Q(zeta_48) or Q(zeta_120),
        # or in Q(zeta_8) as a + b zeta_8^2, read off 1 and i = zeta_24^6
        f = rng.choice(fields)
        if rng.random() < 0.3:
            if f.n % 24 == 0:
                return f.embed(c)
            return f.from_fraction(F(c.num[0], c.den)) + f.from_fraction(F(c.num[6], c.den)) * f.zeta(2)
        return c

    terms = {key(rng.choice((2, 3, 4))): (rng.randint(-2, 2) + rng.randint(-1, 1) * i) * over()
             for _ in range(rng.randint(0, 8))}
    other = {k: lift(coerce24(c)) for k, c in terms.items() if rng.random() < 0.9}
    for _ in range(rng.randint(0, 2)):
        other[key(rng.choice((5, 6)))] = rng.randint(1, 3) * over()
    if other and rng.random() < 0.5:
        k = rng.choice(sorted(other))
        other[k] = coerce24(other[k]) + i
    cls = PuiseuxSeries if kind == "puiseux" else JacobiSeries
    return cls(terms, F(rng.randint(8, 12), 2)), cls(other, F(rng.randint(8, 12), 2))


def _agrees_term_by_term(x, y, bound):
    """Every coefficient of either support below ``bound``, read on both
    sides through ``coeff``, is the same value."""
    keys = set(x.terms) | set(y.terms)
    if isinstance(x, JacobiSeries):
        return all(x.coeff(*k) == y.coeff(*k) for k in keys if k[0] < bound)
    return all(x.coeff(k) == y.coeff(k) for k in keys if k < bound)


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
def test_same_below_is_no_first_difference(kind):
    rng = random.Random(61)
    disagreed = 0
    for _ in range(300):
        a, b = _random_pair(rng, kind)
        top = min(a.valid_below, b.valid_below)
        # the default bound, grid points and points off every grid
        bounds = [None, top, F(rng.randint(0, 24), 6), top - F(1, 7), F(rng.randint(0, 40), 11)]
        for bound in bounds:
            for x, y in ((a, b), (b, a)):
                same = x.same_below(y, bound)
                assert same == _agrees_term_by_term(x, y, top if bound is None else bound), \
                    (x, y, bound)
                disagreed += not same
    assert disagreed > 100


# -- the coefficient layout ------------------------------------------------------


def assert_layout(s):
    """One field, one positive denominator that shares no factor with all the
    coordinates, nonempty tuples of nonzero int coordinates with ascending
    indices below the degree, and every key below the bound; the zero series
    is held in Q(zeta_24) over 1."""
    f, d = s.field, s.cden
    assert type(d) is int and d > 0
    if not s._terms:
        assert (f, d) == (CYC24, 1)
    assert gcd(d, *[v for xs in s._terms.values() for _i, v in xs]) == 1, s
    top = _top(s.valid_below, s.den)
    for k, xs in s._terms.items():
        assert type(xs) is tuple and xs, k
        idx = [i for i, _v in xs]
        assert idx == sorted(set(idx)) and idx[0] >= 0 and idx[-1] < f.degree, k
        assert all(type(v) is int and v for _i, v in xs), k
        assert s._qexp(k) < top, k


def _field_coeff(rng, f):
    """A nonzero element of ``f``, rational or not, often with a denominator."""
    while True:
        if rng.random() < 0.3:
            c = f.from_fraction(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))))
        else:
            c = f.element([rng.randint(-3, 3) if rng.random() < 0.4 else 0
                           for _ in range(f.degree)], rng.choice((1, 2, 4, 6)))
        if not c.is_zero():
            return c


def _operands(rng, n):
    f = cyclotomic_field(n)
    a = PuiseuxSeries({F(rng.randint(0, 40), 8): _field_coeff(rng, f) for _ in range(12)}, 6)
    b = PuiseuxSeries({F(rng.randint(0, 30), 6): _field_coeff(rng, f) for _ in range(6)}, 6)
    phi = JacobiSeries({(F(rng.randint(0, 40), 8), rng.randint(-4, 4)): _field_coeff(rng, f)
                        for _ in range(16)}, 5)
    return f, a, b, phi


@pytest.mark.parametrize("n", [24, 40, 120])
def test_every_constructor_kernel_and_decode_keeps_the_layout(n):
    rng = random.Random(n)
    for _ in range(6):
        f, a, b, phi = _operands(rng, n)
        t = theta_component(2, 1, 12)
        tj = theta_j(2, 1, 6)
        halves = PuiseuxSeries({0: F(1, 2), F(1, 3): f.zeta(1) / 2}, 4)
        made = [
            a, b, phi, t, tj, halves, eta(20), eta_power(6, 30), xi_hat(10),
            PuiseuxSeries.zero(3), JacobiSeries.zero(3), PuiseuxSeries.one(3),
            PuiseuxSeries.monomial(f.zeta(1), F(1, 3), 4), JacobiSeries.from_puiseux(a),
            a + b, a - a, a - b, b + a, halves + halves, -a, phi + phi, phi - phi,
            a * b, b * a, a * t, t * a, a * a, phi * tj, phi * a, tj * phi,
            a * 2, a * F(-3, 4), a * 0, halves * 2, a * f.zeta(1), a * imag_unit(),
            halves * f.from_fraction(2), phi * F(1, 6),
            euler_d(a), euler_d(halves), dilate(a, 3), a.truncate(F(5, 2)), halves.truncate(F(1, 3)),
            div_exact(a * b, b), div_exact(a * t, t), div_exact(halves, t),
            restrict_z0(phi), restrict_z0(phi * tj), d2_hat(phi, 2), d2_hat(phi, F(5, 2)),
            *theta_decompose(lambda2_inv(a, b, 5), 2), tau_shift(eta(5)),
            PuiseuxSeries.from_json(a.to_json()), JacobiSeries.from_json(phi.to_json()),
            a.with_meta(None),
        ]
        pair = lambda2_fwd(*[theta_decompose(lambda2_inv(a, b, 5), 2)[r] for r in (0, 2)])
        star = lambda_star_inv(a, 3, 5)
        comps = theta_decompose(star, 3)
        made += [pair.comp0, pair.comp2, star, lambda_star_fwd(comps[0], comps[3], 3)]
        # chained sums of three or more operands, also where whole operands
        # or single terms cancel
        for ops in ((a, b, halves), (a, b, -a), (a, -a, b, a * 2, -b),
                    (halves, a * f.zeta(1), -halves, b), (phi, phi * tj, -phi),
                    (phi, -phi, JacobiSeries.from_puiseux(a), tj)):
            total = ops[0]
            for x in ops[1:]:
                total = total + x
            made.append(total)
        for s in made:
            assert_layout(s)
    # a common factor that the result must divide out
    x = PuiseuxSeries({0: F(1, 2), 1: F(1, 2)}, 3)
    y = JacobiSeries({(0, 1): F(1, 2), (0, -1): F(1, 2), (1, 0): F(1, 3)}, 3)
    for s, cden in ((x + x, 1), (x * 2, 1), (x * F(2, 3), 3), (restrict_z0(y), 3),
                    (restrict_z0(y).truncate(1), 1), (euler_d(x), 2), (x * 0, 1)):
        assert_layout(s)
        assert s.cden == cden, s


_ONE = {"num": [1], "den": 1}
# Terms the decoder refuses, each after a well-formed term at the same
# exponent string, which the decoder has by then parsed: (exponent, r,
# coefficient) with None for a missing field, and the refusal's text, where
# {e} stands for the exponent's field name
CODEC_REFUSALS = {
    "missing coeff": (("1/2", 0, None), "series term has no 'coeff'"),
    "coeff not an object": (("1/2", 0, 5), "coefficient must be an object with num and den, got 5"),
    "coeff without den": (("1/2", 0, {"num": [1]}),
                          "coefficient must be an object with num and den, got {'num': [1]}"),
    "exponent in a list": ((["1/2"], 0, _ONE),
                           "term {e} must be an integer or a string p or p/q, got ['1/2']"),
    "exponent a bool": ((True, 0, _ONE), "term {e} must be an integer or a string p or p/q, got True"),
    "exponent with a space": (("1/2 ", 0, _ONE),
                              "term {e} must be an integer or a string p or p/q, got '1/2 '"),
    "zero exponent denominator": (("1/0", 0, _ONE), "term {e}: zero denominator in '1/0'"),
    "num holding a bool": (("1/2", 0, {"num": [1, True], "den": 1}),
                           "coefficient num must be a list of at most 8 integers, got [1, True]"),
    "num holding a float": (("1/2", 0, {"num": [0, 1.0], "den": 1}),
                            "coefficient num must be a list of at most 8 integers, got [0, 1.0]"),
    "num not a list": (("1/2", 0, {"num": "1", "den": 1}),
                       "coefficient num must be a list of at most 8 integers, got '1'"),
    "zero den": (("1/2", 0, {"num": [1], "den": 0}),
                 "coefficient den must be a nonzero integer, got 0"),
    "bool den": (("1/2", 0, {"num": [1], "den": True}),
                 "coefficient den must be a nonzero integer, got True"),
    "order above the bound": (("1/2", 0, {"num": [1], "den": 1, "order": 1001}),
                              "coefficient order must be an integer in 1..1000, got 1001"),
    "bool order": (("1/2", 0, {"num": [1], "den": 1, "order": True}),
                   "coefficient order must be an integer in 1..1000, got True"),
    "bool r": (("1/2", True, _ONE), "term r must be an integer, got True"),
}


@pytest.mark.parametrize("kind,case", [(kind, case) for kind in ("puiseux", "jacobi")
                                       for case in sorted(CODEC_REFUSALS)
                                       if kind == "jacobi" or case != "bool r"])
def test_json_refusals_keep_their_text_after_a_parsed_exponent(kind, case):
    (e, r, coeff), message = CODEC_REFUSALS[case]
    cls, name = (PuiseuxSeries, "exp") if kind == "puiseux" else (JacobiSeries, "n")

    def term(e, r, coeff):
        t = {name: e} if kind == "puiseux" else {name: e, "r": r}
        return t if coeff is None else {**t, "coeff": coeff}

    good = term("1/2", 1, {"num": [0, 2], "den": 3})
    for terms in ([good, term(e, r, coeff)], [good, good, term(e, r, coeff), good]):
        with pytest.raises(ValueError) as info:
            cls.from_json({"valid_below": "3", "terms": terms})
        assert str(info.value) == message.replace("{e}", name)
    # the well-formed term alone, repeated, is read
    assert cls.from_json({"valid_below": "3", "terms": [good, good]}) == \
        cls.from_json({"valid_below": "3", "terms": [good]})


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
def test_json_writes_each_coefficient_as_its_cycnumber(kind):
    rng = random.Random(23)
    cases = 0
    for _ in range(100):
        a, b = _random_pair(rng, kind)
        for s in (a, b, a * b, a + b, a * F(5, 6)):
            assert s.to_json() == _reference_json(s)
            assert dump(type(s).from_json(s.to_json())) == dump(s)
            cases += s.cden > 1 and s.field is not CYC24
    assert cases > 20


def test_json_decodes_straight_into_the_layout():
    # an unreduced numerator over a negative denominator, a zero, a repeat
    obj = {"valid_below": "3", "terms": [
        {"exp": "0", "coeff": {"num": [2, 4], "den": -4}},
        {"exp": "1/2", "coeff": {"num": [0, 0, 0], "den": 5}},
        {"exp": "1", "coeff": {"num": [3], "den": 6}},
        {"exp": "1", "coeff": {"num": [6], "den": 3}},
    ]}
    s = PuiseuxSeries.from_json(obj)
    assert_layout(s)
    assert (s.field, s.cden) == (CYC24, 2)
    assert s._terms == {0: ((0, -1), (1, -2)), 2: ((0, 4),)}
    assert s.coeff(0) == CYC24.element([-1, -2], 2) and s.coeff(1) == 2


# Inputs of the one series builder: the bound and, per term, its q-exponent,
# the coefficient handed to the constructor, and the same coefficient as JSON,
# which may be unnormalised
BUILDER_CASES = {
    "at-or-above-the-bound": ("1", [
        ("1/2", 1, {"num": [1], "den": 1}),
        ("7/5", 3, {"num": [3], "den": 1}),
        ("1", F(1, 2), {"num": [1], "den": 2}),
        ("2/3", F(5, 7), {"num": [5], "den": 7}),
        ("4/3", imag_unit(), {"num": [0, 0, 0, 0, 0, 0, 1], "den": 1}),
        ("0", 2, {"num": [2], "den": 1}),
    ]),
    "zero-coefficients": ("3", [
        ("1/4", 0, {"num": [], "den": 1}),
        ("0", 1, {"num": [1], "den": 1}),
        ("1/3", CYC24.zero, {"num": [0, 0], "den": 3}),
        ("2", -1, {"num": [-1], "den": 1}),
    ]),
    "unreduced-and-negative-denominators": ("2", [
        ("1", CYC24.element([1, 0, -3], 4), {"num": [-2, 0, 6], "den": -8}),
        ("0", CYC24.element([-1, -2], 2), {"num": [2, 4], "den": -4}),
        ("1/2", F(1, 2), {"num": [3], "den": 6}),
    ]),
    "fields-24-40-120": ("2", [
        ("0", CYC24.zeta(1), {"num": [0, 1], "den": 1}),
        ("1/2", cyclotomic_field(40).zeta(1) / 2, {"num": [0, 1], "den": 2, "order": 40}),
        ("1", cyclotomic_field(120).element([1, 0, 0, 1], 3),
         {"num": [2, 0, 0, 2], "den": 6, "order": 120}),
    ]),
}


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
@pytest.mark.parametrize("case", sorted(BUILDER_CASES))
def test_constructor_and_json_build_the_same_series(case, kind):
    vb, rows = BUILDER_CASES[case]
    cls = PuiseuxSeries if kind == "puiseux" else JacobiSeries

    def key(k, e):
        return F(e) if kind == "puiseux" else (F(e), k % 3 - 1)

    def term(k, e, coeff):
        return {"exp": e, "coeff": coeff} if kind == "puiseux" else {"n": e, "r": k % 3 - 1, "coeff": coeff}

    built = cls({key(k, e): c for k, (e, c, _j) in enumerate(rows)}, F(vb))
    read = cls.from_json({"valid_below": vb, "meta": None,
                          "terms": [term(k, e, j) for k, (e, _c, j) in enumerate(rows)]})
    assert dump(built) == dump(read)
    assert built == read and read == built
    # nonzero terms below the bound, in insertion order
    want = {key(k, e): coerce24(c) for k, (e, c, _j) in enumerate(rows)
            if F(e) < F(vb) and coerce24(c)}
    for s in (built, read):
        assert type(s) is cls
        assert_layout(s)
        assert list(s.terms) == list(want)
        assert all(s.terms[k] == c for k, c in want.items())


def test_constructor_returns_its_class_and_compares_in_one_field():
    assert type(PuiseuxSeries({0: 1}, 1)) is PuiseuxSeries
    zero = JacobiSeries.zero(3)
    assert type(zero) is JacobiSeries and zero.is_zero() and zero.valid_below == 3
    assert (zero.field, zero.cden) == (CYC24, 1)
    assert PuiseuxSeries.zero(2) == PuiseuxSeries({0: 0}, 2) != PuiseuxSeries.zero(3)
    # == joins the two fields through the same check as every operator
    big = PuiseuxSeries({0: cyclotomic_field(997).one}, 2)
    with pytest.raises(ValueError, match=r"join in order 23928, above 1000"):
        _ = big == PuiseuxSeries({0: 1}, 2)


def test_mixed_field_terms_print_in_their_join():
    # coefficients in Q(zeta_24) and Q(zeta_40) are held, and printed, in
    # Q(zeta_120): zeta_24 = zeta_120^5 and zeta_40 = zeta_120^3
    def unit(k):
        return [0] * k + [1] + [0] * (31 - k)

    text = json.dumps({"valid_below": "2", "terms": [
        {"exp": "0", "coeff": {"num": [0, 1], "den": 1}},
        {"exp": "1", "coeff": {"num": [0, 1], "den": 2, "order": 40}},
    ]})
    want = {"valid_below": "2", "terms": [
        {"exp": "0", "coeff": {"num": unit(5), "den": 1, "order": 120}},
        {"exp": "1", "coeff": {"num": unit(3), "den": 2, "order": 120}},
    ], "meta": None}
    s = PuiseuxSeries.from_json(json.loads(text))
    assert s.field.n == 120 and s.to_json() == want
    built = PuiseuxSeries({0: CYC24.zeta(1), 1: cyclotomic_field(40).zeta(1) / 2}, 2)
    assert built.to_json() == want
    assert str(s) == str(built) == "cyc120[%s] + (cyc120[%s]/2)*q" % (
        ",".join(map(str, unit(5))), ",".join(map(str, unit(3))))
    # terms that share one field keep it
    one_field = PuiseuxSeries({0: cyclotomic_field(40).zeta(1), 1: 2}, 2)
    assert one_field.field.n == 120
    only_40 = PuiseuxSeries({0: cyclotomic_field(40).zeta(1), 1: cyclotomic_field(40).one}, 2)
    assert only_40.field.n == 40 and only_40.to_json()["terms"][0]["coeff"]["order"] == 40


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
def test_comparison_between_series_of_different_denominators(kind):
    def make(terms, vb):
        if kind == "puiseux":
            return PuiseuxSeries(terms, vb)
        return JacobiSeries({(e, 1): c for e, c in terms.items()}, vb)

    i = imag_unit()
    a = make({0: 1, 1: F(1, 2), F(3, 2): i}, 2)
    b = make({0: 1, 1: F(1, 2), F(3, 2): i, F(7, 4): F(1, 3)}, 2)
    c = make({0: 1, 1: F(1, 3), F(3, 2): i}, 2)
    assert (a.cden, b.cden, c.cden) == (2, 6, 3)
    at = (lambda e: e) if kind == "puiseux" else (lambda e: (e, 1))
    assert a != b and a.same_below(b, F(7, 4)) and not a.same_below(b)
    assert a.first_difference(b) == b.first_difference(a) == at(F(7, 4))
    assert a.first_difference(b, F(7, 4)) is None
    assert a.first_difference(c) == c.first_difference(a) == at(1)
    assert a.same_below(c, 1) and not a.same_below(c, F(3, 2))
    # the same series reached over a larger denominator, and in a larger field
    assert b.truncate(F(7, 4)) == a.truncate(F(7, 4))
    assert (a + b - b) == a and (a + b - b).cden == 2
    # equal coordinate tuples over different denominators are different series
    half, third = make({0: F(1, 2), 1: i / 2}, 2), make({0: F(1, 3), 1: i / 3}, 2)
    assert half._terms == third._terms and half != third and third != half
    f120 = cyclotomic_field(120)
    wide = make({0: f120.one, 1: f120.from_fraction(F(1, 2)), F(3, 2): f120.embed(i)}, 2)
    assert wide.field is f120 and wide == a and a == wide
    assert wide.first_difference(c) == at(1) and wide.same_below(a)


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
def test_first_difference_defaults_to_the_lesser_bound_and_refuses_a_larger_one(kind):
    key = (lambda e: e) if kind == "puiseux" else (lambda e: (e, 1))
    cls = PuiseuxSeries if kind == "puiseux" else JacobiSeries
    a = cls({key(0): 1, key(2): 1}, 2)
    b = cls({key(0): 1, key(2): 2, key(3): 1}, 4)
    assert a.first_difference(b) is None and b.first_difference(a, 2) is None
    assert a.same_below(b) and b.same_below(a)
    assert b.first_difference(b, 4) is None and b.first_difference(b) is None
    for bound in (F(17, 8), 3, 4):
        for x, y in ((a, b), (b, a)):
            for compare in (x.first_difference, x.same_below):
                with pytest.raises(ValueError, match="comparison bound exceeds a validity bound"):
                    compare(y, bound)


def _reference_first_difference(a, b, bound):
    """The smallest Fraction key below ``bound`` whose CycNumbers differ."""
    for k in sorted(set(a.terms) | set(b.terms)):
        if (k[0] if isinstance(k, tuple) else k) >= bound:
            return None
        if a.terms.get(k, 0) != b.terms.get(k, 0):
            return k
    return None


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
def test_first_difference_matches_the_coefficient_reference(kind):
    rng = random.Random(67)
    for _ in range(200):
        a, b = _random_pair(rng, kind)
        # the same values over other denominators: add and take away a
        # term with denominator 3 or 5 at a key the pair already has
        keys = sorted(b.terms)
        if keys:
            k = rng.choice(keys)
            d = type(b)({k: F(1, rng.choice((3, 5)))}, b.valid_below)
            b = (b + d) - d if rng.random() < 0.5 else b + d
        bound = min(a.valid_below, b.valid_below)
        for x, y in ((a, b), (b, a)):
            want = _reference_first_difference(x, y, bound)
            assert x.first_difference(y) == want, (x, y)
            assert x.same_below(y) == (want is None)
            assert (x == y) == (x.valid_below == y.valid_below
                                and _reference_first_difference(x, y, F(10 ** 6)) is None)


# -- the one writer and the one-pass reader --------------------------------------

_FIELDS = (CYC24, cyclotomic_field(120))
# a meta whose strings json.dumps must escape
_METAS = (None, FormMeta(weight=F(7, 2), index=2, level=4, character='chi*"omega"\\bar',
                         kind="modular", source="ξ_2 ⊗ θ"))


@st.composite
def _series(draw, kind):
    field = draw(st.sampled_from(_FIELDS))
    grid = draw(st.sampled_from((1, 2, 8, 24)))
    top = draw(st.integers(0, 6 * grid))
    # nonzero coefficients below the bound, so that den is the least grid
    # of the stored exponents, as the reader finds it
    coords = st.lists(st.integers(-9, 9), min_size=1, max_size=field.degree).filter(any)
    # few distinct coefficients, so that most repeat, over dens 1..12
    pool = draw(st.lists(st.tuples(coords, st.integers(1, 12)), min_size=1, max_size=4))
    terms = {}
    for _ in range(draw(st.integers(0, 24))):
        e = F(draw(st.integers(-grid, top - 1)), grid)
        num, den = draw(st.sampled_from(pool))
        key = e if kind == "puiseux" else (e, draw(st.integers(-4, 4)))
        terms[key] = field.element(num, den)
    cls = PuiseuxSeries if kind == "puiseux" else JacobiSeries
    return cls(terms, F(top, grid), draw(st.sampled_from(_METAS)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("puiseux", "jacobi")).flatmap(
    lambda kind: st.lists(_series(kind), min_size=1, max_size=3)))
def test_cli_json_text_is_the_dump_of_to_json_and_reads_back(group):
    compact = {"separators": (",", ":")}
    named = {f"phi{2 * i}": s for i, s in enumerate(group)}
    for result, want in ((group[0], _reference_json(group[0])),
                         (group, [_reference_json(s) for s in group]),
                         (named, {k: _reference_json(s) for k, s in named.items()})):
        out = io.StringIO()
        cli._write(result, "json", out)
        assert out.getvalue() == json.dumps(want, **compact) + "\n"
    for s in group:
        text = cli._dump(s)
        assert text == s.to_json_text() == json.dumps(s.to_json(), **compact)
        back = type(s).from_json(json.loads(text))
        assert (back._terms, back.den, back.cden, back.field) == (s._terms, s.den, s.cden, s.field)
        assert (back.valid_below, back.meta) == (s.valid_below, s.meta)
        assert cli._dump(back) == text


def test_the_zero_series_writes_and_reads_back():
    for s in (PuiseuxSeries.zero(F(5, 2)), JacobiSeries.zero(3, _METAS[1])):
        assert json.loads(cli._dump(s)) == _reference_json(s)
        back = type(s).from_json(s.to_json())
        assert back.is_zero() and (back.den, back.cden, back.field) == (1, 1, CYC24)
        assert (back.valid_below, back.meta) == (s.valid_below, s.meta)


# A coefficient that equals a checked one in value but not in type: a memo
# keyed on values alone would vouch for it, since True == 1 == 1.0 and they
# hash alike
MEMO_TRAPS = {
    "num true after 1": ({"num": [1], "den": 1}, {"num": [True], "den": 1},
                         "coefficient num must be a list of at most 8 integers, got [True]"),
    "num false after 0": ({"num": [0, 1], "den": 1}, {"num": [False, 1], "den": 1},
                          "coefficient num must be a list of at most 8 integers, got [False, 1]"),
    "num 1.0 after 1": ({"num": [1], "den": 1}, {"num": [1.0], "den": 1},
                        "coefficient num must be a list of at most 8 integers, got [1.0]"),
    "den true after 1": ({"num": [1], "den": 1}, {"num": [1], "den": True},
                         "coefficient den must be a nonzero integer, got True"),
    "order true after 1": ({"num": [], "den": 1, "order": 1}, {"num": [], "den": 1, "order": True},
                           "coefficient order must be an integer in 1..1000, got True"),
}


@pytest.mark.parametrize("kind", ["puiseux", "jacobi"])
@pytest.mark.parametrize("case", sorted(MEMO_TRAPS))
def test_a_checked_coefficient_does_not_vouch_for_an_equal_one_of_another_type(kind, case):
    first, second, message = MEMO_TRAPS[case]
    cls = PuiseuxSeries if kind == "puiseux" else JacobiSeries

    def term(e, coeff):
        return {"exp": e, "coeff": coeff} if kind == "puiseux" else {"n": e, "r": 0, "coeff": coeff}

    with pytest.raises(ValueError) as info:
        cls.from_json({"valid_below": "3", "terms": [term("0", first), term("1", second)]})
    assert str(info.value) == message
    # the second alone is refused with the same text
    with pytest.raises(ValueError, match=re.escape(message)):
        cls.from_json({"valid_below": "3", "terms": [term("1", second)]})


def test_equal_coefficients_are_read_and_lifted_once(monkeypatch):
    calls = []
    real = series._json_number
    monkeypatch.setattr(series, "_json_number", lambda c: calls.append(c) or real(c))
    coeffs = [{"num": [1, 2], "den": 3}, {"num": [0, 0, 5], "den": 2, "order": 40}]
    obj = {"valid_below": "9", "terms": [{"exp": str(k), "coeff": coeffs[k % 2]} for k in range(8)]}
    s = PuiseuxSeries.from_json(obj)
    assert len(calls) == 2
    assert s.field.n == 120 and s.cden == 6
    # equal coefficients share one lifted tuple
    assert len({id(xs) for xs in s._terms.values()}) == 2
