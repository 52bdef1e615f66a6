"""Series are stored on an int exponent grid 1/den; ``terms`` is the
Fraction-keyed view.  Results must not depend on which grid holds a series."""

import json
import random
from fractions import Fraction as F

import pytest

from jfkernel.cyclotomic import coerce24, cyclotomic_field, imag_unit
from jfkernel.jacobi import JacobiSeries, theta_component, theta_decompose
from jfkernel.series import PuiseuxSeries, _assemble


def regrid(s, den):
    """The same series held on the finer grid 1/den."""
    return _assemble(type(s), s._on_grid(den), den, s.valid_below, s.meta)


def dump(s):
    return json.dumps(s.to_json())


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
    coefficients held in larger cyclotomic fields."""
    i = imag_unit()
    fields = [cyclotomic_field(n) for n in (8, 48, 120)]

    def key(grid):
        n = F(rng.randint(0, 6 * grid - 1), grid)
        return n if kind == "puiseux" else (n, rng.randint(-2, 2))

    def lift(c):
        # the same Gaussian value, sometimes held in Q(zeta_48) or Q(zeta_120),
        # or in Q(zeta_8) as a + b zeta_8^2, read off 1 and i = zeta_24^6
        f = rng.choice(fields)
        if rng.random() < 0.3:
            if f.n % 24 == 0:
                return f.embed(c)
            return f.from_fraction(F(c.num[0], c.den)) + f.from_fraction(F(c.num[6], c.den)) * f.zeta(2)
        return c

    terms = {key(rng.choice((2, 3, 4))): rng.randint(-2, 2) + rng.randint(-1, 1) * i
             for _ in range(rng.randint(0, 8))}
    other = {k: lift(coerce24(c)) for k, c in terms.items() if rng.random() < 0.9}
    for _ in range(rng.randint(0, 2)):
        other[key(rng.choice((5, 6)))] = rng.randint(1, 3)
    if other and rng.random() < 0.5:
        k = rng.choice(sorted(other))
        other[k] = coerce24(other[k]) + i
    cls = PuiseuxSeries if kind == "puiseux" else JacobiSeries
    return cls(terms, F(rng.randint(8, 12), 2)), cls(other, F(rng.randint(8, 12), 2))


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
                assert same == (x.first_difference(y, bound) is None), (x, y, bound)
                disagreed += not same
    assert disagreed > 100
