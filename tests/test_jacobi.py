import hashlib
import json
import random
from fractions import Fraction

import pytest

from jfkernel.cyclotomic import CYC24, cyclotomic_field, imag_unit
from jfkernel.jacobi import (
    DecompositionInconsistent,
    JacobiSeries,
    d2_hat,
    heat_check,
    recompose,
    restrict_z0,
    symmetry_check,
    tau_shift,
    theta_component,
    theta_decompose,
    theta_j,
)
from jfkernel.series import FormMeta, PuiseuxSeries, dilate, euler_d

F = Fraction


def test_theta_j_index_one():
    t = theta_j(1, 0, 10)
    assert t.coeff(0, 0) == 1
    assert t.coeff(1, 2) == 1 and t.coeff(1, -2) == 1
    assert t.coeff(4, 4) == 1 and t.coeff(4, -4) == 1
    assert t.coeff(1, 0) == 0


def test_theta_j_index_two_defining_sum():
    t = theta_j(2, 1, 10)
    # exponents 2(n + 1/4)^2, zeta-powers 4n + 1
    assert t.coeff(F(1, 8), 1) == 1
    assert t.coeff(F(9, 8), -3) == 1
    assert t.coeff(F(25, 8), 5) == 1
    assert t.coeff(F(49, 8), -7) == 1
    assert len(t.terms) == 4


def _brute_lattice(m, r, order):
    """Every (q-exponent, zeta-power) of theta_j(m, r) below order, from a
    window of n wide enough to hold all of them."""
    out = set()
    span = 4 * m + abs(r) + 4
    for n in range(-span, span + 1):
        z = 2 * m * n + r
        if F(z * z, 4 * m) < order:
            out.add((F(z * z, 4 * m), z))
    return out


def test_theta_lattice_matches_brute_force():
    # orders k/8 below 2m, every residue r, and r outside 0..2m-1
    for m in range(1, 8):
        for r in range(-2 * m - 1, 4 * m + 2):
            for k in range(16 * m):
                order = F(k, 8)
                t = theta_j(m, r, order)
                assert set(t.terms) == _brute_lattice(m, r, order), (m, r, order)
                assert all(c == 1 for c in t.terms.values())


def test_theta_terms_below_the_first_residue_term():
    # r > m with order < m: the terms lie at negative n
    assert theta_component(2, 3, 1).to_text() == "q^(1/8)"
    assert theta_component(2, 3, 5) == theta_component(2, 1, 5)


def test_theta_21_equals_theta_23_at_z0():
    a = restrict_z0(theta_j(2, 1, 50))
    b = restrict_z0(theta_j(2, 3, 50))
    assert a.same_below(b)
    assert not a.is_zero()


def test_restrict_z0_basics():
    t = restrict_z0(theta_j(1, 0, 20))
    assert t.coeff(0) == 1 and t.coeff(1) == 2 and t.coeff(4) == 2
    odd = JacobiSeries({(1, 1): 1, (1, -1): -1}, 5)
    assert restrict_z0(odd).is_zero()


def test_restrict_matches_theta_component():
    for m in (1, 2, 3, 5):
        for r in range(2 * m):
            a = restrict_z0(theta_j(m, r, 25))
            b = theta_component(m, r, 25)
            assert a.same_below(b), (m, r)


def test_theta12_doubling():
    # theta_{1,1}(tau) = 2 theta_{2,1}(2 tau)
    lhs = theta_component(1, 1, 50)
    rhs = 2 * dilate(theta_component(2, 1, 25), 2)
    assert lhs.same_below(rhs)


def test_d2_hat_monomials():
    phi = JacobiSeries({(1, 0): 1}, 10)
    assert d2_hat(phi, 2).coeff(1) == -4
    phi = JacobiSeries({(1, 2): 1}, 10)
    assert d2_hat(phi, 2).coeff(1) == 4
    phi = JacobiSeries({(2, 0): 1, (2, 1): 3}, 10)
    out = d2_hat(phi, 10)
    assert out.coeff(2) == -8 + 3 * (10 - 8)
    # half-integer weight
    phi = JacobiSeries({(F(1, 8), 1): 1}, 10)
    assert d2_hat(phi, F(1, 2)).coeff(F(1, 8)) == F(1, 2) - F(1, 2)


def test_heat_relation_exhaustive():
    for m in range(1, 7):
        for r in range(2 * m):
            assert heat_check(m, r, 30), (m, r)


def test_heat_term_examples():
    t = theta_j(1, 0, 5)
    assert t.coeff(1, 2) == 1 and 2 * 2 == 4 * 1 * 1
    t = theta_j(2, 1, 5)
    assert t.coeff(F(1, 8), 1) == 1 and 1 == 4 * 2 * F(1, 8)


def test_decompose_sum_of_symmetric_thetas():
    # theta_j(2,1) + theta_j(2,3) is 1*theta_j(2,1) + 1*theta_j(2,3): all
    # source terms of each theta collapse to the constant component.
    phi = theta_j(2, 1, 30) + theta_j(2, 3, 30)
    h = theta_decompose(phi, 2)
    assert h[0].is_zero() and h[2].is_zero()
    assert dict(h[1].terms) == {F(0): CYC24.one}
    assert dict(h[3].terms) == {F(0): CYC24.one}
    assert h[1].valid_below == 30 - F(1, 8)
    assert h[1].same_below(h[3])


def test_decompose_no_collision_example():
    phi = JacobiSeries({(1, 0): 1, (2, 4): 2}, 10)
    h = theta_decompose(phi, 2)
    # the r=4 term sits at exponent 2 - 16/8 = 0
    assert h[0].coeff(1) == 1 and h[0].coeff(0) == 2


def test_decompose_inconsistency_detected():
    # terms (n, r) = (1, 0) and (3, 4) have the same 4mn - r^2 = 8 and the
    # same residue class, so their coefficients must match
    phi = JacobiSeries({(1, 0): 1, (3, 4): 2}, 10)
    with pytest.raises(DecompositionInconsistent) as exc:
        theta_decompose(phi, 2)
    assert exc.value.witnesses


def test_decompose_recompose_round_trip():
    rng = random.Random(5)
    for m in (1, 2, 3):
        comps = []
        for r in range(2 * m):
            terms = {
                F(rng.randint(0, 60), 4): rng.randint(-4, 4) + rng.randint(-1, 1) * imag_unit()
                for _ in range(6)
            }
            comps.append(PuiseuxSeries(terms, 16))
        phi = recompose(dict(enumerate(comps)), m, 18)
        back = theta_decompose(phi, m)
        for r in range(2 * m):
            a, b = back[r], comps[r]
            assert a.same_below(b), (m, r)


def test_recompose_refuses_a_residue_outside_0_to_2m():
    for m in (1, 2, 3):
        for r in (-1, 2 * m):
            with pytest.raises(ValueError, match=f"component {r} is not in 0..{2 * m - 1}"):
                recompose({0: PuiseuxSeries.one(4), r: PuiseuxSeries.one(4)}, m, 6)
    zero = recompose({}, 2, 6)
    assert type(zero) is JacobiSeries and zero.is_zero() and zero.valid_below == 6


def _assert_chained_theta_sum(comps, m, order):
    """recompose against h_r * theta_j(m, r) added one by one: the same
    terms in the same storage order, bound, grid, field and denominator, and
    so for each component on its own."""
    got = recompose(comps, m, order)
    want = None
    for r, h in comps.items():
        term = h * theta_j(m, r, order)
        one = recompose({r: h}, m, order)
        assert (one.valid_below, one.den, one.field, one.cden) == \
            (term.valid_below, term.den, term.field, term.cden), (m, r)
        assert list(one._terms.items()) == list(term._terms.items()), (m, r)
        want = term if want is None else want + term
    assert got == want and got.valid_below == want.valid_below, (m, sorted(comps))
    assert got.field == want.field and got.cden == want.cden and got.den == want.den
    assert list(got._terms.items()) == list(want._terms.items())
    return got


def test_recompose_is_the_chained_theta_sum():
    """Each h_r theta_j(m, r) relabelled onto the theta lattice, against the
    products added one by one, with no cap at ``order``."""
    rng = random.Random(41)
    f40, f120 = cyclotomic_field(40), cyclotomic_field(120)
    for m in (1, 2, 3, 6):
        for _ in range(3):
            comps = {}
            for r in rng.sample(range(2 * m), rng.randint(1, 2 * m)):
                terms = {F(rng.randint(0, 40), rng.choice((1, 2, 4))): rng.randint(-4, 4)
                         + rng.randint(-1, 1) * imag_unit() for _ in range(5)}
                comps[r] = PuiseuxSeries(terms, F(rng.randint(10, 20), 2))
            r0, r1 = rng.sample(sorted(comps) * 2, 2)
            comps[r0] = comps[r0] + PuiseuxSeries({F(-1, 3): 2, F(-2): -1}, 3)
            wide = PuiseuxSeries({F(1, 2): f120.zeta(7), F(2): f120.zeta(1) / 3}, 9)
            comps[r1] = comps[r1] + wide
            _assert_chained_theta_sum(comps, m, F(rng.randint(4, 14)))
    # a component with no term below q^1 knows the sum beyond ``order``
    late = recompose({1: PuiseuxSeries({F(1): 1}, 20)}, 1, 4)
    assert late.valid_below == 5 and late.coeff(F(13, 4), -3) == 1
    # truncation drops the only odd coordinate: the denominator falls to 1
    h = PuiseuxSeries({F(0): 1, F(10): F(1, 2)}, 20)
    assert h.cden == 2
    assert _assert_chained_theta_sum({0: h}, 1, 4).cden == 1
    # theta_j(2, 1) has no lattice point below 1/16: its val is the order,
    # so 1 known below 1/32 times it is known below 1/16, and q^-1 below -15/16
    assert theta_j(2, 1, F(1, 16)).is_zero()
    empty = _assert_chained_theta_sum({1: PuiseuxSeries.one(F(1, 32))}, 2, F(1, 16))
    assert empty.is_zero() and empty.valid_below == F(1, 16)
    empty = _assert_chained_theta_sum({1: h, 3: PuiseuxSeries({F(-1): 3}, 2)}, 2, F(1, 16))
    assert empty.is_zero() and empty.valid_below == F(-15, 16)
    # a zero component adds nothing and keeps its own bound in the sum
    zero = _assert_chained_theta_sum({0: PuiseuxSeries.zero(3), 1: h}, 1, 6)
    assert zero.valid_below == 3 and zero.coeff(F(1, 4), 1) == 1
    # negative valuation: h's own bound plus val theta_j(2, 2) = 1/2 decides
    low = PuiseuxSeries({F(-2): 1, F(-1, 2): imag_unit()}, F(5, 2))
    assert _assert_chained_theta_sum({2: low}, 2, 10).valid_below == 3
    # components held in Q(zeta_40) and Q(zeta_120), alone and together
    c40 = PuiseuxSeries({F(1, 4): f40.zeta(3), F(3, 2): f40.zeta(9) / 5}, 8)
    c120 = PuiseuxSeries({F(0): f120.zeta(11) / 2, F(7, 4): f120.zeta(1) - 1}, 6)
    assert _assert_chained_theta_sum({1: c40}, 3, 7).field is f120
    for comps in ({2: c120}, {0: c40, 3: c120}, {0: c120, 5: c40, 2: h}):
        _assert_chained_theta_sum(comps, 3, 7)


def _recompose_sweep():
    """JSON, grid, denominator, field order and stored terms of seeded theta
    sums: m in (1, 2, 3, 5, 6, 10), components in Q(zeta_8), Q(zeta_24),
    Q(zeta_40) and Q(zeta_120) with coefficient denominators -4..6, grids 1
    to 24, negative exponents, zero components, empty lattices and mappings,
    and a Q(zeta_120) component with no term below the bound."""
    rng = random.Random(20)
    fields = [cyclotomic_field(n) for n in (8, 24, 40, 120)]

    def coeff(f):
        num = [rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(f.degree)]
        num[rng.randrange(f.degree)] = rng.choice((-2, -1, 1, 2, 4))
        return f.element(num, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4, 5, 6)))

    def component(f, grid, bound):
        if rng.random() < 0.1:
            return PuiseuxSeries.zero(bound)
        return PuiseuxSeries({F(rng.randint(-2 * grid, 12 * grid), grid): coeff(f)
                              for _ in range(rng.randint(1, 6))}, bound)

    cases = []
    for m in (1, 2, 3, 5, 6, 10):
        for _ in range(20):
            order = F(rng.randint(-2, 40), rng.choice((1, 1, 1, 16)))
            comps = {}
            for r in rng.sample(range(2 * m), rng.randint(0, min(4, 2 * m))):
                grid = rng.choice((1, 2, 3, 4, 6, 8, 12, 24))
                bound = F(rng.randint(-grid, 24 * grid), grid)
                comps[r] = component(rng.choice(fields), grid, bound)
            cases.append((comps, m, order))
    low = PuiseuxSeries({F(0): coeff(fields[0]), F(1, 2): coeff(fields[1])}, 3)
    wide = PuiseuxSeries({F(20): coeff(fields[3]), F(30, 7): coeff(fields[2])}, 40)
    cases += [({0: low, 1: wide}, 1, 3), ({1: wide, 0: low}, 1, 3), ({3: wide}, 2, 4),
              ({0: PuiseuxSeries.zero(2), 1: low}, 1, 6)]
    out = []
    for comps, m, order in cases:
        s = recompose(comps, m, order)
        out.append(json.dumps(s.to_json(), sort_keys=True))
        out.append(repr((s.den, s.cden, s.field.n, list(s._terms.items()))))
    return out


def test_recompose_keeps_its_recorded_bytes():
    """The sweep's digest, recorded when each h_r theta_j(m, r) was still
    built as its own series and the sums added up afterwards."""
    out = _recompose_sweep()
    assert len(out) == 248
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == \
        "2cc3dcd5a75da85983b3fdfbec663b5531a91007484094e6cb7f2ed2da9fc143"


def test_recompose_refuses_a_wide_field_with_no_term_below_the_bound():
    # the Q(zeta_875) component starts at q^10, far above the bound 1, and
    # still may not join Q(zeta_24)
    late = PuiseuxSeries({F(10): cyclotomic_field(875).zeta(1)}, 20)
    with pytest.raises(ValueError, match=r"fields of orders \[24, 875\] join in order 21000, "
                                         r"above 1000"):
        recompose({0: PuiseuxSeries.one(1), 1: late}, 1, 2)
    assert recompose({0: PuiseuxSeries.one(1)}, 1, 2).valid_below == 1


def test_restrict_of_combination_is_component_sum():
    rng = random.Random(9)
    m = 2
    comps = [
        PuiseuxSeries({F(rng.randint(0, 30), 2): rng.randint(-3, 3) for _ in range(5)}, 10)
        for _ in range(4)
    ]
    phi = recompose(dict(enumerate(comps)), m, 12)
    lhs = restrict_z0(phi)
    rhs = PuiseuxSeries.zero(12)
    for r in range(4):
        rhs = rhs + comps[r] * theta_component(m, r, 12)
    assert lhs.same_below(rhs)


def test_d2_hat_product_rule():
    # d2_hat(h * theta_j(m,r), k) =
    #   4mk h D(theta_{m,r}) - 4 D(h) theta_{m,r} - 4 h D(theta_{m,r})
    rng = random.Random(13)
    for m, k in [(1, 2), (2, 2), (2, 4), (3, 10)]:
        for r in range(2 * m):
            h = PuiseuxSeries(
                {F(rng.randint(0, 40), 8): rng.randint(-3, 3) for _ in range(6)}, 12
            )
            lhs = d2_hat(h * theta_j(m, r, 14), k)
            th = theta_component(m, r, 14)
            rhs = (
                (4 * m * k) * (h * euler_d(th))
                - 4 * (euler_d(h) * th)
                - 4 * (h * euler_d(th))
            )
            assert lhs.same_below(rhs), (m, r, k)


def test_symmetry_check():
    phi = theta_j(2, 1, 20) + theta_j(2, 3, 20)
    assert symmetry_check(phi, 2)
    lone = theta_j(2, 1, 20)
    assert not symmetry_check(lone, 2)
    lone2 = JacobiSeries({(F(1, 8), 1): 1}, 10)
    assert not symmetry_check(lone2, 2)


def test_jacobi_mul_metadata_and_support():
    a = theta_j(1, 0, 8)
    b = theta_j(1, 1, 8)
    p = a * b
    assert p.meta.index == 2
    assert p.meta.weight == 1
    scalar = PuiseuxSeries({0: 2, 1: -1}, 8)
    q = scalar * theta_j(2, 0, 8)
    assert all(r % 4 == 0 for (_, r) in q.terms)
    mono = JacobiSeries({(1, 1): 1}, 9) * JacobiSeries({(1, -1): 1}, 9)
    assert mono.coeff(2, 0) == 1


def test_tau_shift_theta_diagonal():
    # theta_j(m, r) picks up the phase e^{2 pi i r^2/4m} under tau -> tau+1
    for m in (1, 2, 3, 6):
        for r in range(2 * m):
            t = theta_j(m, r, 12)
            shifted = tau_shift(t)
            phase = CYC24.zeta((24 * r * r // (4 * m)) % 24)
            assert shifted.same_below(t * phase, t.valid_below), (m, r)
    # coefficients in Q(zeta_40): the shift works in its join Q(zeta_120)
    # with Q(zeta_24), and multiplies each c q^e by zeta_24^{24e}
    f40 = cyclotomic_field(40)
    rng = random.Random(29)
    for kind in (PuiseuxSeries, JacobiSeries):
        terms = {}
        for _ in range(12):
            e = F(rng.randint(-24, 72), rng.choice((1, 2, 3, 8, 12, 24)))
            c = f40.element([rng.randint(-3, 3) for _ in range(f40.degree)], rng.choice((1, 2, 6)))
            terms[e if kind is PuiseuxSeries else (e, rng.randint(-3, 3))] = c + f40.zeta(1)
        terms[F(5, 6) if kind is PuiseuxSeries else (F(5, 6), 1)] = F(1, 3)
        a = kind(terms, 4, FormMeta(source="pin"))
        shifted = tau_shift(a)
        assert shifted.field.n == 120 and shifted.meta == a.meta
        assert shifted.valid_below == a.valid_below and len(shifted.terms) == len(a.terms)
        for key in terms:
            e = key if kind is PuiseuxSeries else key[0]
            if e < 4:
                args = key if kind is JacobiSeries else (key,)
                want = a.coeff(*args) * CYC24.zeta(int(24 * e) % 24)
                assert shifted.coeff(*args) == want, key
    with pytest.raises(ValueError, match="exponent 1/5 leaves Q"):
        tau_shift(PuiseuxSeries({F(0): 1, F(1, 5): f40.zeta(1)}, 2))


def test_json_round_trip():
    t = theta_j(2, 1, 10)
    assert JacobiSeries.from_json(t.to_json()) == t


def test_rendered_bytes_of_both_series_kinds():
    # the two kinds render a compound constant term differently: a
    # two-variable constant prints in parentheses, a one-variable one bare
    i = imag_unit()
    p = PuiseuxSeries({F(1, 8): -1, 0: 1 + i, F(7, 3): CYC24.zeta(1)}, 3,
                      FormMeta(weight=F(1, 2), level=1, kind="cuspidal"))
    j = JacobiSeries({(F(1, 4), -1): -1, (0, 0): 1 + i, (1, 1): i}, 2,
                     FormMeta(weight=F(5, 2), index=2, source="pin"))
    assert p.to_text() == "1+i - q^(1/8) + (cyc24[0,1,0,0,0,0,0,0])*q^(7/3)"
    assert (-p).to_text() == "-1-i + q^(1/8) + (cyc24[0,-1,0,0,0,0,0,0])*q^(7/3)"
    assert j.to_text() == "(1+i) - q^(1/4)*z^(-1) + i*q*z"
    assert (-j).to_text() == "(-1-i) + q^(1/4)*z^(-1) - i*q*z"
    assert JacobiSeries({(1, -2): -1, (2, 0): 1}, 3).to_text() == "-q*z^(-2) + q^2"
    assert str(p) == p.to_text()
    assert repr(p) == "<PuiseuxSeries 1+i - q^(1/8) + (cyc24[0,1,0,0,0,0,0,0])*q^(7/3) (below q^3)>"
    assert repr(j) == "<JacobiSeries 3 terms below q^2>"
    assert PuiseuxSeries.zero(1).to_text() == JacobiSeries.zero(1).to_text() == "0"
    dump = lambda s: json.dumps(s.to_json(), separators=(",", ":"))
    assert dump(p) == (
        '{"valid_below":"3","terms":['
        '{"exp":"0","coeff":{"num":[1,0,0,0,0,0,1,0],"den":1}},'
        '{"exp":"1/8","coeff":{"num":[-1,0,0,0,0,0,0,0],"den":1}},'
        '{"exp":"7/3","coeff":{"num":[0,1,0,0,0,0,0,0],"den":1}}],'
        '"meta":{"weight":"1/2","level":1,"kind":"cuspidal"}}')
    assert dump(j) == (
        '{"valid_below":"2","terms":['
        '{"n":"0","r":0,"coeff":{"num":[1,0,0,0,0,0,1,0],"den":1}},'
        '{"n":"1/4","r":-1,"coeff":{"num":[-1,0,0,0,0,0,0,0],"den":1}},'
        '{"n":"1","r":1,"coeff":{"num":[0,0,0,0,0,0,1,0],"den":1}}],'
        '"meta":{"weight":"5/2","index":2,"source":"pin"}}')
    assert PuiseuxSeries.from_json(p.to_json()) == p
    assert JacobiSeries.from_json(j.to_json()) == j


def _mixed_pair(seed):
    rng = random.Random(seed)
    coeff = lambda: rng.randint(-3, 3) + rng.randint(-2, 2) * imag_unit()
    p = PuiseuxSeries({F(k, 8): coeff() for k in range(0, 40, 3)}, 5)
    terms = {(F(rng.randint(0, 35), 8), rng.randint(-4, 4)): coeff() for _ in range(20)}
    # two terms cancel against p in a sum
    terms[(F(3, 8), 0)] = -p.coeff(F(3, 8))
    terms[(F(9, 8), 0)] = -p.coeff(F(9, 8))
    return p, JacobiSeries(terms, F(9, 2))


def test_mixed_operands_lift_the_one_variable_side():
    for seed in (53, 54, 55):
        p, j = _mixed_pair(seed)
        lifted = JacobiSeries.from_puiseux(p)
        cases = [
            (p + j, j + p, lifted + j),
            (p - j, -(j - p), lifted - j),
            (j - p, -(p - j), j - lifted),
            (p * j, j * p, lifted * j),
        ]
        for got, mirrored, reference in cases:
            assert isinstance(got, JacobiSeries)
            assert got == mirrored == reference
        assert (F(3, 8), 0) not in (p + j).terms
        assert (p + j).valid_below == F(9, 2)
        with pytest.raises(TypeError):
            p + 1
        with pytest.raises(TypeError):
            1 - j


def test_jacobi_truncate_and_first_difference_match_the_one_variable_series():
    p, _ = _mixed_pair(56)
    q = p + PuiseuxSeries({F(9, 8): 1, F(30, 8): 2}, 5)
    P, Q = JacobiSeries.from_puiseux(p), JacobiSeries.from_puiseux(q)
    assert p.first_difference(q) == F(9, 8)
    assert P.first_difference(Q) == (F(9, 8), 0)
    assert p.first_difference(q, F(9, 8)) is None and P.first_difference(Q, F(9, 8)) is None
    assert P.first_difference(P) is None
    for bound in (0, F(9, 8), 2, 5):
        assert P.truncate(bound) == JacobiSeries.from_puiseux(p.truncate(bound))
        assert P.truncate(bound).valid_below == bound
    for series in (p, P):
        with pytest.raises(ValueError):
            series.truncate(6)
    # over two-variable keys the difference is the least (n, r)
    j = JacobiSeries({(1, 2): 1, (1, -1): 2, (2, 0): 3}, 4)
    k = JacobiSeries({(1, 2): 1, (1, -1): 5, (2, 0): 3}, 4)
    assert j.first_difference(k) == (1, -1)
    assert j.first_difference(k, 1) is None
    assert j.truncate(2) == JacobiSeries({(1, 2): 1, (1, -1): 2}, 2)
