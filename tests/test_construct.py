import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

import jfkernel.construct as construct
from jfkernel.construct import (
    CompatibilityFailed,
    InconsistentPair,
    NonSquarefreeIndex,
    VVPair,
    bridge_sides,
    derive_bridge_constant,
    derive_heat_constant,
    eta6_dilated,
    lambda2_fwd,
    lambda2_inv,
    lambda_star_fwd,
    lambda_star_inv,
    psi_0m,
    psi_form,
    xi_hat,
    xi_m_star_hat,
    xi_pair_hat,
)
from jfkernel.cyclotomic import CycNumber, imag_unit
from jfkernel.jacobi import (
    d2_hat,
    restrict_z0,
    symmetry_check,
    theta_component,
    theta_decompose,
    theta_j,
)
from jfkernel.series import PuiseuxSeries, dilate, div_exact, eta_power

F = Fraction


def random_series(rng, vb, nterms=6, grid=4):
    terms = {
        F(rng.randint(0, int(vb * grid) - 1), grid): rng.randint(-4, 4)
        + rng.randint(-1, 1) * imag_unit()
        for _ in range(nterms)
    }
    return PuiseuxSeries(terms, vb)


def test_xi_hat_leading_terms():
    xi = xi_hat(10)
    assert xi.val() == F(1, 4)
    assert xi.coeff(F(1, 4)) == F(-1, 2)
    assert xi.coeff(F(5, 4)) == 3
    assert xi.coeff(F(9, 4)) == F(-9, 2)


def test_xi_hat_is_minus_half_eta6():
    xi = xi_hat(50)
    e6 = eta_power(6, 50) * F(-1, 2)
    assert xi.same_below(e6)


def test_xi_star_hat_m1_is_xi_hat():
    assert xi_m_star_hat(1, 20).same_below(xi_hat(20))


def test_xi_star_hat_dilation_and_eta6():
    for m in range(1, 8):
        star = xi_m_star_hat(m, 30)
        viadil = m * dilate(xi_hat(Fraction(30, m) + 1), m)
        assert star.same_below(viadil), m
        e6 = eta6_dilated(m, 30) * F(-m, 2)
        assert star.same_below(e6), m


def test_xi_star_hat_m2_leading():
    star = xi_m_star_hat(2, 10)
    assert star.val() == F(1, 2)
    assert star.coeff(F(1, 2)) == -1
    assert star.coeff(F(5, 2)) == 6


def test_xi_pair_leading_terms():
    xi0, xi2 = xi_pair_hat(10)
    assert xi0.coeff(F(1, 8)) == F(-1, 8)
    assert xi0.coeff(F(9, 8)) == F(-9, 8)
    assert xi2.coeff(F(5, 8)) == F(3, 4)
    assert xi0.val() == F(1, 8) and xi2.val() == F(5, 8)


def test_bridge_constant_is_one():
    c = derive_bridge_constant(14)
    assert c == 1
    # and the identity holds below q^30
    order = F(30)
    xi0, xi2 = xi_pair_hat(order)
    t0 = theta_component(2, 0, order)
    t1 = theta_component(2, 1, order)
    t2 = theta_component(2, 2, order)
    lhs = t2 * xi0 - t0 * xi2
    rhs = t1 * xi_m_star_hat(2, order)
    assert lhs.same_below(rhs)


def test_lambda2_fwd_trivial_cases():
    t1 = theta_component(2, 1, 12)
    z = PuiseuxSeries.zero(12)
    pair = lambda2_fwd(t1, z)
    assert pair.comp0.same_below(PuiseuxSeries.one(10), min(pair.comp0.valid_below, 10))
    assert pair.comp2.is_zero()
    q = PuiseuxSeries.monomial(1, 1, 12)
    q2 = PuiseuxSeries.monomial(1, 2, 12)
    pair2 = lambda2_fwd(q * t1, q2 * t1)
    assert pair2.comp0.same_below(q, min(pair2.comp0.valid_below, 12))
    assert pair2.comp2.same_below(q2, min(pair2.comp2.valid_below, 12))


def test_lambda2_inv_restricts_to_zero():
    rng = random.Random(31)
    for _ in range(10):
        phi0 = random_series(rng, 10)
        phi2 = random_series(rng, 10)
        phi = lambda2_inv(phi0, phi2, 12)
        assert restrict_z0(phi).is_zero()
        assert symmetry_check(phi, 2)


def test_lambda2_inv_unit_pair_components():
    one = PuiseuxSeries.one(12)
    zero = PuiseuxSeries.zero(12)
    phi = lambda2_inv(one, zero, 12)
    assert restrict_z0(phi).is_zero()
    h = theta_decompose(phi, 2)
    t1 = theta_component(2, 1, 12)
    t0 = theta_component(2, 0, 12)
    assert h[0].same_below(t1)
    assert h[1].same_below(t0 * F(-1, 2))
    assert h[2].is_zero()
    assert h[3].same_below(h[1])
    assert lambda2_inv(zero, zero, 12).is_zero()


def test_lambda2_round_trip():
    rng = random.Random(37)
    for _ in range(10):
        phi0 = random_series(rng, 10)
        phi2 = random_series(rng, 10)
        phi = lambda2_inv(phi0, phi2, 13)
        h = theta_decompose(phi, 2)
        pair = lambda2_fwd(h[0], h[2])
        b0 = min(pair.comp0.valid_below, phi0.valid_below)
        b2 = min(pair.comp2.valid_below, phi2.valid_below)
        assert pair.comp0.same_below(phi0, b0)
        assert pair.comp2.same_below(phi2, b2)


def test_d2_of_lambda2_inv_is_8k_pairing():
    rng = random.Random(41)
    for k in (2, 4, 10):
        for _ in range(6):
            phi0 = random_series(rng, 9)
            phi2 = random_series(rng, 9)
            phi = lambda2_inv(phi0, phi2, 11)
            lhs = d2_hat(phi, k)
            xi0, xi2 = xi_pair_hat(11)
            rhs = (phi0 * xi0 + phi2 * xi2) * (8 * k)
            assert lhs.same_below(rhs), k


def test_d2_of_lambda2_inv_unit_example():
    # pair (0, 1): the heat image is 8k xi2
    zero = PuiseuxSeries.zero(12)
    one = PuiseuxSeries.one(12)
    for k in (2, 10):
        phi = lambda2_inv(zero, one, 12)
        lhs = d2_hat(phi, k)
        _, xi2 = xi_pair_hat(12)
        rhs = xi2 * (8 * k)
        assert lhs.same_below(rhs)


def test_heat_constant_derivation():
    for m in (1, 2, 3, 5):
        assert derive_heat_constant(m) == 4 * m, m


def test_d2_of_lambda_star_inv():
    rng = random.Random(43)
    for m in (1, 2, 3, 5):
        for k in (2, 4):
            phi = random_series(rng, 8)
            jac = lambda_star_inv(phi, m, 10)
            lhs = d2_hat(jac, k)
            rhs = phi * xi_m_star_hat(m, 10) * (4 * m * k)
            assert lhs.same_below(rhs), (m, k)


def test_lambda_star_inv_structure():
    rng = random.Random(47)
    for m in (1, 2, 3, 5, 6):
        phi = random_series(rng, 8)
        jac = lambda_star_inv(phi, m, 10)
        assert restrict_z0(jac).is_zero()
        comps = theta_decompose(jac, m)
        for r in range(2 * m):
            if r not in (0, m):
                assert comps[r].is_zero(), (m, r)
        assert symmetry_check(jac, m)
    assert lambda_star_inv(PuiseuxSeries.zero(8), 2, 10).is_zero()


def test_lambda_star_inv_m1():
    one = PuiseuxSeries.one(10)
    jac = lambda_star_inv(one, 1, 10)
    expected = theta_component(1, 1, 10) * theta_j(1, 0, 10) - theta_component(1, 0, 10) * theta_j(1, 1, 10)
    assert jac.same_below(expected)
    assert restrict_z0(jac).is_zero()


def test_lambda_star_rejects_squareful_index():
    with pytest.raises(NonSquarefreeIndex):
        lambda_star_inv(PuiseuxSeries.one(5), 4, 6)


def test_lambda_star_fwd():
    m = 3
    t0 = theta_component(m, 0, 12)
    tm = theta_component(m, m, 12)
    out = lambda_star_fwd(tm, -t0, m)
    assert out.same_below(PuiseuxSeries.one(5), min(out.valid_below, 5))
    q = PuiseuxSeries.monomial(1, 1, 12)
    out2 = lambda_star_fwd(q * tm, -(q * t0), m)
    assert out2.same_below(q, min(out2.valid_below, 5))
    with pytest.raises(InconsistentPair):
        lambda_star_fwd(tm, t0, m)


def test_lambda_star_quotients_are_compared_in_one_difference_scan(monkeypatch):
    calls = {"first_difference": 0, "same_below": 0}
    for name in calls:
        def spy(*args, _name=name, _method=getattr(PuiseuxSeries, name)):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(PuiseuxSeries, name, spy)
    m = 3
    t0 = theta_component(m, 0, 12)
    tm = theta_component(m, m, 12)
    q = PuiseuxSeries.monomial(1, 1, 12)
    # the quotients are 1 and 1 + q
    with pytest.raises(InconsistentPair, match=r"^quotients differ at q\^1$"):
        lambda_star_fwd(tm, -(t0 + q * t0), m)
    assert calls == {"first_difference": 1, "same_below": 0}
    lambda_star_fwd(q * tm, -(q * t0), m)
    assert calls == {"first_difference": 2, "same_below": 0}


def test_lambda_star_round_trip():
    rng = random.Random(53)
    for m in (1, 2, 3):
        for _ in range(8):
            phi = random_series(rng, 8)
            jac = lambda_star_inv(phi, m, 12)
            comps = theta_decompose(jac, m)
            back = lambda_star_fwd(comps[0], comps[m], m)
            b = min(back.valid_below, phi.valid_below)
            assert back.same_below(phi, b), m


def test_the_kernel_maps_divide_with_no_field_inverse(cold_wronskians, monkeypatch):
    # theta_{m,m} leads with 2 and the heat probes with -1, -2, -3, -5: every
    # divisor is an integer multiple of a monic series over Z
    def refuse(self):
        raise AssertionError(f"inverse of {self}")
    monkeypatch.setattr(CycNumber, "inverse", refuse)
    rng = random.Random(59)
    phi0, phi2 = random_series(rng, 8), random_series(rng, 8)
    comps = theta_decompose(lambda2_inv(phi0, phi2, 10), 2)
    pair = lambda2_fwd(comps[0], comps[2])
    assert pair.comp0.same_below(phi0, 8) and pair.comp2.same_below(phi2, F(15, 2))
    for m in (1, 2, 3, 5):
        phi = random_series(rng, 8)
        comps = theta_decompose(lambda_star_inv(phi, m, 10), m)
        back = lambda_star_fwd(comps[0], comps[m], m)
        assert back.same_below(phi, min(back.valid_below, 8)), m
        assert derive_heat_constant(m) == 4 * m, m


def test_psi_form():
    xi0, xi2 = xi_pair_hat(12)
    psi = psi_form(xi2, -xi0)
    assert psi.same_below(PuiseuxSeries.one(5), min(psi.valid_below, 5))
    q = PuiseuxSeries.monomial(1, 1, 10)
    psi2 = psi_form(q * xi2, -(q * xi0))
    assert psi2.same_below(q, min(psi2.valid_below, 5))
    with pytest.raises(CompatibilityFailed):
        psi_form(xi2, xi0)


def _psi_pair(rng):
    """A pair (phi0, phi2) drawn as one of four kinds: compatible,
    (g xi2, -g xi0) for a random g; one of those with a term added at one
    exponent; unrelated; or compatible and truncated.  Valuations go down
    to -3 and bounds to multiples of 1/8."""
    lo = rng.randint(-3, 1)
    top = max(F(rng.randint(2, 10), rng.choice((1, 2, 4, 8))), F(lo + 2))

    def series(nterms):
        return PuiseuxSeries({F(rng.randint(8 * lo, int(8 * top) - 1), 8):
                              rng.randint(-4, 4) + rng.randint(-2, 2) * imag_unit()
                              for _ in range(nterms)}, top)

    kind = rng.choice(("compatible", "perturbed", "unrelated", "truncated"))
    if kind == "unrelated":
        return series(5), series(5)
    g = series(rng.randint(1, 6))
    xi0, xi2 = xi_pair_hat(top + 2)
    phi0, phi2 = g * xi2, -(g * xi0)
    if kind == "perturbed":
        bump = PuiseuxSeries.monomial(1, F(rng.randint(8 * lo, int(8 * top)), 8), top + 2)
        return (phi0 + bump, phi2) if rng.random() < 0.5 else (phi0, phi2 + bump)
    if kind == "truncated":
        def cut(s):
            return s.truncate(F(rng.randint(max(8 * lo, -7), int(8 * s.valid_below)), 8))
        return cut(phi0), cut(phi2)
    return phi0, phi2


@pytest.mark.parametrize("seed", range(3))
def test_psi_form_refuses_exactly_when_phi0_xi0_plus_phi2_xi2_has_a_term(seed):
    # the sum is built here, against xi0, xi2 to the order psi_form takes
    rng = random.Random(seed)
    refused = 0
    for _ in range(60):
        phi0, phi2 = _psi_pair(rng)
        xi0, xi2 = xi_pair_hat(max(phi0.valid_below, phi2.valid_below) + 2)
        combo = phi0 * xi0 + phi2 * xi2
        if combo.is_zero():
            psi = psi_form(phi0, phi2)
            assert psi.same_below(div_exact(phi0, xi2), psi.valid_below)
            continue
        refused += 1
        with pytest.raises(CompatibilityFailed) as err:
            psi_form(phi0, phi2)
        assert str(err.value) == f"phi0 xi0 + phi2 xi2 has a term at q^{combo.val()}"
    assert 15 < refused < 45


def test_psi_0m_projection():
    for m in (2, 3):
        t = theta_j(m, 0, 12)
        p = psi_0m(t, m)
        assert p.same_below(t)
        t1 = theta_j(m, 1, 12)
        assert psi_0m(t1, m).is_zero()


def test_psi_0m_idempotent():
    rng = random.Random(59)
    m = 2
    from jfkernel.jacobi import recompose

    comps = [random_series(rng, 8) for _ in range(4)]
    phi = recompose(dict(enumerate(comps)), m, 10)
    once = psi_0m(phi, m)
    twice = psi_0m(once, m)
    assert twice.same_below(once)


def test_vvpair_json_round_trip():
    pair = VVPair(PuiseuxSeries({Fraction(1, 2): imag_unit()}, 4), PuiseuxSeries.one(3))
    back = VVPair.from_json(pair.to_json())
    assert back.comp0 == pair.comp0 and back.comp2 == pair.comp2 and back.meta is None


@pytest.mark.parametrize("obj, message", [
    ([], "pair must be a JSON object, got []"),
    ("x", "pair must be a JSON object, got 'x'"),
    ({}, "pair has no 'phi0'"),
    ({"phi0": PuiseuxSeries.one(3).to_json()}, "pair has no 'phi2'"),
    ({"phi0": 5, "phi2": 5}, "series must be a JSON object, got 5"),
    ({"phi0": PuiseuxSeries.one(3).to_json(), "phi2": PuiseuxSeries.one(3).to_json(),
      "meta": []}, "meta must be a JSON object, got []"),
])
def test_vvpair_from_json_refuses_malformed_pairs(obj, message):
    with pytest.raises(ValueError) as exc:
        VVPair.from_json(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize("m", [0, -1, 4, 12])
def test_lambda_star_fwd_refuses_an_index_that_is_not_squarefree(m):
    one = PuiseuxSeries.one(8)
    with pytest.raises(NonSquarefreeIndex, match=f"^{m} is not squarefree$"):
        lambda_star_fwd(one, one, m)


@pytest.mark.parametrize("m", [0, -2])
def test_theta_component_refuses_a_non_positive_index(m):
    with pytest.raises(ValueError, match="index must be a positive integer"):
        theta_component(m, 0, 4)


# -- the Wronskian cache ---------------------------------------------------------


@pytest.fixture
def cold_wronskians():
    """An empty Wronskian cache before the test and after it, so that no
    series built under a patch outlives the test."""
    construct._fixed_form.cache_clear()
    yield construct._fixed_form
    construct._fixed_form.cache_clear()


def _bare(s):
    return s.with_meta(None).to_json_text()


@pytest.mark.parametrize("clear", [False, True])
def test_a_cached_wronskian_equals_a_fresh_one(clear):
    if clear:
        construct._fixed_form.cache_clear()
    for order in (F(3), F(10), F(61, 4)):
        for m in range(1, 8):
            got = xi_m_star_hat(m, order)
            fresh = construct._wronskian(theta_component(m, m, order),
                                         theta_component(m, 0, order))
            assert _bare(got) == _bare(fresh), (m, order)
            assert xi_m_star_hat(m, str(order)) is got
        t1 = theta_component(2, 1, order)
        pair = xi_pair_hat(order)
        assert [_bare(x) for x in pair] == [
            _bare(construct._wronskian(t1, theta_component(2, r, order))) for r in (0, 2)]
        assert xi_pair_hat(float(order)) is pair


@pytest.mark.parametrize("first", ["xi_hat", "xi_m_star_hat"])
def test_xi_hat_and_xi_star_1_keep_their_own_metadata(cold_wronskians, first):
    calls = {"xi_hat": lambda: xi_hat(12), "xi_m_star_hat": lambda: xi_m_star_hat(1, 12)}
    for name in (first, *(n for n in calls if n != first)):
        calls[name]()
    xi, star = xi_hat(12), xi_m_star_hat(1, 12)
    assert xi.meta.source == "xi_hat" and star.meta.source == "xi_star_hat(1)"
    assert xi is not star and xi._terms is star._terms
    assert cold_wronskians.cache_info().currsize == 1


def test_no_caller_modifies_a_cached_wronskian(cold_wronskians, monkeypatch):
    import jfkernel.cli as cli
    from jfkernel.verify import run_identity

    built = []
    for name in ("_xi_m_star", "_xi_pair"):
        def record(*key, _build=getattr(construct, name)):
            out = _build(*key)
            built.extend((s, s.to_json_text()) for s in (out if isinstance(out, tuple) else (out,)))
            return out
        monkeypatch.setattr(construct, name, record)
    rng = random.Random(31)
    for name in ("lambda2-roundtrip", "lambdastar-roundtrip", "d2-lambda2", "d2-lambdastar",
                 "xi-bridge", "xi-eta6"):
        assert run_identity(name, 8, seed=3).passed, name
    xi0, xi2 = xi_pair_hat(10)
    phi = random_series(rng, 8)
    psi_form(phi * xi2, -phi * xi0)
    bridge_sides(10)
    for argv in (["xi", "--pair", "--order", "10"], ["xi", "--m", "3", "--order", "10"]):
        assert cli.run(argv, out=io.StringIO()) == 0
    assert len(built) > 10
    assert [s.to_json_text() for s, _text in built] == [text for _s, text in built]


@pytest.mark.parametrize("call, message", [
    (lambda: xi_m_star_hat(0, 10), "index must be a positive integer"),
    (lambda: xi_m_star_hat(-3, 10), "index must be a positive integer"),
    (lambda: xi_pair_hat(F(5, 8)), "order must exceed 5/8"),
    (lambda: xi_pair_hat(0), "order must exceed 5/8"),
    (lambda: xi_hat(F(1, 4)), "order must exceed 1/4"),
])
def test_a_refused_wronskian_leaves_no_cache_entry(cold_wronskians, call, message):
    with pytest.raises(ValueError, match=message):
        call()
    info = cold_wronskians.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_a_patched_theta_component_reaches_a_cleared_cache(cold_wronskians, monkeypatch):
    exact = construct.theta_component
    monkeypatch.setattr(construct, "theta_component", lambda m, r, order: exact(m, r, order) * 2)
    # the Wronskian is bilinear, so doubling both theta components gives 4 xi*
    star = xi_m_star_hat(2, 10)
    monkeypatch.undo()
    assert star.same_below(construct._wronskian(exact(2, 2, 10), exact(2, 0, 10)) * 4)


def test_the_kernel_deep_job_list_evicts_no_wronskian(cold_wronskians, monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    results, _wall, _ref = workloads.run_jobs(workloads.build("kernel-deep", 3))
    assert [r.error for r in results if r.error] == []
    info = cold_wronskians.cache_info()
    assert info.currsize == info.misses == 24 <= info.maxsize
    assert info.hits == 52
