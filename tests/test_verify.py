import random
from fractions import Fraction

import pytest

from jfkernel.jacobi import theta_component
from jfkernel.numeric import (
    ETA6,
    TailTooLarge,
    eta_num,
    eval_series,
    sample_points,
    theta_num,
    xi_star_form,
)
from jfkernel.series import PuiseuxSeries, eta_power
from jfkernel.sl2 import GroupWord, S, random_gamma0_2_word
from jfkernel.verify import (
    IDENTITIES,
    check_theta_transform,
    check_vvcf_transform,
    check_weight_char,
    cusp_bound_sample,
    run_identity,
    suite_identities,
    suite_weil,
)
from jfkernel.weil import omega_m

F = Fraction


def test_theta_numeric_against_direct_sum():
    # theta_{1,0}(i) = sum over n of e^{-2 pi n^2}
    import math

    expected = sum(math.exp(-2 * math.pi * n * n) for n in range(-30, 31))
    got = theta_num(1, 0, 1j)
    assert abs(got - expected) < 1e-12
    assert abs(got - 1.0037348854877393) < 1e-12
    # the same series at tau = i/2 gives the classical e^{-pi} theta value
    assert abs(theta_num(1, 0, 0.5j) - 1.0864348112133080) < 1e-12


def test_eta_functional_equation():
    import cmath

    for tau in (1j, 0.3 + 1.1j, -0.2 + 0.8j):
        lhs = eta_num(-1 / tau)
        rhs = cmath.sqrt(-1j * tau) * eta_num(tau)
        assert abs(lhs - rhs) < 1e-12


def test_eta_num_matches_series():
    e = eta_power(1, 40)
    for tau in (0.9j, 0.1 + 1.2j):
        assert abs(eval_series(e, tau) - eta_num(tau)) < 1e-13


def test_eval_series_constant():
    one = PuiseuxSeries.one(30)
    assert abs(eval_series(one, 0.37 + 2.1j) - 1.0) < 1e-15


def test_eval_series_tail_guard():
    short = theta_component(1, 0, 3)
    with pytest.raises(TailTooLarge):
        eval_series(short, 0.0 + 0.35j)
    with pytest.raises(TailTooLarge):
        eval_series(theta_component(1, 0, 60), 0.0 + 0.05j)


def test_identity_catalogue_names():
    for name in ("eta3", "xi-eta6", "theta23", "theta12", "heat",
                 "d2-lambda2", "d2-lambdastar", "xi-bridge", "xistar-dilate"):
        assert name in IDENTITIES
    with pytest.raises(KeyError):
        run_identity("nope", 10)


def test_identities_pass_at_low_order():
    for name in ("eta3", "theta23", "theta12", "heat", "xistar-dilate"):
        rep = run_identity(name, 12)
        assert rep.passed, (name, rep.witness)


def test_identity_failure_reports_witness():
    # a deliberately broken comparison: eta3 at an order where we corrupt
    # the route by comparing different objects through the private helper
    from jfkernel.verify import _series_equal

    a = theta_component(2, 1, 10)
    b = theta_component(2, 3, 10) + PuiseuxSeries.monomial(1, F(9, 8), 10)
    ok, witness = _series_equal("x", 10, a, b)
    assert not ok and "9/8" in witness


def test_check_theta_transform_generator():
    rng = random.Random(1)
    rep = check_theta_transform(2, GroupWord.parse("T"), sample_points(rng, 5))
    assert rep.passed
    assert float(rep.witness.split()[-1]) < 1e-12


def test_check_theta_transform_random_word():
    rng = random.Random(2)
    w = random_gamma0_2_word(rng, 8)
    rep = check_theta_transform(2, w, sample_points(rng, 5))
    assert rep.passed, rep.witness


def test_check_vvcf_identity_word():
    rng = random.Random(3)
    rep = check_vvcf_transform(GroupWord.of(("T", 1), ("T", -1)), sample_points(rng, 3))
    assert rep.passed
    rep = check_vvcf_transform(GroupWord.parse("T"), sample_points(rng, 3))
    assert rep.passed, rep.witness


def test_check_weight_char_eta6():
    rng = random.Random(4)
    w = GroupWord.parse("S")
    chi = omega_m(w.to_matrix(), 1)
    rep = check_weight_char(ETA6, 3, chi, w, sample_points(rng, 5))
    assert rep.passed, rep.witness


def test_check_weight_char_xi2star():
    rng = random.Random(5)
    w = GroupWord.parse("ST2S")
    chi = omega_m(w.to_matrix(), 2)
    rep = check_weight_char(xi_star_form(2), 3, chi, w, sample_points(rng, 5))
    assert rep.passed, rep.witness


def test_check_weight_char_wrong_weight_fails():
    rng = random.Random(6)
    w = GroupWord.parse("S")
    chi = omega_m(w.to_matrix(), 1)
    rep = check_weight_char(ETA6, 5, chi, w, sample_points(rng, 3))
    assert not rep.passed


def test_cusp_bound_sampler():
    heights = [2, 3, 4, 6, 8, 10, 12, 14, 16]
    rep = cusp_bound_sample([theta_component(1, 0, 100)], S, F(1, 2), heights)
    assert rep.passed, rep.witness
    rep = cusp_bound_sample([eta_power(6, 100)], S, 3, heights)
    assert rep.passed
    with pytest.raises(ValueError):
        cusp_bound_sample([eta_power(6, 100)], S, 3, [1, 2])


def test_cusp_bound_detects_growth():
    # a reciprocal-like series (negative-exponent proxy): constant 1 with
    # weight -2 grows like |c tau + d|^2 at the cusp
    one = PuiseuxSeries.one(100)
    rep = cusp_bound_sample([one], S, -2, [2, 4, 8, 10, 12, 16])
    assert not rep.passed


def test_suite_identities_all_pass():
    reports = suite_identities(order=16, seed=7)
    for r in reports:
        assert r.passed, (r.name, r.witness)


def test_report_json_shape():
    rep = run_identity("theta23", 10)
    obj = rep.to_json()
    assert set(obj) == {"name", "status", "bound", "witness", "ms"}
    assert obj["ms"] is None
    obj2 = rep.to_json(with_ms=True)
    assert obj2["ms"] is not None


def test_resolve_point_independence_fails_on_flipped_scalar(monkeypatch):
    import jfkernel.weil as weil

    exact = weil.word_scalar
    monkeypatch.setattr(weil, "word_scalar", lambda w: -exact(w))
    (report,) = [r for r in suite_weil(7, words=2)
                 if r.name == "weil-resolve-point-independence"]
    assert report.status == "fail"
    assert report.witness.startswith("scalar depends on the sample point for ")


# -- every identity the series kernels feed can fail ----------------------------


def _fails(name, order=6):
    report = run_identity(name, order, seed=3)
    assert report.status == "fail", (name, report.witness)
    assert report.witness, name
    return report.witness


def test_xi_eta6_fails_on_a_wrong_eta_power(monkeypatch):
    import jfkernel.verify as verify

    monkeypatch.setattr(verify, "eta_power", lambda e, order: -eta_power(e, order))
    assert _fails("xi-eta6").startswith("first difference at q^1/4: -1/2 vs 1/2")


def test_d2_lambda2_fails_when_the_heat_operator_returns_zero(monkeypatch):
    import jfkernel.verify as verify

    monkeypatch.setattr(verify, "d2_hat", lambda phi, k: PuiseuxSeries.zero(phi.valid_below))
    assert _fails("d2-lambda2").startswith("pair 0, k=2: first difference at q^")


def test_d2_lambdastar_fails_on_a_wrong_wronskian(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.xi_m_star_hat
    monkeypatch.setattr(verify, "xi_m_star_hat", lambda m, order: exact(m, order) * 2)
    assert _fails("d2-lambdastar").startswith("phi 0, m=1, k=2: first difference at q^")


def test_lambda2_roundtrip_fails_on_a_wrong_constant(monkeypatch):
    import jfkernel.verify as verify
    from jfkernel.jacobi import theta_j

    # lambda2_inv with the middle coefficient -1/2 doubled: the z = 0
    # restriction no longer cancels
    exact = verify.lambda2_inv

    def wrong(phi0, phi2, order):
        t0 = theta_component(2, 0, order)
        t2 = theta_component(2, 2, order)
        extra = (phi0 * t0 + phi2 * t2) * F(-1, 2)
        return exact(phi0, phi2, order) + extra * (theta_j(2, 1, order) + theta_j(2, 3, order))

    monkeypatch.setattr(verify, "lambda2_inv", wrong)
    assert _fails("lambda2-roundtrip") == "pair 0: restriction does not vanish"


def test_lambdastar_roundtrip_fails_on_a_wrong_quotient(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.lambda_star_fwd
    monkeypatch.setattr(verify, "lambda_star_fwd", lambda h0, hm, m: exact(h0, hm, m) * 2)
    assert _fails("lambdastar-roundtrip") == "phi 0, m=1: round trip differs"


def _shifted_components(monkeypatch):
    # theta_{m,r} replaced by theta_{m,r+1}
    import jfkernel.verify as verify

    exact = verify.theta_component
    monkeypatch.setattr(verify, "theta_component",
                        lambda m, r, order: exact(m, (r + 1) % (2 * m), order))


def test_eta3_fails_on_a_wrong_eta_power(monkeypatch):
    import jfkernel.verify as verify

    monkeypatch.setattr(verify, "eta_power", lambda e, order: -eta_power(e, order))
    assert _fails("eta3") == "first difference at q^1/4: -1 vs 1"


def test_theta23_fails_on_shifted_components(monkeypatch):
    _shifted_components(monkeypatch)
    assert _fails("theta23") == "first difference at q^0: 0 vs 1"


def test_theta12_fails_on_shifted_components(monkeypatch):
    _shifted_components(monkeypatch)
    assert _fails("theta12") == "first difference at q^0: 1 vs 0"


def test_heat_fails_on_a_theta_function_of_the_wrong_index(monkeypatch):
    import jfkernel.jacobi as jacobi

    exact = jacobi.theta_j
    monkeypatch.setattr(jacobi, "theta_j",
                        lambda m, r, order: exact(m + 1 if m == 3 else m, r, order))
    assert _fails("heat") == "failing (m, r): [(3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5)]"


def test_xi_bridge_fails_on_a_wrong_constant(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.derive_bridge_constant
    monkeypatch.setattr(verify, "derive_bridge_constant", lambda order: exact(order) * 2)
    assert _fails("xi-bridge") == "first difference at q^5/8: -1 vs -2; resolved constant c = 2"


def test_xistar_dilate_fails_on_a_wrong_xi(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.xi_hat
    monkeypatch.setattr(verify, "xi_hat", lambda order: -exact(order))
    assert _fails("xistar-dilate") == "m=1: first difference at q^1/4: -1/2 vs 1/2"


def test_block_structure_fails_on_a_wrong_word_product(monkeypatch):
    # every T^p letter multiplies in U(T)^(p+1): the products leave the
    # level-m subgroup and the zero pattern breaks; no 24th root of unity
    # fits the wrong level-2 products, which is a failed check, not an error
    import jfkernel.weil as weil

    exact = weil._letter_power
    monkeypatch.setattr(
        weil, "_letter_power",
        lambda m, name, p: exact(m, name, (p + 1) % weil._letter_order(m, name) if name == "T" else p))
    reports = {r.name: r for r in suite_weil(7, words=2)}
    blocks = reports["weil-block-structure[m=2,3,5]"]
    assert blocks.status == "fail"
    assert blocks.witness == "m=2, word T^-1 S T^2 S: zero pattern fails"
    point = reports["weil-resolve-point-independence"]
    assert point.status == "fail"
    assert point.witness.startswith("no scalar fits at tau=(0.11+1.21j) for ")


@pytest.mark.parametrize("letter", ["ST2S", "-I"])
def test_generator_displays_fail_on_a_wrong_level2_letter_power(monkeypatch, letter):
    # U(letter)^(p+1) in place of U(letter)^p: the only exact check that sees
    # it compares word products with the letter multiplied out
    import jfkernel.weil as weil

    exact = weil._letter_power
    monkeypatch.setattr(
        weil, "_letter_power",
        lambda m, name, p: exact(m, name, (p + 1) % weil._letter_order(m, name) if name == letter else p))
    reports = {r.name: r for r in suite_weil(7, words=2)}
    displays = reports["weil-generator-displays"]
    assert displays.status == "fail"
    assert displays.witness == f"m=2, {letter}^1: word product differs from the letter product"
