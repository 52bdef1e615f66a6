import cmath
import math
import random
from fractions import Fraction

import pytest

from jfkernel.cyclotomic import imag_unit
from jfkernel.jacobi import theta_component
from jfkernel.numeric import (
    ETA6,
    TAIL_LOG,
    TWO_PI,
    NumericForm,
    TailTooLarge,
    _theta_range,
    dtheta_num,
    eta_num,
    eval_series,
    sample_points,
    theta_jacobi_num,
    theta_num,
    xi_star_form,
)
from jfkernel.series import PuiseuxSeries, eta_power
from jfkernel.sl2 import GroupWord, S, random_gamma0_2_word
from jfkernel.verify import (
    IDENTITIES,
    _random_series,
    check_theta_transform,
    check_vvcf_transform,
    check_weight_char,
    cusp_bound_sample,
    run_identity,
    suite_all,
    suite_identities,
    suite_numeric,
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


def _bits(w):
    return w.real.hex(), w.imag.hex()


# The sums with every invariant inside the loop: the references the hoisted
# evaluators must match bit for bit.


def _theta_jacobi_unhoisted(m, r, tau, z):
    x0 = r / (2.0 * m)
    N = _theta_range(m, tau.imag, z.imag)
    total = 0j
    for n in range(-N - 1, N + 2):
        xv = n + x0
        total += cmath.exp(2j * math.pi * m * (xv * xv * tau + 2 * xv * z))
    return total


def _dtheta_unhoisted(m, r, tau):
    x0 = r / (2.0 * m)
    N = _theta_range(m, tau.imag, 0.0) + 2
    total = 0j
    for n in range(-N - 1, N + 2):
        xv = n + x0
        e = m * xv * xv
        total += e * cmath.exp(2j * math.pi * e * tau)
    return total


def _eta_unhoisted(tau):
    K = int(math.sqrt(2.0 * TAIL_LOG / (3.0 * TWO_PI * tau.imag)) + 2.0)
    total = 0j
    for k in range(-K, K + 1):
        e = k * (3 * k - 1) / 2.0 + 1.0 / 24.0
        total += (-1) ** k * cmath.exp(2j * math.pi * e * tau)
    return total


def test_theta_and_eta_sums_are_bit_identical_to_the_unhoisted_sums():
    rng = random.Random(23)
    for _ in range(300):
        y = rng.choice((0.02, rng.uniform(0.02, 0.2), rng.uniform(0.2, 3)))
        tau = complex(rng.uniform(-2, 2), y)
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        m = rng.randint(1, 6)
        r = rng.randrange(2 * m)
        assert _bits(theta_jacobi_num(m, r, tau, z)) == _bits(_theta_jacobi_unhoisted(m, r, tau, z))
        assert _bits(theta_num(m, r, tau)) == _bits(_theta_jacobi_unhoisted(m, r, tau, 0j))
        assert _bits(dtheta_num(m, r, tau)) == _bits(_dtheta_unhoisted(m, r, tau))
        assert _bits(eta_num(tau)) == _bits(_eta_unhoisted(tau))


def _random_series_by_fractions(rng, vb, nterms=8, grid=8):
    terms = {}
    for _ in range(nterms):
        e = F(rng.randint(0, int(vb * grid) - 1), grid)
        terms[e] = rng.randint(-5, 5) + rng.randint(-2, 2) * imag_unit()
    return PuiseuxSeries(terms, vb)


def test_random_series_is_the_fraction_keyed_construction():
    for seed in range(200):
        for vb, nterms, grid in ((F(31), 8, 8), (F(30), 8, 8), (F(1, 2), 8, 8), (F(3), 30, 2),
                                 (F(5, 2), 6, 4), (F(2), 3, 1)):
            got = _random_series(random.Random(seed), vb, nterms, grid)
            want = _random_series_by_fractions(random.Random(seed), vb, nterms, grid)
            assert list(got._terms.items()) == list(want._terms.items())
            assert (got.den, got.cden, got.field, got.valid_below, got.meta) == \
                (want.den, want.cden, want.field, want.valid_below, want.meta)
            assert got.to_json() == want.to_json()


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


@pytest.mark.parametrize("tau", [0.3 + 0j, -0.1 - 1j])
def test_theta_and_eta_sums_refuse_a_point_off_the_upper_half_plane(tau):
    for evaluate in (lambda: theta_jacobi_num(1, 0, tau, 0.1j), lambda: dtheta_num(2, 1, tau),
                     lambda: eta_num(tau)):
        with pytest.raises(ValueError, match=r"^tau must lie in the upper half-plane$"):
            evaluate()


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
    witness = _series_equal(10, a, b)
    assert witness is not None and "9/8" in witness


# -- the case protocol: checks are generators of (label, failure) cases ---------


def test_first_failure_reads_no_case_after_the_first_failure():
    from jfkernel.verify import _first_failure

    def cases():
        yield "a", None
        yield "b", "wrong"
        raise AssertionError("a case after the first failure was read")

    assert _first_failure(cases()) == (False, "b: wrong")


def test_first_failure_reports_an_unlabelled_failure_alone():
    from jfkernel.verify import _first_failure

    def cases():
        yield "a", None
        yield None, "first difference at q^0: 1 vs 0"

    assert _first_failure(cases()) == (False, "first difference at q^0: 1 vs 0")


def test_a_passing_generator_returns_its_witness():
    from jfkernel.verify import _first_failure

    def cases():
        yield "a", None
        yield None, None
        return "sign -1 realised"

    assert _first_failure(cases()) == (True, "sign -1 realised")
    assert run_identity("xi-bridge", 6).witness == "resolved constant c = 1"


def test_a_generator_expression_passes_with_none():
    from jfkernel.verify import _first_failure

    assert _first_failure((f"c={c}", None) for c in range(3)) == (True, None)
    assert _first_failure(iter(())) == (True, None)


def test_every_identity_is_a_generator_function():
    import inspect

    assert [name for name, check in IDENTITIES.items()
            if not inspect.isgeneratorfunction(check)] == []


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


@pytest.mark.parametrize("suite", [suite_identities, suite_all])
@pytest.mark.parametrize("order, shown", [(0, "0"), ("1/16", "1/16"), (F(5, 8), "5/8")])
def test_suites_refuse_an_order_at_or_below_five_eighths(suite, order, shown):
    with pytest.raises(ValueError) as info:
        suite(order)
    assert str(info.value) == f"--order must exceed 5/8, got {shown}"


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


def test_xi_eta6_fails_on_a_xi_known_below_less_than_the_order(monkeypatch):
    # a side known only below order - 1 is a failed case with its bound as
    # the witness, not a comparison lowered to what both sides know
    import jfkernel.verify as verify

    exact = verify.xi_hat
    monkeypatch.setattr(verify, "xi_hat", lambda order: exact(order).truncate(Fraction(order) - 1))
    assert _fails("xi-eta6") == "known only below q^5"
    assert _fails("xi-eta6", 30) == "known only below q^29"


def test_xi_eta6_checks_its_eta_route_up_to_the_order_asked(monkeypatch):
    # a wrong term at q^35 lies above the order-30 cases, so only a check
    # that honours --order 40 sees it
    import jfkernel.verify as verify

    exact = verify.eta6_dilated
    monkeypatch.setattr(verify, "eta6_dilated", lambda m, order: exact(m, order)
                        + PuiseuxSeries.monomial(1, 35, Fraction(order) + m))
    assert _fails("xi-eta6", 40).startswith("m=1 (eta route): first difference at q^35: ")


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


@pytest.mark.parametrize("name, witness", [
    ("lambda2-roundtrip", "pair 0: component symmetry fails"),
    ("lambdastar-roundtrip", "phi 1, m=2: component symmetry fails"),
])
def test_roundtrips_fail_on_components_that_break_the_symmetry(monkeypatch, name, witness):
    # h_1 moved by one term where m > 1, so that h_1 != h_{2m-1}
    import jfkernel.verify as verify

    exact = verify.theta_decompose

    def wrong(phi, m):
        comps = exact(phi, m)
        if m > 1:
            comps[1] = comps[1] + PuiseuxSeries.monomial(1, 0, comps[1].valid_below)
        return comps

    monkeypatch.setattr(verify, "theta_decompose", wrong)
    assert _fails(name) == witness


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


def test_heat_fails_on_a_heat_operator_at_the_wrong_weight(monkeypatch):
    import jfkernel.jacobi as jacobi

    # at weight 2/m the operator leaves z^2/m q^{z^2/4m} of each term; only
    # theta_j(6, 0) has no zeta-power but 0 below q^6
    exact = jacobi.d2_hat
    monkeypatch.setattr(jacobi, "d2_hat", lambda phi, k: exact(phi, 2 * k))
    bad = [(m, r) for m in range(1, 7) for r in range(2 * m) if (m, r) != (6, 0)]
    assert _fails("heat") == f"failing (m, r): {bad}"


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


def _bump_letter_power(monkeypatch, letter):
    """Serve every one-letter block of ``letter`` as U(letter)^(p+1) in place
    of U(letter)^p, and every block uncached: the blocks built before the
    patch would hide it.  A pair multiplies the one-letter blocks it reads
    through the patched name, so it carries the bump too."""
    import jfkernel.weil as weil

    exact = weil._block.__wrapped__

    def block(m, *letters):
        if len(letters) == 1 and letters[0][0] == letter:
            name, p = letters[0]
            return exact(m, (name, (p + 1) % weil._letter_order(m, name)))
        return exact(m, *letters)

    monkeypatch.setattr(weil, "_block", block)


def test_block_structure_fails_on_a_wrong_word_product(monkeypatch):
    # every T^p letter multiplies in U(T)^(p+1), on every local factor of 2m:
    # the products leave the level-m subgroup and the zero pattern breaks, at
    # the split index 5 too; no 24th root of unity fits the wrong level-2
    # products, which is a failed check, not an error
    import jfkernel.weil as weil

    _bump_letter_power(monkeypatch, "T")
    assert not weil.block_rows_vanish(5, weil.word_product(5, GroupWord.parse("T S T^5 S")))
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
    _bump_letter_power(monkeypatch, letter)
    reports = {r.name: r for r in suite_weil(7, words=2)}
    displays = reports["weil-generator-displays"]
    assert displays.status == "fail"
    assert displays.witness == f"m=2, {letter}^1: word product differs from the letter product"


def _weil_fails(*names):
    reports = {r.name: r for r in suite_weil(7, words=2)}
    for name in names:
        assert reports[name].status == "fail", (name, reports[name].witness)
    return [reports[name].witness for name in names]


def test_weil_checks_fail_on_blocks_multiplied_in_the_wrong_order(monkeypatch):
    # each two-letter block multiplies its letters right to left, so the
    # level-2 word S T^4 S multiplies out as T^4 S S; the cold builder, as a
    # warm cache would serve the right blocks
    import jfkernel.weil as weil

    exact = weil._block.__wrapped__
    monkeypatch.setattr(weil, "_block", lambda m, *letters: exact(m, *letters[::-1]))
    assert _weil_fails("weil-rho2-multiplicative[50 pairs]", "weil-block-structure[m=2,3,5]",
                       "weil-cusp-entries[c<=20]") == [
        "pair 2: rho2 not multiplicative",
        "m=2, word S T^4 S: submatrix not proportional",
        "c=1: entry vanishes",
    ]


def test_weil_in_x_fails_on_a_matrix_outside_x(monkeypatch):
    # in_X is handed U(w) U(S), which leaves the checkerboard pattern
    import jfkernel.verify as verify
    import jfkernel.weil as weil

    exact = verify.in_X
    monkeypatch.setattr(verify, "in_X", lambda U: exact(U @ weil.u_gen(2, "S")))
    assert _weil_fails("weil-inX[2 words]") == [
        "word 0 (-I^2 ST2S^-2 -I^-2 T^-2 ST2S^-1 -I^-2): resolved matrix not in X"]


def test_weil_rchar_checks_fail_on_the_11_entry_alone(monkeypatch):
    # v_11 without v_13 is no character of X, and its ratios are no signs
    import jfkernel.verify as verify

    monkeypatch.setattr(verify, "r_char", lambda V: V.canonical().rows[1][1])
    assert _weil_fails("weil-rchar-multiplicative", "weil-rchar-cocycle-sign") == [
        "pair 1: character fails on X", "pair 1: ratio is not a sign"]


def test_weil_rho2_multiplicative_fails_on_a_transposed_rho2(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.rho2
    monkeypatch.setattr(verify, "rho2", lambda w: exact(w).transpose())
    assert _weil_fails("weil-rho2-multiplicative[50 pairs]") == [
        "pair 2: rho2 not multiplicative"]


def test_weil_omega_multiplicative_fails_on_an_entry_for_the_determinant(monkeypatch):
    # the (0, 0) entry of U_1(gamma_m) in place of its determinant
    import jfkernel.verify as verify
    from jfkernel.sl2 import gamma_dilate, sl2_word
    from jfkernel.weil import resolve

    monkeypatch.setattr(verify, "omega_m", lambda g, m: resolve(
        1, sl2_word(gamma_dilate(g, m))).canonical().rows[0][0])
    assert _weil_fails("weil-omega-multiplicative[50 pairs]") == [
        "m=1, pair 1: omega not multiplicative"]


def test_weil_cusp_entries_fail_on_an_odd_row(monkeypatch):
    # row 1 in place of row 2: at level 2 the odd entries vanish
    import jfkernel.verify as verify
    from jfkernel.weil import resolve

    def wrong(c):
        U = resolve(2, GroupWord.of(("S", 1), ("T", -c), ("S", 1))).canonical()
        return U.rows[0][0], U.rows[1][0]

    monkeypatch.setattr(verify, "cusp_entry_values", wrong)
    assert _weil_fails("weil-cusp-entries[c<=20]") == ["c=2: entry vanishes"]


def _numeric_fails(*names):
    reports = {r.name: r for r in suite_numeric(7)}
    for name in names:
        assert reports[name].status == "fail", (name, reports[name].witness)
    return [reports[name].witness for name in names]


def test_theta_transform_random_fails_on_a_doubled_right_side(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.transform_rhs
    monkeypatch.setattr(verify, "transform_rhs",
                        lambda *args: [2 * x for x in exact(*args)])
    assert _numeric_fails("theta-transform-random[m=1, 50 words]") == [
        "word 0 (T^-1 S T^2 T^-1 S): max residual 5.000e-01"]


def test_weight3_laws_fail_on_a_negated_character(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.omega_m
    monkeypatch.setattr(verify, "omega_m", lambda g, m: -exact(g, m))
    assert _numeric_fails("weight3-omega2-xi2star", "weight3-omega1-eta6") == [
        "T: max residual 1.307e-01", "S: max residual 7.261e-01"]


def test_vvcf_and_formal_vs_numeric_fail_on_a_doubled_xi0(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.XI0_HAT
    monkeypatch.setattr(verify, "XI0_HAT", NumericForm("2 xi0_hat", lambda tau: 2 * exact(tau)))
    assert _numeric_fails("vvcf-xi-transform[20 words]", "formal-vs-numeric") == [
        "word 0 (ST2S^2 T T -I): max residual 5.000e-01", "max residual 7.481e-03"]


def test_weight3_eta6_fails_on_a_conjugated_eta6(monkeypatch):
    import jfkernel.verify as verify

    exact = verify.ETA6
    monkeypatch.setattr(verify, "ETA6", NumericForm("eta^6", lambda tau: exact(tau).conjugate()))
    assert _numeric_fails("weight3-omega1-eta6") == ["S: max residual 5.865e-01"]
