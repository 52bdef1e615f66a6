"""Verification backends.

* The identity catalogue (:func:`run_identity`): exact checks on truncated
  q-expansions, each computed on two independent routes.
* The numeric transformation checker: evaluates forms at sampled points of
  the upper half-plane and tests the theta transformation law, the
  vector-valued law for (xi0, xi2), scalar weight/character laws, and cusp
  boundedness.  Closed-form adaptive evaluators are used for the concrete
  modular objects, so low-imaginary-part points produced by group actions
  stay accurate.

Reports are deterministic: suites are driven by an explicit seed and the
JSON serialisation omits wall-clock timings unless asked for them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .construct import (
    derive_bridge_constant,
    derive_heat_constant,
    eta6_dilated,
    lambda2_fwd,
    lambda2_inv,
    lambda_star_fwd,
    lambda_star_inv,
    xi_hat,
    xi_m_star_hat,
    xi_pair_hat,
)
from .cyclotomic import CycNumber, coerce24, imag_unit
from .jacobi import (
    d2_hat,
    heat_check,
    restrict_z0,
    symmetry_check,
    theta_component,
    theta_decompose,
)
from .numeric import (
    CONST_ONE,
    ETA6,
    NumericForm,
    SnapFailed,
    XI0_HAT,
    XI2_HAT,
    eval_series,
    fit_scalar,
    sample_points,
    theta_vector_num,
    transform_rhs,
    xi_star_form,
)
from .series import PuiseuxSeries, dilate, eta_power
from .sl2 import (
    GroupWord,
    SL2Mat,
    random_gamma0_2_word,
    random_gamma0_m_word,
    random_sl2_word,
    sl2_word,
)
from .weil import (
    _letter_matrix,
    _letter_order,
    block_rows_vanish,
    cusp_entry_values,
    in_X,
    omega_m,
    r_char,
    resolve,
    resolve_scalar,
    rho2,
    submatrix_proportional,
    u_gen,
    u_gen_general,
    word_product,
)

NUMERIC_TOL = 1e-9


@dataclass
class CheckReport:
    """Outcome of one identity or transformation check."""

    name: str
    status: str  # "pass" | "fail"
    bound: str | float | None = None  # order reached or tolerance used
    witness: str | None = None  # first failing term / worst residual / notes
    runtime_ms: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self, with_ms: bool = False):
        return {
            "name": self.name,
            "status": self.status,
            "bound": str(self.bound) if isinstance(self.bound, Fraction) else self.bound,
            "witness": self.witness,
            "ms": round(self.runtime_ms, 3) if (with_ms and self.runtime_ms is not None) else None,
        }


def _timed(name, bound, fn):
    start = time.perf_counter()
    ok, witness = fn()
    ms = (time.perf_counter() - start) * 1e3
    return CheckReport(name, "pass" if ok else "fail", bound, witness, ms)


def _series_equal(name, bound, lhs, rhs):
    bound = min(Fraction(bound), lhs.valid_below, rhs.valid_below)
    if lhs.same_below(rhs, bound):
        return True, None
    e = lhs.first_difference(rhs, bound)
    return False, f"first difference at q^{e}: {lhs.coeff(e)} vs {rhs.coeff(e)}"


# ---------------------------------------------------------------------------
# The identity catalogue


def _id_eta3(order, rng):
    order = Fraction(order)
    lhs = dilate(eta_power(3, order / 2 + 1), 2)
    t0 = theta_component(1, 0, order + 1)
    t1 = theta_component(1, 1, order + 1)
    # sum over all integers of (-1)^n q^{n^2}
    alt = {Fraction(0): coerce24(1)}
    n = 1
    while Fraction(n * n) < order + 1:
        alt[Fraction(n * n)] = coerce24(2 * (-1) ** n)
        n += 1
    rhs = t0 * t1 * PuiseuxSeries(alt, order + 1) * Fraction(1, 2)
    return _series_equal("eta3", order, lhs, rhs)


def _id_xi_eta6(order, rng):
    order = Fraction(order)
    ok, witness = _series_equal(
        "xi-eta6", order, xi_hat(order), eta_power(6, order) * Fraction(-1, 2)
    )
    if not ok:
        return ok, witness
    for m in range(1, 8):
        star = xi_m_star_hat(m, 30)
        viadil = m * dilate(xi_hat(Fraction(30, m) + 1), m)
        ok, witness = _series_equal(f"xi-eta6[m={m}]", 30, star, viadil)
        if not ok:
            return ok, f"m={m}: {witness}"
        vianeg = eta6_dilated(m, 30) * Fraction(-m, 2)
        ok, witness = _series_equal(f"xi-eta6[m={m}]", 30, star, vianeg)
        if not ok:
            return ok, f"m={m} (eta route): {witness}"
    return True, None


def _id_theta23(order, rng):
    a = theta_component(2, 1, Fraction(order))
    b = theta_component(2, 3, Fraction(order))
    return _series_equal("theta23", order, a, b)


def _id_theta12(order, rng):
    order = Fraction(order)
    lhs = theta_component(1, 1, order)
    rhs = 2 * dilate(theta_component(2, 1, order / 2), 2)
    return _series_equal("theta12", order, lhs, rhs)


def _id_heat(order, rng):
    bad = [
        (m, r)
        for m in range(1, 7)
        for r in range(2 * m)
        if not heat_check(m, r, Fraction(order))
    ]
    return (not bad), (f"failing (m, r): {bad}" if bad else None)


def _random_series(rng, vb, nterms=8, grid=8):
    terms = {}
    for _ in range(nterms):
        e = Fraction(rng.randint(0, int(vb * grid) - 1), grid)
        terms[e] = rng.randint(-5, 5) + rng.randint(-2, 2) * imag_unit()
    return PuiseuxSeries(terms, vb)


def _id_d2_lambda2(order, rng, pairs=20):
    order = Fraction(order)
    xi0, xi2 = xi_pair_hat(order + 2)
    for idx in range(pairs):
        phi0 = _random_series(rng, order + 1)
        phi2 = _random_series(rng, order + 1)
        for k in (2, 4, 10):
            lhs = d2_hat(lambda2_inv(phi0, phi2, order + 2), k)
            rhs = (phi0 * xi0 + phi2 * xi2) * (8 * k)
            ok, witness = _series_equal("d2-lambda2", order, lhs, rhs)
            if not ok:
                return False, f"pair {idx}, k={k}: {witness}"
    return True, None


def _id_d2_lambdastar(order, rng, count=10):
    order = Fraction(order)
    consts = {}
    for m in (1, 2, 3, 5):
        c = derive_heat_constant(m)
        if c != 4 * m:
            return False, f"derived constant {c} != 4m at m={m}"
        consts[m] = c
    for idx in range(count):
        phi = _random_series(rng, order + 1)
        for m in (1, 2, 3, 5):
            star = xi_m_star_hat(m, order + 2)
            for k in (2, 4):
                lhs = d2_hat(lambda_star_inv(phi, m, order + 2), k)
                rhs = phi * star * (consts[m] * k)
                ok, witness = _series_equal("d2-lambdastar", order, lhs, rhs)
                if not ok:
                    return False, f"phi {idx}, m={m}, k={k}: {witness}"
    return True, f"constant C(m) = 4m confirmed for m in (1, 2, 3, 5)"


def _id_xi_bridge(order, rng):
    order = Fraction(order)
    c = derive_bridge_constant(min(order, 14))
    xi0, xi2 = xi_pair_hat(order)
    t0 = theta_component(2, 0, order)
    t1 = theta_component(2, 1, order)
    t2 = theta_component(2, 2, order)
    lhs = t2 * xi0 - t0 * xi2
    rhs = t1 * xi_m_star_hat(2, order) * c
    ok, witness = _series_equal("xi-bridge", order, lhs, rhs)
    note = f"resolved constant c = {c}"
    return ok, (note if ok else f"{witness}; {note}")


def _id_xistar_dilate(order, rng):
    for m in range(1, 8):
        star = xi_m_star_hat(m, Fraction(order))
        viadil = m * dilate(xi_hat(Fraction(order, m) + 1), m)
        ok, witness = _series_equal("xistar-dilate", order, star, viadil)
        if not ok:
            return False, f"m={m}: {witness}"
    return True, None


def _id_lambda2_roundtrip(order, rng, count=50):
    order = Fraction(order)
    for idx in range(count):
        phi0 = _random_series(rng, order)
        phi2 = _random_series(rng, order)
        phi = lambda2_inv(phi0, phi2, order + 2)
        if not restrict_z0(phi).is_zero():
            return False, f"pair {idx}: restriction does not vanish"
        if not symmetry_check(phi, 2):
            return False, f"pair {idx}: component symmetry fails"
        h = theta_decompose(phi, 2)
        pair = lambda2_fwd(h[0], h[2])
        b0 = min(pair.comp0.valid_below, phi0.valid_below)
        b2 = min(pair.comp2.valid_below, phi2.valid_below)
        if not (pair.comp0.same_below(phi0, b0) and pair.comp2.same_below(phi2, b2)):
            return False, f"pair {idx}: round trip differs"
    return True, None


def _id_lambdastar_roundtrip(order, rng, count=50):
    order = Fraction(order)
    ms = (1, 2, 3, 5)
    for idx in range(count):
        phi = _random_series(rng, order)
        m = ms[idx % len(ms)]
        jac = lambda_star_inv(phi, m, order + m)
        if not restrict_z0(jac).is_zero():
            return False, f"phi {idx}, m={m}: restriction does not vanish"
        if not symmetry_check(jac, m):
            return False, f"phi {idx}, m={m}: component symmetry fails"
        comps = theta_decompose(jac, m)
        if any(not comps[r].is_zero() for r in range(2 * m) if r not in (0, m)):
            return False, f"phi {idx}, m={m}: support outside 0, m"
        back = lambda_star_fwd(comps[0], comps[m], m)
        b = min(back.valid_below, phi.valid_below)
        if not back.same_below(phi, b):
            return False, f"phi {idx}, m={m}: round trip differs"
    return True, None


IDENTITIES = {
    "eta3": _id_eta3,
    "xi-eta6": _id_xi_eta6,
    "theta23": _id_theta23,
    "theta12": _id_theta12,
    "heat": _id_heat,
    "d2-lambda2": _id_d2_lambda2,
    "d2-lambdastar": _id_d2_lambdastar,
    "xi-bridge": _id_xi_bridge,
    "xistar-dilate": _id_xistar_dilate,
    "lambda2-roundtrip": _id_lambda2_roundtrip,
    "lambdastar-roundtrip": _id_lambdastar_roundtrip,
}


def run_identity(name: str, order, seed: int = 0) -> CheckReport:
    """Run one catalogue identity exactly, to the requested q-order."""
    if name not in IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; have {sorted(IDENTITIES)}")
    rng = random.Random(seed)
    return _timed(name, str(order), lambda: IDENTITIES[name](order, rng))


# ---------------------------------------------------------------------------
# Numeric transformation checks


def _residual(lhs, rhs) -> float:
    """Componentwise difference, scaled down only when the values themselves
    are large (so O(1) comparisons stay absolute while high-weight factors
    do not drown the tolerance in float roundoff)."""
    scale = max(1.0, max(abs(x) for x in lhs), max(abs(x) for x in rhs))
    return max(abs(a - b) for a, b in zip(lhs, rhs)) / scale


def check_theta_transform(m: int, word: GroupWord, samples) -> CheckReport:
    """Residual of the theta transformation law over the samples."""

    def body():
        U = resolve(m, word)
        Uc = U.to_complex()
        gamma = word.to_matrix()
        worst = 0.0
        for tau, z in samples:
            lhs = theta_vector_num(m, *gamma.act_jacobi(tau, z))
            rhs = transform_rhs(m, gamma, Uc, tau, z)
            worst = max(worst, _residual(lhs, rhs))
        return worst < NUMERIC_TOL, f"max residual {worst:.3e}"

    return _timed(f"theta-transform[m={m}, {word}]", NUMERIC_TOL, body)


def check_vvcf_transform(word: GroupWord, samples) -> CheckReport:
    """The weight-3 vector law for (xi0, xi2) with the 2-dim representation:
    (xi0, xi2)^t(g tau) = (c tau + d)^3 (rho(g)^{-1})^t (xi0, xi2)^t(tau)."""

    def body():
        R = rho2(word)
        # the matrices are unitary, so (R^{-1})^t is the entrywise conjugate
        Rinvt = [[x.to_complex() for x in row] for row in R.conj().canonical().rows]
        gamma = word.to_matrix()
        worst = 0.0
        for tau, _z in samples:
            gt = gamma.act(tau)
            lhs = (XI0_HAT(gt), XI2_HAT(gt))
            den = gamma.c * tau + gamma.d
            vec = (XI0_HAT(tau), XI2_HAT(tau))
            rhs = [
                den ** 3 * (Rinvt[i][0] * vec[0] + Rinvt[i][1] * vec[1])
                for i in range(2)
            ]
            worst = max(worst, _residual(lhs, rhs))
        return worst < NUMERIC_TOL, f"max residual {worst:.3e}"

    return _timed(f"vvcf-transform[{word}]", NUMERIC_TOL, body)


def check_weight_char(form, weight, char_value, word: GroupWord, samples) -> CheckReport:
    """Scalar law f(g tau) = char * (c tau + d)^weight f(tau).

    ``form`` is a NumericForm (adaptive closed-form evaluator) or a
    truncated series (summed through eval_series, which may refuse points
    with a large tail).  ``char_value`` is the exact character value of the
    word, as a cyclotomic number.
    """

    def body():
        gamma = word.to_matrix()
        chi = char_value.to_complex() if isinstance(char_value, CycNumber) else complex(char_value)
        worst = 0.0
        for tau, _z in samples:
            gt = gamma.act(tau)
            den = gamma.c * tau + gamma.d
            if isinstance(form, NumericForm):
                left, right = form(gt), form(tau)
            else:
                left, right = eval_series(form, gt), eval_series(form, tau)
            worst = max(worst, _residual([left], [chi * den ** weight * right]))
        return worst < NUMERIC_TOL, f"max residual {worst:.3e}"

    name = form.name if isinstance(form, NumericForm) else "series"
    return _timed(f"weight-char[{name}, w={weight}, {word}]", NUMERIC_TOL, body)


def cusp_bound_sample(components, g: SL2Mat, weight, heights) -> CheckReport:
    """Evidence of boundedness of (c tau + d)^{-weight} f(g tau) at a cusp.

    Samples tau = i y over the increasing heights (all >= 2) and requires
    no growth beyond factor 1.05 between consecutive heights with y >= 10.
    A sampler, not a proof.
    """
    if list(heights) != sorted(heights) or heights[0] < 2:
        raise ValueError("heights must be increasing and >= 2")

    def body():
        mags = []
        for y in heights:
            tau = complex(0.0, y)
            den = g.c * tau + g.d
            vals = [
                abs(den ** (-weight) * eval_series(f, g.act(tau), min_im=0.01))
                for f in components
            ]
            mags.append(max(vals))
        for (y1, m1), (y2, m2) in zip(zip(heights, mags), list(zip(heights, mags))[1:]):
            if y1 >= 10 and m2 > 1.05 * m1 + 1e-15:
                return False, f"growth {m1:.6g} -> {m2:.6g} between y={y1} and y={y2}"
        return True, f"magnitudes {mags[0]:.4g} .. {mags[-1]:.4g} (evidence only)"

    return _timed(f"cusp-bound[g={g}, w={weight}]", "growth factor 1.05", body)


# ---------------------------------------------------------------------------
# Suites


def suite_identities(order=30, seed: int = 7):
    reports = []
    for name in sorted(IDENTITIES):
        ord_here = Fraction(order)
        if name in ("d2-lambda2", "d2-lambdastar"):
            ord_here = Fraction(min(order, 20))
        if name in ("lambda2-roundtrip", "lambdastar-roundtrip"):
            ord_here = Fraction(min(order, 10))
        reports.append(run_identity(name, ord_here, seed))
    return reports


def suite_weil(seed: int = 7, words: int = 200):
    rng = random.Random(seed)
    reports = []

    def in_x_and_char():
        for idx in range(words):
            w = random_gamma0_2_word(rng, 12)
            U = resolve(2, w)
            if not in_X(U):
                return False, f"word {idx} ({w}): resolved matrix not in X"
        return True, None

    reports.append(_timed(f"weil-inX[{words} words]", None, in_x_and_char))

    def char_mult():
        for idx in range(50):
            V = resolve(2, random_gamma0_2_word(rng, 10))
            W = resolve(2, random_gamma0_2_word(rng, 10))
            if r_char(V @ W) != r_char(V) * r_char(W):
                return False, f"pair {idx}: character fails on X"
        return True, None

    reports.append(_timed("weil-rchar-multiplicative", None, char_mult))

    def rchar_cocycle():
        # on group elements the character picks up the square-root branch
        # sign: r(U(g g')) = sigma * r(U(g)) r(U(g')) with sigma = +-1
        seen_minus = False
        for idx in range(30):
            w1 = random_gamma0_2_word(rng, 6)
            w2 = random_gamma0_2_word(rng, 6)
            lhs = r_char(resolve(2, w1 + w2))
            rhs = r_char(resolve(2, w1)) * r_char(resolve(2, w2))
            if lhs == rhs:
                continue
            if lhs == -rhs:
                seen_minus = True
                continue
            return False, f"pair {idx}: ratio is not a sign"
        return True, ("sign -1 realised" if seen_minus else "all signs +1 in sample")

    reports.append(_timed("weil-rchar-cocycle-sign", None, rchar_cocycle))

    def rho2_mult():
        for idx in range(50):
            w1 = random_gamma0_2_word(rng, 6)
            w2 = random_gamma0_2_word(rng, 6)
            lhs = rho2(w1 + w2)
            prod = rho2(w1) @ rho2(w2)
            if not (lhs == prod):
                return False, f"pair {idx}: rho2 not multiplicative"
        return True, None

    reports.append(_timed("weil-rho2-multiplicative[50 pairs]", None, rho2_mult))

    def omega_mult():
        for m in (1, 2):
            for idx in range(25):
                g1 = random_gamma0_2_word(rng, 6).to_matrix()
                g2 = random_gamma0_2_word(rng, 6).to_matrix()
                if omega_m(g1 @ g2, m) != omega_m(g1, m) * omega_m(g2, m):
                    return False, f"m={m}, pair {idx}"
        return True, None

    reports.append(_timed("weil-omega-multiplicative[50 pairs]", None, omega_mult))

    def blocks():
        for m in (2, 3, 5):
            for _ in range(8):
                w, wm = random_gamma0_m_word(rng, m)
                W = word_product(m, w)
                if not block_rows_vanish(m, W):
                    return False, f"m={m}, word {w}: zero pattern fails"
                if not submatrix_proportional(m, W, word_product(1, wm)):
                    return False, f"m={m}, word {w}: submatrix not proportional"
        return True, None

    reports.append(_timed("weil-block-structure[m=2,3,5]", None, blocks))

    def cusp_entries():
        for c in range(1, 21):
            e00, e20 = cusp_entry_values(c)
            if c % 2 == 1 or c % 4 == 2:
                if e00.is_zero() or e20.is_zero():
                    return False, f"c={c}: entry vanishes"
        return True, None

    reports.append(_timed("weil-cusp-entries[c<=20]", None, cusp_entries))

    def displays():
        s2 = u_gen(2, "S") @ u_gen(2, "S")
        if not (s2 == u_gen(2, "-I")):
            return False, "U(S)^2 differs from the displayed -I matrix"
        for m in (1, 2):
            for g in ("S", "T"):
                if not (u_gen_general(m, g) == u_gen(m, g)):
                    return False, f"general formula differs at m={m}, {g}"
        # word_product reduces letter powers by their periods; below the
        # period it must agree with p copies of the letter multiplied out
        for g in ("ST2S", "-I"):
            letter = _letter_matrix(2, g)
            product = letter
            for p in range(1, _letter_order(2, g)):
                if not (word_product(2, GroupWord.of((g, p))) == product):
                    return False, f"m=2, {g}^{p}: word product differs from the letter product"
                product = product @ letter
        return True, None

    reports.append(_timed("weil-generator-displays", None, displays))

    def resolution_consistency():
        # the exact scalar against the numeric fit at two points
        for _ in range(10):
            w = random_gamma0_2_word(rng, 8)
            U = word_product(2, w)
            _, exact = resolve_scalar(2, w, U)
            for tau, z in ((0.11 + 1.21j, 0.07 + 0.13j), (-0.19 + 0.93j, 0.12 - 0.04j)):
                try:
                    fitted = fit_scalar(2, w, U, tau, z)
                except SnapFailed as exc:
                    return False, f"no scalar fits at tau={tau} for {w}: {exc}"
                if fitted != exact:
                    return False, f"scalar depends on the sample point for {w}"
        return True, None

    reports.append(_timed("weil-resolve-point-independence", None, resolution_consistency))

    return reports


def suite_numeric(seed: int = 7):
    rng = random.Random(seed)
    reports = []

    # the transformation law for the displayed generators
    for m in (1, 2):
        for name in ("S", "T") + (("ST2S", "-I") if m == 2 else ()):
            samples = sample_points(rng, 10)
            reports.append(check_theta_transform(m, GroupWord.of((name, 1)), samples))

    # random words
    for m in (1, 2):
        worst = 0.0
        count = 50

        def random_words(m=m, count=count):
            for idx in range(count):
                w = random_sl2_word(rng, 8) if m == 1 else random_gamma0_2_word(rng, 12)
                rep = check_theta_transform(m, w, sample_points(rng, 10))
                if not rep.passed:
                    return False, f"word {idx} ({w}): {rep.witness}"
            return True, None

        reports.append(_timed(f"theta-transform-random[m={m}, {count} words]",
                              NUMERIC_TOL, random_words))

    # the vector-valued law for (xi0, xi2) on 20 level-2 words
    def vvcf():
        for idx in range(20):
            w = random_gamma0_2_word(rng, 10)
            rep = check_vvcf_transform(w, sample_points(rng, 4))
            if not rep.passed:
                return False, f"word {idx} ({w}): {rep.witness}"
        return True, None

    reports.append(_timed("vvcf-xi-transform[20 words]", NUMERIC_TOL, vvcf))

    # scalar weight-3 laws with exact character values
    def xi2star_weight3():
        star = xi_star_form(2)
        for text in ("T", "ST2S", "-I T ST2S"):
            w = GroupWord.parse(text)
            chi = omega_m(w.to_matrix(), 2)
            rep = check_weight_char(star, 3, chi, w, sample_points(rng, 6))
            if not rep.passed:
                return False, f"{text}: {rep.witness}"
        return True, None

    reports.append(_timed("weight3-omega2-xi2star", NUMERIC_TOL, xi2star_weight3))

    def eta6_weight3():
        for text in ("S", "T", "S T^2", "T^-1 S T"):
            w = GroupWord.parse(text)
            chi = omega_m(w.to_matrix(), 1)
            rep = check_weight_char(ETA6, 3, chi, w, sample_points(rng, 6))
            if not rep.passed:
                return False, f"{text}: {rep.witness}"
        return True, None

    reports.append(_timed("weight3-omega1-eta6", NUMERIC_TOL, eta6_weight3))

    # trivial weight-(k-4) law for the unit psi built from (xi2, -xi0)
    def psi_trivial():
        for text in ("T", "ST2S"):
            w = GroupWord.parse(text)
            rep = check_weight_char(CONST_ONE, 0, coerce24(1), w, sample_points(rng, 4))
            if not rep.passed:
                return False, f"{text}: {rep.witness}"
        return True, None

    reports.append(_timed("trans-psi-trivial", NUMERIC_TOL, psi_trivial))

    # formal identities re-checked numerically at one point
    def formal_vs_numeric():
        tau = 0.1 + 0.9j
        xi = xi_hat(60)
        e6 = eta_power(6, 60)
        r1 = abs(eval_series(xi, tau) + 0.5 * eval_series(e6, tau))
        star = xi_m_star_hat(2, 60)
        bridge_l = (
            eval_series(theta_component(2, 2, 60), tau) * XI0_HAT(tau)
            - eval_series(theta_component(2, 0, 60), tau) * XI2_HAT(tau)
        )
        bridge_r = eval_series(theta_component(2, 1, 60), tau) * eval_series(star, tau)
        r2 = abs(bridge_l - bridge_r)
        worst = max(r1, r2)
        return worst < 1e-10, f"max residual {worst:.3e}"

    reports.append(_timed("formal-vs-numeric", 1e-10, formal_vs_numeric))

    # cusp boundedness evidence at the cusp 0
    from .sl2 import S as S_MAT

    heights = [2, 3, 4, 6, 8, 10, 12, 14, 16]
    theta10 = theta_component(1, 0, 100)
    reports.append(cusp_bound_sample([theta10], S_MAT, Fraction(1, 2), heights))
    eta6_series = eta_power(6, 100)
    reports.append(cusp_bound_sample([eta6_series], S_MAT, 3, heights))

    return reports


def suite_all(order=30, seed: int = 7):
    return (
        suite_identities(order, seed)
        + suite_weil(seed)
        + suite_numeric(seed)
    )


SUITES = {
    "identities": lambda order, seed: suite_identities(order, seed),
    "weil": lambda order, seed: suite_weil(seed),
    "numeric": lambda order, seed: suite_numeric(seed),
    "all": lambda order, seed: suite_all(order, seed),
}
