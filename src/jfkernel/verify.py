"""Verification backends.

* The identity catalogue (:func:`run_identity`): exact checks on truncated
  q-expansions, each computed on two independent routes.
* The numeric transformation checker: evaluates forms at sampled points of
  the upper half-plane and tests the theta transformation law, the
  vector-valued law for (xi0, xi2), scalar weight/character laws, and cusp
  boundedness.  Closed-form adaptive evaluators are used for the concrete
  modular objects, so low-imaginary-part points produced by group actions
  stay accurate.

A check is a generator of ``(label, failure)`` cases, failure None for a
passing case.  The first failure is reported as ``label: failure`` (the
failure alone when the label is None) and no case after it is computed; a
check with no failure passes and reports what its generator returns.

Reports are deterministic: suites are driven by an explicit seed and the
JSON serialisation omits wall-clock timings unless asked for them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from ._value import Value
from .construct import (
    bridge_sides,
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
from .cyclotomic import CYC24, CycNumber, coerce24
from .jacobi import (
    _symmetric,
    d2_hat,
    heat_check,
    restrict_z0,
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
from .series import PuiseuxSeries, _build, dilate, eta_power
from .sl2 import (
    S as S_MAT,
    GroupWord,
    SL2Mat,
    random_gamma0_2_word,
    random_gamma0_m_word,
    random_sl2_word,
)
from .weil import (
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


class CheckReport(Value):
    """Outcome of one identity or transformation check: ``status`` is "pass"
    or "fail", ``bound`` the order reached or tolerance used, ``witness`` the
    first failing term, worst residual or notes."""

    __slots__ = ("name", "status", "bound", "witness", "runtime_ms")
    __hash__ = None

    def __init__(self, name: str, status: str, bound=None, witness=None, runtime_ms=None):
        self.name, self.status, self.bound = name, status, bound
        self.witness, self.runtime_ms = witness, runtime_ms

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failure(self) -> str | None:
        """The witness of a failed check; None for a pass."""
        return None if self.passed else str(self.witness)

    def to_json(self, with_ms: bool = False):
        return {
            "name": self.name,
            "status": self.status,
            "bound": self.bound,
            "witness": self.witness,
            "ms": round(self.runtime_ms, 3) if (with_ms and self.runtime_ms is not None) else None,
        }


def _timed(name, bound, fn):
    start = time.perf_counter()
    ok, witness = fn()
    ms = (time.perf_counter() - start) * 1e3
    return CheckReport(name, "pass" if ok else "fail", bound, witness, ms)


def _first_failure(cases):
    """(False, "label: failure") for the first failing case of the
    (label, failure) pairs, read no further than that (the failure alone for
    the label None); else (True, what the generator of the cases returns).
    A failure is None for a passing case."""
    cases = iter(cases)
    while True:
        try:
            label, failure = next(cases)
        except StopIteration as stop:
            return True, stop.value
        if failure is not None:
            return False, failure if label is None else f"{label}: {failure}"


def _series_equal(bound, lhs, rhs):
    """The first difference of the two series below ``bound`` as failure
    text, or the lesser validity bound if a side is known only below
    ``bound``; None if there is neither."""
    known = min(lhs.valid_below, rhs.valid_below)
    if known < bound:
        return f"known only below q^{known}"
    e = lhs.first_difference(rhs, bound)
    return None if e is None else f"first difference at q^{e}: {lhs.coeff(e)} vs {rhs.coeff(e)}"


# ---------------------------------------------------------------------------
# The identity catalogue: each identity is a generator of (label, failure)
# cases for _first_failure


def _id_eta3(order, rng):
    order = Fraction(order)
    lhs = dilate(eta_power(3, order / 2 + 1), 2)
    t0 = theta_component(1, 0, order + 1)
    t1 = theta_component(1, 1, order + 1)
    # sum over all integers of (-1)^n q^{n^2} = 2 theta_{1,0}(4 tau) - theta_{1,0}(tau)
    alt = 2 * dilate(theta_component(1, 0, (order + 1) / 4), 4) - t0
    rhs = t0 * t1 * alt * Fraction(1, 2)
    yield None, _series_equal(order, lhs, rhs)


def _id_xi_eta6(order, rng):
    order = Fraction(order)
    yield None, _series_equal(order, xi_hat(order), eta_power(6, order) * Fraction(-1, 2))
    for m in range(1, 8):
        yield f"m={m} (eta route)", _series_equal(order, xi_m_star_hat(m, order),
                                                  eta6_dilated(m, order) * Fraction(-m, 2))


def _id_theta23(order, rng):
    a = theta_component(2, 1, Fraction(order))
    b = theta_component(2, 3, Fraction(order))
    yield None, _series_equal(order, a, b)


def _id_theta12(order, rng):
    order = Fraction(order)
    lhs = theta_component(1, 1, order)
    rhs = 2 * dilate(theta_component(2, 1, order / 2), 2)
    yield None, _series_equal(order, lhs, rhs)


def _id_heat(order, rng):
    bad = [(m, r) for m in range(1, 7) for r in range(2 * m)
           if not heat_check(m, r, Fraction(order))]
    yield None, f"failing (m, r): {bad}" if bad else None


def _random_series(rng, vb, nterms=8, grid=8):
    """``nterms`` draws of a term (a + b i) q^(n/grid) below ``vb``, |a| <= 5
    and |b| <= 2; a repeated exponent keeps its first place and last value."""
    pairs = []
    for _ in range(nterms):
        n = rng.randint(0, int(vb * grid) - 1)
        g = gcd(n, grid)
        # i = zeta_24^6
        xs = tuple([(j, v) for j, v in ((0, rng.randint(-5, 5)), (6, rng.randint(-2, 2))) if v])
        pairs.append(((n // g, grid // g), (CYC24, xs, 1)))
    return _build(PuiseuxSeries, pairs, Fraction(vb), None)


def _id_d2_lambda2(order, rng):
    order = Fraction(order)
    xi0, xi2 = xi_pair_hat(order + 2)
    for idx in range(20):
        phi0 = _random_series(rng, order + 1)
        phi2 = _random_series(rng, order + 1)
        phi = lambda2_inv(phi0, phi2, order + 2)
        combo = phi0 * xi0 + phi2 * xi2
        for k in (2, 4, 10):
            yield f"pair {idx}, k={k}", _series_equal(order, d2_hat(phi, k), combo * (8 * k))


def _id_d2_lambdastar(order, rng):
    order = Fraction(order)
    ms = (1, 2, 3, 5)
    for m in ms:
        c = derive_heat_constant(m)
        yield None, f"derived constant {c} != 4m at m={m}" if c != 4 * m else None
    stars = {m: xi_m_star_hat(m, order + 2) for m in ms}
    for idx in range(10):
        phi = _random_series(rng, order + 1)
        for m in ms:
            jac = lambda_star_inv(phi, m, order + 2)
            prod = phi * stars[m]
            for k in (2, 4):
                yield (f"phi {idx}, m={m}, k={k}",
                       _series_equal(order, d2_hat(jac, k), prod * (4 * m * k)))
    return "constant C(m) = 4m confirmed for m in (1, 2, 3, 5)"


def _id_xi_bridge(order, rng):
    order = Fraction(order)
    c = derive_bridge_constant(min(order, 14))
    lhs, rhs = bridge_sides(order)
    failure = _series_equal(order, lhs, rhs * c)
    note = f"resolved constant c = {c}"
    yield None, None if failure is None else f"{failure}; {note}"
    return note


def _id_xistar_dilate(order, rng):
    for m in range(1, 8):
        viadil = m * dilate(xi_hat(Fraction(order) / m + 1), m)
        yield f"m={m}", _series_equal(order, xi_m_star_hat(m, order), viadil)


def _id_lambda2_roundtrip(order, rng):
    order = Fraction(order)
    for idx in range(50):
        phi0 = _random_series(rng, order)
        phi2 = _random_series(rng, order)
        phi = lambda2_inv(phi0, phi2, order + 2)
        label = f"pair {idx}"
        yield label, None if restrict_z0(phi).is_zero() else "restriction does not vanish"
        h = theta_decompose(phi, 2)
        yield label, None if _symmetric(h, 2) else "component symmetry fails"
        pair = lambda2_fwd(h[0], h[2])
        same = pair.comp0.same_below(phi0) and pair.comp2.same_below(phi2)
        yield label, None if same else "round trip differs"


def _id_lambdastar_roundtrip(order, rng):
    order = Fraction(order)
    ms = (1, 2, 3, 5)
    for idx in range(50):
        phi = _random_series(rng, order)
        m = ms[idx % len(ms)]
        jac = lambda_star_inv(phi, m, order + m)
        label = f"phi {idx}, m={m}"
        yield label, None if restrict_z0(jac).is_zero() else "restriction does not vanish"
        comps = theta_decompose(jac, m)
        yield label, None if _symmetric(comps, m) else "component symmetry fails"
        outside = any(not comps[r].is_zero() for r in range(2 * m) if r not in (0, m))
        yield label, "support outside 0, m" if outside else None
        back = lambda_star_fwd(comps[0], comps[m], m)
        yield label, None if back.same_below(phi) else "round trip differs"


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
    return _timed(name, str(order), lambda: _first_failure(IDENTITIES[name](order, rng)))


# ---------------------------------------------------------------------------
# Numeric transformation checks


def _residual(lhs, rhs) -> float:
    """Componentwise difference, scaled down only when the values themselves
    are large (so O(1) comparisons stay absolute while high-weight factors
    do not drown the tolerance in float roundoff)."""
    scale = max(1.0, max(abs(x) for x in lhs), max(abs(x) for x in rhs))
    return max(abs(a - b) for a, b in zip(lhs, rhs)) / scale


def _law(name: str, samples, sides) -> CheckReport:
    """The worst residual over the samples of ``sides(tau, z)``, a pair of
    value lists that the law says are equal."""

    def body():
        worst = 0.0
        for tau, z in samples:
            worst = max(worst, _residual(*sides(tau, z)))
        return worst < NUMERIC_TOL, f"max residual {worst:.3e}"

    return _timed(name, NUMERIC_TOL, body)


def check_theta_transform(m: int, word: GroupWord, samples) -> CheckReport:
    """Residual of the theta transformation law over the samples."""
    Uc = resolve(m, word).to_complex()
    gamma = word.to_matrix()
    return _law(f"theta-transform[m={m}, {word}]", samples,
                lambda tau, z: (theta_vector_num(m, *gamma.act_jacobi(tau, z)),
                                transform_rhs(m, gamma, Uc, tau, z)))


def check_vvcf_transform(word: GroupWord, samples) -> CheckReport:
    """The weight-3 vector law for (xi0, xi2) with the 2-dim representation:
    (xi0, xi2)^t(g tau) = (c tau + d)^3 (rho(g)^{-1})^t (xi0, xi2)^t(tau)."""
    # the matrices are unitary, so (R^{-1})^t is the entrywise conjugate
    Rinvt = [[x.to_complex() for x in row] for row in rho2(word).conj().canonical().rows]
    gamma = word.to_matrix()

    def sides(tau, _z):
        gt = gamma.act(tau)
        den = gamma.c * tau + gamma.d
        vec = (XI0_HAT(tau), XI2_HAT(tau))
        return ((XI0_HAT(gt), XI2_HAT(gt)),
                [den ** 3 * (Rinvt[i][0] * vec[0] + Rinvt[i][1] * vec[1]) for i in range(2)])

    return _law(f"vvcf-transform[{word}]", samples, sides)


def check_weight_char(form: NumericForm, weight, char_value: CycNumber, word: GroupWord,
                      samples) -> CheckReport:
    """Scalar law f(g tau) = char * (c tau + d)^weight f(tau), with
    ``char_value`` the exact character value of the word."""
    gamma = word.to_matrix()
    chi = char_value.to_complex()
    return _law(f"weight-char[{form.name}, w={weight}, {word}]", samples,
                lambda tau, _z: ([form(gamma.act(tau))],
                                 [chi * (gamma.c * tau + gamma.d) ** weight * form(tau)]))


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
    """Every catalogue identity at ``order``, which must exceed 5/8 (the
    least order of :func:`xi_pair_hat`)."""
    order = Fraction(order)
    if order <= Fraction(5, 8):
        raise ValueError(f"--order must exceed 5/8, got {order}")
    caps = {"d2-lambda2": 20, "d2-lambdastar": 20, "lambda2-roundtrip": 10, "lambdastar-roundtrip": 10}
    return [run_identity(name, Fraction(min(order, caps.get(name, order))), seed)
            for name in sorted(IDENTITIES)]


def suite_weil(seed: int = 7, words: int = 200):
    rng = random.Random(seed)

    # the cases of each check are generators, so a failure stops the draws
    def pairs(count, max_len):
        return ((random_gamma0_2_word(rng, max_len), random_gamma0_2_word(rng, max_len))
                for _ in range(count))

    def in_x():
        for idx in range(words):
            w = random_gamma0_2_word(rng, 12)
            yield f"word {idx} ({w})", None if in_X(resolve(2, w)) else "resolved matrix not in X"

    def char_mult():
        for idx, (v, w) in enumerate(pairs(50, 10)):
            V, W = resolve(2, v), resolve(2, w)
            ok = r_char(V @ W) == r_char(V) * r_char(W)
            yield f"pair {idx}", None if ok else "character fails on X"

    def rchar_cocycle():
        # on group elements the character picks up the square-root branch
        # sign: r(U(g g')) = sigma * r(U(g)) r(U(g')) with sigma = +-1
        signs = set()
        for idx, (w1, w2) in enumerate(pairs(30, 6)):
            lhs = r_char(resolve(2, w1 + w2))
            rhs = r_char(resolve(2, w1)) * r_char(resolve(2, w2))
            sign = 1 if lhs == rhs else -1 if lhs == -rhs else None
            signs.add(sign)
            yield f"pair {idx}", None if sign else "ratio is not a sign"
        return "sign -1 realised" if -1 in signs else "all signs +1 in sample"

    def rho2_mult():
        for idx, (w1, w2) in enumerate(pairs(50, 6)):
            ok = rho2(w1 + w2) == rho2(w1) @ rho2(w2)
            yield f"pair {idx}", None if ok else "rho2 not multiplicative"

    def omega_mult():
        for m in (1, 2):
            for idx, (w1, w2) in enumerate(pairs(25, 6)):
                g1, g2 = w1.to_matrix(), w2.to_matrix()
                ok = omega_m(g1 @ g2, m) == omega_m(g1, m) * omega_m(g2, m)
                yield f"m={m}, pair {idx}", None if ok else "omega not multiplicative"

    def blocks():
        for m in (2, 3, 5):
            for _ in range(8):
                w, wm = random_gamma0_m_word(rng, m)
                W = word_product(m, w)
                yield f"m={m}, word {w}", None if block_rows_vanish(m, W) else "zero pattern fails"
                ok = submatrix_proportional(m, W, word_product(1, wm))
                yield f"m={m}, word {w}", None if ok else "submatrix not proportional"

    def cusp_entries():
        for c in range(1, 21):
            e00, e20 = cusp_entry_values(c)
            vanish = (c % 2 == 1 or c % 4 == 2) and (e00.is_zero() or e20.is_zero())
            yield f"c={c}", "entry vanishes" if vanish else None

    def displays():
        # the displayed matrices, -I and ST2S (products in S and T) among them
        for m, letters in ((1, ("S", "T", "-I")), (2, ("S", "T", "-I", "ST2S"))):
            for g in letters:
                ok = u_gen_general(m, g) == u_gen(m, g)
                yield f"m={m}, {g}", None if ok else "general formula differs from the display"
        # word_product reduces letter powers by their periods; below the
        # period it must agree with p copies of the letter multiplied out
        for g in ("ST2S", "-I"):
            letter = product = u_gen_general(2, g)
            for p in range(1, _letter_order(2, g)):
                ok = word_product(2, GroupWord.of((g, p))) == product
                yield f"m=2, {g}^{p}", None if ok else "word product differs from the letter product"
                product = product @ letter

    def resolution_consistency():
        # the exact scalar against the numeric fit at two points
        for _ in range(10):
            w = random_gamma0_2_word(rng, 8)
            U = word_product(2, w)
            _, exact = resolve_scalar(2, w, U)
            for tau, z in ((0.11 + 1.21j, 0.07 + 0.13j), (-0.19 + 0.93j, 0.12 - 0.04j)):
                try:
                    same = fit_scalar(2, w, U, tau, z) == exact
                except SnapFailed as exc:
                    yield None, f"no scalar fits at tau={tau} for {w}: {exc}"
                else:
                    yield None, None if same else f"scalar depends on the sample point for {w}"

    # run in order, so each check draws after the one before
    checks = (
        (f"weil-inX[{words} words]", in_x),
        ("weil-rchar-multiplicative", char_mult),
        ("weil-rchar-cocycle-sign", rchar_cocycle),
        ("weil-rho2-multiplicative[50 pairs]", rho2_mult),
        ("weil-omega-multiplicative[50 pairs]", omega_mult),
        ("weil-block-structure[m=2,3,5]", blocks),
        ("weil-cusp-entries[c<=20]", cusp_entries),
        ("weil-generator-displays", displays),
        ("weil-resolve-point-independence", resolution_consistency),
    )
    return [_timed(name, None, lambda: _first_failure(cases())) for name, cases in checks]


def suite_numeric(seed: int = 7):
    rng = random.Random(seed)
    reports = []

    # the transformation law for the displayed generators
    for m in (1, 2):
        for name in ("S", "T") + (("ST2S", "-I") if m == 2 else ()):
            samples = sample_points(rng, 10)
            reports.append(check_theta_transform(m, GroupWord.of((name, 1)), samples))

    # random words; here and below, _timed calls each closure before the
    # loop moves on, so a closure may read the loop's variables
    for m, draw in ((1, lambda: random_sl2_word(rng, 8)), (2, lambda: random_gamma0_2_word(rng, 12))):
        reports.append(_timed(
            f"theta-transform-random[m={m}, 50 words]", NUMERIC_TOL, lambda: _first_failure(
                (f"word {idx} ({w})", check_theta_transform(m, w, sample_points(rng, 10)).failure)
                for idx, w in enumerate(draw() for _ in range(50)))))

    # the vector-valued law for (xi0, xi2) on 20 level-2 words
    reports.append(_timed("vvcf-xi-transform[20 words]", NUMERIC_TOL, lambda: _first_failure(
        (f"word {idx} ({w})", check_vvcf_transform(w, sample_points(rng, 4)).failure)
        for idx, w in enumerate(random_gamma0_2_word(rng, 10) for _ in range(20)))))

    # scalar laws with exact character values: weight 3 for xi2_star and
    # eta^6, and the trivial weight-(k-4) law of the unit psi built from
    # (xi2, -xi0)
    scalar_laws = (
        ("weight3-omega2-xi2star", xi_star_form(2), 3, lambda g: omega_m(g, 2),
         ("T", "ST2S", "-I T ST2S"), 6),
        ("weight3-omega1-eta6", ETA6, 3, lambda g: omega_m(g, 1),
         ("S", "T", "S T^2", "T^-1 S T"), 6),
        ("trans-psi-trivial", CONST_ONE, 0, lambda g: coerce24(1), ("T", "ST2S"), 4),
    )
    for name, form, weight, char, texts, points in scalar_laws:
        reports.append(_timed(name, NUMERIC_TOL, lambda: _first_failure(
            (text, check_weight_char(form, weight, char(w.to_matrix()), w,
                                    sample_points(rng, points)).failure)
            for text, w in zip(texts, map(GroupWord.parse, texts)))))

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
    "identities": suite_identities,
    "weil": suite_weil,
    "numeric": suite_numeric,
    "all": suite_all,
}
# the suites that take a q-order; the others reject one
ORDER_SUITES = ("identities", "all")
