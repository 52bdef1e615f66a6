"""The benchmark's workloads: seeded job lists, each job checked exactly.

A job runs one user-level task against jfkernel and checks its result with
an identity that takes a different route from the code under test (a
catalogue identity, a round trip, a group law, or byte identity of a CLI
pipeline).  It raises :class:`CheckFailed` when the identity does not hold
and otherwise returns the objects it produced, which the caller hashes into
the output digest.

All inputs come from the workload seed; jfkernel only ever sees them.  The
structure of each job list (orders, indices, word lengths, matrix sizes) is
fixed, and the seed draws only coefficients, exponent positions and letters,
so every seed costs about the same.

Calls go through module attributes (``construct.lambda2_inv``), so a tracer
that rebinds those attributes sees them.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F

import jfkernel.cli as cli
import jfkernel.construct as construct
import jfkernel.jacobi as jacobi
import jfkernel.series as series
import jfkernel.sl2 as sl2
import jfkernel.weil as weil
from jfkernel.cyclotomic import CYC24
from jfkernel.series import PuiseuxSeries
from jfkernel.sl2 import GroupWord, SL2Mat


class CheckFailed(Exception):
    """A job's exact check did not hold."""


@dataclass
class Result:
    """One job's latency in wall and reference milliseconds, failure (None
    when it passed) and outputs."""

    label: str
    ms: float
    ref_ms: float
    error: str | None
    outputs: list


def _check(ok, what):
    if not ok:
        raise CheckFailed(what)


def _same(a, b, bound, what):
    """a and b agree term-exactly below ``bound``, and both know that far."""
    _check(a.valid_below >= bound and b.valid_below >= bound,
           f"{what}: validity bound below {bound}")
    _check(a.same_below(b, bound), f"{what}: first difference at q^{a.first_difference(b, bound)}")


def _run_cli(argv, stdin_text=None):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        buf = io.StringIO()
        code = cli.run(argv, out=buf)
    finally:
        sys.stdin = old
    _check(code == 0, f"jfkernel {' '.join(argv)} exited {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# verify-all: the command every user runs


def verify_argv(seed, tiny):
    if tiny:
        return ["verify", "--suite", "numeric", "--seed", str(seed)]
    return ["verify", "--suite", "all", "--order", "30", "--seed", str(seed)]


def verify_job(seed, tiny):
    """The job of verify-all: one ``jfkernel verify`` command, which must
    exit 0 with every check reporting ``pass``.  Its 35 checks are too few
    and too unequal in size to be jobs of their own for a percentile."""

    def job():
        text = _run_cli(verify_argv(seed, tiny))
        failed = [r["name"] for r in json.loads(text) if r["status"] != "pass"]
        _check(not failed, f"checks failed: {', '.join(failed)}")
        return [text]

    return job


# ---------------------------------------------------------------------------
# kernel-deep: the kernel isomorphisms, series and Q(zeta_24) arithmetic


def _coeff(rng):
    """A nonzero Gaussian integer a + b i, as an element of Q(zeta_24)."""
    while True:
        a, b = rng.randint(-5, 5), rng.randint(-2, 2)
        if a or b:
            return CYC24.element([a, 0, 0, 0, 0, 0, b, 0])  # i = zeta_24^6


def _sparse(rng, valid_below, nterms=8, grid=8):
    slots = rng.sample(range(int(valid_below * grid)), nterms)
    return PuiseuxSeries({F(k, grid): _coeff(rng) for k in slots}, valid_below)


def _dense(rng, valid_below, grid):
    """Every slot k/grid below the bound filled."""
    return PuiseuxSeries({F(k, grid): _coeff(rng) for k in range(int(valid_below * grid))},
                         valid_below)


def _lambda2_job(phi0, phi2, order, k):
    def job():
        phi = construct.lambda2_inv(phi0, phi2, order + 2)
        _check(jacobi.restrict_z0(phi).is_zero(), "restriction of lambda2_inv does not vanish")
        xi0, xi2 = construct.xi_pair_hat(order + 2)
        lhs = jacobi.d2_hat(phi, k)
        rhs = (phi0 * xi0 + phi2 * xi2) * (8 * k)
        _same(lhs, rhs, order, f"d2_hat(lambda2_inv) vs 8k(phi0 xi0 + phi2 xi2), k={k}")
        h = jacobi.theta_decompose(phi, 2)
        back = construct.lambda2_fwd(h[0], h[2])
        _same(back.comp0, phi0, order, "lambda2 round trip, component 0")
        _same(back.comp2, phi2, order - F(1, 2), "lambda2 round trip, component 2")
        return [lhs, back.comp0, back.comp2]

    return job


def _lambda_star_job(phi, m, order, k):
    def job():
        jac = construct.lambda_star_inv(phi, m, order + m)
        _check(jacobi.restrict_z0(jac).is_zero(), f"restriction of lambda_star_inv({m}) does not vanish")
        comps = jacobi.theta_decompose(jac, m)
        _check(all(comps[r].is_zero() for r in range(2 * m) if r not in (0, m)),
               f"lambda_star_inv({m}) has support outside components 0 and {m}")
        back = construct.lambda_star_fwd(comps[0], comps[m], m)
        _same(back, phi, order, f"lambda* round trip at m={m}")
        lhs = jacobi.d2_hat(jac, k)
        rhs = phi * construct.xi_m_star_hat(m, order + m) * (4 * m * k)
        _same(lhs, rhs, order, f"d2_hat(lambda_star_inv) vs 4mk phi xi*_m, m={m}, k={k}")
        return [back, lhs]

    return job


def _eta6_job(order):
    def job():
        e6 = series.eta_power(6, order)
        xi = construct.xi_hat(order)
        _same(e6, xi * -2, order, "eta^6 vs -2 xi_hat")
        return [e6]

    return job


def _div_job(p):
    def job():
        t = jacobi.theta_component(2, 1, p.valid_below + 1)
        q = series.div_exact(p * t, t)
        _same(q, p, p.valid_below, "div_exact(p * theta_{2,1}, theta_{2,1}) vs p")
        return [q]

    return job


def _pipeline_job(pair_text, order):
    def job():
        phi_text = _run_cli(["lambda2-inv", "--order", str(order), "--in", "-"], pair_text)
        comps_text = _run_cli(["decompose", "--m", "2", "--format", "json", "--in", "-"], phi_text)
        back = _run_cli(["lambda2", "--in", "-"], comps_text)
        _check(back == pair_text, "lambda2-inv | decompose | lambda2 is not byte-identical to its input")
        return [phi_text, comps_text]

    return job


def kernel_deep_jobs(seed, tiny):
    rng = random.Random(f"kernel-deep/{seed}")
    ks = (2, 4, 10)
    if tiny:
        l2_sparse, l2_dense, ls_orders, ls_dense, eta_orders, div_order, pipes = \
            (4,), (3,), (4,), (3,), (12,), 10, 1
    else:
        # Twelve jobs of about the same cost (dense lambda2 at order 30 and
        # dense div_exact) come after the four slowest (eta^6 at 200 and 400,
        # dense lambda2 at 40), so the 90th percentile, between the 11th and
        # 12th slowest of 106, falls in the middle of them, not at a gap.
        l2_sparse = (10, 16, 22, 28, 34, 40) * 4
        l2_dense = (10, 20) + (30,) * 8 + (40, 40)
        ls_orders = (10, 25, 40) * 2
        ls_dense = (10, 25, 40)
        eta_orders = (50, 100, 200, 400)
        div_order = 200
        pipes = 24
    jobs = []
    for i, o in enumerate(l2_sparse):
        o = F(o)
        jobs.append((f"lambda2 sparse order {o}",
                     _lambda2_job(_sparse(rng, o), _sparse(rng, o), o, ks[i % 3])))
    for i, o in enumerate(l2_dense):
        o = F(o)
        jobs.append((f"lambda2 dense order {o}",
                     _lambda2_job(_dense(rng, o, 2), _dense(rng, o, 2), o, ks[i % 3])))
    for m in (1, 2, 3, 5):
        for i, o in enumerate(ls_orders):
            jobs.append((f"lambda* m={m} sparse order {o}",
                         _lambda_star_job(_sparse(rng, F(o)), m, F(o), ks[i % 2])))
        for i, o in enumerate(ls_dense):
            jobs.append((f"lambda* m={m} dense order {o}",
                         _lambda_star_job(_dense(rng, F(o), 1), m, F(o), ks[i % 2])))
    for o in eta_orders:
        jobs.append((f"eta^6 order {o}", _eta6_job(F(o))))
    for kind in ("dense", "dense", "sparse") * 2:
        o = F(div_order)
        p = _dense(rng, o, 1) if kind == "dense" else _sparse(rng, o, nterms=40)
        jobs.append((f"div_exact {kind} order {div_order}", _div_job(p)))
    order = 12
    for _ in range(pipes):
        # lambda2 gives back component 2 half a unit short of component 0,
        # so inputs with those bounds round-trip to the same bytes.
        pair = {"phi0": _sparse(rng, F(order - 2)).to_json(),
                "phi2": _sparse(rng, F(order - 2) - F(1, 2)).to_json()}
        text = json.dumps(pair, separators=(",", ":")) + "\n"
        jobs.append((f"cli pipeline order {order}", _pipeline_job(text, order)))
    return jobs


# ---------------------------------------------------------------------------
# weil-deep: multiplier matrices, scalar resolution and dense Q(zeta_120)


def _word(letters) -> GroupWord:
    return GroupWord(tuple(letters))


def _inverse(w: GroupWord) -> GroupWord:
    return _word((name, -p) for name, p in reversed(w.letters))


def _sl2_letters(rng, length):
    return _word(("S", 1) if i % 2 else ("T", rng.choice((-2, -1, 1, 2))) for i in range(length))


def _gamma0_2_word(rng, length, entry_cap=300):
    """A word of the given length over {-I, T, ST2S}, entries at most the cap."""
    while True:
        w = _word((rng.choice(("-I", "T", "ST2S")), rng.choice((-2, -1, 1, 2)))
                  for _ in range(length))
        if w.to_matrix().max_entry() <= entry_cap:
            return w


def _level_m_words(rng, m, blocks=3):
    """A level-m word alternating T^b and S T^(m a) S, and its dilation with
    T^(b m) and S T^a S, which realises gamma -> gamma_m letter by letter."""
    word, dilated = [], []
    for i in range(blocks):
        if i % 2 == 0:
            b = rng.choice((-3, -2, -1, 1, 2, 3))
            word.append(("T", b))
            dilated.append(("T", b * m))
        else:
            a = rng.choice((-2, -1, 1, 2))
            word += [("S", 1), ("T", m * a), ("S", 1)]
            dilated += [("S", 1), ("T", a), ("S", 1)]
    return _word(word), _word(dilated)


def _gamma_with_c(rng, c):
    """An SL2(Z) matrix with lower row (c, d), d odd, coprime and below c/10,
    so that the image point's height, and the cost, is set by c alone."""
    while True:
        d = 2 * rng.randrange(max(c // 20, 1)) + 1
        if math.gcd(c, d) == 1:
            a = pow(d, -1, c) if c > 1 else 1
            return SL2Mat(a, (a * d - 1) // c, c, d)


def _identity_job(m, w):
    def job():
        W = weil.word_product(m, w)
        back = W @ weil.word_product(m, _inverse(w))
        _check(back == weil.UMatrix.identity(back.field, 2 * m), f"U_{m}(w) U_{m}(w^-1) != 1")
        return [W]

    return job


def _in_x_job(w):
    def job():
        U = weil.resolve(2, w)
        _check(weil.in_X(U), f"resolved matrix of {w} is not in X")
        return [U]

    return job


def _rho2_job(w1, w2):
    def job():
        lhs = weil.rho2(w1 + w2)
        _check(lhs == weil.rho2(w1) @ weil.rho2(w2), "rho2 is not multiplicative")
        return [lhs]

    return job


def _level_m_job(m, w, wm):
    def job():
        W = weil.word_product(m, w)
        W1 = weil.word_product(1, wm)
        _check(weil.block_rows_vanish(m, W), f"level-{m} rows do not vanish outside 0, m")
        _check(weil.submatrix_proportional(m, W, W1), f"level-{m} submatrix not proportional")
        return [W, W1]

    return job


def _resolve_job(gamma):
    def job():
        w = sl2.sl2_word(gamma)
        U, scalar = weil.resolve_scalar(2, w)
        _check(weil.in_X(U), f"resolved matrix of {gamma} is not in X")
        return [U, scalar]

    return job


def weil_deep_jobs(seed, tiny):
    rng = random.Random(f"weil-deep/{seed}")
    if tiny:
        n1, n_x, n_rho, level_counts, cs = 1, 1, 1, {2: 1, 3: 1}, (100, 1000)
    else:
        # Sorted by cost, the 28 level-2 words and 14 level-2 products (about
        # 5 ms) come first, then the 36 index-1 words (about 6.5 ms), which
        # hold the median of 130; the 90th percentile falls among the
        # sixteen level-5 products (about 110 ms), below the four resolves
        # with c > 10^4.
        n1, n_x, n_rho, level_counts = 36, 28, 14, {2: 14, 3: 10, 5: 16}
        # 12 values of c, log-spaced over 10^2 .. 10^5 (even: level 2)
        cs = tuple(2 * round(10 ** (2 + 3 * i / 11) / 2) for i in range(12))
    jobs = []
    for _ in range(n1):
        w = _sl2_letters(rng, 10)
        jobs.append((f"U_1 word of {len(w)} letters", _identity_job(1, w)))
    for _ in range(n_x):
        w = _gamma0_2_word(rng, 12)
        jobs.append(("resolve level-2 word, in X", _in_x_job(w)))
    for _ in range(n_rho):
        w1, w2 = _gamma0_2_word(rng, 6), _gamma0_2_word(rng, 6)
        jobs.append(("rho2 product", _rho2_job(w1, w2)))
    for m, count in level_counts.items():
        for _ in range(count):
            w, wm = _level_m_words(rng, m)
            jobs.append((f"level-{m} word product", _level_m_job(m, w, wm)))
    for c in cs:
        jobs.append((f"resolve_scalar c={c}", _resolve_job(_gamma_with_c(rng, c))))
    return jobs


# ---------------------------------------------------------------------------


def build(workload, seed, tiny=False):
    """The job list of a workload, inputs generated from ``seed``."""
    if workload == "verify-all":
        return [(f"jfkernel {' '.join(verify_argv(seed, tiny))}", verify_job(seed, tiny))]
    if workload == "kernel-deep":
        return kernel_deep_jobs(seed, tiny)
    if workload == "weil-deep":
        return weil_deep_jobs(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def run_jobs(jobs, on_job=None, clock=None):
    """Run the jobs in order; returns their results, the total wall time and
    the jobs' summed time in reference seconds.

    ``on_job(i)`` is called before and ``on_job(None)`` after each job, for
    a tracer to open and close the job's root span.  ``clock``, a
    :class:`refclock.RefClock`, samples the machine's speed during the jobs
    and gives their times in reference seconds; its sampling time is left
    out of every time.  Without it, reference times equal wall times.
    """
    marks, outcomes = [], []
    now = clock.now if clock else lambda: (time.perf_counter(), 0.0)
    if clock:
        clock.start()
    start = now()
    for i, (label, fn) in enumerate(jobs):
        if on_job:
            on_job(i)
        m0 = now()
        try:
            outputs, error = fn(), None
        except Exception as exc:  # any failure of a job is counted, not fatal
            outputs, error = [], f"{type(exc).__name__}: {exc}"
        marks.append((m0, now()))
        if on_job:
            on_job(None)
        outcomes.append((label, error, outputs))
    end = now()
    if clock:
        clock.stop()
    results = []
    for (m0, m1), (label, error, outputs) in zip(marks, outcomes):
        wall, ref = clock.ref_seconds(m0, m1) if clock else (m1[0] - m0[0],) * 2
        results.append(Result(label, 1e3 * wall, 1e3 * ref, error, outputs))
    wall = (end[0] - start[0]) - (end[1] - start[1])
    return results, wall, sum(r.ref_ms for r in results) / 1e3
