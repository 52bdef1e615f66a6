"""Command-line front end.

Subcommands compute expansions, apply the operators, run the constructions,
and execute the verification suites.  Output is aligned-text q-expansions or
canonical JSON; identical invocations with the same --seed produce
byte-identical output (verification reports omit timings unless --timings is
given).

Exit codes: 0 success, 1 at least one requested check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .construct import (
    VVPair,
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
from .jacobi import JacobiSeries, d2_hat, restrict_z0, theta_decompose, theta_j
from .numeric import ORACLE_TAU, ORACLE_Z, SnapFailed, fit_scalar
from .series import PuiseuxSeries, _Series, eta_power
from .sl2 import GroupWord, SL2Mat, sl2_word
from .verify import ORDER_SUITES, SUITES
from .weil import resolve_scalar, word_product


# The largest index `weil --m` accepts.  A word product multiplies one q x q
# matrix per prime power q of 2m, each over the least field holding its
# letters, and assembles the 2m x 2m matrix once, so its cost follows the
# largest factor.  The word "S T S T^-1 S" with --resolve takes 0.19 s at
# m = 30 (factors 4, 3, 5) and 0.20 s at m = 16, where 2m = 32 does not
# split but multiplies over Q(zeta_64); the slowest shape under the cap is
# m = 29, whose 29 x 29 factor over Q(zeta_58) takes it to 0.34 s.  Past the
# cap the same word takes 0.26 s at m = 60 but 2.5 s at m = 64, and "S T"
# 2.4 s at m = 100 (whole command, fresh process, median of 5 in the
# reference seconds of bench/refclock.py, 2-vCPU KVM guest, Python 3.11).
# The library functions take any positive m.
MAX_WEIL_INDEX = 30

# The largest index the series commands (decompose, project-0m, lambdastar,
# lambdastar-inv) accept.  decompose builds all 2m components whatever the
# input holds: on the three-term theta_j(1, 0) below q^3 it takes 0.5 s,
# 44 MB peak and writes 2.1 MB of JSON at m = 10^4, and 1.7 s and 95 MB at
# m = 3*10^4; the lambdastar commands test m for squares by trial division,
# O(sqrt m) steps (same guest).  The library functions take any positive m.
MAX_SERIES_INDEX = 10 ** 4

# The largest q-order the CLI accepts: every --order, and the valid_below of
# the input up to which lambda2, lambdastar, psi and project-0m build theta
# and xi series.  At 10^3 verify --suite all takes 1.1 s and the others at
# most 0.25 s (eta^p aside, below); at 10^4 verify --suite identities takes
# 2.9 s and lambda2 on one term 1.7 s (same guest).  The library functions
# take any order.
MAX_ORDER = 10 ** 3
# The largest eta --power.  eta^p is one pass of Miller's recurrence, about
# 0.01 s to order 10^3 at p = 100 or 1000 (same guest); the output grows with
# p, as the coefficients do.
MAX_ETA_POWER = 100

INDEX_BOUNDS = {"weil": MAX_WEIL_INDEX, "decompose": MAX_SERIES_INDEX,
                "project-0m": MAX_SERIES_INDEX, "lambdastar": MAX_SERIES_INDEX,
                "lambdastar-inv": MAX_SERIES_INDEX}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, the
    message without the usage text, and exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse drops a lone "--" value (--order=--) and stores [] without
        # calling the option's type; refuse it as a missing value instead
        if arg_strings == ["--"] and action.nargs is None and action.option_strings:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _complex_pair(text: str) -> complex:
    try:
        re, im = text.split(",")
        return complex(float(re), float(im))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x,y (got {text!r})")


def _gamma(text: str):
    try:
        a, b, c, d = (int(x) for x in text.split(","))
        return SL2Mat(a, b, c, d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad matrix {text!r}: {exc}")


def _dump(obj) -> str:
    """The one JSON text of the CLI, one line with no whitespace.  A series
    writes its own (:meth:`~jfkernel.series._Series.to_json_text`), and so
    does each series of a list (decompose's components) or of a dict (named
    series), whose keys json.dumps quotes; any other value is json.dumps'."""
    if isinstance(obj, _Series):
        return obj.to_json_text()
    if isinstance(obj, list) and obj and isinstance(obj[0], _Series):
        return "[" + ",".join([s.to_json_text() for s in obj]) + "]"
    if isinstance(obj, dict) and obj and isinstance(next(iter(obj.values())), _Series):
        return "{" + ",".join([f"{json.dumps(k)}:{s.to_json_text()}" for k, s in obj.items()]) + "}"
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def _part(data, key):
    """data[key] from an input JSON array or object; a usage error when absent."""
    try:
        return data[key]
    except (IndexError, KeyError, TypeError):
        raise ValueError(f"input JSON has no entry {key!r}") from None


def _read_json(path: str | None):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None


def _read_components(path, m, key):
    """Components 0 and m: by position in decompose output (a JSON array),
    else the entries "h0" and ``key`` of a JSON object."""
    data = _read_json(path)
    keys = (0, m) if isinstance(data, list) else ("h0", key)
    return _check_input(*(PuiseuxSeries.from_json(_part(data, k)) for k in keys))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every run."""
    p = _Parser(
        prog="jfkernel",
        description="Exact theta-decomposition machinery for Jacobi forms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, order=True, text=True, source=True):
        # text/source=False: the subcommand takes no --format/--in
        if order:
            sp.add_argument("--order", type=_fraction, required=True,
                            help="validity bound for q-expansions, e.g. 25 or 49/8")
        if text:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        if source:
            sp.add_argument("--in", dest="input", default=None,
                            help="input JSON file (default: stdin)")

    sp = sub.add_parser("theta", help="index-m theta function")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--at-z0", action="store_true", help="restrict to z = 0")
    add_common(sp, source=False)

    sp = sub.add_parser("eta", help="Dedekind eta (or a power)")
    sp.add_argument("--power", type=int, default=1)
    add_common(sp, source=False)

    sp = sub.add_parser("xi", help="the weight-3 theta Wronskians (divided by 2 pi i)")
    sp.add_argument("--m", type=int, help="index for the dilated form (default 1)")
    sp.add_argument("--pair", action="store_true",
                    help="emit the index-2 pair (xi0, xi2) instead; takes no --m")
    add_common(sp, source=False)

    sp = sub.add_parser("decompose", help="theta components of a two-variable series")
    sp.add_argument("--m", type=int, required=True)
    add_common(sp, order=False)

    sp = sub.add_parser("d0", help="restriction z = 0 of a two-variable series")
    add_common(sp, order=False)

    sp = sub.add_parser("d2", help="normalised heat operator at weight k")
    sp.add_argument("--k", type=_fraction, required=True)
    add_common(sp, order=False)

    sp = sub.add_parser("lambda2", help="component pair divided by theta_{2,1}")
    add_common(sp, order=False, text=False)

    sp = sub.add_parser("lambda2-inv", help="rebuild a kernel element from a pair")
    add_common(sp, text=False)

    sp = sub.add_parser("lambdastar", help="scalar quotient at squarefree index")
    sp.add_argument("--m", type=int, required=True)
    add_common(sp, order=False, text=False)

    sp = sub.add_parser("lambdastar-inv", help="rebuild from a scalar series")
    sp.add_argument("--m", type=int, required=True)
    add_common(sp, text=False)

    sp = sub.add_parser("psi", help="the quotient phi0/xi2 = -phi2/xi0")
    add_common(sp, order=False)

    sp = sub.add_parser("project-0m", help="projection onto the 0 and m components")
    sp.add_argument("--m", type=int, required=True)
    add_common(sp, order=False, text=False)

    sp = sub.add_parser("weil", help="multiplier matrix of a generator word")
    sp.add_argument("--m", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", type=str,
                       help='generator word, e.g. "S T T S" or "ST2S^-1 T^2"')
    group.add_argument("--gamma", type=_gamma,
                       help="integer matrix a,b,c,d (decomposed into S, T)")
    sp.add_argument("--resolve", action="store_true",
                    help="multiply in the exact sign from the square-root branch cocycle")
    sp.add_argument("--tau", type=_complex_pair, default=None,
                    help="oracle point x,y (default 0.11,1.21 when only --z is given): "
                         "also fit the scalar numerically there and fail (exit 1) "
                         "unless it equals the exact one")
    sp.add_argument("--z", type=_complex_pair, default=None,
                    help="z of the oracle point (default 0.07,0.13)")
    sp.add_argument("--format", choices=("text", "json"), default="json")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=sorted(SUITES), default="all")
    sp.add_argument("--order", type=_fraction, default=None,
                    help="q-order of the identities and all suites (default 30)")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte-reproducibility)")
    sp.add_argument("--format", choices=("text", "json"), default="json")

    return p


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return _dispatch(args, out)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _check_bound(name, value, bound):
    """Refuse a value above its bound; every bound of the CLI is checked here."""
    if bound is not None and value is not None and value > bound:
        raise ValueError(f"{name} must be at most {bound}, got {value}")


def _check_input(*series):
    """The input series, refused if one is valid beyond MAX_ORDER."""
    for s in series:
        _check_bound("input valid_below", s.valid_below, MAX_ORDER)
    return series


def _dispatch(args, out) -> int:
    cmd = args.command
    _check_bound("--m", getattr(args, "m", None), INDEX_BOUNDS.get(cmd))
    _check_bound("--order", getattr(args, "order", None), MAX_ORDER)
    _check_bound("--power", getattr(args, "power", None), MAX_ETA_POWER)

    if cmd == "weil":
        if args.word is not None:
            word = GroupWord.parse(args.word)
        else:
            word = sl2_word(args.gamma)
        product = word_product(args.m, word)
        resolved, sigma = resolve_scalar(args.m, word, product)
        if args.tau is not None or args.z is not None:
            tau = ORACLE_TAU if args.tau is None else args.tau
            z = ORACLE_Z if args.z is None else args.z
            try:
                fitted = fit_scalar(args.m, word, product, tau, z)
            except SnapFailed as exc:
                print(f"check failed: numeric fit at tau={tau}, z={z}: {exc}", file=sys.stderr)
                return 1
            if fitted != sigma:
                print(f"check failed: exact scalar {sigma} differs from the numeric fit "
                      f"{fitted} at tau={tau}, z={z}", file=sys.stderr)
                return 1
        U = resolved if args.resolve else product
        if args.format == "json":
            payload = U.to_json()
            if args.resolve:
                payload["snapped_scalar"] = sigma.to_json()
            out.write(_dump(payload) + "\n")
        else:
            for row in U.canonical().rows:
                out.write("  ".join(str(x) for x in row) + "\n")
        return 0

    if cmd == "verify":
        if args.order is not None and args.suite not in ORDER_SUITES:
            raise ValueError(f"--order does not apply to --suite {args.suite}")
        order = {} if args.order is None else {"order": args.order}
        reports = SUITES[args.suite](seed=args.seed, **order)
        ok = all(r.passed for r in reports)
        if args.format == "json":
            out.write(_dump([r.to_json(with_ms=args.timings) for r in reports]) + "\n")
        else:
            for r in reports:
                line = f"{r.status.upper():4s} {r.name}"
                if r.witness:
                    line += f"  [{r.witness}]"
                if args.timings and r.runtime_ms is not None:
                    line += f"  ({r.runtime_ms:.1f} ms)"
                out.write(line + "\n")
        return 0 if ok else 1

    _write(_series_result(args), getattr(args, "format", "json"), out)
    return 0


def _series_result(args):
    """The result of a series-valued command: a series, the list of theta
    components (decompose), or a dict of named series."""
    cmd = args.command
    if cmd == "theta":
        series = theta_j(args.m, args.r, args.order)
        return restrict_z0(series) if args.at_z0 else series
    if cmd == "eta":
        return eta_power(args.power, args.order)
    if cmd == "xi":
        if args.pair:
            if args.m is not None:
                raise ValueError("--m does not apply with --pair")
            return dict(zip(("xi0", "xi2"), xi_pair_hat(args.order)))
        return xi_hat(args.order) if args.m in (None, 1) else xi_m_star_hat(args.m, args.order)
    if cmd == "lambda2":
        pair = lambda2_fwd(*_read_components(args.input, 2, "h2"))
        return {"phi0": pair.comp0, "phi2": pair.comp2}
    if cmd == "lambdastar":
        return lambda_star_fwd(*_read_components(args.input, args.m, "hm"), args.m)
    if cmd == "lambda2-inv":
        pair = VVPair.from_json(_read_json(args.input))
        return lambda2_inv(pair.comp0, pair.comp2, args.order)
    if cmd == "psi":
        pair = VVPair.from_json(_read_json(args.input))
        return psi_form(*_check_input(pair.comp0, pair.comp2))
    if cmd == "lambdastar-inv":
        return lambda_star_inv(PuiseuxSeries.from_json(_read_json(args.input)), args.m, args.order)
    phi = JacobiSeries.from_json(_read_json(args.input))
    if cmd == "decompose":
        return theta_decompose(phi, args.m)
    if cmd == "d0":
        return restrict_z0(phi)
    if cmd == "d2":
        return d2_hat(phi, args.k)
    if cmd == "project-0m":
        return psi_0m(*_check_input(phi), args.m)
    raise AssertionError(f"unhandled command {cmd}")


def _write(result, fmt: str, out):
    """Print a command's result, a series, a list of series (labelled h[r]
    in text) or a dict of named series, as one line of JSON or as text."""
    if fmt == "json":
        out.write(_dump(result) + "\n")
    elif not isinstance(result, (list, dict)):
        out.write(result.to_text() + "\n")
    else:
        named = {f"h[{r}]": s for r, s in enumerate(result)} if isinstance(result, list) else result
        out.write("".join(f"{k}: {s.to_text()}\n" for k, s in named.items()))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
