import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jfkernel.cli import run
from jfkernel.cyclotomic import imag_unit
from jfkernel.jacobi import theta_j
from jfkernel.series import PuiseuxSeries


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_theta_text_output():
    code, out = invoke(["theta", "--m", "2", "--r", "1", "--order", "5", "--at-z0"])
    assert code == 0
    assert out == "q^(1/8) + q^(9/8) + q^(25/8)\n"


def test_theta_json_reparses():
    code, out = invoke(["theta", "--m", "1", "--r", "0", "--order", "6", "--format", "json"])
    assert code == 0
    from jfkernel.jacobi import JacobiSeries, theta_j

    assert JacobiSeries.from_json(json.loads(out)) == theta_j(1, 0, 6)


def test_theta_terms_at_negative_n():
    code, out = invoke(["theta", "--m", "5", "--r", "9", "--order", "4", "--at-z0"])
    assert code == 0
    assert out == "q^(1/20)\n"


def test_eta_output():
    code, out = invoke(["eta", "--order", "8"])
    assert code == 0
    assert out.startswith("q^(1/24) - q^(25/24) - q^(49/24)")


def test_xi_commands():
    code, out = invoke(["xi", "--order", "3"])
    assert code == 0 and out.startswith("-1/2*q^(1/4) + 3*q^(5/4)")
    code, out = invoke(["xi", "--m", "2", "--order", "3"])
    assert code == 0 and out.startswith("-q^(1/2)")
    code, out = invoke(["xi", "--pair", "--order", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"xi0", "xi2"}


@pytest.mark.parametrize("m", ["1", "3"])
def test_xi_pair_with_an_index_exit_2_with_one_line(m, capsys):
    code, out = invoke(["xi", "--pair", "--m", m, "--order", "2"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: --m does not apply with --pair\n"


def _readme_examples():
    """(argv, shown output) for each `jfkernel ...` line of the README's CLI
    block that reads no input file, but `verify`, whose bytes are pinned by
    sha256 below.  Comment lines right under a command show its output."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()
    examples = []
    for i, line in enumerate(lines):
        argv = shlex.split(line, comments=True)
        if argv[:1] != ["jfkernel"] or argv[1] == "verify" or "--in" in argv:
            continue
        shown = []
        for below in lines[i + 1:]:
            if not below.startswith("# "):
                break
            shown.append(below[2:] + "\n")
        examples.append((argv[1:], "".join(shown) or None))
    return examples


README_EXAMPLES = _readme_examples()


def test_the_readme_shows_seven_examples_with_no_input_and_the_theta_output():
    assert len(README_EXAMPLES) == 7
    assert [shown for argv, shown in README_EXAMPLES if argv[0] == "theta"] == \
        ["q^(1/8) + q^(9/8) + q^(25/8)\n"]


@pytest.mark.parametrize("argv, shown", README_EXAMPLES, ids=[" ".join(a) for a, _s in README_EXAMPLES])
def test_readme_cli_example_runs(argv, shown):
    code, out = invoke(argv)
    assert code == 0
    if shown is not None:
        assert out == shown


def test_rational_order_parsing():
    code, out = invoke(["theta", "--m", "2", "--r", "1", "--order", "49/8", "--at-z0"])
    assert code == 0
    assert out == "q^(1/8) + q^(9/8) + q^(25/8)\n"


def test_usage_error_exit_2():
    code, _ = invoke(["theta", "--m", "2"])  # missing -r and --order
    assert code == 2
    code, _ = invoke(["theta", "--m", "2", "--r", "1", "--order", "x/y"])
    assert code == 2
    code, _ = invoke(["nonsense"])
    assert code == 2


def test_one_parser_serves_every_run(capsys):
    # theta (text by default), weil (json by default), a malformed call and
    # theta again, in one process: each gives what a fresh parser gives
    from jfkernel.cli import build_parser

    calls = [
        ["theta", "--m", "2", "--r", "1", "--order", "5", "--at-z0"],
        ["weil", "--m", "2", "--word", "S T^-3 ST2S"],
        ["weil", "--m", "2", "--format", "xml", "--word", "S"],
        ["theta", "--m", "1", "--r", "1", "--order", "4"],
    ]

    def result(argv):
        code, out = invoke(argv)
        return code, out, capsys.readouterr().err

    build_parser.cache_clear()
    shared = [result(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(result(argv))
    assert shared == fresh
    assert [code for code, _out, _err in shared] == [0, 0, 2, 0]
    assert shared[0][1] == "q^(1/8) + q^(9/8) + q^(25/8)\n"
    assert json.loads(shared[1][1])["size"] == 4
    assert shared[2][1] == "" and "invalid choice: 'xml'" in shared[2][2]


def test_weil_resolved_json():
    code, out = invoke([
        "weil", "--m", "2", "--word", "S T T S", "--resolve",
        "--tau", "0.1,1.2", "--z", "0.05,0.1",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 4 and obj["resolved"] is True
    assert obj["snapped_scalar"] == {"num": [1, 0, 0, 0, 0, 0, 0, 0], "den": 1}
    # S T^2 S resolves to the displayed level-2 generator matrix
    from jfkernel.weil import u_gen

    disp = u_gen(2, "ST2S")
    assert obj["entries"] == [c.to_json() for row in disp.rows for c in row]


def test_weil_oracle_failure_exit_1(monkeypatch, capsys):
    import jfkernel.weil as weil

    argv = ["weil", "--m", "1", "--word", "S T^-1 S^2", "--resolve", "--z", "0.05,0.1"]
    assert invoke(argv)[0] == 0
    exact = weil.word_scalar
    monkeypatch.setattr(weil, "word_scalar", lambda w: -exact(w))
    code, out = invoke(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("check failed: exact scalar") and err.count("\n") == 1
    monkeypatch.setattr(weil, "word_scalar", exact)
    import jfkernel.cli as cli
    from jfkernel.numeric import SnapFailed

    def no_snap(*args):
        raise SnapFailed("no root of unity")

    monkeypatch.setattr(cli, "fit_scalar", no_snap)
    assert invoke(argv)[0] == 1
    assert capsys.readouterr().err.startswith("check failed: numeric fit")


@pytest.mark.parametrize("m", ["0", "-1"])
def test_weil_non_positive_index_exit_2(m, capsys):
    code, out = invoke(["weil", "--m", m, "--word", "S"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: index must be a positive integer\n"


@pytest.mark.parametrize("m", ["31", "100", "10000000000"])
def test_weil_index_above_the_bound_exit_2_with_one_line(m, capsys):
    from jfkernel.cli import MAX_WEIL_INDEX

    assert MAX_WEIL_INDEX == 30
    code, out = invoke(["weil", "--m", m, "--word", "S T", "--resolve"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: --m must be at most 30, got {m}\n"


def test_weil_huge_letter_power_agrees_with_the_oracle(capsys):
    # S^(10^22 + 1) is S as a matrix; the exact sign takes O(1) per letter
    code, out = invoke(["weil", "--m", "2", "--word", "S^10000000000000000000001",
                        "--resolve", "--tau", "0.11,1.21"])
    assert code == 0 and capsys.readouterr().err == ""
    assert out == invoke(["weil", "--m", "2", "--word", "S", "--resolve"])[1]


def test_weil_oracle_refuses_a_huge_lower_left_entry(capsys):
    code, out = invoke(["weil", "--m", "2", "--word", "ST2S^-1000000000003",
                        "--resolve", "--tau", "0.11,1.21"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: numeric fit refused: |c tau + d| = 2.43e+12") and err.count("\n") == 1


def test_weil_gamma_flag():
    code, out = invoke(["weil", "--m", "1", "--gamma", "1,1,0,1", "--resolve"])
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 2


def test_pipeline_round_trip(tmp_path):
    phi0 = PuiseuxSeries({F(0): 1, F(1, 2): 2, F(3): -1 + imag_unit()}, F(10))
    phi2 = PuiseuxSeries({F(0): 3, F(2): -2}, F(19, 2))
    pair = {"phi0": phi0.to_json(), "phi2": phi2.to_json()}
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(pair, separators=(",", ":")) + "\n")

    code, phi_json = invoke(["lambda2-inv", "--order", "12", "--in", str(src)])
    assert code == 0
    mid = tmp_path / "phi.json"
    mid.write_text(phi_json)
    code, comps_json = invoke(["decompose", "--m", "2", "--in", str(mid), "--format", "json"])
    assert code == 0
    comp = tmp_path / "comps.json"
    comp.write_text(comps_json)
    code, pair2 = invoke(["lambda2", "--in", str(comp)])
    assert code == 0
    assert pair2 == src.read_text()


def test_d0_and_d2(tmp_path):
    code, phi_json = invoke(["theta", "--m", "1", "--r", "0", "--order", "8", "--format", "json"])
    src = tmp_path / "t.json"
    src.write_text(phi_json)
    code, out = invoke(["d0", "--in", str(src)])
    assert code == 0
    assert out.startswith("1 + 2*q + 2*q^4")
    code, out = invoke(["d2", "--k", "2", "--in", str(src), "--format", "text"])
    assert code == 0
    # each term q^{n^2} zeta^{2n} maps to (2(2n)^2 - 4 n^2) q^{n^2} = 4n^2 q^{n^2}
    assert out.startswith("8*q + 32*q^4")


def test_decompose_prints_a_sixth_root_of_unity_as_coordinates_not_as_i(tmp_path):
    # zeta_6 is not i: Q(zeta_6) holds no i, though its coordinate 1 = 6//4
    src = tmp_path / "z6.json"
    src.write_text('{"valid_below":"3","terms":[{"n":"1","r":0,'
                   '"coeff":{"num":[0,1],"den":1,"order":6}}],"meta":null}')
    code, out = invoke(["decompose", "--m", "1", "--in", str(src)])
    assert (code, out) == (0, "h[0]: (cyc6[0,1])*q\nh[1]: 0\n")
    code, out = invoke(["decompose", "--m", "1", "--in", str(src), "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["terms"] == [{"exp": "1", "coeff": {"num": [0, 1], "den": 1, "order": 6}}]


def test_lambdastar_commands(tmp_path):
    one = PuiseuxSeries.one(8)
    src = tmp_path / "one.json"
    src.write_text(json.dumps(one.to_json()))
    code, jac = invoke(["lambdastar-inv", "--m", "2", "--order", "10", "--in", str(src)])
    assert code == 0
    mid = tmp_path / "jac.json"
    mid.write_text(jac)
    code, comps = invoke(["decompose", "--m", "2", "--in", str(mid), "--format", "json"])
    assert code == 0
    cfile = tmp_path / "comps.json"
    cfile.write_text(comps)
    code, back = invoke(["lambdastar", "--m", "2", "--in", str(cfile)])
    assert code == 0
    series = PuiseuxSeries.from_json(json.loads(back))
    assert series.same_below(one, min(series.valid_below, 6))


def test_psi_command(tmp_path):
    from jfkernel.construct import xi_pair_hat

    xi0, xi2 = xi_pair_hat(10)
    src = tmp_path / "pair.json"
    src.write_text(json.dumps({"phi0": xi2.to_json(), "phi2": (-xi0).to_json()}))
    code, out = invoke(["psi", "--in", str(src)])
    assert code == 0
    assert out.strip() == "1"


def test_project_0m(tmp_path):
    code, phi_json = invoke(["theta", "--m", "2", "--r", "1", "--order", "8", "--format", "json"])
    src = tmp_path / "t.json"
    src.write_text(phi_json)
    code, out = invoke(["project-0m", "--m", "2", "--in", str(src)])
    assert code == 0
    from jfkernel.jacobi import JacobiSeries

    assert JacobiSeries.from_json(json.loads(out)).is_zero()


def test_verify_identities_suite_and_exit_code():
    code, out = invoke(["verify", "--suite", "identities", "--order", "10", "--seed", "7"])
    assert code == 0
    reports = json.loads(out)
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["ms"] is None for r in reports)


@pytest.mark.parametrize("order", ["0", "-1", "1/16"])
@pytest.mark.parametrize("suite", ["identities", "all"])
def test_verify_order_below_the_bound_exit_2_with_one_line(suite, order, capsys):
    code, out = invoke(["verify", "--suite", suite, "--order", order])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: --order must exceed 5/8, got {F(order)}\n"


@pytest.mark.parametrize("suite", ["weil", "numeric"])
def test_verify_order_on_a_suite_without_one_exit_2_with_one_line(suite, capsys):
    code, out = invoke(["verify", "--suite", suite, "--order", "30"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: --order does not apply to --suite {suite}\n"


@pytest.mark.parametrize("order", ["3/4", "1"])
def test_verify_identities_at_low_order(order):
    code, out = invoke(["verify", "--suite", "identities", "--order", order])
    assert code == 0
    assert all(r["status"] == "pass" for r in json.loads(out))


def test_verify_text_format():
    code, out = invoke(["verify", "--suite", "identities", "--order", "8",
                        "--seed", "7", "--format", "text"])
    assert code == 0
    assert out.startswith("PASS")


def test_verify_deterministic_bytes():
    args = ["verify", "--suite", "identities", "--order", "10", "--seed", "7"]
    _, out1 = invoke(args)
    _, out2 = invoke(args)
    assert out1 == out2


def test_installed_entry_point_runs():
    for module in ("jfkernel.cli", "jfkernel"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "theta", "--m", "1", "--r", "1",
             "--order", "3", "--at-z0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, module
        assert proc.stdout == "2*q^(1/4) + 2*q^(9/4)\n"


# -- malformed JSON input ----------------------------------------------------------

_TERM = '{"n":"0","r":%s,"coeff":{"num":%s,"den":1}}'
MALFORMED = {
    "terms not a list": ("d0", '{"terms": 5, "valid_below": "3"}'),
    "num longer than the degree": (
        "d0", '{"terms":[%s],"valid_below":"3"}' % (_TERM % ("0", [0] * 24 + [1]))),
    "num entry not an integer": ("d0", '{"terms":[%s],"valid_below":"3"}' % (_TERM % ("0", '["a"]'))),
    "fractional r": ("d0", '{"terms":[%s],"valid_below":"3"}' % (_TERM % ("0.5", "[1]"))),
    "zero denominator in an exponent": (
        "d0", '{"terms":[{"n":"1/0","r":0,"coeff":{"num":[1],"den":1}}],"valid_below":"3"}'),
    "zero coefficient denominator": (
        "d0", '{"terms":[{"n":"0","r":0,"coeff":{"num":[1],"den":0}}],"valid_below":"3"}'),
    "pair input not an object": ("lambda2", "5"),
    "missing component": ("lambda2", "[1]"),
    "nested too deeply": ("d0", "[" * 100000 + "]" * 100000),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exit_2_with_one_line(case, monkeypatch, capsys):
    command, text = MALFORMED[case]
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = invoke([command, "--in", "-"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# -- argument refusals ------------------------------------------------------------

REFUSALS = {
    "xi --order 1/4": "error: order must exceed 1/4",
    "xi --m 0 --order 3": "error: index must be a positive integer",
    "xi --pair --order 5/8": "error: order must exceed 5/8",
    "theta --m 0 --r 0 --order 3": "error: index must be a positive integer",
    "decompose --m 0": "error: index must be a positive integer",
    "eta --power 0 --order 3": "error: exponent must be a positive integer",
    "weil --m 1 --word S --tau 1": "jfkernel weil: error: argument --tau: expected x,y (got '1')",
    "weil --m 1 --gamma 1,2,3": "jfkernel weil: error: argument --gamma: bad matrix '1,2,3': "
                                "not enough values to unpack (expected 4, got 3)",
    "weil --m 1 --gamma 1,1,1,1": "jfkernel weil: error: argument --gamma: bad matrix "
                                  "'1,1,1,1': determinant is not 1: [[1,1],[1,1]]",
}


@pytest.mark.parametrize("argv", sorted(REFUSALS))
def test_invalid_arguments_exit_2_with_one_line(argv, monkeypatch, capsys):
    # decompose reads a valid series, so only its index is at fault
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(theta_j(2, 1, 3).to_json())))
    code, out = invoke(shlex.split(argv))
    assert (code, out, capsys.readouterr().err) == (2, "", REFUSALS[argv] + "\n")


def test_verify_text_timings_end_each_line():
    argv = ["verify", "--suite", "identities", "--order", "4", "--format", "text"]
    code, plain = invoke(argv)
    timed_code, timed = invoke(argv + ["--timings"])
    assert code == timed_code == 0
    lines = timed.splitlines()
    assert lines and all(re.search(r"  \([0-9]+\.[0-9] ms\)$", line) for line in lines), timed
    assert [re.sub(r"  \(.* ms\)$", "", line) for line in lines] == plain.splitlines()


_KEYS = ["terms", "valid_below", "meta", "exp", "coeff", "n", "r", "num", "den", "order",
         "weight", "index", "level", "character", "kind", "source"]
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
           | st.text(max_size=6) | st.sampled_from(["1/2", "-7/24", "3", "1/0", "1e5", " 2"]))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=24,
)
# near-valid shapes, so that the deeper checks are reached as well
_SMALL = st.integers(-3, 3)
_RAT = st.sampled_from(["0", "1/2", "-7/24", "3"]) | _SMALL
_COEFF = st.fixed_dictionaries(
    {"num": st.lists(_SMALL, max_size=9) | st.lists(_LEAVES, max_size=3), "den": _SMALL | _LEAVES},
    optional={"order": st.sampled_from([24, 8, 40]) | _LEAVES})
_SERIES = st.fixed_dictionaries(
    {"terms": st.lists(st.fixed_dictionaries(
        {"exp": _RAT | _LEAVES, "n": _RAT | _LEAVES, "r": _SMALL | _LEAVES, "coeff": _COEFF}),
        max_size=4),
     "valid_below": _RAT | _LEAVES},
    optional={"meta": st.dictionaries(st.sampled_from(_KEYS[10:]), _RAT | _LEAVES)})


@settings(max_examples=300, deadline=None)
@given(_JSON | _COEFF | _SERIES)
def test_decoders_accept_or_raise_value_error(obj):
    from jfkernel.cyclotomic import CycNumber
    from jfkernel.jacobi import JacobiSeries
    from jfkernel.series import FormMeta

    for decode in (CycNumber.from_json, PuiseuxSeries.from_json, JacobiSeries.from_json,
                   FormMeta.from_json):
        try:
            decode(obj)
        except ValueError:
            pass


@pytest.mark.parametrize("argv", [["theta", "--m", "1", "--r", "0", "--order", "2"],
                                  ["eta", "--order", "2"], ["xi", "--order", "2"]])
def test_generating_subcommands_take_no_input_flag(argv, capsys):
    code, out = invoke([*argv, "--in", "/nonexistent.json"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --in /nonexistent.json" in capsys.readouterr().err


JSON_ONLY = {
    "lambda2": [],
    "lambda2-inv": ["--order", "12"],
    "lambdastar": ["--m", "2"],
    "lambdastar-inv": ["--m", "2", "--order", "10"],
    "project-0m": ["--m", "2"],
}


@pytest.mark.parametrize("command", sorted(JSON_ONLY))
def test_json_only_subcommands_take_no_format_flag(command, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out = invoke([command, *JSON_ONLY[command], "--format", "text"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --format text" in capsys.readouterr().err


def test_pipeline_outputs_keep_their_bytes(tmp_path):
    import hashlib

    from jfkernel.construct import xi_pair_hat
    from jfkernel.jacobi import theta_j

    def run_on(argv, text):
        src = tmp_path / "in.json"
        src.write_text(text)
        code, out = invoke([*argv, "--in", str(src)])
        assert code == 0, argv
        return out

    phi0 = PuiseuxSeries({F(0): 1, F(1, 2): 2, F(3): -1 + imag_unit()}, F(10))
    phi2 = PuiseuxSeries({F(0): 3, F(2): -2}, F(19, 2))
    pair = json.dumps({"phi0": phi0.to_json(), "phi2": phi2.to_json()})
    phi = run_on(["lambda2-inv", "--order", "12"], pair)
    comps = run_on(["decompose", "--m", "2", "--format", "json"], phi)
    h = json.loads(comps)
    star = run_on(["lambdastar-inv", "--m", "2", "--order", "10"],
                  json.dumps((phi0 + phi2).to_json()))
    star_comps = run_on(["decompose", "--m", "2", "--format", "json"], star)
    hs = json.loads(star_comps)
    xi0, xi2 = xi_pair_hat(10)
    weighted = phi0.to_json()
    weighted["meta"] = {"weight": "2", "level": 3}
    outputs = {
        "lambda2-inv": phi,
        "lambda2": run_on(["lambda2"], comps),
        "lambda2 object": run_on(["lambda2"], json.dumps({"h0": h[0], "h2": h[2]})),
        "lambdastar-inv": star,
        "lambdastar": run_on(["lambdastar", "--m", "2"], star_comps),
        "lambdastar object": run_on(["lambdastar", "--m", "2"],
                                    json.dumps({"h0": hs[0], "hm": hs[2]})),
        "project-0m": run_on(["project-0m", "--m", "2"], phi),
        "psi": run_on(["psi", "--format", "json"],
                      json.dumps({"phi0": xi2.to_json(), "phi2": (-xi0).to_json()})),
        "lambda2-inv weight": run_on(["lambda2-inv", "--order", "12"],
                                     json.dumps({"phi0": weighted, "phi2": phi2.to_json()})),
        "lambdastar-inv weight": run_on(["lambdastar-inv", "--m", "3", "--order", "10"],
                                        json.dumps(weighted)),
    }
    for m in (1, 3, 5, 6):
        outputs[f"lambdastar-inv m={m}"] = run_on(
            ["lambdastar-inv", "--m", str(m), "--order", "10"], json.dumps((phi0 + phi2).to_json()))
        # a theta sum with every component nonzero, added term by term
        theta_sum = PuiseuxSeries({F(1): imag_unit()}, F(9)) * theta_j(m, 0, 12)
        for r in range(1, 2 * m):
            comp = PuiseuxSeries({F(0): r + 1, F(r, 3): 2 - r}, F(9))
            theta_sum = theta_sum + comp * theta_j(m, r, 12)
        outputs[f"project-0m m={m}"] = run_on(["project-0m", "--m", str(m)],
                                              json.dumps(theta_sum.to_json()))
    # pinned output bytes, as sha256 prefixes: a change of output must
    # update them on purpose
    digests = {k: hashlib.sha256(v.encode()).hexdigest()[:16] for k, v in outputs.items()}
    assert digests == {
        "lambda2-inv": "66329242db8d7a86",
        "lambda2": "c8b33751cf13143a",
        "lambda2 object": "c8b33751cf13143a",
        "lambdastar-inv": "ba831baf2a782104",
        "lambdastar": "607e7a530bc17e63",
        "lambdastar object": "607e7a530bc17e63",
        "project-0m": "88d057af54921faf",
        "psi": "9af44551a338c19c",
        "lambda2-inv weight": "670372911ca773cf",
        "lambdastar-inv weight": "213bc67d6b976dec",
        "lambdastar-inv m=1": "cba4edf0b4dde302",
        "lambdastar-inv m=3": "c5534e53c17c99ac",
        "lambdastar-inv m=5": "47d000ddc769ebc1",
        "lambdastar-inv m=6": "3311ae224bcc142e",
        "project-0m m=1": "640e014c1e79b0b9",
        "project-0m m=3": "d46671388123d488",
        "project-0m m=5": "3cbe8790dc053700",
        "project-0m m=6": "c39c81f907476bd2",
    }


# sha256 prefixes of `weil --m M --word=W` outputs, in the order json, text,
# json --resolve, text --resolve: a multi-letter word at each index, one-letter
# words, zero-power words (T^4 at m = 1 and S^8 are the identity matrix but
# unresolved) and the empty product (the identity, resolved)
WEIL_DIGESTS = {
    (1, "S T^-1 S^2"): ("8577914bbc2fb534", "09b8cdd771bba1a1", "df650d80bc5e1958", "7e45677103eed6a5"),
    (1, "S"): ("ebd8ec56cbce527a", "48a8dad98926731c", "730275a3cde2fa74", "48a8dad98926731c"),
    (1, "T^4"): ("f6e676f880361cba", "6bce498ec712252f", "5c34bbec50c88e09", "6bce498ec712252f"),
    (1, "S^8"): ("f6e676f880361cba", "6bce498ec712252f", "5c34bbec50c88e09", "6bce498ec712252f"),
    (1, ""): ("a8bbb3ed36bcbcc1", "6bce498ec712252f", "5c34bbec50c88e09", "6bce498ec712252f"),
    (2, "ST2S^-1 T^2 S"): ("a15ac85c0b800595", "91957821854411ab", "7bd8d460b60bc184", "91957821854411ab"),
    (2, "-I"): ("acd02cd42c1690ae", "c2e0b0e0f8cc27a1", "e22b5711d288d244", "c2e0b0e0f8cc27a1"),
    (3, "S T^2 S^-1"): ("d2acd81ec5f33fee", "405d0e3d18c293d2", "e1e0f2f93755ff26", "405d0e3d18c293d2"),
    (5, "S T^3 S"): ("65960208a53ac73b", "33b8d2bd6fd6b455", "161ae1a3976dc161", "33b8d2bd6fd6b455"),
    (6, "S T S"): ("70ecfcf8325644d9", "d480371035935211", "7b858a938af1637d", "d480371035935211"),
    (10, "S T^-1 S"): ("853b9b1b12f259c7", "f5c525b83a250473", "eb257852cba6e4b8", "2f8626ea02092eba"),
    (30, "S T"): ("56f6e07d35488b56", "ca07fa7e90d1920c", "2cf95949b3a94454", "ca07fa7e90d1920c"),
}


@pytest.mark.parametrize("m, word", sorted(WEIL_DIGESTS))
def test_weil_outputs_keep_their_bytes(m, word):
    import hashlib

    digests = []
    for flags in ([], ["--format", "text"], ["--resolve"], ["--resolve", "--format", "text"]):
        code, out = invoke(["weil", "--m", str(m), f"--word={word}", *flags])
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == WEIL_DIGESTS[m, word]


def test_verify_all_keeps_its_anchor():
    import hashlib

    code, out = invoke(["verify", "--suite", "all", "--order", "30", "--seed", "7"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ba546e767c6a213d6aeec90131e316220810508a58f8601cfbeb2b68db017ecf")


@pytest.mark.parametrize("argv, digest", [
    (["--suite", "all", "--order", "12", "--seed", "3", "--format", "text"],
     "d3ae0b19cbb47953dd9796149f9f181bb62277c91e1ba635841132e56c826596"),
    (["--suite", "identities", "--order", "8", "--seed", "0"],
     "0c945996c03500904a4b03a386f471b3c6632f3744861a60a858aae2b5f77ef3"),
])
def test_verify_reports_keep_their_bytes(argv, digest):
    import hashlib

    code, out = invoke(["verify", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _series_inputs():
    """Input JSON texts for the series commands: a two-variable series that
    decomposes at index 2 with a nonzero restriction, and a pair that psi
    accepts."""
    from jfkernel.construct import lambda2_inv, xi_pair_hat
    from jfkernel.jacobi import theta_j

    phi0 = PuiseuxSeries({F(0): 1, F(1, 2): 2, F(3): -1 + imag_unit()}, F(10))
    phi2 = PuiseuxSeries({F(0): 3, F(2): -2}, F(19, 2))
    h1 = PuiseuxSeries({F(0): 1 + imag_unit(), F(1): F(1, 3)}, F(10))
    phi = lambda2_inv(phi0, phi2, 12) + h1 * theta_j(2, 1, 12)
    xi0, xi2 = xi_pair_hat(6)
    psi = PuiseuxSeries({F(0): 2, F(1, 2): imag_unit(), F(2): F(-1, 3)}, F(6))
    return {"phi": json.dumps(phi.to_json()),
            "pair": json.dumps({"phi0": (psi * xi2).to_json(), "phi2": (-psi * xi0).to_json()})}


# sha256 prefixes of the series commands' outputs, in the order json, text
SERIES_DIGESTS = {
    ('theta', '--m', '2', '--r', '1', '--order', '6'): ('6da1cba0c27afb68', 'a4942fd89fb4e990'),
    ('theta', '--m', '3', '--r', '2', '--order', '6', '--at-z0'): ('08cfb91b5bef296d', '1699448ec8265d68'),
    ('eta', '--power', '3', '--order', '5'): ('8f9aaa59122674c8', '72b29830ab64c547'),
    ('xi', '--order', '4'): ('86ad48aac4cd7cf4', 'ca7975229b19ee41'),
    ('xi', '--m', '3', '--order', '4'): ('51dc8cca2b7deb96', '5dcfcabe54022cbd'),
    ('xi', '--pair', '--order', '3'): ('7edac3c7c0459f9c', '0bd51348fd9293a4'),
    ('decompose', '--m', '2', '--in', 'phi'): ('75621a8f4dd3b9aa', '54b9a57d16cfb1eb'),
    ('d0', '--in', 'phi'): ('83e1859189461789', 'b90bb727156d7d65'),
    ('d2', '--k', '3/2', '--in', 'phi'): ('23d65a2e405d4e46', '9c1eaf3e2e7d6cc8'),
    ('psi', '--in', 'pair'): ('cbf2c95bf4ffac80', '8b8dee04913d2dfe'),
}


@pytest.mark.parametrize("key", sorted(SERIES_DIGESTS))
def test_series_outputs_keep_their_bytes(key, tmp_path):
    import hashlib

    argv = list(key)
    if "--in" in argv:
        src = tmp_path / "in.json"
        src.write_text(_series_inputs()[argv[-1]])
        argv[-1] = str(src)
    digests = []
    for fmt in ("json", "text"):
        code, out = invoke([*argv, "--format", fmt])
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == SERIES_DIGESTS[key]


def _kernel_inputs_in_large_fields():
    """Inputs whose coefficients lie in fields of orders 125, 1000 and 997
    (each within the JSON bound), and a series over two of them."""
    def pair(order):
        coeff = {"num": [0, 1], "den": 1, "order": order}
        return {"phi0": {"terms": [{"exp": "0", "coeff": coeff}], "valid_below": "4"},
                "phi2": PuiseuxSeries.one(4).to_json()}

    terms = [{"n": "0", "r": r, "coeff": {"num": [0, 1], "den": 1, "order": n}}
             for r, n in ((0, 999), (1, 997))]
    return {
        125: (["lambda2-inv", "--order", "4"], pair(125), "[24, 125] join in order 3000"),
        1000: (["lambda2-inv", "--order", "4"], pair(1000), "[24, 1000] join in order 3000"),
        997: (["lambda2-inv", "--order", "4"], pair(997), "[24, 997] join in order 23928"),
        999: (["d0"], {"terms": terms, "valid_below": "2"}, "[24, 997, 999] join in order 7968024"),
    }


@pytest.mark.parametrize("case", [125, 1000, 997, 999])
def test_kernels_refuse_a_field_join_above_the_json_bound(case, tmp_path, capsys):
    argv, obj, orders = _kernel_inputs_in_large_fields()[case]
    src = tmp_path / "in.json"
    src.write_text(json.dumps(obj))
    code, out = invoke([*argv, "--in", str(src)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: fields of orders {orders}, above 1000\n"


@pytest.mark.parametrize("m", ["0", "-1", "4"])
def test_lambdastar_refuses_an_index_that_is_not_squarefree(m, tmp_path, capsys):
    one = PuiseuxSeries.one(8).to_json()
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"h0": one, "hm": one}))
    code, out = invoke(["lambdastar", "--m", m, "--in", str(src)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {m} is not squarefree\n"


@pytest.mark.parametrize("command", [["lambda2-inv", "--order", "4"], ["psi"]])
@pytest.mark.parametrize("text, message", [
    ("[]", "pair must be a JSON object, got []"),
    ('"x"', "pair must be a JSON object, got 'x'"),
    ("{}", "pair has no 'phi0'"),
])
def test_pair_commands_refuse_malformed_pairs(command, text, message, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = invoke([*command, "--in", "-"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


# -- the index bound and one-line usage errors --------------------------------------

SERIES_INDEX_COMMANDS = {
    "decompose": [],
    "project-0m": [],
    "lambdastar": [],
    "lambdastar-inv": ["--order", "4"],
}


@pytest.mark.parametrize("command", sorted(SERIES_INDEX_COMMANDS))
@pytest.mark.parametrize("m", ["10001", "10000000000000001"])
def test_series_commands_refuse_an_index_above_the_bound(command, m, monkeypatch, capsys):
    from jfkernel.cli import INDEX_BOUNDS, MAX_SERIES_INDEX

    assert MAX_SERIES_INDEX == 10 ** 4 and INDEX_BOUNDS[command] == MAX_SERIES_INDEX
    # refused before any input is read
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    code, out = invoke([command, "--m", m, *SERIES_INDEX_COMMANDS[command]])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: --m must be at most 10000, got {m}\n"


def test_series_commands_take_the_bound_itself(tmp_path, capsys):
    src = tmp_path / "phi.json"
    src.write_text(invoke(["theta", "--m", "1", "--r", "0", "--order", "2", "--format", "json"])[1])
    code, out = invoke(["project-0m", "--m", "10000", "--in", str(src)])
    assert code == 0 and json.loads(out)["valid_below"]
    # 10^4 passes the bound and fails the squarefree test
    src.write_text(json.dumps(PuiseuxSeries.one(4).to_json()))
    code, out = invoke(["lambdastar-inv", "--m", "10000", "--order", "4", "--in", str(src)])
    assert code == 2 and capsys.readouterr().err == "error: 10000 is not squarefree\n"


# -- the order and power bounds ------------------------------------------------------

ORDER_COMMANDS = {
    "theta": ["--m", "1", "--r", "0"],
    "eta": [],
    "xi": [],
    "lambda2-inv": [],
    "lambdastar-inv": ["--m", "2"],
    "verify": ["--suite", "identities"],
}


def _timed_refusal(argv, stdin_text, monkeypatch, capsys):
    """The error line of argv, which must exit 2 with one stderr line and no
    stdout, well under a second after it starts."""
    import time

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    start = time.perf_counter()
    code, out = invoke(argv)
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert code == 2 and out == "" and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", sorted(ORDER_COMMANDS))
@pytest.mark.parametrize("order", ["1001", "2001/2"])
def test_orders_above_the_bound_exit_2_with_one_line(command, order, monkeypatch, capsys):
    from jfkernel.cli import MAX_ORDER

    assert MAX_ORDER == 1000
    # refused before any input is read
    argv = [command, *ORDER_COMMANDS[command], "--order", order]
    assert _timed_refusal(argv, "not json", monkeypatch, capsys) == (
        f"error: --order must be at most 1000, got {F(order)}\n")


@pytest.mark.parametrize("power", ["101", "10000000000"])
def test_eta_power_above_the_bound_exit_2_with_one_line(power, monkeypatch, capsys):
    from jfkernel.cli import MAX_ETA_POWER

    assert MAX_ETA_POWER == 100
    assert _timed_refusal(["eta", "--power", power, "--order", "5"], "", monkeypatch, capsys) == (
        f"error: --power must be at most 100, got {power}\n")


def test_eta_power_refuses_an_order_at_its_own_bound(monkeypatch, capsys):
    # eta^30 needs an order above 30/24; an order of 1 is refused with that bound
    assert _timed_refusal(["eta", "--power", "30", "--order", "1"], "", monkeypatch, capsys) == (
        "error: order must exceed 5/4\n")
    assert _timed_refusal(["eta", "--order", "1/24"], "", monkeypatch, capsys) == (
        "error: order must exceed 1/24\n")
    code, out = invoke(["eta", "--power", "30", "--order", "3/2"])
    assert code == 0 and out == "q^(5/4)\n"


def _input_valid_below(command, valid_below):
    """Input JSON for ``command``: one-term series valid below ``valid_below``."""
    term = {"coeff": {"num": [1], "den": 1}}
    if command == "project-0m":
        return json.dumps({"terms": [{"n": "0", "r": 0, **term}], "valid_below": valid_below})
    one = {"terms": [{"exp": "0", **term}], "valid_below": valid_below}
    return json.dumps({"phi0": one, "phi2": one} if command == "psi" else [one, one, one])


INPUT_ORDER_COMMANDS = {"lambda2": [], "lambdastar": ["--m", "2"], "psi": [],
                        "project-0m": ["--m", "2"]}


@pytest.mark.parametrize("command", sorted(INPUT_ORDER_COMMANDS))
def test_inputs_valid_above_the_bound_exit_2_with_one_line(command, monkeypatch, capsys):
    argv = [command, *INPUT_ORDER_COMMANDS[command], "--in", "-"]
    err = _timed_refusal(argv, _input_valid_below(command, "1001"), monkeypatch, capsys)
    assert err == "error: input valid_below must be at most 1000, got 1001\n"


def test_the_order_bounds_take_the_bound_itself(monkeypatch):
    # the bounds themselves pass, and verify runs at order 120
    assert invoke(["theta", "--m", "1", "--r", "0", "--order", "1000"])[0] == 0
    assert invoke(["eta", "--power", "100", "--order", "5"])[0] == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(_input_valid_below("project-0m", "1000")))
    assert invoke(["project-0m", "--m", "2", "--in", "-"])[0] == 0
    assert invoke(["verify", "--suite", "identities", "--order", "120"])[0] == 0


def _one_line_refusal(argv):
    """Run the CLI on argv; a refusal must be exit 2, no stdout and exactly
    one stderr line, and nothing may escape as an exception."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(argv)
    if code == 2:
        assert out == "" and err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().endswith("\n") and "Traceback" not in err.getvalue()
    return code, out, err.getvalue()


@pytest.mark.parametrize("argv, flag", [
    (["weil", "--m", "2", "--word=--"], "--word"),
    (["weil", "--m=--", "--word", "S"], "--m"),
    (["theta", "--m", "1", "--r", "0", "--order=--"], "--order"),
    (["d2", "--k=--", "--in", "/nonexistent.json"], "--k"),
])
def test_a_lone_double_dash_value_is_a_missing_value(argv, flag):
    code, _out, err = _one_line_refusal(argv)
    assert code == 2 and err.endswith(f": error: argument {flag}: expected one argument\n"), err


_TOKENS = st.sampled_from(["S", "T", "-I", "ST2S", "s", "Q", "S2", "^", "^-", "-", "--", "^2",
                           "\n", "\t", "\\", "'", "1e5", "²", "٣", "_1", "+1", "-0"])
_POWER = st.integers(-10 ** 6, 10 ** 6).map(str) | st.text(max_size=4)
_WORDS = (st.lists(st.tuples(_TOKENS, st.none() | _POWER), max_size=6).map(
    lambda letters: " ".join(t if p is None else f"{t}^{p}" for t, p in letters))
    | st.text(max_size=12))


@settings(max_examples=150, deadline=None)
@given(_WORDS)
def test_weil_word_is_parsed_or_refused_in_one_line(text):
    code, out, err = _one_line_refusal(["weil", "--m", "2", f"--word={text}"])
    assert code in (0, 2), (text, code, err)
    if code == 0:
        assert json.loads(out)["size"] == 4 and err == ""


def _is_rational(text):
    try:
        F(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


_RATIONAL_TEXT = (st.sampled_from(["", " ", "--", "-", "x/y", "1/0", "0/0", "nan", "inf", "-inf", "1e", "1/2/3",
                                   "--5", "1 /2", "½", "0x10", "1j", "None", "\n"])
                  | st.text(alphabet="0123456789/+-._eE xj", max_size=8) | st.text(max_size=8))


@settings(max_examples=200, deadline=None)
@given(_RATIONAL_TEXT)
def test_malformed_order_and_k_are_refused_in_one_line(text):
    assume(not _is_rational(text))
    for argv in (["theta", "--m", "1", "--r", "0", f"--order={text}"],
                 ["eta", f"--order={text}"],
                 ["d2", f"--k={text}", "--in", "/nonexistent.json"]):
        code, _out, err = _one_line_refusal(argv)
        assert code == 2 and "argument --" in err, (argv, err)
