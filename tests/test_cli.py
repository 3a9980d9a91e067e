"""End-to-end command-line behavior, run in process through main()."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shiftlab
from shiftlab.cli import _canonical_json, build_parser, main
from shiftlab.exactnum import decimal_string, format_rational
from shiftlab.measures import MeasureError, _segment_integral, combine1d, delta, lebesgue, make1d
from shiftlab.sfc import SFCError, example_family, make_params, params_from_json, sfc_backward_extension, sfc_grid
from shiftlab.shift1d import khypo_witness, weights_from_json
from shiftlab.shift2d import build_figure9, grid_from_json, six_point_scan
from specs import measure_json, sfc_grid_json

F = Fraction


def _window_of(g, width, height):
    """The spec of g's alpha and beta weights on width x height entries, as an
    explicit window."""
    alpha = [[format_rational(g.alpha_sq(k1, k2)) for k1 in range(width)] for k2 in range(height)]
    beta = [[format_rational(g.beta_sq(k1, k2)) for k1 in range(width)] for k2 in range(height)]
    return {"model": "explicit", "alpha_sq": alpha, "beta_sq": beta}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def specs(tmp_path):
    """A directory of spec files covering every subcommand."""

    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    xi = make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
    eta = combine1d(
        [(F(1, 2), lebesgue()), (F(1, 2), delta(F(1)))]
    )
    out = {
        "bergman": dump(
            "bergman.json", {"prefix_sq": [], "tail": {"kind": "bergman_like", "value": 1}}
        ),
        "witness": dump(
            "witness.json",
            {"prefix_sq": ["1/4", "1/4"], "tail": {"kind": "constant", "value": "1"}},
        ),
        "decreasing": dump(
            "decreasing.json",
            {"prefix_sq": ["1", "1/2"], "tail": {"kind": "constant", "value": "1/2"}},
        ),
        "finite": dump("finite.json", {"prefix_sq": ["1/2", "3/4"], "tail": {"kind": "none"}}),
        "alpha": dump("alpha.json", {"prefix_sq": [], "tail": {"kind": "alpha_family"}}),
        "betar": dump(
            "betar.json", {"prefix_sq": ["1/5"], "tail": {"kind": "beta_r_family", "value": "16/25"}}
        ),
        "fig9": dump("fig9.json", {"model": "figure9", "y_sq": "1/3"}),
        "fig5": dump(
            "fig5.json",
            {"model": "figure5", "k2": 2, "alpha0_sq": "1/4", "beta0_sq": "7/3240"},
        ),
        "fig5deep": dump("fig5deep.json", {"model": "figure5", "k2": 12, "alpha0_sq": "1/4"}),
        "flatpair": dump(
            "flatpair.json",
            {
                "model": "totally_flat",
                "x_row": {"prefix_sq": ["1/2", "1/2"], "tail": {"kind": "constant", "value": "1"}},
                "y_sq": "1/8",
            },
        ),
        "sfc_mid": dump(
            "sfc_mid.json",
            {
                "model": "sfc",
                "xi": measure_json(xi),
                "eta": measure_json(eta),
                "a_sq": "1/2",
                "y0_sq": "12/25",
            },
        ),
        "sfc_tight": dump(
            "sfc_tight.json",
            {
                "model": "sfc",
                "xi": measure_json(xi),
                "eta": measure_json(eta),
                "a_sq": "5/12",
                "y0_sq": "13/16",
            },
        ),
        # the same pairs with the restricted column measure eta1 in place of eta
        "sfc_mid_eta1": dump("sfc_mid_eta1.json", sfc_grid_json(make_params(xi, eta, F(1, 2), F(12, 25)))),
        "sfc_tight_eta1": dump("sfc_tight_eta1.json", sfc_grid_json(make_params(xi, eta, F(5, 12), F(13, 16)))),
        # figure9 at y_sq = 1/3 read off as a commuting explicit window, 8 x 7 entries
        "explicit9": dump("explicit9.json", _window_of(build_figure9(F(1, 3)), 8, 7)),
        "badjson": str(tmp_path / "bad.json"),
        "unknown": dump("unknown.json", {"model": "weird"}),
        "dir": tmp_path,
    }
    (tmp_path / "bad.json").write_text('{"model": oops}\n', encoding="utf-8")
    return out


# ---------------------------------------------------------------------------
# moments


def test_moments_default_window(capsys, specs):
    code, out, err = run(capsys, ["moments", specs["bergman"]])
    assert code == 0 and err == ""
    assert "gamma[ 10]" in out and "1/11" in out


def test_moments_json_values(capsys, specs):
    code, out, _ = run(capsys, ["moments", specs["bergman"], "--window", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "moments" and doc["window"] == 3
    assert [g["rat"] for g in doc["gamma"]] == ["1", "1/2", "1/3", "1/4"]
    assert doc["gamma"][2]["dec"] == "0.333333333333"


def test_moments_window_validation(capsys, specs):
    code, _, err = run(capsys, ["moments", specs["bergman"], "--window", "0"])
    assert code == 2 and "error:" in err
    code2, _, err2 = run(capsys, ["moments", specs["bergman"], "--window", "2", "3"])
    assert code2 == 2 and "one value" in err2


def test_moments_beyond_finite_prefix(capsys, specs):
    code, _, err = run(capsys, ["moments", specs["finite"], "--window", "5"])
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# hyponormality checks


def test_check_hypo_pass_and_fail(capsys, specs):
    code, out, _ = run(capsys, ["check-hypo", specs["bergman"], "--window", "40"])
    assert code == 0 and "PASS" in out
    code2, out2, _ = run(capsys, ["check-hypo", specs["decreasing"], "--window", "5", "--json"])
    assert code2 == 1
    doc = json.loads(out2)
    assert doc["verdict"] is False and doc["witness"] == 0


def test_check_khypo_pass(capsys, specs):
    code, out, _ = run(capsys, ["check-khypo", specs["bergman"], "--k", "2", "--window", "50"])
    assert code == 0 and "PASS" in out


def test_check_khypo_witness(capsys, specs):
    code, out, _ = run(capsys, ["check-khypo", specs["witness"], "--k", "2", "--window", "5", "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False and doc["witness"] == 0 and doc["order"] == 2


def _det(rows):
    if not rows:
        return F(1)
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


def _brute_first_failure(weights_sq, order, last_base):
    """First base <= last_base whose order-`order` moment Hankel matrix has a
    negative principal minor, by Laplace expansion of every minor."""
    gammas = [F(1)]
    for w in weights_sq:
        gammas.append(gammas[-1] * w)
    size = order + 1
    for base in range(last_base + 1):
        rows = [[gammas[base + i + j] for j in range(size)] for i in range(size)]
        for r in range(1, size + 1):
            for idx in combinations(range(size), r):
                if _det([[rows[i][j] for j in idx] for i in idx]) < 0:
                    return base
    return None


def _cli_witness(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    witness = json.loads(out.getvalue())["witness"]
    assert code == (0 if witness is None else 1)
    return witness


squared_weights = st.fractions(min_value=F(1, 8), max_value=F(4), max_denominator=12)


@given(
    prefix=st.lists(squared_weights, max_size=6),
    tail=squared_weights,
    ascending=st.booleans(),
    order=st.integers(1, 3),
    window=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_cli_and_library_witnesses_match_brute_force(prefix, tail, ascending, order, window):
    if ascending:
        prefix = sorted(prefix)
        tail = max([tail, *prefix])
    spec = {
        "prefix_sq": [format_rational(v) for v in prefix],
        "tail": {"kind": "constant", "value": format_rational(tail)},
    }
    w = weights_from_json(spec)
    weights_sq = prefix + [tail] * (window + 2 * order)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        hypo = _cli_witness(["check-hypo", path, "--window", str(window)])
        khypo = _cli_witness(
            ["check-khypo", path, "--k", str(order), "--window", str(window)]
        )
    # hyponormality at k is PSD of the order-1 Hankel matrix based at k
    assert hypo == khypo_witness(w, 1, window - 1) == _brute_first_failure(weights_sq, 1, window - 1)
    assert khypo == khypo_witness(w, order, window) == _brute_first_failure(weights_sq, order, window)


def test_check_khypo_order_bounds(capsys, specs):
    for bad in ("0", "7"):
        code, _, err = run(capsys, ["check-khypo", specs["bergman"], "--k", bad, "--window", "5"])
        assert code == 2 and "1..6" in err


_BASE_1_FAILS = "1-hyponormal on window 6: FAIL\n  moment matrix of order 1 based at 1 is not PSD\n"
_DECREASE_AT_1 = "hyponormal on window 7: FAIL\n  weights decrease between positions 1 and 2\n"
_NO_INDEX_2 = "error: finite weight sequence has no index 2\n"


@pytest.mark.parametrize(
    ("prefix", "khypo", "hypo"),
    [
        (["1/2", "1/2", "1/4", "1"], (1, _BASE_1_FAILS, ""), (1, _DECREASE_AT_1, "")),
        (["1/2", "1/2"], (2, "", _NO_INDEX_2), (2, "", _NO_INDEX_2)),
    ],
    ids=["witness_inside_the_prefix", "scan_past_the_prefix"],
)
def test_check_khypo_reads_a_finite_sequence_only_as_far_as_it_scans(tmp_path, capsys, prefix, khypo, hypo):
    # base 0 is PSD and base 1 fails, reading up to index 2: the first
    # sequence has it, the second does not; reading the whole window first
    # would make both exit 2.  check-hypo --window 7 is the same order-1
    # scan over bases 0..6.
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({"prefix_sq": prefix, "tail": {"kind": "none"}}), encoding="utf-8")
    assert run(capsys, ["check-khypo", str(path), "--k", "1", "--window", "6"]) == khypo
    assert run(capsys, ["check-hypo", str(path), "--window", "7"]) == hypo


# ---------------------------------------------------------------------------
# two-variable windows


def test_sixpoint_grid_pass(capsys, specs):
    code, out, _ = run(capsys, ["sixpoint", specs["fig9"], "--window", "5", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert len(doc["entries"]) == 6 * 4
    first = doc["entries"][0]
    assert first["k"] == [0, 0]
    assert first["a1"]["rat"] == "1/3" and first["q"]["rat"] == "1/6"
    assert all(e["ok"] for e in doc["entries"])


def test_sixpoint_grid_fail(capsys, specs):
    code, out, _ = run(capsys, ["sixpoint", specs["flatpair"], "--window", "3", "2"])
    assert code == 1 and "failing indices" in out and "(0, 0)" in out


def test_joint_pass(capsys, specs):
    code, out, _ = run(capsys, ["joint", specs["fig9"], "--window", "20", "10", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] is True and doc["report"]["witness"] is None
    code2, _, _ = run(capsys, ["joint", specs["fig5"], "--window", "30", "10"])
    assert code2 == 0


def test_joint_witness(capsys, specs):
    code, out, _ = run(capsys, ["joint", specs["sfc_tight"], "--window", "25", "8", "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["witness"] == {"k": [1, 0], "condition": "six_point"}
    code2, out2, _ = run(capsys, ["joint", specs["sfc_tight"], "--window", "25", "8"])
    assert code2 == 1 and "witness (1, 0)" in out2


def test_joint_window_validation(capsys, specs):
    code, _, err = run(capsys, ["joint", specs["fig9"], "--window", "5"])
    assert code == 2 and "two values" in err


_ONES = [["1"] * 3] * 3


@pytest.mark.parametrize("command", ["joint", "sixpoint"])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize(
    ("alpha", "beta", "message"),
    [
        ([["1"] * 3, ["1", "0", "1"], ["1"] * 3], _ONES, "alpha squared weight at (1, 1) is 0, not positive"),
        (_ONES, [["1", "1", "-1/3"], ["1"] * 3, ["1"] * 3], "beta squared weight at (2, 0) is -1/3, not positive"),
        ([["1"] * 2] * 2, _ONES, "alpha index (2, 0) outside explicit window 2 x 2"),
        (_ONES, [["1"] * 3] * 2, "beta index (0, 2) outside explicit window 3 x 2"),
    ],
    ids=["alpha-zero", "beta-negative", "alpha-small", "beta-small"],
)
def test_explicit_window_read_errors(tmp_path, capsys, command, mode, alpha, beta, message):
    # an entry that is not positive is refused as the window is built; on a
    # short window the scan reaches the bad read after a passing (0, 0)
    path = tmp_path / "window.json"
    path.write_text(json.dumps({"model": "explicit", "alpha_sq": alpha, "beta_sq": beta}), encoding="utf-8")
    assert run(capsys, [command, str(path), "--window", "1", "1", *mode]) == (2, "", f"error: {message}\n")


def test_json_output_is_deterministic(capsys, specs):
    argv = ["joint", specs["fig5"], "--window", "12", "6", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


# ---------------------------------------------------------------------------
# classification


def test_classify_sfc_reports_thresholds(capsys, specs):
    code, out, _ = run(capsys, ["classify-sfc", specs["sfc_mid"], "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "HyponormalNotSubnormal"
    assert doc["h_sq"]["rat"] == "8/9" and doc["s_sq"]["rat"] == "2/5"
    assert doc["h_sq"]["dec"] == "0.888888888889"


def test_classify_sfc_exit_zero_for_any_verdict(capsys, specs):
    # a computed verdict is a success even when it is NotHyponormal
    code, out, _ = run(capsys, ["classify-sfc", specs["sfc_tight"]])
    assert code == 0 and "classification:" in out


def test_classify_sfc_at_the_unit_column(tmp_path, capsys):
    # eta = delta_1 with a_sq = 1 leaves the zero-atom constraint vacuous:
    # s_sq = xi({1}), and the verdict is Subnormal just where the backward
    # extension exists
    path = tmp_path / "unit_column.json"
    three_atoms = make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
    two_atoms = make1d([(F(0), F(1, 2)), (F(1), F(1, 2))])
    spread = combine1d([(F(1, 2), lebesgue()), (F(1, 4), delta(F(0))), (F(1, 4), delta(F(1)))])
    for xi in (three_atoms, two_atoms, spread):
        for y0_sq in ("1/10", "1/4", "1/3", "1/2", "1"):
            spec = {"xi": measure_json(xi), "eta": measure_json(delta(F(1))), "a_sq": "1", "y0_sq": y0_sq}
            path.write_text(json.dumps(spec), encoding="utf-8")
            code, out, err = run(capsys, ["classify-sfc", str(path), "--json"])
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc["s_sq"]["rat"] == format_rational(xi.atom_mass(F(1)))
            subnormal = doc["verdict"] == "Subnormal"
            assert subnormal == sfc_backward_extension(params_from_json(spec)).ok == (F(y0_sq) <= xi.atom_mass(F(1)))


# ---------------------------------------------------------------------------
# scans


def test_scan_csv_endpoints(capsys, specs):
    code, out, _ = run(capsys, ["scan", "--lo", "1/3", "--hi", "1/2", "--steps", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a_sq,h_sq,s_sq,h_dec,s_dec,gap_dec"
    assert lines[1].startswith("1/3,16/21,1/3,")
    assert lines[2].startswith("1/2,8/9,2/5,")
    assert lines[1].split(",")[3] == decimal_string(F(16, 21), 12)


def test_scan_sum_form_rational_and_monotone_columns(capsys, specs):
    code, out, _ = run(capsys, ["scan", "--lo", "1/6+1/100", "--hi", "1/2", "--steps", "5"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 5
    assert rows[0].split(",")[0] == "53/300"
    h_values = [F(r.split(",")[1]) for r in rows]
    s_values = [F(r.split(",")[2]) for r in rows]
    assert h_values == sorted(h_values) and s_values == sorted(s_values)
    assert all(F(r.split(",")[1]) > F(r.split(",")[2]) for r in rows)


def test_scan_out_file(tmp_path, capsys, specs):
    target = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, ["scan", "--lo", "1/3", "--hi", "1/2", "--steps", "3", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8").startswith("a_sq,")


def test_scan_validation(capsys, specs):
    code, _, err = run(capsys, ["scan", "--hi", "1/2"])
    assert code == 2 and "--lo" in err
    code2, _, _ = run(capsys, ["scan", "--lo", "1/3", "--hi", "1/2", "--steps", "1"])
    assert code2 == 2
    code3, _, _ = run(capsys, ["scan", "--lo", "1/6", "--hi", "1/2", "--steps", "3"])
    assert code3 == 2
    code4, _, err4 = run(capsys, ["scan", "--lo", "1/x", "--hi", "1/2", "--steps", "3"])
    assert code4 == 2 and "--lo" in err4
    assert run(capsys, ["scan", "--lo", "1/x", "--hi", "1/2"]) == (2, "", "error: --lo: malformed rational: '1/x'\n")
    assert run(capsys, ["scan", "--lo", "1/3", "--hi", "0.5"]) == (2, "", "error: --hi: malformed rational: '0.5'\n")


# ---------------------------------------------------------------------------
# verification suite


def test_verify_paper_all_pass(capsys, specs):
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 0
    assert out.count("PASS") == 20
    assert "20/20 checks passed" in out


# ---------------------------------------------------------------------------
# golden outputs

# command line (spec names from the fixture) -> (exit code, sha256 of stdout);
# reports name no path, so their bytes do not depend on where specs live
_GOLDEN = {
    "moments bergman --window 6 --json": (0, "e0bd44d08c00aa888d91f4cfb3f901e74329ed2980128e0d1323c4481f984304"),
    "check-hypo bergman --window 8 --json": (0, "01db4941618a0e7229290ce1bd70782cbec0a17675e45b7100a60eaf56758d66"),
    "check-khypo bergman --k 1 --window 6 --json": (0, "f4e1693fcea3b7473e00d09bfe1ebc7288ae7bfae24788c56c8c91c7da52cb79"),
    "check-khypo bergman --k 2 --window 6 --json": (0, "ed20c37434d2fd4bbfa92a139ca3b91e1179215944169d779e558b2c9b1cc71d"),
    "check-khypo bergman --k 3 --window 6 --json": (0, "8dce55b6d32d92e7ea413127f7f3670673ae738c3cde92acaa330cace0f79e49"),
    "moments witness --window 6 --json": (0, "4f6272cceb40fee8c631a8501b62c31e3bbd57e0a4ba07263af085fd0a3a2084"),
    "check-hypo witness --window 8 --json": (0, "01db4941618a0e7229290ce1bd70782cbec0a17675e45b7100a60eaf56758d66"),
    "check-khypo witness --k 1 --window 6 --json": (0, "f4e1693fcea3b7473e00d09bfe1ebc7288ae7bfae24788c56c8c91c7da52cb79"),
    "check-khypo witness --k 2 --window 6 --json": (1, "9a7827722554b2f4bd5156c87c4553d7d4d945e4e20838456478094837a55094"),
    "check-khypo witness --k 3 --window 6 --json": (1, "8c328f57b489c5b4d05c81b6026256bcc212ce1a7bce8b913b928d81c63de25a"),
    "moments decreasing --window 6 --json": (0, "28890d5ebf6b81a9aac47db441781488b7f31079c83609eff42d1bf5849d5276"),
    "check-hypo decreasing --window 8 --json": (1, "e495907dba574c16e2a4cfa561d87d2f506a08b090cb92ae6132470d86bf037a"),
    "check-khypo decreasing --k 1 --window 6 --json": (1, "d690302df0f872ffe397b191145a29b746ea7c9b1625f3e6216331215afc93ae"),
    "check-khypo decreasing --k 2 --window 6 --json": (1, "9a7827722554b2f4bd5156c87c4553d7d4d945e4e20838456478094837a55094"),
    "check-khypo decreasing --k 3 --window 6 --json": (1, "8c328f57b489c5b4d05c81b6026256bcc212ce1a7bce8b913b928d81c63de25a"),
    "moments finite --window 6 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-hypo finite --window 8 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-khypo finite --k 1 --window 6 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-khypo finite --k 2 --window 6 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-khypo finite --k 3 --window 6 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "moments alpha --window 6 --json": (0, "07fd21f7be05bd24476a95fb462d096229af85af91b363ef7a395cf1236dda11"),
    "check-khypo alpha --k 2 --window 6 --json": (0, "ed20c37434d2fd4bbfa92a139ca3b91e1179215944169d779e558b2c9b1cc71d"),
    "moments betar --window 6 --json": (0, "653acf06d58e60a1e11b97974c3724d675b13aac08a23dfa67a40eb19ac3dc09"),
    "check-khypo betar --k 2 --window 6 --json": (1, "9a7827722554b2f4bd5156c87c4553d7d4d945e4e20838456478094837a55094"),
    "sixpoint fig9 --window 6 4 --json": (0, "dc5a09acf7f5661b767fcc2efc4ce25cdd985bd10b0e2de4d1e506844ff578a2"),
    "joint fig9 --window 12 6 --json": (0, "ac7200bba293dd1e7de08fb216826e2fa7accc6de16a189d943d132ee86765f8"),
    "sixpoint fig5 --window 6 4 --json": (0, "17e69c5cb925974dd82c997a1da48de22fe6abdca490d32dbac74539df2c9621"),
    "joint fig5 --window 12 6 --json": (0, "ac7200bba293dd1e7de08fb216826e2fa7accc6de16a189d943d132ee86765f8"),
    "joint fig5deep --window 12 8 --json": (0, "ba848fbd55a5aa7265830ebdf2e8193be3ef37dcf34e7d72bebb9546e84e1cdf"),
    "sixpoint fig5deep --window 12 6 --json": (0, "a40d8d267db0a9785f096c70c7ea4f58fbe652ef8575b509d520430bdba798eb"),
    "sixpoint flatpair --window 6 4 --json": (1, "90bbdae38c8b41567b1366a8eb52e8ec5430d7eb3c7a344eb24d672d118b885a"),
    "sixpoint flatpair --window 6 4": (1, "9c812ac947943fc7b22580061ef989bbe63e98ab87ac6088d283f8e11defd20b"),
    "joint flatpair --window 12 6 --json": (1, "b99332d4b771c7dcce1ec0803d3e89399702db23c2be5e299505b0b24a88e133"),
    "joint flatpair --window 12 6": (1, "200d55cb7ea0a43098414991ffb66d54bd4ec63efdc6eddb7ae716fb440c0e1d"),
    "sixpoint sfc_mid --window 6 4 --json": (0, "0f66e950a817c56cc22d95b58d8aa257b6ee4b98573aa223945deaa2cf7b9cc3"),
    "joint sfc_mid --window 12 6 --json": (0, "ac7200bba293dd1e7de08fb216826e2fa7accc6de16a189d943d132ee86765f8"),
    "sixpoint sfc_tight --window 6 4 --json": (1, "44ad625129a820a0c1f4e61dc06087f692c0e85bc63e8ee5182524c2f19fda20"),
    "joint sfc_tight --window 12 6 --json": (1, "90dda784a058d97711f5bfa0651bb5cd97a553a1c67e7e45f6efe4fb59b442ce"),
    "joint explicit9 --window 6 5 --json": (0, "bfa60f0e2e3b66693b15d8633e2534ddaf829cdfb2a3b65b90ea1804b8f2fe68"),
    "sixpoint explicit9 --window 6 5 --json": (0, "fb64f36d33b0bc77fc14023790211a60dc896eb4d1720d2da73939d9e2860cab"),
    "sixpoint unknown --window 6 4 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "joint unknown --window 12 6 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sixpoint badjson --window 6 4 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "joint badjson --window 12 6 --json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "classify-sfc sfc_mid --json": (0, "1997dc9c054fb50b4c0545c01f4ca5bfa5fbb2c281b3348e48a076ee3dfeacb3"),
    "classify-sfc sfc_tight --json": (0, "5881d5b865bfacca7a76e85e390a8670e62f313c16d807a8b00e9dcb1fd73d4d"),
    "joint sfc_mid_eta1 --window 12 6 --json": (0, "ac7200bba293dd1e7de08fb216826e2fa7accc6de16a189d943d132ee86765f8"),
    "sixpoint sfc_mid_eta1 --window 6 4 --json": (0, "0f66e950a817c56cc22d95b58d8aa257b6ee4b98573aa223945deaa2cf7b9cc3"),
    "classify-sfc sfc_mid_eta1 --json": (0, "1997dc9c054fb50b4c0545c01f4ca5bfa5fbb2c281b3348e48a076ee3dfeacb3"),
    "joint sfc_tight_eta1 --window 12 6 --json": (1, "90dda784a058d97711f5bfa0651bb5cd97a553a1c67e7e45f6efe4fb59b442ce"),
    "sixpoint sfc_tight_eta1 --window 6 4 --json": (1, "44ad625129a820a0c1f4e61dc06087f692c0e85bc63e8ee5182524c2f19fda20"),
    "classify-sfc sfc_tight_eta1 --json": (0, "5881d5b865bfacca7a76e85e390a8670e62f313c16d807a8b00e9dcb1fd73d4d"),
    "scan --lo 1/3 --hi 1/2 --steps 5": (0, "f1d1d3362cfbf9758888c8732b186fb9f5fe2ea496a974465a8a589a4cd116d3"),
    "verify-paper --json": (0, "bcce2c045c9dd5183c05325ccf959e131594eed52cd3f472a0773c5641ad6811"),
}


def test_reports_match_their_golden_digests(capsys, specs, monkeypatch):
    monkeypatch.delenv("SHIFTLAB_PRECISION", raising=False)
    seen = {}
    for line in _GOLDEN:
        code, out, _ = run(capsys, [specs.get(word, word) for word in line.split()])
        seen[line] = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert seen == _GOLDEN


# ---------------------------------------------------------------------------
# precision control


def test_precision_env_honored(capsys, specs, monkeypatch):
    monkeypatch.setenv("SHIFTLAB_PRECISION", "4")
    code, out, _ = run(capsys, ["moments", specs["bergman"], "--window", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"][2]["dec"] == "0.3333"


def test_precision_env_invalid(capsys, specs, monkeypatch):
    for bad in ("abc", "0", "4301", str(10**12), str(10**18), str(10**20)):
        monkeypatch.setenv("SHIFTLAB_PRECISION", bad)
        code, _, err = run(capsys, ["moments", specs["bergman"]])
        assert code == 2 and "SHIFTLAB_PRECISION" in err


# ---------------------------------------------------------------------------
# input errors


def test_malformed_json_names_position(capsys, specs):
    code, _, err = run(capsys, ["moments", specs["badjson"]])
    assert code == 2
    assert f"{specs['badjson']}:1:11" in err


def test_missing_file(capsys, specs):
    missing = str(specs["dir"] / "absent.json")
    code, _, err = run(capsys, ["moments", missing])
    assert code == 2 and "absent.json" in err


def test_unknown_model(capsys, specs):
    code, _, err = run(capsys, ["joint", specs["unknown"], "--window", "3", "3"])
    assert code == 2 and "unknown model" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"prefix_sq": [True], "tail": {"kind": "constant", "value": "1"}},
        {"prefix_sq": [], "tail": {"kind": "bergman_like", "value": True}},
    ],
    ids=["prefix", "bergman_like"],
)
def test_json_booleans_are_bad_input(tmp_path, capsys, spec):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, ["check-khypo", str(path), "--k", "2", "--window", "5"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def _sfc_spec_with_xi(xi):
    return {"xi": xi, "eta": {"atoms": [["1", "1"]]}, "a_sq": "1/2", "y0_sq": "1/2"}


_LIST_FIELDS = {
    "prefix_sq": (
        ["moments", "--window", "3"],
        lambda v: {"prefix_sq": v, "tail": {"kind": "constant", "value": "3"}},
        "prefix_sq",
    ),
    "atoms": (["classify-sfc"], lambda v: _sfc_spec_with_xi({"atoms": v}), "xi.atoms"),
    "segments": (["classify-sfc"], lambda v: _sfc_spec_with_xi({"segments": v}), "xi.segments"),
    "coeffs": (
        ["classify-sfc"],
        lambda v: _sfc_spec_with_xi({"segments": [{"coeffs": v, "lo": "0", "hi": "1"}]}),
        "xi.segments[0].coeffs",
    ),
    "explicit_row": (
        ["sixpoint", "--window", "1", "1"],
        lambda v: {"model": "explicit", "alpha_sq": [v, v], "beta_sq": [["1", "1"], ["1", "1"]]},
        "alpha_sq[0]",
    ),
}


@pytest.mark.parametrize("value", [5, "12"], ids=["int", "string"])
@pytest.mark.parametrize("field", sorted(_LIST_FIELDS))
def test_list_fields_need_json_arrays(tmp_path, capsys, field, value):
    # a string must not be read one character at a time, nor an int crash
    command, build, name = _LIST_FIELDS[field]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(build(value)), encoding="utf-8")
    code, out, err = run(capsys, [command[0], str(path), *command[1:]])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f".{name}: expected an array" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(("window", "message"), [(5, "malformed explicit window"), ("12", ".alpha_sq[0]: expected an array")])
def test_explicit_windows_need_json_arrays(tmp_path, capsys, window, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"model": "explicit", "alpha_sq": window, "beta_sq": [["1"]]}), encoding="utf-8")
    code, out, err = run(capsys, ["sixpoint", str(path), "--window", "1", "1"])
    assert code == 2 and out == "" and err.startswith("error: ") and message in err


def test_internal_error_exits_three_without_traceback(capsys, specs, monkeypatch):
    import shiftlab.cli as cli

    def broken(args):
        raise RuntimeError("broken subcommand")

    monkeypatch.setattr(cli, "_cmd_moments", broken)
    code, out, err = run(capsys, ["moments", specs["bergman"]])
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: broken subcommand\n"


_SEED_TOO_LONG = "the bottom seed beta0_sq has too many digits to print"


@pytest.mark.parametrize(
    "k2, beta0_sq, reason",
    [
        (31, None, _SEED_TOO_LONG),
        (40, None, _SEED_TOO_LONG),
        (400, None, _SEED_TOO_LONG),
        (400, "1/3", "the Bergman-like parameter of level 304 has more than 4300 digits"),
    ],
    ids=["31", "40", "400", "400-beta0"],
)
def test_deep_figure5_is_an_input_error(tmp_path, capsys, k2, beta0_sq, reason):
    # the bottom seed 2**-j passes Python's int-to-string digit limit; at
    # k2 = 400 the seed search stops as soon as a running seed passes it,
    # and with an explicit bottom seed at the 96th Bergman-like parameter
    spec = {"model": "figure5", "k2": k2, "alpha0_sq": "1/4"}
    if beta0_sq is not None:
        spec["beta0_sq"] = beta0_sq
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["joint", str(path), "--window", "5", "5"])
    # at most 0.3 s here; the explicit-seed search down to level 0 ran past two minutes
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == f"error: k2 = {k2} is too deep: {reason}\n"


_unit_points = st.fractions(min_value=0, max_value=1, max_denominator=8)
_coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def _density_on(draw, lo, hi):
    """Coefficients of a density of degree <= 3 on [lo, hi]: arbitrary ones,
    often signed, or ones nonnegative by construction, some with a double
    root inside the piece."""
    kind = draw(st.sampled_from(["any", "square", "positive"]))
    if kind == "any":
        return draw(st.lists(_coeffs, min_size=1, max_size=4))
    if kind == "square":
        # c * (t - r)**2 * (1 + s*t) with r in [lo, hi] and s >= -1
        r = lo + (hi - lo) * draw(_unit_points)
        c = draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
        s = draw(st.fractions(min_value=-1, max_value=2, max_denominator=4))
        return [c * r * r, c * (-2 * r + r * r * s), c * (1 - 2 * r * s), c * s]
    # a + b*t + c*t**2 with a, b, c >= 0 is nonnegative on [0, 1]
    return draw(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=4), min_size=1, max_size=3))


@st.composite
def _measure_on_unit_interval(draw):
    """A measure on [0, 1] with atoms and polynomial pieces, scaled to mass 1
    when its mass is positive (signed pieces may leave it otherwise)."""
    atoms = draw(
        st.lists(
            st.tuples(_unit_points, st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4)),
            max_size=3,
            unique_by=lambda atom: atom[0],
        )
    )
    edges = sorted(set(draw(st.lists(_unit_points, min_size=2, max_size=4))))
    segments = [(draw(_density_on(lo, hi)), lo, hi) for lo, hi in zip(edges, edges[1:])]
    mass = sum((m for _, m in atoms), F(0)) + sum((_segment_integral(*seg) for seg in segments), F(0))
    scale = 1 / mass if mass > 0 else F(1)
    return {
        "atoms": [[format_rational(x), format_rational(m * scale)] for x, m in atoms],
        "segments": [
            {"coeffs": [format_rational(c * scale) for c in coeffs], "lo": format_rational(lo), "hi": format_rational(hi)}
            for coeffs, lo, hi in segments
        ],
    }


@given(
    xi=_measure_on_unit_interval(),
    eta=_measure_on_unit_interval(),
    a_sq=st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8),
    y0_sq=st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8),
)
@settings(max_examples=60, deadline=None)
def test_sfc_specs_never_crash_the_cli(xi, eta, a_sq, y0_sq):
    spec = {"model": "sfc", "xi": xi, "eta": eta, "a_sq": format_rational(a_sq), "y0_sq": format_rational(y0_sq)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sfc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        for argv in (
            ["classify-sfc", path],
            ["joint", path, "--window", "3", "3"],
            ["sixpoint", path, "--window", "3", "3"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, spec, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("error: ") and out.getvalue() == ""


@given(
    xi=_measure_on_unit_interval(),
    eta=_measure_on_unit_interval(),
    a_sq=st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8),
    y0_sq=st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8),
)
@settings(max_examples=60, deadline=None)
def test_sfc_grid_spec_gives_back_its_params(xi, eta, a_sq, y0_sq):
    spec = {"xi": xi, "eta": eta, "a_sq": format_rational(a_sq), "y0_sq": format_rational(y0_sq)}
    try:
        p = params_from_json(spec)
    except (MeasureError, SFCError):
        assume(False)
    grid_spec = json.loads(json.dumps(sfc_grid_json(p)))
    assert params_from_json(grid_spec) == p
    grid, built = grid_from_json(grid_spec), sfc_grid(p)
    for k2 in range(4):
        for k1 in range(4):
            assert (grid.alpha_sq(k1, k2), grid.beta_sq(k1, k2)) == (built.alpha_sq(k1, k2), built.beta_sq(k1, k2))


def test_out_file_matches_stdout(tmp_path, capsys, specs):
    argv = ["joint", specs["fig9"], "--window", "8", "4", "--json"]
    _, stdout_text, _ = run(capsys, argv)
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize(
    ("argv", "reason"),
    [
        (["sixpoint", "fig9", "--window", "2", "2", "--json"], "Is a directory"),
        (["scan", "--lo", "1/3", "--hi", "1/2"], "Is a directory"),
        (["sixpoint", "fig9", "--window", "2", "2", "--json"], "No such file or directory"),
        (["scan", "--lo", "1/3", "--hi", "1/2"], "No such file or directory"),
    ],
    ids=["sixpoint-dir", "scan-dir", "sixpoint-missing-parent", "scan-missing-parent"],
)
def test_unwritable_out_path_is_an_input_error(tmp_path, capsys, specs, argv, reason):
    target = tmp_path / "out"
    target.mkdir()
    out_path = target if reason == "Is a directory" else target / "missing" / "report.json"
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, [specs.get(word, word) for word in argv] + ["--out", str(out_path)])
    assert (code, out, err) == (2, "", f"error: {out_path}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


def _fresh_process(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_reused_parser_leaks_nothing_between_calls(tmp_path, capsys, specs):
    """One process, one parser: each call gives what a fresh process gives,
    whatever flags the calls before it set."""
    target = tmp_path / "report.txt"
    calls = [
        ["joint", specs["fig9"], "--window", "4", "3", "--json", "--out", str(target)],
        ["joint", specs["fig9"], "--window", "4", "3"],
        ["check-khypo", specs["witness"], "--k", "2", "--window", "5", "--json"],
        ["moments", specs["bergman"], "--window", "3"],
        ["classify-sfc", specs["sfc_mid"], "--json"],
        ["check-hypo", specs["decreasing"], "--window", "3"],
    ]
    for argv in calls:
        reused = run(capsys, argv), target.read_text(encoding="utf-8") if target.exists() else None
        target.unlink(missing_ok=True)
        fresh = _fresh_process(argv)
        assert reused == (
            (fresh.returncode, fresh.stdout, fresh.stderr),
            target.read_text(encoding="utf-8") if target.exists() else None,
        ), argv
        target.unlink(missing_ok=True)
    assert build_parser() is build_parser()


def test_argparse_rejects_missing_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_library_and_cli_agree_on_sfc(capsys, specs):
    code, out, _ = run(capsys, ["classify-sfc", specs["sfc_mid"], "--json"])
    assert code == 0
    doc = json.loads(out)
    expected = example_family(F(1, 2), F(16, 25))
    assert doc["y0_sq"]["rat"] == "12/25"
    assert F(doc["h_sq"]["rat"]) == F(8, 9)
    assert expected.y0_sq == F(12, 25)


@pytest.mark.parametrize(
    "eta1",
    [
        {"atoms": [["0", "1/2"], ["1", "1/2"]]},
        {"atoms": [["1", "1"]], "segments": [{"coeffs": ["0", "2"], "lo": "0", "hi": "1"}]},
        {},
        {"atoms": [["2", "1"]]},
    ],
    ids=["charging-zero", "mass-2", "empty", "atom-at-2"],
)
def test_restricted_column_measure_charging_zero_is_bad_input(tmp_path, capsys, eta1):
    xi = make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
    spec = {"model": "sfc", "xi": measure_json(xi), "eta1": eta1, "a_sq": "1/2", "y0_sq": "1/3"}
    path = tmp_path / "eta1.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    for argv in (["joint", str(path), "--window", "3", "3"], ["classify-sfc", str(path)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "eta1" in err


def test_column_contraction_breach_through_the_cli(tmp_path, capsys):
    # eta = 1/2 delta_0 + 1/2 dt restricts to 2t dt, which has no atom at 1
    # to carry a_sq = 2/5, so the pair is not hyponormal at any y0_sq
    xi = make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
    eta = combine1d([(F(1, 2), delta(F(0))), (F(1, 2), lebesgue())])
    spec = {"model": "sfc", "xi": measure_json(xi), "eta": measure_json(eta), "a_sq": "2/5", "y0_sq": "1/100"}
    path = tmp_path / "breach.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, _ = run(capsys, ["classify-sfc", str(path), "--json"])
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "NotHyponormal"
    assert (doc["h_sq"]["rat"], doc["s_sq"]["rat"]) == ("100/159", "5/24")
    code, out, _ = run(capsys, ["joint", str(path), "--window", "4", "4", "--json"])
    assert code == 1 and json.loads(out)["report"]["witness"]["k"] == [0, 1]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize(
    ("command", "spec", "window"),
    [
        ("moments", {"prefix_sq": [], "tail": {"kind": "constant", "value": "96/97"}}, ["2500"]),
        ("sixpoint", {"model": "figure5", "k2": 13, "alpha0_sq": "1/4"}, ["30", "20"]),
    ],
    ids=["moments", "sixpoint"],
)
def test_unprintable_results_are_input_errors(tmp_path, capsys, command, spec, window, mode):
    # a rational of the report passes Python's int-to-string digit limit;
    # the human sixpoint report prints no rational, so it stands
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path), "--window", *window, *mode])
    if command == "sixpoint" and not mode:
        assert (code, out, err) == (0, "six-point test on [0,30] x [0,20]: PASS\n", "")
        return
    assert code == 2 and out == ""
    assert err == f"error: a result has more than {sys.get_int_max_str_digits()} digits: too long to print\n"


def _grids_past_the_digit_limit():
    """Specs whose fields print but whose grids hold rationals past the digit
    limit: an sfc pair whose column measure restricts to an eta1 of twice the
    digits, and an explicit window whose entries are all 1/N + 1/M."""
    digits = sys.get_int_max_str_digits() // 2 + 50
    n, m = 10**digits + 7, 10**digits + 9
    xi = {"atoms": [["0", "1/3"], ["1/2", "1/3"], ["1", "1/3"]]}
    eta = {"atoms": [[f"1/{n}", f"1/{m}"], ["1", f"{m - 1}/{m}"]]}
    entries = [[f"1/{n}+1/{m}"] * 3] * 3
    return {
        "sfc": {"model": "sfc", "xi": xi, "eta": eta, "a_sq": "1/2", "y0_sq": "1/4"},
        "explicit": {"model": "explicit", "alpha_sq": entries, "beta_sq": entries},
    }


@pytest.mark.parametrize("model", ["sfc", "explicit"])
def test_reports_that_print_no_grid_rational_pass_past_the_digit_limit(tmp_path, capsys, model):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_grids_past_the_digit_limit()[model]), encoding="utf-8")
    code, out, err = run(capsys, ["joint", str(path), "--window", "1", "1", "--json"])
    assert (code, err) == (0, "") and json.loads(out)["report"]["verdict"] is True
    code, out, err = run(capsys, ["sixpoint", str(path), "--window", "1", "1"])
    assert (code, out, err) == (0, "six-point test on [0,1] x [0,1]: PASS\n", "")
    # the six-point report prints its matrix entries, so it still cannot stand
    code, out, err = run(capsys, ["sixpoint", str(path), "--window", "1", "1", "--json"])
    assert code == 2 and out == ""
    assert err == f"error: a result has more than {sys.get_int_max_str_digits()} digits: too long to print\n"


def test_json_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"prefix_sq": [' + "9" * 5000 + '], "tail": {"kind": "none"}}', encoding="utf-8")
    code, out, err = run(capsys, ["moments", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {path}: an integer has more than {sys.get_int_max_str_digits()} digits\n"


def test_spec_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"model": "figure9", "y_sq": "\xff"}')
    code, out, err = run(capsys, ["joint", str(path), "--window", "2", "2"])
    assert code == 2 and out == ""
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 30)\n"


def test_totally_flat_row_above_one_is_an_input_error(tmp_path, capsys):
    # a beta_r tail starts at (3/4) r^2, so r^2 = 2 puts the first weight at 3/2
    x_row = {"prefix_sq": [], "tail": {"kind": "beta_r_family", "value": "2"}}
    path = tmp_path / "betar_row.json"
    path.write_text(json.dumps({"model": "totally_flat", "x_row": x_row, "y_sq": "1/2"}), encoding="utf-8")
    code, out, err = run(capsys, ["joint", str(path), "--window", "4", "2"])
    assert code == 2 and out == ""
    assert err == "error: x row must be bounded by 1\n"


def test_exponent_notation_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"model": "figure9", "y_sq": "1e-10000000"}), encoding="utf-8")
    code, out, err = run(capsys, ["joint", str(path), "--window", "3", "3"])
    assert code == 2 and out == ""
    assert err == f"error: {path}.y_sq: malformed rational: '1e-10000000'\n"


# ---------------------------------------------------------------------------
# arbitrary JSON on every spec subcommand

_SPEC_KEYS = [
    "prefix_sq", "tail", "kind", "value", "model", "k2", "alpha0_sq", "beta0_sq", "y_sq", "x_row",
    "alpha_sq", "beta_sq", "xi", "eta", "eta1", "a_sq", "y0_sq", "atoms", "segments", "coeffs", "lo", "hi",
]
_SPEC_WORDS = [
    "constant", "bergman_like", "alpha_family", "beta_r_family", "none",
    "explicit", "figure9", "figure5", "totally_flat", "sfc",
    "0", "1", "1/2", "1/3", "3/4", "-1/3", "1/6+1/100", "2",
    "", "abc", "1/0", "1//2", "1e3", "0.5", " 1/4 ", "+",
]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.sampled_from(_SPEC_WORDS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_SPEC_KEYS), inner, max_size=5),
    max_leaves=12,
)


def _pick(*strategies):
    """One of the strategies, each as likely (st.one_of merges equal ones)."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def _mostly(good):
    """The well-formed shape four times in five, otherwise any JSON value."""
    return _pick(good, good, good, good, _json_values)


_rat = _mostly(st.sampled_from(["1", "1/2", "1/3", "3/4", "2", "1/6+1/100"]) | st.integers(1, 3))
_rat_rows = _mostly(st.lists(_mostly(st.lists(_rat, min_size=1, max_size=3)), min_size=1, max_size=3))
_tail_doc = st.one_of(
    st.fixed_dictionaries({"kind": _mostly(st.sampled_from(["constant", "beta_r_family"])), "value": _rat}),
    st.fixed_dictionaries({"kind": _mostly(st.just("bergman_like")), "value": _mostly(st.integers(1, 4))}),
    st.fixed_dictionaries({"kind": _mostly(st.sampled_from(["alpha_family", "none"]))}, optional={"value": _rat}),
)
_weights_doc = st.fixed_dictionaries({"prefix_sq": _mostly(st.lists(_rat, max_size=3)), "tail": _mostly(_tail_doc)})
_PROBABILITY_MEASURES = [
    {"atoms": [["0", "1/3"], ["1/2", "1/3"], ["1", "1/3"]]},
    {"atoms": [["0", "1/2"], ["1", "1/2"]]},
    {"atoms": [["1", "1"]]},
    {"atoms": [["1", "1/2"]], "segments": [{"coeffs": ["0", "1"], "lo": "0", "hi": "1"}]},
    {"atoms": [["1", "1/2"]], "segments": [{"coeffs": ["1"], "lo": "0", "hi": "1/2"}]},
    {"segments": [{"coeffs": ["1"], "lo": "0", "hi": "1"}]},
]
_measure_doc = _pick(
    st.sampled_from(_PROBABILITY_MEASURES),
    st.sampled_from(_PROBABILITY_MEASURES),
    st.fixed_dictionaries(
        {},
        optional={
            "atoms": _mostly(st.lists(_mostly(st.tuples(_rat, _rat).map(list)), max_size=3)),
            "segments": _mostly(
                st.lists(
                    _mostly(st.fixed_dictionaries({"coeffs": _mostly(st.lists(_rat, max_size=3)), "lo": _rat, "hi": _rat})),
                    max_size=2,
                )
            ),
        },
    ),
)
_grid_doc = _pick(
    st.fixed_dictionaries({"model": _mostly(st.just("figure9")), "y_sq": _rat}),
    st.fixed_dictionaries(
        {"model": _mostly(st.just("figure5")), "k2": _mostly(st.integers(1, 8)), "alpha0_sq": _rat},
        optional={"beta0_sq": _rat},
    ),
    st.fixed_dictionaries({"model": _mostly(st.just("totally_flat")), "x_row": _mostly(_weights_doc), "y_sq": _rat}),
    st.fixed_dictionaries({"model": _mostly(st.just("explicit")), "alpha_sq": _rat_rows, "beta_sq": _rat_rows}),
    st.sampled_from(["eta", "eta1"]).flatmap(
        lambda column: st.fixed_dictionaries(
            {
                "model": _mostly(st.just("sfc")),
                "xi": _mostly(_measure_doc),
                column: _mostly(_measure_doc),
                "a_sq": _rat,
                "y0_sq": _rat,
            }
        )
    ),
)
_SPEC_COMMANDS = [
    ["moments", "--window", "4"],
    ["check-hypo", "--window", "4"],
    ["check-khypo", "--k", "2", "--window", "4"],
    ["sixpoint", "--window", "3", "2"],
    ["joint", "--window", "3", "2"],
    ["classify-sfc"],
]


@given(doc=_pick(_weights_doc, _grid_doc, _json_values))
@settings(max_examples=40, deadline=None)
def test_arbitrary_json_never_crashes_a_spec_subcommand(doc):
    # well-formed shapes with bad values mixed in at every level, so that
    # some documents reach every parser and every check
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command in _SPEC_COMMANDS:
            for mode in ([], ["--json"]):
                argv = [command[0], path, *command[1:], *mode]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), (argv, doc, err.getvalue())
                assert "Traceback" not in err.getvalue()
                if code == 2:
                    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
                    assert out.getvalue() == ""


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**40),
    st.text(),
    st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f", "\u00e9\u2028\U0001f600", "1/3"]),
)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        # the same subtree held more than once, at one depth and at others
        children.map(lambda child: [child, child, {"again": child, "also": [child]}]),
    )


@given(st.recursive(_json_scalars, _json_containers, max_leaves=30))
@settings(max_examples=300, deadline=None)
def test_canonical_json_is_the_indented_sorted_dump(doc):
    assert _canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [0.5, {1}, {1: "x"}, [b"x"], {"k": Fraction(1, 2)}])
def test_canonical_json_refuses_other_types(bad):
    with pytest.raises(TypeError):
        _canonical_json(bad)


def test_sixpoint_report_renders_each_distinct_term_once(specs, capsys, monkeypatch):
    import shiftlab.cli as cli
    from shiftlab.shift2d import grid_from_json, six_point_scan

    rendered = []

    def counting(value, digits=12):
        rendered.append(value)
        return decimal_string(value, digits)

    monkeypatch.setattr(cli, "decimal_string", counting)
    # the human report prints no rational, so it renders none
    code, _, _ = run(capsys, ["sixpoint", specs["fig9"], "--window", "6", "4"])
    assert code == 0 and rendered == []
    code, out, _ = run(capsys, ["sixpoint", specs["fig9"], "--window", "6", "4", "--json"])
    assert code == 0
    with open(specs["fig9"], encoding="utf-8") as handle:
        grid = grid_from_json(json.load(handle), specs["fig9"])
    terms = {term for _, data in six_point_scan(grid, 6, 4) for term in data.terms}
    assert len(rendered) == len(terms) < 4 * 7 * 5
    assert len(json.loads(out)["entries"]) == 7 * 5


_unit_weights = st.fractions(min_value=F(1, 97), max_value=1, max_denominator=97)


@st.composite
def _grid_specs(draw):
    """A figure9, equal-pair totally flat or shallow figure5 spec."""
    kind = draw(st.sampled_from(["figure9", "totally_flat", "figure5"]))
    if kind == "figure9":
        spec = {"model": "figure9", "y_sq": format_rational(draw(_unit_weights))}
    elif kind == "totally_flat":
        # an equal pair in a row that may fall: FAIL entries with a negative
        # a1 and terms that are zero
        x_row = draw(st.lists(_unit_weights, min_size=4, max_size=5))
        pair = draw(st.integers(0, len(x_row) - 2))
        x_row[pair + 1] = x_row[pair]
        row = {"prefix_sq": [format_rational(v) for v in x_row[:-1]], "tail": {"kind": "constant", "value": format_rational(x_row[-1])}}
        y_sq = draw(_unit_weights)
        spec = {"model": "totally_flat", "x_row": row, "y_sq": format_rational(y_sq)}
    else:
        alpha0_sq = draw(st.fractions(min_value=F(1, 97), max_value=F(96, 97), max_denominator=97))
        spec = {"model": "figure5", "k2": draw(st.integers(1, 4)), "alpha0_sq": format_rational(alpha0_sq)}
    return spec


@st.composite
def _sixpoint_cases(draw):
    spec = draw(_grid_specs())
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        # the same weights as a commuting explicit window that covers the scan
        spec = _window_of(grid_from_json(spec), m + 2, n + 2)
    return spec, m, n, draw(st.sampled_from([1, 4, 12, 30]))


@given(_sixpoint_cases())
@settings(max_examples=150, deadline=None)
def test_sixpoint_json_is_the_dump_of_its_reference_document(case):
    spec, m, n, digits = case
    entries = []
    for k, data in six_point_scan(grid_from_json(spec), m, n):
        entry = {"k": list(k), "ok": data.ok}
        for name, term in zip(("a1", "a2", "p", "q"), data.terms):
            value = F(*term)
            entry[name] = {"rat": format_rational(value), "dec": decimal_string(value, digits)}
        entries.append(entry)
    verdict = all(entry["ok"] for entry in entries)
    ref = {"command": "sixpoint", "window": [m, n], "verdict": verdict, "entries": entries}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"SHIFTLAB_PRECISION": str(digits)}):
        path = os.path.join(tmp, "grid.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sixpoint", path, "--window", str(m), str(n), "--json"])
    assert (code, err.getvalue()) == (0 if verdict else 1, "")
    assert out.getvalue() == json.dumps(ref, indent=2, sort_keys=True) + "\n"
