"""Tests of the benchmark itself: input generation, the oracle, the checks."""

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from shiftlab import cli, sfc, shift2d  # noqa: E402


def det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return F(rows[0][0])
    return sum(
        ((-1) ** j * head * det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, head in enumerate(rows[0]) if head),
        F(0),
    )


def run_cli(op, tmp_path):
    """Run a CLI operation for real and return (exit code, parsed report)."""
    workloads.write_specs([op], str(tmp_path))
    code = cli.main(op.argv)
    with open(op.out, encoding="utf-8") as handle:
        return code, json.load(handle)


def run_sfc(op):
    p = sfc.params_from_json(op.spec)
    scan = shift2d.joint_hyponormal_window(sfc.sfc_grid(p), *op.window)
    return sfc.classify(p), sfc.sfc_backward_extension(p), scan


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize("workload", sorted(workloads.BATCHES))
def test_same_seed_same_inputs(workload):
    batch = workloads.BATCHES[workload]
    first, again, other = batch(7), batch(7), batch(8)
    key = lambda ops: [(op.stratum, op.command, op.order, op.window, op.expect, json.dumps(op.spec, sort_keys=True)) for op in ops]
    assert key(first) == key(again)
    assert key(first) != key(other)
    assert len(first) == len(other)


def test_stratum_sizes_do_not_depend_on_seed():
    for workload, batch in workloads.BATCHES.items():
        sizes = {tuple(sorted(Counter(op.stratum for op in batch(s)).items())) for s in (1, 2, 3)}
        assert len(sizes) == 1, workload


def test_worked_points_do_not_depend_on_seed():
    specs = lambda seed: sorted(json.dumps(op.spec, sort_keys=True) for op in workloads.sfc_batch(seed) if op.worked)
    assert specs(1) == specs(2)
    assert len(specs(1)) == 52


# ---------------------------------------------------------------------------
# the oracle against sympy


def test_is_psd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 4)
        vecs = [[F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))] for _ in range(n)]
        rows = [[sum(a * b for a, b in zip(vecs[i], vecs[j])) for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            i = rng.randrange(n)
            rows[i][i] += rng.randint(-2, 1)
        assert oracle.is_psd(rows) == sympy.Matrix(rows).is_positive_semidefinite
        assert det(rows) == sympy.Matrix(rows).det()


def test_six_point_ok_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1)
    for _ in range(300):
        a1, a2 = F(rng.randint(-1, 9), rng.randint(1, 9)), F(rng.randint(-1, 9), rng.randint(1, 9))
        p, q = F(rng.randint(0, 9), rng.randint(1, 9)), F(rng.randint(0, 9), rng.randint(1, 9))
        off = sympy.sqrt(sympy.Rational(p.numerator, p.denominator)) - sympy.sqrt(sympy.Rational(q.numerator, q.denominator))
        a1s, a2s = sympy.Rational(a1.numerator, a1.denominator), sympy.Rational(a2.numerator, a2.denominator)
        expected = bool(sympy.Matrix([[a1s, off], [off, a2s]]).is_positive_semidefinite)
        assert oracle.six_point_ok(a1, a2, p, q) == expected


def test_known_witness_determinant():
    spec = {"prefix_sq": ["1/4", "1/4"], "tail": {"kind": "constant", "value": "1"}}
    rows = oracle.hankel(oracle.moments(spec, 4), 2, 0)
    assert det(rows) == F(-9, 4096)
    assert not oracle.is_psd(rows)


# ---------------------------------------------------------------------------
# checks accept known cases and reject wrong outputs


def test_khypo_check(tmp_path):
    spec = {"prefix_sq": ["1/4", "1/4"], "tail": {"kind": "constant", "value": "1"}}
    op = workloads.Op("witness", spec, "check-khypo", 2, (50,), "FAIL")
    code, doc = run_cli(op, tmp_path)
    assert (code, doc["witness"]) == (1, 0)
    assert workloads.check_khypo(op, code, doc).ok
    assert not workloads.check_khypo(op, 0, doc).ok  # exit code disagrees
    assert not workloads.check_khypo(op, 1, dict(doc, witness=3)).ok  # false witness
    assert not workloads.check_khypo(op, 0, dict(doc, verdict=True, witness=None)).ok  # flipped verdict

    bergman = {"prefix_sq": [], "tail": {"kind": "bergman_like", "value": 1}}
    op = workloads.Op("long", bergman, "check-khypo", 2, (30,), "PASS")
    code, doc = run_cli(op, tmp_path)
    assert workloads.check_khypo(op, code, doc).ok
    assert not workloads.check_khypo(op, 1, dict(doc, verdict=False, witness=4)).ok


def test_joint_check(tmp_path):
    op = workloads.Op("fig9-joint", {"model": "figure9", "y_sq": "1/3"}, "joint", window=(20, 10), expect="PASS")
    code, doc = run_cli(op, tmp_path)
    assert workloads.check_joint(op, code, doc).ok
    flipped = dict(doc, report=dict(doc["report"], verdict=False, witness={"k": [1, 0], "condition": "six_point"}))
    assert not workloads.check_joint(op, 1, flipped).ok

    row = {"prefix_sq": ["1/2", "1/2"], "tail": {"kind": "constant", "value": "1"}}
    op = workloads.Op("tf-joint", {"model": "totally_flat", "x_row": row, "y_sq": "1/8"}, "joint", window=(20, 10), expect="FAIL")
    code, doc = run_cli(op, tmp_path)
    assert doc["report"]["witness"]["k"] == [0, 0]
    assert workloads.check_joint(op, code, doc).ok
    moved = dict(doc, report=dict(doc["report"], witness={"k": [1, 0], "condition": "six_point"}))
    assert not workloads.check_joint(op, code, moved).ok


def test_sixpoint_check(tmp_path):
    op = workloads.Op("fig9-sixpoint", {"model": "figure9", "y_sq": "1/2"}, "sixpoint", window=(6, 3))
    code, doc = run_cli(op, tmp_path)
    assert (code, doc["verdict"]) == (1, False)
    assert workloads.check_joint(op, code, doc).ok

    def mutated(change):
        copy = json.loads(json.dumps(doc))
        change(copy["entries"][2])
        return copy

    flip = lambda e: e.update(ok=not e["ok"])
    assert not workloads.check_joint(op, code, mutated(flip)).ok
    wrong_dec = lambda e: e["a1"].update(dec="0.1")
    assert not workloads.check_joint(op, code, mutated(wrong_dec)).ok
    wrong_value = lambda e: e["p"].update(rat="7/5", dec=oracle.decimal_text(F(7, 5)))
    assert not workloads.check_joint(op, code, mutated(wrong_value)).ok


def test_sfc_check():
    half = F(1, 2)
    op = workloads.Op("worked", workloads.worked_spec(half, F(1), F(2, 5)), window=workloads.SFC_WINDOW, worked=True)
    c, e, s = run_sfc(op)
    assert (c.verdict, c.h_sq, c.s_sq) == ("Subnormal", F(8, 9), F(2, 5))
    assert workloads.check_sfc(op, c, e, s).ok
    assert not workloads.check_sfc(op, c, type(e)(False, "iii", None, e.inv_t_norm), s).ok
    assert not workloads.check_sfc(op, type(c)(c.verdict, c.h_sq, F(1, 3)), e, s).ok
    assert not workloads.check_sfc(op, c, e, type(s)(False, ((2, 0), "six_point"), (), s.window)).ok

    # the classifier's known fault: h_sq is only the (0, 0) bound
    op = workloads.Op("worked", workloads.worked_spec(half, F(1), F(3, 4)), window=workloads.SFC_WINDOW, worked=True)
    verdict = workloads.check_sfc(op, *run_sfc(op))
    assert not verdict.ok and verdict.known_fault


def test_generated_sfc_draws_pass_their_checks():
    ops = [op for op in workloads.sfc_batch(3) if not op.worked][:20]
    for op in ops:
        assert workloads.check_sfc(op, *run_sfc(op)).ok, op.spec


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "certbench", ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "certbench/run.py", "--workload", "sfc-certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert out.stdout == ""
