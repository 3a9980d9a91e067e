"""The three workloads: seeded input generation, the operation, the checks.

Each workload builds a fixed batch of operations from the seed.  Strata
have fixed sizes and fixed shapes (orders, windows, grid depths); the seed
draws the rational parameters and the order of the batch.  An operation's
output is checked against a computation made apart from shiftlab (see
``oracle``) or against a property the method must have.  No check compares
against a stored copy of shiftlab's output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

F = Fraction

# Window of the sfc-certify joint hyponormality scan.
SFC_WINDOW = (8, 4)


@dataclass
class Op:
    """One operation of a batch; ``expect`` is "PASS", "FAIL" or None."""

    stratum: str
    spec: dict
    command: str = ""
    order: int = 0
    window: tuple[int, ...] = ()
    expect: str | None = None
    worked: bool = False  # an sfc point of the worked family (seed-independent)
    argv: list[str] = field(default_factory=list)
    out: str = ""


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    ok: bool
    known_fault: bool = False
    reason: str = ""


# Drawn rationals share one prime denominator, so the operand sizes, and with
# them the cost of an operation, do not swing with the seed.
DEN = 97


def _rand_frac(rng: random.Random, lo: int, hi: int, den: int = DEN) -> Fraction:
    return F(rng.randint(lo, hi), den)


def _s(q) -> str:
    return str(q)


# ---------------------------------------------------------------------------
# khypo-1d


def khypo_batch(seed: int) -> list[Op]:
    """100 check-khypo operations.

    * 30 long windows (40, 50, 60) at order 1-2 on shifts with continuous
      Berger measures (Bergman-like, the beta_r family): gamma-bound.
    * 40 short windows (bases 0 and 1) at order 4-6 on finitely atomic
      shifts (flat, three-atom, constant tails): singular Hankel matrices,
      so psd_check falls back to all principal minors.
    * 30 equal-pair non-flat shifts at order 2-3: an early witness.

    As in joint-2d, a round of the batch takes about a second.
    """
    rng = random.Random(f"khypo-1d:{seed}")
    ops = []
    ells = list(range(1, 9)) + list(range(1, 8))
    rng.shuffle(ells)
    for i in range(30):
        order = 1 + i % 2
        window = (40, 50, 60)[i % 3]
        if i < 15:
            spec = {"prefix_sq": [], "tail": {"kind": "bergman_like", "value": ells[i]}}
        else:
            spec = {"prefix_sq": [], "tail": {"kind": "beta_r_family", "value": _s(_rand_frac(rng, 1, 96))}}
        ops.append(Op("long", spec, "check-khypo", order, (window,), "PASS"))
    for i in range(40):
        order = 4 + i % 3
        kind = i % 4
        if kind == 0:
            spec = {"prefix_sq": [_s(_rand_frac(rng, 1, 96))], "tail": {"kind": "constant", "value": "1"}}
        elif kind == 1:
            spec = {"prefix_sq": [], "tail": {"kind": "alpha_family"}}
        elif kind == 2:
            spec = {"prefix_sq": [], "tail": {"kind": "constant", "value": _s(_rand_frac(rng, 98, 193))}}
        else:
            c = _rand_frac(rng, 2, 96)
            spec = {"prefix_sq": [_s(_rand_frac(rng, 1, c.numerator - 1))], "tail": {"kind": "constant", "value": _s(c)}}
        ops.append(Op("atomic", spec, "check-khypo", order, (1,), "PASS"))
    for i in range(30):
        order = 2 + i % 2
        x = _rand_frac(rng, 2, 96)
        kind = (i // 2) % 3
        if kind == 0:
            prefix, tail = [x, x], {"kind": "constant", "value": "1"}
        elif kind == 1:
            u = _rand_frac(rng, 1, x.numerator - 1)
            c = _rand_frac(rng, x.numerator + 1, 3 * DEN)
            prefix, tail = [u, x, x], {"kind": "constant", "value": _s(c)}
        else:
            x = _rand_frac(rng, 1, DEN // 2)
            prefix, tail = [x, x], {"kind": "bergman_like", "value": rng.randint(1, 4)}
        spec = {"prefix_sq": [_s(v) for v in prefix], "tail": tail}
        ops.append(Op("witness", spec, "check-khypo", order, (40,), "FAIL"))
    rng.shuffle(ops)
    return ops


def check_khypo(op: Op, code: int, doc: dict) -> Verdict:
    (window,) = op.window
    if doc.get("command") != "check-khypo" or doc.get("order") != op.order or doc.get("window") != window:
        return Verdict(False, reason="report names the wrong check")
    verdict, witness = doc.get("verdict"), doc.get("witness")
    if code != (0 if verdict else 1):
        return Verdict(False, reason=f"exit {code} with verdict {verdict}")
    if op.expect == "PASS":
        # every shift of this stratum is subnormal by construction
        if verdict is not True or witness is not None:
            return Verdict(False, reason="FAIL on a subnormal shift")
        return Verdict(True)
    # a non-flat shift with two equal weights is not 2-hyponormal
    if verdict is not False or not isinstance(witness, int) or not 0 <= witness <= window:
        return Verdict(False, reason="PASS on a non-flat shift with an equal pair")
    gammas = oracle.moments(op.spec, witness + 2 * op.order)
    if oracle.is_psd(oracle.hankel(gammas, op.order, witness)):
        return Verdict(False, reason=f"witness base {witness} has a PSD Hankel matrix")
    for base in range(witness):
        if not oracle.is_psd(oracle.hankel(gammas, op.order, base)):
            return Verdict(False, reason=f"earlier base {base} already fails")
    return Verdict(True)


# ---------------------------------------------------------------------------
# joint-2d


def joint_batch(seed: int) -> list[Op]:
    """100 joint / sixpoint operations on generated grids.

    * 24 joint scans of figure5 grids, 13 x 9, of depth k2 from 2 to 11
      and seven each of depth 12 and 13: the deepest grids carry the
      largest operands and make up the tail.  PASS.
    * 12 sixpoint reports of figure5 grids, k2 cycling 2..7, 13 x 7.
    * 16 joint scans of figure9 with y_sq <= 1/3, 17 x 9.  PASS.
    * 12 sixpoint reports of figure9 with any y_sq in (0, 1], 13 x 7.
    * 24 joint scans of totally flat grids whose level-0 row has an equal
      pair but is not flat, 17 x 9: FAIL at an early witness.
    * 12 sixpoint reports of totally flat grids, equal-pair or flat rows.

    Windows are kept small enough that a round of the batch takes about a
    second, so a 30 s run times every operation about twenty times.
    """
    rng = random.Random(f"joint-2d:{seed}")
    ops = []
    for k2 in list(range(2, 12)) + [12] * 7 + [13] * 7:
        spec = {"model": "figure5", "k2": k2, "alpha0_sq": _s(_rand_frac(rng, 1, 96))}
        ops.append(Op("fig5-joint", spec, "joint", window=(12, 8), expect="PASS"))
    for i in range(12):
        spec = {"model": "figure5", "k2": 2 + i % 6, "alpha0_sq": _s(_rand_frac(rng, 1, 96))}
        ops.append(Op("fig5-sixpoint", spec, "sixpoint", window=(12, 6), expect="PASS"))
    for i in range(16):
        spec = {"model": "figure9", "y_sq": _s(_rand_frac(rng, 1, DEN // 3))}
        ops.append(Op("fig9-joint", spec, "joint", window=(16, 8), expect="PASS"))
    for i in range(12):
        spec = {"model": "figure9", "y_sq": _s(_rand_frac(rng, 1, 96))}
        ops.append(Op("fig9-sixpoint", spec, "sixpoint", window=(12, 6)))
    for i in range(36):
        x = _rand_frac(rng, 2, 96)
        kind = i % 3
        if i >= 24 and kind == 2:
            # flat row a, 1, 1, ...: no verdict is predicted
            row = {"prefix_sq": [_s(x)], "tail": {"kind": "constant", "value": "1"}}
            expect = None
        else:
            prefix = sorted(_rand_frac(rng, 1, x.numerator - 1) for _ in range(kind)) + [x, x]
            tail = {"kind": "constant", "value": "1"} if kind != 1 else {"kind": "alpha_family"}
            if kind == 1:
                prefix = [v / 2 for v in prefix]
            row = {"prefix_sq": [_s(v) for v in prefix], "tail": tail}
            expect = "FAIL"
        spec = {"model": "totally_flat", "x_row": row, "y_sq": _s(_rand_frac(rng, 1, 96))}
        if i < 24:
            ops.append(Op("tf-joint", spec, "joint", window=(16, 8), expect=expect))
        else:
            ops.append(Op("tf-sixpoint", spec, "sixpoint", window=(12, 6), expect=expect))
    rng.shuffle(ops)
    return ops


def _model_grid(spec: dict) -> oracle.Grid | None:
    if spec["model"] == "figure9":
        return oracle.figure9_grid(F(spec["y_sq"]))
    if spec["model"] == "totally_flat":
        return oracle.totally_flat_grid(spec["x_row"], F(spec["y_sq"]))
    return None


def check_joint(op: Op, code: int, doc: dict) -> Verdict:
    m, n = op.window
    if doc.get("command") != op.command:
        return Verdict(False, reason="report names the wrong command")
    if op.command == "joint":
        report = doc.get("report", {})
        verdict, witness = report.get("verdict"), report.get("witness")
        if report.get("window") != [m, n]:
            return Verdict(False, reason="report names the wrong window")
    else:
        verdict, witness = doc.get("verdict"), None
        if doc.get("window") != [m, n]:
            return Verdict(False, reason="report names the wrong window")
    if code != (0 if verdict else 1):
        return Verdict(False, reason=f"exit {code} with verdict {verdict}")
    if op.expect is not None and verdict != (op.expect == "PASS"):
        return Verdict(False, reason=f"verdict {verdict}, expected {op.expect}")
    grid = _model_grid(op.spec)
    if op.command == "joint":
        if verdict:
            return Verdict(witness is None, reason="PASS with a witness")
        if grid is None or not isinstance(witness, dict):
            return Verdict(False, reason="FAIL without a witness to re-derive")
        if witness.get("condition") != "six_point":
            return Verdict(False, reason="witness names no six-point failure")
        first = grid.first_failure(m, n)
        if first is None or list(first) != witness.get("k"):
            return Verdict(False, reason=f"witness {witness.get('k')}, re-derived {first}")
        return Verdict(True)
    entries = doc.get("entries", [])
    expected_k = [[k1, k2] for k2 in range(n + 1) for k1 in range(m + 1)]
    if [e.get("k") for e in entries] != expected_k:
        return Verdict(False, reason="entries do not cover the window in scan order")
    all_ok = True
    for entry in entries:
        values = []
        for key in ("a1", "a2", "p", "q"):
            cell = entry[key]
            value = F(cell["rat"])
            if cell["dec"] != oracle.decimal_text(value):
                return Verdict(False, reason=f"{key} at {entry['k']}: decimal {cell['dec']} for {cell['rat']}")
            values.append(value)
        if grid is not None and tuple(values) != grid.six_point(*entry["k"]):
            return Verdict(False, reason=f"six-point data at {entry['k']} differs from the model")
        ok = oracle.six_point_ok(*values)
        if entry["ok"] is not ok:
            return Verdict(False, reason=f"ok flag at {entry['k']} is {entry['ok']}, re-derived {ok}")
        all_ok = all_ok and ok
    if verdict is not all_ok:
        return Verdict(False, reason="verdict disagrees with the entries")
    return Verdict(True)


# ---------------------------------------------------------------------------
# sfc-certify


def _measure_json(atoms, segments) -> dict:
    return {
        "atoms": [[_s(x), _s(m)] for x, m in atoms if m],
        "segments": [
            {"lo": _s(lo), "hi": _s(hi), "coeffs": [_s(c) for c in coeffs]} for coeffs, lo, hi in segments
        ],
    }


def _density(rng: random.Random, kind: int) -> list[Fraction]:
    """Coefficients of a polynomial nonnegative on [0, 1], ascending degree."""
    if kind == 0:
        return [_rand_frac(rng, 1, 4, 1)]
    if kind == 1:
        return [_rand_frac(rng, 1, 4, 1), _rand_frac(rng, 1, 4, 1)]
    if kind == 2:
        mid = _rand_frac(rng, 1, 9, 10)
        return [mid * mid + _rand_frac(rng, 1, 9, 20), -2 * mid, F(1)]
    return [F(0), F(1), F(-1)]  # t (1 - t), zero at both ends of [0, 1]


def _random_measure(rng: random.Random, at0: bool, inner: int, pieces: int, first_kind: int, atom_share: Fraction) -> dict:
    """A probability measure on [0, 1] of a fixed shape: atoms at 1, at 0 if
    asked, and at ``inner`` points between, carrying atom_share of the mass;
    polynomial densities of kinds first_kind, first_kind + 1, ... on a
    partition of [0, 1] into ``pieces``, carrying the rest."""
    points = [F(x, 20) for x in sorted(rng.sample(range(1, 20), inner))]
    atoms = [(F(1), F(rng.randint(3, 6)))] + [(x, F(rng.randint(1, 5))) for x in points]
    if at0:
        atoms.append((F(0), F(rng.randint(1, 4))))
    edges = [F(0)] + [F(x, 10) for x in sorted(rng.sample(range(1, 10), pieces - 1))] + [F(1)]
    segments = [(_density(rng, (first_kind + i) % 4), lo, hi) for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    atom_mass = sum(m for _, m in atoms)
    seg_mass = oracle.measure_moment(_measure_json([], segments), 0)
    atoms = sorted((x, m * atom_share / atom_mass) for x, m in atoms)
    segments = [([c * (1 - atom_share) / seg_mass for c in coeffs], lo, hi) for coeffs, lo, hi in segments]
    return _measure_json(atoms, segments)


def worked_spec(a_sq: Fraction, r_sq: Fraction, y0_sq: Fraction) -> dict:
    """The worked family: three equal atoms for xi; eta splits its mass
    1 - r_sq at 0, r_sq/2 uniform, r_sq/2 at 1."""
    third = F(1, 3)
    return {
        "xi": _measure_json([(F(0), third), (F(1, 2), third), (F(1), third)], []),
        "eta": _measure_json([(F(0), 1 - r_sq), (F(1), r_sq / 2)], [([r_sq / 2], F(0), F(1))]),
        "a_sq": _s(a_sq),
        "y0_sq": _s(y0_sq),
    }


def worked_h(a_sq: Fraction) -> Fraction:
    return F(8) / (9 * (1 + 6 * (a_sq - F(1, 2)) ** 2))


def worked_s(a_sq: Fraction) -> Fraction:
    return 1 / (4 - 3 * a_sq)


def worked_points() -> list[Op]:
    """52 seed-independent points of the worked family.

    For each a_sq and r_sq: below s, at s, between s and h, at h, above h;
    plus y0_sq = 3/4 at a_sq = 1/2.  Where a_sq > (78 - sqrt(1224))/108
    (about 0.398) the (1, 0) six-point bound 1/(3 a_sq) is tighter than h,
    so classify's HyponormalNotSubnormal there disagrees with the window
    scan: six of these points fail every run.
    """
    ops = []
    for r_sq in (F(1), F(1, 2)):
        for a_sq in (F(1, 4), F(1, 3), F(3, 8), F(9, 20), F(1, 2)):
            h, s = worked_h(a_sq), worked_s(a_sq)
            for y0 in (s / 2, s, (s + h) / 2, h, (h + 1) / 2):
                ops.append(Op("worked", worked_spec(a_sq, r_sq, y0), window=SFC_WINDOW, worked=True))
        ops.append(Op("worked", worked_spec(F(1, 2), r_sq, F(3, 4)), window=SFC_WINDOW, worked=True))
    return ops


def sfc_batch(seed: int) -> list[Op]:
    """200 SFC certifications: the 52 worked-family points and 148 pairs of
    generated measures.

    Generated xi has atoms at 0 and 1, zero to two inner atoms and one to
    three density pieces; generated eta has an atom at 1, every other one an
    atom at 0, zero or one inner atom and one or two density pieces.  These
    shapes cycle with the operation's position; the seed draws the points,
    masses and coefficients.  a_sq is a share of eta1's atom at 1, so eta1
    dominates it.  y0_sq alternates between (0, min(s, 1)] and (h, 1]: the
    band between s and h is left out of generated draws, because there
    classify disagrees with the window scan on some draws and not others.
    """
    rng = random.Random(f"sfc-certify:{seed}")
    ops = worked_points()
    while len(ops) < 200:
        j = len(ops)
        region = "sub" if j % 2 == 0 else "not"
        xi = _random_measure(rng, True, j % 3, 1 + (j // 3) % 3, j % 4, _rand_frac(rng, 5, 9, 10))
        eta = _random_measure(rng, j % 4 < 2, (j // 4) % 2, 1 + (j // 8) % 2, (j + 2) % 4, _rand_frac(rng, 6, 9, 10))
        eta1_at_one = oracle.atom_mass(eta, F(1)) / oracle.measure_moment(eta, 1)
        a_sq = min(eta1_at_one * _rand_frac(rng, 1, 10, 10), F(1))
        spec = {"xi": xi, "eta": eta, "a_sq": _s(a_sq), "y0_sq": "1"}
        h, s = oracle.h_threshold(spec), oracle.s_threshold(spec)
        if region == "sub":
            y0 = min(s, F(1)) * _rand_frac(rng, 1, 10, 10)
        elif h < 1:
            y0 = h + (1 - h) * _rand_frac(rng, 1, 10, 10)
        else:
            continue
        spec["y0_sq"] = _s(y0)
        ops.append(Op(region, spec, window=SFC_WINDOW, expect="Subnormal" if region == "sub" else "NotHyponormal"))
    rng.shuffle(ops)
    return ops


def check_sfc(op: Op, classification, extension, scan) -> Verdict:
    spec = op.spec
    verdict = classification.verdict
    if verdict not in ("Subnormal", "HyponormalNotSubnormal", "NotHyponormal"):
        return Verdict(False, reason=f"unknown verdict {verdict}")
    if (verdict == "Subnormal") != extension.ok:
        return Verdict(False, reason=f"{verdict} but backward extension ok={extension.ok}")
    if classification.s_sq != oracle.s_threshold(spec):
        return Verdict(False, reason=f"s_sq {classification.s_sq}, expected {oracle.s_threshold(spec)}")
    if classification.h_sq != oracle.h_threshold(spec):
        return Verdict(False, reason=f"h_sq {classification.h_sq}, expected {oracle.h_threshold(spec)}")
    a_sq = F(spec["a_sq"])
    if op.worked and (classification.h_sq, classification.s_sq) != (worked_h(a_sq), worked_s(a_sq)):
        return Verdict(False, reason="worked-family thresholds differ from the closed forms")
    if op.expect is not None and verdict != op.expect:
        return Verdict(False, reason=f"verdict {verdict}, drawn as {op.expect}")
    m, n = op.window
    first = oracle.sfc_grid(spec).first_failure(m, n)
    witness = None if scan.witness is None else scan.witness[0]
    if scan.verdict != (first is None) or witness != first:
        return Verdict(False, reason=f"scan witness {witness}, re-derived {first}")
    if (verdict != "NotHyponormal") != scan.verdict:
        # classify decides hyponormality from the (0, 0) bound h_sq alone
        known = op.worked and verdict == "HyponormalNotSubnormal"
        return Verdict(False, known_fault=known, reason=f"{verdict} but the window scan fails at {witness}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# spec files


def write_specs(ops: list[Op], workdir: str) -> None:
    """One spec file per CLI operation; the report goes to a file beside it."""
    for i, op in enumerate(ops):
        if not op.command:
            continue
        path = os.path.join(workdir, f"{i:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(op.spec, handle)
        op.out = os.path.join(workdir, f"{i:03d}.out.json")
        op.argv = [op.command, path, "--json", "--out", op.out]
        if op.command == "check-khypo":
            op.argv += ["--k", str(op.order)]
        op.argv += ["--window"] + [str(v) for v in op.window]


BATCHES = {"khypo-1d": khypo_batch, "joint-2d": joint_batch, "sfc-certify": sfc_batch}
CLI_CHECKS = {"khypo-1d": check_khypo, "joint-2d": check_joint}


def warmup_op(workload: str) -> Op:
    """A fixed small operation run once during set-up."""
    if workload == "khypo-1d":
        spec = {"prefix_sq": ["1/4", "1/4"], "tail": {"kind": "constant", "value": "1"}}
        return Op("warmup", spec, "check-khypo", 2, (10,), "FAIL")
    if workload == "joint-2d":
        return Op("warmup", {"model": "figure9", "y_sq": "1/3"}, "joint", window=(10, 5), expect="PASS")
    return Op("warmup", worked_spec(F(1, 2), F(1), F(2, 5)), window=SFC_WINDOW, worked=True)
