"""Command-line front end.

Subcommands take JSON spec files (rationals as "num/den" strings), run the
exact machinery, and emit either a human-readable report or, with --json, a
deterministic JSON document: sorted keys, two-space indent, no volatile
fields, so identical inputs give byte-identical output.  Every subcommand
writes its document through the one canonical writer ``_canonical_json``,
which gives the text of ``json.dumps(doc, indent=2, sort_keys=True)``
without the pure-Python encoder that ``indent`` selects.

Exit codes: 0 when the requested property holds or a verdict was computed,
1 when a checked property fails (the witness is in the report), 2 for input
errors (malformed JSON, bad rationals, unknown models) with the offending
position named, 3 for an internal error (any other exception), reported as
one ``internal error:`` line on stderr without a traceback.

Decimal renderings honor SHIFTLAB_PRECISION (significant digits, default
12, round-half-even).  They decorate reports only; no verdict ever reads
one.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .exactnum import ExactInputError, decimal_string, format_rational, parse_rational_field
from .measures import MeasureError
from .sfc import SFCError, classify, params_from_json, scan_csv_text, scan_region
# hankel_psd is not called here: it stays importable as cli.hankel_psd
# because certbench/spans.py wraps it at this module.
from .shift1d import ShiftError, hankel_psd, khypo_witness, weights_from_json
from .shift2d import (
    GridError,
    ShiftGrid2D,
    grid_from_json,
    joint_hyponormal_window,
    six_point_data,
    six_point_scan,
)

class CliInputError(ValueError):
    pass


INPUT_ERRORS = (CliInputError, ExactInputError, MeasureError, ShiftError, GridError, SFCError)


def _digits() -> int:
    raw = os.environ.get("SHIFTLAB_PRECISION", "12")
    try:
        digits = int(raw)
    except ValueError:
        raise CliInputError(f"SHIFTLAB_PRECISION: expected an integer, got {raw!r}")
    if digits < 1:
        raise CliInputError(f"SHIFTLAB_PRECISION: need at least 1 digit, got {digits}")
    # the limit format_rational enforces, or decimal's own when that is off;
    # larger values overflow the decimal context or exhaust memory
    limit = sys.get_int_max_str_digits() or decimal.MAX_PREC
    if digits > limit:
        raise CliInputError(f"SHIFTLAB_PRECISION: at most {limit} digits, got {digits}")
    return digits


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError:  # the only other failure: Python's int-to-string digit limit
        raise CliInputError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits")


def _canonical_json(value, newline: str = "\n", written: dict | None = None) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True) for the types
    reports hold: dicts with str keys, lists, tuples, str, int, bool, None.

    ``newline`` is the line break plus the indent of the enclosing level.
    ``written`` maps each container already written in this document, by
    identity and indent, to its text, so a subtree held twice (the shared
    cells of a sixpoint report) is written once."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    written = {} if written is None else written
    key = (id(value), newline)
    if key in written:
        return written[key]
    inner = newline + "  "
    if isinstance(value, dict):
        parts = [f"{encode_basestring_ascii(k)}: {_canonical_json(v, inner, written)}" for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        parts = [_canonical_json(v, inner, written) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    text = brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1] if parts else brackets
    written[key] = text
    return text


def _emit(args, doc: dict, human: list[str]) -> None:
    if getattr(args, "json", False):
        text = _canonical_json(doc) + "\n"
    else:
        text = "\n".join(human) + "\n"
    _write_out(getattr(args, "out", None), text)


def _write_out(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _rat_dec(value: Fraction, digits: int) -> dict:
    return {"rat": format_rational(value), "dec": decimal_string(value, digits)}


def _window_1d(args) -> int:
    window = args.window
    if window is None or len(window) != 1:
        raise CliInputError("this subcommand takes --window M (one value)")
    if window[0] < 1:
        raise CliInputError(f"--window must be at least 1, got {window[0]}")
    return window[0]


def _window_2d(args) -> tuple[int, int]:
    window = args.window
    if window is None or len(window) != 2:
        raise CliInputError("this subcommand takes --window M N (two values)")
    if min(window) < 1:
        raise CliInputError(f"--window values must be at least 1, got {window}")
    return window[0], window[1]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_moments(args) -> int:
    digits = _digits()
    w = weights_from_json(_load_json(args.spec), args.spec)
    up_to = _window_1d(args) if args.window is not None else 10
    gammas = w.gamma(up_to)
    doc = {
        "command": "moments",
        "window": up_to,
        "gamma": [_rat_dec(g, digits) for g in gammas],
    }
    human = [f"moments of {args.spec} through order {up_to}:"]
    for k, g in enumerate(gammas):
        human.append(f"  gamma[{k:3d}] = {format_rational(g):>16s}  ~ {decimal_string(g, digits)}")
    _emit(args, doc, human)
    return 0


def _cmd_check_hypo(args) -> int:
    window = _window_1d(args)
    witness = khypo_witness(weights_from_json(_load_json(args.spec), args.spec), 1, window - 1)
    doc = {
        "command": "check-hypo",
        "window": window,
        "verdict": witness is None,
        "witness": witness,
    }
    if witness is None:
        human = [f"hyponormal on window {window}: PASS"]
    else:
        human = [
            f"hyponormal on window {window}: FAIL",
            f"  weights decrease between positions {witness} and {witness + 1}",
        ]
    _emit(args, doc, human)
    return 0 if witness is None else 1


def _cmd_check_khypo(args) -> int:
    window = _window_1d(args)
    order = args.k
    if not 1 <= order <= 6:
        raise CliInputError(f"--k must be in 1..6, got {order}")
    witness = khypo_witness(weights_from_json(_load_json(args.spec), args.spec), order, window)
    doc = {
        "command": "check-khypo",
        "order": order,
        "window": window,
        "verdict": witness is None,
        "witness": witness,
    }
    if witness is None:
        human = [f"{order}-hyponormal on window {window}: PASS"]
    else:
        human = [
            f"{order}-hyponormal on window {window}: FAIL",
            f"  moment matrix of order {order} based at {witness} is not PSD",
        ]
    _emit(args, doc, human)
    return 0 if witness is None else 1


def _grid_from_path(path: str) -> ShiftGrid2D:
    return grid_from_json(_load_json(path), path)


def _cmd_sixpoint(args) -> int:
    digits = _digits()
    m, n = _window_2d(args)
    cells: dict[tuple[int, int], dict] = {}  # unreduced (num, den) -> its cell

    def cell(term: tuple[int, int]) -> dict:
        found = cells.get(term)
        if found is None:
            found = cells[term] = _rat_dec(Fraction(*term), digits)
        return found

    entries = []
    for k, data in six_point_scan(_grid_from_path(args.spec), m, n):
        a1, a2, p, q = map(cell, data.terms)
        entries.append({"k": list(k), "a1": a1, "a2": a2, "p": p, "q": q, "ok": data.ok})
    failures = [tuple(entry["k"]) for entry in entries if not entry["ok"]]
    verdict = not failures
    doc = {
        "command": "sixpoint",
        "window": [m, n],
        "verdict": verdict,
        "entries": entries,
    }
    human = [f"six-point test on [0,{m}] x [0,{n}]: {'PASS' if verdict else 'FAIL'}"]
    if failures:
        human.append(f"  failing indices: {', '.join(str(k) for k in failures)}")
    _emit(args, doc, human)
    return 0 if verdict else 1


def _cmd_joint(args) -> int:
    digits = _digits()
    m, n = _window_2d(args)
    grid = _grid_from_path(args.spec)
    report = joint_hyponormal_window(grid, m, n)
    doc = {"command": "joint", "report": report.to_json_obj()}
    human = [f"joint hyponormality on [0,{m}] x [0,{n}]: {'PASS' if report.verdict else 'FAIL'}"]
    if report.witness is not None:
        k, tag = report.witness
        data = six_point_data(grid, k)
        human.append(f"  witness {k} ({tag}):")
        for label, value in (("a1", data.a1), ("a2", data.a2), ("p", data.p), ("q", data.q)):
            human.append(
                f"    {label} = {format_rational(value)} ~ {decimal_string(value, digits)}"
            )
    _emit(args, doc, human)
    return 0 if report.verdict else 1


def _cmd_classify_sfc(args) -> int:
    digits = _digits()
    params = params_from_json(_load_json(args.spec), args.spec)
    result = classify(params)
    doc = {
        "command": "classify-sfc",
        "verdict": result.verdict,
        "y0_sq": _rat_dec(params.y0_sq, digits),
        "h_sq": _rat_dec(result.h_sq, digits),
        "s_sq": _rat_dec(result.s_sq, digits),
    }
    human = [
        f"classification: {result.verdict}",
        f"  y0_sq = {format_rational(params.y0_sq)} ~ {decimal_string(params.y0_sq, digits)}",
        f"  h_sq  = {format_rational(result.h_sq)} ~ {decimal_string(result.h_sq, digits)}",
        f"  s_sq  = {format_rational(result.s_sq)} ~ {decimal_string(result.s_sq, digits)}",
    ]
    _emit(args, doc, human)
    return 0


def _cmd_scan(args) -> int:
    digits = _digits()
    if args.lo is None or args.hi is None:
        raise CliInputError("scan needs --lo and --hi")
    lo = parse_rational_field(args.lo, "--lo", CliInputError)
    hi = parse_rational_field(args.hi, "--hi", CliInputError)
    if args.steps < 2:
        raise CliInputError(f"--steps must be at least 2, got {args.steps}")
    rows = scan_region(lo, hi, args.steps)
    _write_out(args.out, scan_csv_text(rows, digits))
    return 0


def _cmd_verify_paper(args) -> int:
    from .verifysuite import run_all

    results = run_all()
    verdict = all(ok for _, ok in results)
    doc = {
        "command": "verify-paper",
        "verdict": verdict,
        "checks": [{"name": name, "pass": ok} for name, ok in results],
    }
    width = max(len(name) for name, _ in results)
    human = ["verification suite:"]
    for name, ok in results:
        human.append(f"  {name:<{width}s}  {'PASS' if ok else 'FAIL'}")
    human.append(f"{sum(ok for _, ok in results)}/{len(results)} checks passed")
    _emit(args, doc, human)
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every call; parse_args leaves it unchanged and
    returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Exact certificates for weighted-shift positivity and classification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, spec=True):
        if spec:
            p.add_argument("spec", help="path to a JSON spec file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p = sub.add_parser("moments", help="moment table of a 1-variable shift")
    add_common(p)
    p.add_argument("--window", type=int, nargs="+", help="highest order to print (default 10)")

    p = sub.add_parser("check-hypo", help="hyponormality of a 1-variable shift")
    add_common(p)
    p.add_argument("--window", type=int, nargs="+", help="window M")

    p = sub.add_parser("check-khypo", help="k-hyponormality of a 1-variable shift")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="order, 1..6")
    p.add_argument("--window", type=int, nargs="+", help="window M")

    p = sub.add_parser("sixpoint", help="per-index six-point data on a window")
    add_common(p)
    p.add_argument("--window", type=int, nargs="+", help="window M N")

    p = sub.add_parser("joint", help="joint hyponormality of a 2-variable shift on a window")
    add_common(p)
    p.add_argument("--window", type=int, nargs="+", help="window M N")

    p = sub.add_parser("classify-sfc", help="three-way classification of a flat contractive pair")
    add_common(p)

    p = sub.add_parser("scan", help="threshold scan CSV over an a_sq window")
    p.add_argument("--lo", help="left endpoint (rational)")
    p.add_argument("--hi", help="right endpoint (rational)")
    p.add_argument("--steps", type=int, default=2, help="number of samples, endpoints included")
    p.add_argument("--out", help="write the CSV to this path instead of stdout")

    p = sub.add_parser("verify-paper", help="run the full verification suite")
    add_common(p, spec=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name at each call: the cached parser holds no handler
    command = globals()["_cmd_" + args.subcommand.replace("-", "_")]
    try:
        return command(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "witness found", so a fault in shiftlab itself gets
        # its own code instead of passing for a verdict.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
