"""The named end-to-end checks behind the `verify-paper` subcommand.

Each check re-derives one headline quantity or verdict from scratch through
the public machinery and compares it against its independently known exact
value.  A fresh seeded RNG keeps the randomized checks deterministic run to
run, so the emitted table is reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .exactnum import matrix_det
from .measures import Measure1D, combine1d, delta, density, extremal, lebesgue, make1d, make2d
from .sfc import (
    classify,
    example_family,
    h_threshold_sq,
    s_threshold_sq,
    scan_csv_text,
    scan_region,
    sfc_backward_extension,
    sfc_grid,
)
from .shift1d import (
    alpha_family,
    alpha_family_reciprocal_product,
    bergman_like,
    bergman_like_hankel2_det,
    beta_family_reciprocal_product,
    beta_r_family,
    flat_shift,
    hankel_matrix,
    khypo_witness,
    make_weights,
    propagation_audit,
    verify_berger,
    WeightTail,
)
from .shift2d import (
    build_figure5,
    build_figure9,
    build_totallyflat,
    figure5_f,
    figure5_g,
    figure9_subnormality,
    gamma2,
    gamma2_up_first,
    joint_hyponormal_window,
    propagation_consequences,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _three_atoms() -> Measure1D:
    return make1d([(Fraction(0), THIRD), (HALF, THIRD), (Fraction(1), THIRD)])


def check_hankel2_closed_form_det() -> bool:
    for ell in range(1, 6):
        w = bergman_like(ell)
        gammas = w.gamma(60)
        for k in range(51):
            if matrix_det(hankel_matrix(w, 2, k)) != bergman_like_hankel2_det(ell, k, gammas[k]):
                return False
    return bergman_like_hankel2_det(1, 0, Fraction(1)) == Fraction(1, 2160)


def check_hankel2_closed_form_positive() -> bool:
    for ell in range(1, 6):
        w = bergman_like(ell)
        gammas = w.gamma(60)
        for k in range(51):
            if bergman_like_hankel2_det(ell, k, gammas[k]) <= 0:
                return False
        if khypo_witness(w, 2, 10) is not None:
            return False
    return True


def check_berger_bergman_lebesgue() -> bool:
    return verify_berger(bergman_like(1), lebesgue(), 30)


def check_berger_two_atom_family() -> bool:
    for a_sq in (Fraction(1, 4), HALF):
        mu = make1d([(Fraction(0), 1 - a_sq), (Fraction(1), a_sq)])
        if not verify_berger(flat_shift(a_sq), mu, 30):
            return False
    return True


def check_berger_three_atom_family() -> bool:
    return verify_berger(alpha_family(), _three_atoms(), 30)


def check_berger_beta_r_family() -> bool:
    for r_sq in (Fraction(1, 4), HALF, Fraction(1)):
        mu = combine1d(
            [
                (1 - r_sq, delta(Fraction(0))),
                (r_sq / 2, lebesgue()),
                (r_sq / 2, delta(Fraction(1))),
            ]
        )
        if not verify_berger(beta_r_family(r_sq), mu, 30):
            return False
        gammas = beta_r_family(r_sq).gamma(30)
        for n in range(1, 31):
            if gammas[n] != Fraction((n + 2), 2 * (n + 1)) * r_sq:
                return False
    return True


def check_reciprocal_product_closed_form() -> bool:
    return all(
        beta_family_reciprocal_product(n) == Fraction(3 * (n + 2), 2 * (n + 3))
        for n in range(1, 201)
    )


def check_reciprocal_product_limit() -> bool:
    prev = Fraction(0)
    for n in range(1, 26):
        value = alpha_family_reciprocal_product(n)
        if value <= prev:
            return False
        prev = value
    return abs(prev - 3) < Fraction(1, 10**6)


def check_row_grid_window_pass() -> bool:
    grid, report = build_figure5(2, Fraction(1, 4), Fraction(7, 3240))
    if not report.verdict:
        return False
    return joint_hyponormal_window(grid, 30, 10).verdict


def check_row_grid_report_bounds() -> bool:
    if figure5_f(1) != Fraction(742, 40765) or figure5_g(1) != Fraction(27, 5):
        return False
    _, report = build_figure5(2, Fraction(1, 4), Fraction(1, 400))
    return (
        not report.verdict
        and report.witness == ((0, 0), "beta1")
        and report.condition("beta2").values["f_at_1"] == Fraction(742, 40765)
        and report.condition("condition2b").values["g_at_1"] == Fraction(27, 5)
    )


def check_optimal_extension_accept() -> bool:
    result = figure9_subnormality(THIRD)
    return result.ok and result.measure is not None and result.measure.is_probability()


def check_optimal_extension_reject() -> bool:
    result = figure9_subnormality(HALF)
    return (not result.ok) and result.failed == "iii"


def check_optimal_extension_window() -> bool:
    return joint_hyponormal_window(build_figure9(THIRD), 20, 10).verdict


def check_propagation_witness() -> bool:
    w = make_weights((Fraction(1, 4), Fraction(1, 4)), WeightTail("constant", Fraction(1)))
    audit = propagation_audit(w, 2, 10)
    return (
        audit.kind == "WITNESS"
        and audit.order == 2
        and audit.base == 0
        and matrix_det(hankel_matrix(w, 2, 0)) == Fraction(-9, 4096)
    )


def _closed_h(a_sq: Fraction) -> Fraction:
    return Fraction(8, 9) / (1 + 6 * (a_sq - HALF) ** 2)


def _closed_s(a_sq: Fraction) -> Fraction:
    return 1 / (4 - 3 * a_sq)


def check_threshold_closed_forms() -> bool:
    span = HALF - Fraction(1, 6)
    for i in range(1, 101):
        a_sq = Fraction(1, 6) + span * i / 100
        params = example_family(a_sq, Fraction(1))
        h_sq = h_threshold_sq(params)
        s_sq = s_threshold_sq(params)
        if h_sq != _closed_h(a_sq) or s_sq != _closed_s(a_sq) or h_sq <= s_sq:
            return False
    return True


def check_threshold_endpoints() -> bool:
    params = example_family(HALF, Fraction(1))
    return h_threshold_sq(params) == Fraction(8, 9) and s_threshold_sq(params) == Fraction(2, 5)


def check_classification_transitions() -> bool:
    eps = Fraction(1, 1000)
    cases = [
        (Fraction(2, 5), "Subnormal"),
        (Fraction(2, 5) + eps, "HyponormalNotSubnormal"),
        (Fraction(8, 9), "HyponormalNotSubnormal"),
        (Fraction(8, 9) + eps, "NotHyponormal"),
        (Fraction(12, 25), "HyponormalNotSubnormal"),
        (Fraction(1, 4), "Subnormal"),
        (Fraction(9, 10), "NotHyponormal"),
    ]
    for y0_sq, expected in cases:
        params = example_family(HALF, Fraction(1), y0_sq=y0_sq)
        if classify(params).verdict != expected:
            return False
    return True


CROSS_ORACLE_POINTS: list[tuple[Fraction, Fraction]] = [
    (HALF, Fraction(1, 10)),
    (HALF, Fraction(1, 4)),
    (HALF, Fraction(3, 8)),
    (HALF, Fraction(2, 5)),
    (HALF, Fraction(12, 25)),
    (HALF, HALF),
    (HALF, Fraction(3, 5)),
    (HALF, Fraction(2, 3)),
    (HALF, Fraction(229, 256)),
    (HALF, Fraction(9, 10)),
    (HALF, Fraction(1)),
    (THIRD, Fraction(1, 5)),
    (THIRD, THIRD),
    (THIRD, HALF),
    (THIRD, Fraction(16, 21)),
    (THIRD, Fraction(4, 5)),
    (Fraction(1, 4), Fraction(4, 13)),
    (Fraction(1, 4), Fraction(2, 5)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(5, 12), Fraction(7, 10)),
]


def check_cross_oracle_consistency() -> bool:
    for a_sq, y0_sq in CROSS_ORACLE_POINTS:
        params = example_family(a_sq, Fraction(1), y0_sq=y0_sq)
        verdict = classify(params).verdict
        window_ok = joint_hyponormal_window(sfc_grid(params), 25, 8).verdict
        if window_ok != (verdict in ("Subnormal", "HyponormalNotSubnormal")):
            return False
        if sfc_backward_extension(params).ok != (verdict == "Subnormal"):
            return False
    return True


def check_path_independence() -> bool:
    rng = random.Random(0)
    grids = [
        build_figure9(THIRD),
        build_figure5(2, Fraction(1, 4))[0],
        sfc_grid(example_family(HALF, Fraction(16, 25))),
        build_totallyflat(alpha_family(), Fraction(1, 8)),
    ]
    for grid in grids:
        for _ in range(200):
            k = (rng.randrange(0, 26), rng.randrange(0, 26))
            if gamma2(grid, k) != gamma2_up_first(grid, k):
                return False
    report = propagation_consequences(build_figure9(THIRD), 15, 8)
    if report.violations:
        return False
    bad = build_totallyflat(
        make_weights((HALF, HALF), WeightTail("constant", Fraction(1))), Fraction(1, 8)
    )
    bad_report = propagation_consequences(bad, 10, 4)
    if not bad_report.violations:
        return False
    if any(entry.six_point_ok for entry in bad_report.violations):
        return False
    s_part = make1d([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))])
    mu = make2d([(Fraction(1), s_part, density([Fraction(0), Fraction(1)]))])
    return extremal(mu).total_mass() == 1


def check_scan_csv_shape() -> bool:
    rows = scan_region(Fraction(1, 6) + Fraction(1, 100), HALF, 50)
    if len(rows) != 50:
        return False
    for prev, cur in zip(rows, rows[1:]):
        if not (cur.h_sq > prev.h_sq and cur.s_sq > prev.s_sq):
            return False
    if any(row.gap_sq <= 0 for row in rows):
        return False
    text = scan_csv_text(rows, 12)
    lines = text.strip().split("\n")
    return len(lines) == 51 and lines[0] == "a_sq,h_sq,s_sq,h_dec,s_dec,gap_dec"


CHECKS: list[tuple[str, Callable[[], bool]]] = [
    ("hankel2-closed-form-det", check_hankel2_closed_form_det),
    ("hankel2-closed-form-positive", check_hankel2_closed_form_positive),
    ("berger-bergman-lebesgue", check_berger_bergman_lebesgue),
    ("berger-two-atom-family", check_berger_two_atom_family),
    ("berger-three-atom-family", check_berger_three_atom_family),
    ("berger-beta-r-family", check_berger_beta_r_family),
    ("reciprocal-product-closed-form", check_reciprocal_product_closed_form),
    ("reciprocal-product-limit", check_reciprocal_product_limit),
    ("row-grid-window-pass", check_row_grid_window_pass),
    ("row-grid-report-bounds", check_row_grid_report_bounds),
    ("optimal-extension-accept", check_optimal_extension_accept),
    ("optimal-extension-reject", check_optimal_extension_reject),
    ("optimal-extension-window", check_optimal_extension_window),
    ("propagation-witness", check_propagation_witness),
    ("threshold-closed-forms", check_threshold_closed_forms),
    ("threshold-endpoints", check_threshold_endpoints),
    ("classification-transitions", check_classification_transitions),
    ("cross-oracle-consistency", check_cross_oracle_consistency),
    ("path-independence", check_path_independence),
    ("scan-csv-shape", check_scan_csv_shape),
]


def run_all() -> list[tuple[str, bool]]:
    return [(name, bool(fn())) for name, fn in CHECKS]
