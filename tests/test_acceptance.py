"""Acceptance gate: ten numbered criteria, one test each.

Each test is a self-contained re-derivation of the claimed numbers; nothing
here trusts the verification suite, which covers the same ground through the
CLI.  Every expected constant was fixed before the implementation existed.
"""

import json
import random
from decimal import Decimal, getcontext
from fractions import Fraction

from shiftlab.cli import main
from shiftlab.exactnum import matrix_det, psd2_radical_cross
from shiftlab.measures import combine1d, delta, density, extremal, lebesgue, make1d, make2d
from shiftlab.sfc import (
    classify,
    example_family,
    h_threshold_sq,
    s_threshold_sq,
    sfc_backward_extension,
    sfc_grid,
    sfc_mu_m,
)
from shiftlab.shift1d import (
    WeightTail,
    alpha_family,
    alpha_family_reciprocal_product,
    bergman_like,
    bergman_like_hankel2_det,
    beta_family_reciprocal_product,
    beta_r_family,
    flat_shift,
    hankel_matrix,
    make_weights,
    propagation_audit,
    verify_berger,
)
from shiftlab.shift2d import (
    build_figure5,
    build_figure9,
    build_totallyflat,
    figure9_subnormality,
    gamma2,
    gamma2_up_first,
    joint_hyponormal_window,
    propagation_consequences,
)

F = Fraction


def test_criterion_01_closed_form_determinants():
    instances = 0
    for ell in range(1, 6):
        w = bergman_like(ell)
        gammas = w.gamma(50)
        for k in range(51):
            closed = bergman_like_hankel2_det(ell, k, gammas[k])
            assert closed == matrix_det(hankel_matrix(w, 2, k))
            instances += 1
    assert instances == 255
    assert bergman_like_hankel2_det(1, 0, F(1)) == F(1, 2160)


def test_criterion_02_berger_measures_to_order_30():
    assert verify_berger(bergman_like(1), lebesgue(), 30)
    for r_sq in (F(1, 4), F(1, 2), F(1)):
        w = beta_r_family(r_sq)
        eta = combine1d(
            [
                (1 - r_sq, delta(F(0))),
                (r_sq / 2, lebesgue()),
                (r_sq / 2, delta(F(1))),
            ]
        )
        assert verify_berger(w, eta, 30)
        gammas = w.gamma(30)
        for n in range(1, 31):
            assert gammas[n] == F(n + 2) * r_sq / (2 * (n + 1))
    xi = make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
    assert verify_berger(alpha_family(), xi, 30)
    for a_sq in (F(1, 4), F(1, 2)):
        two_atoms = make1d([(F(0), 1 - a_sq), (F(1), a_sq)])
        assert verify_berger(flat_shift(a_sq), two_atoms, 30)


def test_criterion_03_telescoping_products():
    for n in range(1, 201):
        assert beta_family_reciprocal_product(n) == F(3 * (n + 2), 2 * (n + 3))
    previous = F(0)
    for n in range(1, 26):
        value = alpha_family_reciprocal_product(n)
        assert value > previous
        previous = value
    assert abs(previous - 3) < F(1, 10**6)


def test_criterion_04_flat_boundary_thresholds():
    grid_pass, report_pass = build_figure5(2, F(1, 4), F(7, 3240))
    assert joint_hyponormal_window(grid_pass, 30, 10).verdict
    assert report_pass.verdict
    _, report_fail = build_figure5(2, F(1, 4), F(1, 400))
    assert not report_fail.verdict
    assert report_fail.witness is not None and report_fail.witness[0] == (0, 0)
    assert report_fail.condition("beta2").values["f_at_1"] == F(742, 40765)
    assert report_fail.condition("condition2b").values["g_at_1"] == F(27, 5)


def test_criterion_05_optimal_extension():
    accepted = figure9_subnormality(F(1, 3))
    assert accepted.ok and accepted.failed is None
    rejected = figure9_subnormality(F(1, 2))
    assert not rejected.ok and rejected.failed == "iii"
    assert joint_hyponormal_window(build_figure9(F(1, 3)), 20, 10).verdict


def test_criterion_06_propagation_witness():
    w = make_weights((F(1, 4), F(1, 4)), WeightTail("constant", F(1)))
    result = propagation_audit(w, 4, 10)
    assert result.kind == "WITNESS"
    assert (result.order, result.base) == (2, 0)
    assert matrix_det(hankel_matrix(w, 2, 0)) == F(-9, 4096)


def test_criterion_07_threshold_closed_forms():
    samples = [F(1, 6) + F(1, 3) * i / 100 for i in range(1, 101)]
    assert samples[-1] == F(1, 2)
    for a_sq in samples:
        p = example_family(a_sq, F(1))
        h_sq = h_threshold_sq(p)
        s_sq = s_threshold_sq(p)
        assert h_sq == F(8) / (9 * (1 + 6 * (a_sq - F(1, 2)) ** 2))
        assert s_sq == 1 / (4 - 3 * a_sq)
        assert h_sq > s_sq
    assert h_threshold_sq(example_family(F(1, 2), F(1))) == F(8, 9)
    assert s_threshold_sq(example_family(F(1, 2), F(1))) == F(2, 5)
    eps = F(1, 10**6)
    assert classify(example_family(F(1, 2), F(1), F(2, 5))).verdict == "Subnormal"
    assert (
        classify(example_family(F(1, 2), F(1), F(2, 5) + eps)).verdict
        == "HyponormalNotSubnormal"
    )
    assert (
        classify(example_family(F(1, 2), F(1), F(8, 9))).verdict == "HyponormalNotSubnormal"
    )
    assert classify(example_family(F(1, 2), F(1), F(8, 9) + eps)).verdict == "NotHyponormal"


def test_criterion_08_cross_oracle_consistency():
    points = [
        (F(1, 2), F(1, 10)),
        (F(1, 2), F(1, 4)),
        (F(1, 2), F(3, 8)),
        (F(1, 2), F(2, 5)),
        (F(1, 2), F(12, 25)),
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(3, 5)),
        (F(1, 2), F(2, 3)),
        (F(1, 2), F(229, 256)),
        (F(1, 2), F(9, 10)),
        (F(1, 2), F(1)),
        (F(1, 3), F(1, 5)),
        (F(1, 3), F(1, 3)),
        (F(1, 3), F(1, 2)),
        (F(1, 3), F(16, 21)),
        (F(1, 3), F(4, 5)),
        (F(1, 4), F(4, 13)),
        (F(1, 4), F(2, 5)),
        (F(1, 4), F(3, 4)),
        (F(5, 12), F(7, 10)),
    ]
    assert len(points) == 20
    for a_sq, y0_sq in points:
        p = example_family(a_sq, F(1), y0_sq)
        verdict = classify(p).verdict
        window_ok = joint_hyponormal_window(sfc_grid(p), 25, 8).verdict
        assert window_ok == (verdict != "NotHyponormal"), (a_sq, y0_sq)
        assert sfc_backward_extension(p).ok == (verdict == "Subnormal"), (a_sq, y0_sq)


def test_criterion_09_property_suites():
    rng = random.Random(0)
    grids = [
        build_figure9(F(1, 3)),
        build_figure5(2, F(1, 4))[0],
        sfc_grid(example_family(F(1, 2), F(16, 25))),
        build_totallyflat(alpha_family(), F(1, 8)),
    ]
    for grid in grids:
        for _ in range(200):
            k = (rng.randrange(0, 26), rng.randrange(0, 26))
            assert gamma2(grid, k) == gamma2_up_first(grid, k)

    # on hyponormal grids every equal-alpha pair carries equal betas
    for grid in grids[:3]:
        assert propagation_consequences(grid, 15, 8).violations == ()

    getcontext().prec = 50
    checked = 0
    for _ in range(1000):
        a1 = F(rng.randrange(0, 300), rng.randrange(1, 100))
        a2 = F(rng.randrange(0, 300), rng.randrange(1, 100))
        p = F(rng.randrange(0, 200), rng.randrange(1, 100))
        q = F(rng.randrange(0, 200), rng.randrange(1, 100))
        exact = psd2_radical_cross(a1, a2, p, q)
        da1 = Decimal(a1.numerator) / a1.denominator
        da2 = Decimal(a2.numerator) / a2.denominator
        margin = da1 * da2 - (
            (Decimal(p.numerator) / p.denominator).sqrt()
            - (Decimal(q.numerator) / q.denominator).sqrt()
        ) ** 2
        if abs(margin) > Decimal("1e-30"):
            assert exact == (margin >= 0), (a1, a2, p, q)
            checked += 1
    assert checked > 900

    corner = make2d(
        [(F(1), make1d([(F(0), F(1)), (F(1), F(1))]), density([F(0), F(1)]))]
    )
    for mu in (corner, sfc_mu_m(example_family(F(1, 2), F(16, 25)))):
        assert extremal(mu).total_mass() == 1


def test_criterion_10_scan_artifact(tmp_path):
    target = tmp_path / "scan.csv"
    code = main(
        ["scan", "--lo", "1/6+1/100", "--hi", "1/2", "--steps", "50", "--out", str(target)]
    )
    assert code == 0
    lines = target.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "a_sq,h_sq,s_sq,h_dec,s_dec,gap_dec"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 50
    h_dec = [Decimal(r[3]) for r in rows]
    s_dec = [Decimal(r[4]) for r in rows]
    gap_dec = [Decimal(r[5]) for r in rows]
    assert all(a <= b for a, b in zip(h_dec, h_dec[1:]))
    assert all(a <= b for a, b in zip(s_dec, s_dec[1:]))
    assert all(h > s for h, s in zip(h_dec, s_dec))
    assert all(g > 0 for g in gap_dec)
    # the exact columns are strictly monotone even where decimals tie
    h_rat = [F(r[1]) for r in rows]
    assert all(a < b for a, b in zip(h_rat, h_rat[1:]))
