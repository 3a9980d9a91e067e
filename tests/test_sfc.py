"""Corner-weight classification for symmetrically flat contractive grids."""

import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.measures import combine1d, delta, density, lebesgue, make1d
from shiftlab.sfc import (
    WINDOW_HI,
    WINDOW_LO,
    Classification,
    SFCError,
    classify,
    example_family,
    example_family_measures,
    h_threshold_sq,
    make_params,
    params_from_json,
    s_threshold_sq,
    scan_region,
    sfc_backward_extension,
    sfc_grid,
    sfc_mu_m,
)
from shiftlab.shift2d import check_commuting, grid_from_json, joint_hyponormal_window, window_indices

F = Fraction


def three_atoms():
    return make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])


def half_density_half_atom():
    """(1/2) dt + (1/2) delta_1; restricts to the standard column measure."""
    return combine1d([(F(1, 2), lebesgue()), (F(1, 2), delta(F(1)))])


def closed_h(a_sq):
    return F(8) / (9 * (1 + 6 * (a_sq - F(1, 2)) ** 2))


def closed_s(a_sq):
    return 1 / (4 - 3 * a_sq)


# ---------------------------------------------------------------------------
# derived parameters


def test_family_derived_values():
    for a_sq, r_sq in ((F(1, 2), F(16, 25)), (F(1, 3), F(1)), (F(1, 4), F(1, 2))):
        p = example_family(a_sq, r_sq)
        assert p.x0_sq == F(1, 2)
        assert p.x1_sq == F(5, 6)
        assert p.y1_sq == F(8, 9)
        assert p.inv_t_norm == F(4, 3)
        assert p.y0_sq == F(3, 4) * r_sq
        assert p.xi_at_zero == p.xi_at_one == F(1, 3)


def test_family_window_is_enforced():
    with pytest.raises(SFCError):
        example_family(F(1, 6), F(1))
    with pytest.raises(SFCError):
        example_family(F(51, 100), F(1))
    with pytest.raises(SFCError):
        example_family(F(1, 3), F(0))
    with pytest.raises(SFCError):
        example_family(F(1, 3), F(3, 2))
    assert WINDOW_LO == F(1, 6) and WINDOW_HI == F(1, 2)


def test_make_params_validation():
    eta = half_density_half_atom()
    heavy = make1d([(F(0), F(1)), (F(1), F(1))])
    with pytest.raises(SFCError):
        make_params(heavy, eta, F(1, 2), F(1, 2))
    with pytest.raises(SFCError):
        make_params(three_atoms(), eta, F(0), F(1, 2))
    with pytest.raises(SFCError):
        make_params(three_atoms(), eta, F(1, 2), F(3, 2))
    with pytest.raises(SFCError):
        make_params(delta(F(0)), eta, F(1, 2), F(1, 2))
    with pytest.raises(SFCError):
        make_params(delta(F(2)), eta, F(1, 2), F(1, 2))
    # support past 1 once got a verdict: the level-0 weight at k = 5 is 956093/945880
    past_one = make1d([(F(1, 2), F(9, 10)), (F(11, 10), F(1, 10))])
    two_atoms = make1d([(F(0), F(1, 2)), (F(1), F(1, 2))])
    with pytest.raises(SFCError, match=r"^xi must live on \[0, 1\], its support reaches 11/10$"):
        make_params(past_one, two_atoms, F(1, 2), F(1, 10))
    with pytest.raises(SFCError, match=r"^eta must live on \[0, 1\], its support reaches 11/10$"):
        make_params(three_atoms(), past_one, F(1, 2), F(1, 10))
    with pytest.raises(SFCError, match=r"^eta must live on \[0, 1\], its support reaches 2$"):
        make_params(three_atoms(), density([F(1, 2)], F(0), F(2)), F(1, 2), F(1, 10))


def test_column_measure_concentrated_at_zero_is_an_sfc_error():
    with pytest.raises(SFCError, match="^measure concentrated at 0: degenerate restriction$"):
        make_params(three_atoms(), delta(F(0)), F(1, 2), F(1, 2))


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_table():
    table = {
        F(1, 2): (F(8, 9), F(2, 5)),
        F(1, 3): (F(16, 21), F(1, 3)),
        F(1, 4): (F(64, 99), F(4, 13)),
        F(5, 12): (F(64, 75), F(4, 11)),
    }
    for a_sq, (h_sq, s_sq) in table.items():
        p = example_family(a_sq, F(1))
        assert h_threshold_sq(p) == h_sq == closed_h(a_sq)
        assert s_threshold_sq(p) == s_sq == closed_s(a_sq)
        assert s_sq < h_sq


def test_threshold_at_window_edge():
    # the lower endpoint itself is outside the family window but the
    # threshold formulas still evaluate there
    p = make_params(three_atoms(), half_density_half_atom(), F(1, 6), F(1, 2))
    assert h_threshold_sq(p) == F(8, 15) == closed_h(F(1, 6))
    assert s_threshold_sq(p) == closed_s(F(1, 6)) == F(2, 7)


def test_threshold_when_a_matches_level_weight():
    p = example_family(F(1, 2), F(16, 25))
    assert p.a_sq == p.x0_sq
    assert h_threshold_sq(p) == p.y1_sq


def test_degenerate_level_thresholds():
    eta = half_density_half_atom()
    collapsed = make_params(delta(F(1, 2)), eta, F(1, 4), F(1, 2))
    assert h_threshold_sq(collapsed) == 0
    assert s_threshold_sq(collapsed) == 0
    undefined = make_params(delta(F(1, 2)), eta, F(1, 2), F(1, 2))
    with pytest.raises(SFCError):
        h_threshold_sq(undefined)


def test_degenerate_column_norm():
    # eta1 = delta_1 with a_sq = 1 gives inv_t_norm = a_sq: the zero-atom
    # constraint is vacuous, so s_sq = xi({1}) / a_sq, and the backward
    # extension exists just where the verdict is Subnormal
    two_atoms = make1d([(F(0), F(1, 2)), (F(1), F(1, 2))])
    spread = combine1d([(F(1, 2), lebesgue()), (F(1, 4), delta(F(0))), (F(1, 4), delta(F(1)))])
    for xi in (three_atoms(), two_atoms, spread):
        for y0_sq in (F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(1)):
            p = make_params(xi, delta(F(1)), F(1), y0_sq)
            assert p.inv_t_norm == p.a_sq == 1
            assert s_threshold_sq(p) == xi.atom_mass(F(1))
            subnormal = classify(p).verdict == "Subnormal"
            assert subnormal == sfc_backward_extension(p).ok == (y0_sq <= xi.atom_mass(F(1)))


# ---------------------------------------------------------------------------
# classification


def test_classification_trichotomy():
    subnormal = classify(example_family(F(1, 2), F(1), F(1, 4)))
    assert subnormal.verdict == "Subnormal"
    middle = classify(example_family(F(1, 2), F(16, 25)))
    assert middle == Classification("HyponormalNotSubnormal", F(8, 9), F(2, 5))
    extreme = classify(example_family(F(1, 2), F(1), F(9, 10)))
    assert extreme.verdict == "NotHyponormal"


def test_classification_boundaries_are_inclusive():
    at_s = classify(example_family(F(1, 2), F(1), F(2, 5)))
    assert at_s.verdict == "Subnormal"
    at_h = classify(example_family(F(1, 2), F(1), F(8, 9)))
    assert at_h.verdict == "HyponormalNotSubnormal"
    above_h = classify(example_family(F(1, 2), F(1), F(8, 9) + F(1, 1000)))
    assert above_h.verdict == "NotHyponormal"


@given(
    a_sq=st.fractions(min_value=F(17, 100), max_value=F(1, 2)),
    y0_sq=st.fractions(min_value=F(1, 100), max_value=1),
)
@settings(max_examples=120)
def test_classification_matches_threshold_comparison(a_sq, y0_sq):
    p = example_family(a_sq, F(1), y0_sq)
    out = classify(p)
    assert out.h_sq == closed_h(a_sq)
    assert out.s_sq == closed_s(a_sq)
    assert out.s_sq < out.h_sq
    if y0_sq <= out.s_sq:
        assert out.verdict == "Subnormal"
    elif y0_sq <= out.h_sq:
        assert out.verdict == "HyponormalNotSubnormal"
    else:
        assert out.verdict == "NotHyponormal"


# ---------------------------------------------------------------------------
# cross-checks against the measure calculus and the grid scan


def test_restriction_measure_structure():
    p = example_family(F(1, 2), F(16, 25))
    mu_m = sfc_mu_m(p)
    assert mu_m.is_probability()
    assert mu_m.inv_t_norm() == F(4, 3)
    assert mu_m.moment(1, 1) == F(1, 2)
    assert mu_m.moment(0, 1) == p.y1_sq == F(8, 9)


def test_restriction_measure_needs_corner_mass():
    p = make_params(three_atoms(), half_density_half_atom(), F(3, 4), F(1, 3))
    with pytest.raises(SFCError):
        sfc_mu_m(p)


def test_backward_extension_agrees_with_classification():
    for a_sq in (F(1, 2), F(1, 3)):
        for y0_sq in (F(1, 5), F(1, 3), F(2, 5), F(12, 25), F(8, 9)):
            p = example_family(a_sq, F(1), y0_sq)
            result = sfc_backward_extension(p)
            assert result.ok == (classify(p).verdict == "Subnormal")


def test_named_thresholds_versus_window_scan():
    # the corner threshold keeps the (0,0) test honest, but a finite window
    # scan also sees the neighbouring six-point tests, which can be tighter
    agree = example_family(F(5, 12), F(1), F(4, 5))
    assert classify(agree).verdict == "HyponormalNotSubnormal"
    assert joint_hyponormal_window(sfc_grid(agree), 25, 8).verdict

    tighter = example_family(F(5, 12), F(1), F(13, 16))
    assert classify(tighter).verdict == "HyponormalNotSubnormal"
    report = joint_hyponormal_window(sfc_grid(tighter), 25, 8)
    assert not report.verdict
    assert report.witness == ((1, 0), "six_point")


def test_column_contraction_breach_is_not_hyponormal():
    # eta1 = 2t dt has no atom at 1, so a_sq = 2/5 breaks the column-0
    # contraction although y0_sq sits below both thresholds
    eta = combine1d([(F(1, 2), delta(F(0))), (F(1, 2), lebesgue())])
    p = make_params(three_atoms(), eta, F(2, 5), F(1, 100))
    assert classify(p) == Classification("NotHyponormal", F(100, 159), F(5, 24))
    assert joint_hyponormal_window(sfc_grid(p), 4, 4).witness == ((0, 1), "six_point")
    with pytest.raises(SFCError, match="^eta1 must dominate the atom of mass a_sq at 1"):
        sfc_backward_extension(p)


def _random_unit_measure(rng, at_zero, at_one):
    """A probability measure on [0, 1]: atoms (optionally at 0 and 1) plus
    nonnegative polynomial pieces, or None when the draw has no mass."""
    points = {F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))}
    points |= {x for x, wanted in ((F(0), at_zero), (F(1), at_one)) if wanted}
    atoms = [(x, F(rng.randint(1, 8), 4)) for x in sorted(points)]
    edges = sorted({F(rng.randint(0, 8), 8) for _ in range(rng.randint(2, 3))})
    pieces = [([F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 3))], lo, hi) for lo, hi in zip(edges, edges[1:])]
    raw = make1d(atoms, [piece for piece in pieces if any(piece[0])])
    return raw.scale(1 / raw.total_mass()) if raw.total_mass() else None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_column_guard_verdicts_fail_the_window_scan(seed):
    # level k2 = depth + 1, the first whose weight a_sq / m_depth exceeds 1,
    # bounds the window; about 95 pairs a seed fire the guard, and depth
    # reaches 47 on these draws
    rng = random.Random(seed)
    fired = 0
    for _ in range(150):
        xi = _random_unit_measure(rng, rng.random() < 0.7, rng.random() < 0.7)
        eta = _random_unit_measure(rng, rng.random() < 0.5, rng.random() < 0.5)
        if xi is None or eta is None:
            continue
        try:
            p = make_params(xi, eta, F(rng.randint(1, 12), 12), F(rng.randint(1, 12), 12))
            verdict = classify(p).verdict
        except SFCError:
            continue
        if p.a_sq <= p.eta1.atom_mass(F(1)):
            continue
        fired += 1
        assert verdict == "NotHyponormal"
        depth = next(k for k in count() if p.a_sq > p.eta1.moment(k))
        report = joint_hyponormal_window(sfc_grid(p), 2, depth + 1)
        assert not report.verdict, (p, depth)
    assert fired >= 80


# ---------------------------------------------------------------------------
# scans and the moment-domination check


def test_scan_region_endpoints():
    rows = scan_region(F(1, 3), F(1, 2), 2)
    assert [(r.a_sq, r.h_sq, r.s_sq) for r in rows] == [
        (F(1, 3), F(16, 21), F(1, 3)),
        (F(1, 2), F(8, 9), F(2, 5)),
    ]
    assert rows[0].gap_sq == F(3, 7)


def test_scan_region_closed_forms():
    rows = scan_region(F(1, 4), F(1, 2), 3)
    assert [r.a_sq for r in rows] == [F(1, 4), F(3, 8), F(1, 2)]
    for row in rows:
        assert row.h_sq == closed_h(row.a_sq)
        assert row.s_sq == closed_s(row.a_sq)
        assert row.gap_sq > 0


def test_scan_region_validation():
    with pytest.raises(SFCError):
        scan_region(F(1, 3), F(1, 2), 1)
    with pytest.raises(SFCError):
        scan_region(F(1, 6), F(1, 2), 5)
    with pytest.raises(SFCError):
        scan_region(F(1, 3), F(2, 3), 5)
    with pytest.raises(SFCError):
        scan_region(F(1, 2), F(1, 3), 5)


# ---------------------------------------------------------------------------
# JSON


def test_params_from_json_with_column_measure():
    p = example_family(F(1, 2), F(16, 25))
    doc = {
        "xi": p.xi.to_json_obj(),
        "eta": example_family_measures(F(16, 25))[1].to_json_obj(),
        "a_sq": "1/2",
        "y0_sq": "12/25",
    }
    q = params_from_json(doc)
    assert q == p


def test_params_from_json_with_restricted_measure():
    p = example_family(F(1, 2), F(16, 25))
    doc = sfc_grid(p).to_json_obj()
    assert doc["model"] == "sfc" and "eta1" in doc
    q = params_from_json(doc)
    assert q.eta1 == p.eta1
    assert classify(q) == classify(p)


def test_sfc_grid_spec_with_restricted_measure_round_trips():
    for a_sq, r_sq in ((F(1, 2), F(16, 25)), (F(1, 3), F(1)), (F(5, 12), F(1, 4))):
        grid = sfc_grid(example_family(a_sq, r_sq))
        again = grid_from_json(grid.to_json_obj())
        assert again == grid
        assert again.to_json_obj() == grid.to_json_obj()
        assert check_commuting(again, 4, 4) is None
        for k in window_indices(4, 4):
            assert again.alpha_sq(*k) == grid.alpha_sq(*k)
            assert again.beta_sq(*k) == grid.beta_sq(*k)


def test_params_from_json_errors():
    with pytest.raises(SFCError) as err:
        params_from_json({"xi": three_atoms().to_json_obj()}, "doc")
    assert "missing field" in str(err.value)
    with pytest.raises(SFCError):
        params_from_json("not an object")
    with pytest.raises(SFCError) as err2:
        params_from_json(
            {
                "xi": three_atoms().to_json_obj(),
                "eta": half_density_half_atom().to_json_obj(),
                "a_sq": "1/x",
                "y0_sq": "1/2",
            },
            "doc",
        )
    assert "doc.a_sq" in str(err2.value)
