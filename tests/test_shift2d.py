"""Two-variable weighted-shift grids and the window scans over them."""

import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftlab.cli import main
from shiftlab.exactnum import format_rational, psd2_radical_cross
from shiftlab.measures import combine1d, delta, lebesgue, make1d
from shiftlab.sfc import make_params, params_from_json, sfc_grid
from shiftlab.shift1d import TAIL_KINDS, WeightSeq, WeightTail, alpha_family, bergman_like, make_weights
from shiftlab.shift2d import (
    GridError,
    PropagationEntry,
    PropagationReport,
    _display_bound_top_pair,
    _figure5_seeds,
    _largest_pow2_at_most,
    _seed_bounds,
    bergman_chain,
    build_explicit,
    build_figure5,
    build_figure9,
    build_totallyflat,
    check_commuting,
    figure5_f,
    figure5_g,
    figure9_subnormality,
    flatness,
    gamma2,
    gamma2_up_first,
    grid_from_json,
    joint_hyponormal_window,
    next_chain_param,
    propagation_consequences,
    six_point_data,
    six_point_scan,
    window_indices,
)

F = Fraction


def three_atoms():
    return make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])


def sfc_point():
    """The sfc grid at a_sq = 1/2, y0_sq = 2/5 over three atoms, with
    eta = (1/2) dt + (1/2) delta_1, so eta1 = (1/3) 2t dt + (2/3) delta_1."""
    eta = combine1d([(F(1, 2), lebesgue()), (F(1, 2), delta(F(1)))])
    return sfc_grid(make_params(three_atoms(), eta, F(1, 2), F(2, 5)))


# ---------------------------------------------------------------------------
# the optimal-extension family grid


def test_figure9_weights():
    g = build_figure9(F(1, 3))
    assert g.alpha_sq(0, 0) == F(1, 2)
    assert g.alpha_sq(1, 0) == F(5, 6)
    assert g.alpha_sq(0, 3) == F(1, 2)
    assert g.alpha_sq(2, 4) == F(1)
    assert g.beta_sq(0, 0) == F(1, 3)
    assert g.beta_sq(1, 0) == F(1, 3)
    assert g.beta_sq(2, 0) == F(2, 5)
    assert g.beta_sq(0, 1) == F(2, 3)
    assert g.beta_sq(4, 2) == F(3, 4)


def test_figure9_six_point_values():
    g = build_figure9(F(1, 3))
    d0 = six_point_data(g, (0, 0))
    assert (d0.a1, d0.a2, d0.p, d0.q) == (F(1, 3), F(1, 3), F(1, 6), F(1, 6))
    assert d0.ok
    d1 = six_point_data(g, (1, 0))
    assert (d1.a1, d1.a2, d1.p, d1.q) == (F(1, 15), F(1, 3), F(2, 5), F(5, 18))
    assert d1.ok


def test_figure9_commutes_and_is_hyponormal():
    g = build_figure9(F(1, 3))
    assert check_commuting(g, 8, 8) is None
    assert joint_hyponormal_window(g, 20, 10).verdict


def test_figure9_moments():
    g = build_figure9(F(1, 3))
    assert gamma2(g, (2, 0)) == F(5, 12)
    assert gamma2(g, (0, 2)) == F(2, 9)
    assert gamma2(g, (1, 1)) == F(1, 6)


def test_figure9_extension_verdicts():
    accept = figure9_subnormality(F(1, 3))
    assert accept.ok
    reject = figure9_subnormality(F(1, 2))
    assert not reject.ok and reject.failed == "iii"


def test_figure9_extension_reproduces_grid_moments():
    y_sq = F(1, 3)
    g = build_figure9(y_sq)
    mu = figure9_subnormality(y_sq).measure
    for k1 in range(7):
        for k2 in range(7):
            assert mu.moment(k1, k2) == gamma2(g, (k1, k2))


def test_figure9_flatness():
    flags = flatness(build_figure9(F(1, 3)), 5, 5)
    assert flags.horizontal and not flags.vertical
    assert not flags.flat and not flags.symmetric


def test_figure9_validation():
    with pytest.raises(GridError):
        build_figure9(F(0))
    with pytest.raises(GridError):
        build_figure9(F(3, 2))


# ---------------------------------------------------------------------------
# explicit grids


def test_explicit_roundtrip_access():
    g = build_explicit([[F(1, 2), F(5, 6)]], [[F(1, 3), F(1, 3)]])
    assert g.alpha_sq(1, 0) == F(5, 6)
    with pytest.raises(GridError):
        g.alpha_sq(0, 1)
    with pytest.raises(GridError):
        g.alpha_sq(-1, 0)


def test_explicit_validation():
    with pytest.raises(GridError):
        build_explicit([], [])
    with pytest.raises(GridError):
        build_explicit([[F(1)], [F(1), F(1)]], [[F(1)]])
    # an entry that is not positive is refused when the window is built
    with pytest.raises(GridError, match=re.escape("alpha squared weight at (0, 0) is 0, not positive")):
        build_explicit([[F(0), F(1)]], [[F(1), F(1)]])
    with pytest.raises(GridError, match=re.escape("beta squared weight at (1, 0) is -1/3, not positive")):
        build_explicit([[F(1), F(1)]], [[F(1), F(-1, 3)]])


def test_explicit_entries_are_taken_as_fractions():
    # floats convert exactly, as make_weights converts them
    floats = build_explicit([[0.5, 1.0], [0.25, 2]], [[0.75, 0.375], [1, 1]])
    fractions = build_explicit([[F(1, 2), F(1)], [F(1, 4), F(2)]], [[F(3, 4), F(3, 8)], [F(1), F(1)]])
    assert floats == fractions and type(floats.alpha_sq(0, 0)) is F
    assert floats.to_json_obj()["alpha_sq"] == [["1/2", "1"], ["1/4", "2"]]
    assert grid_from_json(floats.to_json_obj()) == floats
    assert joint_hyponormal_window(floats, 0, 0) == joint_hyponormal_window(fractions, 0, 0)


_FAMILIES = {
    "figure9": lambda: build_figure9(F(1, 3)),
    "totally_flat": lambda: build_totallyflat(alpha_family(), F(1, 8)),
    "figure5": lambda: build_figure5(3, F(1, 4))[0],
    "sfc": lambda: sfc_point(),
    "explicit": lambda: build_explicit([[F(1, 2), F(5, 6)]], [[F(1, 3), F(1, 3)]]),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_every_family_rejects_negative_indices(family):
    # a stacked beta row is a list, so without the sign check row[-1] would answer
    g = _FAMILIES[family]()
    for read in (g.alpha_sq, g.beta_sq):
        for k in ((-1, 0), (0, -1)):
            with pytest.raises(GridError, match="negative index"):
                read(*k)


@pytest.mark.parametrize("family", [name for name in _FAMILIES if name != "explicit"])
def test_every_stacked_read_is_positive(family):
    g = _FAMILIES[family]()
    for k1, k2 in window_indices(11, 5):
        assert g.alpha_sq(k1, k2) > 0 and g.beta_sq(k1, k2) > 0, (k1, k2)


def test_commuting_violation_is_located():
    # beta(1, 0) * alpha(0, 0) = 1/4, but alpha(0, 1) * beta(0, 0) = 1/6
    alpha, beta = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], [[F(1, 3), F(1, 2)], [F(2, 3), F(2, 3)]]
    assert check_commuting(_Rows(alpha, beta), 0, 0) == (0, 0)
    with pytest.raises(GridError, match=re.escape("explicit window breaks the commuting identity at (0, 0)")):
        build_explicit(alpha, beta)


class _Rows:
    """Fake grid that reads alpha_sq and beta_sq off rows, with no check."""

    def __init__(self, alpha, beta):
        self.alpha, self.beta = alpha, beta

    def alpha_sq(self, k1, k2):
        return self.alpha[k2][k1]

    def beta_sq(self, k1, k2):
        return self.beta[k2][k1]


@st.composite
def _perturbed_window(draw):
    """A built grid's alpha and beta windows, each of any size, with one
    beta entry scaled by a factor other than 1, and whether that entry is
    in the top row of a beta window as high as the alpha window."""
    g = _FAMILIES[draw(st.sampled_from(sorted(set(_FAMILIES) - {"explicit"})))]()
    wa, ha, wb, hb = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    top = draw(st.booleans())
    if top:
        hb = ha
    alpha = [[g.alpha_sq(k1, k2) for k1 in range(wa)] for k2 in range(ha)]
    beta = [[g.beta_sq(k1, k2) for k1 in range(wb)] for k2 in range(hb)]
    j1, j2 = draw(st.integers(0, wb - 1)), hb - 1 if top else draw(st.integers(0, hb - 1))
    beta[j2][j1] *= draw(st.sampled_from([F(2), F(1, 2), F(3, 4), F(5, 3)]))
    return alpha, beta, (j1, j2), top


@given(_perturbed_window())
@settings(max_examples=150, deadline=None)
def test_a_perturbed_beta_is_refused_where_check_commuting_finds_it(case):
    alpha, beta, (j1, j2), top = case
    m, n = min(len(alpha[0]) - 1, len(beta[0]) - 2), min(len(alpha) - 2, len(beta) - 1)
    found = None if m < 0 or n < 0 else check_commuting(_Rows(alpha, beta), m, n)
    # the entry first takes part in the identity at j - e1, as beta(k + e1), then at j
    stated = [k for k in ((j1 - 1, j2), (j1, j2)) if 0 <= k[0] <= m and 0 <= k[1] <= n]
    assert found == (stated[0] if stated else None)
    if found is None:
        assert build_explicit(alpha, beta).beta_sq(j1, j2) == beta[j2][j1]
    else:
        assert not top
        with pytest.raises(GridError, match=re.escape(f"explicit window breaks the commuting identity at {found}")):
            build_explicit(alpha, beta)


def test_window_indices_scan_level_by_level():
    assert list(window_indices(2, 1)) == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    assert list(window_indices(0, 0)) == [(0, 0)]


@pytest.mark.parametrize("window", [(-1, 2), (2, -1)])
def test_every_window_scan_rejects_negative_windows(window):
    g = build_figure9(F(1, 3))
    scans = [
        window_indices,
        lambda m, n: check_commuting(g, m, n),
        lambda m, n: joint_hyponormal_window(g, m, n),
        lambda m, n: six_point_scan(g, m, n),
        lambda m, n: propagation_consequences(g, m, n),
    ]
    for scan in scans:
        with pytest.raises(GridError):
            scan(*window)


def test_six_point_scan_matches_pointwise_data():
    g = build_figure9(F(1, 2))
    table = list(six_point_scan(g, 4, 3))
    assert [k for k, _ in table] == list(window_indices(4, 3))
    assert all(data == six_point_data(g, k) for k, data in table)
    first_failure = next(k for k, data in table if not data.ok)
    assert joint_hyponormal_window(g, 4, 3).witness == (first_failure, "six_point")


def _six_point_by_fractions(g, k):
    """Reference: the six-point entries as reduced Fraction differences and
    products, then the radical test on those Fractions."""
    k1, k2 = k
    a1 = g.alpha_sq(k1 + 1, k2) - g.alpha_sq(k1, k2)
    a2 = g.beta_sq(k1, k2 + 1) - g.beta_sq(k1, k2)
    p = g.alpha_sq(k1, k2 + 1) * g.beta_sq(k1 + 1, k2)
    q = g.alpha_sq(k1, k2) * g.beta_sq(k1, k2)
    return a1, a2, p, q, psd2_radical_cross(a1, a2, p, q)


class _GridAroundOrigin:
    """Fake grid that reads (alpha_sq, beta_sq) at (0, 0), (1, 0) and (0, 1)."""

    def __init__(self, alpha, beta):
        self.spots = dict(zip([(0, 0), (1, 0), (0, 1)], zip(alpha, beta)))

    def alpha_sq(self, k1, k2):
        return self.spots[k1, k2][0]

    def beta_sq(self, k1, k2):
        return self.spots[k1, k2][1]


# Squared weights with numerators and denominators from 1 up to 2**6000, as
# the figure5 power-of-two seeds reach, and powers of two themselves.
_magnitudes = st.one_of(st.integers(1, 60), st.integers(1, 2**64), st.integers(1, 2**6000))
_weights = st.one_of(
    st.builds(F, _magnitudes, _magnitudes),
    st.integers(0, 6000).map(lambda j: F(1, 2**j)),
    st.integers(0, 6000).map(lambda j: F(2**j)),
)


@st.composite
def _six_weights(draw):
    """alpha_sq and beta_sq at k, k + e1, k + e2: free draws (so neighbours
    decrease about half the time), or with equal neighbours forcing a1 = 0,
    a2 = 0 or p = q, or on the boundary a1*a2 = (sqrt(p) - sqrt(q))**2 and
    just off it, where any mis-scaled operand flips the verdict."""
    if draw(st.booleans()):
        roots = [draw(_weights) for _ in range(4)]
        a, a_up, b, b_right = (r * r for r in roots)
        gap = roots[1] * roots[3] - roots[0] * roots[2]  # sqrt(p) - sqrt(q)
        a1 = draw(_weights)
        nudge = draw(st.sampled_from([0, 1, -1])) * F(1, draw(_magnitudes) + 1)
        return (a, a + a1, a_up), (b, b_right, b + gap * gap / a1 * (1 + nudge))
    a, a_right, a_up, b, b_right, b_up = (draw(_weights) for _ in range(6))
    if draw(st.booleans()):
        a_right = a
    if draw(st.booleans()):
        b_up = b
    if draw(st.booleans()):
        b_right = a * b / a_up
    if draw(st.booleans()):
        # a decreasing neighbour just below its base
        a_right = a - a / (draw(_magnitudes) + 1)
    return (a, a_right, a_up), (b, b_right, b_up)


@given(_six_weights())
@settings(max_examples=300, deadline=None)
def test_six_point_data_matches_the_fraction_reference(weights):
    g = _GridAroundOrigin(*weights)
    data = six_point_data(g, (0, 0))
    assert (data.a1, data.a2, data.p, data.q, data.ok) == _six_point_by_fractions(g, (0, 0))


def test_six_point_data_fixed_weights_match_the_fraction_reference():
    big = F(1, 2**6000)
    cases = [
        # a1 = 0, a2 = 0 and p = q: the zero matrix
        ((F(1, 2),) * 3, (F(1, 3),) * 3),
        # decreasing alpha: a1 < 0 fails
        ((F(1, 2), F(1, 3), F(1, 2)), (F(1, 3), F(1, 3), F(1, 2))),
        # the boundary a1*a2 = (sqrt(p) - sqrt(q))**2 holds: p = 1, q = 1/4
        ((F(1, 4), F(3, 4), F(1)), (F(1), F(1), F(3, 2))),
        # just past the boundary: a2 = 1/2 - 1/1000
        ((F(1, 4), F(3, 4), F(1)), (F(1), F(1), F(3, 2) - F(1, 1000))),
        # figure5-sized seeds
        ((big, 2 * big, big), (F(1), F(1, 2), 4 * big)),
    ]
    verdicts = []
    for alpha, beta in cases:
        g = _GridAroundOrigin(alpha, beta)
        data = six_point_data(g, (0, 0))
        assert (data.a1, data.a2, data.p, data.q, data.ok) == _six_point_by_fractions(g, (0, 0))
        verdicts.append(data.ok)
    assert verdicts[:4] == [True, False, True, False]


def test_six_point_kernel_reads_integers_only(monkeypatch):
    # every scan takes the commuting verdict on integer pairs, explicit windows
    # included, and none runs the radical test
    import shiftlab.shift2d as shift2d

    radical, commuting = [], []

    def spy(seen, kernel):
        def recorded(*args):
            seen.append(args)
            return kernel(*args)

        return recorded

    monkeypatch.setattr(shift2d, "psd2_radical_cross", spy(radical, psd2_radical_cross))
    monkeypatch.setattr(shift2d, "_commuting_verdict", spy(commuting, shift2d._commuting_verdict))
    figure9 = build_figure9(F(1, 2))
    alpha_rows = [[figure9.alpha_sq(k1, k2) for k1 in range(8)] for k2 in range(7)]
    beta_rows = [[figure9.beta_sq(k1, k2) for k1 in range(8)] for k2 in range(7)]
    explicit = build_explicit(alpha_rows, beta_rows)
    grids = [_FAMILIES[name]() for name in _FAMILIES if name != "explicit"]
    for g in [figure9, *grids, explicit]:
        calls = len(commuting)
        joint_hyponormal_window(g, 6, 5)
        list(six_point_scan(g, 6, 5))
        propagation_consequences(g, 6, 5)
        assert len(commuting) > calls
    assert radical == []
    assert all(type(v) is int for args in commuting for pair in args for v in pair)
    assert joint_hyponormal_window(explicit, 6, 5) == joint_hyponormal_window(figure9, 6, 5)


@pytest.mark.parametrize(
    "alpha, beta, radical",
    [
        # b_right = 9 breaks b_right * a == a_up * b: p = 9, q = 1 and a1 * a2 = 1 < 4
        ((1, 2, 1), (1, 9, 2), False),
        # a_up - a = 2 fails the commuting form, but p = q = 1 leaves a zero cross term
        ((1, 2, 3), (1, F(1, 3), 2), True),
    ],
)
def test_grids_that_need_not_commute_keep_the_radical_verdict(alpha, beta, radical, tmp_path, capsys):
    a, a_right, a_up = alpha = tuple(map(F, alpha))
    b, b_right, b_up = beta = tuple(map(F, beta))
    # the commuting form would give the opposite verdict on these weights
    assert (a * (a_right - a) * (b_up - b) >= b * (a_up - a) ** 2) is not radical
    # the pointwise test assumes no identity, so it keeps the radical verdict
    g = _GridAroundOrigin(alpha, beta)
    assert _six_point_by_fractions(g, (0, 0))[4] is radical
    assert six_point_data(g, (0, 0)).ok is radical
    # an explicit window with these weights is refused, by the library and the CLI
    alpha_rows, beta_rows = [[a, a_right], [a_up, F(1)]], [[b, b_right], [b_up, F(1)]]
    message = "explicit window breaks the commuting identity at (0, 0)"
    with pytest.raises(GridError, match=re.escape(message)):
        build_explicit(alpha_rows, beta_rows)
    path = tmp_path / "window.json"
    alpha_sq, beta_sq = ([[str(v) for v in row] for row in rows] for rows in (alpha_rows, beta_rows))
    path.write_text(json.dumps({"model": "explicit", "alpha_sq": alpha_sq, "beta_sq": beta_sq}), encoding="utf-8")
    for command in ("joint", "sixpoint"):
        assert main([command, str(path), "--window", "1", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_six_point_terms_reduce_to_the_entries():
    # each (num, den) pair is an entry with its denominators cleared, not reduced
    unreduced = 0
    for g in (build_figure9(F(1, 3)), build_figure5(3, F(1, 4))[0]):
        for k, data in six_point_scan(g, 4, 4):
            assert all(type(n) is int and type(d) is int and d > 0 for n, d in data.terms)
            assert tuple(F(n, d) for n, d in data.terms) == _six_point_by_fractions(g, k)[:4]
            unreduced += sum(F(n, d).denominator != d for n, d in data.terms)
    assert unreduced


def test_both_moment_paths_reject_negative_indices():
    g = build_figure9(F(1, 3))
    for path in (gamma2, gamma2_up_first):
        for k in ((-1, -2), (-1, 0), (0, -1)):
            with pytest.raises(GridError):
                path(g, k)


def test_path_independence_needs_commutativity():
    g = build_figure9(F(1, 3))
    rng = random.Random(20260822)
    for _ in range(80):
        k = (rng.randrange(12), rng.randrange(12))
        assert gamma2(g, k) == gamma2_up_first(g, k)


# ---------------------------------------------------------------------------
# the totally flat family


def test_totallyflat_beta_row():
    g = build_totallyflat(make_weights((F(1, 2), F(1, 2)), WeightTail("constant", F(1))), F(1, 8))
    assert g.beta_sq(0, 0) == F(1, 8)
    assert g.beta_sq(1, 0) == F(1, 4)
    assert g.beta_sq(2, 0) == F(1, 2)
    assert g.beta_sq(3, 0) == F(1, 2)
    assert g.alpha_sq(4, 7) == F(1)


def test_totallyflat_equal_pair_violation():
    x_row = make_weights((F(1, 2), F(1, 2)), WeightTail("constant", F(1)))
    report = propagation_consequences(build_totallyflat(x_row, F(1, 8)), 5, 3)
    bad = report.violations
    assert bad and all(not e.six_point_ok for e in bad)
    assert bad[0].k == (0, 0)
    assert (bad[0].beta_here, bad[0].beta_right) == (F(1, 8), F(1, 4))


def test_totallyflat_strict_row_has_no_violation():
    report = propagation_consequences(build_totallyflat(alpha_family(), F(1, 8)), 6, 4)
    assert report.violations == ()
    assert propagation_consequences(build_figure9(F(1, 3)), 6, 4).violations == ()


def test_totallyflat_validation():
    with pytest.raises(GridError):
        build_totallyflat(make_weights((F(2),), WeightTail("constant", F(1))), F(1, 8))
    with pytest.raises(GridError):
        build_totallyflat(alpha_family(), F(0))


# ---------------------------------------------------------------------------
# the flat-boundary family with Bergman-like levels


def test_chain_parameters():
    assert bergman_chain(4) == [3, 18, 1103, 625118]
    assert next_chain_param(3, 18) == 1103
    assert next_chain_param(18, 1103) == 625118
    with pytest.raises(GridError):
        next_chain_param(18, 3)


def test_level_bounds():
    assert figure5_f(1) == F(742, 40765)
    assert figure5_g(1) == F(27, 5)
    assert figure5_f(1) < figure5_f(2) < figure5_f(3)
    assert figure5_g(1) > figure5_g(2) > figure5_g(3)
    with pytest.raises(GridError):
        figure5_f(0)
    with pytest.raises(GridError):
        figure5_g(0)


def test_figure5_grid_shape():
    g, _ = build_figure5(2, F(1, 4))
    # level 1 is Bergman-like 3, level 0 Bergman-like 18, top is flat
    assert g.alpha_sq(0, 1) == 3 - F(1, 2)
    assert g.alpha_sq(1, 1) == 3 - F(1, 3)
    assert g.alpha_sq(0, 0) == 18 - F(1, 2)
    assert g.alpha_sq(0, 2) == F(1, 4)
    assert g.alpha_sq(3, 2) == F(1)
    assert g.alpha_sq(2, 5) == F(1)
    # column seeds: 1/alpha0_sq one level below the top, 16/alpha0_sq above
    assert g.beta_sq(0, 1) == F(4)
    assert g.beta_sq(0, 2) == F(64)
    assert g.beta_sq(0, 3) == F(64)


def test_figure5_default_seeds():
    g2, report2 = build_figure5(2, F(1, 4))
    assert g2.beta_sq(0, 0) == F(1, 512)
    assert report2.verdict and report2.witness is None
    g1, report1 = build_figure5(1, F(1, 4))
    assert g1.beta_sq(0, 0) == F(1)
    assert report1.verdict
    g3, report3 = build_figure5(3, F(1, 4))
    assert g3.beta_sq(0, 0) == F(1, 2**22)
    assert report3.verdict


def test_figure5_report_names():
    _, report2 = build_figure5(2, F(1, 4))
    assert [c.name for c in report2.conditions] == ["beta1", "beta2", "pair0", "condition1", "condition2b"]
    assert report2.condition("beta1").values["bound"] == F(7, 3240)
    assert report2.condition("beta2").values["f_at_1"] == F(742, 40765)
    assert report2.condition("condition2b").values["g_at_1"] == F(27, 5)
    _, report1 = build_figure5(1, F(1, 4))
    assert [c.name for c in report1.conditions] == ["beta0eq2", "beta0eq", "condition1"]
    _, report3 = build_figure5(3, F(1, 4))
    assert [c.name for c in report3.conditions] == ["pair0", "beta1", "beta2", "pair1", "condition1", "condition2b"]
    with pytest.raises(KeyError):
        report1.condition("beta1")


def test_figure5_windows_pass():
    g2, _ = build_figure5(2, F(1, 4), F(7, 3240))
    assert joint_hyponormal_window(g2, 30, 10).verdict
    g1, _ = build_figure5(1, F(1, 4))
    assert joint_hyponormal_window(g1, 25, 8).verdict
    g3, _ = build_figure5(3, F(1, 4))
    assert joint_hyponormal_window(g3, 12, 6).verdict


def test_figure5_threshold_seed_passes_report():
    _, report = build_figure5(2, F(1, 4), F(7, 3240))
    assert report.verdict and report.witness is None


def test_figure5_oversized_seed_fails_report_not_window():
    g, report = build_figure5(2, F(1, 4), F(1, 400))
    assert not report.verdict
    assert report.witness == ((0, 0), "beta1")
    assert not report.condition("beta1").holds
    assert report.condition("beta2").holds
    # the named level-class bound is strictly tighter than the raw scan
    assert joint_hyponormal_window(g, 30, 10).verdict


def test_seeded_beta_fills_deep_levels_without_recursion():
    g, _ = build_figure5(2, F(1, 4), F(7, 3240))
    deep = gamma2(g, (1500, 1))
    assert deep > 0
    assert deep == gamma2_up_first(g, (1500, 1))
    fresh, _ = build_figure5(2, F(1, 4), F(7, 3240))
    for k2 in range(4):
        for k1 in range(8):
            assert gamma2(fresh, (k1, k2)) == gamma2_up_first(fresh, (k1, k2))


def _largest_pow2_by_halving(bound):
    """The halving loop the bit-length version replaced, kept as reference."""
    value = F(1)
    while value > bound:
        value /= 2
    return value


@given(
    st.integers(1, 2**90),
    st.integers(1, 2**90),
    st.integers(0, 60),
)
@settings(max_examples=300)
def test_largest_pow2_matches_halving_reference(num, den, shift):
    for bound in (F(num, den), F(num, den << shift), F(num << shift, den)):
        assert _largest_pow2_at_most(bound) == _largest_pow2_by_halving(bound)
    exact = F(1, 2**shift)
    assert _largest_pow2_at_most(exact) == exact
    assert _largest_pow2_at_most(exact * F(2**40 - 1, 2**40)) == exact / 2


def test_largest_pow2_rejects_nonpositive_bounds():
    for bound in (F(0), F(-1, 3)):
        with pytest.raises(GridError):
            _largest_pow2_at_most(bound)


def test_figure5_validation():
    with pytest.raises(GridError):
        build_figure5(0, F(1, 4))
    with pytest.raises(GridError):
        build_figure5(2, F(1))
    with pytest.raises(GridError):
        build_figure5(2, F(1, 4), F(0))


def test_figure5_too_deep_to_print_is_a_grid_error():
    for alpha0_sq in (F(1, 4), F(1, 2), F(3, 4), F(1, 97), F(96, 97)):
        grid, _ = build_figure5(30, alpha0_sq)
        assert grid.to_json_obj()["beta0_sq"].startswith("1/")
        for k2 in (31, 40):
            with pytest.raises(GridError, match=f"k2 = {k2} is too deep: the bottom seed beta0_sq has too many digits"):
                build_figure5(k2, alpha0_sq)


def test_figure5_depth_is_bounded_with_the_digit_limit_off():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for extra in ({}, {"beta0_sq": "1/1024"}):
            with pytest.raises(GridError, match="k2 = 400 is too deep"):
                grid_from_json({"model": "figure5", "k2": 400, "alpha0_sq": "1/4", **extra})
        # a given bottom seed past the default limit prints, so it is no error
        grid, _ = build_figure5(2, F(1, 4), F(1, 10**5000))
        assert grid.to_json_obj()["beta0_sq"] == f"1/{10**5000}"
    finally:
        sys.set_int_max_str_digits(limit)


def _digit_limit():
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _next_chain_param_by_fractions(p, q):
    """The chain step in Fraction ceilings, kept as reference for the
    integer floor divisions."""
    half = F(1, 2)
    return max(math.ceil(F(9 * q * q, p)), math.ceil(9 * (q - half) ** 2 / (p - half) + half), q + 1)


def _chain_through_the_digit_limit():
    """The chain through its first parameter of more digits than print."""
    chain = [3, 18]
    while chain[-1] < 10 ** _digit_limit():
        chain.append(next_chain_param(chain[-2], chain[-1]))
    return chain


def test_next_chain_param_matches_the_fraction_formula():
    chain = _chain_through_the_digit_limit()
    assert len(chain) == 96
    for i in range(2, len(chain)):
        assert chain[i] == _next_chain_param_by_fractions(chain[i - 2], chain[i - 1])
    assert bergman_chain(96) == chain


def test_display_bound_is_the_bergman_weight_reading():
    chain = _chain_through_the_digit_limit()[:24]
    for ell_up, ell_low in zip(chain, chain[1:]):
        low = bergman_like(ell_low)
        x0, x1, y0 = low.weight_sq(0), low.weight_sq(1), bergman_like(ell_up).weight_sq(0)
        assert _display_bound_top_pair(ell_low, ell_up) == (x1 - x0) ** 2 * x0 / (x0 - y0) ** 2
    assert _display_bound_top_pair(18, 3) == F(7, 3240)


def test_figure5_explicit_seed_stops_at_the_chain_parameter_past_the_limit():
    grid, _ = build_figure5(95, F(1, 4), F(1, 1024))
    assert grid.to_json_obj()["beta0_sq"] == "1/1024"
    message = f"k2 = 96 is too deep: the Bergman-like parameter of level 0 has more than {_digit_limit()} digits"
    with pytest.raises(GridError, match=message):
        build_figure5(96, F(1, 4), F(1, 1024))


@pytest.mark.parametrize("beta0_sq", [None, F(1, 1024)])
def test_figure5_far_too_deep_is_refused_fast(beta0_sq):
    start = time.perf_counter()
    with pytest.raises(GridError, match=f"k2 = {10**6} is too deep"):
        build_figure5(10**6, F(1, 4), beta0_sq)
    assert time.perf_counter() - start < 1


def test_figure5_depth_bound_follows_the_digit_limit_between_builds():
    # the bound 10**limit is kept per limit, so each limit refuses at its own depth
    limit = sys.get_int_max_str_digits()
    try:
        for digits, k2 in ((640, 38), (4300, 96), (640, 38)):
            sys.set_int_max_str_digits(digits)
            build_figure5(k2 - 1, F(1, 4), F(1, 1024))
            message = f"k2 = {k2} is too deep: the Bergman-like parameter of level 0 has more than {digits} digits"
            with pytest.raises(GridError, match=message):
                build_figure5(k2, F(1, 4), F(1, 1024))
    finally:
        sys.set_int_max_str_digits(limit)


def test_figure5_explicit_seed_past_the_digit_limit_is_too_deep():
    limit = 10 ** _digit_limit()
    # one digit short of the limit still prints, in the numerator or the denominator
    for fine in (F(1, limit - 1), F(limit - 1, 3)):
        assert build_figure5(2, F(1, 4), fine)[0].to_json_obj()["beta0_sq"] == format_rational(fine)
    for deep in (F(1, 10**5000), F(10**5000, 3), F(1, limit), F(limit, 3)):
        with pytest.raises(GridError, match="k2 = 2 is too deep: the bottom seed beta0_sq has too many digits to print"):
            build_figure5(2, F(1, 4), deep)


def test_window_report_json_shape():
    _, report = build_figure5(2, F(1, 4), F(1, 400))
    doc = report.to_json_obj()
    assert doc["verdict"] is False
    assert doc["witness"] == {"k": [0, 0], "condition": "beta1"}
    names = [c["name"] for c in doc["conditions"]]
    assert names == ["beta1", "beta2", "pair0", "condition1", "condition2b"]
    assert doc["conditions"][0]["values"]["bound"] == "7/3240"


_figure5_alpha0 = st.sampled_from([F(1, 97), F(1, 4), F(1, 2), F(3, 4), F(96, 97)])


@given(st.integers(1, 6), _figure5_alpha0, st.integers(-3, 13))
@example(3, F(1, 4), 1)  # twice the default seed: its (0, 0) six-point fails
@settings(max_examples=60, deadline=None)
def test_figure5_report_pass_implies_window_pass(k2, alpha0_sq, e):
    # the report's conditions are sufficient, so a PASS beside a scan failure is a bug
    default = _figure5_seeds(k2, alpha0_sq, None)[1][0]
    grid, report = build_figure5(k2, alpha0_sq, default * F(2) ** e)
    if report.verdict:
        assert joint_hyponormal_window(grid, 12, k2 + 2).verdict


@given(st.integers(1, 12), st.integers(1, 96))
@settings(max_examples=60, deadline=None)
def test_figure5_seed_search_and_report_read_one_table(k2, j):
    alpha0_sq = F(j, 97)
    chain, seeds = _figure5_seeds(k2, alpha0_sq, None)
    _, report = build_figure5(k2, alpha0_sq)
    seed_rows = [c for c in report.conditions if c.name not in ("condition1", "condition2b")]
    levels = range(max(k2 - 1, 1))  # for k2 >= 2, seed k2-1 is pinned to 1/alpha0_sq
    rows = [row for n in levels for row in _seed_bounds(k2, n, alpha0_sq, chain, seeds[n + 1])]
    assert [c.name for c in seed_rows] == [name for name, _, _ in rows]
    for n in levels:
        bounds = [bound for _, _, bound in _seed_bounds(k2, n, alpha0_sq, chain, seeds[n + 1])]
        assert all(seeds[n] <= bound for bound in bounds)
        # the largest power of two under the rows, so doubling breaks one, unless capped at 1
        assert seeds[n] == 1 or any(2 * seeds[n] > bound for bound in bounds)
    assert all(c.holds for c in seed_rows)


# ---------------------------------------------------------------------------
# the symmetrically flat contractive grid


def test_sfc_grid_weights():
    g = sfc_point()
    assert g.alpha_sq(0, 0) == F(1, 2)
    assert g.alpha_sq(1, 0) == F(5, 6)
    assert g.alpha_sq(0, 1) == F(1, 2)
    assert g.beta_sq(0, 0) == F(2, 5)
    assert g.beta_sq(0, 1) == F(8, 9)
    assert g.alpha_sq(2, 3) == F(1)
    assert check_commuting(g, 6, 6) is None


def test_sfc_grid_is_symmetrically_flat():
    g = sfc_point()
    flags = flatness(g, 5, 5)
    assert flags.horizontal and flags.vertical and flags.flat and flags.symmetric


def test_flatness_window_validation():
    with pytest.raises(GridError):
        flatness(build_figure9(F(1, 3)), 1, 5)


# ---------------------------------------------------------------------------
# stacked levels against the closed-form rules they replaced


def _beta_from_seeds(grid_alpha, seeds):
    """The beta generator the stacked construction replaced, kept as
    reference: column seeds propagated rightward by commutativity."""
    levels = {}

    def beta(k1, k2):
        row = levels.get(k2)
        if row is None:
            row = levels[k2] = [seeds(k2)]
        while len(row) <= k1:
            i = len(row) - 1
            row.append(row[i] * grid_alpha(i, k2 + 1) / grid_alpha(i, k2))
        return row[k1]

    return beta


def _figure9_rules(y_sq):
    row0 = alpha_family()

    def alpha(k1, k2):
        if k2 == 0:
            return row0.weight_sq(k1)
        return F(1, 2) if k1 == 0 else F(1)

    def beta(k1, k2):
        if k2 == 0:
            return y_sq if k1 == 0 else y_sq / (2 * row0.gamma(k1)[k1])
        return F(k2 + 1, k2 + 2)

    return alpha, beta


def _totallyflat_rules(x_row, y_sq):
    def alpha(k1, k2):
        return x_row.weight_sq(k1) if k2 == 0 else F(1)

    def beta(k1, k2):
        return y_sq / x_row.gamma(k1)[k1] if k2 == 0 else F(1)

    return alpha, beta


def _figure5_rules(k2, alpha0_sq, beta0_sq):
    chain, seeds = _figure5_seeds(k2, alpha0_sq, beta0_sq)

    def alpha(k1, k2_):
        if k2_ < k2:
            return F(chain[k2 - 1 - k2_]) - F(1, k1 + 2)
        return alpha0_sq if k1 == 0 else F(1)

    return alpha, _beta_from_seeds(alpha, lambda n: seeds[n] if n <= k2 else seeds[k2])


def _sfc_rules(xi, eta1, a_sq, y0_sq):
    def alpha(k1, k2):
        if k2 == 0:
            return xi.moment(k1 + 1) / xi.moment(k1)
        if k1 == 0:
            return a_sq if k2 == 1 else a_sq / eta1.moment(k2 - 1)
        return F(1)

    def beta(k1, k2):
        if k1 == 0:
            return y0_sq if k2 == 0 else eta1.moment(k2) / eta1.moment(k2 - 1)
        return a_sq * y0_sq / xi.moment(k1) if k2 == 0 else F(1)

    return alpha, beta


_positive_unit = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda q: q > 0)


@st.composite
def _atomic_measure(draw):
    """A probability measure on [0, 1]: atoms, one of them off 0, and at
    times a uniform share."""
    points = draw(st.lists(_positive_unit, min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        points.append(F(0))
    terms = [(draw(_positive_unit), delta(x)) for x in points]
    if draw(st.booleans()):
        terms.append((draw(_positive_unit), lebesgue()))
    total = sum(m for m, _ in terms)
    return combine1d([(m / total, mu) for m, mu in terms])


@st.composite
def _stacked_case(draw):
    """(grid, reference alpha, reference beta, whether level 11 repeats level 12)."""
    family = draw(st.sampled_from(["figure9", "totally_flat", "figure5", "sfc"]))
    if family == "figure9":
        y_sq = draw(_positive_unit)
        return build_figure9(y_sq), *_figure9_rules(y_sq), True
    if family == "totally_flat":
        prefix = draw(st.lists(_positive_unit, max_size=3))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(prefix)))
            prefix[i:i] = [draw(_positive_unit)] * 2
        if draw(st.booleans()):
            tail = WeightTail("alpha_family")
        else:
            tail = WeightTail("constant", draw(_positive_unit))
        x_row = make_weights(prefix, tail)
        y_sq = draw(st.fractions(min_value=0, max_value=2, max_denominator=24).filter(lambda q: q > 0))
        return build_totallyflat(x_row, y_sq), *_totallyflat_rules(x_row, y_sq), True
    if family == "figure5":
        k2 = draw(st.integers(1, 8))
        alpha0_sq = draw(_positive_unit.filter(lambda q: q < 1))
        beta0_sq = draw(st.none() | _positive_unit)
        grid, _ = build_figure5(k2, alpha0_sq, beta0_sq)
        return grid, *_figure5_rules(k2, alpha0_sq, beta0_sq), True
    p = make_params(draw(_atomic_measure()), draw(_atomic_measure()), draw(_positive_unit), draw(_positive_unit))
    return sfc_grid(p), *_sfc_rules(p.xi, p.eta1, p.a_sq, p.y0_sq), False


@given(_stacked_case())
@settings(max_examples=120, deadline=None)
def test_stacked_grids_match_closed_form_rules(case):
    grid, alpha, beta, flat_top = case
    for k1, k2 in window_indices(20, 10):
        assert grid.alpha_sq(k1, k2) == alpha(k1, k2), (k1, k2)
        assert grid.beta_sq(k1, k2) == beta(k1, k2), (k1, k2)
    assert check_commuting(grid, 20, 10) is None
    if flat_top:
        # a level equal to the one above answers from its seed: no weight read
        expected = beta(1000, 11)
        with mock.patch.object(WeightSeq, "weight_sq", autospec=True, side_effect=WeightSeq.weight_sq) as reads:
            assert grid.beta_sq(1000, 11) == expected
        assert reads.call_count == 0


# ---------------------------------------------------------------------------
# the row walk against the pointwise scan


def _pointwise_scan(g, m, n):
    """Reference: one `six_point_data` call, six grid reads, per index of
    `window_indices`."""
    return ((k, six_point_data(g, k)) for k in window_indices(m, n))


def _pointwise_joint(g, m, n):
    witness = next((k for k, data in _pointwise_scan(g, m, n) if not data.ok), None)
    return witness is None, None if witness is None else (witness, "six_point")


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def _scan_outcome(scan, g, m, n):
    """Every (k, terms, ok) a scan yields, then the error that ended it."""
    seen = []
    try:
        for k, data in scan(g, m, n):
            seen.append((k, data.terms, data.ok))
    except ValueError as exc:
        return seen, _error_text(exc)
    return seen, None


def _window_joint(g, m, n):
    report = joint_hyponormal_window(g, m, n)
    return report.verdict, report.witness


def _joint_outcome(joint, g, m, n):
    try:
        return joint(g, m, n)
    except ValueError as exc:
        return _error_text(exc)


_positive_entry = st.fractions(min_value=F(1, 24), max_value=2, max_denominator=24)


@st.composite
def _commuting_window(draw, wa, ha, wb, hb):
    """An alpha window wa x ha and a beta window wb x hb that satisfy the
    commuting identity wherever they state it: the alphas, the beta seed
    column and the betas past the identity's reach (the top row among them)
    are drawn, the rest derived.  One window in four then gets one entry
    that is not positive."""

    def entries(w, h):
        return draw(st.lists(st.lists(_positive_entry, min_size=w, max_size=w), min_size=h, max_size=h))

    alpha, beta = entries(wa, ha), entries(wb, hb)
    m, n = min(wa - 1, wb - 2), min(ha - 2, hb - 1)
    for k2 in range(n + 1):
        for k1 in range(m + 1):
            beta[k2][k1 + 1] = alpha[k2 + 1][k1] * beta[k2][k1] / alpha[k2][k1]
    if draw(st.integers(0, 3)) == 3:
        rows = draw(st.sampled_from([alpha, beta]))
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([F(0), F(-1, 3)]))
    return [[str(v) for v in row] for row in alpha], [[str(v) for v in row] for row in beta]


@st.composite
def _scan_case(draw):
    """(grid spec, m, n): commuting explicit windows, some with an entry that
    is not positive and some too small for the scan, and every stacked
    family."""
    family = draw(st.sampled_from(["explicit", "figure9", "totally_flat", "figure5", "sfc"]))
    if family == "explicit":
        m, n = draw(st.integers(0, 5)), draw(st.integers(0, 4))
        # a window that just covers the scan, or any size
        size = st.tuples(st.integers(1, 7), st.integers(1, 6))
        (wa, ha), (wb, hb) = draw(st.one_of(st.just(((m + 2, n + 2),) * 2), st.tuples(size, size)))
        alpha, beta = draw(_commuting_window(wa, ha, wb, hb))
        return {"model": "explicit", "alpha_sq": alpha, "beta_sq": beta}, m, n
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 8))
    if family == "figure9":
        return {"model": "figure9", "y_sq": str(draw(_positive_unit))}, m, n
    if family == "totally_flat":
        prefix = [str(v) for v in draw(st.lists(_positive_unit, max_size=3))]
        if prefix and draw(st.booleans()):
            prefix.append(prefix[-1])
        kind = draw(st.sampled_from(TAIL_KINDS))
        tail = {"kind": kind}
        if kind == "constant":
            tail["value"] = str(draw(_positive_unit))
        elif kind == "bergman_like":
            tail["value"] = 1  # ell >= 2 has weights past 1
        elif kind == "beta_r_family":
            tail["value"] = str(draw(st.fractions(min_value=F(1, 24), max_value=F(4, 3), max_denominator=24)))
        y_sq = str(draw(_positive_entry))
        return {"model": "totally_flat", "x_row": {"prefix_sq": prefix, "tail": tail}, "y_sq": y_sq}, m, n
    if family == "figure5":
        spec = {"model": "figure5", "k2": draw(st.integers(1, 13))}
        spec["alpha0_sq"] = str(draw(_positive_unit.filter(lambda q: q < 1)))
        if draw(st.booleans()):
            spec["beta0_sq"] = str(draw(_positive_unit))
        return spec, m, n
    xi, eta = draw(_atomic_measure()), draw(_atomic_measure())
    a_sq, y0_sq = draw(_positive_unit), draw(_positive_unit)
    spec = {"model": "sfc", "xi": xi.to_json_obj(), "eta": eta.to_json_obj()}
    return {**spec, "a_sq": str(a_sq), "y0_sq": str(y0_sq)}, m, n


@given(_scan_case())
@example(({"model": "figure5", "k2": 13, "alpha0_sq": "1/4"}, 12, 8))
@example(({"model": "figure9", "y_sq": "1/2"}, 16, 8))
@example(({"model": "explicit", "alpha_sq": [["1", "0"]], "beta_sq": [["-1"]]}, 0, 0))
@settings(max_examples=250, deadline=None)
def test_row_walk_matches_the_pointwise_scan(case):
    # each side gets a fresh grid, so no cached beta row is shared; the only
    # windows refused are those with an entry that is not positive
    spec, m, n = case
    try:
        grid_from_json(spec)
    except GridError as exc:
        assert spec["model"] == "explicit" and str(exc).endswith("not positive")
        return
    for fast, slow, outcome in (
        (six_point_scan, _pointwise_scan, _scan_outcome),
        (_window_joint, _pointwise_joint, _joint_outcome),
    ):
        expected = outcome(slow, grid_from_json(spec), m, n)
        assert outcome(fast, grid_from_json(spec), m, n) == expected


def _propagation_by_fractions(g, m, n):
    """Reference: the audit as a loop over reduced Fractions, with the
    pointwise six-point verdict at each equal alpha pair."""
    entries = []
    for k1, k2 in window_indices(m, n):
        if g.alpha_sq(k1 + 1, k2) == g.alpha_sq(k1, k2):
            ok = six_point_data(g, (k1, k2)).ok
            entries.append(PropagationEntry((k1, k2), g.beta_sq(k1, k2), g.beta_sq(k1 + 1, k2), ok))
    return PropagationReport(tuple(entries))


_flat_pair_row = {"prefix_sq": ["1/2", "1/2"], "tail": {"kind": "constant", "value": "1"}}


@given(_scan_case())
@example(({"model": "totally_flat", "x_row": _flat_pair_row, "y_sq": "1/8"}, 5, 3))
# a commuting window whose equal alpha pair at (0, 0) carries unequal betas
@example(({"model": "explicit", "alpha_sq": [["1", "1", "2"], *[["2"] * 3] * 2], "beta_sq": [["1", "2", "4"], *[["1"] * 3] * 2]}, 1, 1))
@settings(max_examples=250, deadline=None)
def test_propagation_audit_matches_its_fraction_loop(case):
    # where every six-point read succeeds; the audit reads what the scans read
    spec, m, n = case
    try:
        list(_pointwise_scan(grid_from_json(spec), m, n))
    except ValueError:
        return
    expected = _propagation_by_fractions(grid_from_json(spec), m, n)
    assert propagation_consequences(grid_from_json(spec), m, n) == expected


def _column_seed(spec, k2):
    """beta_sq(0, k2) of a built family, from its spec alone."""
    model = spec["model"]
    if model == "figure9":
        return F(spec["y_sq"]) if k2 == 0 else F(k2 + 1, k2 + 2)
    if model == "totally_flat":
        return F(spec["y_sq"]) if k2 == 0 else F(1)
    if model == "figure5":
        beta0 = spec.get("beta0_sq")
        seeds = _figure5_seeds(spec["k2"], F(spec["alpha0_sq"]), None if beta0 is None else F(beta0))[1]
        return seeds[min(k2, spec["k2"])]
    p = params_from_json(spec)
    return p.y0_sq if k2 == 0 else p.eta1.moment(k2) / p.eta1.moment(k2 - 1)


@given(_scan_case().filter(lambda case: case[0]["model"] != "explicit"))
@example(({"model": "figure5", "k2": 13, "alpha0_sq": "1/4"}, 12, 8))
@settings(max_examples=80, deadline=None)
def test_built_grids_commute_from_their_seeds(case):
    # the premise of the scans' commuting verdict, checked with Fractions
    spec, m, n = case
    if spec["model"] == "totally_flat" and spec["x_row"]["tail"]["kind"] == "none":
        m = min(m, len(spec["x_row"]["prefix_sq"]) - 1)  # a finite level 0 has no further alpha
        assume(m >= 0)
    g = grid_from_json(spec)
    assert check_commuting(g, m, n) is None
    assert [g.beta_sq(0, k2) for k2 in range(n + 2)] == [_column_seed(spec, k2) for k2 in range(n + 2)]


# ---------------------------------------------------------------------------
# JSON


def test_grid_json_round_trips():
    grids = [
        build_figure9(F(1, 3)),
        build_figure5(2, F(1, 4))[0],
        build_figure5(3, F(1, 4), F(1, 2**22))[0],
        build_totallyflat(alpha_family(), F(1, 8)),
        build_explicit([[F(1, 2)]], [[F(1, 3)]]),
    ]
    for g in grids:
        again = grid_from_json(g.to_json_obj())
        assert again == g
        assert again.alpha_sq(0, 0) == g.alpha_sq(0, 0)


def test_grid_json_errors():
    with pytest.raises(GridError):
        grid_from_json({"model": "moebius"})
    with pytest.raises(GridError):
        grid_from_json("figure9")
    with pytest.raises(GridError) as err:
        grid_from_json({"model": "figure9", "y_sq": "1/x"}, "doc.grid")
    assert "doc.grid.y_sq" in str(err.value)
    with pytest.raises(GridError):
        grid_from_json({"model": "figure5", "k2": "2", "alpha0_sq": "1/4"})
    with pytest.raises(GridError, match="k2"):
        grid_from_json({"model": "figure5", "k2": True, "alpha0_sq": "1/4"})
    with pytest.raises(GridError, match="y_sq"):
        grid_from_json({"model": "figure9", "y_sq": True})
