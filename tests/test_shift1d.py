"""Single-variable weighted shifts: moments, Hankel positivity, audits."""

from fractions import Fraction
from math import ceil, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import shift1d
from shiftlab.exactnum import ExactInputError, matrix_det
from shiftlab.measures import MeasureError, combine1d, delta, density, lebesgue, make1d
from shiftlab.shift1d import (
    TAIL_KINDS,
    ShiftError,
    WeightTail,
    _cleared_hankel,
    alpha_family,
    alpha_family_reciprocal_product,
    bergman_like,
    bergman_like_hankel2_det,
    beta_family_reciprocal_product,
    beta_r_family,
    flat_shift,
    hankel_matrix,
    hankel_psd,
    is_flat,
    khypo_witness,
    make_weights,
    propagation_audit,
    unilateral,
    verify_berger,
    weights_from_json,
)
from specs import weights_json
from test_exactnum import _psd_by_fraction_ldl

F = Fraction


def witness_shift():
    """1/2, 1/2, 1, 1, ...: an equal pair followed by a jump."""
    return make_weights((F(1, 4), F(1, 4)), WeightTail("constant", F(1)))


# ---------------------------------------------------------------------------
# weight sequences


def test_bergman_gammas():
    assert bergman_like(1).gamma(3) == [F(1), F(1, 2), F(1, 3), F(1, 4)]


def test_alpha_family_values():
    w = alpha_family()
    assert w.gamma(2) == [F(1), F(1, 2), F(5, 12)]
    assert w.weight_sq(2) == F(9, 10)


def test_tail_is_evaluated_after_the_prefix():
    w = make_weights((F(1, 3),), WeightTail("bergman_like", 1))
    assert w.weight_sq(0) == F(1, 3)
    assert w.weight_sq(1) == F(1, 2)
    assert w.weight_sq(2) == F(2, 3)


def test_finite_sequence_runs_out():
    w = make_weights((F(1, 2), F(3, 4)))
    assert w.gamma(2) == [F(1), F(1, 2), F(3, 8)]
    with pytest.raises(ShiftError):
        w.weight_sq(2)


def test_gamma_memo_returns_fresh_prefixes():
    w = bergman_like(2)
    full = w.gamma(8)
    assert w.gamma(3) == full[:4]
    got = w.gamma(5)
    got[2] = F(99)
    got.append(F(0))
    assert w.gamma(8) == full
    finite = make_weights((F(1, 2), F(3, 4)))
    with pytest.raises(ShiftError):
        finite.gamma(3)
    assert finite.gamma(2) == [F(1), F(1, 2), F(3, 8)]


def test_gamma_memo_leaves_equality_and_hash_alone():
    filled, empty = bergman_like(2), bergman_like(2)
    filled.gamma(20)
    assert filled == empty
    assert hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)


def test_sup_weight_sq():
    assert bergman_like(1).sup_weight_sq() == 1
    assert bergman_like(3).sup_weight_sq() == 3
    assert alpha_family().sup_weight_sq() == 1
    assert beta_r_family(F(4, 9)).sup_weight_sq() == 1
    assert beta_r_family(F(2)).sup_weight_sq() == F(3, 2)
    assert make_weights((F(2),), WeightTail("constant", F(1))).sup_weight_sq() == 2


@pytest.mark.parametrize("kind", TAIL_KINDS)
@settings(max_examples=100, deadline=None)
@given(
    prefix=st.lists(st.fractions(F(1, 50), F(1), max_denominator=50), max_size=4),
    value=st.fractions(F(1, 50), F(4), max_denominator=50),
)
def test_sup_weight_sq_bounds_every_weight(kind, prefix, value):
    tail_value = {"bergman_like": ceil(value), "alpha_family": None, "none": None}.get(kind, value)
    w = make_weights(prefix, WeightTail(kind, tail_value))
    sup = w.sup_weight_sq()
    for k in range(len(prefix) if kind == "none" else 41):
        assert sup >= w.weight_sq(k)


def test_make_weights_validation():
    with pytest.raises(ShiftError):
        make_weights((F(0),))
    with pytest.raises(ShiftError):
        make_weights((), WeightTail("constant", F(-1)))
    with pytest.raises(ShiftError):
        make_weights((), WeightTail("bergman_like", 0))
    with pytest.raises(ShiftError):
        make_weights((), WeightTail("alpha_family", F(1, 2)))
    with pytest.raises(ShiftError):
        make_weights((), WeightTail("gaussian"))


def test_negative_index_rejected():
    with pytest.raises(ShiftError):
        unilateral().weight_sq(-1)
    with pytest.raises(ShiftError):
        unilateral().gamma(-1)


# ---------------------------------------------------------------------------
# hyponormality and Hankel positivity


def test_hyponormal_families():
    # hyponormality on [0, window] is the order-1 scan over bases 0..window-1
    assert khypo_witness(alpha_family(), 1, 29) is None
    assert khypo_witness(bergman_like(1), 1, 29) is None
    assert khypo_witness(witness_shift(), 1, 29) is None
    decreasing = make_weights((F(1), F(1, 2)), WeightTail("constant", F(1, 2)))
    assert khypo_witness(decreasing, 1, 4) is not None
    with pytest.raises(ShiftError):
        khypo_witness(unilateral(), 1, -1)


def test_witness_hankel_matrix_and_det():
    w = witness_shift()
    assert hankel_matrix(w, 2, 0) == [
        [F(1), F(1, 4), F(1, 16)],
        [F(1, 4), F(1, 16), F(1, 16)],
        [F(1, 16), F(1, 16), F(1, 16)],
    ]
    assert matrix_det(hankel_matrix(w, 2, 0)) == F(-9, 4096)
    assert not hankel_psd(w, 2, 0)
    assert khypo_witness(w, 2, 5) is not None


def test_witness_scans_name_the_first_failure():
    decreasing = make_weights((F(1), F(1, 2)), WeightTail("constant", F(1, 2)))
    assert khypo_witness(decreasing, 1, 4) == 0
    late = make_weights((F(1, 2), F(2, 3), F(1, 3)), WeightTail("constant", F(1)))
    assert khypo_witness(late, 1, 0) is None
    assert khypo_witness(late, 1, 4) == 1
    assert khypo_witness(bergman_like(1), 1, 29) is None
    assert khypo_witness(witness_shift(), 2, 5) == 0
    assert khypo_witness(witness_shift(), 1, 5) is None
    assert khypo_witness(bergman_like(2), 3, 8) is None


@pytest.mark.parametrize(
    "scan, args",
    [
        (khypo_witness, (-1, 4)),
        (khypo_witness, (1, -1)),
        (khypo_witness, (0, 4)),
        (khypo_witness, (2, -1)),
        (khypo_witness, (0, -5)),
    ],
)
def test_witness_scans_reject_bad_order_and_window(scan, args):
    # a negative window once made the k-hyponormality scan look at nothing and pass
    with pytest.raises(ShiftError):
        scan(witness_shift(), *args)


def test_subnormal_families_pass_every_order():
    for w in (bergman_like(1), bergman_like(2), alpha_family(), beta_r_family(F(16, 25))):
        for order in range(1, 5):
            assert khypo_witness(w, order, 12) is None


@pytest.mark.parametrize(
    "w",
    [
        flat_shift(F(1, 3)),
        alpha_family(),
        unilateral(),
        make_weights((F(1, 5),), WeightTail("constant", F(2, 5))),
    ],
    ids=["flat", "alpha_family", "unilateral", "constant_tail"],
)
def test_singular_hankels_of_atomic_shifts_are_psd(w):
    # finitely atomic Berger measures: every Hankel of order >= 3 is singular
    for order in range(4, 7):
        for base in range(4):
            assert matrix_det(hankel_matrix(w, order, base)) == 0
            assert hankel_psd(w, order, base)


@pytest.mark.parametrize(
    "w",
    [
        bergman_like(1),
        bergman_like(3),
        alpha_family(),
        beta_r_family(F(16, 25)),
        unilateral(),
        make_weights((), WeightTail("constant", F(7, 5))),
        flat_shift(F(1, 3)),
        witness_shift(),
        make_weights((F(2, 3), F(1, 2), F(5, 7), F(3, 4)), WeightTail("constant", F(9, 8))),
        make_weights((F(7, 9), F(11, 6)), WeightTail("bergman_like", 2)),
    ],
    ids=[
        "bergman1",
        "bergman3",
        "alpha_family",
        "beta_r_family",
        "unilateral",
        "constant_tail",
        "flat",
        "equal_pair",
        "prefix_constant",
        "prefix_bergman",
    ],
)
def test_cleared_hankel_is_the_scaled_moment_matrix(w):
    for order in range(1, 7):
        for base in range(6):
            weights = [w.weight_sq(base + s) for s in range(2 * order)]
            scale = prod(q.denominator for q in weights) / w.gamma(base)[base]
            rows = hankel_matrix(w, order, base)
            assert _cleared_hankel(weights, order) == [[scale * g for g in row] for row in rows]
            assert hankel_psd(w, order, base) == _psd_by_fraction_ldl(rows)


def _first_failing_base(w, order, window):
    """Reference scan: the first base whose Hankel matrix fails the Fraction
    LDL^T test."""
    bases = range(window + 1)
    return next((base for base in bases if not _psd_by_fraction_ldl(hankel_matrix(w, order, base))), None)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except ShiftError as err:
        return f"ShiftError: {err}"


@st.composite
def _weight_seqs(draw):
    """A prefix of up to four squared weights, sorted half the time, before a
    tail of any kind, the finite "none" tail included."""
    prefix = draw(st.lists(st.fractions(F(1, 8), 2, max_denominator=8), max_size=4))
    if draw(st.booleans()):
        prefix.sort()
    kind = draw(st.sampled_from(TAIL_KINDS))
    value = {
        "constant": st.fractions(F(1, 8), 2, max_denominator=8),
        "beta_r_family": st.fractions(F(1, 8), 1, max_denominator=8),
        "bergman_like": st.integers(1, 3),
    }.get(kind, st.none())
    return make_weights(prefix, WeightTail(kind, draw(value)))


@given(_weight_seqs(), st.integers(1, 6), st.integers(0, 6))
@example(make_weights((F(1, 2), F(3, 4), F(7, 8))), 1, 2)  # passes bases 0-1, then runs out
@settings(max_examples=200, deadline=None)
def test_khypo_witness_is_the_first_base_the_fraction_reference_fails(w, order, window):
    assert _outcome(khypo_witness, w, order, window) == _outcome(_first_failing_base, w, order, window)


def test_khypo_witness_does_not_go_through_the_checked_entry(monkeypatch):
    def refuse(rows):
        raise AssertionError("psd_check called")

    monkeypatch.setattr(shift1d, "psd_check", refuse)
    assert khypo_witness(witness_shift(), 2, 5) == 0
    assert khypo_witness(bergman_like(1), 2, 29) is None
    assert propagation_audit(witness_shift(), 4, 10).kind == "WITNESS"
    with pytest.raises(AssertionError):
        hankel_psd(bergman_like(1), 2, 0)


def test_khypo_witness_answers_past_the_matrix_order_cap():
    # orders 8 and 9 (matrices of order 9 and 10) raised ExactInputError
    # through psd_check; the scan now answers, the public Hankel test still
    # refuses them, and the CLI still caps --k at 6
    assert khypo_witness(bergman_like(1), 8, 2) is None
    for order in (8, 9):
        for w in (bergman_like(1), alpha_family(), witness_shift()):
            assert khypo_witness(w, order, 2) == _first_failing_base(w, order, 2)
        with pytest.raises(ExactInputError, match=f"matrix order {order + 1} exceeds 8"):
            hankel_psd(bergman_like(1), order, 0)


def test_closed_form_matches_expanded_determinant():
    for ell in (1, 2, 3):
        w = bergman_like(ell)
        for k in range(9):
            gamma_k = w.gamma(k)[k]
            closed = bergman_like_hankel2_det(ell, k, gamma_k)
            assert closed == matrix_det(hankel_matrix(w, 2, k))
            assert closed > 0


def test_closed_form_pinned_values():
    assert bergman_like_hankel2_det(1, 0, F(1)) == F(1, 2160)
    assert bergman_like_hankel2_det(2, 0, F(1)) == F(1, 64)
    with pytest.raises(ShiftError):
        bergman_like_hankel2_det(0, 0, F(1))


# ---------------------------------------------------------------------------
# moments against representing measures


def test_berger_bergman_is_lebesgue():
    assert verify_berger(bergman_like(1), lebesgue(), 30)


def test_berger_flat_is_two_atoms():
    for a_sq in (F(1, 4), F(1, 2), F(9, 10)):
        mu = make1d([(F(0), 1 - a_sq), (F(1), a_sq)])
        assert verify_berger(flat_shift(a_sq), mu, 30)


def test_berger_alpha_family_is_three_atoms():
    xi = make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
    assert verify_berger(alpha_family(), xi, 30)


def test_berger_beta_family_mixes_density_and_atoms():
    for r_sq in (F(16, 25), F(1)):
        eta = combine1d(
            [
                (1 - r_sq, delta(F(0))),
                (r_sq / 2, lebesgue()),
                (r_sq / 2, delta(F(1))),
            ]
        )
        assert verify_berger(beta_r_family(r_sq), eta, 30)


def test_berger_detects_mismatch():
    assert not verify_berger(bergman_like(2), lebesgue(), 5)
    with pytest.raises(MeasureError):
        verify_berger(unilateral(), density([F(0), F(1)]), 5)


# ---------------------------------------------------------------------------
# propagation audit


def test_audit_flat():
    assert propagation_audit(flat_shift(F(1, 4)), 3, 10).kind == "FLAT"
    assert propagation_audit(unilateral(), 3, 10).kind == "FLAT"


def test_audit_no_equal_pair():
    assert propagation_audit(bergman_like(1), 3, 10).kind == "NO_EQUAL_PAIR"
    assert propagation_audit(alpha_family(), 3, 10).kind == "NO_EQUAL_PAIR"


def test_audit_finds_witness():
    result = propagation_audit(witness_shift(), 4, 10)
    assert result.kind == "WITNESS"
    assert (result.order, result.base) == (2, 0)


def test_audit_validation():
    with pytest.raises(ShiftError):
        propagation_audit(witness_shift(), 1, 10)
    with pytest.raises(ShiftError):
        propagation_audit(witness_shift(), 2, 1)
    with pytest.raises(ShiftError):
        is_flat(unilateral(), 1)


# ---------------------------------------------------------------------------
# reciprocal-weight partial products


def test_beta_product_closed_form():
    for n in range(1, 201):
        assert beta_family_reciprocal_product(n) == F(3 * (n + 2), 2 * (n + 3))


def test_alpha_product_tends_to_three():
    prev = F(0)
    for n in range(1, 26):
        p = alpha_family_reciprocal_product(n)
        assert prev < p < 3
        prev = p
    assert 3 - prev < F(1, 10**6)


def test_products_need_positive_index():
    with pytest.raises(ShiftError):
        alpha_family_reciprocal_product(0)
    with pytest.raises(ShiftError):
        beta_family_reciprocal_product(0)


# ---------------------------------------------------------------------------
# JSON


def test_weights_round_trip():
    for w in (
        bergman_like(2),
        alpha_family(),
        beta_r_family(F(4, 9)),
        flat_shift(F(1, 3)),
        make_weights((F(1, 2), F(3, 4))),
    ):
        assert weights_from_json(weights_json(w)) == w


def test_weights_json_errors():
    with pytest.raises(ShiftError):
        weights_from_json({"prefix_sq": []})
    with pytest.raises(ShiftError):
        weights_from_json({"tail": {"kind": "gaussian"}})
    with pytest.raises(ShiftError):
        weights_from_json({"tail": {"kind": "bergman_like", "value": "1/2"}})
    with pytest.raises(ShiftError) as err:
        weights_from_json({"prefix_sq": ["1/x"], "tail": {"kind": "constant", "value": "1"}}, "doc.w")
    assert "doc.w.prefix_sq[0]" in str(err.value)
    with pytest.raises(ShiftError):
        weights_from_json({"tail": {"kind": "constant"}})


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1/x", "doc.w.prefix_sq[1]: malformed rational: '1/x'"),
        (True, "doc.w.prefix_sq[1]: expected a rational string, got True"),
        (0.5, "doc.w.prefix_sq[1]: expected a rational string, got 0.5"),
    ],
)
def test_weights_json_names_the_malformed_prefix_entry(entry, message):
    obj = {"prefix_sq": ["1/2", entry], "tail": {"kind": "constant", "value": "1"}}
    with pytest.raises(ShiftError) as err:
        weights_from_json(obj, "doc.w")
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# properties


@given(
    prefix=st.lists(st.fractions(min_value=F(1, 8), max_value=2), min_size=0, max_size=4),
    const=st.fractions(min_value=F(1, 8), max_value=2),
)
@settings(max_examples=80)
def test_gamma_ratios_recover_weights(prefix, const):
    w = make_weights(prefix, WeightTail("constant", const))
    gammas = w.gamma(len(prefix) + 3)
    for k in range(len(prefix) + 3):
        assert gammas[k + 1] / gammas[k] == w.weight_sq(k)


@given(
    base=st.integers(min_value=0, max_value=6),
    order=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40)
def test_hankel_matrices_are_symmetric(base, order):
    m = hankel_matrix(alpha_family(), order, base)
    size = order + 1
    assert all(m[i][j] == m[j][i] for i in range(size) for j in range(size))
