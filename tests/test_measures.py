"""Atoms-plus-polynomial-density measures and the backward-extension calculus.

Expected values were computed by hand from the defining integrals before the
assertions were written; every rational here is exact.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shiftlab.measures
from shiftlab.exactnum import poly_add, poly_nonneg_on_interval, poly_scale, poly_shift_up, poly_trim
from shiftlab.measures import (
    INFINITE,
    Measure1D,
    Measure2D,
    MeasureError,
    NegativePartError,
    ProductTerm,
    Segment,
    UnsupportedDensityError,
    _divide_by_t,
    _s_components,
    _segment_integral,
    backward_ext_1var,
    backward_ext_2var,
    combine1d,
    delta,
    density,
    extremal,
    lebesgue,
    make1d,
    make2d,
    measure1d_from_json,
    measure_sub,
)
from shiftlab.sfc import example_family, sfc_mu_m

F = Fraction


def eta_one():
    """(2/3) t dt + (2/3) delta_1, a probability measure."""
    return combine1d([(F(2, 3), density([F(0), F(1)])), (F(2, 3), delta(F(1)))])


def three_atoms():
    return make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])


# ---------------------------------------------------------------------------
# canonical form


def test_atoms_merge_and_sort():
    mu = make1d([(F(1), F(1, 4)), (F(0), F(1, 2)), (F(1), F(1, 4))])
    assert mu.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))


def test_segments_with_matching_density_merge():
    split = make1d([], [([F(1)], F(0), F(1, 2)), ([F(1)], F(1, 2), F(1))])
    assert split == lebesgue()


def test_overlapping_segments_add():
    doubled = make1d([], [([F(1)], F(0), F(1)), ([F(1)], F(0), F(1))])
    assert doubled == density([F(2)])
    assert doubled.total_mass() == 2


def test_signed_parts_may_cancel():
    mu = make1d([(F(1, 2), F(1)), (F(1, 2), F(-1))], [([F(3)], F(0), F(1))])
    assert mu.atoms == ()
    assert mu.total_mass() == 3


def test_negative_part_raises():
    with pytest.raises(NegativePartError):
        make1d([(F(1, 2), F(-1, 10))])
    with pytest.raises(NegativePartError):
        make1d([], [([F(-1, 2), F(1)], F(0), F(1))])  # t - 1/2 dips below 0


def test_negative_points_rejected():
    with pytest.raises(MeasureError):
        make1d([(F(-1, 2), F(1))])
    with pytest.raises(MeasureError):
        make1d([], [([F(1)], F(-1), F(1))])


# ---------------------------------------------------------------------------
# moments and norms


def test_lebesgue_moments():
    dt = lebesgue()
    for n in range(11):
        assert dt.moment(n) == F(1, n + 1)


def test_three_atom_moments():
    xi = three_atoms()
    assert xi.moment(2) == F(5, 12)
    for k in range(1, 21):
        assert xi.moment(k) == (1 + F(1, 2**k)) / 3


def test_eta_one_values():
    eta1 = eta_one()
    assert eta1.is_probability()
    assert eta1.moment(1) == F(8, 9)
    assert eta1.inv_t_norm() == F(4, 3)
    assert 1 / eta1.inv_t_norm() == F(3, 4)  # the largest prependable squared weight


def test_inv_t_norm_infinite_cases():
    assert delta(F(0)).inv_t_norm() is INFINITE
    assert lebesgue().inv_t_norm() is INFINITE  # constant density down to 0
    assert make1d([(F(0), F(1, 2)), (F(1), F(1, 2))]).inv_t_norm() is INFINITE


def test_inv_t_norm_log_case_unsupported():
    mu = density([F(2)], F(1, 2), F(1))
    with pytest.raises(UnsupportedDensityError):
        mu.inv_t_norm()


def test_inv_t_norm_finite_segment():
    assert density([F(0), F(2)]).inv_t_norm() == 2  # 2t dt integrates 2/t . t = 2


def test_max_backward_weight_rejects_infinite():
    # a divergent 1/t norm leaves no positive weight to prepend
    result = backward_ext_1var(lebesgue(), F(1, 100))
    assert not result.ok and result.failed == "i" and result.inv_t_norm is INFINITE


# ---------------------------------------------------------------------------
# scaling, ordering, restriction


def test_scale_and_zero():
    mu = eta_one().scale(F(1, 2))
    assert mu.total_mass() == F(1, 2)
    with pytest.raises(NegativePartError):
        eta_one().scale(F(-1))
    assert eta_one().scale(F(0)).total_mass() == 0


def test_measure_order():
    # mu <= nu setwise exactly when nu - mu is a measure
    eta1 = eta_one()
    measure_sub(eta1, eta1.scale(F(1, 2)))
    with pytest.raises(NegativePartError):
        measure_sub(eta1.scale(F(1, 2)), eta1)
    measure_sub(eta1, eta1)
    # incomparable pair: mass in different places
    with pytest.raises(NegativePartError):
        measure_sub(delta(F(2, 3)), delta(F(1, 3)))


def test_measure_sub_exact():
    eta1 = eta_one()
    rest = measure_sub(eta1, delta(F(1), F(1, 2)))
    assert rest.atom_mass(F(1)) == F(1, 6)
    assert rest.total_mass() == F(1, 2)
    with pytest.raises(NegativePartError):
        measure_sub(eta1, delta(F(1), F(3, 4)))


def test_restriction_of_lebesgue():
    assert lebesgue().restriction(1) == density([F(0), F(2)])


def test_restriction_of_two_atoms():
    for a_sq in (F(1, 4), F(1, 2)):
        mu = make1d([(F(0), 1 - a_sq), (F(1), a_sq)])
        assert mu.restriction(1) == delta(F(1))


def test_restriction_degenerate():
    with pytest.raises(MeasureError):
        delta(F(0)).restriction(1)


def test_restriction_shifts_moments():
    mu = combine1d([(F(1, 2), lebesgue()), (F(1, 2), delta(F(1, 2)))])
    nu = mu.restriction(2)
    g2 = mu.moment(2)
    for k in range(8):
        assert nu.moment(k) == mu.moment(k + 2) / g2


# ---------------------------------------------------------------------------
# one-variable backward extension


def test_backward_ext_recovers_lebesgue():
    result = backward_ext_1var(density([F(0), F(2)]), F(1, 2))
    assert result.ok and result.failed is None
    assert result.measure == lebesgue()


def test_backward_ext_eta_one():
    result = backward_ext_1var(eta_one(), F(3, 4))
    assert result.ok
    assert result.measure == combine1d([(F(1, 2), lebesgue()), (F(1, 2), delta(F(1)))])


def test_backward_ext_keeps_leftover_at_zero():
    result = backward_ext_1var(density([F(0), F(2)]), F(1, 4))
    assert result.ok
    # half the allowed mass stays at the origin: 1 - (1/4)*2 = 1/2
    assert result.measure.atom_mass(F(0)) == F(1, 2)
    assert result.measure.is_probability()


def test_backward_ext_rejects_atom_at_zero():
    result = backward_ext_1var(three_atoms(), F(1, 2))
    assert not result.ok and result.failed == "i"


def test_backward_ext_rejects_oversized_weight():
    result = backward_ext_1var(density([F(0), F(2)]), F(3, 4))
    assert not result.ok and result.failed == "ii"


def test_backward_ext_moment_shift_identity():
    eta1 = eta_one()
    beta_sq = F(2, 3)
    result = backward_ext_1var(eta1, beta_sq)
    assert result.ok
    for k in range(21):
        assert result.measure.moment(k + 1) == beta_sq * eta1.moment(k)


@given(
    beta_sq=st.fractions(min_value=F(1, 16), max_value=F(1, 2)),
    extra=st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=60)
def test_backward_ext_always_probability_when_accepted(beta_sq, extra):
    share = 1 / (1 + extra)
    eta_m = combine1d([(share, density([F(0), F(2)])), (1 - share, delta(F(1)))])
    result = backward_ext_1var(eta_m, beta_sq)
    if result.ok:
        assert result.measure.is_probability()
        assert result.measure.moment(1) == beta_sq


# ---------------------------------------------------------------------------
# product measures


def test_product_moments_factor():
    mu = make2d([(F(1), three_atoms(), eta_one())])
    for j in range(5):
        for k in range(5):
            assert mu.moment(j, k) == three_atoms().moment(j) * eta_one().moment(k)


def test_make2d_groups_by_s_component():
    s = make1d([(F(0), F(1)), (F(1), F(1))])
    mu = make2d([(F(1), s, density([F(0), F(1)]))])
    # the two-atom s part splits into one term per atom, each with the
    # normalized t part and half the mass
    assert len(mu.terms) == 2
    assert mu.total_mass() == 1
    assert mu.is_probability()


def test_extremal_two_atom_column():
    s = make1d([(F(0), F(1)), (F(1), F(1))])
    mu = make2d([(F(1), s, density([F(0), F(1)]))])
    assert mu.inv_t_norm() == 2
    ext = extremal(mu)
    assert ext.total_mass() == 1
    assert _marginal(ext) == make1d([(F(0), F(1, 2)), (F(1), F(1, 2))])
    for j in range(4):
        for k in range(4):
            s_factor = F(1) if j == 0 else F(1, 2)
            assert ext.moment(j, k) == s_factor * F(1, k + 1)


def test_extremal_mixed_corner_mass():
    # mass 1/2 at the (1,1) corner, the rest along the t axis
    a_sq = F(1, 2)
    column = measure_sub(eta_one(), delta(F(1), a_sq))
    mu = make2d([(a_sq, delta(F(1)), delta(F(1))), (F(1), delta(F(0)), column)])
    assert mu.is_probability()
    assert mu.inv_t_norm() == F(4, 3)
    ext = extremal(mu)
    assert ext.total_mass() == 1
    assert _marginal(ext) == make1d([(F(0), F(5, 8)), (F(1), F(3, 8))])


def test_extremal_requires_finite_norm():
    mu = make2d([(F(1), delta(F(1)), delta(F(0)))])
    assert mu.inv_t_norm() is INFINITE
    with pytest.raises(MeasureError):
        extremal(mu)


# ---------------------------------------------------------------------------
# two-variable backward extension


def corner_core():
    s = make1d([(F(0), F(1)), (F(1), F(1))])
    return make2d([(F(1), s, density([F(0), F(1)]))])


def test_backward_ext_2var_accepts_below_threshold():
    result = backward_ext_2var(corner_core(), three_atoms(), F(1, 3))
    assert result.ok and result.failed is None
    mu = result.measure
    assert mu.is_probability()
    # first marginal reproduces the level measure exactly
    assert _marginal(mu) == three_atoms()
    assert mu.moment(1, 0) == F(1, 2)


def test_backward_ext_2var_moment_identity():
    core = corner_core()
    result = backward_ext_2var(core, three_atoms(), F(1, 3))
    for j in range(9):
        for k in range(9):
            assert result.measure.moment(j, k + 1) == F(1, 3) * core.moment(j, k)


def test_backward_ext_2var_rejects_above_threshold():
    result = backward_ext_2var(corner_core(), three_atoms(), F(1, 2))
    assert not result.ok and result.failed == "iii"


def test_backward_ext_2var_rejects_oversized_weight():
    result = backward_ext_2var(corner_core(), three_atoms(), F(2, 3))
    assert not result.ok and result.failed == "ii"


def test_backward_ext_2var_rejects_infinite_norm():
    core = make2d([(F(1), delta(F(1)), make1d([(F(0), F(1, 2)), (F(1), F(1, 2))]))])
    result = backward_ext_2var(core, three_atoms(), F(1, 4))
    assert not result.ok and result.failed == "i"


# ---------------------------------------------------------------------------
# JSON


def test_measure_json_round_trip():
    eta1 = eta_one()
    again = measure1d_from_json(eta1.to_json_obj())
    assert again == eta1


def test_measure_json_reports_position():
    with pytest.raises(MeasureError) as err:
        measure1d_from_json({"atoms": [["0", "x"]], "segments": []}, "spec.xi")
    assert "spec.xi" in str(err.value)


def test_measure_json_rejects_shape_errors():
    with pytest.raises(MeasureError):
        measure1d_from_json([1, 2, 3])
    with pytest.raises(MeasureError):
        measure1d_from_json({"atoms": [["1/2"]], "segments": []})


@given(
    masses=st.lists(st.fractions(min_value=0, max_value=2), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_total_mass_is_sum_of_parts(masses):
    points = [F(i, len(masses)) for i in range(len(masses))]
    mu = make1d(list(zip(points, masses)))
    assert mu.total_mass() == sum(masses)


# ---------------------------------------------------------------------------
# direct constructions against canonicalizing references
#
# The references are the earlier routines: the 1/t norm as a direct sum, and
# restriction, division by t, combination, make2d and extremal each passing
# its result through the reference canonicalizer (below) again.  The library
# builds those results canonical by construction; both must give equal
# measures, errors and norms.


def _raw(mu):
    return [(x, m) for x, m in mu.atoms], [(list(s.coeffs), s.lo, s.hi) for s in mu.segments]


_LOG_TEXT = (
    "dividing a density with nonzero constant term by t yields "
    "a logarithmic moment measure; not representable"
)


def _ref_inv_t_norm(mu):
    total = F(0)
    for x, m in mu.atoms:
        if x == 0:
            return INFINITE
        total += m / x
    for seg in mu.segments:
        coeffs = list(seg.coeffs)
        if coeffs[0] != 0:
            if seg.lo == 0:
                return INFINITE
            raise UnsupportedDensityError(_LOG_TEXT)
        total += _ref_segment_integral(coeffs[1:], seg.lo, seg.hi)
    return total


def _ref_inv_t_norm_2d(mu):
    if any(_outcome(_ref_inv_t_norm, term.t_part) is INFINITE for term in mu.terms):
        return INFINITE
    return sum((term.coeff * _ref_inv_t_norm(term.t_part) for term in mu.terms), F(0))


def _ref_divide_by_t(mu):
    atoms = []
    for x, m in mu.atoms:
        if x == 0:
            raise MeasureError("cannot divide an atom at 0 by t")
        atoms.append((x, m / x))
    segments = []
    for seg in mu.segments:
        coeffs = list(seg.coeffs)
        if coeffs[0] != 0:
            if seg.lo == 0:
                raise MeasureError("divergent division by t at 0")
            raise UnsupportedDensityError(_LOG_TEXT)
        segments.append((coeffs[1:], seg.lo, seg.hi))
    return _ref_make1d(atoms, segments)


def _ref_restriction(mu, h):
    if not mu.is_probability():
        raise MeasureError("restriction needs a probability measure")
    gamma_h = mu.moment(h)
    if gamma_h == 0:
        raise MeasureError("measure concentrated at 0: degenerate restriction")
    atoms = [(x, m * x**h / gamma_h) for x, m in mu.atoms if x != 0]
    segments = [(poly_scale(poly_shift_up(list(s.coeffs), h), 1 / gamma_h), s.lo, s.hi) for s in mu.segments]
    return _ref_make1d(atoms, segments)


def _ref_make2d(terms):
    grouped = {}
    for coeff, s_part, t_part in terms:
        t_mass = t_part.total_mass()
        if coeff == 0 or t_mass == 0:
            continue
        t_unit = t_part.scale(1 / t_mass)
        for key, s_mass, s_piece in _s_components(s_part):
            grouped.setdefault(key, (s_piece, []))[1].append((coeff * s_mass * t_mass, t_unit))
    canon = []
    for key in sorted(grouped):
        s_piece, contribs = grouped[key]
        t_sum = _ref_combine1d(contribs)
        mass = t_sum.total_mass()
        if mass:
            canon.append(ProductTerm(mass, s_piece, t_sum.scale(1 / mass)))
    return Measure2D(tuple(canon))


def _ref_extremal(mu):
    norm = _ref_inv_t_norm_2d(mu)
    if norm is INFINITE:
        raise MeasureError("extremal measure undefined: 1/t norm diverges")
    if norm == 0:
        raise MeasureError("extremal measure undefined: no mass off t = 0")
    terms = []
    for term in mu.terms:
        stripped = _ref_make1d([(x, m) for x, m in term.t_part.atoms if x != 0], _raw(term.t_part)[1])
        terms.append((term.coeff / norm, term.s_part, _ref_divide_by_t(stripped)))
    return _ref_make2d(terms)


def _ref_backward_ext_2var(mu_m, xi, beta00_sq):
    norm = _ref_inv_t_norm_2d(mu_m)
    if norm is INFINITE or beta00_sq * norm > 1:
        return None
    ext = _ref_extremal(mu_m)
    marginal = _ref_combine1d([(t.coeff, t.s_part) for t in ext.terms]).scale(beta00_sq * norm)
    try:
        remainder = _ref_combine1d([(F(1), xi), (F(-1), marginal)])
    except NegativePartError:
        return "iii"
    terms = [(beta00_sq * norm * t.coeff, t.s_part, t.t_part) for t in ext.terms]
    return _ref_make2d(terms + [(F(1), remainder, delta(F(0)))])


def _outcome(fn, *args):
    """The result, or the error's kind and text; a private subclass of
    MeasureError counts as MeasureError."""
    try:
        return fn(*args)
    except MeasureError as exc:
        kind = next(k for k in (UnsupportedDensityError, NegativePartError, MeasureError) if isinstance(exc, k))
        return kind, str(exc)


def _assert_canonical(mu):
    assert make1d(*_raw(mu)) == mu


_POINTS = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
_small = st.fractions(min_value=0, max_value=2, max_denominator=4)


@st.composite
def _density_on_unit(draw):
    """A density nonnegative on [0, 1]: its constant term is zero or not,
    and some vanish to second order inside."""
    kind = draw(st.sampled_from(["plain", "from_zero", "square"]))
    if kind == "square":
        # c (t - r)**2 (1 + s t), s >= 0: constant term c r**2
        r = draw(st.sampled_from(_POINTS))
        c = draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4))
        s = draw(_small)
        return [c * r * r, c * (-2 * r + r * r * s), c * (1 - 2 * r * s), c * s]
    coeffs = draw(st.lists(_small, min_size=1, max_size=3))
    return [F(0)] + coeffs if kind == "from_zero" else coeffs


@st.composite
def canonical_measures(draw, probability=False):
    """Atoms at 0, at 1 and inside; pieces from 0 and away from it, with
    gaps between pieces and equal densities on adjacent ones."""
    atoms = draw(
        st.lists(
            st.tuples(st.sampled_from(_POINTS), st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8)),
            max_size=3,
        )
    )
    edges = sorted(set(draw(st.lists(st.sampled_from(_POINTS), min_size=2, max_size=5))))
    segments, poly = [], None
    for lo, hi in zip(edges, edges[1:]):
        if draw(st.booleans()):
            continue
        if poly is None or draw(st.booleans()):
            poly = draw(_density_on_unit())
        segments.append((poly, lo, hi))
    mu = make1d(atoms, segments)
    if probability:
        assume(mu.total_mass() > 0)
        mu = mu.scale(1 / mu.total_mass())
    return mu


@st.composite
def _product_terms(draw):
    return draw(
        st.lists(
            st.tuples(st.sampled_from([F(0), F(1, 3), F(1), F(5, 2)]), canonical_measures(), canonical_measures()),
            min_size=1,
            max_size=3,
        )
    )


@given(mu=canonical_measures())
@settings(max_examples=150, deadline=None)
def test_one_variable_results_equal_the_canonicalizing_references(mu):
    norm = _outcome(mu.inv_t_norm)
    assert norm == _outcome(_ref_inv_t_norm, mu)
    divided = _outcome(_divide_by_t, mu)
    assert divided == _outcome(_ref_divide_by_t, mu)
    if not isinstance(divided, tuple):
        _assert_canonical(divided)
        assert divided.total_mass() == norm
    for c in (F(0), F(1, 3), F(2)):
        assert combine1d([(c, mu)]) == _ref_combine1d([(c, mu)])
    if mu.total_mass() > 0:
        unit = mu.scale(1 / mu.total_mass())
        for h in (1, 2, 3):
            restricted = _outcome(unit.restriction, h)
            assert restricted == _outcome(_ref_restriction, unit, h)
            if not isinstance(restricted, tuple):
                _assert_canonical(restricted)


_LOG_FACTOR = density([F(1)], F(1, 2), F(1))  # 1/t on [1/2, 1] gives a logarithm


@given(terms=_product_terms())
@example(terms=[(F(1), delta(F(0)), _LOG_FACTOR), (F(1), delta(F(1)), lebesgue())])
@example(terms=[(F(1), delta(F(0)), lebesgue()), (F(1), delta(F(1)), _LOG_FACTOR)])
@settings(max_examples=60, deadline=None)
def test_two_variable_results_equal_the_canonicalizing_references(terms):
    mu = make2d(terms)
    assert mu == _ref_make2d(terms)
    for term in mu.terms:
        _assert_canonical(term.t_part)
    # a divergent t-factor reads INFINITE wherever it sits; a logarithmic one
    # raises only when none diverges; the examples put each first
    assert _outcome(mu.inv_t_norm) == _outcome(_ref_inv_t_norm_2d, mu)
    ext = _outcome(extremal, mu)
    assert ext == _outcome(_ref_extremal, mu)
    if not isinstance(ext, tuple):
        for term in ext.terms:
            _assert_canonical(term.t_part)


@pytest.mark.parametrize("log_under_zero", [True, False])
def test_a_divergent_t_factor_decides_in_either_term_order(log_under_zero):
    # the @example orders above, as a probability measure
    half, log = F(1, 2), _LOG_FACTOR.scale(F(2))
    factors = (log, lebesgue()) if log_under_zero else (lebesgue(), log)
    mu = make2d([(half, delta(F(x)), t) for x, t in zip((0, 1), factors)])
    assert mu.inv_t_norm() is INFINITE
    assert backward_ext_2var(mu, delta(F(0)), half).failed == "i"
    with pytest.raises(MeasureError, match="1/t norm diverges"):
        extremal(mu)


def test_each_measure_divides_by_t_once(monkeypatch):
    calls = []
    divide = shiftlab.measures._divide_by_t
    monkeypatch.setattr(shiftlab.measures, "_divide_by_t", lambda mu: calls.append(mu) or divide(mu))
    p = example_family(F(1, 2), F(1), y0_sq=F(2, 5))
    for run in (lambda mu: backward_ext_2var(mu, p.xi, p.y0_sq), extremal):
        mu_m = sfc_mu_m(p)
        calls.clear()
        run(mu_m)
        assert len(calls) == len(mu_m.terms) == 2
    eta_m = density([F(0), F(2)])
    calls.clear()
    backward_ext_1var(eta_m, F(1, 2))
    assert calls == [eta_m]


@given(
    terms=_product_terms(),
    nu=canonical_measures(probability=True),
    share=st.sampled_from([F(1, 2), F(1)]),
    excess=st.sampled_from([F(1, 2), F(1), F(3, 2)]),
)
@settings(max_examples=60, deadline=None)
def test_backward_ext_2var_equals_the_two_step_reference(terms, nu, share, excess):
    # xi = share * (extremal marginal) + (1 - share) * nu and a weight
    # excess * share / N reach all three verdicts, the boundary included
    mass = make2d(terms).total_mass()
    assume(mass > 0)
    mu_m = make2d([(c / mass, s, t) for c, s, t in terms])
    try:
        ext = extremal(mu_m)
    except MeasureError:
        xi, beta00_sq = nu, F(1, 2)
    else:
        xi = combine1d([(share, _marginal(ext)), (1 - share, nu)])
        beta00_sq = excess * share / mu_m.inv_t_norm()
    try:
        expected = _ref_backward_ext_2var(mu_m, xi, beta00_sq)
    except UnsupportedDensityError:
        with pytest.raises(UnsupportedDensityError):
            backward_ext_2var(mu_m, xi, beta00_sq)
        return
    result = backward_ext_2var(mu_m, xi, beta00_sq)
    if expected is None:
        assert result.failed in ("i", "ii")
    elif expected == "iii":
        assert result.failed == "iii"
    else:
        assert result.ok and result.measure == expected


# ---------------------------------------------------------------------------
# the integer moment kernel against the Fraction sums it replaced
#
# The references are the earlier routines: one reduced Fraction per atom and
# per polynomial term.  The kernel clears denominators once per piece; the
# two must agree exactly on any data, signed and not canonical included.


def _ref_segment_integral(coeffs, lo, hi):
    total = F(0)
    for k, c in enumerate(coeffs):
        if c:
            total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


def _ref_moment(mu, n):
    total = sum((m * x**n for x, m in mu.atoms), F(0))
    for seg in mu.segments:
        total += _ref_segment_integral(poly_shift_up(list(seg.coeffs), n), seg.lo, seg.hi)
    return total


_points = st.fractions(min_value=0, max_value=3, max_denominator=30)
_signed = st.fractions(min_value=-5, max_value=5, max_denominator=30)


@st.composite
def _signed_measures(draw):
    """Atoms and pieces as drawn, not canonicalized: signed masses and
    coefficients, pieces from 0 and from lo > 0, overlapping or of zero
    length."""
    atoms = draw(st.lists(st.tuples(_points, _signed), max_size=5))
    segments = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lo, hi = sorted(draw(st.tuples(_points, _points)))
        segments.append(Segment(tuple(draw(st.lists(_signed, min_size=1, max_size=7))), lo, hi))
    return Measure1D(tuple(atoms), tuple(segments))


@given(mu=_signed_measures())
@settings(max_examples=200, deadline=None)
def test_integer_moments_equal_the_fraction_sums(mu):
    for n in range(31):
        moment = mu.moment(n)
        assert type(moment) is F and moment == _ref_moment(mu, n)
    assert mu.total_mass() == mu.moment(0)
    for seg in mu.segments:
        assert _segment_integral(list(seg.coeffs), seg.lo, seg.hi) == _ref_segment_integral(seg.coeffs, seg.lo, seg.hi)
    assert _outcome(mu.inv_t_norm) == _outcome(_ref_inv_t_norm, mu)


def test_integer_moments_with_wide_denominators():
    # 200 atoms whose points and masses have distinct prime denominators, and
    # a degree-8 density on [1/3, 7/11]: for n >= 1 the atoms' lcm is a
    # product of powers of 400 primes
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, int(p**0.5) + 1))][:400]
    atoms = tuple((F(p // 2, p), F(1, q)) for p, q in zip(primes[::2], primes[1::2]))
    coeffs = tuple(F((-1) ** k * (k + 2), 2 * k + 3) for k in range(9))
    mu = Measure1D(atoms, (Segment(coeffs, F(1, 3), F(7, 11)),))
    for n in range(13):
        assert mu.moment(n) == _ref_moment(mu, n)
    assert mu.total_mass() == _ref_moment(mu, 0)


# ---------------------------------------------------------------------------
# the canonicalizer against the Fraction-keyed one it replaced
#
# The references are the earlier routines: atoms merged in a Fraction-keyed
# dict, breakpoints found by comparing Fractions, and every piece of every
# sum sign-tested.  The library merges on integers and sign-tests only the
# pieces that raw input or a negative term reaches; on any data both must
# give equal measures, or errors of one kind with one text.


def _ref_make1d(atoms=(), segments=()):
    acc = {}
    for x, m in atoms:
        if x < 0:
            raise MeasureError(f"atom at negative point {x}")
        acc[x] = acc.get(x, F(0)) + m
    canon_atoms = []
    for x in sorted(acc):
        if acc[x] < 0:
            raise NegativePartError(f"negative atom mass {acc[x]} at {x}")
        if acc[x] != 0:
            canon_atoms.append((x, acc[x]))
    cleaned = []
    for coeffs, lo, hi in segments:
        if lo < 0:
            raise MeasureError(f"segment with negative endpoint {lo}")
        if lo > hi:
            raise MeasureError(f"segment with lo {lo} > hi {hi}")
        poly = poly_trim([F(c) for c in coeffs])
        if lo == hi or not poly:
            continue
        cleaned.append((poly, lo, hi))
    return Measure1D(tuple(canon_atoms), tuple(_ref_canonical_segments(cleaned)))


def _ref_canonical_segments(raw):
    if not raw:
        return []
    points = sorted({p for _, lo, hi in raw for p in (lo, hi)})
    pieces = {}
    for poly, lo, hi in raw:
        inner = [p for p in points if lo <= p <= hi]
        for a, b in zip(inner, inner[1:]):
            pieces[(a, b)] = poly_add(pieces.get((a, b), []), poly)
    out = []
    for a, b in sorted(pieces):
        poly = poly_trim(pieces[(a, b)])
        if not poly:
            continue
        if not poly_nonneg_on_interval(poly, a, b):
            raise NegativePartError(f"density negative somewhere on [{a}, {b}]")
        if out and out[-1].hi == a and list(out[-1].coeffs) == poly:
            out[-1] = Segment(out[-1].coeffs, out[-1].lo, b)
        else:
            out.append(Segment(tuple(poly), a, b))
    return out


def _ref_combine1d(terms):
    """The earlier combine1d without its one-term shortcut: every sum is
    canonicalized."""
    atoms, segments = [], []
    for c, mu in terms:
        atoms.extend((x, c * m) for x, m in mu.atoms)
        segments.extend((poly_scale(list(s.coeffs), c), s.lo, s.hi) for s in mu.segments)
    return _ref_make1d(atoms, segments)


def _ref_measure_sub(mu, nu):
    return _ref_combine1d([(F(1), mu), (F(-1), nu)])


def _ref_delta(point, mass=F(1)):
    return _ref_make1d([(F(point), F(mass))])


def _marginal(mu):
    """The first marginal of a 2-D measure."""
    return _ref_combine1d([(t.coeff, t.s_part) for t in mu.terms])


_EDGES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)]
_raw_mass = st.one_of(
    st.fractions(min_value=0, max_value=2, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)


@st.composite
def _raw_densities(draw):
    """A nonnegative density, its negation, or signed coefficients; zeros
    at the top included, so some trim to shorter or to nothing."""
    kind = draw(st.sampled_from(["nonneg", "negated", "signed"]))
    if kind == "signed":
        return draw(st.lists(_raw_mass, max_size=4))
    poly = draw(_density_on_unit()) + [F(0)] * draw(st.integers(min_value=0, max_value=1))
    return [-c for c in poly] if kind == "negated" else poly


@st.composite
def _raw_data(draw):
    """Signed, non-canonical make1d input: atoms at 0, at 1 and inside,
    several at one point; pieces that touch or overlap, one density repeated
    on adjacent intervals, zero-length pieces, and now and then a negative
    point or endpoint or a reversed piece."""
    atoms = draw(st.lists(st.tuples(st.sampled_from(_EDGES), _raw_mass), max_size=5))
    polys = draw(st.lists(_raw_densities(), min_size=1, max_size=3))
    segments = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lo, hi = sorted(draw(st.tuples(st.sampled_from(_EDGES), st.sampled_from(_EDGES))))
        segments.append((draw(st.sampled_from(polys)), lo, hi))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        bad = draw(st.sampled_from(["point", "endpoint", "reversed"]))
        if bad == "point":
            atoms.insert(draw(st.integers(min_value=0, max_value=len(atoms))), (F(-1, 2), F(1)))
        elif bad == "endpoint":
            segments.append(([F(1)], F(-1, 4), F(1)))
        else:
            segments.append(([F(1)], F(1), F(1, 2)))
    return atoms, segments


@given(raw=_raw_data())
@settings(max_examples=400, deadline=None)
def test_make1d_equals_the_reference_on_raw_data(raw):
    result = _outcome(make1d, *raw)
    assert result == _outcome(_ref_make1d, *raw)
    if not isinstance(result, tuple):
        for x, m in result.atoms:
            assert type(x) is F and type(m) is F
        for seg in result.segments:
            assert all(type(c) is F for c in seg.coeffs)


_coefficients = st.sampled_from([F(-2), F(-1), F(-1, 3), F(0), F(1, 2), F(1), F(3)])


@given(
    terms=st.lists(st.tuples(_coefficients, canonical_measures()), min_size=1, max_size=3),
    cancel=st.sampled_from([F(0), F(1, 2), F(1)]),
)
@settings(max_examples=300, deadline=None)
def test_combine1d_equals_the_reference_on_signed_sums(terms, cancel):
    # a negative multiple of a term already in the sum overlaps its
    # positive pieces exactly; cancel = 1 wipes it out
    c, mu = terms[0]
    terms = terms + [(-cancel * abs(c), mu)]
    assert _outcome(combine1d, terms) == _outcome(_ref_combine1d, terms)


@given(
    mu=canonical_measures(),
    other=canonical_measures(),
    share=st.sampled_from([F(0), F(1, 2), F(1), F(3, 2)]),
    extra=st.sampled_from([F(0), F(1, 4)]),
)
@settings(max_examples=300, deadline=None)
def test_measure_sub_equals_the_reference(mu, other, share, extra):
    # nu = share * mu + extra * other is below mu only when share <= 1 and
    # the extra part fits in what is left
    nu = combine1d([(share, mu), (extra, other)])
    assert _outcome(measure_sub, mu, nu) == _outcome(_ref_measure_sub, mu, nu)
    assert _outcome(measure_sub, nu, mu) == _outcome(_ref_measure_sub, nu, mu)


@given(point=st.sampled_from(_EDGES + [F(-1, 2)]), mass=_raw_mass)
def test_delta_equals_the_reference(point, mass):
    assert _outcome(delta, point, mass) == _outcome(_ref_delta, point, mass)
    if mass > 0 and point >= 0:
        assert delta(point, mass) == _ref_delta(point, mass)


def test_canonicalizer_fixed_cases():
    # equal densities on adjacent pieces merge; a negative term cancels a
    # positive one exactly; the first failing piece is named
    for atoms, segments in [
        ([(F(0), F(1)), (F(1), F(1, 2)), (F(1), F(-1, 2))], [([F(1)], F(0), F(1, 2)), ([F(1)], F(1, 2), F(1))]),
        ([], [([F(1), F(1)], F(0), F(1)), ([F(-1), F(-1)], F(1, 3), F(2, 3))]),
        ([], [([F(1)], F(0), F(1)), ([F(-2)], F(1, 3), F(1, 2)), ([F(-2)], F(2, 3), F(1))]),
        ([(F(1, 2), F(-1))], [([F(-1)], F(0), F(1))]),
    ]:
        assert _outcome(make1d, atoms, segments) == _outcome(_ref_make1d, atoms, segments)
    assert _outcome(make1d, [], [([F(1)], F(0), F(1)), ([F(-2)], F(1, 3), F(1, 2))]) == (
        NegativePartError,
        "density negative somewhere on [1/3, 1/2]",
    )
    uniform = lebesgue()
    assert measure_sub(uniform, density([F(1)], F(0), F(1, 2))) == density([F(1)], F(1, 2), F(1))


# ---------------------------------------------------------------------------
# the moment table
#
# Each measure keeps one table, extended on demand; whatever order the
# moments are read in, each must equal the Fraction sum.


def _wide_measure():
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, int(p**0.5) + 1))][:60]
    atoms = tuple((F(p // 2, p), F(1, q)) for p, q in zip(primes[::2], primes[1::2]))
    coeffs = tuple(F((-1) ** k * (k + 2), 2 * k + 3) for k in range(6))
    return Measure1D(atoms, (Segment(coeffs, F(1, 3), F(7, 11)),))


_TABLE_CASES = {
    "atom-at-0": lambda: make1d([(F(0), F(1, 3)), (F(1, 2), F(2, 3))]),
    "zero": lambda: Measure1D((), ()),
    "wide-denominators": _wide_measure,
    "atoms-and-pieces": lambda: make1d(
        [(F(0), F(1, 5)), (F(1), F(1, 7))],
        [([F(1), F(0), F(3, 2)], F(0), F(1, 3)), ([F(0), F(2)], F(1, 2), F(9, 10))],
    ),
    "piece-from-0": lambda: density([F(0), F(0), F(5, 4)]),
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_moment_table_reads_in_any_order(case, order):
    orders = list(range(15))
    if order == "descending":
        orders.reverse()
    elif order == "shuffled":
        random.Random(case).shuffle(orders)
    mu = _TABLE_CASES[case]()
    expected = [_ref_moment(mu, n) for n in range(15)]
    for n in orders + orders:
        moment = mu.moment(n)
        assert type(moment) is F and moment == expected[n]
    first, last = _TABLE_CASES[case](), _TABLE_CASES[case]()
    assert first.total_mass() == expected[0] and first.moment(14) == expected[14]
    assert last.moment(14) == expected[14] and last.total_mass() == expected[0]
    if case == "atom-at-0":
        assert expected[0] == 1 and expected[1] == F(1, 3)  # 0**0 = 1, 0**1 = 0


def test_copies_of_a_measure_start_a_fresh_table():
    for case in ("atoms-and-pieces", "piece-from-0"):
        mu = _TABLE_CASES[case]()
        norm = mu.inv_t_norm()  # INFINITE, or a quotient held by mu
        expected = [mu.moment(n) for n in range(6)]
        for copied in (copy.deepcopy(mu), pickle.loads(pickle.dumps(mu))):
            assert "_over_t" not in vars(copied) and "_moment_table" not in vars(copied)
            assert copied == mu and [copied.moment(n) for n in range(6)] == expected
            assert copied.inv_t_norm() == norm
