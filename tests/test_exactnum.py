"""Rational parsing, exact linear algebra, and the polynomial sign engine."""

import doctest
import re
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab.exactnum
from shiftlab.exactnum import (
    MAX_MATRIX_ORDER,
    ExactInputError,
    _psd_cleared,
    _odd_multiplicity_part,
    decimal_string,
    format_rational,
    matrix_det,
    parse_rational,
    parse_rational_field,
    parse_rational_list,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_nonneg_on_interval,
    poly_trim,
    psd2_radical_cross,
    psd_check,
    sturm_chain,
    sturm_count_halfopen,
)

HILBERT3 = [
    [Fraction(1), Fraction(1, 2), Fraction(1, 3)],
    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
    [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)],
]


def test_parse_rational_accepts_sums_and_signs():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("5") == 5
    assert parse_rational("1/6+1/100") == Fraction(53, 300)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 2/3 ") == Fraction(2, 3)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "abc", "1//2", "1/2+", "+", "1e3", "1e-999999999", "0.5", "1_000", "1_0/3", "\u0663", "1/-3"],
)
def test_parse_rational_rejects_garbage(bad):
    # only -?digits(/digits)? per part: exponents are refused before Fraction
    # would expand them, and Fraction's decimals, underscores and non-ASCII
    # digits are refused too
    with pytest.raises(ExactInputError, match="^malformed rational: "):
        parse_rational(bad)


_REF_RATIONAL_PART = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _ref_parse_rational(text):
    """The earlier parser: each matched part through Fraction's own string
    parser, added up as Fractions."""
    total = Fraction(0)
    parts = text.split("+")
    if not parts or any(not part.strip() for part in parts):
        raise ExactInputError(f"malformed rational: {text!r}")
    for part in parts:
        part = part.strip()
        try:
            if not _REF_RATIONAL_PART.fullmatch(part):
                raise ValueError(part)
            total += Fraction(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactInputError(f"malformed rational: {part!r}") from exc
    return total


def _parsed(parse, text):
    try:
        value = parse(text)
    except ExactInputError as exc:
        return "error", str(exc)
    assert type(value) is Fraction
    return value


@given(text=st.text(alphabet="0123456789-/+ ", max_size=12))
@settings(max_examples=500, deadline=None)
def test_parse_rational_equals_the_fraction_parser(text):
    assert _parsed(parse_rational, text) == _parsed(_ref_parse_rational, text)


@pytest.mark.parametrize(
    "text",
    ["-0/5", "007/010", "1/0", "1/-2", "\u0663", "1_0", "1e3", " 1/2 + 3 ", "1" * 5000, "1/" + "2" * 5000, "2/4+-1/2"],
)
def test_parse_rational_fixed_cases_equal_the_fraction_parser(text):
    assert _parsed(parse_rational, text) == _parsed(_ref_parse_rational, text)


def test_format_rational_past_the_digit_limit_is_an_input_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ExactInputError, match="^a result has more than 4300 digits: too long to print$"):
            format_rational(Fraction(1, 10**4300))
        assert format_rational(Fraction(1, 10**4299)) == "1/1" + "0" * 4299
    finally:
        sys.set_int_max_str_digits(limit)


class _FieldError(ValueError):
    pass


def test_parse_rational_field_refuses_booleans_and_raises_the_callers_error():
    assert parse_rational_field(3, "x", _FieldError) == 3
    assert parse_rational_field("1/6+1/100", "x", _FieldError) == Fraction(53, 300)
    for value in (True, False, None, 0.5, ["1"]):
        with pytest.raises(_FieldError, match="^doc.x: expected a rational string"):
            parse_rational_field(value, "doc.x", _FieldError)
    with pytest.raises(_FieldError, match="^doc.x: malformed rational"):
        parse_rational_field("1/0", "doc.x", _FieldError)


def test_parse_rational_list_names_each_entry():
    assert parse_rational_list([3, "1/2"], "x", _FieldError) == [3, Fraction(1, 2)]
    assert parse_rational_list((), "x", _FieldError) == []
    with pytest.raises(_FieldError, match=r"^doc\.x\[2\]: malformed rational: '1/0'$"):
        parse_rational_list(["1", "2", "1/0"], "doc.x", _FieldError)
    with pytest.raises(_FieldError, match=r"^doc\.x\[0\]: expected a rational string, got True$"):
        parse_rational_list([True], "doc.x", _FieldError)
    for value in ("1/2", {"0": "1"}, 1, None):
        with pytest.raises(_FieldError, match=r"^doc\.x: expected an array"):
            parse_rational_list(value, "doc.x", _FieldError)


def test_format_round_trips():
    for q in [Fraction(0), Fraction(7, 3240), Fraction(-9, 4096), Fraction(5)]:
        assert parse_rational(format_rational(q)) == q


def test_decimal_string_known_renderings():
    assert decimal_string(Fraction(8, 9), 12) == "0.888888888889"
    assert decimal_string(Fraction(1, 2), 12) == "0.5"
    assert decimal_string(Fraction(0), 12) == "0"
    assert decimal_string(Fraction(-1, 3), 6) == "-0.333333"


def test_decimal_string_rounds_half_even():
    # 1/8 at two significant digits sits exactly on a tie
    assert decimal_string(Fraction(1, 8), 2) == "0.12"
    assert decimal_string(Fraction(3, 8), 2) == "0.38"


def test_matrix_det_hilbert():
    assert matrix_det([row[:] for row in HILBERT3]) == Fraction(1, 2160)


def test_matrix_det_singular():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert matrix_det(rows) == 0


def test_psd_accepts_hilbert_and_rejects_indefinite():
    assert psd_check(HILBERT3)
    assert not psd_check([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])


def test_psd_semidefinite_boundary():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert psd_check(rows)


def test_psd_needs_symmetry_and_small_order():
    with pytest.raises(ExactInputError):
        psd_check([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]])
    big = [[Fraction(int(i == j)) for j in range(9)] for i in range(9)]
    with pytest.raises(ExactInputError):
        psd_check(big)


def test_psd2_radical_cross_pinned_cases():
    assert psd2_radical_cross(Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6))
    assert not psd2_radical_cross(Fraction(1, 3), Fraction(0), Fraction(1, 6), Fraction(1, 24))


def test_psd2_radical_cross_rejects_negative_products():
    with pytest.raises(ExactInputError):
        psd2_radical_cross(Fraction(1), Fraction(1), Fraction(-1), Fraction(1))


@pytest.mark.parametrize(("p", "q"), [(-1, 1), (1, -1), (-1, 0)])
def test_psd2_radical_cross_rejects_negative_integer_products(p, q):
    with pytest.raises(ExactInputError):
        psd2_radical_cross(1, 1, p, q)


_signed_ints = st.integers(-(2**80), 2**80)
_signed_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=2**40)


@st.composite
def _radical_case(draw, values):
    """(a1, a2, p, q): free draws, or p = u**2 and q = v**2 (u, v >= 0) with
    a1*a2 on the boundary (u - v)**2, or one unit below it."""
    a1, a2 = draw(values), draw(values)
    p, q = abs(draw(values)), abs(draw(values))
    kind = draw(st.sampled_from(["free", "boundary", "past"]))
    if kind != "free":
        u, v = abs(draw(values)), abs(draw(values))
        p, q = u * u, v * v
        a1, a2 = (u - v) ** 2 - (kind == "past"), type(u)(1)
        if draw(st.booleans()):
            a1, a2 = a2, a1
    return a1, a2, p, q, kind


@pytest.mark.parametrize(
    ("values", "scales"),
    [
        (_signed_ints, st.integers(1, 2**80)),
        (_signed_fractions, st.fractions(min_value=Fraction(1, 2**40), max_value=2**40)),
    ],
    ids=["ints", "fractions"],
)
def test_psd2_radical_cross_is_invariant_under_scaling(values, scales):
    # scaling a1 by s1 > 0, a2 by s2 > 0 and p, q by s1*s2 keeps the verdict
    @given(_radical_case(values), scales, scales)
    @settings(max_examples=200)
    def check(case, s1, s2):
        a1, a2, p, q, kind = case
        verdict = psd2_radical_cross(a1, a2, p, q)
        assert psd2_radical_cross(a1 * s1, a2 * s2, p * s1 * s2, q * s1 * s2) == verdict
        if kind == "boundary":
            assert verdict  # a1*a2 == (sqrt(p) - sqrt(q))**2 is PSD
        elif kind == "past":
            assert not verdict

    check()


def test_psd2_radical_cross_on_the_boundary():
    # a1*a2 == (sqrt(p) - sqrt(q))**2 exactly: L = -4 and L**2 == 4*p*q
    assert psd2_radical_cross(1, 1, 1, 4)
    assert psd2_radical_cross(Fraction(1, 3), Fraction(3), Fraction(1), Fraction(4))
    assert not psd2_radical_cross(1, 1, 1, 5)


def _oracle_psd2(a1, a2, p, q) -> tuple[bool, Decimal]:
    """50-digit floating evaluation of a1*a2 - (sqrt(p) - sqrt(q))**2."""
    getcontext().prec = 50
    da1, da2 = Decimal(a1.numerator) / a1.denominator, Decimal(a2.numerator) / a2.denominator
    dp = Decimal(p.numerator) / p.denominator
    dq = Decimal(q.numerator) / q.denominator
    margin = da1 * da2 - (dp.sqrt() - dq.sqrt()) ** 2
    return (da1 >= 0 and da2 >= 0 and margin >= 0), margin


def test_psd2_agrees_with_high_precision_oracle():
    import random

    rng = random.Random(20260822)
    checked = 0
    for _ in range(1000):
        a1 = Fraction(rng.randrange(0, 300), rng.randrange(1, 100))
        a2 = Fraction(rng.randrange(0, 300), rng.randrange(1, 100))
        p = Fraction(rng.randrange(0, 200), rng.randrange(1, 100))
        q = Fraction(rng.randrange(0, 200), rng.randrange(1, 100))
        exact = psd2_radical_cross(a1, a2, p, q)
        approx, margin = _oracle_psd2(a1, a2, p, q)
        if abs(margin) > Decimal("1e-30"):
            assert exact == approx, (a1, a2, p, q)
            checked += 1
    assert checked > 900  # the tolerance band should be rare


@given(
    a1=st.fractions(min_value=0, max_value=4),
    root=st.fractions(min_value=-2, max_value=2),
)
def test_psd2_square_cross_terms_reduce_to_product_sign(a1, root):
    # with q = 0 the cross term is exactly p, no radicals involved
    p = root**2
    assert psd2_radical_cross(a1, a1, p, Fraction(0)) == (a1 * a1 >= p)


def test_poly_eval_matches_horner_expansion():
    p = [Fraction(2), Fraction(-3), Fraction(1)]  # 2 - 3x + x^2
    assert poly_eval(p, Fraction(0)) == 2
    assert poly_eval(p, Fraction(1)) == 0
    assert poly_eval(p, Fraction(2)) == 0
    assert poly_eval(p, Fraction(3)) == 2


def test_sturm_counts_roots_half_open():
    # x^2 - 2 has one root in (0, 2]
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    chain = sturm_chain(p)
    assert sturm_count_halfopen(chain, Fraction(0), Fraction(2)) == 1
    assert sturm_count_halfopen(chain, Fraction(2), Fraction(3)) == 0
    # (x^2-2)(x^2-3) has both its positive roots in (1, 2]
    p2 = poly_mul(p, [Fraction(-3), Fraction(0), Fraction(1)])
    assert sturm_count_halfopen(sturm_chain(p2), Fraction(1), Fraction(2)) == 2


def test_poly_nonneg_basic_verdicts():
    x_minus_half = [Fraction(-1, 2), Fraction(1)]
    assert not poly_nonneg_on_interval(x_minus_half, Fraction(0), Fraction(1))
    assert poly_nonneg_on_interval(x_minus_half, Fraction(1, 2), Fraction(1))
    bump = [Fraction(0), Fraction(1), Fraction(-1)]  # x(1-x)
    assert poly_nonneg_on_interval(bump, Fraction(0), Fraction(1))
    assert not poly_nonneg_on_interval(bump, Fraction(2), Fraction(3))


def test_poly_nonneg_handles_irrational_double_roots():
    # (x^2-2)^2 touches zero at sqrt(2) but never goes below
    p = poly_mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(-2), Fraction(0), Fraction(1)])
    assert poly_nonneg_on_interval(p, Fraction(0), Fraction(2))
    assert not poly_nonneg_on_interval([-c for c in p], Fraction(0), Fraction(2))


def test_poly_nonneg_root_at_endpoint():
    # (x-1)(x-2) vanishes at the right endpoint of [0,1] and dips inside [0,3]
    p = [Fraction(2), Fraction(-3), Fraction(1)]
    assert poly_nonneg_on_interval(p, Fraction(0), Fraction(1))
    assert not poly_nonneg_on_interval(p, Fraction(0), Fraction(3))
    assert poly_nonneg_on_interval(p, Fraction(2), Fraction(5, 2))


def test_poly_nonneg_zero_and_constants():
    assert poly_nonneg_on_interval([], Fraction(0), Fraction(1))
    assert poly_nonneg_on_interval([Fraction(0)], Fraction(0), Fraction(1))
    assert not poly_nonneg_on_interval([Fraction(-1, 7)], Fraction(0), Fraction(1))


@given(
    coeffs=st.lists(st.fractions(min_value=-3, max_value=3), min_size=1, max_size=4),
    lo=st.fractions(min_value=0, max_value=1),
    width=st.fractions(min_value=Fraction(1, 64), max_value=2),
)
@settings(max_examples=150)
def test_poly_squares_are_nonnegative(coeffs, lo, width):
    assert poly_nonneg_on_interval(poly_mul(coeffs, coeffs), lo, lo + width)


def _squarefree_part(p):
    """p divided by gcd(p, p'); same distinct roots, all simple."""
    p = poly_trim(p)
    if len(p) <= 1:
        return poly_monic(p)
    quot, rem = poly_divmod(p, poly_gcd(p, poly_derivative(p)))
    assert not rem
    return poly_monic(quot)


def _one_root_nonneg(p, sqfree, count_open, a, b) -> bool:
    """[a, b] holds exactly one root r of p in its interior, p(a), p(b) >= 0.

    The sign of p is constant on (a, r) and on (r, b).  A strictly positive
    endpoint already certifies its side; an endpoint that is itself a root
    needs a sample strictly between it and r, found by bisecting a bracket
    around r (midpoints cannot stay on one side of r forever, since the
    bracket length halves while r stays interior).
    """
    need_left = poly_eval(p, a) == 0
    need_right = poly_eval(p, b) == 0
    u, v = a, b
    while need_left or need_right:
        m = (u + v) / 2
        if poly_eval(sqfree, m) == 0:
            # m is the root itself: sample both sides directly.
            if need_left and poly_eval(p, (a + m) / 2) < 0:
                return False
            if need_right and poly_eval(p, (m + b) / 2) < 0:
                return False
            return True
        if poly_eval(p, m) < 0:
            return False
        if count_open(u, m) == 1:
            # root lies left of m, so m samples the right side
            need_right = False
            v = m
        else:
            need_left = False
            u = m
    return True


def _nonneg_by_sturm(p, lo, hi) -> bool:
    """Reference: the Sturm-only decision, endpoint signs then Sturm
    bisection on every degree, with none of the cheaper certificates: the
    interval is bisected until every piece holds at most one root of the
    square-free part, then each root gets a sample on either side."""
    p = poly_trim(p)
    if not p:
        return True
    if len(p) == 1:
        return p[0] >= 0
    if poly_eval(p, lo) < 0 or poly_eval(p, hi) < 0:
        return False
    sqfree = _squarefree_part(p)
    chain = sturm_chain(sqfree)

    def count_open(a, b):
        n = sturm_count_halfopen(chain, a, b)
        if poly_eval(sqfree, b) == 0:
            n -= 1
        return n

    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        inside = count_open(a, b)
        mid = (a + b) / 2
        if inside == 0:
            if poly_eval(p, mid) < 0:
                return False
            continue
        if inside == 1:
            if not _one_root_nonneg(p, sqfree, count_open, a, b):
                return False
            continue
        if poly_eval(p, mid) < 0:
            return False
        stack.append((a, mid))
        stack.append((mid, b))
    return True


_small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _factored_on_interval(draw):
    """A product of rational linear and quadratic factors, total degree at
    most 6, on a rational interval: roots drawn at the endpoints, inside
    or anywhere, factors repeated, leading sign either way."""
    lo = draw(_small_rationals)
    hi = lo + draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
    inside = st.fractions(min_value=0, max_value=1, max_denominator=8).map(lambda u: lo + (hi - lo) * u)
    root = st.one_of(st.sampled_from([lo, hi]), inside, _small_rationals)
    p = [draw(_small_rationals.filter(bool))]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            factor = [-draw(root), Fraction(1)]
        else:
            r, s = draw(root), draw(_small_rationals)
            # (t - r)(t - s), or (t - r)**2 + s**2 with no real root unless s = 0
            factor = draw(st.sampled_from([[r * s, -(r + s), Fraction(1)], [r * r + s * s, -2 * r, Fraction(1)]]))
        for _ in range(draw(st.integers(1, 2))):
            if len(p) + len(factor) - 1 <= 7:
                p = poly_mul(p, factor)
    return p, lo, hi


@given(_factored_on_interval())
@settings(max_examples=400, deadline=None)
def test_poly_nonneg_agrees_with_sturm_reference(case):
    p, lo, hi = case
    assert poly_nonneg_on_interval(p, lo, hi) == _nonneg_by_sturm(p, lo, hi)


def test_poly_nonneg_certificate_rungs():
    f, zero, one = Fraction, Fraction(0), Fraction(1)
    # degree 1: nonnegative endpoints settle it, and a negative one refutes it
    assert poly_nonneg_on_interval([one, -one], zero, one)
    assert not poly_nonneg_on_interval([one, -2 * one], zero, one)
    # concave quadratic: the minimum is at an endpoint; t*(1 - t) on [0, 1]
    assert poly_nonneg_on_interval([zero, one, -one], zero, one)
    # vertex exactly at lo or at hi: (t - 1/2)**2 on [1/2, 1] and on [0, 1/2]
    square = [f(1, 4), -one, one]
    assert poly_nonneg_on_interval(square, f(1, 2), one)
    assert poly_nonneg_on_interval(square, zero, f(1, 2))
    # vertex outside with two real roots outside: (t - 1)(t - 2) on [0, 1]
    assert poly_nonneg_on_interval([2 * one, -3 * one, one], zero, one)
    # zero discriminant with the vertex inside touches 0 and stays there
    assert poly_nonneg_on_interval(square, zero, one)
    # vertex inside with a negative minimum between nonnegative endpoints
    assert not poly_nonneg_on_interval([f(3, 16), -one, one], zero, one)
    # a nonnegative cubic with its odd root at lo and a double root inside:
    # t*(t - 1/2)**2 on [0, 1]
    cubic = poly_mul([zero, one], square)
    assert poly_nonneg_on_interval(cubic, zero, one)
    # its mirror (1 - t)*(t - 1/2)**2 has its odd root at hi, not inside
    mirror = poly_mul([one, -one], square)
    assert poly_nonneg_on_interval(mirror, zero, one)
    # a cubic that dips below 0 between nonnegative endpoints:
    # t*((t - 1/2)**2 - 1/100) on [0, 1]
    dip = poly_mul([zero, one], [f(1, 4) - f(1, 100), -one, one])
    assert poly_eval(dip, zero) >= 0 and poly_eval(dip, one) >= 0
    assert not poly_nonneg_on_interval(dip, zero, one)


def test_sturm_certifies_cubics_with_an_odd_root_at_an_endpoint(monkeypatch):
    f, zero, one = Fraction, Fraction(0), Fraction(1)
    # t*((t - 1/2)**2 + 1/100) on [0, 1] vanishes at lo, and the mirror
    # (1 - t)*(...) at hi; each has one real root, outside (lo, hi), so one
    # Sturm chain per cubic finds no sign change inside
    bowl = [f(1, 4) + f(1, 100), -one, one]
    at_lo = poly_mul([zero, one], bowl)
    at_hi = poly_mul([one, -one], bowl)
    # the same shape on [2, 4]: root at lo = 2
    shifted = poly_mul([-2 * one, one], [f(9) + f(1, 25), -6 * one, one])
    cases = [(at_lo, zero, one), (at_hi, zero, one), (shifted, f(2), f(4))]
    chains = []
    monkeypatch.setattr(shiftlab.exactnum, "sturm_chain", lambda p: chains.append(p) or sturm_chain(p))
    for p, lo, hi in cases:
        assert poly_nonneg_on_interval(p, lo, hi)
        assert _nonneg_by_sturm(p, lo, hi)
    assert len(chains) == len(cases)


def test_odd_multiplicity_part_keeps_each_odd_root_once():
    f, zero, one = Fraction, Fraction(0), Fraction(1)

    def power(root, k):
        out = [one]
        for _ in range(k):
            out = poly_mul(out, [-root, one])
        return out

    # (t - 1/3)**2 (t - 1/2)**3 -> t - 1/2
    assert _odd_multiplicity_part(poly_mul(power(f(1, 3), 2), power(f(1, 2), 3))) == [-f(1, 2), one]
    # t (t - 1)**2 (t - 2)**3 (t - 3)**4 (t - 4)**5 -> t (t - 2) (t - 4)
    p = [one]
    for r in range(5):
        p = poly_mul(p, power(f(r), r + 1))
    assert _odd_multiplicity_part(p) == poly_mul(power(zero, 1), poly_mul(power(f(2), 1), power(f(4), 1)))
    # square-free input comes back monic; (3t - 2)(t**2 + 1)
    sqfree = poly_mul([f(-2), 3 * one], [one, zero, one])
    assert _odd_multiplicity_part(sqfree) == poly_monic(sqfree)
    # a perfect square has no odd root
    assert _odd_multiplicity_part(poly_mul(sqfree, sqfree)) == [one]


def test_poly_nonneg_reads_a_nonzero_sample_past_double_roots_on_samples():
    # Sturm's rung samples p at lo + i*(hi - lo)/(deg + 1), i = 1..deg; here
    # the first two samples are double roots, so the verdict must come from
    # the third.
    f, zero, one = Fraction, Fraction(0), Fraction(1)
    square = lambda r: [r * r, -2 * r, one]
    # degree 4 on [0, 1]: samples 1/5, 2/5, 3/5, 4/5
    bumps = poly_mul(square(f(1, 5)), square(f(2, 5)))
    assert poly_eval(bumps, f(1, 5)) == poly_eval(bumps, f(2, 5)) == 0
    assert poly_nonneg_on_interval(bumps, zero, one)
    # degree 8 on [0, 1]: samples i/9; -t**2 (t - 1)**2 (t - 1/9)**2 (t - 2/9)**2
    # is 0 at both ends and at the first two samples, negative elsewhere
    well = [-c for c in poly_mul(poly_mul(square(zero), square(one)), poly_mul(square(f(1, 9)), square(f(2, 9))))]
    assert poly_eval(well, f(1, 9)) == poly_eval(well, f(2, 9)) == 0
    assert not poly_nonneg_on_interval(well, zero, one)


@given(
    st.lists(st.fractions(min_value=-2, max_value=2), min_size=3, max_size=3),
    st.fractions(min_value=0, max_value=2).filter(bool),
)
def test_psd_check_matches_eigenvalue_oracle_on_diagonal_plus_rank_one(v, eps):
    # v v^T is PSD; v v^T - eps*I is not, since v v^T has rank <= 1 < 3 and
    # so a zero eigenvalue that eps*I turns into -eps
    rows = [[v[i] * v[j] for j in range(3)] for i in range(3)]
    assert psd_check(rows)
    shifted = [[rows[i][j] - (eps if i == j else 0) for j in range(3)] for i in range(3)]
    assert not psd_check(shifted)


def test_psd_check_against_numpy_eigenvalues():
    import random

    import numpy as np

    rng = random.Random(7)
    for _ in range(1000):
        sym = [[Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i):
                sym[i][j] = sym[j][i]
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in sym]))
        if abs(min(eigs)) < 1e-9:
            continue  # too close to the boundary for the float oracle to vote
        assert psd_check(sym) == (min(eigs) > 0), sym


def _psd_by_principal_minors(rows) -> bool:
    """Reference criterion: every nonempty principal minor is >= 0."""
    n = len(rows)
    return all(
        matrix_det([[rows[i][j] for j in idx] for i in idx]) >= 0
        for size in range(1, n + 1)
        for idx in combinations(range(n), size)
    )


_entries = st.one_of(st.just(Fraction(0)), st.fractions(-2, 2, max_denominator=3))


@st.composite
def _near_psd_symmetric(draw, min_order=1, max_order=7):
    """Low-rank Gram matrices of order 1-7 (or as given), some with a
    diagonal entry lowered or an off-diagonal pair bumped, so singular PSD
    matrices and matrices just off the PSD cone both occur."""
    n = draw(st.integers(min_order, max_order))
    vectors = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), max_size=n))
    rows = [
        [sum((v[i] * v[j] for v in vectors), Fraction(0)) for j in range(n)] for i in range(n)
    ]
    change = draw(st.sampled_from(["none", "lower_diagonal", "bump_pair"]))
    if change == "lower_diagonal":
        i = draw(st.integers(0, n - 1))
        rows[i][i] -= draw(st.fractions(Fraction(1, 100), 1, max_denominator=100))
    elif change == "bump_pair" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        bump = draw(st.fractions(-1, 1, max_denominator=10).filter(bool))
        rows[i][j] += bump
        rows[j][i] += bump
    return rows


@given(_near_psd_symmetric())
@settings(max_examples=300, deadline=None)
def test_psd_check_agrees_with_principal_minors(rows):
    assert psd_check(rows) == _psd_by_principal_minors(rows)


def _psd_by_fraction_ldl(rows) -> bool:
    """Reference: the symmetric LDL^T elimination on Fractions, with the same
    zero-pivot rule, that psd_check ran before it eliminated on integers."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    for k in range(n):
        pivot_row = a[k]
        d = pivot_row[k]
        if d < 0:
            return False
        if d == 0:
            if any(pivot_row[k + 1 :]):
                return False
            continue
        for i in range(k + 1, n):
            factor = pivot_row[i] / d
            if factor:
                row = a[i]
                for j in range(i, n):
                    row[j] -= factor * pivot_row[j]
    return True


def _cleared(rows):
    """The matrix times the least common multiple of its denominators, as ints."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * scale) for x in row] for row in rows]


@st.composite
def _atomic_moment_hankel(draw, min_order=1, max_order=6):
    """Hankel matrices (m_(i+j)) of order 1-6 (or as given) of the moments
    of a measure with 1-4 atoms in [0, 1] (singular once the order reaches
    the number of atoms), half of them with one moment perturbed."""
    atoms = draw(
        st.lists(
            st.tuples(st.fractions(0, 1, max_denominator=12), st.fractions(Fraction(1, 12), 1, max_denominator=12)),
            min_size=1,
            max_size=4,
        )
    )
    order = draw(st.integers(min_order, max_order))
    moments = [sum((mass * x**t for x, mass in atoms), Fraction(0)) for t in range(2 * order + 1)]
    if draw(st.booleans()):
        t = draw(st.integers(0, 2 * order))
        moments[t] += draw(st.fractions(Fraction(-1, 100), Fraction(1, 100), max_denominator=10**4).filter(bool))
    return [[moments[i + j] for j in range(order + 1)] for i in range(order + 1)]


@given(_atomic_moment_hankel())
@settings(max_examples=300, deadline=None)
def test_psd_check_agrees_with_fraction_ldl_on_atomic_hankels(rows):
    expected = _psd_by_fraction_ldl(rows)
    assert psd_check(rows) == expected
    assert psd_check(_cleared(rows)) == expected
    assert _psd_cleared(_cleared(rows)) == expected


@given(_near_psd_symmetric())
@settings(max_examples=300, deadline=None)
def test_psd_check_agrees_with_fraction_ldl_on_cleared_matrices(rows):
    assert _psd_cleared(_cleared(rows)) == psd_check(_cleared(rows)) == _psd_by_fraction_ldl(rows) == psd_check(rows)


@given(st.one_of(_near_psd_symmetric(9, 10), _atomic_moment_hankel(8, 9)))
@settings(max_examples=100, deadline=None)
def test_psd_cleared_has_no_order_cap(rows):
    # orders 9-10: past the cap of the public entry, which still refuses them
    assert len(rows) > MAX_MATRIX_ORDER
    assert _psd_cleared(_cleared(rows)) == _psd_by_fraction_ldl(rows)
    with pytest.raises(ExactInputError, match=f"matrix order {len(rows)} exceeds {MAX_MATRIX_ORDER}"):
        psd_check(rows)


@given(_near_psd_symmetric())
@settings(max_examples=100, deadline=None)
def test_psd_cleared_mutates_only_its_argument(rows):
    drawn = [row[:] for row in rows]
    cleared = _cleared(rows)
    kept = [row[:] for row in cleared]
    # the public entry hands the elimination a matrix of its own
    assert psd_check(rows) == psd_check(cleared)
    assert rows == drawn and cleared == kept
    # the private entry works in place, on the upper triangle only
    assert _psd_cleared(cleared) == psd_check(kept)
    n = len(rows)
    assert all(cleared[i][j] == kept[i][j] for i in range(n) for j in range(i))


def test_psd_check_zero_pivot_rule():
    zero, one = Fraction(0), Fraction(1)
    # a zero pivot with a zero row drops out; with a nonzero entry it fails
    assert psd_check([[zero, zero], [zero, one]])
    assert not psd_check([[zero, one], [one, one]])
    # the zero pivot appears only after elimination
    assert psd_check([[one, one, one], [one, one, one], [one, one, 2 * one]])
    assert not psd_check([[one, one, zero], [one, one, one], [zero, one, one]])


def test_exactnum_doctests_pass():
    results = doctest.testmod(shiftlab.exactnum)
    assert results.attempted >= 31 and results.failed == 0
