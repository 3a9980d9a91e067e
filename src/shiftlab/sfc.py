"""Classification of symmetrically flat contractive 2-variable shifts.

The data is a pair of probability measures on [0, 1]: the level-0 measure
xi and the column measure restricted to level 1, eta1 = (t / ∫ t dη) dη,
with (1/t) d eta1 finite; one interior weight a_sq; and the corner weight
y0_sq.  All interior weights above and right of index (1, 1) are 1.  Two
squared thresholds decide everything:

* h_sq: the corner weight bound for joint hyponormality,
* s_sq: the corner weight bound for subnormality,

and s_sq <= h_sq on the parameter window, so the verdict is a three-way
comparison of y0_sq against them.  All threshold arithmetic is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import decimal_string, format_rational, parse_rational_field
from .measures import (
    Measure1D,
    Measure2D,
    MeasureError,
    NegativePartError,
    backward_ext_2var,
    combine1d,
    delta,
    density,
    make1d,
    make2d,
    measure1d_from_json,
    measure_sub,
)
from .shift1d import WeightSeq, WeightTail
from .shift2d import ShiftGrid2D


class SFCError(ValueError):
    """Invalid or degenerate classification data."""


@dataclass(frozen=True)
class SFCParams:
    """The level measure xi and the restricted column measure eta1 plus the
    free weights, with the derived quantities the thresholds consume:
    inv_t_norm is the mass of (1/t) d eta1, and the masses of xi at 0 and 1
    enter s_sq."""

    xi: Measure1D
    eta1: Measure1D
    a_sq: Fraction
    y0_sq: Fraction
    x0_sq: Fraction
    x1_sq: Fraction
    y1_sq: Fraction
    inv_t_norm: Fraction
    xi_at_zero: Fraction
    xi_at_one: Fraction


def _check_unit_probability(mu: Measure1D, name: str) -> None:
    if not mu.is_probability():
        raise SFCError(f"{name} must be a probability measure, has mass {mu.total_mass()}")
    support_hi = max([x for x, _ in mu.atoms] + [seg.hi for seg in mu.segments])
    if support_hi > 1:
        raise SFCError(f"{name} must live on [0, 1], its support reaches {support_hi}")


def make_params(xi: Measure1D, eta: Measure1D, a_sq: Fraction, y0_sq: Fraction) -> SFCParams:
    """Validate the column measure eta, restrict it to level 1 and derive."""
    _check_unit_probability(eta, "eta")
    try:
        eta1 = eta.restriction(1)
    except MeasureError as exc:
        raise SFCError(str(exc)) from exc
    return _params(xi, eta1, a_sq, y0_sq)


def _params(xi: Measure1D, eta1: Measure1D, a_sq: Fraction, y0_sq: Fraction, where: str = "eta1") -> SFCParams:
    """Validate the rest and derive, given eta1 of checked mass and support.
    A restriction never charges 0 and its density pieces have no constant
    term, so only an eta1 given directly can fail the 1/t pass."""
    try:
        inv_t_norm = eta1._over_t.total_mass()
    except MeasureError as exc:
        raise SFCError(f"{where}: {exc}") from exc
    a_sq, y0_sq = Fraction(a_sq), Fraction(y0_sq)
    _check_unit_probability(xi, "xi")
    for name, value in (("a_sq", a_sq), ("y0_sq", y0_sq)):
        if not 0 < value <= 1:
            raise SFCError(f"need 0 < {name} <= 1, got {value}")
    x0_sq = xi.moment(1)
    if x0_sq == 0:
        raise SFCError("xi concentrated at 0 gives a zero weight")
    x1_sq = xi.moment(2) / x0_sq
    if x1_sq > 1:
        raise SFCError(f"level-0 weights exceed 1: x1_sq = {x1_sq}")
    return SFCParams(
        xi=xi,
        eta1=eta1,
        a_sq=a_sq,
        y0_sq=y0_sq,
        x0_sq=x0_sq,
        x1_sq=x1_sq,
        y1_sq=eta1.moment(1),
        inv_t_norm=inv_t_norm,
        xi_at_zero=xi.atom_mass(Fraction(0)),
        xi_at_one=xi.atom_mass(Fraction(1)),
    )


def h_threshold_sq(p: SFCParams) -> Fraction:
    """Largest admissible squared corner weight for joint hyponormality.

    h_sq = x0_sq y1_sq (x1_sq - x0_sq) / (x0_sq (x1_sq - x0_sq) + (a_sq - x0_sq)^2).

    With a degenerate level (x1_sq == x0_sq) the threshold collapses to 0
    when a_sq differs from x0_sq and is undefined when it does not.
    """
    gap = p.x1_sq - p.x0_sq
    if gap == 0:
        if p.a_sq == p.x0_sq:
            raise SFCError("degenerate level with a_sq == x0_sq: threshold undefined")
        return Fraction(0)
    num = p.x0_sq * p.y1_sq * gap
    den = p.x0_sq * gap + (p.a_sq - p.x0_sq) ** 2
    return num / den


def s_threshold_sq(p: SFCParams) -> Fraction:
    """Largest admissible squared corner weight for subnormality.

    s_sq = min(xi({1}) / a_sq, xi({0}) / (inv_t_norm - a_sq)).  Since
    inv_t_norm >= 1 >= a_sq, the second term is undefined only where
    eta1 = delta_1 and a_sq = 1; there the zero-atom constraint is vacuous.
    """
    s_sq = p.xi_at_one / p.a_sq
    if p.inv_t_norm == p.a_sq:
        return s_sq
    return min(s_sq, p.xi_at_zero / (p.inv_t_norm - p.a_sq))


@dataclass(frozen=True)
class Classification:
    verdict: str
    h_sq: Fraction
    s_sq: Fraction


def classify(p: SFCParams) -> Classification:
    """Three-way verdict: y0_sq against s_sq, then h_sq, once a_sq <= eta1({1}).

    Level k2 >= 1 is the shift a_sq / m_(k2-1), 1, 1, ... with m the moments
    of eta1, which fall to eta1({1}); hyponormal weights never decrease, so
    a_sq > eta1({1}) is NotHyponormal."""
    h_sq = h_threshold_sq(p)
    s_sq = s_threshold_sq(p)
    if p.a_sq > p.eta1.atom_mass(Fraction(1)):
        verdict = "NotHyponormal"
    elif p.y0_sq <= s_sq:
        verdict = "Subnormal"
    elif p.y0_sq <= h_sq:
        verdict = "HyponormalNotSubnormal"
    else:
        verdict = "NotHyponormal"
    return Classification(verdict, h_sq, s_sq)


# ---------------------------------------------------------------------------
# the worked family

WINDOW_LO = Fraction(1, 6)
WINDOW_HI = Fraction(1, 2)


def example_family_measures(r_sq: Fraction) -> tuple[Measure1D, Measure1D]:
    """Three equal atoms for the level measure; for the column, r_sq splits
    mass between an atom at 0, a uniform density, and an atom at 1."""
    r_sq = Fraction(r_sq)
    if not 0 < r_sq <= 1:
        raise SFCError(f"need 0 < r_sq <= 1, got {r_sq}")
    third = Fraction(1, 3)
    xi = make1d([(Fraction(0), third), (Fraction(1, 2), third), (Fraction(1), third)])
    eta = combine1d(
        [
            (1 - r_sq, delta(Fraction(0))),
            (r_sq / 2, density([Fraction(1)])),
            (r_sq / 2, delta(Fraction(1))),
        ]
    )
    return xi, eta


def example_family(a_sq: Fraction, r_sq: Fraction, y0_sq: Fraction | None = None) -> SFCParams:
    """The worked parameter family: corner weight (3/4) r_sq by default, a_sq
    restricted to the window where the two thresholds are guaranteed to
    stay ordered and apart."""
    a_sq = Fraction(a_sq)
    if not WINDOW_LO < a_sq <= WINDOW_HI:
        raise SFCError(f"need {WINDOW_LO} < a_sq <= {WINDOW_HI}, got {a_sq}")
    xi, eta = example_family_measures(r_sq)
    if y0_sq is None:
        y0_sq = Fraction(3, 4) * Fraction(r_sq)
    return make_params(xi, eta, a_sq, y0_sq)


# ---------------------------------------------------------------------------
# cross-checks against the grid and measure machinery


class _MomentShift:
    """The 1-variable shift of a probability measure, weight_sq(k) =
    m_(k+1) / m_k, memoized: a grid reads each weight for its alphas and
    again for its betas."""

    def __init__(self, mu: Measure1D):
        self.weight_sq = functools.cache(lambda k: mu.moment(k + 1) / mu.moment(k))


def sfc_grid(p: SFCParams) -> ShiftGrid2D:
    """Level 0 is the shift of xi; level k2 >= 1 is the flat shift
    a_sq / m_(k2-1), 1, 1, ... with m the moments of eta1, built without
    `make_weights` since a_sq > 0 and each m_k > 0; the column seeds are
    y0_sq, then the shift of eta1."""
    row0, column, ones = _MomentShift(p.xi), _MomentShift(p.eta1), WeightTail("constant", Fraction(1))
    spec = {
        "model": "sfc",
        "xi": p.xi.to_json_obj(),
        "eta1": p.eta1.to_json_obj(),
        "a_sq": format_rational(p.a_sq),
        "y0_sq": format_rational(p.y0_sq),
    }
    return ShiftGrid2D(
        lambda k2: row0 if k2 == 0 else WeightSeq((p.a_sq / p.eta1.moment(k2 - 1),), ones),
        lambda k2: p.y0_sq if k2 == 0 else column.weight_sq(k2 - 1),
        spec,
    )


def sfc_mu_m(p: SFCParams) -> Measure2D:
    """Berger measure of the restriction to levels >= 1: mass a_sq at the
    (1,1) corner atom pair, the rest along the t-axis."""
    one = Fraction(1)
    try:
        column_rest = measure_sub(p.eta1, delta(one, p.a_sq))
    except NegativePartError as exc:
        raise SFCError(
            f"eta1 must dominate the atom of mass a_sq at 1: {exc}"
        ) from exc
    terms = [(p.a_sq, delta(one), delta(one))]
    if column_rest.total_mass() > 0:
        terms.append((one, delta(Fraction(0)), column_rest))
    return make2d(terms)


def sfc_backward_extension(p: SFCParams):
    """Backward-extension verdict for the corner weight; agrees with the
    subnormality side of classify."""
    return backward_ext_2var(sfc_mu_m(p), p.xi, p.y0_sq)


# ---------------------------------------------------------------------------
# region scan


@dataclass(frozen=True)
class ScanRow:
    a_sq: Fraction
    h_sq: Fraction
    s_sq: Fraction

    @property
    def gap_sq(self) -> Fraction:
        return self.h_sq - self.s_sq


def scan_region(a_sq_lo: Fraction, a_sq_hi: Fraction, steps: int) -> list[ScanRow]:
    """Both thresholds at `steps` equally spaced a_sq values, endpoints
    included; raises if the ordering h > s ever fails on the window."""
    a_sq_lo = Fraction(a_sq_lo)
    a_sq_hi = Fraction(a_sq_hi)
    if steps < 2:
        raise SFCError(f"need steps >= 2, got {steps}")
    if not WINDOW_LO < a_sq_lo <= a_sq_hi <= WINDOW_HI:
        raise SFCError(
            f"scan window must sit inside ({WINDOW_LO}, {WINDOW_HI}], "
            f"got [{a_sq_lo}, {a_sq_hi}]"
        )
    rows = []
    span = a_sq_hi - a_sq_lo
    for i in range(steps):
        a_sq = a_sq_lo + span * i / (steps - 1)
        params = example_family(a_sq, Fraction(1))
        h_sq = h_threshold_sq(params)
        s_sq = s_threshold_sq(params)
        if h_sq <= s_sq:
            raise SFCError(f"threshold ordering failed at a_sq = {a_sq}: h {h_sq} <= s {s_sq}")
        rows.append(ScanRow(a_sq, h_sq, s_sq))
    return rows


def scan_csv_text(rows: list[ScanRow], digits: int) -> str:
    """The scan as CSV: exact thresholds, then their decimals and the gap."""
    lines = ["a_sq,h_sq,s_sq,h_dec,s_dec,gap_dec"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    format_rational(row.a_sq),
                    format_rational(row.h_sq),
                    format_rational(row.s_sq),
                    decimal_string(row.h_sq, digits),
                    decimal_string(row.s_sq, digits),
                    decimal_string(row.gap_sq, digits),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON


def params_from_json(obj: object, where: str = "params") -> SFCParams:
    """Params from a spec with `eta`, or with `eta1` as grid specs store it."""
    if not isinstance(obj, dict):
        raise SFCError(f"{where}: expected an object")
    eta1 = None
    if "eta1" in obj and "eta" not in obj:
        eta1 = measure1d_from_json(obj["eta1"], f"{where}.eta1")
    missing = [k for k in ("xi", "a_sq", "y0_sq") if k not in obj]
    if eta1 is None and "eta" not in obj:
        missing.append("eta")
    if missing:
        raise SFCError(f"{where}: missing field(s) {', '.join(missing)}")
    xi = measure1d_from_json(obj["xi"], f"{where}.xi")
    a_sq = parse_rational_field(obj["a_sq"], f"{where}.a_sq", SFCError)
    y0_sq = parse_rational_field(obj["y0_sq"], f"{where}.y0_sq", SFCError)
    if eta1 is None:
        return make_params(xi, measure1d_from_json(obj["eta"], f"{where}.eta"), a_sq, y0_sq)
    _check_unit_probability(eta1, f"{where}.eta1")
    return _params(xi, eta1, a_sq, y0_sq, f"{where}.eta1")
