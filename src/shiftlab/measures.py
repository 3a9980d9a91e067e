"""Finite atomic-plus-polynomial-density measures and their moment calculus.

A 1-D measure is a finite list of point masses plus finitely many segments
carrying polynomial densities; a 2-D measure is a finite nonnegative
combination of product terms.  This class is closed under every operation
the library needs: moments, 1/t-norms, restriction to higher moments,
extremal reweighting, ordering, and the two backward-extension
constructions.  All data are rational and all answers exact.

`make1d` is the one canonicalizer, for raw data and sums: atoms merged by
point, segments split at the global breakpoint set, equal adjacent pieces
re-merged, zero components dropped; a negative component raises
NegativePartError, which is how "xi minus a rescaled marginal" is adjudicated.
It works on integers: atoms merge on (numerator, denominator) keys with
integer mass sums, and breakpoints are integer positions over one common
denominator.  Only pieces that raw input or a negative term reaches are
sign-tested: `combine1d` hands the pieces of its terms with c > 0 over as
known nonnegative, and a sum of nonnegative densities is nonnegative.
Every other operation (scaling, restriction, division by t) keeps pieces
nonnegative and distinct, so it builds its canonical result directly.

Each Measure1D keeps one moment table, extended on demand from running
integer powers, so every distinct moment of a measure is computed once, and
builds its quotient (1/t) dmu once, on first use: the 1/t norm, `extremal`
and both backward extensions read that one quotient and its table.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Union

from .exactnum import (
    Poly,
    format_rational,
    parse_list_field,
    parse_rational_field,
    poly_add,
    poly_nonneg_on_interval,
    poly_scale,
    poly_shift_up,
    poly_trim,
)


class MeasureError(ValueError):
    """Invalid measure data or an operation outside this measure class."""


class NegativePartError(MeasureError):
    """A canonicalized component came out negative."""


class UnsupportedDensityError(MeasureError):
    """The result would leave the atoms+polynomial class (log moments)."""


class _DivergentError(MeasureError):
    """Dividing by t diverges: the measure charges t = 0."""


class _InfiniteNorm:
    """Singleton sentinel for a divergent 1/t integral."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _InfiniteNorm()

NormValue = Union[Fraction, _InfiniteNorm]


# ---------------------------------------------------------------------------
# 1-D measures


@dataclass(frozen=True)
class Segment:
    coeffs: tuple[Fraction, ...]
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class Measure1D:
    """Canonical nonnegative measure (see the module docstring); build raw
    data and sums through :func:`make1d`."""

    atoms: tuple[tuple[Fraction, Fraction], ...]
    segments: tuple[Segment, ...]

    # -- mass and moments

    def total_mass(self) -> Fraction:
        return self.moment(0)

    def is_probability(self) -> bool:
        return self.total_mass() == 1

    def moment(self, n: int) -> Fraction:
        """The n-th moment, read from the measure's table (:func:`_moments`)."""
        if n < 0:
            raise MeasureError(f"moment order must be >= 0, got {n}")
        values, stream = self._moment_table
        while len(values) <= n:
            values.append(next(stream))
        return values[n]

    @cached_property
    def _moment_table(self) -> tuple[list[Fraction], Iterator[Fraction]]:
        return [], _moments(self.atoms, self.segments)

    def __reduce__(self):
        return Measure1D, (self.atoms, self.segments)  # copies start a fresh table and quotient

    def atom_mass(self, point: Fraction) -> Fraction:
        return dict(self.atoms).get(point, Fraction(0))

    # -- 1/t calculus

    @cached_property
    def _over_t(self) -> "Measure1D":
        """(1/t) dmu (:func:`_divide_by_t`), built on first read; an error is not kept."""
        return _divide_by_t(self)

    def inv_t_norm(self) -> NormValue:
        """Integral of 1/t: the mass of (1/t) dmu, or INFINITE when that
        division diverges."""
        try:
            return self._over_t.total_mass()
        except _DivergentError:
            return INFINITE

    # -- transforms

    def scale(self, c: Fraction) -> "Measure1D":
        if c < 0:
            raise NegativePartError("cannot scale a measure by a negative factor")
        if c == 0:
            return ZERO_1D
        segments = tuple(Segment(tuple(poly_scale(list(s.coeffs), c)), s.lo, s.hi) for s in self.segments)
        return Measure1D(tuple((x, c * m) for x, m in self.atoms), segments)

    def restriction(self, h: int) -> "Measure1D":
        """The renormalized h-th moment reweighting (1/gamma_h) t**h dmu.

        Atoms at 0 are annihilated and t**h / gamma_h > 0 elsewhere, so the
        pieces stay canonical; gamma_h = moment(h) must be positive.
        """
        if h < 1:
            raise MeasureError(f"restriction order must be >= 1, got {h}")
        if not self.is_probability():
            raise MeasureError("restriction needs a probability measure")
        gamma_h = self.moment(h)
        if gamma_h == 0:
            raise MeasureError("measure concentrated at 0: degenerate restriction")
        atoms = tuple((x, m * x**h) for x, m in self.atoms if x != 0)
        segments = tuple(Segment(tuple(poly_shift_up(list(s.coeffs), h)), s.lo, s.hi) for s in self.segments)
        return Measure1D(atoms, segments).scale(1 / gamma_h)

    def to_json_obj(self) -> dict:
        return {
            "atoms": [[format_rational(x), format_rational(m)] for x, m in self.atoms],
            "segments": [
                {
                    "coeffs": [format_rational(c) for c in seg.coeffs],
                    "lo": format_rational(seg.lo),
                    "hi": format_rational(seg.hi),
                }
                for seg in self.segments
            ],
        }


def _moments(atoms, segments) -> Iterator[Fraction]:
    """m_0, m_1, ... of the given atoms and pieces, on integers.

    Over X, the lcm of the points' denominators, and D, that of the masses',
    the atom of mass c/D at p/X adds c * p**n / (D * X**n); the c * p**n and
    X**n grow a factor at a time.  Each piece adds one term of
    :func:`_piece_moments`.  A moment is the integer sum of these terms over
    the lcm of their denominators, reduced once."""
    points_den = lcm(*[x.denominator for x, _ in atoms])
    masses_den = lcm(*[m.denominator for _, m in atoms])
    steps = [x.numerator * (points_den // x.denominator) for x, _ in atoms]
    terms = [m.numerator * (masses_den // m.denominator) for _, m in atoms]
    pieces = [_piece_moments(seg.coeffs, seg.lo, seg.hi) for seg in segments]
    while True:
        parts = [(sum(terms), masses_den)] + [next(piece) for piece in pieces]
        den = lcm(*[d for _, d in parts])
        yield Fraction(sum([num * (den // d) for num, d in parts]), den)
        terms = [t * p for t, p in zip(terms, steps)]
        masses_den *= points_den


def _piece_moments(coeffs, lo: Fraction, hi: Fraction) -> Iterator[tuple[int, int]]:
    """(num, den) of the integral over [lo, hi] of t**n * sum c_k t**k, for
    n = 0, 1, ..., unreduced.

    Over e, the lcm of the endpoints' denominators, lo = a/e and hi = b/e;
    over Q, that of the coefficients', c_k = q_k/Q.  With j = n + k + 1 the
    n-th integral is the sum of q_k * (b**j - a**j) / (j * Q * e**j), so over
    Q * L * e**(n+K), L the lcm of the j and K = len(coeffs), its numerator
    is the integer sum of q_k * (L // j) * (b**j - a**j) * e**(K-1-k).  The
    differences b**j - a**j slide along one power at a time."""
    e = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (e // lo.denominator), hi.numerator * (e // hi.denominator)
    size = len(coeffs)
    q_den = lcm(*[c.denominator for c in coeffs])
    terms = [(k, c.numerator * (q_den // c.denominator) * e ** (size - 1 - k)) for k, c in enumerate(coeffs) if c]
    a_pow, b_pow = 1, 1
    diffs = []
    for _ in range(size):
        a_pow, b_pow = a_pow * a, b_pow * b
        diffs.append(b_pow - a_pow)
    e_pow, n = e**size, 0
    while True:
        span = lcm(*[n + k + 1 for k, _ in terms])
        yield sum([q * (span // (n + k + 1)) * diffs[k] for k, q in terms]), q_den * span * e_pow
        a_pow, b_pow, e_pow, n = a_pow * a, b_pow * b, e_pow * e, n + 1
        diffs = diffs[1:] + [b_pow - a_pow]


def _segment_integral(coeffs: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """The integral over [lo, hi] of sum c_k t**k, on integers."""
    return Fraction(*next(_piece_moments(coeffs, lo, hi)))


RawAtom = tuple[Fraction, Fraction]
RawSegment = tuple[Iterable[Fraction], Fraction, Fraction]


def make1d(
    atoms: Iterable[RawAtom] = (), segments: Iterable[RawSegment] = (), nonneg_segments: Iterable[RawSegment] = ()
) -> Measure1D:
    """Canonicalize raw atom/segment data into a nonnegative Measure1D; the
    one canonicalizer, for raw data and sums.

    Accepts signed intermediate masses and densities (so differences can be
    expressed as concatenated positive and negated parts) but raises
    NegativePartError unless every canonical component is nonnegative.
    ``nonneg_segments`` are pieces of canonical measures scaled by positive
    factors (trimmed Fraction densities, nonnegative on [lo, hi], lo < hi):
    they skip the checks, and a piece only they reach skips the sign test.
    """
    masses: dict[tuple[int, int], tuple[Fraction, int, int]] = {}
    for x, m in atoms:
        if x < 0:
            raise MeasureError(f"atom at negative point {x}")
        key = (x.numerator, x.denominator)
        point, num, den = masses.get(key, (x, 0, 1))
        masses[key] = (point, num * m.denominator + m.numerator * den, den * m.denominator)
    scale = lcm(*[den for _, den in masses])
    canon_atoms = []
    for key in sorted(masses, key=lambda key: key[0] * (scale // key[1])):
        point, num, den = masses[key]
        if num < 0:
            raise NegativePartError(f"negative atom mass {Fraction(num, den)} at {point}")
        if num:
            canon_atoms.append((point, Fraction(num, den)))

    raw: list[tuple[Poly, Fraction, Fraction, bool]] = []
    for coeffs, lo, hi in segments:
        if lo < 0:
            raise MeasureError(f"segment with negative endpoint {lo}")
        if lo > hi:
            raise MeasureError(f"segment with lo {lo} > hi {hi}")
        poly = poly_trim([Fraction(c) for c in coeffs])
        if lo == hi or not poly:
            continue
        raw.append((poly, lo, hi, True))
    raw.extend((poly, lo, hi, False) for poly, lo, hi in nonneg_segments)
    return Measure1D(tuple(canon_atoms), tuple(_canonical_segments(raw)))


def _canonical_segments(raw: list[tuple[Poly, Fraction, Fraction, bool]]) -> list[Segment]:
    """Split the (poly, lo, hi, test) pieces at every endpoint, add them up,
    and re-merge equal neighbours.  An interval is sign-tested when some
    piece with test set covers it.  Endpoints are integer positions over
    their common denominator."""
    if not raw:
        return []
    scale = lcm(*[p.denominator for _, lo, hi, _ in raw for p in (lo, hi)])
    ends: dict[int, Fraction] = {}
    spans = []
    for poly, lo, hi, test in raw:
        a, b = lo.numerator * (scale // lo.denominator), hi.numerator * (scale // hi.denominator)
        ends.setdefault(a, lo)
        ends.setdefault(b, hi)
        spans.append((poly, a, b, test))
    points = sorted(ends)
    pieces: dict[int, tuple[Poly, bool]] = {}
    for poly, a, b, test in spans:
        for i in range(bisect_left(points, a), bisect_left(points, b)):
            if i in pieces:
                total, tested = pieces[i]
                pieces[i] = (poly_add(total, poly), tested or test)
            else:
                pieces[i] = (poly, test)
    out: list[Segment] = []
    last = -2
    for i in sorted(pieces):
        poly, test = pieces[i]
        if not poly:
            continue
        lo, hi = ends[points[i]], ends[points[i + 1]]
        if test and not poly_nonneg_on_interval(poly, lo, hi):
            raise NegativePartError(f"density negative somewhere on [{lo}, {hi}]")
        if last == i - 1 and list(out[-1].coeffs) == poly:
            out[-1] = Segment(out[-1].coeffs, out[-1].lo, hi)
        else:
            out.append(Segment(tuple(poly), lo, hi))
        last = i
    return out


ZERO_1D = Measure1D((), ())


def delta(point: Fraction, mass: Fraction = Fraction(1)) -> Measure1D:
    """The point mass ``mass * delta_point``."""
    point, mass = Fraction(point), Fraction(mass)
    if point < 0 or mass <= 0:
        return make1d([(point, mass)])  # the zero measure, or make1d's error
    return Measure1D(((point, mass),), ())


def density(coeffs: Iterable[Fraction], lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> Measure1D:
    """The measure with the given polynomial density on [lo, hi]."""
    return make1d([], [(list(coeffs), Fraction(lo), Fraction(hi))])


def lebesgue(lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> Measure1D:
    return density([Fraction(1)], lo, hi)


def combine1d(terms: Iterable[tuple[Fraction, Measure1D]]) -> Measure1D:
    """The linear combination sum(c_i * mu_i), canonicalized; the c_i may be
    negative, but NegativePartError unless the sum is a measure.  The pieces
    of terms with c_i > 0 are nonnegative, so only pieces that a negative
    term reaches are sign-tested."""
    terms = list(terms)
    if len(terms) == 1 and terms[0][0] >= 0:
        return terms[0][1].scale(terms[0][0])  # already canonical
    atoms: list[RawAtom] = []
    signed: list[RawSegment] = []
    nonneg: list[RawSegment] = []
    for c, mu in terms:
        atoms.extend((x, c * m) for x, m in mu.atoms)
        (nonneg if c > 0 else signed).extend((poly_scale(list(s.coeffs), c), s.lo, s.hi) for s in mu.segments)
    return make1d(atoms, signed, nonneg)


def measure_sub(mu: Measure1D, nu: Measure1D) -> Measure1D:
    """mu - nu as a measure; NegativePartError when nu is not below mu."""
    return combine1d([(Fraction(1), mu), (Fraction(-1), nu)])


def _divide_by_t(mu: Measure1D) -> Measure1D:
    """The measure (1/t) dmu, the one statement of the 1/t rule.  Mass at
    t = 0 diverges; a nonzero constant term away from 0 gives a logarithm."""
    if any(x == 0 for x, _ in mu.atoms):
        raise _DivergentError("cannot divide an atom at 0 by t")
    segments = []
    for seg in mu.segments:
        if seg.coeffs[0] != 0:
            if seg.lo == 0:
                raise _DivergentError("divergent division by t at 0")
            raise UnsupportedDensityError(
                "dividing a density with nonzero constant term by t yields "
                "a logarithmic moment measure; not representable"
            )
        segments.append(Segment(seg.coeffs[1:], seg.lo, seg.hi))
    return Measure1D(tuple((x, m / x) for x, m in mu.atoms), tuple(segments))


def measure1d_from_json(obj: object, where: str = "measure") -> Measure1D:
    if not isinstance(obj, dict):
        raise MeasureError(f"{where}: expected an object with atoms/segments")
    unknown = set(obj) - {"atoms", "segments"}
    if unknown:
        raise MeasureError(f"{where}: unknown keys {sorted(unknown)}")
    atoms = []
    for i, pair in enumerate(parse_list_field(obj.get("atoms", []), f"{where}.atoms", MeasureError)):
        at = f"{where}.atoms[{i}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MeasureError(f"{at}: expected [point, mass]")
        atoms.append(tuple(parse_rational_field(v, f"{at}[{j}]", MeasureError) for j, v in enumerate(pair)))
    segments = []
    for i, seg in enumerate(parse_list_field(obj.get("segments", []), f"{where}.segments", MeasureError)):
        if not isinstance(seg, dict) or not {"coeffs", "lo", "hi"} <= set(seg):
            raise MeasureError(f"{where}.segments[{i}]: expected coeffs/lo/hi")
        at = f"{where}.segments[{i}]"
        coeffs = [
            parse_rational_field(c, f"{at}.coeffs[{j}]", MeasureError)
            for j, c in enumerate(parse_list_field(seg["coeffs"], f"{at}.coeffs", MeasureError))
        ]
        segments.append((coeffs, *(parse_rational_field(seg[k], f"{at}.{k}", MeasureError) for k in ("lo", "hi"))))
    return make1d(atoms, segments)


# ---------------------------------------------------------------------------
# 2-D measures (finite sums of product terms)


@dataclass(frozen=True)
class ProductTerm:
    coeff: Fraction
    s_part: Measure1D
    t_part: Measure1D


@dataclass(frozen=True)
class Measure2D:
    """Canonical finite sum of product terms; construct through :func:`make2d`.

    Canonical form normalizes both factors of each term to probability
    measures (masses folded into the coefficient), splits s-factors into
    their individual atoms and refined segment pieces, and merges the
    t-factors attached to equal s-components.  This is a true canonical form
    for the measures arising here, where distinct terms carry distinct
    s-atoms; structurally different factorizations of equal measures across
    overlapping continuous s-parts are out of scope.
    """

    terms: tuple[ProductTerm, ...]

    def total_mass(self) -> Fraction:
        return sum((t.coeff for t in self.terms), Fraction(0))

    def is_probability(self) -> bool:
        return self.total_mass() == 1

    def moment(self, j: int, k: int) -> Fraction:
        return sum((t.coeff * t.s_part.moment(j) * t.t_part.moment(k) for t in self.terms), Fraction(0))

    def inv_t_norm(self) -> NormValue:
        """The terms' 1/t norms summed: INFINITE when any t-factor diverges,
        whatever the term order, else a logarithmic t-factor raises."""
        total, log_error = Fraction(0), None
        for term in self.terms:
            try:
                norm = term.t_part.inv_t_norm()
            except UnsupportedDensityError as exc:
                log_error = exc
                continue
            if norm is INFINITE:
                return INFINITE
            total += term.coeff * norm
        if log_error:
            raise log_error
        return total


def _s_components(s: Measure1D) -> list[tuple[tuple, Fraction, Measure1D]]:
    """Split a canonical s-factor into (sort key, mass, probability piece)."""
    out = []
    for x, m in s.atoms:
        out.append((("atom", x), m, Measure1D(((x, Fraction(1)),), ())))
    for seg in s.segments:
        mass = _segment_integral(list(seg.coeffs), seg.lo, seg.hi)
        unit = tuple(poly_scale(list(seg.coeffs), 1 / mass))
        key = ("seg", seg.lo, seg.hi) + unit
        out.append((key, mass, Measure1D((), (Segment(unit, seg.lo, seg.hi),))))
    return out


def make2d(terms: Iterable[tuple[Fraction, Measure1D, Measure1D]]) -> Measure2D:
    grouped: dict[tuple, tuple[Measure1D, list[tuple[Fraction, Measure1D]]]] = {}
    for coeff, s_part, t_part in terms:
        if coeff < 0:
            raise NegativePartError(f"negative product-term coefficient {coeff}")
        if coeff == 0 or t_part == ZERO_1D:
            continue
        for key, s_mass, s_piece in _s_components(s_part):
            grouped.setdefault(key, (s_piece, []))[1].append((coeff * s_mass, t_part))
    canon = []
    for key in sorted(grouped):
        s_piece, contribs = grouped[key]
        # mass is linear: the t-factors' masses are read from their tables
        mass = sum((c * t_part.total_mass() for c, t_part in contribs), Fraction(0))
        if mass == 0:
            continue
        canon.append(ProductTerm(mass, s_piece, combine1d([(c / mass, t_part) for c, t_part in contribs])))
    return Measure2D(tuple(canon))


def extremal(mu: Measure2D) -> Measure2D:
    """Reweight by (1 - delta_0(t)) / (t * ||1/t||): drop t-mass at 0, divide
    by t, renormalize to a probability measure."""
    norm = mu.inv_t_norm()
    if norm is INFINITE:
        raise MeasureError("extremal measure undefined: 1/t norm diverges")
    if norm == 0:
        raise MeasureError("extremal measure undefined: no mass off t = 0")
    return make2d([(term.coeff / norm, term.s_part, term.t_part._over_t) for term in mu.terms])


# ---------------------------------------------------------------------------
# backward extensions


@dataclass(frozen=True)
class ExtensionResult:
    """A backward-extension verdict: on success the extended representing
    measure, else the first failed condition ("i", "ii" or "iii")."""

    ok: bool
    failed: str | None
    measure: Measure1D | Measure2D | None
    inv_t_norm: NormValue


def backward_ext_1var(eta_m: Measure1D, beta0_sq: Fraction) -> ExtensionResult:
    """Prepend a weight below the shift represented by eta_m.

    Conditions: (i) the 1/t norm of eta_m is finite, (ii) beta0_sq times
    that norm is at most 1.  On success the extended representing measure is
    (beta0_sq / t) deta_m + (1 - beta0_sq * ||1/t||) delta_0.
    """
    if not eta_m.is_probability():
        raise MeasureError("backward extension needs a probability measure")
    if beta0_sq <= 0:
        raise MeasureError("prepended squared weight must be positive")
    norm = eta_m.inv_t_norm()
    if norm is INFINITE:
        return ExtensionResult(False, "i", None, norm)
    if beta0_sq * norm > 1:
        return ExtensionResult(False, "ii", None, norm)
    extended = combine1d([(beta0_sq, eta_m._over_t), (1 - beta0_sq * norm, delta(Fraction(0)))])
    return ExtensionResult(True, None, extended, norm)


def backward_ext_2var(mu_m: Measure2D, xi: Measure1D, beta00_sq: Fraction) -> ExtensionResult:
    """Prepend a row below a 2-variable shift with representing measure mu_m.

    Conditions: (i) finite 1/t norm N, (ii) beta00_sq * N <= 1, and
    (iii) beta00_sq * N * (extremal marginal) <= xi setwise.  On success,

        mu = beta00_sq * N * extremal(mu_m)
             + (xi - beta00_sq * N * marginal) x delta_0(t).

    When beta00_sq * N == 1 the remainder has zero mass, so condition (iii)
    forces the extremal marginal to equal xi exactly; no separate check is
    needed.
    """
    if not mu_m.is_probability() or not xi.is_probability():
        raise MeasureError("backward extension needs probability measures")
    if beta00_sq <= 0:
        raise MeasureError("prepended squared weight must be positive")
    norm = mu_m.inv_t_norm()
    if norm is INFINITE:
        return ExtensionResult(False, "i", None, norm)
    if beta00_sq * norm > 1:
        return ExtensionResult(False, "ii", None, norm)
    terms = [(beta00_sq * t.coeff, t.s_part, t.t_part._over_t) for t in mu_m.terms]
    try:
        remainder = combine1d([(Fraction(1), xi)] + [(-c * t_part.total_mass(), s_part) for c, s_part, t_part in terms])
    except NegativePartError:
        return ExtensionResult(False, "iii", None, norm)
    terms.append((Fraction(1), remainder, delta(Fraction(0))))
    return ExtensionResult(True, None, make2d(terms), norm)
