"""Two-variable weighted shifts as stacks of one-variable levels.

One grid type, `ShiftGrid2D`, answers ``alpha_sq(k1, k2)`` and
``beta_sq(k1, k2)`` at any index: level k2 is a weight sequence that gives
``alpha_sq(k1, k2)``, and a column of beta seeds starts each level's betas,
which follow from the commuting identity

    beta_sq(k1+1, k2) * alpha_sq(k1, k2) == alpha_sq(k1, k2+1) * beta_sq(k1, k2),

so commutativity holds by construction and `check_commuting` re-verifies it
on demand.  A level that repeats the one above keeps its seed all along, the
grid form of flatness.  Explicit windows are the one grid whose betas are
given rather than derived; `build_explicit` refuses one that is not
positive or breaks the identity.  Verdicts never touch floating point.

Every window scan walks the window in the order of `window_indices`, each
level once, and the first failing index wins as witness.  The six-point
scans read each weight once, as an integer (numerator, denominator) pair,
carrying a level's upper row down as the next level's own.  Every grid
commutes, so sqrt(p) - sqrt(q) = (a_up - a) * sqrt(b / a), and the scans
decide the six-point matrix by a * a1 * a2 >= b * (a_up - a)**2 on cleared
integers, with no radical.  The pointwise `six_point_data`, the scans'
oracle and the source of witness lines, assumes no identity: it runs the
exact radical-elimination test `psd2_radical_cross`, on integers with the
weights' denominators cleared.  Every scan reads a grid through its integer
pairs, `_alpha_pair` and `_beta_pair`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .exactnum import format_rational, parse_list_field, parse_rational_field, psd2_radical_cross
from .measures import backward_ext_2var, density, make1d, make2d
from .shift1d import WeightSeq, alpha_family, bergman_like, flat_shift, unilateral, weights_from_json

Index = tuple[int, int]
_Pair = tuple[int, int]


def _pair(value: Fraction) -> _Pair:
    return value.numerator, value.denominator


class GridError(ValueError):
    """Invalid grid data, parameters, or index."""


class ShiftGrid2D:
    """A 2-variable shift as its stack of levels: level(k2) is the
    1-variable shift (anything with weight_sq) whose weights are the alphas
    of level k2, and seed(k2) = beta_sq(0, k2).

    Each level's betas follow the commuting identity left to right, kept as
    reduced (numerator, denominator) pairs in a list so that no index
    recurses, filled on integers from the two levels' alphas, which are kept
    as pairs too and read once each; equal alphas carry the beta across
    unchanged, and a level that is the same object as the level above keeps
    its seed all along without reading a weight.  Reads are not checked for
    positivity: every builder validates the levels and seeds it stacks."""

    def __init__(self, level: Callable[[int], WeightSeq], seed: Callable[[int], Fraction], spec: dict):
        self._level = functools.cache(level)
        self._seed = seed
        self._spec = spec
        self._alphas: dict[int, list[_Pair]] = {}
        self._betas: dict[int, list[_Pair]] = {}
        self._flat: set[int] = set()

    def alpha_sq(self, k1: int, k2: int) -> Fraction:
        if k1 < 0 or k2 < 0:
            raise GridError(f"negative index ({k1}, {k2})")
        return self._level(k2).weight_sq(k1)

    def beta_sq(self, k1: int, k2: int) -> Fraction:
        if k1 < 0 or k2 < 0:
            raise GridError(f"negative index ({k1}, {k2})")
        return Fraction(*self._beta_pair(k1, k2))

    def _alpha_pair(self, k1: int, k2: int) -> _Pair:
        return self._alpha_row(k2, k1 + 1)[k1]

    def _alpha_row(self, k2: int, length: int) -> list[_Pair]:
        """Level k2's alphas as reduced pairs, read in order, at least
        ``length`` of them."""
        row = self._alphas.get(k2)
        if row is None:
            row = self._alphas[k2] = []
        if len(row) < length:
            level = self._level(k2)
            for i in range(len(row), length):
                row.append(_pair(level.weight_sq(i)))
        return row

    def _beta_pair(self, k1: int, k2: int) -> _Pair:
        """beta_sq(k1, k2) as a reduced pair.  Each step multiplies by
        a_up / a_here with the factors cross-cancelled as `Fraction` does, so
        every pair is the reduced Fraction the identity gives.  Whether the
        level is the level above is asked once, when its row is made; such
        a level keeps the one-entry row of its seed."""
        row = self._betas.get(k2)
        if row is None:
            row = self._betas[k2] = [_pair(self._seed(k2))]
            if self._level(k2 + 1) is self._level(k2):
                self._flat.add(k2)
        if len(row) > k1:
            return row[k1]
        if k2 in self._flat:
            return row[0]
        ups, heres = self._alpha_row(k2 + 1, k1), self._alpha_row(k2, k1)
        for i in range(len(row) - 1, k1):
            up, here = ups[i], heres[i]
            if up == here:
                row.append(row[i])
                continue
            (n, d), (un, ud), (hn, hd) = row[i], up, here
            g1, g2 = math.gcd(n, ud), math.gcd(un, d)
            n, d = (n // g1) * (un // g2), (d // g2) * (ud // g1)
            g3, g4 = math.gcd(n, hn), math.gcd(hd, d)
            row.append(((n // g3) * (hd // g4), (d // g4) * (hn // g3)))
        return row[k1]

    @property
    def model(self) -> str:
        return self._spec["model"]

    def to_json_obj(self) -> dict:
        return self._spec

    def __eq__(self, other) -> bool:
        return isinstance(other, ShiftGrid2D) and self._spec == other._spec

    def __repr__(self) -> str:
        return f"ShiftGrid2D(model={self.model!r})"


# ---------------------------------------------------------------------------
# pointwise tests and window scans


def window_indices(m: int, n: int) -> Iterator[Index]:
    """The indices of [0,m] x [0,n] in scan order: level by level (k2
    ascending), then k1 ascending within a level."""
    if m < 0 or n < 0:
        raise GridError(f"bad window ({m}, {n})")
    return ((k1, k2) for k2 in range(n + 1) for k1 in range(m + 1))


def check_commuting(g: ShiftGrid2D, m: int, n: int) -> Index | None:
    """First index in [0,m] x [0,n] violating the commuting identity, if any."""
    for k1, k2 in window_indices(m, n):
        lhs = g.beta_sq(k1 + 1, k2) * g.alpha_sq(k1, k2)
        rhs = g.alpha_sq(k1, k2 + 1) * g.beta_sq(k1, k2)
        if lhs != rhs:
            return (k1, k2)
    return None


def gamma2(g: ShiftGrid2D, k: Index) -> Fraction:
    """Moment of order k along the canonical path (right along level 0, then up)."""
    k1, k2 = k
    if k1 < 0 or k2 < 0:
        raise GridError(f"negative index {k}")
    out = Fraction(1)
    for i in range(k1):
        out *= g.alpha_sq(i, 0)
    for j in range(k2):
        out *= g.beta_sq(k1, j)
    return out


def gamma2_up_first(g: ShiftGrid2D, k: Index) -> Fraction:
    """Moment along the transposed path (up column 0, then right); equals
    gamma2 on every commuting grid."""
    k1, k2 = k
    if k1 < 0 or k2 < 0:
        raise GridError(f"negative index {k}")
    out = Fraction(1)
    for j in range(k2):
        out *= g.beta_sq(0, j)
    for i in range(k1):
        out *= g.alpha_sq(i, k2)
    return out


@dataclass(frozen=True)
class SixPointData:
    """The six-point test at one index k: the verdict ``ok`` and the four
    matrix entries as the unreduced (numerator, denominator) pairs ``terms``,
    in the order a1, a2, p, q.  These are the report's pairs, each entry
    over the product of its own weights' denominators; the verdict clears
    the six weights over shared factors its own way.

    a1 = alpha_sq(k + e1) - alpha_sq(k), a2 = beta_sq(k + e2) - beta_sq(k),
    p = alpha_sq(k + e2) * beta_sq(k + e1) and q = alpha_sq(k) * beta_sq(k)
    are reduced to Fractions on each read: a scan needs only ``ok``, and a
    report can render each distinct term once.  Equality compares the
    unreduced ``terms`` and ``ok``.
    """

    terms: tuple[tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int]]
    ok: bool

    @property
    def a1(self) -> Fraction:
        return Fraction(*self.terms[0])

    @property
    def a2(self) -> Fraction:
        return Fraction(*self.terms[1])

    @property
    def p(self) -> Fraction:
        return Fraction(*self.terms[2])

    @property
    def q(self) -> Fraction:
        return Fraction(*self.terms[3])


def _six_point_terms(
    a: _Pair, a_right: _Pair, a_up: _Pair, b: _Pair, b_right: _Pair, b_up: _Pair
) -> tuple[_Pair, _Pair, _Pair, _Pair]:
    """The report's terms a1, a2, p, q at one index, from its six squared
    weights as (numerator, denominator) pairs, each over the product of its
    own weights' denominators."""
    an, ad = a
    arn, ard = a_right
    aun, aud = a_up
    bn, bd = b
    brn, brd = b_right
    bun, bud = b_up
    return (arn * ad - an * ard, ard * ad), (bun * bd - bn * bud, bud * bd), (aun * brn, aud * brd), (an * bn, ad * bd)


def _commuting_verdict(a: _Pair, a_right: _Pair, a_up: _Pair, b: _Pair, b_right: _Pair, b_up: _Pair) -> bool:
    """The six-point verdict where b_right * a == a_up * b, with no radical.

    There sqrt(p) - sqrt(q) = (a_up - a) * sqrt(b / a), so the matrix is PSD
    iff a1 >= 0, a2 >= 0 and a * a1 * a2 >= b * (a_up - a)**2.  With
    a1 = n1/(ard*ad), a2 = n2/(bud*bd) and a_up - a = m/(aud*ad), the last
    reads n1*n2*an*aud**2 >= bn*bud*ard*m**2 once every denominator is
    multiplied out.  b_right is not read, and no residual is squared, as
    the radical test must."""
    an, ad = a
    arn, ard = a_right
    aun, aud = a_up
    bn, bd = b
    bun, bud = b_up
    n1 = arn * ad - an * ard
    n2 = bun * bd - bn * bud
    if n1 < 0 or n2 < 0:
        return False
    m = aun * ad - an * aud
    return n1 * an * aud * aud * n2 >= bn * bud * (ard * m * m)


def six_point_data(g: ShiftGrid2D, k: Index) -> SixPointData:
    """Six-point test at k by the radical test, which needs no commuting
    identity: the scans' pointwise oracle.  With a1 = n1/d1, a2 = n2/d2,
    p = pn/u and q = qn/(ad*bd), where d1 = ard*ad, d2 = bud*bd and
    u = aud*brd, the test is unchanged by scaling a1 by d1, a2 by d2*u and
    p, q by d1*d2*u; each shared denominator then appears once, and the test
    runs on integers only."""
    k1, k2 = k
    a, a_right, a_up = g.alpha_sq(k1, k2), g.alpha_sq(k1 + 1, k2), g.alpha_sq(k1, k2 + 1)
    b, b_right, b_up = g.beta_sq(k1, k2), g.beta_sq(k1 + 1, k2), g.beta_sq(k1, k2 + 1)
    terms = _six_point_terms(*map(_pair, (a, a_right, a_up, b, b_right, b_up)))
    (n1, d1), (n2, d2), (pn, u), (qn, _) = terms
    ok = psd2_radical_cross(n1, n2 * u, pn * d1 * d2, qn * a_right.denominator * b_up.denominator * u)
    return SixPointData(terms, ok)


_Weights = tuple[_Pair, _Pair, _Pair, _Pair, _Pair, _Pair]


def _six_point_walk(g: ShiftGrid2D, m: int, n: int) -> Iterator[tuple[Index, _Weights]]:
    """(k, weights) at each index of [0,m] x [0,n], lazily, in scan order:
    the six squared weights a, a_right, a_up, b, b_right, b_up as the grid's
    integer (numerator, denominator) pairs, for `_commuting_verdict`, since
    every grid commutes wherever it can be read.  The walk keeps level k2's
    alpha and beta rows and level k2+1's, and carries the upper rows down as
    the next level's.  Each weight is read once, at its first use, and at
    each index in the order of ``weights``, so a grid that cannot answer a
    read raises what the pointwise test would raise first.  A bad window
    raises here, before any read."""
    indices = window_indices(m, n)
    alpha, beta = g._alpha_pair, g._beta_pair

    def walk() -> Iterator[tuple[Index, _Weights]]:
        a_up: list[_Pair] = []
        b_up: list[_Pair] = []
        for k in indices:
            k1, k2 = k
            if k1 == 0:
                a_row, b_row, a_up, b_up = a_up, b_up, [], []
            if len(a_row) == k1:  # (0, 0) only
                a_row.append(alpha(k1, k2))
            if len(a_row) == k1 + 1:  # all of level 0, then k1 = m
                a_row.append(alpha(k1 + 1, k2))
            a_up.append(alpha(k1, k2 + 1))
            if len(b_row) == k1:
                b_row.append(beta(k1, k2))
            if len(b_row) == k1 + 1:
                b_row.append(beta(k1 + 1, k2))
            b_up.append(beta(k1, k2 + 1))
            yield k, (a_row[k1], a_row[k1 + 1], a_up[k1], b_row[k1], b_row[k1 + 1], b_up[k1])

    return walk()


def six_point_scan(g: ShiftGrid2D, m: int, n: int) -> Iterator[tuple[Index, SixPointData]]:
    """Six-point data at each index of [0,m] x [0,n], lazily, in scan order:
    the report's terms and the commuting verdict."""
    return ((k, SixPointData(_six_point_terms(*w), _commuting_verdict(*w))) for k, w in _six_point_walk(g, m, n))


@dataclass(frozen=True)
class ConditionValue:
    name: str
    holds: bool
    values: dict[str, Fraction] = field(default_factory=dict)


@dataclass(frozen=True)
class WindowReport:
    verdict: bool
    witness: tuple[Index, str] | None = None
    conditions: tuple[ConditionValue, ...] = ()
    window: Index | None = None

    def condition(self, name: str) -> ConditionValue:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None
            if self.witness is None
            else {"k": list(self.witness[0]), "condition": self.witness[1]},
            "window": None if self.window is None else list(self.window),
            "conditions": [
                {
                    "name": c.name,
                    "holds": c.holds,
                    "values": {k: format_rational(v) for k, v in c.values.items()},
                }
                for c in self.conditions
            ],
        }


def joint_hyponormal_window(g: ShiftGrid2D, m: int, n: int) -> WindowReport:
    """Six-point test at every index of [0,m] x [0,n]; first failure wins.
    Only verdicts are computed; no report term is built."""
    witness = next((k for k, w in _six_point_walk(g, m, n) if not _commuting_verdict(*w)), None)
    if witness is None:
        return WindowReport(True, window=(m, n))
    return WindowReport(False, witness=(witness, "six_point"), window=(m, n))


@dataclass(frozen=True)
class FlatnessFlags:
    horizontal: bool
    vertical: bool
    flat: bool
    symmetric: bool


def flatness(g: ShiftGrid2D, m: int, n: int) -> FlatnessFlags:
    """Constancy of interior weights on [1,m] x [1,n] in each direction;
    symmetric additionally requires the two interior constants to agree."""
    if m < 2 or n < 2:
        raise GridError(f"flatness window must reach (2, 2), got ({m}, {n})")
    a11 = g.alpha_sq(1, 1)
    b11 = g.beta_sq(1, 1)
    horizontal = all(
        g.alpha_sq(k1, k2) == a11 for k1 in range(1, m + 1) for k2 in range(1, n + 1)
    )
    vertical = all(
        g.beta_sq(k1, k2) == b11 for k1 in range(1, m + 1) for k2 in range(1, n + 1)
    )
    flat = horizontal and vertical
    return FlatnessFlags(horizontal, vertical, flat, flat and a11 == b11)


@dataclass(frozen=True)
class PropagationEntry:
    k: Index
    beta_here: Fraction
    beta_right: Fraction
    six_point_ok: bool

    @property
    def ok(self) -> bool:
        return self.beta_here == self.beta_right


@dataclass(frozen=True)
class PropagationReport:
    """Audit of the equal-alpha consequence on a window.

    For every index with alpha_sq(k + e1) == alpha_sq(k), a jointly
    hyponormal grid must satisfy beta_sq(k + e1) == beta_sq(k); an entry
    violating that is a certificate of non-hyponormality, and the six-point
    verdict at the same index is recorded for cross-checking.  The audit
    rides the six-point walk, so like every scan it reads level n + 1.
    """

    entries: tuple[PropagationEntry, ...]

    @property
    def violations(self) -> tuple[PropagationEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


def propagation_consequences(g: ShiftGrid2D, m: int, n: int) -> PropagationReport:
    entries = (
        PropagationEntry(k, Fraction(*w[3]), Fraction(*w[4]), _commuting_verdict(*w))
        for k, w in _six_point_walk(g, m, n)
        if w[0] == w[1]
    )
    return PropagationReport(tuple(entries))


# ---------------------------------------------------------------------------
# explicit grids


class _ExplicitGrid(ShiftGrid2D):
    """Materialized windows, betas given rather than derived from seeds."""

    def __init__(self, windows: dict[str, list[list[Fraction]]], spec: dict):
        self._spec = spec
        self._windows = windows

    def _read(self, label: str, k1: int, k2: int) -> Fraction:
        if k1 < 0 or k2 < 0:
            raise GridError(f"negative index ({k1}, {k2})")
        rows = self._windows[label]
        if k2 >= len(rows) or k1 >= len(rows[0]):
            raise GridError(f"{label} index ({k1}, {k2}) outside explicit window {len(rows[0])} x {len(rows)}")
        return rows[k2][k1]

    def alpha_sq(self, k1: int, k2: int) -> Fraction:
        return self._read("alpha", k1, k2)

    def beta_sq(self, k1: int, k2: int) -> Fraction:
        return self._read("beta", k1, k2)

    def _alpha_pair(self, k1: int, k2: int) -> _Pair:
        return _pair(self._read("alpha", k1, k2))

    def _beta_pair(self, k1: int, k2: int) -> _Pair:
        return _pair(self._read("beta", k1, k2))


def build_explicit(alpha_rows: list[list[Fraction]], beta_rows: list[list[Fraction]]) -> ShiftGrid2D:
    """Grid from materialized windows; rows are levels (row index is k2),
    entries are taken as ``Fraction(v)`` and must be positive.  The identity
    must hold wherever the windows state it: on [0,m] x [0,n] with
    m = min(Wa - 1, Wb - 2) and n = min(Ha - 2, Hb - 1) for an alpha window
    Wa wide and Ha high and a beta window Wb x Hb."""
    if not alpha_rows or not beta_rows:
        raise GridError("explicit grid needs nonempty alpha and beta windows")
    windows, spec = {}, {"model": "explicit"}
    for name, rows in (("alpha", alpha_rows), ("beta", beta_rows)):
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise GridError(f"explicit {name} window must be rectangular and nonempty")
        windows[name] = [[Fraction(v) for v in row] for row in rows]
        spec[f"{name}_sq"] = [[format_rational(v) for v in row] for row in windows[name]]
        bad = [(k1, k2, v) for k2, row in enumerate(windows[name]) for k1, v in enumerate(row) if v <= 0]
        if bad:
            raise GridError("{} squared weight at ({}, {}) is {}, not positive".format(name, *bad[0]))
    alpha, beta = windows["alpha"], windows["beta"]
    grid = _ExplicitGrid(windows, spec)
    m, n = min(len(alpha[0]) - 1, len(beta[0]) - 2), min(len(alpha) - 2, len(beta) - 1)
    k = None if m < 0 or n < 0 else check_commuting(grid, m, n)
    if k is not None:
        raise GridError(f"explicit window breaks the commuting identity at {k}")
    return grid


# ---------------------------------------------------------------------------
# family: optimal flat extension grid


def build_figure9(y_sq: Fraction) -> ShiftGrid2D:
    """Level 0 is the three-atom family, every level above it the flat shift
    1/2, 1, 1, ...; the column seeds are y_sq, then (k2+1)/(k2+2)."""
    y_sq = Fraction(y_sq)
    if not 0 < y_sq <= 1:
        raise GridError(f"need 0 < y_sq <= 1, got {y_sq}")
    row0, top = alpha_family(), flat_shift(Fraction(1, 2))
    spec = {"model": "figure9", "y_sq": format_rational(y_sq)}
    return ShiftGrid2D(
        lambda k2: row0 if k2 == 0 else top,
        lambda k2: y_sq if k2 == 0 else Fraction(k2 + 1, k2 + 2),
        spec,
    )


def figure9_standard_measures() -> tuple:
    """The representing measure of the core (an atom pair times t dt) and the
    three-atom level-0 measure used by the backward-extension calculation."""
    s_part = make1d([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))])
    t_part = density([Fraction(0), Fraction(1)])
    mu_m = make2d([(Fraction(1), s_part, t_part)])
    xi = make1d(
        [
            (Fraction(0), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(1), Fraction(1, 3)),
        ]
    )
    return mu_m, xi


def figure9_subnormality(y_sq: Fraction):
    """Backward-extension verdict for the optimal flat extension family."""
    mu_m, xi = figure9_standard_measures()
    return backward_ext_2var(mu_m, xi, Fraction(y_sq))


# ---------------------------------------------------------------------------
# family: totally flat grid


def build_totallyflat(x_row: WeightSeq, y_sq: Fraction) -> ShiftGrid2D:
    """Level 0 is x_row, every level above it the unilateral shift; the
    column seeds are y_sq, then 1."""
    y_sq = Fraction(y_sq)
    if y_sq <= 0:
        raise GridError(f"need y_sq > 0, got {y_sq}")
    if x_row.sup_weight_sq() > 1:
        raise GridError("x row must be bounded by 1")
    top = unilateral()
    spec = {"model": "totally_flat", "x_row": x_row.to_json_obj(), "y_sq": format_rational(y_sq)}
    return ShiftGrid2D(
        lambda k2: x_row if k2 == 0 else top,
        lambda k2: y_sq if k2 == 0 else Fraction(1),
        spec,
    )


# ---------------------------------------------------------------------------
# family: one-point-spectrum flat boundary grid (level rows of decreasing
# Bergman-like parameter over a flat top)


def next_chain_param(p: int, q: int) -> int:
    """Smallest integer r > q with p*r >= 9 q**2 and
    (2p - 1)(2r - 1) >= 9 (2q - 1)**2, both ceilings in integers.

    The quadratic (p-u)(r-u) - 9(q-u)**2 is concave in u, so these two
    endpoint inequalities (u = 0 and u = 1/2, the second doubled twice)
    certify (p-u)(r-u) >= 9(q-u)**2 for every u in (0, 1/2], which is the
    three-row sufficient condition at all grid columns at once.
    """
    if not 0 < p < q:
        raise GridError(f"need 0 < p < q, got ({p}, {q})")
    c1 = -(-9 * q * q // p)
    c2 = -(-(9 * (2 * q - 1) ** 2 + 2 * p - 1) // (4 * p - 2))
    r = max(c1, c2, q + 1)
    assert p * r >= 9 * q * q and (2 * p - 1) * (2 * r - 1) >= 9 * (2 * q - 1) ** 2
    return r


def bergman_chain(k2: int) -> list[int]:
    """Top-down Bergman-like parameters for k2 boundary levels: 3, 18, then
    each further level from the deterministic search."""
    chain = [3, 18]
    while len(chain) < k2:
        chain.append(next_chain_param(chain[-2], chain[-1]))
    return chain[:k2]


def _pair_seed_bound(ell_low: int, ell_up: int, upper_seed: Fraction) -> Fraction:
    """Bound on the lower beta seed for two stacked Bergman-like levels:
    the (0, n) six-point there has rational sqrt(P*Q) and reduces to
    seed_low <= seed_up * (2 ell_low - 1) / (2 ell_low - 1 + 12 (ell_low - ell_up)**2)."""
    base = 2 * ell_low - 1
    return upper_seed * Fraction(base, base + 12 * (ell_low - ell_up) ** 2)


def _largest_pow2_at_most(bound: Fraction) -> Fraction:
    """The largest 2**-j (j >= 0) at most bound, from bit lengths alone."""
    if bound <= 0:
        raise GridError(f"no positive power of two below {bound}")
    if bound >= 1:
        return Fraction(1)
    num, den = bound.numerator, bound.denominator
    # num << j has den's bit length, so it reaches den at j or else at j + 1
    j = den.bit_length() - num.bit_length()
    if num << j < den:
        j += 1
    return Fraction(1, 1 << j)


def _display_bound_top_pair(ell_low: int, ell_up: int) -> Fraction:
    """The published (0,0)-style threshold for a Bergman pair: with
    x the lower level, (x1^2 - x0^2)^2 * x0^2 / (x0^2 - y0^2)^2.

    Bergman-like squares are ell - 1/(k+2), so x1^2 - x0^2 = 1/6 and
    x0^2 - y0^2 = ell_low - ell_up, and the threshold is
    (2 ell_low - 1) / (72 (ell_low - ell_up)**2); for the (18, 3) pair,
    7/3240.  It differs from the faithful six-point bound (which also
    involves the upper seed); both are checked.
    """
    return Fraction(2 * ell_low - 1, 72 * (ell_low - ell_up) ** 2)


def figure5_f(m: int, chain: tuple[int, int] = (18, 3)) -> Fraction:
    """Binding bound on the bottom seed from the (m, 0) six-points, m >= 1,
    for a bottom level ell_low under ell_up with unit seed product; increasing
    in m, so f(1) rules the whole level."""
    if m < 1:
        raise GridError(f"need m >= 1, got {m}")
    ell_low, ell_up = chain
    low, up = bergman_like(ell_low), bergman_like(ell_up)
    x_m = low.weight_sq(m)
    diff = ell_low - ell_up
    return low.gamma(m)[m] * x_m / (up.gamma(m)[m] ** 2 * (x_m + diff**2 * (m + 2) * (m + 3)))


def figure5_g(m: int) -> Fraction:
    """Lower bound required of the squared seed two levels up from the (m, 1)
    six-points, m >= 1, under the top Bergman-like level 3; decreasing in m,
    so g(1) = 27/5 rules the level."""
    if m < 1:
        raise GridError(f"need m >= 1, got {m}")
    up = bergman_like(3)
    y_m = up.weight_sq(m)
    return (1 + (m + 2) * (m + 3) * (1 - y_m) ** 2 / y_m) / up.gamma(m)[m]


def _seed_bounds(
    k2: int, n: int, alpha0_sq: Fraction, chain: list[int], upper_seed: Fraction
) -> list[tuple[str, Index, Fraction]]:
    """The named rows (name, index, bound) that bound the column seed of
    level n from above, given the seed of the level above: the seed search
    takes the largest power of two under them, and the report checks the
    seed against each, so both read this one table.  Only levels whose
    seed is not pinned have rows: level 0 for k2 = 1, levels 0..k2-2
    otherwise.  ``chain`` needs its parameters down to level n.

    For k2 = 1, the (0, 0) and (1, 0) six-points under the Bergman-like
    level 3, solved for the seed.  For k2 >= 2, every level gets the
    (0, n) pair bound of `_pair_seed_bound`; level k2-2, under the top
    Bergman-like level, also gets the published display bound and f(1)."""
    if k2 == 1:
        top = bergman_like(chain[0])
        x0, x1 = top.weight_sq(0), top.weight_sq(1)
        return [
            ("beta0eq2", (0, 0), upper_seed * x0 / (x0 + 6 * (alpha0_sq - x0) ** 2)),
            ("beta0eq", (1, 0), upper_seed * x0 / (alpha0_sq * (1 + 12 * (1 - x1) ** 2 / x1))),
        ]
    pair = (chain[k2 - 1 - n], chain[k2 - 2 - n])
    rows = [(f"pair{n}", (0, n), _pair_seed_bound(*pair, upper_seed))]
    if n == k2 - 2:
        rows[:0] = [("beta1", (0, n), _display_bound_top_pair(*pair)), ("beta2", (1, n), figure5_f(1, pair))]
    return rows


@functools.cache
def _digit_bound(limit: int) -> int:
    """10**limit, the least integer of more than limit digits, computed once
    per limit: the limit can change between builds."""
    return 10**limit


def _figure5_seeds(k2: int, alpha0_sq: Fraction, beta0_sq: Fraction | None) -> tuple[list[int], list[Fraction]]:
    """The levels' parameters ``bergman_chain(k2)`` and their column seeds,
    bottom to top, indices 0..k2: seed k2 is pinned to 16/alpha0_sq and,
    for k2 >= 2, seed k2-1 to 1/alpha0_sq; each lower one is the largest
    power of two under the `_seed_bounds` rows of its level, unless an
    explicit bottom seed is given.

    The chain grows one parameter per seed, top down.  The depth test is
    exact: an integer has more digits than Python will print just when it
    is at least 10**limit.  It is asked of each chain parameter, whose
    level's weights could not be printed past it, and of the bottom seed's
    numerator and denominator, searched or given (a given one only while
    the limit is on).  The searched powers of two never grow downward, so
    without an explicit bottom seed each is tested, and the search stops
    with the too-deep GridError at the first one past the limit."""
    top_down = [16 / alpha0_sq, 1 / alpha0_sq][:k2]  # the seeds k2, k2 - 1, ..., 0
    chain = [3, 18][:k2]
    # with the limit off (0), Python's default still bounds the depth
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    too_many_digits = _digit_bound(limit)
    for n in range(k2 - len(top_down), -1, -1):
        if n < k2 - 2:
            chain.append(next_chain_param(chain[-2], chain[-1]))
            if chain[-1] >= too_many_digits:
                raise GridError(
                    f"k2 = {k2} is too deep: the Bergman-like parameter of level {n} "
                    f"has more than {limit} digits"
                )
        if n == 0 and beta0_sq is not None:
            seed = beta0_sq
        else:
            seed = _largest_pow2_at_most(min(b for _, _, b in _seed_bounds(k2, n, alpha0_sq, chain, top_down[-1])))
        # with the limit off, a given seed always prints
        checked = beta0_sq is None or (n == 0 and sys.get_int_max_str_digits() > 0)
        if checked and max(seed.numerator, seed.denominator) >= too_many_digits:
            raise GridError(f"k2 = {k2} is too deep: the bottom seed beta0_sq has too many digits to print")
        top_down.append(seed)
    return chain, [Fraction(s) for s in reversed(top_down)]


def build_figure5(
    k2: int, alpha0_sq: Fraction, beta0_sq: Fraction | None = None
) -> tuple[ShiftGrid2D, WindowReport]:
    """Grid with k2 Bergman-like boundary levels under a flat top, plus the
    report of named level-class conditions.

    Levels k2-1 down to 0 carry Bergman-like parameters 3, 18, then the
    deterministic chain; levels >= k2 are the flat shift with parameter
    alpha0_sq.  The report checks each seed against the `_seed_bounds` rows
    the default seeds are chosen under, then the two alpha0 conditions; its
    witness is the representative index of the first violated one.  The
    conditions are sufficient, so a report that passes never sits beside a
    failing window scan.  The published display threshold (beta1) is
    stricter than the raw six-point, so a seed can fail this report while
    the plain window scan still passes; both views are reported honestly.
    """
    grid, chain, seeds = _figure5_grid(k2, alpha0_sq, beta0_sq)
    return grid, _figure5_report(k2, Fraction(alpha0_sq), seeds, chain)


def _figure5_grid(
    k2: int, alpha0_sq: Fraction, beta0_sq: Fraction | None
) -> tuple[ShiftGrid2D, list[int], list[Fraction]]:
    """The grid of `build_figure5` with its chain and seeds, bottom to top."""
    if k2 < 1:
        raise GridError(f"need k2 >= 1, got {k2}")
    alpha0_sq = Fraction(alpha0_sq)
    if not 0 < alpha0_sq < 1:
        raise GridError(f"need 0 < alpha0_sq < 1, got {alpha0_sq}")
    if beta0_sq is not None:
        beta0_sq = Fraction(beta0_sq)
        if beta0_sq <= 0:
            raise GridError(f"need beta0_sq > 0, got {beta0_sq}")
    chain, seeds = _figure5_seeds(k2, alpha0_sq, beta0_sq)
    # bottom to top; index k2 is the flat top, repeated above
    levels = [bergman_like(ell) for ell in reversed(chain)] + [flat_shift(alpha0_sq)]
    spec: dict = {
        "model": "figure5",
        "k2": k2,
        "alpha0_sq": format_rational(alpha0_sq),
        "beta0_sq": format_rational(seeds[0]),
    }
    grid = ShiftGrid2D(lambda n: levels[min(n, k2)], lambda n: seeds[min(n, k2)], spec)
    return grid, chain, seeds


def _figure5_report(k2: int, alpha0_sq: Fraction, seeds: list[Fraction], chain: list[int]) -> WindowReport:
    """Each `_seed_bounds` row as ``seed <= bound``, levels bottom up, then
    the two alpha0 conditions; the witness is the first row that fails."""
    conditions: list[tuple[ConditionValue, Index]] = []
    for n in range(max(k2 - 1, 1)):
        for name, index, bound in _seed_bounds(k2, n, alpha0_sq, chain, seeds[n + 1]):
            values = {"seed_sq": seeds[n], "f_at_1" if name == "beta2" else "bound": bound}
            conditions.append((ConditionValue(name, seeds[n] <= bound, values), index))
    top = bergman_like(chain[0]).weight_sq(0)
    lhs = (alpha0_sq - top) ** 2
    conditions.append((ConditionValue("condition1", lhs <= top**2, {"lhs": lhs, "rhs": top**2}), (0, k2 - 1)))
    if k2 >= 2:
        g1 = figure5_g(1)
        values = {"beta_top_sq": seeds[k2], "g_at_1": g1}
        conditions.append((ConditionValue("condition2b", seeds[k2] >= g1, values), (1, k2 - 1)))
    verdict = all(c.holds for c, _ in conditions)
    witness = next(((index, c.name) for c, index in conditions if not c.holds), None)
    return WindowReport(verdict, witness=witness, conditions=tuple(c for c, _ in conditions))


# ---------------------------------------------------------------------------
# JSON


def grid_from_json(obj: object, where: str = "grid") -> ShiftGrid2D:
    if not isinstance(obj, dict) or "model" not in obj:
        raise GridError(f"{where}: expected an object with a model")
    model = obj["model"]
    if model == "explicit":

        def window(name: str) -> list[list[Fraction]]:
            try:
                rows = list(enumerate(obj.get(name, [])))
            except TypeError as exc:
                raise GridError(f"{where}: malformed explicit window") from exc
            return [
                [
                    parse_rational_field(v, f"{where}.{name}[{i}][{j}]", GridError)
                    for j, v in enumerate(parse_list_field(row, f"{where}.{name}[{i}]", GridError))
                ]
                for i, row in rows
            ]

        return build_explicit(window("alpha_sq"), window("beta_sq"))
    if model == "figure9":
        return build_figure9(parse_rational_field(obj.get("y_sq"), f"{where}.y_sq", GridError))
    if model == "figure5":
        k2 = obj.get("k2")
        if not isinstance(k2, int) or isinstance(k2, bool):
            raise GridError(f"{where}.k2: expected an integer")
        beta0 = obj.get("beta0_sq")
        grid, _, _ = _figure5_grid(
            k2,
            parse_rational_field(obj.get("alpha0_sq"), f"{where}.alpha0_sq", GridError),
            None if beta0 is None else parse_rational_field(beta0, f"{where}.beta0_sq", GridError),
        )
        return grid
    if model == "totally_flat":
        x_row = weights_from_json(obj.get("x_row"), f"{where}.x_row")
        y_sq = parse_rational_field(obj.get("y_sq"), f"{where}.y_sq", GridError)
        return build_totallyflat(x_row, y_sq)
    if model == "sfc":
        from .sfc import params_from_json, sfc_grid

        return sfc_grid(params_from_json(obj, where))
    raise GridError(f"{where}.model: unknown model {model!r}")
