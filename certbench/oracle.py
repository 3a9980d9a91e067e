"""Exact computations made apart from shiftlab, used to check its outputs.

Nothing here imports shiftlab.  Weight rules are re-implemented from the
JSON formats the README documents, grid boundaries are derived from the
commuting identity, positive semidefiniteness is decided by symmetric
Schur-complement elimination (shiftlab uses principal minors), and the
six-point radical comparison by interval refinement of the square root with
integer ``isqrt`` (shiftlab squares the radical away).
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import isqrt

# ---------------------------------------------------------------------------
# one-variable weight specs


def weight_sq(spec: dict, k: int) -> Fraction:
    """Squared weight k of a one-variable JSON spec (prefix, then tail rule)."""
    prefix = spec.get("prefix_sq", [])
    if k < len(prefix):
        return Fraction(prefix[k])
    j = k - len(prefix)
    tail = spec["tail"]
    kind = tail["kind"]
    if kind == "constant":
        return Fraction(tail["value"])
    if kind == "bergman_like":
        return tail["value"] - Fraction(1, j + 2)
    if kind == "alpha_family":
        return Fraction(1, 2) if j == 0 else Fraction(2 ** (j + 1) + 1, 2 ** (j + 1) + 2)
    if kind == "beta_r_family":
        return Fraction(3, 4) * Fraction(tail["value"]) if j == 0 else Fraction((j + 1) * (j + 3), (j + 2) ** 2)
    raise ValueError(f"no weight {k} in {spec!r}")


def moments(spec: dict, up_to: int) -> list[Fraction]:
    out = [Fraction(1)]
    for k in range(up_to):
        out.append(out[-1] * weight_sq(spec, k))
    return out


def hankel(gammas: list[Fraction], order: int, base: int) -> list[list[Fraction]]:
    return [[gammas[base + i + j] for j in range(order + 1)] for i in range(order + 1)]


def is_psd(rows: list[list[Fraction]]) -> bool:
    """Symmetric elimination: a negative pivot, or a zero pivot whose row is
    not zero, certifies that the matrix is not PSD; a positive pivot passes
    the question to its Schur complement."""
    a = [list(map(Fraction, row)) for row in rows]
    while a:
        pivot, row = a[0][0], a[0][1:]
        if pivot < 0 or (pivot == 0 and any(row)):
            return False
        if pivot == 0:
            a = [r[1:] for r in a[1:]]
        else:
            a = [[r[j + 1] - r[0] * row[j] / pivot for j in range(len(row))] for r in a[1:]]
    return True


# ---------------------------------------------------------------------------
# the six-point radical comparison


def _sqrt_bracket(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(x) <= hi with hi - lo = 1 / (den * 2**bits)."""
    scale = 4**bits
    root = isqrt(x.numerator * x.denominator * scale)
    den = x.denominator * 2**bits
    return Fraction(root, den), Fraction(root + 1, den)


def _exact_sqrt(x: Fraction) -> Fraction | None:
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(rn, rd) if rn * rn == x.numerator and rd * rd == x.denominator else None


def six_point_ok(a1: Fraction, a2: Fraction, p: Fraction, q: Fraction) -> bool:
    """PSD of [[a1, sqrt(p) - sqrt(q)], [sqrt(p) - sqrt(q), a2]].

    PSD holds iff a1 >= 0, a2 >= 0 and D = a1 a2 - p - q + 2 sqrt(pq) >= 0.
    When pq is a rational square D is exact; otherwise sqrt(pq) is
    irrational, D is not zero, and a bracket of sqrt(pq) narrowed until it
    fixes the sign of D decides.
    """
    if p < 0 or q < 0:
        raise ValueError("cross-term squares must be nonnegative")
    if a1 < 0 or a2 < 0:
        return False
    linear = a1 * a2 - p - q
    root = _exact_sqrt(p * q)
    if root is not None:
        return linear + 2 * root >= 0
    bits = 16
    while True:
        lo, hi = _sqrt_bracket(p * q, bits)
        if linear + 2 * lo > 0:
            return True
        if linear + 2 * hi < 0:
            return False
        bits *= 2


def decimal_text(q: Fraction, digits: int = 12) -> str:
    """``digits`` significant digits, round half even, as the CLI documents."""
    if q == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        value = Decimal(q.numerator) / Decimal(q.denominator)
    return format(value, "f")


# ---------------------------------------------------------------------------
# two-variable grids, boundary values from the commuting identity
#
# beta(k1+1, k2) alpha(k1, k2) = alpha(k1, k2+1) beta(k1, k2)


class Grid:
    """Squared weights of a grid model: level 0 of alpha, the levels above
    it, and beta(0, 0); beta on level 0 follows from the commuting identity."""

    def __init__(self, alpha_row0, alpha_upper, beta_upper, beta00):
        self._alpha_row0 = alpha_row0  # alpha(k1, 0)
        self._alpha_upper = alpha_upper  # alpha(k1, k2), k2 >= 1
        self._beta_upper = beta_upper  # beta(k1, k2), k2 >= 1
        self._beta_row0 = [beta00]  # beta(k1, 0), extended on demand

    def alpha(self, k1: int, k2: int) -> Fraction:
        return self._alpha_row0(k1) if k2 == 0 else self._alpha_upper(k1, k2)

    def beta(self, k1: int, k2: int) -> Fraction:
        if k2 > 0:
            return self._beta_upper(k1, k2)
        row = self._beta_row0
        while len(row) <= k1:
            i = len(row) - 1
            row.append(row[i] * self.alpha(i, 1) / self.alpha(i, 0))
        return row[k1]

    def six_point(self, k1: int, k2: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        a1 = self.alpha(k1 + 1, k2) - self.alpha(k1, k2)
        a2 = self.beta(k1, k2 + 1) - self.beta(k1, k2)
        p = self.alpha(k1, k2 + 1) * self.beta(k1 + 1, k2)
        q = self.alpha(k1, k2) * self.beta(k1, k2)
        return a1, a2, p, q

    def first_failure(self, m: int, n: int) -> tuple[int, int] | None:
        """First index of [0, m] x [0, n], level by level, failing six-point."""
        for k2 in range(n + 1):
            for k1 in range(m + 1):
                if not six_point_ok(*self.six_point(k1, k2)):
                    return (k1, k2)
        return None


def figure9_grid(y_sq: Fraction) -> Grid:
    """Level 0 is the three-atom row; above it alpha is 1/2 on column 0 and 1
    elsewhere, and beta is (k2+1)/(k2+2) on every column."""
    row = {"prefix_sq": [], "tail": {"kind": "alpha_family"}}
    return Grid(
        lambda k1: weight_sq(row, k1),
        lambda k1, k2: Fraction(1, 2) if k1 == 0 else Fraction(1),
        lambda k1, k2: Fraction(k2 + 1, k2 + 2),
        Fraction(y_sq),
    )


def totally_flat_grid(x_row: dict, y_sq: Fraction) -> Grid:
    """Level 0 is x_row, every other weight is 1."""
    return Grid(
        lambda k1: weight_sq(x_row, k1),
        lambda k1, k2: Fraction(1),
        lambda k1, k2: Fraction(1),
        Fraction(y_sq),
    )


def measure_moment(measure: dict, n: int) -> Fraction:
    """n-th moment of a JSON measure (atoms plus polynomial segments)."""
    total = sum((Fraction(m) * Fraction(x) ** n for x, m in measure.get("atoms", [])), Fraction(0))
    for seg in measure.get("segments", []):
        lo, hi = Fraction(seg["lo"]), Fraction(seg["hi"])
        for k, c in enumerate(seg["coeffs"]):
            e = n + k + 1
            total += Fraction(c) * (hi**e - lo**e) / e
    return total


def atom_mass(measure: dict, point: Fraction) -> Fraction:
    return sum((Fraction(m) for x, m in measure.get("atoms", []) if Fraction(x) == point), Fraction(0))


def inverse_moment_norm(eta: dict) -> Fraction:
    """N = (1 - eta({0})) / integral of t d(eta): the 1/t norm of the
    column measure restricted to level 1."""
    return (1 - atom_mass(eta, Fraction(0))) / measure_moment(eta, 1)


def h_threshold(spec: dict) -> Fraction:
    """The (0, 0) six-point bound x0 y1 (x1 - x0) / (x0 (x1 - x0) + (a - x0)^2)."""
    xi, eta, a_sq = spec["xi"], spec["eta"], Fraction(spec["a_sq"])
    x0 = measure_moment(xi, 1)
    x1 = measure_moment(xi, 2) / x0
    y1 = measure_moment(eta, 2) / measure_moment(eta, 1)
    gap = x1 - x0
    return x0 * y1 * gap / (x0 * gap + (a_sq - x0) ** 2)


def s_threshold(spec: dict) -> Fraction:
    xi, a_sq = spec["xi"], Fraction(spec["a_sq"])
    n = inverse_moment_norm(spec["eta"])
    return min(atom_mass(xi, Fraction(1)) / a_sq, atom_mass(xi, Fraction(0)) / (n - a_sq))


def sfc_grid(spec: dict) -> Grid:
    """Level 0 is the shift of xi; column 0 rises through a_sq and the shift
    of eta restricted to level 1; interior weights are 1."""
    xi, eta, a_sq = spec["xi"], spec["eta"], Fraction(spec["a_sq"])
    m_xi: dict[int, Fraction] = {}
    m_eta: dict[int, Fraction] = {}

    def xi_moment(n: int) -> Fraction:
        if n not in m_xi:
            m_xi[n] = measure_moment(xi, n)
        return m_xi[n]

    def eta1_moment(n: int) -> Fraction:
        if n not in m_eta:
            m_eta[n] = measure_moment(eta, n + 1) / measure_moment(eta, 1)
        return m_eta[n]

    def beta_col0(k2: int) -> Fraction:
        return eta1_moment(k2) / eta1_moment(k2 - 1)

    def alpha_upper(k1: int, k2: int) -> Fraction:
        if k1 > 0:
            return Fraction(1)
        # interior beta is 1, so alpha(0, k2 + 1) = alpha(0, k2) / beta(0, k2)
        value = a_sq
        for j in range(1, k2):
            value /= beta_col0(j)
        return value

    return Grid(
        lambda k1: xi_moment(k1 + 1) / xi_moment(k1),
        alpha_upper,
        lambda k1, k2: beta_col0(k2) if k1 == 0 else Fraction(1),
        Fraction(spec["y0_sq"]),
    )
