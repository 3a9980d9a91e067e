"""Exact rational scalars, small symmetric-matrix positivity, polynomial signs.

Everything downstream stores squared weights, masses, and thresholds as
`fractions.Fraction`, so every verdict in the library reduces to one of three
exact questions answered here:

* is a small symmetric rational matrix positive semidefinite,
* is ``A1*A2 >= (sqrt(P) - sqrt(Q))**2`` for rational ``A1, A2, P, Q``,
* is a rational-coefficient polynomial nonnegative on a rational interval.

The first is settled by one fraction-free symmetric elimination on integers
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968) with a zero-pivot rule, the second by
eliminating the radical (compare ``L = A1*A2 - P - Q`` against
``-2*sqrt(P*Q)`` via squaring), and the third by a ladder of certificates:
endpoint signs, a closed form up to degree 2, and from degree 3 one Sturm
count of the odd-multiplicity roots with one interior sign sample.

Both matrix tests accept ints as well as Fractions.  A positive multiple of
a matrix is PSD exactly when the matrix is, so the PSD test clears the
denominators by their least common multiple and eliminates on integers; a
caller that knows a positive multiple with integer entries can pass that
instead (`shiftlab.shift1d.hankel_psd` does).  A caller that holds a
symmetric integer matrix it built itself can skip the input checks and the
clearing: the private entry `_psd_cleared` runs the same elimination in
place, with no order cap (`shiftlab.shift1d.khypo_witness` does).  The
verdict of the radical test does not change when ``A1`` is scaled by
``s1 > 0``, ``A2`` by ``s2 > 0`` and ``P``, ``Q`` by ``s1*s2``.  A caller
holding numerators and denominators can therefore clear them and ask on
integers, with no gcd on the way (`shiftlab.shift2d.six_point_data`, the
one caller, does; the window scans need no radical).
No floating point is used anywhere in this module.

Polynomials are plain lists of Fractions in ascending degree order,
``[c0, c1, c2]`` meaning ``c0 + c1*t + c2*t**2``.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from math import lcm

MAX_MATRIX_ORDER = 8


class ExactInputError(ValueError):
    """Raised when a value violates a precondition (bad rational, bad matrix)."""


# ---------------------------------------------------------------------------
# rational parsing and rendering


_RATIONAL_PART = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as "num/den", an integer, or a "+" sum.

    Each "+"-separated part, stripped of surrounding whitespace, is
    ``-?digits(/digits)?`` in ASCII digits; decimals, exponents, underscores
    and any other form Fraction would accept are refused.  The parts are
    added up on their integers and reduced once.

    >>> parse_rational("7/3240")
    Fraction(7, 3240)
    >>> parse_rational("3")
    Fraction(3, 1)
    >>> parse_rational("1/6+1/100")
    Fraction(53, 300)
    """
    parts = text.split("+")
    if not parts or any(not part.strip() for part in parts):
        raise ExactInputError(f"malformed rational: {text!r}")
    num, den = 0, 1
    for part in parts:
        part = part.strip()
        match = _RATIONAL_PART.fullmatch(part)
        try:
            if not match:
                raise ValueError(part)
            p, q = int(match[1]), int(match[2] or 1)  # past the digit limit, a ValueError
            if not q:
                raise ZeroDivisionError(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactInputError(f"malformed rational: {part!r}") from exc
        num, den = num * q + p * den, den * q
    return Fraction(num, den)


def parse_rational_field(value: object, where: str, error: type[ValueError]) -> Fraction:
    """Read a rational from a JSON field: an integer or a rational string.

    JSON ``true``/``false`` are refused even though ``bool`` is an ``int``.
    Failures raise the caller's ``error`` class, prefixed with ``where``.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ExactInputError as exc:
            raise error(f"{where}: {exc}") from exc
    raise error(f"{where}: expected a rational string, got {value!r}")


def parse_list_field(value: object, where: str, error: type[ValueError]) -> list:
    """Read a JSON array field as a list; anything else (a number, a string,
    an object) raises the caller's ``error``, prefixed with ``where``."""
    if isinstance(value, (list, tuple)):
        return list(value)
    raise error(f"{where}: expected an array, got {value!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "num/den", omitting "/1" for integers; past
    Python's int-to-string digit limit, an ExactInputError.

    >>> format_rational(Fraction(7, 3240))
    '7/3240'
    >>> format_rational(Fraction(3))
    '3'
    """
    try:
        return str(q)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ExactInputError(f"a result has more than {limit} digits: too long to print") from exc


def decimal_string(q: Fraction, digits: int = 12) -> str:
    """Render ``q`` to ``digits`` significant decimal digits, round half even.

    Presentation only; no decimal rendering ever feeds back into a verdict.

    >>> decimal_string(Fraction(8, 9))
    '0.888888888889'
    >>> decimal_string(Fraction(1, 2))
    '0.5'
    """
    if digits < 1:
        raise ExactInputError(f"digits must be >= 1, got {digits}")
    if q == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return format(d, "f")


# ---------------------------------------------------------------------------
# symmetric matrices

Matrix = list[list[Fraction]]


def matrix_det(rows: Matrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        result *= pivot
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return sign * result


def _check_symmetric(rows: Matrix) -> None:
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ExactInputError("matrix must be square and nonempty")
    if n > MAX_MATRIX_ORDER:
        raise ExactInputError(f"matrix order {n} exceeds {MAX_MATRIX_ORDER}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ExactInputError(f"matrix not symmetric at ({i},{j})")


def psd_check(rows: Matrix) -> bool:
    """Decide positive semidefiniteness of a small symmetric matrix of ints
    or Fractions.

    The entries are first multiplied by the least common multiple of their
    denominators; a positive multiple is PSD exactly when the matrix is.
    Then one symmetric Bareiss elimination runs on integers: step k takes
    the pivot d = a[k][k] and updates every later entry as
    ``a[i][j] = (d*a[i][j] - a[k][i]*a[k][j]) // prev``, where prev is the
    previous nonzero pivot (1 at the start).  Entry (i, j) is then the
    minor of rows S + [i] and columns S + [j], S the indices whose pivots
    were used; Sylvester's identity says that d*a[i][j] - a[k][i]*a[k][j]
    equals that minor after k joins S times det A[S, S] = prev, so the
    division is exact.  Each entry is det A[S, S] > 0 times the
    corresponding entry of the Schur complement of A[S, S], so the signs
    are those of the symmetric (LDL^T) elimination, and its rule decides:
    a negative pivot means not PSD; a zero pivot with a nonzero entry b
    beside it means not PSD, since that 2 x 2 principal minor is
    det [[0, b], [b, c]] = -b**2 < 0; a zero pivot whose row is zero drops
    out of every later complement.  Such a pivot is skipped and prev is
    kept, because S, and with it det A[S, S], is unchanged.  The rule is
    complete for symmetric matrices and costs O(n**3) integer operations,
    each on minors of the cleared matrix.  The elimination is
    `_psd_cleared`, the entry for callers that already hold a symmetric
    integer matrix; this one adds the input checks and the clearing.

    >>> one = Fraction(1)
    >>> psd_check([[one, one/2], [one/2, one/3]])
    True
    >>> psd_check([[one, 2*one], [2*one, one]])
    False
    >>> psd_check([[one, one], [one, one]])
    True

    The first matrix cleared by 6, and a singular integer matrix whose
    second pivot is zero with a zero row:

    >>> psd_check([[6, 3], [3, 2]])
    True
    >>> psd_check([[1, 1, 2], [1, 1, 2], [2, 2, 5]])
    True
    """
    _check_symmetric(rows)
    scale = lcm(*(x.denominator for row in rows for x in row))
    return _psd_cleared([[x.numerator * (scale // x.denominator) for x in row] for row in rows])


def _psd_cleared(a: list[list[int]]) -> bool:
    """`psd_check`'s elimination on a square symmetric integer matrix, in
    place and with no input check or order cap."""
    n = len(a)
    # Only the upper triangle is kept current; the elimination stays symmetric.
    prev = 1
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
            b = pivot_row[i]
            row = a[i]
            for j in range(i, n):
                row[j] = (d * row[j] - b * pivot_row[j]) // prev
        prev = d
    return True


def psd2_radical_cross(
    a1: Fraction | int, a2: Fraction | int, p: Fraction | int, q: Fraction | int
) -> bool:
    """Decide PSD of [[a1, sqrt(p)-sqrt(q)], [sqrt(p)-sqrt(q), a2]] exactly.

    The matrix is PSD iff a1 >= 0, a2 >= 0 and a1*a2 >= (sqrt(p)-sqrt(q))**2.
    With L = a1*a2 - p - q the last condition reads L >= -2*sqrt(p*q), which
    holds iff L >= 0 or L**2 <= 4*p*q.  Negative p or q means a squared
    weight went negative upstream and is rejected loudly.

    The arguments may be ints or Fractions.  Scaling a1 by s1 > 0, a2 by
    s2 > 0 and p, q by s1*s2 scales both sides of every comparison above by
    a positive factor, so the verdict does not change; on cleared
    denominators the test runs in integer arithmetic alone.

    >>> psd2_radical_cross(Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6))
    True
    >>> psd2_radical_cross(Fraction(1, 3), Fraction(0), Fraction(1, 6), Fraction(1, 24))
    False

    The first case again with a1 scaled by 3, a2 by 18 and p, q by 54:

    >>> psd2_radical_cross(1, 6, 9, 9)
    True
    """
    if p < 0 or q < 0:
        raise ExactInputError("cross-term squares must be nonnegative")
    if a1 < 0 or a2 < 0:
        return False
    residual = a1 * a2 - p - q
    if residual >= 0:
        return True
    return residual * residual <= 4 * p * q


# ---------------------------------------------------------------------------
# polynomials (ascending coefficient lists)

Poly = list[Fraction]


def poly_trim(p: Poly) -> Poly:
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_neg(p: Poly) -> Poly:
    return [-c for c in p]


def poly_scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return []
    return [c * x for x in p]


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_shift_up(p: Poly, h: int) -> Poly:
    """Multiply by t**h."""
    if not p:
        return []
    return [Fraction(0)] * h + list(p)


def poly_derivative(p: Poly) -> Poly:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder over the rationals."""
    d = poly_trim(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(poly_trim(p))
    quot = [Fraction(0)] * max(0, len(rem) - len(d) + 1)
    lead = d[-1]
    while len(rem) >= len(d):
        coeff = rem[-1] / lead
        deg = len(rem) - len(d)
        quot[deg] = coeff
        for i, c in enumerate(d):
            rem[deg + i] -= coeff * c
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), rem


def poly_monic(p: Poly) -> Poly:
    p = poly_trim(p)
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def _odd_multiplicity_part(p: Poly) -> Poly:
    """Monic product of the distinct roots of p with odd multiplicity.

    Yun's square-free factorization (Yun, SYMSAC 1976) splits p into
    c * a1 * a2**2 * a3**3 * ... with each a_i square-free and monic and
    the a_i pairwise coprime; the product of the odd-indexed a_i is returned.

    >>> half, third = Fraction(1, 2), Fraction(1, 3)
    >>> p = poly_mul(poly_mul([-third, 1], [-third, 1]), [-half, 1])
    >>> _odd_multiplicity_part(p)
    [Fraction(-1, 2), Fraction(1, 1)]
    """
    p = poly_trim(p)
    dp = poly_derivative(p)
    g = poly_gcd(p, dp)
    if len(g) == 1:  # square-free: every root is simple
        return poly_monic(p)
    c, _ = poly_divmod(p, g)
    d, _ = poly_divmod(dp, g)
    odd = [Fraction(1)]
    i = 1
    while len(c) > 1:
        # c = const * a_i * a_(i+1) * ...; after the subtraction
        # d = sum_j (j - i) * a_j' * c/a_j, so gcd(c, d) = a_i
        d = poly_add(d, poly_neg(poly_derivative(c)))
        a = poly_gcd(c, d)
        if i % 2:
            odd = poly_mul(odd, a)
        c, _ = poly_divmod(c, a)
        d, _ = poly_divmod(d, a)
        i += 1
    return poly_monic(odd)


def sturm_chain(p: Poly) -> list[Poly]:
    """Canonical Sturm chain p, p', -rem(...), ... for square-free input."""
    chain = [poly_trim(p), poly_derivative(p)]
    while chain[-1]:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(poly_neg(rem))
    return [c for c in chain if c]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count_halfopen(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct roots in (lo, hi] of the chain's (square-free) base."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def poly_nonneg_on_interval(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """Decide p(t) >= 0 for every t in [lo, hi], exactly.

    A ladder of exact certificates, cheapest first:

    1. Endpoint signs are checked directly; a negative one decides False.
    2. Degree 1: a line nonnegative at both endpoints is nonnegative between.
    3. Degree 2, ``c0 + c1*t + c2*t**2``, in closed form: with ``c2 < 0`` or
       the vertex ``-c1/(2*c2)`` not strictly inside (lo, hi) the minimum is
       at an endpoint; otherwise it is ``c0 - c1**2/(4*c2)``, so the verdict
       is ``c1**2 <= 4*c0*c2``.
    4. Degree 3 and up: Sturm, with no root search: p changes sign exactly
       at its roots of odd multiplicity.  Their product (Yun's square-free
       factorization) gets one Sturm count on the open interval (lo, hi);
       any such root there decides False.  Else p has one sign inside,
       shown by the first nonzero value among deg equally spaced interior
       points (at most deg/2 distinct interior roots remain, all even).

    >>> one = Fraction(1)
    >>> poly_nonneg_on_interval([one * 0, one], Fraction(0), Fraction(1))
    True
    >>> poly_nonneg_on_interval([-one/2, one], Fraction(0), Fraction(1))
    False
    >>> poly_nonneg_on_interval([one/4, -one, one], Fraction(0), Fraction(1))
    True

    The quadratic rung: (t - 1/2)**2 - 1/16 has its vertex inside [0, 1]
    and a negative minimum there; on [3/4, 1] its vertex lies outside.

    >>> dip = [one/4 - one/16, -one, one]
    >>> poly_nonneg_on_interval(dip, Fraction(0), Fraction(1))
    False
    >>> poly_nonneg_on_interval(dip, Fraction(3, 4), Fraction(1))
    True

    The cubic t*((t - 1/2)**2 + 1/100) is square-free with one real root,
    t = 0, at lo of [0, 1]: the Sturm count on (0, 1] is 0, and the first
    sample is positive.

    >>> bowl = [0 * one, one/4 + one/100, -one, one]
    >>> sturm_count_halfopen(sturm_chain(bowl), Fraction(0), Fraction(1))
    0
    >>> poly_nonneg_on_interval(bowl, Fraction(0), Fraction(1))
    True

    A double root inside needs the square-free factorization: t*(t - 1/3)**2
    on [0, 1] keeps only its odd root, t = 0, which is not inside (0, 1), so
    the first sample decides: p(1/4) = 1/576.

    >>> notch = [0 * one, one/9, -2*one/3, one]
    >>> _odd_multiplicity_part(notch)
    [Fraction(0, 1), Fraction(1, 1)]
    >>> poly_nonneg_on_interval(notch, Fraction(0), Fraction(1))
    True
    """
    if lo >= hi:
        raise ExactInputError("need lo < hi")
    p = poly_trim(p)
    if not p:
        return True
    if len(p) == 1:
        return p[0] >= 0
    if poly_eval(p, lo) < 0 or poly_eval(p, hi) < 0:
        return False
    if len(p) == 2:
        return True
    if len(p) == 3:
        c0, c1, c2 = p
        # lo < -c1/(2*c2) < hi, multiplied through by 2*c2 > 0
        if c2 < 0 or not 2 * c2 * lo < -c1 < 2 * c2 * hi:
            return True
        return c1 * c1 <= 4 * c0 * c2
    odd = _odd_multiplicity_part(p)
    if sturm_count_halfopen(sturm_chain(odd), lo, hi) - (poly_eval(odd, hi) == 0):
        return False
    # p changes sign only at odd-multiplicity roots; with none inside, its
    # interior sign is that of any nonzero interior value.  At most deg/2
    # distinct interior roots remain, so deg equally spaced points hold one.
    step = (hi - lo) / len(p)
    samples = (poly_eval(p, lo + i * step) for i in range(1, len(p)))
    return next(v for v in samples if v) > 0


if __name__ == "__main__":
    import doctest

    doctest.testmod()
