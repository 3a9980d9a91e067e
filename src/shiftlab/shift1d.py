"""One-variable weighted shifts with exact squared-weight sequences.

A shift is stored as an explicit finite prefix of squared weights plus a
closed-form tail rule.  Everything derived from it (cumulative moment
products, Hankel matrices, hyponormality of any order, flatness, measure
verification, propagation witnesses) is computed in exact rational
arithmetic; unsquared weights are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .exactnum import Matrix, _psd_cleared, format_rational, parse_list_field, parse_rational_field, psd_check
from .measures import Measure1D, MeasureError


class ShiftError(ValueError):
    """Invalid weight data or an index past a finite sequence."""


class _TailRule(NamedTuple):
    """What a tail kind means: its value ("rational" > 0, "integer" >= 1 or
    None for no value), its squared weight at tail index j, and the limit its
    weights rise to from j = 1 on.  A kind with no weight rule has no tail."""

    value: str | None
    weight: Callable[[Fraction | int | None, int], Fraction] | None
    limit: Callable[[Fraction | int | None], Fraction] | None


def _alpha_family_weight(_: None, j: int) -> Fraction:
    return Fraction(2 * 2**j + 1, 2 * 2**j + 2) if j else Fraction(1, 2)


def _beta_r_family_weight(r_sq: Fraction, j: int) -> Fraction:
    return Fraction((j + 1) * (j + 3), (j + 2) ** 2) if j else Fraction(3, 4) * r_sq


_TAIL_RULES = {
    "constant": _TailRule("rational", lambda c, j: c, lambda c: c),
    "bergman_like": _TailRule("integer", lambda ell, j: Fraction(ell * (j + 2) - 1, j + 2), Fraction),
    "alpha_family": _TailRule(None, _alpha_family_weight, lambda _: Fraction(1)),
    "beta_r_family": _TailRule("rational", _beta_r_family_weight, lambda _: Fraction(1)),
    "none": _TailRule(None, None, None),
}
TAIL_KINDS = tuple(_TAIL_RULES)


@dataclass(frozen=True)
class WeightTail:
    kind: str
    value: Fraction | int | None = None


@dataclass(frozen=True)
class WeightSeq:
    """Squared weights: explicit prefix, then a tail rule at local index 0."""

    prefix_sq: tuple[Fraction, ...]
    tail: WeightTail

    def weight_sq(self, k: int) -> Fraction:
        if k < 0:
            raise ShiftError(f"negative index {k}")
        if k < len(self.prefix_sq):
            return self.prefix_sq[k]
        weight = _TAIL_RULES[self.tail.kind].weight
        if weight is None:
            raise ShiftError(f"finite weight sequence has no index {k}")
        return weight(self.tail.value, k - len(self.prefix_sq))

    def sup_weight_sq(self) -> Fraction:
        """Exact supremum of the squared weights: the largest of the prefix,
        the first tail weight and the limit the later tail weights rise to."""
        rule, value = _TAIL_RULES[self.tail.kind], self.tail.value
        tail = () if rule.weight is None else (rule.weight(value, 0), rule.limit(value))
        return max((*self.prefix_sq, *tail), default=Fraction(0))

    def gamma(self, up_to: int) -> list[Fraction]:
        """Cumulative products [1, w0, w0*w1, ...] up to index up_to."""
        if up_to < 0:
            raise ShiftError(f"negative moment bound {up_to}")
        gammas = [Fraction(1)]
        for k in range(up_to):
            gammas.append(gammas[-1] * self.weight_sq(k))
        return gammas

    def to_json_obj(self) -> dict:
        tail: dict[str, object] = {"kind": self.tail.kind}
        value = self.tail.value
        if value is not None:
            tail["value"] = int(value) if _TAIL_RULES[self.tail.kind].value == "integer" else format_rational(value)
        return {
            "prefix_sq": [format_rational(w) for w in self.prefix_sq],
            "tail": tail,
        }


def make_weights(prefix_sq=(), tail: WeightTail | None = None) -> WeightSeq:
    tail = tail or WeightTail("none")
    if tail.kind not in TAIL_KINDS:
        raise ShiftError(f"unknown tail kind {tail.kind!r}")
    prefix = tuple(Fraction(w) for w in prefix_sq)
    if any(w <= 0 for w in prefix):
        raise ShiftError("squared weights must be positive")
    value_rule = _TAIL_RULES[tail.kind].value
    if value_rule == "rational":
        if not isinstance(tail.value, (int, Fraction)) or tail.value <= 0:
            raise ShiftError(f"{tail.kind} tail needs a positive rational value")
        tail = WeightTail(tail.kind, Fraction(tail.value))
    elif value_rule == "integer":
        if not isinstance(tail.value, int) or tail.value < 1:
            raise ShiftError(f"{tail.kind} tail needs an integer parameter >= 1")
    elif tail.value is not None:
        raise ShiftError(f"tail kind {tail.kind!r} takes no value")
    return WeightSeq(prefix, tail)


def bergman_like(ell: int) -> WeightSeq:
    """Squared weights ell - 1/(k+2); ell = 1 is the Bergman shift."""
    return make_weights((), WeightTail("bergman_like", ell))


def alpha_family() -> WeightSeq:
    """Squared weights 1/2, then (2**k + 1/2)/(2**k + 1); three-atom measure."""
    return make_weights((), WeightTail("alpha_family"))


def beta_r_family(r_sq: Fraction) -> WeightSeq:
    """Squared weights (3/4) r^2, then (n+1)(n+3)/(n+2)^2."""
    return make_weights((), WeightTail("beta_r_family", Fraction(r_sq)))


def flat_shift(a_sq: Fraction) -> WeightSeq:
    """The prototypical flat shift: a, 1, 1, 1, ..."""
    return make_weights((Fraction(a_sq),), WeightTail("constant", Fraction(1)))


def unilateral() -> WeightSeq:
    return make_weights((), WeightTail("constant", Fraction(1)))


def weights_from_json(obj: object, where: str = "weights") -> WeightSeq:
    if not isinstance(obj, dict) or "tail" not in obj:
        raise ShiftError(f"{where}: expected an object with prefix_sq/tail")
    tail_obj = obj["tail"]
    if not isinstance(tail_obj, dict) or "kind" not in tail_obj:
        raise ShiftError(f"{where}.tail: expected an object with a kind")
    kind = tail_obj["kind"]
    if kind not in TAIL_KINDS:
        raise ShiftError(f"{where}.tail.kind: unknown kind {kind!r}")
    raw_value = tail_obj.get("value")
    value: Fraction | int | None
    if raw_value is None:
        value = None
    elif _TAIL_RULES[kind].value == "integer":
        if not isinstance(raw_value, int) or isinstance(raw_value, bool):
            raise ShiftError(f"{where}.tail.value: expected an integer")
        value = raw_value
    else:
        value = parse_rational_field(raw_value, f"{where}.tail.value", ShiftError)
    prefix = [
        parse_rational_field(w, f"{where}.prefix_sq[{i}]", ShiftError)
        for i, w in enumerate(parse_list_field(obj.get("prefix_sq", []), f"{where}.prefix_sq", ShiftError))
    ]
    return make_weights(prefix, WeightTail(kind, value))


# ---------------------------------------------------------------------------
# positivity tests


def hankel_matrix(w: WeightSeq, order: int, base: int) -> Matrix:
    """(gamma_(base+i+j)) for i, j in 0..order."""
    if order < 1 or base < 0:
        raise ShiftError(f"need order >= 1 and base >= 0, got {order}, {base}")
    gammas = w.gamma(base + 2 * order)
    return [[gammas[base + i + j] for j in range(order + 1)] for i in range(order + 1)]


def _cleared_hankel(weights: list[Fraction], order: int) -> list[list[int]]:
    """The integer multiple of a moment Hankel matrix that hankel_psd and
    khypo_witness test, from the 2 * order squared weights at and after its
    base; symmetric by construction."""
    size = 2 * order + 1
    entries = [1] * size
    for t, q in enumerate(weights):
        entries[t + 1] = entries[t] * q.numerator
    suffix = 1
    for t in range(size - 2, -1, -1):
        suffix *= weights[t].denominator
        entries[t] *= suffix
    return [entries[i : i + order + 1] for i in range(order + 1)]


def hankel_psd(w: WeightSeq, order: int, base: int) -> bool:
    """PSD of the moment Hankel matrix H = (gamma_(base+i+j)).

    Order 1 is hyponormality at one site; order 2 matches the stated
    3 x 3 moment-matrix test; larger orders are the natural extension of the
    same pattern, up to order 7 (matrix order 8, the cap of `psd_check`).

    The test runs on integers.  With w_(base+s) = n_s/d_s for s < 2*order
    and P = prod d_s, the matrix (P/gamma_base) * H has entry t = i + j

        prod_(s<t) n_s * prod_(t<=s<2*order) d_s,

    one prefix product of the numerators times one suffix product of the
    denominators.  P/gamma_base > 0, so it is PSD exactly when H is.
    """
    if order < 1 or base < 0:
        raise ShiftError(f"need order >= 1 and base >= 0, got {order}, {base}")
    return psd_check(_cleared_hankel([w.weight_sq(base + s) for s in range(2 * order)], order))


def khypo_witness(w: WeightSeq, order: int, window: int) -> int | None:
    """First base in [0, window] whose Hankel matrix of this order is not
    PSD, or None when the shift is order-hyponormal on the window.

    Each weight is read once, in index order and only as far as the base
    being tested needs, so a finite sequence fails at its first missing
    index and only when a base reaches it.  Each base's matrix is the
    integer multiple `hankel_psd` tests, handed straight to the elimination
    `_psd_cleared`: it is symmetric and integral by construction, and the
    order is not capped.
    """
    if order < 1 or window < 0:
        raise ShiftError(f"need order >= 1 and window >= 0, got {order}, {window}")
    weights: list[Fraction] = []
    for base in range(window + 1):
        while len(weights) < base + 2 * order:
            weights.append(w.weight_sq(len(weights)))
        if not _psd_cleared(_cleared_hankel(weights[base : base + 2 * order], order)):
            return base
    return None


def bergman_like_hankel2_det(ell: int, k: int, gamma_k: Fraction) -> Fraction:
    """Closed form for det of the order-2 Hankel at base k, Bergman-like ell.

    Always strictly positive, which is the certificate that every
    Bergman-like shift is 2-hyponormal.
    """
    if ell < 1 or k < 0:
        raise ShiftError(f"need ell >= 1 and k >= 0, got {ell}, {k}")
    num = gamma_k**3 * 2 * (ell + 1) * ((k + 2) * ell - 1) ** 2 * ((k + 3) * ell - 1)
    den = Fraction((k + 2) ** 3 * (k + 3) ** 3 * (k + 4) ** 2 * (k + 5))
    return num / den


def is_flat(w: WeightSeq, window: int) -> bool:
    """All squared weights from index 1 through window equal."""
    if window < 2:
        raise ShiftError(f"window must be >= 2, got {window}")
    first = w.weight_sq(1)
    return all(w.weight_sq(k) == first for k in range(2, window + 1))


def verify_berger(w: WeightSeq, mu: Measure1D, up_to: int) -> bool:
    """Moments of mu match the cumulative weight products through up_to."""
    if not mu.is_probability():
        raise MeasureError("verification needs a probability measure")
    gammas = w.gamma(up_to)
    return all(mu.moment(k) == gammas[k] for k in range(up_to + 1))


# ---------------------------------------------------------------------------
# propagation audit


@dataclass(frozen=True)
class AuditResult:
    """Outcome of the equal-pair witness search.

    kind is one of FLAT, NO_EQUAL_PAIR, WITNESS, INCONCLUSIVE.  A WITNESS
    carries the (order, base) of a failed Hankel test; INCONCLUSIVE records
    the exhausted search bound, since the underlying propagation facts
    guarantee that a witness exists for non-flat shifts with an equal pair
    but give no a-priori bound on where.
    """

    kind: str
    order: int | None = None
    base: int | None = None
    max_order: int | None = None


def propagation_audit(w: WeightSeq, max_order: int, window: int) -> AuditResult:
    """Search for a Hankel witness that an equal-pair shift is not flat.

    Two consecutive equal weights force flatness in any shift that is
    2-hyponormal (a fortiori subnormal), so a non-flat shift with an equal
    pair must fail some Hankel test; this scans orders 2..max_order and
    bases 0..window in that priority and reports the first failure.
    """
    if max_order < 2:
        raise ShiftError(f"max_order must be >= 2, got {max_order}")
    if window < 2:
        raise ShiftError(f"window must be >= 2, got {window}")
    has_pair = any(w.weight_sq(k) == w.weight_sq(k + 1) for k in range(window))
    if not has_pair:
        return AuditResult("NO_EQUAL_PAIR")
    if is_flat(w, window):
        return AuditResult("FLAT")
    for order in range(2, max_order + 1):
        base = khypo_witness(w, order, window)
        if base is not None:
            return AuditResult("WITNESS", order=order, base=base)
    return AuditResult("INCONCLUSIVE", max_order=max_order)


# ---------------------------------------------------------------------------
# reciprocal-weight partial products

# The partial products of reciprocal squared weights of the two closed-form
# families telescope: the three-atom family's product converges to 3 and the
# two-parameter family's (r-independent part) to 3/2, the reciprocals of the
# representing measures' atom masses at 1.


def alpha_family_reciprocal_product(n: int) -> Fraction:
    """prod_(k=0..n) 1/w_k for the three-atom family: 2 * prod (2^k+1)/(2^k+1/2)."""
    if n < 1:
        raise ShiftError(f"need n >= 1, got {n}")
    return 1 / alpha_family().gamma(n + 1)[n + 1]


def beta_family_reciprocal_product(n: int) -> Fraction:
    """prod_(k=1..n) 1/w_k for the two-parameter family: prod (k+2)^2/((k+1)(k+3))."""
    if n < 1:
        raise ShiftError(f"need n >= 1, got {n}")
    gammas = beta_r_family(Fraction(1)).gamma(n + 1)
    return gammas[1] / gammas[n + 1]
