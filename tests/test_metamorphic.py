"""Metamorphic properties: oracles that need no second implementation.

Transposing a two-variable window swaps the variables, and scaling the
weights is a congruence of each test matrix with a positive diagonal.
Neither changes a six-point or a Hankel PSD verdict, so each scan must
answer the changed input as it answered the original.  The six-point test
is local, so restricting a window to the subshift at a base shifts its
scan and changes nothing else."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.measures import combine1d, delta, lebesgue, make1d
from shiftlab.sfc import make_params
from shiftlab.shift1d import WeightTail, alpha_family, beta_r_family, bergman_like, khypo_witness, make_weights
from shiftlab.shift2d import (
    build_explicit,
    grid_from_json,
    joint_hyponormal_window,
    six_point_scan,
    window_indices,
)
from specs import sfc_grid_json, weights_json

F = Fraction

_entry = st.builds(F, st.integers(1, 48), st.integers(1, 24))
_scale = st.builds(F, st.integers(1, 12), st.integers(1, 12))


def _named_specs():
    """Grid specs of every named model, passing and failing ones."""
    xi = make1d([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
    eta = combine1d([(F(1, 2), lebesgue()), (F(1, 2), delta(F(1)))])
    flat_pair = make_weights([F(1, 2), F(1, 2)], WeightTail("constant", F(1)))
    return [
        {"model": "figure9", "y_sq": "1/3"},
        {"model": "figure9", "y_sq": "1"},
        {"model": "totally_flat", "x_row": weights_json(alpha_family()), "y_sq": "1/8"},
        {"model": "totally_flat", "x_row": weights_json(flat_pair), "y_sq": "1/8"},
        {"model": "figure5", "k2": 1, "alpha0_sq": "1/4"},
        {"model": "figure5", "k2": 2, "alpha0_sq": "1/4", "beta0_sq": "1/400"},
        {"model": "figure5", "k2": 3, "alpha0_sq": "1/4", "beta0_sq": "1/2097152"},  # fails at (0, 0)
        sfc_grid_json(make_params(xi, eta, F(1, 2), F(12, 25))),
        sfc_grid_json(make_params(xi, eta, F(5, 12), F(13, 16))),
    ]


def _window_of(g, m, n):
    """The alpha and beta windows a six-point scan of [0,m] x [0,n] reads."""
    alpha = [[g.alpha_sq(k1, k2) for k1 in range(m + 2)] for k2 in range(n + 2)]
    beta = [[g.beta_sq(k1, k2) for k1 in range(m + 2)] for k2 in range(n + 2)]
    return alpha, beta


# each named grid read once, on the largest window a case draws
_NAMED = [_window_of(grid_from_json(spec), 5, 4) for spec in _named_specs()]


@st.composite
def _window_case(draw):
    """(alpha rows, beta rows, m, n): commuting windows of positive entries
    that just cover the scan of [0,m] x [0,n], read off a named grid or drawn
    at random: the alphas, the beta seed column and the top beta row, which
    the identity does not reach, with every other beta derived from it."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        alpha, beta = draw(st.sampled_from(_NAMED))
        return [row[: m + 2] for row in alpha[: n + 2]], [row[: m + 2] for row in beta[: n + 2]], m, n
    row = st.lists(_entry, min_size=m + 2, max_size=m + 2)
    alpha = draw(st.lists(row, min_size=n + 2, max_size=n + 2))
    beta = [[draw(_entry)] for _ in range(n + 1)]
    for k2, beta_row in enumerate(beta):
        for k1 in range(m + 1):
            beta_row.append(alpha[k2 + 1][k1] * beta_row[k1] / alpha[k2][k1])
    return alpha, [*beta, draw(row)], m, n


def _transpose(rows):
    return [list(column) for column in zip(*rows)]


def _failing(g, m, n):
    return {k for k, data in six_point_scan(g, m, n) if not data.ok}


@given(_window_case())
@example((*_window_of(grid_from_json(_named_specs()[3]), 3, 2), 3, 2))  # the equal pair of totally_flat fails
@settings(max_examples=150, deadline=None)
def test_transposing_a_window_transposes_the_failing_six_points(case):
    alpha, beta, m, n = case
    g = build_explicit(alpha, beta)
    swapped = build_explicit(_transpose(beta), _transpose(alpha))
    for k1, k2 in window_indices(m + 1, n + 1):
        assert swapped.alpha_sq(k2, k1) == g.beta_sq(k1, k2)
        assert swapped.beta_sq(k2, k1) == g.alpha_sq(k1, k2)
    # the failing sets transpose; the first witness need not, since the scan order changes
    assert _failing(swapped, n, m) == {(k2, k1) for k1, k2 in _failing(g, m, n)}
    assert joint_hyponormal_window(swapped, n, m).verdict == joint_hyponormal_window(g, m, n).verdict


@given(_window_case(), st.integers(0, 5), st.integers(0, 4))
@example((*_window_of(grid_from_json(_named_specs()[3]), 3, 2), 3, 2), 0, 0)  # base at the failing equal pair
@example((*_window_of(grid_from_json(_named_specs()[0]), 5, 4), 5, 4), 2, 3)
@settings(max_examples=150, deadline=None)
def test_restricting_a_window_shifts_its_six_point_scan(case, i, j):
    alpha, beta, m, n = case
    i, j = i % (m + 1), j % (n + 1)
    g = build_explicit(alpha, beta)
    sub = build_explicit([row[i:] for row in alpha[j:]], [row[i:] for row in beta[j:]])
    # terms and verdicts both, in the scan order of the sub-window
    expected = [((k1 - i, k2 - j), data) for (k1, k2), data in six_point_scan(g, m, n) if k1 >= i and k2 >= j]
    assert list(six_point_scan(sub, m - i, n - j)) == expected


@given(_window_case(), _scale, _scale)
@settings(max_examples=150, deadline=None)
def test_scaling_the_alphas_and_betas_keeps_every_six_point_verdict(case, c, d):
    alpha, beta, m, n = case
    g = build_explicit(alpha, beta)
    scaled = build_explicit([[c * c * v for v in row] for row in alpha], [[d * d * v for v in row] for row in beta])
    assert [(k, data.ok) for k, data in six_point_scan(scaled, m, n)] == [
        (k, data.ok) for k, data in six_point_scan(g, m, n)
    ]
    assert joint_hyponormal_window(scaled, m, n) == joint_hyponormal_window(g, m, n)


_NAMED_ROWS = [
    bergman_like(1),
    bergman_like(3),
    alpha_family(),
    beta_r_family(F(16, 25)),
    make_weights([F(1, 4), F(1, 4)], WeightTail("constant", F(1))),  # fails order 2 at base 0
]


@st.composite
def _weights_case(draw):
    """(squared weights, order, window): exactly the weights the scan of
    bases 0..window reads, from a named sequence or at random."""
    order, window = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    count = window + 2 * order
    if draw(st.booleans()):
        w = draw(st.sampled_from(_NAMED_ROWS))
        return [w.weight_sq(i) for i in range(count)], order, window
    return draw(st.lists(_entry, min_size=count, max_size=count)), order, window


@given(_weights_case(), _scale)
@settings(max_examples=200, deadline=None)
def test_scaling_every_weight_keeps_the_khypo_witness(case, c):
    weights, order, window = case
    witness = khypo_witness(make_weights(weights), order, window)
    assert khypo_witness(make_weights([c * c * v for v in weights]), order, window) == witness
