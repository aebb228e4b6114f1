"""The transfer kernel: measure composition, h-step laws and mixing curves,
against convolutions, the per-step Fraction DP and Bayer-Diaconis."""

from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasishuffle import oracle
from quasishuffle.errors import CapExceeded
from quasishuffle.measure import (
    RIGHT,
    GapInterval,
    MeasureMixture,
    QuasiUniformMeasure,
    a_shuffle,
    cell_decomposition,
    compose,
    gsr,
    mixed_fixture,
    power,
)
from quasishuffle.oracle import (
    convolve,
    exact_ordering_distribution,
    exact_step_distribution,
    mixing_curve,
    ranking_probability,
)
from quasishuffle.ordering import sample_ordering_batch
from quasishuffle.permutations import all_permutations, identity, invert

from conftest import builtin_measures, make_rng, measure_params, measure_strategy

IDENTITY = QuasiUniformMeasure((GapInterval(F(0), F(1), RIGHT),))


def _with_identity() -> dict:
    return {**builtin_measures(), "identity": IDENTITY}


def _one_step_reference(measure, ranking) -> F:
    """The block-cut likelihood as one Fraction DP over the cells: the
    h = 1 route before the transfer kernel replaced it."""
    n = len(ranking)
    order = invert(ranking)
    descents = [a > b for a, b in zip(order, order[1:])]
    rise, fall = [0] * (n + 1), [0] * (n + 1)
    for b in range(2, n + 1):
        rise[b] = b - 1 if descents[b - 2] else rise[b - 1]
        fall[b] = fall[b - 1] if descents[b - 2] else b - 1
    f = [F(1)] + [F(0)] * n
    for cell in cell_decomposition(measure).cells:
        w = [F(1)]
        for k in range(1, n + 1):
            w.append(w[-1] * cell.mass / (k if cell.kind == "diffuse" else 1))
        if cell.kind == "diffuse":
            first = [0] * (n + 1)
        else:
            first = rise if cell.atom_side == "right" else fall
        f = [sum(f[a] * w[b - a] for a in range(first[b], b + 1)) for b in range(n + 1)]
    return f[n]


def _rising_sequences(ranking) -> int:
    label_of_rank = {v: i for i, v in enumerate(ranking)}
    return 1 + sum(label_of_rank[k + 1] < label_of_rank[k] for k in range(1, len(ranking)))


def _eulerian(n: int) -> list[int]:
    row = [1]
    for m in range(2, n + 1):
        row = [
            (d + 1) * (row[d] if d < len(row) else 0) + (m - d) * (row[d - 1] if d else 0)
            for d in range(m)
        ]
    return row


def bayer_diaconis_tv(n: int, h: int, parts: int = 2) -> F:
    """TV to uniform after h a-shuffles with a = parts: one a^h-shuffle,
    whose law depends on the descent count alone (Bayer-Diaconis 1992)."""
    a = parts**h
    return sum(
        e * abs(F(comb(a + n - 1 - d, n), a**n) - F(1, factorial(n)))
        for d, e in enumerate(_eulerian(n))
    ) / 2


# -- composition -----------------------------------------------------------


@given(measure_strategy(), measure_strategy(), st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_compose_is_two_steps(first, then, n):
    two_steps = convolve(exact_step_distribution(then, n), exact_step_distribution(first, n))
    assert exact_ordering_distribution(compose(first, then), n) == two_steps


@measure_params()
def test_compose_and_power_edges(measure):
    assert compose(IDENTITY, measure) == measure == compose(measure, IDENTITY)
    assert power(measure, 0) == IDENTITY
    assert power(measure, 1) == measure
    assert compose(power(measure, 2), measure) == compose(measure, power(measure, 2))
    with pytest.raises(ValueError):
        power(measure, -1)


def test_power_of_the_riffle_is_an_equal_part_shuffle():
    assert power(gsr(), 3) == a_shuffle(8)
    assert power(a_shuffle(3), 2) == a_shuffle(9)


# -- the h-step likelihood --------------------------------------------------


@given(measure_strategy(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_transfer_equals_law_of_the_power(measure, h, n):
    law = exact_ordering_distribution(power(measure, h), n)
    for ranking in all_permutations(n):
        assert ranking_probability(measure, ranking, steps=h) == law.prob(ranking)


@measure_params()
@pytest.mark.parametrize("n", [1, 5, 52])
def test_one_step_likelihood_unchanged(measure, n):
    rows = sample_ordering_batch(measure, tuple(range(1, n + 1)), 4, make_rng(n))
    rankings = [tuple(int(v) for v in row) for row in rows] + [identity(n)]
    for ranking in rankings:
        want = _one_step_reference(measure, ranking)
        assert ranking_probability(measure, ranking) == want
        assert ranking_probability(measure, ranking, steps=1) == want


def test_ten_riffles_of_a_deck_closed_form():
    """h riffles are one 2^h-shuffle: r rising sequences have probability
    C(a + n - r, n) / a^n with a = 2^h; the identity has r = 1."""
    n, a = 52, 2**10
    assert ranking_probability(gsr(), identity(n), steps=10) == F(comb(a + n - 1, n), a**n)
    rows = sample_ordering_batch(a_shuffle(a), tuple(range(1, n + 1)), 2, make_rng(10))
    for ranking in [tuple(int(v) for v in row) for row in rows]:
        r = _rising_sequences(ranking)
        assert ranking_probability(gsr(), ranking, steps=10) == F(comb(a + n - r, n), a**n)


def test_ranking_probability_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps = -1 is negative"):
        ranking_probability(gsr(), (1, 2), steps=-1)
    assert ranking_probability(gsr(), (2, 1), steps=0) == 0
    assert ranking_probability(gsr(), (1, 2), steps=0) == 1


@pytest.mark.parametrize("n", range(0, 8))
def test_descent_class_sizes(n):
    want = [0] * (1 << max(n - 1, 0))
    for ranking in all_permutations(n):
        want[oracle._descent_set(ranking)] += 1
    assert oracle._descent_class_sizes(n) == want


@pytest.mark.parametrize("n", range(0, 13))
def test_descent_classes_by_count_are_eulerian(n):
    """The class sizes of the masks with d descents sum to A(n, d)."""
    sizes = oracle._descent_class_sizes(n)
    by_count = [0] * max(n, 1)
    for mask, size in enumerate(sizes):
        by_count[bin(mask).count("1")] += size
    assert by_count == _eulerian(n)
    assert sum(sizes) == factorial(n)


@measure_params()
def test_class_values_on_a_reduced_list(measure):
    """The loop yields each listed class's values as the full list does, so
    a reduction only has to choose the classes and their weights."""
    n, steps = 7, 3
    parts, den = oracle._transfer_parts(measure)
    full = list(oracle._class_values(parts, den, n, steps, enumerate(oracle._descent_class_sizes(n))))
    assert [d for d, _, _ in full] == list(range(1 << (n - 1)))
    # every ranking's probability, summed with the class sizes, is one
    for h in range(steps + 1):
        assert sum(size * values[h] for _, size, values in full) == factorial(n) * den ** (h * n)
    chosen = [(63, 1), (0, 7), (21, 2), (63, 3)]
    reduced = list(oracle._class_values(parts, den, n, steps, chosen))
    assert reduced == [(d, w, full[d][2]) for d, w in chosen]


# -- mixing curves ----------------------------------------------------------


def _convolution_route(source, n, kind, steps):
    return oracle._convolution_curve(exact_step_distribution(source, n, kind), steps)


@pytest.mark.parametrize("kind", ["one", "two"])
@pytest.mark.parametrize("name", sorted(_with_identity()))
def test_mixing_curve_equals_convolution_route(name, kind):
    measure = _with_identity()[name]
    for n in range(0, 7):
        steps = 4 if n <= 5 else 2
        assert mixing_curve(measure, n, kind, steps) == _convolution_route(measure, n, kind, steps)


@given(measure_strategy(), st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_mixing_curve_equals_convolution_route_random_gaps(measure, n, steps):
    curve = mixing_curve(measure, n, "one", steps)
    assert curve == mixing_curve(measure, n, "two", steps)
    for kind in ("one", "two"):
        assert curve == _convolution_route(measure, n, kind, steps)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_riffle_mixing_curve_is_bayer_diaconis(n):
    assert mixing_curve(gsr(), n, "two", steps=10) == [bayer_diaconis_tv(n, h) for h in range(11)]


def test_mixing_curve_caps():
    # a plain measure's curve is capped as work, not by n
    with pytest.raises(CapExceeded, match="mixing curve work"):
        mixing_curve(gsr(), 16, "one", steps=10)
    # the boundaries: work = 2^(n-1) classes * steps * cells * n^3
    assert mixing_curve(gsr(), 10, "one", steps=10) == [bayer_diaconis_tv(10, h) for h in range(11)]
    three = [bayer_diaconis_tv(10, h, parts=3) for h in range(11)]
    assert mixing_curve(a_shuffle(3), 10, "one", steps=10) == three
    with pytest.raises(CapExceeded, match="^mixing curve work 27258880 above cap 20000000$"):
        mixing_curve(gsr(), 11, "one", steps=10)
    with pytest.raises(CapExceeded, match="^mixing curve work 20480000 above cap 20000000$"):
        mixing_curve(mixed_fixture(), 10, "one", steps=10)
    # one ranking has no cap: cells * steps * n^3 = 20,247,552 here
    ranking = tuple(int(v) for v in make_rng(48).permutation(52) + 1)
    a = 48**3
    want = F(comb(a + 52 - _rising_sequences(ranking), 52), a**52)
    assert ranking_probability(a_shuffle(48), ranking, steps=3) == want
    with pytest.raises(ValueError, match="n = -1 is negative"):
        mixing_curve(gsr(), -1, "one", steps=1)
    with pytest.raises(ValueError, match="kind must be"):
        mixing_curve(gsr(), 3, "three", steps=1)
    # a mixture keeps the convolution route and its cap on n
    mixture = MeasureMixture(((F(1, 2), gsr()), (F(1, 2), a_shuffle(3))))
    with pytest.raises(CapExceeded, match="n = 7 above exact cap 6"):
        mixing_curve(mixture, 7, "one", steps=1)
    assert mixing_curve(mixture, 3, "one", steps=2) == _convolution_route(mixture, 3, "one", 2)
