"""The block-cut likelihood DP against brute force and closed forms."""

from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasishuffle import oracle
from quasishuffle.errors import DimensionMismatch
from quasishuffle.measure import a_shuffle
from quasishuffle.oracle import (
    PermutationDistribution,
    convolve,
    exact_ordering_distribution,
    exact_step_distribution,
    ranking_probability,
)
from quasishuffle.ordering import sample_ordering_batch
from quasishuffle.permutations import compose, identity

from conftest import make_rng, measure_params, measure_strategy


@measure_params()
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dp_law_equals_cell_enumeration(measure, n):
    assert exact_ordering_distribution(measure, n) == oracle._cell_enumeration(measure, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dp_law_equals_cell_enumeration_eight_parts(n):
    m = a_shuffle(8)
    assert exact_ordering_distribution(m, n) == oracle._cell_enumeration(m, n)


@given(measure_strategy(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_dp_law_equals_cell_enumeration_random_gaps(measure, n):
    assert exact_ordering_distribution(measure, n) == oracle._cell_enumeration(measure, n)


def test_ranking_probability_matches_law():
    m = a_shuffle(3)
    law = exact_ordering_distribution(m, 4)
    for p in law.probs:
        assert ranking_probability(m, p) == law.prob(p)
    assert ranking_probability(m, ()) == 1
    with pytest.raises(DimensionMismatch):
        ranking_probability(m, (1, 1, 2))


def _rising_sequences(ranking) -> int:
    label_of_rank = {v: i for i, v in enumerate(ranking)}
    return 1 + sum(label_of_rank[k + 1] < label_of_rank[k] for k in range(1, len(ranking)))


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_ranking_probability_full_deck_closed_form(parts):
    """An a-shuffle of 52 cards gives a ranking with r rising sequences
    probability C(a + n - r, n) / a^n (Bayer-Diaconis)."""
    n = 52
    m = a_shuffle(parts)
    rows = sample_ordering_batch(m, tuple(range(1, n + 1)), 3, make_rng(parts))
    rankings = [tuple(int(v) for v in row) for row in rows]
    rankings += [identity(n), tuple(range(n, 0, -1))]
    for ranking in rankings:
        r = _rising_sequences(ranking)
        assert ranking_probability(m, ranking) == F(comb(parts + n - r, n), parts**n)


def _fraction_convolve(step, state):
    out = {}
    for s, ps in step.probs.items():
        for q, pq in state.probs.items():
            key = compose(s, q)
            out[key] = out.get(key, F(0)) + ps * pq
    return PermutationDistribution(step.n, out)


@measure_params()
@pytest.mark.parametrize("n", [1, 2, 4])
def test_integer_convolve_equals_fraction_convolve(measure, n):
    step = exact_step_distribution(measure, n, "two")
    state = exact_ordering_distribution(a_shuffle(3), n)
    for _ in range(2):
        assert convolve(step, state) == _fraction_convolve(step, state)
        state = convolve(step, state)
