"""The shared row counter and the histograms built on it."""

from collections import Counter
from math import factorial

import numpy as np
import pytest

from quasishuffle.kernels import (
    ConjugateCoupling,
    empirical_mixing_curve,
    empirical_step_counts,
    step_batch,
)
from quasishuffle.measure import gsr
from quasishuffle.ordering import ordering_counts, sample_ordering_batch
from quasishuffle.permutations import count_rows

from conftest import make_rng


def _random_perm_rows(rng, size, n, distinct):
    """`size` rows drawn from `distinct` random permutations of 1..n."""
    pool = np.argsort(rng.random((distinct, n)), axis=1) + 1
    return pool[rng.integers(0, distinct, size)]


@pytest.mark.parametrize("n", [1, 4, 9, 15, 16, 20])
def test_count_rows_matches_rowwise_unique(n):
    rows = _random_perm_rows(make_rng(n), 3000, n, 50)
    keys, counts = count_rows(rows)
    want_keys, want_counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(counts, want_counts)


def test_count_rows_general_integers():
    rng = make_rng()
    for rows in (rng.integers(-3, 4, (2000, 5)), rng.integers(0, 3, (2000, 6)).astype(np.uint8)):
        keys, counts = count_rows(rows)
        want_keys, want_counts = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts)


def test_count_rows_empty():
    keys, counts = count_rows(np.zeros((0, 5), dtype=np.int64))
    assert keys.shape == (0, 5) and counts.shape == (0,)


def _check_histogram(counts, rows, n):
    assert all(sorted(key) == list(range(1, n + 1)) for key in counts)
    assert sum(counts.values()) == len(rows)
    assert counts == Counter(tuple(int(v) for v in row) for row in rows)


@pytest.mark.parametrize("n", [15, 16, 20])
def test_ordering_counts_wide_rows(n):
    labels, size, chunk = tuple(range(1, n + 1)), 2000, 700
    counts = ordering_counts(gsr(), labels, size, make_rng(n), chunk=chunk)
    rng = make_rng(n)
    rows = np.concatenate(
        [sample_ordering_batch(gsr(), labels, min(chunk, size - s), rng) for s in range(0, size, chunk)]
    )
    _check_histogram(counts, rows, n)


@pytest.mark.parametrize("n", [15, 16, 20])
def test_empirical_step_counts_wide_rows(n):
    sampler = ConjugateCoupling(gsr())
    counts = empirical_step_counts(n, sampler, 2000, make_rng(n))
    _check_histogram(counts, step_batch(n, sampler, 2000, make_rng(n)), n)


@pytest.mark.parametrize("n", [15, 16, 20])
def test_empirical_mixing_curve_wide_rows(n):
    sampler, steps, trials = ConjugateCoupling(gsr()), 3, 2000
    curve = empirical_mixing_curve(n, sampler, steps, trials, make_rng(n))
    rng = make_rng(n)
    state = np.tile(np.arange(1, n + 1), (trials, 1))
    want = []
    for h in range(steps + 1):
        if h:
            state = np.take_along_axis(step_batch(n, sampler, trials, rng), state - 1, axis=1)
        counts = Counter(tuple(row) for row in state.tolist())
        u = 1.0 / factorial(n)
        l1 = sum(abs(c / trials - u) for c in counts.values()) + (factorial(n) - len(counts)) * u
        want.append(l1 / 2)
    assert curve == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_empirical_mixing_curve_counts_without_decoding(n):
    """The curve reads the row counts alone; decoded rows give the same floats."""
    sampler, steps, trials = ConjugateCoupling(gsr()), 3, 3000
    curve = empirical_mixing_curve(n, sampler, steps, trials, make_rng(n))
    rng = make_rng(n)
    state = np.tile(np.arange(1, n + 1, dtype=np.int64), (trials, 1))
    u = 1.0 / factorial(n)
    want = []
    for h in range(steps + 1):
        if h:
            state = np.take_along_axis(step_batch(n, sampler, trials, rng), state - 1, axis=1)
        _, counts = count_rows(state)
        l1 = float(np.abs(counts / trials - u).sum()) + (factorial(n) - len(counts)) * u
        want.append(l1 / 2.0)
    assert curve == want
