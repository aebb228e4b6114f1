"""Ordering samplers: comparator, exact laws, windows, exchangeability."""

from fractions import Fraction as F
from functools import cmp_to_key
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from quasishuffle.errors import IncomparableSamples, WindowTooSmall
from quasishuffle.measure import (
    LEFT,
    RIGHT,
    ConjugateSample,
    GapInterval,
    MeasureMixture,
    QuasiUniformMeasure,
    gsr,
    lebesgue,
    mixed_fixture,
    sample_conjugate_batch,
    sample_conjugate_pair,
)
from quasishuffle.ordering import (
    check_labels,
    compare,
    empirical_positions,
    exchangeability_test,
    ordering_counts,
    sample_ordering_batch,
)
from quasishuffle.oracle import exact_ordering_distribution
from quasishuffle.stats import chi_square_goodness, empirical_tv

from conftest import cell_sides, eager_pairs, make_rng, measure_params, measure_strategy
from test_batch_reference import class_route, key_rows, word_cells, word_route

IDENTITY = QuasiUniformMeasure((GapInterval(F(0), F(1), RIGHT),))
REVERSAL = QuasiUniformMeasure((GapInterval(F(0), F(1), LEFT),))


def test_compare_right_atom_keeps_natural_order():
    s = ConjugateSample(F(1, 2), F(0), 0)
    assert compare(s, s, 1, 2)
    assert not compare(s, s, 2, 1)


def test_compare_left_atom_reverses():
    s = ConjugateSample(F(0), F(1), 0)
    assert not compare(s, s, 1, 2)
    assert compare(s, s, 2, 1)


def test_compare_diffuse_by_value():
    a = ConjugateSample(0.2, 0.2)
    b = ConjugateSample(0.7, 0.7)
    assert compare(a, b, 5, 1)
    assert not compare(b, a, 5, 1)


def test_compare_mixed_coordinates():
    # atom (1/2, 0) versus atom (1, 1/2): first coordinate decides
    low = ConjugateSample(F(1, 2), F(0), 0)
    high = ConjugateSample(F(1), F(1, 2), 1)
    assert compare(low, high, 9, 2)
    assert not compare(high, low, 9, 2)


def test_compare_identical_diffuse_raises():
    a = ConjugateSample(0.3, 0.3)
    with pytest.raises(IncomparableSamples):
        compare(a, a, 1, 2)
    with pytest.raises(ValueError):
        compare(a, a, 1, 1)


def test_check_labels():
    assert check_labels([-3, 0, 7]) == (-3, 0, 7)
    with pytest.raises(ValueError):
        check_labels([1, 1, 2])
    with pytest.raises(ValueError):
        check_labels([2, 1])
    with pytest.raises(ValueError):
        check_labels([])


def test_identity_and_reversal_are_deterministic(rng):
    batch = sample_ordering_batch(IDENTITY, [1, 2, 3, 4], 20, rng)
    assert np.all(batch == np.array([1, 2, 3, 4]))
    batch = sample_ordering_batch(REVERSAL, [1, 2, 3, 4], 500, rng)
    assert np.all(batch == np.array([4, 3, 2, 1]))


def _assert_ranks_follow_comparator(measure, labels, rows, seed):
    """With equal seeds, the batch ranks order every pair of labels as
    `compare` orders their conjugate pairs.  A source that deals its rows
    from its class law draws no pair per label, so its key route is
    called directly."""
    ranks = sample_ordering_batch(measure, labels, rows, make_rng(seed))
    if class_route(measure, len(labels)):
        ranks = key_rows(measure, len(labels), rows, make_rng(seed))
    if word_route(measure, len(labels)) is None:
        batch = sample_conjugate_batch(measure, (rows, len(labels)), make_rng(seed))
    else:
        # one uniform per row draws the row's cell word
        cell = word_cells(measure, len(labels), rows, make_rng(seed))
        batch = SimpleNamespace(cell=cell, u=np.zeros(cell.shape))
    xs, ys = eager_pairs(measure, batch)
    for r in range(rows):
        samples = [ConjugateSample(x, y) for x, y in zip(xs[r], ys[r])]
        for i in range(len(labels)):
            for j in range(len(labels)):
                if i != j:
                    below = compare(samples[i], samples[j], labels[i], labels[j])
                    assert below == (ranks[r, i] < ranks[r, j])


def test_ranking_agrees_with_pairwise_comparator():
    for seed, measure in enumerate((gsr(), mixed_fixture(), lebesgue(), REVERSAL)):
        _assert_ranks_follow_comparator(measure, [1, 2, 3, 4, 5], 40, seed)


@given(measure_strategy())
@settings(max_examples=25, deadline=None)
def test_ranking_agrees_with_comparator_random_measure(measure):
    _assert_ranks_follow_comparator(measure, [-3, 0, 2, 9], 1, 99)


def test_batch_law_matches_oracle_gsr(rng):
    exact = exact_ordering_distribution(gsr(), 3)
    counts = ordering_counts(gsr(), [1, 2, 3], 20000, rng)
    assert set(counts) <= set(exact.support())
    assert float(empirical_tv(counts, exact)) < 0.02
    expected = {p: exact.prob(p) for p in exact.support()}
    assert chi_square_goodness(counts, expected, alpha=0.001).passed


def test_batch_law_uniform_lebesgue(rng):
    counts = ordering_counts(lebesgue(), [1, 2, 3], 30000, rng)
    exact = exact_ordering_distribution(lebesgue(), 3)
    expected = {p: exact.prob(p) for p in exact.support()}
    assert len(expected) == 6
    assert chi_square_goodness(counts, expected, alpha=0.001).passed


def _comparator_ranking(measure, labels, rng):
    """One ordering the paper's way: a scalar pair per label, sorted by
    `compare`."""
    samples = [sample_conjugate_pair(measure, rng) for _ in labels]
    below = cmp_to_key(
        lambda i, j: -1 if compare(samples[i], samples[j], labels[i], labels[j]) else 1
    )
    ranking = [0] * len(labels)
    for rank, i in enumerate(sorted(range(len(labels)), key=below), start=1):
        ranking[i] = rank
    return tuple(ranking)


@measure_params()
def test_batch_and_scalar_same_law(measure):
    """The batch sampler and a comparator sort of scalar pairs draw from the
    same distribution."""
    rng = make_rng(5)
    exact = exact_ordering_distribution(measure, 3)
    scalar = {}
    for _ in range(3000):
        p = _comparator_ranking(measure, [1, 2, 3], rng)
        scalar[p] = scalar.get(p, 0) + 1
    batch = ordering_counts(measure, [1, 2, 3], 3000, rng)
    assert float(empirical_tv(scalar, exact)) < 0.04
    assert float(empirical_tv(batch, exact)) < 0.04


def test_relabelling_invariance(rng):
    """Only the relative order of labels matters, not their values."""
    exact = exact_ordering_distribution(gsr(), 3)
    counts = ordering_counts(gsr(), [-10, 4, 1000], 20000, rng)
    assert float(empirical_tv(counts, exact)) < 0.02


def test_mixture_components_stay_whole(rng):
    mix = MeasureMixture(((F(1, 2), IDENTITY), (F(1, 2), REVERSAL)))
    batch = sample_ordering_batch(mix, [1, 2, 3, 4], 4000, rng)
    ident = np.all(batch == [1, 2, 3, 4], axis=1)
    rever = np.all(batch == [4, 3, 2, 1], axis=1)
    assert np.all(ident | rever)
    assert abs(ident.mean() - 0.5) < 0.05


def test_mixture_law_is_weighted_average(rng):
    mix = MeasureMixture(((F(3, 4), gsr()), (F(1, 4), lebesgue())))
    exact = exact_ordering_distribution(mix, 3)
    assert exact.prob((3, 2, 1)) == F(1, 4) * F(1, 6)
    counts = ordering_counts(mix, [1, 2, 3], 30000, rng)
    assert float(empirical_tv(counts, exact)) < 0.02


def test_empirical_positions_window_too_small(rng):
    with pytest.raises(WindowTooSmall):
        empirical_positions(gsr(), 12, 5, rng)
    empirical_positions(gsr(), 5, 5, rng)


def test_empirical_positions_gsr(rng):
    targets = {(F(1, 2), F(0)), (F(1), F(1, 2))}
    for _ in range(6):
        est = empirical_positions(gsr(), 0, 2000, rng)
        key = (est.target.x, est.target.y)
        assert key in targets
        assert abs(est.x_hat - float(est.target.x)) < 0.06
        assert abs(est.y_hat - float(est.target.y)) < 0.06


def test_empirical_positions_lebesgue(rng):
    est = empirical_positions(lebesgue(), 3, 2000, rng)
    u = float(est.target.x)
    assert est.target.is_diffuse
    assert abs(est.x_hat - u) < 0.06
    assert abs(est.y_hat - u) < 0.06


def test_empirical_positions_offcenter_target(rng):
    est = empirical_positions(mixed_fixture(), -7, 1500, rng)
    assert est.label == -7 and est.window == 1500
    assert abs(est.x_hat - float(est.target.x)) < 0.07
    assert abs(est.y_hat - float(est.target.y)) < 0.07


def test_empirical_positions_mixture(rng):
    """One component drives the whole window: the target's pair is a gsr
    atom pair or a diffuse Lebesgue draw, and the window recovers it."""
    mix = MeasureMixture(((F(1, 2), gsr()), (F(1, 2), lebesgue())))
    gsr_pairs = {(F(1, 2), F(0)), (F(1), F(1, 2))}
    kinds = set()
    for _ in range(12):
        est = empirical_positions(mix, 0, 2000, rng)
        if est.target.is_diffuse:
            assert est.target.x == est.target.y
        else:
            assert (est.target.x, est.target.y) in gsr_pairs
        kinds.add(est.target.is_diffuse)
        assert abs(est.x_hat - float(est.target.x)) < 0.06
        assert abs(est.y_hat - float(est.target.y)) < 0.06
    assert kinds == {True, False}


def test_ordering_counts_reject_a_negative_size(rng):
    # the same error as sample_ordering_batch
    with pytest.raises(ValueError, match="^size = -5 is negative$"):
        ordering_counts(gsr(), [1, 2, 3], -5, rng)
    assert ordering_counts(gsr(), [1, 2, 3], 0, rng) == {}


def test_exchangeability_gsr(rng):
    report = exchangeability_test(gsr(), [1, 2, 3], [5, 40, 1000], 20000, rng)
    assert report.passed
    assert report.alpha == 0.001


def _pairwise_below(measure, batch, n):
    """below[i, j] says card i sits under card j, from batch arrays: by
    cell, then inside a diffuse cell by u, which orders its draws exactly."""
    ci = batch.cell[:, None]
    cj = batch.cell[None, :]
    same = ci == cj
    lt = ci < cj
    sign = cell_sides(measure, ci)
    u_i = batch.u[:, None]
    u_j = batch.u[None, :]
    nat = np.arange(n)
    nat_lt = nat[:, None] < nat[None, :]
    within = np.where(
        sign == 0, u_i < u_j, np.where(sign > 0, nat_lt, nat_lt.T)
    )
    return lt | (same & within)


@pytest.mark.parametrize("name", ["gsr", "mixed"])
def test_window_frequencies_satisfy_sandwich(name):
    """Windowed rank frequencies sandwich their own empirical distribution.

    For each target k, the fraction of the next N labels sitting below k
    concentrates near the target's y value; the empirical cdf of those
    fractions evaluated at the fraction itself must bracket it, up to a
    relaxation covering sampling noise at finite N.
    """
    measure = {"gsr": gsr(), "mixed": mixed_fixture()}[name]
    rng = make_rng(31)
    big = 1200
    batch = sample_conjugate_batch(measure, 2 * big, rng)
    below = _pairwise_below(measure, batch, 2 * big)
    pref = np.cumsum(below, axis=0)
    yhat = np.array(
        [(pref[k + big, k] - pref[k, k]) / big for k in range(big)]
    )
    eps = 5.0 / np.sqrt(big)
    ordered = np.sort(yhat)
    upper = np.searchsorted(ordered, yhat + eps, side="right") / big + eps
    lower = np.searchsorted(ordered, yhat - eps, side="left") / big - eps
    assert np.all(yhat <= upper)
    assert np.all(lower <= yhat)


def test_sample_ordering_batch_shape(rng):
    batch = sample_ordering_batch(gsr(), [1, 2, 3, 4], 7, rng)
    assert batch.shape == (7, 4)
    assert np.all(np.sort(batch, axis=1) == np.arange(1, 5))
