"""The rank kernel, the shared row counter and the histograms built on it."""

import tracemalloc
from collections import Counter
from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest

from quasishuffle.kernels import (
    ConjugateCoupling,
    GridCopulaCoupling,
    InverseConjugateCoupling,
    empirical_mixing_curve,
    empirical_step_counts,
    step_batch,
)
from quasishuffle.measure import _LOOKUP_BLOCK, MeasureMixture, gsr, mixed_fixture
from quasishuffle.ordering import ordering_counts, sample_ordering_batch
from quasishuffle.permutations import (
    _COUNT_INVERSE_WIDTH,
    _COUNT_WIDTH,
    _row_ranks,
    count_rows,
    row_histogram,
)

from conftest import make_rng


def _random_perm_rows(rng, size, n, distinct):
    """`size` rows drawn from `distinct` random permutations of 1..n."""
    pool = np.argsort(rng.random((distinct, n)), axis=1) + 1
    return pool[rng.integers(0, distinct, size)]


# -- the rank kernel ------------------------------------------------------


def _stable_ranks(keys):
    """1-based stable-argsort ranks and row inverses of 2-D keys."""
    order = np.argsort(keys, axis=1, kind="stable")
    return np.argsort(order, axis=1, kind="stable") + 1, order + 1


def _checked(got):
    assert got.dtype == np.int64 and got.flags.c_contiguous
    return got


@pytest.mark.parametrize("n", range(1, _COUNT_WIDTH + 2))
def test_row_ranks_equal_stable_argsort_with_ties(n):
    """Every width on both sides of `_COUNT_WIDTH`: keys drawn from three
    values tie in most rows, and ties must keep column order."""
    rng = make_rng(n)
    for keys in (np.floor(rng.random((700, n)) * 3) / 4, rng.random((700, n))):
        ranks, inverse = _stable_ranks(keys)
        assert np.array_equal(_checked(_row_ranks(keys)), ranks)
        assert np.array_equal(_checked(_row_ranks(keys, inverse=True)), inverse)
        # a view of another layout ranks alike
        assert np.array_equal(_row_ranks(np.asfortranarray(keys)), ranks)


# both sides of both widths, and a deck
EDGES = sorted(
    {1, _COUNT_INVERSE_WIDTH, _COUNT_INVERSE_WIDTH + 1, _COUNT_WIDTH, _COUNT_WIDTH + 1, 52}
)


@pytest.mark.parametrize("n", EDGES)
def test_row_ranks_of_distinct_keys_on_every_path(n):
    """Distinct keys may take numpy's default sort: ranks and inverses on
    both sides of both widths, written into a given output."""
    keys = make_rng(n).random((500, n))
    ranks, inverse = _stable_ranks(keys)
    for want, inv in ((ranks, False), (inverse, True)):
        out = np.zeros((500, n), dtype=np.int64)
        got = _row_ranks(keys, out, inverse=inv, distinct=True)
        assert got is out and np.array_equal(out, want)


@pytest.mark.parametrize("n", EDGES)
def test_row_ranks_with_a_distinct_flag_per_row(n):
    """Rows flagged distinct may take the default sort while tied rows in
    the same block keep the stable order."""
    rng = make_rng(n + 1)
    keys = rng.random((500, n))
    tied = rng.random(500) < 0.5
    keys[tied] = np.floor(keys[tied] * 3)
    ranks, inverse = _stable_ranks(keys)
    for distinct in (~tied, np.zeros(500, bool), False):
        for want, inv in ((ranks, False), (inverse, True)):
            assert np.array_equal(_row_ranks(keys, None, inv, distinct), want)


def test_row_ranks_refuse_an_output_without_a_flat_view():
    keys = make_rng(3).random((10, 4))
    for out in (np.zeros((4, 10), dtype=np.int64).T, np.zeros((10, 4), dtype=np.int32)):
        with pytest.raises(ValueError, match="C-contiguous int64"):
            _row_ranks(keys, out)


@pytest.mark.parametrize("n", [1, 4, 9, 15, 16, 20])
def test_count_rows_matches_rowwise_unique(n):
    rows = _random_perm_rows(make_rng(n), 3000, n, 50)
    keys, counts = count_rows([rows])
    want_keys, want_counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(counts, want_counts)


def test_count_rows_general_integers():
    rng = make_rng()
    for rows in (rng.integers(-3, 4, (2000, 5)), rng.integers(0, 3, (2000, 6)).astype(np.uint8)):
        keys, counts = count_rows([rows])
        want_keys, want_counts = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts)


def test_count_rows_empty():
    keys, counts = count_rows([np.zeros((0, 5), dtype=np.int64)])
    assert keys.shape == (0, 5) and counts.shape == (0,)


def _check_histogram(counts, rows, n):
    assert all(sorted(key) == list(range(1, n + 1)) for key in counts)
    assert sum(counts.values()) == len(rows)
    assert counts == Counter(tuple(int(v) for v in row) for row in rows)


@pytest.mark.parametrize("n", [15, 16, 20])
def test_ordering_counts_wide_rows(n):
    labels = tuple(range(1, n + 1))
    counts = ordering_counts(gsr(), labels, 2000, make_rng(n))
    _check_histogram(counts, sample_ordering_batch(gsr(), labels, 2000, make_rng(n)), n)


@pytest.mark.parametrize("n", [15, 16, 20])
def test_empirical_step_counts_wide_rows(n):
    sampler = ConjugateCoupling(gsr())
    counts = empirical_step_counts(n, sampler, 2000, make_rng(n))
    _check_histogram(counts, step_batch(n, sampler, 2000, make_rng(n)), n)


MIXTURE = MeasureMixture(((F(1, 3), gsr()), (F(2, 3), mixed_fixture())))
ORDERING_SOURCES = {"gsr": gsr(), "mixture": MIXTURE}
GRID = GridCopulaCoupling([[F(1, 3), 0, 0], [0, F(1, 6), F(1, 6)], [0, F(1, 6), F(1, 6)]])
STEP_SAMPLERS = {
    "one-gsr": ConjugateCoupling(gsr()),
    "two-mixed": InverseConjugateCoupling(mixed_fixture()),
    "grid": GRID,
}
COUNTED_WIDTHS = [4, 8, 16, 20]


def _blocks_and_a_part(n):
    """Three whole row blocks of n-card rows and a partial fourth."""
    return 3 * (_LOOKUP_BLOCK // n) + 5


@pytest.mark.parametrize("n", COUNTED_WIDTHS)
@pytest.mark.parametrize("name", sorted(ORDERING_SOURCES))
def test_ordering_counts_are_the_histogram_of_the_sampled_rows(name, n):
    # the counter histograms the blocks sample_ordering_batch deals, so at
    # one seed its counts are those of the sampled rows
    source, labels, size = ORDERING_SOURCES[name], tuple(range(1, n + 1)), _blocks_and_a_part(n)
    counts = ordering_counts(source, labels, size, make_rng(n))
    _check_histogram(counts, sample_ordering_batch(source, labels, size, make_rng(n)), n)


@pytest.mark.parametrize("n", COUNTED_WIDTHS)
@pytest.mark.parametrize("name", sorted(STEP_SAMPLERS))
def test_step_counts_are_the_histogram_of_the_dealt_steps(name, n):
    sampler, size = STEP_SAMPLERS[name], _blocks_and_a_part(n)
    counts = empirical_step_counts(n, sampler, size, make_rng(n + 1))
    _check_histogram(counts, step_batch(n, sampler, size, make_rng(n + 1)), n)


def test_step_counts_need_a_card():
    with pytest.raises(ValueError, match="^need at least one card$"):
        empirical_step_counts(0, ConjugateCoupling(gsr()), 5, make_rng(1))


def test_count_rows_merges_batches_of_different_maxima():
    # codes of batches with different maxima are in different bases; a batch
    # with a negative entry, or one too wide for an int64 code, is counted
    # as rows, and every fold must still merge equal rows.  The first
    # batches hold enough distinct rows to fold before the last batch.
    rng = make_rng(5)
    batches = [rng.integers(0, high, (6000, 6)) for high in (2, 7, 3, 40, 2, 30, 5, 40)]
    batches += [np.zeros((0, 6), dtype=np.int64), rng.integers(-2, 3, (300, 6))]
    batches += [rng.integers(0, 2, (400, 6)) for _ in range(20)]
    batches.append(np.full((2, 6), 2**62))
    batches += [rng.integers(0, 3, (50, 6)) for _ in range(5)]
    whole = np.concatenate(batches)
    for parts in (batches, batches[:8], batches[10:30], [whole]):
        keys, counts = count_rows(parts)
        want_keys, want_counts = np.unique(np.concatenate(parts), axis=0, return_counts=True)
        assert np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts)
    assert row_histogram(batches) == Counter(map(tuple, whole.tolist()))


def test_count_rows_takes_batches_of_one_width():
    keys, counts = count_rows([])
    assert keys.shape == (0, 0) and counts.shape == (0,)
    with pytest.raises(ValueError, match="one width"):
        count_rows([np.zeros((2, 3), dtype=np.int64), np.zeros((2, 4), dtype=np.int64)])
    # a bare 2-D array is an iterable of 1-D rows, not of batches
    with pytest.raises(ValueError, match="2-D"):
        count_rows(np.zeros((2, 3), dtype=np.int64))


COUNTERS = {
    "ordering_counts-gsr": lambda size, rng: ordering_counts(gsr(), range(1, 7), size, rng),
    "ordering_counts-mixture": lambda size, rng: ordering_counts(MIXTURE, range(1, 7), size, rng),
    "empirical_step_counts-one-gsr": lambda size, rng: empirical_step_counts(
        6, ConjugateCoupling(gsr()), size, rng
    ),
    "empirical_step_counts-two-mixed": lambda size, rng: empirical_step_counts(
        6, InverseConjugateCoupling(mixed_fixture()), size, rng
    ),
}


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_counters_allocate_no_batch_sized_array(name):
    # 10^6 rows of 6 cards take 48 MB; the counters hold one row block and
    # the distinct rows (at most 6! = 720) at a time
    COUNTERS[name](10, make_rng(1))  # the measure's tables are built and cached
    tracemalloc.start()
    try:
        counts = COUNTERS[name](10**6, make_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**6
    assert peak < 4 * 2**20


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
        _, counts = count_rows([state])
        l1 = float(np.abs(counts / trials - u).sum()) + (factorial(n) - len(counts)) * u
        want.append(l1 / 2.0)
    assert curve == want
