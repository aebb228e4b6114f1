"""The rank kernel, the one permutation counter and the histograms built on it."""

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
from quasishuffle.ordering import (
    _LABEL_BITS,
    _rank_keys,
    ordering_counts,
    sample_ordering_batch,
)
from quasishuffle.permutations import (
    _CODE_WIDTH,
    _COUNT_WIDTH,
    _FOLD_AT,
    _lex_index,
    _row_ranks,
    count_perms,
    perm_histogram,
    perm_rows,
)

from conftest import make_rng


def _random_perm_rows(rng, size, n, distinct):
    """`size` rows drawn from `distinct` random permutations of 1..n."""
    pool = np.argsort(rng.random((distinct, n)), axis=1) + 1
    return pool[rng.integers(0, distinct, size)]


# -- the rank kernels -----------------------------------------------------


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
        ranks, _ = _stable_ranks(keys)
        assert np.array_equal(_checked(_row_ranks(keys)), ranks)
        # a view of another layout ranks alike
        assert np.array_equal(_row_ranks(np.asfortranarray(keys)), ranks)


def _packed_keys(rng, rows, n, cells):
    """Keys in the layout of `ordering._ordering_keys`, with each row's
    stable ranks and inverse in their exact order.

    Each key's high part is one of `cells` values, so columns share it as
    the draws of one atom cell do; an odd high part is a left atom, whose
    flag is set and whose label is reversed.  The label sits below the flag
    where it fits, and is left out beyond 2^_LABEL_BITS columns.
    """
    high = rng.integers(0, cells, (rows, n)) * 2**40
    left = high >> 40 & 1
    col = np.arange(n)
    label = np.where(left == 1, n - 1 - col, col)
    keys = high << 1 | left
    if n <= 1 << _LABEL_BITS:
        keys = keys << _LABEL_BITS | label
    order = np.lexsort((label, high), axis=1)
    return keys, np.argsort(order, axis=1) + 1, order + 1


# the narrow rows, a deck, and both sides of the widest row whose keys
# hold the label
EDGES = [1, 2, 3, 4, 5, 6, 7, 11, 12, 16, 17, 52, 511, 512, 513]


@pytest.mark.parametrize("n", EDGES)
def test_row_ranks_of_distinct_keys_on_every_path(n):
    """`_rank_keys` ranks packed keys, and inverts them, at every width,
    written into a given output: keys of a few shared cells and keys that
    all differ."""
    rng = make_rng(n)
    for cells in (5, 2**12):
        keys, ranks, inverse = _packed_keys(rng, 300, n, cells)
        for want, inv in ((ranks, False), (inverse, True)):
            out = np.zeros((300, n), dtype=np.int64)
            got = _rank_keys(keys, out, inverse=inv)
            assert got is out and np.array_equal(out, want)
            assert np.array_equal(_checked(_rank_keys(keys, inverse=inv)), want)


@pytest.mark.parametrize("n", EDGES)
def test_rank_keys_of_rows_with_and_without_shared_cells(n):
    """Rows whose keys share high parts, as atom draws do, and rows whose
    keys all differ, as diffuse draws do, rank alike in one block."""
    rng = make_rng(n + 1)
    shared, ranks, inverse = _packed_keys(rng, 300, n, 5)
    spread, ranks_s, inverse_s = _packed_keys(rng, 300, n, 2**12)
    mixed = rng.random(300) < 0.5
    shared[mixed], ranks[mixed], inverse[mixed] = spread[mixed], ranks_s[mixed], inverse_s[mixed]
    assert np.array_equal(_rank_keys(shared), ranks)
    assert np.array_equal(_rank_keys(shared, inverse=True), inverse)


def test_row_ranks_refuse_an_output_without_a_flat_view():
    keys = make_rng(3).integers(0, 2**40, (10, 4))
    for out in (np.zeros((4, 10), dtype=np.int64).T, np.zeros((10, 4), dtype=np.int32)):
        with pytest.raises(ValueError, match="C-contiguous int64"):
            _rank_keys(keys, out)


WIDTHS = [1, 4, 9, 15, 16, 20, 21]


@pytest.mark.parametrize("n", WIDTHS)
def test_count_rows_matches_rowwise_unique(n):
    rows = _random_perm_rows(make_rng(n), 3000, n, 50)
    keys, counts = count_perms([rows], n)
    # S_n indices where they fit int64, the rows themselves beyond
    assert keys.shape == ((len(counts),) if n <= _CODE_WIDTH else (len(counts), n))
    want_keys, want_counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(perm_rows(keys, n), want_keys)
    assert np.array_equal(counts, want_counts)
    assert perm_histogram([rows], n) == Counter(map(tuple, rows.tolist()))


def test_count_rows_empty():
    for n in WIDTHS:
        for blocks in ([], [np.zeros((0, n), dtype=np.int64)]):
            keys, counts = count_perms(blocks, n)
            assert perm_rows(keys, n).shape == (0, n) and counts.shape == (0,)


@pytest.mark.parametrize("n", [9, 21])
def test_count_rows_folds_blocks(n):
    # more distinct permutations than `_FOLD_AT` in many blocks, so the
    # running part is merged with waiting blocks more than once; up to 20
    # cards half the blocks come as S_n indices
    rng = make_rng(n)
    pool = _random_perm_rows(rng, 3 * _FOLD_AT, n, 3 * _FOLD_AT)
    blocks = [pool[rng.integers(0, len(pool), 2000)] for _ in range(40)]
    keys = [_lex_index(b) if i % 2 and n <= _CODE_WIDTH else b for i, b in enumerate(blocks)]
    want_keys, want_counts = np.unique(np.concatenate(blocks), axis=0, return_counts=True)
    got_keys, got_counts = count_perms(keys, n)
    assert np.array_equal(perm_rows(got_keys, n), want_keys)
    assert np.array_equal(got_counts, want_counts)


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


def test_count_rows_takes_batches_of_one_width():
    for n in (3, _CODE_WIDTH, _CODE_WIDTH + 1):
        rows = np.tile(np.arange(1, n + 1), (2, 1))
        with pytest.raises(ValueError, match=f"rows of width {n}"):
            count_perms([rows, rows[:, :-1]], n)
        with pytest.raises(ValueError, match=f"rows of width {n}"):
            count_perms([rows[None]], n)
    # an S_n index of 21 cards would not fit int64
    with pytest.raises(ValueError, match="rows of width 21"):
        count_perms([np.zeros(2, dtype=np.int64)], 21)


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
        _, counts = np.unique(state, axis=0, return_counts=True)
        l1 = float(np.abs(counts / trials - u).sum()) + (factorial(n) - len(counts)) * u
        want.append(l1 / 2.0)
    assert curve == want
