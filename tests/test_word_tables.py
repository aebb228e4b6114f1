"""Purely atomic rows dealt from cell-word tables, histograms counted by
their index in S_n, and the byte bounds of the ordering caches."""

from fractions import Fraction as F
from functools import cmp_to_key
from itertools import product

import numpy as np
import pytest

from quasishuffle.kernels import (
    ConjugateCoupling,
    InverseConjugateCoupling,
    MixtureCoupling,
    empirical_step_counts,
    step_batch,
)
from quasishuffle.measure import (
    _LOOKUP_BLOCK,
    LEFT,
    RIGHT,
    ConjugateBatch,
    ConjugateSample,
    GapInterval,
    MeasureMixture,
    QuasiUniformMeasure,
    _batch_tables,
    a_shuffle,
    gsr,
    mixed_fixture,
)
from quasishuffle.ordering import (
    _TABLE_CACHE,
    _WORD_LIMIT,
    _key_table,
    _ordering_keys,
    _rank_keys,
    _word_tables,
    compare,
    ordering_counts,
    sample_ordering_batch,
)
from quasishuffle.permutations import (
    _INDEX_WIDTH,
    _lex_index,
    _lex_rows,
    all_permutations,
    row_histogram,
)

from conftest import make_rng
from test_batch_reference import double_argsort_ordering, identical
from test_permutations import GRID

ATOMIC = {
    "gsr": gsr(),
    "gsr-conjugate": gsr().conjugate(),
    "a-shuffle-3": a_shuffle(3),
    "atom-mixture": MeasureMixture(((F(1, 4), gsr()), (F(3, 4), a_shuffle(3)))),
}


def compared_ranking(tables, cells):
    """The ranking `compare` gives labels 0..n-1 drawn in the atom cells."""
    pairs = [
        ConjugateSample(float(tables.cells[c].x), float(tables.cells[c].y)) for c in cells
    ]
    order = sorted(
        range(len(cells)),
        key=cmp_to_key(lambda i, j: -1 if compare(pairs[i], pairs[j], i, j) else 1),
    )
    ranks = [0] * len(cells)
    for rank, i in enumerate(order):
        ranks[i] = rank + 1
    return ranks


@pytest.mark.parametrize("name", sorted(ATOMIC))
@pytest.mark.parametrize("n", range(1, 14))
def test_word_rows_are_the_rank_keys_of_their_words(name, n):
    """Every row of a word table, its inverse and its index are those of
    `_rank_keys` on the keys of that word, the words listed by
    `itertools.product`; sources beyond `_WORD_LIMIT` words have no table.
    A sample of a measure's words is ranked by `compare` too."""
    source = ATOMIC[name]
    tables = _batch_tables(source)
    words = _word_tables(tables, n)
    if len(tables.cells) ** n > _WORD_LIMIT:
        assert words is None
        return
    assert words.ranks.dtype == words.inverse.dtype == np.int8
    cells = np.array(list(product(range(len(tables.cells)), repeat=n)))
    keys = _ordering_keys(ConjugateBatch(np.zeros(cells.shape), cells, tables))
    ranks = _rank_keys(keys)
    assert np.array_equal(words.ranks, ranks)
    assert np.array_equal(words.inverse, _rank_keys(keys, inverse=True))
    assert np.array_equal(cells @ words.weights, np.arange(len(cells)))
    if n <= _INDEX_WIDTH:
        at = {p: i for i, p in enumerate(all_permutations(n))}
        assert words.index.tolist() == [at[p] for p in map(tuple, ranks.tolist())]
    else:
        assert words.index is None
    if not isinstance(source, MeasureMixture):
        # a mixture's words that mix components are never dealt
        for code in make_rng(n).choice(len(cells), min(len(cells), 40), replace=False):
            assert ranks[code].tolist() == compared_ranking(tables, cells[code].tolist())


@pytest.mark.parametrize("n", range(1, 9))
def test_lex_index_is_the_lexicographic_position(n):
    perms = np.array(all_permutations(n))
    assert _lex_index(perms).tolist() == list(range(len(perms)))
    assert identical(_lex_rows(np.arange(len(perms)), n), perms)


HISTOGRAM_SOURCES = {**ATOMIC, "mixed": mixed_fixture()}
PAIR_SAMPLERS = {
    "grid": GRID,
    "mixture": MixtureCoupling(
        [(F(1, 3), ConjugateCoupling(gsr())), (F(2, 3), InverseConjugateCoupling(mixed_fixture()))]
    ),
}


def same_items(got, want):
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("name", sorted(HISTOGRAM_SOURCES))
@pytest.mark.parametrize("n", range(1, _INDEX_WIDTH + 1))
def test_index_histograms_equal_row_histograms(name, n):
    """Forward and inverse histograms by S_n index equal `row_histogram` of
    the rows dealt from the same draws, item for item and in order; more
    than one row block, so the bins add up across blocks."""
    source = HISTOGRAM_SOURCES[name]
    size = 3 * (_LOOKUP_BLOCK // n) + 5
    labels = range(1, n + 1)
    same_items(
        ordering_counts(source, labels, size, make_rng(n)),
        row_histogram([sample_ordering_batch(source, labels, size, make_rng(n))]),
    )
    if isinstance(source, MeasureMixture):
        return
    for sampler in (ConjugateCoupling(source), InverseConjugateCoupling(source)):
        same_items(
            empirical_step_counts(n, sampler, size, make_rng(n)),
            row_histogram([step_batch(n, sampler, size, make_rng(n))]),
        )


@pytest.mark.parametrize("name", sorted(PAIR_SAMPLERS))
@pytest.mark.parametrize("n", range(1, _INDEX_WIDTH + 1))
def test_pair_route_index_histograms_equal_row_histograms(name, n):
    sampler = PAIR_SAMPLERS[name]
    size = 2 * (_LOOKUP_BLOCK // n) + 3
    same_items(
        empirical_step_counts(n, sampler, size, make_rng(n)),
        row_histogram([step_batch(n, sampler, size, make_rng(n))]),
    )


def spaced_gaps(k, side_of):
    """k gaps of width 1/(2k), each followed by a diffuse segment as wide."""
    return QuasiUniformMeasure(
        tuple(GapInterval(F(2 * i, 2 * k), F(2 * i + 1, 2 * k), side_of(i)) for i in range(k))
    )


def test_keys_of_many_cells_are_laid_out_per_cell():
    """Past one block of (cell, column) entries the key table is per cell,
    and the label is added per draw; the rows stay the reference's."""
    measure = spaced_gaps(200, lambda i: LEFT if i % 3 else RIGHT)
    assert len(measure.gaps) * 2 * 52 > _LOOKUP_BLOCK
    *_, flat = _key_table(_batch_tables(measure), 52)
    assert not flat
    got = sample_ordering_batch(measure, range(1, 53), 300, make_rng(7))
    assert identical(got, double_argsort_ordering(measure, 52, 300, make_rng(7)))


def test_caches_hold_at_most_4_mib():
    """Each cache filled to its limit with its largest tables: words of
    `_WORD_LIMIT` codes of 13 labels, and flat key tables of one block of
    entries with a diffuse cell, so int64."""
    held = []
    try:
        for cache in (_word_tables, _key_table):
            cache.cache_clear()
        for i in range(_TABLE_CACHE + 2):
            # two cells each: 2^13 words of 13 labels
            two = QuasiUniformMeasure(
                (GapInterval(0, F(1, i + 3), RIGHT), GapInterval(F(1, i + 3), 1, LEFT))
            )
            words = _word_tables(_batch_tables(two), 13)
            assert len(words.ranks) == _WORD_LIMIT
            held.append(words.weights.nbytes + words.ranks.nbytes + words.inverse.nbytes)
        assert _word_tables.cache_info().currsize == _TABLE_CACHE
        assert sum(held[-_TABLE_CACHE:]) <= 4 * 2**20
        held = []
        for i in range(_TABLE_CACHE + 2):
            # 128 gaps and 128 diffuse segments, at 64 labels: 2^14 keys
            measure = spaced_gaps(128, lambda j: LEFT if (i >> j % 5) & 1 else RIGHT)
            table, scale, _, flat = _key_table(_batch_tables(measure), 64)
            assert flat and table.size == _LOOKUP_BLOCK and table.dtype == np.int64
            held.append(table.nbytes + scale.nbytes)
        assert _key_table.cache_info().currsize == _TABLE_CACHE
        assert sum(held[-_TABLE_CACHE:]) <= 4 * 2**20
    finally:
        for cache in (_word_tables, _key_table):
            cache.cache_clear()

