"""Purely atomic rows dealt from cell-word tables, one uniform per row
through a guide over the exact word law, histograms counted by their index
in S_n, and the byte bounds of the ordering caches."""

from fractions import Fraction as F
from functools import cmp_to_key
from itertools import product
from unittest import mock

import numpy as np
import pytest

from quasishuffle import ordering
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
    _Guide,
    a_shuffle,
    gsr,
    lebesgue,
    mixed_fixture,
)
from quasishuffle.oracle import exact_ordering_distribution, exact_step_distribution
from quasishuffle.ordering import (
    _TABLE_CACHE,
    _WORD_CACHE,
    _WORD_LIMIT,
    _built_words,
    _key_table,
    _ordering_keys,
    _rank_keys,
    _word_edges,
    compare,
    ordering_counts,
    sample_ordering_batch,
)
from quasishuffle.permutations import _INDEX_WIDTH, _lex_index, _lex_rows, all_permutations
from quasishuffle.stats import chi_square_goodness

from conftest import make_rng
from test_batch_reference import (
    double_argsort_ordering,
    eager_ordering,
    exact_word_edges,
    identical,
    one_step,
    row_counts,
    word_route,
)
from test_permutations import GRID

ATOMIC = {
    "gsr": gsr(),
    "gsr-conjugate": gsr().conjugate(),
    "a-shuffle-3": a_shuffle(3),
    "atom-mixture": MeasureMixture(((F(1, 4), gsr()), (F(3, 4), a_shuffle(3)))),
}


def dealt_words(source, n):
    """The word table that `ordering._deal` deals rows of n labels of a
    source from, or None: `_built_words`, the word-table builder, is
    watched while `_deal` deals one row."""
    built = []

    def watched(*args):
        built.append(_built_words(*args))
        return built[-1]

    with mock.patch.object(ordering, "_built_words", watched):
        for _ in ordering._deal(source, n, 1, make_rng(0)):
            pass
    return built[0] if built else None


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
    words = dealt_words(source, n)
    if len(tables.cells) ** n > _WORD_LIMIT:
        assert words is None
        return
    assert words.ranks.dtype == words.inverse.dtype == np.int8
    cells = np.array(list(product(range(len(tables.cells)), repeat=n)))
    keys = _ordering_keys(ConjugateBatch(np.zeros(cells.shape), cells, tables))
    ranks = _rank_keys(keys)
    assert np.array_equal(words.ranks, ranks)
    assert np.array_equal(words.inverse, _rank_keys(keys, inverse=True))
    assert np.array_equal(_lex_rows(words.index, n), words.ranks)
    if not isinstance(source, MeasureMixture):
        # a mixture's words that mix components are never dealt
        for code in make_rng(n).choice(len(cells), min(len(cells), 40), replace=False):
            assert ranks[code].tolist() == compared_ranking(tables, cells[code].tolist())


# unequal masses on a non-dyadic grid, so the edges are true ceilings: a
# left atom of 4/9, whose word guides take one step up to 8 labels, and one
# of 1/3, whose guides take more from 4 labels on; and denominators of
# about 10^7 per label, so the exact sums pass 2^63
EDGE_SOURCES = {
    **ATOMIC,
    "left-atom": QuasiUniformMeasure((GapInterval(0, F(1, 3), LEFT), GapInterval(F(1, 3), 1, RIGHT))),
    "near-half-left-atom": QuasiUniformMeasure(
        (GapInterval(0, F(4, 9), LEFT), GapInterval(F(4, 9), 1, RIGHT))
    ),
    "wide-denominator": QuasiUniformMeasure(
        (
            GapInterval(0, F(1, 10**6 + 3), RIGHT),
            GapInterval(F(1, 10**6 + 3), F(7, 10), LEFT),
            GapInterval(F(7, 10), 1, LEFT),
        )
    ),
}


def word_pairs(sources, sizes):
    """(name, n) of each source with at most `_WORD_LIMIT` words of n labels."""
    return [
        (name, n)
        for name in sorted(sources)
        for n in sizes
        if len(_batch_tables(sources[name]).cells) ** n <= _WORD_LIMIT
    ]


@pytest.mark.parametrize(("name", "n"), word_pairs(EDGE_SOURCES, range(1, 9)))
def test_word_guide_edges_are_the_exact_ceilings(name, n):
    """The word edges are ceil(F_w * 2^53) of the exact word law, F_w
    summed in Fractions over `itertools.product`; in a guide over the
    integer edges E_w, u = E_w * 2^-53 finds word w, and one grid step below it the
    word of positive mass before w, which is w - 1 in a measure.  Where a
    word of positive mass owns no grid point there is no word table, nor
    where the guide takes more than one step, and else the table holds
    that guide."""
    source = EDGE_SOURCES[name]
    tables = _batch_tables(source)
    want = exact_word_edges(source, n)
    if want is None:
        assert _word_edges(tables, n) is None and dealt_words(source, n) is None
        return
    edges = want[0]
    assert _word_edges(tables, n).tolist() == edges
    guide = _Guide.build([edges])
    words = dealt_words(source, n)
    assert (words is not None) == one_step(edges) == (guide.steps <= 1)
    if words is not None:
        assert np.array_equal(words.guide.hi, guide.hi)
        assert np.array_equal(words.guide.guide, guide.guide)
    # one piece per distinct lower edge, each ending at the next one
    lower = sorted(set(edges[:-1]))
    assert guide.hi.tolist() == [e * 2.0**-53 for e in lower[1:]] + [np.inf]
    positive = [w for w in range(len(edges) - 1) if edges[w + 1] > edges[w]]
    at = np.array(edges)[positive]
    assert guide.lookup(at * 2.0**-53).tolist() == positive
    assert guide.lookup((at[1:] - 1) * 2.0**-53).tolist() == positive[:-1]
    if not isinstance(source, MeasureMixture):
        assert positive == list(range(len(edges) - 1))


def test_the_wide_denominator_measure_meets_the_gate_at_four_labels():
    # its words own grid points at 2 labels and not from 4 on, so the
    # edge test above covers both sides of the gate
    wide = EDGE_SOURCES["wide-denominator"]
    assert exact_word_edges(wide, 2) is not None
    assert exact_word_edges(wide, 4) is None


@pytest.mark.parametrize(("name", "n"), word_pairs(EDGE_SOURCES, (4, 5, 6)))
def test_word_draws_keep_the_exact_law(name, n):
    """Dealt rows, `ordering_counts` and type-two steps against the exact
    law, by chi-square at alpha = 0.01, on fixed seeds."""
    source, size, labels = EDGE_SOURCES[name], 40_000, range(1, n + 1)
    if dealt_words(source, n) is None:
        assert word_route(source, n) is None
        return
    law = exact_ordering_distribution(source, n).probs
    rows = sample_ordering_batch(source, labels, size, make_rng(10 + n))
    assert chi_square_goodness(row_counts(rows), law, alpha=0.01).passed
    counts = ordering_counts(source, labels, size, make_rng(20 + n))
    assert chi_square_goodness(counts, law, alpha=0.01).passed
    if isinstance(source, MeasureMixture):
        return
    steps = step_batch(n, InverseConjugateCoupling(source), size, make_rng(30 + n))
    two = exact_step_distribution(source, n, "two").probs
    assert chi_square_goodness(row_counts(steps), two, alpha=0.01).passed


@pytest.mark.parametrize("n", (12, 13))
def test_a_skewed_word_law_takes_the_key_route(n):
    """Masses 17/18 then 1/18.  At 13 labels the last word has mass 18^-13,
    below 2^-53, at the top of the law, where ceil(F_w * 2^53) = 2^53 =
    E_{w+1}: it owns no grid point.  At 12 every word owns one, but the
    guide over the edges takes 511 steps.  Either way the source has no
    word table, and its rows are the per-card key route's."""
    source = QuasiUniformMeasure(
        (GapInterval(0, F(17, 18), RIGHT), GapInterval(F(17, 18), 1, LEFT))
    )
    tables = _batch_tables(source)
    edges = _word_edges(tables, n)
    if n == 13:
        assert edges is None and exact_word_edges(source, n) is None
    else:
        assert _Guide.build([edges]).steps == 511
        assert not one_step(exact_word_edges(source, n)[0])
    assert dealt_words(source, n) is None
    got = sample_ordering_batch(source, range(1, n + 1), 2000, make_rng(4))
    assert identical(got, eager_ordering(source, n, 2000, make_rng(4)))


@pytest.mark.parametrize("name", ("lebesgue", "mixed", "mixture"))
def test_a_diffuse_cell_takes_no_word_table(name):
    """Lebesgue measure's one cell counts as two, so up to 13 labels it is
    within `_WORD_LIMIT` words: its diffuse cell alone keeps it from a
    word table, as it keeps every source with one."""
    source = {
        "lebesgue": lebesgue(),
        "mixed": mixed_fixture(),
        "mixture": MeasureMixture(((F(1, 3), a_shuffle(3)), (F(2, 3), lebesgue()))),
    }[name]
    for n in (1, 4, 8, 9, 13):
        assert dealt_words(source, n) is None, n


def test_each_word_row_takes_one_uniform():
    size = 3 * (_LOOKUP_BLOCK // 8) + 5
    rng, advanced = make_rng(3), make_rng(3)
    sample_ordering_batch(gsr(), range(1, 9), size, rng)
    advanced.random(size)
    assert rng.bit_generator.state == advanced.bit_generator.state


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
@pytest.mark.parametrize("n", [*range(1, _INDEX_WIDTH + 1), 9, 13, 16, 20, 21])
def test_index_histograms_equal_row_histograms(name, n):
    """Forward and inverse histograms by S_n index equal the row-wise
    histogram of the rows dealt from the same draws, item for item and in
    order; more than one row block, so the counts add up across blocks.
    Up to 8 cards they are dense bins, to 20 sorted S_n indices, a type-two
    histogram inverted at the end, and beyond 20 they count rows."""
    source = HISTOGRAM_SOURCES[name]
    size = 3 * (_LOOKUP_BLOCK // n) + 5
    labels = range(1, n + 1)
    same_items(
        ordering_counts(source, labels, size, make_rng(n)),
        row_counts(sample_ordering_batch(source, labels, size, make_rng(n))),
    )
    if isinstance(source, MeasureMixture):
        return
    for sampler in (ConjugateCoupling(source), InverseConjugateCoupling(source)):
        same_items(
            empirical_step_counts(n, sampler, size, make_rng(n)),
            row_counts(step_batch(n, sampler, size, make_rng(n))),
        )


@pytest.mark.parametrize("name", sorted(PAIR_SAMPLERS))
@pytest.mark.parametrize("n", range(1, _INDEX_WIDTH + 1))
def test_pair_route_index_histograms_equal_row_histograms(name, n):
    sampler = PAIR_SAMPLERS[name]
    size = 2 * (_LOOKUP_BLOCK // n) + 3
    same_items(
        empirical_step_counts(n, sampler, size, make_rng(n)),
        row_counts(step_batch(n, sampler, size, make_rng(n))),
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
    `_WORD_LIMIT` codes of 13 labels, each of positive mass, so the guide
    has one float64 edge and two intp buckets per word, and of masses
    near 1/2, so the guide takes one step and the table is built; and flat
    key tables
    of one block of entries with a diffuse cell, so int64."""
    held = []
    try:
        for cache in (_built_words, _key_table):
            cache.cache_clear()
        for i in range(_WORD_CACHE + 2):
            # two cells each: 2^13 words of 13 labels, the least of mass
            # about 0.47^13 > 2^-53, so every word owns grid points
            p = F(1, 2) - F(1, 40 + i)
            two = QuasiUniformMeasure((GapInterval(0, p, RIGHT), GapInterval(p, 1, LEFT)))
            words = _built_words(_batch_tables(two), 13)
            assert len(words.ranks) == len(words.guide.hi) == _WORD_LIMIT
            guide = words.guide
            parts = (words.ranks, words.inverse, guide.hi, guide.guide, guide.cell, words.index)
            held.append(sum(a.nbytes for a in parts if a is not None))
        assert _built_words.cache_info().currsize == _WORD_CACHE
        assert sum(held[-_WORD_CACHE:]) <= 4 * 2**20
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
        for cache in (_built_words, _key_table):
            cache.cache_clear()

