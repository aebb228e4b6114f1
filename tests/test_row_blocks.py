"""The samplers dealt in row blocks against whole-batch references.

`sample_ordering_batch`, `step_batch`, `walk` and `empirical_mixing_curve`
deal their rows in blocks of about `_LOOKUP_BLOCK` draws, straight into one
output.  The blocks draw their uniforms in row order, so the rows must
equal one whole-batch draw byte for byte across block boundaries: over
several blocks ending in a partial one, and with rows wider than one block.
A sampler must allocate little beyond its output.  Pair-drawing couplings
draw their pairs block by block, and mixtures draw their components block
by block; both keep their law.
"""

import tracemalloc
from fractions import Fraction as F
from math import factorial
from unittest import mock

import numpy as np
import pytest

from quasishuffle.kernels import (
    ConjugateCoupling,
    InverseConjugateCoupling,
    MixtureCoupling,
    _rank_pairs,
    empirical_mixing_curve,
    step_batch,
    walk,
)
from quasishuffle.measure import (
    _LOOKUP_BLOCK,
    MeasureMixture,
    QuasiUniformMeasure,
    a_shuffle,
    gsr,
    mixed_fixture,
    parse_measure,
)
from quasishuffle.oracle import exact_ordering_distribution
from quasishuffle.ordering import sample_ordering_batch
from quasishuffle.stats import chi_square_goodness, chi_square_two_sample

from conftest import make_rng
from test_batch_reference import double_argsort_ordering, identical, row_counts, step_reference

SOURCES = {
    "gsr": gsr(),
    "mixed": mixed_fixture(),
    "left-gap": parse_measure("gap(1/4,1/2,left)"),
    "mixture": MeasureMixture(((F(1, 2), gsr()), (F(1, 2), mixed_fixture()))),
}
MEASURES = {name: m for name, m in SOURCES.items() if name != "mixture"}
KINDS = {"one": ConjugateCoupling, "two": InverseConjugateCoupling}
# (n, rows): 8-card rows, which the word and class tables deal, over three
# whole blocks of a word table (one uniform per row) and a partial fourth,
# six and a part of a class table (two per row); three whole blocks of
# 9-card rows and a partial fourth, which every source but a word-table
# one deals by keys; and two rows each wider than one block
SHAPES = [(8, 3 * _LOOKUP_BLOCK + 5), (9, 3 * (_LOOKUP_BLOCK // 9) + 5), (20_000, 2)]
SHAPE_IDS = ["n8-partial-block", "n9-partial-block", "n20000-wide-rows"]


@pytest.mark.parametrize(("n", "size"), SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_ordering_rows_span_blocks(name, n, size):
    got = sample_ordering_batch(SOURCES[name], range(1, n + 1), size, make_rng(n))
    assert identical(got, double_argsort_ordering(SOURCES[name], n, size, make_rng(n)))


@pytest.mark.parametrize(("n", "size"), SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_conjugate_step_rows_span_blocks(name, kind, n, size):
    sampler = KINDS[kind](MEASURES[name])
    got = step_batch(n, sampler, size, make_rng(n + 1))
    assert identical(got, step_reference(n, sampler, size, make_rng(n + 1)))


@pytest.mark.parametrize(("n", "steps"), SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_walk_spans_blocks(kind, n, steps):
    sampler = KINDS[kind](mixed_fixture())
    states = walk(n, sampler, steps, make_rng(n + 2))
    want = np.empty((steps + 1, n), dtype=np.int64)
    want[0] = np.arange(1, n + 1)
    for h, sigma in enumerate(step_reference(n, sampler, steps, make_rng(n + 2))):
        want[h + 1] = sigma[want[h] - 1]
    assert np.array_equal(np.array(states), want)


# the curve needs 1/n! as a float, so its rows stay narrow; gsr at 13 cards
# composes the word table's own int8 rows, mixed at 9 its key rows
CURVES = {
    **{name: (m, SHAPES[0][0]) for name, m in MEASURES.items()},
    "gsr-n13": (gsr(), 13),
    "mixed-n9": (mixed_fixture(), 9),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("name", sorted(CURVES))
def test_mixing_curve_spans_blocks(name, kind):
    (measure, n), steps, trials = CURVES[name], 3, SHAPES[0][1]
    sampler = KINDS[kind](measure)
    curve = empirical_mixing_curve(n, sampler, steps, trials, make_rng(n + 3))
    rng = make_rng(n + 3)
    state = np.tile(np.arange(1, n + 1, dtype=np.int64), (trials, 1))
    u = 1.0 / factorial(n)
    want = []
    for h in range(steps + 1):
        if h:
            sigma = step_reference(n, sampler, trials, rng)
            state = np.take_along_axis(sigma, state - 1, axis=1)
        _, counts = np.unique(state, axis=0, return_counts=True)
        l1 = float(np.abs(counts / trials - u).sum()) + (factorial(n) - len(counts)) * u
        want.append(l1 / 2.0)
    assert curve == want


SAMPLERS = {
    "ordering-gsr": lambda rng: sample_ordering_batch(gsr(), range(1, 9), 100_000, rng),
    "ordering-mixed": lambda rng: sample_ordering_batch(mixed_fixture(), range(1, 9), 100_000, rng),
    "one-gsr": lambda rng: step_batch(8, ConjugateCoupling(gsr()), 100_000, rng),
    "two-mixed": lambda rng: step_batch(8, InverseConjugateCoupling(mixed_fixture()), 100_000, rng),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_peak_allocation_is_the_output_and_one_block(name):
    # 10^5 x 8 rows: a 6.4 MB output, while one block's temporaries take
    # well under 1 MB; whole-batch temporaries would take several times the
    # output
    SAMPLERS[name](make_rng(1))  # the measure's tables are built and cached
    tracemalloc.start()
    try:
        out = SAMPLERS[name](make_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (100_000, 8)
    assert peak < out.nbytes + 2**20


def test_wide_rows_of_many_cells_allocate_no_key_table():
    # two rows of 20,000 cards from 256 cells: a (cells x n) key table would
    # take 41 MB, where one row block's temporaries take well under 2 MB
    sampler = ConjugateCoupling(a_shuffle(256))
    step_batch(8, sampler, 2, make_rng(1))  # the measure's tables are built and cached
    tracemalloc.start()
    try:
        out = step_batch(20_000, sampler, 2, make_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * 2**20


def test_blocked_mixture_steps_keep_the_pair_law():
    # a per-card mixture draws its pairs block by block; its rows must have
    # the law of ranking one whole batch of pairs
    sampler = MixtureCoupling(
        [(F(1, 3), ConjugateCoupling(gsr())), (F(2, 3), InverseConjugateCoupling(mixed_fixture()))]
    )
    n, size = 4, 40_000
    assert size > 5 * (_LOOKUP_BLOCK // n)
    rng = make_rng(83)
    blocked = row_counts(step_batch(n, sampler, size, rng))
    whole = row_counts(_rank_pairs(*sampler.draw_batch((size, n), rng)))
    assert chi_square_two_sample(blocked, whole).passed


def test_blocked_mixture_orderings_keep_the_exact_law():
    # a mixture draws its rows' components one row block at a time; rows
    # spanning many blocks must keep the exact mixture law
    mixture, n, size = SOURCES["mixture"], 4, 40_000
    assert size > 5 * (_LOOKUP_BLOCK // n)
    rows = sample_ordering_batch(mixture, range(1, n + 1), size, make_rng(84))
    exact = exact_ordering_distribution(mixture, n)
    assert chi_square_goodness(row_counts(rows), exact.probs, alpha=0.01).passed


@pytest.mark.parametrize("name", ("measure", "mixture"))
def test_an_equal_source_compares_once_per_call(name):
    """A source equal to a cached one but not the same object is compared
    with it once per call, not once per row block: the samplers deal from
    the object their batch tables were built for, which every later cache
    lookup finds by identity.  Key route, 12 blocks of 16 labels."""
    make = {
        "measure": gsr,
        "mixture": lambda: MeasureMixture(((F(1, 2), gsr()), (F(1, 2), a_shuffle(3)))),
    }[name]
    cached, copy = make(), make()
    assert cached == copy and cached is not copy
    size, labels = 12 * (_LOOKUP_BLOCK // 16), range(1, 17)
    want = sample_ordering_batch(cached, labels, size, make_rng(9))
    compare = QuasiUniformMeasure.__eq__
    with mock.patch.object(QuasiUniformMeasure, "__eq__", autospec=True, side_effect=compare) as eq:
        got = sample_ordering_batch(copy, labels, size, make_rng(9))
    assert identical(got, want)
    assert eq.call_count <= 2
