"""The guide-table cell lookup, the gather-only `interpolate` and the key sort.

`sample_conjugate_batch` finds each draw's cell through a guide table and a
few comparisons.  It must give the cell a binary search over the cell
edges gives, at every edge and one ulp either side of it, with the same
dtype; the samplers built on it must stay byte-identical to the eager
references in `test_batch_reference`.  The ordering keys of a batch with
no diffuse draw cannot tie, so it is sorted with the fast unstable sort;
it must still give the stable order.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasishuffle.kernels import (
    ConjugateCoupling,
    InverseConjugateCoupling,
    _rank_pairs,
    step_batch,
)
from quasishuffle.measure import (
    LEFT,
    RIGHT,
    GapInterval,
    QuasiUniformMeasure,
    _batch_tables,
    a_shuffle,
    cell_decomposition,
    lebesgue,
    mixed_fixture,
    parse_measure,
    sample_conjugate_batch,
)
from quasishuffle.ordering import sample_ordering_batch

from conftest import cell_sides, make_rng
from test_batch_reference import (
    double_argsort_ordering,
    double_argsort_step,
    eager_batch,
    identical,
    step_reference,
)

TINY = F(1, 2**40)


def clustered_measure():
    """Six cells whose edges 1/3, 1/3 + 2^-40, ... all fall in one bucket.

    Two touching 2^-40 gaps sit in front of two 1/50 gaps, so random draws
    also land in the cluster.
    """
    third = F(1, 3)
    cuts = (third, third + TINY, third + 2 * TINY, third + F(1, 50), third + F(2, 50))
    sides = (RIGHT, LEFT, RIGHT, LEFT)
    return QuasiUniformMeasure(
        tuple(GapInterval(lo, hi, s) for lo, hi, s in zip(cuts, cuts[1:], sides))
    )


class FixedDraws:
    """Stands in for a generator: `random(shape)` hands out the next
    shape[0] rows of the given u, as a generator hands out its next draws,
    so a sampler that draws in row blocks reads u in order.

    A 1-D u holds one value per row, repeated across the row.
    """

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.row = 0

    def random(self, shape):
        rows = self.u[self.row : self.row + shape[0]]
        self.row += shape[0]
        if rows.ndim == 1:
            rows = rows.reshape(-1, *([1] * (len(shape) - 1)))
        return np.broadcast_to(rows, shape).copy()


def boundary_draws(measure, seed=0):
    """u = 0, every edge below 1, one ulp either side of each, and random u."""
    edges = np.array([float(c.lo) for c in cell_decomposition(measure).cells])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = np.concatenate([[0.0], near, make_rng(seed).random(200)])
    return u[(u >= 0.0) & (u < 1.0)]


@st.composite
def gap_lists(draw):
    """0-7 gaps on a dyadic or non-dyadic grid, either atom side.

    A gap may be replaced by a run of touching 2^-40 gaps at its left end,
    which puts several edges within a few ulps of each other.
    """
    den = draw(st.sampled_from((2, 8, 64, 1024, 3, 7, 12, 48, 1000)))
    k = draw(st.integers(0, 7))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=2 * k, max_size=2 * k)))
    gaps = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        lo, hi = F(lo, den), F(hi, den)
        if lo == hi:
            continue
        for _ in range(draw(st.integers(0, 3))):
            gaps.append(GapInterval(lo, lo + TINY, draw(st.sampled_from((LEFT, RIGHT)))))
            lo += TINY
        gaps.append(GapInterval(lo, hi, draw(st.sampled_from((LEFT, RIGHT)))))
    return QuasiUniformMeasure(tuple(gaps))


def test_clustered_measure_needs_several_steps():
    assert _batch_tables(clustered_measure()).guide_steps >= 2


@given(gap_lists(), st.integers(0, 2**32 - 1))
@example(clustered_measure(), 0)
@example(a_shuffle(48), 1)
@settings(max_examples=300, deadline=None)
def test_lookup_equals_binary_search(measure, seed):
    u = boundary_draws(measure, seed)
    got = sample_conjugate_batch(measure, u.shape, FixedDraws(u)).cell
    edges = np.array([float(c.lo) for c in cell_decomposition(measure).cells] + [1.0])
    want = np.searchsorted(edges, u, side="right") - 1
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("measure", [a_shuffle(48), clustered_measure()], ids=["a48", "clustered"])
def test_lookup_spans_blocks(measure):
    # 700 x 52 draws: two whole lookup blocks and a part of a third
    shape = (700, 52)
    u = make_rng(7).random(shape)
    got = sample_conjugate_batch(measure, shape, make_rng(7)).cell
    edges = np.array([float(c.lo) for c in cell_decomposition(measure).cells] + [1.0])
    want = np.searchsorted(edges, u, side="right") - 1
    assert got.shape == shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


DECKS = {"a-shuffle-48": a_shuffle(48), "clustered": clustered_measure()}


@pytest.mark.parametrize("kind", (ConjugateCoupling, InverseConjugateCoupling))
@pytest.mark.parametrize("name", sorted(DECKS))
def test_deck_step_batch_equals_reference(name, kind):
    sampler = kind(DECKS[name])
    got = step_batch(52, sampler, 500, make_rng(52))
    assert identical(got, step_reference(52, sampler, 500, make_rng(52)))


@pytest.mark.parametrize("kind", (ConjugateCoupling, InverseConjugateCoupling))
@pytest.mark.parametrize("name", sorted(DECKS))
def test_deck_rank_pairs_equals_reference(name, kind):
    sampler = kind(DECKS[name])
    got = _rank_pairs(*sampler.draw_batch((500, 52), make_rng(52)))
    assert identical(got, double_argsort_step(52, sampler, 500, make_rng(52)))


@pytest.mark.parametrize("name", sorted(DECKS))
def test_deck_ordering_batch_equals_reference(name):
    got = sample_ordering_batch(DECKS[name], range(1, 53), 500, make_rng(53))
    assert identical(got, double_argsort_ordering(DECKS[name], 52, 500, make_rng(53)))


@pytest.mark.parametrize(
    "measure",
    [parse_measure("gap(0,1/4,left)"), lebesgue(), mixed_fixture()],
    ids=["gap-0-quarter-left", "lebesgue", "mixed"],
)
def test_interpolate_keeps_bits_at_corners(measure):
    u = boundary_draws(measure)
    s = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)], make_rng(1).random(20)])
    shape = (len(u), len(s))
    batch = sample_conjugate_batch(measure, shape, FixedDraws(u))
    want = eager_batch(measure, shape, FixedDraws(u))
    s = np.broadcast_to(s, shape)
    got, ref = batch.interpolate(s), want["y"] + s * (want["x"] - want["y"])
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@st.composite
def atom_only_measures(draw):
    """1-1,024 gaps covering [0, 1] on a dyadic or non-dyadic grid, either side."""
    k = draw(st.integers(1, 1024))
    den = draw(st.sampled_from((1024, 2**20, 3000, 10**6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = [0, *sorted(rng.choice(np.arange(1, den), k - 1, replace=False).tolist()), den]
    sides = rng.choice((LEFT, RIGHT), k)
    return QuasiUniformMeasure(
        tuple(GapInterval(F(lo, den), F(hi, den), s) for lo, hi, s in zip(cuts, cuts[1:], sides))
    )


@given(atom_only_measures(), st.integers(1, 52), st.integers(0, 2**32 - 1))
@example(a_shuffle(1024), 52, 0)
@example(a_shuffle(48), 52, 1)
@settings(max_examples=60, deadline=None)
def test_atom_only_ordering_equals_stable_sort(measure, n, seed):
    assert measure.is_purely_atomic
    got = sample_ordering_batch(measure, range(1, n + 1), 200, make_rng(seed))
    assert identical(got, double_argsort_ordering(measure, n, 200, make_rng(seed)))


@pytest.mark.parametrize("measure", [lebesgue(), mixed_fixture()], ids=["lebesgue", "mixed"])
def test_equal_diffuse_keys_keep_label_order(measure):
    # 52 labels draw from a dozen u values: diffuse draws that share a u
    # share a rel, and every such tie must resolve by label order
    u = make_rng(5).choice(boundary_draws(measure)[:12], size=(200, 52))
    got = sample_ordering_batch(measure, range(1, 53), 200, FixedDraws(u))
    assert identical(got, double_argsort_ordering(measure, 52, 200, FixedDraws(u)))
    diffuse = cell_sides(measure, sample_conjugate_batch(measure, u.shape, FixedDraws(u)).cell) == 0
    tied = (u[:, :, None] == u[:, None, :]) & diffuse[:, :, None] & np.triu(np.ones((52, 52), bool), 1)
    assert tied.any()
    assert (got[:, :, None] < got[:, None, :])[tied].all()
