"""The guide-table lookup, the gather-only `interpolate` and the key sort.

Every piecewise draw finds its piece through one guide table and a few
comparisons: the cells of a measure or of a mixture's components, a
mixture's component, a grid-copula cell and a shuffle-map piece.  Each
must give the piece a binary search over its edges gives, at every edge
and one ulp either side of it, with the same dtype; the samplers built on
it must stay byte-identical to the eager references in
`test_batch_reference`.  The lookup takes any float, so its tests
draw one ulp either side of each edge; a generator only returns multiples
of 2^-53, which the exact ordering keys rely on, so the ordering tests
draw the grid points either side of each edge instead.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasishuffle.kernels import (
    ConjugateCoupling,
    GridCopulaCoupling,
    InverseConjugateCoupling,
    _rank_pairs,
    shuffle_map_from_measure,
    step_batch,
)
from quasishuffle.measure import (
    LEFT,
    RIGHT,
    GapInterval,
    ConjugateSample,
    MeasureMixture,
    QuasiUniformMeasure,
    _batch_tables,
    _Guide,
    _weight_guide,
    a_shuffle,
    cell_decomposition,
    gsr,
    lebesgue,
    mixed_fixture,
    parse_measure,
    sample_conjugate_batch,
)
from quasishuffle.errors import IncomparableSamples
from quasishuffle.ordering import _ordering_keys, compare, sample_ordering_batch

from conftest import builtin_measures, cell_sides, make_rng
from test_batch_reference import (
    double_argsort_ordering,
    double_argsort_step,
    eager_batch,
    identical,
    step_reference,
)
from test_permutations import GRID

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

    A 1-D u holds one value per row, repeated across the row.  Any float
    in [0, 1] passes, but `Generator.random` returns only multiples of
    2^-53, and only such u give the exact ordering (`grid_draws`).
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


def edge_draws(edges, seed=0):
    """u = 0, every edge below 1, one ulp either side of each, and random u."""
    edges = np.asarray(edges, dtype=np.float64)
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = np.concatenate([[0.0], near, make_rng(seed).random(200)])
    return u[(u >= 0.0) & (u < 1.0)]


def grid_draws(edges, seed=0):
    """u = 0, at each edge e below 1 the two draws a generator can return
    around it, ceil(e * 2^53) * 2^-53 and the grid point below it, and
    random u."""
    above = np.ceil(np.asarray(edges, dtype=np.float64) * 2.0**53)
    near = np.concatenate([above, above - 1.0]) / 2.0**53
    u = np.concatenate([[0.0], near, make_rng(seed).random(200)])
    return u[(u >= 0.0) & (u < 1.0)]


def cell_edges(measure):
    return np.array([float(c.lo) for c in cell_decomposition(measure).cells] + [1.0])


def boundary_draws(measure, seed=0):
    return edge_draws(cell_edges(measure), seed)


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
    assert _batch_tables(clustered_measure()).guide.steps >= 2


@given(gap_lists(), st.integers(0, 2**32 - 1))
@example(clustered_measure(), 0)
@example(a_shuffle(48), 1)
@settings(max_examples=300, deadline=None)
def test_lookup_equals_binary_search(measure, seed):
    u = boundary_draws(measure, seed)
    got = sample_conjugate_batch(measure, u.shape, FixedDraws(u)).cell
    want = np.searchsorted(cell_edges(measure), u, side="right") - 1
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@st.composite
def edge_lists(draw):
    """1-3 lists of 1-40 cells with nondecreasing edges from 0 to 1: on a
    grid, where repeated edges (0 and 1 included) leave empty cells, in a
    run 2^-40 apart, or random floats."""
    lists = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 39))
        kind = draw(st.sampled_from(("grid", "run", "random")))
        if kind == "grid":
            den = draw(st.sampled_from((2, 64, 3, 7, 1000)))
            inner = [float(F(draw(st.integers(0, den)), den)) for _ in range(k)]
        elif kind == "run":
            inner = [float(F(1, 3) + j * TINY) for j in range(k)]
        else:
            inner = make_rng(draw(st.integers(0, 2**32 - 1))).random(k)
        lists.append(np.array([0.0, *sorted(inner), 1.0]))
    return lists


@given(edge_lists(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_stacked_lookup_equals_binary_search(lists, seed):
    guide = _Guide.build(lists)
    first = 0
    for k, edges in enumerate(lists):
        u = np.append(edge_draws(edges, seed), 1.0)
        want = np.searchsorted(edges, u, side="right") - 1
        # u = 1 falls in the last cell, however many edges sit at 1
        want[-1] = len(edges) - 2
        got = guide.lookup(u, k) - first
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        first += len(edges) - 1


def test_mixture_cells_are_each_components():
    mixture = MeasureMixture(
        ((F(1, 5), a_shuffle(3)), (F(1, 2), clustered_measure()), (F(3, 10), a_shuffle(48)))
    )
    t = _batch_tables(mixture)
    first = 0
    for k, (_, measure) in enumerate(mixture.components):
        u = boundary_draws(measure)
        want = np.searchsorted(cell_edges(measure), u, side="right") - 1
        np.testing.assert_array_equal(t.guide.lookup(u, k) - first, want)
        cells = cell_decomposition(measure).cells
        assert t.cells[first : first + len(cells)] == cells
        first += len(cells)


def permutation_grid(m):
    """The m x m grid of a permutation: one cell of mass 1/m per row."""
    return [[F(1, m) if j == (7 * i + 3) % m else 0 for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("m", [3, 10, 100])
def test_zero_mass_cells_cost_no_steps(m):
    """A run of zero-mass cells shares one lower edge, which the guide
    holds once: an m x m permutation grid has runs of up to 2m - 1 such
    cells, yet its m evenly spread edges need at most one step."""
    assert GridCopulaCoupling(permutation_grid(m))._cells.steps <= 1


# weights of 2, 3 and 5 components; the last two sum below 1 in floats
WEIGHTS = [
    (F(1, 3), F(2, 3)),
    (F(1, 3), F(1, 3), F(1, 3)),
    (F(1, 7), F(2, 7), F(1, 7), F(2, 7), F(1, 7)),
    (F(9, 28), F(18, 28), F(1, 28)),
    (F(1, 13), F(3, 13), F(3, 13), F(3, 13), F(3, 13)),
]


def float_cdf(weights):
    p = np.array([float(w) for w in weights])
    return np.cumsum(p / p.sum())


def test_some_weights_sum_below_one_in_floats():
    assert [float_cdf(w)[-1] < 1.0 for w in WEIGHTS[-2:]] == [True, True]


@pytest.mark.parametrize("weights", WEIGHTS)
def test_weight_lookup_equals_binary_search(weights):
    """A mixture's component is `rng.choice`'s: a search over the
    cumulative weights, rescaled to end at 1."""
    cdf = float_cdf(weights)
    edges = np.append(0.0, cdf / cdf[-1])
    u = np.concatenate([edge_draws(edges), edge_draws(cdf)])
    want = np.searchsorted(edges, u, side="right") - 1
    got = _weight_guide(tuple((w, None) for w in weights)).lookup(u)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "grid",
    [
        GRID,
        GridCopulaCoupling([[0, F(1, 2)], [F(1, 2), 0]]),
        GridCopulaCoupling([[0.01] * 10] * 10),
        GridCopulaCoupling(permutation_grid(100)),
    ],
    ids=["zero-mass-cells", "zero-mass-last-cell", "float-entries", "permutation-100"],
)
def test_grid_lookup_equals_binary_search(grid):
    """A grid cell is the one a search over the cumulative masses finds,
    clipped to the last cell; each grid's float sum ends above 1."""
    flat = np.array([float(v) for row in grid.matrix for v in row])
    cum = np.cumsum(flat / flat.sum())
    u = edge_draws(cum)
    want = np.minimum(np.searchsorted(cum, u, side="right"), grid.m**2 - 1)
    np.testing.assert_array_equal(grid._cells.lookup(u), want)
    # the draws take their cells from the lookup
    got_u, got_v = grid.draw_batch(u.shape, FixedDraws(np.append(u, np.full(2 * len(u), 0.5))))
    assert np.array_equal(np.floor(got_u * grid.m), want // grid.m)
    assert np.array_equal(np.floor(got_v * grid.m), want % grid.m)


def clustered_atoms():
    """A purely atomic measure whose edges 1/3, 1/3 + 2^-40, 1/3 + 2^-39 share a bucket."""
    cuts = (F(0), F(1, 3), F(1, 3) + TINY, F(1, 3) + 2 * TINY, F(1))
    sides = (RIGHT, LEFT, RIGHT, LEFT)
    return QuasiUniformMeasure(
        tuple(GapInterval(lo, hi, s) for lo, hi, s in zip(cuts, cuts[1:], sides))
    )


@pytest.mark.parametrize(
    "measure", [gsr(), a_shuffle(3), a_shuffle(48), clustered_atoms()],
    ids=["gsr", "a3", "a48", "clustered"],
)
def test_map_lookup_equals_binary_search(measure):
    """A map piece is the one a search over the pieces' lower ends finds,
    u = 1 on the last piece."""
    smap = shuffle_map_from_measure(measure)
    los = np.array([float(p.lo) for p in smap.pieces])
    u = np.append(edge_draws(los), 1.0)
    at = np.clip(np.searchsorted(los, u, side="right") - 1, 0, len(los) - 1)
    slopes = np.array([float(p.slope) for p in smap.pieces])
    intercepts = np.array([float(p.intercept) for p in smap.pieces])
    assert identical(smap.eval_batch(u), slopes[at] * u + intercepts[at])


@pytest.mark.parametrize("measure", [a_shuffle(48), clustered_measure()], ids=["a48", "clustered"])
def test_lookup_spans_blocks(measure):
    # 700 x 52 draws: two whole lookup blocks and a part of a third
    shape = (700, 52)
    u = make_rng(7).random(shape)
    got = sample_conjugate_batch(measure, shape, make_rng(7)).cell
    want = np.searchsorted(cell_edges(measure), u, side="right") - 1
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
    # 52 labels draw from a dozen grid points around the edges: diffuse
    # draws that share a u share their key's high part, and every such tie
    # must resolve by label order
    u = make_rng(5).choice(grid_draws(cell_edges(measure))[:12], size=(200, 52))
    got = sample_ordering_batch(measure, range(1, 53), 200, FixedDraws(u))
    assert identical(got, double_argsort_ordering(measure, 52, 200, FixedDraws(u)))
    diffuse = cell_sides(measure, sample_conjugate_batch(measure, u.shape, FixedDraws(u)).cell) == 0
    tied = (u[:, :, None] == u[:, None, :]) & diffuse[:, :, None] & np.triu(np.ones((52, 52), bool), 1)
    assert tied.any()
    assert (got[:, :, None] < got[:, None, :])[tied].all()


def with_sides(measure, side):
    """The measure with every atom moved to one side of its gap."""
    return QuasiUniformMeasure(tuple(GapInterval(g.lo, g.hi, side) for g in measure.gaps))


def zero_width_measure():
    """Gaps narrower than a float step at 1/3 and 1/2: their cells have
    float width 0, and no draw lands in them."""
    tiny = F(1, 2**60)
    cuts = ((F(1, 3), F(1, 3) + tiny), (F(1, 2), F(1, 2) + tiny), (F(3, 4), F(1)))
    return QuasiUniformMeasure(
        tuple(GapInterval(lo, hi, s) for (lo, hi), s in zip(cuts, (LEFT, RIGHT, LEFT)))
    )


FIXTURES = {
    **builtin_measures(),
    "a-shuffle-48": a_shuffle(48),
    "clustered": clustered_measure(),
    "clustered-atoms": clustered_atoms(),
    "zero-width": zero_width_measure(),
}


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_grid_draws_around_each_edge_key_as_their_cells(name, side):
    """The two grid points around an edge sort by the guide's cells: the
    lower one's key is below exactly when its cell is, or, in one cell, by
    u in a diffuse cell and by label order at an atom, reversed at a left
    one.  Each pair is dealt as a row in both column orders."""
    measure = with_sides(FIXTURES[name], side)
    above = np.ceil(cell_edges(measure)[1:-1] * 2.0**53)
    pairs = np.stack([above - 1.0, above], axis=1) / 2.0**53
    u = np.concatenate([pairs, pairs[:, ::-1]])
    batch = sample_conjugate_batch(measure, u.shape, FixedDraws(u))
    key = _ordering_keys(batch)
    cell, sign = batch.cell, cell_sides(measure, batch.cell)
    inside = np.where(sign[:, 0] == 0, u[:, 0] < u[:, 1], sign[:, 0] > 0)
    want = np.where(cell[:, 0] != cell[:, 1], cell[:, 0] < cell[:, 1], inside)
    np.testing.assert_array_equal(key[:, 0] < key[:, 1], want)
    # the grid points straddle the edge, so the guide splits most pairs
    assert len(u) == 0 or (cell[:, 0] != cell[:, 1]).any()


@st.composite
def key_sources(draw):
    """An atom-only, clustered, zero-float-width or random measure with
    atoms on either side, or a mixture of two of them."""
    def measure():
        return draw(st.one_of(
            gap_lists(), atom_only_measures(),
            st.sampled_from([clustered_measure(), clustered_atoms(), zero_width_measure()]),
        ))

    if draw(st.booleans()):
        return measure()
    return MeasureMixture(((F(1, 3), measure()), (F(2, 3), measure())))


def below(sample_i, sample_j, i, j):
    """`compare`, with identical diffuse draws in label order."""
    try:
        return compare(sample_i, sample_j, i, j)
    except IncomparableSamples:
        return i < j


@given(key_sources(), st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans())
@example(zero_width_measure(), 8, 0, True)
@example(clustered_measure(), 10, 1, True)
@settings(max_examples=150, deadline=None)
def test_ordering_keys_are_distinct_and_order_as_compare(source, n, seed, at_edges):
    """In every row the keys are pairwise distinct, and key_i < key_j
    exactly when `compare` puts label i below label j on the batch's float
    pairs, whose cells the guide found from float edges.  A measure may
    draw its u from the grid points around its edges, so that rows share
    cells and u values."""
    rng = make_rng(seed)
    if at_edges and isinstance(source, QuasiUniformMeasure):
        rng = FixedDraws(rng.choice(grid_draws(cell_edges(source), seed), (30, n)))
    batch = sample_conjugate_batch(source, (30, n), rng)
    key = _ordering_keys(batch)
    # a purely atomic source's key is its cell's rank, a flag and the label,
    # int32 below 2^21 cells; a diffuse draw's 53 bits take int64
    assert key.dtype == (np.int64 if batch.tables.cell_diffuse.any() else np.int32)
    assert (np.diff(np.sort(key, axis=1), axis=1) > 0).all()
    cells = batch.tables.cells
    for row_u, row_cell, row_key in zip(batch.u.tolist(), batch.cell.tolist(), key.tolist()):
        pairs = [
            ConjugateSample(u, u) if cells[c].kind == "diffuse"
            else ConjugateSample(float(cells[c].x), float(cells[c].y), cells[c].gap_index)
            for u, c in zip(row_u, row_cell)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                assert (row_key[i] < row_key[j]) == below(pairs[i], pairs[j], i, j)
