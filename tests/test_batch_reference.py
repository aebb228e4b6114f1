"""The batch samplers against eager references written out here.

The references build every conjugate-pair field at draw time and rank by
argsorting each argsort, as the samplers once did.  The samplers must give
the same arrays, bit for bit, from the same seed.  A purely atomic source
with few enough words, and a word law not too skewed, draws one uniform
per row for its cell word, found among the word law's exact edges,
computed here from `itertools.product` and Fractions.  Every other source
of up to 8 labels whose class law is cheap enough draws two uniforms per
row, for the descent class of its rank-order list and for a ranking in
that class, found among the rankings grouped here by
`itertools.permutations` and the class law's exact edges; its key route is
called directly.  A conjugate coupling's step is dealt as the measure's
ordering (type two as its row inverse), so its reference is the ordering
one; the coupling's own (u, v) draws, which `verify` ranks, keep the pair
reference.  Every coupling draws its pairs from a table of affine cells:
the conjugate couplings' and the maps' pairs equal their own eager draws,
bit for bit, and a grid's and a mixture's, whose cells are its
components', equal the table built here from Fractions (`cell_rows`).
Two-sample tests check that their rows keep the law of each coupling's
own draw (`eager_draw`): a grid's three uniforms, a mixture's
per-component draw.
"""

from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import accumulate, permutations, product
from math import ceil, prod

import numpy as np
import pytest

from quasishuffle.kernels import (
    ConjugateCoupling,
    DeterministicCoupling,
    GridCopulaCoupling,
    InverseConjugateCoupling,
    MixtureCoupling,
    _rank_pairs,
    shuffle_map_from_measure,
    step_batch,
)
from quasishuffle.measure import (
    _LOOKUP_BLOCK,
    MeasureMixture,
    a_shuffle,
    cell_decomposition,
    gsr,
    lebesgue,
    mixed_fixture,
    parse_measure,
    sample_conjugate_batch,
)
from quasishuffle.oracle import exact_ordering_distribution
from quasishuffle.ordering import (
    _CLASS_WORK_CAP,
    _LABEL_BITS,
    _WORD_LIMIT,
    _ordering_keys,
    _rank_keys,
    empirical_positions,
    sample_ordering_batch,
)
from quasishuffle.permutations import _COUNT_WIDTH, _INDEX_WIDTH
from quasishuffle.stats import chi_square_two_sample

from conftest import make_rng

MEASURES = {
    "gsr": gsr(),
    "gsr-conjugate": gsr().conjugate(),
    "a-shuffle-3": a_shuffle(3),
    "mixed": mixed_fixture(),
    "lebesgue": lebesgue(),
    "left-gap": parse_measure("gap(1/4,1/2,left)"),
}
# both sides of the width up to which pairs are ranked by counting and of
# the widest row whose keys hold the label, the narrow rows that the key
# route sorts, and a deck
WIDTHS = (_COUNT_WIDTH, 1 << _LABEL_BITS)
SIZES = tuple(
    sorted({1, 2, 3, 4, 5, 8, 11, 12, 16, 17, 52, 511, *WIDTHS, *(w + 1 for w in WIDTHS)})
)
FIELDS = ("cell", "u")


def grid_edges(masses):
    """ceil(F * 2^53) * 2^-53 for the exact cumulative sums F of the
    masses, 0 first: the cells' edges on the grid of `Generator.random`,
    each an exact float, so a draw u = k * 2^-53 is above an edge F
    exactly when k >= ceil(F * 2^53)."""
    return np.array([ceil(f * 2**53) for f in accumulate(masses, initial=F(0))]) * 2.0**-53


def component_draw(components, shape, rng):
    """Each draw's component of a mixture: one uniform, found by
    `np.searchsorted` among the grid edges of the exact weights."""
    return np.searchsorted(grid_edges(w for w, _ in components), rng.random(shape), side="right") - 1


def eager_batch(measure, shape, rng):
    """Every field of a conjugate-pair batch, built at draw time."""
    return eager_fields(measure, rng.random(shape))


def eager_fields(measure, u):
    """Every field of a conjugate-pair batch of the uniforms u, whose cells
    a search over the grid edges of the exact cell masses finds."""
    cells = cell_decomposition(measure).cells
    lo = np.array([float(c.lo) for c in cells])
    cx = np.array([float(c.x) if c.kind == "atom" else np.nan for c in cells])
    cy = np.array([float(c.y) if c.kind == "atom" else np.nan for c in cells])
    inv_len = np.array([1.0 / float(c.hi - c.lo) for c in cells])
    side = np.array(
        [0 if c.kind == "diffuse" else 1 if c.atom_side == "right" else -1 for c in cells],
        dtype=np.int64,
    )
    edges = grid_edges(c.mass for c in cells)
    cell = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(cells) - 1)
    sign = side[cell]
    atom = sign != 0
    return {
        "u": u,
        "cell": cell,
        "x": np.where(atom, cx[cell], u),
        "y": np.where(atom, cy[cell], u),
        "rel": (u - lo[cell]) * inv_len[cell],
        "sign": sign,
    }


def map_draw(smap, shape, rng):
    """(u, v) of a shuffle map: v = slope * u + intercept on the piece that
    a search over the grid edges of the pieces' exact lengths finds."""
    slopes, intercepts = (
        np.array([float(getattr(p, k)) for p in smap.pieces]) for k in ("slope", "intercept")
    )
    u = rng.random(shape)
    at = np.searchsorted(grid_edges(p.hi - p.lo for p in smap.pieces), u, side="right") - 1
    return u, slopes[at] * u + intercepts[at]


def grid_draw(grid, shape, rng):
    """(u, v) of a grid copula from three uniforms, as grids drew before
    they joined the cell tables: the first finds the square by a search
    over the float cumulative masses, clipped to the last square, and the
    other two place u and then v in it."""
    flat = np.array([float(v) for row in grid.matrix for v in row])
    cum = np.cumsum(flat / flat.sum())
    cell = np.minimum(np.searchsorted(cum, rng.random(shape), side="right"), grid.m**2 - 1)
    i, j = np.divmod(cell, grid.m)
    return (i + rng.random(shape)) / grid.m, (j + rng.random(shape)) / grid.m


def eager_draw(sampler, shape, rng):
    """(u, v) of any coupling by its own draw: a conjugate coupling's from
    an eager batch, u first, a map's and a grid's by `map_draw` and
    `grid_draw`.  A mixture draws each pair's component (`component_draw`),
    and then each component in turn draws its pairs."""
    if isinstance(sampler, InverseConjugateCoupling):
        u, v = eager_draw(ConjugateCoupling(sampler.measure), shape, rng)
        return v, u
    if isinstance(sampler, ConjugateCoupling):
        u = rng.random(shape)
        b = eager_batch(sampler.measure, shape, rng)
        # the float of each atom's exact x - y, 0 in a diffuse cell
        cells = cell_decomposition(sampler.measure).cells
        slope = np.array([float(c.x - c.y) if c.kind == "atom" else 0.0 for c in cells])
        return u, b["y"] + u * slope[b["cell"]]
    if isinstance(sampler, DeterministicCoupling):
        return map_draw(sampler.map, shape, rng)
    if isinstance(sampler, GridCopulaCoupling):
        return grid_draw(sampler, shape, rng)
    which = component_draw(sampler.components, shape, rng)
    u, v = np.empty(shape), np.empty(shape)
    for ci, (_, component) in enumerate(sampler.components):
        mask = which == ci
        if mask.any():
            u[mask], v[mask] = eager_draw(component, int(mask.sum()), rng)
    return u, v


def cell_rows(sampler):
    """Each cell of a coupling as (mass, (D, E, F), (A, B, C)) in
    Fractions: the uniform U that found the cell and a second uniform s
    give u = D + E * U + F * s and v = A + B * U + C * s.

    A conjugate cell has u = s, and v = y + (x - y) * s at an atom, or v =
    U in a diffuse cell; type two swaps the sides.  A map piece has u = U
    and v = slope * U + intercept.  A grid square (i, j) of positive mass p
    over the matrix's sum, after squares of mass P, has u = (i + s) / m and
    v = j / m + (U - P) / (p * m).  A mixture's component of weight w,
    after components of weight W, holds its cells with w times their mass,
    read at (U - W) / w.
    """
    zero, one = F(0), F(1)
    if isinstance(sampler, (ConjugateCoupling, InverseConjugateCoupling)):
        rows = []
        for c in cell_decomposition(sampler.measure).cells:
            if c.kind == "atom":
                v = (c.y, zero, c.x - c.y)
            else:
                v = (zero, one, zero)
            rows.append((c.mass, (zero, zero, one), v))
        two = isinstance(sampler, InverseConjugateCoupling)
        return [(p, v, u) for p, u, v in rows] if two else rows
    if isinstance(sampler, DeterministicCoupling):
        return [
            (p.hi - p.lo, (zero, one, zero), (p.intercept, p.slope, zero)) for p in sampler.map.pieces
        ]
    if isinstance(sampler, GridCopulaCoupling):
        m = sampler.m
        squares = [(i, j, e) for i, r in enumerate(sampler.matrix) for j, e in enumerate(r) if e]
        total = sum(e for *_, e in squares)
        rows, below = [], zero
        for i, j, e in squares:
            p = e / total
            rows.append((p, (F(i, m), zero, F(1, m)), (F(j, m) - below / (p * m), 1 / (p * m), zero)))
            below += p
        return rows
    rows, below = [], zero
    for w, component in sampler.components:
        for p, (d, e, f), (a, b, c) in cell_rows(component):
            rows.append((w * p, (d - e * below / w, e / w, f), (a - b * below / w, b / w, c)))
        below += w
    return rows


def joint_draw(sampler, shape, rng):
    """(u, v) from `cell_rows`: s first, unless every cell's F and C are 0,
    then U, which finds its cell by `np.searchsorted` over the grid edges
    of the exact masses; u = (E * U + D) + F * s and v = (B * U + A) + C *
    s."""
    rows = cell_rows(sampler)
    edges = grid_edges(p for p, _, _ in rows)
    coef = np.array([[float(x) for x in (*u, *v)] for _, u, v in rows])
    s = rng.random(shape) if coef[:, [2, 5]].any() else np.zeros(shape)
    seed = rng.random(shape)
    d, e, f, a, b, c = np.moveaxis(coef[np.searchsorted(edges, seed, side="right") - 1], -1, 0)
    return (e * seed + d) + f * s, (b * seed + a) + c * s


def double_argsort_step(n, sampler, size, rng, draw=None):
    """Steps ranked from (u, v) pairs: a mixture's and a grid's from
    `joint_draw`, other couplings' from `eager_draw`, unless `draw` is
    given."""
    if draw is None:
        draw = joint_draw if isinstance(sampler, (MixtureCoupling, GridCopulaCoupling)) else eager_draw
    u, v = draw(sampler, (size, n), rng)
    ranks_u = np.argsort(np.argsort(u, axis=1, kind="stable"), axis=1, kind="stable")
    ranks_v = np.argsort(np.argsort(v, axis=1, kind="stable"), axis=1, kind="stable")
    sigma = np.empty((size, n), dtype=np.int64)
    np.put_along_axis(sigma, ranks_u, ranks_v + 1, axis=1)
    return sigma


@lru_cache(maxsize=None)
def exact_word_edges(source, n):
    """(ceil(F_w * 2^53) for w = 0..C^n, each cell's side) of a source
    with no diffuse cell and at most `_WORD_LIMIT` words of n labels, else
    None.  The words are listed by `itertools.product` of the C cells,
    component after component, and F_w is the exact mass of the words
    before w: a word's component weight times its cells' masses when one
    component holds all its cells, else 0.  A word of positive mass that
    owns no grid point also means None."""
    comps = source.components if isinstance(source, MeasureMixture) else ((F(1), source),)
    cells = [(k, w, c) for k, (w, m) in enumerate(comps) for c in cell_decomposition(m).cells]
    if any(c.kind == "diffuse" for *_, c in cells) or max(len(cells), 2) ** n > _WORD_LIMIT:
        return None
    edges, below = [0], F(0)
    for word in product(cells, repeat=n):
        one = len({k for k, _, _ in word}) == 1
        mass = word[0][1] * prod(c.mass for *_, c in word) if one else F(0)
        below += mass
        edges.append(ceil(below * 2**53))
        if mass and edges[-1] == edges[-2]:
            return None
    return edges, np.array([1 if c.atom_side == "right" else -1 for *_, c in cells])


def one_step(edges):
    """Whether a guide over the edges E * 2^-53 takes at most one step past
    a bucket's first piece: of B buckets, B the least power of two at least
    twice the number of distinct lower edges, none holds two distinct
    edges strictly inside it."""
    lower = sorted(set(edges[:-1]))
    buckets = 1 << (2 * len(lower) - 1).bit_length()
    inside = Counter(e * buckets >> 53 for e in lower if e * buckets % 2**53)
    return max(inside.values(), default=0) <= 1


def word_route(source, n):
    """`exact_word_edges` of a source whose rows are dealt by word, else
    None: a word law whose guide takes more than one step keeps the
    per-label draw."""
    words = exact_word_edges(source, n)
    return words if words is not None and one_step(words[0]) else None


def word_cells(source, n, size, rng):
    """The cells of `size` rows of a word source (`word_route`) from one
    whole-batch `rng.random(size)`: each u = k * 2^-53 finds its word among
    the exact edges by `np.searchsorted`, and the word's base-C digits are
    its cells."""
    edges, sign = word_route(source, n)
    k = (rng.random(size) * 2.0**53).astype(np.int64)
    word = np.searchsorted(np.array(edges), k, side="right") - 1
    return word[:, None] // len(sign) ** np.arange(n - 1, -1, -1) % len(sign)


def descent_mask(ranking):
    """Descent set of the labels listed in rank order, as a bit mask: bit
    i is set when the label of rank i + 1 is above the label of rank
    i + 2."""
    order = sorted(range(len(ranking)), key=lambda label: ranking[label])
    return sum(1 << i for i, (a, b) in enumerate(zip(order, order[1:])) if a > b)


def class_route(source, n):
    """Whether a source deals rows of n labels from its descent-class law:
    no word route, at most 8 labels, and a class-law work of 2^(n-1) *
    cells * n^3 within `_CLASS_WORK_CAP`."""
    comps = source.components if isinstance(source, MeasureMixture) else ((F(1), source),)
    cells = sum(len(cell_decomposition(m).cells) for _, m in comps)
    work = 2 ** (n - 1) * cells * n**3
    return word_route(source, n) is None and n <= _INDEX_WIDTH and work <= _CLASS_WORK_CAP


@lru_cache(maxsize=None)
def ranking_classes(n):
    """The rankings of n labels grouped by the descent mask of their
    rank-order list, in mask order, each class listed lexicographically by
    `itertools.permutations`."""
    classes = [[] for _ in range(2 ** (n - 1))]
    for ranking in permutations(range(1, n + 1)):
        classes[descent_mask(ranking)].append(ranking)
    return classes


@lru_cache(maxsize=None)
def exact_class_edges(source, n):
    """(edges, classes) of n labels: `ranking_classes`, and ceil(F_D * 2^53)
    for D = 0..2^(n-1), F_D the exact mass of the classes below D, summed
    from the Fractions of the exact law."""
    law = exact_ordering_distribution(source, n, max_n=n)
    classes = ranking_classes(n)
    edges, below = [0], F(0)
    for rankings in classes:
        below += sum((law.prob(r) for r in rankings), F(0))
        edges.append(ceil(below * 2**53))
    return edges, classes


def class_rows(source, n, size, rng):
    """`size` rows of a class-route source from one whole-batch
    `rng.random((size, 2))`: k_0 = u_0 * 2^53 finds the class D among the
    exact edges by `np.searchsorted`, and k_1 the ranking at offset
    floor(k_1 * beta_n(D) / 2^53) in that class, in Python ints."""
    edges, classes = exact_class_edges(source, n)
    k = (rng.random((size, 2)) * 2.0**53).astype(np.int64)
    desc = np.searchsorted(np.array(edges), k[:, 0], side="right") - 1
    rows = [classes[d][j * len(classes[d]) >> 53] for d, j in zip(desc.tolist(), k[:, 1].tolist())]
    return np.array(rows, dtype=np.int64).reshape(size, n)


def key_rows(source, n, size, rng, inverse=False):
    """The key route called directly, on one batch: the rankings (or row
    inverses) of `_ordering_keys` of `size` rows of conjugate draws."""
    keys = _ordering_keys(sample_conjugate_batch(source, (size, n), rng))
    return _rank_keys(keys, inverse=inverse)


def double_argsort_ordering(source, n, size, rng):
    """`sample_ordering_batch` rows.

    A word source (`word_route`) draws one uniform per row for its word,
    and a class source (`class_route`) two, for its class and a ranking in
    it.  Else the rows are those of the key route (`key_ordering`).
    """
    words = word_route(source, n)
    if words is not None:
        cell = word_cells(source, n, size, rng)
        return ranked_cells(cell, words[1][cell], np.zeros(cell.shape))
    if class_route(source, n):
        return class_rows(source, n, size, rng)
    return key_ordering(source, n, size, rng)


def key_ordering(source, n, size, rng):
    """Rows of the key route: a mixture draws its rows' components one row
    block of `_LOOKUP_BLOCK` draws at a time, as `sample_ordering_batch`
    does, and a measure draws the whole batch at once.
    """
    if isinstance(source, MeasureMixture):
        rows = max(1, _LOOKUP_BLOCK // n)
        return np.concatenate(
            [mixture_ordering(source, n, min(rows, size - s), rng) for s in range(0, size, rows)]
        )
    return eager_ordering(source, n, size, rng)


def eager_ordering(measure, n, size, rng):
    """Rows of a measure from one eager batch of per-card draws."""
    b = eager_batch(measure, (size, n), rng)
    return ranked_cells(b["cell"], b["sign"], b["rel"])


def ranked_cells(cell, sign, rel):
    """Rankings by cell rank, then inside a cell by `rel` (diffuse, sign
    0), by column (right atom, +1) or by reversed column (left atom, -1)."""
    asc = (np.arange(cell.shape[1]) + 1.0) / (cell.shape[1] + 2.0)
    within = np.where(sign == 0, rel, np.where(sign > 0, asc, 1.0 - asc))
    order = np.argsort(cell + within, axis=1, kind="stable")
    return np.argsort(order, axis=1, kind="stable") + 1


def mixture_ordering(source, n, size, rng):
    """Rows of a mixture, all at once: one component per row
    (`component_draw`), then every row's uniforms, each row ranked by the
    cells of its component."""
    which = component_draw(source.components, size, rng)
    u = rng.random((size, n))
    out = np.empty((size, n), dtype=np.int64)
    for ci, (_, m) in enumerate(source.components):
        b = eager_fields(m, u[which == ci])
        out[which == ci] = ranked_cells(b["cell"], b["sign"], b["rel"])
    return out


def positions_reference(source, target, window, rng):
    """`empirical_positions` from an eager batch: a mixture draws the
    window's one component (`component_draw`), then its measure's batch."""
    measure = source
    if isinstance(source, MeasureMixture):
        measure = source.components[component_draw(source.components, None, rng)][1]
    labels = np.arange(-window, window + 1)
    b = eager_batch(measure, labels.shape, rng)
    asc = (np.arange(len(labels)) + 1.0) / (len(labels) + 2.0)
    key = b["cell"] + np.where(b["sign"] == 0, b["rel"], np.where(b["sign"] > 0, asc, 1.0 - asc))
    t = target + window
    below = (key < key[t]) | ((key == key[t]) & (labels < target))
    x_hat = np.count_nonzero(below & (labels < target)) / window
    y_hat = np.count_nonzero(below & (labels > target)) / window
    return x_hat, y_hat, b["x"][t], b["y"][t]


def step_reference(n, sampler, size, rng):
    """`step_batch` rows: the ordering for a conjugate coupling, its row
    inverse for the coordinate swap, ranked pairs for a mixture.

    A mixture draws its pairs one row block of `_LOOKUP_BLOCK` draws at a
    time, as `step_batch` does; the conjugate references draw the whole
    batch at once.
    """
    if isinstance(sampler, ConjugateCoupling):
        return double_argsort_ordering(sampler.measure, n, size, rng)
    if isinstance(sampler, InverseConjugateCoupling):
        ranks = double_argsort_ordering(sampler.measure, n, size, rng)
        return np.argsort(ranks, axis=1, kind="stable") + 1
    rows = max(1, _LOOKUP_BLOCK // n)
    return np.concatenate(
        [double_argsort_step(n, sampler, min(rows, size - s), rng) for s in range(0, size, rows)]
    )


# a circulant grid, each row spread over two squares, and one with
# zero-mass squares at both ends of its table
E = F(1, 8)
GRIDS = {
    "circulant": GridCopulaCoupling([[F(1, 6), F(1, 6), 0], [0, F(1, 6), F(1, 6)], [F(1, 6), 0, F(1, 6)]]),
    "zero-mass": GridCopulaCoupling([[0, E, E, 0], [E, 0, 0, E], [0, E, 0, E], [E, 0, E, 0]]),
}


def samplers():
    out = {}
    for name, m in MEASURES.items():
        out[f"one-{name}"] = ConjugateCoupling(m)
        out[f"two-{name}"] = InverseConjugateCoupling(m)
    out["mixture"] = MixtureCoupling(
        [(F(1, 3), ConjugateCoupling(gsr())), (F(2, 3), InverseConjugateCoupling(mixed_fixture()))]
    )
    out["map"] = DeterministicCoupling(shuffle_map_from_measure(a_shuffle(3)))
    out["grid"] = GRIDS["zero-mass"]
    out["nested"] = MixtureCoupling(
        [(F(1, 4), out["map"]), (F(1, 4), GRIDS["circulant"]), (F(1, 2), out["mixture"])]
    )
    return out


def law_mixtures():
    """Mixtures whose pairs one table of all their components' cells draws:
    the benchmark's, of either type, the mixed-type one of `samplers`,
    three components with a left gap and a-shuffle:48, two beside a grid,
    and a map, a grid and a nested mixture of conjugate couplings."""
    bench = ((F(1, 3), a_shuffle(3)), (F(2, 3), mixed_fixture()))
    three = (
        (F(1, 5), ConjugateCoupling(parse_measure("gap(1/4,1/2,left)"))),
        (F(1, 2), InverseConjugateCoupling(mixed_fixture())),
        (F(3, 10), ConjugateCoupling(a_shuffle(48))),
    )
    return {
        "bench-one": MixtureCoupling([(w, ConjugateCoupling(m)) for w, m in bench]),
        "bench-two": MixtureCoupling([(w, InverseConjugateCoupling(m)) for w, m in bench]),
        "mixed-type": samplers()["mixture"],
        "three": MixtureCoupling(three),
        "with-grid": MixtureCoupling(
            [
                (F(1, 4), ConjugateCoupling(a_shuffle(3))),
                (F(1, 2), GridCopulaCoupling([[F(1, 8), F(3, 8)], [F(3, 8), F(1, 8)]])),
                (F(1, 4), InverseConjugateCoupling(mixed_fixture())),
            ]
        ),
        "nested": samplers()["nested"],
    }


LAW_ROWS = 200_000


def law_p(sampler, n, reference):
    """p of a two-sample chi-square of `LAW_ROWS` `step_batch` rows of the
    sampler against as many rows ranked from `reference`'s own draws
    (`eager_draw`), seeds pinned."""

    def counts(rows):
        # one integer per row, its entries less one read as base-n digits
        codes, counts = np.unique(rows @ n ** np.arange(n), return_counts=True)
        return dict(zip(codes.tolist(), counts.tolist()))

    dealt = step_batch(n, sampler, LAW_ROWS, make_rng(n))
    drawn = double_argsort_step(n, reference, LAW_ROWS, make_rng(n + 100), draw=eager_draw)
    return chi_square_two_sample(counts(dealt), counts(drawn), alpha=0.01).p_value


# p at this commit, n = 4 and 5: bench-one 0.890 and 0.801, bench-two the
# same (its rows and the reference's are the inverses of bench-one's
# draws), mixed-type 0.623 and 0.242, nested 0.828 and 0.298, three 0.687
# and 0.327, with-grid 0.568 and 0.185
@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("name", sorted(law_mixtures()))
def test_joint_mixture_steps_keep_the_per_component_law(name, n):
    sampler = law_mixtures()[name]
    assert law_p(sampler, n, sampler) >= 0.01


def test_joint_mixture_law_test_rejects_swapped_weights():
    # the benchmark's mixture with its weights swapped, 2/3 a-shuffle:3 and
    # 1/3 mixed, against the per-component draws of 1/3 and 2/3
    bench = law_mixtures()["bench-one"]
    (w1, c1), (w2, c2) = bench.components
    # p at this commit: 0.0 (below the smallest float)
    assert law_p(MixtureCoupling([(w2, c1), (w1, c2)]), 4, bench) < 1e-6


# p at this commit, n = 4 and 5: circulant 0.393 and 0.493, zero-mass
# 0.719 and 0.607
@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_steps_keep_the_three_uniform_law(name, n):
    grid = GRIDS[name]
    assert law_p(grid, n, grid) >= 0.01


def test_grid_law_test_rejects_a_transposed_grid():
    grid = GRIDS["circulant"]
    transposed = GridCopulaCoupling([list(column) for column in zip(*grid.matrix)])
    # p at this commit: 0.0 (below the smallest float)
    assert law_p(transposed, 4, grid) < 1e-6


# three components whose guides differ in size and in steps
MIXTURE3 = MeasureMixture(
    ((F(1, 5), a_shuffle(3)), (F(1, 2), mixed_fixture()), (F(3, 10), a_shuffle(48)))
)


def sources():
    out = dict(MEASURES)
    out["mixture"] = MeasureMixture(((F(1, 2), gsr()), (F(1, 2), mixed_fixture())))
    return out


def identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def row_counts(rows):
    """Histogram of a 2-D array's rows, in lexicographic order, counted by
    a row-wise `np.unique` rather than the library's counter."""
    keys, counts = np.unique(rows, axis=0, return_counts=True)
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(samplers()))
def test_step_batch_equals_double_argsort(name, n):
    sampler, size = samplers()[name], 500
    got = step_batch(n, sampler, size, make_rng(n))
    assert identical(got, step_reference(n, sampler, size, make_rng(n)))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(samplers()))
def test_rank_pairs_equals_double_argsort(name, n):
    sampler, size = samplers()[name], 500
    got = _rank_pairs(*sampler.draw_batch((size, n), make_rng(n)))
    assert identical(got, double_argsort_step(n, sampler, size, make_rng(n)))


@pytest.mark.parametrize("shape", (1, 17, (300, 8), (3, 52)), ids=str)
@pytest.mark.parametrize("name", sorted(samplers()))
def test_pairs_equal_reference_draws(name, shape):
    """A conjugate coupling's and a map's pairs are their own eager draws,
    bit for bit; a grid's and a mixture's, those of the cell table built
    from Fractions."""
    sampler = samplers()[name]
    pair_table = isinstance(sampler, (MixtureCoupling, GridCopulaCoupling))
    want = (joint_draw if pair_table else eager_draw)(sampler, shape, make_rng(3))
    got = sampler.draw_batch(shape, make_rng(3))
    assert identical(got[0], want[0]) and identical(got[1], want[1])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(sources()))
def test_sample_ordering_batch_equals_double_argsort(name, n):
    source, size = sources()[name], 500
    got = sample_ordering_batch(source, range(1, n + 1), size, make_rng(n))
    assert identical(got, double_argsort_ordering(source, n, size, make_rng(n)))


@pytest.mark.parametrize("n", [n for n in SIZES if n <= _INDEX_WIDTH])
@pytest.mark.parametrize("name", sorted(sources()))
def test_key_route_equals_double_argsort(name, n):
    # the sources of the class route keep their key route's coverage at up
    # to 8 labels, rankings and row inverses, called directly on one block
    source, size = sources()[name], 500
    assert size * n <= _LOOKUP_BLOCK
    want = key_ordering(source, n, size, make_rng(n))
    assert identical(key_rows(source, n, size, make_rng(n)), want)
    inverse = key_rows(source, n, size, make_rng(n), inverse=True)
    assert identical(inverse, np.argsort(want, axis=1, kind="stable") + 1)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_lazy_batch_fields_equal_eager(name, n):
    measure, shape = MEASURES[name], (300, n)
    batch = sample_conjugate_batch(measure, shape, make_rng(n))
    want = eager_batch(measure, shape, make_rng(n))
    for field in FIELDS:
        assert identical(getattr(batch, field), want[field]), field


@pytest.mark.parametrize("n", (3, 8, 17, 52))
def test_mixture_ordering_spans_blocks(n):
    # three whole row blocks and a part of a fourth, each dealing its rows'
    # components before their uniforms
    size = 3 * max(1, _LOOKUP_BLOCK // n) + 7
    got = sample_ordering_batch(MIXTURE3, range(1, n + 1), size, make_rng(n))
    assert identical(got, double_argsort_ordering(MIXTURE3, n, size, make_rng(n)))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("target, window", [(0, 5), (3, 40), (-7, 200)])
def test_mixture_positions_equal_reference(target, window, seed):
    est = empirical_positions(MIXTURE3, target, window, make_rng(seed))
    want = positions_reference(MIXTURE3, target, window, make_rng(seed))
    assert (est.x_hat, est.y_hat, float(est.target.x), float(est.target.y)) == want


def test_mixture_of_many_components_equals_reference():
    # 300 components: the row components take 16 bits
    many = MeasureMixture(
        tuple((F(1, 300), [gsr(), mixed_fixture(), a_shuffle(3)][k % 3]) for k in range(300))
    )
    got = sample_ordering_batch(many, range(1, 9), 5000, make_rng(3))
    assert identical(got, double_argsort_ordering(many, 8, 5000, make_rng(3)))


@pytest.mark.parametrize("window", (255, 256))
@pytest.mark.parametrize("name", sorted(sources()))
def test_positions_equal_reference_on_both_sides_of_the_label_width(name, window):
    # 511 labels hold the label in their keys, 513 need a second key word
    for target in (0, 17 - window, window):
        est = empirical_positions(sources()[name], target, window, make_rng(window))
        want = positions_reference(sources()[name], target, window, make_rng(window))
        assert (est.x_hat, est.y_hat, float(est.target.x), float(est.target.y)) == want
