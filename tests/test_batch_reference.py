"""The batch samplers against eager references written out here.

The references build every conjugate-pair field at draw time and rank by
argsorting each argsort, as the samplers once did.  The samplers must give
the same arrays, bit for bit, from the same seed.  A conjugate coupling's
step is dealt as the measure's ordering (type two as its row inverse), so
its reference is the ordering one; the coupling's own (u, v) draws, which
mixture steps and `verify` rank, keep the pair reference.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from quasishuffle.kernels import (
    ConjugateCoupling,
    InverseConjugateCoupling,
    MixtureCoupling,
    _rank_pairs,
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
from quasishuffle.ordering import empirical_positions, sample_ordering_batch
from quasishuffle.permutations import _COUNT_WIDTH

from conftest import make_rng

MEASURES = {
    "gsr": gsr(),
    "gsr-conjugate": gsr().conjugate(),
    "a-shuffle-3": a_shuffle(3),
    "mixed": mixed_fixture(),
    "lebesgue": lebesgue(),
    "left-gap": parse_measure("gap(1/4,1/2,left)"),
}
# both sides of the width up to which rows are ranked by counting
SIZES = (1, 2, 8, _COUNT_WIDTH, _COUNT_WIDTH + 1, 52)
FIELDS = ("cell", "rel")


def eager_batch(measure, shape, rng):
    """Every field of a conjugate-pair batch, built at draw time."""
    cells = cell_decomposition(measure).cells
    lo = np.array([float(c.lo) for c in cells])
    cx = np.array([float(c.x) if c.kind == "atom" else np.nan for c in cells])
    cy = np.array([float(c.y) if c.kind == "atom" else np.nan for c in cells])
    inv_len = np.array([1.0 / float(c.hi - c.lo) for c in cells])
    side = np.array(
        [0 if c.kind == "diffuse" else 1 if c.atom_side == "right" else -1 for c in cells],
        dtype=np.int64,
    )
    u = rng.random(shape)
    cell = np.clip(np.searchsorted(np.append(lo, 1.0), u, side="right") - 1, 0, len(cells) - 1)
    sign = side[cell]
    atom = sign != 0
    return {
        "cell": cell,
        "x": np.where(atom, cx[cell], u),
        "y": np.where(atom, cy[cell], u),
        "rel": (u - lo[cell]) * inv_len[cell],
        "sign": sign,
    }


def eager_draw(sampler, shape, rng):
    """(u, v) of a conjugate coupling or a mixture of them, from eager batches."""
    if isinstance(sampler, InverseConjugateCoupling):
        u, v = eager_draw(ConjugateCoupling(sampler.measure), shape, rng)
        return v, u
    if isinstance(sampler, ConjugateCoupling):
        u = rng.random(shape)
        b = eager_batch(sampler.measure, shape, rng)
        return u, b["y"] + u * (b["x"] - b["y"])
    weights = np.array([float(w) for w, _ in sampler.components])
    which = rng.choice(len(weights), size=shape, p=weights / weights.sum())
    u, v = np.empty(shape), np.empty(shape)
    for ci, (_, component) in enumerate(sampler.components):
        mask = which == ci
        if mask.any():
            u[mask], v[mask] = eager_draw(component, int(mask.sum()), rng)
    return u, v


def double_argsort_step(n, sampler, size, rng):
    u, v = eager_draw(sampler, (size, n), rng)
    ranks_u = np.argsort(np.argsort(u, axis=1, kind="stable"), axis=1, kind="stable")
    ranks_v = np.argsort(np.argsort(v, axis=1, kind="stable"), axis=1, kind="stable")
    sigma = np.empty((size, n), dtype=np.int64)
    np.put_along_axis(sigma, ranks_u, ranks_v + 1, axis=1)
    return sigma


def double_argsort_ordering(source, n, size, rng):
    """`sample_ordering_batch` rows.

    A mixture draws its rows' components one row block of `_LOOKUP_BLOCK`
    draws at a time, as `sample_ordering_batch` does; a measure draws the
    whole batch at once.
    """
    if isinstance(source, MeasureMixture):
        rows = max(1, _LOOKUP_BLOCK // n)
        return np.concatenate(
            [mixture_ordering(source, n, min(rows, size - s), rng) for s in range(0, size, rows)]
        )
    b = eager_batch(source, (size, n), rng)
    asc = (np.arange(n) + 1.0) / (n + 2.0)
    within = np.where(b["sign"] == 0, b["rel"], np.where(b["sign"] > 0, asc, 1.0 - asc))
    order = np.argsort(b["cell"] + within, axis=1, kind="stable")
    return np.argsort(order, axis=1, kind="stable") + 1


def mixture_ordering(source, n, size, rng):
    """Rows of a mixture with one component drawn per row, all rows at once."""
    weights = np.array([float(w) for w, _ in source.components])
    which = rng.choice(len(weights), size=size, p=weights / weights.sum())
    out = np.empty((size, n), dtype=np.int64)
    for ci, (_, m) in enumerate(source.components):
        mask = which == ci
        if mask.any():
            out[mask] = double_argsort_ordering(m, n, int(mask.sum()), rng)
    return out


def positions_reference(source, target, window, rng):
    """`empirical_positions` from an eager batch: a mixture draws the
    window's one component as `rng.choice` does, then its measure's batch."""
    measure = source
    if isinstance(source, MeasureMixture):
        weights = np.array([float(w) for w, _ in source.components])
        measure = source.components[rng.choice(len(weights), p=weights / weights.sum())][1]
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


def samplers():
    out = {}
    for name, m in MEASURES.items():
        out[f"one-{name}"] = ConjugateCoupling(m)
        out[f"two-{name}"] = InverseConjugateCoupling(m)
    out["mixture"] = MixtureCoupling(
        [(F(1, 3), ConjugateCoupling(gsr())), (F(2, 3), InverseConjugateCoupling(mixed_fixture()))]
    )
    return out


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


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(sources()))
def test_sample_ordering_batch_equals_double_argsort(name, n):
    source, size = sources()[name], 500
    got = sample_ordering_batch(source, range(1, n + 1), size, make_rng(n))
    assert identical(got, double_argsort_ordering(source, n, size, make_rng(n)))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_lazy_batch_fields_equal_eager(name, n):
    measure, shape = MEASURES[name], (300, n)
    batch = sample_conjugate_batch(measure, shape, make_rng(n))
    want = eager_batch(measure, shape, make_rng(n))
    for field in FIELDS:
        assert identical(getattr(batch, field), want[field]), field
    s = make_rng(n + 1).random(shape)
    assert identical(batch.interpolate(s), want["y"] + s * (want["x"] - want["y"]))


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
