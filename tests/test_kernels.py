"""Shuffle maps, coupling samplers, steps, walks, kernels."""

from fractions import Fraction as F

import numpy as np
import pytest

from quasishuffle.errors import (
    EmptyCounts,
    ExactUnavailable,
    InvalidGridMatrix,
    InvalidShuffleMap,
    NotPurelyAtomic,
)
from quasishuffle.kernels import (
    AffinePiece,
    ConjugateCoupling,
    CouplingSampler,
    DeterministicCoupling,
    GridCopulaCoupling,
    InverseConjugateCoupling,
    MixtureCoupling,
    ShuffleMap,
    _pair_step_blocks,
    _rank_pairs,
    empirical_mixing_curve,
    empirical_step_counts,
    kernel_matrix,
    resolve_sampler,
    sampler_from_json,
    shuffle_map_from_measure,
    step_batch,
    walk,
)
from quasishuffle.measure import (
    LEFT,
    RIGHT,
    GapInterval,
    MeasureMixture,
    QuasiUniformMeasure,
    a_shuffle,
    cell_decomposition,
    gsr,
    lebesgue,
    mixed_fixture,
    parse_measure,
)
from quasishuffle.oracle import (
    PermutationDistribution,
    exact_step_distribution,
    mixing_curve,
    tv_distance,
)
from quasishuffle.stats import chi_square_goodness, chi_square_two_sample, ks_uniform

from conftest import atomic_params, make_rng
from test_batch_reference import row_counts

IDENTITY = QuasiUniformMeasure((GapInterval(F(0), F(1), RIGHT),))
REVERSAL = QuasiUniformMeasure((GapInterval(F(0), F(1), LEFT),))


# -- shuffle maps ---------------------------------------------------------


def test_affine_piece_evaluation():
    p = AffinePiece(F(0), F(1, 2), F(2), F(0))
    assert p.value(F(1, 4)) == F(1, 2)
    assert p.image() == (F(0), F(1))


def test_gsr_map_is_doubling():
    smap = shuffle_map_from_measure(gsr())
    assert [(p.lo, p.hi, p.slope, p.intercept) for p in smap.pieces] == [
        (F(0), F(1, 2), F(2), F(0)),
        (F(1, 2), F(1), F(2), F(-1)),
    ]
    assert smap(F(3, 10)) == F(3, 5)
    assert smap(F(3, 4)) == F(1, 2)
    for k in range(1000):
        x = F(k, 1000)
        assert smap(x) == (2 * x) % 1 or (x == F(1, 2) and smap(x) == 0)


def test_gsr_map_exact_doubling_on_grid():
    smap = shuffle_map_from_measure(gsr())
    for k in range(1001):
        x = F(k, 1000)
        want = 2 * x - 1 if x >= F(1, 2) else 2 * x
        if x == 1:
            want = F(1)
        assert smap(x) == want


def test_map_right_continuity_and_endpoint():
    smap = shuffle_map_from_measure(gsr())
    assert smap(F(1, 2)) == F(0)
    assert smap(F(1)) == F(1)
    assert smap(F(0)) == F(0)


def test_reversal_map():
    smap = shuffle_map_from_measure(REVERSAL)
    assert [(p.slope, p.intercept) for p in smap.pieces] == [(F(-1), F(1))]
    assert smap(F(1, 4)) == F(3, 4)


def test_three_part_map_is_tripling():
    smap = shuffle_map_from_measure(a_shuffle(3))
    for k in range(31):
        x = F(k, 30)
        if x < 1:
            assert smap(x) == (3 * x) % 1
    assert smap(F(1)) == F(1)


def test_map_needs_purely_atomic():
    with pytest.raises(NotPurelyAtomic):
        shuffle_map_from_measure(lebesgue())
    with pytest.raises(NotPurelyAtomic):
        shuffle_map_from_measure(mixed_fixture())


def test_map_validation_rejects_holes_and_overlaps():
    with pytest.raises(InvalidShuffleMap):
        ShuffleMap((AffinePiece(F(0), F(1, 2), F(2), F(0)),))
    with pytest.raises(InvalidShuffleMap):
        ShuffleMap(
            (
                AffinePiece(F(0), F(3, 4), F(1), F(0)),
                AffinePiece(F(1, 2), F(1), F(1), F(0)),
            )
        )


def test_map_validation_rejects_non_preserving():
    # both halves land on (0, 1/2): preimage density 2 there, 0 elsewhere
    with pytest.raises(InvalidShuffleMap):
        ShuffleMap(
            (
                AffinePiece(F(0), F(1, 2), F(1), F(0)),
                AffinePiece(F(1, 2), F(1), F(1), F(-1, 2)),
            )
        )


def test_map_batch_matches_scalar():
    smap = shuffle_map_from_measure(gsr())
    u, v = DeterministicCoupling(smap).draw_batch(257, make_rng(5))
    for x, y in zip(u, v):
        assert abs(float(smap(F(x).limit_denominator(10**9))) - y) < 1e-9


@pytest.mark.parametrize("x", [-0.1, 1.1, np.nan])
def test_map_batch_rejects_points_outside_unit_interval(x):
    smap = shuffle_map_from_measure(gsr())
    with pytest.raises(ValueError):
        smap.piece_at(x)


def test_map_json_round_trip():
    smap = shuffle_map_from_measure(a_shuffle(3))
    assert ShuffleMap.from_json(smap.to_json()).pieces == smap.pieces


def test_map_preserves_uniform_distribution():
    rng = make_rng(3)
    smap = shuffle_map_from_measure(gsr())
    assert ks_uniform(DeterministicCoupling(smap).draw_batch(30000, rng)[1]).passed


# -- coupling samplers ----------------------------------------------------


def test_forward_coupling_draw_structure(rng):
    # gsr's pairs are (1/2, 0) and (1, 1/2), so v = u / 2 or (1 + u) / 2
    u, v = ConjugateCoupling(gsr()).draw_batch(200, rng)
    assert u.shape == v.shape == (200,)
    assert np.all((0.0 <= u) & (u < 1.0))
    half = v == u / 2
    assert np.all(half | (v == 0.5 + u / 2))
    assert 0 < half.sum() < 200


def test_identity_coupling_gives_v_equal_u(rng):
    u, v = ConjugateCoupling(IDENTITY).draw_batch(50, rng)
    assert np.array_equal(v, u)


@pytest.mark.parametrize("kind", (ConjugateCoupling, InverseConjugateCoupling))
@pytest.mark.parametrize(
    "measure",
    [a_shuffle(3), mixed_fixture(), parse_measure("gap(1/3,2/3,left)")],
    ids=["a-shuffle-3", "mixed", "gap-third-left"],
)
def test_conjugate_rows_are_the_exact_cells(measure, kind):
    """Each cell's row holds its exact slope x - y at an atom, which only
    the float table rounds: float(x - y), not float(x) - float(y)."""
    rows = kind(measure)._rows()
    cells = cell_decomposition(measure).cells
    assert len(rows) == len(cells)
    for c, (mass, u, v) in zip(cells, rows):
        if kind is InverseConjugateCoupling:
            u, v = v, u
        assert mass == c.mass and u == (0, 0, 1)
        assert v == ((c.y, 0, c.x - c.y) if c.kind == "atom" else (0, 1, 0))
    slopes = [float(c.x - c.y) if c.kind == "atom" else 0.0 for c in cells]
    table = kind(measure)._cells
    side = table.u if kind is InverseConjugateCoupling else table.v
    assert np.array_equal(np.broadcast_to(side[2], len(cells)), slopes)


def test_inverse_coupling_swaps_coordinates():
    fwd = ConjugateCoupling(gsr())
    inv = InverseConjugateCoupling(gsr())
    assert inv.measure == fwd.measure
    u, v = inv.draw_batch((20, 10), make_rng(17))
    fu, fv = fwd.draw_batch((20, 10), make_rng(17))
    assert np.array_equal(u, fv) and np.array_equal(v, fu)


def test_deterministic_coupling_applies_map(rng):
    smap = shuffle_map_from_measure(gsr())
    u, v = DeterministicCoupling(smap).draw_batch(100, rng)
    pieces = [smap.piece_at(F(x)) for x in u]
    assert np.array_equal(v, [float(p.slope) * x + float(p.intercept) for p, x in zip(pieces, u)])


def test_grid_copula_validation():
    third = F(1, 9)
    ok = [[third] * 3] * 3
    GridCopulaCoupling(ok)
    with pytest.raises(InvalidGridMatrix):
        GridCopulaCoupling([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])
    with pytest.raises(InvalidGridMatrix):
        GridCopulaCoupling([[F(1, 2)], [F(1, 2)]])
    # row sum off by exactly 1e-12 is already too much
    eps = F(1, 10**12)
    bad = [
        [third + eps, third - eps, third],
        [third, third, third],
        [third - eps, third + eps, third],
    ]
    bad[0][0] += eps
    with pytest.raises(InvalidGridMatrix):
        GridCopulaCoupling(bad)


def test_grid_copula_respects_cells(rng):
    # circulant copula density: each row spreads over two cells
    h = F(1, 6)
    grid = [[h, h, F(0)], [F(0), h, h], [h, F(0), h]]
    sampler = GridCopulaCoupling(grid)
    u, v = sampler.draw_batch(3000, rng)
    counts = np.zeros((3, 3))
    np.add.at(counts, (np.minimum((u * 3).astype(int), 2), np.minimum((v * 3).astype(int), 2)), 1)
    assert counts[0, 2] == 0 and counts[1, 0] == 0 and counts[2, 1] == 0
    assert abs(counts[0, 0] / 3000 - 1 / 6) < 0.04


@pytest.mark.parametrize(
    "weights",
    [(F(1, 2), F(1, 4)), (F(0), F(1)), (F(-1, 2), F(3, 2)), (F(1, 2),)],
    ids=["short-sum", "zero", "negative", "one-half"],
)
def test_mixture_weight_errors_agree(weights):
    """Measure and coupling mixtures reject bad weights with one message."""
    from quasishuffle.errors import InvalidMixture
    from quasishuffle.measure import MeasureMixture

    with pytest.raises(InvalidMixture) as measure_error:
        MeasureMixture(tuple((w, gsr()) for w in weights))
    with pytest.raises(InvalidMixture) as coupling_error:
        MixtureCoupling(tuple((w, ConjugateCoupling(gsr())) for w in weights))
    assert str(coupling_error.value) == str(measure_error.value)


def test_mixture_coupling_validation_and_draws(rng):
    from quasishuffle.errors import InvalidMixture

    with pytest.raises(InvalidMixture):
        MixtureCoupling(((F(1, 2), ConjugateCoupling(gsr())),))
    mix = MixtureCoupling(
        ((F(1, 2), ConjugateCoupling(IDENTITY)), (F(1, 2), DeterministicCoupling(shuffle_map_from_measure(REVERSAL))))
    )
    u, v = mix.draw_batch(50, rng)
    same = v == u
    assert np.all(same | (v == 1 - u))
    assert 0 < same.sum() < 50


def test_coupling_marginals_uniform():
    rng = make_rng(24)
    grid = [[F(1, 9)] * 3] * 3
    samplers = [
        ConjugateCoupling(gsr()),
        ConjugateCoupling(mixed_fixture()),
        InverseConjugateCoupling(gsr()),
        DeterministicCoupling(shuffle_map_from_measure(gsr())),
        GridCopulaCoupling(grid),
        MixtureCoupling(
            ((F(1, 2), ConjugateCoupling(gsr())), (F(1, 2), GridCopulaCoupling(grid)))
        ),
    ]
    for sampler in samplers:
        u, v = sampler.draw_batch(20000, rng)
        assert ks_uniform(u).passed, type(sampler).__name__
        assert ks_uniform(v).passed, type(sampler).__name__


# -- steps and walks ------------------------------------------------------


def test_step_identity_and_reversal(rng):
    assert np.all(step_batch(4, ConjugateCoupling(IDENTITY), 10, rng) == [1, 2, 3, 4])
    smap = shuffle_map_from_measure(REVERSAL)
    assert np.all(step_batch(3, DeterministicCoupling(smap), 10, rng) == [3, 2, 1])


def test_step_batch_law_matches_oracle():
    rng = make_rng(41)
    for kind, sampler in (
        ("one", ConjugateCoupling(gsr())),
        ("two", InverseConjugateCoupling(gsr())),
    ):
        exact = exact_step_distribution(gsr(), 3, kind)
        rows = step_batch(3, sampler, 20000, rng)
        counts = {}
        for row in map(tuple, rows):
            counts[row] = counts.get(row, 0) + 1
        emp = PermutationDistribution.from_counts(3, counts)
        assert float(tv_distance(emp, exact)) < 0.03


def test_scalar_step_law_matches_oracle():
    # one step per call: the single-row case of step_batch
    rng = make_rng(43)
    exact = exact_step_distribution(a_shuffle(3), 3, "one")
    sampler = ConjugateCoupling(a_shuffle(3))
    counts = {}
    for _ in range(4000):
        (row,) = step_batch(3, sampler, 1, rng)
        p = tuple(int(c) for c in row)
        counts[p] = counts.get(p, 0) + 1
    emp = PermutationDistribution.from_counts(3, counts)
    assert float(tv_distance(emp, exact)) < 0.04


@pytest.mark.parametrize("kind", ("one", "two"))
@pytest.mark.parametrize(
    "measure", [mixed_fixture(), parse_measure("gap(1/4,1/2,left)")], ids=["mixed", "left-gap"]
)
def test_ordering_step_law_matches_oracle_and_pair_route(measure, kind):
    # the conjugate step is dealt as an ordering; it must have the exact step
    # law and agree with ranking the coupling's own (u, v) pairs
    sampler = (ConjugateCoupling if kind == "one" else InverseConjugateCoupling)(measure)
    rng = make_rng(47)
    dealt = row_counts(step_batch(4, sampler, 40000, rng))
    paired = row_counts(_rank_pairs(*sampler.draw_batch((40000, 4), rng)))
    exact = exact_step_distribution(measure, 4, kind)
    assert chi_square_goodness(dealt, exact.probs).passed
    assert chi_square_two_sample(dealt, paired).passed


def test_conjugate_steps_never_draw_pairs(monkeypatch):
    def no_pairs(self, shape, rng):
        raise AssertionError("a conjugate step drew (u, v) pairs")

    monkeypatch.setattr(ConjugateCoupling, "draw_batch", no_pairs)
    for sampler in (ConjugateCoupling(mixed_fixture()), InverseConjugateCoupling(gsr())):
        assert step_batch(5, sampler, 10, make_rng(1)).shape == (10, 5)
        assert sum(empirical_step_counts(3, sampler, 100, make_rng(2)).values()) == 100
        assert len(walk(4, sampler, 3, make_rng(3))) == 4
        assert len(empirical_mixing_curve(3, sampler, 2, 50, make_rng(4))) == 3
    # the patch bites where pairs are ranked
    with pytest.raises(AssertionError, match="drew"):
        next(_pair_step_blocks(3, ConjugateCoupling(gsr()), 20, make_rng(5)))


def test_mixtures_never_call_a_components_draw(monkeypatch):
    """A mixture draws from its one table of all its components' cells,
    nested mixtures' included, never through a component's `draw_batch`."""

    def no_pairs(self, shape, rng):
        raise AssertionError("a mixture called a component's draw")

    grid = GridCopulaCoupling([[F(1, 2), 0], [0, F(1, 2)]])
    smap = DeterministicCoupling(shuffle_map_from_measure(a_shuffle(3)))
    inner = MixtureCoupling([(F(1, 2), ConjugateCoupling(gsr())), (F(1, 2), grid)])
    mixtures = (
        MixtureCoupling([(1, ConjugateCoupling(gsr()))]),
        MixtureCoupling(
            [(F(1, 3), ConjugateCoupling(gsr())), (F(2, 3), InverseConjugateCoupling(mixed_fixture()))]
        ),
        MixtureCoupling([(F(1, 4), smap), (F(1, 4), inner), (F(1, 2), InverseConjugateCoupling(a_shuffle(3)))]),
    )
    for cls in (ConjugateCoupling, InverseConjugateCoupling, DeterministicCoupling, GridCopulaCoupling):
        monkeypatch.setattr(cls, "draw_batch", no_pairs)
    monkeypatch.setattr(inner, "draw_batch", no_pairs.__get__(inner))
    for sampler in mixtures:
        assert step_batch(5, sampler, 10, make_rng(1)).shape == (10, 5)
        assert sum(empirical_step_counts(3, sampler, 100, make_rng(2)).values()) == 100


def test_conjugate_coupling_of_a_measure_mixture_draws_no_pairs():
    """A measure mixture draws one component per ordering, so its
    conjugate coupling has no cells: it steps, counts and walks, but draws
    no pairs, and no coupling mixture takes it.  Listing the measure
    mixture's components as the mixture's own draws one per card."""
    from quasishuffle.errors import InvalidMixture

    mixture = MeasureMixture(((F(1, 2), IDENTITY), (F(1, 2), REVERSAL)))
    grid = GridCopulaCoupling([[F(1, 2), 0], [0, F(1, 2)]])
    coupling = ConjugateCoupling(mixture)
    with pytest.raises(ValueError, match="plain measure"):
        coupling.draw_batch((10, 4), make_rng(1))
    with pytest.raises(InvalidMixture, match="own conjugate coupling"):
        MixtureCoupling([(F(1, 2), coupling), (F(1, 2), grid)])
    with pytest.raises(InvalidMixture, match="own conjugate coupling"):
        MixtureCoupling([(F(1, 2), InverseConjugateCoupling(mixture)), (F(1, 2), grid)])
    assert step_batch(4, coupling, 10, make_rng(2)).shape == (10, 4)
    assert sum(empirical_step_counts(3, coupling, 100, make_rng(3)).values()) == 100
    assert len(walk(4, coupling, 3, make_rng(4))) == 4
    per_card = MixtureCoupling(
        [(F(1, 4), ConjugateCoupling(IDENTITY)), (F(1, 4), ConjugateCoupling(REVERSAL)), (F(1, 2), grid)]
    )
    u, v = per_card.draw_batch((1000, 4), make_rng(5))
    identity = v == u
    # each card draws its own component: a block shares none
    assert 0.15 < identity.mean() < 0.35 and (v == 1 - u).any()
    assert step_batch(4, per_card, 10, make_rng(6)).shape == (10, 4)


def test_mixture_refuses_a_component_without_cells():
    from quasishuffle.errors import InvalidMixture

    class OwnDraw(CouplingSampler):
        def draw_batch(self, shape, rng):
            u = rng.random(shape)
            return u, u

    class NoCells(CouplingSampler):
        pass

    for component in (OwnDraw(), NoCells(), gsr()):
        with pytest.raises(InvalidMixture, match="no cell table"):
            MixtureCoupling([(F(1, 2), ConjugateCoupling(gsr())), (F(1, 2), component)])
    # a subclass of its own draw still steps on its own
    assert step_batch(3, OwnDraw(), 5, make_rng(1)).tolist() == [[1, 2, 3]] * 5


def test_empirical_step_counts_same_law(rng):
    counts = empirical_step_counts(3, ConjugateCoupling(gsr()), 20000, rng)
    exact = exact_step_distribution(gsr(), 3)
    emp = PermutationDistribution.from_counts(3, counts)
    assert float(tv_distance(emp, exact)) < 0.03


def test_walk_composition(rng):
    states = walk(4, ConjugateCoupling(IDENTITY), 5, rng)
    assert states == [(1, 2, 3, 4)] * 6
    smap = shuffle_map_from_measure(REVERSAL)
    states = walk(3, DeterministicCoupling(smap), 4, rng, start=(2, 3, 1))
    assert states[0] == (2, 3, 1)
    assert states[1] == (2, 1, 3)
    assert states[2] == (2, 3, 1)
    with pytest.raises(ValueError):
        walk(3, ConjugateCoupling(IDENTITY), 2, rng, start=(1, 1, 2))


@pytest.mark.parametrize(
    "sampler",
    [
        ConjugateCoupling(mixed_fixture()),
        InverseConjugateCoupling(a_shuffle(3)),
        DeterministicCoupling(shuffle_map_from_measure(gsr())),
    ],
    ids=["forward", "inverse", "deterministic"],
)
def test_walk_runs_on_step_batch(sampler):
    n, steps = 7, 12
    states = walk(n, sampler, steps, make_rng(61))
    rows = step_batch(n, sampler, steps, make_rng(61))
    want = [tuple(range(1, n + 1))]
    for sigma in rows:
        want.append(tuple(int(sigma[v - 1]) for v in want[-1]))
    assert states == want


def test_empirical_mixing_tracks_exact(rng):
    exact = mixing_curve(gsr(), 3, "two", steps=4)
    emp = empirical_mixing_curve(3, InverseConjugateCoupling(gsr()), 4, 4000, rng)
    assert len(emp) == 5
    for e, x in zip(emp, exact):
        assert abs(e - float(x)) < 0.05


def test_empirical_mixing_rejects_bad_sizes(rng):
    sampler = ConjugateCoupling(gsr())
    with pytest.raises(ValueError):
        empirical_mixing_curve(3, sampler, -1, 100, rng)
    with pytest.raises(ValueError):
        empirical_mixing_curve(3, sampler, 2, 0, rng)
    assert empirical_mixing_curve(3, sampler, 0, 1, rng) == [pytest.approx(5 / 6)]


# -- kernel matrices ------------------------------------------------------


@atomic_params()
def test_kernel_matrix_exact_forward(measure):
    d = kernel_matrix(3, ConjugateCoupling(measure))
    assert d == exact_step_distribution(measure, 3, "one")


@atomic_params()
def test_kernel_matrix_exact_inverse(measure):
    d = kernel_matrix(3, InverseConjugateCoupling(measure))
    assert d == exact_step_distribution(measure, 3, "two")


def test_kernel_matrix_exact_deterministic():
    smap = shuffle_map_from_measure(gsr())
    d = kernel_matrix(3, DeterministicCoupling(smap))
    assert d == exact_step_distribution(gsr(), 3, "two")


def test_kernel_matrix_exact_mixture():
    # the component is drawn per card, so the step law is not the mixture of
    # the components' laws and no exact route exists
    mix = MixtureCoupling(
        (
            (F(1, 2), ConjugateCoupling(gsr())),
            (F(1, 2), InverseConjugateCoupling(gsr())),
        )
    )
    with pytest.raises(ExactUnavailable):
        kernel_matrix(3, mix)
    d = kernel_matrix(3, mix, mode="mc", samples=1000, rng=make_rng(5))
    assert sum(d.probs.values()) == 1


def test_kernel_matrix_grid_has_no_exact_route():
    grid = GridCopulaCoupling([[F(1, 9)] * 3] * 3)
    with pytest.raises(ExactUnavailable):
        kernel_matrix(3, grid)
    d = kernel_matrix(2, grid, mode="mc", samples=4000, rng=make_rng(9))
    assert abs(float(d.prob((1, 2))) - 0.5) < 0.05


def test_kernel_matrix_mc_agrees_with_exact():
    d = kernel_matrix(
        3, ConjugateCoupling(gsr()), mode="mc", samples=30000, rng=make_rng(77)
    )
    assert float(tv_distance(d, exact_step_distribution(gsr(), 3))) < 0.03
    with pytest.raises(ValueError):
        kernel_matrix(3, ConjugateCoupling(gsr()), mode="fast")
    with pytest.raises(ValueError):
        kernel_matrix(3, ConjugateCoupling(gsr()), mode="mc")


def test_step_counts_reject_a_negative_size():
    # the same error as step_batch, and so from kernel_matrix's mc mode
    with pytest.raises(ValueError, match="^size = -5 is negative$"):
        empirical_step_counts(3, ConjugateCoupling(gsr()), -5, make_rng(1))
    with pytest.raises(ValueError, match="^size = -3 is negative$"):
        kernel_matrix(3, ConjugateCoupling(gsr()), mode="mc", samples=-3, rng=make_rng(1))
    assert empirical_step_counts(3, ConjugateCoupling(gsr()), 0, make_rng(1)) == {}


def test_mc_kernel_of_no_samples_has_no_observations():
    with pytest.raises(EmptyCounts, match="^no observations$"):
        kernel_matrix(3, ConjugateCoupling(gsr()), mode="mc", samples=0, rng=make_rng(1))


@pytest.mark.parametrize("n", (4, 9, 21))
@pytest.mark.parametrize("kind", (ConjugateCoupling, InverseConjugateCoupling))
def test_step_counts_of_no_samples_are_empty(kind, n):
    # S_n indices in dense bins at 4 cards and by `np.unique` at 9, whose
    # type-two histogram is inverted, and rows at 21
    assert empirical_step_counts(n, kind(gsr()), 0, make_rng(1)) == {}
    with pytest.raises(EmptyCounts, match="^no observations$"):
        kernel_matrix(n, kind(gsr()), mode="mc", samples=0, rng=make_rng(1))


# -- sampler resolution ---------------------------------------------------


def test_resolve_sampler_shorthand():
    assert isinstance(resolve_sampler("nu_mu:gsr"), ConjugateCoupling)
    assert isinstance(resolve_sampler("nu_mu_star:gsr"), InverseConjugateCoupling)
    det = resolve_sampler("deterministic:gsr")
    assert isinstance(det, DeterministicCoupling)
    assert det.map(F(3, 10)) == F(3, 5)
    with pytest.raises(ValueError):
        resolve_sampler("nu_mu:not-a-measure")
    with pytest.raises(ValueError):
        resolve_sampler("warp:gsr")


def test_resolve_sampler_shorthand_wins_over_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid_json = '{"type": "grid", "grid": [["1/4", "1/4"], ["1/4", "1/4"]]}'
    for name in ("nu_mu:gsr", "deterministic:gsr", "grid.json"):
        (tmp_path / name).write_text(grid_json)
    forward = resolve_sampler("nu_mu:gsr")
    assert isinstance(forward, ConjugateCoupling) and forward.measure == gsr()
    assert isinstance(resolve_sampler("deterministic:gsr"), DeterministicCoupling)
    assert isinstance(resolve_sampler("grid.json"), GridCopulaCoupling)


def test_sampler_from_json_schemas():
    mix = sampler_from_json(
        {
            "type": "mixture",
            "components": [
                {"weight": "1/4", "sampler": {"type": "nu_mu", "measure": "gsr"}},
                {
                    "weight": "3/4",
                    "sampler": {"type": "deterministic", "measure": "gsr"},
                },
            ],
        }
    )
    assert isinstance(mix, MixtureCoupling)
    assert [w for w, _ in mix.components] == [F(1, 4), F(3, 4)]
    grid = sampler_from_json({"type": "grid", "grid": [["1/9"] * 3] * 3})
    assert isinstance(grid, GridCopulaCoupling)
    det = sampler_from_json(
        {
            "type": "deterministic",
            "pieces": [
                {"lo": "0", "hi": "1", "slope": "-1", "intercept": "1"}
            ],
        }
    )
    assert det.map(F(1, 4)) == F(3, 4)
    with pytest.raises(ValueError):
        sampler_from_json({"type": "warp"})
