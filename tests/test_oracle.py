"""Exact brute-force references and their closed-form cross-checks."""

import itertools
from fractions import Fraction as F
from math import comb, factorial

import pytest

from quasishuffle import oracle
from quasishuffle.errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyCounts,
    ExactUnavailable,
    NotPurelyAtomic,
    QuasiShuffleError,
)
from quasishuffle.kernels import AffinePiece, ShuffleMap, shuffle_map_from_measure
from quasishuffle.measure import (
    LEFT,
    RIGHT,
    GapInterval,
    MeasureMixture,
    QuasiUniformMeasure,
    a_shuffle,
    gsr,
    interior_atom_fixture,
    lebesgue,
    mixed_fixture,
)
from quasishuffle.oracle import (
    PermutationDistribution,
    combine_distributions,
    convolve,
    exact_coupling_step_distribution,
    exact_map_step_distribution,
    exact_ordering_distribution,
    exact_step_distribution,
    invert_distribution,
    mixing_curve,
    ranking_probability,
    restrict_distribution,
    transition_matrix,
    tv_distance,
)
from quasishuffle.ordering import ordering_counts, sample_ordering_batch
from quasishuffle.permutations import all_permutations, compose, invert
from quasishuffle.stats import empirical_tv

from conftest import atomic_params, make_rng, measure_params

REVERSAL = QuasiUniformMeasure((GapInterval(F(0), F(1), LEFT),))


def test_distribution_validation():
    with pytest.raises(DimensionMismatch):
        PermutationDistribution(2, {(1, 1): F(1)})
    with pytest.raises(ValueError):
        PermutationDistribution(2, {(1, 2): F(2), (2, 1): F(-1)})
    with pytest.raises(ValueError):
        PermutationDistribution(2, {(1, 2): F(1, 2)})
    d = PermutationDistribution(2, {(1, 2): F(1), (2, 1): F(0)})
    assert d.support() == [(1, 2)]
    assert d.prob((2, 1)) == 0


def test_distribution_constructors():
    u = PermutationDistribution.uniform(3)
    assert all(u.prob(p) == F(1, 6) for p in all_permutations(3))
    pm = PermutationDistribution.point_mass((2, 1, 3))
    assert pm.prob((2, 1, 3)) == 1
    fc = PermutationDistribution.from_counts(2, {(1, 2): 3, (2, 1): 1})
    assert fc.prob((1, 2)) == F(3, 4)
    for counts in ({}, {(1, 2): 0}):
        with pytest.raises(EmptyCounts, match="^no observations$"):
            PermutationDistribution.from_counts(2, counts)


def test_distribution_json_round_trip():
    d = exact_ordering_distribution(gsr(), 3)
    again = PermutationDistribution.from_json(d.to_json())
    assert again == d
    assert d.to_json()["probs"]["123"] == "1/2"


def test_tv_distance_examples():
    u2 = PermutationDistribution.uniform(2)
    delta = PermutationDistribution.point_mass((1, 2))
    swap = PermutationDistribution.point_mass((2, 1))
    assert tv_distance(delta, u2) == F(1, 2)
    assert tv_distance(delta, delta) == 0
    assert tv_distance(delta, swap) == 1
    with pytest.raises(DimensionMismatch):
        tv_distance(delta, PermutationDistribution.uniform(3))


def test_frozen_law_gsr_two_cards():
    d = exact_ordering_distribution(gsr(), 2)
    assert d.probs == {(1, 2): F(3, 4), (2, 1): F(1, 4)}


def test_frozen_law_gsr_three_cards():
    d = exact_ordering_distribution(gsr(), 3)
    assert d.probs == {
        (1, 2, 3): F(1, 2),
        (1, 3, 2): F(1, 8),
        (2, 1, 3): F(1, 8),
        (2, 3, 1): F(1, 8),
        (3, 1, 2): F(1, 8),
    }
    assert d.prob((3, 2, 1)) == 0


def test_frozen_law_three_part_shuffle_two_cards():
    d = exact_ordering_distribution(a_shuffle(3), 2)
    assert d.probs == {(1, 2): F(2, 3), (2, 1): F(1, 3)}


def test_frozen_law_conjugate_gsr_two_cards():
    d = exact_ordering_distribution(gsr().conjugate(), 2)
    assert d.probs == {(1, 2): F(1, 4), (2, 1): F(3, 4)}


def test_frozen_law_reversal_and_uniform():
    assert exact_ordering_distribution(REVERSAL, 4).probs == {
        (4, 3, 2, 1): F(1)
    }
    assert exact_ordering_distribution(lebesgue(), 3) == (
        PermutationDistribution.uniform(3)
    )


def test_frozen_law_mixed_two_cards():
    d = exact_ordering_distribution(mixed_fixture(), 2)
    assert d.probs == {(1, 2): F(1, 2), (2, 1): F(1, 2)}


def _rising_sequences(perm) -> int:
    pos = {v: i for i, v in enumerate(perm)}
    return 1 + sum(pos[k + 1] < pos[k] for k in range(1, len(perm)))


@pytest.mark.parametrize("parts", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equal_part_law_matches_binomial_formula(parts, n):
    """Equal right-atom gaps reproduce the classical multi-part shuffle law.

    The probability of a ranking depends only on its number of rising
    sequences r: choose(parts + n - r, n) / parts**n.
    """
    d = exact_ordering_distribution(a_shuffle(parts), n)
    for p in all_permutations(n):
        r = _rising_sequences(p)
        want = F(comb(parts + n - r, n), parts**n)
        assert d.prob(p) == want, (p, r)


def test_step_kind_one_is_ordering_law():
    for n in (2, 3, 4):
        assert exact_step_distribution(gsr(), n, "one") == (
            exact_ordering_distribution(gsr(), n)
        )


def test_step_kind_two_is_inverse_law():
    for n in (2, 3, 4):
        d = exact_ordering_distribution(gsr(), n)
        assert exact_step_distribution(gsr(), n, "two") == invert_distribution(d)
    with pytest.raises(ValueError):
        exact_step_distribution(gsr(), 3, "three")


def test_inverse_law_differs_from_forward_at_four_cards():
    d = exact_ordering_distribution(gsr(), 4)
    assert tv_distance(d, invert_distribution(d)) > 0
    # at three cards the riffle law happens to be inversion invariant
    d3 = exact_ordering_distribution(gsr(), 3)
    assert invert_distribution(d3) == d3


@atomic_params()
def test_coupling_route_agrees_with_cell_route(measure):
    for n in (2, 3, 4):
        for kind in ("one", "two"):
            via_coupling = exact_coupling_step_distribution(measure, n, kind)
            via_cells = exact_step_distribution(measure, n, kind)
            assert tv_distance(via_coupling, via_cells) == 0


def test_coupling_route_needs_purely_atomic():
    with pytest.raises(NotPurelyAtomic):
        exact_coupling_step_distribution(mixed_fixture(), 3)
    with pytest.raises(NotPurelyAtomic):
        exact_coupling_step_distribution(lebesgue(), 3)


def test_coupling_route_checks_n_as_the_other_exact_routes():
    with pytest.raises(ValueError, match="^n = -1 is negative$"):
        exact_coupling_step_distribution(gsr(), -1)
    with pytest.raises(CapExceeded, match="^n = 7 above exact cap 6$"):
        exact_coupling_step_distribution(gsr(), 7)


def _coupling_loop(measure, n):
    """Both kinds of the coupling route, one (gap assignment, u-rank vector)
    pair at a time in Python ints: the route before it ranked arrays."""
    gaps = measure.gaps
    mass_num, den = oracle._over_common_denominator(g.mass for g in gaps)
    counts = {"one": {}, "two": {}}
    span = 2 * n + 1
    sign = [1 if g.atom_side == "right" else -1 for g in gaps]
    ranks = all_permutations(n)
    for assign in itertools.product(range(len(gaps)), repeat=n):
        weight = 1
        for g in assign:
            weight *= mass_num[g]
        offsets = [g * span for g in assign]
        signs = [sign[g] for g in assign]
        for u_ranks in ranks:
            v_key = [offsets[i] + signs[i] * u_ranks[i] for i in range(n)]
            order = sorted(range(n), key=v_key.__getitem__)
            v_ranks = [0] * n
            for pos, i in enumerate(order):
                v_ranks[i] = pos + 1
            one, two = [0] * n, [0] * n
            for i in range(n):
                one[u_ranks[i] - 1] = v_ranks[i]
                two[v_ranks[i] - 1] = u_ranks[i]
            for kind, sigma in (("one", one), ("two", two)):
                key = tuple(sigma)
                counts[kind][key] = counts[kind].get(key, 0) + weight
    total = den**n * factorial(n)
    return {
        kind: PermutationDistribution(n, {p: F(c, total) for p, c in law.items()})
        for kind, law in counts.items()
    }


COUPLING_MEASURES = {
    "gsr": gsr(),
    "gsr-conjugate": gsr().conjugate(),
    "a-shuffle-3": a_shuffle(3),
    "left-atoms": QuasiUniformMeasure(
        (GapInterval(F(0), F(1, 3), LEFT), GapInterval(F(1, 3), F(1), LEFT))
    ),
    # both atoms sit at 1/2
    "touching": QuasiUniformMeasure(
        (GapInterval(F(0), F(1, 2), RIGHT), GapInterval(F(1, 2), F(1), LEFT))
    ),
}


@pytest.mark.parametrize("name", sorted(COUPLING_MEASURES))
def test_coupling_route_equals_loop_reference(name):
    measure = COUPLING_MEASURES[name]
    for n in range(0, 7):
        want = _coupling_loop(measure, n)
        for kind in ("one", "two"):
            assert exact_coupling_step_distribution(measure, n, kind) == want[kind]


def test_map_route_agrees_with_inverse_law():
    for measure in (gsr(), a_shuffle(3)):
        smap = shuffle_map_from_measure(measure)
        for n in (2, 3, 4):
            want = exact_step_distribution(measure, n, "two")
            assert tv_distance(exact_map_step_distribution(smap, n), want) == 0


def test_map_route_needs_onto_pieces():
    halves = ShuffleMap(
        (
            AffinePiece(F(0), F(1, 2), F(1), F(0)),
            AffinePiece(F(1, 2), F(1), F(1), F(0)),
        )
    )
    with pytest.raises(ExactUnavailable):
        exact_map_step_distribution(halves, 3)


def test_exact_caps():
    with pytest.raises(CapExceeded):
        exact_ordering_distribution(gsr(), 7)
    # the likelihood engine caps n only; nine cells are no obstacle
    d = exact_ordering_distribution(a_shuffle(9), 3)
    for p in all_permutations(3):
        assert d.prob(p) == F(comb(9 + 3 - _rising_sequences(p), 3), 9**3)
    # the cells^n enumeration keeps its cell cap
    with pytest.raises(CapExceeded):
        oracle._cell_enumeration(a_shuffle(9), 3)
    assert oracle._cell_enumeration(a_shuffle(9), 3, max_cells=9) == d


def test_restriction_marginalizes():
    assert restrict_distribution(exact_ordering_distribution(gsr(), 3), 2) == (
        exact_ordering_distribution(gsr(), 2)
    )
    d = exact_ordering_distribution(gsr(), 4)
    assert restrict_distribution(d, 4) == d
    assert restrict_distribution(d, 1).probs == {(1,): F(1)}
    with pytest.raises(DimensionMismatch):
        restrict_distribution(d, 5)


def test_combine_distributions():
    mix = combine_distributions(
        [
            (F(1, 2), PermutationDistribution.point_mass((1, 2))),
            (F(1, 2), PermutationDistribution.point_mass((2, 1))),
        ]
    )
    assert mix == PermutationDistribution.uniform(2)
    with pytest.raises(DimensionMismatch):
        combine_distributions(
            [
                (F(1, 2), PermutationDistribution.uniform(2)),
                (F(1, 2), PermutationDistribution.uniform(3)),
            ]
        )
    with pytest.raises(ValueError, match="at least one component"):
        combine_distributions([])


def test_mixture_ordering_law():
    mix = MeasureMixture(((F(1, 3), gsr()), (F(2, 3), REVERSAL)))
    d = exact_ordering_distribution(mix, 3)
    assert d.prob((3, 2, 1)) == F(2, 3)
    assert d.prob((1, 2, 3)) == F(1, 3) * F(1, 2)


def test_transition_matrix_is_doubly_stochastic():
    step = exact_step_distribution(gsr(), 3, "two")
    perms, rows = transition_matrix(step)
    assert len(perms) == 6 and len(rows) == 6
    for row in rows:
        assert sum(row) == 1
    for j in range(6):
        assert sum(row[j] for row in rows) == 1


def test_transition_matrix_matches_convolution():
    step = exact_step_distribution(gsr(), 3, "two")
    perms, rows = transition_matrix(step)
    for i, start in enumerate(perms):
        after = convolve(step, PermutationDistribution.point_mass(start))
        for j, target in enumerate(perms):
            assert rows[i][j] == after.prob(target)


def test_convolution_composes_on_the_left():
    step = exact_step_distribution(REVERSAL, 3)
    state = PermutationDistribution.point_mass((2, 3, 1))
    after = convolve(step, state)
    assert after == PermutationDistribution.point_mass(
        compose((3, 2, 1), (2, 3, 1))
    )
    # a second reversal undoes the first
    assert convolve(step, after) == state


def test_uniform_is_stationary():
    u = PermutationDistribution.uniform(3)
    for kind in ("one", "two"):
        step = exact_step_distribution(gsr(), 3, kind)
        assert convolve(step, u) == u


def _tv_equal_part_shuffle(parts: int, n: int) -> F:
    """Closed-form distance to uniform of one parts-way shuffle."""
    total = F(0)
    for p in all_permutations(n):
        r = _rising_sequences(p)
        total += abs(F(comb(parts + n - r, n), parts**n) - F(1, factorial(n)))
    return total / 2


def test_mixing_curve_frozen_prefix():
    curve = mixing_curve(gsr(), 4, "two", steps=3)
    assert curve == [F(23, 24), F(1, 2), F(9, 32), F(37, 256)]


def test_mixing_curve_matches_power_of_two_shuffles():
    """h riffle steps mix exactly like one 2**h-part shuffle."""
    curve = mixing_curve(gsr(), 4, "two", steps=5)
    for h in range(1, 6):
        assert curve[h] == _tv_equal_part_shuffle(2**h, 4)


def test_mixing_curve_monotone():
    curve = mixing_curve(gsr(), 4, "one", steps=8)
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert curve[0] == F(23, 24)


def test_mixing_curve_identity_is_constant():
    ident = QuasiUniformMeasure((GapInterval(F(0), F(1), RIGHT),))
    curve = mixing_curve(ident, 4, "two", steps=6)
    assert curve == [F(23, 24)] * 7


def test_mixing_curve_uniform_after_one_step():
    curve = mixing_curve(lebesgue(), 3, "one", steps=3)
    assert curve == [F(5, 6), F(0), F(0), F(0)]


def test_mixing_curve_raises_when_tv_increases(monkeypatch):
    # a raise, not an assert, so the check survives python -O; a plain
    # measure's curve comes from the transfer kernel, a mixture's from
    # convolutions, and the check covers both
    bad = [F(1, 2), F(1, 4), F(1, 3)]
    monkeypatch.setattr(oracle, "_transfer_curve", lambda measure, n, steps: list(bad))
    with pytest.raises(QuasiShuffleError, match="must not increase: 1/4 -> 1/3"):
        mixing_curve(gsr(), 3, "one", steps=2)
    values = iter(bad)
    monkeypatch.setattr(oracle, "tv_distance", lambda state, uniform: next(values))
    with pytest.raises(QuasiShuffleError, match="must not increase: 1/4 -> 1/3"):
        mixing_curve(MeasureMixture(((F(1, 2), gsr()), (F(1, 2), REVERSAL))), 3, "one", steps=2)


def test_mixing_curve_rejects_negative_steps():
    with pytest.raises(ValueError):
        mixing_curve(gsr(), 3, "one", steps=-1)
    assert mixing_curve(gsr(), 3, "one", steps=0) == [F(5, 6)]


@measure_params()
def test_monte_carlo_concordance(measure):
    rng = make_rng(17)
    exact = exact_ordering_distribution(measure, 4)
    counts = ordering_counts(measure, [1, 2, 3, 4], 100000, rng)
    assert float(empirical_tv(counts, exact)) < 0.02


def test_invert_distribution_involution():
    d = exact_ordering_distribution(gsr(), 4)
    assert invert_distribution(invert_distribution(d)) == d
    for p, mass in d.probs.items():
        assert invert_distribution(d).prob(invert(p)) == mass


MIXTURE = MeasureMixture(((F(1, 2), gsr()), (F(1, 2), REVERSAL)))
CANDIDATE = interior_atom_fixture()
# every exact route and sampler reads the cell decomposition, which takes a
# plain measure; a mixture's own routes split it into components first
NOT_PLAIN = {
    "ranking_probability-mixture": lambda: ranking_probability(MIXTURE, (1, 2, 3)),
    "ranking_probability-candidate": lambda: ranking_probability(CANDIDATE, (1, 2, 3)),
    "exact_ordering_distribution": lambda: exact_ordering_distribution(CANDIDATE, 3),
    "mixing_curve": lambda: mixing_curve(CANDIDATE, 3),
    "sample_ordering_batch": lambda: sample_ordering_batch(CANDIDATE, (1, 2), 3, make_rng(1)),
    "exact_step_distribution": lambda: exact_step_distribution(CANDIDATE, 3, "two"),
}


@pytest.mark.parametrize("route", sorted(NOT_PLAIN))
def test_routes_name_a_source_that_is_not_a_plain_measure(route):
    kind = "MeasureMixture" if route.endswith("mixture") else "CandidateMeasure"
    with pytest.raises(ValueError, match=f"^cell decomposition takes a plain measure, not a {kind}$"):
        NOT_PLAIN[route]()
