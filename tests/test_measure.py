"""Measures, conjugation, the candidate predicate, and pair sampling."""

import itertools
from fractions import Fraction as F
from math import ceil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasishuffle.errors import (
    DegenerateGap,
    IncomparableSamples,
    OutOfRange,
    OverlappingGaps,
    QuasiShuffleError,
)
from quasishuffle.measure import (
    LEFT,
    RIGHT,
    CandidateMeasure,
    GapInterval,
    MeasureMixture,
    QuasiUniformMeasure,
    _weight_guide,
    a_shuffle,
    cell_decomposition,
    gsr,
    interior_atom_fixture,
    is_quasi_uniform,
    lebesgue,
    mixed_fixture,
    parse_measure,
    resolve_source,
    sample_conjugate_batch,
    sample_conjugate_pair,
    source_from_json,
    validate,
)
from quasishuffle.stats import ks_measure_marginal

from conftest import builtin_measures, eager_pairs, make_rng, measure_params, measure_strategy


@pytest.mark.parametrize(
    "weights",
    [
        (F(1, 3), F(2, 3)),
        (F(1, 2), F(1, 2)),
        (F(1, 7), F(5, 7), F(1, 7)),
        (F(1, 3), F(1, 3), F(1, 3)),
        # cumulative weights whose float sum ends below 1
        (F(9, 28), F(18, 28), F(1, 28)),
        (F(1, 13), F(3, 13), F(3, 13), F(3, 13), F(3, 13)),
    ],
)
@pytest.mark.parametrize("shape", [1, 5000, (700, 9)])
def test_component_draws_are_those_of_rng_choice(weights, shape):
    """The components a mixture draws, one uniform each through its weight
    guide, are those a search over ceil(F * 2^53) of the exact cumulative
    weights F finds for k = u * 2^53, and the draw uses the generator as
    `rng.choice` does: the next draws agree.  At this seed they are also
    `rng.choice`'s with p = weights / sum, which differs only at the draws
    between a float cumulative weight and the exact one."""
    comps = tuple((w, f"c{k}") for k, w in enumerate(weights))
    rng, ref, choice = make_rng(11), make_rng(11), make_rng(11)
    edges = [ceil(f * 2**53) for f in itertools.accumulate(weights, initial=F(0))]
    k = (ref.random(shape) * 2.0**53).astype(np.int64)
    want = np.searchsorted(edges, k, side="right") - 1
    got = _weight_guide(comps).lookup(rng.random(shape))
    assert got.shape == want.shape and np.array_equal(got, want)
    p = np.array([float(w) for w in weights])
    assert np.array_equal(got, choice.choice(len(weights), size=shape, p=p / p.sum()))
    assert rng.random() == ref.random() == choice.random()


def test_gap_interval_accessors():
    g = GapInterval(F(1, 4), F(1, 2), RIGHT)
    assert g.mass == F(1, 4)
    assert g.atom_position == F(1, 2)
    assert g.conjugate_position == F(1, 4)
    assert g.flipped() == GapInterval(F(1, 4), F(1, 2), LEFT)
    assert g.flipped().atom_position == F(1, 4)


def test_gap_interval_rejects_bad_input():
    with pytest.raises(DegenerateGap):
        GapInterval(F(1, 2), F(1, 2), RIGHT)
    with pytest.raises(OutOfRange):
        GapInterval(F(1, 2), F(3, 2), RIGHT)
    with pytest.raises(ValueError):
        GapInterval(F(0), F(1), "middle")


def test_overlapping_gaps_rejected():
    with pytest.raises(OverlappingGaps):
        QuasiUniformMeasure(
            (GapInterval(0, F(1, 2), RIGHT), GapInterval(F(1, 4), 1, RIGHT))
        )
    # shared endpoints are fine
    QuasiUniformMeasure(
        (GapInterval(0, F(1, 2), RIGHT), GapInterval(F(1, 2), 1, LEFT))
    )


def test_validate_accepts_tuples_and_sorts():
    m = validate([(F(1, 2), 1, "left"), (0, F(1, 4), "right")])
    assert m.gaps[0].lo == 0 and m.gaps[1].lo == F(1, 2)
    assert validate(m) is m


@pytest.mark.parametrize("build", [validate, lambda gaps: QuasiUniformMeasure(tuple(gaps))])
def test_a_gap_entry_without_three_fields_is_a_value_error(build):
    with pytest.raises(ValueError, match="not enough values to unpack"):
        build([(0, F(1, 2))])


def test_cdf_frozen_values_gsr():
    m = gsr()
    grid = [
        (F(0), F(0)),
        (F(1, 4), F(0)),
        (F(1, 2), F(1, 2)),
        (F(3, 4), F(1, 2)),
        (F(1), F(1)),
    ]
    for x, want in grid:
        assert m.cdf(x) == want
    assert m.cdf_left(F(1, 2)) == 0
    assert m.cdf_left(F(1)) == F(1, 2)
    assert m.atom_mass(F(1, 2)) == F(1, 2)
    assert m.atom_mass(F(1, 4)) == 0


def test_cdf_frozen_values_mixed():
    m = mixed_fixture()
    assert m.cdf(F(1, 4)) == F(1, 4)
    assert m.cdf(F(3, 8)) == F(1, 4)
    assert m.cdf(F(1, 2)) == F(1, 2)
    assert m.cdf_left(F(1, 2)) == F(1, 4)
    assert m.cdf(F(5, 8)) == F(5, 8)
    assert m.cdf(F(3, 4)) == 1
    assert m.cdf_left(F(3, 4)) == F(3, 4)
    assert m.cdf(1) == 1
    assert m.diffuse_mass == F(1, 2)
    assert not m.is_purely_atomic


def test_diffuse_segments():
    assert mixed_fixture().diffuse_segments() == (
        (F(0), F(1, 4)),
        (F(1, 2), F(3, 4)),
    )
    assert gsr().diffuse_segments() == ()
    assert lebesgue().diffuse_segments() == ((F(0), F(1)),)


@measure_params()
def test_cdf_monotone_and_normalized(measure):
    vals = [measure.cdf(F(k, 16)) for k in range(17)]
    assert vals[0] >= 0 and vals[-1] == 1
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    for k in range(17):
        x = F(k, 16)
        assert measure.cdf_left(x) <= measure.cdf(x)
        assert measure.cdf(x) - measure.cdf_left(x) == measure.atom_mass(x)


@measure_params()
def test_conjugation_is_an_involution(measure):
    assert measure.conjugate().conjugate() == measure


@given(measure_strategy())
@settings(max_examples=60, deadline=None)
def test_conjugation_involution_random(measure):
    conj = measure.conjugate()
    assert conj.conjugate() == measure
    assert sum(g.mass for g in conj.gaps) == sum(g.mass for g in measure.gaps)


def _right_quantile(measure, y):
    """inf{x : cdf(x) > y}, scanned exactly over breakpoints (1 outside)."""
    pts = sorted({F(0), F(1)} | {g.lo for g in measure.gaps} | {g.hi for g in measure.gaps})
    flat = {(g.lo, g.hi) for g in measure.gaps}
    for a, b in zip(pts, pts[1:]):
        if measure.cdf(a) > y:
            return a
        if (a, b) not in flat and measure.cdf(a) + (b - a) > y:
            return a + (y - measure.cdf(a))
    return F(1)


@measure_params()
def test_conjugate_cdf_is_right_quantile(measure):
    """The conjugate's cdf inverts the original cdf in the right-continuous sense."""
    conj = measure.conjugate()
    ys = {F(k, 16) for k in range(17)}
    ys |= {measure.cdf(g.lo) for g in measure.gaps}
    ys |= {measure.cdf(g.hi) for g in measure.gaps}
    for y in sorted(ys):
        assert conj.cdf(y) == _right_quantile(measure, y), y


@given(measure_strategy())
@settings(max_examples=40, deadline=None)
def test_conjugate_cdf_is_right_quantile_random(measure):
    conj = measure.conjugate()
    for k in range(0, 13, 2):
        y = F(k, 12)
        assert conj.cdf(y) == _right_quantile(measure, y)


def test_cell_decomposition_frozen_mixed():
    cells = cell_decomposition(mixed_fixture()).cells
    kinds = [(c.kind, c.lo, c.hi) for c in cells]
    assert kinds == [
        ("diffuse", F(0), F(1, 4)),
        ("atom", F(1, 4), F(1, 2)),
        ("diffuse", F(1, 2), F(3, 4)),
        ("atom", F(3, 4), F(1)),
    ]
    assert all(c.mass == F(1, 4) for c in cells)
    atom = cells[1]
    assert (atom.x, atom.y) == (F(1, 2), F(1, 4))
    left_atom = cells[3]
    assert (left_atom.x, left_atom.y) == (F(3, 4), F(1))


def test_cell_decomposition_raises_when_masses_miss_one(monkeypatch):
    # a raise, not an assert, so the check survives python -O; the cache is
    # bypassed, since a cached decomposition is not checked again
    monkeypatch.setattr(QuasiUniformMeasure, "diffuse_segments", lambda self: ())
    with pytest.raises(QuasiShuffleError, match="cell masses sum to 1/2"):
        cell_decomposition.__wrapped__(mixed_fixture())


@measure_params()
def test_cells_are_sorted_and_sum_to_one(measure):
    cells = cell_decomposition(measure).cells
    keys = [c.sort_key() for c in cells]
    assert keys == sorted(keys)
    assert sum(c.mass for c in cells) == 1


@measure_params()
def test_scalar_sampling_classifies_correctly(measure):
    rng = make_rng(7)
    gaps = measure.gaps
    segments = measure.diffuse_segments()
    for _ in range(300):
        s = sample_conjugate_pair(measure, rng)
        if s.is_diffuse:
            assert s.x == s.y
            assert any(lo <= s.x <= hi for lo, hi in segments)
        else:
            g = gaps[s.gap_index]
            assert (s.x, s.y) == (g.atom_position, g.conjugate_position)


@measure_params()
def test_batch_sampling_matches_cells(measure):
    rng = make_rng(11)
    batch = sample_conjugate_batch(measure, 5000, rng)
    cells = cell_decomposition(measure).cells
    x, y = eager_pairs(measure, batch)
    assert batch.cell.shape == (5000,)
    for idx, c in enumerate(cells):
        hit = batch.cell == idx
        if c.kind == "atom":
            assert np.all(x[hit] == float(c.x))
            assert np.all(y[hit] == float(c.y))
        else:
            assert np.all(x[hit] == y[hit])
            assert np.all((x[hit] >= float(c.lo)) & (x[hit] <= float(c.hi)))
    # cell frequencies agree with masses at coarse tolerance
    freqs = np.bincount(batch.cell, minlength=len(cells)) / 5000.0
    for idx, c in enumerate(cells):
        assert abs(freqs[idx] - float(c.mass)) < 0.03


@measure_params()
def test_marginals_x_mu_y_conjugate(measure):
    """x follows the measure itself, y follows its conjugate."""
    rng = make_rng(13)
    x, y = eager_pairs(measure, sample_conjugate_batch(measure, 40000, rng))
    assert ks_measure_marginal(x, measure).passed
    assert ks_measure_marginal(y, measure.conjugate()).passed


def test_is_quasi_uniform_builtins():
    for name, m in builtin_measures().items():
        assert is_quasi_uniform(m), name
        assert is_quasi_uniform(m.to_candidate()), name


def test_is_quasi_uniform_rejects_interior_atom():
    cand = interior_atom_fixture()
    assert cand.atoms == ((F(5, 8), F(1, 4)),)
    assert not is_quasi_uniform(cand)


def test_is_quasi_uniform_split_endpoint_atoms():
    # one gap feeding both its endpoints is fine
    cand = CandidateMeasure(
        gaps=((F(1, 4), F(3, 4)),),
        atoms=((F(1, 4), F(1, 4)), (F(3, 4), F(1, 4))),
    )
    assert is_quasi_uniform(cand)
    m = cand.to_measure()
    assert [g.atom_side for g in m.gaps] == [LEFT, RIGHT]
    assert [(g.lo, g.hi) for g in m.gaps] == [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))]


def test_is_quasi_uniform_needs_balanced_transport():
    # a unit atom at a shared endpoint is reachable from both sides
    cand = CandidateMeasure(
        gaps=((F(0), F(1, 2)), (F(1, 2), F(1))),
        atoms=((F(1, 2), F(1)),),
    )
    assert is_quasi_uniform(cand)
    m = cand.to_measure()
    assert [g.atom_position for g in m.gaps] == [F(1, 2), F(1, 2)]
    # demanding more at an endpoint than its gap can deliver is not
    bad = CandidateMeasure(
        gaps=((F(0), F(1, 2)), (F(1, 2), F(1))),
        atoms=((F(0), F(3, 4)), (F(1), F(1, 4))),
    )
    assert not is_quasi_uniform(bad)
    # balanced across the shared endpoint works
    cand2 = CandidateMeasure(
        gaps=((F(0), F(1, 2)), (F(1, 2), F(1))),
        atoms=((F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4))),
    )
    assert is_quasi_uniform(cand2)


@st.composite
def candidate_strategy(draw, max_gaps: int = 5, denominator: int = 12):
    """Candidates with up to five gaps on a 1/12 grid, touching or apart.

    Half of them split each gap between its two endpoint atoms (feasible)
    and may then move part of one atom's mass elsewhere, off the endpoints
    included; the other half spread the gap length over random endpoint
    atoms, perhaps with one more atom anywhere on a 1/24 grid.
    """
    k = draw(st.integers(min_value=1, max_value=max_gaps))
    cuts = sorted(
        draw(st.lists(st.integers(0, denominator), min_size=2 * k, max_size=2 * k))
    )
    gaps = [
        (F(a, denominator), F(b, denominator)) for a, b in zip(cuts[::2], cuts[1::2]) if a < b
    ]
    assume(gaps)
    ends = sorted({p for g in gaps for p in g})
    anywhere = st.integers(0, 2 * denominator).map(lambda i: F(i, 2 * denominator))
    atoms: dict = {}
    if draw(st.booleans()):
        for lo, hi in gaps:
            cut = lo + (hi - lo) * F(draw(st.integers(0, 4)), 4)
            for pos, mass in ((lo, cut - lo), (hi, hi - cut)):
                atoms[pos] = atoms.get(pos, 0) + mass
        atoms = {p: m for p, m in atoms.items() if m}
        if draw(st.booleans()):
            src = draw(st.sampled_from(sorted(atoms)))
            moved = atoms[src] * F(draw(st.integers(1, 4)), 4)
            dst = draw(st.one_of(st.sampled_from(ends), anywhere))
            atoms[src] -= moved
            atoms[dst] = atoms.get(dst, 0) + moved
    else:
        positions = set(draw(st.lists(st.sampled_from(ends), min_size=1, unique=True)))
        if draw(st.booleans()):
            positions.add(draw(anywhere))
        unit = F(1, 4 * denominator)
        units = sum((hi - lo for lo, hi in gaps), F(0)) / unit
        positions = sorted(positions)[: int(units)]
        inner = sorted(
            draw(
                st.lists(
                    st.integers(1, int(units) - 1),
                    min_size=len(positions) - 1,
                    max_size=len(positions) - 1,
                    unique=True,
                )
            )
        )
        bounds = [0] + inner + [int(units)]
        atoms = {p: (b - a) * unit for p, a, b in zip(positions, bounds, bounds[1:])}
    return CandidateMeasure(tuple(gaps), tuple((p, m) for p, m in atoms.items() if m))


def hall_condition(cand: CandidateMeasure) -> bool:
    """Every set of gaps is no longer than the atoms on its endpoints weigh."""
    atoms = dict(cand.atoms)
    for size in range(1, len(cand.gaps) + 1):
        for subset in itertools.combinations(cand.gaps, size):
            length = sum((hi - lo for lo, hi in subset), F(0))
            reach = {p for gap in subset for p in gap}
            if length > sum((atoms.get(p, 0) for p in reach), F(0)):
                return False
    return True


# an atom off every gap endpoint, inside and outside the gap
@example(CandidateMeasure(((F(1, 4), F(1, 2)),), ((F(3, 8), F(1, 4)),)))
@example(CandidateMeasure(((F(1, 4), F(1, 2)),), ((F(3, 4), F(1, 4)),)))
# touching gaps sharing one atom, fed from both sides
@example(CandidateMeasure(((F(0), F(1, 3)), (F(1, 3), F(1, 2))), ((F(1, 3), F(1, 2)),)))
# an end atom asking more than its one gap can send
@example(
    CandidateMeasure(
        ((F(0), F(1, 4)), (F(1, 4), F(1, 2))),
        ((F(0), F(3, 8)), (F(1, 4), F(1, 8))),
    )
)
# one gap split across both its endpoints
@example(CandidateMeasure(((F(1, 4), F(3, 4)),), ((F(1, 4), F(1, 8)), (F(3, 4), F(3, 8)))))
@given(candidate_strategy())
@settings(max_examples=200, deadline=None)
def test_is_quasi_uniform_is_hall_condition(cand):
    assert is_quasi_uniform(cand) == hall_condition(cand)
    if is_quasi_uniform(cand):
        back = cand.to_measure()
        assert back.to_candidate().atoms == cand.atoms
        for k in range(25):
            assert back.cdf(F(k, 24)) == cand.cdf(F(k, 24))
    else:
        with pytest.raises(ValueError):
            cand.to_measure()


def test_candidate_must_be_probability_measure():
    with pytest.raises(ValueError):
        CandidateMeasure(gaps=((F(0), F(1, 2)),), atoms=())
    with pytest.raises(ValueError):
        CandidateMeasure(gaps=(), atoms=((F(1, 2), F(1, 2)),))


def test_to_measure_round_trip_gsr():
    m = gsr()
    again = m.to_candidate().to_measure()
    assert again == m


@given(measure_strategy())
@settings(max_examples=40, deadline=None)
def test_candidate_round_trip_preserves_cdf(measure):
    cand = measure.to_candidate()
    assert is_quasi_uniform(cand)
    back = cand.to_measure()
    for k in range(13):
        x = F(k, 12)
        assert back.cdf(x) == measure.cdf(x)
        assert back.cdf_left(x) == measure.cdf_left(x)


def test_json_round_trips():
    for m in builtin_measures().values():
        assert source_from_json(m.to_json()) == m
    cand = interior_atom_fixture()
    parsed = source_from_json(cand.to_json())
    assert isinstance(parsed, CandidateMeasure)
    assert parsed.atoms == cand.atoms
    mix = MeasureMixture(((F(1, 2), gsr()), (F(1, 2), lebesgue())))
    parsed_mix = source_from_json(mix.to_json())
    assert isinstance(parsed_mix, MeasureMixture)
    assert parsed_mix.components == mix.components


def test_mixture_validation():
    from quasishuffle.errors import InvalidMixture

    with pytest.raises(InvalidMixture):
        MeasureMixture(((F(1, 2), gsr()), (F(1, 4), lebesgue())))
    with pytest.raises(InvalidMixture):
        MeasureMixture(((F(0), gsr()), (F(1), lebesgue())))


def test_parse_measure_shorthand():
    assert parse_measure("gsr") == gsr()
    assert parse_measure("a-shuffle:4") == a_shuffle(4)
    assert parse_measure("gap(0,1,left)") == QuasiUniformMeasure(
        (GapInterval(F(0), F(1), LEFT),)
    )
    assert parse_measure("gap(1/4, 1/2, right)").gaps[0].hi == F(1, 2)
    with pytest.raises(ValueError):
        parse_measure("no-such-measure")


def test_resolve_source_inline_json():
    src = resolve_source('{"gaps": [{"lo": "0", "hi": "1", "atom_side": "right"}]}')
    assert isinstance(src, QuasiUniformMeasure)
    assert src.gaps[0].atom_side == RIGHT
    assert resolve_source("interior-atom").atoms == ((F(5, 8), F(1, 4)),)


def test_resolve_source_builtins_win_over_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lebesgue_json = '{"gaps": []}'
    for name in ("gsr", "a-shuffle:3", "interior-atom", "gap(0,1,left)"):
        (tmp_path / name).write_text(lebesgue_json)
    assert resolve_source("gsr") == gsr()
    assert resolve_source("a-shuffle:3") == a_shuffle(3)
    assert resolve_source("interior-atom").atoms == ((F(5, 8), F(1, 4)),)
    assert resolve_source("gap(0,1,left)").gaps[0].atom_side == LEFT
    (tmp_path / "custom.json").write_text(lebesgue_json)
    assert resolve_source("custom.json") == lebesgue()


def test_a_shuffle_structure():
    m = a_shuffle(4)
    assert len(m.gaps) == 4
    assert all(g.mass == F(1, 4) for g in m.gaps)
    assert all(g.atom_side == RIGHT for g in m.gaps)
    assert a_shuffle(1).gaps == (GapInterval(F(0), F(1), RIGHT),)
    with pytest.raises(ValueError):
        a_shuffle(0)


def test_incomparable_error_type_exists():
    assert issubclass(IncomparableSamples, Exception)
