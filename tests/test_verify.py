"""The bundled property suite as a library entry point."""

from fractions import Fraction as F

import numpy as np
import pytest

from quasishuffle import kernels, oracle
from quasishuffle.measure import (
    _LOOKUP_BLOCK,
    MeasureMixture,
    a_shuffle,
    gsr,
    interior_atom_fixture,
    lebesgue,
    mixed_fixture,
)
from quasishuffle.verify import run_property_suite


def test_suite_passes_on_gsr():
    report = run_property_suite(gsr(), seed=6, n=3, samples=20000, label="gsr")
    assert report.passed
    names = [c.name for c in report.checks]
    assert "quasi-uniform" in names
    assert "ordering-sampler-vs-oracle" in names
    assert "route-equivalence-exact" in names


def test_suite_flags_interior_atom():
    report = run_property_suite(
        interior_atom_fixture(), seed=6, n=3, samples=2000, label="interior-atom"
    )
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["quasi-uniform"]


def test_suite_handles_mixtures():
    mix = MeasureMixture(((F(1, 2), gsr()), (F(1, 2), lebesgue())))
    report = run_property_suite(mix, seed=8, n=3, samples=20000, label="mix")
    assert report.passed
    names = [c.name for c in report.checks]
    assert "likelihood-dp-vs-enumeration" in names
    assert "restriction-consistent" in names
    assert "component-0-quasi-uniform" in names


GSR_N6_SEED5 = [
    ("quasi-uniform", True, ""),
    ("conjugation-involution", True, ""),
    ("cdf-monotone-normalized", True, ""),
    ("marginal-uniform-forward-v", True, "KS D = 0.00199, p = 0.8253"),
    ("marginal-uniform-inverse-u", True, "KS D = 0.00220, p = 0.7181"),
    ("ordering-sampler-vs-oracle", True, "TV = 0.00858 over 100000 draws (bound 0.07225)"),
    ("likelihood-dp-vs-enumeration", True, "block-cut likelihood vs cell enumeration"),
    ("restriction-consistent", True, ""),
    ("step-sampler-vs-oracle", True, "TV = 0.01002 over 100000 steps (bound 0.07225)"),
    ("route-equivalence-exact", True, "coupling route vs cell route"),
]


def test_suite_report_is_pinned_on_gsr_six_cards():
    """The exact checks draw nothing, so every statistical detail stays put."""
    report = run_property_suite(gsr(), seed=5, n=6, samples=100_000, label="gsr")
    assert [(c.name, c.passed, c.detail) for c in report.checks] == GSR_N6_SEED5


def test_marginal_checks_read_the_measure():
    """Each KS check tests a pair's coupled side, which the measure moves,
    not the generator's own uniform: at one seed no detail is shared."""
    details = [
        {c.name: c.detail for c in run_property_suite(m, seed=5, n=3).checks
         if c.name.startswith("marginal-uniform-")}
        for m in (gsr(), mixed_fixture())
    ]
    assert details[0] and details[0].keys() == details[1].keys()
    assert all(details[0][k] != details[1][k] for k in details[0])


def test_step_pairs_are_drawn_one_row_block_at_a_time(monkeypatch):
    """The step checks rank their pairs block by block, never a whole batch."""
    n, rows = 6, []
    draw = kernels.ConjugateCoupling.draw_batch

    def spy(self, shape, rng):
        if np.ndim(shape):  # (rows, n): a request for step pairs
            rows.append(shape[0])
        return draw(self, shape, rng)

    monkeypatch.setattr(kernels.ConjugateCoupling, "draw_batch", spy)
    assert run_property_suite(gsr(), 5, n=n).passed
    assert rows and sum(rows) == 100_000
    assert max(rows) <= max(1, _LOOKUP_BLOCK // n)


def test_dp_check_fails_on_a_wrong_law(monkeypatch):
    right = oracle.exact_ordering_distribution

    def reversed_law(source, n, *args):
        return oracle.invert_distribution(right(source, n, *args))

    monkeypatch.setattr(oracle, "exact_ordering_distribution", reversed_law)
    report = run_property_suite(gsr(), seed=5, n=4, samples=20000, label="gsr")
    failed = {c.name for c in report.checks if not c.passed}
    assert "likelihood-dp-vs-enumeration" in failed


@pytest.mark.parametrize("at_n", [False, True], ids=["below-n", "at-n"])
def test_mixture_law_checks_fail_on_a_wrong_law(monkeypatch, at_n):
    """A law with the mixture's weights swapped fails restriction below n,
    and the enumeration and the sampler at n."""
    n = 4
    mix = MeasureMixture(((F(1, 3), a_shuffle(3)), (F(2, 3), mixed_fixture())))
    swapped = MeasureMixture(((F(2, 3), a_shuffle(3)), (F(1, 3), mixed_fixture())))
    right = oracle.exact_ordering_distribution

    def wrong_law(source, m, *args):
        return right(swapped if (m == n) == at_n else source, m, *args)

    monkeypatch.setattr(oracle, "exact_ordering_distribution", wrong_law)
    report = run_property_suite(mix, seed=5, n=n, label="mix")
    failed = {c.name for c in report.checks if c.passed is False}
    law_checks = {"ordering-sampler-vs-oracle", "likelihood-dp-vs-enumeration"}
    assert failed == (law_checks | {"restriction-consistent"} if at_n else {"restriction-consistent"})


def test_enumeration_check_not_run_above_cell_cap():
    """Nine cells are above the enumeration cap, for a measure or a mixture
    component; every other check still runs."""
    mix = MeasureMixture(((F(1, 2), gsr()), (F(1, 2), a_shuffle(9))))
    for source, runs in (
        (a_shuffle(9), {"route-equivalence-exact", "restriction-consistent"}),
        (mix, {"ordering-sampler-vs-oracle", "restriction-consistent"}),
    ):
        report = run_property_suite(source, seed=5, n=3, samples=20000, label="a9")
        by_name = {c.name: c for c in report.checks}
        skipped = by_name.pop("likelihood-dp-vs-enumeration")
        assert skipped.passed is None
        assert skipped.detail == f"not run: 9 cells above exact cap {oracle.DEFAULT_MAX_CELLS}"
        assert skipped.to_json()["passed"] is None
        assert all(c.passed for c in by_name.values())
        assert runs <= set(by_name)
        assert report.passed and report.to_json()["passed"] is True
