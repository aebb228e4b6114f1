"""The bundled property suite as a library entry point."""

from fractions import Fraction as F

import numpy as np

from quasishuffle import kernels, oracle
from quasishuffle.measure import (
    _LOOKUP_BLOCK,
    MeasureMixture,
    a_shuffle,
    gsr,
    interior_atom_fixture,
    lebesgue,
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
    assert "exchangeability" in names
    assert "component-0-quasi-uniform" in names


GSR_N6_SEED5 = [
    ("quasi-uniform", True, ""),
    ("conjugation-involution", True, ""),
    ("cdf-monotone-normalized", True, ""),
    ("marginal-uniform-forward-u", True, "KS D = 0.00234, p = 0.6426"),
    ("marginal-uniform-forward-v", True, "KS D = 0.00199, p = 0.8253"),
    ("marginal-uniform-inverse-u", True, "KS D = 0.00220, p = 0.7181"),
    ("marginal-uniform-inverse-v", True, "KS D = 0.00225, p = 0.6912"),
    ("ordering-sampler-vs-oracle", True, "TV = 0.00858 over 100000 draws (bound 0.07225)"),
    ("step-sampler-vs-oracle", True, "TV = 0.01002 over 100000 steps (bound 0.07225)"),
    ("likelihood-dp-vs-enumeration", True, "block-cut likelihood vs cell enumeration"),
    ("restriction-consistent", True, ""),
    ("route-equivalence-exact", True, "coupling route vs cell route"),
]


def test_suite_report_is_pinned_on_gsr_six_cards():
    """The exact checks draw nothing, so every statistical detail stays put."""
    report = run_property_suite(gsr(), seed=5, n=6, samples=100_000, label="gsr")
    assert [(c.name, c.passed, c.detail) for c in report.checks] == GSR_N6_SEED5


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


def test_enumeration_check_not_run_above_cell_cap():
    """Nine cells are above the enumeration cap; every other check still runs."""
    report = run_property_suite(a_shuffle(9), seed=5, n=3, samples=20000, label="a9")
    by_name = {c.name: c for c in report.checks}
    skipped = by_name.pop("likelihood-dp-vs-enumeration")
    assert skipped.passed is None
    assert skipped.detail == f"not run: 9 cells above exact cap {oracle.DEFAULT_MAX_CELLS}"
    assert skipped.to_json()["passed"] is None
    assert all(c.passed for c in by_name.values())
    assert {"route-equivalence-exact", "restriction-consistent"} <= set(by_name)
    assert report.passed and report.to_json()["passed"] is True
