"""The bundled property suite as a library entry point."""

from fractions import Fraction as F

from quasishuffle import oracle
from quasishuffle.measure import MeasureMixture, gsr, interior_atom_fixture, lebesgue
from quasishuffle.verify import run_property_suite


def test_suite_passes_on_gsr():
    report = run_property_suite(gsr(), seed=6, n=3, samples=20000, label="gsr")
    assert report.passed
    names = [c.name for c in report.checks]
    assert "quasi-uniform" in names
    assert "ordering-sampler-vs-oracle" in names
    assert "doubly-stochastic" in names
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
    ("ordering-sampler-vs-oracle", True, "TV = 0.01044 over 100000 draws (bound 0.07225)"),
    ("step-sampler-vs-oracle", True, "TV = 0.00871 over 100000 steps (bound 0.07225)"),
    ("doubly-stochastic", True, ""),
    ("likelihood-dp-vs-enumeration", True, "block-cut likelihood vs cell enumeration"),
    ("restriction-consistent", True, ""),
    ("route-equivalence-exact", True, "coupling route vs cell route"),
]


def test_suite_report_is_pinned_on_gsr_six_cards():
    """The exact checks draw nothing, so every statistical detail stays put."""
    report = run_property_suite(gsr(), seed=5, n=6, samples=100_000, label="gsr")
    assert [(c.name, c.passed, c.detail) for c in report.checks] == GSR_N6_SEED5


def test_dp_check_fails_on_a_wrong_law(monkeypatch):
    right = oracle.exact_ordering_distribution

    def reversed_law(source, n, *args):
        return oracle.invert_distribution(right(source, n, *args))

    monkeypatch.setattr(oracle, "exact_ordering_distribution", reversed_law)
    report = run_property_suite(gsr(), seed=5, n=4, samples=20000, label="gsr")
    failed = {c.name for c in report.checks if not c.passed}
    assert "likelihood-dp-vs-enumeration" in failed
