"""Statistical machinery: worked examples, exact corner cases, calibration."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from quasishuffle.errors import DimensionMismatch, EmptyCounts, OutOfRange
from quasishuffle.measure import gsr, lebesgue, mixed_fixture
from quasishuffle.oracle import PermutationDistribution, exact_ordering_distribution
from quasishuffle.stats import (
    _pool,
    chi_square_goodness,
    chi_square_two_sample,
    empirical_tv,
    ks_measure_marginal,
    ks_uniform,
)

from conftest import make_rng

FAIR = {"h": F(1, 2), "t": F(1, 2)}


def test_goodness_accepts_fair_counts():
    report = chi_square_goodness({"h": 2520, "t": 2480}, FAIR)
    assert report.passed
    assert abs(report.statistic - 0.32) < 1e-9
    assert report.samples == 5000
    assert report.detail["df"] == 1


def test_goodness_rejects_biased_counts():
    report = chi_square_goodness({"h": 2600, "t": 2400}, FAIR)
    assert abs(report.statistic - 8.0) < 1e-9
    assert not report.passed
    assert report.p_value < 0.01


def test_goodness_validation():
    with pytest.raises(EmptyCounts):
        chi_square_goodness({}, FAIR)
    with pytest.raises(DimensionMismatch):
        chi_square_goodness({"x": 5}, FAIR)


def test_goodness_pools_small_cells():
    expected = {"big": F(9, 10)}
    for i in range(9):
        expected[f"s{i}"] = F(1, 90)
    counts = {"big": 91, "s0": 5, "s5": 4}
    report = chi_square_goodness(counts, expected)
    # nine slivers collapse into one pooled cell next to the big one
    assert report.detail["df"] == 1
    assert report.passed


def test_goodness_degenerate_support_passes_vacuously():
    report = chi_square_goodness({"h": 7}, {"h": F(1)})
    assert report.passed and report.p_value == 1.0
    assert report.detail["df"] == 0


def test_two_sample_identical_counts():
    counts = {"a": 500, "b": 300, "c": 200}
    report = chi_square_two_sample(counts, dict(counts))
    assert report.statistic == 0.0
    assert report.passed and report.p_value == 1.0


def test_two_sample_detects_disjoint_support():
    report = chi_square_two_sample({"a": 400, "b": 100}, {"a": 100, "b": 400})
    assert not report.passed
    assert report.p_value < 1e-6


def test_two_sample_validation():
    with pytest.raises(EmptyCounts):
        chi_square_two_sample({}, {"a": 3})


def test_two_sample_calibrated_under_null(rng):
    rejections = 0
    for _ in range(400):
        a = rng.multinomial(800, [0.5, 0.3, 0.2])
        b = rng.multinomial(600, [0.5, 0.3, 0.2])
        keys = ("x", "y", "z")
        report = chi_square_two_sample(
            dict(zip(keys, a.tolist())), dict(zip(keys, b.tolist())), alpha=0.05
        )
        rejections += not report.passed
    assert rejections <= 40


def sparse_counts(rng, lo, hi, draws=3000):
    """Counts of `draws` uniform draws from the integers lo..hi-1."""
    values, counts = np.unique(rng.integers(lo, hi, draws), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


SPARSE = {k: F(1, 2000) for k in range(2000)}


# two samples of one uniform law over 2,000 outcomes, 3,000 draws each:
# 1.5 expected per outcome, so nearly every cell is pooled.  p at these
# seeds, two-sample and goodness: 0.143 and 0.609, 0.980 and 0.916, 0.724
# and 0.064.  Pooling cells that tie on expected count by their observed
# counts read 3e-180 and 4e-190 at seed 0
@pytest.mark.parametrize("seed", range(3))
def test_sparse_same_law_tables_pass(seed):
    rng = np.random.default_rng(seed)
    a, b = sparse_counts(rng, 0, 2000), sparse_counts(rng, 0, 2000)
    assert chi_square_two_sample(a, b, alpha=0.01).passed
    assert chi_square_goodness(a, SPARSE, alpha=0.01).passed


def test_sparse_shifted_law_rejects():
    # one law shifted by 200 of its 2,000 outcomes; p at this seed 4e-37
    # (two-sample) and 2.5e-14 (goodness)
    rng = np.random.default_rng(0)
    a, b = sparse_counts(rng, 0, 2000), sparse_counts(rng, 200, 2200)
    assert chi_square_two_sample(a, b).p_value < 1e-6
    wide = {k: F(1, 2200) for k in range(2200)}
    assert chi_square_goodness(b, wide).p_value < 1e-6


def test_pooling_orders_cells_by_expected_count_alone():
    # four cells of equal expected count pool in input order, whatever
    # they observed: the first two, then the next two, not the two zeros
    cells = [(3.0, 0.0), (3.0, 9.0), (3.0, 0.0), (3.0, 9.0), (10.0, 5.0)]
    assert _pool(cells) == [(6.0, 9.0), (6.0, 9.0), (10.0, 5.0)]


def test_ks_uniform_stratified_grid():
    n = 200
    samples = (np.arange(n) + 0.5) / n
    report = ks_uniform(samples)
    assert abs(report.statistic - 0.5 / n) < 1e-12
    assert report.passed


def test_ks_uniform_constant_half():
    report = ks_uniform(np.full(400, 0.5))
    assert abs(report.statistic - 0.5) < 1e-12
    assert not report.passed
    assert report.p_value < 1e-12


def test_ks_uniform_validation():
    with pytest.raises(EmptyCounts):
        ks_uniform([])
    with pytest.raises(OutOfRange):
        ks_uniform([0.5, 1.5])


@pytest.mark.parametrize("samples", [[0.2, 0.5, np.nan], [np.nan]])
def test_ks_tests_reject_nan(samples):
    # NaN sorts last, past the [0,1] checks; the p-value series never ends on it
    with pytest.raises(OutOfRange):
        ks_uniform(samples)
    with pytest.raises(OutOfRange):
        ks_measure_marginal(samples, gsr())


def test_ks_uniform_pvalues_calibrated():
    small = 0
    for seed in range(300):
        rng = make_rng(seed)
        report = ks_uniform(rng.random(500), alpha=0.05)
        small += report.p_value < 0.05
    assert 0.02 <= small / 300 <= 0.09


def test_ks_marginal_atoms_exact():
    # half the mass exactly on each gsr atom passes; lebesgue rejects it
    samples = np.concatenate([np.full(500, 0.5), np.full(500, 1.0)])
    assert ks_measure_marginal(samples, gsr()).passed
    assert not ks_measure_marginal(samples, lebesgue()).passed


def test_ks_marginal_uniform_samples():
    rng = make_rng(2)
    u = rng.random(20000)
    assert ks_measure_marginal(u, lebesgue()).passed
    assert not ks_measure_marginal(u, gsr()).passed


def test_ks_marginal_mixed_fixture():
    rng = make_rng(4)
    m = mixed_fixture()
    quarter = 5000
    samples = np.concatenate(
        [
            rng.random(quarter) * 0.25,
            np.full(quarter, 0.5),
            0.5 + rng.random(quarter) * 0.25,
            np.full(quarter, 0.75),
        ]
    )
    assert ks_measure_marginal(samples, m).passed
    skewed = np.concatenate([samples, np.full(3000, 0.75)])
    assert not ks_measure_marginal(skewed, m).passed


def test_ks_marginal_lebesgue_equals_ks_uniform():
    rng = make_rng(6)
    u = rng.random(5000)
    a = ks_uniform(u)
    b = ks_measure_marginal(u, lebesgue())
    assert abs(a.statistic - b.statistic) < 1e-12


def test_goodness_refuses_observations_at_zero_expected_mass():
    # an outcome listed with mass 0 lies outside the support, as an unlisted one
    expected = {(1, 2, 3): F(9, 10), (2, 1, 3): F(1, 10), (3, 2, 1): F(0)}
    with pytest.raises(DimensionMismatch):
        chi_square_goodness({(1, 2, 3): 900, (2, 1, 3): 50, (3, 2, 1): 50}, expected)
    with pytest.raises(DimensionMismatch):
        chi_square_goodness({(1, 2): 500, (2, 1): 500}, {(1, 2): 1, (2, 1): 0})
    # a zero count there is no observation
    assert chi_square_goodness({(1, 2, 3): 900, (2, 1, 3): 100, (3, 2, 1): 0}, expected).passed


def test_empirical_tv_exact_values():
    exact2 = exact_ordering_distribution(gsr(), 2)
    assert empirical_tv({(1, 2): 3, (2, 1): 1}, exact2) == 0
    uniform3 = PermutationDistribution.uniform(3)
    assert empirical_tv({(1, 2, 3): 6}, uniform3) == F(5, 6)
    delta = PermutationDistribution.point_mass((1, 2))
    assert empirical_tv({(1, 2): 1, (2, 1): 1}, delta) == F(1, 2)


def test_empirical_tv_counts_off_support():
    exact3 = exact_ordering_distribution(gsr(), 3)
    assert exact3.prob((3, 2, 1)) == 0
    assert empirical_tv({(3, 2, 1): 5}, exact3) == 1


def test_empirical_tv_validation():
    with pytest.raises(EmptyCounts):
        empirical_tv({}, PermutationDistribution.uniform(2))
    with pytest.raises(DimensionMismatch):
        empirical_tv({(1, 2, 3): 4}, PermutationDistribution.uniform(2))


def test_goodness_pvalues_calibrated():
    small = 0
    for seed in range(1000):
        rng = make_rng(10000 + seed)
        heads = int(rng.binomial(2000, 0.75))
        report = chi_square_goodness(
            {"h": heads, "t": 2000 - heads}, {"h": F(3, 4), "t": F(1, 4)}, alpha=0.05
        )
        small += report.p_value < 0.05
    assert 0.03 <= small / 1000 <= 0.08


def test_goodness_rarely_rejects_at_strict_alpha():
    rejections = 0
    for seed in range(1000):
        rng = make_rng(20000 + seed)
        heads = int(rng.binomial(10000, 0.25))
        report = chi_square_goodness(
            {"h": heads, "t": 10000 - heads},
            {"h": F(1, 4), "t": F(3, 4)},
            alpha=0.001,
        )
        rejections += not report.passed
    assert rejections <= 10


def test_report_json_serializable():
    report = chi_square_goodness({"h": 50, "t": 50}, FAIR)
    text = json.dumps(report.to_json())
    parsed = json.loads(text)
    assert parsed["name"] == "chi_square_goodness"
    assert parsed["passed"] is True


# -- scipy stays out of every process; tails within a bound of scipy's ------


def loaded_modules(*argv):
    """Top-level names of the modules a `python -X importtime ARGV` process
    imports, with `src` on the path; the process must exit 0."""
    import os
    import subprocess
    import sys

    import quasishuffle

    src = os.path.dirname(os.path.dirname(quasishuffle.__file__))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert run.returncode == 0, (argv, run.stderr[-500:])
    lines = [line for line in run.stderr.splitlines() if line.startswith("import time:")]
    return {line.split("|")[2].strip().split(".")[0] for line in lines[1:]}


def test_import_loads_no_scipy(monkeypatch):
    """The benchmark's CLI command lines, one process each: none imports
    scipy, and `--version`, `oracle`, exact `mixing` and `shuffle-map`
    import no numpy.
    Sample counts are cut to 200; a command's imports do not depend on it."""
    import sys
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.delitem(sys.modules, "cli_load", raising=False)
    import cli_load

    commands = cli_load.commands(7)
    assert len(commands) == 12
    without_numpy = {"version", "oracle", "mixing/exact", "shuffle-map"}
    assert without_numpy <= {c.name for c in commands}
    for command in commands:
        argv = list(command.argv)
        if "--samples" in argv:
            argv[argv.index("--samples") + 1] = "200"
        loaded = loaded_modules("-m", "quasishuffle.cli", *argv)
        assert "scipy" not in loaded, command.name
        assert ("numpy" in loaded) == (command.name not in without_numpy), command.name
    assert {"quasishuffle", "scipy", "numpy"} & loaded_modules("-c", "import quasishuffle") == {
        "quasishuffle"
    }


def test_chi_square_tail_within_1e_11_of_scipy():
    from scipy.stats import chi2

    from quasishuffle.stats import _chi2_sf

    for df in [*range(1, 201), 719, 5039]:
        xs = [*np.linspace(0.0, df + 40 * np.sqrt(df), 101).tolist(), 1e-9, 0.5]
        for x, ref in zip(xs, chi2.sf(xs, df).tolist()):
            got = _chi2_sf(x, df)
            assert type(got) is float
            if ref >= 1e-300:
                assert abs(got - ref) <= 1e-11 * ref, (df, x, got, ref)
    rng = make_rng(8)
    support = {k: F(1, 24) for k in range(24)}
    for draws in (50, 300, 5000):
        counts = dict(zip(*np.unique(rng.integers(0, 24, draws), return_counts=True)))
        other = dict(zip(*np.unique(rng.integers(0, 20, draws), return_counts=True)))
        for rep in (chi_square_goodness(counts, support), chi_square_two_sample(counts, other)):
            ref = float(chi2.sf(rep.statistic, rep.detail["df"]))
            assert abs(rep.p_value - ref) <= 1e-11 * ref
            assert type(rep.p_value) is float and type(rep.passed) is bool


def test_kolmogorov_tail_within_1e_13_of_scipy():
    from scipy.special import kolmogorov

    from quasishuffle.stats import _kolmogorov_sf

    for x in np.linspace(0.05, 8.0, 2000).tolist():
        ref = float(kolmogorov(x))
        got = _kolmogorov_sf(x)
        assert type(got) is float
        assert abs(got - ref) <= 1e-13 * ref, (x, got, ref)
    rng = make_rng(9)
    for size in (20, 400, 5000):
        u = rng.random(size) ** 1.1
        for rep in (ks_uniform(u), ks_measure_marginal(u, mixed_fixture())):
            ref = float(kolmogorov(rep.statistic * np.sqrt(rep.samples)))
            assert abs(rep.p_value - ref) <= 1e-13 * ref
            assert type(rep.p_value) is float and type(rep.passed) is bool


def test_tails_at_closed_forms():
    import math

    from quasishuffle.stats import _chi2_sf, _kolmogorov_sf

    # a float tail at x carries a relative error of about x ulps from the
    # rounding of x alone, so the bound is 1e-13 up to x = 80
    for x in (0.01, 0.7, 1.0, 2.0, 3.5, 10.0, 80.0):
        y = x / 2
        close = {
            1: math.erfc(math.sqrt(y)),
            2: math.exp(-y),
            3: math.erfc(math.sqrt(y)) + 2 * math.sqrt(y / math.pi) * math.exp(-y),
            4: math.exp(-y) * (1 + y),
            6: math.exp(-y) * (1 + y + y * y / 2),
        }
        for df, want in close.items():
            assert math.isclose(_chi2_sf(x, df), want, rel_tol=1e-13), (df, x)
    # past its mean, the df = 2 tail is its one term exp(-x/2), bit for bit
    assert all(_chi2_sf(x, 2) == math.exp(-x / 2) for x in (2.5, 9.0, 123.25))
    assert _chi2_sf(0.0, 5) == 1.0 and _kolmogorov_sf(0.0) == 1.0
    # K(x) to 20 digits (the alternating series in 50-digit arithmetic);
    # 1.3580986... is the 5 % critical value, the series' first term rules at x = 3
    for x, want in (
        (0.3, 0.99999069419866543337),
        (0.5, 0.96394524366487509439),
        (1.0, 0.2699996716773545212),
        (1.3580986393225505, 0.050000000000000028325),
        (2.0, 0.00067092525577969534654),
        (3.0, 2 * math.exp(-18)),
    ):
        assert math.isclose(_kolmogorov_sf(x), want, rel_tol=1e-14), x
