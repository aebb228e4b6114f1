"""Self-checking property suite over a measure, mixture, or candidate.

Runs the exact invariants (conjugation involution, likelihood-versus-
enumeration agreement, restriction consistency, route agreement) and the
statistical ones (uniform coupling marginals, sampler-versus-oracle total
variation) and collects one pass/fail record per check.  The cell
enumeration, whose work is cells^n, is recorded as not run above its cell
cap, with the reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels, oracle, ordering, stats
from .errors import CapExceeded
from .measure import (
    CandidateMeasure,
    MeasureMixture,
    MeasureSource,
    QuasiUniformMeasure,
    is_quasi_uniform,
)
from .permutations import Perm, perm_histogram


@dataclass
class CheckResult:
    """One check's outcome; `passed` is None for a check that was not run,
    with the reason in `detail`."""

    name: str
    passed: Optional[bool]
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class VerifyReport:
    source: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _tv_check(name: str, counts, law, samples: int, unit: str) -> CheckResult:
    """Empirical TV of `samples` sampled `unit` against the exact law.

    Expected TV of a correct sampler is ~sqrt(support/samples); allow 3x.
    """
    tv = float(stats.empirical_tv(counts, law))
    bound = max(3.0 * math.sqrt(len(law.probs) / samples), 50.0 / samples)
    return CheckResult(
        name, tv < bound, f"TV = {tv:.5f} over {samples} {unit} (bound {bound:.5f})"
    )


def _pair_step_counts(
    n: int,
    sampler: kernels.CouplingSampler,
    samples: int,
    rng: np.random.Generator,
) -> dict[Perm, int]:
    """Step histogram ranked from the coupling's own (u, v) draws.

    `step_batch` deals a conjugate step as the measure's ordering; ranking
    the coupling's pairs instead keeps this check independent of that route
    and tests the one pair draw, `CouplingSampler.draw_batch`, that grid,
    map and mixture steps use.
    """
    blocks = kernels._pair_step_blocks(n, sampler, samples, rng)
    return perm_histogram((rows for _, _, rows in blocks), n)


def run_property_suite(
    source: MeasureSource,
    seed: int,
    n: int = 4,
    samples: int = 100_000,
    label: str = "",
) -> VerifyReport:
    rng = np.random.default_rng(seed)
    report = VerifyReport(label or type(source).__name__)

    if isinstance(source, CandidateMeasure):
        ok = is_quasi_uniform(source)
        report.checks.append(
            CheckResult(
                "quasi-uniform",
                ok,
                "atom transport onto gap endpoints is "
                + ("feasible" if ok else "infeasible"),
            )
        )
        if not ok:
            return report
        source = source.to_measure()

    if isinstance(source, MeasureMixture):
        return _verify_mixture(source, rng, n, samples, report)
    return _verify_measure(source, rng, n, samples, report)


def _verify_measure(
    measure: QuasiUniformMeasure,
    rng: np.random.Generator,
    n: int,
    samples: int,
    report: VerifyReport,
) -> VerifyReport:
    ok = is_quasi_uniform(measure)
    report.checks.append(CheckResult("quasi-uniform", ok))

    conj = measure.conjugate()
    report.checks.append(
        CheckResult("conjugation-involution", conj.conjugate() == measure)
    )
    cdf_ok = measure.cdf(1) == 1 and measure.cdf_left(0) == 0
    grid = [Fraction(k, 16) for k in range(17)]
    cdf_ok = cdf_ok and all(
        measure.cdf(a) <= measure.cdf(b) for a, b in zip(grid, grid[1:])
    )
    report.checks.append(CheckResult("cdf-monotone-normalized", cdf_ok))

    for name, sampler in (
        ("forward", kernels.ConjugateCoupling(measure)),
        ("inverse", kernels.InverseConjugateCoupling(measure)),
    ):
        u, v = sampler.draw_batch(samples, rng)
        for coord, arr in (("u", u), ("v", v)):
            rep = stats.ks_uniform(arr, alpha=0.01)
            report.checks.append(
                CheckResult(
                    f"marginal-uniform-{name}-{coord}",
                    rep.passed,
                    f"KS D = {rep.statistic:.5f}, p = {rep.p_value:.4f}",
                )
            )

    exact = oracle.exact_ordering_distribution(measure, n)
    counts = ordering.ordering_counts(measure, tuple(range(1, n + 1)), samples, rng)
    report.checks.append(
        _tv_check("ordering-sampler-vs-oracle", counts, exact, samples, "draws")
    )
    step_counts = _pair_step_counts(n, kernels.ConjugateCoupling(measure), samples, rng)
    report.checks.append(
        _tv_check("step-sampler-vs-oracle", step_counts, exact, samples, "steps")
    )

    try:
        agree = oracle._cell_enumeration(measure, n) == exact
        detail = "block-cut likelihood vs cell enumeration"
    except CapExceeded as exc:  # n passed its cap above: too many cells
        agree, detail = None, f"not run: {exc}"
    report.checks.append(CheckResult("likelihood-dp-vs-enumeration", agree, detail))

    consistent = True
    for m in range(2, n):
        lhs = oracle.restrict_distribution(exact, m)
        rhs = oracle.exact_ordering_distribution(measure, m)
        consistent = consistent and lhs == rhs
    report.checks.append(CheckResult("restriction-consistent", consistent))

    if measure.is_purely_atomic:
        r2_one = oracle.exact_coupling_step_distribution(measure, n, "one")
        r2_two = oracle.exact_coupling_step_distribution(measure, n, "two")
        agree = r2_one == exact and r2_two == oracle.invert_distribution(exact)
        report.checks.append(
            CheckResult("route-equivalence-exact", agree, "coupling route vs cell route")
        )
    else:
        inv_counts = _pair_step_counts(
            n, kernels.InverseConjugateCoupling(measure), samples, rng
        )
        report.checks.append(
            _tv_check(
                "time-reversal-mc",
                inv_counts,
                oracle.invert_distribution(exact),
                samples,
                "steps",
            )
        )
    return report


def _verify_mixture(
    mixture: MeasureMixture,
    rng: np.random.Generator,
    n: int,
    samples: int,
    report: VerifyReport,
) -> VerifyReport:
    for i, (_, comp) in enumerate(mixture.components):
        report.checks.append(
            CheckResult(f"component-{i}-quasi-uniform", is_quasi_uniform(comp))
        )
    exact = oracle.exact_ordering_distribution(mixture, n)
    counts = ordering.ordering_counts(mixture, tuple(range(1, n + 1)), samples, rng)
    report.checks.append(
        _tv_check("ordering-sampler-vs-oracle", counts, exact, samples, "draws")
    )
    rep = ordering.exchangeability_test(
        mixture,
        tuple(range(1, n + 1)),
        tuple(10 ** (i + 1) for i in range(n)),
        max(samples // 2, 1000),
        rng,
    )
    report.checks.append(
        CheckResult(
            "exchangeability",
            rep.passed,
            f"chi2 = {rep.statistic:.3f}, p = {rep.p_value:.4f}",
        )
    )
    return report
