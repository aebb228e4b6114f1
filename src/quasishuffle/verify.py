"""Self-checking property suite over a measure, mixture, or candidate.

Runs the exact invariants (conjugation involution, double stochasticity,
likelihood-versus-enumeration agreement, restriction consistency, route
agreement) and the statistical ones (uniform coupling marginals,
sampler-versus-oracle total variation) and collects one pass/fail record
per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from . import kernels, oracle, ordering, stats
from .measure import (
    CandidateMeasure,
    MeasureMixture,
    QuasiUniformMeasure,
    is_quasi_uniform,
)
from .permutations import all_permutations


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class VerifyReport:
    source: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


Source = Union[QuasiUniformMeasure, MeasureMixture, CandidateMeasure]


def _tv_threshold(support: int, samples: int) -> float:
    """Expected TV of a correct sampler is ~sqrt(support/samples); allow 3x."""
    return max(3.0 * math.sqrt(support / samples), 50.0 / samples)


def run_property_suite(
    source: Source,
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
    tv = float(stats.empirical_tv(counts, exact))
    bound = _tv_threshold(len(exact.probs), samples)
    report.checks.append(
        CheckResult(
            "ordering-sampler-vs-oracle",
            tv < bound,
            f"TV = {tv:.5f} over {samples} draws (bound {bound:.5f})",
        )
    )

    step_counts = kernels.empirical_step_counts(
        n, kernels.ConjugateCoupling(measure), samples, rng
    )
    tv_step = float(stats.empirical_tv(step_counts, exact))
    report.checks.append(
        CheckResult(
            "step-sampler-vs-oracle",
            tv_step < bound,
            f"TV = {tv_step:.5f} over {samples} steps (bound {bound:.5f})",
        )
    )

    # Row rho and column tau of the kernel K(rho, tau) = step(tau . rho^-1) are
    # both rearrangements of the step law over S_n, so every row and column
    # sums to the law's total; kind one's step law is the ordering law.
    total = sum((exact.prob(p) for p in all_permutations(n)), Fraction(0))
    report.checks.append(CheckResult("doubly-stochastic", total == 1))

    report.checks.append(
        CheckResult(
            "likelihood-dp-vs-enumeration",
            oracle._cell_enumeration(measure, n) == exact,
            "block-cut likelihood vs cell enumeration",
        )
    )

    consistent = True
    for m in range(2, n):
        lhs = oracle.restrict_distribution(exact, m)
        rhs = oracle.exact_ordering_distribution(measure, m)
        consistent = consistent and oracle.tv_distance(lhs, rhs) == 0
    report.checks.append(CheckResult("restriction-consistent", consistent))

    if measure.is_purely_atomic:
        r2_one = oracle.exact_coupling_step_distribution(measure, n, "one")
        r2_two = oracle.exact_coupling_step_distribution(measure, n, "two")
        agree = (
            oracle.tv_distance(r2_one, exact) == 0
            and oracle.tv_distance(r2_two, oracle.invert_distribution(exact)) == 0
        )
        report.checks.append(
            CheckResult("route-equivalence-exact", agree, "coupling route vs cell route")
        )
    else:
        inv_counts = kernels.empirical_step_counts(
            n, kernels.InverseConjugateCoupling(measure), samples, rng
        )
        tv_inv = float(
            stats.empirical_tv(inv_counts, oracle.invert_distribution(exact))
        )
        report.checks.append(
            CheckResult(
                "time-reversal-mc",
                tv_inv < bound,
                f"TV = {tv_inv:.5f} over {samples} steps (bound {bound:.5f})",
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
    tv = float(stats.empirical_tv(counts, exact))
    bound = _tv_threshold(len(exact.probs), samples)
    report.checks.append(
        CheckResult(
            "ordering-sampler-vs-oracle",
            tv < bound,
            f"TV = {tv:.5f} over {samples} draws (bound {bound:.5f})",
        )
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
