"""Self-checking property suite over a measure, mixture, or candidate.

Every source runs one law battery, `_verify_law`: the ordering sampler and
the cell enumeration against the exact law, and restriction consistency.
Label values never enter a draw, only their number, so labels 1..n stand
for any label set.  A measure adds its structural invariants, the uniform
marginals of its coupled sides, its step sampler and its route agreement.
The cell enumeration (cells^n work) is recorded as not run above its cap.
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
    OrderingSource,
    QuasiUniformMeasure,
    is_quasi_uniform,
)
from .permutations import perm_histogram


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


def _step_check(
    name: str, sampler: kernels.CouplingSampler, law, samples: int, rng: np.random.Generator
) -> CheckResult:
    """TV of `samples` steps ranked from the coupling's own (u, v) draws.

    `step_batch` deals a conjugate step as the measure's ordering; ranking
    the coupling's pairs instead keeps this check independent of that route
    and tests the one pair draw, `CouplingSampler.draw_batch`, that grid,
    map and mixture steps use.
    """
    blocks = kernels._pair_step_blocks(law.n, sampler, samples, rng)
    counts = perm_histogram((rows for _, _, rows in blocks), law.n)
    return _tv_check(name, counts, law, samples, "steps")


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
        for i, (_, comp) in enumerate(source.components):
            report.checks.append(
                CheckResult(f"component-{i}-quasi-uniform", is_quasi_uniform(comp))
            )
        _verify_law(source, rng, n, samples, report)
        return report
    return _verify_measure(source, rng, n, samples, report)


def _verify_law(
    source: OrderingSource,
    rng: np.random.Generator,
    n: int,
    samples: int,
    report: VerifyReport,
) -> oracle.PermutationDistribution:
    """The checks every source runs; returns its exact law of n labels.  A
    mixture's cell enumeration is its components' enumerations, weighted."""
    exact = oracle.exact_ordering_distribution(source, n)
    counts = ordering.ordering_counts(source, tuple(range(1, n + 1)), samples, rng)
    report.checks.append(
        _tv_check("ordering-sampler-vs-oracle", counts, exact, samples, "draws")
    )

    components = source.components if isinstance(source, MeasureMixture) else ((1, source),)
    try:
        enumerated = oracle.combine_distributions(
            (w, oracle._cell_enumeration(comp, n)) for w, comp in components
        )
        agree, detail = enumerated == exact, "block-cut likelihood vs cell enumeration"
    except CapExceeded as exc:  # n passed its cap above: too many cells
        agree, detail = None, f"not run: {exc}"
    report.checks.append(CheckResult("likelihood-dp-vs-enumeration", agree, detail))

    consistent = all(
        oracle.restrict_distribution(exact, m) == oracle.exact_ordering_distribution(source, m)
        for m in range(2, n)
    )
    report.checks.append(CheckResult("restriction-consistent", consistent))
    return exact


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

    forward = kernels.ConjugateCoupling(measure)
    inverse = kernels.InverseConjugateCoupling(measure)
    # the forward u and the inverse v are the generator's own s: test the coupled sides
    _, forward_v = forward.draw_batch(samples, rng)
    inverse_u, _ = inverse.draw_batch(samples, rng)
    for name, arr in (("forward-v", forward_v), ("inverse-u", inverse_u)):
        rep = stats.ks_uniform(arr, alpha=0.01)
        report.checks.append(
            CheckResult(
                f"marginal-uniform-{name}",
                rep.passed,
                f"KS D = {rep.statistic:.5f}, p = {rep.p_value:.4f}",
            )
        )

    exact = _verify_law(measure, rng, n, samples, report)
    report.checks.append(_step_check("step-sampler-vs-oracle", forward, exact, samples, rng))

    if measure.is_purely_atomic:
        r2_one = oracle.exact_coupling_step_distribution(measure, n, "one")
        r2_two = oracle.exact_coupling_step_distribution(measure, n, "two")
        agree = r2_one == exact and r2_two == oracle.invert_distribution(exact)
        report.checks.append(
            CheckResult("route-equivalence-exact", agree, "coupling route vs cell route")
        )
    else:
        inverse_law = oracle.invert_distribution(exact)
        report.checks.append(_step_check("time-reversal-mc", inverse, inverse_law, samples, rng))
    return report
