"""Statistical checks used to compare samplers against exact references.

Counts stay exact (integers / Fractions); only tail probabilities go
through floating point.  Chi-square tests pool cells until every expected
count reaches 5, the usual validity rule.

The two tail probabilities are stdlib `math` code: the chi-square survival
function at an integer df as the finite Poisson-type sum of Abramowitz &
Stegun 26.4.4-26.4.5, and the Kolmogorov distribution's survival function
as its alternating series, or its theta-function form for small x.  Both
agree with scipy's `chdtrc` and `kolmogorov` to about 1e-12 relative.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import erfc, exp, lgamma, log, pi, sqrt
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyCounts, OutOfRange
from .oracle import PermutationDistribution, tv_distance

MIN_EXPECTED = 5.0

_HALF_LOG_2PI = 0.5 * log(2 * pi)
# a tail sum stops at its first term below this fraction of the running
# sum: the terms left add less than the sum's own rounding error
_NEGLIGIBLE = 2.0**-60


def _stirling_error(a: float) -> float:
    """log Gamma(a + 1) - (a + 1/2) log a + a - log sqrt(2 pi), for a > 0
    (the remainder of Stirling's formula, by its series from a = 15 on)."""
    if a <= 15:
        return lgamma(a + 1) - (a + 0.5) * log(a) + a - _HALF_LOG_2PI
    aa = a * a
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * aa)) / aa) / aa) / aa) / a


def _deviance(a: float, y: float) -> float:
    """a log(a / y) + y - a, without cancellation when a is near y."""
    if abs(a - y) < 0.1 * (a + y):
        v = (a - y) / (a + y)
        total, term, v2 = (a - y) * v, 2 * a * v, v * v
        j = 1
        while True:
            term *= v2
            new = total + term / (2 * j + 1)
            if new == total:
                return total
            total, j = new, j + 1
    return a * log(a / y) + y - a


def _poisson_term(a: float, y: float) -> float:
    """exp(-y) y^a / Gamma(a + 1) for a >= 0, y > 0, without forming the
    powers (Loader's saddle-point form), so that it neither overflows nor
    underflows while the result is a normal float."""
    if a == 0:
        return exp(-y)
    return exp(-_stirling_error(a) - _deviance(a, y)) / sqrt(2 * pi * a)


def _chi2_sf(stat: float, df: int) -> float:
    """P(chi-square with integer df >= 1 exceeds stat).

    With y = stat / 2 and t(a) = exp(-y) y^a / Gamma(a + 1), the survival is
    the sum of t(a) over a = df/2 - 1, df/2 - 2, ... down to 0 (even df) or
    1/2 (odd df, plus erfc(sqrt y)).  When y > df/2 these terms fall from
    the first, which is computed in log space, and are summed by recurrence
    until negligible; otherwise the survival is 1 minus the sum of t(a) over
    a = df/2, df/2 + 1, ..., which fall from the first.
    """
    y = float(stat) / 2
    if y <= 0:
        return 1.0
    a = df / 2
    if y <= a:
        lower = term = _poisson_term(a, y)
        while term > lower * _NEGLIGIBLE:
            a += 1
            term *= y / a
            lower += term
        return 1.0 - lower
    total = erfc(sqrt(y)) if df % 2 else 0.0
    a -= 1
    term = _poisson_term(a, y) if a >= 0 else 0.0
    while a >= 0 and term > total * _NEGLIGIBLE:
        total += term
        term *= a / y
        a -= 1
    return total


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution, the limit law of sqrt(n)
    times the two-sided KS statistic: 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2)
    for x >= 0.8, else 1 - (sqrt(2 pi) / x) sum_k exp(-(2k-1)^2 pi^2 / (8 x^2))."""
    x = float(x)
    if x <= 0:
        return 1.0
    total, k = 0.0, 1
    if x >= 0.8:
        while True:
            term = exp(-2 * k * k * x * x)
            if term <= abs(total) * _NEGLIGIBLE:
                return 2 * total
            total += term if k % 2 else -term
            k += 1
    while True:
        term = exp(-((2 * k - 1) ** 2) * pi * pi / (8 * x * x))
        if term <= total * _NEGLIGIBLE:
            return 1.0 - sqrt(2 * pi) / x * total
        total += term
        k += 1


@dataclass(frozen=True)
class TestReport:
    name: str
    statistic: float
    p_value: float
    samples: int
    alpha: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "samples": self.samples,
            "alpha": self.alpha,
            "passed": self.passed,
            "detail": {k: str(v) for k, v in self.detail.items()},
        }


def _pool(cells: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Merge the two smallest-expected cells, summing their tuples
    elementwise, until every expected (first entry) reaches MIN_EXPECTED.

    Cells are ordered by expected count alone, ties by input order (a
    merged cell after every input), so the observed counts never choose
    which cells pool; a heap keeps each merge logarithmic.  The cells come
    back sorted as tuples, the order their statistic is summed in.
    """
    heap = [(cell[0], k, cell) for k, cell in enumerate(cells)]
    heapq.heapify(heap)
    made = len(heap)
    while len(heap) > 1 and heap[0][0] < MIN_EXPECTED:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        merged = tuple(x + y for x, y in zip(a, b))
        heapq.heappush(heap, (merged[0], made, merged))
        made += 1
    return sorted(cell for _, _, cell in heap)


def chi_square_goodness(
    counts: Mapping, expected: Mapping, alpha: float = 0.01
) -> TestReport:
    """Pearson goodness-of-fit of observed counts against exact probabilities.

    `expected` maps outcomes to probabilities (Fractions or floats) summing
    to one; outcomes observed outside its support are a mismatch.
    """
    total = sum(int(c) for c in counts.values())
    if total <= 0:
        raise EmptyCounts("no observations")
    for key, c in counts.items():
        if int(c) > 0 and not expected.get(key, 0):
            raise DimensionMismatch(f"observed outcome {key!r} has zero expected mass")
    cells = [
        (float(p) * total, float(counts.get(key, 0))) for key, p in expected.items()
    ]
    cells = _pool(cells)
    if len(cells) < 2:
        return TestReport("chi_square_goodness", 0.0, 1.0, total, alpha, True,
                          {"df": 0, "note": "support too small after pooling"})
    stat = sum((o - e) ** 2 / e for e, o in cells)
    df = len(cells) - 1
    p = _chi2_sf(stat, df)
    return TestReport(
        "chi_square_goodness", float(stat), p, total, alpha, p >= alpha, {"df": df}
    )


def chi_square_two_sample(
    counts_a: Mapping, counts_b: Mapping, alpha: float = 0.001
) -> TestReport:
    """Homogeneity test: do two count tables come from one distribution?"""
    total_a = sum(int(c) for c in counts_a.values())
    total_b = sum(int(c) for c in counts_b.values())
    if total_a <= 0 or total_b <= 0:
        raise EmptyCounts("both samples need observations")
    keys = sorted(set(counts_a) | set(counts_b))
    grand = total_a + total_b
    # cells carry (expected in the smaller sample, obs_a, obs_b) per outcome
    cols = [
        (float(counts_a.get(k, 0)), float(counts_b.get(k, 0))) for k in keys
    ]
    merged = _pool([((a + b) * min(total_a, total_b) / grand, a, b) for a, b in cols])
    if len(merged) < 2:
        return TestReport("chi_square_two_sample", 0.0, 1.0, grand, alpha, True,
                          {"df": 0, "note": "support too small after pooling"})
    stat = 0.0
    for _, a, b in merged:
        col = a + b
        for obs, row_total in ((a, total_a), (b, total_b)):
            exp = row_total * col / grand
            stat += (obs - exp) ** 2 / exp
    df = len(merged) - 1
    p = _chi2_sf(stat, df)
    return TestReport(
        "chi_square_two_sample", float(stat), p, grand, alpha, p >= alpha, {"df": df}
    )


def _ks_statistic(sorted_samples: np.ndarray, cdf_at, cdf_left_at) -> float:
    n = len(sorted_samples)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    d_plus = float(np.max(grid_hi - cdf_at))
    d_minus = float(np.max(cdf_left_at - grid_lo))
    return max(d_plus, d_minus, 0.0)


def ks_uniform(samples: Sequence[float], alpha: float = 0.01) -> TestReport:
    """Kolmogorov-Smirnov against the uniform law on [0,1] (asymptotic p)."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n == 0:
        raise EmptyCounts("no samples")
    if not (x[0] >= 0.0 and x[-1] <= 1.0):
        raise OutOfRange("samples must lie in [0,1]")
    stat = _ks_statistic(x, x, x)
    p = _kolmogorov_sf(stat * np.sqrt(n))
    return TestReport("ks_uniform", stat, p, n, alpha, p >= alpha, {})


def ks_measure_marginal(samples: Sequence[float], measure, alpha: float = 0.01) -> TestReport:
    """KS of samples against a quasi-uniform measure's CDF.

    Uses the left-limit CDF below each sample so atoms are handled
    correctly; the asymptotic p-value is conservative at atoms.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n == 0:
        raise EmptyCounts("no samples")
    if not (x[0] >= 0.0 and x[-1] <= 1.0):
        raise OutOfRange("samples must lie in [0,1]")
    points = sorted({Fraction(0), Fraction(1)} | {g.lo for g in measure.gaps} | {g.hi for g in measure.gaps})
    bp = np.array([float(p) for p in points])
    cdf_at_bp = np.array([float(measure.cdf(p)) for p in points])
    left_at_bp = np.array([float(measure.cdf_left(p)) for p in points])
    slope = np.zeros(len(points) - 1)
    for i, (a, b) in enumerate(zip(points, points[1:])):
        mid = (a + b) / 2
        inside_gap = any(g.lo < mid < g.hi for g in measure.gaps)
        slope[i] = 0.0 if inside_gap else 1.0
    idx = np.clip(np.searchsorted(bp, x, side="left"), 0, len(bp) - 1)
    at_bp = x == bp[idx]
    region = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(slope) - 1)
    interp = cdf_at_bp[region] + slope[region] * (x - bp[region])
    # atoms sit only at breakpoints, so off them the CDF is continuous
    cdf_vals = np.where(at_bp, cdf_at_bp[idx], interp)
    left_vals = np.where(at_bp, left_at_bp[idx], interp)
    stat = _ks_statistic(x, cdf_vals, left_vals)
    p = _kolmogorov_sf(stat * np.sqrt(n))
    return TestReport("ks_measure_marginal", stat, p, n, alpha, p >= alpha, {})


def empirical_tv(counts: Mapping, reference) -> Fraction:
    """Exact total-variation distance between empirical counts and a
    reference `oracle.PermutationDistribution`."""
    return tv_distance(PermutationDistribution.from_counts(reference.n, counts), reference)
