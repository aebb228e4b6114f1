"""The mc-sample workload: in-process Monte Carlo sampling and histograms.

Every source (gsr, gsr-conjugate, a-shuffle:3, mixed and a two-component
mixture) is sampled at n = 8 and histogrammed at n = 4 through the ordering
sampler and both step kinds; an a-shuffle with a near n is dealt at n = 52.
The scalar walk, the empirical mixing curve and one exchangeability test
complete the round, with two histogram operations at n >= 16 that fail
while the histogram codes overflow int64.
"""

from __future__ import annotations

import numpy as np

import reference as R
from ops import Op

ROWS8 = 100_000  # rows per sampling operation at n = 8
ROWS4 = 200_000  # draws per histogram operation at n = 4
ROWS52 = 25_000  # rows per operation at n = 52
A52 = 48  # parts of the a-shuffle dealt at n = 52
WALK_STEPS = 200
CURVE_STEPS, CURVE_TRIALS = 6, 100_000
EXCHANGE_SAMPLES = 100_000
FAULT_DRAWS = 2_000

SOURCES = (
    ("gsr", R.GSR),
    ("gsr-conjugate", R.GSR_CONJUGATE),
    ("a-shuffle-3", R.A3),
    ("mixed", R.MIXED),
    ("mixture", R.MIXTURE),
)


def measure_of(q, gaps):
    return q.QuasiUniformMeasure(tuple(q.GapInterval(lo, hi, side) for lo, hi, side in gaps))


def source_of(q, spec):
    if R.is_mixture(spec):
        return q.MeasureMixture(tuple((w, measure_of(q, g)) for w, g in spec))
    return measure_of(q, spec)


def coupling(q, source, kind: str):
    cls = q.ConjugateCoupling if kind == "one" else q.InverseConjugateCoupling
    if isinstance(source, q.MeasureMixture):
        return q.MixtureCoupling([(w, cls(m)) for w, m in source.components])
    return cls(source)


def source_ops(q, C, name, spec) -> list[Op]:
    """Sampling and histogram operations on one source at n = 8 and n = 4."""
    src = source_of(q, spec)
    one, two = coupling(q, src, "one"), coupling(q, src, "two")
    # a per-card mixture of couplings has no reference law: rows only
    law = not R.is_mixture(spec)
    labels8, labels4 = tuple(range(1, 9)), tuple(range(1, 5))

    def sampled(rows, n, inverse=False, law=True):
        return C.bad_rows(rows, n) or (
            C.gof(C.counts_from_rows(rows, n), C.law_vector(spec, n, inverse))
            if law else None
        )

    def counted(counts, n, inverse=False, law=True):
        vec, bad = C.counts_from_dict(counts, n)
        if bad:
            return bad
        if int(vec.sum()) != ROWS4:
            return f"counts sum to {int(vec.sum())}, want {ROWS4}"
        return C.gof(vec, C.law_vector(spec, n, inverse)) if law else None

    return [
        Op(f"sample_ordering_batch/{name}/n8",
           lambda rng: q.sample_ordering_batch(src, labels8, ROWS8, rng),
           lambda r: sampled(r, 8), cards=ROWS8 * 8),
        Op(f"ordering_counts/{name}/n4",
           lambda rng: q.ordering_counts(src, labels4, ROWS4, rng),
           lambda r: counted(r, 4), cards=ROWS4 * 4),
        Op(f"step_batch/one/{name}/n8",
           lambda rng: q.step_batch(8, one, ROWS8, rng),
           lambda r: sampled(r, 8, law=law), cards=ROWS8 * 8),
        Op(f"step_batch/two/{name}/n8",
           lambda rng: q.step_batch(8, two, ROWS8, rng),
           lambda r: sampled(r, 8, inverse=True, law=law), cards=ROWS8 * 8),
        Op(f"empirical_step_counts/two/{name}/n4",
           lambda rng: q.empirical_step_counts(4, two, ROWS4, rng),
           lambda r: counted(r, 4, inverse=True, law=law), cards=ROWS4 * 4),
    ]


def build(q) -> list[Op]:
    import checks as C

    ops: list[Op] = []
    for name, spec in SOURCES:
        ops += source_ops(q, C, name, spec)

    big = measure_of(q, R.a_shuffle_gaps(A52))
    des_law = np.array([float(p) for p in R.des_law(A52, 52)])
    labels52 = tuple(range(1, 53))

    def des_checked(rows, of_inverse):
        return C.bad_rows(rows, 52) or C.gof(C.des_histogram(rows, of_inverse), des_law)

    ops += [
        Op("sample_ordering_batch/a-shuffle-48/n52",
           lambda rng: q.sample_ordering_batch(big, labels52, ROWS52, rng),
           lambda r: des_checked(r, True), cards=ROWS52 * 52),
        Op("step_batch/one/a-shuffle-48/n52",
           lambda rng, c=q.ConjugateCoupling(big): q.step_batch(52, c, ROWS52, rng),
           lambda r: des_checked(r, True), cards=ROWS52 * 52),
        Op("step_batch/two/a-shuffle-48/n52",
           lambda rng, c=q.InverseConjugateCoupling(big): q.step_batch(52, c, ROWS52, rng),
           lambda r: des_checked(r, False), cards=ROWS52 * 52),
    ]

    gsr = measure_of(q, R.GSR)
    gsr_one = q.ConjugateCoupling(gsr)

    def walk_checked(states):
        rows = np.array(states)
        bad = C.bad_rows(rows, 52)
        if bad:
            return bad
        if len(states) != WALK_STEPS + 1 or states[0] != labels52:
            return "walk does not start at the identity or has the wrong length"
        return C.walk_bound(states)

    def curve_checked(curve):
        if len(curve) != CURVE_STEPS + 1:
            return f"curve has {len(curve)} values, want {CURVE_STEPS + 1}"
        return C.curve_within_tolerance(curve, 2, 8, CURVE_TRIALS)

    mix = source_of(q, R.MIXTURE)

    def exchange_checked(rep):
        if rep.samples != 2 * EXCHANGE_SAMPLES or not rep.p_value >= 1e-10:
            return f"exchangeability p = {rep.p_value} over {rep.samples} draws"
        return None

    def fault_counts(counts, n):
        bad = sum(1 for k in counts if sorted(k) != list(range(1, n + 1)))
        if bad:
            return f"{bad} of {len(counts)} histogram keys are not permutations of 1..{n}"
        total = sum(counts.values())
        return None if total == FAULT_DRAWS else f"counts sum to {total}, want {FAULT_DRAWS}"

    ops += [
        Op("walk/gsr/n52", lambda rng: q.walk(52, gsr_one, WALK_STEPS, rng),
           walk_checked, cards=WALK_STEPS * 52),
        Op("empirical_mixing_curve/gsr/n8",
           lambda rng: q.empirical_mixing_curve(8, gsr_one, CURVE_STEPS, CURVE_TRIALS, rng),
           curve_checked, cards=CURVE_STEPS * CURVE_TRIALS * 8),
        Op("exchangeability_test/mixture/n4",
           lambda rng: q.exchangeability_test(mix, (1, 2, 3, 4), (10, 20, 30, 40), EXCHANGE_SAMPLES, rng),
           exchange_checked, cards=2 * EXCHANGE_SAMPLES * 4),
        # Known fault: base-(n+1) int64 histogram codes wrap from n = 16 on.
        Op("ordering_counts/gsr/n20",
           lambda rng: q.ordering_counts(gsr, tuple(range(1, 21)), FAULT_DRAWS, rng),
           lambda r: fault_counts(r, 20), cards=FAULT_DRAWS * 20, known_fault=True),
        Op("empirical_step_counts/one/gsr/n16",
           lambda rng: q.empirical_step_counts(16, gsr_one, FAULT_DRAWS, rng),
           lambda r: fault_counts(r, 16), cards=FAULT_DRAWS * 16, known_fault=True),
    ]
    return ops
