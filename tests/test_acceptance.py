"""Acceptance gate: one check per advertised guarantee, full tolerances.

Run with -s to see one PASS/FAIL line per criterion.  Statistical checks
use fixed seeds; tolerances leave many standard deviations of margin, so
any failure indicates a real defect rather than sampling noise.
"""

from fractions import Fraction as F

import numpy as np

from quasishuffle.errors import InvalidGridMatrix
from quasishuffle.kernels import (
    ConjugateCoupling,
    DeterministicCoupling,
    GridCopulaCoupling,
    InverseConjugateCoupling,
    MixtureCoupling,
    shuffle_map_from_measure,
    step_batch,
)
from quasishuffle.measure import (
    GapInterval,
    QuasiUniformMeasure,
    a_shuffle,
    gsr,
    interior_atom_fixture,
    is_quasi_uniform,
    lebesgue,
    mixed_fixture,
    validate,
)
from quasishuffle.oracle import (
    PermutationDistribution,
    exact_coupling_step_distribution,
    exact_map_step_distribution,
    exact_ordering_distribution,
    exact_step_distribution,
    invert_distribution,
    mixing_curve,
    restrict_distribution,
    transition_matrix,
    tv_distance,
)
from quasishuffle.ordering import (
    empirical_positions,
    ordering_counts,
    sample_ordering_batch,
)
from quasishuffle.stats import ks_uniform

from conftest import atomic_measures, builtin_measures, make_rng


def record(num: int, description: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {tag}  {description}{suffix}")
    assert passed, f"criterion {num:02d}: {description}{suffix}"


def test_criterion_01_riffle_two_card_probability():
    exact = exact_ordering_distribution(gsr(), 2)
    exact_ok = exact.probs == {(1, 2): F(3, 4), (2, 1): F(1, 4)}
    rng = make_rng(101)
    rows = sample_ordering_batch(gsr(), [1, 2], 100_000, rng)
    phat = float(np.mean(rows[:, 0] == 2))
    record(
        1,
        "two-card riffle inverts with probability exactly 1/4, sampler within 0.0041",
        exact_ok and abs(phat - 0.25) <= 0.0041,
        f"phat={phat:.5f}",
    )


def test_criterion_02_sampler_total_variation():
    rng = make_rng(202)
    worst = 0.0
    worst_case = ""
    for name, measure in sorted(builtin_measures().items()):
        for n in (2, 3, 4, 5):
            exact = exact_ordering_distribution(measure, n)
            counts = ordering_counts(measure, list(range(1, n + 1)), 1_000_000, rng)
            emp = PermutationDistribution.from_counts(n, counts)
            tv = float(tv_distance(emp, exact))
            if tv > worst:
                worst, worst_case = tv, f"{name} n={n}"
    record(
        2,
        "ordering sampler within TV 0.01 of the exact law at 10^6 draws "
        "(six measures, 2 <= n <= 5)",
        worst < 0.01,
        f"worst tv={worst:.5f} at {worst_case}",
    )


def test_criterion_03_coupling_step_equals_ordering_law():
    exact_ok = True
    for measure in atomic_measures().values():
        for n in (2, 3, 4, 5):
            via_coupling = exact_coupling_step_distribution(measure, n, "one")
            via_cells = exact_ordering_distribution(measure, n)
            exact_ok = exact_ok and tv_distance(via_coupling, via_cells) == 0
    rng = make_rng(303)
    mixed = mixed_fixture()
    rows = step_batch(4, ConjugateCoupling(mixed), 1_000_000, rng)
    counts: dict = {}
    for row in map(tuple, rows):
        counts[row] = counts.get(row, 0) + 1
    emp = PermutationDistribution.from_counts(4, counts)
    tv = float(tv_distance(emp, exact_ordering_distribution(mixed, 4)))
    record(
        3,
        "one walk step reproduces the ordering law: exact for purely atomic "
        "measures (n <= 5), MC within TV 0.01 at 10^6 for the mixed fixture",
        exact_ok and tv < 0.01,
        f"mixed-step tv={tv:.5f}",
    )


def test_criterion_04_deterministic_map_realizes_inverse_kernel():
    law_ok = True
    for measure in (gsr(), a_shuffle(3)):
        smap = shuffle_map_from_measure(measure)
        for n in (2, 3, 4, 5):
            want = exact_step_distribution(measure, n, "two")
            law_ok = law_ok and tv_distance(
                exact_map_step_distribution(smap, n), want
            ) == 0
    smap = shuffle_map_from_measure(gsr())
    doubling_ok = all(
        smap(F(k, 1000)) == (F(1) if k == 1000 else (2 * F(k, 1000)) % 1)
        for k in range(1001)
    )
    record(
        4,
        "the induced interval map runs the type-two kernel exactly (n <= 5) "
        "and the riffle map is doubling mod one on a 10^3 grid",
        law_ok and doubling_ok,
    )


def test_criterion_05_coupling_marginals_and_grid_validation():
    rng = make_rng(24)
    grid = [[F(1, 9)] * 3] * 3
    samplers = [
        ConjugateCoupling(gsr()),
        ConjugateCoupling(mixed_fixture()),
        InverseConjugateCoupling(gsr()),
        DeterministicCoupling(shuffle_map_from_measure(gsr())),
        GridCopulaCoupling(grid),
        MixtureCoupling(
            ((F(1, 2), ConjugateCoupling(gsr())), (F(1, 2), GridCopulaCoupling(grid)))
        ),
    ]
    worst_p = 1.0
    ok = True
    for sampler in samplers:
        u, v = sampler.draw_batch(100_000, rng)
        for arr in (u, v):
            report = ks_uniform(arr, alpha=0.01)
            worst_p = min(worst_p, report.p_value)
            ok = ok and report.passed
    eps = F(1, 10**12)
    third = F(1, 9)
    bad = [
        [third + eps, third, third],
        [third, third, third],
        [third, third, third],
    ]
    try:
        GridCopulaCoupling(bad)
        rejects = False
    except InvalidGridMatrix:
        rejects = True
    record(
        5,
        "both coupling coordinates are uniform (six samplers, KS at 10^5, "
        "alpha 0.01) and grid copulas reject row sums off by 1e-12",
        ok and rejects,
        f"min p={worst_p:.4f}",
    )


def test_criterion_06_doubly_stochastic_kernels():
    ok = True
    for measure in atomic_measures().values():
        for n in (2, 3, 4, 5):
            step = exact_step_distribution(measure, n, "one")
            perms, rows = transition_matrix(step)
            for row in rows:
                ok = ok and sum(row) == 1
            for j in range(len(perms)):
                ok = ok and sum(row[j] for row in rows) == 1
    record(
        6,
        "every exact step kernel is doubly stochastic (exact row and column "
        "sums, purely atomic measures, n <= 5)",
        ok,
    )


def test_criterion_07_restriction_consistency():
    ok = True
    for measure in builtin_measures().values():
        laws = {n: exact_ordering_distribution(measure, n) for n in (2, 3, 4, 5)}
        for n in (3, 4, 5):
            for m in range(2, n):
                ok = ok and restrict_distribution(laws[n], m) == laws[m]
    record(
        7,
        "marginalizing the n-card law onto the first m cards recovers the "
        "m-card law exactly (all built-ins, 2 <= m < n <= 5)",
        ok,
    )


def test_criterion_08_type_two_duality():
    ok = True
    for measure in atomic_measures().values():
        for n in (2, 3, 4, 5):
            via_coupling = exact_coupling_step_distribution(measure, n, "two")
            via_inversion = invert_distribution(
                exact_ordering_distribution(measure, n)
            )
            ok = ok and tv_distance(via_coupling, via_inversion) == 0
    record(
        8,
        "the type-two step law is the exact inverse-permutation image of the "
        "type-one law (independent routes, n <= 5)",
        ok,
    )


def test_criterion_09_window_frequencies_recover_the_pair():
    rng = make_rng(909)
    atoms = {(F(1, 2), F(0)), (F(1), F(1, 2))}
    hits = 0
    trials = 200
    for _ in range(trials):
        est = empirical_positions(gsr(), 0, 10_000, rng)
        assert (est.target.x, est.target.y) in atoms
        if (
            abs(est.x_hat - float(est.target.x)) <= 0.05
            and abs(est.y_hat - float(est.target.y)) <= 0.05
        ):
            hits += 1
    record(
        9,
        "window rank frequencies recover the target's conjugate pair within "
        "0.05 in at least 99% of 200 trials (window 10^4)",
        hits >= int(0.99 * trials),
        f"hits={hits}/{trials}",
    )


def test_criterion_10_mixing_curves():
    curve = mixing_curve(gsr(), 4, "two", steps=20)
    monotone = all(a >= b for a, b in zip(curve, curve[1:]))
    crossed = [h for h, v in enumerate(curve) if v < F(1, 100)]
    ident = QuasiUniformMeasure((GapInterval(F(0), F(1), "right"),))
    constant = mixing_curve(ident, 4, "two", steps=20) == [F(23, 24)] * 21
    flat = mixing_curve(lebesgue(), 4, "one", steps=20)
    uniform_after_one = flat[0] == F(23, 24) and all(v == 0 for v in flat[1:])
    record(
        10,
        "riffle mixing is exactly non-increasing and under TV 0.01 within 20 "
        "steps; the identity walk stays at 23/24 and one uniform step mixes",
        monotone and bool(crossed) and constant and uniform_after_one,
        f"first h with tv<0.01: {crossed[0] if crossed else 'none'}",
    )


def test_criterion_11_membership_predicate():
    accepted = all(
        is_quasi_uniform(m) and is_quasi_uniform(m.to_candidate())
        for m in builtin_measures().values()
    )
    extra = validate([(0, F(1, 3), "left"), (F(2, 3), 1, "right")])
    accepted = accepted and is_quasi_uniform(extra.to_candidate())
    rejected = not is_quasi_uniform(interior_atom_fixture())
    record(
        11,
        "the membership predicate accepts every validated measure and "
        "rejects the interior-atom candidate",
        accepted and rejected,
    )


def test_criterion_12_label_exchangeability():
    # label values never enter a draw, only their number
    same = all(
        np.array_equal(
            sample_ordering_batch(source, [1, 2, 3], 100_000, make_rng(1212)),
            sample_ordering_batch(source, [5, 40, 1000], 100_000, make_rng(1212)),
        )
        for source in (gsr(), mixed_fixture())
    )
    record(
        12,
        "orderings of {1,2,3} and {5,40,1000} are the same rows at one seed "
        "(10^5 draws, gsr and the mixed fixture)",
        same,
    )
