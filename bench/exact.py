"""The exact workload: exact rational laws, step routes and mixing curves.

It draws no random numbers.  The cell route runs on an enumeration-heavy
a-shuffle:8 and an arrangement-heavy measure with diffuse cells; the
coupling and map routes run on purely atomic measures; mixing curves
convolve a riffle and a full-support measure.  Every law is compared, as
exact fractions, with the benchmark's own reference code.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import reference as R
from mc_sample import measure_of, source_of
from ops import Op


def _law_check(want):
    """Check a returned distribution against a lazily built reference law."""
    import checks as C

    cache = []

    def check(dist):
        if not cache:
            cache.append(want())
        return C.same_law(dict(dist.probs), cache[0])

    return check


def _bd_check(a, n, steps):
    def check(curve):
        want = [R.bayer_diaconis_tv(a, n, h) for h in range(steps + 1)]
        if list(curve) != want:
            return f"mixing curve {[str(v) for v in curve]} != Bayer-Diaconis {[str(v) for v in want]}"
        return None

    return check


def _mixed_curve_check(n, steps):
    def check(curve):
        if len(curve) != steps + 1 or curve[0] != 1 - Fraction(1, factorial(n)):
            return f"curve {curve[:1]} does not start at 1 - 1/{n}!"
        want = R.tv_to_uniform(R.block_cut_law(R.MIXED, n), n)
        if curve[1] != want:
            return f"h=1 value {curve[1]} != reference TV {want}"
        if any(b > a for a, b in zip(curve, curve[1:])):
            return "mixing curve increases"
        return None

    return check


def _cards(name: str, laws: int = 1) -> int:
    """Cards resolved: n * n! per law over S_n that the operation returns."""
    n = int(name.rsplit("/n", 1)[1])
    return laws * n * factorial(n)


def build(q) -> list[Op]:
    a8 = measure_of(q, R.a_shuffle_gaps(8))
    a3 = measure_of(q, R.A3)
    gsr = measure_of(q, R.GSR)
    gsr_conj = measure_of(q, R.GSR_CONJUGATE)
    mixed = measure_of(q, R.MIXED)
    lebesgue = measure_of(q, R.LEBESGUE)
    mixture = source_of(q, R.MIXTURE)
    gsr_map = q.shuffle_map_from_measure(gsr)
    a3_map = q.shuffle_map_from_measure(a3)
    ops = [
        Op("exact_ordering_distribution/a-shuffle-8/n5",
           lambda _: q.exact_ordering_distribution(a8, 5),
           _law_check(lambda: R.a_shuffle_law(8, 5))),
        Op("exact_ordering_distribution/mixed/n6",
           lambda _: q.exact_ordering_distribution(mixed, 6),
           _law_check(lambda: R.block_cut_law(R.MIXED, 6))),
        Op("exact_ordering_distribution/mixed/n7",
           lambda _: q.exact_ordering_distribution(mixed, 7, max_n=7),
           _law_check(lambda: R.block_cut_law(R.MIXED, 7))),
        Op("exact_ordering_distribution/lebesgue/n6",
           lambda _: q.exact_ordering_distribution(lebesgue, 6),
           _law_check(lambda: R.uniform_law(6))),
        Op("exact_ordering_distribution/mixture/n6",
           lambda _: q.exact_ordering_distribution(mixture, 6),
           _law_check(lambda: R.mixture_law(R.MIXTURE, 6))),
        Op("exact_step_distribution/two/mixed/n6",
           lambda _: q.exact_step_distribution(mixed, 6, "two"),
           _law_check(lambda: R.inverse_law(R.block_cut_law(R.MIXED, 6)))),
        Op("exact_coupling_step_distribution/one/a-shuffle-3/n5",
           lambda _: q.exact_coupling_step_distribution(a3, 5, "one"),
           _law_check(lambda: R.a_shuffle_law(3, 5))),
        Op("exact_coupling_step_distribution/two/gsr-conjugate/n6",
           lambda _: q.exact_coupling_step_distribution(gsr_conj, 6, "two"),
           _law_check(lambda: R.inverse_law(R.a_shuffle_law(2, 6, mirror=True)))),
        Op("exact_map_step_distribution/gsr/n6",
           lambda _: q.exact_map_step_distribution(gsr_map, 6),
           _law_check(lambda: R.inverse_law(R.a_shuffle_law(2, 6)))),
        Op("exact_map_step_distribution/a-shuffle-3/n5",
           lambda _: q.exact_map_step_distribution(a3_map, 5),
           _law_check(lambda: R.inverse_law(R.a_shuffle_law(3, 5)))),
        Op("mixing_curve/one/gsr/n7", lambda _: q.mixing_curve(gsr, 7, "one", 2, max_n=7),
           _bd_check(2, 7, 2)),
        Op("mixing_curve/two/gsr/n6", lambda _: q.mixing_curve(gsr, 6, "two", 5),
           _bd_check(2, 6, 5)),
        Op("mixing_curve/two/mixed/n5", lambda _: q.mixing_curve(mixed, 5, "two", 6),
           _mixed_curve_check(5, 6)),
    ]
    steps = {"mixing_curve/one/gsr/n7": 2, "mixing_curve/two/gsr/n6": 5,
             "mixing_curve/two/mixed/n5": 6}
    for op in ops:
        op.cards = _cards(op.name, steps.get(op.name, 1))
    return ops
