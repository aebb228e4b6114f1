"""Exact laws on small symmetric groups.

Everything here is computed in exact rational arithmetic.  The ordering law
has one engine and three independent references that check it:

* the likelihood route: walk the measure's cells in order and cut the
  labels, listed in rank order, into one block per cell; the probability of
  a ranking is a sum over such cuts and depends only on where that list
  descends (``ranking_probability``);
* the cell route (private reference): enumerate assignments of labels to
  cells, then arrangements within diffuse cells;
* the coupling route (purely atomic measures): enumerate gap assignments
  and the uniform rank vector of the initial coordinates;
* the map route (piecewise-affine maps whose pieces each cover the whole
  interval): enumerate piece assignments and final-coordinate ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import itemgetter
from typing import Mapping, Sequence, Union

from .errors import CapExceeded, DimensionMismatch, ExactUnavailable, NotPurelyAtomic
from .measure import (
    MeasureMixture,
    QuasiUniformMeasure,
    Cell,
    CellDecomposition,
    cell_decomposition,
    as_fraction,
)
from .permutations import (
    Perm,
    all_permutations,
    compose,
    identity,
    invert,
    is_permutation,
    perm_from_str,
    perm_to_str,
)

DEFAULT_MAX_N = 6
DEFAULT_MAX_CELLS = 8
_COUPLING_WORK_CAP = 20_000_000

__all__ = [
    "Cell",
    "CellDecomposition",
    "cell_decomposition",
    "PermutationDistribution",
    "ranking_probability",
    "exact_ordering_distribution",
    "exact_step_distribution",
    "exact_coupling_step_distribution",
    "exact_map_step_distribution",
    "tv_distance",
    "invert_distribution",
    "restrict_distribution",
    "combine_distributions",
    "transition_matrix",
    "convolve",
    "mixing_curve",
]

OrderingSource = Union[QuasiUniformMeasure, MeasureMixture]


@dataclass(frozen=True)
class PermutationDistribution:
    """Exact distribution over S_n, stored as nonzero rational masses."""

    n: int
    probs: Mapping[Perm, Fraction]

    def __post_init__(self):
        clean = {}
        for p, mass in self.probs.items():
            p = tuple(int(v) for v in p)
            if not is_permutation(p) or len(p) != self.n:
                raise DimensionMismatch(f"{p} is not a permutation of 1..{self.n}")
            mass = as_fraction(mass, "probability")
            if mass < 0:
                raise ValueError(f"negative mass {mass} at {p}")
            if mass > 0:
                clean[p] = clean.get(p, Fraction(0)) + mass
        total = sum(clean.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"masses sum to {total}, expected 1")
        object.__setattr__(self, "probs", clean)

    @classmethod
    def uniform(cls, n: int) -> "PermutationDistribution":
        mass = Fraction(1, factorial(n))
        return cls(n, {p: mass for p in all_permutations(n)})

    @classmethod
    def point_mass(cls, perm: Perm) -> "PermutationDistribution":
        return cls(len(perm), {tuple(perm): Fraction(1)})

    @classmethod
    def from_counts(cls, n: int, counts: Mapping[Perm, int]) -> "PermutationDistribution":
        total = sum(counts.values())
        return cls(n, {p: Fraction(c, total) for p, c in counts.items() if c})

    def prob(self, perm: Perm) -> Fraction:
        return self.probs.get(tuple(perm), Fraction(0))

    def support(self) -> list[Perm]:
        return sorted(self.probs)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "probs": {perm_to_str(p): str(m) for p, m in sorted(self.probs.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PermutationDistribution":
        return cls(
            int(obj["n"]),
            {perm_from_str(k): as_fraction(v, "probability") for k, v in obj["probs"].items()},
        )


def tv_distance(p: PermutationDistribution, q: PermutationDistribution) -> Fraction:
    if p.n != q.n:
        raise DimensionMismatch(f"distributions on S_{p.n} and S_{q.n}")
    keys = set(p.probs) | set(q.probs)
    acc = Fraction(0)
    for k in keys:
        acc += abs(p.prob(k) - q.prob(k))
    return acc / 2


def invert_distribution(d: PermutationDistribution) -> PermutationDistribution:
    return PermutationDistribution(d.n, {invert(p): m for p, m in d.probs.items()})


def restrict_distribution(d: PermutationDistribution, m: int) -> PermutationDistribution:
    """Marginal ranking of the first m labels out of n."""
    if not 1 <= m <= d.n:
        raise DimensionMismatch(f"cannot restrict S_{d.n} to first {m}")
    out: dict[Perm, Fraction] = {}
    for p, mass in d.probs.items():
        head = p[:m]
        induced = tuple(sum(1 for v in head if v <= w) for w in head)
        out[induced] = out.get(induced, Fraction(0)) + mass
    return PermutationDistribution(m, out)


def combine_distributions(parts) -> PermutationDistribution:
    """Exact mixture sum((weight, distribution))."""
    parts = list(parts)
    n = parts[0][1].n
    out: dict[Perm, Fraction] = {}
    for weight, d in parts:
        weight = as_fraction(weight, "weight")
        if d.n != n:
            raise DimensionMismatch("mixture components on different S_n")
        for p, mass in d.probs.items():
            out[p] = out.get(p, Fraction(0)) + weight * mass
    return PermutationDistribution(n, out)


def _check_caps(n: int, cells: int, max_n: int, max_cells: int):
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    if n > max_n:
        raise CapExceeded(f"n = {n} above exact cap {max_n}")
    if cells > max_cells:
        raise CapExceeded(f"{cells} cells above exact cap {max_cells}")


def _descents(ranking: Perm) -> tuple[bool, ...]:
    """Descent set of the labels listed in rank order (the inverse of ranking)."""
    order = invert(ranking)
    return tuple(a > b for a, b in zip(order, order[1:]))


def _over_common_denominator(masses) -> tuple[list[int], int]:
    """Integer numerators of the masses over their least common denominator."""
    masses = list(masses)
    den = lcm(*(m.denominator for m in masses))
    return [m.numerator * (den // m.denominator) for m in masses], den


def _block_weights(cells: Sequence[Cell], n: int) -> list[list[Fraction]]:
    """weights[c][k]: probability that a given block of k labels lands in cell c
    in one admissible internal order (mass^k, over k! in a diffuse cell)."""
    weights = []
    for cell in cells:
        row = [Fraction(1)]
        for k in range(1, n + 1):
            row.append(row[-1] * cell.mass / (k if cell.kind == "diffuse" else 1))
        weights.append(row)
    return weights


def _block_cut_probability(
    cells: Sequence[Cell], weights: list[list[Fraction]], descents: tuple[bool, ...]
) -> Fraction:
    """Sum over cuts of the rank-order label list into one block per cell.

    A right-atom block must increase and a left-atom block must decrease;
    a diffuse block may be in any order.  Only the descent set is read, so
    every ranking in one descent class gets the same value.
    """
    n = len(weights[0]) - 1
    # first[b]: smallest a such that the block order[a:b] may fill the cell
    any_order = [0] * (n + 1)
    rise = [0] * (n + 1)
    fall = [0] * (n + 1)
    for b in range(2, n + 1):
        rise[b] = b - 1 if descents[b - 2] else rise[b - 1]
        fall[b] = fall[b - 1] if descents[b - 2] else b - 1
    # f[b]: probability that the first b labels in rank order fill the cells so far
    f = [Fraction(1)] + [Fraction(0)] * n
    for cell, w in zip(cells, weights):
        if cell.kind == "diffuse":
            first = any_order
        else:
            first = rise if cell.atom_side == "right" else fall
        f = [sum(f[a] * w[b - a] for a in range(first[b], b + 1)) for b in range(n + 1)]
    return f[n]


def ranking_probability(measure: QuasiUniformMeasure, ranking: Perm) -> Fraction:
    """Exact probability that labels 1..n rank as `ranking` (ranking[i] = rank
    of label i + 1), for any n.  Costs O(cells * n^2) exact operations."""
    ranking = tuple(int(v) for v in ranking)
    if not is_permutation(ranking):
        raise DimensionMismatch(f"{ranking} is not a permutation of 1..{len(ranking)}")
    cells = cell_decomposition(measure).cells
    return _block_cut_probability(cells, _block_weights(cells, len(ranking)), _descents(ranking))


def exact_ordering_distribution(
    source: OrderingSource,
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> PermutationDistribution:
    """Exact law of the ranking of n labels (the likelihood route).

    Evaluates the block-cut likelihood once per descent class (at most
    2^(n-1) of them) and assigns it to every ranking in the class.
    """
    if isinstance(source, MeasureMixture):
        return combine_distributions(
            (w, exact_ordering_distribution(m, n, max_n, max_cells))
            for w, m in source.components
        )
    cells = cell_decomposition(source).cells
    _check_caps(n, len(cells), max_n, max_cells)
    weights = _block_weights(cells, n)
    by_class: dict[tuple[bool, ...], Fraction] = {}
    probs: dict[Perm, Fraction] = {}
    for ranking in all_permutations(n):
        descents = _descents(ranking)
        mass = by_class.get(descents)
        if mass is None:
            mass = by_class[descents] = _block_cut_probability(cells, weights, descents)
        if mass:
            probs[ranking] = mass
    return PermutationDistribution(n, probs)


def _cell_enumeration(
    measure: QuasiUniformMeasure,
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> PermutationDistribution:
    """Brute-force reference for the ordering law (the cell route).

    Enumerates label-to-cell assignments; within a diffuse cell every
    arrangement is equally likely, within an atom cell the order is forced
    by the atom's side.
    """
    cells = cell_decomposition(measure).cells
    _check_caps(n, len(cells), max_n, max_cells)
    probs: dict[Perm, Fraction] = {}
    for assign in itertools.product(range(len(cells)), repeat=n):
        base = Fraction(1)
        for c in assign:
            base *= cells[c].mass
        groups: list[list[int]] = [[] for _ in cells]
        for label_idx, c in enumerate(assign):
            groups[c].append(label_idx)
        options = []
        denom = 1
        for ci, cell in enumerate(cells):
            g = groups[ci]
            if cell.kind == "atom":
                ordered = g if cell.atom_side == "right" else list(reversed(g))
                options.append([tuple(ordered)])
            else:
                perms = list(itertools.permutations(g))
                options.append(perms)
                denom *= len(perms)
        weight = base / denom
        for combo in itertools.product(*options):
            ranking = [0] * n
            pos = 0
            for block in combo:
                for label_idx in block:
                    ranking[label_idx] = pos + 1
                    pos += 1
            key = tuple(ranking)
            probs[key] = probs.get(key, Fraction(0)) + weight
    return PermutationDistribution(n, probs)


def exact_step_distribution(
    source: OrderingSource,
    n: int,
    kind: str = "one",
    max_n: int = DEFAULT_MAX_N,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> PermutationDistribution:
    """Exact one-step law of the walk driven by the conjugate-pair coupling.

    kind "one" moves cards from uniform initial ranks to final ranks (its
    law equals the ordering law); kind "two" is the time reversal, the
    inverse permutation.
    """
    if kind not in ("one", "two"):
        raise ValueError(f"kind must be 'one' or 'two', got {kind!r}")
    d = exact_ordering_distribution(source, n, max_n, max_cells)
    return d if kind == "one" else invert_distribution(d)


def exact_coupling_step_distribution(
    measure: QuasiUniformMeasure,
    n: int,
    kind: str = "one",
    max_n: int = DEFAULT_MAX_N,
) -> PermutationDistribution:
    """Independent exact step law via the coupling route (purely atomic).

    Enumerates the gap hit by each card and the uniform rank vector of the
    initial coordinates; final ranks follow from gap order and atom side.
    """
    if kind not in ("one", "two"):
        raise ValueError(f"kind must be 'one' or 'two', got {kind!r}")
    if not measure.is_purely_atomic:
        raise NotPurelyAtomic("coupling route needs a purely atomic measure")
    if n > max_n:
        raise CapExceeded(f"n = {n} above exact cap {max_n}")
    gaps = measure.gaps
    work = len(gaps) ** n * factorial(n) * n
    if work > _COUPLING_WORK_CAP:
        raise CapExceeded(f"coupling route work {work} above cap {_COUPLING_WORK_CAP}")
    mass_num, den = _over_common_denominator(g.mass for g in gaps)
    counts: dict[Perm, int] = {}
    ranks = all_permutations(n)
    # Gaps are sorted with disjoint interiors, so the gap index orders them as
    # (lo, hi) does.  Final order: by gap, then by u-rank up at a right atom and
    # down at a left atom, packed into one integer g * (2n + 1) +- u_rank.
    span = 2 * n + 1
    sign = [1 if g.atom_side == "right" else -1 for g in gaps]
    for assign in itertools.product(range(len(gaps)), repeat=n):
        weight = 1
        for g in assign:
            weight *= mass_num[g]
        offsets = [g * span for g in assign]
        signs = [sign[g] for g in assign]
        for u_ranks in ranks:
            v_key = [offsets[i] + signs[i] * u_ranks[i] for i in range(n)]
            order = sorted(range(n), key=v_key.__getitem__)
            v_ranks = [0] * n
            for pos, i in enumerate(order):
                v_ranks[i] = pos + 1
            sigma = [0] * n
            for i in range(n):
                if kind == "one":
                    sigma[u_ranks[i] - 1] = v_ranks[i]
                else:
                    sigma[v_ranks[i] - 1] = u_ranks[i]
            key = tuple(sigma)
            counts[key] = counts.get(key, 0) + weight
    total = den**n * factorial(n)
    return PermutationDistribution(n, {p: Fraction(c, total) for p, c in counts.items()})


def exact_map_step_distribution(
    shuffle_map, n: int, max_n: int = DEFAULT_MAX_N
) -> PermutationDistribution:
    """Independent exact step law of a deterministic coupling (the map route).

    Works when every affine piece maps onto the whole interval (true for
    every map derived from a purely atomic measure); otherwise the final
    ranks are not independent of the piece assignment and no exact route
    is implemented, so ExactUnavailable is raised.
    """
    if n > max_n:
        raise CapExceeded(f"n = {n} above exact cap {max_n}")
    pieces = list(getattr(shuffle_map, "pieces", shuffle_map))
    for p in pieces:
        lo_val = p.slope * p.lo + p.intercept
        hi_val = p.slope * p.hi + p.intercept
        image = (min(lo_val, hi_val), max(lo_val, hi_val))
        if image != (Fraction(0), Fraction(1)):
            raise ExactUnavailable(
                f"piece ({p.lo},{p.hi}) maps onto {image}, not the whole interval"
            )
    work = len(pieces) ** n * factorial(n) * n
    if work > _COUPLING_WORK_CAP:
        raise CapExceeded(f"map route work {work} above cap {_COUPLING_WORK_CAP}")
    fact = Fraction(1, factorial(n))
    probs: dict[Perm, Fraction] = {}
    ranks = all_permutations(n)
    for assign in itertools.product(range(len(pieces)), repeat=n):
        base = Fraction(1)
        for pi in assign:
            base *= pieces[pi].hi - pieces[pi].lo
        weight = base * fact
        for v_ranks in ranks:
            def u_key(i):
                p = pieces[assign[i]]
                direction = v_ranks[i] if p.slope > 0 else -v_ranks[i]
                return (p.lo, p.hi, direction)
            order = sorted(range(n), key=u_key)
            u_ranks = [0] * n
            for pos, i in enumerate(order):
                u_ranks[i] = pos + 1
            sigma = [0] * n
            for i in range(n):
                sigma[u_ranks[i] - 1] = v_ranks[i]
            key = tuple(sigma)
            probs[key] = probs.get(key, Fraction(0)) + weight
    return PermutationDistribution(n, probs)


def transition_matrix(step: PermutationDistribution):
    """Full kernel on S_n: rows/columns in lexicographic order, exact entries."""
    perms = all_permutations(step.n)
    rows = []
    for rho in perms:
        inv_rho = invert(rho)
        rows.append([step.prob(compose(tau, inv_rho)) for tau in perms])
    return perms, rows


def convolve(step: PermutationDistribution, state: PermutationDistribution) -> PermutationDistribution:
    """One walk step: push state through the kernel (new = step . state)."""
    if step.n != state.n:
        raise DimensionMismatch("step and state on different S_n")
    step_num, step_den = _over_common_denominator(step.probs.values())
    state_num, state_den = _over_common_denominator(state.probs.values())
    out: dict[Perm, int] = {}
    for q, b in zip(state.probs, state_num):
        # s -> compose(s, q); with fewer than two cards q is the identity
        after_q = itemgetter(*(v - 1 for v in q)) if step.n > 1 else tuple
        for s, a in zip(step.probs, step_num):
            key = after_q(s)
            out[key] = out.get(key, 0) + a * b
    den = step_den * state_den
    return PermutationDistribution(step.n, {p: Fraction(c, den) for p, c in out.items()})


def mixing_curve(
    source: OrderingSource,
    n: int,
    kind: str = "one",
    steps: int = 10,
    max_n: int = DEFAULT_MAX_N,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> list[Fraction]:
    """Exact TV distance to uniform after h = 0..steps walk steps from id."""
    step = exact_step_distribution(source, n, kind, max_n, max_cells)
    uniform = PermutationDistribution.uniform(n)
    state = PermutationDistribution.point_mass(identity(n))
    curve = [tv_distance(state, uniform)]
    for _ in range(steps):
        state = convolve(step, state)
        curve.append(tv_distance(state, uniform))
        assert curve[-1] <= curve[-2], "TV to uniform must not increase"
    return curve
