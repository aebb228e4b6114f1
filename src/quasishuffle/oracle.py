"""Exact laws of orderings and walk steps.

Everything here is computed in exact arithmetic.  The ordering law has one
engine, the transfer kernel: walk the measure's cells in order and cut the
labels, listed in rank order, into one block per cell; the probability of
a ranking is a sum over such cuts and depends only on where that list
descends.  Each cell acts on the cuts as an upper-triangular matrix, and h
walk steps are one step of ``measure.power(mu, h)``, so the product for h
steps nests the product for h - 1 in each atom cell: linear in h, in Python
integers over one common denominator.  Every exact route of a plain measure
folds one loop of the kernel over descent classes: ``ranking_probability``
reads one class, ``_class_law`` sums a mixture's components class by class,
``exact_ordering_distribution`` scatters each class to its rankings (and
``ordering`` deals rows of up to 8 labels from the same class law), and
``mixing_curve`` sums the classes against uniform, weighted by size, with
no n!-entry law.  The map route reads a piecewise-affine map as a
purely atomic measure on that engine.  Two brute-force references check it:

* the cell route (private, ``_cell_enumeration``): enumerate assignments of
  labels to cells, then arrangements within diffuse cells;
* the coupling route (purely atomic measures): enumerate gap assignments
  and the uniform rank vector of the initial coordinates, ranked as one
  integer array per block of assignments.

``convolve`` and ``tv_distance`` on n!-entry laws remain for mixtures'
mixing curves and as a small-n cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, lcm, prod
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Mapping

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyCounts,
    ExactUnavailable,
    NotPurelyAtomic,
    QuasiShuffleError,
)
from .measure import (
    LEFT,
    RIGHT,
    GapInterval,
    MeasureMixture,
    OrderingSource,
    QuasiUniformMeasure,
    _over_common_denominator,
    _row_blocks,
    cell_decomposition,
    as_fraction,
)
from .permutations import (
    Perm,
    _lex_index,
    _lex_rows,
    all_permutations,
    compose,
    identity,
    invert,
    is_permutation,
    perm_from_str,
    perm_to_str,
)

# the array functions import numpy when they run, so that the exact routes
# load without it
if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_N = 6
DEFAULT_MAX_CELLS = 8
_COUPLING_WORK_CAP = 20_000_000
_TRANSFER_WORK_CAP = 20_000_000

__all__ = [
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
        if not total:
            raise EmptyCounts("no observations")
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
    if not parts:
        raise ValueError("a mixture needs at least one component")
    n = parts[0][1].n
    out: dict[Perm, Fraction] = {}
    for weight, d in parts:
        weight = as_fraction(weight, "weight")
        if d.n != n:
            raise DimensionMismatch("mixture components on different S_n")
        for p, mass in d.probs.items():
            out[p] = out.get(p, Fraction(0)) + weight * mass
    return PermutationDistribution(n, out)


def _check_n(n: int, max_n: int):
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    if n > max_n:
        raise CapExceeded(f"n = {n} above exact cap {max_n}")


def _check_kind(kind: str):
    if kind not in ("one", "two"):
        raise ValueError(f"kind must be 'one' or 'two', got {kind!r}")


def _descent_set(ranking: Perm) -> int:
    """Descent set of the labels listed in rank order (the inverse of
    ranking), as a bit mask: bit i is set when that list falls after
    position i + 1."""
    order = invert(ranking)
    return sum(1 << i for i, (a, b) in enumerate(zip(order, order[1:])) if a > b)


# -- the transfer kernel ----------------------------------------------------
#
# Fix the descent set D of the labels listed in rank order.  Cutting that list
# into one block per cell, cell after cell, is a product of upper-triangular
# (n+1)x(n+1) matrices: F_c[a][b] is the probability that the block
# order[a:b] fills cell c, mass^(b-a) when the block may fill it (any block in
# a diffuse cell, over (b-a)!; a rising block at a right atom, a falling one
# at a left atom) and 0 otherwise.  The probability of every ranking in the
# class is the [0][n] entry of the product over the measure's cells.
#
# h steps are one step of power(mu, h): each gap of mu holds a copy of
# power(mu, h - 1) scaled into it, reflected at a left atom.  So T_h, the
# product for power(mu, h), is the product over mu's cells of
#   M_c                          at a diffuse cell,
#   m_c^(b-a) * T_(h-1)[a][b]    at a right atom,
#   m_c^(b-a) * R_(h-1)[a][b]    at a left atom,
# where R_h, the product for the reflection of power(mu, h), is the same
# product over mu reflected: cells in reverse order, atom sides swapped.  T_0
# and R_0 are a rising and a falling atom of mass one.
#
# Entries stay integers: G[a][b] = F[a][b] * (b-a)! * den^(h(b-a)), den the
# common denominator of mu's masses.  In that scaling the product of two
# matrices carries the binomial C(b-a, m-a).
# `_class_values` is the one loop over descent classes: a reduction changes
# which classes it is given, a fold what is done with each class's values.


def _transfer_parts(measure: QuasiUniformMeasure) -> tuple[list, int]:
    """(side, integer mass) of each cell in order, side None for a diffuse
    cell, and the common denominator of the masses."""
    cells = cell_decomposition(measure).cells
    masses, den = _over_common_denominator(c.mass for c in cells)
    return [(c.atom_side if c.kind == "atom" else None, p) for c, p in zip(cells, masses)], den


@lru_cache(maxsize=64)
def _binomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(comb(k, j) for j in range(k + 1)) for k in range(n + 1))


def _times(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    """Product of two scaled transfer matrices; x may be only the first rows
    of a matrix, and the product then has those rows."""
    binom = _binomial_rows(len(y) - 1)
    columns = list(zip(*y))
    out = []
    for a, row in enumerate(x):
        new = [0] * len(y)
        for b in range(a, len(y)):
            new[b] = sum(map(mul, binom[b - a], map(mul, row[a : b + 1], columns[b][a : b + 1])))
        out.append(new)
    return out


def _banded(n: int, entry) -> list[list[int]]:
    """Upper-triangular (n+1)x(n+1) matrix with entry(a, b) on and above
    the diagonal."""
    return [[entry(a, b) if b >= a else 0 for b in range(n + 1)] for a in range(n + 1)]


def _level(parts, den: int, h: int, up, down, flip: bool = False, rows=None):
    """Scaled product for power(mu, h), or for its reflection when flip, from
    `up` and `down`, the products for power(mu, h - 1) and its reflection;
    only its first `rows` rows when rows is given."""
    n = len(up) - 1
    factors = []
    for side, p in reversed(parts) if flip else parts:
        if side is None:
            q = p * den ** (h - 1)
            factors.append(_banded(n, lambda a, b: q ** (b - a)))
        else:
            inner = up if (side == RIGHT) != flip else down
            factors.append(_banded(n, lambda a, b: p ** (b - a) * inner[a][b]))
    return reduce(_times, factors[1:], factors[0][:rows])


def _transfer_powers(parts, den: int, n: int, desc: int, steps: int):
    """Yield the scaled product G_h for h = 0..steps on the descent set
    `desc`; of the last one (h = steps >= 1) only row 0, the one callers
    read."""
    # rise[b] (fall[b]): smallest a such that order[a:b] rises (falls)
    rise, fall = [0] * (n + 1), [0] * (n + 1)
    for b in range(2, n + 1):
        falls = desc >> (b - 2) & 1
        rise[b] = b - 1 if falls else rise[b - 1]
        fall[b] = fall[b - 1] if falls else b - 1
    up = _banded(n, lambda a, b: factorial(b - a) if a >= rise[b] else 0)
    down = _banded(n, lambda a, b: factorial(b - a) if a >= fall[b] else 0)
    reflected = any(side == LEFT for side, _ in parts)
    yield up
    for h in range(1, steps + 1):
        last = h == steps
        up, down = (
            _level(parts, den, h, up, down, rows=1 if last else None),
            _level(parts, den, h, up, down, flip=True) if reflected and not last else down,
        )
        yield up


def _class_values(parts, den: int, n: int, steps: int, classes):
    """Yield (mask, weight, [g_0 .. g_steps]) for each (descent mask, weight)
    in `classes`: g_h / (n! * den^(hn)) is the probability after h steps of
    each ranking whose rank-order list has that descent set."""
    for desc, weight in classes:
        yield desc, weight, [g[0][n] for g in _transfer_powers(parts, den, n, desc, steps)]


def _descent_class_sizes(n: int) -> list[int]:
    """beta_n(D), the number of permutations of n with descent set D, for
    every D as a bit mask: the multinomial count of permutations that rise
    off a set S, inverted over the subsets of D (MacMahon)."""
    cuts = max(n - 1, 0)
    sizes = []
    for mask in range(1 << cuts):
        count, start = factorial(n), 0
        for i in range(cuts):
            if mask >> i & 1:
                count //= factorial(i + 1 - start)
                start = i + 1
        sizes.append(count // factorial(n - start))
    for i in range(cuts):
        bit = 1 << i
        for mask in range(1 << cuts):
            if mask & bit:
                sizes[mask] -= sizes[mask ^ bit]
    return sizes


def ranking_probability(measure: QuasiUniformMeasure, ranking: Perm, steps: int = 1) -> Fraction:
    """Exact probability that labels 1..n rank as `ranking` (ranking[i] = rank
    of label i + 1) after `steps` steps, that is under power(measure, steps),
    for any n.  Costs O(steps * cells * n^3) integer operations."""
    ranking = tuple(int(v) for v in ranking)
    if not is_permutation(ranking):
        raise DimensionMismatch(f"{ranking} is not a permutation of 1..{len(ranking)}")
    if steps < 0:
        raise ValueError(f"steps = {steps} is negative")
    parts, den = _transfer_parts(measure)
    n = len(ranking)
    [(_, _, values)] = _class_values(parts, den, n, steps, [(_descent_set(ranking), 1)])
    return Fraction(values[steps], factorial(n) * den ** (steps * n))


def _class_law(source: OrderingSource, n: int) -> tuple[list[int], int]:
    """The ordering law of n labels by descent class: (nums, den).

    Each ranking whose rank-order list has descent mask D has mass
    nums[D] / den, an integer numerator over one common denominator for
    every class: one step of `_class_values` per component, a mixture's
    components weighted and summed in class space.
    """
    components = source.components if isinstance(source, MeasureMixture) else ((1, source),)
    weights, weight_den = _over_common_denominator(w for w, _ in components)
    classes = 1 << max(n - 1, 0)
    laws = []
    for _, measure in components:
        parts, den = _transfer_parts(measure)
        values = _class_values(parts, den, n, 1, ((desc, None) for desc in range(classes)))
        laws.append((den**n, [g for _, _, (_, g) in values]))
    scale = lcm(*(d for d, _ in laws))
    nums = [0] * classes
    for weight, (d, values) in zip(weights, laws):
        for desc, g in enumerate(values):
            nums[desc] += weight * (scale // d) * g
    return nums, weight_den * factorial(n) * scale


def exact_ordering_distribution(
    source: OrderingSource, n: int, max_n: int = DEFAULT_MAX_N
) -> PermutationDistribution:
    """Exact law of the ranking of n labels (the likelihood route).

    Evaluates the transfer kernel once per descent class (at most 2^(n-1)
    of them) and component (`_class_law`), and assigns each class's value
    to every ranking in the class, rankings in lexicographic order.  Each
    evaluation costs O(cells * n^3), so only n is capped: the law itself
    has n! entries.
    """
    _check_n(n, max_n)
    nums, den = _class_law(source, n)
    return PermutationDistribution(
        n, {r: Fraction(nums[_descent_set(r)], den) for r in all_permutations(n)}
    )


def _cell_enumeration(
    measure: QuasiUniformMeasure,
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> PermutationDistribution:
    """Brute-force reference for the ordering law (the cell route).

    Enumerates the cells^n label-to-cell assignments; within a diffuse cell
    every arrangement is equally likely, within an atom cell the order is
    forced by the atom's side.
    """
    cells = cell_decomposition(measure).cells
    _check_n(n, max_n)
    if len(cells) > max_cells:
        raise CapExceeded(f"{len(cells)} cells above exact cap {max_cells}")
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
) -> PermutationDistribution:
    """Exact one-step law of the walk driven by the conjugate-pair coupling.

    kind "one" moves cards from uniform initial ranks to final ranks (its
    law equals the ordering law); kind "two" is the time reversal, the
    inverse permutation.
    """
    _check_kind(kind)
    d = exact_ordering_distribution(source, n, max_n)
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
    The n! rank vectors of a block of gap assignments are ranked as one
    integer array.  Each step is coded by its gap multiset and its S_n
    index, and each multiset's exact weight is applied once to the counts
    of its codes.
    """
    import numpy as np

    _check_kind(kind)
    if not measure.is_purely_atomic:
        raise NotPurelyAtomic("coupling route needs a purely atomic measure")
    _check_n(n, max_n)
    gaps = measure.gaps
    k = len(gaps)
    work = k**n * factorial(n) * n
    if work > _COUPLING_WORK_CAP:
        raise CapExceeded(f"coupling route work {work} above cap {_COUPLING_WORK_CAP}")
    mass_num, den = _over_common_denominator(g.mass for g in gaps)
    u_ranks = np.array(all_permutations(n), dtype=np.int64).reshape(factorial(n), n)
    # Gaps are sorted with disjoint interiors, so the gap index orders them as
    # (lo, hi) does.  Final order: by gap, then by u-rank up at a right atom and
    # down at a left atom, packed into one integer g * (2n + 1) +- u_rank.
    span = 2 * n + 1
    sign = np.array([1 if g.atom_side == RIGHT else -1 for g in gaps], dtype=np.int64)
    assigns = np.indices((k,) * n).reshape(n, k**n).T
    # the assignments of one gap multiset share one exact weight: code each
    # step as multiset * n! + its S_n index, and weigh each code's count once
    # (a multiset's code in base k orders the multisets as their rows do)
    sorted_assigns = np.sort(assigns, axis=1)
    _, first, group = np.unique(
        sorted_assigns @ k ** np.arange(n - 1, -1, -1), return_index=True, return_inverse=True
    )
    multisets = sorted_assigns[first]
    weights = [prod(mass_num[g] for g in gs) for gs in multisets.tolist()]
    n_perms = len(u_ranks)
    blocks = _row_blocks(len(assigns), u_ranks.size or 1)
    steps = [_lex_index(_coupling_steps(assigns[a:b], u_ranks, sign, span, kind)) for a, b in blocks]
    codes = np.repeat(group, n_perms) * n_perms + np.concatenate(steps)
    counts: dict[int, int] = {}
    for code, count in zip(*(a.tolist() for a in np.unique(codes, return_counts=True))):
        g, index = divmod(code, n_perms)
        counts[index] = counts.get(index, 0) + weights[g] * count
    perms = map(tuple, _lex_rows(np.array(list(counts)), n).tolist())
    total = den**n * n_perms
    return PermutationDistribution(n, {p: Fraction(c, total) for p, c in zip(perms, counts.values())})


def _coupling_steps(assigns, u_ranks, sign, span: int, kind: str) -> np.ndarray:
    """Step of every (gap assignment, u-rank vector) pair, one row each."""
    import numpy as np

    shape = (len(assigns) * len(u_ranks), u_ranks.shape[1])
    keys = ((assigns * span)[:, None, :] + sign[assigns][:, None, :] * u_ranks).reshape(shape)
    rows = np.arange(len(keys))[:, None]
    v_ranks = np.empty_like(keys)
    # the keys of a row are distinct, so any sort ranks them
    v_ranks[rows, np.argsort(keys, axis=1)] = np.arange(1, shape[1] + 1)
    u_ranks = np.broadcast_to(u_ranks, (len(assigns), *u_ranks.shape)).reshape(shape)
    sigma = np.empty_like(keys)
    if kind == "one":
        sigma[rows, u_ranks - 1] = v_ranks
    else:
        sigma[rows, v_ranks - 1] = u_ranks
    return sigma


def exact_map_step_distribution(
    shuffle_map, n: int, max_n: int = DEFAULT_MAX_N
) -> PermutationDistribution:
    """Exact step law of a deterministic coupling given by a ShuffleMap.

    A piece that maps onto the whole interval is fixed by its ends and the
    sign of its slope, so the map is `shuffle_map_from_measure` of the
    purely atomic measure with one gap per piece (atom at hi for a rising
    piece, at lo for a falling one), and its step is that measure's type-two
    step.  Any other piece leaves the final ranks dependent on the piece
    assignment; no exact route is implemented and ExactUnavailable is raised.
    """
    gaps = []
    for p in shuffle_map.pieces:
        if p.image() != (0, 1):
            raise ExactUnavailable(
                f"piece ({p.lo},{p.hi}) maps onto {p.image()}, not the whole interval"
            )
        gaps.append(GapInterval(p.lo, p.hi, RIGHT if p.slope > 0 else LEFT))
    return exact_step_distribution(QuasiUniformMeasure(tuple(gaps)), n, "two", max_n)


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
) -> list[Fraction]:
    """Exact TV distance to uniform after h = 0..steps walk steps from id.

    h steps of a plain measure are one step of power(measure, h), so its
    curve comes from the transfer kernel, descent class by descent class:
    TV_h = sum over D of beta_n(D) |P_h(D) - 1/n!| / 2, with no n!-entry law.
    Its cost is capped as work (classes * steps * cells * n^3), not by n.
    The two kinds give the same curve (TV is invariant under inversion).  A
    MeasureMixture convolves its n!-entry step law instead, capped at max_n.
    """
    _check_kind(kind)
    if steps < 0:
        raise ValueError(f"steps = {steps} is negative")
    if isinstance(source, MeasureMixture):
        curve = _convolution_curve(exact_step_distribution(source, n, kind, max_n), steps)
    else:
        curve = _transfer_curve(source, n, steps)
    for before, after in zip(curve, curve[1:]):
        if after > before:
            raise QuasiShuffleError(f"TV to uniform must not increase: {before} -> {after}")
    return curve


def _convolution_curve(step: PermutationDistribution, steps: int) -> list[Fraction]:
    uniform = PermutationDistribution.uniform(step.n)
    state = PermutationDistribution.point_mass(identity(step.n))
    curve = [tv_distance(state, uniform)]
    for _ in range(steps):
        state = convolve(step, state)
        curve.append(tv_distance(state, uniform))
    return curve


def _transfer_curve(measure: QuasiUniformMeasure, n: int, steps: int) -> list[Fraction]:
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    parts, den = _transfer_parts(measure)
    # the work counts the classes the fold visits, here all 2^(n-1)
    work = (1 << max(n - 1, 0)) * steps * len(parts) * n**3
    if work > _TRANSFER_WORK_CAP:
        raise CapExceeded(f"mixing curve work {work} above cap {_TRANSFER_WORK_CAP}")
    # n! * P_h(D) * den^(hn) against den^(hn), summed with the class sizes
    sums = [0] * (steps + 1)
    for _, size, values in _class_values(parts, den, n, steps, enumerate(_descent_class_sizes(n))):
        for h, g in enumerate(values):
            sums[h] += size * abs(g - den ** (h * n))
    return [Fraction(total, 2 * factorial(n) * den ** (h * n)) for h, total in enumerate(sums)]
