"""Couplings of two uniforms and the card-shuffling kernels they induce.

A coupling sampler draws a pair (u, v) of uniform coordinates.  A walk
step deals n cards, one coupled pair each: initial positions are the ranks
of the u's, final positions the ranks of the v's, and the step permutation
maps initial to final positions (left composition onto the walk state).

A conjugate coupling's step is dealt as the measure's random ordering of
labels 1..n, the card with the k-th smallest u being label k: its cell is
drawn independently of u, and inside an atom cell v follows the u order
(reversed at a left atom), ranked from one exact integer key per card
(`ordering._ordering_keys`), so no two cards tie.  Every other coupling
ranks its float pairs (`permutations._row_ranks`); ties there
(probability ~2^-52 each) resolve by card order.  A mixture's conjugate
couplings of plain measures are one coupling of all their cells
(`_ConjugateCells`): each card draws one cell, with its component's
weight times its mass, from one uniform, and its u from a second.  A
grid-copula cell, a shuffle-map piece, such a cell and a mixture's other
components are found by the guide-table lookup that finds a measure's
cells (`measure._Guide`).

Steps are dealt in row blocks of about 2^14 draws (`measure._row_blocks`),
each written straight into one preallocated output, so no temporary grows
with the batch; a conjugate coupling's blocks are those of
`ordering._deal`, which chooses among a word table, a class table and the
keys, and sizes its blocks by the uniforms their rows draw.
`empirical_step_counts` counts the blocks one by one, and
`empirical_mixing_curve` composes its one state array (int8 below 128
cards) in place with each block of steps; both count through
`permutations.count_perms`, by S_n index up to `_CODE_WIDTH` cards, and a
conjugate step is counted by its ordering's S_n index as `_deal` deals it.
Blocks draw their uniforms in row order, so conjugate steps are those of
one whole-batch draw; a coupling that draws (u, v) pairs draws them block
by block, which keeps its law but not its rows at a fixed seed once a batch
spans more than one block.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    ExactUnavailable,
    InvalidGridMatrix,
    InvalidShuffleMap,
    NotPurelyAtomic,
)
from .measure import (
    QuasiUniformMeasure,
    RationalLike,
    _checked_weights,
    _Guide,
    _json_list,
    _json_object,
    _plain_measure,
    _resolve_spec,
    _row_blocks,
    _weight_guide,
    as_fraction,
    cell_decomposition,
    sample_conjugate_batch,
)
from .permutations import (
    _CODE_WIDTH,
    Perm,
    _row_ranks,
    compose,
    count_perms,
    identity,
    is_permutation,
    perm_histogram,
)

# the array functions import numpy (and `ordering`, which deals conjugate
# steps) when they run, so that `shuffle-map` loads without numpy
if TYPE_CHECKING:
    import numpy as np

    from .oracle import PermutationDistribution

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- piecewise-affine shuffle maps ----------------------------------------


@dataclass(frozen=True)
class AffinePiece:
    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        for name in ("lo", "hi", "slope", "intercept"):
            object.__setattr__(self, name, as_fraction(getattr(self, name), name))
        if self.hi <= self.lo:
            raise InvalidShuffleMap(f"piece ({self.lo},{self.hi}) has no interior")
        if self.slope == 0:
            raise InvalidShuffleMap("piece slope must be nonzero")

    def value(self, x: RationalLike) -> Fraction:
        return self.slope * as_fraction(x, "x") + self.intercept

    def image(self) -> tuple[Fraction, Fraction]:
        a = self.value(self.lo)
        b = self.value(self.hi)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ShuffleMap:
    """Lebesgue-measure-preserving piecewise-affine map of [0,1].

    Pieces partition [0,1]; evaluation is right-continuous (x = 1 uses the
    last piece).  Construction checks the partition and, exactly on the
    refinement induced by all image endpoints, that the preimage density
    sum(1/|slope|) over covering pieces equals one.
    """

    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: (p.lo, p.hi)))
        if not pieces:
            raise InvalidShuffleMap("need at least one piece")
        if pieces[0].lo != 0 or pieces[-1].hi != 1:
            raise InvalidShuffleMap("pieces must start at 0 and end at 1")
        for a, b in zip(pieces, pieces[1:]):
            if a.hi != b.lo:
                raise InvalidShuffleMap(f"pieces leave a hole at ({a.hi}, {b.lo})")
        points = set()
        for p in pieces:
            lo_img, hi_img = p.image()
            if lo_img < 0 or hi_img > 1:
                raise InvalidShuffleMap(f"piece image ({lo_img},{hi_img}) leaves [0,1]")
            points.update(p.image())
        points.update((_ZERO, _ONE))
        refined = sorted(points)
        for a, b in zip(refined, refined[1:]):
            density = _ZERO
            for p in pieces:
                lo_img, hi_img = p.image()
                if lo_img <= a and b <= hi_img:
                    density += 1 / abs(p.slope)
            if density != 1:
                raise InvalidShuffleMap(
                    f"preimage density on ({a},{b}) is {density}, not 1"
                )
        object.__setattr__(self, "pieces", pieces)

    def piece_at(self, x: RationalLike) -> AffinePiece:
        x = as_fraction(x, "x")
        if x < 0 or x > 1:
            raise ValueError(f"x = {x} outside [0,1]")
        los = [p.lo for p in self.pieces]
        i = bisect_right(los, x) - 1
        if x == 1:
            i = len(self.pieces) - 1
        return self.pieces[max(i, 0)]

    def __call__(self, x: RationalLike) -> Fraction:
        return self.piece_at(x).value(x)

    @cached_property
    def _piece_tables(self):
        """The guide over the pieces, and each piece's slope and intercept."""
        import numpy as np

        guide = _Guide.build([[*(float(p.lo) for p in self.pieces), 1.0]])
        slopes = np.array([float(p.slope) for p in self.pieces])
        return guide, slopes, np.array([float(p.intercept) for p in self.pieces])

    def eval_batch(self, u: np.ndarray) -> np.ndarray:
        """The map at each u, in floats; a u outside [0,1] or NaN raises
        ValueError, as in `piece_at`."""
        import numpy as np

        u = np.asarray(u, dtype=np.float64)
        inside = (u >= 0.0) & (u <= 1.0)
        if not inside.all():
            raise ValueError(f"x = {u[~inside][0]} outside [0,1]")
        guide, slopes, intercepts = self._piece_tables
        at = guide.lookup(u)
        return slopes[at] * u + intercepts[at]

    def to_json(self) -> dict:
        return {
            "pieces": [
                {
                    "lo": str(p.lo),
                    "hi": str(p.hi),
                    "slope": str(p.slope),
                    "intercept": str(p.intercept),
                }
                for p in self.pieces
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ShuffleMap":
        keys = ("lo", "hi", "slope", "intercept")
        pieces = _json_list(_json_object(obj, "shuffle map", "pieces")["pieces"], "pieces")
        pieces = [_json_object(p, "map piece", *keys) for p in pieces]
        return cls(tuple(AffinePiece(*(p[k] for k in keys)) for p in pieces))


def shuffle_map_from_measure(measure: QuasiUniformMeasure) -> ShuffleMap:
    """The deterministic map whose step law matches the measure's shuffle.

    Each gap maps affinely onto [0,1]: increasing from a right atom's gap,
    decreasing from a left atom's gap.  Needs a purely atomic measure.
    """
    if not measure.is_purely_atomic:
        raise NotPurelyAtomic(
            f"measure keeps diffuse mass {measure.diffuse_mass}; no deterministic map"
        )
    pieces = []
    for g in measure.gaps:
        if g.atom_side == "right":
            slope = 1 / g.mass
            intercept = -g.lo / g.mass
        else:
            slope = -1 / g.mass
            intercept = g.hi / g.mass
        pieces.append(AffinePiece(g.lo, g.hi, slope, intercept))
    return ShuffleMap(tuple(pieces))


# -- coupling samplers -----------------------------------------------------


class CouplingSampler:
    """Draws pairs of uniforms; subclasses fix the joint law."""

    def draw_batch(self, shape, rng: np.random.Generator):
        """Vectorized float draws (u, v); measure-zero ties unresolved."""
        raise NotImplementedError


class ConjugateCoupling(CouplingSampler):
    """v = u * x + (1 - u) * y over the measure's conjugate pair (x, y).

    u is uniform and independent of the pair; v is then uniform too, and
    the step law of n such cards is the measure's ordering law.
    """

    def __init__(self, measure: QuasiUniformMeasure):
        self.measure = measure

    def draw_batch(self, shape, rng: np.random.Generator):
        u = rng.random(shape)
        return u, sample_conjugate_batch(self.measure, shape, rng).interpolate(u)


class InverseConjugateCoupling(CouplingSampler):
    """Coordinate swap of ConjugateCoupling; its step is the time reversal."""

    def __init__(self, measure: QuasiUniformMeasure):
        self.measure = measure
        self._inner = ConjugateCoupling(measure)

    def draw_batch(self, shape, rng: np.random.Generator):
        u, v = self._inner.draw_batch(shape, rng)
        return v, u


class DeterministicCoupling(CouplingSampler):
    """v = S(u) for a measure-preserving piecewise-affine map S."""

    def __init__(self, shuffle_map: ShuffleMap):
        self.map = shuffle_map

    def draw_batch(self, shape, rng: np.random.Generator):
        u = rng.random(shape)
        return u, self.map.eval_batch(u)


class GridCopulaCoupling(CouplingSampler):
    """Piecewise-constant copula density on an m x m grid.

    matrix[i][j] is the mass of the square [i/m,(i+1)/m) x [j/m,(j+1)/m);
    uniform marginals need every row and column to sum to 1/m.  Entries
    are read as exact Fractions (floats by their binary value), and every
    row and column sum, rational input included, need only lie within
    1e-12 of 1/m.
    """

    def __init__(self, matrix: Sequence[Sequence[RationalLike]]):
        import numpy as np

        rows = [tuple(as_fraction(v, "grid entry") for v in row) for row in matrix]
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise InvalidGridMatrix("matrix must be square and nonempty")
        if any(v < 0 for r in rows for v in r):
            raise InvalidGridMatrix("matrix entries must be nonnegative")
        target = Fraction(1, m)
        tol = Fraction(1, 10**12)
        for i, r in enumerate(rows):
            if abs(sum(r) - target) >= tol:
                raise InvalidGridMatrix(f"row {i} sums to {sum(r)}, expected {target}")
        for j in range(m):
            col = sum(r[j] for r in rows)
            if abs(col - target) >= tol:
                raise InvalidGridMatrix(f"column {j} sums to {col}, expected {target}")
        self.matrix = tuple(rows)
        self.m = m
        flat = np.array([float(v) for r in rows for v in r])
        cum = np.cumsum(flat / flat.sum())
        # the last cell runs to 1 wherever the float sum ends; no edge passes 1
        self._cells = _Guide.build([np.concatenate([[0.0], np.minimum(cum[:-1], 1.0), [1.0]])])

    def draw_batch(self, shape, rng: np.random.Generator):
        import numpy as np

        i, j = np.divmod(self._cells.lookup(rng.random(shape)), self.m)
        u = (i + rng.random(shape)) / self.m
        v = (j + rng.random(shape)) / self.m
        return u, v


class MixtureCoupling(CouplingSampler):
    """Finite mixture of couplings; each pair draws its component.

    The components that are conjugate couplings (either type) of a plain
    measure are folded into one table of all their cells (`_ConjugateCells`)
    when the mixture is built, which takes their summed weight and the first
    one's place among the components.  Without other components the table
    draws every pair."""

    def __init__(self, components: Sequence[tuple[RationalLike, CouplingSampler]]):
        self.components = _checked_weights(components)
        folds = [_ConjugateCells.folds(s) for _, s in self.components]
        group = [c for c, f in zip(self.components, folds) if f]
        parts = [c for c, f in zip(self.components, folds) if not f]
        if group:
            parts.insert(folds.index(True), (sum(w for w, _ in group), _ConjugateCells(group)))
        self._parts = tuple(parts)
        self._guide = None if len(parts) == 1 and group else _weight_guide(self._parts)

    def draw_batch(self, shape, rng: np.random.Generator):
        """The table's draws when it is the only part; else one uniform per
        pair draws its part, and then each part drawn, in order, draws its
        pairs."""
        import numpy as np

        if self._guide is None:
            return self._parts[0][1].draw_batch(shape, rng)
        which = self._guide.lookup(rng.random(shape))
        u = np.empty(shape)
        v = np.empty(shape)
        # flat views of the new arrays take each part's draws in place
        for k, (_, sampler) in enumerate(self._parts):
            at = np.flatnonzero(which == k)
            if len(at):
                u.reshape(-1)[at], v.reshape(-1)[at] = sampler.draw_batch(len(at), rng)
        return u, v


class _ConjugateCells(CouplingSampler):
    """A mixture's conjugate couplings of plain measures as one coupling.

    Component k of weight w_k (rescaled to sum to one over the group) holds
    its measure's cells, cell c on [W + w_k * lo_c, W + w_k * hi_c) for W
    the weights of the components before it, and one guide over these
    edges finds a pair's cell from one uniform U, so the cell is drawn with
    its component's weight times its mass.  A second uniform u is the
    pair's first coordinate and v = A + B * U + C * u its second: at an atom
    A = y, B = 0 and C = x - y, as `ConjugateCoupling` interpolates; in a
    diffuse cell A = -W / w_k, B = 1 / w_k and C = 0, so v is the position
    of U within the component, uniform on the cell, within a few ulps.  A
    type-two cell swaps u and v.  The tables are floats of exact Fractions.
    """

    def __init__(self, group):
        import numpy as np

        total = sum(w for w, _ in group)
        rows, below = [], _ZERO
        for weight, coupling in group:
            w = weight / total
            for cell in cell_decomposition(coupling.measure).cells:
                if cell.kind == "atom":
                    coef = (cell.y, _ZERO, cell.x - cell.y)
                else:
                    coef = (-below / w, 1 / w, _ZERO)
                rows.append((below + w * cell.lo, *coef, isinstance(coupling, InverseConjugateCoupling)))
            below += w
        edges, a, b, c, two = zip(*rows)
        self._cells = _Guide.build([[*map(float, edges), 1.0]])
        self._a, self._b, self._c = (np.array([float(x) for x in t]) for t in (a, b, c))
        # one flag for the whole table when the cells share it: a per-pair
        # swap by `np.where` costs more than the rest of the draw
        self._two = two[0] if len(set(two)) == 1 else np.array(two)

    @staticmethod
    def folds(sampler: CouplingSampler) -> bool:
        """Whether a mixture component joins the table."""
        return isinstance(sampler, (ConjugateCoupling, InverseConjugateCoupling)) and isinstance(
            sampler.measure, QuasiUniformMeasure
        )

    def draw_batch(self, shape, rng: np.random.Generator):
        """U and then u, one `rng.random(shape)` each."""
        import numpy as np

        seed = rng.random(shape)
        cell = self._cells.lookup(seed)
        u = rng.random(shape)
        # (B * U + A) + C * u, gathered by `np.take` into temporaries
        # updated in place
        v = np.take(self._b, cell)
        v *= seed
        v += np.take(self._a, cell)
        span = np.take(self._c, cell)
        span *= u
        v += span
        if self._two is False:
            return u, v
        if self._two is True:
            return v, u
        two = np.take(self._two, cell)
        return np.where(two, v, u), np.where(two, u, v)


# -- walk steps ------------------------------------------------------------


def step_batch(
    n: int, sampler: CouplingSampler, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized steps; returns (size, n) permutation rows.

    Row r maps each card's u-rank to its v-rank (1-based).  A conjugate
    coupling's rows are orderings of the measure, drawn with one uniform and
    one rank per card, or one uniform per row from a word table (type two
    is the row inverse of type one); other couplings rank their (u, v)
    draws.  Rows are dealt in cache-sized
    blocks straight into the output; a pair-drawing coupling draws its
    pairs block by block, so beyond one block its rows differ at a fixed
    seed from one whole-batch draw, with the same law.
    """
    import numpy as np

    if n < 1:
        raise ValueError("need at least one card")
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    out = np.empty((size, n), dtype=np.int64)
    for _ in _step_blocks(n, sampler, size, rng, out):
        pass  # each block is written into out
    return out


def _step_blocks(
    n: int,
    sampler: CouplingSampler,
    size: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
):
    """Deal `size` steps of n cards in row blocks; yields (start, stop, rows).

    rows holds the step rows start..stop-1: out[start:stop] when `out` is
    given, else a block-sized array of its own.
    """
    if isinstance(sampler, (ConjugateCoupling, InverseConjugateCoupling)):
        from .ordering import _deal

        # type one is the measure's ordering, type two its row inverse
        form = "inverse" if isinstance(sampler, InverseConjugateCoupling) else "ranks"
        yield from _deal(sampler.measure, n, size, rng, form, out)
        return
    for start, stop, rows in _pair_step_blocks(n, sampler, size, rng):
        if out is not None:
            out[start:stop] = rows
        yield start, stop, rows


def _pair_step_blocks(n: int, sampler: CouplingSampler, size: int, rng: np.random.Generator):
    """Steps ranked from the coupling's own (u, v) draws, one row block at a
    time; yields (start, stop, rows) as `_step_blocks` does.

    This is the step route of every coupling but the conjugate ones, and
    `verify` ranks conjugate couplings' pairs through it too.
    """
    for start, stop in _row_blocks(size, n):
        yield start, stop, _rank_pairs(*sampler.draw_batch((stop - start, n), rng))


def _rank_pairs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Step rows of dealt (u, v) pairs: each card's u-rank to its v-rank.

    Floating-point ties (probability ~2^-52 each) resolve by card order.
    """
    import numpy as np

    rows, n = u.shape
    # the v-ranks, scattered to their u-rank positions: one flat scatter
    at = _row_ranks(u)
    at += np.arange(-1, rows * n - 1, n)[:, None]
    out = np.empty((rows, n), dtype=np.int64)
    out.reshape(-1)[at] = _row_ranks(v)
    return out


def empirical_step_counts(
    n: int,
    sampler: CouplingSampler,
    size: int,
    rng: np.random.Generator,
) -> dict[Perm, int]:
    """Histogram of `size` sampled steps, counted block by block from the
    rows `step_batch` deals, with no whole-batch array.  Up to `_CODE_WIDTH`
    cards a conjugate step is counted by the S_n index of the measure's
    ordering that `_deal` deals, and type two, the row inverse of that
    ordering, by inverting the histogram."""
    if n < 1:
        raise ValueError("need at least one card")
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    if n <= _CODE_WIDTH and isinstance(sampler, (ConjugateCoupling, InverseConjugateCoupling)):
        from .ordering import _deal

        indices = (index for _, _, index in _deal(sampler.measure, n, size, rng, "index"))
        return perm_histogram(indices, n, isinstance(sampler, InverseConjugateCoupling))
    return perm_histogram((rows for _, _, rows in _step_blocks(n, sampler, size, rng)), n)


def walk(
    n: int,
    sampler: CouplingSampler,
    steps: int,
    rng: np.random.Generator,
    start: Optional[Perm] = None,
) -> list[Perm]:
    """States rho_0..rho_steps with rho_{h+1} = sigma_h . rho_h.

    The steps sigma_h are the rows of one `step_batch` call.
    """
    if steps < 0:
        raise ValueError(f"steps = {steps} is negative")
    state = tuple(start) if start is not None else identity(n)
    if not is_permutation(state) or len(state) != n:
        raise ValueError(f"start {start} is not a permutation of 1..{n}")
    out = [state]
    for sigma in step_batch(n, sampler, steps, rng).tolist():
        state = compose(sigma, state)
        out.append(state)
    return out


def empirical_mixing_curve(
    n: int,
    sampler: CouplingSampler,
    steps: int,
    trials: int,
    rng: np.random.Generator,
) -> list[float]:
    """Empirical TV to uniform along `trials` parallel walks."""
    import numpy as np

    if n < 1:
        raise ValueError("need at least one card")
    if steps < 0:
        raise ValueError(f"steps = {steps} is negative")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    n_perms = factorial(n)
    # n! beyond floats (n >= 171) is far above any number of trials
    beyond_floats = n_perms > sys.float_info.max
    uniform_mass = 0.0 if beyond_floats else 1.0 / n_perms
    # rows of fewer than 128 cards are held as int8 and composed through an
    # intp temporary per block
    state = np.tile(np.arange(1, n + 1, dtype=np.int8 if n < 128 else np.int64), (trials, 1))

    def tv_now() -> float:
        _, counts = count_perms([state], n)  # counts only: no decoding
        if beyond_floats:
            # every seen row is over-represented: TV = 1 - distinct / n!
            return 1.0 - len(counts) / n_perms
        emp = counts / trials
        # permutations never seen each contribute uniform_mass to the L1 sum
        l1 = float(np.abs(emp - uniform_mass).sum()) + (n_perms - len(counts)) * uniform_mass
        return l1 / 2.0

    curve = [tv_now()]
    for _ in range(steps):
        # compose each block of the state with its block of steps, in place:
        # row r of sigma . state reads sigma's flat entry r * n + state - 1
        for start, stop, sigma in _step_blocks(n, sampler, trials, rng):
            block = state[start:stop]
            at = np.arange(-1, (stop - start) * n - 1, n)[:, None] + block
            block[...] = sigma.reshape(-1)[at]
        curve.append(tv_now())
    return curve


# -- coupling construction and the kernel ---------------------------------


def kernel_matrix(
    n: int,
    sampler: CouplingSampler,
    mode: str = "exact",
    samples: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> PermutationDistribution:
    """Step law of the sampler's kernel as a distribution over S_n.

    mode "exact" dispatches to the matching exact route (conjugate
    couplings through the likelihood engine, deterministic maps through the
    map route); grid copulas and mixtures, whose component is drawn per
    card, have no exact route and raise ExactUnavailable.  mode "mc"
    estimates from `samples` dealt steps.
    """
    from . import oracle

    if mode == "mc":
        if samples is None or rng is None:
            raise ValueError("mc mode needs samples and rng")
        counts = empirical_step_counts(n, sampler, samples, rng)
        return oracle.PermutationDistribution.from_counts(n, counts)
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if isinstance(sampler, ConjugateCoupling):
        return oracle.exact_step_distribution(sampler.measure, n, "one")
    if isinstance(sampler, InverseConjugateCoupling):
        return oracle.exact_step_distribution(sampler.measure, n, "two")
    if isinstance(sampler, DeterministicCoupling):
        return oracle.exact_map_step_distribution(sampler.map, n)
    raise ExactUnavailable(f"no exact route for {type(sampler).__name__}")


# -- serialization ---------------------------------------------------------


# the sampler types built from a plain measure under "measure"
_MEASURE_SAMPLERS = {
    "nu_mu": ConjugateCoupling,
    "nu_mu_star": InverseConjugateCoupling,
    "deterministic": lambda m: DeterministicCoupling(shuffle_map_from_measure(m)),
}


def sampler_from_json(obj: dict) -> CouplingSampler:
    """Decode a sampler spec {"type": ..., ...}.

    Types: nu_mu (forward conjugate coupling), nu_mu_star (its coordinate
    swap), deterministic (a map, from "pieces" or a purely atomic
    "measure"), grid (copula matrix), mixture (weighted "components").  A
    measure is a JSON object or text read as `resolve_source` reads it.  A
    ValueError names an entry that is not a JSON object, a list field that
    is not a list, or a key an entry lacks.
    """
    kind = _json_object(obj, "sampler spec").get("type")
    if kind == "deterministic" and "pieces" in obj:
        return DeterministicCoupling(ShuffleMap.from_json(obj))
    if isinstance(kind, str) and kind in _MEASURE_SAMPLERS:
        what = f"{kind} sampler"
        measure = _plain_measure(_json_object(obj, what, "measure")["measure"], what)
        return _MEASURE_SAMPLERS[kind](measure)
    if kind == "grid":
        rows = _json_list(_json_object(obj, "grid sampler", "grid")["grid"], "grid")
        return GridCopulaCoupling([_json_list(row, "grid row") for row in rows])
    if kind == "mixture":
        comps = _json_list(_json_object(obj, "mixture sampler", "components")["components"], "components")
        comps = [_json_object(c, "sampler component", "weight", "sampler") for c in comps]
        return MixtureCoupling([(c["weight"], sampler_from_json(c["sampler"])) for c in comps])
    raise ValueError(f"unknown sampler type {kind!r}")


def resolve_sampler(text: str) -> CouplingSampler:
    """Resolve CLI-style sampler input: inline JSON, "type:measure" for a
    type built from a measure, or a JSON file.  The shorthand wins over a
    file of the same name."""

    def shorthand(stripped: str):
        kind, colon, rest = stripped.partition(":")
        if colon and kind.strip() in _MEASURE_SAMPLERS:
            return sampler_from_json({"type": kind.strip(), "measure": rest.strip()})
        return None

    return _resolve_spec(text, shorthand, sampler_from_json, "cannot resolve sampler")
