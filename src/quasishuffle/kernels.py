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
(probability ~2^-52 each) resolve by card order.  Every coupling draws its
pairs one way (`CouplingSampler.draw_batch`), as a table of affine cells
over two uniforms: a conjugate coupling's cells are its measure's, a
map's its pieces, a grid's its squares, and a mixture's the weighted union
of its components'.  One uniform finds a card's cell by the guide-table
lookup that finds a measure's cells (`measure._Guide`), and the cell maps
it and a second uniform affinely to (u, v).

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
    InvalidMixture,
    InvalidShuffleMap,
    NotPurelyAtomic,
)
from .measure import (
    MeasureMixture,
    QuasiUniformMeasure,
    RationalLike,
    _checked_weights,
    _grid_edges,
    _Guide,
    _json_list,
    _json_object,
    _over_common_denominator,
    _plain_measure,
    _resolve_spec,
    _row_blocks,
    as_fraction,
    cell_decomposition,
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
    """A coupling of two uniforms, drawn from its table of affine cells.

    Every coupling here puts its pair (u, v) on finitely many affine pieces
    of the unit square.  `_rows` lists them exactly, in Fractions, as (mass,
    (D, E, F), (A, B, C)) with masses summing to one: the uniform U that
    found a cell and a second uniform s give u = D + E * U + F * s and v =
    A + B * U + C * s.  `draw_batch` is every coupling's one pair draw.
    """

    def _rows(self) -> list:
        raise NotImplementedError(f"{type(self).__name__} lists no cells")

    @cached_property
    def _cells(self) -> _AffineCells:
        return _AffineCells(self._rows())

    def draw_batch(self, shape, rng: np.random.Generator):
        """Vectorized float draws (u, v); measure-zero ties unresolved.

        s is drawn first, unless no cell reads it, then U, one
        `rng.random(shape)` each, and U finds each pair's cell."""
        cells = self._cells
        s = rng.random(shape) if cells.reads_s else None
        seed = rng.random(shape)
        at = cells.guide.lookup(seed)
        return _affine(cells.u, at, seed, s), _affine(cells.v, at, seed, s)


class _AffineCells:
    """A coupling's rows as float tables: `guide` finds a pair's cell from U
    over the `_grid_edges` of the cells' exact masses, and `u` and `v` hold
    each side's coefficients (D, E, F) and (A, B, C), each one float where
    every cell shares it, so that it costs no gather, else an array over
    the cells."""

    def __init__(self, rows):
        import numpy as np

        def column(side, k):
            values = [float(row[side][k]) for row in rows]
            return values[0] if len(set(values)) == 1 else np.array(values)

        masses = _over_common_denominator(mass for mass, _, _ in rows)
        self.guide = _Guide.build([_grid_edges(*masses)])
        self.u, self.v = (tuple(column(side, k) for k in range(3)) for side in (1, 2))
        self.reads_s = any(not isinstance(c, float) or c for c in (self.u[2], self.v[2]))


def _affine(coef, at, seed, s):
    """One side of each pair, (B * U + A) + C * s for its cell's (A, B, C):
    a shared 0 drops its term and a shared 1 its product, which moves no
    bit.  Each term is added as it is made, so at most two arrays of the
    side are alive at once."""
    a, b, c = coef
    out = _plus(_scaled(b, seed, at), _scaled(a, None, at), seed)
    return _plus(out, _scaled(c, s, at), seed)


def _plus(out, term, seed):
    """out + term, None being 0: in place, unless out is U itself, which
    the other side still reads."""
    if out is None or term is None:
        return term if out is None else out
    if out is seed:
        return out + term
    out += term
    return out


def _scaled(coef, x, at):
    """coef * x per pair (coef alone for x None), the coefficient gathered
    by cell; None for a shared 0 and x itself for a shared 1."""
    import numpy as np

    if isinstance(coef, float):
        if coef == 0.0 or x is None:
            return coef or None
        return x if coef == 1.0 else coef * x
    out = np.take(coef, at)
    if x is not None:
        out *= x
    return out


def _conjugate_rows(measure: QuasiUniformMeasure) -> list:
    """A conjugate coupling's cells, the measure's: u = s, and v = y + (x -
    y) * s in an atom cell, v = U in a diffuse one."""
    rows = []
    for c in cell_decomposition(measure).cells:
        if c.kind == "atom":
            v = (c.y, _ZERO, c.x - c.y)
        else:
            v = (_ZERO, _ONE, _ZERO)
        rows.append((c.mass, (_ZERO, _ZERO, _ONE), v))
    return rows


class ConjugateCoupling(CouplingSampler):
    """v = u * x + (1 - u) * y over the measure's conjugate pair (x, y).

    u is uniform and independent of the pair; v is then uniform too, and
    the step law of n such cards is the measure's ordering law.  A
    `MeasureMixture`, which draws one component per ordering, has no cells:
    its coupling steps, but `draw_batch` raises ValueError.
    """

    def __init__(self, measure: QuasiUniformMeasure):
        self.measure = measure

    def _rows(self) -> list:
        return _conjugate_rows(self.measure)


class InverseConjugateCoupling(CouplingSampler):
    """Coordinate swap of ConjugateCoupling; its step is the time reversal."""

    def __init__(self, measure: QuasiUniformMeasure):
        self.measure = measure

    def _rows(self) -> list:
        return [(mass, v, u) for mass, u, v in _conjugate_rows(self.measure)]


class DeterministicCoupling(CouplingSampler):
    """v = S(u) for a measure-preserving piecewise-affine map S: one cell per
    piece, u = U and v = slope * U + intercept."""

    def __init__(self, shuffle_map: ShuffleMap):
        self.map = shuffle_map

    def _rows(self) -> list:
        return [
            (p.hi - p.lo, (_ZERO, _ONE, _ZERO), (p.intercept, p.slope, _ZERO))
            for p in self.map.pieces
        ]


class GridCopulaCoupling(CouplingSampler):
    """Piecewise-constant copula density on an m x m grid.

    matrix[i][j] is the mass of the square [i/m,(i+1)/m) x [j/m,(j+1)/m);
    uniform marginals need every row and column to sum to 1/m.  Entries
    are read as exact Fractions (floats by their binary value), and every
    row and column sum, rational input included, need only lie within
    1e-12 of 1/m.  Each square of positive mass is a cell, with its mass
    over the matrix's sum: u = (i + s) / m, and v is j/m plus U's position
    within the cell, over m.
    """

    def __init__(self, matrix: Sequence[Sequence[RationalLike]]):
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

    def _rows(self) -> list:
        m, total = self.m, sum(v for r in self.matrix for v in r)
        rows, below = [], _ZERO
        for i, r in enumerate(self.matrix):
            for j, entry in enumerate(r):
                if entry:
                    mass = entry / total
                    slope = 1 / (m * mass)
                    u = (Fraction(i, m), _ZERO, Fraction(1, m))
                    rows.append((mass, u, (Fraction(j, m) - below * slope, slope, _ZERO)))
                    below += mass
        return rows


class MixtureCoupling(CouplingSampler):
    """Finite mixture of couplings; each pair draws its component.

    Its cells are its components' (a nested mixture's flattened the same
    way), built with the mixture.  Component k of weight w, after
    components of weight W, holds each of its cells with w times its mass,
    and the cells read U' = (U - W) / w, the position of U within the
    component: E and B become E / w and B / w, and D and A take -E * W / w
    and -B * W / w.  A component with no cell table raises InvalidMixture:
    a conjugate coupling of a `MeasureMixture`, or a subclass with a draw
    of its own."""

    def __init__(self, components: Sequence[tuple[RationalLike, CouplingSampler]]):
        self.components = _checked_weights(components)
        for _, c in self.components:
            if isinstance(getattr(c, "measure", None), MeasureMixture):
                raise InvalidMixture(
                    "a conjugate coupling of a MeasureMixture draws one component per "
                    "ordering, not per card; for one per card, give the measure "
                    "mixture's components, each in its own conjugate coupling, as this "
                    "mixture's components"
                )
            draw = getattr(type(c), "draw_batch", None)
            if draw is not CouplingSampler.draw_batch or type(c)._rows is CouplingSampler._rows:
                raise InvalidMixture(f"a {type(c).__name__} component has no cell table")
        self._cells = _AffineCells(self._rows())

    def _rows(self) -> list:
        rows, below = [], _ZERO
        for w, coupling in self.components:
            for mass, (d, e, f), (a, b, c) in coupling._rows():
                u = (d - e * below / w, e / w, f)
                rows.append((w * mass, u, (a - b * below / w, b / w, c)))
            below += w
        return rows

# -- walk steps ------------------------------------------------------------


def step_batch(
    n: int, sampler: CouplingSampler, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized steps; returns (size, n) permutation rows.

    Row r maps each card's u-rank to its v-rank (1-based).  A conjugate
    coupling's rows are orderings of the measure, drawn with one uniform and
    one rank per card, one uniform per row from a word table or two from a
    class table (type two is the row inverse of type one); other couplings
    rank their (u, v) draws.  Rows are dealt in cache-sized
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
