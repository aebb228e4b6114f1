"""Couplings of two uniforms and the card-shuffling kernels they induce.

A coupling sampler draws a pair (u, v) of uniform coordinates.  A walk
step deals n cards, one coupled pair each: initial positions are the ranks
of the u's, final positions the ranks of the v's, and the step permutation
maps initial to final positions (left composition onto the walk state).

Ties carry exact semantics on the scalar path: a tie between cards from
gaps sharing an endpoint puts the card from the rightmost gap above; a tie
inside one gap keeps the initial order at a right atom and reverses it at
a left atom; any other exact tie is a probability-zero event and asserts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ExactUnavailable,
    InvalidGridMatrix,
    InvalidMixture,
    InvalidShuffleMap,
    NotPurelyAtomic,
)
from .measure import (
    ConjugateSample,
    QuasiUniformMeasure,
    RationalLike,
    as_fraction,
    parse_measure,
    sample_conjugate_batch,
    sample_conjugate_pair,
    source_from_json,
)
from . import oracle as _oracle
from .permutations import Perm, compose, count_rows, identity, is_permutation, row_histogram

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

    def eval_batch(self, u: np.ndarray) -> np.ndarray:
        los = np.array([float(p.lo) for p in self.pieces])
        slopes = np.array([float(p.slope) for p in self.pieces])
        intercepts = np.array([float(p.intercept) for p in self.pieces])
        idx = np.clip(np.searchsorted(los, u, side="right") - 1, 0, len(los) - 1)
        return slopes[idx] * u + intercepts[idx]

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
        return cls(
            tuple(
                AffinePiece(p["lo"], p["hi"], p["slope"], p["intercept"])
                for p in obj["pieces"]
            )
        )


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


@dataclass(frozen=True)
class CouplingDraw:
    """One coupled pair; `pair` carries the conjugate pair that resolves
    exact ties on the coordinate named by tie_coord ("u" or "v")."""

    u: Union[float, Fraction]
    v: Union[float, Fraction]
    pair: Optional[ConjugateSample] = None
    tie_coord: Optional[str] = None


class CouplingSampler:
    """Draws pairs of uniforms; subclasses fix the joint law."""

    def draw(self, rng: np.random.Generator) -> CouplingDraw:
        raise NotImplementedError

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

    def draw(self, rng: np.random.Generator) -> CouplingDraw:
        u = float(rng.random())
        pair = sample_conjugate_pair(self.measure, rng)
        if pair.is_diffuse:
            v: Union[float, Fraction] = pair.x
        else:
            uf = Fraction(u)
            v = uf * pair.x + (1 - uf) * pair.y
        return CouplingDraw(u, v, pair, "v")

    def draw_batch(self, shape, rng: np.random.Generator):
        u = rng.random(shape)
        batch = sample_conjugate_batch(self.measure, shape, rng)
        v = batch.y + u * (batch.x - batch.y)
        return u, v


class InverseConjugateCoupling(CouplingSampler):
    """Coordinate swap of ConjugateCoupling; its step is the time reversal."""

    def __init__(self, measure: QuasiUniformMeasure):
        self.measure = measure
        self._inner = ConjugateCoupling(measure)

    def draw(self, rng: np.random.Generator) -> CouplingDraw:
        d = self._inner.draw(rng)
        return CouplingDraw(d.v, d.u, d.pair, "u")

    def draw_batch(self, shape, rng: np.random.Generator):
        u, v = self._inner.draw_batch(shape, rng)
        return v, u


class DeterministicCoupling(CouplingSampler):
    """v = S(u) for a measure-preserving piecewise-affine map S."""

    def __init__(self, shuffle_map: ShuffleMap):
        self.map = shuffle_map

    def draw(self, rng: np.random.Generator) -> CouplingDraw:
        u = float(rng.random())
        return CouplingDraw(u, self.map(Fraction(u)), None, None)

    def draw_batch(self, shape, rng: np.random.Generator):
        u = rng.random(shape)
        return u, self.map.eval_batch(u)


class GridCopulaCoupling(CouplingSampler):
    """Piecewise-constant copula density on an m x m grid.

    matrix[i][j] is the mass of the square [i/m,(i+1)/m) x [j/m,(j+1)/m);
    uniform marginals need every row and column to sum to 1/m, checked to
    within 1e-12 (exact rational input checks exactly).
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
        flat = np.array([float(v) for r in rows for v in r])
        self._cum = np.cumsum(flat / flat.sum())

    def draw(self, rng: np.random.Generator) -> CouplingDraw:
        idx = int(np.searchsorted(self._cum, rng.random(), side="right"))
        idx = min(idx, self.m * self.m - 1)
        i, j = divmod(idx, self.m)
        u = (i + float(rng.random())) / self.m
        v = (j + float(rng.random())) / self.m
        return CouplingDraw(u, v, None, None)

    def draw_batch(self, shape, rng: np.random.Generator):
        idx = np.minimum(
            np.searchsorted(self._cum, rng.random(shape), side="right"),
            self.m * self.m - 1,
        )
        i, j = np.divmod(idx, self.m)
        u = (i + rng.random(shape)) / self.m
        v = (j + rng.random(shape)) / self.m
        return u, v


class MixtureCoupling(CouplingSampler):
    """Finite mixture of couplings; the component is drawn per pair."""

    def __init__(self, components: Sequence[tuple[RationalLike, CouplingSampler]]):
        comps = []
        for weight, sampler in components:
            weight = as_fraction(weight, "mixture weight")
            if weight <= 0:
                raise InvalidMixture(f"weight {weight} must be positive")
            comps.append((weight, sampler))
        if sum((w for w, _ in comps), _ZERO) != 1:
            raise InvalidMixture("weights must sum to 1")
        self.components = tuple(comps)

    def draw(self, rng: np.random.Generator) -> CouplingDraw:
        r = rng.random()
        acc = 0.0
        for weight, sampler in self.components:
            acc += float(weight)
            if r < acc:
                return sampler.draw(rng)
        return self.components[-1][1].draw(rng)

    def draw_batch(self, shape, rng: np.random.Generator):
        weights = np.array([float(w) for w, _ in self.components])
        which = rng.choice(len(weights), size=shape, p=weights / weights.sum())
        u = np.empty(shape)
        v = np.empty(shape)
        for ci, (_, sampler) in enumerate(self.components):
            mask = which == ci
            count = int(mask.sum())
            if count:
                cu, cv = sampler.draw_batch(count, rng)
                u[mask] = cu
                v[mask] = cv
        return u, v


# -- walk steps ------------------------------------------------------------


@dataclass(frozen=True)
class CardRecord:
    label: int
    draw: CouplingDraw
    initial_rank: int
    final_rank: int


@dataclass(frozen=True)
class StepOutcome:
    """One dealt step: permutation maps initial position to final position."""

    cards: tuple[CardRecord, ...]
    permutation: Perm


def _rank_with_ties(
    values: list, draws: list[CouplingDraw], coord: str, reference: list[int]
) -> list[int]:
    """Ranks 1..n of values, exact ties resolved by the conjugate pairs.

    Cards tied across gaps sharing an endpoint order by gap position; cards
    tied inside one gap follow the reference order at a right atom and its
    reverse at a left atom.  A tie without gap structure asserts: it has
    probability zero under a correct sampler.
    """
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    resolved: list[int] = []
    pos = 0
    while pos < n:
        group = [order[pos]]
        while pos + len(group) < n and values[order[pos + len(group)]] == values[group[0]]:
            group.append(order[pos + len(group)])
        if len(group) > 1:
            tie_value = values[group[0]]
            primary = all(draws[i].tie_coord == coord for i in group)
            for i in group:
                d = draws[i]
                assert d.pair is not None and not d.pair.is_diffuse, (
                    f"probability-zero tie at {tie_value} lacks gap structure"
                )
                if not primary:
                    continue
                lo, hi = d.pair.interval
                assert lo <= tie_value <= hi, "tie value escapes its gap"
                for j in group:
                    jlo, jhi = draws[j].pair.interval
                    if (jlo, jhi) == (lo, hi):
                        continue
                    assert tie_value in (lo, hi) and tie_value in (jlo, jhi), (
                        "cross-gap tie away from a shared endpoint"
                    )

            def tie_key(i):
                d = draws[i]
                lo, hi = d.pair.interval
                direction = reference[i] if d.pair.x > d.pair.y else -reference[i]
                return (lo, hi, direction)

            group = sorted(group, key=tie_key)
        resolved.extend(group)
        pos += len(group)
    ranks = [0] * n
    for p, i in enumerate(resolved):
        ranks[i] = p + 1
    return ranks


def step_permutation(
    n: int, sampler: CouplingSampler, rng: np.random.Generator
) -> StepOutcome:
    """Deal one step of the n-card walk (scalar, exact tie semantics)."""
    if n < 1:
        raise ValueError("need at least one card")
    draws = [sampler.draw(rng) for _ in range(n)]
    u_ranks = _rank_with_ties([d.u for d in draws], draws, "u", list(range(n)))
    v_ranks = _rank_with_ties([d.v for d in draws], draws, "v", u_ranks)
    sigma = [0] * n
    for i in range(n):
        sigma[u_ranks[i] - 1] = v_ranks[i]
    cards = tuple(
        CardRecord(i + 1, draws[i], u_ranks[i], v_ranks[i]) for i in range(n)
    )
    return StepOutcome(cards, tuple(sigma))


def step_batch(
    n: int, sampler: CouplingSampler, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized steps; returns (size, n) permutation rows.

    Floating-point ties (probability ~2^-52 each) resolve by card order.
    """
    if n < 1:
        raise ValueError("need at least one card")
    u, v = sampler.draw_batch((size, n), rng)
    order_u = np.argsort(u, axis=1, kind="stable")
    ranks_u = np.argsort(order_u, axis=1, kind="stable")
    order_v = np.argsort(v, axis=1, kind="stable")
    ranks_v = np.argsort(order_v, axis=1, kind="stable")
    sigma = np.empty((size, n), dtype=np.int64)
    np.put_along_axis(sigma, ranks_u, ranks_v + 1, axis=1)
    return sigma


def empirical_step_counts(
    n: int,
    sampler: CouplingSampler,
    size: int,
    rng: np.random.Generator,
    chunk: int = 1_000_000,
) -> dict[Perm, int]:
    return row_histogram(
        step_batch(n, sampler, min(chunk, size - start), rng)
        for start in range(0, size, chunk)
    )


def walk(
    n: int,
    sampler: CouplingSampler,
    steps: int,
    rng: np.random.Generator,
    start: Optional[Perm] = None,
) -> list[Perm]:
    """States rho_0..rho_steps with rho_{h+1} = sigma_h . rho_h."""
    state = tuple(start) if start is not None else identity(n)
    if not is_permutation(state) or len(state) != n:
        raise ValueError(f"start {start} is not a permutation of 1..{n}")
    out = [state]
    for _ in range(steps):
        sigma = step_permutation(n, sampler, rng).permutation
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
    uniform_mass = 1.0 / factorial(n)
    state = np.tile(np.arange(1, n + 1, dtype=np.int64), (trials, 1))

    def tv_now() -> float:
        _, counts = count_rows(state)
        emp = counts / trials
        # permutations never seen each contribute uniform_mass to the L1 sum
        l1 = float(np.abs(emp - uniform_mass).sum()) + (factorial(n) - len(counts)) * uniform_mass
        return l1 / 2.0

    curve = [tv_now()]
    for _ in range(steps):
        sigma = step_batch(n, sampler, trials, rng)
        state = np.take_along_axis(sigma, state - 1, axis=1)
        curve.append(tv_now())
    return curve


# -- coupling construction and the kernel ---------------------------------


def draw_coupling(sampler: CouplingSampler, rng: np.random.Generator) -> CouplingDraw:
    """Draw one coupled pair (thin wrapper giving the op a flat name)."""
    return sampler.draw(rng)


def kernel_matrix(
    n: int,
    sampler: CouplingSampler,
    mode: str = "exact",
    samples: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> _oracle.PermutationDistribution:
    """Step law of the sampler's kernel as a distribution over S_n.

    mode "exact" dispatches to the matching exact route (conjugate
    couplings through the cell oracle, deterministic maps through the map
    route, mixtures by weighted combination); grid copulas have no exact
    route and raise ExactUnavailable.  mode "mc" estimates from `samples`
    dealt steps.
    """
    if mode == "mc":
        if samples is None or rng is None:
            raise ValueError("mc mode needs samples and rng")
        counts = empirical_step_counts(n, sampler, samples, rng)
        return _oracle.PermutationDistribution.from_counts(n, counts)
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if isinstance(sampler, ConjugateCoupling):
        return _oracle.exact_step_distribution(sampler.measure, n, "one")
    if isinstance(sampler, InverseConjugateCoupling):
        return _oracle.exact_step_distribution(sampler.measure, n, "two")
    if isinstance(sampler, DeterministicCoupling):
        return _oracle.exact_map_step_distribution(sampler.map, n)
    if isinstance(sampler, MixtureCoupling):
        return _oracle.combine_distributions(
            (w, kernel_matrix(n, s, "exact")) for w, s in sampler.components
        )
    raise ExactUnavailable(f"no exact route for {type(sampler).__name__}")


# -- serialization ---------------------------------------------------------


def _measure_argument(obj) -> QuasiUniformMeasure:
    m = parse_measure(obj) if isinstance(obj, str) else source_from_json(obj)
    if not isinstance(m, QuasiUniformMeasure):
        raise ValueError("coupling samplers take a plain measure, not a candidate or mixture")
    return m


def sampler_from_json(obj: dict) -> CouplingSampler:
    """Decode a sampler spec {"type": ..., ...}.

    Types: nu_mu (forward conjugate coupling), nu_mu_star (its coordinate
    swap), deterministic (a map, from "pieces" or a purely atomic
    "measure"), grid (copula matrix), mixture (weighted "components").
    """
    kind = obj.get("type")
    if kind == "nu_mu":
        return ConjugateCoupling(_measure_argument(obj["measure"]))
    if kind == "nu_mu_star":
        return InverseConjugateCoupling(_measure_argument(obj["measure"]))
    if kind == "deterministic":
        if "pieces" in obj:
            return DeterministicCoupling(ShuffleMap.from_json(obj))
        return DeterministicCoupling(shuffle_map_from_measure(_measure_argument(obj["measure"])))
    if kind == "grid":
        return GridCopulaCoupling(obj["grid"])
    if kind == "mixture":
        return MixtureCoupling(
            [(c["weight"], sampler_from_json(c["sampler"])) for c in obj["components"]]
        )
    raise ValueError(f"unknown sampler type {kind!r}")


_MEASURE_SAMPLER_TYPES = ("nu_mu", "nu_mu_star", "deterministic")


def resolve_sampler(text: str) -> CouplingSampler:
    """Resolve CLI-style sampler input: inline JSON, "type:measure", or file.

    The "type:measure" shorthand of a sampler type that takes a measure wins
    over a file of the same name.
    """
    import json
    import os

    stripped = text.strip()
    if stripped.startswith("{"):
        return sampler_from_json(json.loads(stripped))
    kind, colon, rest = stripped.partition(":")
    shorthand = bool(colon) and kind.strip() in _MEASURE_SAMPLER_TYPES
    if not shorthand and os.path.exists(stripped):
        with open(stripped) as fh:
            return sampler_from_json(json.load(fh))
    if colon:
        return sampler_from_json({"type": kind.strip(), "measure": rest.strip()})
    raise ValueError(f"cannot resolve sampler {text!r}")
