"""Quasi-uniform measures on [0,1]: validation, CDFs, conjugation, sampling.

A probability measure mu on [0,1] is quasi-uniform when it satisfies the
sandwich mu{x : mu[0,x) <= x <= mu[0,x]} = 1.  Such a measure is Lebesgue
measure restricted to a closed set F together with, for each open component
(gap) of the complement, an atom of the gap's length at one of the gap's two
endpoints.  This module represents the finite-gap case exactly: a sorted
tuple of gaps with rational endpoints, each carrying its atom on one side.

The conjugate measure flips every atom to the opposite endpoint.  Drawing
u uniform on [0,1] and reading off the atom endpoint (x) and the opposite
endpoint (y) of the gap containing u, with x = y = u off the gaps, yields a
coupled pair whose marginals are the measure and its conjugate.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import (
    DegenerateGap,
    InvalidMixture,
    OutOfRange,
    OverlappingGaps,
    QuasiShuffleError,
)

# the array functions import numpy when they run, so that the exact routes
# load without it
if TYPE_CHECKING:
    import numpy as np

LEFT = "left"
RIGHT = "right"

RationalLike = Union[Fraction, int, str, float]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Entries kept by each per-measure cache (gap endpoints, cells, sampling
# tables): enough for every measure a run names, bounded for a long-lived
# process fed many user measures.
_CACHE_SIZE = 256
# Draws per row block of the samplers (`_row_blocks`): a block's 8-byte
# temporaries (128 KB each) fit in one core's L2 cache.
_LOOKUP_BLOCK = 1 << 14


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce to an exact Fraction.  Floats convert by their exact binary
    value; any other value that is no finite rational (a bool, a JSON null,
    list or object, an infinite float) raises a ValueError naming `what`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)) and not isinstance(value, bool):
        try:
            return Fraction(value.strip() if isinstance(value, str) else value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot parse {what} {value!r} as a rational") from exc
    raise ValueError(f"{what} must be rational-like, got {type(value).__name__}")


def _check_unit(x: Fraction, what: str) -> Fraction:
    if x < 0 or x > 1:
        raise OutOfRange(f"{what} {x} outside [0,1]")
    return x


@dataclass(frozen=True)
class GapInterval:
    """Open interval (lo, hi) of zero density whose length sits as one atom.

    atom_side "right" puts the atom at hi, "left" at lo.
    """

    lo: Fraction
    hi: Fraction
    atom_side: str

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo, "gap lo"))
        object.__setattr__(self, "hi", as_fraction(self.hi, "gap hi"))
        side = str(self.atom_side).lower()
        if side not in (LEFT, RIGHT):
            raise ValueError(f"atom_side must be 'left' or 'right', got {self.atom_side!r}")
        object.__setattr__(self, "atom_side", side)
        _check_unit(self.lo, "gap lo")
        _check_unit(self.hi, "gap hi")
        if self.hi <= self.lo:
            raise DegenerateGap(f"gap ({self.lo}, {self.hi}) has no interior")

    @property
    def mass(self) -> Fraction:
        return self.hi - self.lo

    @property
    def atom_position(self) -> Fraction:
        return self.hi if self.atom_side == RIGHT else self.lo

    @property
    def conjugate_position(self) -> Fraction:
        return self.lo if self.atom_side == RIGHT else self.hi

    def flipped(self) -> "GapInterval":
        side = LEFT if self.atom_side == RIGHT else RIGHT
        return GapInterval(self.lo, self.hi, side)


def _checked_gaps(gaps: Sequence[GapInterval]) -> tuple[GapInterval, ...]:
    ordered = tuple(sorted(gaps, key=lambda g: (g.lo, g.hi)))
    for a, b in zip(ordered, ordered[1:]):
        if b.lo < a.hi:
            raise OverlappingGaps(
                f"gaps ({a.lo},{a.hi}) and ({b.lo},{b.hi}) share interior points"
            )
    return ordered


def _mass_up_to(x: RationalLike, gaps, atoms, strict: bool) -> Fraction:
    """mu[0, x) when strict, else mu[0, x]: density one off the gaps (lo, hi)
    plus the atoms (position, mass)."""
    x = _check_unit(as_fraction(x, "x"), "x")
    out = x
    for lo, hi in gaps:
        if x > lo:
            out -= min(x, hi) - lo
    for pos, mass in atoms:
        if pos < x or (pos == x and not strict):
            out += mass
    return out


@dataclass(frozen=True)
class QuasiUniformMeasure:
    """Validated quasi-uniform measure: sorted gaps with disjoint interiors."""

    gaps: tuple[GapInterval, ...]

    def __post_init__(self):
        gaps = []
        for g in self.gaps:
            if not isinstance(g, GapInterval):
                lo, hi, side = g  # a malformed entry raises ValueError
                g = GapInterval(lo, hi, side)
            gaps.append(g)
        object.__setattr__(self, "gaps", _checked_gaps(gaps))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # every per-measure cache lookup hashes the measure, once per sampled
        # row block, and hashing Fraction endpoints costs about 3 us a gap: so
        # it is hashed once, from numbers alone, which hash alike in every
        # process
        return hash(tuple((g.lo, g.hi, g.atom_side == RIGHT) for g in self.gaps))

    # -- structure ---------------------------------------------------------

    @property
    def diffuse_mass(self) -> Fraction:
        return _ONE - sum((g.mass for g in self.gaps), _ZERO)

    @property
    def is_purely_atomic(self) -> bool:
        return self.diffuse_mass == 0

    def diffuse_segments(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Maximal positive-length intervals where the density is one."""
        segments = []
        cursor = _ZERO
        for g in self.gaps:
            if g.lo > cursor:
                segments.append((cursor, g.lo))
            cursor = max(cursor, g.hi)
        if cursor < _ONE:
            segments.append((cursor, _ONE))
        return tuple(segments)

    # -- distribution functions -------------------------------------------

    def cdf(self, x: RationalLike) -> Fraction:
        """mu[0, x], exact."""
        return _mass_up_to(x, *self._tables(), strict=False)

    def cdf_left(self, x: RationalLike) -> Fraction:
        """mu[0, x), exact."""
        return _mass_up_to(x, *self._tables(), strict=True)

    def _tables(self):
        """(gaps as (lo, hi), atoms as (position, mass)), one atom per gap."""
        return [(g.lo, g.hi) for g in self.gaps], [(g.atom_position, g.mass) for g in self.gaps]

    def atom_mass(self, x: RationalLike) -> Fraction:
        return self.cdf(x) - self.cdf_left(x)

    # -- conjugation -------------------------------------------------------

    def conjugate(self) -> "QuasiUniformMeasure":
        """Flip every atom to the opposite gap endpoint (an involution)."""
        return QuasiUniformMeasure(tuple(g.flipped() for g in self.gaps))

    # -- conversions -------------------------------------------------------

    def to_candidate(self) -> "CandidateMeasure":
        atoms: dict[Fraction, Fraction] = {}
        for g in self.gaps:
            pos = g.atom_position
            atoms[pos] = atoms.get(pos, _ZERO) + g.mass
        return CandidateMeasure(
            tuple((g.lo, g.hi) for g in self.gaps),
            tuple(sorted(atoms.items())),
        )

    def to_json(self) -> dict:
        return {
            "gaps": [
                {"lo": str(g.lo), "hi": str(g.hi), "atom_side": g.atom_side}
                for g in self.gaps
            ]
        }


def validate(spec: Union[Sequence, QuasiUniformMeasure]) -> QuasiUniformMeasure:
    """Build a validated measure from a raw gap list.

    Raises DegenerateGap, OutOfRange, or OverlappingGaps on bad input.
    """
    if isinstance(spec, QuasiUniformMeasure):
        return spec
    return QuasiUniformMeasure(tuple(spec))


# -- conjugate-pair sampling ----------------------------------------------


@dataclass(frozen=True)
class ConjugateSample:
    """One draw of the coupled pair (x, y).

    Off the gaps both coordinates equal the uniform draw (floats); inside
    gap i, x is the atom endpoint and y the opposite endpoint (exact
    rationals), and gap_index records which gap was hit.
    """

    x: Union[Fraction, float]
    y: Union[Fraction, float]
    gap_index: Optional[int] = None

    @property
    def is_diffuse(self) -> bool:
        return self.gap_index is None


def sample_conjugate_pair(measure: QuasiUniformMeasure, rng: np.random.Generator) -> ConjugateSample:
    """Draw (x, y) with x distributed as mu and y as the conjugate.

    The uniform seed u lands in a gap interior with probability the gap's
    mass; gap endpoints belong to the diffuse support, so an exact endpoint
    hit (probability zero) classifies as diffuse.
    """
    u = float(rng.random())
    los = _gap_los(measure)
    i = bisect_right(los, u) - 1
    if i >= 0:
        g = measure.gaps[i]
        if g.lo < u < g.hi:
            return ConjugateSample(g.atom_position, g.conjugate_position, i)
    return ConjugateSample(u, u, None)


@lru_cache(maxsize=_CACHE_SIZE)
def _gap_los(measure: QuasiUniformMeasure) -> list:
    return [g.lo for g in measure.gaps]


# -- cell decomposition ----------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One block of the coupled pair's joint support.

    An atom cell is a gap: every sample in it shares (x, y).  A diffuse
    cell is a maximal density-one segment: samples in it have x = y = u.
    Cells are totally ordered consistently with the ordering comparator.
    """

    kind: str  # "atom" | "diffuse"
    lo: Fraction
    hi: Fraction
    mass: Fraction
    x: Optional[Fraction] = None
    y: Optional[Fraction] = None
    gap_index: Optional[int] = None
    atom_side: Optional[str] = None

    def sort_key(self) -> tuple:
        if self.kind == "atom":
            return (self.x, self.y)
        mid = (self.lo + self.hi) / 2
        return (mid, mid)


@dataclass(frozen=True)
class CellDecomposition:
    """All cells of a measure in ascending order; masses sum to one."""

    cells: tuple[Cell, ...]

    def __len__(self):
        return len(self.cells)


@lru_cache(maxsize=_CACHE_SIZE)
def cell_decomposition(measure: QuasiUniformMeasure) -> CellDecomposition:
    if not isinstance(measure, QuasiUniformMeasure):
        raise ValueError(
            f"cell decomposition takes a plain measure, not a {type(measure).__name__}"
        )
    cells = []
    for a, b in measure.diffuse_segments():
        cells.append(Cell("diffuse", a, b, b - a))
    for i, g in enumerate(measure.gaps):
        cells.append(
            Cell(
                "atom",
                g.lo,
                g.hi,
                g.mass,
                x=g.atom_position,
                y=g.conjugate_position,
                gap_index=i,
                atom_side=g.atom_side,
            )
        )
    cells.sort(key=Cell.sort_key)
    total = sum((c.mass for c in cells), _ZERO)
    if total != 1:
        raise QuasiShuffleError(f"cell masses sum to {total}")
    return CellDecomposition(tuple(cells))


# -- vectorized sampling tables -------------------------------------------


@dataclass(frozen=True, eq=False)
class _Guide:
    """Chen & Asau's indexed search: the one lookup of every piecewise draw.

    Each list of edges, nondecreasing from 0 to 1, cuts [0,1] into cells,
    and the lists are stacked: list k's cells follow list k-1's.  The guide
    runs over each list's distinct lower edges, one piece per edge, which
    stands for the last cell with that edge: `guide[k * (B + 1) + b]` is
    list k's piece holding b/B, and at most `steps` comparisons u >=
    hi[piece] step a draw forward from it.  They are the comparisons a
    binary search over the edges makes, so u finds the cell
    `searchsorted(edges, u, side="right") - 1`.  A list's last piece ends
    at inf, so u = 1 finds its last cell.
    """

    hi: np.ndarray  # each piece's upper edge; inf for a list's last piece
    guide: np.ndarray  # piece holding b/B, per list and bucket b = 0..B
    buckets: int  # B, a power of two
    steps: int  # most edges strictly inside one bucket
    cell: Optional[np.ndarray]  # each piece's cell; None if each cell is one

    @classmethod
    def build(cls, edge_lists) -> _Guide:
        import numpy as np

        lists = [np.asarray(edges, dtype=np.float64) for edges in edge_lists]
        # the last of the cells sharing a lower edge: a run of zero-width
        # cells costs no step
        last = [np.flatnonzero(np.append(e[1:-1] != e[:-2], True)) for e in lists]
        pieces = [np.append(e[i], 1.0) for e, i in zip(lists, last)]
        # B >= 2 * pieces buckets leave most of them without an edge inside
        buckets = 1 << (2 * max(len(p) - 1 for p in pieces) - 1).bit_length()
        grid = np.arange(buckets + 1) / buckets
        at = [np.minimum(np.searchsorted(p, grid, "right"), len(p) - 1) - 1 for p in pieces]
        # the piece of the last u below each bucket's end
        top = [np.searchsorted(p, grid[1:], "left") - 1 for p in pieces]
        first = np.cumsum([0] + [len(p) - 1 for p in pieces])
        cells = np.cumsum([0] + [len(e) - 1 for e in lists])
        cell = np.concatenate([i + c for i, c in zip(last, cells)])
        return cls(
            np.concatenate([np.append(p[1:-1], np.inf) for p in pieces]),
            np.concatenate([g + f for g, f in zip(at, first)]),
            buckets,
            max(int(np.max(t - g[:-1])) for g, t in zip(at, top)),
            None if len(cell) == cells[-1] else cell,
        )

    def lookup(self, u: np.ndarray, k: Optional[np.ndarray] = None) -> np.ndarray:
        """The cell of each u in [0,1]: in list 0, or in list k, k broadcast
        against u."""
        import numpy as np

        # u * B is exact for a power of two B, so the bucket is too
        bucket = (u * self.buckets).astype(np.intp)
        if k is not None:
            bucket += k * (self.buckets + 1)
        piece = self.guide[bucket.reshape(-1)]
        if self.steps:
            u = np.reshape(u, -1)
            moved = u >= self.hi[piece]
            piece += moved
        if self.steps > 1:
            # a draw that did not step has found its piece, so only the few
            # that did take the later steps
            at = np.flatnonzero(moved)
            part, u = piece[at], u[at]
            for _ in range(self.steps - 1):
                part += u >= self.hi[part]
            piece[at] = part
        piece = piece.reshape(np.shape(bucket))
        return piece if self.cell is None else self.cell[piece]


@dataclass(frozen=True, eq=False)
class _BatchTables:
    """A measure's cells, or a mixture's, for vectorized draws: `guide`
    finds a draw's cell, and the per-cell tables serve `ConjugateBatch`.
    A mixture's component k has the guide's list k, so its cells follow
    those of component k-1."""

    guide: _Guide
    cells: tuple[Cell, ...]
    cell_lo: np.ndarray  # lower edge
    cell_y: np.ndarray  # conjugate position (atoms) / 0 (diffuse)
    cell_span: np.ndarray  # x - y (atoms) / 0 (diffuse)
    cell_diffuse: np.ndarray  # 0.0 (atoms) / 1.0 (diffuse)


@lru_cache(maxsize=_CACHE_SIZE)
def _weight_guide(components) -> _Guide:
    """The guide over the cumulative weights of (weight, component) pairs,
    rescaled to end at 1: the arithmetic of `rng.choice(k, p=weights /
    weights.sum())` without its checks, so a uniform finds the component
    `choice` draws from it."""
    import numpy as np

    p = np.array([float(w) for w, _ in components])
    cdf = np.cumsum(p / p.sum())
    return _Guide.build([np.append(0.0, cdf / cdf[-1])])


@lru_cache(maxsize=_CACHE_SIZE)
def _batch_tables(source: OrderingSource) -> _BatchTables:
    import numpy as np

    measures = [source]
    if isinstance(source, MeasureMixture):
        measures = [m for _, m in source.components]
    # The cells tile [0,1] in rank order, so a draw's cell is the boundary
    # interval it falls in.
    lists = [cell_decomposition(m).cells for m in measures]
    cells = tuple(c for cl in lists for c in cl)
    cell_lo = np.array([float(c.lo) for c in cells])
    cell_x = np.array([float(c.x) if c.kind == "atom" else 0.0 for c in cells])
    cell_y = np.array([float(c.y) if c.kind == "atom" else 0.0 for c in cells])
    # float x - y, as a draw's x - y rounds, so y + s * span is bit-identical
    # to y + s * (x - y); a diffuse draw has x = y
    span = cell_x - cell_y
    diffuse = np.array([c.kind == "diffuse" for c in cells], dtype=np.float64)
    guide = _Guide.build([[*(float(c.lo) for c in cl), 1.0] for cl in lists])
    return _BatchTables(guide, cells, cell_lo, cell_y, span, diffuse)


@dataclass(frozen=True, eq=False)
class ConjugateBatch:
    """Vectorized conjugate-pair draws: each draw's uniform seed `u` and its
    cell's row `cell` in `tables`, found through their guide.

    A draw's pair is its cell's: (atom end, far end) in an atom cell, (u, u)
    in a diffuse one.  `interpolate` gives y + s * (x - y) from per-cell
    tables; `ordering._ordering_keys` orders draws on the 2^-53 grid exactly.

    The cells' edges are floats, so a draw within one float step of a cell
    boundary may land in the neighbouring cell (probability ~2^-52 per
    draw); `sample_conjugate_pair` draws one pair with exact gap endpoints.
    """

    u: np.ndarray  # uniform seed per draw
    cell: np.ndarray  # row of the draw's cell in `tables`
    tables: _BatchTables = field(repr=False)

    def interpolate(self, s: np.ndarray) -> np.ndarray:
        """y + s * (x - y) per draw, through the per-cell x - y table."""
        t = self.tables
        # y = u * diffuse + cell_y: an atom's y plus +0.0, or 0 + u in a
        # diffuse cell; neither sum rounds
        y = self.u * t.cell_diffuse[self.cell]
        y += t.cell_y[self.cell]
        return y + s * t.cell_span[self.cell]


def _row_blocks(size: int, n: int):
    """(start, stop) of consecutive blocks of `size` rows of n draws.

    A block holds about `_LOOKUP_BLOCK` draws, or one row when a row is
    wider.  The samplers deal each block on its own, into one preallocated
    output, so their temporaries stay cache-sized; blocks come in row order
    and `rng.random` fills them in C order, so the draws are those of one
    whole-batch call.
    """
    rows = max(1, _LOOKUP_BLOCK // n)
    for start in range(0, size, rows):
        yield start, min(start + rows, size)


def sample_conjugate_batch(
    source: OrderingSource, shape, rng: np.random.Generator
) -> ConjugateBatch:
    """Conjugate-pair draws, one per entry of `shape`; a mixture draws one
    component per row (the last axis of `shape`).

    Each draw takes one uniform u from `rng` and finds its cell through the
    guide, so a measure's draws are those of `rng.random(shape)`.  A
    mixture first draws one uniform per row for its component, then the
    rows' uniforms, component by component in component order, and finds
    each draw's cell among its component's.  The lookup runs on the whole
    shape at once; the samplers call it one row block at a time
    (`_row_blocks`).

    `rng` must hand out `Generator.random` draws, which lie on the grid of
    multiples of 2^-53: the ordering keys read u's 53 bits (`ordering`).
    """
    import numpy as np

    t = _batch_tables(source)
    if not isinstance(source, MeasureMixture):
        u = rng.random(shape)
        cell = t.guide.lookup(u)
        return ConjugateBatch(u, cell, t)
    *rows, n = np.broadcast_shapes(shape)
    which = _weight_guide(source.components).lookup(rng.random(rows))
    # row r of component c takes draw row (rows of earlier components) +
    # (earlier rows of component c): the running count of a (components,
    # rows) table of hits, read in C order, at c * rows + r, less one
    at = which.reshape(-1) * which.size + np.arange(which.size)
    hit = np.zeros(len(source.components) * which.size, dtype=np.intp)
    hit[at] = 1
    drawn = np.cumsum(hit, out=hit)[at] - 1
    u = np.take(rng.random((which.size, n)), drawn, axis=0).reshape(*rows, n)
    cell = t.guide.lookup(u, which[..., None])
    return ConjugateBatch(u, cell, t)


# -- candidate measures and the quasi-uniform predicate --------------------


@dataclass(frozen=True)
class CandidateMeasure:
    """Density one off the listed gaps plus free atoms at listed positions.

    Unlike QuasiUniformMeasure, atoms are not tied to gap endpoints; the
    predicate below decides whether they can be.  Construction checks that
    the data describes a probability measure (atom mass balances gap length)
    but not quasi-uniformity.
    """

    gaps: tuple[tuple[Fraction, Fraction], ...]
    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        # a measure's gap checks; the atom side is a placeholder
        gaps = _checked_gaps([GapInterval(lo, hi, RIGHT) for lo, hi in self.gaps])
        gaps = [(g.lo, g.hi) for g in gaps]
        atoms = []
        for pos, mass in self.atoms:
            pos = _check_unit(as_fraction(pos, "atom position"), "atom position")
            mass = as_fraction(mass, "atom mass")
            if mass <= 0:
                raise ValueError(f"atom mass {mass} must be positive")
            atoms.append((pos, mass))
        atoms.sort()
        for (p, _), (q, _) in zip(atoms, atoms[1:]):
            if p == q:
                raise ValueError(f"duplicate atom position {p}")
        gap_len = sum((hi - lo for lo, hi in gaps), _ZERO)
        atom_mass = sum((m for _, m in atoms), _ZERO)
        if gap_len != atom_mass:
            raise ValueError(
                f"not a probability measure: gap length {gap_len} != atom mass {atom_mass}"
            )
        object.__setattr__(self, "gaps", tuple(gaps))
        object.__setattr__(self, "atoms", tuple(atoms))

    def cdf(self, x: RationalLike) -> Fraction:
        return _mass_up_to(x, self.gaps, self.atoms, strict=False)

    def cdf_left(self, x: RationalLike) -> Fraction:
        return _mass_up_to(x, self.gaps, self.atoms, strict=True)

    def to_json(self) -> dict:
        return {
            "gaps": [{"lo": str(lo), "hi": str(hi)} for lo, hi in self.gaps],
            "atoms": [{"pos": str(p), "mass": str(m)} for p, m in self.atoms],
        }

    def to_measure(self) -> QuasiUniformMeasure:
        """Refine gaps so each atom sits at an endpoint of its own sub-gap.

        Raises ValueError when the candidate is not quasi-uniform relative
        to its presented gaps.
        """
        assignment = _endpoint_assignment(self)
        if assignment is None:
            raise ValueError("candidate is not quasi-uniform relative to its gaps")
        gaps = []
        for (lo, hi), (m_lo, m_hi) in zip(self.gaps, assignment):
            if m_lo > 0:
                gaps.append(GapInterval(lo, lo + m_lo, LEFT))
            if m_hi > 0:
                gaps.append(GapInterval(hi - m_hi, hi, RIGHT))
        return QuasiUniformMeasure(tuple(gaps))


def _endpoint_assignment(cand: CandidateMeasure):
    """Split each gap's length across atoms at its endpoints, if possible.

    Gaps are sorted with disjoint interiors, so an atom touches at most the
    gap that ends at it and the gap that starts at it: the transport is a
    chain and has exactly one solution.  Walking the gaps left to right,
    each gap first fills what its left-endpoint atom still lacks and sends
    the rest to its right-endpoint atom.  Returns per-gap (mass at lo, mass
    at hi), or None when a flow would go negative or an atom keeps mass
    left over (as an atom on no gap endpoint does).
    """
    lacking = dict(cand.atoms)
    out = []
    for lo, hi in cand.gaps:
        m_lo = lacking.pop(lo, _ZERO)
        m_hi = hi - lo - m_lo
        if m_hi < 0 or lacking.get(hi, _ZERO) < m_hi:
            return None
        if m_hi:
            lacking[hi] -= m_hi
        out.append((m_lo, m_hi))
    return None if any(lacking.values()) else out


def is_quasi_uniform(cand: Union[CandidateMeasure, QuasiUniformMeasure]) -> bool:
    """Decide quasi-uniformity relative to the presented gap decomposition.

    True when every presented gap's length can be carried by atoms sitting
    at that gap's own endpoints (an exact chain walk over the gaps).  An
    atom in a gap's interior therefore fails, and validated measures always
    pass.
    """
    if isinstance(cand, QuasiUniformMeasure):
        cand = cand.to_candidate()
    return _endpoint_assignment(cand) is not None


# -- mixtures --------------------------------------------------------------


def _checked_weights(components) -> tuple:
    """Mixture components as (Fraction weight, component); the weights must
    be positive and sum to one."""
    comps = []
    for weight, component in components:
        weight = as_fraction(weight, "mixture weight")
        if weight <= 0:
            raise InvalidMixture(f"weight {weight} must be positive")
        comps.append((weight, component))
    total = sum((w for w, _ in comps), _ZERO)
    if total != 1:
        raise InvalidMixture(f"weights sum to {total}, expected 1")
    return tuple(comps)


@dataclass(frozen=True)
class MeasureMixture:
    """Finite mixture of quasi-uniform measures with exact rational weights.

    One component is drawn per ordering, not per card.
    """

    components: tuple[tuple[Fraction, QuasiUniformMeasure], ...]

    def __post_init__(self):
        comps = _checked_weights(self.components)
        object.__setattr__(self, "components", tuple((w, validate(m)) for w, m in comps))

    def to_json(self) -> dict:
        return {
            "mixture": [
                {"weight": str(w), "measure": m.to_json()} for w, m in self.components
            ]
        }


# -- composition -----------------------------------------------------------


def compose(first: QuasiUniformMeasure, then: QuasiUniformMeasure) -> QuasiUniformMeasure:
    """The measure whose one step is a step by `first` followed by one by `then`.

    Each gap of `then` holds a copy of `first`, mapped affinely onto the gap:
    increasing at a right atom, decreasing (so atom sides swap) at a left
    atom.  Everything else is diffuse.  The ordering law of the result is
    `convolve(step(then), step(first))`, because the conjugate coupling picks
    its cell independently of u.
    """
    gaps = []
    for outer in then.gaps:
        right = outer.atom_side == RIGHT
        for inner in first.gaps:
            if right:
                lo, hi = outer.lo + inner.lo * outer.mass, outer.lo + inner.hi * outer.mass
            else:
                lo, hi = outer.hi - inner.hi * outer.mass, outer.hi - inner.lo * outer.mass
            # the atom is on the right when both gaps have it on the same side
            side = RIGHT if (inner.atom_side == RIGHT) == right else LEFT
            gaps.append(GapInterval(lo, hi, side))
    return QuasiUniformMeasure(tuple(gaps))


def power(measure: QuasiUniformMeasure, h: int) -> QuasiUniformMeasure:
    """The measure whose one step is h steps by `measure` (h = 0: the identity)."""
    if h < 0:
        raise ValueError(f"h = {h} is negative")
    out = QuasiUniformMeasure((GapInterval(_ZERO, _ONE, RIGHT),))
    for _ in range(h):
        out = compose(out, measure)
    return out


# -- built-ins and parsing -------------------------------------------------


def lebesgue() -> QuasiUniformMeasure:
    return QuasiUniformMeasure(())

def gsr() -> QuasiUniformMeasure:
    """The Gilbert-Shannon-Reeds riffle: atoms 1/2 at 1/2 and 1/2 at 1."""
    return QuasiUniformMeasure(
        (GapInterval(_ZERO, Fraction(1, 2), RIGHT), GapInterval(Fraction(1, 2), _ONE, RIGHT))
    )

def a_shuffle(parts: int) -> QuasiUniformMeasure:
    """parts equal right-atom gaps; parts = 2 recovers the riffle."""
    if parts < 1:
        raise ValueError("a-shuffle needs at least one part")
    return QuasiUniformMeasure(
        tuple(
            GapInterval(Fraction(i, parts), Fraction(i + 1, parts), RIGHT)
            for i in range(parts)
        )
    )

def mixed_fixture() -> QuasiUniformMeasure:
    """Atomic plus diffuse: diffuse on [0,1/4] and [1/2,3/4], atoms both ways."""
    return QuasiUniformMeasure(
        (
            GapInterval(Fraction(1, 4), Fraction(1, 2), RIGHT),
            GapInterval(Fraction(3, 4), _ONE, LEFT),
        )
    )

def interior_atom_fixture() -> CandidateMeasure:
    """Rejected candidate: the atom sits strictly inside its gap."""
    return CandidateMeasure(
        ((Fraction(1, 2), Fraction(3, 4)),),
        ((Fraction(5, 8), Fraction(1, 4)),),
    )


_BUILTINS = {
    "lebesgue": lebesgue,
    "gsr": gsr,
    "gsr-conjugate": lambda: gsr().conjugate(),
    "identity": lambda: QuasiUniformMeasure((GapInterval(_ZERO, _ONE, RIGHT),)),
    "mixed": mixed_fixture,
}


def _builtin_measure(text: str) -> Optional[QuasiUniformMeasure]:
    """A built-in name, "a-shuffle:K" or "gap(lo,hi,side)"; None for text of
    none of these forms."""
    text = text.strip()
    key = text.lower()
    if key in _BUILTINS:
        return _BUILTINS[key]()
    if key.startswith("a-shuffle:"):
        return a_shuffle(int(key.split(":", 1)[1]))
    if key.startswith("gap(") and key.endswith(")"):
        parts = [p.strip() for p in key[4:-1].split(",")]
        if len(parts) != 3:
            raise ValueError(f"gap(...) takes lo,hi,side: {text!r}")
        return QuasiUniformMeasure((GapInterval(as_fraction(parts[0]), as_fraction(parts[1]), parts[2]),))
    return None


def parse_measure(text: str) -> QuasiUniformMeasure:
    """Parse a built-in name, "a-shuffle:K", or "gap(lo,hi,side)"."""
    measure = _builtin_measure(text)
    if measure is None:
        raise ValueError(f"unknown measure {text.strip()!r}")
    return measure


OrderingSource = Union[QuasiUniformMeasure, MeasureMixture]
MeasureSource = Union[OrderingSource, CandidateMeasure]


def _json_object(obj, what: str, *keys: str) -> dict:
    """A decoded JSON object that holds `keys`; a ValueError names an entry
    that is not an object or a key it lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} {obj!r} has no {key!r}")
    return obj


def _json_list(value, what: str) -> list:
    """A decoded JSON list; a ValueError names a field that is not one."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def source_from_json(obj: dict) -> MeasureSource:
    """Decode a measure, mixture, or candidate from its JSON object form.

    A mixture entry's measure is a JSON object or text read as
    `resolve_source` reads it.  A ValueError names an entry that is not a
    JSON object, a list field that is not a list, or a key an entry lacks.
    """
    if "mixture" in _json_object(obj, "measure"):
        items = _json_list(obj["mixture"], "mixture")
        items = [_json_object(i, "mixture entry", "weight", "measure") for i in items]
        return MeasureMixture(
            tuple((i["weight"], _plain_measure(i["measure"], "mixture entry")) for i in items)
        )
    gaps = [_json_object(g, "gap", "lo", "hi") for g in _json_list(obj.get("gaps", []), "gaps")]
    if "atoms" in obj or any("atom_side" not in g for g in gaps):
        atoms = _json_list(obj.get("atoms", []), "atoms")
        atoms = [_json_object(a, "atom", "pos", "mass") for a in atoms]
        return CandidateMeasure(
            tuple((g["lo"], g["hi"]) for g in gaps),
            tuple((a["pos"], a["mass"]) for a in atoms),
        )
    return QuasiUniformMeasure(tuple((g["lo"], g["hi"], g["atom_side"]) for g in gaps))


def _plain_measure(value, what: str) -> QuasiUniformMeasure:
    """The plain measure that text, read as `resolve_source` reads it, or a
    JSON object describes; a ValueError names `what` for any other source."""
    source = resolve_source(value) if isinstance(value, str) else source_from_json(value)
    if not isinstance(source, QuasiUniformMeasure):
        raise ValueError(f"{what} takes a plain measure, not a {type(source).__name__}")
    return source


def _resolve_spec(text: str, shorthand, from_json, unknown: str):
    """Decode spec text: inline JSON first, then `shorthand(text)` unless it
    returns None, then the JSON file of that name.  A shorthand wins over a
    file of the same name; other text raises a ValueError `unknown TEXT`."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return from_json(json.loads(stripped))
    spec = shorthand(stripped)
    if spec is not None:
        return spec
    if os.path.exists(stripped):
        with open(stripped) as fh:
            return from_json(json.load(fh))
    raise ValueError(f"{unknown} {stripped!r}")


def resolve_source(text: str) -> MeasureSource:
    """Resolve CLI-style measure input: inline JSON, a built-in name or form
    (`interior-atom` too), or a JSON file."""
    return _resolve_spec(
        text,
        lambda s: interior_atom_fixture() if s.lower() == "interior-atom" else _builtin_measure(s),
        source_from_json,
        "unknown measure",
    )
