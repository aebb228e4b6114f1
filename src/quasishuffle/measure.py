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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateGap,
    InvalidMixture,
    OutOfRange,
    OverlappingGaps,
)

LEFT = "left"
RIGHT = "right"

RationalLike = Union[Fraction, int, str, float]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Entries kept by each per-measure cache (gap endpoints, cells, sampling
# tables): enough for every measure a run names, bounded for a long-lived
# process fed many user measures.
_CACHE_SIZE = 256


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce to an exact Fraction.  Floats convert by their exact binary value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        try:
            return Fraction(str(value).strip() if isinstance(value, str) else value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {what} {value!r} as a rational") from exc
    raise TypeError(f"{what} must be rational-like, got {type(value).__name__}")


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


@dataclass(frozen=True)
class MeasureSpec:
    """Raw gap list as supplied by a user, before validation."""

    gaps: tuple[tuple[RationalLike, RationalLike, str], ...]

    @classmethod
    def from_json(cls, obj: dict) -> "MeasureSpec":
        entries = []
        for item in obj.get("gaps", []):
            entries.append((item["lo"], item["hi"], item["atom_side"]))
        return cls(tuple(entries))


@dataclass(frozen=True)
class QuasiUniformMeasure:
    """Validated quasi-uniform measure: sorted gaps with disjoint interiors."""

    gaps: tuple[GapInterval, ...]

    def __post_init__(self):
        gaps = tuple(
            g if isinstance(g, GapInterval) else GapInterval(*g) for g in self.gaps
        )
        object.__setattr__(self, "gaps", _checked_gaps(gaps))

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
        x = _check_unit(as_fraction(x, "x"), "x")
        out = x
        for g in self.gaps:
            if x > g.lo:
                out -= min(x, g.hi) - g.lo
            if g.atom_position <= x:
                out += g.mass
        return out

    def cdf_left(self, x: RationalLike) -> Fraction:
        """mu[0, x), exact."""
        x = _check_unit(as_fraction(x, "x"), "x")
        out = x
        for g in self.gaps:
            if x > g.lo:
                out -= min(x, g.hi) - g.lo
            if g.atom_position < x:
                out += g.mass
        return out

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


def validate(spec: Union[MeasureSpec, Sequence, QuasiUniformMeasure]) -> QuasiUniformMeasure:
    """Build a validated measure from a raw gap list.

    Raises DegenerateGap, OutOfRange, or OverlappingGaps on bad input.
    """
    if isinstance(spec, QuasiUniformMeasure):
        return spec
    raw = spec.gaps if isinstance(spec, MeasureSpec) else spec
    gaps = []
    for entry in raw:
        if isinstance(entry, GapInterval):
            gaps.append(entry)
        else:
            lo, hi, side = entry
            gaps.append(GapInterval(as_fraction(lo, "gap lo"), as_fraction(hi, "gap hi"), side))
    return QuasiUniformMeasure(tuple(gaps))


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

    @property
    def interval(self) -> tuple:
        """The gap as (lo, hi); for diffuse samples the degenerate (u, u)."""
        return (self.x, self.y) if self.x <= self.y else (self.y, self.x)


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

    @property
    def atom_cell_of_gap(self) -> dict:
        return {c.gap_index: i for i, c in enumerate(self.cells) if c.kind == "atom"}


@lru_cache(maxsize=_CACHE_SIZE)
def cell_decomposition(measure: QuasiUniformMeasure) -> CellDecomposition:
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
    assert total == 1, f"cell masses sum to {total}"
    return CellDecomposition(tuple(cells))


def locate_sample(measure: QuasiUniformMeasure, sample: ConjugateSample) -> tuple[int, float]:
    """Map a scalar sample to (cell rank, relative position within the cell)."""
    cells = cell_decomposition(measure).cells
    if sample.gap_index is not None:
        return cell_decomposition(measure).atom_cell_of_gap[sample.gap_index], 0.5
    u = sample.x
    for i, c in enumerate(cells):
        if c.kind == "diffuse" and c.lo <= u <= c.hi:
            return i, float((Fraction(u) - c.lo) / (c.hi - c.lo))
    raise ValueError(f"diffuse value {u} lies in no density-one segment")


# -- vectorized sampling tables -------------------------------------------


@dataclass(frozen=True)
class _BatchTables:
    edges: np.ndarray  # region boundaries, float64, first 0.0 and last 1.0
    region_cell: np.ndarray  # region index -> cell rank
    cell_is_atom: np.ndarray  # bool per cell rank
    cell_x: np.ndarray  # atom position (atoms) / nan (diffuse)
    cell_y: np.ndarray
    cell_lo: np.ndarray  # cell interval, float64
    cell_inv_len: np.ndarray  # 1 / (hi - lo)
    cell_sign: np.ndarray  # +1 right atom, -1 left atom, 0 diffuse

    def __eq__(self, other):  # arrays are not comparable by value here
        return self is other

    def __hash__(self):
        return id(self)


@lru_cache(maxsize=_CACHE_SIZE)
def _batch_tables(measure: QuasiUniformMeasure) -> _BatchTables:
    cells = cell_decomposition(measure).cells
    points = {_ZERO, _ONE}
    for g in measure.gaps:
        points.add(g.lo)
        points.add(g.hi)
    exact_edges = sorted(points)
    edges = np.array([float(p) for p in exact_edges], dtype=np.float64)
    region_cell = np.zeros(len(exact_edges) - 1, dtype=np.int64)
    for r, (a, b) in enumerate(zip(exact_edges, exact_edges[1:])):
        mid = (a + b) / 2
        hit = None
        for i, c in enumerate(cells):
            if c.lo <= mid <= c.hi:
                hit = i
                break
        assert hit is not None, f"region ({a},{b}) matches no cell"
        region_cell[r] = hit
    n = len(cells)
    cell_is_atom = np.array([c.kind == "atom" for c in cells])
    cell_x = np.array([float(c.x) if c.kind == "atom" else np.nan for c in cells])
    cell_y = np.array([float(c.y) if c.kind == "atom" else np.nan for c in cells])
    cell_lo = np.array([float(c.lo) for c in cells])
    cell_inv_len = np.array([1.0 / float(c.hi - c.lo) for c in cells])
    sign = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(cells):
        if c.kind == "atom":
            sign[i] = 1 if c.atom_side == RIGHT else -1
    return _BatchTables(edges, region_cell, cell_is_atom, cell_x, cell_y, cell_lo, cell_inv_len, sign)


@dataclass(frozen=True)
class ConjugateBatch:
    """Vectorized conjugate-pair draws.

    Floating-point region lookup may misclassify a draw within one ulp of a
    gap endpoint (probability ~2^-52 per draw); scalar sampling stays exact.
    """

    cell: np.ndarray  # cell rank per draw
    x: np.ndarray  # float marginal draw of the measure
    y: np.ndarray  # float marginal draw of the conjugate
    rel: np.ndarray  # relative position inside the cell, [0, 1)
    sign: np.ndarray  # +1 right atom, -1 left atom, 0 diffuse


def sample_conjugate_batch(
    measure: QuasiUniformMeasure, shape, rng: np.random.Generator
) -> ConjugateBatch:
    t = _batch_tables(measure)
    u = rng.random(shape)
    region = np.searchsorted(t.edges, u, side="right") - 1
    np.clip(region, 0, len(t.region_cell) - 1, out=region)
    cell = t.region_cell[region]
    atom = t.cell_is_atom[cell]
    rel = (u - t.cell_lo[cell]) * t.cell_inv_len[cell]
    x = np.where(atom, t.cell_x[cell], u)
    y = np.where(atom, t.cell_y[cell], u)
    return ConjugateBatch(cell, x, y, rel, t.cell_sign[cell])


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
        gaps = []
        for lo, hi in self.gaps:
            lo = _check_unit(as_fraction(lo, "gap lo"), "gap lo")
            hi = _check_unit(as_fraction(hi, "gap hi"), "gap hi")
            if hi <= lo:
                raise DegenerateGap(f"gap ({lo}, {hi}) has no interior")
            gaps.append((lo, hi))
        gaps.sort()
        for (alo, ahi), (blo, bhi) in zip(gaps, gaps[1:]):
            if blo < ahi:
                raise OverlappingGaps(f"gaps ({alo},{ahi}) and ({blo},{bhi}) overlap")
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
        x = _check_unit(as_fraction(x, "x"), "x")
        out = x
        for lo, hi in self.gaps:
            if x > lo:
                out -= min(x, hi) - lo
        for pos, mass in self.atoms:
            if pos <= x:
                out += mass
        return out

    def cdf_left(self, x: RationalLike) -> Fraction:
        x = _check_unit(as_fraction(x, "x"), "x")
        out = x
        for lo, hi in self.gaps:
            if x > lo:
                out -= min(x, hi) - lo
        for pos, mass in self.atoms:
            if pos < x:
                out += mass
        return out

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

    Max-flow with exact rational capacities: source -> gap (length),
    gap -> endpoint atom, atom -> sink (mass).  Returns per-gap
    (mass at lo, mass at hi), or None when infeasible.
    """
    n_gaps = len(cand.gaps)
    pos_index = {p: i for i, (p, _) in enumerate(cand.atoms)}
    source = 0
    sink = 1 + n_gaps + len(cand.atoms)
    cap: dict[tuple[int, int], Fraction] = {}
    adj: dict[int, set[int]] = {i: set() for i in range(sink + 1)}

    def add_edge(a, b, c):
        cap[(a, b)] = cap.get((a, b), _ZERO) + c
        adj[a].add(b)
        adj[b].add(a)

    big = sum((m for _, m in cand.atoms), _ZERO) + 1
    for gi, (lo, hi) in enumerate(cand.gaps):
        add_edge(source, 1 + gi, hi - lo)
        for endpoint in (lo, hi):
            ai = pos_index.get(endpoint)
            if ai is not None:
                add_edge(1 + gi, 1 + n_gaps + ai, big)
    for ai, (_, mass) in enumerate(cand.atoms):
        add_edge(1 + n_gaps + ai, sink, mass)

    flow: dict[tuple[int, int], Fraction] = {}

    def residual(a, b):
        return cap.get((a, b), _ZERO) - flow.get((a, b), _ZERO) + flow.get((b, a), _ZERO)

    total = _ZERO
    while True:
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            node = queue.pop(0)
            for nxt in adj[node]:
                if nxt not in parent and residual(node, nxt) > 0:
                    parent[nxt] = node
                    queue.append(nxt)
        if sink not in parent:
            break
        path = []
        node = sink
        while parent[node] is not None:
            path.append((parent[node], node))
            node = parent[node]
        bottleneck = min(residual(a, b) for a, b in path)
        for a, b in path:
            back = min(flow.get((b, a), _ZERO), bottleneck)
            if back > 0:
                flow[(b, a)] -= back
            if bottleneck - back > 0:
                flow[(a, b)] = flow.get((a, b), _ZERO) + bottleneck - back
        total += bottleneck

    supply = sum((hi - lo for lo, hi in cand.gaps), _ZERO)
    if total != supply:
        return None
    out = []
    for gi, (lo, hi) in enumerate(cand.gaps):
        m_lo = _ZERO
        m_hi = _ZERO
        for endpoint in (lo, hi):
            ai = pos_index.get(endpoint)
            if ai is None:
                continue
            f = flow.get((1 + gi, 1 + n_gaps + ai), _ZERO)
            if endpoint == lo:
                m_lo += f
            else:
                m_hi += f
        out.append((m_lo, m_hi))
    return out


def is_quasi_uniform(cand: Union[CandidateMeasure, QuasiUniformMeasure]) -> bool:
    """Decide quasi-uniformity relative to the presented gap decomposition.

    True when every presented gap's length can be carried by atoms sitting
    at that gap's own endpoints (exact transport feasibility).  An atom in
    a gap's interior therefore fails, and validated measures always pass.
    """
    if isinstance(cand, QuasiUniformMeasure):
        cand = cand.to_candidate()
    return _endpoint_assignment(cand) is not None


# -- mixtures --------------------------------------------------------------


@dataclass(frozen=True)
class MeasureMixture:
    """Finite mixture of quasi-uniform measures with exact rational weights.

    One component is drawn per ordering, not per card.
    """

    components: tuple[tuple[Fraction, QuasiUniformMeasure], ...]

    def __post_init__(self):
        comps = []
        for weight, m in self.components:
            weight = as_fraction(weight, "mixture weight")
            if weight <= 0:
                raise InvalidMixture(f"weight {weight} must be positive")
            comps.append((weight, validate(m)))
        total = sum((w for w, _ in comps), _ZERO)
        if total != 1:
            raise InvalidMixture(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "components", tuple(comps))

    def sample_component(self, rng: np.random.Generator) -> QuasiUniformMeasure:
        u = rng.random()
        acc = 0.0
        for weight, m in self.components:
            acc += float(weight)
            if u < acc:
                return m
        return self.components[-1][1]

    def to_json(self) -> dict:
        return {
            "mixture": [
                {"weight": str(w), "measure": m.to_json()} for w, m in self.components
            ]
        }


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


def parse_measure(text: str) -> QuasiUniformMeasure:
    """Parse a built-in name, "a-shuffle:K", or "gap(lo,hi,side)"."""
    text = text.strip()
    key = text.lower()
    if key in _BUILTINS:
        return _BUILTINS[key]()
    if key.startswith("a-shuffle:"):
        return a_shuffle(int(key.split(":", 1)[1]))
    if key.startswith("gap(") and key.endswith(")"):
        inner = key[4:-1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 3:
            raise ValueError(f"gap(...) takes lo,hi,side: {text!r}")
        return QuasiUniformMeasure((GapInterval(as_fraction(parts[0]), as_fraction(parts[1]), parts[2]),))
    raise ValueError(f"unknown measure {text!r}")


MeasureSource = Union[QuasiUniformMeasure, MeasureMixture, CandidateMeasure]


def source_from_json(obj: dict) -> MeasureSource:
    """Decode a measure, mixture, or candidate from its JSON object form."""
    if "mixture" in obj:
        comps = []
        for item in obj["mixture"]:
            m = item["measure"]
            measure = parse_measure(m) if isinstance(m, str) else source_from_json(m)
            if not isinstance(measure, QuasiUniformMeasure):
                raise InvalidMixture("mixture components must be plain measures")
            comps.append((as_fraction(item["weight"], "mixture weight"), measure))
        return MeasureMixture(tuple(comps))
    gaps = obj.get("gaps", [])
    if "atoms" in obj or any("atom_side" not in g for g in gaps):
        return CandidateMeasure(
            tuple((g["lo"], g["hi"]) for g in gaps),
            tuple((a["pos"], a["mass"]) for a in obj.get("atoms", [])),
        )
    return validate(MeasureSpec.from_json(obj))


def _is_builtin_form(key: str) -> bool:
    """Whether lower-cased text has the syntax `parse_measure` accepts."""
    return (
        key in _BUILTINS
        or key.startswith("a-shuffle:")
        or (key.startswith("gap(") and key.endswith(")"))
    )


def resolve_source(text: str) -> MeasureSource:
    """Resolve CLI-style measure input: inline JSON, name, gap(...), or file.

    Built-in names and forms win over a file of the same name.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        return source_from_json(json.loads(stripped))
    key = stripped.lower()
    if key == "interior-atom":
        return interior_atom_fixture()
    if not _is_builtin_form(key) and os.path.exists(stripped):
        with open(stripped) as fh:
            return source_from_json(json.load(fh))
    return parse_measure(stripped)
