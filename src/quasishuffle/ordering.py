"""Random orderings of integer labels driven by a quasi-uniform measure.

Each label independently draws a conjugate pair (x, y).  Label m sits below
label n exactly when x_m < x_n, or y_m < y_n, or the pairs coincide at an
atom, in which case a right atom (x > y) keeps the natural label order and a
left atom (x < y) reverses it.  The resulting random order is invariant
under order-preserving relabelling, and the rank of a label inside a large
window recovers its pair: lower-window ranks converge to x, upper-window
ranks to y.

Orderings are dealt in row blocks of about 2^14 draws
(`measure._row_blocks`), each ranked straight into one preallocated
output, or counted one by one (`ordering_counts`).  The ranks come from
`permutations._row_ranks`: rows of up to `_COUNT_WIDTH` labels count
their pairwise key comparisons, wider ones are argsorted.  The
blocks draw their uniforms in row order, so the rows of a measure are
those of one whole-batch draw.  A mixture draws the components of each
block's rows before their uniforms, so beyond one block its rows differ
from those of a whole-batch component draw, with the same law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import IncomparableSamples, WindowTooSmall
from .measure import (
    ConjugateBatch,
    ConjugateSample,
    MeasureMixture,
    QuasiUniformMeasure,
    _component_draws,
    _row_blocks,
    cell_decomposition,
    sample_conjugate_batch,
)
from .permutations import Perm, _row_ranks, row_histogram

# the array functions import numpy when they run, so that `kernels`, which
# imports this module, loads without it
if TYPE_CHECKING:
    import numpy as np

OrderingSource = Union[QuasiUniformMeasure, MeasureMixture]

__all__ = [
    "EmpiricalPosition",
    "MeasureMixture",
    "compare",
    "sample_ordering_batch",
    "ordering_counts",
    "empirical_positions",
    "exchangeability_test",
]


def check_labels(labels: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(v) for v in labels)
    if len(out) == 0:
        raise ValueError("need at least one label")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"labels must be strictly increasing: {labels}")
    return out


def compare(
    sample_m: ConjugateSample, sample_n: ConjugateSample, m: int, n: int
) -> bool:
    """True when label m sits below label n.

    Both samples must come from the same measure.  Raises
    IncomparableSamples when the pairs coincide without an atom to orient
    them (identical diffuse draws, a probability-zero event).
    """
    if m == n:
        raise ValueError("labels must differ")
    if sample_m.x < sample_n.x or sample_m.y < sample_n.y:
        return True
    if sample_m.x == sample_n.x and sample_m.y == sample_n.y:
        if sample_m.x > sample_m.y:
            return m < n
        if sample_m.x < sample_m.y:
            return n < m
        raise IncomparableSamples(
            f"labels {m} and {n} drew identical diffuse value {sample_m.x}"
        )
    return False


def sample_ordering_batch(
    source: OrderingSource,
    labels: Sequence[int],
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ordering draws; returns a (size, n) array of rankings.

    Each label sorts by its conjugate pair's cell rank, then inside the
    cell by its relative position (diffuse cell) or by label order, kept
    at a right atom and reversed at a left atom: the order `compare`
    defines.  For a mixture, one component is drawn per ordering.
    Only two draws in one diffuse cell can coincide in floating point
    (probability ~2^-52 per pair); they fall back to natural label order
    instead of raising.  Rows are dealt in cache-sized blocks straight
    into the output.
    """
    import numpy as np

    labels = check_labels(labels)
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    out = np.empty((size, len(labels)), dtype=np.int64)
    for _ in _key_ranks(source, len(labels), size, rng, out):
        pass  # each block is written into out
    return out


def _ordering_keys(batch: ConjugateBatch) -> tuple[np.ndarray, bool]:
    """The ordering comparator in batch form, for a (..., n) conjugate batch.

    Returns (key, diffuse_hit): label i sits below label j exactly when
    key_i < key_j, or the keys tie and i < j.  key = cell rank + position
    inside the cell: label order at a right atom, reversed at a left one,
    and the relative position in a diffuse cell.  diffuse_hit says whether
    a draw fell in a diffuse cell; without one, keys in a row are pairwise
    distinct.
    """
    import numpy as np

    t = batch.tables
    n = batch.cell.shape[-1]
    asc = (np.arange(n) + 1.0) / (n + 2.0)
    # position inside the cell per (side, label): a cell's side picks its
    # block of n entries of `within`
    within = np.concatenate([np.zeros(n), asc, 1.0 - asc])
    key = within[(t.cell_side * n)[batch.cell] + np.arange(n)]
    key += batch.cell
    # atom keys in a row are pairwise distinct: 1/(n + 2) apart inside a
    # cell and strictly between cell ranks, far above the float spacing
    # while (n + 2) * cells < 2^50
    if t.cell_diffuse.any():
        diffuse = t.cell_diffuse[batch.cell]
        if diffuse.any():
            # rel * 0.0 adds +0.0 to an atom key; a diffuse key is rel + cell
            diffuse *= batch.rel
            key += diffuse
            return key, True
    return key, False


def _key_ranks(
    source: OrderingSource,
    n: int,
    size: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
    inverse: bool = False,
):
    """Ranks of the ordering keys of n labels, in row blocks.

    Yields (start, stop, rows) for each block of `_row_blocks`: rows holds
    the rankings start..stop-1, or with `inverse` their row inverses (the
    labels from the lowest up), as `out[start:stop]` when `out` is given,
    else as a block-sized array of its own.  A mixture draws the components
    of a block's rows, then deals each component's rows.
    """
    import numpy as np

    for start, stop in _row_blocks(size, n):
        rows = None if out is None else out[start:stop]
        if not isinstance(source, MeasureMixture):
            yield start, stop, _key_rank(source, (stop - start, n), rng, rows, inverse)
            continue
        if rows is None:
            rows = np.empty((stop - start, n), dtype=np.int64)
        for measure, at in _component_draws(source.components, stop - start, rng):
            rows[at] = _key_rank(measure, (len(at), n), rng, None, inverse)
        yield start, stop, rows


def _key_rank(
    measure: QuasiUniformMeasure,
    shape,
    rng: np.random.Generator,
    out: Optional[np.ndarray],
    inverse: bool,
) -> np.ndarray:
    """`_row_ranks` of the ordering keys of one conjugate batch of `shape`."""
    key, diffuse_hit = _ordering_keys(sample_conjugate_batch(measure, shape, rng))
    # keys without a diffuse draw are pairwise distinct in each row
    return _row_ranks(key, out, inverse, distinct=not diffuse_hit)


def ordering_counts(
    source: OrderingSource,
    labels: Sequence[int],
    size: int,
    rng: np.random.Generator,
) -> dict[Perm, int]:
    """Histogram of `size` sampled rankings, counted block by block from the
    rows `sample_ordering_batch` deals, with no whole-batch array."""
    labels = check_labels(labels)
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    blocks = _key_ranks(source, len(labels), size, rng)
    return row_histogram(rows for _, _, rows in blocks)


@dataclass(frozen=True)
class EmpiricalPosition:
    """Window-rank estimates of a label's conjugate pair.

    x_hat averages the indicator {k below target} over the window labels
    k < target, y_hat over k > target; both are normalized by the window
    half-width, the target itself excluded.
    """

    label: int
    window: int
    x_hat: float
    y_hat: float
    target: ConjugateSample


def empirical_positions(
    source: OrderingSource,
    target_label: int,
    window: int,
    rng: np.random.Generator,
) -> EmpiricalPosition:
    """Estimate the target's pair from one ordering of labels -N..N."""
    import numpy as np

    target_label = int(target_label)
    n_half = int(window)
    if n_half < 1 or abs(target_label) > n_half:
        raise WindowTooSmall(
            f"window [-{n_half}, {n_half}] does not contain label {target_label}"
        )
    measure = source
    if isinstance(source, MeasureMixture):
        measure, _ = next(_component_draws(source.components, 1, rng))
    labels = np.arange(-n_half, n_half + 1)
    batch = sample_conjugate_batch(measure, labels.shape, rng)
    t = target_label + n_half
    key, _ = _ordering_keys(batch)
    lower = labels < target_label
    upper = labels > target_label
    below = (key < key[t]) | ((key == key[t]) & lower)
    cell = cell_decomposition(measure).cells[batch.cell[t]]
    if cell.kind == "diffuse":
        u_t = float(batch.u[t])
        target = ConjugateSample(u_t, u_t)
    else:
        target = ConjugateSample(cell.x, cell.y, cell.gap_index)
    x_hat = float(np.count_nonzero(below & lower)) / n_half
    y_hat = float(np.count_nonzero(below & upper)) / n_half
    return EmpiricalPosition(target_label, n_half, x_hat, y_hat, target)


def exchangeability_test(
    source: OrderingSource,
    labels_a: Sequence[int],
    labels_b: Sequence[int],
    samples: int,
    rng: np.random.Generator,
    alpha: float = 0.001,
):
    """Two-sample test that order-isomorphic label sets order identically."""
    from .stats import chi_square_two_sample

    labels_a = check_labels(labels_a)
    labels_b = check_labels(labels_b)
    if len(labels_a) != len(labels_b):
        raise ValueError("label sets must have equal size")
    counts_a = ordering_counts(source, labels_a, samples, rng)
    counts_b = ordering_counts(source, labels_b, samples, rng)
    return chi_square_two_sample(counts_a, counts_b, alpha=alpha)
