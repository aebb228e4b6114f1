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
output, or counted one by one (`ordering_counts`).  Each draw has one
exact int64 key (`_ordering_keys`): its uniform's 53 bits in a diffuse
cell, its cell's lower edge at an atom, and the label below them, so the
keys of a row are pairwise distinct.  `_rank_keys` ranks them: rows of up
to `_KEY_COUNT_WIDTH` labels count their pairwise key comparisons, wider
ones sort the keys and read the labels off the low bits.  The
blocks draw their uniforms in row order, so the rows of a measure are
those of one whole-batch draw.  A mixture takes the same path:
`sample_conjugate_batch` draws one component per row and looks the row up
in that component's cells.  It draws each block's components before its
uniforms, so beyond one block the rows differ from those of a whole-batch
component draw, with the same law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import IncomparableSamples, WindowTooSmall
from .measure import (
    _CACHE_SIZE,
    LEFT,
    ConjugateBatch,
    ConjugateSample,
    MeasureMixture,
    OrderingSource,
    _BatchTables,
    _row_blocks,
    sample_conjugate_batch,
)
from .permutations import Perm, _counted_ranks, row_histogram

# the array functions import numpy when they run, so that `kernels`, which
# imports this module, loads without it
if TYPE_CHECKING:
    import numpy as np

# An ordering key packs 53 bits of u, a left-atom flag and up to 9 label
# bits below bit 63.
_LABEL_BITS = 9
# `_rank_keys` counts comparisons in rows up to this width, and in row
# inverses up to the next, and sorts wider ones: per card on one block of
# 2^14 keys (2-core shared host, numpy 2.4), sorting took 8.0 / 7.7 ns
# against 7.7 / 8.1 at widths 11 / 12, inverses 7.8 / 6.8 at 4 / 5.
_KEY_COUNT_WIDTH = 11
_KEY_INVERSE_WIDTH = 4

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

    Each label sorts by its conjugate pair's cell, then inside the cell by
    its uniform (diffuse cell) or by label order, kept at a right atom and
    reversed at a left atom: the order `compare` defines, read exactly off
    one integer key per draw (`_ordering_keys`); diffuse draws that share a
    uniform keep label order.  For a mixture, one component is drawn per
    ordering.  Rows are dealt in cache-sized blocks straight into the output.
    """
    import numpy as np

    labels = check_labels(labels)
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    out = np.empty((size, len(labels)), dtype=np.int64)
    for _ in _key_ranks(source, len(labels), size, rng, out):
        pass  # each block is written into out
    return out


def _ordering_keys(batch: ConjugateBatch) -> np.ndarray:
    """The ordering comparator in batch form: one int64 key per draw of a
    (..., n) conjugate batch, pairwise distinct in a row, with label i
    below label j exactly when key_i < key_j.

    A `Generator.random` draw u = k * 2^-53 lands in the cell [lo, hi),
    whose edges are the guide's floats, exactly when ceil(lo * 2^53) <= k
    < ceil(hi * 2^53).  So the key's high 53 bits hold k in a diffuse cell
    and ceil(lo * 2^53) in an atom cell; then a left-atom flag; then, in
    rows of up to 2^_LABEL_BITS labels, the label's column, or n - 1 -
    column at a left atom.  A u off the grid is truncated.
    """
    import numpy as np

    n = batch.cell.shape[-1]
    table, scale, bits = _key_table(batch.tables, n)
    # one gather: per (cell, column) where the label fits, else per cell
    key = table[batch.cell * n + np.arange(n) if bits else batch.cell]
    if scale is not None:
        # k in a diffuse cell, 0 in an atom cell
        key += (batch.u * scale[batch.cell]).astype(np.int64) << (bits + 1)
    return key


@lru_cache(maxsize=_CACHE_SIZE)
def _key_table(tables: _BatchTables, n: int) -> tuple:
    """The key of each cell but a diffuse draw's k, flat per (cell, column),
    or per cell where the label does not fit; each cell's scale of u to k,
    None without a diffuse cell; and the label's bits."""
    import numpy as np

    bits = _LABEL_BITS if n <= 1 << _LABEL_BITS else 0
    left = np.array([c.atom_side == LEFT for c in tables.cells], dtype=np.int64)
    # lo * 2^53 and its ceiling are exact
    high = np.ceil(tables.cell_lo * 2.0**53).astype(np.int64) * (tables.cell_diffuse == 0)
    table = (high << 1 | left) << bits
    if bits:
        col = np.arange(n)
        table = (table[:, None] | np.where(left[:, None] == 1, n - 1 - col, col)).ravel()
    scale = tables.cell_diffuse * 2.0**53 if tables.cell_diffuse.any() else None
    return table, scale, bits


def _key_ranks(
    source: OrderingSource,
    n: int,
    size: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
    inverse: bool = False,
):
    """Ranks of the ordering keys of n labels, in row blocks: yields
    (start, stop, rows) for each block of `_row_blocks`, where rows holds
    the rankings start..stop-1, or with `inverse` their row inverses, as
    `out[start:stop]` when `out` is given, else as an array of its own.
    """
    for start, stop in _row_blocks(size, n):
        rows = None if out is None else out[start:stop]
        batch = sample_conjugate_batch(source, (stop - start, n), rng)
        yield start, stop, _rank_keys(_ordering_keys(batch), rows, inverse)


def _rank_keys(
    keys: np.ndarray, out: Optional[np.ndarray] = None, inverse: bool = False
) -> np.ndarray:
    """1-based rank of each `_ordering_keys` key within its row, or with
    `inverse` the row inverse (each row's 1-based columns from its lowest
    key up), as a C-contiguous int64 array: `out` when given.

    Rows up to `_KEY_COUNT_WIDTH` wide, and inverses up to
    `_KEY_INVERSE_WIDTH`, count their comparisons (`_counted_ranks`).  Wider
    rows are sorted, and the sorted keys' low bits name the columns, whose
    scatter gives the ranks; `np.lexsort` adds the label where it does not fit.
    """
    import numpy as np

    rows, n = keys.shape
    if out is None:
        out = np.empty((rows, n), dtype=np.int64)
    elif out.dtype != np.int64 or not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous int64, so its flat view is a view")
    if n <= (_KEY_INVERSE_WIDTH if inverse else _KEY_COUNT_WIDTH):
        ranks = _counted_ranks(keys)
        if not inverse:
            out[...] = ranks.T
            return out
        # the inverse holds k + 1 at column rank_k - 1 of each row
        cols = ranks.T.astype(np.intp)
        cols += np.arange(-1, rows * n - 1, n)[:, None]
    else:
        if n <= 1 << _LABEL_BITS:
            low = np.sort(keys, axis=1)
            low &= (2 << _LABEL_BITS) - 1
            # a left atom's flag and label read 2^_LABEL_BITS + n - 1 - column
            cols = np.minimum(low, (1 << _LABEL_BITS) + n - 1 - low, out=low)
        else:
            col = np.arange(n)
            cols = np.lexsort((np.where(keys & 1, n - 1 - col, col), keys), axis=1)
        if inverse:
            return np.add(cols, 1, out=out)
        # the ranks hold k + 1 at column cols_k of each row
        cols += np.arange(0, rows * n, n)[:, None]
    # cols holds flat positions: one scatter writes k + 1 at cols[:, k]
    out.reshape(-1)[cols] = np.arange(1, n + 1)
    return out


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
    # the window is one row: one component of a mixture
    batch = sample_conjugate_batch(source, (2 * n_half + 1,), rng)
    t = target_label + n_half
    rank = _rank_keys(_ordering_keys(batch)[None, :])[0]
    cell = batch.tables.cells[batch.cell[t]]
    if cell.kind == "diffuse":
        u_t = float(batch.u[t])
        target = ConjugateSample(u_t, u_t)
    else:
        target = ConjugateSample(cell.x, cell.y, cell.gap_index)
    x_hat = float(np.count_nonzero(rank[:t] < rank[t])) / n_half
    y_hat = float(np.count_nonzero(rank[t + 1 :] < rank[t])) / n_half
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
