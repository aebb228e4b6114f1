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
exact integer key (`_ordering_keys`): its cell's position (its rank
without a diffuse cell, int32 where the key fits; else its uniform's 53
bits in a diffuse cell and its lower edge at an atom, int64) and the
label below it, so the keys of a row are pairwise distinct.
`_rank_keys` ranks them: rows of up to `_KEY_COUNT_WIDTH` labels count
their pairwise key comparisons, wider ones sort the keys and read the
labels off the low bits.  A purely atomic source's row is a function of
its cell word, so up to `_WORD_LIMIT` words its rows, row inverses and
S_n indices are ranked once (`_word_tables`) and dealt by one row gather.
Histograms of up to `permutations._INDEX_WIDTH` labels count each row by
its index in S_n (`permutations._index_histogram`).  The blocks draw
their uniforms in row order, so the rows of a measure are those of one
whole-batch draw.  A mixture takes the same path: `sample_conjugate_batch`
draws one component per row and looks the row up in that component's
cells.  It draws each block's components before its uniforms, so beyond
one block the rows differ from those of a whole-batch component draw,
with the same law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import IncomparableSamples, WindowTooSmall
from .measure import (
    _LOOKUP_BLOCK,
    LEFT,
    ConjugateBatch,
    ConjugateSample,
    MeasureMixture,
    OrderingSource,
    _batch_tables,
    _BatchTables,
    _row_blocks,
    sample_conjugate_batch,
)
from .permutations import (
    _INDEX_WIDTH,
    Perm,
    _counted_ranks,
    _index_histogram,
    _lex_index,
    row_histogram,
)

# the array functions import numpy when they run, so that `kernels`, which
# imports this module, loads without it
if TYPE_CHECKING:
    import numpy as np

# An ordering key packs a cell position (53 bits of u with a diffuse cell),
# a left-atom flag and up to 9 label bits below bit 63.
_LABEL_BITS = 9
# A purely atomic source deals rows from a table of its cell words while it
# has at most this many: gsr up to 13 labels, a 3-shuffle up to 8.
_WORD_LIMIT = 1 << 13
# Each of the `_key_table` and `_word_tables` caches holds this many tables:
# at most 16 x 256 KiB flat key tables, and 16 x 208 KiB word tables (2^13
# words of 13 labels, two int8 rows each).
_TABLE_CACHE = 16
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
    """The ordering comparator in batch form: one integer key per draw of a
    (..., n) conjugate batch, pairwise distinct in a row, with label i
    below label j exactly when key_i < key_j.

    The key's high bits hold the draw's cell position, then a left-atom
    flag, then, in rows of up to 2^_LABEL_BITS labels, the label's column,
    or n - 1 - column at a left atom.  Without a diffuse cell the position
    is the cell's rank, and the key is int32 where it fits.  With one it is
    53 bits: a `Generator.random` draw u = k * 2^-53 lands in the cell [lo,
    hi), whose edges are the guide's floats, exactly when ceil(lo * 2^53)
    <= k < ceil(hi * 2^53), so the position is k in a diffuse cell and
    ceil(lo * 2^53) in an atom cell.  A u off the grid is truncated.
    """
    import numpy as np

    n = batch.cell.shape[-1]
    table, scale, bits, flat = _key_table(batch.tables, n)
    col = np.arange(n)
    # gathers by `np.take`, on temporaries updated in place
    if flat:
        at = batch.cell * n
        at += col
        key = np.take(table, at)
    else:
        key = np.take(table, batch.cell)
        if bits:
            key |= np.where(key >> bits & 1, n - 1 - col, col)
    if scale is not None:
        # k in a diffuse cell, 0 in an atom cell
        k = np.take(scale, batch.cell)
        k *= batch.u
        k = k.astype(np.int64)
        k <<= bits + 1
        key += k
    return key


@lru_cache(maxsize=_TABLE_CACHE)
def _key_table(tables: _BatchTables, n: int) -> tuple:
    """The key of each cell but a diffuse draw's k and, where it fits, the
    label; each cell's scale of u to k, None without a diffuse cell; the
    label's bits; and whether the keys are laid out flat per (cell,
    column), label included, which they are while the table holds no more
    entries than one block of draws (`_LOOKUP_BLOCK`).  Otherwise they are
    per cell, no larger than the source's own `_batch_tables`."""
    import numpy as np

    bits = _LABEL_BITS if n <= 1 << _LABEL_BITS else 0
    left = np.array([c.atom_side == LEFT for c in tables.cells], dtype=np.int64)
    if tables.cell_diffuse.any():
        # lo * 2^53 and its ceiling are exact
        high = np.ceil(tables.cell_lo * 2.0**53).astype(np.int64) * (tables.cell_diffuse == 0)
        scale = tables.cell_diffuse * 2.0**53
    else:
        # a row's cells are one component's, which are listed in rank order
        high, scale = np.arange(len(tables.cells)), None
    table = (high << 1 | left) << bits
    flat = bits > 0 and table.size * n <= _LOOKUP_BLOCK
    if flat:
        col = np.arange(n)
        table = (table[:, None] | np.where(left[:, None] == 1, n - 1 - col, col)).ravel()
    if scale is None and table.max(initial=0) | (1 << bits) - 1 < 2**31:
        table = table.astype(np.int32)
    return table, scale, bits, flat


@dataclass(frozen=True, eq=False)
class _Words:
    """A purely atomic source's rows of n labels per cell word: a row's
    cells, read as base-C digits for C cells, are its word's code."""

    weights: np.ndarray  # C^(n-1-i), so that cells @ weights is the code
    ranks: np.ndarray  # (C^n, n) int8: each word's ranking
    inverse: np.ndarray  # (C^n, n) int8: each ranking's row inverse
    index: Optional[np.ndarray]  # each ranking's index in S_n, n <= _INDEX_WIDTH

    def code(self, batch: ConjugateBatch) -> np.ndarray:
        return batch.cell @ self.weights


@lru_cache(maxsize=_TABLE_CACHE)
def _word_tables(tables: _BatchTables, n: int) -> Optional[_Words]:
    """The word table of a source with no diffuse cell and at most
    `_WORD_LIMIT` words of n labels, else None; a one-cell source counts
    as two, so n stays below 14 and a rank fits int8.  Its rows are
    `_rank_keys` of the words' keys, so they are the rows those keys deal.
    """
    import numpy as np

    cells = len(tables.cells)
    if tables.cell_diffuse.any() or max(cells, 2) ** n > _WORD_LIMIT:
        return None
    weights = cells ** np.arange(n - 1, -1, -1)
    words = np.arange(cells**n)[:, None] // weights % cells
    keys = _ordering_keys(ConjugateBatch(np.zeros(words.shape), words, tables))
    return _Words(
        weights,
        _rank_keys(keys).astype(np.int8),
        _rank_keys(keys, inverse=True).astype(np.int8),
        _lex_index(keys) if n <= _INDEX_WIDTH else None,
    )


def _key_blocks(source: OrderingSource, n: int, size: int, rng: np.random.Generator):
    """The conjugate draws of `size` rows of n labels, one row block at a
    time: yields (start, stop, batch) for each block of `_row_blocks`."""
    for start, stop in _row_blocks(size, n):
        yield start, stop, sample_conjugate_batch(source, (stop - start, n), rng)


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
    `out[start:stop]` when `out` is given, else as an int64 array of its
    own.  A source with word tables deals its rows from them.
    """
    import numpy as np

    words = _word_tables(_batch_tables(source), n)
    for start, stop, batch in _key_blocks(source, n, size, rng):
        rows = np.empty((stop - start, n), dtype=np.int64) if out is None else out[start:stop]
        if words is None:
            _rank_keys(_ordering_keys(batch), rows, inverse)
        else:
            # a row gather by `np.take` is several times faster than indexing
            table = words.inverse if inverse else words.ranks
            rows[...] = np.take(table, words.code(batch), axis=0)
        yield start, stop, rows


def _key_indices(source: OrderingSource, n: int, size: int, rng: np.random.Generator):
    """The S_n index (`_lex_index`) of each of `size` rankings of n labels,
    one array per row block: read off the word table where the source has
    one, else counted from the keys."""
    import numpy as np

    words = _word_tables(_batch_tables(source), n)
    for _, _, batch in _key_blocks(source, n, size, rng):
        if words is None:
            yield _lex_index(_ordering_keys(batch))
        else:
            yield np.take(words.index, words.code(batch))


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
        cols = ranks.T + np.arange(-1, rows * n - 1, n)[:, None]
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
        # the ranks hold k + 1 at column cols_k of each row; the sum is an
        # intp array, which indexes without a cast, also for int32 keys
        cols = cols + np.arange(0, rows * n, n)[:, None]
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
    rows `sample_ordering_batch` deals, with no whole-batch array: by their
    index in S_n up to `_INDEX_WIDTH` labels, as rows beyond."""
    labels = check_labels(labels)
    n = len(labels)
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    if n <= _INDEX_WIDTH:
        return _index_histogram(_key_indices(source, n, size, rng), n)
    return row_histogram(rows for _, _, rows in _key_ranks(source, n, size, rng))


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
