"""Random orderings of integer labels driven by a quasi-uniform measure.

Each label independently draws a conjugate pair (x, y).  Label m sits below
label n exactly when x_m < x_n, or y_m < y_n, or the pairs coincide at an
atom, in which case a right atom (x > y) keeps the natural label order and a
left atom (x < y) reverses it.  The resulting random order is invariant
under order-preserving relabelling, and the rank of a label inside a large
window recovers its pair: lower-window ranks converge to x, upper-window
ranks to y.

Orderings are dealt in row blocks of about 2^14 uniforms
(`measure._row_blocks`: 2^14 / n rows of keys, 2^14 rows of words, 2^13
of classes) by one loop, `_deal`, which chooses a source's route once and
yields each block's rankings, row inverses or S_n indices: into one
preallocated output for `sample_ordering_batch`, counted one by one for
`ordering_counts`, and as every conjugate step of `kernels`.  A source
deals its rows from a row table (`_RowTable`), of words or of classes, or
ranks keys, tried in this order.

* Word table.  A purely atomic source's row is a function of its cell
  word, so up to `_WORD_LIMIT` words its rows, row inverses and S_n
  indices are ranked once (`_built_words`), and each row is dealt by one
  uniform: a guide over the exact word law (`_word_edges`) finds its word,
  within 2^-53 of the word's mass.  A source with a word of positive mass
  that no uniform would find has no word table, nor one whose guide takes
  more than one step.
* Class table.  Every other source of up to `permutations._INDEX_WIDTH`
  = 8 labels (a diffuse cell, a mixture with one, a gated or too large
  word law) deals each row from its exact law, which is constant on the
  descent classes D of the rank-order list: two uniforms per row, one for
  the class through a guide over the class masses (`_built_classes`, from
  `oracle._class_law`), one for an offset among the class's beta_n(D)
  equal-mass rankings in one table of all n! rankings grouped by class
  (`_class_tables`; it depends on n alone, 0.95 MB at n = 8).  Each
  class is dealt within 2^-53 of its mass and each ranking within 2^-52
  of its own, so the dealt law is within total variation n! * 2^-53 of
  the exact one, under 2^-37 at 8 labels.  The law costs
  about 2^(n-1) * cells * n^3 big-integer operations once per source and
  n, so a source whose work exceeds `_CLASS_WORK_CAP` keeps the key route.
* Keys.  Every other source ranks one exact integer key per draw
  (`_ordering_keys`): its cell's position (its rank without a diffuse
  cell, int32 where the key fits; else its uniform's 53 bits in a diffuse
  cell and its lower grid edge at an atom, int64) and the label below it, so
  the keys of a row are pairwise distinct.  `_rank_keys` ranks them: it
  sorts each row's keys and reads the labels off the low bits.  A
  mixture draws one component per row and looks the row up in that
  component's cells (`sample_conjugate_batch`).  It draws each block's
  components before its uniforms, so beyond one block the rows differ
  from those of a whole-batch component draw, with the same law.

Every guide, of cells, words or classes, is built on the integer edges
ceil(F * 2^53) of exact cumulative masses F (`measure._grid_edges`).

Histograms of up to `permutations._CODE_WIDTH` labels count each row by
its index in S_n (`permutations.count_perms`), read off the word or class
table or the keys' Lehmer code.  The blocks draw their uniforms in row
order, so the rows of a measure, and of a row-table source, are those of
one whole-batch draw: `rng.random((size, 2))` for the class route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import IncomparableSamples, WindowTooSmall
from .measure import (
    _LOOKUP_BLOCK,
    LEFT,
    ConjugateBatch,
    ConjugateSample,
    OrderingSource,
    _batch_tables,
    _BatchTables,
    _grid_edges,
    _Guide,
    _over_common_denominator,
    _row_blocks,
    sample_conjugate_batch,
)
from .permutations import (
    _CODE_WIDTH,
    _INDEX_WIDTH,
    Perm,
    _lex_index,
    _lex_rows,
    perm_histogram,
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
# The `_key_table` cache holds this many tables, at most 16 x 256 KiB flat
# key tables, and the `_built_classes` cache this many class tables, each a
# guide over at most 128 classes, a few KiB, beside the arrays it shares
# with `_class_tables`; the word table cache (`_built_words`) holds
# fewer, larger ones: at most 8 x 464 KiB, 2^13 words of 13 labels, each
# with two int8 rows, one int64 S_n index, one float64 guide edge and two
# intp guide buckets.
_TABLE_CACHE = 16
_WORD_CACHE = 8
# A source without a word table deals rows of up to `_INDEX_WIDTH` labels
# from its descent-class law while the law's one-off build, 2^(n-1) * cells
# * n^3 units of work at 50-70 ns each (2-core shared host), stays within
# this cap: 25 ms for 8 cells at n = 8, about what dealing 10^5 such rows
# by keys takes.  An a-shuffle:48 law at n = 8 took 154 ms.
_CLASS_WORK_CAP = 1 << 19

__all__ = [
    "EmpiricalPosition",
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
    """Ordering draws; returns a (size, n) array of rankings.  Label values
    do not enter the draw, only their number.

    Each label sorts by its conjugate pair's cell, then inside the cell by
    its uniform (diffuse cell) or by label order, kept at a right atom and
    reversed at a left atom: the order `compare` defines, read exactly off
    one integer key per draw (`_ordering_keys`); diffuse draws that share a
    uniform keep label order.  A source with word tables draws one uniform
    per row for its cell word instead (`_word_edges`), and one with class
    tables two, for its descent class and a ranking in it (`_deal`).  For
    a mixture, one component is drawn per ordering.  Rows are dealt in
    cache-sized blocks straight into the output.
    """
    import numpy as np

    labels = check_labels(labels)
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    out = np.empty((size, len(labels)), dtype=np.int64)
    for _ in _deal(source, len(labels), size, rng, out=out):
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
    hi) exactly when ceil(lo * 2^53) <= k < ceil(hi * 2^53), the guide's
    integer edges, so the position is k in a diffuse cell and the cell's
    `cell_lo`, ceil(lo * 2^53), in an atom cell.  A u off the grid is
    truncated.
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
    label (an atom cell's position is its grid edge `cell_lo`); each cell's
    scale of u to k, 2^53 in a diffuse cell and 0 at an atom, None without
    a diffuse cell; the label's bits; and whether the keys are laid out
    flat per (cell, column), label included, which they are while the
    table holds no more entries than one block of draws (`_LOOKUP_BLOCK`).
    Otherwise they are per cell, no larger than the source's own
    `_batch_tables`."""
    import numpy as np

    bits = _LABEL_BITS if n <= 1 << _LABEL_BITS else 0
    left = np.array([c.atom_side == LEFT for c in tables.cells], dtype=np.int64)
    if tables.cell_diffuse.any():
        high = tables.cell_lo * (tables.cell_diffuse == 0)
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
class _RowTable:
    """The rows a source deals by table lookup, and the guide that finds a
    row's entry from its first uniform.  A word table lists a purely
    atomic source's row per cell word, by word code (a word's cells read
    as base-C digits for C cells), its guide over the word law
    (`_word_edges`).  A class table lists all n! rankings grouped by the
    descent class D of their rank-order list (their row inverse), classes
    in mask order and rankings in lexicographic order within a class, its
    guide over the class law; only a class table has `start` and `size`."""

    guide: Optional[_Guide]  # None in the source-free `_class_tables`
    ranks: np.ndarray  # (rows, n) int8: the rankings
    inverse: np.ndarray  # (rows, n) int8: their row inverses
    index: np.ndarray  # (rows,) int64: their indices in S_n
    start: Optional[np.ndarray] = None  # (2^(n-1),) int64: each class's first row
    size: Optional[np.ndarray] = None  # (2^(n-1),) uint64: beta_n(D), each class's rankings

    def find(self, u: np.ndarray) -> np.ndarray:
        """The rows of a (rows, draws) block of uniforms: u[:, 0] finds the
        word or class, and in a class u[:, 1] = k * 2^-53 the row at offset
        floor(k * beta_n(D) / 2^53), exact in uint64 as beta_n(D) < 2^11
        up to 8 labels, and below beta_n(D) for every k < 2^53."""
        import numpy as np

        at = self.guide.lookup(u[:, 0])
        if self.start is None:
            return at
        k = (u[:, 1] * 2.0**53).astype(np.uint64)
        k *= np.take(self.size, at)
        k >>= 53
        row = k.view(np.int64)
        row += np.take(self.start, at)
        return row


@lru_cache(maxsize=_WORD_CACHE)
def _built_words(tables: _BatchTables, n: int) -> Optional[_RowTable]:
    """The word table of a source that `_deal` lets have one, or None when
    a word that no draw would deal (`_word_edges`) or a word guide that
    takes more than one step past a bucket's first piece leaves the law
    too skewed for it.  Its rows are `_rank_keys` of the words' keys, so
    they are the rows those keys deal."""
    import numpy as np

    edges = _word_edges(tables, n)
    if edges is None:
        return None
    guide = _Guide.build([edges])
    if guide.steps > 1:
        return None
    cells = len(tables.cells)
    # each code's base-C digits, most significant first, as C-contiguous rows
    words = np.indices((cells,) * n).reshape(n, -1).T.copy()
    keys = _ordering_keys(ConjugateBatch(np.zeros(words.shape), words, tables))
    return _RowTable(
        guide,
        _rank_keys(keys).astype(np.int8),
        _rank_keys(keys, inverse=True).astype(np.int8),
        _lex_index(keys),
    )


def _word_edges(tables: _BatchTables, n: int) -> Optional[np.ndarray]:
    """E_w = ceil(F_w * 2^53) for w = 0..C^n, as int64, F_w the exact mass
    of the words of n labels below code w; None when a word of positive
    mass owns no grid point (E_w = E_{w+1}).

    A word's mass is the product of its cells' masses, times the weight of
    the mixture component that holds all of them, and 0 when no component
    does: an integer numerator over one common denominator, in Python ints,
    so the edges (`measure._grid_edges`) are exact at any denominator.  A
    `Generator.random` draw u = k * 2^-53 finds word w through the guide
    over them exactly when E_w <= k < E_{w+1}, so each word is dealt
    within 2^-53 of its mass, and the dealt law is within total variation
    2^-41 of the exact one (at most 2^13 words).
    """
    import numpy as np

    masses, cell_den = _over_common_denominator(c.mass for c in tables.cells)
    weights, weight_den = _over_common_denominator(w for w, _ in tables.lists)
    total = weight_den * cell_den**n
    cells = len(masses)
    mass = np.zeros(cells**n, object)
    first = 0
    for weight, (_, count) in zip(weights, tables.lists):
        # this component's words, by iterated outer products of its cells
        digits = np.arange(first, first + count)
        nums = np.array(masses[first : first + count], object)
        codes, prods = np.zeros(1, np.intp), np.array([weight], object)
        for _ in range(n):
            codes = np.add.outer(codes * cells, digits).ravel()
            prods = np.multiply.outer(prods, nums).ravel()
        mass[codes] = prods
        first += count
    edges = _grid_edges(mass, total)
    if np.count_nonzero(np.diff(edges)) < np.count_nonzero(mass):
        return None
    return edges


@lru_cache(maxsize=_INDEX_WIDTH)
def _class_tables(n: int) -> _RowTable:
    """The class table of n labels without a guide, which depends on n
    alone: 0.95 MB at n = 8, built in about 11 ms.  The class sizes are
    `oracle._descent_class_sizes`.  The rankings are decoded one row block
    at a time, so the build's temporaries stay block-sized: n! x n int64
    ones grew the heap of a sampling process by 15 MB, which it kept."""
    import numpy as np

    from .oracle import _descent_class_sizes

    count = factorial(n)
    ranks = np.empty((count, n), dtype=np.int8)
    inverse = np.empty_like(ranks)
    desc = np.empty(count, dtype=np.int64)
    for start, stop in _row_blocks(count, n):
        block = _lex_rows(np.arange(start, stop), n)
        ranks[start:stop] = block
        # the row inverse holds label k + 1 at column rank_k - 1
        np.put_along_axis(inverse[start:stop], block - 1, np.arange(1, n + 1, dtype=np.int8), 1)
        desc[start:stop] = (inverse[start:stop, :-1] > inverse[start:stop, 1:]) @ (1 << np.arange(n - 1))
    # the keys are distinct, so every sort orders them alike
    order = np.argsort(desc * count + np.arange(count))
    sizes = _descent_class_sizes(n)
    return _RowTable(
        None,
        ranks[order],
        inverse[order],
        order.astype(np.int64),
        np.cumsum([0, *sizes[:-1]]),
        np.array(sizes, dtype=np.uint64),
    )


@lru_cache(maxsize=_TABLE_CACHE)
def _built_classes(source: OrderingSource, n: int) -> _RowTable:
    """`_class_tables(n)`, its arrays shared, with the guide over a
    source's exact law of the descent classes: class D's mass beta_n(D) *
    nums[D] / den from `oracle._class_law`, put on the 2^-53 grid by
    `measure._grid_edges`, so each class is dealt within 2^-53 of its
    mass.  A class of mass below 2^-53 may own no grid point, and is then
    never dealt."""
    from .oracle import _class_law

    table = _class_tables(n)
    nums, den = _class_law(source, n)
    masses = [size * num for size, num in zip(table.size.tolist(), nums)]
    return replace(table, guide=_Guide.build([_grid_edges(masses, den)]))


def _deal(
    source: OrderingSource,
    n: int,
    size: int,
    rng: np.random.Generator,
    form: str = "ranks",
    out: Optional[np.ndarray] = None,
):
    """The rows of `size` orderings of n labels, one row block at a time:
    yields (start, stop, rows) for each block of `_row_blocks`, sized by
    the uniforms a row draws, rows being `out[start:stop]` when `out` is
    given.  `form` names the rows, as the `_RowTable` field that holds
    them: "ranks", the rankings; "inverse", their row inverses; "index",
    their S_n indices, for n <= `_CODE_WIDTH`.

    Only here is a source's route chosen (see the module docstring).  A
    table deals the table's own int8 rows without `out`, and its blocks
    draw in row order, so its rows are those of one whole-batch
    `rng.random((size, draws))`.
    """
    import numpy as np

    tables = _batch_tables(source)
    # the source the tables were built for, which every later cache lookup
    # finds by identity, not by comparing an equal source gap by gap
    source, cells = tables.source, len(tables.cells)
    table = None
    # a one-cell source counts as two words, so n stays below 14 and a rank
    # fits int8
    if not tables.cell_diffuse.any() and max(cells, 2) ** n <= _WORD_LIMIT:
        table = _built_words(tables, n)
    if table is None and n <= _INDEX_WIDTH and (1 << (n - 1)) * cells * n**3 <= _CLASS_WORK_CAP:
        table = _built_classes(source, n)
    # a block holds about `_LOOKUP_BLOCK` uniforms: n per row for the keys,
    # one for a word, two for a class and its ranking
    draws = n if table is None else 1 if table.start is None else 2
    for start, stop in _row_blocks(size, draws):
        rows = None if out is None else out[start:stop]
        if table is None:
            keys = _ordering_keys(sample_conjugate_batch(source, (stop - start, n), rng))
            rows = _lex_index(keys) if form == "index" else _rank_keys(keys, rows, form == "inverse")
        else:
            # a row gather by `np.take` is several times faster than indexing
            dealt = np.take(getattr(table, form), table.find(rng.random((stop - start, draws))), axis=0)
            if rows is None:
                rows = dealt
            else:
                rows[...] = dealt
        yield start, stop, rows


def _rank_keys(
    keys: np.ndarray, out: Optional[np.ndarray] = None, inverse: bool = False
) -> np.ndarray:
    """1-based rank of each `_ordering_keys` key within its row, or with
    `inverse` the row inverse (each row's 1-based columns from its lowest
    key up), as a C-contiguous int64 array: `out` when given.

    Each row's keys are sorted, and the sorted keys' low bits name the
    columns, whose scatter gives the ranks; `np.lexsort` adds the label
    where it does not fit.
    """
    import numpy as np

    rows, n = keys.shape
    if out is None:
        out = np.empty((rows, n), dtype=np.int64)
    elif out.dtype != np.int64 or not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous int64, so its flat view is a view")
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
    # the ranks hold k + 1 at column cols_k of each row; the sum is an intp
    # array, which indexes without a cast, also for int32 keys.  One scatter
    # by its flat view, with the values tiled to its size, is faster at
    # wide rows than one that broadcasts a value row over it
    cols = cols + np.arange(0, rows * n, n)[:, None]
    out.reshape(-1)[cols.reshape(-1)] = np.tile(np.arange(1, n + 1), rows)
    return out


def ordering_counts(
    source: OrderingSource,
    labels: Sequence[int],
    size: int,
    rng: np.random.Generator,
) -> dict[Perm, int]:
    """Histogram of `size` sampled rankings, counted block by block from the
    rows `sample_ordering_batch` deals, with no whole-batch array: by their
    index in S_n up to `_CODE_WIDTH` labels, as rows beyond.  Label values
    do not enter the draw, only their number."""
    labels = check_labels(labels)
    n = len(labels)
    if size < 0:
        raise ValueError(f"size = {size} is negative")
    form = "index" if n <= _CODE_WIDTH else "ranks"
    return perm_histogram((keys for _, _, keys in _deal(source, n, size, rng, form)), n)


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
    """Two-sample test that order-isomorphic label sets order identically.
    Label values do not enter a draw, so it compares two independent draws
    of one law and fails only at rate alpha: a demonstration, not a check."""
    from .stats import chi_square_two_sample

    labels_a = check_labels(labels_a)
    labels_b = check_labels(labels_b)
    if len(labels_a) != len(labels_b):
        raise ValueError("label sets must have equal size")
    counts_a = ordering_counts(source, labels_a, samples, rng)
    counts_b = ordering_counts(source, labels_b, samples, rng)
    return chi_square_two_sample(counts_a, counts_b, alpha=alpha)
