"""Small helpers for permutations in one-line notation.

A permutation of size n is a tuple p of length n with p[i] = image of i+1,
so values are a rearrangement of 1..n.  When a permutation records an
ordering, p[i] is the rank (1 = lowest) of the i-th label.

The array helpers rank rows of keys (`_row_ranks`, `_counted_ranks`) and
count permutations (`count_perms`, the one counter of every histogram on
S_n).  Up to `_CODE_WIDTH` = 20 cards a permutation is keyed by its
lexicographic index in S_n, its Lehmer code read in the factorial base
(`_lex_index`, decoded by `_lex_rows`), which fits int64 since 20! < 2^63;
wider rows are merged as rows by `np.lexsort`.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import TYPE_CHECKING, Iterable, Sequence, Tuple

# the array functions import numpy when they run, so that the exact routes
# load without it
if TYPE_CHECKING:
    import numpy as np

Perm = Tuple[int, ...]

# `count_perms` lets at least this many counted keys wait before a fold, so
# that permutations of a small support are not merged block by block.
_FOLD_AT = 1 << 14

# `_row_ranks` counts comparisons in rows up to this width, below the int8
# bound 128 of `_counted_ranks`, and argsorts wider ones stably: per card
# on one block of 2^14 floats (2-core shared host, numpy 2.4), counting
# took 24.3 ns at width 44, the sort 27.0, and two runs crossed at 45-51.
_COUNT_WIDTH = 44

# `count_perms` counts permutations of up to this many cards in n! dense
# bins, 40,320 at n = 8, and sorts the keys of wider ones.
_INDEX_WIDTH = 8

# The S_n index of a permutation of up to this many cards fits int64:
# 20! < 2^63 < 21!.
_CODE_WIDTH = 20


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(outer: Perm, inner: Perm) -> Perm:
    """Return outer after inner: (outer . inner)(i) = outer(inner(i))."""
    if len(outer) != len(inner):
        raise ValueError("size mismatch in composition")
    return tuple(outer[inner[i] - 1] for i in range(len(inner)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def all_permutations(n: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def perm_to_str(p: Iterable[int]) -> str:
    vals = list(p)
    if all(v <= 9 for v in vals):
        return "".join(str(v) for v in vals)
    return ",".join(str(v) for v in vals)


def perm_from_str(text: str) -> Perm:
    text = text.strip()
    if "," in text:
        p = tuple(int(tok) for tok in text.split(","))
    else:
        p = tuple(int(ch) for ch in text)
    if not is_permutation(p):
        raise ValueError(f"not a permutation: {text!r}")
    return p


def _row_ranks(keys: np.ndarray) -> np.ndarray:
    """1-based rank of each entry of a 2-D array within its row, ties broken
    by column order as a stable argsort breaks them, as a C-contiguous int64
    array: the ranks of `kernels._rank_pairs`' float pairs, which may tie.

    Rows up to `_COUNT_WIDTH` wide count their comparisons
    (`_counted_ranks`); wider rows are argsorted stably, and their ranks
    scattered from the order.
    """
    import numpy as np

    rows, n = keys.shape
    out = np.empty((rows, n), dtype=np.int64)
    if n <= _COUNT_WIDTH:
        out[...] = _counted_ranks(keys).T
        return out
    order = np.argsort(keys, axis=1, kind="stable")
    # the ranks hold k + 1 at column order_k of each row: one flat scatter,
    # by the flat view of the intp order, of the values tiled to its size
    order += np.arange(0, rows * n, n)[:, None]
    out.reshape(-1)[order.reshape(-1)] = np.tile(np.arange(1, n + 1), rows)
    return out


def _counted_ranks(keys: np.ndarray) -> np.ndarray:
    """1-based ranks of the (rows, n) keys as an (n, rows) int8 array, from
    the n(n - 1)/2 comparisons of each row's columns (`_below`).

    Column j starts at rank j + 1, as if every earlier column sat below it;
    for each pair i < j whose key_j < key_i, column i moves up one and
    column j down one.  Equal keys keep column order.
    """
    import numpy as np

    rows, n = keys.shape
    ranks = np.empty((n, rows), dtype=np.int8)
    ranks[...] = np.arange(1, n + 1, dtype=np.int8)[:, None]
    for i, moves in _below(keys):
        ranks[i] += moves.sum(axis=0, dtype=np.int8)
        ranks[i + 1 :] -= moves
    return ranks


def _lex_index(keys: np.ndarray) -> np.ndarray:
    """Lexicographic index in S_n of the ranking of each row of the (rows, n)
    keys, as int64: the Lehmer code L_i = #{j > i : key_j < key_i} read in
    the factorial base, sum of L_i * (n - 1 - i)!, by Horner's rule over
    the comparisons of `_counted_ranks`.  A ranking row is its own key row.
    """
    import numpy as np

    rows, n = keys.shape
    index = np.zeros(rows, dtype=np.int64)
    for i, moves in _below(keys):
        index *= n - i
        index += moves.sum(axis=0, dtype=np.int8)
    return index


def _below(keys: np.ndarray):
    """For each column i < n - 1 of the (rows, n) keys, yield (i, moves):
    an (n - 1 - i, rows) int8 view, 1 where a later column's key is below
    column i's.  The keys are compared on a transposed copy, column i
    against all later columns at once, so every operation runs over
    contiguous rows of the block; each view is overwritten by the next."""
    import numpy as np

    rows, n = keys.shape
    kt = keys.T.copy()
    below = np.empty((max(n - 1, 0), rows), dtype=np.bool_)
    moves = below.view(np.int8)
    for i in range(n - 1):
        np.less(kt[i + 1 :], kt[i], out=below[i:])
        yield i, moves[i:]


def _lex_rows(index: np.ndarray, n: int) -> np.ndarray:
    """The rows of S_n at the lexicographic indices: `_lex_index` undone.

    The factorial digits come off least significant first, L_{n-1} first;
    each step puts L_i + 1 in front of the suffix's ranks and moves up the
    suffix entries at or above it, in int8 columns held as contiguous rows.
    """
    import numpy as np

    cols = np.empty((n, len(index)), dtype=np.int8)
    for i in range(n - 1, -1, -1):
        index, digit = np.divmod(index, n - i)
        cols[i] = digit + 1
        cols[i + 1 :] += cols[i + 1 :] >= cols[i]
    return cols.T.astype(np.int64, order="C")


def count_perms(blocks: Iterable[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct permutations of n cards counted over blocks, in
    lexicographic order: their keys and counts.  A key is the S_n index
    (`_lex_index`) up to `_CODE_WIDTH` cards, where it fits int64, and the
    row itself beyond; `perm_rows` decodes the keys.

    A block is 2-D rows of width n or, up to `_CODE_WIDTH` cards, 1-D S_n
    indices.  Up to `_INDEX_WIDTH` cards the indices are counted in n!
    dense bins.  Beyond, each block's distinct keys wait until they
    outnumber both the running ones and `_FOLD_AT`; then all are merged
    into one running part (`_distinct`).  So memory stays bounded by the
    number of distinct permutations, however many blocks come.
    """
    import numpy as np

    coded, dense = n <= _CODE_WIDTH, n <= _INDEX_WIDTH
    bins = np.zeros(factorial(n) if dense else 0, dtype=np.int64)
    parts: list = []  # (keys, counts), the running part first
    held = waiting = 0

    def merged():
        return parts[0] if len(parts) == 1 else _distinct(*map(np.concatenate, zip(*parts)))

    for keys in blocks:
        keys = np.asarray(keys)
        if keys.ndim == 2 and keys.shape[1] == n:
            if coded:
                # the entries of rows this narrow fit int8, which compares fastest
                keys = _lex_index(keys.astype(np.int8, copy=False))
        elif keys.ndim != 1 or not coded:
            raise ValueError(f"blocks of {n} cards are rows of width {n} or S_n indices: {keys.shape}")
        if dense:
            bins += np.bincount(keys, minlength=len(bins))
        elif len(keys):
            ones = np.ones(len(keys), dtype=np.int64)
            parts.append(np.unique(keys, return_counts=True) if coded else _distinct(keys, ones))
            waiting += len(parts[-1][0])
            if waiting > max(held, _FOLD_AT):
                parts = [merged()]
                held, waiting = len(parts[0][0]), 0
    if dense:
        keys = np.flatnonzero(bins)
        return keys, bins[keys]
    if not parts:
        return np.zeros((0,) if coded else (0, n), dtype=np.int64), np.zeros(0, dtype=np.int64)
    return merged()


def _distinct(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys, S_n indices or rows, sorted into distinct keys, with the
    counts of equal keys summed: rows sort by one `np.lexsort`."""
    import numpy as np

    order = np.lexsort(keys.T[::-1]) if keys.ndim == 2 else np.argsort(keys)
    keys, counts = keys[order], counts[order]
    new = keys[1:] != keys[:-1]
    new = new.any(axis=1) if keys.ndim == 2 else new
    # the first key starts a run, when there is one
    first = np.flatnonzero(np.concatenate([[True], new]))[: len(keys)]
    return keys[first], np.add.reduceat(counts, first)


def perm_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The rows of n cards that `count_perms` keys name."""
    return _lex_rows(keys, n) if n <= _CODE_WIDTH else keys


def perm_histogram(blocks: Iterable[np.ndarray], n: int, inverse: bool = False) -> dict[Perm, int]:
    """`count_perms` of the blocks as a dict keyed by row tuples, in
    lexicographic order; with `inverse`, the histogram of the rows'
    inverses, each count moved to its row inverse and sorted again."""
    import numpy as np

    keys, counts = count_perms(blocks, n)
    rows = perm_rows(keys, n)
    if inverse:
        # column k of a row inverse holds the 1-based column of k + 1
        rows, counts = _distinct(np.argsort(rows, axis=1) + 1, counts)
    return dict(zip(map(tuple, rows.tolist()), counts.tolist()))
