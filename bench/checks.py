"""Output checks shared by the workloads: permutation rows, goodness of fit.

Each check returns None when the output passes and a one-line reason when
it does not.  Goodness-of-fit tests pool cells to an expected count of at
least five and accept a statistic up to df + 12 sqrt(2 df) + 40, which a
correct sampler exceeds with probability far below 1e-9 at any df.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, sqrt

import numpy as np

import reference as R

POOL_MIN = 5.0


def gof_limit(df: int) -> float:
    return df + 12.0 * sqrt(2.0 * df) + 40.0


def bad_rows(rows: np.ndarray, n: int):
    """Reason when some row is not a permutation of 1..n."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        return f"rows have shape {rows.shape}, want (*, {n})"
    ok = (np.sort(rows, axis=1) == np.arange(1, n + 1)).all(axis=1)
    if not ok.all():
        return f"{int((~ok).sum())} of {len(rows)} rows are not permutations of 1..{n}"
    return None


@lru_cache(maxsize=None)
def perm_table(n: int):
    """All permutations of n (lexicographic), their sorted codes, and the
    descent masks of each permutation and of its inverse."""
    table = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    weights = n ** np.arange(n, dtype=np.int64)
    codes = (table - 1) @ weights
    order = np.argsort(codes)
    table, codes = table[order], codes[order]
    bits = 1 << np.arange(n - 1, dtype=np.int64)
    inv = np.argsort(table, axis=1) + 1
    mask_inv = ((inv[:, :-1] > inv[:, 1:]) * bits).sum(axis=1)
    mask_self = ((table[:, :-1] > table[:, 1:]) * bits).sum(axis=1)
    return table, codes, weights, mask_self, mask_inv


def _class_vector(class_law: dict, n: int) -> np.ndarray:
    vec = np.zeros(1 << (n - 1))
    for desc, p in class_law.items():
        vec[sum(1 << r for r, d in enumerate(desc) if d)] = float(p)
    return vec


def law_vector(source, n: int, inverse: bool = False) -> np.ndarray:
    """Float law over perm_table(n) order; `source` is gaps or a mixture."""
    _, _, _, mask_self, mask_inv = perm_table(n)
    vec = _class_vector(R.descent_class_law(source, n), n)
    return vec[mask_self if inverse else mask_inv]


def index_of_rows(rows: np.ndarray, n: int) -> np.ndarray:
    _, codes, weights, _, _ = perm_table(n)
    c = (np.asarray(rows, dtype=np.int64) - 1) @ weights
    return np.searchsorted(codes, c)


def counts_from_rows(rows: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(index_of_rows(rows, n), minlength=factorial(n))


def counts_from_dict(counts: dict, n: int):
    """Dense count vector of a {perm tuple: count} histogram, or a reason."""
    keys = list(counts)
    if any(len(k) != n or sorted(k) != list(range(1, n + 1)) for k in keys):
        bad = sum(1 for k in keys if len(k) != n or sorted(k) != list(range(1, n + 1)))
        return None, f"{bad} of {len(keys)} histogram keys are not permutations of 1..{n}"
    out = np.zeros(factorial(n), dtype=np.int64)
    if keys:
        out[index_of_rows(np.array(keys), n)] = [counts[k] for k in keys]
    return out, None


def gof(counts: np.ndarray, probs: np.ndarray):
    """Pooled chi-square of observed counts against probabilities."""
    total = int(counts.sum())
    if total <= 0:
        return "no observations"
    outside = counts[probs <= 0].sum()
    if outside:
        return f"{int(outside)} observations fall outside the law's support"
    keep = probs > 0
    expected = probs[keep] * total
    observed = counts[keep].astype(np.float64)
    order = np.argsort(expected, kind="stable")
    expected, observed = expected[order], observed[order]
    # pool ascending cells in runs whose expected count reaches POOL_MIN
    group = np.floor(np.cumsum(expected) / POOL_MIN).astype(np.int64)
    group = np.minimum(group, max(group[-1] - 1, 0)) if group[-1] > 0 else group
    e = np.bincount(group, weights=expected)
    o = np.bincount(group, weights=observed)
    used = e > 0
    e, o = e[used], o[used]
    df = len(e) - 1
    if df < 1:
        return None
    stat = float(((o - e) ** 2 / e).sum())
    if stat > gof_limit(df):
        return f"chi-square {stat:.1f} over df {df} exceeds {gof_limit(df):.1f}"
    return None


def des_histogram(rows: np.ndarray, of_inverse: bool, chunk: int = 10_000) -> np.ndarray:
    """Histogram of des(row^-1) (or des(row)), in chunks to bound memory."""
    n = rows.shape[1]
    out = np.zeros(n, dtype=np.int64)
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]
        if of_inverse:
            part = np.argsort(part, axis=1)
        d = (part[:, :-1] > part[:, 1:]).sum(axis=1)
        out += np.bincount(d, minlength=n)
    return out


def tv_tolerance(a: int, n: int, h: int, trials: int) -> float:
    """Bound on |empirical TV - exact TV| after h a-shuffles over `trials` walks.

    E TV(empirical, true) <= 1/2 sum_pi sqrt(p(1-p)/T); one walk moves it by at
    most 1/T, so McDiarmid adds 4/sqrt(T) at probability exp(-32).
    """
    ah = a**h
    acc = 0.0
    for d, e in enumerate(R.eulerian(n)):
        p = comb(ah + n - 1 - d, n) / float(ah) ** n
        acc += e * sqrt(max(p * (1.0 - p), 0.0) / trials)
    return acc / 2.0 + 4.0 / sqrt(trials)


def walk_bound(states):
    """A gsr walk from the identity has des(state_h^-1) <= 2^h - 1 for h <= 5."""
    for h in range(1, 6):
        d = sum(R.descents(R.inverse(states[h])))
        if d > 2**h - 1:
            return f"des(state_{h}^-1) = {d} > {2**h - 1} after {h} riffles"
    return None


def curve_within_tolerance(curve, a: int, n: int, trials: int):
    """An empirical mixing curve of an a-shuffle stays within tv_tolerance of
    the Bayer-Diaconis curve at every step."""
    for h, v in enumerate(curve):
        want = float(R.bayer_diaconis_tv(a, n, h))
        tol = tv_tolerance(a, n, h, trials)
        if not abs(v - want) <= tol:
            return f"h={h}: empirical TV {v:.6f} vs exact {want:.6f} beyond {tol:.6f}"
    return None


def same_law(got: dict, want: dict):
    if got == want:
        return None
    keys = set(got) | set(want)
    diff = sum(1 for k in keys if got.get(k, Fraction(0)) != want.get(k, Fraction(0)))
    return f"{diff} of {len(keys)} probabilities differ from the reference"
