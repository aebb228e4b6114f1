"""Independent reference laws for the benchmark's output checks.

Nothing here imports the library.  A measure is given only by its gap list
``[(lo, hi, side), ...]`` of exact rationals, side "right" or "left"; a
mixture by ``[(weight, gaps), ...]``.  A ranking ``pi`` is a tuple with
``pi[i]`` the rank (1 = lowest) of label ``i + 1``, so ``pi^-1`` lists the
labels in rank order.

Routes:

* ``a_shuffle_law``: the closed form C(a + n - 1 - des(pi^-1), n) / a^n of
  the a-shuffle and, with ascents in place of descents, its left-atom mirror.
* ``block_cut_law``: any quasi-uniform measure.  Cells are ordered by their
  pair (x, y), a diffuse segment sitting at x = y = its midpoint.  pi^-1 is cut
  into consecutive blocks, one per cell, possibly empty.  A right-atom block
  must increase and a left-atom block must decrease, each weighing mass^len;
  a diffuse block weighs mass^len / len!.
* ``eulerian`` and ``bayer_diaconis_tv``: the total-variation distance of an
  a-shuffle repeated h times, from Eulerian numbers (Bayer and Diaconis,
  *Trailing the dovetail shuffle to its lair*, 1992).

Run ``python3 bench/reference.py`` to check the routes against each other.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

ONE = Fraction(1)

# Bayer-Diaconis 52-card table, h = 1..10 riffles, rounded to three places.
BD_52_TABLE = (1.000, 1.000, 1.000, 1.000, 0.924, 0.614, 0.334, 0.167, 0.085, 0.043)


def gaps_of(spec):
    """Normalise a gap list to exact rationals."""
    return tuple((Fraction(lo), Fraction(hi), side) for lo, hi, side in spec)


def a_shuffle_gaps(a: int, side: str = "right"):
    return tuple((Fraction(i, a), Fraction(i + 1, a), side) for i in range(a))


def conjugate_gaps(gaps):
    flip = {"right": "left", "left": "right"}
    return tuple((lo, hi, flip[side]) for lo, hi, side in gaps)


def cells_of(gaps):
    """Cells as (kind, mass) in comparator order: kind 'R', 'L' or 'D'."""
    gaps = sorted(gaps_of(gaps))
    keyed = []
    cursor = Fraction(0)
    for lo, hi, side in gaps:
        if lo > cursor:
            mid = (cursor + lo) / 2
            keyed.append(((mid, mid), "D", lo - cursor))
        x, y = (hi, lo) if side == "right" else (lo, hi)
        keyed.append(((x, y), "R" if side == "right" else "L", hi - lo))
        cursor = max(cursor, hi)
    if cursor < 1:
        mid = (cursor + 1) / 2
        keyed.append(((mid, mid), "D", 1 - cursor))
    keyed.sort(key=lambda t: t[0])
    cells = tuple((kind, mass) for _, kind, mass in keyed)
    assert sum(m for _, m in cells) == 1
    return cells


# -- permutations -------------------------------------------------------------


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def descents(word) -> tuple[bool, ...]:
    """descents(word)[r] is True when word[r] > word[r + 1]."""
    return tuple(a > b for a, b in zip(word, word[1:]))


@lru_cache(maxsize=None)
def perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(1, n + 1)))


# -- closed form and block cut -------------------------------------------------


def a_shuffle_prob(a: int, n: int, pi, mirror: bool = False) -> Fraction:
    """Closed form of the a-shuffle law; mirror=True for all-left atoms."""
    des = sum(descents(inverse(pi)))
    d = n - 1 - des if mirror else des
    return Fraction(comb(a + n - 1 - d, n), a**n)


def a_shuffle_law(a: int, n: int, mirror: bool = False) -> dict:
    law = {p: a_shuffle_prob(a, n, p, mirror) for p in perms(n)}
    return {p: m for p, m in law.items() if m}


def block_cut_weight(cells, desc) -> Fraction:
    """Sum over cuts of the word with descent pattern `desc` into cell blocks."""
    n = len(desc) + 1
    f = [ONE] + [Fraction(0)] * n
    for kind, mass in cells:
        g = list(f)  # empty block: weight one
        for i in range(n):
            if not f[i]:
                continue
            # block covers word positions i .. j-1 (0-based), length j - i
            for j in range(i + 1, n + 1):
                inner = desc[i : j - 1]
                if kind == "R" and any(inner):
                    break
                if kind == "L" and not all(inner):
                    break
                length = j - i
                w = mass**length
                if kind == "D":
                    w /= factorial(length)
                g[j] += f[i] * w
        f = g
    return f[n]


def block_cut_law(gaps, n: int) -> dict:
    """Law of the ranking of n labels; memoised by the descent set of pi^-1."""
    if is_mixture(gaps):
        return mixture_law(gaps, n)
    cells = cells_of(gaps)
    by_desc: dict = {}
    law = {}
    for p in perms(n):
        desc = descents(inverse(p))
        if desc not in by_desc:
            by_desc[desc] = block_cut_weight(cells, desc)
        if by_desc[desc]:
            law[p] = by_desc[desc]
    return law


def mixture_law(parts, n: int) -> dict:
    """Law of a mixture [(weight, gaps)]: one component per ranking."""
    out: dict = {}
    for weight, gaps in parts:
        for p, m in block_cut_law(gaps, n).items():
            out[p] = out.get(p, Fraction(0)) + Fraction(weight) * m
    return {p: m for p, m in out.items() if m}


def descent_class_law(source, n: int) -> dict:
    """{descent pattern of pi^-1: P(pi)} for gaps or a mixture [(w, gaps)]."""
    parts = source if is_mixture(source) else ((ONE, source),)
    out = {}
    for desc in itertools.product((False, True), repeat=n - 1):
        out[desc] = sum(
            Fraction(w) * block_cut_weight(cells_of(g), desc) for w, g in parts
        )
    return out


def is_mixture(source) -> bool:
    return len(source) > 0 and len(source[0]) == 2


def inverse_law(law: dict) -> dict:
    return {inverse(p): m for p, m in law.items()}


def uniform_law(n: int) -> dict:
    mass = Fraction(1, factorial(n))
    return {p: mass for p in perms(n)}


def tv_to_uniform(law: dict, n: int) -> Fraction:
    u = Fraction(1, factorial(n))
    seen = sum(abs(m - u) for m in law.values())
    return (seen + (factorial(n) - len(law)) * u) / 2


# -- Eulerian numbers and the Bayer-Diaconis sum -------------------------------


@lru_cache(maxsize=None)
def eulerian(n: int) -> tuple[int, ...]:
    """A(n, d) for d = 0..n-1: permutations of n with d descents."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (d + 1) * (row[d] if d < len(row) else 0)
            + (m - d) * (row[d - 1] if d >= 1 else 0)
            for d in range(m)
        ]
    return tuple(row)


def des_law(a: int, n: int) -> list[Fraction]:
    """P(des(pi^-1) = d) for one a-shuffle, d = 0..n-1."""
    return [
        e * Fraction(comb(a + n - 1 - d, n), a**n) for d, e in enumerate(eulerian(n))
    ]


def bayer_diaconis_tv(a: int, n: int, h: int) -> Fraction:
    """TV to uniform after h a-shuffles from the identity (exact)."""
    ah = a**h
    u = Fraction(1, factorial(n))
    acc = Fraction(0)
    for d, e in enumerate(eulerian(n)):
        acc += e * abs(Fraction(comb(ah + n - 1 - d, n), ah**n) - u)
    return acc / 2


# -- self-check ---------------------------------------------------------------


def self_check() -> list[str]:
    """Check the routes against each other; return the failures."""
    bad = []
    for n in range(1, 7):
        for a in (1, 2, 3, 4):
            for mirror in (False, True):
                gaps = a_shuffle_gaps(a, "left" if mirror else "right")
                closed = a_shuffle_law(a, n, mirror)
                if block_cut_law(gaps, n) != closed:
                    bad.append(f"closed form != block cut: a={a} n={n} mirror={mirror}")
        for gaps in (MIXED, LEBESGUE, GSR_CONJUGATE):
            if sum(block_cut_law(gaps, n).values()) != 1:
                bad.append(f"block-cut law of {gaps} does not sum to 1 at n={n}")
        if sum(mixture_law(MIXTURE, n).values()) != 1:
            bad.append(f"mixture law does not sum to 1 at n={n}")
        if block_cut_law(LEBESGUE, n) != uniform_law(n):
            bad.append(f"lebesgue law is not uniform at n={n}")
        if sum(eulerian(n)) != factorial(n):
            bad.append(f"Eulerian numbers of {n} do not sum to {n}!")
    table = tuple(round(float(bayer_diaconis_tv(2, 52, h)), 3) for h in range(1, 11))
    if table != BD_52_TABLE:
        bad.append(f"52-card table {table} != {BD_52_TABLE}")
    if sum(des_law(50, 52)) != 1:
        bad.append("52-card descent law does not sum to 1")
    return bad


# The measures the workloads use, as gap lists.
GSR = a_shuffle_gaps(2)
GSR_CONJUGATE = conjugate_gaps(GSR)
A3 = a_shuffle_gaps(3)
MIXED = gaps_of(
    [(Fraction(1, 4), Fraction(1, 2), "right"), (Fraction(3, 4), Fraction(1), "left")]
)
LEBESGUE = ()
MIXTURE = ((Fraction(1, 3), A3), (Fraction(2, 3), MIXED))


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print("FAIL", line)
    print("reference self-check:", "ok" if not failures else f"{len(failures)} failures")
    sys.exit(1 if failures else 0)
