"""Shared fixtures and strategies for the test suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from quasishuffle.measure import (
    LEFT,
    RIGHT,
    GapInterval,
    QuasiUniformMeasure,
    a_shuffle,
    cell_decomposition,
    gsr,
    lebesgue,
    mixed_fixture,
)

SEED = 20260823


def make_rng(seed: int = SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng()


def eager_pairs(measure, batch) -> tuple[np.ndarray, np.ndarray]:
    """Float (x, y) of each draw of a conjugate batch, from its cell: x is
    the atom end and y the far end of an atom cell, both u in a diffuse one."""
    cells = cell_decomposition(measure).cells
    atom = np.array([c.kind == "atom" for c in cells])[batch.cell]
    x = np.array([float(c.x) if c.kind == "atom" else 0.0 for c in cells])
    y = np.array([float(c.y) if c.kind == "atom" else 0.0 for c in cells])
    return np.where(atom, x[batch.cell], batch.u), np.where(atom, y[batch.cell], batch.u)


def cell_sides(measure, cell: np.ndarray) -> np.ndarray:
    """+1 right atom, -1 left atom, 0 diffuse, per cell rank in `cell`."""
    cells = cell_decomposition(measure).cells
    side = [0 if c.kind == "diffuse" else 1 if c.atom_side == RIGHT else -1 for c in cells]
    return np.array(side)[cell]


def builtin_measures() -> dict:
    """The six measures every distributional check runs against."""
    return {
        "lebesgue": lebesgue(),
        "gsr": gsr(),
        "a-shuffle-3": a_shuffle(3),
        "reversal": QuasiUniformMeasure((GapInterval(Fraction(0), Fraction(1), LEFT),)),
        "gsr-conjugate": gsr().conjugate(),
        "mixed": mixed_fixture(),
    }


def atomic_measures() -> dict:
    return {k: m for k, m in builtin_measures().items() if m.is_purely_atomic}


def measure_params():
    items = sorted(builtin_measures().items())
    return pytest.mark.parametrize(
        "measure", [m for _, m in items], ids=[k for k, _ in items]
    )


def atomic_params():
    items = sorted(atomic_measures().items())
    return pytest.mark.parametrize(
        "measure", [m for _, m in items], ids=[k for k, _ in items]
    )


@st.composite
def measure_strategy(draw, max_gaps: int = 3, denominator: int = 12):
    """Random finite-gap measures with small rational endpoints.

    Consecutive gaps may share an endpoint but never overlap; degenerate
    pairs are dropped, so the result can have fewer gaps than requested.
    """
    k = draw(st.integers(min_value=0, max_value=max_gaps))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=denominator),
                min_size=2 * k,
                max_size=2 * k,
            )
        )
    )
    gaps = []
    for i in range(k):
        lo, hi = cuts[2 * i], cuts[2 * i + 1]
        if lo == hi:
            continue
        side = draw(st.sampled_from((LEFT, RIGHT)))
        gaps.append(
            GapInterval(Fraction(lo, denominator), Fraction(hi, denominator), side)
        )
    return QuasiUniformMeasure(tuple(gaps))
