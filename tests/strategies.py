"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from aplab.characters import CharacterTable, build_group
from aplab.discrepancy import CharacterSplit, ConstructionData, LevelData, SignPattern


@st.composite
def constructions(draw, min_top: int = 1, max_top: int = 4):
    """Levels 0..top, min_top <= top <= max_top, with random anchor subsets and signs.

    Nothing is searched, so the stored discrepancies and objectives are 0.
    Anchors and carriers keep the drawn order, so the pairing of level-n
    anchors with level-(n-1) carriers is random too.  Splits and signs come
    from one drawn seed, which keeps each example cheap to generate.
    """
    top = draw(st.integers(min_top, max_top))
    return top, random_construction(top, draw(st.integers(0, 2**32 - 1)))


def random_construction(top: int, seed: int) -> ConstructionData:
    """Levels 0..top with a seeded random split and sign pattern at each level."""
    rng = np.random.default_rng(seed)
    data = ConstructionData()
    for n in range(top + 1):
        table = CharacterTable(build_group(n))
        k = table.order
        order = tuple(int(c) for c in rng.permutation(k))
        split = CharacterSplit(n, order[: k // 3], order[k // 3 :], 0.0)
        signs = tuple(int(s) for s in rng.choice((1, -1), size=k // 3))
        data.put(LevelData(table=table, split=split, signs=SignPattern(n, signs, 0.0)))
    return data


@st.composite
def filled_rows(draw, top: int):
    """An operator's filled rows (rows, values) at truncation ``top``.

    Rank 0..6; rows may repeat (forced for the first two when drawn), and
    one may be forced onto the top level.  Values are complex Gaussians up
    to a drawn basis level and zero past it, so some levels stay empty.
    """
    d = (1 << (top + 1)) - 1
    rank = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, d, size=rank)
    if rank >= 2 and draw(st.booleans()):
        rows[1] = rows[0]
    if rank and draw(st.booleans()):
        rows[-1] = (1 << top) - 1 + rng.integers(0, 1 << top)
    values = rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))
    values[:, (1 << (draw(st.integers(0, top)) + 1)) - 1 :] = 0.0
    return rows, values
