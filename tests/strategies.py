"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from aplab.characters import CharacterTable, build_group
from aplab.discrepancy import CharacterSplit, ConstructionData, LevelData, SignPattern


@st.composite
def constructions(draw, max_top: int = 4):
    """Levels 0..top, 1 <= top <= max_top, with random anchor subsets and signs.

    Nothing is searched, so the stored discrepancies and objectives are 0.
    Anchors and carriers keep the drawn order, so the pairing of level-n
    anchors with level-(n-1) carriers is random too.  Splits and signs come
    from one drawn seed, which keeps each example cheap to generate.
    """
    top = draw(st.integers(1, max_top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = ConstructionData()
    for n in range(top + 1):
        table = CharacterTable(build_group(n))
        k = table.order
        order = tuple(int(c) for c in rng.permutation(k))
        split = CharacterSplit(n, order[: k // 3], order[k // 3 :], 0.0)
        signs = tuple(int(s) for s in rng.choice((1, -1), size=k // 3))
        data.put(LevelData(table=table, split=split, signs=SignPattern(n, signs, 0.0)))
    return top, data
