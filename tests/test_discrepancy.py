import itertools
import math

import numpy as np
import pytest
from hypothesis import given

from aplab.characters import CharacterTable, build_group
from aplab.discrepancy import (
    CharacterSplit,
    ConstructionData,
    LevelData,
    SignPattern,
    balance_values,
    _score_indicator_batch,
    certify_constants,
    cross_lower_matrix,
    cross_matrix_from_values,
    cross_upper_matrix,
    middle_block,
    search_character_split,
    search_signs,
    sign_objective,
    split_discrepancy,
)
from aplab.errors import (
    BadParameter,
    MissingLevelData,
    PartitionInvalid,
    StrategyUnavailable,
)
from strategies import constructions

BEST_LEVEL1 = 3.0 * math.sqrt(3.0)  # exhaustive optimum over all C(6,2) splits
BEST_LEVEL2 = 6.0  # exhaustive optimum over all C(12,4) splits


def _split(level, anchors, k):
    carriers = tuple(c for c in range(k) if c not in anchors)
    return CharacterSplit(level=level, anchors=tuple(anchors), carriers=carriers, discrepancy=0.0)


def brute_force_discrepancy(table, anchors):
    """Independent oracle: defining double sum via plain Python complex math."""
    k = table.order
    carriers = [c for c in range(k) if c not in anchors]
    worst = 0.0
    for g in range(k):
        total = 2.0 * sum(table.value(c, g) for c in anchors)
        total -= sum(table.value(c, g) for c in carriers)
        worst = max(worst, abs(total))
    return worst


def test_level0_every_split_scores_three():
    table = CharacterTable(build_group(0))
    for a in range(3):
        split = _split(0, (a,), 3)
        assert split_discrepancy(split, table) == pytest.approx(3.0, abs=1e-12)


def test_level1_exhaustive_matches_brute_force():
    table = CharacterTable(build_group(1))
    best = search_character_split(table, strategy="exhaustive")
    oracle = min(
        brute_force_discrepancy(table, anchors)
        for anchors in itertools.combinations(range(6), 2)
    )
    assert best.discrepancy == pytest.approx(oracle, abs=1e-12)
    assert best.discrepancy == pytest.approx(BEST_LEVEL1, abs=1e-9)


def test_level2_exhaustive_value():
    table = CharacterTable(build_group(2))
    best = search_character_split(table, strategy="exhaustive")
    assert best.discrepancy == pytest.approx(BEST_LEVEL2, abs=1e-9)
    assert sorted(best.anchors + best.carriers) == list(range(12))


def test_random_restart_matches_exhaustive_small_levels():
    for n, budget in ((0, 8), (1, 64), (2, 3000)):
        table = CharacterTable(build_group(n))
        exhaustive = search_character_split(table, strategy="exhaustive")
        randomized = search_character_split(
            table, strategy="random-restart", budget=budget, seed=7
        )
        assert randomized.discrepancy == pytest.approx(exhaustive.discrepancy, abs=1e-9)


def test_search_determinism():
    table = CharacterTable(build_group(3))
    a = search_character_split(table, strategy="random-restart", budget=128, seed=11)
    b = search_character_split(table, strategy="random-restart", budget=128, seed=11)
    assert a == b


def test_exhaustive_cutoff():
    table = CharacterTable(build_group(5))
    with pytest.raises(StrategyUnavailable):
        search_character_split(table, strategy="exhaustive")


def test_unknown_strategy_rejected():
    table = CharacterTable(build_group(1))
    with pytest.raises(BadParameter):
        search_character_split(table, strategy="anneal")


def test_partition_validation():
    table = CharacterTable(build_group(1))
    bad = CharacterSplit(level=1, anchors=(0, 1), carriers=(1, 2, 3, 4), discrepancy=0.0)
    with pytest.raises(PartitionInvalid):
        split_discrepancy(bad, table)
    short = CharacterSplit(level=1, anchors=(0,), carriers=(1, 2, 3, 4, 5), discrepancy=0.0)
    with pytest.raises(PartitionInvalid):
        split_discrepancy(short, table)


def test_stored_discrepancy_matches_recompute(small_data):
    for n in small_data.levels():
        item = small_data.require(n)
        assert abs(item.split.discrepancy - split_discrepancy(item.split, item.table)) <= 1e-9


@given(constructions())
def test_fft_split_score_matches_defining_sum(case):
    n, data = case
    item = data.require(n)
    indicator = np.zeros((1, item.table.order))
    indicator[0, list(item.split.anchors)] = 1.0
    fast = _score_indicator_batch(indicator)[0]
    assert abs(fast - split_discrepancy(item.split, item.table)) <= 1e-12


def test_balance_vanishes_at_identity(small_data):
    for n in small_data.levels():
        item = small_data.require(n)
        assert abs(balance_values(item.table, item.split)[0]) < 1e-12


# ---------------------------------------------------------------- signs


def test_sign_search_level0_trivial(small_data):
    pattern = search_signs(0, small_data, strategy="exhaustive")
    assert pattern.signs == (1,)
    assert pattern.objective == 0.0


def test_sign_exhaustive_matches_random(small_data):
    for n in (1, 2, 3):
        exhaustive = search_signs(n, small_data, strategy="exhaustive")
        randomized = search_signs(n, small_data, strategy="random-restart", budget=2560, seed=11)
        assert randomized.objective == pytest.approx(exhaustive.objective, abs=1e-12)


def test_sign_objective_global_flip_invariant(small_data):
    pattern = small_data.require(3).require_signs().signs
    flipped = tuple(-s for s in pattern)
    assert sign_objective(3, small_data, pattern) == sign_objective(3, small_data, flipped)


def test_sign_exhaustive_cutoff(small_data):
    with pytest.raises(StrategyUnavailable):
        search_signs(5, small_data, strategy="exhaustive")


def test_sign_pattern_validation():
    with pytest.raises(BadParameter):
        SignPattern(level=1, signs=(1, 0), objective=0.0)


@given(constructions())
def test_fast_objective_matches_direct_blocks(case):
    n, data = case
    fast = sign_objective(n, data, data.require(n).require_signs().signs)
    lower = np.abs(cross_lower_matrix(n, data)).max()
    upper_prev = np.abs(cross_upper_matrix(n - 1, data)).max()
    assert abs(fast - max(lower, upper_prev)) <= 1e-12


@given(constructions())
def test_lower_and_upper_share_their_maximum(case):
    # upper_{n-1}(h, g) = -conj(lower_n(g, h)), so the moduli are transposes
    n, data = case
    lower = np.abs(cross_lower_matrix(n, data))
    upper_prev = np.abs(cross_upper_matrix(n - 1, data))
    assert np.abs(lower - upper_prev.T).max() <= 1e-12


def test_cross_block_manual_double_sum():
    # two levels, all signs +1, checked against a literal double loop
    data = ConstructionData()
    for n in (0, 1):
        table = CharacterTable(build_group(n))
        split = search_character_split(table, strategy="exhaustive")
        data.put(LevelData(table=table, split=split))
    data.set_signs(SignPattern(level=0, signs=(1,), objective=0.0))
    data.set_signs(SignPattern(level=1, signs=(1, 1), objective=0.0))

    lower = cross_lower_matrix(1, data)
    here, below = data.require(1), data.require(0)
    for g in range(6):
        for h in range(3):
            total = 0.0 + 0.0j
            for j in range(2):
                total += here.table.value(here.split.anchors[j], (6 - g) % 6) * below.table.value(
                    below.split.carriers[j], h
                )
            assert abs(lower[g, h] - (-0.5) * total) < 1e-12


def test_cross_matrix_sign_negation(small_data):
    here = small_data.require(2)
    below = small_data.require(1)
    left = here.table.rows_at_inverse(here.split.anchors)
    right = below.table.rows(below.split.carriers)
    eps = here.require_signs().signs
    plus = cross_matrix_from_values(left, right, eps, -0.25)
    minus = cross_matrix_from_values(left, right, tuple(-s for s in eps), -0.25)
    assert np.abs(plus + minus).max() == 0.0


def test_cross_matrix_zero_carriers(small_data):
    here = small_data.require(2)
    left = here.table.rows_at_inverse(here.split.anchors)
    zeros = np.zeros((len(here.split.anchors), 6), dtype=np.complex128)
    block = cross_matrix_from_values(left, zeros, here.require_signs().signs, -0.25)
    assert np.abs(block).max() == 0.0


@given(constructions())
def test_middle_block_identity(case):
    n, data = case
    item = data.require(n)
    observed = np.abs(middle_block(n, data)).max()
    expected = 2.0 ** (-n - 1) * split_discrepancy(item.split, item.table)
    assert abs(observed - expected) <= 1e-12


def test_cross_blocks_level0_has_no_lower(small_data):
    with pytest.raises(BadParameter):
        cross_lower_matrix(0, small_data)
    assert cross_upper_matrix(0, small_data).shape == (3, 6)


def test_cross_blocks_missing_level(small_data):
    top = small_data.max_level
    with pytest.raises(MissingLevelData):
        cross_upper_matrix(top, small_data)  # upper block needs the level above


# ---------------------------------------------------------------- certification


def test_certify_level0_constant(small_data):
    constants = certify_constants([0], small_data)
    assert constants.split_constant == pytest.approx(3.0, abs=1e-12)
    assert constants.cross_constant == 0.0
    assert constants.cross_rows == ()


def test_certify_empty_levels(small_data):
    with pytest.raises(BadParameter):
        certify_constants([], small_data)


def test_certify_missing_level(small_data):
    with pytest.raises(MissingLevelData):
        certify_constants([17], small_data)


def test_certify_small_levels(small_data):
    constants = certify_constants(range(0, 6), small_data)
    assert constants.split_constant >= 3.0
    assert constants.cross_constant > 0.0
    assert {r.level for r in constants.cross_rows} == {1, 2, 3, 4}
    for row in constants.cross_rows:
        assert row.middle_identity_residual <= 1e-9
        assert row.overall == max(row.max_lower, row.max_middle, row.max_upper)


def test_search_budget_validation():
    table = CharacterTable(build_group(1))
    with pytest.raises(BadParameter):
        search_character_split(table, strategy="random-restart", budget=0)
    with pytest.raises(BadParameter):
        search_character_split(table, strategy="random-restart", budget=4, seed=-1)


def test_level8_search_meets_generous_thresholds(full_bundle):
    # discrepancy within 6*(n+1)^{1/2} 2^{n/2} and cross maxima within
    # 6*(n+1)^{1/2} 2^{-n/2} at the deepest certified level
    data = full_bundle["data"]
    item = data.require(8)
    assert item.split.discrepancy <= 6.0 * math.sqrt(9.0) * 2.0**4  # 288
    assert item.require_signs().objective <= 6.0 * math.sqrt(9.0) * 2.0**-4  # 1.125
