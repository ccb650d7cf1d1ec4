import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aplab import discrepancy
from aplab.characters import CharacterTable, build_group
from aplab.cli import build_levels
from aplab.discrepancy import (
    RANDOM_SIGN_LEVEL,
    RANDOM_SPLIT_LEVEL,
    CharacterSplit,
    ConstructionData,
    LevelData,
    SignPattern,
    balance_values,
    _candidate_rng,
    _score_indicator_batch,
    _signs_from_bits,
    certify_constants,
    cross_bound_scale,
    cross_lower_matrix,
    cross_upper_matrix,
    middle_block,
    search_character_split,
    search_signs,
    sign_draw,
    sign_objective,
    split_bound_scale,
    split_discrepancy,
    split_draw,
    _SPLIT_STREAM,
)
from aplab.errors import (
    BadParameter,
    MissingLevelData,
    PartitionInvalid,
    StrategyUnavailable,
)
from oracles import (
    balance_oracle,
    cross_lower_oracle,
    cross_matrix_from_values,
    cross_upper_oracle,
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
    values = table.rows(range(k)).tolist()  # values[c][g] = chi_c(g), Python complex
    worst = 0.0
    for g in range(k):
        total = 2.0 * sum(values[c][g] for c in anchors)
        total -= sum(values[c][g] for c in carriers)
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


def test_level3_exhaustive_breaks_near_ties_by_smallest_anchors():
    """All C(24, 8) splits scored by the defining sums 2*sum_anchors - sum_carriers.

    384 splits share the optimum up to rounding; the search must return the
    lexicographically smallest of them, whatever their last bits.
    """
    table = CharacterTable(build_group(3))
    k, cnt = 24, 8
    values = table.rows(range(k))
    combos = itertools.combinations(range(k), cnt)
    scores = []
    for chunk in iter(lambda: list(itertools.islice(combos, 1 << 15)), []):
        weights = np.full((len(chunk), k), -1.0)
        np.put_along_axis(weights, np.array(chunk), 2.0, axis=1)
        scores.append(np.hypot(weights @ values.real, weights @ values.imag).max(axis=1))
    scores = np.concatenate(scores)
    near = np.nonzero(scores <= scores.min() * (1.0 + 1e-12))[0]
    assert len(near) == 384
    # combinations come in lexicographic order, so the first near-tie is the smallest
    smallest = next(itertools.islice(itertools.combinations(range(k), cnt), int(near[0]), None))
    best = search_character_split(table, strategy="exhaustive")
    assert best.anchors == smallest
    assert best.discrepancy == pytest.approx(scores.min(), rel=1e-12)


@pytest.mark.parametrize("k", [24, 1536, 12288])
def test_sorted_split_draws_do_not_depend_on_the_shuffle(k):
    # split_draw sorts its draw and skips numpy's final shuffle; numpy picks
    # the set first (Floyd's algorithm, or a tail shuffle above 10 000)
    for i in range(4):
        rng = _candidate_rng(7, _SPLIT_STREAM, i)
        shuffled = rng.choice(k, size=k // 3, replace=False, shuffle=True)
        assert np.array_equal(split_draw(7, i, k), np.sort(shuffled))


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
    with pytest.raises(PartitionInvalid):
        CharacterSplit(level=1, anchors=(0, 1), carriers=(1, 2, 3, 4), discrepancy=0.0)
    with pytest.raises(PartitionInvalid):
        CharacterSplit(level=1, anchors=(0,), carriers=(1, 2, 3, 4, 5), discrepancy=0.0)


def _replaced(values, i, *new):
    """``values`` with entry i replaced by ``new``, or dropped without one."""
    return values[:i] + new + values[i + 1 :]


@given(constructions(min_top=0, max_top=5), st.data())
def test_a_split_that_is_no_partition_cannot_be_made(case, data):
    top, construction = case
    split = construction.require(data.draw(st.integers(0, top))).split
    k = len(split.anchors) + len(split.carriers)
    mutation = data.draw(st.sampled_from(("repeat", "drop", "out of range", "true", "float")))
    # True == 1, so True can only stand in for the index 1
    on_anchors = 1 in split.anchors if mutation == "true" else data.draw(st.booleans())
    values = split.anchors if on_anchors else split.carriers
    i = values.index(1) if mutation == "true" else data.draw(st.integers(0, len(values) - 1))
    if mutation == "repeat":
        new = (data.draw(st.integers(0, k - 1).filter(lambda c: c != values[i])),)
    elif mutation == "out of range":
        new = (data.draw(st.sampled_from((-1, k))),)
    else:
        new = {"drop": (), "true": (True,), "float": (float(values[i]),)}[mutation]
    mutated = _replaced(values, i, *new)
    anchors, carriers = (mutated, split.carriers) if on_anchors else (split.anchors, mutated)
    with pytest.raises(PartitionInvalid):
        CharacterSplit(split.level, anchors, carriers, 0.0)


@given(constructions(min_top=0, max_top=5), st.data())
def test_a_sign_list_without_one_sign_per_anchor_cannot_be_made(case, data):
    top, construction = case
    signs = construction.require(data.draw(st.integers(0, top))).require_signs()
    i = data.draw(st.integers(0, len(signs.signs) - 1))
    mutation = data.draw(st.sampled_from(("extra", "missing", "zero", "two")))
    new = {"extra": (signs.signs[i],) * 2, "missing": (), "zero": (0,), "two": (2,)}[mutation]
    with pytest.raises(BadParameter):
        SignPattern(signs.level, _replaced(signs.signs, i, *new), 0.0)


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


def _assert_objective_matches_direct_blocks(n, data):
    fast = sign_objective(n, data, data.require(n).require_signs().signs)
    lower = np.abs(cross_lower_matrix(n, data)).max()
    upper_prev = np.abs(cross_upper_matrix(n - 1, data)).max()
    assert abs(fast - max(lower, upper_prev)) <= 1e-12


@given(constructions())
def test_fast_objective_matches_direct_blocks(case):
    _assert_objective_matches_direct_blocks(*case)


@settings(max_examples=10)
@given(constructions(min_top=7, max_top=8))
def test_chunked_objective_matches_direct_blocks(case):
    # k_below/2 + 1 = 97 or 193 rows of lower_n^T, so the kernel runs several
    # 32-row chunks and a 1-row tail
    _assert_objective_matches_direct_blocks(*case)


def _defining_sum_objective(n, data, eps):
    here, below = data.require(n), data.require(n - 1)
    anchors, carriers = here.split.anchors, below.split.carriers
    lower = cross_matrix_from_values(
        here.table.rows_at_inverse(anchors), below.table.rows(carriers), eps, -(2.0**-n)
    )
    upper_prev = cross_matrix_from_values(
        below.table.rows_at_inverse(carriers), here.table.rows(anchors), eps, 2.0**-n
    )
    return max(np.abs(lower).max(), np.abs(upper_prev).max())


# (max_level, seed, budget, sign_budget) of the log and power golden builds
@pytest.mark.parametrize("config", [(3, 7, 64, 16), (4, 3, 128, 16)], ids=["log", "power"])
def test_sign_search_breaks_near_ties_by_smallest_pattern(config):
    data = build_levels(*config)
    for n in (1, 2, 3):
        m = len(data.require(n).split.anchors)
        patterns = [_signs_from_bits(i, m) for i in range(1 << m)]
        scores = [_defining_sum_objective(n, data, eps) for eps in patterns]
        lo = min(scores)
        near = [eps for eps, s in zip(patterns, scores) if s <= lo * (1.0 + 1e-12)]
        # patterns come in lexicographic order, +1 before -1, so the first near-tie is the smallest
        assert data.require(n).require_signs().signs == near[0]


@given(constructions())
def test_lower_and_upper_share_their_maximum(case):
    # upper_{n-1}(h, g) = -conj(lower_n(g, h)), so the moduli are transposes
    n, data = case
    lower = np.abs(cross_lower_matrix(n, data))
    upper_prev = np.abs(cross_upper_matrix(n - 1, data))
    assert np.abs(lower - upper_prev.T).max() <= 1e-12


@given(constructions(max_top=5))
def test_lower_block_rows_mirror_by_conjugation(case):
    # eps is real and chi(-x) = conj(chi(x)), so row K - h of lower_n^T
    # (K = k_{n-1}) is row h conjugated and read at -g; sign_objective and
    # telescope_norms transform only rows h <= K//2.  At n = 1, K = 3 is odd
    # and only row 0 is its own mirror.  Chunks of 2 and 3 rows end the
    # passes at other rows.  The bound is 8 ulps of the row's largest
    # modulus: the roots of exponents e and K - e are conjugate only to
    # rounding, and the FFT rounds each entry against the size of its row
    # (the worst seen over tops 1..6 was 3.6 ulps)
    top, data = case
    bound = 8 * np.finfo(np.float64).eps
    for chunk, n in itertools.product((discrepancy._SIGN_CHUNK_ROWS, 2, 3), range(1, top + 1)):
        eps = np.asarray(data.require(n).require_signs().signs, dtype=np.float64)
        rows, k = data.require(n - 1).table.order, data.require(n).table.order
        with mock.patch.object(discrepancy, "_SIGN_CHUNK_ROWS", chunk):
            spectra = [s for _, s in discrepancy.lower_rows(n, data, eps, rows)]
        modulus = np.abs(np.concatenate(spectra))
        mirror = modulus[-np.arange(rows) % rows][:, -np.arange(k) % k]
        assert np.all(np.abs(modulus - mirror) <= bound * modulus.max(axis=1, keepdims=True))


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
                anchor = here.table.rows([here.split.anchors[j]])[0]
                carrier = below.table.rows([below.split.carriers[j]])[0]
                total += anchor[(6 - g) % 6] * carrier[h]
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


def _assert_relative(fast, oracle):
    fast, oracle = np.asarray(fast), np.asarray(oracle)
    assert fast.shape == oracle.shape
    assert np.abs(fast - oracle).max() <= 1e-12 * np.abs(oracle).max()


@given(constructions(max_top=6))
def test_fft_blocks_and_balance_match_the_defining_sums(case):
    top, data = case
    for n in range(top + 1):
        item = data.require(n)
        fast = balance_values(item.table, item.split)
        _assert_relative(fast, balance_oracle(item.table, item.split))
        if n >= 1:
            _assert_relative(cross_lower_matrix(n, data), cross_lower_oracle(n, data))
        if n < top:
            _assert_relative(cross_upper_matrix(n, data), cross_upper_oracle(n, data))


@given(constructions(max_top=6))
def test_certify_rows_match_the_defining_sums(case):
    top, data = case
    # certification reads the cross maxima from the stored scores, as a search leaves them
    for n in range(1, top + 1):
        signs = data.require(n).require_signs().signs
        data.set_signs(SignPattern(n, signs, sign_objective(n, data, signs)))
    constants = certify_constants(range(top + 1), data)
    balance = {}
    for row in constants.split_rows:
        item = data.require(row.level)
        balance[row.level] = np.abs(balance_oracle(item.table, item.split)).max()
        _assert_relative(row.recomputed, balance[row.level])
    assert [r.level for r in constants.cross_rows] == list(range(1, top))
    for row in constants.cross_rows:
        n = row.level
        lower = np.abs(cross_lower_oracle(n, data)).max()
        upper = np.abs(cross_upper_oracle(n, data)).max()
        middle = 2.0 ** (-n - 1) * balance[n]
        _assert_relative(row.max_lower, lower)
        _assert_relative(row.max_upper, upper)
        _assert_relative(row.max_middle, middle)
        _assert_relative(row.overall, max(lower, middle, upper))
        # the balance route against the split search's indicator-FFT route
        assert row.middle_identity_residual <= 1e-12 * middle


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


# ---------------------------------------------------------------- stop rule


@pytest.mark.parametrize("top", [6, 7])
@pytest.mark.parametrize("seed", range(1, 13))
def test_random_levels_keep_the_first_draw_that_keeps_the_running_constants(top, seed):
    """Each random-restart level holds the first draw that raises neither the
    largest split ratio nor the largest cross-row entry fixed before it, so
    the certified constants are those of levels <= 3."""
    budget, sign_budget = 64, 16
    data = build_levels(top, seed, budget, sign_budget)

    def split_ratio(n, anchors):
        table = data.require(n).table
        return split_discrepancy(_split(n, anchors, table.order), table) / split_bound_scale(n)

    split = {n: split_ratio(n, data.require(n).split.anchors) for n in range(top + 1)}
    middle, lower, upper = {}, {}, {}  # cross-row entries as ratios, by row
    for n in range(1, top + 1):
        objective = data.require(n).require_signs().objective
        middle[n] = 2.0 ** (-n - 1) * data.require(n).split.discrepancy / cross_bound_scale(n)
        lower[n] = objective / cross_bound_scale(n)
        upper[n - 1] = objective / cross_bound_scale(n - 1)
    upper.pop(0)  # row 0 does not exist

    def below(n):  # cross entries fixed before the split at n
        return (
            [middle[m] for m in range(1, n)] + [lower[m] for m in range(1, n)]
            + [upper[m] for m in range(1, n - 1)]
        )

    def within(value, limit):
        return value <= limit * (1.0 + 1e-12)

    for n in range(RANDOM_SPLIT_LEVEL, top + 1):
        item, k = data.require(n), data.require(n).table.order
        c_split, c_cross = max(split[m] for m in range(n)), max(below(n))
        assert 1 <= item.split.draws < budget
        draws = [tuple(split_draw(seed, i, k).tolist()) for i in range(item.split.draws)]
        keeps = [
            within(r, c_split) and within(r / 2.0, c_cross)
            for r in (split_ratio(n, anchors) for anchors in draws)
        ]
        assert keeps == [False] * (len(draws) - 1) + [True]
        assert item.split.anchors == draws[-1]
        assert within(middle[n], c_cross)
    for n in range(RANDOM_SIGN_LEVEL, top + 1):
        item, m = data.require(n), len(data.require(n).split.anchors)
        c_cross = max(below(n) + [middle[n]])
        assert 1 <= item.require_signs().draws < sign_budget
        draws = [sign_draw(seed, i, m) for i in range(item.require_signs().draws)]
        keeps = [within(sign_objective(n, data, eps) / cross_bound_scale(n), c_cross) for eps in draws]
        assert keeps == [False] * (len(draws) - 1) + [True]
        assert item.require_signs().signs == draws[-1]
        assert within(lower[n], c_cross) and within(upper[n - 1], c_cross)
    full = certify_constants(range(top + 1), data)
    low = certify_constants(range(RANDOM_SIGN_LEVEL), data)
    assert (full.split_constant, full.cross_constant) == (low.split_constant, low.cross_constant)


def test_split_search_does_not_depend_on_the_batch_size(monkeypatch):
    table = CharacterTable(build_group(5))
    unreachable = dict(strategy="random-restart", budget=40, seed=3)
    reachable = dict(unreachable, target=2.4 * split_bound_scale(5))
    default = [search_character_split(table, **kw) for kw in (unreachable, reachable)]
    monkeypatch.setattr(discrepancy, "_SPLIT_CHUNK_ENTRIES", 3 * table.order)
    small = [search_character_split(table, **kw) for kw in (unreachable, reachable)]
    assert small == default
    assert default[0].draws == 40 and 1 <= default[1].draws < 40


def test_searches_stop_at_the_first_draw_meeting_the_target(small_data):
    table = CharacterTable(build_group(4))
    split = search_character_split(table, "random-restart", 30, 5, target=math.inf)
    assert split.anchors == tuple(split_draw(5, 0, 48).tolist()) and split.draws == 1

    n, budget = 4, 24
    patterns = [sign_draw(9, i, 16) for i in range(budget)]
    scores = [sign_objective(n, small_data, eps) for eps in patterns]
    # at the cap: the earliest draw within 1e-12 of the best
    capped = search_signs(n, small_data, "random-restart", budget, 9)
    first = next(i for i, sc in enumerate(scores) if sc <= min(scores) * (1.0 + 1e-12))
    assert (capped.signs, capped.draws) == (patterns[first], budget)
    # with a target: the first draw meeting it, and the draws it took
    hit = next(i for i, sc in enumerate(scores) if sc <= np.median(scores))
    stopped = search_signs(n, small_data, "random-restart", budget, 9, target=float(np.median(scores)))
    assert (stopped.signs, stopped.objective, stopped.draws) == (patterns[hit], scores[hit], hit + 1)
