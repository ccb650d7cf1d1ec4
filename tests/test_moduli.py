import math
from pathlib import Path

import pytest

from aplab.cli import RunConfig
from aplab.errors import BadParameter
from aplab.mixed_norm import ExponentSchedule
from aplab.moduli import growth_envelope_check, split_sequence, witness_point
from oracles import (
    DegenerateBasis,
    DimensionTooLarge,
    MixedNormVector,
    distance_bound,
    numeric_distance_upper,
)


# ---------------------------------------------------------------- witness curve


def test_witness_power_examples(power_schedule):
    # clamp region: the gap after the head is already 1/6 < 1/log2(16)
    p16 = witness_point(power_schedule, 16)
    assert p16.head_level == 0
    assert p16.codimension == 3

    p2 = witness_point(power_schedule, 2)
    assert p2.head_level == 0

    p1024 = witness_point(power_schedule, 2**10)
    assert p1024.head_level == 99
    assert p1024.codimension == 3 * (2**100 - 1)


def test_witness_criterion_is_tight(power_schedule):
    point = witness_point(power_schedule, 2**10)
    n = point.head_level
    assert 0.0 < power_schedule.gap(n + 1) < point.threshold
    assert not power_schedule.gap(n) < point.threshold


def test_witness_codimension_identity(power_schedule, log_schedule):
    for schedule in (power_schedule, log_schedule):
        for m in (16, 100, 2**10, 2**20):
            point = witness_point(schedule, m)
            n = point.head_level
            assert point.codimension == 3 * (2 ** (n + 1) - 1)
            assert point.codimension == sum(3 * 2**j for j in range(n + 1))


def test_witness_monotone_in_dimension(log_schedule):
    heads = [witness_point(log_schedule, m).head_level for m in (16, 60, 64, 100, 2**10, 2**12)]
    assert heads == sorted(heads)


def test_witness_log_heads(log_schedule):
    # the clamp keeps the head at 0 until 1/log2(m) crosses 1/6
    assert witness_point(log_schedule, 63).head_level == 0
    assert witness_point(log_schedule, 64).head_level == 126
    assert witness_point(log_schedule, 2**10).head_level == 237


def test_witness_constants():
    config = RunConfig(out=Path("unused"), c1=1.5, c2=2.0)
    point = witness_point(config.schedule, 16, config.iso_constant)
    assert point.iso_constant == pytest.approx(2.0 * math.sqrt(2.0) * 3.0)
    # the default is the iso constant of c1 = c2 = 1, bit for bit
    assert witness_point(config.schedule, 16).iso_constant == RunConfig(out=Path("unused")).iso_constant


def test_witness_validation(power_schedule):
    with pytest.raises(BadParameter):
        witness_point(power_schedule, 1)


def test_witness_explicit_schedule():
    sched = ExponentSchedule.explicit([3.0, 2.5, 2.26])
    point = witness_point(sched, 4)  # threshold 1/2; gap(1) ~ 0.1 qualifies
    assert point.head_level == 0
    with pytest.raises(BadParameter, match=r"no level within the search range has gap\(n\+1\) below"):
        witness_point(sched, 2**40)  # list exhausted before the gap drops


def test_witness_explicit_feasible_window_at_list_tail():
    # the qualifying indices sit at the very end of the list; the search
    # must find them rather than run off the end
    sched = ExponentSchedule.explicit([3.0] * 5 + [2.9, 2.8, 2.2, 2.05])
    point = witness_point(sched, 2**11)  # threshold ~0.0909
    assert point.head_level == 6
    assert point.codimension == 3 * (2**7 - 1)
    result = split_sequence(sched, 2)
    assert result.indices == (0, 7)


# ---------------------------------------------------------------- distance bound


def test_distance_bound_cap():
    bound = distance_bound(4, 3.0)
    assert bound.cap == pytest.approx(2.0 * math.sqrt(2.0))
    assert bound.cap_applies  # 4^{1/6} <= 2
    assert bound.value <= bound.cap


def test_distance_bound_m_one():
    assert distance_bound(1, 3.0).value == pytest.approx(math.sqrt(2.0))


def test_distance_bound_p_near_two():
    assert distance_bound(10**6, 2.0000001).value == pytest.approx(math.sqrt(2.0), rel=1e-5)


def test_distance_bound_monotone():
    values_m = [distance_bound(m, 2.8).value for m in (2, 4, 8, 64, 4096)]
    assert values_m == sorted(values_m)
    values_p = [distance_bound(100, p).value for p in (2.1, 2.4, 2.7, 3.0)]
    assert values_p == sorted(values_p)


def test_distance_bound_validation():
    with pytest.raises(BadParameter):
        distance_bound(0, 2.5)
    with pytest.raises(BadParameter):
        distance_bound(5, 3.5)


# ---------------------------------------------------------------- growth envelope


def _envelope(schedule, m_samples):
    return growth_envelope_check([witness_point(schedule, m) for m in m_samples])


def test_envelope_skips_small_samples(log_schedule):
    report = _envelope(log_schedule, [8, 15])
    assert all(r.skipped for r in report.rows)
    assert report.passed  # nothing checked, nothing failed


def test_envelope_passes_in_clamp_region(log_schedule):
    report = _envelope(log_schedule, [16, 32, 63])
    assert report.passed
    for row in report.rows:
        assert row.head_level == 0 and row.codimension == 3


def test_envelope_fails_beyond_clamp_region(log_schedule):
    """The witness codimension outgrows m^(log2 log2 m) once real decay is needed.

    Measured heads: 237 at m=2^10 and 546 at m=2^20, so the codimension
    exponent (~head + 2.58) dwarfs the envelope exponent (33.2 and 86.4).
    """
    report = _envelope(log_schedule, [2**10, 2**20])
    rows = report.rows
    assert rows[0].head_level == 237
    assert rows[0].codimension_log2 == pytest.approx(239.58, abs=0.01)
    assert rows[0].envelope_log2 == pytest.approx(10 * math.log2(10.0), abs=1e-9)
    assert rows[0].passed is False
    assert rows[1].head_level == 546
    assert rows[1].passed is False
    assert not report.passed


# ---------------------------------------------------------------- alternating split


def test_split_first_threshold_and_index(power_schedule):
    result = split_sequence(power_schedule, 2)
    assert result.indices[0] == 0
    assert result.thresholds[0].exact == 250
    assert result.thresholds[0].five_exponent == 3
    assert result.indices[1] == 63
    assert result.margins[0] <= 1.0


def test_split_depth_three_power(power_schedule):
    result = split_sequence(power_schedule, 3)
    assert result.indices[0] == 0 and result.indices[1] == 63
    assert result.thresholds[1].five_exponent == 3 + 3 * 2**63
    assert result.thresholds[1].exact is None
    assert result.indices[2] > 10**39
    assert list(result.indices) == sorted(set(result.indices))
    for margin in result.margins:
        assert margin <= 1.0 + 1e-12
    # alternating ranges tile the index axis
    assert result.first_ranges[0] == (0, 63)
    assert result.second_ranges[0] == (63, result.indices[2])
    assert result.first_ranges[1] == (result.indices[2], None)


def test_split_depth_one(power_schedule):
    result = split_sequence(power_schedule, 1)
    assert result.indices == (0,)
    assert result.first_ranges == ((0, None),)
    assert result.second_ranges == ()


def test_split_log_schedule(log_schedule):
    result = split_sequence(log_schedule, 2)
    assert result.indices[0] == 0
    assert result.indices[1] == 181
    assert result.margins[0] <= 1.0


def test_split_depth_unreachable(power_schedule):
    with pytest.raises(BadParameter, match="only representable as an iterated logarithm"):
        split_sequence(power_schedule, 4)


def test_split_depth_validation(power_schedule):
    with pytest.raises(BadParameter):
        split_sequence(power_schedule, 0)


# ---------------------------------------------------------------- distance oracle


@pytest.fixture(scope="module")
def p3_pair():
    sched = ExponentSchedule.explicit([3.0, 3.0])
    return [MixedNormVector.single(sched, 0, 0), MixedNormVector.single(sched, 0, 1)]


def test_oracle_two_coordinates_one_block(p3_pair):
    estimate = numeric_distance_upper(p3_pair, samples=256, seed=1)
    assert estimate.ratio == pytest.approx(2.0 ** (1.0 / 6.0), abs=1e-3)
    assert estimate.max_norm == pytest.approx(1.0, abs=1e-9)
    assert estimate.min_norm == pytest.approx(2.0 ** (-1.0 / 6.0), abs=1e-9)


def test_oracle_cross_level_pair():
    sched = ExponentSchedule.explicit([3.0, 3.0])
    pair = [MixedNormVector.single(sched, 0, 0), MixedNormVector.single(sched, 1, 0)]
    estimate = numeric_distance_upper(pair, samples=128, seed=1)
    assert estimate.ratio == pytest.approx(1.0, abs=1e-9)


def test_oracle_single_vector(p3_pair):
    estimate = numeric_distance_upper(p3_pair[:1], samples=16, seed=1)
    assert estimate.ratio == pytest.approx(1.0, abs=1e-9)


def test_oracle_never_below_one(p3_pair):
    estimate = numeric_distance_upper(p3_pair, samples=32, seed=3)
    assert estimate.ratio >= 1.0


def test_oracle_refinement_property(p3_pair):
    coarse = numeric_distance_upper(p3_pair, samples=64, seed=2)
    fine = numeric_distance_upper(p3_pair, samples=512, seed=2)
    assert fine.ratio <= coarse.ratio + coarse.sampling_error


def test_oracle_rejects_large_dimension():
    sched = ExponentSchedule.explicit([3.0, 3.0])
    vecs = [MixedNormVector.single(sched, 1, g) for g in range(5)]
    with pytest.raises(DimensionTooLarge):
        numeric_distance_upper(vecs, samples=8, seed=0)


def test_oracle_rejects_dependent_basis():
    sched = ExponentSchedule.explicit([3.0, 3.0])
    v = MixedNormVector.single(sched, 0, 0)
    with pytest.raises(DegenerateBasis):
        numeric_distance_upper([v, v.scale(2.0)], samples=8, seed=0)
