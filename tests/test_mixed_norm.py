import math

import numpy as np
import pytest

from aplab.errors import BadParameter
from aplab.mixed_norm import (
    ExponentSchedule,
    MixedNormVector,
    compactness_sequence,
    flatness_index,
    z_norm,
    z_norms_rows,
)


def test_power_schedule_clamp_region(power_schedule):
    assert power_schedule.p(0) == 3.0
    assert power_schedule.p(35) == 3.0  # raw gap hits 1/6 exactly here
    assert 2.0 < power_schedule.p(36) < 3.0


def test_power_alpha_validation():
    with pytest.raises(BadParameter):
        ExponentSchedule.power(1.5)
    with pytest.raises(BadParameter):
        ExponentSchedule.power(0.0)


def test_log_schedule_clamp_region(log_schedule):
    assert log_schedule.p(0) == 3.0
    assert log_schedule.p(126) == 3.0
    assert 2.0 < log_schedule.p(127) < 3.0


def test_schedules_monotone_in_admissible_range(power_schedule, log_schedule):
    n = np.arange(0, 10**6 + 1)
    gap_pow = np.minimum(1.0 / 6.0, (n + 1.0) ** -0.5)
    p_pow = np.where(gap_pow == 1.0 / 6.0, 3.0, 1.0 / (0.5 - gap_pow))
    assert np.all((p_pow > 2.0) & (p_pow <= 3.0))
    assert np.all(np.diff(p_pow) <= 0.0)

    raw_log = np.empty_like(gap_pow)
    raw_log[:2] = 1.0 / 6.0
    raw_log[2:] = 3.0 * np.log2(n[2:]) / (n[2:] - 1.0)
    gap_log = np.minimum(1.0 / 6.0, raw_log)
    p_log = np.where(gap_log == 1.0 / 6.0, 3.0, 1.0 / (0.5 - gap_log))
    assert np.all((p_log > 2.0) & (p_log <= 3.0))
    assert np.all(np.diff(p_log) <= 0.0)

    for k in (0, 1, 2, 35, 36, 126, 127, 4096, 10**6):
        assert power_schedule.p(k) == p_pow[k]
        assert log_schedule.p(k) == p_log[k]


def test_explicit_schedule():
    sched = ExponentSchedule.explicit([3.0, 2.8, 2.5])
    assert sched.p(1) == pytest.approx(2.8)
    with pytest.raises(BadParameter):
        sched.p(3)
    with pytest.raises(BadParameter):
        ExponentSchedule.explicit([3.0, 3.1])
    with pytest.raises(BadParameter):
        ExponentSchedule.explicit([2.5, 2.8])
    with pytest.raises(BadParameter):
        ExponentSchedule.explicit([])


def test_schedule_config_roundtrip(power_schedule, log_schedule):
    for sched in (power_schedule, log_schedule, ExponentSchedule.explicit([2.9, 2.7])):
        assert ExponentSchedule.from_config(sched.to_config()) == sched


# ---------------------------------------------------------------- norms


def test_norm_examples():
    ex = ExponentSchedule.explicit([3.0, 3.0])
    assert z_norm(MixedNormVector.single(ex, 1, 4)) == pytest.approx(1.0, abs=1e-15)
    ones = MixedNormVector(schedule=ex, blocks={0: np.ones(3)})
    assert z_norm(ones) == pytest.approx(3.0 ** (1.0 / 3.0), abs=1e-14)
    two = MixedNormVector(schedule=ex, blocks={0: np.ones(3), 1: np.eye(6)[0]})
    assert z_norm(two) == pytest.approx(math.sqrt(3.0 ** (2.0 / 3.0) + 1.0), abs=1e-14)
    assert z_norm(MixedNormVector.empty(ex)) == 0.0


def test_norm_triangle_and_homogeneity(power_schedule):
    rng = np.random.default_rng(12)
    for _ in range(25):
        blocks_a = {n: rng.standard_normal(3 * 2**n) + 1j * rng.standard_normal(3 * 2**n) for n in (0, 2, 3)}
        blocks_b = {n: rng.standard_normal(3 * 2**n) + 1j * rng.standard_normal(3 * 2**n) for n in (1, 2, 4)}
        a = MixedNormVector(schedule=power_schedule, blocks=blocks_a)
        b = MixedNormVector(schedule=power_schedule, blocks=blocks_b)
        assert z_norm(a.add(b)) <= z_norm(a) + z_norm(b) + 1e-9
        factor = complex(rng.standard_normal(), rng.standard_normal())
        assert z_norm(a.scale(factor)) == pytest.approx(abs(factor) * z_norm(a), abs=1e-9)


def test_disjoint_levels_combine_euclidean(power_schedule):
    rng = np.random.default_rng(5)
    a = MixedNormVector(
        schedule=power_schedule,
        blocks={0: rng.standard_normal(3) + 1j * rng.standard_normal(3)},
    )
    b = MixedNormVector(
        schedule=power_schedule,
        blocks={3: rng.standard_normal(24) + 1j * rng.standard_normal(24)},
    )
    assert z_norm(a.add(b)) ** 2 == pytest.approx(z_norm(a) ** 2 + z_norm(b) ** 2, abs=1e-9)


def test_block_norm_monotone_as_p_decreases():
    rng = np.random.default_rng(8)
    coords = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    loose = MixedNormVector(schedule=ExponentSchedule.explicit([3.0, 3.0]), blocks={1: coords})
    tight = MixedNormVector(schedule=ExponentSchedule.explicit([2.2, 2.2]), blocks={1: coords})
    assert z_norm(tight) >= z_norm(loose) - 1e-12


def test_vector_validation(power_schedule):
    with pytest.raises(BadParameter):
        MixedNormVector(schedule=power_schedule, blocks={1: np.ones(5)})
    with pytest.raises(BadParameter):
        MixedNormVector(schedule=power_schedule, blocks={-1: np.ones(1)})
    a = MixedNormVector.single(power_schedule, 0, 0)
    b = MixedNormVector.single(ExponentSchedule.log_rate(), 0, 0)
    with pytest.raises(BadParameter):
        a.add(b)


def test_vector_blocks_read_only(power_schedule):
    v = MixedNormVector.single(power_schedule, 1, 2)
    with pytest.raises(ValueError):
        v.block(1)[0] = 5.0


def test_batched_norms_match_scalar(power_schedule):
    rng = np.random.default_rng(2)
    rows = {
        0: rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
        2: rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12)),
    }
    batched = z_norms_rows(power_schedule, rows)
    for i in range(4):
        v = MixedNormVector(schedule=power_schedule, blocks={0: rows[0][i], 2: rows[2][i]})
        assert batched[i] == pytest.approx(z_norm(v), abs=1e-12)


# ---------------------------------------------------------------- diagnostics


def test_flatness_examples(power_schedule):
    assert flatness_index(power_schedule, 0) == pytest.approx(3.0 ** (1.0 / 6.0), abs=1e-12)
    assert flatness_index(power_schedule, 100) > flatness_index(power_schedule, 10)
    assert (3 * 2**7) ** 0.0 == 1.0  # zero-gap limit of the defining power


def test_compactness_log_collapses(log_schedule):
    for n in (99, 9999):
        value = compactness_sequence(log_schedule, n)
        reference = (n + 1) ** -0.5
        assert abs(value - reference) / reference < 1e-12
    assert compactness_sequence(log_schedule, 10**6) < 1e-3


def test_compactness_power_examples(power_schedule):
    assert compactness_sequence(power_schedule, 2) == pytest.approx(
        3.0**2.5 * 2.0 ** (-1.0 / 3.0), rel=1e-12
    )
    values = [compactness_sequence(power_schedule, n) for n in range(600, 2001, 50)]
    assert max(values) < 1.0
    assert compactness_sequence(power_schedule, 450) > 1.0  # crossover sits near 500
    assert compactness_sequence(power_schedule, 5000) < 1e-3


def test_compactness_level0_is_one(power_schedule, log_schedule):
    assert compactness_sequence(power_schedule, 0) == 1.0
    assert compactness_sequence(log_schedule, 0) == 1.0
