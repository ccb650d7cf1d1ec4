import cmath
import tracemalloc

import numpy as np
import pytest

from aplab.characters import (
    CharacterTable,
    Group,
    build_group,
    verify_orthogonality,
)
from aplab.errors import BadParameter, IndexOutOfRange, LevelTooLarge
from aplab.obstruction import BasisFrame, biorthogonality_deviation, form_agreement_deviation
from oracles import orthogonality_deviation


def test_group_orders():
    assert build_group(0).order == 3
    assert build_group(2).order == 12
    assert build_group(8).order == 768


def test_group_rejects_negative_level():
    with pytest.raises(BadParameter):
        build_group(-1)


def test_group_respects_level_budget():
    with pytest.raises(LevelTooLarge):
        build_group(25)
    assert build_group(25, max_level=25).order == 3 * 2**25


def test_character_values_order_six():
    table = CharacterTable(build_group(1))
    assert cmath.isclose(table.value(1, 1), cmath.exp(2j * cmath.pi / 6))
    for g in range(6):
        assert table.value(0, g) == 1
    assert cmath.isclose(table.value(3, 1), -1)


def test_character_index_validation():
    table = CharacterTable(build_group(1))
    with pytest.raises(IndexOutOfRange):
        table.value(6, 0)
    with pytest.raises(IndexOutOfRange):
        table.value(0, -1)


def test_exponents_respect_group_law():
    rng = np.random.default_rng(3)
    for n in range(6):
        table = CharacterTable(build_group(n))
        k = table.order
        for _ in range(50):
            c, g, h = rng.integers(0, k, size=3)
            lhs = table.exponent(int(c), int((g + h) % k))
            rhs = (table.exponent(int(c), int(g)) + table.exponent(int(c), int(h))) % k
            assert lhs == rhs


def test_exponent_conjugation_exact():
    for n in range(5):
        table = CharacterTable(build_group(n))
        k = table.order
        for c in range(k):
            for g in range(k):
                assert table.exponent(c, (k - g) % k) == (k - table.exponent(c, g)) % k


def test_row_at_inverse_matches_conjugate():
    # float values agree to a few ulp; the exact identity is the exponent one
    table = CharacterTable(build_group(3))
    for c in (0, 1, 7, 23):
        assert np.abs(table.row_at_inverse(c) - np.conj(table.row(c))).max() < 5e-15


def test_orthogonality_levels_through_8(tables_through_8):
    for table in tables_through_8:
        report = verify_orthogonality(table, 1e-9)
        assert report.passed, f"level {table.group.level}: {report.max_deviation}"
        assert report.max_deviation < 1e-12


def test_nontrivial_character_sums_vanish():
    table = CharacterTable(build_group(2))
    for c in range(1, 12):
        assert abs(table.row(c).sum()) < 1e-12


def test_orthogonality_detects_corruption(monkeypatch):
    # one root off by 1e-8 moves every difference sum S_r that gathers it;
    # S_3 = sum_g roots[3g mod 6] gathers roots[3] three times (g = 1, 3, 5)
    table = CharacterTable(build_group(1))
    tampered = table.roots().copy()
    tampered[3] *= cmath.exp(1e-8j)
    monkeypatch.setattr(table, "roots", lambda: tampered)
    report = verify_orthogonality(table, 1e-9)
    assert not report.passed
    assert report.max_deviation == pytest.approx(3e-8, rel=1e-6)
    assert orthogonality_deviation(table) > 1e-9  # the dense Gram sees it too


@pytest.mark.parametrize("n", range(7))
def test_orthogonality_matches_dense_gram(n):
    # both deviations are rounding noise of the same sums of unit roots
    table = CharacterTable(build_group(n))
    fast = verify_orthogonality(table, 1e-9).max_deviation
    dense = orthogonality_deviation(table)
    assert max(fast, dense) <= 1e-12
    assert abs(fast - dense) <= 1e-12


def test_orthogonality_memory_stays_bounded_at_level_11():
    # k = 6144: the dense table alone would be 576 MiB
    table = CharacterTable(build_group(11))
    table.roots()
    tracemalloc.start()
    try:
        report = verify_orthogonality(table, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 64 * 2**20


def test_frame_checks_memory_stays_bounded_at_level_9(full_bundle, log_schedule):
    # the frame keeps no matrix between calls, and each is cut to its band
    frame = BasisFrame(full_bundle["data"], log_schedule, 9)
    tracemalloc.start()
    try:
        worst = biorthogonality_deviation(frame)
        for n in range(1, 9):
            worst = max(worst, form_agreement_deviation(frame, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst <= 1e-9
    assert peak < 64 * 2**20


def test_bad_tolerance_rejected():
    table = CharacterTable(build_group(0))
    with pytest.raises(BadParameter):
        verify_orthogonality(table, 0.0)


def test_group_invariants():
    with pytest.raises(BadParameter):
        Group(level=1, order=5)
