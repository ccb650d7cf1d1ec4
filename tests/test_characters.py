import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aplab.characters import (
    CharacterTable,
    Group,
    advancing_exponents,
    build_group,
    verify_orthogonality,
)
from aplab.errors import BadParameter
from aplab.obstruction import BasisFrame, biorthogonality_deviation, form_agreement_deviation
from oracles import orthogonality_deviation


def test_group_orders():
    assert build_group(0).order == 3
    assert build_group(2).order == 12
    assert build_group(8).order == 768


def test_group_rejects_negative_level():
    with pytest.raises(BadParameter):
        build_group(-1)


def test_character_values_order_six():
    values = CharacterTable(build_group(1)).rows([0, 1, 3])
    assert cmath.isclose(values[1, 1], cmath.exp(2j * cmath.pi / 6))
    assert (values[0] == 1).all()
    assert cmath.isclose(values[2, 1], -1)


def test_character_index_validation():
    table = CharacterTable(build_group(1))
    with pytest.raises(BadParameter, match=r"character index 6 outside \[0, 6\)"):
        table.rows([6])
    with pytest.raises(BadParameter, match=r"character index -1 outside \[0, 6\)"):
        table.rows_at_inverse([0, -1])


def test_exponents_respect_group_law():
    # chi_c(g + h) is the root at exponent c*g + c*h mod k, to the bit
    rng = np.random.default_rng(3)
    for n in range(6):
        table = CharacterTable(build_group(n))
        k = table.order
        values, roots = table.rows(range(k)), table.roots()
        for _ in range(50):
            c, g, h = (int(x) for x in rng.integers(0, k, size=3))
            assert values[c, (g + h) % k] == roots[(c * g + c * h) % k]
            assert cmath.isclose(values[c, (g + h) % k], values[c, g] * values[c, h])


def test_exponent_conjugation_exact():
    for n in range(5):
        table = CharacterTable(build_group(n))
        k = table.order
        for c in range(k):
            at_minus_g = table.rows([c])[0][-np.arange(k) % k]
            assert np.array_equal(table.rows_at_inverse([c])[0], at_minus_g)


def test_rows_at_inverse_match_conjugate():
    # float values agree to a few ulp; the exact identity is the exponent one
    table = CharacterTable(build_group(3))
    cs = (0, 1, 7, 23)
    assert np.abs(table.rows_at_inverse(cs) - np.conj(table.rows(cs))).max() < 5e-15


def test_rows_at_inverse_agree_with_the_conjugate_to_8_ulps():
    # np.exp rounds the roots at e and k - e on their own, so chi_c(-g) and
    # conj(chi_c(g)) differ in most entries (2315520 of the 2359296 at
    # level 9), by at most 6.8 ulps of 1 through level 11.  An entry
    # depends only on its exponent c*g mod k, and row c = 1 holds every
    # exponent, so rows 0, 1 and a few others cover the levels past 8
    bound = 8 * np.finfo(np.float64).eps
    rng = np.random.default_rng(9)
    for n in range(12):
        table = CharacterTable(build_group(n))
        k = table.order
        cs = np.arange(k) if n <= 8 else np.array([0, 1, k // 3, k - 1, *rng.integers(0, k, 4)])
        assert np.abs(table.rows_at_inverse(cs) - np.conj(table.rows(cs))).max() <= bound


@given(
    level=st.integers(0, 15),
    factors=st.lists(st.integers(0, 2**62), min_size=1, max_size=6),
    shifted=st.lists(st.booleans(), min_size=6, max_size=6),
    rows=st.integers(1, 3 * 2**15),
    chunks=st.integers(1, 40),
)
def test_advancing_exponents_equal_the_reduced_products(level, factors, shifted, rows, chunks):
    # every chunk, from starts all over 0..k-1, is np.outer(h, f) % k up to
    # one k (so a table laid out twice reads it), plus the shift asked for
    k = 3 * 2**level
    rows = 1 + rows % k
    f = np.array(factors, dtype=np.int64) % k
    shift = np.where(shifted[: f.size], 2 * k, 0)
    chunk = -(-rows // chunks)  # about ``chunks`` chunks
    seen = 0
    for start, e in advancing_exponents(f, k, rows, chunk, shift):
        h = np.arange(start, min(start + chunk, rows))
        assert start == seen and e.shape == (h.size, f.size) and e.dtype == np.int32
        assert np.all((e >= shift) & (e < shift + 2 * k))
        assert np.array_equal((e - shift) % k, np.outer(h, f) % k)
        seen += h.size
    assert seen == rows


def test_orthogonality_levels_through_8(tables_through_8):
    for table in tables_through_8:
        deviation = verify_orthogonality(table)
        assert deviation < 1e-12, f"level {table.group.level}: {deviation}"


def test_nontrivial_character_sums_vanish():
    table = CharacterTable(build_group(2))
    assert np.abs(table.rows(range(1, 12)).sum(axis=1)).max() < 1e-12


@pytest.mark.parametrize("e", range(6))
def test_orthogonality_detects_corruption(monkeypatch, e):
    # one root off by 1e-8 moves every difference sum S_r that gathers it:
    # S_r = d * sum_{t < 6/d} roots[t*d], d = gcd(r, 6), so the largest
    # d dividing e (6 when e = 0) sees roots[e] d times
    table = CharacterTable(build_group(1))
    tampered = table.roots().copy()
    tampered[e] *= cmath.exp(1e-8j)
    monkeypatch.setattr(table, "roots", lambda: tampered)
    deviation = verify_orthogonality(table)
    assert deviation > 1e-9
    assert deviation == pytest.approx(math.gcd(e, 6) * 1e-8, rel=1e-6)
    assert orthogonality_deviation(table) > 1e-9  # the dense Gram sees it too


@pytest.mark.parametrize("n", range(7))
def test_orthogonality_matches_dense_gram(n):
    # both deviations are rounding noise of the same sums of unit roots
    table = CharacterTable(build_group(n))
    fast = verify_orthogonality(table)
    dense = orthogonality_deviation(table)
    assert max(fast, dense) <= 1e-12
    assert abs(fast - dense) <= 1e-12


def test_orthogonality_memory_stays_bounded_at_level_14():
    # k = 49152: one strided sum of the cached roots per divisor of k
    table = CharacterTable(build_group(14))
    table.roots()
    tracemalloc.start()
    try:
        deviation = verify_orthogonality(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deviation <= 1e-9
    assert peak < 2**20


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


def test_group_invariants():
    with pytest.raises(BadParameter):
        Group(level=1, order=5)
