import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aplab import discrepancy
from aplab import obstruction as ob
from aplab.characters import CharacterTable, build_group
from aplab.discrepancy import (
    CharacterSplit,
    ConstructionData,
    SignPattern,
    certify_constants,
    cross_lower_matrix,
    cross_upper_matrix,
    middle_block,
)
from aplab.errors import BadParameter
from aplab.mixed_norm import ExponentSchedule, z_norms_rows
from aplab.store import canonical_json
from oracles import (
    balance_oracle,
    basis_vector,
    chain_bound,
    coeff_functional,
    cross_lower_oracle,
    cross_upper_oracle,
    dense_rows,
    identity_stage_oracle,
    identity_trace_oracle,
    rank_one_sum,
    telescope_norms_oracle,
    telescope_residual_oracle,
    telescope_vector,
    z_norm,
)
from strategies import constructions, filled_rows, random_construction


@pytest.fixture(scope="module")
def frame5(small_data, log_schedule):
    return ob.BasisFrame(small_data, log_schedule, 5)


@pytest.fixture(scope="module")
def frame4(small_data, log_schedule):
    return ob.BasisFrame(small_data, log_schedule, 4)


# ---------------------------------------------------------------- basis vectors


def test_basis_vector_level0(small_data, log_schedule):
    vec = basis_vector(0, 1, small_data, log_schedule)
    assert vec.support_levels() == (0,)
    item = small_data.require(0)
    expected = item.require_signs().signs[0] * item.table.rows([item.split.anchors[0]])[0]
    assert np.abs(vec.block(0) - expected).max() == 0.0


def test_basis_vector_lower_block_carries_previous_level(small_data, log_schedule):
    vec = basis_vector(1, 1, small_data, log_schedule)
    assert vec.support_levels() == (0, 1)
    below = small_data.require(0)
    carrier_row = below.table.rows([below.split.carriers[0]])[0]
    assert np.abs(vec.block(0) - carrier_row).max() == 0.0
    assert np.abs(np.abs(vec.block(0)) - 1.0).max() < 1e-15
    assert np.abs(np.abs(vec.block(1)) - 1.0).max() < 1e-15


def test_basis_vector_index_range(small_data, log_schedule):
    with pytest.raises(BadParameter, match=r"basis index 0 outside 1\.\.4 at level 2"):
        basis_vector(2, 0, small_data, log_schedule)
    with pytest.raises(BadParameter, match=r"basis index 5 outside 1\.\.4 at level 2"):
        basis_vector(2, 5, small_data, log_schedule)


def test_level0_roots_have_modulus_exactly_one():
    assert np.abs(CharacterTable(build_group(0)).roots()).tolist() == [1.0, 1.0, 1.0]


@example(3.0, 0)  # p_0 of every built-in schedule
@given(st.floats(2.0, 3.0, exclude_min=True), st.integers(0, 2**32 - 1))
def test_base_vector_norm_is_the_oracle_norm_up_to_the_power_rounding(p0, seed):
    """``ap``'s base_vector_norm, from the one norm kernel, against z_norm of
    basis vector (0, 1), for every level-0 anchor and sign.  Both sum three
    moduli of exactly 1.0 to 3.0, so they differ only where they raise 3.0
    to 2/p0: numpy's array power there and libm's pow here may round apart,
    by one ulp after the root (in about 3% of p0 on CPUs where numpy takes
    its AVX-512 power), and are bit-equal wherever the two powers agree."""
    schedule = ExponentSchedule.explicit([p0, p0])
    power = np.full(1, 3.0) ** (2.0 / p0)
    data = random_construction(1, seed)
    for anchor, sign in itertools.product(range(3), (1, -1)):
        carriers = tuple(c for c in range(3) if c != anchor)
        split, signs = CharacterSplit(0, (anchor,), carriers, 0.0), SignPattern(0, (sign,), 0.0)
        data.put(replace(data.require(0), split=split, signs=signs))
        norm = ob.ap_experiment(ob.BasisFrame(data, schedule, 1), 1.0, operator_count=0).base_vector_norm
        assert norm == float(np.sqrt(power)[0])
        oracle = z_norm(basis_vector(0, 1, data, schedule))
        if power[0] == 3.0 ** (2.0 / p0):
            assert norm == oracle
        else:
            assert abs(norm - oracle) <= math.ulp(oracle)


def test_flat_indexing():
    assert ob.basis_dimension(4) == 31
    assert ob.basis_index(0, 1) == 0
    assert ob.basis_index(3, 1) == 7
    assert ob.basis_index(3, 8) == 14
    assert ob.level_slice(3) == slice(7, 15)


# ---------------------------------------------------------------- functionals


def test_biorthogonality_both_forms(frame5):
    assert ob.biorthogonality_deviation(frame5) < 1e-9


def test_coeff_functional_examples(small_data, log_schedule):
    e11 = basis_vector(1, 1, small_data, log_schedule)
    e01 = basis_vector(0, 1, small_data, log_schedule)
    assert coeff_functional(1, 1, e11, small_data, via="own") == pytest.approx(1.0, abs=1e-12)
    assert coeff_functional(1, 1, e11, small_data, via="lower") == pytest.approx(1.0, abs=1e-12)
    assert abs(coeff_functional(1, 1, e01, small_data, via="own")) < 1e-12
    assert abs(coeff_functional(1, 2, e11, small_data, via="own")) < 1e-12


def test_lower_form_unavailable_at_level0(small_data, log_schedule):
    e01 = basis_vector(0, 1, small_data, log_schedule)
    with pytest.raises(BadParameter, match="the lower-level form does not exist at level 0"):
        coeff_functional(0, 1, e01, small_data, via="lower")


def test_both_forms_agree_on_telescope_vectors(small_data, log_schedule):
    for n in (1, 2, 3):
        k = small_data.require(n).table.order
        for g in range(0, k, max(1, k // 5)):
            tele = telescope_vector(n, g, small_data, log_schedule)
            for j in (1, 1 << n):
                own = coeff_functional(n, j, tele.vector, small_data, via="own")
                low = coeff_functional(n, j, tele.vector, small_data, via="lower")
                assert own == pytest.approx(low, abs=1e-10)
                assert own == pytest.approx(complex(tele.own_coefficients[j - 1]), abs=1e-10)


@given(constructions())
def test_biorthogonality_on_random_splits(case):
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    assert ob.biorthogonality_deviation(frame) < 1e-9


def _with_level(data, item):
    """``data`` with its level ``item.level`` replaced by ``item``."""
    out = ConstructionData()
    for n in data.levels():
        out.put(item if n == item.level else data.require(n))
    return out


def test_a_sign_flip_keeps_biorthogonality(small_data, log_schedule):
    # every Gram entry is +-S_r / k, and a flipped eps_j flips a whole row
    # and column of it: no defect for biorthogonality, only for the cross rows
    item = small_data.require(3)
    signs = item.require_signs()
    flipped = replace(signs, signs=(-signs.signs[0],) + signs.signs[1:])
    data = _with_level(small_data, replace(item, signs=flipped))
    assert ob.biorthogonality_deviation(ob.BasisFrame(data, log_schedule, 5)) < 1e-9


def test_a_repeated_anchor_breaks_biorthogonality(small_data, log_schedule):
    # functionals 1 and 2 then both read anchor a_1: Gram entry
    # eps_2 eps_1 S_0 / k = +-1 where the Kronecker pattern has 0
    item = small_data.require(3)
    anchors = item.split.anchors
    repeated = (anchors[0],) * 2 + anchors[2:]
    with pytest.raises(BadParameter, match="level 3 needs 8 anchors and 16 carriers that partition"):
        replace(item.split, anchors=repeated)
    # such a split exists only past its own check, as a corrupted value would
    with mock.patch.object(CharacterSplit, "__post_init__", lambda self: None):
        split = replace(item.split, anchors=repeated)
    data = _with_level(small_data, replace(item, split=split))
    assert ob.biorthogonality_deviation(ob.BasisFrame(data, log_schedule, 5)) >= 0.5


@given(constructions(), st.integers(0, 2**16))
def test_telescoping_identity_on_random_splits(case, seed):
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    op = ob.gaussian(top, seed=seed)
    assert max(ob.telescope_residual(op, n, frame) for n in range(top)) < 1e-9


@given(constructions(max_top=5), st.integers(0, 2**16))
def test_coords_match_basis_vector_sums(case, seed):
    """The placed inverse FFT against sum_b C[r, b] e_b, block by block."""
    top, data = case
    schedule = ExponentSchedule.log_rate()
    frame = ob.BasisFrame(data, schedule, top)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((3, frame.dim)) + 1j * rng.standard_normal((3, frame.dim))
    coords = frame.coords_of(coeffs)
    expected = {m: np.zeros((3, data.require(m).table.order), dtype=np.complex128) for m in coords}
    for n in range(top + 1):
        for j in range(1, (1 << n) + 1):
            vec = basis_vector(n, j, data, schedule)
            for m, block in vec.blocks.items():
                expected[m] += coeffs[:, ob.basis_index(n, j), None] * block
    for m in coords:
        assert np.abs(coords[m] - expected[m]).max() <= 1e-12


@given(constructions(max_top=5), st.integers(0, 2**16))
def test_coords_of_leaves_out_exactly_the_zero_levels(case, seed):
    """Rows supported on a single level, a boundary pair, random levels, or none."""
    top, data = case
    schedule = ExponentSchedule.log_rate()
    frame = ob.BasisFrame(data, schedule, top)
    rng = np.random.default_rng(seed)
    single = int(rng.integers(0, top + 1))
    pair = int(rng.integers(0, top))
    subsets = [
        {single},
        {pair, pair + 1},
        {int(m) for m in rng.choice(top + 1, size=int(rng.integers(1, top + 2)), replace=False)},
        set(),
    ]
    for levels in subsets:
        coeffs = np.zeros((3, frame.dim), dtype=np.complex128)
        for n in levels:
            size = 1 << n
            coeffs[:2, ob.level_slice(n)] = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
        coords = frame.coords_of(coeffs)  # row 2 stays zero
        live = {m for m in range(top + 1) if m in levels or (m < top and m + 1 in levels)}
        assert set(coords) == live
        oracle = {m: np.zeros((3, data.require(m).table.order), dtype=np.complex128) for m in range(top + 1)}
        for n in range(top + 1):
            for j in range(1, (1 << n) + 1):
                for m, block in basis_vector(n, j, data, schedule).blocks.items():
                    oracle[m] += coeffs[:, ob.basis_index(n, j), None] * block
        for m in range(top + 1):
            if m not in live:
                assert not oracle[m].any()
        every_level = {m: frame.coords_at(coeffs, m) for m in range(top + 1)}
        expected = z_norms_rows(schedule, every_level)
        assert np.array_equal(z_norms_rows(schedule, coords) if coords else np.zeros(3), expected)


@given(constructions(max_top=5), st.integers(0, 2**16))
def test_telescope_image_matches_expansion_coefficients(case, seed):
    """Row g of the placed forward FFT against tele_{n,g}'s coefficients times M."""
    top, data = case
    schedule = ExponentSchedule.log_rate()
    frame = ob.BasisFrame(data, schedule, top)
    rng = np.random.default_rng(seed)
    op = rng.standard_normal((frame.dim, frame.dim)) + 1j * rng.standard_normal((frame.dim, frame.dim))
    for n in range(top):
        image = frame.telescope_image(op, n)
        for g in range(data.require(n).table.order):
            tele = telescope_vector(n, g, data, schedule)
            row = np.zeros(frame.dim, dtype=np.complex128)
            row[ob.level_slice(n)] = tele.own_coefficients
            row[ob.level_slice(n + 1)] = tele.upper_coefficients
            assert np.abs(image[g] - row @ op).max() <= 1e-12


def test_form_agreement_batched(frame5):
    for n in (1, 2, 3, 4):
        assert ob.form_agreement_deviation(frame5, n) < 1e-9


# ---------------------------------------------------------------- telescope vectors


def test_telescope_vector_coefficients(small_data, log_schedule):
    n, g = 2, 7
    item = small_data.require(n)
    tele = telescope_vector(n, g, small_data, log_schedule)
    k = item.table.order
    signs = item.require_signs().signs
    for j in (1, 2, 3, 4):
        row = item.table.rows([item.split.anchors[j - 1]])[0]
        expected = -(2.0 ** (-n)) * signs[j - 1] * row[(k - g) % k]
        assert tele.own_coefficients[j - 1] == pytest.approx(expected, abs=1e-15)
    for j in (1, 8):
        row = item.table.rows([item.split.carriers[j - 1]])[0]
        expected = (2.0 ** (-n - 1)) * row[(k - g) % k]
        assert tele.upper_coefficients[j - 1] == pytest.approx(expected, abs=1e-15)


def test_telescope_vector_matches_block_rows(small_data, log_schedule):
    for n in (1, 2, 3):
        lower = cross_lower_matrix(n, small_data)
        middle = middle_block(n, small_data)
        upper = cross_upper_matrix(n, small_data)
        for g in (0, 3, small_data.require(n).table.order - 1):
            tele = telescope_vector(n, g, small_data, log_schedule)
            assert np.abs(tele.vector.block(n - 1) - lower[g]).max() < 1e-12
            assert np.abs(tele.vector.block(n) - middle[g]).max() < 1e-12
            assert np.abs(tele.vector.block(n + 1) - upper[g]).max() < 1e-12


def test_telescope_vector_support(small_data, log_schedule):
    tele = telescope_vector(2, 1, small_data, log_schedule)
    assert tele.vector.support_levels() == (1, 2, 3)
    assert tele.vector.block(5) is None


def test_level0_telescope_vector(small_data, log_schedule):
    tele = telescope_vector(0, 1, small_data, log_schedule)
    assert tele.vector.support_levels() == (0, 1)


def test_pointwise_bound_report(small_data):
    rows = certify_constants(range(1, 4), small_data).cross_rows
    assert [r.level for r in rows] == [1, 2, 3]
    for row in rows:
        assert row.overall <= 6.0 * row.scale
        assert row.middle_identity_residual <= 1e-9
        assert row.overall == max(row.max_lower, row.max_middle, row.max_upper)
    assert rows[0].overall > 1e-3 * rows[0].scale


def test_norm_bound_report(small_data, log_schedule, power_schedule):
    for schedule in (log_schedule, power_schedule):
        family = ob.telescope_norms(small_data, schedule, 5)
        for n in (1, 2, 3, 4):
            bound = ob.check_norm_bound(n, schedule, 2.0)
            assert isinstance(bound, float)
            assert family.norms[n].max() <= bound
            assert family.norms[n].max() <= chain_bound(n, schedule, 2.0)


@given(constructions(min_top=2, max_top=5))
def test_chunked_telescope_norms_match_the_defining_blocks(case):
    # the sign kernel goes 2 rows at a time, so both of its blocks run several
    # chunks, and the 3 rows of level 0 leave a tail of 1; the explicit
    # schedule gives each level its own exponent, which the built-in ones,
    # at p = 3 on every level drawn here, do not
    top, data = case
    schedules = (
        ExponentSchedule.log_rate(),
        ExponentSchedule.explicit([3.0, 2.8, 2.6, 2.5, 2.4, 2.3, 2.2]),
    )
    with mock.patch.object(discrepancy, "_SIGN_CHUNK_ROWS", 2):
        families = {schedule: ob.telescope_norms(data, schedule, top) for schedule in schedules}
        for n, schedule in itertools.product(range(top), schedules):
            item = data.require(n)
            k = item.table.order
            bal = balance_oracle(item.table, item.split)
            middle = -(2.0 ** (-n - 1)) * bal[(np.arange(k)[None, :] - np.arange(k)[:, None]) % k]
            blocks = {n: middle, n + 1: cross_upper_oracle(n, data)}
            if n >= 1:
                blocks[n - 1] = cross_lower_oracle(n, data)
            expected = z_norms_rows(schedule, blocks)
            norms = families[schedule].norms[n]
            assert np.abs(norms - expected).max() <= 1e-12 * expected.max()


@given(constructions(min_top=2, max_top=5))
def test_one_kernel_pass_gives_the_sign_objectives_and_the_per_level_norms(case):
    # chunks of 2 and 3 rows put the last row that telescope_norms and
    # sign_objective transform (k_{m-1}//2) at a chunk's end and inside one,
    # and the explicit schedule gives each level its own exponent
    top, data = case
    schedules = (
        ExponentSchedule.log_rate(),
        ExponentSchedule.power(0.5),
        ExponentSchedule.explicit([3.0, 2.8, 2.6, 2.5, 2.4, 2.3, 2.2]),
    )
    for chunk, schedule in itertools.product((2, 3), schedules):
        with mock.patch.object(discrepancy, "_SIGN_CHUNK_ROWS", chunk):
            family = ob.telescope_norms(data, schedule, top)
            assert family.objectives[0] == 0.0
            for m in range(1, top + 1):
                signs = data.require(m).require_signs().signs
                assert family.objectives[m] == discrepancy.sign_objective(m, data, signs)
            assert len(family.norms) == top
            # the oracle reads every row of lower_m^T and telescope_norms half
            # of them with their mirrors, so the sums run in another order
            # (the worst seen was 2.9e-16)
            for n in range(top):
                expected = telescope_norms_oracle(n, data, schedule)
                assert np.all(np.abs(family.norms[n] - expected) <= 1e-15 * expected)


def test_norm_two_routes_agree(small_data, log_schedule):
    family = ob.telescope_norms(small_data, log_schedule, 4)
    for n in (1, 2, 3):
        norms = family.norms[n]
        for g in (0, 2):
            tele = telescope_vector(n, g, small_data, log_schedule)
            assert norms[g] == pytest.approx(z_norm(tele.vector), abs=1e-10)


# ---------------------------------------------------------------- operator traces


def test_identity_trace_is_one(frame5):
    ident = np.eye(frame5.dim, dtype=np.complex128)
    traces, coordinates, _ = ob.identity_stage(frame5)
    for n in range(6):
        assert ob.level_trace(dense_rows(ident), n) == traces[n] == 1.0
        assert coordinates[n] == pytest.approx(1.0, abs=1e-12)
    for n in (-1, 6):
        with pytest.raises(BadParameter, match=rf"level {n} outside truncation 0\.\.5"):
            frame5.coords_at(ident[:1], n)


def _with_level(data, item):
    """A copy of ``data`` with ``item`` in place of its level."""
    planted = ConstructionData()
    for n in data.levels():
        planted.put(data.require(n))
    planted.put(item)
    return planted


def test_identity_stage_reads_no_sign(small_data, log_schedule):
    # the signs enter the identity rows only as eps_j^2 = 1, so flipping
    # every sign of a level leaves every trace and residual bit-identical
    def bits(data):
        return [np.array(part).tobytes() for part in ob.identity_stage(ob.BasisFrame(data, log_schedule, 5))]

    expected = bits(small_data)
    for n in small_data.levels():
        item = small_data.require(n)
        signs = item.require_signs()
        flipped = replace(signs, signs=tuple(-s for s in signs.signs))
        assert bits(_with_level(small_data, replace(item, signs=flipped))) == expected, n


def test_identity_stage_passes_an_unsearched_partition(small_data, log_schedule):
    # the split only picks which characters carry -2^{-n} and which
    # 2^{-n-1}; for any partition the sums are 1 and 0 up to rounding
    tol = 1e-9  # build's default --tol
    item = small_data.require(4)
    order = tuple(int(c) for c in np.random.default_rng(4).permutation(item.table.order))
    split = replace(item.split, anchors=order[: len(order) // 3], carriers=order[len(order) // 3 :])
    assert split != item.split
    frame = ob.BasisFrame(_with_level(small_data, replace(item, split=split)), log_schedule, 5)
    traces, coordinates, residuals = ob.identity_stage(frame)
    deviations = [max(abs(t - 1.0), abs(c - 1.0)) for t, c in zip(traces, coordinates)]
    assert max(deviations) < tol and max(residuals) < tol


def test_rank_one_trace(small_data):
    values = np.zeros((1, ob.basis_dimension(4)), dtype=np.complex128)
    values[0, 0] = 1.0
    op = (np.array([ob.basis_index(0, 1)]), values)
    assert ob.level_trace(op, 0) == pytest.approx(1.0, abs=1e-15)
    for n in range(1, 5):
        assert abs(ob.level_trace(op, n)) == 0.0


def test_diagonal_trace():
    entries = np.arange(1, ob.basis_dimension(3) + 1).astype(np.complex128)
    op = dense_rows(np.diag(entries))
    assert ob.level_trace(op, 1) == pytest.approx((entries[1] + entries[2]) / 2.0)


def test_trace_linearity():
    rows, s = ob.gaussian(3, seed=1)
    _, t = ob.gaussian(3, seed=2)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    for n in range(4):
        combined = ob.level_trace((rows, a * s + b * t), n)
        reference = a * ob.level_trace((rows, s), n) + b * ob.level_trace((rows, t), n)
        assert combined == pytest.approx(reference, abs=1e-10)


def test_trace_truncation_guard():
    op = dense_rows(np.eye(ob.basis_dimension(3)))
    with pytest.raises(BadParameter, match="level 4 exceeds truncation 3"):
        ob.level_trace(op, 4)


# ---------------------------------------------------------------- telescoping identity


def test_telescope_identity_for_identity(frame5):
    ident = dense_rows(np.eye(frame5.dim, dtype=np.complex128))
    for n in range(5):
        assert ob.telescope_residual(ident, n, frame5) < 1e-10


def test_telescope_identity_random_operators(frame4):
    for seed in range(100):
        op = ob.gaussian(4, seed=seed)
        for n in range(4):
            assert ob.telescope_residual(op, n, frame4) < 1e-9


@given(constructions(max_top=5), st.integers(0, 2**16))
def test_chunked_identity_stage_matches_the_dense_routes(case, seed):
    # chunks of 2 and 3 band rows leave tails at most levels; the row route
    # against the column route and the dense functional products
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    _, gaussian = ob.gaussian(top, seed=seed)
    band = ob._pair_slice(seed % top, top)  # basis levels n, n+1 for one n < top
    single = np.zeros_like(gaussian)
    single[band, band] = gaussian[band, band]
    ops = [np.eye(frame.dim, dtype=np.complex128), gaussian, single]
    for chunk in (2, 3):
        with mock.patch.object(discrepancy, "_SIGN_CHUNK_ROWS", chunk):
            coordinates = ob.identity_stage(frame)[1]
            for n in range(top + 1):
                assert abs(coordinates[n] - identity_trace_oracle(frame, n)) <= 1e-15
            for op, n in itertools.product(ops, range(top)):
                residual = ob.telescope_residual(dense_rows(op), n, frame)
                assert abs(residual - telescope_residual_oracle(op, n, frame)) <= 1e-15


def test_identity_stage_memory_stays_bounded_at_level_10():
    # a chunk of identity rows at a time, O(chunk * k).  The dense routes
    # traced 144 MiB: the 2^n x k functional and coordinate products, and
    # the k x d image with its k x k coordinates
    top = 10
    frame = ob.BasisFrame(random_construction(top, 7), ExponentSchedule.log_rate(), top)
    tracemalloc.start()
    try:
        traces, coordinates, residuals = ob.identity_stage(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(abs(t - 1.0) for t in (*traces, *coordinates)) <= 1e-10
    assert max(residuals) <= 1e-9
    assert peak < 8 * 2**20


@given(constructions(min_top=1, max_top=6))
def test_identity_stage_equals_the_dense_identity_bit_for_bit(case):
    # the band of level n is k = 3 * 2^n rows, 2^n of level n and then
    # those of level n+1: chunks of 3 rows straddle that boundary at
    # every level, chunks of 2 at level 0, and the default chunk of 32
    # takes each band below level 4 in one piece.  The row kernel on the
    # dense identity gives the same traces, coordinate traces and
    # residuals; repr tells -0.0 from 0.0, so zeros keep their signs too
    top, data = case
    for schedule in (ExponentSchedule.log_rate(), ExponentSchedule.power(0.5)):
        frame = ob.BasisFrame(data, schedule, top)
        for chunk in (discrepancy._SIGN_CHUNK_ROWS, 2, 3):
            with mock.patch.object(discrepancy, "_SIGN_CHUNK_ROWS", chunk):
                stage, oracle = ob.identity_stage(frame), identity_stage_oracle(frame)
                assert stage == oracle
                assert repr(stage) == repr(oracle)


def test_identity_stage_reads_no_tele_coefficients_and_no_band_rows(frame5, monkeypatch):
    # one inner product per character: the row kernel and its gather of
    # tele coefficients are for operators given by their rows
    expected = ob.identity_stage(frame5)

    def refuse(*args, **kwargs):
        raise AssertionError("identity_stage called the row kernel")

    monkeypatch.setattr(ob, "_band_pass", refuse)
    monkeypatch.setattr(ob.BasisFrame, "tele_coeffs", refuse)
    assert ob.identity_stage(frame5) == expected
    with pytest.raises(AssertionError):
        ob.telescope_residual(dense_rows(np.eye(frame5.dim)), 0, frame5)


def test_identity_stage_needs_two_levels(small_data, log_schedule):
    frame = ob.BasisFrame(small_data, log_schedule, 0)
    with pytest.raises(BadParameter, match="the identity stage telescopes levels 0 and 1"):
        ob.identity_stage(frame)
    with pytest.raises(BadParameter, match="the identity stage telescopes levels 0 and 1"):
        ob.ap_experiment(frame, cross_constant=2.0, operator_count=0)


def test_ap_identity_stage_forms_no_dense_identity(full_bundle, log_schedule):
    # the dense identity alone is d * d * 16 bytes (16.7 MB at d = 1023);
    # with it, ap_experiment traced 18.9 MiB (1.18 of that) here, and with
    # the identity a chunk of band columns at a time 2.9 MiB (0.18)
    frame = ob.BasisFrame(full_bundle["data"], log_schedule, 9)
    cross_constant = full_bundle["constants"].cross_constant
    tracemalloc.start()
    try:
        report = ob.ap_experiment(frame, cross_constant, operator_count=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(row.deviation for row in report.identity_trace) <= 1e-10
    assert peak < frame.dim * frame.dim * 16 / 4


def test_telescope_identity_zero_operator(frame4):
    zero = dense_rows(np.zeros((frame4.dim, frame4.dim), dtype=np.complex128))
    for n in range(4):
        assert ob.telescope_residual(zero, n, frame4) == 0.0


def test_telescope_truncation_guard(frame4):
    op = dense_rows(np.eye(frame4.dim))
    with pytest.raises(BadParameter, match="level 5 exceeds truncation 4"):
        ob.telescope_residual(op, 4, frame4)


# ---------------------------------------------------------------- limits and the experiment


def test_finite_rank_traces_vanish_above_support(frame5):
    for seed in (0, 1, 2):
        op = ob.random_finite_rank_operator(5, support_level=2, rank=3, seed=seed)
        for n in range(3, 6):
            assert abs(ob.level_trace(op, n)) <= 1e-12


def test_trace_limit_identity(frame5):
    ident = np.eye(frame5.dim, dtype=np.complex128)
    tail_factor, family_sup = _trace_limit_every_level(ident, frame5)
    assert ob.level_trace(dense_rows(ident), frame5.max_level) == pytest.approx(1.0, abs=1e-12)
    assert tail_factor <= 1.0 / 5.0
    assert ob.trace_limit(dense_rows(ident), frame5) == pytest.approx(tail_factor * family_sup, abs=1e-12)


def _trace_limit_every_level(op, frame):
    """trace_limit's tail factor and family supremum from the d x d matrix
    ``op``, with every telescoping image transformed and every level's block
    normed."""
    top, schedule = frame.max_level, frame.schedule

    def norms(coeffs):
        return z_norms_rows(schedule, {m: frame.coords_at(coeffs, m) for m in range(top + 1)})

    sups = [float(norms(op[:1])[0])]
    for n in range(1, top):
        item = frame.data.require(n)
        signs = np.asarray(item.require_signs().signs, dtype=np.float64)
        v = np.zeros((item.table.order, frame.dim), dtype=np.complex128)
        v[list(item.split.anchors)] = -(2.0 ** (-n)) * signs[:, None] * op[ob.level_slice(n)]
        v[list(item.split.carriers)] = 2.0 ** (-n - 1) * op[ob.level_slice(n + 1)]
        sups.append(float((n + 1) ** 2 * norms(np.fft.fft(v, axis=0)).max()))
    tail_factor = math.pi**2 / 6.0 - math.fsum(1.0 / m**2 for m in range(1, top + 1))
    return tail_factor, max(sups)


def _assert_trace_limits_agree(got, reference):
    """The family norms are sums of products of the tele coefficients and
    the values' coordinates, not the FFT of the image, so the tail bounds
    agree to rounding (3.9e-16 relative was the worst seen)."""
    tail_factor, family_sup = reference
    bound = tail_factor * family_sup
    assert abs(got - bound) <= 1e-15 * abs(bound)


@pytest.mark.parametrize("seed", [0, 1, 7, 9, 42])
def test_trace_limit_equals_every_level_reference_on_experiment_operators(frame5, seed):
    for _, _, op in ob.experiment_operators(5, 5, 5, seed):
        _assert_trace_limits_agree(ob.trace_limit(op, frame5), _trace_limit_every_level(rank_one_sum(*op), frame5))


def test_trace_limit_equals_every_level_reference_on_edge_operators(frame4, frame5):
    for frame in (frame4, frame5):
        top = frame.max_level
        top_row = np.zeros((frame.dim, frame.dim), dtype=np.complex128)
        top_row[ob.basis_index(top, 1), 1::2] = 0.5 - 2.0j
        ops = [
            np.zeros((frame.dim, frame.dim), dtype=np.complex128),
            np.eye(frame.dim, dtype=np.complex128),
            top_row,
        ]
        for op in ops:
            _assert_trace_limits_agree(ob.trace_limit(dense_rows(op), frame), _trace_limit_every_level(op, frame))


@given(constructions(max_top=5), st.data())
def test_level_traces_from_filled_rows_equal_the_dense_diagonal(case, draw):
    top, _ = case
    rows, values = draw.draw(filled_rows(top))
    dense = rank_one_sum(rows, values)
    for n in range(top + 1):
        diagonal = dense[ob.level_slice(n), ob.level_slice(n)].diagonal()
        assert ob.level_trace((rows, values), n) == complex(2.0 ** (-n) * diagonal.sum())


@given(constructions(max_top=5), st.data())
def test_trace_limit_from_filled_rows_matches_the_dense_reference(case, draw):
    # chunks of 2 and 3 elements g split every level's family
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    op = draw.draw(filled_rows(top))
    reference = _trace_limit_every_level(rank_one_sum(*op), frame)
    for chunk in (2, 3):
        with mock.patch.object(discrepancy, "_SIGN_CHUNK_ROWS", chunk):
            _assert_trace_limits_agree(ob.trace_limit(op, frame), reference)


@given(constructions(max_top=5), st.data())
def test_row_route_residual_matches_the_column_route(case, draw):
    # chunks of 2 and 3 filled rows split the band rows, duplicates included.
    # Both residuals are rounding noise on the scale of T's entries, and
    # repeated rows sum to entries of modulus up to ~5 here, so the bound is
    # 1e-15 times the largest entry (or 1); 1.3e-15 at modulus 2.9 was seen
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    op = draw.draw(filled_rows(top))
    dense = rank_one_sum(*op)
    scale = max(1.0, float(np.abs(dense).max(initial=0.0)))
    for chunk in (2, 3):
        with mock.patch.object(discrepancy, "_SIGN_CHUNK_ROWS", chunk):
            for n in range(top):
                residual = ob.telescope_residual(op, n, frame)
                assert abs(residual - telescope_residual_oracle(dense, n, frame)) <= 1e-15 * scale


@given(constructions(max_top=5))
def test_tele_coeffs_match_the_forward_fft(case):
    # the exact-exponent gathers against the placed forward FFT of the band identity
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    for n in range(top):
        k = data.require(n).table.order
        gathered = frame.tele_coeffs(n, np.arange(k)).T
        assert np.abs(gathered - frame.telescope_coeff_matrix(n)).max() <= 1e-15


def test_experiment_report(small_data, frame5, log_schedule):
    report = ob.ap_experiment(frame5, cross_constant=2.0, operator_count=4, max_rank=3, seed=9)
    assert max(r.deviation for r in report.identity_trace) <= 1e-10
    assert max(report.identity_telescope_residuals) <= 1e-9
    for row in report.finite_rank:
        assert row.max_beyond_support <= 1e-12
        assert row.limit_estimate == row.traces[-1]  # the level-5 trace, bit for bit
    for row in report.compact_family:
        assert row.max_scaled_norm <= row.envelope
    # the log-rate rate reference collapses to a inverse square root profile
    for row in report.compact_family:
        expected = report.compact_family[0].rate_reference * math.sqrt(2.0) / math.sqrt(row.level + 1.0)
        assert row.rate_reference == pytest.approx(expected, rel=1e-9)
    payload = json.loads(canonical_json(report))
    assert payload["max_level"] == 5
    assert len(payload["finite_rank"]) == 4


def test_experiment_empty_family(frame5):
    report = ob.ap_experiment(frame5, cross_constant=2.0, operator_count=0, seed=9)
    assert report.finite_rank == ()
    assert len(report.identity_trace) == 6


def test_operator_constructors_allocate_one_matrix():
    # the identity builds one d x d array and nothing more
    top = 6
    d = ob.basis_dimension(top)
    tracemalloc.start()
    try:
        built = np.eye(d, dtype=np.complex128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.shape == (d, d)
    assert peak < 1.5 * d * d * 16
    # a finite-rank operator is its filled rows: a rank-5 operator reaching
    # level 9 at truncation 10, with its trace_limit, stays under an eighth
    # of the d x d matrix it no longer is (its dense form alone was 64 MiB)
    top = 10
    d = ob.basis_dimension(top)
    frame = ob.BasisFrame(random_construction(top, 7), ExponentSchedule.log_rate(), top)
    tracemalloc.start()
    try:
        rows, values = ob.random_finite_rank_operator(top, support_level=9, rank=5, seed=3)
        limit = ob.trace_limit((rows, values), frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (5, d) and limit > 0
    assert ob.basis_dimension(8) <= rows.max() < ob.basis_dimension(9)  # support reached
    assert peak < d * d * 16 / 8


def test_operator_validation(frame4, frame5):
    # an operator is its filled rows: a bare array is refused, even a square
    # matrix of the frame's side, and so is a tuple that is not a pair
    d = frame4.dim
    bare = (np.eye(d), np.zeros((3, 7)), np.zeros((4, 4)), np.zeros(7), np.zeros((0, 0)))
    for bad in (*bare, (np.arange(d), np.eye(d), None)):
        with pytest.raises(BadParameter):
            ob.level_trace(bad, 0)
        with pytest.raises(BadParameter):
            ob.telescope_residual(bad, 0, frame4)
        with pytest.raises(BadParameter):
            ob.trace_limit(bad, frame4)
    # a dense matrix must be square of side 2^(N+1) - 1, and match the frame
    for bad in (np.eye(ob.basis_dimension(3)), np.eye(ob.basis_dimension(5))):
        with pytest.raises(BadParameter):
            ob.telescope_residual(dense_rows(bad), 0, frame4)
        with pytest.raises(BadParameter):
            ob.trace_limit(dense_rows(bad), frame4)
    with pytest.raises(BadParameter):
        ob.level_trace(dense_rows(np.zeros((4, 4))), 0)
    # filled rows: one index per row of values, each row as wide as the basis
    for bad in ((np.arange(2), np.zeros((3, d))), (np.arange(2), np.zeros((2, 15)))):
        with pytest.raises(BadParameter):
            ob.trace_limit(bad, frame4)
    for bad in ((np.array([0, 3]), np.zeros((2, 14))), (np.array([[0]]), np.zeros((1, d)))):
        with pytest.raises(BadParameter):
            ob.level_trace(bad, 0)
    for rows in ([-1], [d]):
        with pytest.raises(BadParameter, match=rf"operator rows must lie in 0\.\.{d - 1}"):
            ob.telescope_residual((np.array(rows), np.zeros((1, d))), 0, frame4)
    for bad in ({"max_rank": 0}, {"operator_count": -1}):
        with pytest.raises(BadParameter):
            ob.ap_experiment(frame4, cross_constant=2.0, **bad)
    with pytest.raises(BadParameter, match="support level exceeds the truncation"):
        ob.random_finite_rank_operator(2, support_level=3, rank=1, seed=0)


def test_ap_experiment_refuses_a_rank_whose_rows_pass_the_byte_cap(frame4, monkeypatch):
    # rank 10^12 at level 4 would ask for 10^12 x 31 complex128 rows: refused before any draw
    with pytest.raises(BadParameter, match=r"rank 1000000000000 at level 4 needs rows above"):
        ob.ap_experiment(frame4, cross_constant=2.0, operator_count=1, max_rank=10**12)
    # the cap is inclusive: rows of exactly the cap are drawn, one rank more is refused
    monkeypatch.setattr(ob, "OPERATOR_BYTES_CAP", 5 * 31 * 16)
    assert len(ob.ap_experiment(frame4, cross_constant=2.0, operator_count=1, max_rank=5).finite_rank) == 1
    with pytest.raises(BadParameter, match="rank 6 at level 4 needs rows above 2480 bytes"):
        ob.ap_experiment(frame4, cross_constant=2.0, operator_count=1, max_rank=6)


def test_traces_do_not_write_to_their_inputs(small_data, log_schedule):
    frame = ob.BasisFrame(small_data, log_schedule, 4)
    for n in range(5):  # the level arrays every kernel reads are read-only
        item = small_data.require(n)
        for arr in (item.split.anchor_index, item.split.carrier_index, item.require_signs().eps):
            assert not arr.flags.writeable
    rows, values = ob.random_finite_rank_operator(4, support_level=3, rank=4, seed=1)
    ops = [np.eye(frame.dim, dtype=np.complex128), ob.gaussian(4, seed=3)[1], rows, values]
    copies = [op.copy() for op in ops]
    for op in ops:
        op.flags.writeable = False
    for op in (dense_rows(ops[0]), dense_rows(ops[1]), (rows, values)):
        for n in range(5):
            ob.level_trace(op, n)
        for n in range(4):
            ob.telescope_residual(op, n, frame)
        ob.trace_limit(op, frame)
    for coordinate in ob.identity_stage(frame)[1]:
        assert coordinate == pytest.approx(1.0, abs=1e-12)
    for op, copy in zip(ops, copies):
        assert np.array_equal(op, copy)
