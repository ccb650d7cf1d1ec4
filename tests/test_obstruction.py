import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aplab import obstruction as ob
from aplab.discrepancy import (
    ConstructionData,
    certify_constants,
    cross_lower_matrix,
    cross_upper_matrix,
    middle_block,
    validate_partition,
)
from aplab.errors import (
    BadParameter,
    FormUnavailable,
    IndexOutOfRange,
    PartitionInvalid,
    TruncationTooSmall,
)
from aplab.mixed_norm import ExponentSchedule, z_norm, z_norms_rows
from aplab.store import canonical_json
from oracles import (
    balance_oracle,
    coeff_functional,
    cross_lower_oracle,
    cross_upper_oracle,
    telescope_vector,
)
from strategies import constructions


@pytest.fixture(scope="module")
def frame5(small_data, log_schedule):
    return ob.BasisFrame(small_data, log_schedule, 5)


@pytest.fixture(scope="module")
def frame4(small_data, log_schedule):
    return ob.BasisFrame(small_data, log_schedule, 4)


# ---------------------------------------------------------------- basis vectors


def test_basis_vector_level0(small_data, log_schedule):
    vec = ob.basis_vector(0, 1, small_data, log_schedule)
    assert vec.support_levels() == (0,)
    item = small_data.require(0)
    expected = item.require_signs().signs[0] * item.table.row(item.split.anchors[0])
    assert np.abs(vec.block(0) - expected).max() == 0.0


def test_basis_vector_lower_block_carries_previous_level(small_data, log_schedule):
    vec = ob.basis_vector(1, 1, small_data, log_schedule)
    assert vec.support_levels() == (0, 1)
    below = small_data.require(0)
    carrier_row = below.table.row(below.split.carriers[0])
    assert np.abs(vec.block(0) - carrier_row).max() == 0.0
    assert np.abs(np.abs(vec.block(0)) - 1.0).max() < 1e-15
    assert np.abs(np.abs(vec.block(1)) - 1.0).max() < 1e-15


def test_basis_vector_index_range(small_data, log_schedule):
    with pytest.raises(IndexOutOfRange):
        ob.basis_vector(2, 0, small_data, log_schedule)
    with pytest.raises(IndexOutOfRange):
        ob.basis_vector(2, 5, small_data, log_schedule)


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
    e11 = ob.basis_vector(1, 1, small_data, log_schedule)
    e01 = ob.basis_vector(0, 1, small_data, log_schedule)
    assert coeff_functional(1, 1, e11, small_data, via="own") == pytest.approx(1.0, abs=1e-12)
    assert coeff_functional(1, 1, e11, small_data, via="lower") == pytest.approx(1.0, abs=1e-12)
    assert abs(coeff_functional(1, 1, e01, small_data, via="own")) < 1e-12
    assert abs(coeff_functional(1, 2, e11, small_data, via="own")) < 1e-12


def test_lower_form_unavailable_at_level0(small_data, log_schedule):
    e01 = ob.basis_vector(0, 1, small_data, log_schedule)
    with pytest.raises(FormUnavailable):
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
    split = replace(item.split, anchors=(anchors[0],) * 2 + anchors[2:])
    data = _with_level(small_data, replace(item, split=split))
    assert ob.biorthogonality_deviation(ob.BasisFrame(data, log_schedule, 5)) >= 0.5
    with pytest.raises(PartitionInvalid):
        validate_partition(split, item.table.order)


@given(constructions(), st.integers(0, 2**16))
def test_telescoping_identity_on_random_splits(case, seed):
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    op = ob.OperatorMatrix.gaussian(top, seed=seed)
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
            vec = ob.basis_vector(n, j, data, schedule)
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
                for m, block in ob.basis_vector(n, j, data, schedule).blocks.items():
                    oracle[m] += coeffs[:, ob.basis_index(n, j), None] * block
        for m in range(top + 1):
            if m not in live:
                assert not oracle[m].any()
        every_level = {m: frame.coords_at(coeffs, m) for m in range(top + 1)}
        assert np.array_equal(frame.mixed_norms(coeffs), z_norms_rows(schedule, every_level))


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
        expected = -(2.0 ** (-n)) * signs[j - 1] * item.table.value(
            item.split.anchors[j - 1], (k - g) % k
        )
        assert tele.own_coefficients[j - 1] == pytest.approx(expected, abs=1e-15)
    for j in (1, 8):
        expected = (2.0 ** (-n - 1)) * item.table.value(item.split.carriers[j - 1], (k - g) % k)
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
    assert tele.vector.value_at(5, 0) == 0.0


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
        for n in (1, 2, 3, 4):
            report = ob.check_norm_bound(n, small_data, schedule, 2.0)
            assert report.passed
            assert report.max_norm <= report.chain_bound


@given(constructions(min_top=2, max_top=5))
def test_chunked_telescope_norms_match_the_defining_blocks(case):
    # chunks of 100 // k_{n+1} rows g, so levels 2..4 run several chunks and a tail
    top, data = case
    schedule = ExponentSchedule.log_rate()
    with mock.patch.object(ob, "_NORM_CHUNK_ENTRIES", 100):
        for n in range(top):
            item = data.require(n)
            k = item.table.order
            bal = balance_oracle(item.table, item.split)
            middle = -(2.0 ** (-n - 1)) * bal[(np.arange(k)[None, :] - np.arange(k)[:, None]) % k]
            blocks = {n: middle, n + 1: cross_upper_oracle(n, data)}
            if n >= 1:
                blocks[n - 1] = cross_lower_oracle(n, data)
            expected = z_norms_rows(schedule, blocks)
            norms = ob.telescope_norms(n, data, schedule)
            assert np.abs(norms - expected).max() <= 1e-12 * expected.max()


def test_norm_two_routes_agree(small_data, log_schedule):
    for n in (1, 2, 3):
        norms = ob.telescope_norms(n, small_data, log_schedule)
        for g in (0, 2):
            tele = telescope_vector(n, g, small_data, log_schedule)
            assert norms[g] == pytest.approx(z_norm(tele.vector), abs=1e-10)


# ---------------------------------------------------------------- operator traces


def test_identity_trace_is_one(frame5):
    ident = ob.OperatorMatrix.identity(5)
    for n in range(6):
        assert ob.level_trace(ident, n) == 1.0
        coords = ob.level_trace(ident, n, frame=frame5, via="coordinates")
        assert coords == pytest.approx(1.0, abs=1e-12)


def test_rank_one_trace(small_data):
    coeffs = np.zeros(1, dtype=np.complex128)
    coeffs[0] = 1.0
    op = ob.OperatorMatrix.rank_one_sum(4, [((0, 1), coeffs)])
    assert ob.level_trace(op, 0) == pytest.approx(1.0, abs=1e-15)
    for n in range(1, 5):
        assert abs(ob.level_trace(op, n)) == 0.0


def test_diagonal_trace():
    entries = np.arange(1, ob.basis_dimension(3) + 1).astype(np.complex128)
    op = ob.OperatorMatrix.diagonal(3, entries)
    assert ob.level_trace(op, 1) == pytest.approx((entries[1] + entries[2]) / 2.0)


def test_trace_linearity():
    s = ob.OperatorMatrix.gaussian(3, seed=1)
    t = ob.OperatorMatrix.gaussian(3, seed=2)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    for n in range(4):
        combined = ob.level_trace(s.scale(a) + t.scale(b), n)
        reference = a * ob.level_trace(s, n) + b * ob.level_trace(t, n)
        assert combined == pytest.approx(reference, abs=1e-10)


def test_trace_truncation_guard():
    op = ob.OperatorMatrix.identity(3)
    with pytest.raises(TruncationTooSmall):
        ob.level_trace(op, 4)


def test_trace_unknown_route():
    op = ob.OperatorMatrix.identity(2)
    with pytest.raises(BadParameter):
        ob.level_trace(op, 0, via="sideways")


# ---------------------------------------------------------------- telescoping identity


def test_telescope_identity_for_identity(frame5):
    ident = ob.OperatorMatrix.identity(5)
    for n in range(5):
        assert ob.telescope_residual(ident, n, frame5) < 1e-10


def test_telescope_identity_random_operators(frame4):
    for seed in range(100):
        op = ob.OperatorMatrix.gaussian(4, seed=seed)
        for n in range(4):
            assert ob.telescope_residual(op, n, frame4) < 1e-9


def test_telescope_identity_zero_operator(frame4):
    zero = ob.OperatorMatrix.zeros(4)
    for n in range(4):
        assert ob.telescope_residual(zero, n, frame4) == 0.0


def test_telescope_truncation_guard(frame4):
    op = ob.OperatorMatrix.identity(4)
    with pytest.raises(TruncationTooSmall):
        ob.telescope_residual(op, 4, frame4)


# ---------------------------------------------------------------- limits and the experiment


def test_finite_rank_traces_vanish_above_support(frame5):
    for seed in (0, 1, 2):
        op = ob.random_finite_rank_operator(5, support_level=2, rank=3, seed=seed)
        for n in range(3, 6):
            assert abs(ob.level_trace(op, n)) <= 1e-12
        limit = ob.trace_limit(op, frame5)
        assert abs(limit.estimate) <= 1e-12


def test_trace_limit_identity(frame5):
    limit = ob.trace_limit(ob.OperatorMatrix.identity(5), frame5)
    assert limit.estimate == pytest.approx(1.0, abs=1e-12)
    assert limit.tail_factor <= 1.0 / 5.0
    assert limit.tail_bound == pytest.approx(limit.tail_factor * limit.family_sup, abs=1e-12)


def _trace_limit_every_level(op, frame):
    """trace_limit with every telescoping image transformed and every level's block normed."""
    top, schedule = frame.max_level, frame.schedule

    def norms(coeffs):
        return z_norms_rows(schedule, {m: frame.coords_at(coeffs, m) for m in range(top + 1)})

    sups = [float(norms(op.matrix[:1])[0])]
    for n in range(1, top):
        item = frame.data.require(n)
        signs = np.asarray(item.require_signs().signs, dtype=np.float64)
        v = np.zeros((item.table.order, frame.dim), dtype=np.complex128)
        v[list(item.split.anchors)] = -(2.0 ** (-n)) * signs[:, None] * op.matrix[ob.level_slice(n)]
        v[list(item.split.carriers)] = 2.0 ** (-n - 1) * op.matrix[ob.level_slice(n + 1)]
        sups.append(float((n + 1) ** 2 * norms(np.fft.fft(v, axis=0)).max()))
    estimate = ob.level_trace(op, top)
    family_sup = max(sups)
    tail_factor = math.pi**2 / 6.0 - math.fsum(1.0 / m**2 for m in range(1, top + 1))
    return ob.TraceLimit(
        estimate=estimate,
        tail_factor=tail_factor,
        family_sup=family_sup,
        tail_bound=tail_factor * family_sup,
        sup_ratio=abs(estimate) / family_sup if family_sup > 0 else 0.0,
        family_max_level=top - 1,
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 9, 42])
def test_trace_limit_equals_every_level_reference_on_experiment_operators(frame5, seed):
    for _, _, op in ob.experiment_operators(5, 4, 5, 5, seed):
        assert ob.trace_limit(op, frame5) == _trace_limit_every_level(op, frame5)


def test_trace_limit_equals_every_level_reference_on_edge_operators(frame4, frame5):
    for frame in (frame4, frame5):
        top = frame.max_level
        top_row = np.zeros((frame.dim, frame.dim), dtype=np.complex128)
        top_row[ob.basis_index(top, 1), 1::2] = 0.5 - 2.0j
        ops = [
            ob.OperatorMatrix.zeros(top),
            ob.OperatorMatrix.identity(top),
            ob.OperatorMatrix(top, top_row),
        ]
        for op in ops:
            assert ob.trace_limit(op, frame) == _trace_limit_every_level(op, frame)


def test_experiment_report(small_data, frame5, log_schedule):
    report = ob.ap_experiment(frame5, cross_constant=2.0, operator_count=4, max_rank=3, seed=9)
    assert max(r.deviation for r in report.identity_trace) <= 1e-10
    assert max(report.identity_telescope_residuals) <= 1e-9
    for row in report.finite_rank:
        assert row.max_beyond_support <= 1e-12
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


def test_operator_copies_a_callers_array_and_adopts_its_own():
    top = 6
    d = ob.basis_dimension(top)
    given = np.zeros((d, d), dtype=np.complex128)
    op = ob.OperatorMatrix(top, given)
    # a caller's array is neither frozen nor aliased
    assert given.flags.writeable
    assert not np.shares_memory(op.matrix, given)
    given[0, 0] = 1.0
    assert op.matrix[0, 0] == 0.0
    # the constructors hand over the one d x d array they build, frozen in place
    builds = {
        "zeros": lambda: ob.OperatorMatrix.zeros(top),
        "identity": lambda: ob.OperatorMatrix.identity(top),
        "diagonal": lambda: ob.OperatorMatrix.diagonal(top, [1.0] * d),
        "rank_one_sum": lambda: ob.OperatorMatrix.rank_one_sum(top, [((1, 1), np.ones(3))]),
        "scale": lambda: op.scale(2.0),
        "add": lambda: op + op,
    }
    for name, build in builds.items():
        tracemalloc.start()
        try:
            built = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d * d * 16, name
        assert not built.matrix.flags.writeable, name


def test_operator_validation(frame4):
    with pytest.raises(BadParameter):
        ob.OperatorMatrix(2, np.zeros((3, 3)))
    for bad in ({"max_rank": 0}, {"operator_count": -1}):
        with pytest.raises(BadParameter):
            ob.ap_experiment(frame4, cross_constant=2.0, **bad)
    with pytest.raises(TruncationTooSmall):
        ob.random_finite_rank_operator(2, support_level=3, rank=1, seed=0)
