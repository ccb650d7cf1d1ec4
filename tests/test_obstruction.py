import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aplab import obstruction as ob
from aplab.discrepancy import certify_constants
from aplab.errors import (
    BadParameter,
    FormUnavailable,
    IndexOutOfRange,
    TruncationTooSmall,
)
from aplab.mixed_norm import ExponentSchedule, z_norm
from aplab.store import canonical_json
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
    assert ob.coeff_functional(1, 1, e11, small_data, via="own") == pytest.approx(1.0, abs=1e-12)
    assert ob.coeff_functional(1, 1, e11, small_data, via="lower") == pytest.approx(1.0, abs=1e-12)
    assert abs(ob.coeff_functional(1, 1, e01, small_data, via="own")) < 1e-12
    assert abs(ob.coeff_functional(1, 2, e11, small_data, via="own")) < 1e-12


def test_lower_form_unavailable_at_level0(small_data, log_schedule):
    e01 = ob.basis_vector(0, 1, small_data, log_schedule)
    with pytest.raises(FormUnavailable):
        ob.coeff_functional(0, 1, e01, small_data, via="lower")


def test_both_forms_agree_on_telescope_vectors(small_data, log_schedule):
    for n in (1, 2, 3):
        k = small_data.require(n).table.order
        for g in range(0, k, max(1, k // 5)):
            tele = ob.telescope_vector(n, g, small_data, log_schedule)
            for j in (1, 1 << n):
                own = ob.coeff_functional(n, j, tele.vector, small_data, via="own")
                low = ob.coeff_functional(n, j, tele.vector, small_data, via="lower")
                assert own == pytest.approx(low, abs=1e-10)
                assert own == pytest.approx(complex(tele.own_coefficients[j - 1]), abs=1e-10)


@given(constructions())
def test_biorthogonality_on_random_splits(case):
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    assert ob.biorthogonality_deviation(frame) < 1e-9


@given(constructions(), st.integers(0, 2**16))
def test_telescoping_identity_on_random_splits(case, seed):
    top, data = case
    frame = ob.BasisFrame(data, ExponentSchedule.log_rate(), top)
    op = ob.OperatorMatrix.gaussian(top, seed=seed)
    assert max(ob.telescope_residual(op, n, frame) for n in range(top)) < 1e-9


def test_form_agreement_batched(frame5):
    for n in (1, 2, 3, 4):
        assert ob.form_agreement_deviation(frame5, n) < 1e-9


# ---------------------------------------------------------------- telescope vectors


def test_telescope_vector_coefficients(small_data, log_schedule):
    n, g = 2, 7
    item = small_data.require(n)
    tele = ob.telescope_vector(n, g, small_data, log_schedule)
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
        lower, middle, upper = ob.telescope_blocks(n, small_data)
        for g in (0, 3, small_data.require(n).table.order - 1):
            tele = ob.telescope_vector(n, g, small_data, log_schedule)
            assert np.abs(tele.vector.block(n - 1) - lower[g]).max() < 1e-12
            assert np.abs(tele.vector.block(n) - middle[g]).max() < 1e-12
            assert np.abs(tele.vector.block(n + 1) - upper[g]).max() < 1e-12


def test_telescope_vector_support(small_data, log_schedule):
    tele = ob.telescope_vector(2, 1, small_data, log_schedule)
    assert tele.vector.support_levels() == (1, 2, 3)
    assert tele.vector.value_at(5, 0) == 0.0


def test_level0_telescope_vector(small_data, log_schedule):
    tele = ob.telescope_vector(0, 1, small_data, log_schedule)
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


def test_norm_two_routes_agree(small_data, log_schedule):
    for n in (1, 2, 3):
        norms = ob.telescope_norms(n, small_data, log_schedule)
        for g in (0, 2):
            tele = ob.telescope_vector(n, g, small_data, log_schedule)
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


def test_operator_validation():
    with pytest.raises(BadParameter):
        ob.OperatorMatrix(2, np.zeros((3, 3)))
    with pytest.raises(TruncationTooSmall):
        ob.random_finite_rank_operator(2, support_level=3, rank=1, seed=0)
