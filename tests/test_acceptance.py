"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a single `[criterion N]` line (visible with `pytest -s`)
and asserts the stated tolerance.  Criterion 9b checks the growth envelope
with one fixed Euclidean constant: at codimension m^(log2 log2 m) the tail's
m-dimensional subspaces stay within sqrt(2) * 2^(3*(1 + 1/(e*ln 2))) of
l_2^m, while the power schedule fails the same bound (see the test).
"""

import math
import time

import numpy as np
import pytest

from aplab import obstruction as ob
from aplab.characters import CharacterTable, build_group, verify_orthogonality
from aplab.cli import main
from aplab.discrepancy import search_character_split, search_signs
from aplab.mixed_norm import ExponentSchedule, compactness_sequence
from aplab.moduli import (
    split_sequence,
    witness_point,
)
from oracles import MixedNormVector, dense_rows, distance_bound, numeric_distance_upper

SEED = 7


def _report(num: str, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")


def test_01_character_orthogonality(tables_through_8):
    t0 = time.time()
    worst = max(verify_orthogonality(t) for t in tables_through_8)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report("1", "character orthogonality n<=8", ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_02_search_oracle_equivalence(small_data):
    t0 = time.time()
    split_ok = True
    for n in (0, 1, 2):
        table = CharacterTable(build_group(n))
        exhaustive = search_character_split(table, strategy="exhaustive")
        randomized = search_character_split(
            table, strategy="random-restart", budget=3000, seed=SEED
        )
        split_ok &= abs(exhaustive.discrepancy - randomized.discrepancy) <= 1e-9
    sign_ok = True
    for n in (0, 1, 2, 3):
        exhaustive = search_signs(n, small_data, strategy="exhaustive")
        randomized = search_signs(
            n, small_data, strategy="random-restart", budget=2560, seed=11
        )
        sign_ok &= abs(exhaustive.objective - randomized.objective) <= 1e-12
    elapsed = time.time() - t0
    ok = split_ok and sign_ok and elapsed < 30.0
    _report("2", "exhaustive vs randomized search", ok, f"{elapsed:.2f}s")
    assert split_ok and sign_ok
    assert elapsed < 30.0


def test_03_bound_certification(full_bundle):
    constants = full_bundle["constants"]
    elapsed = full_bundle["build_seconds"] + full_bundle["certify_seconds"]
    identity_worst = max(r.middle_identity_residual for r in constants.cross_rows)
    ok = (
        constants.split_constant <= 6.0
        and constants.cross_constant <= 6.0
        and identity_worst <= 1e-9
        and elapsed < 300.0
    )
    _report(
        "3",
        "certified constants n<=8",
        ok,
        f"balance {constants.split_constant:.4f}, cross {constants.cross_constant:.4f}, "
        f"middle-identity residual {identity_worst:.2e}, {elapsed:.1f}s",
    )
    assert constants.split_constant <= 6.0
    assert constants.cross_constant <= 6.0
    assert identity_worst <= 1e-9
    assert {r.level for r in constants.cross_rows} == set(range(1, 9))
    assert elapsed < 300.0


def test_04_biorthogonality_and_form_agreement(full_bundle, log_schedule):
    frame = ob.BasisFrame(full_bundle["data"], log_schedule, 9)
    bio = ob.biorthogonality_deviation(frame)
    agreement = max(ob.form_agreement_deviation(frame, n) for n in range(1, 9))
    ok = bio < 1e-9 and agreement < 1e-9
    _report(
        "4",
        "biorthogonality and form agreement n,m<=8",
        ok,
        f"biorthogonality {bio:.2e}, agreement {agreement:.2e}",
    )
    assert bio < 1e-9
    assert agreement < 1e-9


def test_05_telescoping_identity(full_bundle, log_schedule):
    frame = ob.BasisFrame(full_bundle["data"], log_schedule, 4)
    worst = 0.0
    for seed in range(100):
        op = ob.gaussian(4, seed=seed)
        for n in range(4):
            worst = max(worst, ob.telescope_residual(op, n, frame))
    ok = worst < 1e-9
    _report("5", "telescoping identity, 100 random operators at N=4", ok, f"max residual {worst:.2e}")
    assert worst < 1e-9


def test_06_telescope_norm_bound(full_bundle, log_schedule, power_schedule):
    constants = full_bundle["constants"]
    data = full_bundle["data"]
    worst_ratio = 0.0
    ok = True
    for schedule in (power_schedule, log_schedule):
        family = ob.telescope_norms(data, schedule, 9)
        for n in range(1, 9):
            bound = ob.check_norm_bound(n, schedule, constants.cross_constant)
            max_norm = float(family.norms[n].max())
            ok &= max_norm <= bound
            worst_ratio = max(worst_ratio, max_norm / bound)
    _report(
        "6",
        "telescope norm envelope n<=8, both schedules",
        ok,
        f"worst norm/bound {worst_ratio:.3f}",
    )
    assert ok


def test_07_trace_obstruction(full_bundle, log_schedule):
    frame = ob.BasisFrame(full_bundle["data"], log_schedule, 8)
    ident = dense_rows(np.eye(frame.dim, dtype=np.complex128))
    identity_dev = 0.0
    coordinates = ob.identity_stage(frame)[1]
    for n in range(9):
        identity_dev = max(identity_dev, abs(ob.level_trace(ident, n) - 1.0))
        identity_dev = max(identity_dev, abs(coordinates[n] - 1.0))
    rank_dev = 0.0
    for support in (0, 2, 4, 7):
        for seed in range(3):
            op = ob.random_finite_rank_operator(8, support_level=support, rank=3, seed=seed)
            for n in range(support + 1, 9):
                rank_dev = max(rank_dev, abs(ob.level_trace(op, n)))
    ok = identity_dev <= 1e-10 and rank_dev <= 1e-12
    _report(
        "7",
        "identity trace 1 vs finite-rank vanishing",
        ok,
        f"identity dev {identity_dev:.2e}, finite-rank dev {rank_dev:.2e}",
    )
    assert identity_dev <= 1e-10
    assert rank_dev <= 1e-12


def test_08_compactness_decay(log_schedule, power_schedule):
    rel = max(
        abs(compactness_sequence(log_schedule, n) - (n + 1) ** -0.5) / (n + 1) ** -0.5
        for n in (99, 9999)
    )
    power_window = max(compactness_sequence(power_schedule, n) for n in range(600, 2001, 50))
    power_tail = compactness_sequence(power_schedule, 5000)
    ok = rel < 1e-12 and power_window < 1.0 and power_tail < 1e-3
    _report(
        "8",
        "compactness decay",
        ok,
        f"log collapse rel err {rel:.2e}, power max on [600,2000] {power_window:.3f}, "
        f"power at 5000 {power_tail:.2e}",
    )
    assert rel < 1e-12
    assert power_window < 1.0
    assert power_tail < 1e-3


def test_09a_witness_codimension_identity(log_schedule, power_schedule):
    ok = True
    for schedule in (power_schedule, log_schedule):
        for m in (16, 100, 2**10, 2**20):
            point = witness_point(schedule, m)
            n = point.head_level
            ok &= point.codimension == 3 * (2 ** (n + 1) - 1)
            ok &= point.codimension == sum(3 * 2**j for j in range(n + 1))
    _report("9a", "witness codimension identity", ok)
    assert ok


def _envelope_head(m: int) -> int:
    """Largest head level N whose removed codimension 3*(2^{N+1}-1) fits in m^(log2 log2 m).

    The comparison is made in log2 with the relative 1e-12 guard of
    ``growth_envelope_check``.
    """
    envelope_log2 = math.log2(m) * math.log2(math.log2(m))
    guard = envelope_log2 * (1.0 + 1e-12) + 1e-12

    def fits(n: int) -> bool:
        return math.log2(3 * (2 ** (n + 1) - 1)) <= guard

    n = 0
    while fits(n + 1):
        n += 1
    return n


def test_09b_growth_envelope(log_schedule, power_schedule):
    """One Euclidean constant at codimension m^(log2 log2 m).

    Asymptotically Hilbertian means one constant K such that, for every m,
    a finite-codimensional tail has all m-dimensional subspaces
    K-isomorphic to l_2^m; quantitatively the codimension grows at most
    like m^(log2 log2 m).  For each m the envelope head N(m) is the largest
    level whose removed codimension 3*(2^{N+1}-1) fits in m^(log2 log2 m).
    The tail above N(m) is l_p-blocks with gap at most gap(N(m)+1), so its
    m-dimensional subspaces lie within distance_bound(m, p(N(m)+1)) =
    sqrt(2) * 2^(log2(m) * gap(N(m)+1)) of l_2^m.  The check is that the
    growth exponent log2(m) * gap(N(m)+1) stays below one constant.

    The constant comes from the log rate, not from the samples.  With
    L = log2 m the head is N ~ L*log2(L) and the gap is ~ 3*log2(N)/N, so
    the exponent is ~ 3*(log2 L + log2 log2 L)/log2 L = 3*(1 + log2(y)/y)
    with y = log2 L, and log2(y)/y <= 1/(e*ln 2).  Hence

        log2(m) * gap(N(m)+1) <= 3*(1 + 1/(e*ln 2)) ~ 4.592,

    a distance of at most sqrt(2) * 2^4.592 ~ 34.1.  A scan over
    4 <= log2 m <= 1e5 peaks at 4.525 near log2 m = 27.2, where the clamp
    lets go at head 126.

    This is not the comparison of the ``moduli`` envelope report, which
    fixes the Euclidean growth at 2 through the witness criterion
    gap(n+1) < 1/log2(m) and therefore needs codimension about
    m^(3*log2 log2 m); that report fails past the clamp region by design
    (see ``test_envelope_fails_beyond_clamp_region``).

    Control: the power schedule (alpha = 0.5) has no quasi-polynomial
    codimension, and at m = 2^256 its exponent 5.66 (distance 71.4)
    violates the same bound, so the check can fail.
    """
    growth_bound = 3.0 * (1.0 + 1.0 / (math.e * math.log(2.0)))
    distance_limit = math.sqrt(2.0) * 2.0**growth_bound

    def row(schedule, m):
        n = _envelope_head(m)
        envelope_log2 = math.log2(m) * math.log2(math.log2(m))
        guard = envelope_log2 * (1.0 + 1e-12) + 1e-12
        codim_log2 = math.log2(3 * (2 ** (n + 1) - 1))
        next_codim_log2 = math.log2(3 * (2 ** (n + 2) - 1))
        growth = math.log2(m) * schedule.gap(n + 1)
        distance = distance_bound(m, schedule.p(n + 1)).value
        return n, codim_log2 <= guard < next_codim_log2, growth, distance

    samples = (2**10, 2**20, 2**40, 2**64)
    rows = [row(log_schedule, m) for m in samples]
    ok = all(fit and g <= growth_bound and d <= distance_limit for _, fit, g, d in rows)
    detail = "; ".join(
        f"m=2^{int(math.log2(m))}: N {n}, exponent {g:.2f} vs {growth_bound:.3f}"
        for m, (n, _, g, _) in zip(samples, rows)
    )
    _report("9b", "one Euclidean constant at codim(m) <= m^(log2 log2 m)", ok, detail)
    for m, (n, fit, growth, distance) in zip(samples, rows):
        assert fit, f"m={m}: head {n} is not the envelope head"
        assert growth <= growth_bound, f"m={m}: {detail}"
        assert distance <= distance_limit, f"m={m}: distance {distance:.1f}"

    n, _, growth, distance = row(power_schedule, 2**256)
    assert n == 2045
    assert growth > growth_bound
    assert distance > distance_limit


def test_09c_alternating_split(power_schedule):
    result = split_sequence(power_schedule, 3)
    first = result.thresholds[0].exact
    increasing = list(result.indices) == sorted(set(result.indices))
    ok = first == 250 and increasing
    _report("9c", "split threshold 250 and increasing indices", ok, f"indices {result.indices[:2]}...")
    assert first == 250
    assert increasing


def test_10_distance_oracle():
    sched = ExponentSchedule.explicit([3.0, 3.0])
    same_block = [MixedNormVector.single(sched, 0, 0), MixedNormVector.single(sched, 0, 1)]
    est1 = numeric_distance_upper(same_block, samples=256, seed=1)
    cross_level = [MixedNormVector.single(sched, 0, 0), MixedNormVector.single(sched, 1, 0)]
    est2 = numeric_distance_upper(cross_level, samples=128, seed=1)
    dev1 = abs(est1.ratio - 2.0 ** (1.0 / 6.0))
    dev2 = abs(est2.ratio - 1.0)
    ok = dev1 <= 1e-3 and dev2 <= 1e-9
    _report(
        "10",
        "distance oracle",
        ok,
        f"same-block ratio {est1.ratio:.6f} (dev {dev1:.1e}), cross-level dev {dev2:.1e}",
    )
    assert dev1 <= 1e-3
    assert dev2 <= 1e-9


def test_11_determinism(tmp_path):
    args = (
        "--max-level", "3", "--schedule", "log",
        "--budget", "64", "--sign-budget", "16", "--seed", "7",
    )
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        assert main(["build", *args, "--out", str(out)]) == 0
        assert main(["verify", "--schedule", "log", "--out", str(out)]) == 0
        assert main(["ap", "--schedule", "log", "--out", str(out)]) == 0
        assert main([
            "moduli", "--schedule", "log", "--out", str(out),
            "--m-samples", "32,1024", "--depth", "2",
        ]) == 0
    files = sorted(p for p in outs[0].rglob("*") if p.is_file())
    mismatched = [
        str(p.relative_to(outs[0]))
        for p in files
        if (outs[1] / p.relative_to(outs[0])).read_bytes() != p.read_bytes()
    ]
    ok = bool(files) and not mismatched
    _report("11", "byte-identical reruns", ok, f"{len(files)} files compared")
    assert files
    assert not mismatched
