"""Hilbert-closeness diagnostics of the mixed-norm space.

Given a dimension m, the witness head is the smallest level n whose tail
(all blocks above n) has every m-dimensional subspace within a uniform
distance of Euclidean space; the criterion from the cotype chain is

    0 < gap(n+1) < 1 / log2(m),

and removing levels 0..n costs codimension 3*(2^{n+1} - 1).  The growth
envelope report compares that codimension against m^(log2 log2 m), logs
base 2 throughout.  The witness fixes the Euclidean growth
2^(log2(m) * gap(n+1)) below 2, so the report compares the 2-Euclidean
witness, and past the clamp region (m >= 64 on the log schedule) it is
expected to fail: the log rate needs codimension about m^(3*log2 log2 m)
for that constant.  Acceptance criterion 9b checks the fixed-constant form
instead: at the largest head whose codimension fits in m^(log2 log2 m),
the growth exponent stays below the one constant 3*(1 + 1/(e*ln 2)).
The alternating split selects a subsequence of levels
whose thresholds m_j = 2 * 5^(sum of selected block sizes) keep small
subspaces 2-Euclidean, and partitions the level indices into two
alternating range unions.  A sampling oracle upper-bounds the distance to
Euclidean space for spans of up to four vectors.

Codimensions and split data use exact integers while their decimal form
prints (up to ``store.EXACT_INT_BITS`` bits); beyond that a codimension is
null and carries its base-2 logarithm, and a threshold carries base-2
logarithms (or iterated logarithms), flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characters import block_size
from .errors import (
    AplabError,
    BadParameter,
    DegenerateBasis,
    DepthUnreachable,
    DimensionTooLarge,
    NoWitness,
)
from .mixed_norm import ExponentSchedule, MixedNormVector, z_norms_rows
from .store import EXACT_INT, EXACT_INT_BITS

_SEARCH_LIMIT = 1 << 200  # witness searches refuse to pass this level


@dataclass(frozen=True)
class TypeCotypeConstants:
    """Configured bounds c1 (type 2) and c2 (cotype) entering the distance chain."""

    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self) -> None:
        if self.c1 < 1.0 or self.c2 < 1.0:
            raise BadParameter("type/cotype constants must be >= 1")

    @property
    def iso_constant(self) -> float:
        return 2.0 * math.sqrt(2.0) * self.c1 * self.c2


def _gap_safe(schedule: ExponentSchedule, n: int) -> Optional[float]:
    try:
        return schedule.gap(n)
    except BadParameter:
        return None  # explicit list exhausted


def _first_level(
    schedule: ExponentSchedule, start: int, ok: Callable[[int], bool], error: AplabError
) -> int:
    """Smallest level n >= start with ok(n); ok must stay true once true.

    An explicit list is scanned, since doubling could jump past the feasible
    window; otherwise the level is bracketed by doubling and then bisected.
    Raises ``error`` when no level qualifies.
    """
    if schedule.kind == "explicit":
        assert schedule.p_list is not None
        found = next((n for n in range(start, len(schedule.p_list)) if ok(n)), None)
        if found is None:
            raise error
        return found
    if ok(start):
        return start
    hi = max(2 * start, 1)
    while not ok(hi):
        hi *= 2
        if hi > _SEARCH_LIMIT:
            raise error
    lo = max(start, hi // 2)  # ok(lo) is False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def witness_point(
    schedule: ExponentSchedule,
    m: int,
    constants: TypeCotypeConstants = TypeCotypeConstants(),
) -> "WitnessPoint":
    """Smallest head level certifying m-dimensional tail subspaces.

    Returns the smallest n >= 0 with 0 < gap(n+1) < 1/log2(m) together with
    the exact codimension 3*(2^{n+1} - 1) of the removed head, or None when
    it has more than ``EXACT_INT_BITS`` bits (n + 3 bounds them).
    """
    if m < 2:
        raise BadParameter(f"dimension must be >= 2, got {m}")
    threshold = 1.0 / math.log2(m)

    def ok(n: int) -> bool:
        g = _gap_safe(schedule, n + 1)
        return g is not None and 0.0 < g < threshold

    missing = NoWitness(f"no level within the search range has gap(n+1) below 1/log2({m})")
    head = _first_level(schedule, 0, ok, missing)
    return WitnessPoint(
        m=m,
        head_level=head,
        codimension=3 * ((1 << (head + 1)) - 1) if head + 3 <= EXACT_INT_BITS else None,
        iso_constant=constants.iso_constant,
        gap_after_head=schedule.gap(head + 1),
        threshold=threshold,
    )


@dataclass(frozen=True)
class WitnessPoint:
    m: int
    head_level: int
    codimension: Optional[int] = field(metadata=EXACT_INT)
    iso_constant: float
    gap_after_head: float
    threshold: float


@dataclass(frozen=True)
class DistanceBound:
    """Distance-to-Euclidean bound sqrt(2)*c1*c2*m^{1/2 - 1/p} with its cap."""

    value: float
    cap: float
    cap_applies: bool


def distance_bound(
    m: int, p: float, constants: TypeCotypeConstants = TypeCotypeConstants()
) -> DistanceBound:
    """Cotype-chain bound for an m-dimensional subspace of an l_p tail."""
    if m < 1:
        raise BadParameter(f"dimension must be >= 1, got {m}")
    if not 2.0 < p <= 3.0:
        raise BadParameter(f"block exponent must lie in (2, 3], got {p}")
    growth = 2.0 ** ((0.5 - 1.0 / p) * math.log2(m))
    value = math.sqrt(2.0) * constants.c1 * constants.c2 * growth
    return DistanceBound(
        value=value,
        cap=constants.iso_constant,
        cap_applies=growth <= 2.0,
    )


@dataclass(frozen=True)
class EnvelopeRow:
    m: int
    skipped: bool
    head_level: Optional[int]
    codimension: Optional[int] = field(metadata=EXACT_INT)
    codimension_log2: Optional[float]
    envelope_log2: Optional[float]
    passed: Optional[bool]


@dataclass(frozen=True)
class GrowthEnvelopeReport:
    rows: Tuple[EnvelopeRow, ...]

    @property
    def passed(self) -> bool:
        checked = [r for r in self.rows if not r.skipped]
        return all(bool(r.passed) for r in checked)


def growth_envelope_check(
    schedule: ExponentSchedule, m_samples: Sequence[int]
) -> GrowthEnvelopeReport:
    """Compare witness codimensions against the envelope m^(log2 log2 m).

    The witness is 2-Euclidean (see ``witness_point``), so on the log
    schedule every sample past the clamp region is expected to fail; the
    fixed-constant form of the envelope is checked by acceptance criterion
    9b, not here.  Samples below 16 are skipped (the envelope exponent must
    be positive).  The integer codimension is compared in log2 against the envelope
    exponent inflated by a relative 1e-12 guard, so float rounding can only
    err on the generous side.  A codimension too long to keep exactly is
    log2(3) + head + 1 in log2, which it is to float precision there.
    """
    rows: List[EnvelopeRow] = []
    for m in m_samples:
        if m < 16:
            rows.append(
                EnvelopeRow(
                    m=m, skipped=True, head_level=None, codimension=None,
                    codimension_log2=None, envelope_log2=None, passed=None,
                )
            )
            continue
        point = witness_point(schedule, m)
        envelope_log2 = math.log2(m) * math.log2(math.log2(m))
        codim = point.codimension
        codim_log2 = math.log2(3.0) + point.head_level + 1 if codim is None else math.log2(codim)
        guard = envelope_log2 * (1.0 + 1e-12) + 1e-12
        rows.append(
            EnvelopeRow(
                m=m,
                skipped=False,
                head_level=point.head_level,
                codimension=point.codimension,
                codimension_log2=codim_log2,
                envelope_log2=envelope_log2,
                passed=codim_log2 <= guard,
            )
        )
    return GrowthEnvelopeReport(rows=tuple(rows))


# ----------------------------------------------------------------------
# alternating split
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SplitThreshold:
    """Dimension threshold 2 * 5^E of one split step.

    ``exact`` is the full integer and ``five_exponent`` the exact exponent
    E while each has at most ``EXACT_INT_BITS`` bits, so that it prints;
    ``log2_value`` log2 of the threshold while finite; ``log2_log2_value``
    always carries the iterated logarithm.
    """

    step: int
    five_exponent: Optional[int] = field(metadata=EXACT_INT)
    exact: Optional[int] = field(metadata=EXACT_INT)
    log2_value: float
    log2_log2_value: float
    display: str


@dataclass(frozen=True)
class SplitResult:
    indices: Tuple[int, ...]
    thresholds: Tuple[SplitThreshold, ...]
    first_ranges: Tuple[Tuple[int, Optional[int]], ...]
    second_ranges: Tuple[Tuple[int, Optional[int]], ...]
    margins: Tuple[float, ...]


def split_sequence(schedule: ExponentSchedule, depth: int) -> SplitResult:
    """Select split levels n_1 < ... < n_depth and the alternating ranges.

    n_1 = 0; after choosing n_1..n_j the threshold is m_j = 2 * 5^(sum of
    chosen block sizes) and n_{j+1} is the smallest level whose gap g
    satisfies m_j^g <= 2.  Index sets alternate: ranges starting at odd
    selections belong to the first set.  Exact integers are kept up to
    ``EXACT_INT_BITS`` bits; once a threshold only fits as an iterated
    logarithm the next index cannot be pinned exactly and the depth is
    unreachable.
    """
    if depth < 1:
        raise BadParameter(f"depth must be >= 1, got {depth}")
    indices: List[int] = [0]
    thresholds: List[SplitThreshold] = []
    margins: List[float] = []

    exponent: Optional[int] = block_size(0)  # sum of selected block sizes
    log2_exponent = math.log2(exponent)

    for j in range(1, depth + 1):
        log2_m = math.inf  # unless the exponent is exact and a float holds it
        if exponent is not None:
            log2_exponent = math.log2(exponent)
            if exponent.bit_length() < 1024:
                log2_m = 1.0 + exponent * math.log2(5.0)
        log2_log2_m = math.log2(log2_m) if math.isfinite(log2_m) else (
            log2_exponent + math.log2(math.log2(5.0))
        )
        exact = 2 * 5**exponent if log2_m < EXACT_INT_BITS else None
        if exponent is not None:
            display = f"2*5^{exponent}"
        else:
            display = f"2*5^(~2^{log2_exponent:.6g})"
        thresholds.append(
            SplitThreshold(
                step=j,
                five_exponent=exponent,
                exact=exact,
                log2_value=log2_m,
                log2_log2_value=log2_log2_m,
                display=display,
            )
        )
        if j == depth:
            break
        if not math.isfinite(log2_m):
            raise DepthUnreachable(
                f"threshold {j} is only representable as an iterated logarithm; "
                f"the next split index cannot be computed exactly"
            )
        bound = 1.0 / log2_m

        def ok(n: int) -> bool:
            g = _gap_safe(schedule, n)
            return g is not None and g <= bound

        missing = DepthUnreachable(f"no level within the search range has gap <= {bound}")
        nxt = _first_level(schedule, indices[-1] + 1, ok, missing)
        margins.append(schedule.gap(nxt) * log2_m)
        indices.append(nxt)
        total = exponent + block_size(nxt) if exponent is not None and nxt < EXACT_INT_BITS else None
        if total is not None and total.bit_length() <= EXACT_INT_BITS:
            exponent = total
        else:
            add_log2 = math.log2(3.0) + nxt
            log2_exponent = _log2_add(
                math.log2(exponent) if exponent is not None else log2_exponent,
                add_log2,
            )
            exponent = None

    first: List[Tuple[int, Optional[int]]] = []
    second: List[Tuple[int, Optional[int]]] = []
    for i, start in enumerate(indices):
        end = indices[i + 1] if i + 1 < len(indices) else None
        (first if i % 2 == 0 else second).append((start, end))
    return SplitResult(
        indices=tuple(indices),
        thresholds=tuple(thresholds),
        first_ranges=tuple(first),
        second_ranges=tuple(second),
        margins=tuple(margins),
    )


def _log2_add(a: float, b: float) -> float:
    """log2(2^a + 2^b) without leaving the log domain."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


# ----------------------------------------------------------------------
# sampling distance oracle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceEstimate:
    """Norm-ratio estimate over the Euclidean coefficient sphere.

    ``ratio`` approaches the true max/min ratio from below as sampling is
    refined; ``sampling_error`` is a conservative allowance for the
    remaining gap, derived from the Lipschitz constant of the norm and the
    start-point coverage.
    """

    ratio: float
    max_norm: float
    min_norm: float
    sampling_error: float
    samples: int


def numeric_distance_upper(
    basis: Sequence[MixedNormVector],
    samples: int = 256,
    seed: int = 0,
) -> DistanceEstimate:
    """Estimate max/min of the mixed norm over the unit coefficient sphere.

    Handles spans of at most four vectors.  Deterministic multistart
    (coordinate vertices, real and imaginary diagonals, seeded random
    points) followed by shrinking local refinement; the result is a lower
    estimate of the coordinate-map condition number, reported as an upper
    bound on the distance to Euclidean space with its sampling error.
    """
    d = len(basis)
    if d == 0:
        raise BadParameter("at least one vector is required")
    if d > 4:
        raise DimensionTooLarge(f"the oracle handles at most 4 vectors, got {d}")
    if samples < 1:
        raise BadParameter(f"samples must be >= 1, got {samples}")
    schedule = basis[0].schedule
    if any(v.schedule != schedule for v in basis):
        raise BadParameter("all vectors must share one schedule")

    levels = sorted({m for v in basis for m in v.support_levels()})
    if not levels:
        raise DegenerateBasis("all vectors are zero")
    stacks: Dict[int, np.ndarray] = {}
    for m in levels:
        rows = [
            v.block(m) if v.block(m) is not None else np.zeros(block_size(m), dtype=np.complex128)
            for v in basis
        ]
        stacks[m] = np.stack(rows)

    flat = np.hstack([stacks[m] for m in levels])
    sing = np.linalg.svd(flat, compute_uv=False)
    if sing[-1] <= 1e-10 * sing[0]:
        raise DegenerateBasis("basis vectors are numerically dependent")

    def norms_of(cs: np.ndarray) -> np.ndarray:
        blocks = {m: cs @ stacks[m] for m in levels}
        return z_norms_rows(schedule, blocks)

    starts: List[np.ndarray] = []
    eye = np.eye(d, dtype=np.complex128)
    starts.extend(eye)
    for i in range(d):
        for j in range(i + 1, d):
            for phase in (1.0, -1.0, 1.0j, -1.0j):
                starts.append((eye[i] + phase * eye[j]) / math.sqrt(2.0))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 606))))
    rand = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    points = np.vstack([np.stack(starts), rand])

    vals = norms_of(points)
    c_max = points[int(np.argmax(vals))]
    c_min = points[int(np.argmin(vals))]

    def refine(c0: np.ndarray, maximize: bool, stream: int) -> Tuple[np.ndarray, float]:
        local = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, 607, stream)))
        )
        c = c0.copy()
        best = float(norms_of(c[None, :])[0])
        step = 0.25
        while step > 1e-10:
            props = c[None, :] + step * (
                local.standard_normal((32, d)) + 1j * local.standard_normal((32, d))
            )
            props /= np.linalg.norm(props, axis=1, keepdims=True)
            pv = norms_of(props)
            idx = int(np.argmax(pv)) if maximize else int(np.argmin(pv))
            cand = float(pv[idx])
            if (cand > best) if maximize else (cand < best):
                c = props[idx]
                best = cand
            else:
                step *= 0.5
        return c, best

    _, max_norm = refine(c_max, maximize=True, stream=0)
    _, min_norm = refine(c_min, maximize=False, stream=1)

    vec_norms = norms_of(eye)
    lipschitz = float(np.sqrt((vec_norms**2).sum()))
    coverage = 2.0 * len(points) ** (-1.0 / max(1, 2 * d - 1))
    slack = lipschitz * coverage
    if min_norm - slack > 0:
        error = (max_norm + slack) / (min_norm - slack) - max_norm / min_norm
    else:
        error = math.inf
    ratio = max(1.0, max_norm / min_norm)
    return DistanceEstimate(
        ratio=ratio,
        max_norm=max_norm,
        min_norm=min_norm,
        sampling_error=error,
        samples=len(points),
    )
