"""Basis vectors, coefficient functionals, and the trace obstruction.

Basis vector (n, j), j = 1..2^n, lives on two neighbouring blocks:

    e_{n,j}(g) = chi_{carrier^{n-1}_j}(g)          g in level n-1  (n >= 1)
    e_{n,j}(g) = eps^n_j * chi_{anchor^n_j}(g)     g in level n

Character orthogonality makes the coefficient functionals biorthogonal to
the basis, with two equivalent integral forms (own level and lower level).
The level trace of an operator matrix T averages its diagonal basis
coefficients at one level,

    trace_n(T) = 2^{-n} sum_j  alpha_{n,j}(T e_{n,j}),

so trace_n(identity) = 1 at every level, while consecutive traces differ by
an average of T evaluated on the telescoping vectors:

    trace_{n+1}(T) - trace_n(T) = (3 * 2^n)^{-1} sum_{g in level n} T(tele_{n,g})(g).

Scaled telescoping vectors form the compact test family, whose norms the
schedule's decay sequence controls.  Flat basis indexing is (n, j) ->
2^n - 1 + (j - 1); operator matrices hold the coefficient of basis b in the
image of basis a at [a, b].

Everything here is pure and operates on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characters import block_size
from .discrepancy import (
    ConstructionData,
    cross_lower_matrix,
    cross_upper_matrix,
    middle_block,
    split_discrepancy,  # unused here; kept so profilers can wrap it by this name
    cross_bound_scale,
)
from .errors import (
    BadParameter,
    FormUnavailable,
    IndexOutOfRange,
    TruncationTooSmall,
)
from .mixed_norm import (
    ExponentSchedule,
    MixedNormVector,
    compactness_sequence,
    z_norm,
    z_norms_rows,
)

NORM_CHAIN_FACTOR = 3.0 * math.sqrt(2.0)


def basis_dimension(max_level: int) -> int:
    """Number of basis vectors through ``max_level``: 2^{N+1} - 1."""
    return (1 << (max_level + 1)) - 1


def basis_index(n: int, j: int) -> int:
    """Flat index of basis vector (n, j), j 1-based."""
    if n < 0:
        raise IndexOutOfRange(f"level must be nonnegative, got {n}")
    if not 1 <= j <= (1 << n):
        raise IndexOutOfRange(f"basis index {j} outside 1..{1 << n} at level {n}")
    return (1 << n) - 1 + (j - 1)


def level_slice(n: int) -> slice:
    return slice((1 << n) - 1, (1 << (n + 1)) - 1)


def basis_vector(
    n: int, j: int, data: ConstructionData, schedule: ExponentSchedule
) -> MixedNormVector:
    """Basis vector (n, j) realized on its two supporting blocks."""
    basis_index(n, j)  # validates the range
    here = data.require(n)
    signs = here.require_signs().signs
    blocks: Dict[int, np.ndarray] = {
        n: signs[j - 1] * here.table.row(here.split.anchors[j - 1])
    }
    if n >= 1:
        below = data.require(n - 1)
        blocks[n - 1] = below.table.row(below.split.carriers[j - 1]).copy()
    return MixedNormVector(schedule=schedule, blocks=blocks)


def coeff_functional(
    n: int,
    j: int,
    f: MixedNormVector,
    data: ConstructionData,
    via: str = "own",
) -> complex:
    """Coefficient functional alpha_{n,j} applied to f.

    via="own"    (3*2^n)^{-1}   sum_{g in level n}   eps_j chi_{anchor_j}(-g) f(g)
    via="lower"  (3*2^{n-1})^{-1} sum_{g in level n-1} chi_{carrier_j}(-g) f(g)

    The two forms agree on the span of the basis; the lower form needs
    n >= 1.
    """
    basis_index(n, j)
    here = data.require(n)
    if via == "own":
        blk = f.block(n)
        if blk is None:
            return 0.0 + 0.0j
        row = here.table.row_at_inverse(here.split.anchors[j - 1])
        eps = here.require_signs().signs[j - 1]
        return complex(eps * (row @ blk) / here.table.order)
    if via == "lower":
        if n < 1:
            raise FormUnavailable("the lower-level form does not exist at level 0")
        below = data.require(n - 1)
        blk = f.block(n - 1)
        if blk is None:
            return 0.0 + 0.0j
        row = below.table.row_at_inverse(below.split.carriers[j - 1])
        return complex((row @ blk) / below.table.order)
    raise BadParameter(f"unknown functional form {via!r}")


@dataclass(frozen=True)
class TelescopeVector:
    """Telescoping vector at (level n, element g), both representations.

    ``own_coefficients[j-1]`` multiplies basis (n, j), ``upper_coefficients
    [j-1]`` basis (n+1, j); ``vector`` is the same element realized on the
    coordinate blocks n-1, n, n+1.
    """

    level: int
    element: int
    own_coefficients: np.ndarray
    upper_coefficients: np.ndarray
    vector: MixedNormVector


def telescope_vector(
    n: int, g: int, data: ConstructionData, schedule: ExponentSchedule
) -> TelescopeVector:
    """Build the telescoping vector at (n, g) from its basis expansion."""
    here = data.require(n)
    k = here.table.order
    if not 0 <= g < k:
        raise IndexOutOfRange(f"element {g} outside [0, {k})")
    signs_here = np.asarray(here.require_signs().signs, dtype=np.float64)
    anchors_inv = here.table.rows_at_inverse(here.split.anchors)  # (2^n, k)
    carriers_inv = here.table.rows_at_inverse(here.split.carriers)  # (2^{n+1}, k)
    own = -(2.0 ** (-n)) * signs_here * anchors_inv[:, g]
    upper = (2.0 ** (-n - 1)) * carriers_inv[:, g]

    above = data.require(n + 1)
    signs_above = np.asarray(above.require_signs().signs, dtype=np.float64)
    blocks: Dict[int, np.ndarray] = {}
    anchor_rows_here = here.table.rows(here.split.anchors)
    carrier_rows_here = here.table.rows(here.split.carriers)
    anchor_rows_above = above.table.rows(above.split.anchors)
    blocks[n] = own @ (signs_here[:, None] * anchor_rows_here) + upper @ carrier_rows_here
    blocks[n + 1] = upper @ (signs_above[:, None] * anchor_rows_above)
    if n >= 1:
        below = data.require(n - 1)
        carrier_rows_below = below.table.rows(below.split.carriers)
        blocks[n - 1] = own @ carrier_rows_below
    return TelescopeVector(
        level=n,
        element=g,
        own_coefficients=own,
        upper_coefficients=upper,
        vector=MixedNormVector(schedule=schedule, blocks=blocks),
    )


def telescope_blocks(
    n: int, data: ConstructionData
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Value matrices of all level-n telescoping vectors, one row per g.

    Returns (lower, middle, upper); lower is None at level 0.
    """
    lower = cross_lower_matrix(n, data) if n >= 1 else None
    return lower, middle_block(n, data), cross_upper_matrix(n, data)


def telescope_norms(
    n: int, data: ConstructionData, schedule: ExponentSchedule
) -> np.ndarray:
    """Mixed norms of every level-n telescoping vector, indexed by g."""
    lower, middle, upper = telescope_blocks(n, data)
    blocks: Dict[int, np.ndarray] = {n: middle, n + 1: upper}
    if lower is not None:
        blocks[n - 1] = lower
    return z_norms_rows(schedule, blocks)


@dataclass(frozen=True)
class NormBoundReport:
    level: int
    max_norm: float
    bound: float
    passed: bool
    chain_terms: Tuple[float, ...]
    chain_bound: float


def check_norm_bound(
    n: int,
    data: ConstructionData,
    schedule: ExponentSchedule,
    constant: float,
) -> NormBoundReport:
    """Check the mixed-norm envelope of the level-n telescoping vectors.

    The bound is 3*sqrt(2)*constant*(n+1)^{1/2} * 2^{-n * gap(n+1)}; the
    three-block chain that produces it is recomputed for display.
    """
    if n < 1:
        raise BadParameter("norm bound reports start at level 1")
    norms = telescope_norms(n, data, schedule)
    max_norm = float(norms.max())
    gap_next = schedule.gap(n + 1)
    bound = NORM_CHAIN_FACTOR * constant * math.sqrt(n + 1.0) * 2.0 ** (-n * gap_next)
    point = (constant * cross_bound_scale(n)) ** 2
    chain_terms = tuple(
        point * block_size(m) ** (2.0 / schedule.p(m)) for m in (n - 1, n, n + 1)
    )
    return NormBoundReport(
        level=n,
        max_norm=max_norm,
        bound=bound,
        passed=max_norm <= bound,
        chain_terms=chain_terms,
        chain_bound=math.sqrt(sum(chain_terms)),
    )


# ----------------------------------------------------------------------
# operator matrices and traces
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorMatrix:
    """Operator on the basis span truncated at ``max_level``.

    ``matrix[a, b]`` is the coefficient of basis b in the image of basis a.
    """

    max_level: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = basis_dimension(self.max_level)
        arr = np.array(self.matrix, dtype=np.complex128)
        if arr.shape != (d, d):
            raise BadParameter(f"matrix must be {d}x{d} for max level {self.max_level}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return basis_dimension(self.max_level)

    @classmethod
    def zeros(cls, max_level: int) -> "OperatorMatrix":
        d = basis_dimension(max_level)
        return cls(max_level, np.zeros((d, d), dtype=np.complex128))

    @classmethod
    def identity(cls, max_level: int) -> "OperatorMatrix":
        return cls(max_level, np.eye(basis_dimension(max_level), dtype=np.complex128))

    @classmethod
    def diagonal(cls, max_level: int, entries: Sequence[complex]) -> "OperatorMatrix":
        d = basis_dimension(max_level)
        if len(entries) != d:
            raise BadParameter(f"need {d} diagonal entries")
        return cls(max_level, np.diag(np.asarray(entries, dtype=np.complex128)))

    @classmethod
    def gaussian(cls, max_level: int, seed: int) -> "OperatorMatrix":
        d = basis_dimension(max_level)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 404))))
        mat = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
        return cls(max_level, mat)

    @classmethod
    def rank_one_sum(
        cls,
        max_level: int,
        terms: Sequence[Tuple[Tuple[int, int], np.ndarray]],
    ) -> "OperatorMatrix":
        """Sum of functional (x) vector terms.

        Each term ((n, j), coeffs) maps x to alpha_{n,j}(x) * y where y has
        basis coefficients ``coeffs`` (padded with zeros up to the
        truncation); by biorthogonality this fills row (n, j).
        """
        d = basis_dimension(max_level)
        mat = np.zeros((d, d), dtype=np.complex128)
        for (n, j), coeffs in terms:
            row = basis_index(n, j)
            if row >= d:
                raise TruncationTooSmall(f"functional level {n} exceeds truncation {max_level}")
            arr = np.asarray(coeffs, dtype=np.complex128)
            if len(arr) > d:
                raise TruncationTooSmall("vector coefficients exceed the truncation")
            mat[row, : len(arr)] += arr
        return cls(max_level, mat)

    def scale(self, factor: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.max_level, factor * self.matrix)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.max_level != self.max_level:
            raise BadParameter("cannot add operators with different truncations")
        return OperatorMatrix(self.max_level, self.matrix + other.matrix)


class BasisFrame:
    """Cached coordinate and functional matrices for one truncation.

    coord_matrix(m)[b]   coordinates of basis b on level m
    functional_matrix(n) own-form functional rows over level n
    telescope_coeff_matrix(n)[g] basis coefficients of tele_{n,g}
    """

    def __init__(
        self, data: ConstructionData, schedule: ExponentSchedule, max_level: int
    ) -> None:
        for n in range(max_level + 1):
            data.require(n).require_signs()
        self.data = data
        self.schedule = schedule
        self.max_level = max_level
        self.dim = basis_dimension(max_level)
        self._coord: Dict[int, np.ndarray] = {}
        self._functional: Dict[int, np.ndarray] = {}
        self._lower_functional: Dict[int, np.ndarray] = {}
        self._telescope: Dict[int, np.ndarray] = {}

    def coord_matrix(self, m: int) -> np.ndarray:
        if m not in self._coord:
            if not 0 <= m <= self.max_level:
                raise IndexOutOfRange(f"level {m} outside truncation 0..{self.max_level}")
            item = self.data.require(m)
            k = item.table.order
            out = np.zeros((self.dim, k), dtype=np.complex128)
            signs = np.asarray(item.require_signs().signs, dtype=np.float64)
            out[level_slice(m)] = signs[:, None] * item.table.rows(item.split.anchors)
            if m + 1 <= self.max_level:
                out[level_slice(m + 1)] = item.table.rows(item.split.carriers)
            out.flags.writeable = False
            self._coord[m] = out
        return self._coord[m]

    def functional_matrix(self, n: int) -> np.ndarray:
        if n not in self._functional:
            item = self.data.require(n)
            signs = np.asarray(item.require_signs().signs, dtype=np.float64)
            rows = item.table.rows_at_inverse(item.split.anchors)
            out = signs[:, None] * rows / item.table.order
            out.flags.writeable = False
            self._functional[n] = out
        return self._functional[n]

    def lower_functional_matrix(self, n: int) -> np.ndarray:
        if n not in self._lower_functional:
            if n < 1:
                raise FormUnavailable("the lower-level form does not exist at level 0")
            below = self.data.require(n - 1)
            rows = below.table.rows_at_inverse(below.split.carriers)
            out = rows / below.table.order
            out.flags.writeable = False
            self._lower_functional[n] = out
        return self._lower_functional[n]

    def telescope_coeff_matrix(self, n: int) -> np.ndarray:
        if n not in self._telescope:
            if not 0 <= n <= self.max_level - 1:
                raise TruncationTooSmall(
                    f"telescoping at level {n} needs level {n + 1} inside the truncation"
                )
            item = self.data.require(n)
            k = item.table.order
            signs = np.asarray(item.require_signs().signs, dtype=np.float64)
            out = np.zeros((k, self.dim), dtype=np.complex128)
            anchors_inv = item.table.rows_at_inverse(item.split.anchors)
            carriers_inv = item.table.rows_at_inverse(item.split.carriers)
            out[:, level_slice(n)] = -(2.0 ** (-n)) * (signs[:, None] * anchors_inv).T
            out[:, level_slice(n + 1)] = (2.0 ** (-n - 1)) * carriers_inv.T
            out.flags.writeable = False
            self._telescope[n] = out
        return self._telescope[n]

    def coords_of(self, coeff_rows: np.ndarray) -> Dict[int, np.ndarray]:
        """Coordinate blocks of vectors given by basis-coefficient rows."""
        return {
            m: coeff_rows @ self.coord_matrix(m) for m in range(self.max_level + 1)
        }

    def mixed_norms(self, coeff_rows: np.ndarray) -> np.ndarray:
        return z_norms_rows(self.schedule, self.coords_of(coeff_rows))


def biorthogonality_deviation(frame: BasisFrame) -> float:
    """Largest deviation of alpha_{n,j}(e_{m,i}) from the Kronecker pattern.

    Checks both functional forms on every basis vector of the truncation.
    """
    worst = 0.0
    for n in range(frame.max_level + 1):
        count = 1 << n
        expected = np.zeros((count, frame.dim), dtype=np.complex128)
        expected[np.arange(count), [basis_index(n, j) for j in range(1, count + 1)]] = 1.0
        gram_own = frame.functional_matrix(n) @ frame.coord_matrix(n).T
        worst = max(worst, float(np.abs(gram_own - expected).max()))
        if n >= 1:
            gram_low = frame.lower_functional_matrix(n) @ frame.coord_matrix(n - 1).T
            worst = max(worst, float(np.abs(gram_low - expected).max()))
    return worst


def form_agreement_deviation(frame: BasisFrame, n: int) -> float:
    """Largest disagreement of the two functional forms on level-n telescoping vectors.

    Also checks both against the expansion coefficients the functionals
    must reproduce by biorthogonality.
    """
    if not 1 <= n <= frame.max_level - 1:
        raise BadParameter("form agreement on telescoping vectors needs 1 <= n < max level")
    lower, middle, _ = telescope_blocks(n, frame.data)
    assert lower is not None
    own_vals = frame.functional_matrix(n) @ middle.T
    low_vals = frame.lower_functional_matrix(n) @ lower.T
    expected = frame.telescope_coeff_matrix(n)[:, level_slice(n)].T
    dev = float(np.abs(own_vals - low_vals).max())
    dev = max(dev, float(np.abs(own_vals - expected).max()))
    return dev


def level_trace(
    op: OperatorMatrix,
    n: int,
    frame: Optional[BasisFrame] = None,
    via: str = "matrix",
) -> complex:
    """Normalized level trace 2^{-n} sum_j alpha_{n,j}(T e_{n,j}).

    via="matrix" reduces to the diagonal block through biorthogonality;
    via="coordinates" evaluates the functionals on the realized images.
    """
    if n < 0:
        raise BadParameter(f"level must be nonnegative, got {n}")
    if n > op.max_level:
        raise TruncationTooSmall(f"level {n} exceeds truncation {op.max_level}")
    sl = level_slice(n)
    if via == "matrix":
        return complex(2.0 ** (-n) * np.trace(op.matrix[sl, sl]))
    if via == "coordinates":
        if frame is None:
            raise BadParameter("the coordinate route needs a basis frame")
        rows = op.matrix[sl, :]
        coords = rows @ frame.coord_matrix(n)
        return complex(2.0 ** (-n) * (frame.functional_matrix(n) * coords).sum())
    raise BadParameter(f"unknown trace route {via!r}")


def telescope_residual(op: OperatorMatrix, n: int, frame: BasisFrame) -> float:
    """Defect of the telescoping identity between levels n and n+1.

    | trace_{n+1}(T) - trace_n(T) - (3*2^n)^{-1} sum_g T(tele_{n,g})(g) |
    """
    if n + 1 > op.max_level:
        raise TruncationTooSmall(
            f"telescoping at level {n} needs level {n + 1} <= truncation {op.max_level}"
        )
    lhs = level_trace(op, n + 1) - level_trace(op, n)
    k = block_size(n)
    image_coeffs = frame.telescope_coeff_matrix(n) @ op.matrix  # (k, dim)
    image_coords = image_coeffs @ frame.coord_matrix(n)  # (k, k)
    rhs = complex(np.trace(image_coords) / k)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class TraceLimit:
    estimate: complex
    tail_factor: float
    family_sup: float
    tail_bound: float
    sup_ratio: float
    family_max_level: int


def trace_limit(op: OperatorMatrix, frame: BasisFrame) -> TraceLimit:
    """Level trace at the truncation with a tail bound from the test family.

    The tail of the telescoping series is dominated by
    sum_{n >= N} (n+1)^{-2} * sup_x ||T x|| over the compact family; the
    supremum is estimated on the family members inside the truncation.
    """
    top = op.max_level
    estimate = level_trace(op, top)
    sups: List[float] = []
    e0 = np.zeros(op.dim, dtype=np.complex128)
    e0[basis_index(0, 1)] = 1.0
    sups.append(float(frame.mixed_norms((e0 @ op.matrix)[None, :])[0]))
    for n in range(1, top):
        image_coeffs = frame.telescope_coeff_matrix(n) @ op.matrix
        norms = frame.mixed_norms(image_coeffs)
        sups.append(float((n + 1) ** 2 * norms.max()))
    family_sup = max(sups)
    tail_factor = math.pi**2 / 6.0 - math.fsum(1.0 / m**2 for m in range(1, top + 1))
    return TraceLimit(
        estimate=estimate,
        tail_factor=tail_factor,
        family_sup=family_sup,
        tail_bound=tail_factor * family_sup,
        sup_ratio=abs(estimate) / family_sup if family_sup > 0 else 0.0,
        family_max_level=top - 1,
    )


# ----------------------------------------------------------------------
# the experiment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityTraceRow:
    level: int
    matrix: complex
    coordinates: complex
    deviation: float


@dataclass(frozen=True)
class FiniteRankRow:
    operator: int
    rank: int
    support_level: int
    traces: Tuple[complex, ...]
    max_beyond_support: float
    limit_estimate: complex
    tail_bound: float


@dataclass(frozen=True)
class CompactFamilyRow:
    level: int
    max_scaled_norm: float
    envelope: float
    rate_reference: float


@dataclass(frozen=True)
class ObstructionReport:
    """The ``ap`` evidence; its fields are the keys of ``ap/obstruction.json``."""

    max_level: int
    identity_trace: Tuple[IdentityTraceRow, ...]
    identity_telescope_residuals: Tuple[float, ...]
    finite_rank: Tuple[FiniteRankRow, ...]
    base_vector_norm: float
    compact_family: Tuple[CompactFamilyRow, ...]
    cross_constant: float
    provenance: Dict[str, object] = field(default_factory=dict)


def random_finite_rank_operator(
    max_level: int,
    support_level: int,
    rank: int,
    seed: int,
) -> OperatorMatrix:
    """Random sum of coefficient-functional (x) vector terms inside a level cap."""
    if support_level > max_level:
        raise TruncationTooSmall("support level exceeds the truncation")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 303))))
    terms = []
    d_support = basis_dimension(support_level)
    for _ in range(rank):
        n = int(rng.integers(0, support_level + 1))
        j = int(rng.integers(1, (1 << n) + 1))
        coeffs = (
            rng.standard_normal(d_support) + 1j * rng.standard_normal(d_support)
        ) / math.sqrt(2.0)
        terms.append(((n, j), coeffs))
    return OperatorMatrix.rank_one_sum(max_level, terms)


def ap_experiment(
    frame: BasisFrame,
    cross_constant: float,
    operator_count: int = 5,
    max_rank: int = 5,
    support_cap: Optional[int] = None,
    seed: int = 0,
    provenance: Optional[Dict[str, object]] = None,
) -> ObstructionReport:
    """Assemble the obstruction evidence at one truncation.

    The identity keeps level trace 1 at every level, random finite-rank
    operators built from the coefficient functionals have exactly zero
    trace above their support, and the compact-family norms stay under the
    certified envelope; the rate reference column shows the schedule's
    decay sequence scaled by the same constant.
    """
    top = frame.max_level
    if support_cap is None:
        support_cap = max(0, top - 1)
    if support_cap >= top:
        raise BadParameter("the support cap must stay below the truncation level")

    ident = OperatorMatrix.identity(top)
    identity_rows = []
    for n in range(top + 1):
        matrix = level_trace(ident, n)
        coordinates = level_trace(ident, n, frame=frame, via="coordinates")
        deviation = max(abs(matrix - 1.0), abs(coordinates - 1.0))
        identity_rows.append(IdentityTraceRow(n, matrix, coordinates, deviation))
    identity_residuals = tuple(
        telescope_residual(ident, n, frame) for n in range(top)
    )

    rank_rows: List[FiniteRankRow] = []
    for i in range(operator_count):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 505, i))))
        support = int(rng.integers(0, support_cap + 1))
        rank = int(rng.integers(1, max_rank + 1))
        op = random_finite_rank_operator(top, support, rank, seed=seed * 1009 + i)
        traces = tuple(level_trace(op, n) for n in range(top + 1))
        beyond = [abs(t) for n, t in enumerate(traces) if n > support]
        limit = trace_limit(op, frame)
        rank_rows.append(
            FiniteRankRow(
                operator=i,
                rank=rank,
                support_level=support,
                traces=traces,
                max_beyond_support=max(beyond) if beyond else 0.0,
                limit_estimate=limit.estimate,
                tail_bound=limit.tail_bound,
            )
        )

    base_norm = z_norm(basis_vector(0, 1, frame.data, frame.schedule))
    compact_rows = []
    for n in range(1, top):
        norms = telescope_norms(n, frame.data, frame.schedule)
        scaled = float((n + 1) ** 2 * norms.max())
        envelope = (
            NORM_CHAIN_FACTOR
            * cross_constant
            * (n + 1) ** 2.5
            * 2.0 ** (-n * frame.schedule.gap(n + 1))
        )
        rate_ref = NORM_CHAIN_FACTOR * cross_constant * compactness_sequence(frame.schedule, n)
        compact_rows.append(
            CompactFamilyRow(
                level=n,
                max_scaled_norm=scaled,
                envelope=envelope,
                rate_reference=rate_ref,
            )
        )

    return ObstructionReport(
        max_level=top,
        identity_trace=tuple(identity_rows),
        identity_telescope_residuals=identity_residuals,
        finite_rank=tuple(rank_rows),
        base_vector_norm=base_norm,
        compact_family=tuple(compact_rows),
        cross_constant=cross_constant,
        provenance=dict(provenance or {}),
    )
