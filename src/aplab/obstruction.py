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

Both maps the traces need are placed FFTs on one level's group, and no
dense coordinate or telescoping product is formed (``BasisFrame``).  The
frame matrices and the two deviations built on them are test references,
not verify rows (see ``cli.cmd_verify``); the literal one-vector sums live
in ``tests/oracles.py``.

Everything here is pure and operates on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .characters import block_size
from .discrepancy import (
    ConstructionData,
    cross_lower_matrix,
    cross_upper_matrix,  # unused here; kept so profilers can wrap it by this name
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

# Telescoping norms take rows g in chunks of about this many upper-block entries.
_NORM_CHUNK_ENTRIES = 1 << 20


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


def _pair_slice(n: int, top: int) -> slice:
    """Flat indices of basis levels n and n+1, or of level n alone at the top."""
    if not 0 <= n <= top:
        raise IndexOutOfRange(f"level {n} outside truncation 0..{top}")
    return slice((1 << n) - 1, (1 << (min(n + 1, top) + 1)) - 1)


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


def telescope_norms(
    n: int, data: ConstructionData, schedule: ExponentSchedule
) -> np.ndarray:
    """Mixed norms of every level-n telescoping vector, indexed by g.

    tele_{n,g} has basis coefficients -2^{-n} eps^n_j chi_{anchor^n_j}(-g)
    on level n and 2^{-n-1} chi_{carrier^n_j}(-g) on level n+1, so its
    blocks on levels n-1, n, n+1 (rows g of the lower, middle and upper
    cross blocks) are ``BasisFrame.coords_at`` of those rows.  Rows g go
    about ``_NORM_CHUNK_ENTRIES // k_{n+1}`` at a time.
    """
    frame = BasisFrame(data, schedule, n + 1)
    k, anchors, carriers, signs = frame._placed[n]
    own = -(2.0 ** (-n)) * signs
    table = data.require(n).table
    step = max(1, _NORM_CHUNK_ENTRIES // block_size(n + 1))
    norms = np.empty(k)
    for lo in range(0, k, step):
        g = range(lo, min(lo + step, k))
        inverse = table.rows_at_inverse(g)  # chi_g(-c) = chi_c(-g)
        coeffs = np.zeros((len(g), frame.dim), dtype=np.complex128)
        coeffs[:, level_slice(n)] = own * inverse[:, anchors]
        coeffs[:, level_slice(n + 1)] = 2.0 ** (-n - 1) * inverse[:, carriers]
        blocks = {m: frame.coords_at(coeffs, m) for m in range(max(n - 1, 0), n + 2)}
        norms[lo : lo + len(g)] = z_norms_rows(schedule, blocks)
    return norms


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
        arr = np.array(self.matrix, dtype=np.complex128)  # never freeze or alias a caller's array
        d = basis_dimension(self.max_level)
        if arr.shape != (d, d):
            raise BadParameter(f"matrix must be {d}x{d} for max level {self.max_level}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def _adopt(cls, max_level: int, arr: np.ndarray) -> "OperatorMatrix":
        """The operator on ``arr``, a d x d complex array built for it: frozen, not copied."""
        arr.flags.writeable = False
        op = cls.__new__(cls)
        object.__setattr__(op, "max_level", max_level)
        object.__setattr__(op, "matrix", arr)
        return op

    @property
    def dim(self) -> int:
        return basis_dimension(self.max_level)

    @classmethod
    def zeros(cls, max_level: int) -> "OperatorMatrix":
        d = basis_dimension(max_level)
        return cls._adopt(max_level, np.zeros((d, d), dtype=np.complex128))

    @classmethod
    def identity(cls, max_level: int) -> "OperatorMatrix":
        return cls._adopt(max_level, np.eye(basis_dimension(max_level), dtype=np.complex128))

    @classmethod
    def diagonal(cls, max_level: int, entries: Sequence[complex]) -> "OperatorMatrix":
        d = basis_dimension(max_level)
        if len(entries) != d:
            raise BadParameter(f"need {d} diagonal entries")
        return cls._adopt(max_level, np.diag(np.asarray(entries, dtype=np.complex128)))

    @classmethod
    def gaussian(cls, max_level: int, seed: int) -> "OperatorMatrix":
        d = basis_dimension(max_level)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 404))))
        mat = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
        return cls._adopt(max_level, mat)

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
        return cls._adopt(max_level, mat)

    def scale(self, factor: complex) -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.max_level, factor * self.matrix)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.max_level != self.max_level:
            raise BadParameter("cannot add operators with different truncations")
        return OperatorMatrix._adopt(self.max_level, self.matrix + other.matrix)


class BasisFrame:
    """Level-local placed FFTs for one truncation.

    Both maps the trace needs are sparse DFTs on a single level's group
    Z/k.  Coordinates on level m of the vectors with basis-coefficient rows C
    depend only on basis levels m and m+1:

        w[:, anchors_m] = eps^m * C[:, level m],   w[:, carriers_m] = C[:, level m+1],
        coords_at(C, m)[:, g] = sum_c w[:, c] chi_c(g)   (an unscaled inverse FFT).

    The basis coefficients of T(tele_{n,g}), for the operator matrix M of T,
    are one forward FFT along the columns:

        v[anchors_n] = -2^{-n} eps^n M[level n rows],   v[carriers_n] = 2^{-n-1} M[level n+1 rows],
        telescope_image(M, n)[g] = sum_c v[c] chi_c(-g)   (a forward FFT).

    Both skip exact zeros: ``coords_of`` leaves out every level m whose
    basis levels m and m+1 are zero in all rows, and ``trace_limit`` skips
    every level n whose level-n and level-(n+1) rows of T are all zero.  A
    skipped term was an exact zero before (the FFT of zeros is zero,
    |0|^p = 0 and x + 0.0 == x), so the norms do not change by a bit.

    The frame holds only each level's placement (order, anchors, carriers,
    signs).  The matrices below are test references (``functional_matrix``
    also feeds ``level_trace``'s coordinate route) that perfbench's tracer
    wraps by name, built per call and cut to their nonzero band; p_m =
    2^m + 2^{m+1} basis vectors of levels m and m+1 (2^m at the top):

    coord_matrix(m)             p_m x k_m      row b: coordinates of basis b on level m
    telescope_coeff_matrix(n)   k_n x p_n      row g: basis coefficients of tele_{n,g}
    functional_matrix(n)        2^n x k_n      own-form functional rows
    lower_functional_matrix(n)  2^n x k_{n-1}  lower-form functional rows
    """

    def __init__(
        self, data: ConstructionData, schedule: ExponentSchedule, max_level: int
    ) -> None:
        # (order, anchors, carriers, signs) per level; missing signs fail here
        self._placed: Dict[int, Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}
        for n in range(max_level + 1):
            item = data.require(n)
            self._placed[n] = (
                item.table.order,
                np.asarray(item.split.anchors, dtype=np.int64),
                np.asarray(item.split.carriers, dtype=np.int64),
                np.asarray(item.require_signs().signs, dtype=np.float64),
            )
        self.data = data
        self.schedule = schedule
        self.max_level = max_level
        self.dim = basis_dimension(max_level)

    def coords_at(self, coeff_rows: np.ndarray, m: int) -> np.ndarray:
        """Level-m coordinates of the vectors with basis-coefficient rows ``coeff_rows``."""
        if not 0 <= m <= self.max_level:
            raise IndexOutOfRange(f"level {m} outside truncation 0..{self.max_level}")
        k, anchors, carriers, signs = self._placed[m]
        w = np.zeros((coeff_rows.shape[0], k), dtype=np.complex128)
        w[:, anchors] = signs * coeff_rows[:, level_slice(m)]
        if m < self.max_level:
            w[:, carriers] = coeff_rows[:, level_slice(m + 1)]
        return np.fft.ifft(w, axis=1, norm="forward", out=w)

    def telescope_image(self, op_matrix: np.ndarray, n: int) -> np.ndarray:
        """Row g holds the basis coefficients of T(tele_{n,g}); ``op_matrix`` is T's matrix."""
        if not 0 <= n <= self.max_level - 1:
            raise TruncationTooSmall(
                f"telescoping at level {n} needs level {n + 1} inside the truncation"
            )
        k, anchors, carriers, signs = self._placed[n]
        v = np.zeros((k, op_matrix.shape[1]), dtype=np.complex128)
        v[anchors] = -(2.0 ** (-n)) * signs[:, None] * op_matrix[level_slice(n)]
        v[carriers] = 2.0 ** (-n - 1) * op_matrix[level_slice(n + 1)]
        return np.fft.fft(v, axis=0, out=v)

    def coord_matrix(self, m: int) -> np.ndarray:
        rows = _pair_slice(m, self.max_level)  # every other basis vector is zero here
        return self.coords_at(np.eye(rows.stop - rows.start, self.dim, rows.start), m)

    def functional_matrix(self, n: int) -> np.ndarray:
        k, anchors, _, signs = self._placed[n]
        return signs[:, None] * self.data.require(n).table.rows_at_inverse(anchors) / k

    def lower_functional_matrix(self, n: int) -> np.ndarray:
        if n < 1:
            raise FormUnavailable("the lower-level form does not exist at level 0")
        k, _, carriers, _ = self._placed[n - 1]
        return self.data.require(n - 1).table.rows_at_inverse(carriers) / k

    def telescope_coeff_matrix(self, n: int) -> np.ndarray:
        cols = _pair_slice(n, self.max_level)  # every other basis coefficient is zero here
        return self.telescope_image(np.eye(self.dim, cols.stop - cols.start, -cols.start), n)

    def coords_of(self, coeff_rows: np.ndarray) -> Dict[int, np.ndarray]:
        """Coordinate blocks of vectors given by basis-coefficient rows.

        Level m is left out when no row has a nonzero coefficient on basis
        levels m or m+1, since its block would be exactly zero.
        """
        live = coeff_rows.any(axis=0)
        return {
            m: self.coords_at(coeff_rows, m)
            for m in range(self.max_level + 1)
            if live[_pair_slice(m, self.max_level)].any()
        }

    def mixed_norms(self, coeff_rows: np.ndarray) -> np.ndarray:
        # all-zero rows still need one (zero) block to give every row a norm
        blocks = self.coords_of(coeff_rows) or {0: self.coords_at(coeff_rows, 0)}
        return z_norms_rows(self.schedule, blocks)


def biorthogonality_deviation(frame: BasisFrame) -> float:
    """Largest deviation of alpha_{n,j}(e_{m,i}) from the Kronecker pattern.

    Checks both functional forms on every basis vector with a block where
    the form integrates: levels n and n+1 for the own form, n-1 and n for
    the lower one.  Every other pairing vanishes by disjoint support.  A
    test reference, not a verify row (see ``cli.cmd_verify``).
    """
    worst = 0.0
    for n in range(frame.max_level + 1):
        gram_own = frame.functional_matrix(n) @ frame.coord_matrix(n).T
        expected = np.eye(*gram_own.shape)  # level n leads the pair
        worst = max(worst, float(np.abs(gram_own - expected).max()))
        if n >= 1:
            gram_low = frame.lower_functional_matrix(n) @ frame.coord_matrix(n - 1).T
            expected = np.eye(*gram_low.shape, 1 << (n - 1))  # level n follows n-1
            worst = max(worst, float(np.abs(gram_low - expected).max()))
    return worst


def form_agreement_deviation(frame: BasisFrame, n: int) -> float:
    """Largest disagreement of the two functional forms on level-n telescoping vectors.

    Also checks both against the expansion coefficients the functionals
    must reproduce by biorthogonality.  A test reference, not a verify row.
    """
    if not 1 <= n <= frame.max_level - 1:
        raise BadParameter("form agreement on telescoping vectors needs 1 <= n < max level")
    lower = cross_lower_matrix(n, frame.data)
    middle = middle_block(n, frame.data)
    own_vals = frame.functional_matrix(n) @ middle.T
    low_vals = frame.lower_functional_matrix(n) @ lower.T
    expected = frame.telescope_coeff_matrix(n)[:, : 1 << n].T  # level n leads the pair
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
        coords = frame.coords_at(op.matrix[sl, :], n)
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
    image_coords = frame.coords_at(frame.telescope_image(op.matrix, n), n)  # (k, k)
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
    e0 = basis_index(0, 1)
    sups.append(float(frame.mixed_norms(op.matrix[e0 : e0 + 1])[0]))
    for n in range(1, top):
        if not op.matrix[_pair_slice(n, top)].any():
            sups.append(0.0)  # T(tele_{n,g}) = 0 for every g
            continue
        norms = frame.mixed_norms(frame.telescope_image(op.matrix, n))
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


def experiment_operators(
    max_level: int, support_cap: int, operator_count: int, max_rank: int, seed: int
) -> Iterator[Tuple[int, int, OperatorMatrix]]:
    """The (support level, rank, operator) triples ``ap_experiment`` reports on."""
    for i in range(operator_count):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 505, i))))
        support = int(rng.integers(0, support_cap + 1))
        rank = int(rng.integers(1, max_rank + 1))
        yield support, rank, random_finite_rank_operator(max_level, support, rank, seed=seed * 1009 + i)


def _finite_rank_row(
    i: int, support: int, rank: int, op: OperatorMatrix, frame: BasisFrame
) -> FiniteRankRow:
    top = frame.max_level
    traces = tuple(level_trace(op, n) for n in range(top + 1))
    beyond = [abs(t) for n, t in enumerate(traces) if n > support]
    limit = trace_limit(op, frame)
    return FiniteRankRow(
        operator=i,
        rank=rank,
        support_level=support,
        traces=traces,
        max_beyond_support=max(beyond) if beyond else 0.0,
        limit_estimate=limit.estimate,
        tail_bound=limit.tail_bound,
    )


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
    if max_rank < 1 or operator_count < 0:
        raise BadParameter(f"need rank >= 1 and operators >= 0, got {max_rank}, {operator_count}")

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
    # Drop the dense d x d operators before the compact family, whose
    # telescoping norms need the most memory; the comprehension's ``op`` ends
    # with it, so the last finite-rank operator goes too.
    del ident
    rank_rows = [
        _finite_rank_row(i, support, rank, op, frame)
        for i, (support, rank, op) in enumerate(
            experiment_operators(top, support_cap, operator_count, max_rank, seed)
        )
    ]

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
