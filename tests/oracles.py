"""Literal defining sums, kept as test oracles for the FFT routes in aplab.

``MixedNormVector`` is one finitely supported vector, a complex block per
occupied level, and ``z_norm`` its mixed norm summed through ``math.fsum``;
``basis_vector`` realizes basis vector (n, j) on its two blocks.  They are
the one-vector form of what ``aplab.mixed_norm.z_norms_rows`` and
``aplab.obstruction.BasisFrame`` do for many rows at once.
``coeff_functional`` evaluates one coefficient functional on a vector by its
integral over a single block, and ``telescope_vector`` builds one
telescoping vector from its basis expansion, both from the exact-exponent
character rows.  ``aplab.obstruction`` computes the same quantities for all
indices at once as placed FFTs; these loops are what it is checked against.

``orthogonality_deviation``, ``balance_oracle`` and the matmul cross blocks
are the dense routes that ``aplab.characters`` and ``aplab.discrepancy``
replaced with difference sums and placed FFTs.

``telescope_norms_oracle``, ``identity_trace_oracle`` and
``telescope_residual_oracle`` are the routes ``aplab.obstruction`` took
before it read each sign kernel once and read operators by their rows: one
pair of kernel passes per level, dense functional products, and the
column route (the k x d image of a forward FFT down T's columns, with its
k x k coordinates).  ``identity_stage_oracle`` is the dense d x d identity
that ``identity_stage`` no longer forms, read by the row route with its own
chunk sums, as aplab read it before one evaluator (``_telescope``) summed
the terms of both routes, and
``rank_one_sum`` the dense d x d matrix that finite-rank operators no
longer are.  ``numeric_distance_upper`` is the sampling oracle that
upper-bounds the distance to Euclidean space of a span of up to four
vectors (acceptance criterion 10), and ``distance_bound`` the cotype-chain
bound on that distance that criterion 9b reads.  ``chain_bound`` is the
three-block chain of pointwise cross bounds on a telescoping vector's norm.  ``lower_rows_oracle`` is the sign kernel with its exponents
reduced entry by entry (int64 ``np.outer`` and ``%``) and its signs
multiplied in, as ``aplab.discrepancy.lower_rows`` did before it advanced
them.  ``exhaustive_signs_oracle`` is the exhaustive sign search as one
``sign_objective`` call per pattern over all 2^m patterns, from
``_signs_from_bits``, as ``search_signs`` scored them before it took
batches and left out the flipped half.  ``jsonable_oracle``
is the store's JSON form recursing into every item, as
``aplab.store._jsonable`` did before it copied int lists whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from aplab.characters import CharacterTable, block_size, read_only
from aplab import discrepancy
from aplab.discrepancy import (
    CharacterSplit,
    ConstructionData,
    balance_values,
    cross_bound_scale,
    lower_rows,
    sign_objective,
)
from aplab.errors import AplabError, BadParameter
from aplab.mixed_norm import ExponentSchedule, z_norms_rows
from aplab.obstruction import (
    BasisFrame,
    _pair_slice,
    basis_index,
    level_trace,
)


class DimensionTooLarge(AplabError, ValueError):
    """The numeric distance oracle only handles very small dimensions."""


class DegenerateBasis(AplabError, ValueError):
    """Basis vectors passed to the distance oracle are linearly dependent."""


@dataclass(frozen=True)
class MixedNormVector:
    """Finitely supported vector: one complex block per occupied level."""

    schedule: ExponentSchedule
    blocks: Dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: Dict[int, np.ndarray] = {}
        for level in sorted(self.blocks):
            arr = self.blocks[level]
            if level < 0:
                raise BadParameter(f"negative level {level}")
            if len(arr) != block_size(level):
                raise BadParameter(
                    f"level {level} block must have {block_size(level)} coordinates, got {len(arr)}"
                )
            clean[level] = read_only(arr, np.complex128)
        object.__setattr__(self, "blocks", clean)

    @classmethod
    def single(
        cls, schedule: ExponentSchedule, level: int, g: int, value: complex = 1.0
    ) -> "MixedNormVector":
        block = np.zeros(block_size(level), dtype=np.complex128)
        block[g] = value
        return cls(schedule=schedule, blocks={level: block})

    def support_levels(self) -> Tuple[int, ...]:
        return tuple(sorted(self.blocks))

    def block(self, level: int) -> Optional[np.ndarray]:
        return self.blocks.get(level)

    def scale(self, factor: complex) -> "MixedNormVector":
        return MixedNormVector(
            schedule=self.schedule,
            blocks={n: factor * blk for n, blk in self.blocks.items()},
        )

    def add(self, other: "MixedNormVector") -> "MixedNormVector":
        if other.schedule != self.schedule:
            raise BadParameter("cannot add vectors over different schedules")
        out: Dict[int, np.ndarray] = {n: blk.copy() for n, blk in self.blocks.items()}
        for n, blk in other.blocks.items():
            if n in out:
                out[n] = out[n] + blk
            else:
                out[n] = blk.copy()
        return MixedNormVector(schedule=self.schedule, blocks=out)


def z_norm(f: MixedNormVector) -> float:
    """Mixed norm: l_2 combination of the per-level l_{p_n} block norms.

    Block sums accumulate through ``math.fsum`` so large blocks do not lose
    low-order bits.
    """
    terms = []
    for level in sorted(f.blocks):
        p = f.schedule.p(level)
        mags = np.abs(f.blocks[level])
        s = math.fsum(float(x) for x in mags**p)
        terms.append(s ** (2.0 / p))
    return math.sqrt(math.fsum(terms)) if terms else 0.0


def basis_vector(
    n: int, j: int, data: ConstructionData, schedule: ExponentSchedule
) -> MixedNormVector:
    """Basis vector (n, j) realized on its two supporting blocks."""
    basis_index(n, j)  # validates the range
    here = data.require(n)
    signs = here.require_signs().signs
    blocks: Dict[int, np.ndarray] = {
        n: signs[j - 1] * here.table.rows([here.split.anchors[j - 1]])[0]
    }
    if n >= 1:
        below = data.require(n - 1)
        blocks[n - 1] = below.table.rows([below.split.carriers[j - 1]])[0]
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
        row = here.table.rows_at_inverse([here.split.anchors[j - 1]])[0]
        eps = here.require_signs().signs[j - 1]
        return complex(eps * (row @ blk) / here.table.order)
    if via == "lower":
        if n < 1:
            raise BadParameter("the lower-level form does not exist at level 0")
        below = data.require(n - 1)
        blk = f.block(n - 1)
        if blk is None:
            return 0.0 + 0.0j
        row = below.table.rows_at_inverse([below.split.carriers[j - 1]])[0]
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
        raise BadParameter(f"element {g} outside [0, {k})")
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


def orthogonality_deviation(table: CharacterTable) -> float:
    """Largest |V V^* - k I| entry of the dense character table V[c, g]."""
    k = table.order
    values = table.rows(range(k))
    gram = values @ values.conj().T
    gram[np.diag_indices(k)] -= k
    return float(np.abs(gram).max())


def balance_oracle(table: CharacterTable, split: CharacterSplit) -> np.ndarray:
    """2*sum_anchors chi_a(g) - sum_carriers chi_c(g), gathered row by row."""
    return 2.0 * table.rows(split.anchors).sum(axis=0) - table.rows(split.carriers).sum(axis=0)


def cross_matrix_from_values(
    left_at_inverse: np.ndarray,
    right: np.ndarray,
    signs: Sequence[int],
    scale: complex,
) -> np.ndarray:
    """Assemble scale * sum_j signs_j * left_j(-g) * right_j(h) directly."""
    eps = np.asarray(signs, dtype=np.float64)
    if left_at_inverse.shape[0] != right.shape[0] or left_at_inverse.shape[0] != len(eps):
        raise BadParameter("mismatched term counts in cross matrix assembly")
    return scale * ((eps[:, None] * left_at_inverse).T @ right)


def cross_lower_oracle(n: int, data: ConstructionData) -> np.ndarray:
    """lower_n(g, h) = -2^{-n} sum_j eps^n_j chi_{anchor^n_j}(-g) chi_{carrier^{n-1}_j}(h)."""
    here, below = data.require(n), data.require(n - 1)
    left = here.table.rows_at_inverse(here.split.anchors)
    right = below.table.rows(below.split.carriers)
    return cross_matrix_from_values(left, right, here.require_signs().signs, -(2.0 ** (-n)))


def cross_upper_oracle(n: int, data: ConstructionData) -> np.ndarray:
    """upper_n(g, h) = 2^{-n-1} sum_j chi_{carrier^n_j}(-g) eps^{n+1}_j chi_{anchor^{n+1}_j}(h)."""
    here, above = data.require(n), data.require(n + 1)
    left = here.table.rows_at_inverse(here.split.carriers)
    right = above.table.rows(above.split.anchors)
    return cross_matrix_from_values(left, right, above.require_signs().signs, 2.0 ** (-n - 1))


def telescope_norms_oracle(
    n: int, data: ConstructionData, schedule: ExponentSchedule
) -> np.ndarray:
    """Level-n telescoping norms by g, from every row of ``lower_rows(n)`` and ``lower_rows(n + 1)``."""
    def power_sums(m: int, p: float, axis: int):
        eps = np.asarray(data.require(m).require_signs().signs, dtype=np.float64)
        for _, spectrum in lower_rows(m, data, eps[None], data.require(m - 1).table.order):
            yield ((2.0 ** (-m) * np.abs(spectrum[:, 0])) ** p).sum(axis=axis)

    here, p = data.require(n), schedule.p(n)
    middle = ((2.0 ** (-n - 1) * np.abs(balance_values(here.table, here.split))) ** p).sum()
    total = np.full(here.table.order, middle ** (2.0 / p))
    if n >= 1:
        p = schedule.p(n - 1)
        total = sum(power_sums(n, p, 0)) ** (2.0 / p) + total
    p = schedule.p(n + 1)
    return np.sqrt(total + np.concatenate([*power_sums(n + 1, p, 1)]) ** (2.0 / p))


def identity_trace_oracle(frame: BasisFrame, n: int) -> complex:
    """2^{-n} sum of the functional rows times the coordinates of all level-n identity rows."""
    coords = frame.coords_at(np.eye(1 << n, frame.dim, (1 << n) - 1, dtype=np.complex128), n)
    return complex(2.0 ** (-n) * (frame.functional_matrix(n) * coords).sum())


def telescope_residual_oracle(matrix: np.ndarray, n: int, frame: BasisFrame) -> float:
    """The residual from the trace of the full k x k coordinates of the k x d image."""
    op = dense_rows(matrix)
    lhs = level_trace(op, n + 1) - level_trace(op, n)
    image_coords = frame.coords_at(frame.telescope_image(matrix, n), n)
    return abs(lhs - complex(np.trace(image_coords) / block_size(n)))


def identity_stage_oracle(
    frame: BasisFrame,
) -> Tuple[Tuple[complex, ...], Tuple[complex, ...], Tuple[float, ...]]:
    """The identity's level traces, coordinate traces and telescoping residuals
    from the row route run on the dense d x d identity, as aplab took them
    before one evaluator summed its terms: per chunk of band rows, the
    diagonal by ``np.add.at``, the terms from the tele coefficients and the
    band coordinates, their sum and the sum of the level-n rows' terms."""
    ident, top = np.eye(frame.dim, dtype=np.complex128), frame.max_level
    traces, coordinates, residuals = [], [], []
    for n in range(top + 1):
        band, chunk = _pair_slice(n, top), discrepancy._SIGN_CHUNK_ROWS
        k, half, width = block_size(n), 1 << n, band.stop - band.start
        diagonal = np.zeros(width, dtype=np.complex128)
        sums, own = [], []
        for start in range(0, width, chunk):
            b = np.arange(start, min(start + chunk, width))  # band positions of identity rows
            block = ident[band.start + b, band]
            np.add.at(diagonal, b, block[np.arange(b.size), b])
            terms = (frame.tele_coeffs(n, b) * frame.band_coords(block, n)).sum(axis=1)
            sums.append(terms.sum())
            own.append(terms[b < half].sum())
        here = complex(2.0 ** (-n) * diagonal[:half].sum())
        above = complex(2.0 ** (-n - 1) * diagonal[half:].sum())
        traces.append(here)
        coordinates.append(complex(-np.sum(own) / k))
        residuals.append(abs(above - here - complex(np.sum(sums) / k)))
    return tuple(traces), tuple(coordinates), tuple(residuals[:-1])


def lower_rows_oracle(
    n: int, data: ConstructionData, eps: np.ndarray, rows: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """``lower_rows`` with eps * roots[np.outer(h, carriers) % k_below] placed at the anchors."""
    here, below = data.require(n), data.require(n - 1)
    k, k_below = here.table.order, below.table.order
    anchors, carriers = here.split.anchor_index, below.split.carrier_index
    roots = below.table.roots()
    chunk = min(discrepancy._SIGN_CHUNK_ROWS, rows)
    placed = np.zeros((chunk, k), dtype=np.complex128)
    for start in range(0, rows, chunk):
        h = np.arange(start, min(start + chunk, rows))
        placed[: len(h), anchors] = eps * roots[np.outer(h, carriers) % k_below]
        yield start, np.fft.fft(placed[: len(h)], axis=1)


def _signs_from_bits(idx: int, m: int) -> Tuple[int, ...]:
    """Pattern ``idx`` of length m in lexicographic order: bit 0 is +1, the top bit first."""
    return tuple(1 if not (idx >> (m - 1 - j)) & 1 else -1 for j in range(m))


def exhaustive_signs_oracle(
    n: int, data: ConstructionData, target: float = -math.inf
) -> Tuple[Tuple[int, ...], float, int]:
    """(signs, objective, draws) of the exhaustive level-n search: every
    pattern scored on its own, in order; the first scoring at most ``target``
    wins, else the earliest within a relative 1e-12 of the best."""
    m = len(data.require(n).split.anchors)
    patterns = [_signs_from_bits(i, m) for i in range(1 << m)]
    scores = [sign_objective(n, data, eps) for eps in patterns]
    hit = next((i for i, sc in enumerate(scores) if sc <= target), None)
    if hit is not None:
        return patterns[hit], scores[hit], hit + 1
    best = min(scores)
    i = next(i for i, sc in enumerate(scores) if sc <= best * (1.0 + 1e-12))
    return patterns[i], scores[i], len(patterns)


def jsonable_oracle(value: object) -> object:
    """JSON form of a result, one call per item: dataclasses by field name,
    complex numbers as ``[re, im]``, tuples as lists, non-finite floats as
    null and ``EXACT_INT`` fields as decimal strings."""
    if is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in fields(value):
            item = getattr(value, f.name)
            exact = f.metadata.get("exact_int") and item is not None
            out[f.name] = str(item) if exact else jsonable_oracle(item)
        return out
    if isinstance(value, complex):
        return jsonable_oracle([value.real, value.imag])
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: jsonable_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_oracle(v) for v in value]
    return value


def chain_bound(n: int, schedule: ExponentSchedule, constant: float) -> float:
    """Norm bound of a level-n telescoping vector from its three blocks
    m = n-1, n, n+1, each of whose k_m entries is at most
    constant * cross_bound_scale(n) in modulus."""
    point = (constant * cross_bound_scale(n)) ** 2
    return math.sqrt(sum(point * block_size(m) ** (2.0 / schedule.p(m)) for m in (n - 1, n, n + 1)))


def rank_one_sum(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The dense d x d matrix of the operator with filled rows (rows, values):
    row rows[i] gains values[i], term by term in order."""
    matrix = np.zeros((values.shape[1], values.shape[1]), dtype=np.complex128)
    for row, value in zip(rows, values):
        matrix[row] += value
    return matrix


def dense_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The filled rows (arange(d), M) of a d x d matrix M, the operator form."""
    return np.arange(matrix.shape[0]), matrix


@dataclass(frozen=True)
class DistanceBound:
    """Distance-to-Euclidean bound sqrt(2)*c1*c2*m^{1/2 - 1/p} with its cap."""

    value: float
    cap: float
    cap_applies: bool


def distance_bound(m: int, p: float, c1: float = 1.0, c2: float = 1.0) -> DistanceBound:
    """Cotype-chain bound for an m-dimensional subspace of an l_p tail."""
    if m < 1:
        raise BadParameter(f"dimension must be >= 1, got {m}")
    if not 2.0 < p <= 3.0:
        raise BadParameter(f"block exponent must lie in (2, 3], got {p}")
    growth = 2.0 ** ((0.5 - 1.0 / p) * math.log2(m))
    value = math.sqrt(2.0) * c1 * c2 * growth
    return DistanceBound(
        value=value,
        cap=2.0 * math.sqrt(2.0) * c1 * c2,
        cap_applies=growth <= 2.0,
    )


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
