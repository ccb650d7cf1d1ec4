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
schedule's decay sequence controls; their blocks are rows of the three
cross blocks, read from the sign kernel (``telescope_norms``).  Flat basis
indexing is (n, j) -> 2^n - 1 + (j - 1), d = 2^{N+1} - 1 at truncation N.

An operator is its filled rows (rows, values), values r x d, with
T(x) = sum_i alpha_{rows[i]}(x) values[i]: row rows[i] of T's matrix (the
coefficient of basis b in the image of basis a at [a, b]) gains values[i].
A dense d x d matrix M is the pair (arange(d), M), the form ``gaussian``
returns; a bare array is refused.  One row kernel (``_band_pass``) reads
T's rows of basis levels n and n+1 a chunk at a time for the telescoping
residual, the one value of it that a command reads; ``level_trace`` reads
T's diagonal (``_diagonal``), and only ``tests/oracles.py`` reads the
kernel's level and coordinate traces.  ``trace_limit`` reads
the family through the coordinates of T's values, so no d x d or k x d
array is formed for an operator given by its rows.  An identity row
is one character, so ``identity_stage`` takes the kernel's sums one
inner product per character.  ``trace_limit`` and ``ap``'s base vector
norm take their mixed norms from ``mixed_norm.z_norms_rows``, and
``telescope_norms`` sums the same powers inside its kernel pass.  The frame
matrices and the deviations built on them are test references (see
``cli.cmd_verify``); the literal one-vector sums, basis vectors and norm
are in ``tests/oracles.py``.

Everything here is pure: no function writes to an array it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import discrepancy
from .characters import CharacterTable, advancing_exponents, block_size
from .discrepancy import (
    ConstructionData,
    balance_values,
    cross_lower_matrix,
    cross_upper_matrix,  # unused here; kept so profilers can wrap it by this name
    lower_rows,
    middle_block,
    split_discrepancy,  # unused here; kept so profilers can wrap it by this name
)
from .errors import BadParameter
from .mixed_norm import ExponentSchedule, compactness_sequence, z_norms_rows

NORM_CHAIN_FACTOR = 3.0 * math.sqrt(2.0)
# An operator's filled rows are rank x d complex128; refusing a rank whose rows
# pass 1 GiB keeps an outsized --rank from exhausting memory before anything is written.
OPERATOR_BYTES_CAP = 1 << 30


def basis_dimension(max_level: int) -> int:
    """Number of basis vectors through ``max_level``: 2^{N+1} - 1."""
    return (1 << (max_level + 1)) - 1


def basis_index(n: int, j: int) -> int:
    """Flat index of basis vector (n, j), j 1-based."""
    if n < 0:
        raise BadParameter(f"level must be nonnegative, got {n}")
    if not 1 <= j <= (1 << n):
        raise BadParameter(f"basis index {j} outside 1..{1 << n} at level {n}")
    return (1 << n) - 1 + (j - 1)


def level_slice(n: int) -> slice:
    return slice((1 << n) - 1, (1 << (n + 1)) - 1)


def _pair_slice(n: int, top: int) -> slice:
    """Flat indices of basis levels n and n+1, or of level n alone at the top."""
    if not 0 <= n <= top:
        raise BadParameter(f"level {n} outside truncation 0..{top}")
    return slice((1 << n) - 1, (1 << (min(n + 1, top) + 1)) - 1)


@dataclass(frozen=True)
class TelescopeFamily:
    """What one pass of the sign kernel per level m = 1..top gives.

    ``objectives[m]`` is ``sign_objective(m)`` of the stored signs, bit for
    bit (0.0 at m = 0).  ``norms[n]`` holds the mixed norms of the level-n
    telescoping vectors, indexed by g, for n = 0..top-1.
    """

    objectives: Tuple[float, ...]
    norms: Tuple[np.ndarray, ...]


def telescope_norms(
    data: ConstructionData, schedule: ExponentSchedule, top: int
) -> TelescopeFamily:
    """The compact family's norms below ``top`` and the sign objectives through it.

    The blocks of tele_{n,g} on levels n-1, n and n+1 are rows g of the
    lower, middle and upper cross blocks.  The middle block is the
    circulant -2^{-n-1} balance(h - g), one norm for every g.  In modulus,
    row g of lower_n is 2^{-n} times column g of ``lower_rows(n)``, and row
    g of upper_n = -conj(lower_{n+1})^T is 2^{-n-1} times row g of
    ``lower_rows(n + 1)``.  Row K - h of ``lower_rows(m)``, K = k_{m-1}, is
    row h conjugated and read at -g (eps is real, chi(-x) = conj(chi(x))),
    so one pass over rows h = 0..K//2, the rows ``sign_objective``
    transforms, gives together the column sums of (2^{-m}|x|)^{p(m-1)}
    (level m's lower blocks; each row h with 0 < h < K/2 also adds its
    column -g to column g, for its mirror), the row sums of
    (2^{-m}|x|)^{p(m)} (level m-1's upper blocks; row K - h has row h's
    sum) and the largest |x|, bit for bit ``sign_objective``.  The top
    pass skips the column sums, which only level top's norms would read.
    """
    objectives: List[float] = [0.0]
    norms: List[np.ndarray] = []
    lower = None  # column sums of the previous pass, for its level's norms
    for m in range(1, top + 1):
        eps = data.require(m).require_signs().eps
        rows, k = data.require(m - 1).table.order, data.require(m).table.order
        half = rows // 2 + 1  # rows 0..rows//2; the others are their mirrors
        p_lower, p_upper = schedule.p(m - 1), schedule.p(m)
        worst, columns, mirrored, upper = 0.0, np.zeros(k), np.zeros(k), []
        for start, spectrum in lower_rows(m, data, eps, half):
            modulus = np.abs(spectrum)
            del spectrum  # freed before the powers are formed
            worst = max(worst, float(modulus.max()))
            modulus *= 2.0 ** (-m)
            powered = modulus ** p_upper
            upper.append(powered.sum(axis=1))
            if m < top:
                if p_lower != p_upper:  # equal at every computed level of the log schedule
                    powered = modulus ** p_lower
                columns += powered.sum(axis=0)
                # rows h with 0 < h < rows/2 have a mirror row rows - h
                mirrored += powered[max(1 - start, 0) : (rows + 1) // 2 - start].sum(axis=0)
            del modulus, powered  # freed before the next chunk is transformed
        objectives.append(2.0 ** (-m) * worst)
        h = np.arange(rows)
        upper = np.concatenate(upper)[np.minimum(h, rows - h)]  # row rows - h is row h's

        n, here = m - 1, data.require(m - 1)
        p = schedule.p(n)
        middle = ((2.0 ** (-n - 1) * np.abs(balance_values(here.table, here.split))) ** p).sum()
        total = np.full(here.table.order, middle ** (2.0 / p))
        if lower is not None:
            total = lower ** (2.0 / schedule.p(n - 1)) + total
        norms.append(np.sqrt(total + upper ** (2.0 / p_upper)))
        lower = columns + mirrored[-np.arange(k) % k]
    return TelescopeFamily(tuple(objectives), tuple(norms))


def check_norm_bound(n: int, schedule: ExponentSchedule, constant: float) -> float:
    """Envelope 3*sqrt(2)*constant*(n+1)^{1/2} * 2^{-n * gap(n+1)} of the
    level-n telescoping vectors' norms; the caller holds the largest of
    ``telescope_norms(...).norms[n]`` against it."""
    if n < 1:
        raise BadParameter("norm bound reports start at level 1")
    return NORM_CHAIN_FACTOR * constant * math.sqrt(n + 1.0) * 2.0 ** (-n * schedule.gap(n + 1))


# ----------------------------------------------------------------------
# operators and traces
# ----------------------------------------------------------------------

Operator = Tuple[np.ndarray, np.ndarray]


def gaussian(max_level: int, seed: int) -> Operator:
    """Seeded dense operator with standard complex Gaussian matrix entries,
    as its filled rows (arange(d), M)."""
    d = basis_dimension(max_level)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 404))))
    return np.arange(d), (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)


class BasisFrame:
    """Level-local maps for one truncation: placed FFTs and exact-exponent gathers.

    Coordinates on level m of the vectors with basis-coefficient rows C
    depend only on basis levels m and m+1, the band of k_m columns:

        w[:, anchors_m] = eps^m * C[:, level m],   w[:, carriers_m] = C[:, level m+1],
        coords_at(C, m)[:, g] = sum_c w[:, c] chi_c(g)   (an unscaled inverse FFT).

    The basis coefficients of tele_{n,g} are gathers of the cached roots at
    exact exponents (``tele_coeffs``): -2^{-n} eps_j chi_{a_j}(-g) on basis
    (n, j) and 2^{-n-1} chi_{c_j}(-g) on basis (n+1, j).  ``coords_of``
    leaves out every level m whose basis levels m and m+1 are zero in all
    rows; a left-out block was an exact zero (|0|^p = 0 and x + 0.0 == x),
    so no norm moves by a bit.

    The frame reads each level's index and sign arrays from its split and
    signs, which must exist for every level when it is made.  The matrices
    below are test references that perfbench's tracer wraps by name, built
    per call and cut to their nonzero band;
    p_m = 2^m + 2^{m+1} basis vectors of levels m and m+1 (2^m at the top):

    coord_matrix(m)             p_m x k_m      row b: coordinates of basis b on level m
    telescope_coeff_matrix(n)   k_n x p_n      row g: tele_{n,g}'s coefficients (``telescope_image``)
    functional_matrix(n)        2^n x k_n      own-form functional rows
    lower_functional_matrix(n)  2^n x k_{n-1}  lower-form functional rows
    """

    def __init__(
        self, data: ConstructionData, schedule: ExponentSchedule, max_level: int
    ) -> None:
        for n in range(max_level + 1):
            data.require(n).require_signs()  # missing signs fail here
        self.data = data
        self.schedule = schedule
        self.max_level = max_level
        self.dim = basis_dimension(max_level)

    def coords_at(self, coeff_rows: np.ndarray, m: int) -> np.ndarray:
        """Level-m coordinates of the vectors with basis-coefficient rows ``coeff_rows``."""
        return self.band_coords(coeff_rows[:, _pair_slice(m, self.max_level)], m)

    def band_coords(self, band_rows: np.ndarray, m: int) -> np.ndarray:
        """Level-m coordinates of the vectors with coefficient rows ``band_rows``
        on the band of basis levels m and m+1 (level m alone at the top)."""
        item = self.data.require(m)
        w = np.zeros((band_rows.shape[0], item.table.order), dtype=np.complex128)
        w[:, item.split.anchor_index] = item.require_signs().eps * band_rows[:, : 1 << m]
        if m < self.max_level:
            w[:, item.split.carrier_index] = band_rows[:, 1 << m :]
        return np.fft.ifft(w, axis=1, norm="forward", out=w)

    def tele_coeffs(self, n: int, b: np.ndarray) -> np.ndarray:
        """Entry [i, g] is the coefficient of band position b[i] (basis
        (n, j) at j - 1, basis (n+1, j) at 2^n + j - 1) in tele_{n,g}."""
        item = self.data.require(n)
        k, split, eps = item.table.order, item.split, item.require_signs().eps
        takes = np.concatenate([split.anchor_index, split.carrier_index])[b]
        weights = np.concatenate([-(2.0 ** (-n)) * eps, np.full(2 * k // 3, 2.0 ** (-n - 1))])
        return weights[b, None] * item.table.roots()[-np.outer(takes, np.arange(k)) % k]

    def telescope_image(self, op_matrix: np.ndarray, n: int) -> np.ndarray:
        """Row g holds the basis coefficients of T(tele_{n,g}); ``op_matrix`` is
        T's matrix, or a block of its columns (those coefficients alone),
        with at least the rows of basis levels 0..n+1."""
        if not 0 <= n <= self.max_level - 1:
            raise BadParameter(
                f"telescoping at level {n} needs level {n + 1} inside the truncation"
            )
        item = self.data.require(n)
        eps = item.require_signs().eps
        v = np.zeros((item.table.order, op_matrix.shape[1]), dtype=np.complex128)
        v[item.split.anchor_index] = -(2.0 ** (-n)) * eps[:, None] * op_matrix[level_slice(n)]
        v[item.split.carrier_index] = 2.0 ** (-n - 1) * op_matrix[level_slice(n + 1)]
        return np.fft.fft(v, axis=0, out=v)

    def coord_matrix(self, m: int) -> np.ndarray:
        rows = _pair_slice(m, self.max_level)  # every other basis vector is zero here
        return self.coords_at(np.eye(rows.stop - rows.start, self.dim, rows.start), m)

    def functional_matrix(self, n: int) -> np.ndarray:
        item = self.data.require(n)
        rows = item.table.rows_at_inverse(item.split.anchor_index)
        return item.require_signs().eps[:, None] * rows / item.table.order

    def lower_functional_matrix(self, n: int) -> np.ndarray:
        if n < 1:
            raise BadParameter("the lower-level form does not exist at level 0")
        below = self.data.require(n - 1)
        return below.table.rows_at_inverse(below.split.carrier_index) / below.table.order

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


def biorthogonality_deviation(frame: BasisFrame) -> float:
    """Largest deviation of alpha_{n,j}(e_{m,i}) from the Kronecker pattern.

    Checks both functional forms on every basis vector with a block where
    the form integrates: levels n and n+1 for the own form, n-1 and n for
    the lower one.  Every other pairing vanishes by disjoint support.  A
    test reference, not a verify row (see ``cli.cmd_verify``).
    """
    worst = 0.0
    below = None  # coord_matrix(n - 1), built once as the previous level
    for n in range(frame.max_level + 1):
        coords = frame.coord_matrix(n)
        gram_own = frame.functional_matrix(n) @ coords.T
        expected = np.eye(*gram_own.shape)  # level n leads the pair
        worst = max(worst, float(np.abs(gram_own - expected).max()))
        if below is not None:
            gram_low = frame.lower_functional_matrix(n) @ below.T
            expected = np.eye(*gram_low.shape, 1 << (n - 1))  # level n follows n-1
            worst = max(worst, float(np.abs(gram_low - expected).max()))
        below = coords
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


def _filled_rows(op: Operator, dim: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, values)`` of an operator: r row indices and an r x d array,
    d = 2^{N+1} - 1 (``dim`` when given)."""
    if not isinstance(op, tuple) or len(op) != 2:
        raise BadParameter(f"an operator is its filled rows (rows, values), got {type(op).__name__}")
    rows, values = np.asarray(op[0], dtype=np.int64), op[1]
    d = values.shape[-1] if values.ndim == 2 else 0
    if rows.ndim != 1 or values.shape != (rows.size, d) or d < 1 or (d + 1) & d:
        raise BadParameter(f"operator rows must be r x (2^(N+1)-1) for r indices, got {values.shape}")
    if dim is not None and d != dim:
        raise BadParameter(f"operator must act on {dim} basis vectors, got {d}")
    if rows.size and not 0 <= rows.min() <= rows.max() < d:
        raise BadParameter(f"operator rows must lie in 0..{d - 1}")
    return rows, values


def _diagonal(rows: np.ndarray, values: np.ndarray, sl: slice) -> np.ndarray:
    """Diagonal entries ``sl`` of T's matrix, each summed over its rows in order."""
    diagonal = np.zeros(sl.stop - sl.start, dtype=np.complex128)
    hit = (rows >= sl.start) & (rows < sl.stop)
    np.add.at(diagonal, rows[hit] - sl.start, values[hit, rows[hit]])
    return diagonal


def _diagonal_trace(diagonal: np.ndarray, n: int) -> complex:
    """2^{-n} times the sum of the level-n diagonal entries: the level trace."""
    return complex(2.0 ** (-n) * diagonal.sum())


def level_trace(op: Operator, n: int) -> complex:
    """Normalized level trace 2^{-n} sum_j alpha_{n,j}(T e_{n,j}) of T.

    Biorthogonality reduces it to the level-n diagonal of T's matrix, read
    from the filled rows; the truncation N is read from the row width.
    """
    if n < 0:
        raise BadParameter(f"level must be nonnegative, got {n}")
    rows, values = _filled_rows(op)
    top = values.shape[1].bit_length() - 1
    if n > top:
        raise BadParameter(f"level {n} exceeds truncation {top}")
    return _diagonal_trace(_diagonal(rows, values, level_slice(n)), n)


def _band_rows(rows: np.ndarray, values: np.ndarray, band: slice) -> Iterator[Tuple[np.ndarray, ...]]:
    """(band positions, rows cut to the band columns) of T's rows in the band, by chunks."""
    (picked,) = np.nonzero((rows >= band.start) & (rows < band.stop))
    chunk = discrepancy._SIGN_CHUNK_ROWS
    for start in range(0, picked.size, chunk):
        i = picked[start : start + chunk]
        yield rows[i] - band.start, values[i, band]


def _band_pass(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]], n: int, frame: BasisFrame
) -> Tuple[complex, complex, complex, float]:
    """T's level traces n and n+1, coordinate trace at n and the defect

        | trace_{n+1}(T) - trace_n(T) - (3*2^n)^{-1} sum_g T(tele_{n,g})(g) |,

    from ``blocks`` of (band positions b, T's rows there cut to the band
    columns, the only ones the level-n coordinates read).  The sum is
    sum_b sum_g c_{g,b} coords_n(T e_b)[g], c the tele coefficients.  The
    own-form functional of basis (n, j) is -2^n c_{g,(n,j)} / k, so the
    level-n rows' share is the coordinate trace, and the diagonal gives the
    level traces.  At the truncation the band is level n alone, and only
    the first and third values mean anything.  Memory is O(chunk * k).
    """
    band = _pair_slice(n, frame.max_level)
    k, half = block_size(n), 1 << n
    diagonal = np.zeros(band.stop - band.start, dtype=np.complex128)
    sums, own = [], []
    for b, block in blocks:
        np.add.at(diagonal, b, block[np.arange(b.size), b])
        terms = (frame.tele_coeffs(n, b) * frame.band_coords(block, n)).sum(axis=1)
        sums.append(terms.sum())
        own.append(terms[b < half].sum())
    here = _diagonal_trace(diagonal[:half], n)
    above = _diagonal_trace(diagonal[half:], n + 1)
    residual = abs(above - here - complex(np.sum(sums) / k))
    return here, above, complex(-np.sum(own) / k), residual


def telescope_residual(op: Operator, n: int, frame: BasisFrame) -> float:
    """Defect of the telescoping identity between levels n and n+1 of T,
    read from its band rows a chunk at a time (``_band_pass``)."""
    rows, values = _filled_rows(op, frame.dim)
    if n < 0:
        raise BadParameter(f"level must be nonnegative, got {n}")
    if n >= frame.max_level:
        raise BadParameter(f"level {n + 1} exceeds truncation {frame.max_level}")
    return _band_pass(_band_rows(rows, values, _pair_slice(n, frame.max_level)), n, frame)[3]


def _character_sums(table: CharacterTable, characters: np.ndarray) -> np.ndarray:
    """D[t] = sum_g chi_t(-g) ifft(delta_t, norm="forward")[g] for each of
    ``characters``.  chi_t(-g) is the root at inverse exponent t*g mod k,
    advanced along t = 0..k-1 (``advancing_exponents``) and gathered only at
    the characters asked for, a chunk at a time in reused buffers."""
    k = table.order
    inverse = table.roots()[-np.arange(2 * k) % k]  # the root at -e, e < 2k
    wanted = np.zeros(k, dtype=bool)
    wanted[characters] = True
    chunk, sums = min(discrepancy._SIGN_CHUNK_ROWS, k), np.zeros(k, dtype=np.complex128)
    roots, placed = np.empty((2, chunk, k), dtype=np.complex128)
    for start, e in advancing_exponents(np.arange(k), k, k, chunk):
        (rows,) = np.nonzero(wanted[start : start + len(e)])
        gathered, delta = roots[: rows.size], placed[: rows.size]
        np.take(inverse, e[rows], out=gathered, mode="clip")
        delta.fill(0.0)
        delta[np.arange(rows.size), start + rows] = 1.0
        np.fft.ifft(delta, axis=1, norm="forward", out=delta)
        sums[start + rows] = np.multiply(gathered, delta, out=gathered).sum(axis=1)
    return sums[characters]


def identity_stage(
    frame: BasisFrame,
) -> Tuple[Tuple[complex, ...], Tuple[complex, ...], Tuple[float, ...]]:
    """The identity's level and coordinate traces 0..N and telescoping
    residuals 0..N-1, one inner product per character and no d x d array.

    Identity band row b at level n is the unit vector at t = takes[b], so
    ``_band_pass``'s term for it is bit for bit s_b D[t] (``_character_sums``):
    s_b = -2^{-n} at an anchor (eps_j meets itself, and eps_j^2 = 1),
    2^{-n-1} at a carrier, and a signed power of two commutes with every
    rounding.  The terms are summed in ``_band_pass``'s chunks of band rows,
    so every bit is kept; the level traces read the diagonal of ones.
    """
    top = frame.max_level
    if top < 1:
        raise BadParameter("the identity stage telescopes levels 0 and 1")
    chunk = discrepancy._SIGN_CHUNK_ROWS
    traces, coordinates, residuals = [], [], []
    for n in range(top + 1):
        item, half = frame.data.require(n), 1 << n
        k, takes = item.table.order, item.split.anchor_index  # the top band: its anchors alone
        if n < top:
            takes = np.concatenate([takes, item.split.carrier_index])
        scale = np.where(np.arange(takes.size) < half, -(2.0 ** (-n)), 2.0 ** (-n - 1))
        terms = scale * _character_sums(item.table, takes)
        starts = range(0, takes.size, chunk)
        # per chunk, as _band_pass sums: all terms, and those of level-n rows
        total = np.sum([terms[s : s + chunk].sum() for s in starts])
        own = np.sum([terms[s : min(s + chunk, half)].sum() for s in starts])
        traces.append(_diagonal_trace(np.ones(half), n))
        coordinates.append(complex(-own / k))
        residuals.append(abs(_diagonal_trace(np.ones(2 * half), n + 1) - traces[-1] - complex(total / k)))
    return tuple(traces), tuple(coordinates), tuple(residuals[:-1])  # no residual at the top


def trace_limit(op: Operator, frame: BasisFrame) -> float:
    """Tail bound of the level traces past the truncation from the test family.

    The tail of the telescoping series is dominated by
    sum_{n >= N} (n+1)^{-2} * sup_x ||T x|| over the compact family; the
    supremum is estimated on the family members inside the truncation.
    T(tele_{n,g}) = sum_i c_{g,rows[i]} values[i]: the values' coordinates
    and each level's tele coefficients, taken once, meet a chunk of g at a
    time.  The coefficients are r x k per level, as the coordinates are.
    """
    rows, values = _filled_rows(op, frame.dim)
    top, chunk, coords = frame.max_level, discrepancy._SIGN_CHUNK_ROWS, frame.coords_of(values)
    live = values.any(axis=1)

    def largest_norm(picked: np.ndarray, chunks: Iterable[np.ndarray]) -> float:
        # the largest mixed norm of w @ values[picked] over the rows w of the chunks
        if not live[picked].any():
            return 0.0
        blocks = {m: c[picked] for m, c in coords.items()}
        norms = (z_norms_rows(frame.schedule, {m: w @ c for m, c in blocks.items()}) for w in chunks)
        return max(float(x.max()) for x in norms)

    base = np.flatnonzero(rows == basis_index(0, 1))
    sups = [largest_norm(base, [np.ones((1, base.size))])]
    for n in range(1, top):
        band = _pair_slice(n, top)
        picked = np.flatnonzero((rows >= band.start) & (rows < band.stop))
        coeffs = frame.tele_coeffs(n, rows[picked] - band.start).T
        chunks = (coeffs[s : s + chunk] for s in range(0, len(coeffs), chunk))
        sups.append((n + 1) ** 2 * largest_norm(picked, chunks))
    tail_factor = math.pi**2 / 6.0 - math.fsum(1.0 / m**2 for m in range(1, top + 1))
    return tail_factor * max(sups)


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
) -> Tuple[np.ndarray, np.ndarray]:
    """Random sum of coefficient-functional (x) vector terms inside a level
    cap, as its filled rows: term i is x -> alpha_{rows[i]}(x) values[i]."""
    if support_level > max_level:
        raise BadParameter("support level exceeds the truncation")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 303))))
    d_support = basis_dimension(support_level)
    rows = np.zeros(rank, dtype=np.int64)
    values = np.zeros((rank, basis_dimension(max_level)), dtype=np.complex128)
    for i in range(rank):
        n = int(rng.integers(0, support_level + 1))
        rows[i] = basis_index(n, int(rng.integers(1, (1 << n) + 1)))
        values[i, :d_support] = (
            rng.standard_normal(d_support) + 1j * rng.standard_normal(d_support)
        ) / math.sqrt(2.0)
    return rows, values


def experiment_operators(
    max_level: int, operator_count: int, max_rank: int, seed: int
) -> Iterator[Tuple[int, int, Operator]]:
    """The (support level, rank, filled rows) triples ``ap_experiment`` reports
    on, each supported below the truncation ``max_level``."""
    for i in range(operator_count):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 505, i))))
        support = int(rng.integers(0, max_level))
        rank = int(rng.integers(1, max_rank + 1))
        yield support, rank, random_finite_rank_operator(max_level, support, rank, seed=seed * 1009 + i)


def _finite_rank_row(
    i: int, support: int, rank: int, op: Operator, frame: BasisFrame
) -> FiniteRankRow:
    traces = tuple(level_trace(op, n) for n in range(frame.max_level + 1))
    beyond = [abs(t) for n, t in enumerate(traces) if n > support]
    return FiniteRankRow(
        operator=i,
        rank=rank,
        support_level=support,
        traces=traces,
        max_beyond_support=max(beyond) if beyond else 0.0,
        limit_estimate=traces[-1],
        tail_bound=trace_limit(op, frame),
    )


def ap_experiment(
    frame: BasisFrame,
    cross_constant: float,
    operator_count: int = 5,
    max_rank: int = 5,
    seed: int = 0,
    provenance: Optional[Dict[str, object]] = None,
) -> ObstructionReport:
    """Assemble the obstruction evidence at one truncation N >= 1.

    The identity keeps level trace 1 at every level: its matrix traces,
    its coordinate traces (through the realized basis) and its telescoping
    residuals come from ``identity_stage``, one inner product per
    character and never a d x d array.  Random finite-rank
    operators, given by their filled rows, have exactly zero trace above
    their support,
    and the compact-family norms stay under the certified envelope; the
    rate reference column shows the schedule's decay sequence scaled by
    the same constant.
    """
    top = frame.max_level
    if max_rank < 1 or operator_count < 0:
        raise BadParameter(f"need rank >= 1 and operators >= 0, got {max_rank}, {operator_count}")
    if max_rank * basis_dimension(top) * 16 > OPERATOR_BYTES_CAP:
        raise BadParameter(f"rank {max_rank} at level {top} needs rows above {OPERATOR_BYTES_CAP} bytes")

    traces, coordinates, identity_residuals = identity_stage(frame)
    identity_rows = [
        IdentityTraceRow(n, t, c, max(abs(t - 1.0), abs(c - 1.0)))
        for n, (t, c) in enumerate(zip(traces, coordinates))
    ]
    rank_rows = [
        _finite_rank_row(i, support, rank, op, frame)
        for i, (support, rank, op) in enumerate(
            experiment_operators(top, operator_count, max_rank, seed)
        )
    ]

    scale = NORM_CHAIN_FACTOR * cross_constant
    family = telescope_norms(frame.data, frame.schedule, top)
    compact_rows = [
        CompactFamilyRow(
            level=n,
            max_scaled_norm=float((n + 1) ** 2 * family.norms[n].max()),
            envelope=scale * (n + 1) ** 2.5 * 2.0 ** (-n * frame.schedule.gap(n + 1)),
            rate_reference=scale * compactness_sequence(frame.schedule, n),
        )
        for n in range(1, top)
    ]
    base = frame.data.require(0)  # basis vector (0, 1) is eps_1 chi_{anchor_1} on level 0
    base_block = base.require_signs().signs[0] * base.table.rows([base.split.anchors[0]])

    return ObstructionReport(
        max_level=top,
        identity_trace=tuple(identity_rows),
        identity_telescope_residuals=identity_residuals,
        finite_rank=tuple(rank_rows),
        base_vector_norm=float(z_norms_rows(frame.schedule, {0: base_block})[0]),
        compact_family=tuple(compact_rows),
        cross_constant=cross_constant,
        provenance=dict(provenance or {}),
    )
