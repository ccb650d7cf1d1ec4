"""Character splits, sign patterns, and their certified bounds.

Each level's 3*2^n characters are split into an *anchor* list (2^n entries,
one per level-n basis vector, entering the balance sum with weight two) and
a *carrier* list (2^{n+1} entries, handed to the next level, weight one).
The split quality is the balance discrepancy

    d(n) = max_g | 2*sum_j chi_{anchor_j}(g) - sum_j chi_{carrier_j}(g) |

and sign patterns eps_j in {+1, -1} then damp the two cross blocks that
couple neighbouring levels through the basis vectors:

    lower_n(g, h) = -2^{-n}   * sum_j eps^n_j  chi_{anchor^n_j}(-g) chi_{carrier^{n-1}_j}(h)
    upper_n(g, h) = +2^{-n-1} * sum_j chi_{carrier^n_j}(-g) eps^{n+1}_j chi_{anchor^{n+1}_j}(h)

Choosing eps^n fixes lower_n and upper_{n-1}, so patterns are selected
level by level.  Since upper_{n-1}(h, g) = -conj(lower_n(g, h)), a sign
candidate is scored on the lower block alone, one length-k FFT per row of
lower_n^T.  The signs are real and chi(-x) = conj(chi(x)), so
lower_n(-g, -h) = conj(lower_n(g, h)): row -h is row h mirrored and
conjugated, and rows h = 0..k_below//2 already hold every modulus.  The
exhaustive search scores the +1-first half in batches, one FFT call each.
Split candidates are scored by one FFT of the anchor indicator.

The balance values are one inverse FFT of the weights (2 at anchors, -1
at carriers), and both cross blocks come from the sign kernel
(``lower_rows``), as do the compact family's norms in ``obstruction``.
Certification reads the cross maxima from the objectives the sign search
stored, which ``verify`` rescores, and checks the balance against the
split search's indicator route.  The literal double sums are test oracles
in ``tests/oracles.py``.

Both searches take candidates in index order.  Randomized strategies draw
each candidate from its own seed sequence keyed by (seed, stream, index),
so results do not depend on the batch size and ``split_draw`` and
``sign_draw`` regenerate any draw on its own.  Given a ``target``, a search
stops at the first candidate scoring at most the target and records how
many it took (``draws``); ``build_levels`` sets the target from the
constants the levels below have fixed.  Davie's lemma says a random draw
meets them with positive probability, so the budget is only a cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .characters import CharacterTable, advancing_exponents, block_size, read_only
from .errors import BadParameter
from .store import exact_ints

EXHAUSTIVE_MAX_LEVEL = 4
# build_levels searches splits below RANDOM_SPLIT_LEVEL and signs below
# RANDOM_SIGN_LEVEL exhaustively, and by random restarts from there on.
RANDOM_SPLIT_LEVEL = 3
RANDOM_SIGN_LEVEL = 4

_SPLIT_STREAM = 101
_SIGN_STREAM = 202

# Split candidates are scored in batches that double from one candidate up to
# about this many spectrum entries; exhaustive sign patterns go in batches of
# at most this many.
_SPLIT_CHUNK_ENTRIES = 1 << 20
# Rows of lower_n^T transformed at once for one sign pattern.
_SIGN_CHUNK_ROWS = 32
# Split scores and sign objectives within this relative distance of the best are ties.
_TIE_RTOL = 1e-12


def _check_draws(draws: int) -> None:
    if type(draws) is not int or draws < 1:  # no bool (JSON true) or float
        raise BadParameter(f"draws must be a positive integer, got {draws!r}")


@dataclass(frozen=True)
class CharacterSplit:
    """Anchor/carrier partition of one level's character indices; ``draws``
    counts the candidates its search took, as in ``SignPattern`` (all 2^m
    on an exhaustive sign level, which scores the +1-first half).  Only a
    partition can be made (else BadParameter): 2^level anchors and
    2^{level+1} carriers that hold 0..k-1 once each, k = 3*2^level.  The
    kernels read the index arrays, derived once."""

    level: int
    anchors: Tuple[int, ...]
    carriers: Tuple[int, ...]
    discrepancy: float
    draws: int = 1

    def __post_init__(self) -> None:
        _check_draws(self.draws)
        k = block_size(self.level)
        merged = (*self.anchors, *self.carriers)
        if len(self.anchors) != k // 3 or not exact_ints(merged) or sorted(merged) != list(range(k)):
            raise BadParameter(
                f"level {self.level} needs {k // 3} anchors and {2 * k // 3} carriers "
                f"that partition the integers 0..{k - 1}"
            )

    @cached_property
    def anchor_index(self) -> np.ndarray:
        return read_only(self.anchors, np.int64)

    @cached_property
    def carrier_index(self) -> np.ndarray:
        return read_only(self.carriers, np.int64)


@dataclass(frozen=True)
class SignPattern:
    """One integer +-1 per level-n anchor, 2^level of them, or BadParameter;
    the kernels read them as the float64 array ``eps``, derived once."""

    level: int
    signs: Tuple[int, ...]
    objective: float
    draws: int = 1

    def __post_init__(self) -> None:
        m = block_size(self.level) // 3
        if len(self.signs) != m or not exact_ints(self.signs) or not set(self.signs) <= {-1, 1}:
            raise BadParameter(f"level {self.level} needs {m} signs, each the integer +1 or -1")
        _check_draws(self.draws)

    @cached_property
    def eps(self) -> np.ndarray:
        return read_only(self.signs, np.float64)


@dataclass(frozen=True)
class LevelData:
    """Everything built for one level; signs arrive after the split."""

    table: CharacterTable
    split: CharacterSplit
    signs: Optional[SignPattern] = None

    @property
    def level(self) -> int:
        return self.table.group.level

    def require_signs(self) -> SignPattern:
        if self.signs is None:
            raise BadParameter(f"signs for level {self.level} have not been fixed")
        return self.signs


class ConstructionData:
    """Per-level build results, addressed by level."""

    def __init__(self) -> None:
        self._levels: Dict[int, LevelData] = {}

    def put(self, item: LevelData) -> None:
        self._levels[item.level] = item

    def set_signs(self, pattern: SignPattern) -> None:
        item = self.require(pattern.level)
        self._levels[pattern.level] = LevelData(
            table=item.table, split=item.split, signs=pattern
        )

    def has(self, level: int) -> bool:
        return level in self._levels

    def require(self, level: int) -> LevelData:
        if level not in self._levels:
            raise BadParameter(f"no data built for level {level}")
        return self._levels[level]

    def levels(self) -> Tuple[int, ...]:
        return tuple(sorted(self._levels))


def _balance(k: int, anchors: np.ndarray) -> np.ndarray:
    weights = np.full(k, -1.0)
    weights[anchors] = 2.0
    return np.fft.ifft(weights, norm="forward")


def balance_values(table: CharacterTable, split: CharacterSplit) -> np.ndarray:
    """Balance sum 2*sum_anchors - sum_carriers over all group elements:
    one unscaled inverse FFT of the weights, 2 at anchors and -1 at carriers."""
    return _balance(table.order, split.anchor_index)


def _discrepancy(k: int, anchors: np.ndarray) -> float:
    return float(np.abs(_balance(k, anchors)).max())


def split_discrepancy(split: CharacterSplit, table: CharacterTable) -> float:
    """Largest balance magnitude d(n), recomputed from the balance values."""
    return _discrepancy(table.order, split.anchor_index)


# ----------------------------------------------------------------------
# fast scoring
#
# Off the identity the full character sum vanishes, so the balance equals
# three times the anchor sum there, and the anchor sum over g is a DFT of
# the anchor indicator.  The search scores candidates this way;
# certification checks it against the balance values.
# ----------------------------------------------------------------------


def _score_indicator_batch(ind: np.ndarray) -> np.ndarray:
    spectrum = np.fft.fft(ind, axis=1)
    return 3.0 * np.abs(spectrum[:, 1:]).max(axis=1)


def _candidate_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream, index))))


def split_draw(seed: int, index: int, k: int) -> np.ndarray:
    """Sorted anchors of random-restart split draw ``index`` at order k."""
    rng = _candidate_rng(seed, _SPLIT_STREAM, index)
    # sorted, so the order numpy would shuffle them into is unused
    return np.sort(rng.choice(k, size=k // 3, replace=False, shuffle=False))


def sign_draw(seed: int, index: int, m: int) -> Tuple[int, ...]:
    """Random-restart sign pattern draw ``index`` of length m."""
    bits = _candidate_rng(seed, _SIGN_STREAM, index).integers(0, 2, size=m)
    return tuple(1 if b == 0 else -1 for b in bits)


_Candidate = TypeVar("_Candidate")


def _scan(
    batches: Iterable[Tuple[np.ndarray, Sequence[_Candidate]]], target: float
) -> Tuple[_Candidate, float, int]:
    """Winner, its score and the candidates taken, from scored batches in index order.

    The first candidate scoring at most ``target`` wins at once.  Without
    one, every candidate is scored and the earliest within a relative
    ``_TIE_RTOL`` of the best wins, so last-bit rounding never decides
    between equivalent candidates.
    """
    best, taken = math.inf, 0
    kept: List[Tuple[float, _Candidate]] = []  # near-ties of the best so far
    for scores, candidates in batches:
        hit = np.flatnonzero(scores <= target)
        if hit.size:
            i = int(hit[0])
            return candidates[i], float(scores[i]), taken + i + 1
        taken += len(scores)
        best = min(best, float(scores.min()))
        near = np.flatnonzero(scores <= best * (1.0 + _TIE_RTOL))
        kept.extend((float(scores[i]), candidates[i]) for i in near)
    score, winner = next((sc, c) for sc, c in kept if sc <= best * (1.0 + _TIE_RTOL))
    return winner, score, taken


def _exhaustive(kind: str, strategy: str, n: int, budget: int, seed: int) -> bool:
    """Check a search's arguments; whether it enumerates every candidate."""
    if budget < 1:
        raise BadParameter(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {seed}")
    if strategy not in ("exhaustive", "random-restart"):
        raise BadParameter(f"unknown {kind} search strategy {strategy!r}")
    if strategy == "exhaustive" and n > EXHAUSTIVE_MAX_LEVEL:
        raise BadParameter(
            f"exhaustive {kind} search is limited to levels <= {EXHAUSTIVE_MAX_LEVEL}"
        )
    return strategy == "exhaustive"


def _indicator(k: int, anchors: np.ndarray) -> np.ndarray:
    out = np.zeros((anchors.shape[0], k), dtype=np.float64)
    np.put_along_axis(out, anchors, 1.0, axis=1)
    return out


def search_character_split(
    table: CharacterTable,
    strategy: str = "random-restart",
    budget: int = 1,
    seed: int = 0,
    target: float = -math.inf,
) -> CharacterSplit:
    """Search for an anchor/carrier split with small balance discrepancy.

    Deterministic for fixed (strategy, budget, seed, target).  ``exhaustive``
    enumerates every split in lexicographic order and is only allowed for
    levels <= 4; ``random-restart`` scores up to ``budget`` uniform draws.
    The first split scoring at most ``target`` wins; without one, the
    earliest within a relative 1e-12 of the best, which on the exhaustive
    path is the lexicographically smallest anchor list among the near-ties.
    """
    k, n = table.order, table.group.level
    cnt = k // 3
    step = max(1, _SPLIT_CHUNK_ENTRIES // k)
    if _exhaustive("split", strategy, n, budget, seed):
        count = math.comb(k, cnt)
        flat = itertools.chain.from_iterable(itertools.combinations(range(k), cnt))

        def batch(lo: int, hi: int) -> np.ndarray:
            taken = itertools.islice(flat, (hi - lo) * cnt)
            return np.fromiter(taken, dtype=np.int64).reshape(-1, cnt)

    else:
        count = budget

        def batch(lo: int, hi: int) -> np.ndarray:
            return np.stack([split_draw(seed, i, k) for i in range(lo, hi)])

    def scored() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        lo, size = 0, 1
        while lo < count:
            anchors = batch(lo, min(lo + size, count))
            yield _score_indicator_batch(_indicator(k, anchors)), anchors
            lo, size = lo + len(anchors), min(2 * size, step)

    row, _, draws = _scan(scored(), target)
    carriers = np.delete(np.arange(k), row)  # the rest, in order
    return CharacterSplit(n, tuple(row.tolist()), tuple(carriers.tolist()), _discrepancy(k, row), draws)


# ----------------------------------------------------------------------
# cross blocks
# ----------------------------------------------------------------------


def lower_rows(
    n: int, data: ConstructionData, eps: np.ndarray, rows: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Rows h = 0..rows-1 of lower_n^T / (-2^{-n}), as (first row, chunk) pairs.

    Row h is the length-k FFT of the vector that holds eps_j * chi_{c_j}(h)
    at anchor a_j.  The phases are gathered from the exact-exponent roots of
    level n-1, with the exponents h * c_j advanced and the signs folded into
    the table (``advancing_exponents``), through one flat placement index.
    Rows go ``_SIGN_CHUNK_ROWS`` at a time.  One pattern, ``eps`` of shape
    (m,), gives (size, k) chunks, so memory stays O(chunk * k); a batch,
    shape (B, m), gives (size, B, k) chunks, each one FFT call.
    """
    here, below = data.require(n), data.require(n - 1)
    k, k_below = here.table.order, below.table.order
    batch, count = eps.shape[:-1], len(eps) if eps.ndim > 1 else 1
    table, shift = below.table.signed_roots(), (eps.reshape(-1) < 0) * (2 * k_below)
    chunk = min(_SIGN_CHUNK_ROWS, rows)
    placed = np.zeros((chunk, count * k), dtype=np.complex128)
    anchors = np.arange(count)[:, None] * k + here.split.anchor_index
    flat = (np.arange(chunk)[:, None] * (count * k) + anchors.reshape(-1)).reshape(-1)
    carriers = np.tile(below.split.carrier_index, count)
    for start, e in advancing_exponents(carriers, k_below, rows, chunk, shift):
        placed.reshape(-1)[flat[: e.size]] = table[e].reshape(-1)
        yield start, np.fft.fft(placed[: len(e)].reshape(len(e), *batch, k), axis=-1)


def cross_lower_matrix(n: int, data: ConstructionData) -> np.ndarray:
    """Lower coupling block of level n >= 1, through the sign kernel's FFTs."""
    if n < 1:
        raise BadParameter("level-0 vectors have no lower block")
    eps = data.require(n).require_signs().eps
    k, k_below = data.require(n).table.order, data.require(n - 1).table.order
    lower_t = np.empty((k_below, k), dtype=np.complex128)
    for start, spectrum in lower_rows(n, data, eps, k_below):
        lower_t[start : start + len(spectrum)] = spectrum
    lower_t *= -(2.0 ** (-n))
    return lower_t.T


def cross_upper_matrix(n: int, data: ConstructionData) -> np.ndarray:
    """Upper coupling block of level n: upper_n(g, h) = -conj(lower_{n+1}(h, g))."""
    return -cross_lower_matrix(n + 1, data).T.conj()


def middle_block(n: int, data: ConstructionData) -> np.ndarray:
    """Own-level block of the telescoping vectors.

    Signs square away and the block collapses to a circulant of the balance
    values: value(g, h) = -2^{-n-1} * balance(h - g).  A test reference.
    """
    here = data.require(n)
    k = here.table.order
    bal = balance_values(here.table, here.split)
    idx = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k
    return -(2.0 ** (-n - 1)) * bal[idx]


# ----------------------------------------------------------------------
# sign search
# ----------------------------------------------------------------------


def _sign_rows(n: int, data: ConstructionData) -> int:
    """Rows h = 0..k_below//2 of lower_n^T, the ones a level-n score transforms."""
    return data.require(n - 1).table.order // 2 + 1


def _sign_batch(n: int, data: ConstructionData) -> int:
    """Patterns per ``sign_objectives`` call whose FFT inputs fit ``_SPLIT_CHUNK_ENTRIES``."""
    if n == 0:
        return _SPLIT_CHUNK_ENTRIES  # level 0 is scored without an FFT
    entries = min(_SIGN_CHUNK_ROWS, _sign_rows(n, data)) * data.require(n).table.order
    return max(1, _SPLIT_CHUNK_ENTRIES // entries)


def sign_objectives(n: int, data: ConstructionData, patterns: np.ndarray) -> np.ndarray:
    """Largest cross-block magnitude each level-n pattern controls, for a
    (B, m) array of +-1 patterns.

    |upper_{n-1}| is the transpose of |lower_n|, so only lower_n is formed,
    one FFT per row of lower_n^T (``lower_rows``).  Row k_below - h is row
    h conjugated and read at -g (eps is real, chi(-x) = conj(chi(x))), so
    it has the same largest modulus and only rows 0..k_below//2 are
    transformed.  Each chunk of rows is one FFT call over all B patterns;
    ``_sign_batch`` patterns keep it within ``_SPLIT_CHUNK_ENTRIES`` entries.
    """
    eps = np.asarray(patterns, dtype=np.float64)
    if n == 0:
        return np.zeros(len(eps))
    if eps.shape[-1] != len(data.require(n).split.anchors):
        raise BadParameter("sign pattern length must match the anchor count")
    worst = np.zeros(len(eps))
    for _, spectrum in lower_rows(n, data, eps, _sign_rows(n, data)):
        worst = np.maximum(worst, np.abs(spectrum).max(axis=(0, -1)))
        del spectrum  # freed before the next chunk is transformed
    return 2.0 ** (-n) * worst


def sign_objective(n: int, data: ConstructionData, signs: Sequence[int]) -> float:
    """``sign_objectives`` of the one pattern ``signs``."""
    return float(sign_objectives(n, data, [signs])[0])


def search_signs(
    n: int,
    data: ConstructionData,
    strategy: str = "random-restart",
    budget: int = 1,
    seed: int = 0,
    target: float = -math.inf,
) -> SignPattern:
    """Search the level-n sign pattern minimizing its cross-block maxima.

    Patterns are chosen level by level; the pattern at n finalizes the
    lower block of level n and the upper block of level n-1 (at n = 0 the
    objective is vacuous).  Each candidate is scored once.  ``exhaustive``
    enumerates the patterns in lexicographic order, +1 before -1, and
    scores them in batches through ``sign_objectives``; ``random-restart``
    scores up to ``budget`` draws one at a time through ``sign_objective``,
    so none past the first hit is scored.  The first pattern scoring at
    most ``target`` wins; without one, the earliest within a relative
    1e-12 of the best, which on the exhaustive path is the
    lexicographically smallest pattern among the near-ties.  A global flip
    negates the FFT input exactly, so the exhaustive path scores only the
    +1-first half, where the first hit and the earliest near-tie lie;
    ``draws`` still counts all 2^m patterns: the hit's position, else 2^m.
    """
    exhaustive = _exhaustive("sign", strategy, n, budget, seed)
    m = len(data.require(n).split.anchors)
    if n >= 1:
        data.require(n - 1).require_signs()  # sequential level order

    def drawn() -> Iterator[Tuple[np.ndarray, List[Tuple[int, ...]]]]:
        for i in range(budget):
            signs = sign_draw(seed, i, m)
            yield np.array([sign_objective(n, data, signs)]), [signs]

    def enumerated() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        step, count = _sign_batch(n, data), 1 << (m - 1)  # the +1-first half
        bits = np.arange(m - 1, -1, -1)
        for lo in range(0, count, step):
            index = np.arange(lo, min(lo + step, count))
            patterns = 1 - 2 * ((index[:, None] >> bits) & 1)  # bit 0 is +1
            yield sign_objectives(n, data, patterns), patterns

    signs, objective, draws = _scan(enumerated() if exhaustive else drawn(), target)
    if exhaustive and not objective <= target:  # no hit: the flipped half counts as taken
        draws = 1 << m
    signs = tuple(int(s) for s in signs)
    return SignPattern(level=n, signs=signs, objective=objective, draws=draws)


# ----------------------------------------------------------------------
# certification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SplitBoundRow:
    level: int
    stored: float
    recomputed: float
    scale: float
    ratio: float

    @property
    def drift(self) -> float:
        return abs(self.stored - self.recomputed)


@dataclass(frozen=True)
class CrossBoundRow:
    level: int
    max_lower: float
    max_middle: float
    max_upper: float
    overall: float
    scale: float
    ratio: float
    middle_identity_residual: float


@dataclass(frozen=True)
class CertifiedConstants:
    """Smallest constants certifying the balance and cross-block bounds.

    ``split_constant`` dominates d(n) / ((n+1)^{1/2} 2^{n/2}) over the
    requested levels; ``cross_constant`` dominates the telescoping-vector
    maxima against (n+1)^{1/2} 2^{-n/2} over levels >= 1.
    """

    split_constant: float
    cross_constant: float
    split_rows: Tuple[SplitBoundRow, ...]
    cross_rows: Tuple[CrossBoundRow, ...]


def split_bound_scale(n: int) -> float:
    return math.sqrt(n + 1.0) * 2.0 ** (n / 2.0)


def cross_bound_scale(n: int) -> float:
    return math.sqrt(n + 1.0) * 2.0 ** (-n / 2.0)


def certify_constants(levels: Iterable[int], data: ConstructionData) -> CertifiedConstants:
    """Certify the bounds over the requested levels.

    Cross rows cover requested levels n >= 1 whose neighbour n+1 has been
    built.  max |lower_n| and max |upper_n| = max |lower_{n+1}| are the
    stored sign objectives of levels n and n+1, scored once by the search
    (``verify``'s sign-objective-drift rescores them); the middle block is
    a circulant of the recomputed balance values, so its maximum is
    2^{-n-1} d(n).  The identity residual compares that with the split
    search's route, 3 * max_{g != 0} |DFT of the anchor indicator|.
    """
    level_list = sorted(set(int(n) for n in levels))
    if not level_list:
        raise BadParameter("at least one level is required")

    split_rows: List[SplitBoundRow] = []
    for n in level_list:
        item = data.require(n)
        recomputed, scale = split_discrepancy(item.split, item.table), split_bound_scale(n)
        stored = item.split.discrepancy
        split_rows.append(SplitBoundRow(n, stored, recomputed, scale, recomputed / scale))

    balance = {r.level: r.recomputed for r in split_rows}
    cross_rows: List[CrossBoundRow] = []
    for n in (n for n in level_list if n >= 1 and data.has(n + 1)):
        item = data.require(n)
        indicator = _indicator(item.table.order, item.split.anchor_index[None, :])
        indicator_score = float(_score_indicator_batch(indicator)[0])
        max_lower = item.require_signs().objective
        max_upper = data.require(n + 1).require_signs().objective
        max_middle = 2.0 ** (-n - 1) * balance[n]
        overall = max(max_lower, max_middle, max_upper)
        scale = cross_bound_scale(n)
        residual = abs(max_middle - 2.0 ** (-n - 1) * indicator_score)
        cross_rows.append(CrossBoundRow(
            n, max_lower, max_middle, max_upper, overall, scale, overall / scale, residual
        ))

    return CertifiedConstants(
        split_constant=max(r.ratio for r in split_rows),
        cross_constant=max((r.ratio for r in cross_rows), default=0.0),
        split_rows=tuple(split_rows),
        cross_rows=tuple(cross_rows),
    )
