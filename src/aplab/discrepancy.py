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
conjugated, and rows h = 0..k_below//2 already hold every modulus.  Split
candidates are scored by one FFT of the anchor indicator.

The balance values are one inverse FFT of the weights (2 at anchors, -1
at carriers), and both cross blocks come from the sign kernel.
Certification reads the cross maxima from ``sign_objective`` and checks
the balance against the split search's indicator route.  The literal
double sums are test oracles in ``tests/oracles.py``.

Randomized strategies draw each candidate from its own seed sequence keyed
by (seed, stream, index); results do not depend on evaluation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .characters import CharacterTable
from .errors import (
    BadParameter,
    MissingLevelData,
    PartitionInvalid,
    StrategyUnavailable,
)

EXHAUSTIVE_SPLIT_MAX_LEVEL = 4
EXHAUSTIVE_SIGN_MAX_LEVEL = 4

_SPLIT_STREAM = 101
_SIGN_STREAM = 202

# Split candidates are scored in batches of about this many spectrum entries.
_SPLIT_CHUNK_ENTRIES = 1 << 20
# Rows of lower_n^T transformed at once by the sign objective.
_SIGN_CHUNK_ROWS = 32
# Split scores and sign objectives within this relative distance of the best are ties.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class CharacterSplit:
    """Anchor/carrier partition of one level's character indices."""

    level: int
    anchors: Tuple[int, ...]
    carriers: Tuple[int, ...]
    discrepancy: float


@dataclass(frozen=True)
class SignPattern:
    level: int
    signs: Tuple[int, ...]
    objective: float

    def __post_init__(self) -> None:
        if any(s not in (-1, 1) for s in self.signs):
            raise BadParameter("signs must be +1 or -1")


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
            raise MissingLevelData(f"signs for level {self.level} have not been fixed")
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
            raise MissingLevelData(f"no data built for level {level}")
        return self._levels[level]

    def levels(self) -> Tuple[int, ...]:
        return tuple(sorted(self._levels))

    @property
    def max_level(self) -> int:
        if not self._levels:
            raise MissingLevelData("no levels built")
        return max(self._levels)


def _anchor_count(k: int) -> int:
    return k // 3


def validate_partition(split: CharacterSplit, k: int) -> None:
    """Raise PartitionInvalid unless k/3 anchors and 2k/3 carriers cover 0..k-1 once."""
    anchors, carriers = split.anchors, split.carriers
    if len(anchors) != _anchor_count(k) or len(carriers) != 2 * _anchor_count(k):
        raise PartitionInvalid(
            f"expected {_anchor_count(k)} anchors and {2 * _anchor_count(k)} carriers"
        )
    merged = sorted(anchors + carriers)
    if merged != list(range(k)):
        raise PartitionInvalid("anchors and carriers must partition the index set")


def balance_values(table: CharacterTable, split: CharacterSplit) -> np.ndarray:
    """Balance sum 2*sum_anchors - sum_carriers over all group elements:
    one unscaled inverse FFT of the weights, 2 at anchors and -1 at carriers."""
    validate_partition(split, table.order)
    weights = np.full(table.order, -1.0)
    weights[list(split.anchors)] = 2.0
    return np.fft.ifft(weights, norm="forward")


def split_discrepancy(split: CharacterSplit, table: CharacterTable) -> float:
    """Largest balance magnitude d(n), recomputed from the balance values."""
    return float(np.abs(balance_values(table, split)).max())


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


def _complement(k: int, anchors: Sequence[int]) -> Tuple[int, ...]:
    mask = np.ones(k, dtype=bool)
    mask[list(anchors)] = False
    return tuple(int(x) for x in np.nonzero(mask)[0])


def _candidate_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream, index))))


def _near_ties(scores: np.ndarray, best: float) -> np.ndarray:
    """Mask of the scores within a relative ``_TIE_RTOL`` of ``best``."""
    return scores <= best * (1.0 + _TIE_RTOL)


def _split_chunk_rows(k: int) -> int:
    return max(1, _SPLIT_CHUNK_ENTRIES // k)


def _indicator(k: int, anchors: np.ndarray) -> np.ndarray:
    out = np.zeros((anchors.shape[0], k), dtype=np.float64)
    np.put_along_axis(out, anchors, 1.0, axis=1)
    return out


def search_character_split(
    table: CharacterTable,
    strategy: str = "random-restart",
    budget: int = 1,
    seed: int = 0,
) -> CharacterSplit:
    """Search for an anchor/carrier split with small balance discrepancy.

    Deterministic for fixed (strategy, budget, seed).  Scores within a
    relative 1e-12 of the best are ties, so last-bit rounding never decides
    between equivalent splits; among ties the lexicographically smallest
    anchor list wins.  ``exhaustive`` enumerates every split and is only
    allowed for levels <= 4; ``random-restart`` scores ``budget`` uniform
    draws.
    """
    if budget < 1:
        raise BadParameter(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {seed}")
    k = table.order
    n = table.group.level
    cnt = _anchor_count(k)
    step = _split_chunk_rows(k)

    if strategy == "exhaustive":
        if n > EXHAUSTIVE_SPLIT_MAX_LEVEL:
            raise StrategyUnavailable(
                f"exhaustive split search is limited to levels <= {EXHAUSTIVE_SPLIT_MAX_LEVEL}"
            )
        count = math.comb(k, cnt)
        flat = itertools.chain.from_iterable(itertools.combinations(range(k), cnt))

        def batch(lo: int, hi: int) -> np.ndarray:
            taken = itertools.islice(flat, (hi - lo) * cnt)
            return np.fromiter(taken, dtype=np.int64).reshape(-1, cnt)

    elif strategy == "random-restart":
        count = budget

        def batch(lo: int, hi: int) -> np.ndarray:
            # draws are sorted, so the order numpy would shuffle them into is unused
            draws = [
                _candidate_rng(seed, _SPLIT_STREAM, i).choice(
                    k, size=cnt, replace=False, shuffle=False
                )
                for i in range(lo, hi)
            ]
            return np.sort(np.stack(draws), axis=1)

    else:
        raise BadParameter(f"unknown split search strategy {strategy!r}")

    best = math.inf
    kept: List[Tuple[np.ndarray, np.ndarray]] = []  # near-ties of the best so far
    for lo in range(0, count, step):
        anchors = batch(lo, min(lo + step, count))
        scores = _score_indicator_batch(_indicator(k, anchors))
        best = min(best, float(scores.min()))
        near = _near_ties(scores, best)
        kept.append((scores[near], anchors[near]))
    tied = np.concatenate([rows for _, rows in kept])
    tied = tied[_near_ties(np.concatenate([sc for sc, _ in kept]), best)]
    winner = tuple(int(x) for x in tied[np.lexsort(tied.T[::-1])[0]])
    carriers = _complement(k, winner)
    probe = CharacterSplit(level=n, anchors=winner, carriers=carriers, discrepancy=0.0)
    return CharacterSplit(
        level=n, anchors=winner, carriers=carriers,
        discrepancy=split_discrepancy(probe, table),
    )


# ----------------------------------------------------------------------
# cross blocks
# ----------------------------------------------------------------------


def _lower_rows(
    n: int, data: ConstructionData, eps: np.ndarray, rows: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Rows h = 0..rows-1 of lower_n^T / (-2^{-n}), as (first row, chunk) pairs.

    Row h is the length-k FFT of the vector that holds eps_j * chi_{c_j}(h)
    at anchor a_j.  The phases are gathered from the exact-exponent roots of
    level n-1 and rows go ``_SIGN_CHUNK_ROWS`` at a time through one flat
    placement index, so memory stays O(chunk * k).
    """
    here = data.require(n)
    below = data.require(n - 1)
    k, k_below = here.table.order, below.table.order
    anchors = np.asarray(here.split.anchors, dtype=np.int64)
    carriers = np.asarray(below.split.carriers, dtype=np.int64)
    roots = below.table.roots()
    chunk = min(_SIGN_CHUNK_ROWS, rows)
    placed = np.zeros((chunk, k), dtype=np.complex128)
    flat = (np.arange(chunk)[:, None] * k + anchors).reshape(-1)
    for start in range(0, rows, chunk):
        h = np.arange(start, min(start + chunk, rows))
        placed.reshape(-1)[flat[: len(h) * len(anchors)]] = (
            eps * roots[np.outer(h, carriers) % k_below]
        ).reshape(-1)
        yield start, np.fft.fft(placed[: len(h)], axis=1)


def cross_lower_matrix(n: int, data: ConstructionData) -> np.ndarray:
    """Lower coupling block of level n >= 1, through the sign kernel's FFTs."""
    if n < 1:
        raise BadParameter("level-0 vectors have no lower block")
    eps = np.asarray(data.require(n).require_signs().signs, dtype=np.float64)
    k, k_below = data.require(n).table.order, data.require(n - 1).table.order
    lower_t = np.empty((k_below, k), dtype=np.complex128)
    for start, spectrum in _lower_rows(n, data, eps, k_below):
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


def sign_objective(n: int, data: ConstructionData, signs: Sequence[int]) -> float:
    """Largest cross-block magnitude the level-n pattern controls.

    |upper_{n-1}| is the transpose of |lower_n|, so only lower_n is formed,
    one FFT per row of lower_n^T (``_lower_rows``).  Row k_below - h is row
    h conjugated and read at -g (eps is real, chi(-x) = conj(chi(x))), so
    it has the same largest modulus and only rows 0..k_below//2 are
    transformed.
    """
    if n == 0:
        return 0.0
    eps = np.asarray(signs, dtype=np.float64)
    if len(eps) != len(data.require(n).split.anchors):
        raise BadParameter("sign pattern length must match the anchor count")
    rows = data.require(n - 1).table.order // 2 + 1
    worst = 0.0
    for _, spectrum in _lower_rows(n, data, eps, rows):
        worst = max(worst, float(np.abs(spectrum).max()))
    return 2.0 ** (-n) * worst


def _signs_from_bits(idx: int, m: int) -> Tuple[int, ...]:
    return tuple(1 if not (idx >> (m - 1 - j)) & 1 else -1 for j in range(m))


def _sign_key(signs: Sequence[int]) -> Tuple[int, ...]:
    return tuple(0 if s > 0 else 1 for s in signs)


def search_signs(
    n: int,
    data: ConstructionData,
    strategy: str = "random-restart",
    budget: int = 1,
    seed: int = 0,
) -> SignPattern:
    """Search the level-n sign pattern minimizing its cross-block maxima.

    Patterns are chosen level by level; the pattern at n finalizes the
    lower block of level n and the upper block of level n-1 (at n = 0 the
    objective is vacuous).  Each candidate is scored once by
    ``sign_objective``.  Objectives within a relative 1e-12 of the best are
    ties, so last-bit rounding never decides between symmetric patterns;
    among ties the lexicographically smallest pattern wins, with +1 ordered
    before -1.  The objective is invariant under a global flip, so the
    canonical optimum starts with +1.
    """
    if budget < 1:
        raise BadParameter(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {seed}")
    here = data.require(n)
    if n >= 1:
        data.require(n - 1).require_signs()  # sequential level order
    m = len(here.split.anchors)

    if strategy == "exhaustive":
        if n > EXHAUSTIVE_SIGN_MAX_LEVEL:
            raise StrategyUnavailable(
                f"exhaustive sign search is limited to levels <= {EXHAUSTIVE_SIGN_MAX_LEVEL}"
            )
        count = 1 << m
    elif strategy == "random-restart":
        count = budget
    else:
        raise BadParameter(f"unknown sign search strategy {strategy!r}")

    def draw(i: int) -> Tuple[int, ...]:
        """Candidate i, regenerated on demand so only the scores are kept."""
        if strategy == "exhaustive":
            return _signs_from_bits(i, m)
        bits = _candidate_rng(seed, _SIGN_STREAM, i).integers(0, 2, size=m)
        return tuple(1 if b == 0 else -1 for b in bits)

    if n == 0:  # no cross blocks below level 1
        scores = np.zeros(count)
    else:
        scores = np.array(
            [sign_objective(n, data, np.asarray(draw(i), dtype=np.float64)) for i in range(count)]
        )
    ties = np.nonzero(_near_ties(scores, scores.min()))[0]
    best = min((int(i) for i in ties), key=lambda i: _sign_key(draw(i)))
    return SignPattern(level=n, signs=draw(best), objective=float(scores[best]))


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
    """Recompute all bounds over the requested levels.

    Cross rows cover requested levels n >= 1 whose neighbour n+1 has been
    built.  max |lower_n| and max |upper_n| = max |lower_{n+1}| are
    ``sign_objective`` at n and n+1 on the stored signs; the middle block
    is a circulant of the balance values, so its maximum is 2^{-n-1} d(n).
    The identity residual compares that with the split search's route,
    3 * max_{g != 0} |DFT of the anchor indicator|.
    """
    level_list = sorted(set(int(n) for n in levels))
    if not level_list:
        raise BadParameter("at least one level is required")

    split_rows: List[SplitBoundRow] = []
    for n in level_list:
        item = data.require(n)
        recomputed = split_discrepancy(item.split, item.table)
        scale = split_bound_scale(n)
        split_rows.append(
            SplitBoundRow(
                level=n,
                stored=item.split.discrepancy,
                recomputed=recomputed,
                scale=scale,
                ratio=recomputed / scale,
            )
        )

    balance = {r.level: r.recomputed for r in split_rows}
    cross_levels = [n for n in level_list if n >= 1 and data.has(n + 1)]
    objective = {
        m: sign_objective(m, data, data.require(m).require_signs().signs)
        for m in sorted({m for n in cross_levels for m in (n, n + 1)})
    }
    cross_rows: List[CrossBoundRow] = []
    for n in cross_levels:
        item = data.require(n)
        anchors = np.asarray([item.split.anchors], dtype=np.int64)
        indicator_score = float(_score_indicator_batch(_indicator(item.table.order, anchors))[0])
        max_lower, max_upper = objective[n], objective[n + 1]
        max_middle = 2.0 ** (-n - 1) * balance[n]
        overall = max(max_lower, max_middle, max_upper)
        scale = cross_bound_scale(n)
        cross_rows.append(
            CrossBoundRow(
                level=n,
                max_lower=max_lower,
                max_middle=max_middle,
                max_upper=max_upper,
                overall=overall,
                scale=scale,
                ratio=overall / scale,
                middle_identity_residual=abs(max_middle - 2.0 ** (-n - 1) * indicator_score),
            )
        )

    return CertifiedConstants(
        split_constant=max(r.ratio for r in split_rows),
        cross_constant=max((r.ratio for r in cross_rows), default=0.0),
        split_rows=tuple(split_rows),
        cross_rows=tuple(cross_rows),
    )
