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
level by level.  Searches score candidates through FFTs of sparse
placements; certification recomputes every quantity from the defining sums
so the two routes check each other.

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

_CHUNK = 4096


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


def _validate_partition(split: CharacterSplit, k: int) -> None:
    anchors, carriers = split.anchors, split.carriers
    if len(anchors) != _anchor_count(k) or len(carriers) != 2 * _anchor_count(k):
        raise PartitionInvalid(
            f"expected {_anchor_count(k)} anchors and {2 * _anchor_count(k)} carriers"
        )
    merged = sorted(anchors + carriers)
    if merged != list(range(k)):
        raise PartitionInvalid("anchors and carriers must partition the index set")


def balance_values(table: CharacterTable, split: CharacterSplit) -> np.ndarray:
    """Balance sum 2*sum_anchors - sum_carriers over all group elements."""
    _validate_partition(split, table.order)
    a = table.rows(split.anchors).sum(axis=0)
    c = table.rows(split.carriers).sum(axis=0)
    return 2.0 * a - c


def split_discrepancy(split: CharacterSplit, table: CharacterTable) -> float:
    """Largest balance magnitude; recomputed from the defining double sum."""
    return float(np.abs(balance_values(table, split)).max())


# ----------------------------------------------------------------------
# fast scoring
#
# Off the identity the full character sum vanishes, so the balance equals
# three times the anchor sum there, and the anchor sum over g is a DFT of
# the anchor indicator.  The search scores candidates this way; the stored
# discrepancy is always recomputed from the defining sums.
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


def _best_of_chunk(
    scores: np.ndarray, candidates: List[Tuple[int, ...]]
) -> Tuple[float, Tuple[int, ...]]:
    lo = float(scores.min())
    ties = [candidates[i] for i in np.nonzero(scores == lo)[0]]
    return lo, min(ties)


def _iter_combination_chunks(k: int, cnt: int) -> Iterator[List[Tuple[int, ...]]]:
    it = itertools.combinations(range(k), cnt)
    while True:
        chunk = list(itertools.islice(it, _CHUNK))
        if not chunk:
            return
        yield chunk


def _indicator(k: int, rows: Sequence[Sequence[int]]) -> np.ndarray:
    out = np.zeros((len(rows), k), dtype=np.float64)
    for r, cols in enumerate(rows):
        out[r, list(cols)] = 1.0
    return out


def search_character_split(
    table: CharacterTable,
    strategy: str = "random-restart",
    budget: int = 1,
    seed: int = 0,
) -> CharacterSplit:
    """Search for an anchor/carrier split with small balance discrepancy.

    Deterministic for fixed (strategy, budget, seed); score ties resolve to
    the lexicographically smallest anchor list.  ``exhaustive`` enumerates
    every split and is only allowed for levels <= 4; ``random-restart``
    scores ``budget`` uniform draws.
    """
    if budget < 1:
        raise BadParameter(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {seed}")
    k = table.order
    n = table.group.level
    cnt = _anchor_count(k)

    best: Optional[Tuple[float, Tuple[int, ...]]] = None

    def consider(score: float, anchors: Tuple[int, ...]) -> None:
        nonlocal best
        cand = (score, anchors)
        if best is None or cand < best:
            best = cand

    if strategy == "exhaustive":
        if n > EXHAUSTIVE_SPLIT_MAX_LEVEL:
            raise StrategyUnavailable(
                f"exhaustive split search is limited to levels <= {EXHAUSTIVE_SPLIT_MAX_LEVEL}"
            )
        for chunk in _iter_combination_chunks(k, cnt):
            scores = _score_indicator_batch(_indicator(k, chunk))
            consider(*_best_of_chunk(scores, chunk))
    elif strategy == "random-restart":
        for start in range(0, budget, _CHUNK):
            idxs = range(start, min(start + _CHUNK, budget))
            chunk = [
                tuple(int(x) for x in np.sort(_candidate_rng(seed, _SPLIT_STREAM, i).choice(k, size=cnt, replace=False)))
                for i in idxs
            ]
            scores = _score_indicator_batch(_indicator(k, chunk))
            consider(*_best_of_chunk(scores, chunk))
    else:
        raise BadParameter(f"unknown split search strategy {strategy!r}")

    assert best is not None
    anchors = best[1]
    carriers = _complement(k, anchors)
    probe = CharacterSplit(level=n, anchors=anchors, carriers=carriers, discrepancy=0.0)
    return CharacterSplit(
        level=n, anchors=anchors, carriers=carriers,
        discrepancy=split_discrepancy(probe, table),
    )


# ----------------------------------------------------------------------
# cross blocks
# ----------------------------------------------------------------------


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


def cross_lower_matrix(n: int, data: ConstructionData) -> np.ndarray:
    """Lower coupling block of level n >= 1, from the defining double sum."""
    if n < 1:
        raise BadParameter("level-0 vectors have no lower block")
    here = data.require(n)
    below = data.require(n - 1)
    left = here.table.rows_at_inverse(here.split.anchors)
    right = below.table.rows(below.split.carriers)
    return cross_matrix_from_values(left, right, here.require_signs().signs, -(2.0 ** (-n)))


def cross_upper_matrix(n: int, data: ConstructionData) -> np.ndarray:
    """Upper coupling block of level n, from the defining double sum."""
    here = data.require(n)
    above = data.require(n + 1)
    left = here.table.rows_at_inverse(here.split.carriers)
    right = above.table.rows(above.split.anchors)
    return cross_matrix_from_values(left, right, above.require_signs().signs, 2.0 ** (-n - 1))


def middle_block(n: int, data: ConstructionData) -> np.ndarray:
    """Own-level block of the telescoping vectors.

    Signs square away and the block collapses to a circulant of the balance
    values: value(g, h) = -2^{-n-1} * balance(h - g).
    """
    here = data.require(n)
    k = here.table.order
    bal = balance_values(here.table, here.split)
    idx = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k
    return -(2.0 ** (-n - 1)) * bal[idx]


# ----------------------------------------------------------------------
# sign search
# ----------------------------------------------------------------------


def _sign_matrices_fast(
    n: int,
    anchors_here: Sequence[int],
    carriers_below: Sequence[int],
    k_here: int,
    k_below: int,
    eps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lower block of level n and upper block of level n-1 via 2-d FFTs."""
    b_low = np.zeros((k_here, k_below), dtype=np.complex128)
    b_low[list(anchors_here), list(carriers_below)] = eps
    lower = -(2.0 ** (-n)) * k_below * np.fft.ifft(np.fft.fft(b_low, axis=0), axis=1)

    b_up = np.zeros((k_below, k_here), dtype=np.complex128)
    b_up[list(carriers_below), list(anchors_here)] = eps
    upper_prev = (2.0 ** (-n)) * k_here * np.fft.ifft(np.fft.fft(b_up, axis=0), axis=1)
    return lower, upper_prev


def sign_objective(n: int, data: ConstructionData, signs: Sequence[int]) -> float:
    """Largest cross-block magnitude the level-n pattern controls."""
    if n == 0:
        return 0.0
    here = data.require(n)
    below = data.require(n - 1)
    eps = np.asarray(signs, dtype=np.float64)
    if len(eps) != len(here.split.anchors):
        raise BadParameter("sign pattern length must match the anchor count")
    lower, upper_prev = _sign_matrices_fast(
        n,
        here.split.anchors,
        below.split.carriers,
        here.table.order,
        below.table.order,
        eps,
    )
    return float(max(np.abs(lower).max(), np.abs(upper_prev).max()))


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
    objective is vacuous).  Ties resolve to the lexicographically smallest
    pattern with +1 ordered before -1; the objective is invariant under a
    global flip, so the canonical optimum starts with +1.
    """
    if budget < 1:
        raise BadParameter(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {seed}")
    here = data.require(n)
    if n >= 1:
        data.require(n - 1).require_signs()  # sequential level order
    m = len(here.split.anchors)

    if n == 0:
        objective = lambda eps: 0.0  # noqa: E731 - no cross blocks below level 1
    else:
        objective = lambda eps: sign_objective(n, data, eps)  # noqa: E731

    best: Optional[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = None

    def consider(signs: Tuple[int, ...]) -> None:
        nonlocal best
        cand = (objective(np.asarray(signs, dtype=np.float64)), _sign_key(signs), signs)
        if best is None or cand[:2] < best[:2]:
            best = cand

    if strategy == "exhaustive":
        if n > EXHAUSTIVE_SIGN_MAX_LEVEL:
            raise StrategyUnavailable(
                f"exhaustive sign search is limited to levels <= {EXHAUSTIVE_SIGN_MAX_LEVEL}"
            )
        for idx in range(1 << m):
            consider(_signs_from_bits(idx, m))
    elif strategy == "random-restart":
        for i in range(budget):
            rng = _candidate_rng(seed, _SIGN_STREAM, i)
            bits = rng.integers(0, 2, size=m)
            consider(tuple(1 if b == 0 else -1 for b in bits))
    else:
        raise BadParameter(f"unknown sign search strategy {strategy!r}")

    assert best is not None
    return SignPattern(level=n, signs=best[2], objective=float(best[0]))


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
    """Recompute all bounds from scratch over the requested levels.

    Cross rows cover requested levels n >= 1 whose neighbour n+1 has been
    built (the upper block needs it); levels without that neighbour only
    contribute a balance row.
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
    cross_rows: List[CrossBoundRow] = []
    for n in level_list:
        if n < 1 or not data.has(n + 1):
            continue
        max_lower = float(np.abs(cross_lower_matrix(n, data)).max())
        max_middle = float(np.abs(middle_block(n, data)).max())
        max_upper = float(np.abs(cross_upper_matrix(n, data)).max())
        overall = max(max_lower, max_middle, max_upper)
        scale = cross_bound_scale(n)
        expected_mid = 2.0 ** (-n - 1) * balance[n]
        cross_rows.append(
            CrossBoundRow(
                level=n,
                max_lower=max_lower,
                max_middle=max_middle,
                max_upper=max_upper,
                overall=overall,
                scale=scale,
                ratio=overall / scale,
                middle_identity_residual=abs(max_middle - expected_mid),
            )
        )

    return CertifiedConstants(
        split_constant=max(r.ratio for r in split_rows),
        cross_constant=max((r.ratio for r in cross_rows), default=0.0),
        split_rows=tuple(split_rows),
        cross_rows=tuple(cross_rows),
    )
