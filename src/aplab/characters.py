"""Cyclic groups of order 3*2^n and exact character arithmetic.

Level n carries the additive group Z/(3*2^n).  Character c sends element g
to exp(2*pi*i*(c*g mod k)/k) with k the group order, so characters are
stored as integer exponent indices: every group-law identity is exact and
floating point enters only when sums of values are formed.

All objects here are immutable after construction and all operations are
pure, so concurrent readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadParameter, IndexOutOfRange, LevelTooLarge

DEFAULT_MAX_LEVEL = 24

# The orthogonality check gathers about this many roots at a time.
_ORTHOGONALITY_CHUNK_ENTRIES = 1 << 20


def block_size(n: int) -> int:
    """Dimension 3*2^n of the level-n block."""
    if n < 0:
        raise BadParameter(f"level must be nonnegative, got {n}")
    return 3 * (1 << n)


@dataclass(frozen=True)
class Group:
    """Additive cyclic group Z/order sitting at a fixed level."""

    level: int
    order: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise BadParameter(f"level must be nonnegative, got {self.level}")
        if self.order != block_size(self.level):
            raise BadParameter(f"group order {self.order} != 3*2^{self.level}")


def build_group(n: int, max_level: int = DEFAULT_MAX_LEVEL) -> Group:
    """Return the level-n group; levels above ``max_level`` are refused."""
    if n < 0:
        raise BadParameter(f"level must be nonnegative, got {n}")
    if n > max_level:
        raise LevelTooLarge(f"level {n} exceeds the configured budget {max_level}")
    return Group(level=n, order=block_size(n))


class CharacterTable:
    """All k characters of a level group, addressed by index 0..k-1.

    Exponents follow the cyclic formula e(c, g) = c*g mod k and are computed
    on demand, so no k x k table is ever stored.  The roots array is cached
    and read-only.
    """

    def __init__(self, group: Group) -> None:
        self.group = group
        self._root_cache: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return self.group.order

    def roots(self) -> np.ndarray:
        """Values exp(2*pi*i*e/k), e = 0..k-1, indexed by exact exponent."""
        if self._root_cache is None:
            k = self.group.order
            roots = np.exp(2j * np.pi * np.arange(k) / k)
            roots.flags.writeable = False
            self._root_cache = roots
        return self._root_cache

    def exponent(self, c: int, g: int) -> int:
        """Exact exponent index e with chi_c(g) = exp(2*pi*i*e/k)."""
        for idx, name in ((c, "character"), (g, "element")):
            if not 0 <= idx < self.group.order:
                raise IndexOutOfRange(f"{name} index {idx} outside [0, {self.group.order})")
        return (c * g) % self.group.order

    def value(self, c: int, g: int) -> complex:
        return complex(self.roots()[self.exponent(c, g)])

    def _exponent_rows(self, cs: Sequence[int]) -> np.ndarray:
        """Exponent indices e[c, g], one row per c in ``cs``, every index checked."""
        k = self.group.order
        idx = np.asarray(cs, dtype=np.int64).reshape(-1)
        bad = idx[(idx < 0) | (idx >= k)]
        if bad.size:
            raise IndexOutOfRange(f"character index {int(bad[0])} outside [0, {k})")
        return np.outer(idx, np.arange(k)) % k

    def row(self, c: int) -> np.ndarray:
        """Values chi_c(g), g = 0..k-1."""
        return self.roots()[self._exponent_rows([c])[0]]

    def row_at_inverse(self, c: int) -> np.ndarray:
        """Values chi_c(-g) = conj(chi_c(g)), g = 0..k-1, exact in exponents."""
        return self.roots()[-self._exponent_rows([c])[0] % self.group.order]

    def rows(self, cs: Sequence[int]) -> np.ndarray:
        return self.roots()[self._exponent_rows(cs)]

    def rows_at_inverse(self, cs: Sequence[int]) -> np.ndarray:
        return self.roots()[-self._exponent_rows(cs) % self.group.order]


@dataclass(frozen=True)
class OrthogonalityReport:
    level: int
    max_deviation: float
    tolerance: float
    passed: bool


def verify_orthogonality(table: CharacterTable, tol: float) -> OrthogonalityReport:
    """Largest deviation of sum_g chi_c(g)*conj(chi_d(g)) from k*delta_cd.

    Exponents are exact, so the sum depends only on r = c - d: it is
    S_r = sum_g roots[(r*g) mod k], a floating-point sum of the stored
    roots.  The k sums are formed a chunk of rows r at a time, O(k^2) time
    and O(chunk * k) memory.  Passes when the deviation is at most ``tol``.
    """
    if tol <= 0:
        raise BadParameter(f"tolerance must be positive, got {tol}")
    k = table.order
    roots = table.roots()
    g = np.arange(k)
    step = max(1, _ORTHOGONALITY_CHUNK_ENTRIES // k)
    dev = 0.0
    for lo in range(0, k, step):
        sums = roots[np.outer(np.arange(lo, min(lo + step, k)), g) % k].sum(axis=1)
        if lo == 0:
            sums[0] -= k
        dev = max(dev, float(np.abs(sums).max()))
    return OrthogonalityReport(
        level=table.group.level, max_deviation=dev, tolerance=tol, passed=dev <= tol
    )
