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

# Dense k x k value matrices above this entry count are refused.
_TABLE_ENTRY_LIMIT = 16_000_000


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

    By default exponents follow the cyclic formula e(c, g) = c*g mod k and
    are computed on demand; an explicit exponent matrix may be supplied
    instead (deserialization, fault-injection tests).  Instances are
    immutable by convention; stored arrays are marked read-only.
    """

    def __init__(self, group: Group, exponents: Optional[np.ndarray] = None) -> None:
        self.group = group
        k = group.order
        if exponents is not None:
            arr = np.array(exponents, dtype=np.int64)
            if arr.shape != (k, k):
                raise BadParameter(f"exponent matrix must be {k}x{k}, got {arr.shape}")
            if arr.size and (arr.min() < 0 or arr.max() >= k):
                raise BadParameter("exponent entries must lie in [0, order)")
            arr.flags.writeable = False
            self._exponents: Optional[np.ndarray] = arr
        else:
            self._exponents = None
        self._root_cache: Optional[np.ndarray] = None

    @classmethod
    def from_exponents(cls, group: Group, exponents: np.ndarray) -> "CharacterTable":
        return cls(group, exponents=exponents)

    @property
    def order(self) -> int:
        return self.group.order

    def _check(self, idx: int, name: str) -> None:
        if not 0 <= idx < self.group.order:
            raise IndexOutOfRange(f"{name} index {idx} outside [0, {self.group.order})")

    def _roots(self) -> np.ndarray:
        if self._root_cache is None:
            k = self.group.order
            roots = np.exp(2j * np.pi * np.arange(k) / k)
            roots.flags.writeable = False
            self._root_cache = roots
        return self._root_cache

    def exponent(self, c: int, g: int) -> int:
        """Exact exponent index e with chi_c(g) = exp(2*pi*i*e/k)."""
        self._check(c, "character")
        self._check(g, "element")
        if self._exponents is not None:
            return int(self._exponents[c, g])
        return (c * g) % self.group.order

    def value(self, c: int, g: int) -> complex:
        return complex(self._roots()[self.exponent(c, g)])

    def _exponent_row(self, c: int) -> np.ndarray:
        k = self.group.order
        if self._exponents is not None:
            return self._exponents[c]
        return (c * np.arange(k)) % k

    def row(self, c: int) -> np.ndarray:
        """Values chi_c(g), g = 0..k-1."""
        self._check(c, "character")
        return self._roots()[self._exponent_row(c)]

    def row_at_inverse(self, c: int) -> np.ndarray:
        """Values chi_c(-g) = conj(chi_c(g)), g = 0..k-1, exact in exponents."""
        self._check(c, "character")
        k = self.group.order
        return self._roots()[(k - self._exponent_row(c)) % k]

    def rows(self, cs: Sequence[int]) -> np.ndarray:
        return np.stack([self.row(c) for c in cs]) if len(cs) else np.zeros((0, self.order), dtype=np.complex128)

    def rows_at_inverse(self, cs: Sequence[int]) -> np.ndarray:
        return np.stack([self.row_at_inverse(c) for c in cs]) if len(cs) else np.zeros((0, self.order), dtype=np.complex128)

    def _guard_dense(self) -> None:
        k = self.group.order
        if k * k > _TABLE_ENTRY_LIMIT:
            raise LevelTooLarge(f"dense {k}x{k} table exceeds the entry limit")

    def matrix(self) -> np.ndarray:
        """Dense value matrix V[c, g] = chi_c(g)."""
        self._guard_dense()
        k = self.group.order
        if self._exponents is not None:
            exps = self._exponents
        else:
            idx = np.arange(k)
            exps = (np.outer(idx, idx)) % k
        return self._roots()[exps]

    def exponent_matrix(self) -> np.ndarray:
        """Dense integer matrix e[c, g]; the serialization form."""
        self._guard_dense()
        k = self.group.order
        if self._exponents is not None:
            return self._exponents.copy()
        idx = np.arange(k)
        return (np.outer(idx, idx)) % k


@dataclass(frozen=True)
class OrthogonalityReport:
    level: int
    max_deviation: float
    tolerance: float
    passed: bool


def verify_orthogonality(table: CharacterTable, tol: float) -> OrthogonalityReport:
    """Largest deviation of sum_g chi_c(g)*conj(chi_d(g)) from k*delta_cd.

    Passes when the deviation is at most ``tol``.
    """
    if tol <= 0:
        raise BadParameter(f"tolerance must be positive, got {tol}")
    v = table.matrix()
    k = table.order
    gram = v @ v.conj().T
    gram[np.diag_indices(k)] -= k
    dev = float(np.abs(gram).max())
    return OrthogonalityReport(
        level=table.group.level, max_deviation=dev, tolerance=tol, passed=dev <= tol
    )
