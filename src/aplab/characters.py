"""Cyclic groups of order 3*2^n and exact character arithmetic.

Level n carries the additive group Z/(3*2^n).  Character c sends element g
to exp(2*pi*i*(c*g mod k)/k) with k the group order, so characters are
stored as integer exponent indices: every group-law identity is exact and
floating point enters only when the cached roots are gathered or summed.

All objects here are immutable after construction and all operations are
pure, so concurrent readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadParameter, IndexOutOfRange


def block_size(n: int) -> int:
    """Dimension 3*2^n of the level-n block; a negative level is refused here."""
    if n < 0:
        raise BadParameter(f"level must be nonnegative, got {n}")
    return 3 * (1 << n)


def read_only(values: object, dtype: type) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Group:
    """Additive cyclic group Z/order sitting at a fixed level."""

    level: int
    order: int

    def __post_init__(self) -> None:
        if self.order != block_size(self.level):
            raise BadParameter(f"group order {self.order} != 3*2^{self.level}")


def build_group(n: int) -> Group:
    """Return the level-n group Z/(3*2^n)."""
    return Group(level=n, order=block_size(n))


class CharacterTable:
    """All k characters of a level group, addressed by index 0..k-1.

    Rows of values are gathers of the cached, read-only roots at the exact
    exponents c*g mod k (``rows``) or -c*g mod k (``rows_at_inverse``), so
    no k x k table is stored and chi_c(-g) is bitwise conj(chi_c(g)).
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
            self._root_cache = read_only(np.exp(2j * np.pi * np.arange(k) / k), np.complex128)
        return self._root_cache

    def _exponent_rows(self, cs: Sequence[int]) -> np.ndarray:
        """Exponent indices e[c, g], one row per c in ``cs``, every index checked."""
        k = self.group.order
        idx = np.asarray(cs, dtype=np.int64).reshape(-1)
        bad = idx[(idx < 0) | (idx >= k)]
        if bad.size:
            raise IndexOutOfRange(f"character index {int(bad[0])} outside [0, {k})")
        return np.outer(idx, np.arange(k)) % k

    def rows(self, cs: Sequence[int]) -> np.ndarray:
        """Values chi_c(g), one row per c in ``cs``, g = 0..k-1."""
        return self.roots()[self._exponent_rows(cs)]

    def rows_at_inverse(self, cs: Sequence[int]) -> np.ndarray:
        """Values chi_c(-g), one row per c in ``cs``, g = 0..k-1."""
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
    S_r = sum_g roots[(r*g) mod k].  With d = gcd(r, k), {r*g mod k} runs
    d times over the subgroup dZ/k, so S_r = d * sum_{t < k/d} roots[t*d].
    k = 3*2^n has the 2(n+1) divisors 2^i and 3*2^i; each takes one strided
    sum, and the d = k sum is compared with k.  The d = 1 sum holds every
    root once.  Passes when the deviation is at most ``tol``.
    """
    if tol <= 0:
        raise BadParameter(f"tolerance must be positive, got {tol}")
    k, n = table.order, table.group.level
    roots = table.roots()
    dev = 0.0
    for d in (m << i for i in range(n + 1) for m in (1, 3)):
        dev = max(dev, float(abs(d * roots[::d].sum() - (k if d == k else 0))))
    return OrthogonalityReport(level=n, max_deviation=dev, tolerance=tol, passed=dev <= tol)
