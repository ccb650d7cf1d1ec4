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
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BadParameter


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


def advancing_exponents(
    factors: np.ndarray, k: int, rows: int, chunk: int, shift: Union[int, np.ndarray] = 0
) -> Iterator[Tuple[int, np.ndarray]]:
    """(h0, e) for chunks of rows h = h0 + i < ``rows``: e[i, j] is
    (h * factors[j] mod k) + shift[j], or that plus k, for a table that holds
    each period of k twice.  Along h the exponents advance: (h0 * f mod k)
    plus a fixed int32 table of (i * f mod k), with no modulo per entry.
    The arrays are reused: read a chunk before asking for the next.
    """
    factors = np.asarray(factors, dtype=np.int64)
    chunk = min(chunk, rows)
    offsets = (np.arange(chunk)[:, None] * factors % k + shift).astype(np.int32)
    yield 0, offsets  # the chunk from row 0
    e = np.empty_like(offsets)
    for start in range(chunk, rows, chunk):
        size = min(chunk, rows - start)
        yield start, np.add(offsets[:size], (start * factors % k).astype(np.int32), out=e[:size])


class CharacterTable:
    """All k characters of a level group, addressed by index 0..k-1.

    Rows of values are gathers of the cached, read-only roots at the exact
    exponents c*g mod k (``rows``) or -c*g mod k (``rows_at_inverse``), so
    no k x k table is stored.  ``np.exp`` rounds each root on its own, so
    chi_c(-g) agrees with conj(chi_c(g)) only to a few ulps, not bitwise;
    the exponent identity is the exact one.
    """

    def __init__(self, group: Group) -> None:
        self.group = group
        self._root_cache: Optional[np.ndarray] = None
        self._signed_cache: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return self.group.order

    def roots(self) -> np.ndarray:
        """Values exp(2*pi*i*e/k), e = 0..k-1, indexed by exact exponent."""
        if self._root_cache is None:
            k = self.group.order
            self._root_cache = read_only(np.exp(2j * np.pi * np.arange(k) / k), np.complex128)
        return self._root_cache

    def signed_roots(self) -> np.ndarray:
        """[roots, roots, -roots, -roots]: the products eps * root for eps = 1
        and -1 (so even zeros keep the signs a product gives), each laid out
        twice for exponents below 2k (``advancing_exponents``)."""
        if self._signed_cache is None:
            signed = np.array([[1.0], [-1.0]]) * self.roots()
            self._signed_cache = read_only(np.repeat(signed, 2, axis=0).reshape(-1), np.complex128)
        return self._signed_cache

    def _exponent_rows(self, cs: Sequence[int]) -> np.ndarray:
        """Exponent indices e[c, g], one row per c in ``cs``, every index checked."""
        k = self.group.order
        idx = np.asarray(cs, dtype=np.int64).reshape(-1)
        bad = idx[(idx < 0) | (idx >= k)]
        if bad.size:
            raise BadParameter(f"character index {int(bad[0])} outside [0, {k})")
        return np.outer(idx, np.arange(k)) % k

    def rows(self, cs: Sequence[int]) -> np.ndarray:
        """Values chi_c(g), one row per c in ``cs``, g = 0..k-1."""
        return self.roots()[self._exponent_rows(cs)]

    def rows_at_inverse(self, cs: Sequence[int]) -> np.ndarray:
        """Values chi_c(-g), one row per c in ``cs``, g = 0..k-1."""
        return self.roots()[-self._exponent_rows(cs) % self.group.order]


def verify_orthogonality(table: CharacterTable) -> float:
    """Largest deviation of sum_g chi_c(g)*conj(chi_d(g)) from k*delta_cd.

    Exponents are exact, so the sum depends only on r = c - d: it is
    S_r = sum_g roots[(r*g) mod k].  With d = gcd(r, k), {r*g mod k} runs
    d times over the subgroup dZ/k, so S_r = d * sum_{t < k/d} roots[t*d].
    k = 3*2^n has the 2(n+1) divisors 2^i and 3*2^i; each takes one strided
    sum, and the d = k sum is compared with k.  The d = 1 sum holds every
    root once.  The caller holds the deviation against its tolerance.
    """
    k, n = table.order, table.group.level
    roots = table.roots()
    dev = 0.0
    for d in (m << i for i in range(n + 1) for m in (1, 3)):
        dev = max(dev, float(abs(d * roots[::d].sum() - (k if d == k else 0))))
    return dev
