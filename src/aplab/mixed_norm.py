"""Block exponent schedules and the mixed-norm sequence space.

A vector is a finitely supported complex function on the disjoint union of
the level groups.  Level n holds 3*2^n coordinates measured in l_{p_n}, and
the block norms combine in l_2:

    norm(f) = ( sum_n ( sum_{g in level n} |f(g)|^{p_n} )^{2/p_n} )^{1/2}

Schedules keep the block exponents p_n inside (2, 3] by clamping the gap
delta_n = 1/2 - 1/p_n at 1/6 (p = 3); both built-in rate formulas leave the
admissible range at small n, where the clamp takes over.  Vectors are
immutable and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .characters import block_size, read_only
from .errors import BadParameter

GAP_CEILING = 1.0 / 6.0  # largest admissible gap 1/2 - 1/p, i.e. p = 3


@dataclass(frozen=True)
class ExponentSchedule:
    """Block exponents p_n, one of three kinds.

    power     gap_n = min(1/6, (n+1)**-alpha), alpha in (0, 1)
    log       gap_0 = gap_1 = 1/6, gap_m = min(1/6, 3*log2(m)/(m-1)) for m >= 2
    explicit  p_n taken from a finite non-increasing list inside (2, 3]

    The log kind is additionally characterized by the rate identity
    n * gap_{n+1} = 3*log2(n+1); its decay diagnostics use that defining
    rate even inside the clamp region, where the realized p_n sits at 3
    (see ``rate_exponent``).
    """

    kind: str
    alpha: Optional[float] = None
    p_list: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind == "power":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise BadParameter(f"power schedule needs alpha in (0,1), got {self.alpha}")
        elif self.kind == "log":
            if self.alpha is not None:
                raise BadParameter("log schedule takes no alpha")
        elif self.kind == "explicit":
            ps = self.p_list
            if not ps:
                raise BadParameter("explicit schedule needs a nonempty p list")
            for p in ps:
                if not 2.0 < p <= 3.0:
                    raise BadParameter(f"explicit p values must lie in (2, 3], got {p}")
            if any(b > a for a, b in zip(ps, ps[1:])):
                raise BadParameter("explicit p values must be non-increasing")
        else:
            raise BadParameter(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def power(cls, alpha: float) -> "ExponentSchedule":
        return cls(kind="power", alpha=alpha)

    @classmethod
    def log_rate(cls) -> "ExponentSchedule":
        return cls(kind="log")

    @classmethod
    def explicit(cls, ps: Iterable[float]) -> "ExponentSchedule":
        return cls(kind="explicit", p_list=tuple(float(p) for p in ps))

    @classmethod
    def from_config(cls, spec: Mapping) -> "ExponentSchedule":
        if not isinstance(spec, Mapping):
            raise BadParameter(f"schedule config must be a JSON object, got {spec!r}")
        kind = spec.get("kind")
        if kind == "power":
            return cls.power(float(spec["alpha"]))
        if kind == "log":
            return cls.log_rate()
        if kind == "explicit":
            return cls.explicit(spec["p"])
        raise BadParameter(f"unknown schedule config {spec!r}")

    def to_config(self) -> Dict:
        if self.kind == "power":
            return {"kind": "power", "alpha": self.alpha}
        if self.kind == "log":
            return {"kind": "log"}
        return {"kind": "explicit", "p": list(self.p_list or ())}

    def raw_gap(self, n: int) -> float:
        """Unclamped rate-formula gap; may leave (0, 1/6] at small n."""
        if n < 0:
            raise BadParameter(f"index must be nonnegative, got {n}")
        if self.kind == "power":
            assert self.alpha is not None
            return float((n + 1) ** (-self.alpha))
        if self.kind == "log":
            if n <= 1:
                return GAP_CEILING
            return 3.0 * math.log2(n) / (n - 1)
        assert self.p_list is not None
        if n >= len(self.p_list):
            raise BadParameter(f"explicit schedule has {len(self.p_list)} entries, index {n} requested")
        return 0.5 - 1.0 / self.p_list[n]

    def gap(self, n: int) -> float:
        """Effective gap 1/2 - 1/p_n after the clamp; always in (0, 1/6]."""
        return min(GAP_CEILING, self.raw_gap(n))

    def p(self, n: int) -> float:
        g = self.gap(n)
        if g == GAP_CEILING:
            return 3.0  # exact at the clamp; 1/(1/2 - fl(1/6)) rounds below 3
        return 1.0 / (0.5 - g)

    def rate_exponent(self, n: int) -> float:
        """Exponent a(n) with decay sequence (n+1)^{5/2} * 2^{-a(n)}.

        For the power and explicit kinds a(n) = n * gap(n+1) with the
        effective gap.  The log kind reports its defining rate
        3*log2(n+1), which the clamp does not alter.
        """
        if n < 0:
            raise BadParameter(f"index must be nonnegative, got {n}")
        if self.kind == "log":
            return 3.0 * math.log2(n + 1)
        return n * self.gap(n + 1)


def flatness_index(schedule: ExponentSchedule, n: int) -> float:
    """Distortion index (3*2^n)^{1/2 - 1/p_n} of the level-n block."""
    gap = schedule.gap(n)
    return float(2.0 ** (gap * (math.log2(3.0) + n)))


def compactness_sequence(schedule: ExponentSchedule, n: int) -> float:
    """Decay sequence (n+1)^{5/2} * 2^{-rate_exponent(n)}.

    Scaled telescoping vectors stay inside a compact set exactly when this
    tends to zero; for the log kind the exponent collapses and the value is
    (n+1)^{-1/2} up to roundoff.
    """
    return float((n + 1) ** 2.5 * 2.0 ** (-schedule.rate_exponent(n)))


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
    def empty(cls, schedule: ExponentSchedule) -> "MixedNormVector":
        return cls(schedule=schedule, blocks={})

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

    def value_at(self, level: int, g: int) -> complex:
        blk = self.blocks.get(level)
        if blk is None:
            return 0.0 + 0.0j
        return complex(blk[g])

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


def z_norms_rows(
    schedule: ExponentSchedule, blocks: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Mixed norms of many vectors at once.

    ``blocks[level]`` holds one row per vector; levels absent from the map
    are zero.  Rows across levels must agree in count.
    """
    total: Optional[np.ndarray] = None
    for level in sorted(blocks):
        p = schedule.p(level)
        contrib = (np.abs(blocks[level]) ** p).sum(axis=-1) ** (2.0 / p)
        total = contrib if total is None else total + contrib
    if total is None:
        raise BadParameter("no blocks supplied")
    return np.sqrt(total)
