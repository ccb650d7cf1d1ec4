"""Block exponent schedules and the mixed norm of the sequence space.

A vector is a finitely supported complex function on the disjoint union of
the level groups.  Level n holds 3*2^n coordinates measured in l_{p_n}, and
the block norms combine in l_2:

    norm(f) = ( sum_n ( sum_{g in level n} |f(g)|^{p_n} )^{2/p_n} )^{1/2}

``z_norms_rows`` takes this norm of many vectors at once, each given by its
rows of level blocks; the literal one-vector type and its norm are test
oracles (``tests/oracles.py``).

Schedules keep the block exponents p_n inside (2, 3] by clamping the gap
delta_n = 1/2 - 1/p_n at 1/6 (p = 3); both built-in rate formulas leave the
admissible range at small n, where the clamp takes over.  All functions are
pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import BadParameter

GAP_CEILING = 1.0 / 6.0  # largest admissible gap 1/2 - 1/p, i.e. p = 3
_CONFIG_KEYS = {"power": {"kind", "alpha"}, "log": {"kind"}, "explicit": {"kind", "p"}}


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
        """The schedule ``spec`` describes; BadParameter unless it holds exactly
        its kind's keys (``_CONFIG_KEYS``) with numbers where numbers belong."""
        if not isinstance(spec, Mapping):
            raise BadParameter(f"schedule config must be a JSON object, got {spec!r}")
        kind = spec.get("kind")
        keys = _CONFIG_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            raise BadParameter(f"unknown schedule config {spec!r}")
        if set(spec) != keys:
            raise BadParameter(f"schedule config {spec!r} must hold the keys {sorted(keys)}")
        # imported on use: the store's hashlib, loaded at import, raised build peak RSS 0.2 MiB
        from .store import from_json
        try:
            if kind == "power":
                return cls.power(from_json(float, spec["alpha"], "alpha"))
            if kind == "explicit":
                return cls.explicit(from_json(float, p, "p") for p in spec["p"])
        except TypeError as exc:
            raise BadParameter(f"schedule config {spec!r}: {exc!r}") from exc
        return cls.log_rate()

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


def compactness_sequence(schedule: ExponentSchedule, n: int) -> float:
    """Decay sequence (n+1)^{5/2} * 2^{-rate_exponent(n)}.

    Scaled telescoping vectors stay inside a compact set exactly when this
    tends to zero; for the log kind the exponent collapses and the value is
    (n+1)^{-1/2} up to roundoff.
    """
    return float((n + 1) ** 2.5 * 2.0 ** (-schedule.rate_exponent(n)))


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
