"""Independent check of a store's top level from the defining double sums.

Nothing here calls aplab.  Characters are evaluated from exact integer
exponents, chi_c(g) = w^{(c*g) mod k} with w = exp(2*pi*i/k), and every
quantity is formed as the literal sum over the stored indices.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import numpy as np

TOL = 1e-9


def _characters(indices: np.ndarray, elements: int, order: int, sign: int = 1) -> np.ndarray:
    """Matrix chi_c(sign * g) for c in ``indices`` (rows), g = 0..elements-1."""
    exps = (sign * np.outer(indices, np.arange(elements))) % order
    return np.exp(2j * np.pi * exps / order)


def _level(store: Path, n: int) -> dict:
    return json.loads((store / "levels" / f"level_{n:02d}.json").read_text(encoding="utf-8"))


def check_top_level(store: Path, top: int) -> List[str]:
    """Problems found at the top level of ``store``; empty when it is correct."""
    here, below = _level(store, top), _level(store, top - 1)
    k, k_below = 3 << top, 3 << (top - 1)
    anchors = np.asarray(here["split"]["anchors"], dtype=np.int64)
    carriers = np.asarray(here["split"]["carriers"], dtype=np.int64)
    carriers_below = np.asarray(below["split"]["carriers"], dtype=np.int64)
    eps = np.asarray(here["signs"]["signs"], dtype=np.float64)
    problems = []

    if sorted(np.concatenate([anchors, carriers]).tolist()) != list(range(k)) or 3 * len(anchors) != k:
        problems.append(f"level {top}: anchors and carriers do not split 0..{k - 1} as k/3 + 2k/3")
    if len(eps) != len(anchors) or not np.all(np.abs(eps) == 1.0):
        problems.append(f"level {top}: signs are not {len(anchors)} values of +-1")
    if problems:
        return problems

    # max_g |2 sum_anchors chi_a(g) - sum_carriers chi_c(g)|
    balance = 2.0 * _characters(anchors, k, k).sum(axis=0) - _characters(carriers, k, k).sum(axis=0)
    discrepancy = float(np.abs(balance).max())
    if abs(discrepancy - here["split"]["discrepancy"]) > TOL:
        problems.append(
            f"level {top}: balance discrepancy {discrepancy!r} != stored {here['split']['discrepancy']!r}"
        )

    # lower_n(g, h) = -2^-n sum_j eps_j chi_{a_j}(-g) chi_{c_j}(h), g in level n, h in level n-1
    # upper_{n-1}(g, h) = 2^-n sum_j eps_j chi_{c_j}(-g) chi_{a_j}(h), g in level n-1, h in level n
    anchors_inv = _characters(anchors, k, k, sign=-1)
    carriers_below_inv = _characters(carriers_below, k_below, k_below, sign=-1)
    lower = -(2.0 ** -top) * (eps[:, None] * anchors_inv).T @ carriers_below_inv.conj()
    upper = (2.0 ** -top) * (eps[:, None] * carriers_below_inv).T @ anchors_inv.conj()
    objective = max(float(np.abs(lower).max()), float(np.abs(upper).max()))
    if abs(objective - here["signs"]["objective"]) > TOL:
        problems.append(
            f"level {top}: sign objective {objective!r} != stored {here['signs']['objective']!r}"
        )
    return problems
