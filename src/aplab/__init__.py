"""Finite truncations of a mixed-norm sequence space, with certified
character splits, sign patterns, and the trace functional separating the
identity from finite-rank operators."""

from .characters import CharacterTable, Group, build_group, verify_orthogonality
from .discrepancy import (
    CharacterSplit,
    ConstructionData,
    LevelData,
    SignPattern,
    certify_constants,
    search_character_split,
    search_signs,
    split_discrepancy,
)
from .mixed_norm import ExponentSchedule, compactness_sequence

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "CharacterSplit",
    "ConstructionData",
    "ExponentSchedule",
    "Group",
    "LevelData",
    "SignPattern",
    "build_group",
    "certify_constants",
    "compactness_sequence",
    "search_character_split",
    "search_signs",
    "split_discrepancy",
    "verify_orthogonality",
    "__version__",
]
