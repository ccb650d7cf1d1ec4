"""Deterministic JSON/CSV artifact store with a hash manifest.

Payloads carry no timestamps and serialize with sorted keys and compact
separators, so identical runs reproduce identical bytes.  The manifest maps
every stored file to its sha256 and excludes itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from .errors import MissingArtifact

MANIFEST_NAME = "manifest.json"

# Field metadata: the field holds an exact integer, written as a decimal string
# because it may exceed what a JSON reader keeps exactly.
EXACT_INT = {"exact_int": True}

Cell = Union[str, int, float]


def _jsonable(value: object) -> object:
    """JSON form of a result: dataclasses by field name, complex numbers as
    ``[re, im]``, tuples as lists, non-finite floats as null and
    ``EXACT_INT`` fields as decimal strings."""
    if is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in fields(value):
            item = getattr(value, f.name)
            exact = f.metadata.get("exact_int") and item is not None
            out[f.name] = str(item) if exact else _jsonable(item)
        return out
    if isinstance(value, complex):
        return _jsonable([value.real, value.imag])
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json(payload: object) -> str:
    return json.dumps(
        _jsonable(payload),
        sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False,
    )


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


class ArtifactStore:
    """Append-only view of one output directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _hash_bytes(self, data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def _write_bytes(self, relpath: str, data: bytes) -> str:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        return self._hash_bytes(data)

    def write_json(self, relpath: str, payload: object) -> str:
        return self._write_bytes(relpath, (canonical_json(payload) + "\n").encode("utf-8"))

    def write_csv(self, relpath: str, header: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(c) for c in row) for row in rows)
        return self._write_bytes(relpath, ("\n".join(lines) + "\n").encode("utf-8"))

    def read_json(self, relpath: str) -> object:
        path = self.root / relpath
        if not path.exists():
            raise MissingArtifact(f"artifact {relpath} not found under {self.root}")
        return json.loads(path.read_text(encoding="utf-8"))

    def exists(self, relpath: str) -> bool:
        return (self.root / relpath).exists()

    def manifest_mismatches(self) -> List[str]:
        """Files the manifest lists that are missing or whose sha256 differs."""
        listed = self.read_json(MANIFEST_NAME)["files"]  # type: ignore[index]
        return [
            rel
            for rel, sha in sorted(listed.items())
            if not (self.root / rel).is_file()
            or self._hash_bytes((self.root / rel).read_bytes()) != sha
        ]

    def update_manifest(self) -> Dict[str, str]:
        """Rehash every stored file and rewrite the manifest."""
        entries: Dict[str, str] = {}
        for path in sorted(self.root.rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(self.root).as_posix()
            if rel == MANIFEST_NAME:
                continue
            entries[rel] = self._hash_bytes(path.read_bytes())
        self._write_bytes(MANIFEST_NAME, (canonical_json({"files": entries}) + "\n").encode("utf-8"))
        return entries
