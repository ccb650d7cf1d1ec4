"""Deterministic JSON/CSV artifact store with a hash manifest.

Payloads carry no timestamps and serialize with sorted keys and compact
separators, so identical runs reproduce identical bytes.  The manifest lists
the files aplab wrote: its earlier entries plus each file this store wrote,
hashed as written, never the directory as found.  The store reads it once,
rejects one that is not ``{"files": {path: sha256}}`` and owns the mismatch check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .errors import CheckFailed, MissingArtifact

MANIFEST_NAME = "manifest.json"

# Field metadata: the field holds an exact integer, written as a decimal string
# because it may exceed what a JSON reader keeps exactly.
EXACT_INT = {"exact_int": True}
# Exact integers are kept up to this many bits, so that their decimal form
# prints: 2^14000 < 10^4300, the most digits Python's str() gives by default.
# Past it, the results that hold them give their log2 instead.
EXACT_INT_BITS = 14_000

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
    """Append-only view of one output directory, created by the first write."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._listed: Optional[Dict[str, str]] = None  # manifest entries, once read
        self._written: Dict[str, str] = {}  # sha256 of each file written here

    def _write_bytes(self, relpath: str, data: bytes) -> str:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self._written[relpath] = hashlib.sha256(data).hexdigest()
        return self._written[relpath]

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

    def _manifest(self) -> Dict[str, str]:
        """Entries of manifest.json, read once; MissingArtifact without one."""
        if self._listed is None:
            try:
                raw = self.read_json(MANIFEST_NAME)
            except ValueError as exc:
                raise CheckFailed(f"{self.root / MANIFEST_NAME} is not JSON: {exc}") from exc
            files = raw.get("files") if isinstance(raw, dict) and len(raw) == 1 else None
            if not isinstance(files, dict) or not all(isinstance(v, str) for v in files.values()):
                raise CheckFailed(f'{self.root / MANIFEST_NAME} is not {{"files": {{path: sha}}}}')
            self._listed = files
        return self._listed

    def _sha256(self, relpath: str) -> Optional[str]:
        path = self.root / relpath
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None

    def manifest_mismatches(self, own: str) -> List[str]:
        """Listed files that are missing or whose sha256 differs.

        ``own`` prefixes the files the calling command rewrites; those are exempt.
        """
        listed = {rel: sha for rel, sha in self._manifest().items() if not rel.startswith(own)}
        return sorted(rel for rel, sha in listed.items() if self._sha256(rel) != sha)

    def update_manifest(self) -> Dict[str, str]:
        """Rewrite the manifest as what it listed plus what this store wrote."""
        listed = self._manifest() if (self.root / MANIFEST_NAME).exists() else {}
        self._listed = dict(sorted({**listed, **self._written}.items()))
        data = (canonical_json({"files": self._listed}) + "\n").encode("utf-8")
        (self.root / MANIFEST_NAME).write_bytes(data)
        return self._listed
