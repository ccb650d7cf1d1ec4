"""Deterministic JSON/CSV artifact store with a hash manifest.

Payloads carry no timestamps and serialize with sorted keys and compact
separators, so identical runs reproduce identical bytes.  The manifest lists
the files aplab wrote: its earlier entries plus each file this store wrote,
hashed as written, never the directory as found.  The store reads it once,
rejects one that is not ``{"files": {path: sha256}}`` and owns the mismatch check.
A stored record is read back into the dataclass it was written from by
``from_json``, which checks the field types; the classes check their domains.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union, get_args, get_type_hints

from .errors import CheckFailed, MissingArtifact

MANIFEST_NAME = "manifest.json"

# Field metadata: the field holds an exact integer, written as a decimal string
# because it may exceed what a JSON reader keeps exactly.
EXACT_INT = {"exact_int": True}
# Exact integers are kept up to this many bits, so that their decimal form
# prints: 2^14000 < 10^4300, the most digits Python's str() gives by default.
# Past it, the results that hold them give their log2 instead.
EXACT_INT_BITS = 14_000

Cell = Union[str, int, float, None]


def exact_ints(items: Iterable[object]) -> bool:
    """Whether every item is an int, none a bool (JSON true) or a float (1.0); one C pass."""
    return set(map(type, items)) <= {int}


def _jsonable(value: object) -> object:
    """JSON form of a result: dataclasses by field name, complex numbers as
    ``[re, im]``, tuples as lists, non-finite floats as null and
    ``EXACT_INT`` fields as decimal strings.  Exact ints, strings, bools
    and None return at once, and a list or tuple of exact ints is copied
    whole, so long index lists take no call per item."""
    if value is None or type(value) in (int, str, bool):
        return value
    if isinstance(value, (list, tuple)) and exact_ints(value):
        return list(value)
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


_field_types = lru_cache(maxsize=None)(get_type_hints)  # one resolution per class
_TAKES = {int: int, float: (int, float), list: list}  # a bool is none of them


def from_json(cls: Any, raw: Any, at: str = "", **given: Any) -> Any:
    """Read ``raw``, as parsed from JSON, back into ``cls``, the type it was written as:
    ``int`` (no bool or float), ``float`` (an int too, but no bool, null or
    string), ``list``, a class with ``from_config`` (read through it), a
    dataclass (each field from the key of its name, unless ``given`` fixes
    it; other keys ignored) or ``Tuple[X, ...]``, a list whose items are read
    as X if X is a dataclass and are otherwise left to the class that holds
    them, so that a long index list is checked once, by that class.  A missing
    key raises KeyError and a wrongly typed value TypeError, each naming the
    entry by its path, as in ``cross_rows[0].max_lower``; ``at`` is the path
    of ``raw`` itself ("" at the top)."""
    named = f"{at}: " if at else ""
    if cls in _TAKES:
        if isinstance(raw, bool) or not isinstance(raw, _TAKES[cls]):
            raise TypeError(f"{named}{raw!r} is no {cls.__name__}")
        return raw
    if hasattr(cls, "from_config"):
        return cls.from_config(raw)
    if is_dataclass(cls):
        if not isinstance(raw, dict):
            raise TypeError(f"{named}a {type(raw).__name__} is no {cls.__name__} record")
        types, read = _field_types(cls), {}
        for f in fields(cls):
            if f.name not in given:
                entry = f"{at}.{f.name}" if at else f.name
                if f.name not in raw:
                    raise KeyError(entry)
                read[f.name] = from_json(types[f.name], raw[f.name], entry)
        return cls(**read, **given)
    item = get_args(cls)[0]
    items = from_json(list, raw, at)
    if not is_dataclass(item):
        return tuple(items)
    return tuple(from_json(item, x, f"{at}[{i}]") for i, x in enumerate(items))


def _format_cell(cell: Cell) -> str:
    """A CSV cell: None as the empty cell, a float by its repr."""
    if cell is None:
        return ""
    return repr(cell) if isinstance(cell, float) else str(cell)


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
