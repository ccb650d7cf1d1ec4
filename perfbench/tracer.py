"""Spans around the public calls of each aplab module, recorded from outside.

Each traced name is wrapped where its caller looks it up: ``cli`` and
``obstruction`` import functions by name, so those are wrapped in the
importing module's namespace as well as in the defining one, and methods are
wrapped on their class.  A span holds its name, start, end, the index of the
span open around it and the run id of the iteration.  Spans stay in memory
and are written out once, when the run ends.

Span names are ``<module>.<function>``, where ``<module>`` is the aplab
module (the layer) that defines the function.  A layer's self time is the
time of its spans minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "discrepancy", "characters", "obstruction", "mixed_norm", "moduli", "store")
COMMANDS = ("build", "verify", "ap", "moduli")

# (owner, attribute, span name); owner is a module path or "module:Class".
_TARGETS = [
    *[("aplab.cli", f"cmd_{c}", f"cli.{c}") for c in COMMANDS],
    ("aplab.cli", "load_data", "cli.load_data"),
    ("aplab.cli", "search_signs", "discrepancy.search_signs"),
    ("aplab.cli", "search_character_split", "discrepancy.search_character_split"),
    ("aplab.cli", "certify_constants", "discrepancy.certify_constants"),
    ("aplab.cli", "sign_objective", "discrepancy.sign_objective"),
    ("aplab.cli", "split_discrepancy", "discrepancy.split_discrepancy"),
    ("aplab.cli", "verify_orthogonality", "characters.verify_orthogonality"),
    ("aplab.cli", "witness_point", "moduli.witness_point"),
    ("aplab.cli", "growth_envelope_check", "moduli.growth_envelope_check"),
    ("aplab.cli", "split_sequence", "moduli.split_sequence"),
    ("aplab.discrepancy", "sign_objective", "discrepancy.sign_objective"),
    ("aplab.discrepancy", "split_discrepancy", "discrepancy.split_discrepancy"),
    ("aplab.discrepancy", "cross_lower_matrix", "discrepancy.cross_lower_matrix"),
    ("aplab.discrepancy", "cross_upper_matrix", "discrepancy.cross_upper_matrix"),
    ("aplab.obstruction", "cross_lower_matrix", "discrepancy.cross_lower_matrix"),
    ("aplab.obstruction", "cross_upper_matrix", "discrepancy.cross_upper_matrix"),
    ("aplab.obstruction", "split_discrepancy", "discrepancy.split_discrepancy"),
    ("aplab.obstruction", "z_norms_rows", "mixed_norm.z_norms_rows"),
    *[
        ("aplab.obstruction", f, f"obstruction.{f}")
        for f in (
            "trace_limit",
            "telescope_residual",
            "level_trace",
            "telescope_norms",
            "biorthogonality_deviation",
            "form_agreement_deviation",
            "check_norm_bound",
        )
    ],
    ("aplab.moduli", "witness_point", "moduli.witness_point"),
    ("aplab.moduli", "z_norms_rows", "mixed_norm.z_norms_rows"),
    ("aplab.mixed_norm", "z_norms_rows", "mixed_norm.z_norms_rows"),
    ("aplab.characters:CharacterTable", "rows", "characters.rows"),
    ("aplab.characters:CharacterTable", "rows_at_inverse", "characters.rows_at_inverse"),
    ("aplab.obstruction:BasisFrame", "coords_of", "obstruction.coords_of"),
    *[
        ("aplab.obstruction:BasisFrame", m, f"obstruction.frame.{m}")
        for m in ("coord_matrix", "functional_matrix", "lower_functional_matrix", "telescope_coeff_matrix")
    ],
    ("aplab.store:ArtifactStore", "write_json", "store.write"),
    ("aplab.store:ArtifactStore", "write_csv", "store.write"),
    ("aplab.store:ArtifactStore", "update_manifest", "store.update_manifest"),
    ("aplab.store:ArtifactStore", "read_json", "store.read_json"),
]

_MIB = float(1 << 20)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_ms.top"):
        return "ms"
    if metric.endswith(("_s", "_s.top")) or "_s." in metric:
        return "s"
    if metric.endswith("improve_ratio"):
        return "ratio"
    if metric.endswith("frame_mb"):
        return "MiB"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "level", "amount", "miss")

    def __init__(self, name: str, parent: int, run: str) -> None:
        self.name = name
        self.parent = parent
        self.run = run
        self.level: Optional[int] = None
        self.amount = 0  # rows or bytes, where the call has them
        self.miss = False
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _SignSearch:
    """Best-so-far state of one sign search, fed by its objective calls."""

    def __init__(self, level: int) -> None:
        self.level = level
        self.calls = 0
        self.best = math.inf
        self.improvements: List[List[float]] = []

    def see(self, value: float) -> None:
        self.calls += 1
        if value < self.best:
            self.best = value
            self.improvements.append([self.calls, value])


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs the wrappers, records spans and derives per-layer metrics."""

    def __init__(self, top_level: int) -> None:
        self.top_level = top_level
        self.spans: List[Span] = []
        self.curves: List[Dict] = []
        self.run = ""
        self._stack: List[int] = []
        self._searches: List[_SignSearch] = []
        self._saved: List[tuple] = []
        self._frame_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._note = self._notes()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            target = _resolve(owner)
            original = target.__dict__[attr]
            setattr(target, attr, self._wrap(original, name, attr))
            self._saved.append((target, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _wrap(self, original: Callable, name: str, attr: str) -> Callable:
        note = self._note.get(attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, self.run)
            self.spans.append(span)
            self._stack.append(index)
            if attr == "search_signs":
                self._searches.append(_SignSearch(int(args[0])))
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if attr == "search_signs":
                    self._finish_search(self._searches.pop())
            if note is not None:
                note(span, args, result)
            return result

        return wrapper

    def _notes(self) -> Dict[str, Callable]:
        def level_arg(span, args, result):
            span.level = int(args[0])

        def objective(span, args, result):
            span.level = int(args[0])
            if self._searches:
                self._searches[-1].see(float(result))

        def split_level(span, args, result):
            span.level = args[0].group.level

        def rows_in(span, args, result):
            span.amount = int(args[1].shape[0])

        def norm_rows(span, args, result):
            shape = next(iter(args[1].values())).shape
            span.amount = math.prod(shape[:-1])

        def frame_matrix(span, args, result):
            seen = self._frame_keys.setdefault(args[0], set())
            key = (span.name, args[1])
            if key not in seen:
                seen.add(key)
                span.miss = True
                span.amount = int(result.nbytes)

        def written(span, args, result):
            span.amount = (Path(args[0].root) / args[1]).stat().st_size

        notes = {
            "search_signs": level_arg,
            "sign_objective": objective,
            "search_character_split": split_level,
            "coords_of": rows_in,
            "z_norms_rows": norm_rows,
            "write_json": written,
            "write_csv": written,
        }
        for m in ("coord_matrix", "functional_matrix", "lower_functional_matrix", "telescope_coeff_matrix"):
            notes[m] = frame_matrix
        return notes

    def _finish_search(self, search: _SignSearch) -> None:
        if search.calls:
            self.curves.append(
                {
                    "run": self.run,
                    "build": sum(s.run == self.run and s.name == "cli.build" for s in self.spans),
                    "level": search.level,
                    "calls": search.calls,
                    "improvements": search.improvements,
                }
            )

    # -- metrics ------------------------------------------------------

    def metrics(self, run: str) -> Dict[str, float]:
        """Per-layer metrics of one traced iteration (tracing overhead excluded)."""
        indexed = [(i, s) for i, s in enumerate(self.spans) if s.run == run]
        spans = [s for _, s in indexed]
        child_seconds: Dict[int, float] = {}
        for s in spans:
            if s.parent >= 0:
                child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds

        def pick(*names: str, level: Optional[int] = None, miss: bool = False) -> List[Span]:
            return [
                s for s in spans
                if s.name in names
                and (level is None or s.level == level)
                and (not miss or s.miss)
            ]

        def secs(*names: str, **kw) -> float:
            return math.fsum(s.seconds for s in pick(*names, **kw))

        def calls(*names: str, **kw) -> int:
            return len(pick(*names, **kw))

        def amount(*names: str, **kw) -> int:
            return sum(s.amount for s in pick(*names, **kw))

        top = self.top_level
        curves = [c for c in self.curves if c["run"] == run]
        search_calls = sum(c["calls"] for c in curves)
        improvements = sum(len(c["improvements"]) for c in curves)
        top_objective = pick("discrepancy.sign_objective", level=top)
        frame = tuple(f"obstruction.frame.{m}" for m in (
            "coord_matrix", "functional_matrix", "lower_functional_matrix", "telescope_coeff_matrix"))
        cross = ("discrepancy.cross_lower_matrix", "discrepancy.cross_upper_matrix")
        rows = ("characters.rows", "characters.rows_at_inverse")

        out: Dict[str, float] = {
            "discrepancy.sign_search_s": secs("discrepancy.search_signs"),
            "discrepancy.sign_search_s.top": secs("discrepancy.search_signs", level=top),
            "discrepancy.sign_objective.calls": calls("discrepancy.sign_objective"),
            "discrepancy.sign_objective_ms.top": (
                1e3 * math.fsum(s.seconds for s in top_objective) / len(top_objective)
                if top_objective else 0.0
            ),
            "discrepancy.sign_objective.improve_ratio": (
                improvements / search_calls if search_calls else 0.0
            ),
            "discrepancy.split_search_s": secs("discrepancy.search_character_split"),
            "discrepancy.split_search_s.top": secs("discrepancy.search_character_split", level=top),
            "discrepancy.certify_s": secs("discrepancy.certify_constants"),
            "discrepancy.cross_blocks_s": secs(*cross),
            "discrepancy.cross_blocks.calls": calls(*cross),
            "discrepancy.split_discrepancy.calls": calls("discrepancy.split_discrepancy"),
            "characters.orthogonality_s": secs("characters.verify_orthogonality"),
            "characters.rows_s": secs(*rows),
            "characters.rows.calls": calls(*rows),
            "obstruction.frame_build_s": secs(*frame, miss=True),
            "obstruction.frame_mb": amount(*frame, miss=True) / _MIB,
            "obstruction.coords_of_s": secs("obstruction.coords_of"),
            "obstruction.coords_of.rows": amount("obstruction.coords_of"),
            "obstruction.trace_limit_s": secs("obstruction.trace_limit"),
            "obstruction.telescope_residual_s": secs("obstruction.telescope_residual"),
            "obstruction.level_trace_s": secs("obstruction.level_trace"),
            "obstruction.level_trace.calls": calls("obstruction.level_trace"),
            "obstruction.telescope_norms_s": secs("obstruction.telescope_norms"),
            "obstruction.biorthogonality_s": secs("obstruction.biorthogonality_deviation"),
            "obstruction.form_agreement_s": secs("obstruction.form_agreement_deviation"),
            "obstruction.norm_bound_s": secs("obstruction.check_norm_bound"),
            "mixed_norm.z_norms_rows_s": secs("mixed_norm.z_norms_rows"),
            "mixed_norm.z_norms_rows.rows": amount("mixed_norm.z_norms_rows"),
            "moduli.witness_s": secs("moduli.witness_point"),
            "moduli.envelope_s": secs("moduli.growth_envelope_check"),
            "moduli.split_s": secs("moduli.split_sequence"),
            "store.write_s": secs("store.write"),
            "store.bytes_written": amount("store.write"),
            "store.files_written": calls("store.write"),
            "store.manifest_s": secs("store.update_manifest"),
            "store.read_s": secs("store.read_json"),
            "store.reads": calls("store.read_json"),
            "cli.load_data_s": secs("cli.load_data"),
        }
        self_seconds = {layer: 0.0 for layer in LAYERS}
        for i, s in indexed:
            own = s.seconds - child_seconds.get(i, 0.0)
            self_seconds[s.name.split(".", 1)[0]] += own
            if s.name.startswith("cli.") and s.name[4:] in COMMANDS:
                key = f"cli.self_s.{s.name[4:]}"
                out[key] = out.get(key, 0.0) + own
        for c in COMMANDS:
            out.setdefault(f"cli.self_s.{c}", 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_seconds[layer]
        return out

    def dump(self, path: Path) -> None:
        """Write every span and search curve, one JSON object per line."""
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run,
                }) + "\n")
            for c in self.curves:
                fh.write(json.dumps({"curve": c}) + "\n")
