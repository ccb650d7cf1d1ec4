"""Command-line front end: build, verify, ap, moduli, split.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 missing
artifact.  All randomness is seeded through the config, payloads carry no
timestamps, and reruns with identical config reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import obstruction
from .characters import CharacterTable, build_group, verify_orthogonality
from .discrepancy import (
    RANDOM_SIGN_LEVEL,
    RANDOM_SPLIT_LEVEL,
    CertifiedConstants,
    CharacterSplit,
    ConstructionData,
    LevelData,
    SignPattern,
    certify_constants,
    cross_bound_scale,
    is_int,
    is_number,
    search_character_split,
    search_signs,
    sign_draw,
    sign_objective,  # unused here; kept so profilers can wrap it by this name
    split_bound_scale,
    split_discrepancy,  # unused here; kept so profilers can wrap it by this name
    split_draw,
)
from .errors import AplabError, BadParameter, CheckFailed, MissingArtifact
from .mixed_norm import ExponentSchedule, compactness_sequence
from .moduli import (
    TypeCotypeConstants,
    growth_envelope_check,
    split_sequence,
    witness_point,
)
from .store import MANIFEST_NAME, ArtifactStore

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3

ACCEPT_CONSTANT = 6.0
OUT_ENV_VAR = "APLAB_OUT"

DEFAULT_M_SAMPLES = (2**10, 2**20, 2**40, 2**64)

# What a build records in config.json, with the defaults build uses.  The
# derived commands (verify, ap, moduli) take these from the store they read;
# a flag given explicitly must agree with the stored value.
BUILD_DEFAULTS = {
    "schedule": "power", "max_level": 6, "seed": 7, "budget": 2048, "sign_budget": 64,
    "tol": 1e-9, "c1": 1.0, "c2": 1.0,
}


@dataclass(frozen=True)
class RunConfig:
    schedule: ExponentSchedule
    max_level: int
    seed: int
    budget: int
    sign_budget: int
    tol: float
    c1: float
    c2: float
    out: Path

    def __post_init__(self) -> None:
        counts = ("max_level", "seed", "budget", "sign_budget")
        if any(isinstance(getattr(self, name), bool) for name in (*counts, "tol", "c1", "c2")):
            raise BadParameter("config values must be numbers, not true or false")
        if not all(isinstance(getattr(self, name), int) for name in counts):
            raise BadParameter(f"{', '.join(counts)} must be integers")
        if self.max_level < 1:
            raise BadParameter(f"max level must be >= 1, got {self.max_level}")
        if self.budget < 1 or self.sign_budget < 1:
            raise BadParameter("budgets must be >= 1")
        if self.tol <= 0:
            raise BadParameter(f"tolerance must be positive, got {self.tol}")
        if self.c1 < 1.0 or self.c2 < 1.0:
            raise BadParameter("c1 and c2 must be >= 1")

    def to_payload(self) -> Dict:
        payload = {k: v for k, v in asdict(self).items() if k != "out"}
        return {**payload, "schedule": self.schedule.to_config()}


def build_levels(
    max_level: int, seed: int, budget: int, sign_budget: int
) -> ConstructionData:
    """Search each level's split, then its signs, in level order.

    Splits below ``RANDOM_SPLIT_LEVEL`` and signs below ``RANDOM_SIGN_LEVEL``
    are searched exhaustively; they fix the constants.  From there on a
    random-restart search stops at the first draw that raises neither
    running constant, and the budgets are caps.  ``c_split`` is the largest split ratio so
    far, ``c_cross`` the largest cross-row ratio of any lower, middle or
    upper entry fixed so far (rows n >= 1, the top's included, so a level
    never depends on ``max_level``).  A split is held to ``c_cross`` too,
    since the middle ratio of row n is half its split ratio.  The signs at
    n read only the splits at n and n-1; their objective is both max
    |lower_n| and max |upper_{n-1}|, and ``cross_bound_scale`` decreases,
    so the row-n ratio bounds both entries.
    """
    data = ConstructionData()
    c_split = c_cross = 0.0
    for n in range(max_level + 1):
        table = CharacterTable(build_group(n))
        scale, cross_scale = split_bound_scale(n), cross_bound_scale(n)
        strategy, target = "exhaustive", -math.inf
        if n >= RANDOM_SPLIT_LEVEL:
            strategy, target = "random-restart", scale * min(c_split, 2.0 * c_cross)
        split = search_character_split(table, strategy, budget, seed, target=target)
        data.put(LevelData(table=table, split=split))
        c_split = max(c_split, split.discrepancy / scale)
        if n >= 1:
            c_cross = max(c_cross, 2.0 ** (-n - 1) * split.discrepancy / cross_scale)

        strategy, target = "exhaustive", -math.inf
        if n >= RANDOM_SIGN_LEVEL:
            strategy, target = "random-restart", cross_scale * c_cross
        signs = search_signs(n, data, strategy, sign_budget, seed, target=target)
        data.set_signs(signs)
        if n >= 1:
            c_cross = max(c_cross, signs.objective / cross_scale)
    return data


VERIFY_REPORT = "verify_report.json"


def _level_path(n: int) -> str:
    return f"levels/level_{n:02d}.json"


def _level_payload(item: LevelData) -> Dict:
    signs = item.require_signs()
    return {
        "level": item.level,
        "order": item.table.order,
        "split": {
            "anchors": item.split.anchors,
            "carriers": item.split.carriers,
            "discrepancy": item.split.discrepancy,
            "draws": item.split.draws,
        },
        "signs": {"signs": signs.signs, "objective": signs.objective, "draws": signs.draws},
    }


@contextmanager
def _stored(path: str | Path) -> Iterator[None]:
    """Fail the check naming ``path`` when a stored file is malformed or out of domain."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:  # PartitionInvalid is a ValueError
        raise CheckFailed(f"{path}: {exc!r}") from exc


def _number(value: Any, test: Callable[[object], bool] = is_number) -> Any:
    if not test(value):  # inside ``_stored``, the failure names the file
        raise TypeError(f"{value!r} fails {test.__name__}")
    return value


def _draws_fit(split: CharacterSplit, signs: SignPattern, k: int, config: RunConfig) -> bool:
    """Whether each search's ``draws`` fits how ``build_levels`` searched the level.

    An exhaustive search takes all ``full`` candidates.  A random-restart
    search (``full`` None) stops below its cap at the draw it keeps, or
    takes the cap and keeps one of its draws.
    """
    n, m, seed = split.level, len(split.anchors), config.seed

    def fits(draws: int, full: Optional[int], cap: int, kept: Callable) -> bool:
        if full is not None:
            return draws == full
        if draws < cap:
            return kept(draws - 1)
        return draws == cap and any(map(kept, range(cap)))

    return fits(
        split.draws, math.comb(k, m) if n < RANDOM_SPLIT_LEVEL else None, config.budget,
        lambda i: split_draw(seed, i, k).tolist() == list(split.anchors),
    ) and fits(
        signs.draws, 1 << m if n < RANDOM_SIGN_LEVEL else None, config.sign_budget,
        lambda i: sign_draw(seed, i, m) == signs.signs,
    )


def load_data(store: ArtifactStore, config: RunConfig) -> ConstructionData:
    """Rebuild construction data from stored level payloads, the one place a
    stored level is checked.  A level file whose level or order is not the
    integer it should be, that is not a split with signs, whose split or
    signs ``CharacterSplit`` or ``SignPattern`` refuses, whose discrepancy
    or objective is no JSON number, or whose draws do not fit the config's
    searches, fails the check."""
    data = ConstructionData()
    for n in range(config.max_level + 1):
        path = _level_path(n)
        table = CharacterTable(build_group(n))
        with _stored(path):
            payload: Any = store.read_json(path)
            for key, want in (("level", n), ("order", table.order)):
                if not is_int(payload[key]) or payload[key] != want:
                    raise CheckFailed(f"{path}: {key} {payload[key]!r} is not {want}")
            s, e = payload["split"], payload["signs"]
            anchors, carriers = tuple(s["anchors"]), tuple(s["carriers"])
            split = CharacterSplit(n, anchors, carriers, _number(s["discrepancy"]), s["draws"])
            signs = SignPattern(n, tuple(e["signs"]), _number(e["objective"]), e["draws"])
            if not _draws_fit(split, signs, table.order, config):
                raise CheckFailed(
                    f"{path}: split draws {split.draws} or sign draws {signs.draws} "
                    "do not fit the searches config.json describes"
                )
        data.put(LevelData(table=table, split=split, signs=signs))
    return data


@dataclass(frozen=True)
class _StoredConstants:
    """The entries of constants.json that verify and ap read."""

    cross_constant: float
    split_rows: Dict[int, Tuple[float, float]]  # level -> (scale, recomputed)
    cross_overall: Dict[int, float]  # level -> overall


def _load_constants(store: ArtifactStore) -> _StoredConstants:
    """Read constants.json once; a missing or malformed entry fails the check naming it."""
    path = "constants.json"
    with _stored(path):
        raw: Any = store.read_json(path)
        return _StoredConstants(
            cross_constant=_number(raw["cross_constant"]),
            split_rows={
                _number(r["level"], is_int): (_number(r["scale"]), _number(r["recomputed"]))
                for r in raw["split_rows"]
            },
            cross_overall={
                _number(r["level"], is_int): _number(r["overall"]) for r in raw["cross_rows"]
            },
        )


def cmd_build(config: RunConfig) -> int:
    if (config.out / MANIFEST_NAME).exists():
        raise BadParameter(f"{config.out / MANIFEST_NAME} exists; build needs a new --out")
    store = ArtifactStore(config.out)
    data = build_levels(config.max_level, config.seed, config.budget, config.sign_budget)
    constants = certify_constants(range(config.max_level + 1), data)

    store.write_json("config.json", config.to_payload())
    for n in data.levels():
        store.write_json(_level_path(n), _level_payload(data.require(n)))
    store.write_json("constants.json", {**asdict(constants), "threshold": ACCEPT_CONSTANT})
    store.update_manifest()

    bounds = (("balance discrepancy", constants.split_rows), ("cross-block", constants.cross_rows))
    for name, rows in bounds:
        for row in rows:
            if row.ratio > ACCEPT_CONSTANT:
                print(
                    f"build: level {row.level} {name} ratio {row.ratio:.3f} "
                    f"exceeds {ACCEPT_CONSTANT}",
                    file=sys.stderr,
                )
                return EXIT_CHECK_FAILED
    print(
        f"build: levels 0..{config.max_level} stored; "
        f"balance constant {constants.split_constant:.4f}, "
        f"cross constant {constants.cross_constant:.4f}"
    )
    return EXIT_OK


@dataclass(frozen=True)
class _Audit:
    """What the verify checks read: the stored build, a fresh certification
    and one pass of the sign kernel per level.

    The certification recomputes the balance but reads the cross maxima
    from the stored sign objectives.  ``family`` reads each lower_m once:
    ``_sign_objectives`` rescores the stored objectives from its maxima,
    and ``_compact_family`` bounds its norms.  A check yields
    ``(check, level, measured, limit[, passed])``; without an explicit
    verdict a row passes when measured <= limit.
    """

    config: RunConfig
    data: ConstructionData
    stored: _StoredConstants
    fresh: CertifiedConstants
    family: obstruction.TelescopeFamily
    stale: List[str]  # files whose bytes no longer match the manifest

    @property
    def top(self) -> int:
        return self.config.max_level


def _integrity(a: _Audit) -> Iterator[tuple]:
    yield "manifest-integrity", a.top, float(len(a.stale)), 0.0


def _orthogonality(a: _Audit) -> Iterator[tuple]:
    for n in range(a.top + 1):
        report = verify_orthogonality(a.data.require(n).table, a.config.tol)
        yield "character-orthogonality", n, report.max_deviation, a.config.tol, report.passed


def _balance(a: _Audit) -> Iterator[tuple]:
    stored = a.stored.split_rows
    for row in a.fresh.split_rows:
        yield "balance-discrepancy-drift", row.level, row.drift, a.config.tol
        # a level without its stored row fails with drift inf, as in _cross_blocks
        scale, recomputed = stored.get(row.level, (row.scale, math.inf))
        ratio = row.recomputed / scale
        passed = ratio <= ACCEPT_CONSTANT and abs(row.recomputed - recomputed) <= a.config.tol
        yield "balance-discrepancy-bound", row.level, ratio, ACCEPT_CONSTANT, passed


def _cross_blocks(a: _Audit) -> Iterator[tuple]:
    stored = a.stored.cross_overall
    for row in a.fresh.cross_rows:
        drift = abs(row.overall - stored[row.level]) if row.level in stored else math.inf
        passed = row.ratio <= ACCEPT_CONSTANT and drift <= a.config.tol
        yield "cross-block-bound", row.level, row.ratio, ACCEPT_CONSTANT, passed
        yield "cross-middle-identity", row.level, row.middle_identity_residual, a.config.tol


def _sign_objectives(a: _Audit) -> Iterator[tuple]:
    # the one rescoring of the stored objectives the cross rows read
    for n in range(1, a.top + 1):
        drift = abs(a.family.objectives[n] - a.data.require(n).require_signs().objective)
        yield "sign-objective-drift", n, drift, a.config.tol


def _telescoping(a: _Audit) -> Iterator[tuple]:
    t_top = min(a.top, 4)
    frame = obstruction.BasisFrame(a.data, a.config.schedule, t_top)
    residuals = list(obstruction.identity_stage(frame)[2])
    for i in range(3):
        op = obstruction.gaussian(t_top, seed=a.config.seed + i)
        residuals.extend(obstruction.telescope_residual(op, n, frame) for n in range(t_top))
    yield "telescoping-identity", t_top, max(residuals), a.config.tol


def _compact_family(a: _Audit) -> Iterator[tuple]:
    for n in range(1, a.top):
        report = obstruction.check_norm_bound(
            n, a.family.norms[n], a.config.schedule, a.stored.cross_constant
        )
        yield "telescope-norm-envelope", n, report.max_norm, report.bound, report.passed
    horizon = {"power": 5000, "log": 10**6}.get(a.config.schedule.kind)
    if horizon is not None:
        value = compactness_sequence(a.config.schedule, horizon)
        yield "compactness-decay", horizon, value, 1e-3, value < 1e-3


VERIFY_CHECKS: Tuple[Callable[[_Audit], Iterator[tuple]], ...] = (
    _integrity,
    _orthogonality,
    _balance,
    _cross_blocks,
    _sign_objectives,
    _telescoping,
    _compact_family,
)


def _row(
    check: str, level: int, measured: float, limit: float, passed: Optional[bool] = None
) -> Dict:
    if passed is None:
        passed = measured <= limit
    return {"check": check, "level": level, "measured": measured, "limit": limit, "passed": passed}


def cmd_verify(config: RunConfig) -> int:
    """Re-check a stored build and write ``verify_report.json``.

    Biorthogonality of the functionals is no row: it follows from what is
    checked.  With exact exponents and S_r = sum_g chi_r(g), each Gram entry
    of either form is +-S_{x-y}/k for x, y among one level's anchors a and
    carriers c (eps_j eps_i S_{a_i-a_j}/k, eps_j S_{c_i-a_j}/k, ...): an
    entry of the character Gram, bounded by ``character-orthogonality``, on
    the Kronecker pattern exactly when the split is a partition, which
    ``load_data`` enforces.  Form agreement is biorthogonality on the span.
    A frame-matrix row would add only whether the FFT kernels match the
    literal sums: code correctness, which the property tests check.
    """
    store = ArtifactStore(config.out)
    stale = store.manifest_mismatches(VERIFY_REPORT)  # verify rewrites its own report
    data = load_data(store, config)
    stored = _load_constants(store)
    fresh = certify_constants(range(config.max_level + 1), data)
    family = obstruction.telescope_norms(data, config.schedule, config.max_level)
    audit = _Audit(config, data, stored, fresh, family, stale)
    rows = [_row(*row) for check in VERIFY_CHECKS for row in check(audit)]
    store.write_json(VERIFY_REPORT, {"rows": rows})

    for row in rows:
        status = "pass" if row["passed"] else "FAIL"
        print(
            f"verify: {row['check']:<28} level {row['level']:>7} "
            f"measured {row['measured']:.6g} limit {row['limit']:.6g} {status}"
        )
    if stale:
        print(f"verify: files differ from manifest.json: {', '.join(stale)}", file=sys.stderr)
    first = next((r for r in rows if not r["passed"]), None)
    if first is not None:
        print(
            f"verify: first failure {first['check']} at level {first['level']}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    store.update_manifest()
    return EXIT_OK


def _require_intact(store: ArtifactStore, own: str) -> None:
    """Refuse a store whose listed files differ from manifest.json, except ``own``."""
    stale = store.manifest_mismatches(own)
    if stale:
        raise CheckFailed(f"files differ from {MANIFEST_NAME}: {', '.join(stale)}")


def cmd_ap(config: RunConfig, operators: int, max_rank: int) -> int:
    """Tabulate the obstruction evidence; as in verify, an identity trace or
    residual off by more than ``tol`` exits 1 and leaves the manifest as it was."""
    store = ArtifactStore(config.out)
    _require_intact(store, "ap/")
    data = load_data(store, config)
    constants = _load_constants(store)

    frame = obstruction.BasisFrame(data, config.schedule, config.max_level)
    report = obstruction.ap_experiment(
        frame,
        cross_constant=constants.cross_constant,
        operator_count=operators,
        max_rank=max_rank,
        seed=config.seed,
        provenance={
            k: v for k, v in config.to_payload().items()
            if k in ("seed", "budget", "sign_budget", "schedule")
        },
    )
    store.write_json("ap/obstruction.json", report)
    store.write_csv(
        "ap/identity_trace.csv",
        ["level", "trace_real", "trace_imag", "deviation"],
        [[r.level, r.matrix.real, r.matrix.imag, r.deviation] for r in report.identity_trace],
    )
    store.write_csv(
        "ap/finite_rank.csv",
        ["operator", "rank", "support_level", "max_trace_beyond_support", "tail_bound"],
        [
            [r.operator, r.rank, r.support_level, r.max_beyond_support, r.tail_bound]
            for r in report.finite_rank
        ],
    )
    store.write_csv(
        "ap/compact_family.csv",
        ["level", "max_scaled_norm", "envelope", "rate_reference"],
        [
            [r.level, r.max_scaled_norm, r.envelope, r.rate_reference]
            for r in report.compact_family
        ],
    )
    residuals = (*report.identity_telescope_residuals, 0.0)  # none at the truncation
    for row, residual in zip(report.identity_trace, residuals):
        if max(row.deviation, residual) > config.tol:
            print(f"ap: first failure identity-trace at level {row.level}: deviation "
                  f"{row.deviation:.3g}, residual {residual:.3g}, tol {config.tol:.3g}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    store.update_manifest()
    print(
        f"ap: identity trace holds at 1 through level {config.max_level} within {config.tol:.3g} "
        "(its matrix column is exactly 1 by construction; its coordinate traces and residuals "
        f"are the checks); {len(report.finite_rank)} finite-rank operators tabulated"
    )
    return EXIT_OK


def cmd_moduli(config: RunConfig, m_samples: Sequence[int], depth: int) -> int:
    store = ArtifactStore(config.out)
    if (config.out / "config.json").exists():  # moduli on a build, as in _config_from_args
        _require_intact(store, "moduli/")
    constants = TypeCotypeConstants(c1=config.c1, c2=config.c2)
    points = [witness_point(config.schedule, m, constants) for m in m_samples]
    envelope = growth_envelope_check(config.schedule, m_samples)
    split = split_sequence(config.schedule, depth)

    store.write_json(
        "moduli/witness.json", {"schedule": config.schedule.to_config(), "rows": points}
    )
    store.write_csv(
        "moduli/witness.csv",
        ["m", "head_level", "codimension", "envelope_log2"],
        [
            [p.m, p.head_level, "" if p.codimension is None else p.codimension,
             "" if e.envelope_log2 is None else e.envelope_log2]
            for p, e in zip(points, envelope.rows)
        ],
    )
    store.write_json("moduli/envelope.json", {"rows": envelope.rows, "passed": envelope.passed})
    store.write_json("moduli/split.json", split)
    store.write_csv(
        "moduli/split.csv",
        ["step", "index", "threshold"],
        [
            [t.step, split.indices[t.step - 1], t.display]
            for t in split.thresholds
        ],
    )
    store.update_manifest()
    for row in envelope.rows:
        mark = "skipped" if row.skipped else ("pass" if row.passed else "FAIL")
        print(f"moduli: envelope m={row.m} {mark}")
    print(f"moduli: split indices {list(split.indices)}")
    return EXIT_OK


def cmd_split(config: RunConfig, depth: int) -> int:
    split = split_sequence(config.schedule, depth)
    print(f"split: indices {list(split.indices)}")
    for t in split.thresholds:
        print(f"split: threshold {t.step} = {t.display}")
    return EXIT_OK


def _parse_schedule(text: str, alpha: Optional[float]) -> ExponentSchedule:
    if text == "power":
        return ExponentSchedule.power(0.5 if alpha is None else alpha)
    if alpha is not None:
        raise BadParameter(f"--alpha applies to --schedule power only, not {text!r}")
    if text == "log":
        return ExponentSchedule.log_rate()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParameter(f"schedule must be 'power', 'log', or JSON, got {text!r}") from exc
    return ExponentSchedule.from_config(spec)


def _parse_m_samples(text: Optional[str]) -> Tuple[int, ...]:
    if not text:
        return DEFAULT_M_SAMPLES
    try:
        return tuple(int(part, 0) for part in text.split(","))
    except ValueError as exc:
        raise BadParameter(f"bad m-sample list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aplab",
        description="Build, certify, and probe the mixed-norm construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--schedule", help="power | log | JSON spec (default power)")
        p.add_argument("--alpha", type=float, help="power exponent (default 0.5)")
        p.add_argument("--max-level", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--budget", type=int, help="split search budget")
        p.add_argument("--sign-budget", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--c1", type=float)
        p.add_argument("--c2", type=float)
        p.add_argument("--out", default=os.environ.get(OUT_ENV_VAR, "aplab-out"))

    for name in ("build", "verify", "ap", "moduli", "split"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "ap":
            p.add_argument("--operators", type=int, default=5)
            p.add_argument("--rank", type=int, default=5)
        if name == "moduli":
            p.add_argument("--m-samples", default=None)
            p.add_argument("--depth", type=int, default=3)
        if name == "split":
            p.add_argument("--depth", type=int, default=3)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {k: getattr(args, k) for k in BUILD_DEFAULTS if getattr(args, k) is not None}
    flags = {k: f"--{k.replace('_', '-')} {v}" for k, v in given.items()}
    if args.alpha is not None:  # part of the schedule flag
        given.setdefault("schedule", BUILD_DEFAULTS["schedule"])
        flags["schedule"] = f"{flags.get('schedule', '')} --alpha {args.alpha}".lstrip()
    values = {**BUILD_DEFAULTS, **given}
    values["schedule"] = _parse_schedule(values["schedule"], args.alpha)
    config_path = Path(args.out) / "config.json"
    if args.command in ("verify", "ap") or (args.command == "moduli" and config_path.exists()):
        with _stored(config_path):
            raw: Any = ArtifactStore(args.out).read_json("config.json")
            stored = {k: raw[k] for k in BUILD_DEFAULTS}
            stored["schedule"] = ExponentSchedule.from_config(raw["schedule"])
            config = RunConfig(**stored, out=Path(args.out))
        clashes = [k for k in given if values[k] != stored[k]]
        if clashes:
            raise BadParameter("; ".join(
                f"{flags[k]} conflicts with {k} {raw[k]} in {config_path}"
                for k in clashes
            ))
        return config
    return RunConfig(**values, out=Path(args.out))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "build":
            return cmd_build(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "ap":
            return cmd_ap(config, operators=args.operators, max_rank=args.rank)
        if args.command == "moduli":
            return cmd_moduli(config, _parse_m_samples(args.m_samples), args.depth)
        if args.command == "split":
            return cmd_split(config, args.depth)
    except AplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissingArtifact):
            return EXIT_MISSING
        return EXIT_CHECK_FAILED if isinstance(exc, CheckFailed) else EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
