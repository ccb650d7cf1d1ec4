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
from dataclasses import dataclass, fields
from functools import cache
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
from .moduli import growth_envelope_check, split_sequence, witness_point
from .store import EXACT_INT_BITS, MANIFEST_NAME, ArtifactStore, from_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3

ACCEPT_CONSTANT = 6.0
OUT_ENV_VAR = "APLAB_OUT"

DEFAULT_M_SAMPLES = (2**10, 2**20, 2**40, 2**64)


@dataclass(frozen=True)
class RunConfig:
    """What a build records in config.json, with the defaults build uses.  The
    derived commands (verify, ap, moduli) take these from the store they read;
    a flag given explicitly must agree with the stored value."""

    out: Path
    schedule: ExponentSchedule = ExponentSchedule.power(0.5)
    max_level: int = 6
    seed: int = 7
    budget: int = 2048
    sign_budget: int = 64
    tol: float = 1e-9
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self) -> None:
        if self.max_level < 1:
            raise BadParameter(f"max level must be >= 1, got {self.max_level}")
        if self.seed < 0:
            raise BadParameter(f"seed must be nonnegative, got {self.seed}")
        if self.budget < 1 or self.sign_budget < 1:
            raise BadParameter("budgets must be >= 1")
        if not 0 < self.tol < math.inf:
            raise BadParameter(f"tolerance must be positive and finite, got {self.tol}")
        if not (1.0 <= self.c1 < math.inf and 1.0 <= self.c2 < math.inf):
            raise BadParameter(f"c1 and c2 must be finite and >= 1, got {self.c1}, {self.c2}")
        if self.iso_constant == math.inf:
            raise BadParameter(f"c1 = {self.c1} and c2 = {self.c2} make 2*sqrt(2)*c1*c2 overflow; it must be finite")

    @property
    def iso_constant(self) -> float:
        """2*sqrt(2)*c1*c2, from the type-2 (c1) and cotype (c2) constants."""
        return 2.0 * math.sqrt(2.0) * self.c1 * self.c2

    def to_payload(self) -> Dict:
        return {**_record(self, "out"), "schedule": self.schedule.to_config()}


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


def _record(item: Any, fixed: str = "") -> Dict:
    """A record's fields less ``fixed``, if given, which its file's place gives ``from_json`` back."""
    return {f.name: getattr(item, f.name) for f in fields(item) if f.name != fixed}


def _level_payload(item: LevelData) -> Dict:
    return {
        "level": item.level,
        "order": item.table.order,
        "split": _record(item.split, "level"),
        "signs": _record(item.require_signs(), "level"),
    }


@contextmanager
def _stored(path: str | Path) -> Iterator[None]:
    """Fail the check naming ``path`` when a stored file is malformed or out of domain."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc!r}") from exc


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
    signs ``from_json`` or the classes refuse, or whose draws do not fit the
    config's searches, fails the check."""
    data = ConstructionData()
    for n in range(config.max_level + 1):
        path = _level_path(n)
        table = CharacterTable(build_group(n))
        with _stored(path):
            payload: Any = store.read_json(path)
            stated = from_json(int, payload["level"], "level"), from_json(int, payload["order"], "order")
            if stated != (n, table.order):
                raise CheckFailed(f"{path}: level and order are not {n} and {table.order}")
            split = from_json(CharacterSplit, payload["split"], "split", level=n)
            signs = from_json(SignPattern, payload["signs"], "signs", level=n)
            if not _draws_fit(split, signs, table.order, config):
                raise CheckFailed(
                    f"{path}: split draws {split.draws} or sign draws {signs.draws} "
                    "do not fit the searches config.json describes"
                )
        data.put(LevelData(table=table, split=split, signs=signs))
    return data


def _load_constants(store: ArtifactStore) -> CertifiedConstants:
    """Read constants.json once; a missing or malformed entry fails the check naming the file."""
    with _stored("constants.json"):
        return from_json(CertifiedConstants, store.read_json("constants.json"))


def cmd_build(config: RunConfig) -> int:
    if (config.out / MANIFEST_NAME).exists():
        raise BadParameter(f"{config.out / MANIFEST_NAME} exists; build needs a new --out")
    store = ArtifactStore(config.out)
    data = build_levels(config.max_level, config.seed, config.budget, config.sign_budget)
    constants = certify_constants(range(config.max_level + 1), data)

    store.write_json("config.json", config.to_payload())
    for n in data.levels():
        store.write_json(_level_path(n), _level_payload(data.require(n)))
    store.write_json("constants.json", {**_record(constants), "threshold": ACCEPT_CONSTANT})
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


def _verify_rows(
    config: RunConfig, data: ConstructionData, stored: CertifiedConstants, stale: List[str]
) -> Iterator[tuple]:
    """The verify rows, each ``(check, level, measured, limit[, passed])``; a
    row without a verdict passes when measured <= limit.  The fresh
    certification recomputes the balance but reads the cross maxima from
    the stored sign objectives.  ``family``, one sign-kernel pass per level,
    reads each lower_m once: its maxima rescore the stored objectives and
    its norms meet the compact-family envelope."""
    top, tol = config.max_level, config.tol
    fresh = certify_constants(range(top + 1), data)
    family = obstruction.telescope_norms(data, config.schedule, top)
    yield "manifest-integrity", top, float(len(stale)), 0.0
    for n in range(top + 1):
        yield "character-orthogonality", n, verify_orthogonality(data.require(n).table), tol
    split = {r.level: (r.scale, r.recomputed) for r in stored.split_rows}
    for row in fresh.split_rows:
        yield "balance-discrepancy-drift", row.level, row.drift, tol
        # a level without its stored row fails with drift inf, as a cross row does
        scale, recomputed = split.get(row.level, (row.scale, math.inf))
        ratio = row.recomputed / scale
        passed = ratio <= ACCEPT_CONSTANT and abs(row.recomputed - recomputed) <= tol
        yield "balance-discrepancy-bound", row.level, ratio, ACCEPT_CONSTANT, passed
    cross = {r.level: r.overall for r in stored.cross_rows}
    for row in fresh.cross_rows:
        drift = abs(row.overall - cross[row.level]) if row.level in cross else math.inf
        passed = row.ratio <= ACCEPT_CONSTANT and drift <= tol
        yield "cross-block-bound", row.level, row.ratio, ACCEPT_CONSTANT, passed
        yield "cross-middle-identity", row.level, row.middle_identity_residual, tol
    for n in range(1, top + 1):
        drift = abs(family.objectives[n] - data.require(n).require_signs().objective)
        yield "sign-objective-drift", n, drift, tol
    t_top = min(top, 4)
    frame = obstruction.BasisFrame(data, config.schedule, t_top)
    residuals = list(obstruction.identity_stage(frame)[2])
    for i in range(3):
        op = obstruction.gaussian(t_top, seed=config.seed + i)
        residuals.extend(obstruction.telescope_residual(op, n, frame) for n in range(t_top))
    yield "telescoping-identity", t_top, max(residuals), tol
    for n in range(1, top):
        bound = obstruction.check_norm_bound(n, config.schedule, stored.cross_constant)
        yield "telescope-norm-envelope", n, float(family.norms[n].max()), bound
    horizon = {"power": 5000, "log": 10**6}.get(config.schedule.kind)
    if horizon is not None:
        value = compactness_sequence(config.schedule, horizon)
        yield "compactness-decay", horizon, value, 1e-3, value < 1e-3


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
    rows = [_row(*r) for r in _verify_rows(config, data, stored, stale)]
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
    header = [f.name for f in fields(obstruction.CompactFamilyRow)]
    store.write_csv(
        "ap/compact_family.csv",
        header,
        [[getattr(r, k) for k in header] for r in report.compact_family],
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
        "(its matrix column is 1 by construction; its coordinate traces and residuals check numpy's "
        "FFT against the roots table and read neither split nor signs); "
        f"{len(report.finite_rank)} finite-rank operators tabulated"
    )
    return EXIT_OK


def cmd_moduli(config: RunConfig, m_samples: Sequence[int], depth: int) -> int:
    store = ArtifactStore(config.out)
    if (config.out / "config.json").exists():  # moduli on a build, as in _config_from_args
        _require_intact(store, "moduli/")
    points = [witness_point(config.schedule, m, config.iso_constant) for m in m_samples]
    envelope = growth_envelope_check(points)
    split = split_sequence(config.schedule, depth)

    store.write_json(
        "moduli/witness.json", {"schedule": config.schedule.to_config(), "rows": points}
    )
    store.write_csv(
        "moduli/witness.csv",
        ["m", "head_level", "codimension", "envelope_log2"],
        [
            [p.m, p.head_level, p.codimension, e.envelope_log2]
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
        samples = tuple(int(part, 0) for part in text.split(","))
    except ValueError as exc:
        raise BadParameter(f"bad m-sample list {text!r}") from exc
    if any(m.bit_length() >= EXACT_INT_BITS for m in samples):
        raise BadParameter(f"an m-sample must have fewer than {EXACT_INT_BITS} bits")
    return samples


@cache  # one parser per process, built on first use
def _build_parser() -> argparse.ArgumentParser:
    helps = {"schedule": "power | log | JSON spec (default power)", "budget": "split search budget"}
    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    for f in fields(RunConfig)[1:]:  # the schedule is parsed later; the rest are ints or floats
        kind = {"int": int, "float": float}.get(f.type)
        common.add_argument(f"--{f.name.replace('_', '-')}", type=kind, help=helps.get(f.name))
    common.add_argument("--alpha", type=float, help="power exponent (default 0.5)")
    common.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR}, else aplab-out)")
    description = "Build, certify, and probe the mixed-norm construction."
    parser = argparse.ArgumentParser(prog="aplab", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    names = ("build", "verify", "ap", "moduli", "split")
    commands = {name: sub.add_parser(name, parents=[common]) for name in names}
    commands["ap"].add_argument("--operators", type=int, default=5)
    commands["ap"].add_argument("--rank", type=int, default=5)
    commands["moduli"].add_argument("--m-samples", default=None)
    for name in ("moduli", "split"):
        commands[name].add_argument("--depth", type=int, default=3)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    out = Path(os.environ.get(OUT_ENV_VAR, "aplab-out") if args.out is None else args.out)
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)[1:] if getattr(args, f.name) is not None}
    flags = {k: f"--{k.replace('_', '-')} {v}" for k, v in given.items()}
    if args.alpha is not None:  # part of the schedule flag
        flags["schedule"] = f"{flags.get('schedule', '')} --alpha {args.alpha}".lstrip()
    if "schedule" in flags:
        given["schedule"] = _parse_schedule(given.get("schedule", "power"), args.alpha)
    config_path = out / "config.json"
    if args.command in ("verify", "ap") or (args.command == "moduli" and config_path.exists()):
        with _stored(config_path):
            raw: Any = ArtifactStore(out).read_json("config.json")
            config = from_json(RunConfig, raw, out=out)
        clashes = [k for k, v in given.items() if v != getattr(config, k)]
        if clashes:
            raise BadParameter("; ".join(
                f"{flags[k]} conflicts with {k} {raw[k]} in {config_path}"
                for k in clashes
            ))
        return config
    return RunConfig(out=out, **given)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
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
