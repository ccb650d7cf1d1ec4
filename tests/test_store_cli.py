import ast
import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aplab import cli, discrepancy, errors, moduli, obstruction
from aplab.cli import main
from aplab.errors import MissingArtifact
from aplab.discrepancy import CertifiedConstants, CharacterSplit, SignPattern, certify_constants
from aplab.store import EXACT_INT, ArtifactStore, canonical_json, from_json
from oracles import jsonable_oracle
from strategies import constructions


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1.5, "a": [1, 2], "c": {"y": 0.1, "x": True}})
    b = canonical_json({"c": {"x": True, "y": 0.1}, "a": [1, 2], "b": 1.5})
    assert a == b
    assert a == '{"a":[1,2],"b":1.5,"c":{"x":true,"y":0.1}}'


@dataclass(frozen=True)
class _Counted:
    count: Optional[int] = field(metadata=EXACT_INT)
    rest: object = None


_INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()), max_size=8)
_LEAVES = st.one_of(
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.floats(),
    st.sampled_from((math.inf, -math.inf, math.nan)),
    st.complex_numbers(),
    _INT_LISTS,
    _INT_LISTS.map(tuple),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.builds(_Counted, st.one_of(st.none(), st.integers()), inner),
    ),
    max_leaves=24,
)


@given(_PAYLOADS)
def test_canonical_json_matches_the_per_item_recursion(payload):
    # int lists are copied whole; the recursion into each item is the oracle,
    # so bools in an int list still write true and non-finite floats null
    expected = json.dumps(
        jsonable_oracle(payload),
        sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False,
    )
    assert canonical_json(payload) == expected


@settings(deadline=None)
@given(constructions(min_top=0))
def test_stored_records_read_back_into_their_dataclasses(case):
    # the writer and the reader share the dataclass fields: each level's
    # split and signs and every entry of the constants come back equal
    top, data = case
    for n in range(top + 1):
        payload = json.loads(canonical_json(cli._level_payload(data.require(n))))
        assert from_json(CharacterSplit, payload["split"], level=n) == data.require(n).split
        assert from_json(SignPattern, payload["signs"], level=n) == data.require(n).signs
    constants = certify_constants(range(top + 1), data)
    assert from_json(CertifiedConstants, json.loads(canonical_json(constants))) == constants


def test_store_roundtrip_and_manifest(tmp_path):
    store = ArtifactStore(tmp_path)
    store.write_json("x/data.json", {"value": 0.25})
    store.write_csv("x/table.csv", ["a", "b"], [[1, 2.5], [3, "z"]])
    assert store.read_json("x/data.json") == {"value": 0.25}
    (tmp_path / "x" / "stray.txt").write_text("not written by the store")
    entries = store.update_manifest()
    assert set(entries) == {"x/data.json", "x/table.csv"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == entries
    with pytest.raises(MissingArtifact):
        store.read_json("x/absent.json")


def _run(*args):
    return main(list(args))


BUILD_ARGS = (
    "--max-level", "3", "--schedule", "log",
    "--budget", "64", "--sign-budget", "16", "--seed", "7",
)


@pytest.fixture(scope="module")
def built_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("store")
    code = _run("build", *BUILD_ARGS, "--out", str(out))
    assert code == 0
    return out


def test_cli_build_outputs(built_store):
    assert (built_store / "config.json").exists()
    assert (built_store / "constants.json").exists()
    for n in range(4):
        assert (built_store / "levels" / f"level_{n:02d}.json").exists()
    manifest = json.loads((built_store / "manifest.json").read_text())
    assert "config.json" in manifest["files"]


def test_cli_verify_passes(built_store, capsys):
    code = _run("verify", "--schedule", "log", "--out", str(built_store))
    out = capsys.readouterr().out
    assert code == 0
    assert "character-orthogonality" in out
    assert "FAIL" not in out
    report = json.loads((built_store / "verify_report.json").read_text())
    assert all(row["passed"] for row in report["rows"])
    assert {row["check"] for row in report["rows"]} == {
        "manifest-integrity", "character-orthogonality", "balance-discrepancy-drift",
        "balance-discrepancy-bound", "cross-block-bound", "cross-middle-identity",
        "sign-objective-drift", "telescoping-identity", "telescope-norm-envelope",
        "compactness-decay",
    }


def test_verify_memory_stays_bounded_at_level_10(tmp_path, capsys):
    # verify builds no frame matrix; its heaviest step, the one pass of the
    # sign kernel per level that the sign rescoring and the compact family
    # share, reads the cross blocks 32 rows at a time (a 5.2 MiB peak here;
    # 8 MiB leaves 2.8 MiB of margin).  The compact family's frame route
    # traced 80 MiB, and the dense frame rows alone took 150 MiB
    out = tmp_path / "l10"
    assert _run(
        "build", "--max-level", "10", "--schedule", "log",
        "--budget", "64", "--sign-budget", "2", "--seed", "7", "--out", str(out),
    ) == 0
    tracemalloc.start()
    try:
        code = _run("verify", "--out", str(out))  # every verify row
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20


def test_cli_ap_writes_tables(built_store):
    code = _run("ap", "--schedule", "log", "--out", str(built_store), "--operators", "3")
    assert code == 0
    payload = json.loads((built_store / "ap" / "obstruction.json").read_text())
    assert all(row["deviation"] <= 1e-10 for row in payload["identity_trace"])
    assert all(row["max_beyond_support"] <= 1e-12 for row in payload["finite_rank"])
    csv_text = (built_store / "ap" / "identity_trace.csv").read_text()
    assert csv_text.splitlines()[0] == "level,trace_real,trace_imag,deviation"


def test_cli_moduli_writes_reports(built_store, capsys):
    code = _run(
        "moduli", "--schedule", "log", "--out", str(built_store),
        "--m-samples", "8,32,1024", "--depth", "2",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "skipped" in out and "pass" in out and "FAIL" in out
    envelope = json.loads((built_store / "moduli" / "envelope.json").read_text())
    states = {row["m"]: row["passed"] for row in envelope["rows"]}
    assert states[8] is None and states[32] is True and states[1024] is False
    split = json.loads((built_store / "moduli" / "split.json").read_text())
    assert split["thresholds"][0]["exact"] == "250"


def test_cli_split_prints(capsys):
    code = _run("split", "--schedule", "power", "--alpha", "0.5", "--depth", "3")
    out = capsys.readouterr().out
    assert code == 0
    assert "2*5^3" in out
    assert "2*5^27670116110564327427" in out


@pytest.mark.parametrize(
    "args",
    [
        # the split exponent 6147 + 3*2^77214 has too many digits for str()
        ("split", "--schedule", "power", "--alpha", "0.85", "--depth", "3"),
        # the witness codimension at m = 2^64 has 32769 bits
        ("moduli", "--schedule", "power", "--alpha", "0.4", "--depth", "1"),
    ],
    ids=["split", "moduli"],
)
def test_an_exact_integer_too_long_to_print_takes_its_log2_form(tmp_path, capsys, args):
    assert _run(*args, "--out", str(tmp_path / "out")) == 0
    out = capsys.readouterr().out
    if args[0] == "split":
        assert "threshold 3 = 2*5^(~2^77215.6)" in out
        return
    rows = json.loads((tmp_path / "out/moduli/witness.json").read_text())["rows"]
    assert [r["codimension"] is None for r in rows] == [False, False, False, True]
    assert rows[2]["codimension"] == str(3 * (2 ** (rows[2]["head_level"] + 1) - 1))
    envelope = json.loads((tmp_path / "out/moduli/envelope.json").read_text())["rows"]
    assert envelope[3]["codimension_log2"] == pytest.approx(math.log2(3) + 32767, rel=1e-15)


_ALPHAS = st.integers(30, 99).map(lambda c: c / 100)


@settings(max_examples=50)
@given(alpha=_ALPHAS, depth=st.integers(1, 4))
def test_split_exits_with_a_code_for_every_power_schedule(alpha, depth):
    assert _run("split", "--schedule", "power", "--alpha", repr(alpha), "--depth", str(depth)) in (0, 1, 2, 3)


@settings(max_examples=50)
@given(alpha=_ALPHAS)
def test_moduli_exits_with_a_code_for_every_power_schedule(tmp_path_factory, alpha):
    out = tmp_path_factory.mktemp("moduli")
    args = ("moduli", "--depth", "1", "--schedule", "power", "--alpha", repr(alpha), "--out", str(out))
    assert _run(*args) in (0, 1, 2, 3)


def _no_null_config_value(out):
    config = out / "config.json"
    if config.exists():
        assert None not in json.loads(config.read_text()).values()
    witness = out / "moduli" / "witness.json"
    if witness.exists():
        rows = json.loads(witness.read_text())["rows"]
        assert None not in [row[k] for row in rows for k in ("m", "iso_constant")]


@settings(max_examples=25)
@given(m=st.integers(2, 2**14100))
def test_moduli_exits_with_a_code_for_every_m_sample(tmp_path_factory, m):
    out = tmp_path_factory.mktemp("m-sample")
    assert _run("moduli", "--depth", "1", "--m-samples", hex(m), "--out", str(out)) in (0, 1, 2, 3)
    _no_null_config_value(out)


@settings(max_examples=25)
@given(flag=st.sampled_from(["--tol", "--c1", "--c2"]),
       value=st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-9", "2", "1e154", "1e200", "1.7e308"]))
def test_build_exits_with_a_code_for_every_config_value(tmp_path_factory, flag, value):
    out = tmp_path_factory.mktemp("config-value")
    args = ("build", "--max-level", "1", "--budget", "4", "--sign-budget", "2", f"{flag}={value}")
    assert _run(*args, "--out", str(out)) in (0, 1, 2, 3)
    _no_null_config_value(out)


def test_moduli_refuses_an_m_sample_too_long_to_print(tmp_path, capsys):
    # 0x1 and 5000 zeros has 20001 bits; 2^14000 - 1 has the first refused length
    for sample in ("0x1" + "0" * 5000, hex(2**14000 - 1), f"16,{2**14000},64"):
        out = tmp_path / "long"
        assert _run("moduli", "--schedule", "log", "--depth", "1", "--m-samples", sample,
                    "--out", str(out)) == 2
        assert "14000 bits" in capsys.readouterr().err
        assert not out.exists()
    out = tmp_path / "longest"
    assert _run("moduli", "--schedule", "log", "--depth", "1", "--m-samples", hex(2**13999 - 1),
                "--out", str(out)) == 0
    rows = json.loads((out / "moduli/witness.json").read_text())["rows"]
    assert rows[0]["m"] == 2**13999 - 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--tol", "--c1", "--c2"])
def test_cli_refuses_a_non_finite_config_value(tmp_path, capsys, flag, value):
    for args in (("build", "--max-level", "2"), ("moduli", "--depth", "1")):
        out = tmp_path / args[0]
        assert _run(*args, "--schedule", "log", f"{flag}={value}", "--out", str(out)) == 2, args
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_cli_refuses_c1_and_c2_whose_iso_constant_overflows(tmp_path, capsys):
    # 2*sqrt(2)*c1*c2 is the witnesses' iso constant; past the largest
    # float it would be stored as null
    for c1, c2 in (("1e200", "1e200"), ("1.7e308", "1")):
        for args in (("build", "--max-level", "1"), ("moduli", "--depth", "1", "--m-samples", "32")):
            out = tmp_path / args[0]
            assert _run(*args, "--schedule", "log", "--c1", c1, "--c2", c2, "--out", str(out)) == 2
            assert "finite" in capsys.readouterr().err
            assert not out.exists()
    out = tmp_path / "large"
    assert _run("moduli", "--schedule", "log", "--depth", "1", "--m-samples", "32",
                "--c1", "1e154", "--c2", "1e153", "--out", str(out)) == 0
    rows = json.loads((out / "moduli/witness.json").read_text())["rows"]
    assert rows[0]["iso_constant"] == 2.0 * math.sqrt(2.0) * 1e154 * 1e153


def test_build_without_flags_stores_the_default_config(tmp_path, capsys):
    # RunConfig holds the defaults: a build given no flag stores exactly them
    out = tmp_path / "defaults"
    assert _run("build", "--out", str(out)) == 0
    text = (out / "config.json").read_text()
    assert text == canonical_json(cli.RunConfig(out=out).to_payload()) + "\n"
    assert json.loads(text) == {
        "schedule": {"kind": "power", "alpha": 0.5}, "max_level": 6, "seed": 7,
        "budget": 2048, "sign_budget": 64, "tol": 1e-9, "c1": 1.0, "c2": 1.0,
    }
    capsys.readouterr()
    # a type-2 or cotype constant below 1 is refused before anything is written
    for args in (("build", "--c1", "0.5"), ("moduli", "--c2", "0.5")):
        fresh = tmp_path / args[0]
        assert _run(*args, "--out", str(fresh)) == 2, args
        assert "c1 and c2 must be finite and >= 1" in capsys.readouterr().err
        assert not fresh.exists()


def test_moduli_finds_each_witness_once(tmp_path, monkeypatch):
    # the envelope judges the witnesses cmd_moduli found; it searches none
    calls, original = [], moduli.witness_point

    def counted(schedule, m, *rest):
        calls.append(m)
        return original(schedule, m, *rest)

    monkeypatch.setattr(cli, "witness_point", counted)
    monkeypatch.setattr(moduli, "witness_point", counted)
    samples = "8,32,1024,32"
    assert _run("moduli", "--schedule", "log", "--depth", "1", "--m-samples", samples,
                "--out", str(tmp_path / "m")) == 0
    assert calls == [8, 32, 1024, 32]


def test_cli_stored_defects_tiny_build(tmp_path):
    out = tmp_path / "tiny"
    assert _run(
        "build", "--max-level", "2", "--schedule", "power",
        "--budget", "16", "--sign-budget", "16", "--out", str(out),
    ) == 0
    stored = [
        json.loads((out / "levels" / f"level_{n:02d}.json").read_text())["split"]["discrepancy"]
        for n in range(3)
    ]
    assert stored[0] == pytest.approx(3.0, abs=1e-12)
    assert stored[1] == pytest.approx(3.0 * 3.0**0.5, abs=1e-9)
    assert stored[2] == pytest.approx(6.0, abs=1e-9)


def test_cli_json_schedule_spec(tmp_path, capsys):
    code = _run("split", "--schedule", '{"kind":"power","alpha":0.5}', "--depth", "2")
    assert code == 0
    assert "2*5^3" in capsys.readouterr().out
    # JSON that is no object, lacks a key or holds a non-number is a
    # configuration error, not a crash
    for spec in (
        '"log"', "[1]", "5", "null", '{"kind":"power"}', '{"kind":"power","alpha":"0.5"}',
        '{"kind":"explicit","p":5}', '{"kind":"explicit","p":["2.5"]}',
        # a key that is not the kind's own
        '{"kind":"log","alpha":0.3}', '{"kind":"power","alpha":0.5,"p":[3.0]}',
    ):
        capsys.readouterr()
        assert _run("build", "--schedule", spec, "--out", str(tmp_path / "s")) == 2, spec
        assert not (tmp_path / "s").exists()
        assert "Traceback" not in capsys.readouterr().err, spec


def test_cli_out_env_default(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("APLAB_OUT", str(target))
    assert _run(
        "build", "--max-level", "1", "--schedule", "log", "--budget", "8", "--sign-budget", "8"
    ) == 0
    assert (target / "config.json").exists()


def test_cli_out_flag_beats_the_env_default(tmp_path, monkeypatch):
    # the parser is built once per process, before the variable is set;
    # main reads APLAB_OUT when it runs, and only where --out is not given
    cli._build_parser()
    monkeypatch.setenv("APLAB_OUT", str(tmp_path / "from-env"))
    args = ("--max-level", "1", "--schedule", "log", "--budget", "8", "--sign-budget", "8")
    assert _run("build", *args, "--out", str(tmp_path / "from-flag")) == 0
    assert (tmp_path / "from-flag" / "config.json").exists()
    assert not (tmp_path / "from-env").exists()
    assert _run("build", *args) == 0
    assert (tmp_path / "from-env" / "config.json").exists()


def test_cli_bad_alpha_exits_2(tmp_path):
    assert _run("build", "--schedule", "power", "--alpha", "1.5", "--out", str(tmp_path)) == 2


def test_cli_missing_store_exits_3(tmp_path):
    for command in ("verify", "ap"):
        assert _run(command, "--schedule", "log", "--out", str(tmp_path / "f1" / "void")) == 3
        assert not (tmp_path / "f1").exists()


def test_each_error_class_exits_with_its_own_code(monkeypatch):
    # main tells errors apart by class alone, so a class that shares its
    # exit code with another is one no caller can tell apart
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.AplabError) and c is not errors.AplabError
    ]
    codes = []
    for cls in classes:
        def refuse(args, cls=cls):
            raise cls("refused")

        monkeypatch.setattr(cli, "_config_from_args", refuse)
        codes.append(main(["split"]))
    assert sorted(codes) == [1, 2, 3]


@pytest.mark.parametrize("command, message", [
    (("split", "--schedule", '{"kind":"explicit","p":[3.0,2.9]}', "--depth", "4"), "gap <= "),
    (
        ("moduli", "--schedule", '{"kind":"explicit","p":[3.0]}', "--m-samples", "1024", "--depth", "1"),
        "gap(n+1) below 1/log2(1024)",
    ),
])
def test_a_schedule_without_the_next_level_exits_2_and_writes_nothing(tmp_path, capsys, command, message):
    out = tmp_path / "out"
    assert _run(*command, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ap_refuses_a_rank_whose_rows_pass_the_byte_cap(tmp_path, capsys):
    out = tmp_path / "tiny"
    build = ("--max-level", "1", "--schedule", "log", "--budget", "8", "--sign-budget", "8")
    assert _run("build", *build, "--out", str(out)) == 0
    manifest = (out / "manifest.json").read_bytes()
    capsys.readouterr()
    assert _run("ap", "--out", str(out), "--rank", str(10**12)) == 2
    assert "rank 1000000000000 at level 1 needs rows above" in capsys.readouterr().err
    assert not (out / "ap").exists()
    assert (out / "manifest.json").read_bytes() == manifest


def test_cli_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
        assert _run("verify", "--schedule", "log", "--out", str(out)) == 0
        assert _run("ap", "--schedule", "log", "--out", str(out)) == 0
        assert _run(
            "moduli", "--schedule", "log", "--out", str(out), "--m-samples", "32,1024", "--depth", "2"
        ) == 0
    files1 = sorted(p for p in out1.rglob("*") if p.is_file())
    assert files1
    for path in files1:
        twin = out2 / path.relative_to(out1)
        assert twin.read_bytes() == path.read_bytes(), path.name


def test_cli_tamper_detection(tmp_path, capsys):
    # flip a level-3 sign: at level 2 some single flips are invisible to the
    # cross maxima (a character symmetry), at level 3 every flip drifts them
    out = tmp_path / "t"
    assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
    level_path = out / "levels" / "level_03.json"
    payload = json.loads(level_path.read_text())
    payload["signs"]["signs"][0] *= -1
    level_path.write_text(json.dumps(payload))

    code = _run("verify", "--schedule", "log", "--out", str(out))
    printed = capsys.readouterr().out
    assert code == 1
    rows = json.loads((out / "verify_report.json").read_text())["rows"]
    by_check = {}
    for row in rows:
        by_check.setdefault(row["check"], []).append(row)
    # the flip drifts the stored cross data (biorthogonality survives it:
    # test_a_sign_flip_keeps_biorthogonality)
    drifted = [r for r in by_check["sign-objective-drift"] if not r["passed"]]
    crossed = [r for r in by_check["cross-block-bound"] if not r["passed"]]
    assert drifted or crossed
    assert "FAIL" in printed


def test_cli_table_tamper_detection(tmp_path, capsys):
    # level files hold no character table: the cyclic formula is the table.
    # A table slipped into one (the old format, one exponent off) changes
    # its bytes, so the manifest catches it before any row reads it.
    out = tmp_path / "tt"
    assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
    level_path = out / "levels" / "level_01.json"
    payload = json.loads(level_path.read_text())
    assert "exponents" not in payload
    k = payload["order"]
    exponents = [[(c * g) % k for g in range(k)] for c in range(k)]
    exponents[2][3] = (exponents[2][3] + 1) % k
    payload["exponents"] = exponents
    level_path.write_text(canonical_json(payload))
    capsys.readouterr()

    assert _run("verify", "--schedule", "log", "--out", str(out)) == 1
    assert "levels/level_01.json" in capsys.readouterr().err
    rows = json.loads((out / "verify_report.json").read_text())["rows"]
    assert rows[0]["check"] == "manifest-integrity" and rows[0]["passed"] is False
    assert _run("ap", "--schedule", "log", "--out", str(out)) == 1
    assert "levels/level_01.json" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["config-budget", "level-reformat", "config-missing-key"])
def test_cli_verify_checks_manifest(tmp_path, capsys, tamper):
    out = tmp_path / tamper
    assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
    if tamper == "config-budget":
        target = out / "config.json"
        payload = json.loads(target.read_text())
        payload["budget"] += 1
    elif tamper == "config-missing-key":
        target = out / "config.json"
        payload = json.loads(target.read_text())
        del payload["tol"]
    else:  # same content, different bytes
        target = out / "levels" / "level_02.json"
        payload = json.loads(target.read_text())
    target.write_text(json.dumps(payload, indent=1))
    manifest = (out / "manifest.json").read_bytes()
    capsys.readouterr()

    for _ in range(2):  # a failed verify must not re-bless the tampered file
        assert _run("verify", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert target.relative_to(out).as_posix() in err
        assert (out / "manifest.json").read_bytes() == manifest
        if tamper == "config-missing-key":  # no config to verify against: no report
            assert "'tol'" in err and not (out / "verify_report.json").exists()
            continue
        first = json.loads((out / "verify_report.json").read_text())["rows"][0]
        assert first["check"] == "manifest-integrity"
        assert first["measured"] == 1.0 and first["passed"] is False


def test_cli_derived_commands_follow_stored_config(tmp_path, capsys):
    out = tmp_path / "cfg"
    assert _run(
        "build", "--schedule", "log", "--max-level", "2", "--seed", "3",
        "--budget", "64", "--sign-budget", "16", "--c1", "2", "--out", str(out),
    ) == 0
    assert _run("ap", "--out", str(out), "--operators", "1") == 0
    provenance = json.loads((out / "ap" / "obstruction.json").read_text())["provenance"]
    expected = {"seed": 3, "budget": 64, "sign_budget": 16, "schedule": {"kind": "log"}}
    assert provenance == expected
    assert _run("moduli", "--out", str(out), "--m-samples", "32", "--depth", "2") == 0
    witness = json.loads((out / "moduli" / "witness.json").read_text())
    assert witness["schedule"] == {"kind": "log"}
    assert witness["rows"][0]["iso_constant"] == pytest.approx(4.0 * 2.0**0.5)  # c1 = 2
    assert _run("verify", "--out", str(out), "--seed", "3", "--schedule", "log") == 0
    capsys.readouterr()

    for flag, value in [
        ("--seed", "4"), ("--budget", "2048"), ("--schedule", "power"), ("--tol", "1e-6"),
        ("--alpha", "0.3"),
    ]:
        assert _run("verify", "--out", str(out), flag, value) == 2
        assert flag in capsys.readouterr().err
    assert _run("ap", "--out", str(out), "--sign-budget", "64") == 2
    assert _run("moduli", "--out", str(out), "--schedule", "power") == 2
    assert "--schedule" in capsys.readouterr().err
    assert _run("moduli", "--out", str(out), "--c1", "1") == 2
    assert "--c1" in capsys.readouterr().err
    assert _run("ap", "--out", str(out), "--rank", "0") == 2


def test_cli_alpha_is_part_of_the_schedule_flag(tmp_path, capsys):
    out = tmp_path / "alpha"
    assert _run(
        "build", "--alpha", "0.3", "--max-level", "1", "--budget", "8", "--sign-budget", "8",
        "--out", str(out),
    ) == 0
    stored = json.loads((out / "config.json").read_text())["schedule"]
    assert stored == {"kind": "power", "alpha": 0.3}
    assert _run("verify", "--out", str(out), "--alpha", "0.3") == 0
    capsys.readouterr()
    for command, flags in [
        ("ap", ["--alpha", "0.9"]), ("moduli", ["--schedule", "power", "--alpha", "0.5"]),
    ]:
        assert _run(command, "--out", str(out), *flags) == 2
        assert "--alpha" in capsys.readouterr().err

    # only the power schedule has an exponent to set
    for schedule in ("log", '{"kind": "power", "alpha": 0.5}'):
        fresh = tmp_path / "refused"
        assert _run("build", "--schedule", schedule, "--alpha", "0.3", "--max-level", "2",
                    "--out", str(fresh)) == 2
        assert "--alpha" in capsys.readouterr().err
        assert not fresh.exists()


def test_cli_ap_and_moduli_check_manifest(tmp_path, capsys):
    # at level 2 this flip is invisible to every row but manifest-integrity
    out = tmp_path / "rebless"
    assert _run(
        "build", "--max-level", "2", "--schedule", "log",
        "--budget", "16", "--sign-budget", "8", "--out", str(out),
    ) == 0
    target = out / "levels" / "level_02.json"
    payload = json.loads(target.read_text())
    payload["signs"]["signs"][0] *= -1
    target.write_text(json.dumps(payload))
    manifest = (out / "manifest.json").read_bytes()
    capsys.readouterr()

    for command in ("ap", "moduli"):
        assert _run(command, "--out", str(out)) == 1
        assert "levels/level_02.json" in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == manifest
    for _ in range(2):
        assert _run("verify", "--out", str(out)) == 1
        assert "levels/level_02.json" in capsys.readouterr().err

    # without its manifest a build is refused, not blessed afresh
    (out / "manifest.json").unlink()
    for command in ("ap", "verify", "moduli"):
        assert _run(command, "--out", str(out)) == 3
        assert not (out / "manifest.json").exists()

    # a directory without a build has nothing to compare
    bare = tmp_path / "bare"
    assert _run("moduli", "--schedule", "log", "--out", str(bare), "--m-samples", "32") == 0
    assert (bare / "manifest.json").exists()


def _snapshot(out):
    return {
        path.relative_to(out).as_posix(): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_cli_build_refuses_a_used_out(tmp_path, capsys):
    # a second build would leave level 3 and ap/ of the first one blessed
    out = tmp_path / "used"
    first = ("--schedule", "log", "--budget", "16", "--sign-budget", "8", "--out", str(out))
    assert _run("build", "--max-level", "3", "--seed", "3", *first) == 0
    assert _run("ap", "--out", str(out), "--operators", "1") == 0
    before = _snapshot(out)
    capsys.readouterr()

    assert _run("build", "--max-level", "2", "--seed", "4", *first) == 2
    assert str(out / "manifest.json") in capsys.readouterr().err
    assert _snapshot(out) == before
    assert _run("verify", "--out", str(out)) == 0


@pytest.mark.parametrize("text", ["{not json", "[]", '{"files": []}'])
def test_cli_malformed_manifest_fails_the_check(tmp_path, capsys, text):
    out = tmp_path / "malformed"
    assert _run(
        "build", "--max-level", "1", "--schedule", "log",
        "--budget", "8", "--sign-budget", "8", "--out", str(out),
    ) == 0
    (out / "manifest.json").write_text(text)
    capsys.readouterr()
    for command in ("verify", "ap"):
        assert _run(command, "--out", str(out)) == 1
        assert "manifest.json" in capsys.readouterr().err
        assert (out / "manifest.json").read_text() == text


def test_cli_refuses_a_stored_split_or_sign_list_that_does_not_fit(tmp_path, capsys):
    # a re-hashed manifest hides each edit, so the level check must catch it;
    # level 4 holds a random-restart sign pattern (budgets 64 / 16)
    built = tmp_path / "built"
    assert _run("build", *BUILD_ARGS, "--max-level", "4", "--out", str(built)) == 0

    def repeat_anchor(payload):
        payload["split"]["anchors"][1] = payload["split"]["anchors"][0]
        return payload

    def drop_sign(payload):
        payload["signs"]["signs"].pop()
        return payload

    def double_sign(payload):
        payload["signs"]["signs"][0] = 2
        return payload

    def drop_signs_key(payload):
        del payload["signs"]
        return payload

    def draws(key, value):
        def tamper(payload):
            payload[key]["draws"] = value
            return payload
        return tamper

    def one_as(key, field, value, old=1):
        # the first stored 1 (or ``old``) in a sign or anchor list, given as another JSON value
        def tamper(payload):
            items = payload[key][field]
            items[items.index(old)] = value
            return payload
        return tamper

    def first_as(key, field, convert):
        # the first item of a stored list, converted to another JSON value
        def tamper(payload):
            payload[key][field][0] = convert(payload[key][field][0])
            return payload
        return tamper

    def header(key, value):
        def tamper(payload):
            payload[key] = value
            return payload
        return tamper

    def number_as(key, field, convert):
        # a stored number given as another JSON value that float() reads back
        def tamper(payload):
            payload[key][field] = convert(payload[key][field])
            return payload
        return tamper

    def flipped_signs_at_the_cap(payload):
        # a global flip keeps the objective but is none of the cap's draws
        payload["signs"]["signs"] = [-e for e in payload["signs"]["signs"]]
        return draws("signs", 16)(payload)

    tampers = (
        ("anchor", 2, repeat_anchor), ("sign", 3, drop_sign), ("value", 2, double_sign),
        ("no-signs", 3, drop_signs_key), ("list", 1, lambda payload: []),
        ("sign-draws", 3, draws("signs", 0)), ("split-draws", 2, draws("split", 1.5)),
        # exhaustive levels take every candidate: C(12, 4) splits, 2^8 patterns
        ("exhaustive-split", 2, draws("split", 494)), ("exhaustive-signs", 3, draws("signs", 1)),
        # random levels: at most the cap, and the kept candidate is the last draw
        ("split-past-cap", 3, draws("split", 1000000)), ("later-sign-draw", 4, draws("signs", 2)),
        ("signs-at-cap", 4, flipped_signs_at_the_cap),
        # JSON true is no count, though Python's True == 1 is draw 0 here
        ("split-draws-true", 4, draws("split", True)), ("sign-draws-true", 4, draws("signs", True)),
        # nor is true or 1.0 a sign or a character index, though each equals 1
        ("sign-true", 4, one_as("signs", "signs", True)),
        ("sign-float", 4, one_as("signs", "signs", 1.0)),
        ("anchor-true", 4, one_as("split", "anchors", True)),
        ("anchor-float", 4, one_as("split", "anchors", 1.0)),
        # each item's exact type is checked, on exhaustive levels as on random ones
        ("sign-true-exhaustive", 3, one_as("signs", "signs", True)),
        ("sign-two", 4, one_as("signs", "signs", 2)),
        ("sign-minus-float", 4, one_as("signs", "signs", -1.0, old=-1)),
        ("sign-str", 4, one_as("signs", "signs", "1")),
        ("sign-null", 4, one_as("signs", "signs", None)),
        ("sign-list", 4, one_as("signs", "signs", [1])),
        ("anchor-str", 4, first_as("split", "anchors", str)),
        ("anchor-null", 4, first_as("split", "anchors", lambda a: None)),
        ("carrier-float", 4, first_as("split", "carriers", float)),
        ("carrier-list", 4, first_as("split", "carriers", lambda c: [c])),
        ("anchor-float-exhaustive", 2, first_as("split", "anchors", float)),
        # the level and order a level file states must be the ones it is read as
        ("order", 2, header("order", 7)), ("level", 2, header("level", 99)),
        ("no-level", 2, lambda payload: {k: v for k, v in payload.items() if k != "level"}),
        # stored numbers are JSON numbers: no decimal string, and no false for 0.0
        ("discrepancy-str", 4, number_as("split", "discrepancy", repr)),
        ("objective-str", 4, number_as("signs", "objective", repr)),
        ("objective-false", 0, number_as("signs", "objective", bool)),
    )
    for name, level, tamper in tampers:
        out = tmp_path / name
        shutil.copytree(built, out)
        path = f"levels/level_{level:02d}.json"
        payload = tamper(json.loads((out / path).read_text()))
        store = ArtifactStore(out)
        store.write_json(path, payload)
        store.update_manifest()
        assert store.manifest_mismatches("") == []
        before = _snapshot(out)
        capsys.readouterr()
        for command in ("verify", "ap"):
            assert _run(command, "--out", str(out)) == 1, (name, command)
            err = capsys.readouterr().err
            assert path in err and "manifest" not in err, (name, command)
            assert _snapshot(out) == before, (name, command)

    # a search that took its whole cap may keep any of its draws: here draw 0
    assert json.loads((built / "levels/level_04.json").read_text())["signs"]["draws"] == 1
    _rehashed(built, "levels/level_04.json", draws("signs", 16))
    assert _run("verify", "--out", str(built)) == 0


def test_build_scores_each_pattern_once_and_verify_rescores_each_level(tmp_path, monkeypatch):
    # every pattern is scored through sign_objectives, in a batch on the
    # exhaustive levels and as the one-pattern case of sign_objective on the
    # random ones; scored counts the patterns, calls the one-pattern calls.
    # An exhaustive level scores the 2^(m-1) patterns that start with +1 (a
    # global flip keeps the score) and still counts all 2^m as draws
    scored, calls = [], []
    batch, score = discrepancy.sign_objectives, discrepancy.sign_objective

    def counted_batch(n, data, patterns):
        scored.extend([n] * len(patterns))
        return batch(n, data, patterns)

    def counted(n, data, signs):
        calls.append(n)
        return score(n, data, signs)

    monkeypatch.setattr(discrepancy, "sign_objectives", counted_batch)
    monkeypatch.setattr(discrepancy, "sign_objective", counted)
    monkeypatch.setattr(cli, "sign_objective", counted)
    out = tmp_path / "counted"
    assert _run("build", "--max-level", "6", "--schedule", "log", "--seed", "7", "--out", str(out)) == 0
    levels = [json.loads((out / f"levels/level_{n:02d}.json").read_text()) for n in range(7)]
    random = range(discrepancy.RANDOM_SIGN_LEVEL, 7)
    exhaustive = range(discrepancy.RANDOM_SIGN_LEVEL)
    assert [levels[n]["signs"]["draws"] for n in exhaustive] == [1 << (1 << n) for n in exhaustive]
    assert sorted(scored) == sorted(
        [n for n in exhaustive for _ in range(1 << ((1 << n) - 1))]
        + [n for n in random for _ in range(levels[n]["signs"]["draws"])]
    )
    assert sorted(calls) == sorted(n for n in random for _ in range(levels[n]["signs"]["draws"]))

    # verify reads each lower_m once: its rescoring and the compact family
    # share one pass of the sign kernel per level
    passes = []
    kernel = discrepancy.lower_rows

    def counted_pass(n, data, eps, rows):
        passes.append(n)
        return kernel(n, data, eps, rows)

    monkeypatch.setattr(discrepancy, "lower_rows", counted_pass)
    monkeypatch.setattr(obstruction, "lower_rows", counted_pass)
    scored.clear()
    calls.clear()
    assert _run("verify", "--out", str(out)) == 0
    assert sorted(passes) == list(range(1, 7))
    assert scored == calls == []


def test_verify_rescores_a_lowered_stored_objective(tmp_path, capsys):
    # the top objective is the upper maximum of cross row 2, where the lower
    # maximum dominates, so only the rescoring can see it lowered
    out = tmp_path / "lowered"
    assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
    _rehashed(out, "levels/level_03.json", lambda p: {
        **p, "signs": {**p["signs"], "objective": p["signs"]["objective"] / 2},
    })
    assert _run("verify", "--out", str(out)) == 1
    rows = json.loads((out / "verify_report.json").read_text())["rows"]
    assert [(r["check"], r["level"]) for r in rows if not r["passed"]] == [
        ("sign-objective-drift", 3)
    ]


def test_ap_fails_an_identity_trace_off_one_and_keeps_the_manifest(tmp_path, capsys, monkeypatch):
    # ap's "identity trace holds at 1" is a check against the stored tol: a
    # trace of 1 + 1e-6 at level 2 exits 1, names the level, certifies nothing
    out = tmp_path / "off"
    assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
    manifest = (out / "manifest.json").read_bytes()
    stage = obstruction.identity_stage

    def off_by_one_millionth(frame):
        traces, coordinates, residuals = stage(frame)
        return (*traces[:2], traces[2] + 1e-6, *traces[3:]), coordinates, residuals

    monkeypatch.setattr(obstruction, "identity_stage", off_by_one_millionth)
    capsys.readouterr()
    assert _run("ap", "--out", str(out)) == 1
    assert "level 2" in capsys.readouterr().err
    assert (out / "manifest.json").read_bytes() == manifest
    monkeypatch.setattr(obstruction, "identity_stage", stage)
    assert _run("ap", "--out", str(out)) == 0
    assert (out / "manifest.json").read_bytes() != manifest  # now it lists ap/


def _rehashed(out, relpath, edit):
    """Apply ``edit`` to a stored JSON file and re-hash the manifest over it."""
    store = ArtifactStore(out)
    payload = edit(json.loads((out / relpath).read_text()))
    store.write_json(relpath, payload)
    store.update_manifest()
    assert store.manifest_mismatches("") == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("tol", "x"), ("tol", 0), ("budget", 2.5), ("c1", None), ("max_level", 0),
        ("schedule", "log"), ("schedule", None), ("seed", True), ("tol", True),
        ("schedule", {"kind": "power", "alpha": "0.5"}), ("seed", -1),
    ],
)
def test_cli_refuses_a_stored_config_value_of_wrong_type_or_domain(tmp_path, capsys, key, value):
    out = tmp_path / "cfg"
    assert _run(
        "build", "--max-level", "2", "--schedule", "log",
        "--budget", "8", "--sign-budget", "8", "--out", str(out),
    ) == 0
    _rehashed(out, "config.json", lambda payload: {**payload, key: value})
    capsys.readouterr()
    for command in ("verify", "ap"):
        assert _run(command, "--out", str(out)) == 1, command
        err = capsys.readouterr().err
        assert "config.json" in err and "Traceback" not in err, command
    assert _run("build", "--max-level", "2", "--tol", "0", "--out", str(tmp_path / "b")) == 2


def test_verify_fails_a_constants_file_without_a_level_split_row(tmp_path, capsys):
    # as a missing cross row does: no stored row at level 3, no passing bound there
    out = tmp_path / "no-split-row"
    assert _run("build", "--max-level", "5", "--schedule", "log", "--out", str(out)) == 0
    _rehashed(out, "constants.json", lambda payload: {
        **payload, "split_rows": [r for r in payload["split_rows"] if r["level"] != 3],
    })
    assert _run("verify", "--out", str(out)) == 1
    rows = json.loads((out / "verify_report.json").read_text())["rows"]
    assert [(r["check"], r["level"]) for r in rows if not r["passed"]] == [
        ("balance-discrepancy-bound", 3)
    ]
    assert "balance-discrepancy-bound at level 3" in capsys.readouterr().err


def test_a_stored_level_is_checked_once_where_it_is_loaded(tmp_path, monkeypatch):
    # a split is checked when it is made; the kernels that read it check nothing
    checks = []
    check = discrepancy.CharacterSplit.__post_init__

    def counted(split):
        checks.append(split.level)
        check(split)

    monkeypatch.setattr(discrepancy.CharacterSplit, "__post_init__", counted)
    out = tmp_path / "L9"
    assert _run("build", "--max-level", "9", "--schedule", "log", "--out", str(out)) == 0
    assert checks == list(range(10))  # the search's split, made once with its discrepancy
    for command in ("verify", "ap"):
        checks.clear()
        assert _run(command, "--out", str(out)) == 0, command
        assert checks == list(range(10)), command  # load_data, once per level
    # nor do the kernels check a level again: one that slipped past its
    # check (a repeated anchor) goes through them unrefused
    config = cli._config_from_args(cli._build_parser().parse_args(["verify", "--out", str(out)]))
    data = cli.load_data(ArtifactStore(out), config)
    item = data.require(9)
    with monkeypatch.context() as unchecked:
        unchecked.setattr(discrepancy.CharacterSplit, "__post_init__", lambda split: None)
        anchors = (item.split.anchors[0],) * 2 + item.split.anchors[2:]
        data.put(replace(item, split=replace(item.split, anchors=anchors)))
    checks.clear()
    discrepancy.certify_constants(range(10), data)
    obstruction.telescope_norms(data, config.schedule, 9)
    discrepancy.balance_values(item.table, data.require(9).split)
    assert checks == []


def _first_row_as(rows, field, convert):
    def edit(payload):
        payload[rows][0][field] = convert(payload[rows][0][field])
        return payload
    return edit


@pytest.mark.parametrize(
    "edit, entry",
    [
        *(
            pytest.param(lambda payload, key=key: {k: v for k, v in payload.items() if k != key}, key, id=key)
            for key in ("cross_constant", "split_rows", "cross_rows")
        ),
        # an entry that float() or int() reads back, but that is no JSON number
        pytest.param(
            lambda payload: {**payload, "cross_constant": repr(payload["cross_constant"])},
            "cross_constant",
            id="cross_constant-str",
        ),
        pytest.param(_first_row_as("split_rows", "scale", repr), "split_rows[0].scale", id="scale-str"),
        pytest.param(
            _first_row_as("split_rows", "recomputed", repr), "split_rows[0].recomputed", id="recomputed-str"
        ),
        pytest.param(_first_row_as("cross_rows", "overall", repr), "cross_rows[0].overall", id="overall-str"),
        pytest.param(_first_row_as("split_rows", "level", float), "split_rows[0].level", id="split-level-float"),
        pytest.param(_first_row_as("cross_rows", "level", bool), "cross_rows[0].level", id="cross-level-true"),
        # entries no command reads are checked as well
        pytest.param(lambda payload: {**payload, "split_constant": "x"}, "split_constant", id="split_constant-str"),
        pytest.param(
            _first_row_as("cross_rows", "max_lower", lambda v: "x"), "cross_rows[0].max_lower", id="max_lower-str"
        ),
        pytest.param(_first_row_as("split_rows", "ratio", lambda v: True), "split_rows[0].ratio", id="ratio-true"),
    ],
)
def test_cli_refuses_a_constants_file_without_an_entry(tmp_path, capsys, edit, entry):
    out = tmp_path / "constants"
    assert _run(
        "build", "--max-level", "2", "--schedule", "log",
        "--budget", "8", "--sign-budget", "8", "--out", str(out),
    ) == 0
    _rehashed(out, "constants.json", edit)
    capsys.readouterr()
    for command in ("verify", "ap"):
        assert _run(command, "--out", str(out)) == 1, command
        err = capsys.readouterr().err
        assert "constants.json" in err and entry in err, (command, err)


# sha256 of every file a BUILD_ARGS run of build/verify/ap/moduli writes
GOLDEN_SHA256 = {
    "ap/compact_family.csv": "24d024672a356a319f84e93765851c039d99669f2d5b9a04a8a779d12392495c",
    "ap/finite_rank.csv": "2dab412454a7e3f4190239f4c6e04d1f7f02a544504da0c3cbe61b82322a02da",
    "ap/identity_trace.csv": "20396dfc573b508fd2e3fa5211d04acbb67f47c720f2126795be8e9eb21a6092",
    "ap/obstruction.json": "1fa193a4c69a46bfaf1257ced72a57cbe51dfadbdc68eb8b1d1d852adf9b31ca",
    "config.json": "06f5511f78b42f869929e02990ddbaf25442fdfeb5ab4acbf478473fccb6e5b4",
    "constants.json": "aa5a35b0af9377998793e3ebe447481f4c962bad0d27176eeb74adf3b07513fc",
    "levels/level_00.json": "c0f6a657ee3ec73f3fa36ec51731c48e10c52b0435f5d9b299044a8fc9f68e5b",
    "levels/level_01.json": "aaab13f1fbb2ba17e8f213169ac3577d9cb08bee11d94cc7d48c229f77935952",
    "levels/level_02.json": "3f7f0e6c14cb8c85c2043827289ef1c7c104ffb5730176f90d2b87dd5b1e6c90",
    "levels/level_03.json": "bf1b21efcf7a9d74570e035d8f6e34332b1e074c48820f8b4621a1e1cb8c8ee4",
    "manifest.json": "a0b3dc229efdac16950a9bd32730d248ea0998837074376d9be71bcef840b17f",
    "moduli/envelope.json": "5177e769440daa1954a92043fe60ab2019ec6961ccfc4fb6ff2913361b0d4660",
    "moduli/split.csv": "9e16f25507d1bcdff3b6e747593e33ae5deffc94ca59ca766341b99fc8a560c0",
    "moduli/split.json": "248a8981596b60173faed3dce65fb1796013d0860d3056c3da18321a7336a417",
    "moduli/witness.csv": "56964e2227cca3631b37952561b678d3632ec1e543cf0fddd0092d0648bd04a0",
    "moduli/witness.json": "8109acc2a73535457367e590782417037d3158a31975e00b24ff066d84080195",
    "verify_report.json": "63656a597bb124d8792b5450070d05206ea220d1316e1b54111fb0f98584ad52",
}


POWER_ARGS = (
    "--max-level", "4", "--schedule", "power",
    "--budget", "128", "--sign-budget", "16", "--seed", "3",
)

# the same for a POWER_ARGS run, which takes verify's power-only branches
GOLDEN_POWER_SHA256 = {
    "ap/compact_family.csv": "6960988c5d773970b7d46385ebb3efa96c05496006ffcbf5fe6215f028ad8524",
    "ap/finite_rank.csv": "df558262839048651639ba1d213aff30a21e0e200b5a4a391736741fe443f558",
    "ap/identity_trace.csv": "302510cd24d40c5b9a876a0402959bee192077c6fe0e8b1c3cdab5f92d61a1f1",
    "ap/obstruction.json": "e15e6f6a47ad1defce3dde91beb56ec032201d23a2c66015c7b00ff597ccf630",
    "config.json": "4f0a17047962cedda7e42d0c5ce123dbcd1e87b7c251f59d0c11eac283c9c8af",
    "constants.json": "7bca43adc23ef4ecb3958f185591f5a8ccf07a36a72933ad929fdb63c2b090d3",
    "levels/level_00.json": "c0f6a657ee3ec73f3fa36ec51731c48e10c52b0435f5d9b299044a8fc9f68e5b",
    "levels/level_01.json": "aaab13f1fbb2ba17e8f213169ac3577d9cb08bee11d94cc7d48c229f77935952",
    "levels/level_02.json": "3f7f0e6c14cb8c85c2043827289ef1c7c104ffb5730176f90d2b87dd5b1e6c90",
    "levels/level_03.json": "bc950975ea4fdfdb468ff0bb5c0fb7ea90f9a32ba36cdfda929db63867badb17",
    "levels/level_04.json": "b40c04287fec51456eeec7cf0b0bb099f1303f9ce524723a4f3894538f794879",
    "manifest.json": "99bb0baedbb86517605489e308da534634ab23fe1391b8109791aa0926d51eee",
    "moduli/envelope.json": "6342e3ac215e2603789d97650b0a5df92d08d5d32e30865736f06e7df7accacf",
    "moduli/split.csv": "0d13bf923590ee862e7cc36d166d7495299ec46f2c83a4067ff5c271cf2766a3",
    "moduli/split.json": "88b5c141a844b953408e79eb1fe1ed56e183e2d595cbe3f9162740b46eed7ff2",
    "moduli/witness.csv": "1c72ec144ff235d1827c9cc802b9aefecc920473875ad29179f8a713d6cf8654",
    "moduli/witness.json": "e21ec145dd575433534ef40f695714f8bae18cd329919a89f353f14a69040ae9",
    "verify_report.json": "ea5d5b8e0f53b63d261e270428b5c588f0d10830e4a396345daa0f3b756306a6",
}

GOLDEN = {
    "log": (BUILD_ARGS, ("--m-samples", "32,1024,1048576", "--depth", "2"), GOLDEN_SHA256),
    "power": (POWER_ARGS, ("--m-samples", "32,1024", "--depth", "2"), GOLDEN_POWER_SHA256),
}


@pytest.mark.parametrize("schedule", sorted(GOLDEN))
def test_golden_artifacts(tmp_path, schedule):
    """Every artifact keeps its bytes.

    Recorded under numpy 2.4.6 with scipy-openblas (OpenBLAS 0.3.31,
    DYNAMIC_ARCH, Haswell kernels); the hashes are the same with 1, 2 and 4
    BLAS threads.  Before verify gained its manifest-integrity row, the CLI
    wrote the same bytes for every file except verify_report.json and
    manifest.json.
    """
    args, moduli_args, golden = GOLDEN[schedule]
    out = tmp_path / "golden"
    for command in ("build", "verify", "ap"):
        assert _run(command, *args, "--out", str(out)) == 0
    assert _run("moduli", *args, "--out", str(out), *moduli_args) == 0
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert digests == golden


def test_tracer_targets_resolve():
    """perfbench/tracer.py wraps each target in its owner's namespace, so a
    renamed function or a dropped import in aplab breaks ``--trace 1``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, _ in tracer._TARGETS:
        assert attr in tracer._resolve(owner).__dict__, f"{owner}.{attr}"


def test_every_import_in_src_is_used():
    """A module-level import that its module never reads is dead weight.

    A name counts as used when it appears in the code or in a string
    annotation, or when ``aplab/__init__.py`` lists it in ``__all__``.
    Exempt are the ``(aplab.<module>, name)`` pairs perfbench's tracer wraps
    by name (``_TARGETS``), which stay imported where it looks them up.
    """
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    exempt = {(owner, attr) for owner, attr, _ in tracer._TARGETS}
    unused = []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= {n.id for n in ast.walk(ast.parse(annotation.value)) if isinstance(n, ast.Name)}
        if path.name == "__init__.py":
            used |= set(sys.modules["aplab"].__all__)
        module = "aplab" if path.name == "__init__.py" else f"aplab.{path.stem}"
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (module, name) not in exempt:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_function_in_src_is_reached_by_a_command(tmp_path):
    """What only tests call belongs in ``tests/oracles.py``, not in ``src/aplab``.

    build, verify, ap, moduli and split run in process at level 4 on the log,
    power and an explicit schedule under ``sys.setprofile``.  Every function
    that ``src/aplab`` defines, read from its AST by file and first line
    (decorators included, as a code object's ``co_firstlineno``), must be
    called.  Exempt are the attributes perfbench's tracer wraps by name
    (``_TARGETS``), which must stay where it looks them up until the stages
    report their own timings, and ``middle_block`` and ``telescope_image``,
    which only those targets call.
    """
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    exempt = [tracer._resolve(owner).__dict__[attr] for owner, attr, _ in tracer._TARGETS]
    exempt += [discrepancy.middle_block, obstruction.BasisFrame.telescope_image]
    reached = {(Path(f.__code__.co_filename).resolve(), f.__code__.co_firstlineno) for f in exempt}
    defined = {}
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                defined[path, first] = f"{path.name}:{first} {node.name}"

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # the explicit list reaches a second split index but not a third
    schedules = {"log": 3, "power": 3, '{"kind":"explicit","p":[3.0,2.9,2.8,2.7,2.6,2.5]}': 2}
    codes = []
    cli._build_parser.cache_clear()  # built once per process: here, by the first command below
    sys.setprofile(profile)
    try:
        for i, (schedule, depth) in enumerate(schedules.items()):
            args = (
                "--schedule", schedule, "--max-level", "4",
                "--budget", "64", "--sign-budget", "16", "--out", str(tmp_path / str(i)),
            )
            codes += [_run(command, *args) for command in ("build", "verify", "ap")]
            codes.append(_run("moduli", *args, "--m-samples", "32,1024", "--depth", "2"))
            codes.append(_run("split", "--schedule", schedule, "--depth", str(depth)))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes)
    reached |= {(Path(name).resolve(), line) for name, line in called}
    assert sorted(name for key, name in defined.items() if key not in reached) == []


def test_traced_commands_report_every_layer_metric_and_write_the_same_store(tmp_path):
    """``--trace 1`` runs the commands under perfbench's tracer, whose notes
    read the wrapped calls' arguments; the untraced worker adds
    ``trace.overhead_s`` itself."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    args = (*BUILD_ARGS, "--max-level", "4")
    moduli_args = ("--m-samples", "32,1024", "--depth", "2")

    def run_all(out):
        for command in ("build", "verify", "ap"):
            assert _run(command, *args, "--out", str(out)) == 0, command
        assert _run("moduli", *args, *moduli_args, "--out", str(out)) == 0

    tracer = tracer_module.Tracer(4)
    tracer.run = "traced"
    tracer.install()
    try:
        run_all(tmp_path / "traced")
    finally:
        tracer.uninstall()
    run_all(tmp_path / "plain")
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared} - {"trace.overhead_s"}
    metrics = tracer.metrics("traced")
    assert expected <= set(metrics)
    assert all(metrics[f"cli.self_s.{c}"] > 0 for c in ("build", "verify", "ap", "moduli"))
    manifests = [(tmp_path / name / "manifest.json").read_bytes() for name in ("traced", "plain")]
    assert manifests[0] == manifests[1]


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    """Under the project's ``filterwarnings = error``, a failing ``@given``
    test makes hypothesis import libcst, whose import warns; the run must
    still report the failure and go on to the next test."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
