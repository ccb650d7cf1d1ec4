import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from aplab.cli import main
from aplab.errors import MissingArtifact
from aplab.store import ArtifactStore, canonical_json


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1.5, "a": [1, 2], "c": {"y": 0.1, "x": True}})
    b = canonical_json({"c": {"x": True, "y": 0.1}, "a": [1, 2], "b": 1.5})
    assert a == b
    assert a == '{"a":[1,2],"b":1.5,"c":{"x":true,"y":0.1}}'


def test_store_roundtrip_and_manifest(tmp_path):
    store = ArtifactStore(tmp_path)
    store.write_json("x/data.json", {"value": 0.25})
    store.write_csv("x/table.csv", ["a", "b"], [[1, 2.5], [3, "z"]])
    assert store.read_json("x/data.json") == {"value": 0.25}
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


def test_cli_json_schedule_spec(capsys):
    code = _run("split", "--schedule", '{"kind":"power","alpha":0.5}', "--depth", "2")
    assert code == 0
    assert "2*5^3" in capsys.readouterr().out


def test_cli_out_env_default(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("APLAB_OUT", str(target))
    assert _run(
        "build", "--max-level", "1", "--schedule", "log", "--budget", "8", "--sign-budget", "8"
    ) == 0
    assert (target / "config.json").exists()


def test_cli_bad_alpha_exits_2(tmp_path):
    assert _run("build", "--schedule", "power", "--alpha", "1.5", "--out", str(tmp_path)) == 2


def test_cli_missing_store_exits_3(tmp_path):
    assert _run("verify", "--schedule", "log", "--out", str(tmp_path / "void")) == 3


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
    # the flip leaves biorthogonality intact but drifts the stored cross data
    assert all(r["passed"] for r in by_check["biorthogonality"])
    drifted = [r for r in by_check["sign-objective-drift"] if not r["passed"]]
    crossed = [r for r in by_check["cross-block-bound"] if not r["passed"]]
    assert drifted or crossed
    assert "FAIL" in printed


def test_cli_table_tamper_detection(tmp_path):
    out = tmp_path / "tt"
    assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
    level_path = out / "levels" / "level_01.json"
    payload = json.loads(level_path.read_text())
    payload["exponents"][2][3] = (payload["exponents"][2][3] + 1) % payload["order"]
    level_path.write_text(json.dumps(payload))

    assert _run("verify", "--schedule", "log", "--out", str(out)) == 1
    rows = json.loads((out / "verify_report.json").read_text())["rows"]
    integrity = [r for r in rows if r["check"] == "character-table-integrity"]
    assert any(not r["passed"] for r in integrity)


@pytest.mark.parametrize("tamper", ["config-budget", "level-reformat"])
def test_cli_verify_checks_manifest(tmp_path, capsys, tamper):
    out = tmp_path / tamper
    assert _run("build", *BUILD_ARGS, "--out", str(out)) == 0
    if tamper == "config-budget":
        target = out / "config.json"
        payload = json.loads(target.read_text())
        payload["budget"] += 1
    else:  # same content, different bytes
        target = out / "levels" / "level_02.json"
        payload = json.loads(target.read_text())
    target.write_text(json.dumps(payload, indent=1))
    capsys.readouterr()

    for _ in range(2):  # a failed verify must not re-bless the tampered file
        assert _run("verify", "--out", str(out)) == 1
        assert target.relative_to(out).as_posix() in capsys.readouterr().err
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

    for flag, value in [("--seed", "4"), ("--budget", "2048"), ("--schedule", "power"), ("--tol", "1e-6")]:
        assert _run("verify", "--out", str(out), flag, value) == 2
        assert flag in capsys.readouterr().err
    assert _run("ap", "--out", str(out), "--sign-budget", "64") == 2
    assert _run("moduli", "--out", str(out), "--schedule", "power") == 2
    assert "--schedule" in capsys.readouterr().err
    assert _run("moduli", "--out", str(out), "--c1", "1") == 2
    assert "--c1" in capsys.readouterr().err


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

    # a directory without a manifest has nothing to compare
    bare = tmp_path / "bare"
    assert _run("moduli", "--schedule", "log", "--out", str(bare), "--m-samples", "32") == 0
    assert (bare / "manifest.json").exists()


# sha256 of every file a BUILD_ARGS run of build/verify/ap/moduli writes
GOLDEN_SHA256 = {
    "ap/compact_family.csv": "8e44754ceea9e24e5f93b501296edd08dddc30f0ed4219b7bedfba4b634007a2",
    "ap/finite_rank.csv": "2dab412454a7e3f4190239f4c6e04d1f7f02a544504da0c3cbe61b82322a02da",
    "ap/identity_trace.csv": "e9f8d42b92721d990037fd9d83e82f0a62da88faee27a12cb040495319397337",
    "ap/obstruction.json": "a505f023f3edf7cec8d26b9c72689f9d92c452ce0c3ff53a81d46fe9eb153739",
    "config.json": "06f5511f78b42f869929e02990ddbaf25442fdfeb5ab4acbf478473fccb6e5b4",
    "constants.json": "4de763ea5edb7236f16ef9e1fc90ed16913d2a5a45c05c64173f5c639cedc683",
    "levels/level_00.json": "f5aef6945eb9f217cb826d34463a2962bcd5667df1bdecdfddc7e57d2fcc2ef2",
    "levels/level_01.json": "93a16bff346c64cdba12eb86529281fa5cd85f4be1682f65e8df809c80d37ad8",
    "levels/level_02.json": "6a37d7b36c8cdb9d90d1ad2ee3f357e34efaffd3823dfbbf9d7288b74f8d82fe",
    "levels/level_03.json": "8d67e74c1bbea0aa2c6904cc95217463edf1b0df5402bb51af44542bd7087036",
    "manifest.json": "5a3eda354991f6de5867f1a636dae0b08a6b1b872db58f4329c73bd95c951efc",
    "moduli/envelope.json": "5177e769440daa1954a92043fe60ab2019ec6961ccfc4fb6ff2913361b0d4660",
    "moduli/split.csv": "9e16f25507d1bcdff3b6e747593e33ae5deffc94ca59ca766341b99fc8a560c0",
    "moduli/split.json": "248a8981596b60173faed3dce65fb1796013d0860d3056c3da18321a7336a417",
    "moduli/witness.csv": "56964e2227cca3631b37952561b678d3632ec1e543cf0fddd0092d0648bd04a0",
    "moduli/witness.json": "8109acc2a73535457367e590782417037d3158a31975e00b24ff066d84080195",
    "verify_report.json": "14dd257162d7523eaa02a42d4e544250b1ed59425d5f62f5221742931864197b",
}


def test_golden_artifacts(tmp_path):
    """Every artifact keeps its bytes.

    Recorded under numpy 2.4.6 with scipy-openblas (OpenBLAS 0.3.31,
    DYNAMIC_ARCH, Haswell kernels); the hashes are the same with 1, 2 and 4
    BLAS threads.  Before verify gained its manifest-integrity row, the CLI
    wrote the same bytes for every file except verify_report.json and
    manifest.json.
    """
    out = tmp_path / "golden"
    for command in ("build", "verify", "ap"):
        assert _run(command, *BUILD_ARGS, "--out", str(out)) == 0
    assert _run(
        "moduli", *BUILD_ARGS, "--out", str(out),
        "--m-samples", "32,1024,1048576", "--depth", "2",
    ) == 0
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert digests == GOLDEN_SHA256


def test_tracer_targets_resolve():
    """perfbench/tracer.py wraps each target in its owner's namespace, so a
    renamed function or a dropped import in aplab breaks ``--trace 1``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, _ in tracer._TARGETS:
        assert attr in tracer._resolve(owner).__dict__, f"{owner}.{attr}"
