"""End-to-end runs of every CLI mode on tiny synthetic inputs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from mmvfl.cli import emit_curves, main, read_message_trace, version_string
from mmvfl.evaluation import ExperimentResult, write_results_csv

TINY_SYNTH = {
    "synth_participants": 2,
    "synth_classes": 3,
    "synth_samples": 30,
    "synth_dims": [4, 5],
    "synth_informative": 2,
    "synth_noise": 0.5,
    "outer_max": 15,
}


def write_config(tmp_path, name="config.json", **extra):
    payload = dict(TINY_SYNTH)
    payload.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_bytes(directory, name):
    with open(os.path.join(directory, name), "rb") as handle:
        return handle.read()


def test_reference_mode_writes_expected_files(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "ref")
    assert main(["--mode", "reference", "--config", config,
                 "--out", out, "--beta", "0.05", "--seed", "7"]) == 0
    names = sorted(os.listdir(out))
    assert names == ["consensus.csv", "objective_trace.csv", "run_manifest.json",
                     "transform_1.csv", "transform_2.csv"]
    trace = read_bytes(out, "objective_trace.csv").decode()
    assert trace.startswith("round,objective\n1,")
    assert capsys.readouterr().out.strip() == f"wrote 5 files to {out}"


def test_federated_modes_match_reference_byte_for_byte(tmp_path):
    config = write_config(tmp_path)
    outs = {}
    for mode in ("reference", "federated-inproc", "federated-tcp"):
        out = str(tmp_path / mode)
        assert main(["--mode", mode, "--config", config, "--out", out,
                     "--beta", "0.05", "--seed", "7"]) == 0
        outs[mode] = out
    for name in ("transform_1.csv", "transform_2.csv", "consensus.csv",
                 "objective_trace.csv"):
        reference = read_bytes(outs["reference"], name)
        assert read_bytes(outs["federated-inproc"], name) == reference
        assert read_bytes(outs["federated-tcp"], name) == reference
    for mode in ("federated-inproc", "federated-tcp"):
        records = read_message_trace(os.path.join(outs[mode], "message_trace.jsonl"))
        assert records and records[0].kind == "Register"


def test_baseline_modes_write_their_layouts(tmp_path):
    config = write_config(tmp_path)
    solo = str(tmp_path / "solo")
    assert main(["--mode", "supfl", "--config", config, "--out", solo]) == 0
    assert sorted(os.listdir(solo)) == [
        "objective_trace_1.csv", "objective_trace_2.csv", "run_manifest.json",
        "transform_1.csv", "transform_2.csv"]
    joint = str(tmp_path / "joint")
    assert main(["--mode", "supmvlfl", "--config", config, "--out", joint]) == 0
    assert sorted(os.listdir(joint)) == [
        "objective_trace.csv", "run_manifest.json",
        "transform_1.csv", "transform_2.csv"]


def test_manifest_reproduces_a_training_run(tmp_path):
    config = write_config(tmp_path)
    first = str(tmp_path / "first")
    assert main(["--mode", "federated-inproc", "--config", config,
                 "--out", first, "--seed", "3"]) == 0
    second = str(tmp_path / "second")
    manifest = os.path.join(first, "run_manifest.json")
    with open(manifest, encoding="utf-8") as handle:
        numerics = json.load(handle)["numerics"]
    assert set(numerics) == {"numpy", "scipy", "openblas"}
    for entry in numerics["openblas"]:
        assert set(entry) == {"library", "config", "threads"}
        assert entry["threads"] == 1
    assert main(["--config", manifest, "--out", second]) == 0
    for name in ("transform_1.csv", "transform_2.csv", "consensus.csv",
                 "objective_trace.csv", "message_trace.jsonl"):
        assert read_bytes(second, name) == read_bytes(first, name), name


def test_sweep_mode_row_count_curves_and_tables(tmp_path):
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["--mode", "sweep", "--config", config, "--out", out,
                 "--beta-grid", "0.01,0.1", "--p-grid", "50,100",
                 "--folds", "3", "--seed", "1"]) == 0
    with open(os.path.join(out, "results.csv")) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "method,participant,p,fold,beta,accuracy"
    # methods x folds x betas x participants x p
    assert len(lines) - 1 == 3 * 3 * 2 * 2 * 2
    for k in (1, 2):
        with open(os.path.join(out, f"curves_participant_{k}.csv")) as handle:
            header, *rows = handle.read().splitlines()
        assert header == "p,mmvfl,supfl,supmvlfl"
        assert len(rows) == 2
    for name in ("diff_supfl.csv", "diff_supmvlfl.csv"):
        with open(os.path.join(out, name)) as handle:
            header, cells = handle.read().splitlines()
        assert header == "participant_1,participant_2,average"
        assert len(cells.split(",")) == 3


def test_manifest_reproduces_a_sweep(tmp_path):
    config = write_config(tmp_path)
    first = str(tmp_path / "s1")
    assert main(["--mode", "sweep", "--config", config, "--out", first,
                 "--beta-grid", "0.1", "--p-grid", "100", "--folds", "3",
                 "--methods", "supfl,supmvlfl"]) == 0
    second = str(tmp_path / "s2")
    assert main(["--config", os.path.join(first, "run_manifest.json"),
                 "--out", second]) == 0
    assert read_bytes(second, "results.csv") == read_bytes(first, "results.csv")


def test_emit_curves_flags_missing_methods(tmp_path, capsys):
    rows = []
    for participant in range(5):
        for p in (20.0, 60.0):
            for fold in range(2):
                rows.append(ExperimentResult(
                    method="supfl", participant=participant, p=p,
                    fold=fold, beta=0.1, accuracy=0.75))
    results_path = str(tmp_path / "results.csv")
    write_results_csv(rows, results_path)
    written = emit_curves(results_path, str(tmp_path))
    errors = capsys.readouterr().err
    assert "missing method 'mmvfl'" in errors
    assert "missing method 'supmvlfl'" in errors
    assert written == [f"curves_participant_{k}.csv" for k in range(1, 6)]
    with open(tmp_path / "curves_participant_3.csv") as handle:
        assert handle.read() == "p,supfl\n20,0.75\n60,0.75\n"


def test_sweep_with_a_method_subset_warns_only_for_requested_methods(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["--mode", "sweep", "--config", config, "--out", str(tmp_path / "s"),
                 "--beta-grid", "0.1", "--p-grid", "100", "--folds", "3",
                 "--methods", "supfl,supmvlfl"]) == 0
    assert "missing method" not in capsys.readouterr().err


def test_synth_mode_then_training_on_its_files(tmp_path):
    config = write_config(tmp_path)
    data_dir = str(tmp_path / "data")
    assert main(["--mode", "synth", "--config", config, "--out", data_dir,
                 "--seed", "5"]) == 0
    names = sorted(os.listdir(data_dir))
    assert names == ["informative.json", "labels.csv", "run_manifest.json",
                     "view_1.csv", "view_2.csv"]
    with open(os.path.join(data_dir, "informative.json")) as handle:
        informative = json.load(handle)
    assert set(informative) == {"view_1", "view_2"}
    assert all(len(cols) == 2 for cols in informative.values())
    run_dir = str(tmp_path / "trained")
    assert main(["--mode", "reference",
                 "--views", ",".join(os.path.join(data_dir, v)
                                     for v in ("view_1.csv", "view_2.csv")),
                 "--labels", os.path.join(data_dir, "labels.csv"),
                 "--out", run_dir, "--beta", "0.1"]) == 0
    assert os.path.isfile(os.path.join(run_dir, "consensus.csv"))


def test_audit_mode_accepts_a_clean_trace(tmp_path, capsys):
    config = write_config(tmp_path)
    run_dir = str(tmp_path / "fed")
    assert main(["--mode", "federated-inproc", "--config", config,
                 "--out", run_dir]) == 0
    capsys.readouterr()
    audit_dir = str(tmp_path / "audit")
    code = main(["--mode", "audit",
                 "--trace", os.path.join(run_dir, "message_trace.jsonl"),
                 "--out", audit_dir])
    assert code == 0
    assert capsys.readouterr().out.startswith("audit ok: ")
    with open(os.path.join(audit_dir, "privacy_report.json")) as handle:
        report = json.load(handle)
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["total_bytes"] > 0


def test_audit_mode_rejects_a_tampered_trace(tmp_path, capsys):
    config = write_config(tmp_path)
    run_dir = str(tmp_path / "fed")
    assert main(["--mode", "federated-inproc", "--config", config,
                 "--out", run_dir]) == 0
    tampered_dir = str(tmp_path / "tampered")
    shutil.copytree(run_dir, tampered_dir)
    trace_path = os.path.join(tampered_dir, "message_trace.jsonl")
    leak = {"direction": "recv", "kind": "ZkUpload", "round": 1,
            "participant_id": 1, "nbytes": 999,
            "payload_shape": [5, 3], "objective_part": 1.0}
    with open(trace_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(leak) + "\n")
    capsys.readouterr()
    code = main(["--mode", "audit", "--trace", trace_path,
                 "--out", str(tmp_path / "audit2")])
    assert code == 1
    captured = capsys.readouterr()
    assert "audit violation" in captured.err
    with open(tmp_path / "audit2" / "privacy_report.json") as handle:
        assert json.load(handle)["ok"] is False


def test_config_errors_exit_2(tmp_path, capsys):
    cases = [
        ["--mode", "reference", "--views", "/nonexistent/a.csv",
         "--labels", "/nonexistent/y.csv"],
        ["--mode", "audit"],
        ["--mode", "reference", "--beta", "-1"],
        ["--mode", "sweep", "--p-grid", "0,50"],
        ["--mode", "reference", "--views", "x.csv"],  # labels missing
    ]
    for argv in cases:
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2, argv
        assert "config error" in capsys.readouterr().err
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["--config", str(bad_json)]) == 2
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text('{"momentum": 0.9}')
    assert main(["--config", str(unknown_key)]) == 2
    capsys.readouterr()


def test_bad_flags_exit_2():
    assert main(["--mode", "warp-drive"]) == 2
    assert main(["--no-such-flag"]) == 2


def test_version_flag_prints_and_exits_clean(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == version_string()


def test_module_is_runnable_as_a_script():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "mmvfl.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip()
