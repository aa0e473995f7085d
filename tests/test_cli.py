"""End-to-end runs of every CLI mode on tiny synthetic inputs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import mmvfl.baselines as baselines
import mmvfl.evaluation as evaluation
from mmvfl.cli import FLAG_HELP, emit_curves, main, read_message_trace, version_string
from mmvfl.evaluation import ExperimentResult, mean_curves, select_best

TINY_SYNTH = {
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
        owners = [(r.kind, r.participant_id) for r in records if r.label_owner]
        assert owners == [("Register", 0)]


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
    assert set(numerics) == {"numpy", "openblas"}
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


def test_emit_curves_writes_a_column_per_method_present(tmp_path):
    rows = []
    for participant in range(5):
        for p in (20.0, 60.0):
            for fold in range(2):
                rows.append(ExperimentResult(
                    method="supfl", participant=participant, p=p,
                    fold=fold, beta=0.1, accuracy=0.75, converged=True))
    written = emit_curves(mean_curves(select_best(rows)), str(tmp_path))
    assert written == [f"curves_participant_{k}.csv" for k in range(1, 6)]
    with open(tmp_path / "curves_participant_3.csv") as handle:
        assert handle.read() == "p,supfl\n20,0.75\n60,0.75\n"


def test_sweep_with_a_method_subset_warns_only_for_requested_methods(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["--mode", "sweep", "--config", config, "--out", str(tmp_path / "s"),
                 "--beta-grid", "0.1", "--p-grid", "100", "--folds", "3",
                 "--methods", "supfl,supmvlfl"]) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "s" / "curves_participant_1.csv") as handle:
        assert handle.readline() == "p,supfl,supmvlfl\n"


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
            "payload_shape": [5, 3], "objective_part": 1.0, "label_owner": False}
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


def test_audit_mode_rejects_a_trace_line_with_missing_or_mistyped_fields(tmp_path, capsys):
    config = write_config(tmp_path)
    run_dir = str(tmp_path / "fed")
    assert main(["--mode", "federated-inproc", "--config", config,
                 "--out", run_dir]) == 0
    with open(os.path.join(run_dir, "message_trace.jsonl"), encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    shutil.copy(os.path.join(run_dir, "run_manifest.json"), tmp_path / "run_manifest.json")
    spoils = [
        ("nbytes-missing", lambda line: line.pop("nbytes")),
        ("kind-missing", lambda line: line.pop("kind")),
        ("extra-field", lambda line: line.update(payload=[1.0])),
        ("nbytes-text", lambda line: line.update(nbytes="160145")),
        ("round-bool", lambda line: line.update(round=True)),
        ("label-owner-number", lambda line: line.update(label_owner=0)),
        ("shape-three-sizes", lambda line: line.update(payload_shape=[30, 3, 1])),
        ("round-negative", lambda line: line.update(round=-3)),
        ("participant-negative", lambda line: line.update(participant_id=-1)),
        ("nbytes-negative", lambda line: line.update(nbytes=-1)),
        ("shape-zero", lambda line: line.update(payload_shape=[30, 0])),
        ("shape-negative", lambda line: line.update(payload_shape=[-30, -3])),
    ]
    for name, spoil in spoils:
        spoiled = [dict(line) for line in lines]
        spoil(spoiled[2])
        trace_path = tmp_path / f"{name}.jsonl"
        trace_path.write_text("".join(json.dumps(line) + "\n" for line in spoiled))
        capsys.readouterr()
        assert main(["--mode", "audit", "--trace", str(trace_path),
                     "--out", str(tmp_path / f"audit_{name}")]) == 1, name
        captured = capsys.readouterr()
        assert f"{trace_path}:3: " in captured.err, (name, captured.err)
        assert "audit ok" not in captured.out


@pytest.fixture(scope="module")
def federated_run(tmp_path_factory):
    """A tiny federated-inproc run's output dir, with its message trace."""
    run_dir = tmp_path_factory.mktemp("federated")
    config = write_config(run_dir)
    assert main(["--mode", "federated-inproc", "--config", config,
                 "--out", str(run_dir / "fed")]) == 0
    return run_dir / "fed"


@pytest.mark.parametrize("manifest", [
    pytest.param(None, id="missing"),
    pytest.param("{nope", id="invalid-json"),
    pytest.param("[]", id="list"),
    pytest.param('{"dataset": [30, 3]}', id="dataset-list"),
    pytest.param('{"dataset": {"num_classes": 3}}', id="samples-missing"),
    pytest.param('{"dataset": {"num_samples": [300], "num_classes": 3}}', id="samples-list"),
    pytest.param('{"dataset": {"num_samples": "300", "num_classes": 3}}', id="samples-text"),
    pytest.param('{"dataset": {"num_samples": 30, "num_classes": true}}', id="classes-bool"),
    pytest.param('{"dataset": {"num_samples": 30, "num_classes": 0}}', id="classes-zero"),
])
def test_audit_mode_rejects_a_bad_manifest_beside_the_trace(tmp_path, capsys, federated_run,
                                                            manifest):
    # the manifest gives the payload shape the audit checks against
    shutil.copy(federated_run / "message_trace.jsonl", tmp_path / "message_trace.jsonl")
    if manifest is not None:
        (tmp_path / "run_manifest.json").write_text(manifest)
    out = tmp_path / "audit"
    capsys.readouterr()
    assert main(["--mode", "audit", "--trace", str(tmp_path / "message_trace.jsonl"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


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


def test_a_method_listed_twice_is_a_config_error(tmp_path, capsys):
    # rejected before any data is loaded or output written
    config = write_config(tmp_path)
    for methods in ("supfl,supfl", "mmvfl,supfl,mmvfl"):
        out = tmp_path / methods.replace(",", "_")
        assert main(["--mode", "sweep", "--config", config, "--methods", methods,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: methods listed more than once:" in err, err
        assert not out.exists()


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


def test_solver_controls_are_config_errors(tmp_path, capsys):
    # rejected before any data is loaded or output written
    for mode in ("reference", "supfl", "sweep"):
        for control, value in (("outer_tol", -1e-5), ("outer_tol", 0.0), ("outer_max", 0)):
            config = write_config(tmp_path, **{control: value})
            out = tmp_path / f"{mode}_{control}"
            assert main(["--mode", mode, "--config", config, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: solver controls:"), (mode, control, err)
            assert not out.exists()


@pytest.mark.parametrize("flags, fields", [
    pytest.param(["--seed", "18446744073709551616"], {}, id="seed-2**64"),
    pytest.param(["--seed", "-1"], {}, id="seed-negative"),
    pytest.param([], {"seed": 1.5}, id="seed-float"),
    pytest.param([], {"seed": True}, id="seed-bool"),
    pytest.param([], {"round_timeout": 0}, id="timeout-zero"),
    pytest.param([], {"round_timeout": 1e300}, id="timeout-huge"),
    pytest.param([], {"round_timeout": "long"}, id="timeout-text"),
    pytest.param(["--transport-port", "70000"], {}, id="port-70000"),
    pytest.param([], {"transport_port": -1}, id="port-negative"),
    pytest.param([], {"folds": 2.5}, id="folds-float"),
    pytest.param([], {"folds": 1}, id="folds-one"),
    pytest.param([], {"beta": "x"}, id="beta-text"),
    pytest.param([], {"zeta": None}, id="zeta-null"),
    pytest.param([], {"p_grid": ["a"]}, id="p-grid-text"),
    pytest.param([], {"methods": "mmvfl"}, id="methods-string"),
    pytest.param([], {"views": "a.csv", "labels": "y.csv"}, id="views-string"),
    pytest.param([], {"beta_grid": "0.1"}, id="beta-grid-string"),
    pytest.param([], {"synth_dims": 30}, id="synth-dims-number"),
    pytest.param(["--beta", "inf"], {}, id="beta-inf"),
    pytest.param(["--zeta", "inf"], {}, id="zeta-inf"),
    pytest.param(["--eta", "inf"], {}, id="eta-inf"),
    pytest.param(["--beta-grid", "0.1,inf"], {}, id="beta-grid-inf"),
    pytest.param([], {"beta": float("inf")}, id="beta-json-infinity"),
    pytest.param(["--seed", "x"], {}, id="seed-text-flag"),
    pytest.param(["--folds", "2.5"], {}, id="folds-float-flag"),
    pytest.param(["--beta-grid", ","], {}, id="beta-grid-empty-flag"),
    pytest.param(["--methods", ","], {}, id="methods-empty-flag"),
    pytest.param([], {"views": [], "labels": "y.csv"}, id="views-empty"),
])
def test_bad_run_controls_are_config_errors(tmp_path, capsys, flags, fields):
    # out of range or of the wrong type; a federated-tcp run would read
    # every one of them but folds, the grids and methods, which a sweep reads
    config = write_config(tmp_path, **fields)
    out = tmp_path / "out"
    assert main(["--mode", "federated-tcp", "--config", config, "--out", str(out),
                 *flags]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("fields", [
    pytest.param({"beta": True}, id="beta-bool"),
    pytest.param({"outer_max": True}, id="outer-max-bool"),
    pytest.param({"round_timeout": True}, id="timeout-bool"),
    pytest.param({"synth_samples": 300.0}, id="samples-float"),
    pytest.param({"outer_max": 3.5}, id="outer-max-float"),
    pytest.param({"transport_port": False}, id="port-bool"),
    pytest.param({"outer_tol": "small"}, id="outer-tol-text"),
    pytest.param({"synth_dims": ["a", "b"]}, id="synth-dims-text"),
    pytest.param({"synth_dims": [4, 5.0]}, id="synth-dims-float"),
    pytest.param({"beta_grid": [0.1, True]}, id="beta-grid-bool"),
    pytest.param({"methods": ["mmvfl", 1]}, id="methods-number"),
    pytest.param({"labels": 3}, id="labels-number"),
])
def test_config_values_of_the_wrong_json_type_are_config_errors(tmp_path, capsys, fields):
    # an int field takes a non-bool integer, a float field a non-bool
    # number and a list field a list of its element type; checked before
    # any data is loaded or output written
    config = write_config(tmp_path, **fields)
    for mode in ("reference", "federated-tcp", "sweep"):
        out = tmp_path / mode
        assert main(["--mode", mode, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        key = next(iter(fields))
        assert err.startswith(f"config error: config {config}: {key} must be a JSON "), err
        assert not out.exists()


def test_config_numbers_of_the_right_json_type_are_accepted(tmp_path):
    # an integer is a number
    config = write_config(tmp_path, beta=1, zeta=1000, round_timeout=30)
    out = tmp_path / "out"
    assert main(["--mode", "reference", "--config", config, "--out", str(out)]) == 0
    with open(out / "run_manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert (manifest["beta"], manifest["zeta"], manifest["round_timeout"]) == (1, 1000, 30)


# field: (config value, flag text, value the manifest records)
FLAG_CASES = {
    "mode": ("reference", "reference", "reference"),
    "seed": (7, "7", 7),
    "out": ("elsewhere", "elsewhere", "elsewhere"),
    "views": (["data/view_2.csv", "data/view_1.csv"], "data/view_2.csv, data/view_1.csv,",
              ["data/view_2.csv", "data/view_1.csv"]),
    "labels": ("labels_copy.csv", "labels_copy.csv", "labels_copy.csv"),
    "beta": (1, "1", 1.0),
    "beta_grid": ([1, 0.1], "1,0.1", [1.0, 0.1]),
    "p_grid": ([50, 100], "50,100", [50.0, 100.0]),
    "zeta": (500, "500", 500.0),
    "eta": (50, "50", 50.0),
    "transport_port": (8123, "8123", 8123),
    "folds": (3, "3", 3),
    "methods": (["supfl", "mmvfl"], "supfl,mmvfl", ["supfl", "mmvfl"]),
    "trace": ("trace.jsonl", "trace.jsonl", "trace.jsonl"),
}


@pytest.mark.parametrize("key", list(FLAG_HELP))
def test_each_flag_writes_the_manifest_its_config_field_does(tmp_path, monkeypatch, key):
    # a flag's text is read by its RunConfig field's annotation, as the
    # config's JSON value is, so a sweep given either writes the same files
    value, text, written = FLAG_CASES[key]
    monkeypatch.chdir(tmp_path)
    assert main(["--mode", "synth", "--config", write_config(tmp_path), "--out", "data"]) == 0
    shutil.copy("data/labels.csv", "labels_copy.csv")
    (tmp_path / "trace.jsonl").write_text("")
    base = {"mode": "sweep", "views": ["data/view_1.csv", "data/view_2.csv"],
            "labels": "data/labels.csv", "out": "out", "beta_grid": [0.1],
            "p_grid": [100], "folds": 2}
    out = value if key == "out" else "out"
    flag = "--" + key.replace("_", "-")
    runs = []
    for config, flags in ((write_config(tmp_path, "field.json", **{**base, key: value}), []),
                          (write_config(tmp_path, "flag.json", **base), [flag, text])):
        assert main(["--config", config, *flags]) == 0
        runs.append({name: read_bytes(out, name) for name in sorted(os.listdir(out))})
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    manifest = json.loads(runs[0]["run_manifest.json"])
    assert repr(manifest[key]) == repr(written)


def test_a_config_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, beta=10**400)
    out = tmp_path / "out"
    assert main(["--mode", "reference", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: config {config}: beta is too large for a float\n"
    assert not out.exists()


# eps is the solver constant optimizer.EPS and the synthetic participant
# count is len(synth_dims); neither is a setting any more
@pytest.mark.parametrize("key, value", [("inner_tol", 0.1), ("inner_max", 1), ("eps", 1e-6),
                                        ("synth_participants", 3)])
def test_removed_inner_stopping_controls_are_unknown_keys(tmp_path, capsys, key, value):
    config = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["--mode", "reference", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: config {config}: unknown key {key!r}\n"
    assert not out.exists()


def test_a_run_stopped_at_outer_max_warns_on_stderr_only(tmp_path, capsys):
    for outer_max, warned in ((2, True), (100, False)):
        config = write_config(tmp_path, outer_max=outer_max)
        for mode in ("reference", "federated-inproc", "federated-tcp"):
            out = tmp_path / f"{mode}_{outer_max}"
            assert main(["--mode", mode, "--config", config, "--out", str(out)]) == 0
            captured = capsys.readouterr()
            warning = (f"warning: training stopped at outer_max={outer_max} rounds "
                       "before its objective changed by less than outer_tol=1e-05\n")
            assert captured.err == (warning if warned else ""), (mode, captured.err)
            assert captured.out.startswith("wrote ")
            for name in os.listdir(out):
                assert b"converged" not in read_bytes(out, name), name


def test_a_sweep_config_outer_max_reaches_every_mmvfl_cell(tmp_path, capsys, monkeypatch):
    rounds = []
    train_states = evaluation.train_states

    def counted(*args):
        result = train_states(*args)
        rounds.append(result.rounds)
        return result

    monkeypatch.setattr(evaluation, "train_states", counted)
    config = write_config(tmp_path, outer_max=1)
    out = tmp_path / "sweep"
    assert main(["--mode", "sweep", "--config", config, "--out", str(out),
                 "--beta-grid", "0.01,0.1", "--p-grid", "100", "--folds", "3"]) == 0
    assert rounds == [1] * 3 * 2  # folds x betas
    captured = capsys.readouterr()
    assert captured.err == ("warning: training stopped at outer_max=1 rounds before its "
                            "objective changed by less than outer_tol=1e-05\n")
    for name in os.listdir(out):
        assert b"converged" not in read_bytes(out, name), name


def test_a_sweep_warns_once_when_a_baseline_fit_stops_at_max_iter(tmp_path, capsys,
                                                                  monkeypatch):
    config = write_config(tmp_path)
    argv = ["--mode", "sweep", "--config", config, "--methods", "supfl,supmvlfl",
            "--beta-grid", "0.01,0.1", "--p-grid", "50,100", "--folds", "3"]
    assert main([*argv, "--out", str(tmp_path / "default")]) == 0
    assert capsys.readouterr().err == ""
    # the limit is read when each fit runs
    monkeypatch.setattr(baselines, "MAX_ITER", 2)
    assert main([*argv, "--out", str(tmp_path / "limited")]) == 0
    assert capsys.readouterr().err == (
        "warning: a baseline fit stopped at MAX_ITER=2 steps before its objective "
        "changed by less than TOL=1e-06\n")
    for name in os.listdir(tmp_path / "limited"):
        assert b"converged" not in read_bytes(tmp_path / "limited", name), name


@pytest.mark.parametrize("mode", ["supfl", "supmvlfl"])
def test_a_baseline_run_warns_once_when_a_fit_stops_at_max_iter(tmp_path, capsys,
                                                                monkeypatch, mode):
    config = write_config(tmp_path)
    assert main(["--mode", mode, "--config", config, "--out", str(tmp_path / "default")]) == 0
    assert capsys.readouterr().err == ""
    # the limit is read when each fit runs; supfl fits each of the two
    # views on its own, and still warns once
    monkeypatch.setattr(baselines, "MAX_ITER", 1)
    limited = tmp_path / "limited"
    assert main(["--mode", mode, "--config", config, "--out", str(limited)]) == 0
    assert capsys.readouterr().err == (
        "warning: a baseline fit stopped at MAX_ITER=1 steps before its objective "
        "changed by less than TOL=1e-06\n")
    assert sorted(os.listdir(limited)) == sorted(os.listdir(tmp_path / "default"))
    for name in os.listdir(limited):
        assert b"MAX_ITER" not in read_bytes(limited, name), name


def test_bad_synthetic_shapes_are_config_errors(tmp_path, capsys):
    # an empty synth_dims means no participants; one file per case, since
    # cases that share a key would overwrite each other's file
    cases = (("synth_dims", []), ("synth_classes", 1), ("synth_samples", 2),
             ("synth_informative", 5), ("synth_informative", -1), ("synth_noise", -0.5),
             ("synth_noise", float("nan")), ("synth_noise", float("inf")))
    configs = [write_config(tmp_path, name=f"{index}.json", **{key: value})
               for index, (key, value) in enumerate(cases)]
    for mode in ("synth", "reference", "sweep"):
        for config in configs:
            out = tmp_path / "out"
            assert main(["--mode", mode, "--config", config, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: synthetic data:"), (mode, config, err)
            assert not out.exists()
