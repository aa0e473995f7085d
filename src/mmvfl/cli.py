"""Command-line entry point.

One binary drives every workflow: reference or federated training,
single-block baselines, the cross-validated sweep, synthetic data
generation, and privacy audits of recorded message traces.  Every run
writes a ``run_manifest.json`` that echoes the full effective
configuration (defaults included), so passing a manifest back through
``--config`` reproduces the run's numeric outputs bit for bit.  BLAS
runs on one thread for the whole invocation; the manifest's ``numerics``
key records the numpy/scipy versions and each OpenBLAS build.

Exit codes: 0 on success, 2 on configuration errors (unknown flags,
missing files, bad grids), 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .baselines import supfl_solve, supmvlfl_solve
from .data import (
    FLOAT_FORMAT,
    MultiViewDataset,
    load_csv,
    make_folds,
    save_csv,
    synth_planted,
    write_matrix_csv,
)
from .evaluation import (
    METHODS,
    diff_table,
    mean_curves,
    read_results_csv,
    render_diff_table,
    run_grid,
    select_best,
    write_results_csv,
)
from .federation import TracedMessage, audit_trace, run_federated
from .numerics import numerics_report, single_blas_thread
from .optimizer import Hyperparams, one_hot, run_reference

MODES = ("reference", "federated-inproc", "federated-tcp", "supfl",
         "supmvlfl", "sweep", "synth", "audit")

DEFAULT_BETA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
DEFAULT_P_GRID = (2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 30.0, 40.0,
                  50.0, 60.0, 70.0, 80.0, 90.0, 100.0)

# manifest keys that are run outputs, not configuration
MANIFEST_EXTRA_KEYS = ("version", "dataset", "outputs", "numerics")


class ConfigError(Exception):
    """Bad flags, config file, or input paths; maps to exit code 2."""


@dataclass
class RunConfig:
    """Effective configuration of one run; every field lands in the
    manifest."""

    mode: str = "reference"
    views: tuple[str, ...] | None = None
    labels: str | None = None
    seed: int = 0
    out: str = "mmvfl_run"
    beta: float = 0.1
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    zeta: float = 1000.0
    eta: float = 1000.0
    transport_port: int = 0
    round_timeout: float = 60.0
    folds: int = 5
    methods: tuple[str, ...] = METHODS
    trace: str | None = None
    eps: float = 1e-6
    inner_tol: float = 1e-6
    inner_max: int = 50
    outer_tol: float = 1e-5
    outer_max: int = 100
    synth_participants: int = 3
    synth_classes: int = 3
    synth_samples: int = 300
    synth_dims: tuple[int, ...] = (30, 30, 30)
    synth_informative: int = 5
    synth_noise: float = 0.5

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        if (self.views is None) != (self.labels is None):
            raise ConfigError("--views and --labels must be given together")
        if self.views is not None:
            for path in list(self.views) + [self.labels]:
                if not os.path.isfile(path):
                    raise ConfigError(f"input file not found: {path}")
        if not self.beta > 0:
            raise ConfigError("--beta must be positive")
        if not self.beta_grid or any(not b > 0 for b in self.beta_grid):
            raise ConfigError("--beta-grid needs positive values")
        if not self.p_grid or any(not 0 < p <= 100 for p in self.p_grid):
            raise ConfigError("--p-grid values must lie in (0, 100]")
        if not self.zeta > 0 or not self.eta > 0:
            raise ConfigError("--zeta and --eta must be positive")
        if self.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        if self.folds < 2:
            raise ConfigError("--folds must be at least 2")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(unknown)}")
        if self.mode == "audit" and self.trace is None:
            raise ConfigError("audit mode requires --trace")
        if self.trace is not None and not os.path.isfile(self.trace):
            raise ConfigError(f"trace file not found: {self.trace}")


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}
_TUPLE_FIELDS = {"views", "beta_grid", "p_grid", "methods", "synth_dims"}


def version_string() -> str:
    """Version from git when run inside a checkout, else the package
    version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


def _parse_list(text, kind):
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty list value {text!r}")
    if kind is str:
        return tuple(items)
    try:
        return tuple(kind(item) for item in items)
    except ValueError as exc:
        raise ConfigError(f"bad list value {text!r}: {exc}") from None


def load_config_file(path) -> dict:
    """Read a JSON config (or a previous run's manifest) into overrides."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    overrides = {}
    for key, value in raw.items():
        if key in MANIFEST_EXTRA_KEYS:
            continue
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        if key in _TUPLE_FIELDS and value is not None:
            value = tuple(value)
        overrides[key] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmvfl",
        description="Federated multi-view feature selection runner.")
    parser.add_argument("--mode", choices=MODES, help="what to run")
    parser.add_argument("--config", help="JSON config file or a previous run manifest")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out", help="output directory (default mmvfl_run)")
    parser.add_argument("--views", help="comma-separated view CSV paths")
    parser.add_argument("--labels", help="label file path")
    parser.add_argument("--beta", type=float, help="sparsity weight for single runs")
    parser.add_argument("--beta-grid", dest="beta_grid",
                        help="comma-separated sparsity weights for sweeps")
    parser.add_argument("--p-grid", dest="p_grid",
                        help="comma-separated selection percentages for sweeps")
    parser.add_argument("--zeta", type=float, help="consensus agreement weight")
    parser.add_argument("--eta", type=float, help="label agreement weight")
    parser.add_argument("--transport-port", dest="transport_port", type=int,
                        help="TCP port for federated-tcp (0 picks a free one)")
    parser.add_argument("--folds", type=int, help="cross-validation fold count")
    parser.add_argument("--methods", help="comma-separated methods for sweeps")
    parser.add_argument("--trace", help="message trace JSONL for audit mode")
    parser.add_argument("--version", action="version", version=version_string())
    return parser


def resolve_config(argv) -> RunConfig:
    """Merge defaults, config file, and flags (flags win)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides: dict = {}
    if args.config is not None:
        overrides.update(load_config_file(args.config))
    for key in ("mode", "seed", "out", "labels", "beta", "zeta", "eta",
                "transport_port", "folds", "trace"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.views is not None:
        overrides["views"] = _parse_list(args.views, str)
    if args.beta_grid is not None:
        overrides["beta_grid"] = _parse_list(args.beta_grid, float)
    if args.p_grid is not None:
        overrides["p_grid"] = _parse_list(args.p_grid, float)
    if args.methods is not None:
        overrides["methods"] = _parse_list(args.methods, str)
    try:
        config = RunConfig(**overrides)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Shared output writers


def write_objective_trace(path, objectives):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("round,objective\n")
        for index, value in enumerate(objectives, start=1):
            handle.write(f"{index},{format(value, FLOAT_FORMAT)}\n")


def write_message_trace(path, trace):
    """One JSON object per message; payload contents stay out of the log."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in trace:
            shape = entry.payload_shape
            record = {
                "direction": entry.direction,
                "kind": entry.kind,
                "round": entry.round,
                "participant_id": entry.participant_id,
                "nbytes": entry.nbytes,
                "payload_shape": list(shape) if shape is not None else None,
                "objective_part": entry.objective_part,
            }
            handle.write(json.dumps(record) + "\n")


def read_message_trace(path) -> list[TracedMessage]:
    """Trace entries back from a log (kinds, rounds, sizes and payload
    shapes; payloads are never logged)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: bad JSON: {exc}") from None
            shape = raw.get("payload_shape")
            records.append(TracedMessage(
                direction=str(raw.get("direction", "")),
                kind=str(raw.get("kind", "")),
                round=int(raw.get("round", 0)),
                participant_id=int(raw.get("participant_id", -1)),
                nbytes=int(raw.get("nbytes", 0)),
                payload_shape=tuple(shape) if shape is not None else None,
                objective_part=raw.get("objective_part"),
            ))
    return records


def write_manifest(config: RunConfig, out_dir, dataset_facts, outputs):
    manifest = asdict(config)
    for key in _TUPLE_FIELDS:
        if manifest[key] is not None:
            manifest[key] = list(manifest[key])
    manifest["version"] = version_string()
    manifest["dataset"] = dataset_facts
    manifest["outputs"] = sorted(outputs)
    manifest["numerics"] = numerics_report()
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Dataset plumbing


def obtain_dataset(config: RunConfig):
    """Load the configured CSVs, or fall back to the seeded synthetic."""
    if config.views is not None:
        return load_csv(config.views, config.labels)
    dataset, _ = synth_planted(
        num_participants=config.synth_participants,
        num_classes=config.synth_classes,
        num_samples=config.synth_samples,
        dims=config.synth_dims,
        n_informative=config.synth_informative,
        noise=config.synth_noise,
        seed=config.seed)
    return dataset


def dataset_facts(dataset: MultiViewDataset) -> dict:
    return {
        "num_samples": dataset.num_samples,
        "num_participants": dataset.num_participants,
        "num_classes": dataset.num_classes,
        "dims": [int(d) for d in dataset.dims],
    }


def training_hyper(config: RunConfig, num_participants: int) -> Hyperparams:
    return Hyperparams.uniform(
        num_participants,
        sparsity=config.beta,
        consensus_penalty=config.zeta,
        label_penalty=config.eta,
        eps=config.eps,
        inner_tol=config.inner_tol,
        inner_max=config.inner_max,
        outer_tol=config.outer_tol,
        outer_max=config.outer_max)


# ---------------------------------------------------------------------------
# Mode runners


def _write_training_outputs(out_dir, transforms, consensus, objectives):
    """Transforms, the consensus (unless None) and the objective trace."""
    matrices = {f"transform_{k + 1}.csv": t for k, t in enumerate(transforms)}
    if consensus is not None:
        matrices["consensus.csv"] = consensus
    for name, matrix in matrices.items():
        write_matrix_csv(os.path.join(out_dir, name), matrix)
    write_objective_trace(os.path.join(out_dir, "objective_trace.csv"), objectives)
    return list(matrices) + ["objective_trace.csv"]


def run_training_mode(config: RunConfig, out_dir) -> list[str]:
    dataset = obtain_dataset(config)
    labels = one_hot(dataset.labels, dataset.num_classes)
    hyper = training_hyper(config, dataset.num_participants)

    if config.mode == "reference":
        result = run_reference(dataset.views, labels, hyper, config.seed)
        outputs = _write_training_outputs(
            out_dir, result.transforms, result.consensus, result.objectives)
    elif config.mode in ("federated-inproc", "federated-tcp"):
        transport = "in_process" if config.mode == "federated-inproc" else "tcp"
        result = run_federated(
            dataset.views, labels, hyper, config.seed,
            transport=transport, round_timeout=config.round_timeout,
            port=config.transport_port)
        outputs = _write_training_outputs(
            out_dir, [st.transform for st in result.states],
            result.consensus, result.objectives)
        write_message_trace(os.path.join(out_dir, "message_trace.jsonl"), result.trace)
        outputs.append("message_trace.jsonl")
    elif config.mode == "supfl":
        # views train independently, so each gets its own trace file
        outputs = []
        for k, view in enumerate(dataset.views):
            transform, trace = supfl_solve(
                view, labels, config.beta, eps=config.eps,
                tol=config.inner_tol, max_iter=config.inner_max)
            name = f"transform_{k + 1}.csv"
            write_matrix_csv(os.path.join(out_dir, name), transform)
            outputs.append(name)
            name = f"objective_trace_{k + 1}.csv"
            write_objective_trace(os.path.join(out_dir, name), trace)
            outputs.append(name)
    elif config.mode == "supmvlfl":
        transforms, objectives = supmvlfl_solve(
            dataset.views, labels, config.beta, eps=config.eps,
            tol=config.inner_tol, max_iter=config.inner_max)
        outputs = _write_training_outputs(out_dir, transforms, None, objectives)
    else:
        raise ValueError(f"not a training mode: {config.mode}")

    write_manifest(config, out_dir, dataset_facts(dataset), outputs)
    return outputs


def emit_curves(results_path, out_dir, methods=METHODS) -> list[str]:
    """Per-participant accuracy-vs-p curve files from a results CSV.

    Each file has a ``p`` column plus one accuracy column per method
    found; a requested method (one of ``methods``) missing from the
    results produces a warning on stderr.
    """
    results = read_results_csv(results_path)
    if not results:
        raise ValueError(f"{results_path}: no result rows")
    curves = mean_curves(select_best(results))
    present = sorted({c.method for c in curves}, key=METHODS.index)
    for method in methods:
        if method not in present:
            print(f"warning: results are missing method {method!r}", file=sys.stderr)
    by_participant: dict = {}
    for curve in curves:
        by_participant.setdefault(curve.participant, {}).setdefault(
            curve.p, {})[curve.method] = curve.accuracy
    written = []
    for participant in sorted(by_participant):
        name = f"curves_participant_{participant + 1}.csv"
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("p," + ",".join(present) + "\n")
            for p in sorted(by_participant[participant]):
                cells = [format(p, FLOAT_FORMAT)]
                row = by_participant[participant][p]
                for method in present:
                    value = row.get(method)
                    cells.append("" if value is None else format(value, FLOAT_FORMAT))
                handle.write(",".join(cells) + "\n")
        written.append(name)
    return written


def run_sweep_mode(config: RunConfig, out_dir) -> list[str]:
    dataset = obtain_dataset(config)
    folds = make_folds(dataset, config.folds, config.seed)
    all_rows = []
    for method in config.methods:
        rows = run_grid(
            method, dataset, folds, config.beta_grid, config.p_grid,
            consensus_penalty=config.zeta, label_penalty=config.eta,
            seed=config.seed,
            hyper_kwargs={
                "eps": config.eps,
                "inner_tol": config.inner_tol,
                "inner_max": config.inner_max,
            })
        all_rows.extend(rows)
    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(all_rows, results_path)
    outputs = ["results.csv"]
    outputs.extend(emit_curves(results_path, out_dir, config.methods))

    curves = mean_curves(select_best(all_rows))
    by_method: dict = {}
    for curve in curves:
        by_method.setdefault(curve.method, []).append(curve)
    if "mmvfl" in by_method:
        for other in ("supfl", "supmvlfl"):
            if other not in by_method:
                continue
            table = diff_table(by_method["mmvfl"], by_method[other])
            name = f"diff_{other}.csv"
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
                handle.write(render_diff_table(table))
            outputs.append(name)

    write_manifest(config, out_dir, dataset_facts(dataset), outputs)
    return outputs


def run_synth_mode(config: RunConfig, out_dir) -> list[str]:
    dataset, informative = synth_planted(
        num_participants=config.synth_participants,
        num_classes=config.synth_classes,
        num_samples=config.synth_samples,
        dims=config.synth_dims,
        n_informative=config.synth_informative,
        noise=config.synth_noise,
        seed=config.seed)
    view_names = [f"view_{k + 1}.csv" for k in range(dataset.num_participants)]
    save_csv(dataset, [os.path.join(out_dir, n) for n in view_names],
             os.path.join(out_dir, "labels.csv"))
    with open(os.path.join(out_dir, "informative.json"), "w", encoding="utf-8") as handle:
        json.dump({f"view_{k + 1}": cols for k, cols in enumerate(informative)},
                  handle, indent=2)
        handle.write("\n")
    outputs = view_names + ["labels.csv", "informative.json"]
    write_manifest(config, out_dir, dataset_facts(dataset), outputs)
    return outputs


def run_audit_mode(config: RunConfig, out_dir) -> int:
    trace = read_message_trace(config.trace)
    manifest_path = os.path.join(os.path.dirname(os.path.abspath(config.trace)),
                                 "run_manifest.json")
    if not os.path.isfile(manifest_path):
        raise ConfigError(
            f"no run_manifest.json beside {config.trace}; cannot determine "
            "the expected payload shape")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    facts = manifest.get("dataset") or {}
    if "num_samples" not in facts or "num_classes" not in facts:
        raise ConfigError(f"{manifest_path}: missing dataset shape facts")
    report = audit_trace(trace, facts["num_samples"], facts["num_classes"])
    payload = {
        "ok": report.ok,
        "violations": report.violations,
        "message_counts": report.message_counts,
        "total_bytes": report.total_bytes,
        "round_bytes": {str(k): v for k, v in sorted(report.round_bytes.items())},
    }
    with open(os.path.join(out_dir, "privacy_report.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_manifest(config, out_dir, facts, ["privacy_report.json"])
    if report.ok:
        print(f"audit ok: {len(trace)} messages, {report.total_bytes} bytes")
        return 0
    for violation in report.violations:
        print(f"audit violation: {violation}", file=sys.stderr)
    return 1


@single_blas_thread()
def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = resolve_config(list(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits itself on bad flags or --help/--version
        return int(exc.code or 0)

    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return 2

    try:
        if config.mode in ("reference", "federated-inproc", "federated-tcp",
                           "supfl", "supmvlfl"):
            outputs = run_training_mode(config, config.out)
        elif config.mode == "sweep":
            outputs = run_sweep_mode(config, config.out)
        elif config.mode == "synth":
            outputs = run_synth_mode(config, config.out)
        elif config.mode == "audit":
            return run_audit_mode(config, config.out)
        else:
            raise ValueError(f"unhandled mode {config.mode}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the binary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(outputs) + 1} files to {config.out}")
    return 0


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
