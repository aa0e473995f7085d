"""Command-line entry point.

One binary drives every workflow: reference or federated training,
single-block baselines, the cross-validated sweep, synthetic data
generation, and privacy audits of recorded message traces.  Every run
writes a ``run_manifest.json`` that echoes the full effective
configuration (defaults included), so passing a manifest back through
``--config`` reproduces the run's numeric outputs bit for bit.  BLAS
runs on one thread for the whole invocation; the manifest's ``numerics``
key records the numpy version and each OpenBLAS build.

Exit codes: 0 on success, 2 on configuration errors (unknown flags or keys,
values that do not fit their ``RunConfig`` field, missing files, bad grids,
a bad manifest beside an audited trace), 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import typing
from dataclasses import asdict, dataclass

from . import __version__, baselines
from .baselines import supfl_solve, supmvlfl_solve
from .data import (
    FLOAT_FORMAT,
    MultiViewDataset,
    check_synth_shape,
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
    render_diff_table,
    run_grid,
    select_best,
    write_results_csv,
)
from .featsel import check_percent
from .federation import TracedMessage, audit_trace, run_federated
from .federation.coordinator import check_round_timeout
from .numerics import check_seed, numerics_report, single_blas_thread
from .optimizer import Hyperparams, check_solver_controls, check_weight, one_hot, run_reference

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
    outer_tol: float = 1e-5
    outer_max: int = 100
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
        if not self.methods or self.views == ():
            raise ConfigError("--methods and --views need at least one item")
        if self.views is not None:
            for path in list(self.views) + [self.labels]:
                if not os.path.isfile(path):
                    raise ConfigError(f"input file not found: {path}")
        if not self.beta_grid or not self.p_grid:
            raise ConfigError("--beta-grid and --p-grid need at least one value")
        try:
            for weight in (self.beta, *self.beta_grid, self.zeta, self.eta):
                check_weight(weight)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"--beta, --beta-grid, --zeta and --eta: {exc}") from None
        try:
            for p in self.p_grid:
                check_percent(p)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"--p-grid: {exc}") from None
        try:
            self.seed = check_seed(self.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
        if self.folds < 2:
            raise ConfigError("--folds must be an integer of at least 2")
        if not 0 <= self.transport_port <= 65535:
            raise ConfigError("--transport-port must be an integer in [0, 65535]")
        try:
            check_round_timeout(self.round_timeout)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(unknown)}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods listed more than once: {', '.join(repeated)}")
        if self.mode == "audit" and self.trace is None:
            raise ConfigError("audit mode requires --trace")
        if self.trace is not None and not os.path.isfile(self.trace):
            raise ConfigError(f"trace file not found: {self.trace}")
        try:
            check_solver_controls(self.outer_tol, self.outer_max)
        except ValueError as exc:
            raise ConfigError(f"solver controls: {exc}") from None
        try:
            check_synth_shape(len(self.synth_dims), self.synth_classes,
                              self.synth_samples, self.synth_dims,
                              self.synth_informative, self.synth_noise)
        except ValueError as exc:
            raise ConfigError(f"synthetic data: {exc}") from None


_CONFIG_TYPES = typing.get_type_hints(RunConfig)
_JSON_NAMES = {int: "integer", float: "number", str: "string", type(None): "null"}

# One flag per field a run is usually given on the command line, named
# after its ``RunConfig`` field with dashes and read by its annotation.
FLAG_HELP = {
    "mode": f"what to run: {', '.join(MODES)}",
    "seed": "master seed (default 0)",
    "out": "output directory (default mmvfl_run)",
    "views": "comma-separated view CSV paths",
    "labels": "label file path",
    "beta": "sparsity weight for single runs",
    "beta_grid": "comma-separated sparsity weights for sweeps",
    "p_grid": "comma-separated selection percentages for sweeps",
    "zeta": "consensus agreement weight",
    "eta": "label agreement weight",
    "transport_port": "TCP port for federated-tcp (0 picks a free one)",
    "folds": "cross-validation fold count",
    "methods": "comma-separated methods for sweeps",
    "trace": "message trace JSONL for audit mode",
}


def _from_json(value, hint):
    """A JSON value as the dataclass field annotated ``hint`` holds it, or
    ``TypeError`` if it does not fit: an int field takes a non-bool
    integer, a float field a non-bool number (as a float), a bool field a
    boolean, a ``tuple[T, ...]`` field a list of T and a ``tuple[A, B]``
    field a list of an A and a B (both as tuples), and a union any of its
    members', so a config and the same flags write the same manifest."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            if args[-1] is ...:
                args = args[:1] * len(value)
            if len(value) == len(args):
                return tuple(map(_from_json, value, args))
    elif args:
        for arg in args:
            try:
                return _from_json(value, arg)
            except TypeError:
                pass
    elif isinstance(value, bool) == (hint is bool) and isinstance(
            value, (int, float) if hint is float else hint):
        return float(value) if hint is float else value
    raise TypeError(value)


def _json_name(hint) -> str:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return f"list of {_json_name(args[0])}s"
    return " or ".join(map(_json_name, args)) if args else _JSON_NAMES[hint]


def _flag_json(text: str, hint):
    """The JSON value a flag's text spells for a field annotated ``hint``:
    a tuple field's comma-separated items, empty ones dropped, as a list;
    an int or float field's text converted by that type, if it can be."""
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        return [_flag_json(item.strip(), args[0]) for item in text.split(",") if item.strip()]
    if args:  # a flag never spells null
        return _flag_json(text, args[0])
    try:
        return hint(text) if hint in (int, float) else text
    except ValueError:
        return text


def _config_value(key, value, name):
    """``value`` as the ``key`` field, or ``ConfigError`` calling it ``name``."""
    hint = _CONFIG_TYPES[key]
    try:
        return _from_json(value, hint)
    except TypeError:
        raise ConfigError(f"{name} must be a JSON {_json_name(hint)}, "
                          f"not {json.dumps(value)}") from None
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


@functools.cache
def version_string() -> str:
    """Version from git when run inside a checkout, else the package
    version; computed once per process."""
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


def _read_json_object(path, what) -> dict:
    """The JSON object in a file, or ``ConfigError`` calling it ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return raw


def load_config_file(path) -> dict:
    """Read a JSON config (or a previous run's manifest) into overrides."""
    overrides = {}
    for key, value in _read_json_object(path, "config").items():
        if key in MANIFEST_EXTRA_KEYS:
            continue
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        overrides[key] = _config_value(key, value, f"config {path}: {key}")
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmvfl",
        description="Federated multi-view feature selection runner.")
    parser.add_argument("--config", help="JSON config file or a previous run manifest")
    for key, text in FLAG_HELP.items():
        parser.add_argument("--" + key.replace("_", "-"), help=text)
    parser.add_argument("--version", action="version", version=version_string())
    return parser


def resolve_config(argv) -> RunConfig:
    """Merge defaults, config file, and flags (flags win)."""
    args = build_parser().parse_args(argv)
    overrides = {} if args.config is None else load_config_file(args.config)
    for key in FLAG_HELP:
        text = getattr(args, key)
        if text is not None:
            overrides[key] = _config_value(key, _flag_json(text, _CONFIG_TYPES[key]),
                                           "--" + key.replace("_", "-"))
    config = RunConfig(**overrides)
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
            handle.write(json.dumps(asdict(entry)) + "\n")


def read_message_trace(path) -> list[TracedMessage]:
    """Trace entries back from a log (kinds, rounds, sizes and payload
    shapes; payloads are never logged).  A line that is not a JSON object
    with exactly ``TracedMessage``'s fields, each fitting its annotation
    (``_from_json``), or that holds a negative round, participant id or
    size or a payload shape entry below 1, raises ``ValueError`` naming
    the path and line."""
    hints = typing.get_type_hints(TracedMessage)
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
            if not isinstance(raw, dict) or raw.keys() != hints.keys():
                raise ValueError(f"{path}:{line_no}: a trace line holds exactly the "
                                 f"fields {', '.join(hints)}")
            fields = {}
            for key, hint in hints.items():
                try:
                    fields[key] = _from_json(raw[key], hint)
                except (TypeError, OverflowError):
                    raise ValueError(f"{path}:{line_no}: bad {key} {raw[key]!r}") from None
            # round, participant_id and nbytes, the int fields, are >= 0
            bad = [key for key, hint in hints.items() if hint is int and fields[key] < 0]
            if fields["payload_shape"] is not None and min(fields["payload_shape"]) < 1:
                bad.append("payload_shape")
            if bad:
                raise ValueError(f"{path}:{line_no}: bad {bad[0]} {raw[bad[0]]!r}")
            records.append(TracedMessage(**fields))
    return records


def write_manifest(config: RunConfig, out_dir, dataset_facts, outputs):
    manifest = asdict(config)
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


def synth_dataset(config: RunConfig):
    """The seeded synthetic dataset the ``synth_*`` fields describe, with
    its planted columns per view."""
    return synth_planted(
        num_participants=len(config.synth_dims),
        num_classes=config.synth_classes,
        num_samples=config.synth_samples,
        dims=config.synth_dims,
        n_informative=config.synth_informative,
        noise=config.synth_noise,
        seed=config.seed)


def obtain_dataset(config: RunConfig):
    """Load the configured CSVs, or fall back to the seeded synthetic."""
    if config.views is not None:
        return load_csv(config.views, config.labels)
    return synth_dataset(config)[0]


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


def warn_unless_converged(converged: bool, config: RunConfig):
    """One stderr line when training stopped at ``outer_max``."""
    if not converged:
        print(f"warning: training stopped at outer_max={config.outer_max} rounds "
              f"before its objective changed by less than outer_tol={config.outer_tol!r}",
              file=sys.stderr)


def warn_unless_baselines_converged(converged: bool):
    """One stderr line when a baseline fit stopped at ``MAX_ITER``."""
    if not converged:
        print(f"warning: a baseline fit stopped at MAX_ITER={baselines.MAX_ITER} steps before "
              f"its objective changed by less than TOL={baselines.TOL!r}", file=sys.stderr)


def run_training_mode(config: RunConfig, out_dir) -> list[str]:
    dataset = obtain_dataset(config)
    labels = one_hot(dataset.labels, dataset.num_classes)
    hyper = training_hyper(config, dataset.num_participants)

    if config.mode == "reference":
        result = run_reference(dataset.views, labels, hyper, config.seed)
        warn_unless_converged(result.converged, config)
        outputs = _write_training_outputs(
            out_dir, result.transforms, result.consensus, result.objectives)
    elif config.mode in ("federated-inproc", "federated-tcp"):
        transport = "in_process" if config.mode == "federated-inproc" else "tcp"
        result = run_federated(
            dataset.views, labels, hyper, config.seed,
            transport=transport, round_timeout=config.round_timeout,
            port=config.transport_port)
        warn_unless_converged(result.converged, config)
        outputs = _write_training_outputs(
            out_dir, [st.transform for st in result.states],
            result.consensus, result.objectives)
        write_message_trace(os.path.join(out_dir, "message_trace.jsonl"), result.trace)
        outputs.append("message_trace.jsonl")
    elif config.mode == "supfl":
        # views train independently, so each gets its own trace file
        outputs, converged = [], True
        for k, view in enumerate(dataset.views):
            transform, trace, view_converged = supfl_solve(view, labels, config.beta)
            converged = converged and view_converged
            name = f"transform_{k + 1}.csv"
            write_matrix_csv(os.path.join(out_dir, name), transform)
            outputs.append(name)
            name = f"objective_trace_{k + 1}.csv"
            write_objective_trace(os.path.join(out_dir, name), trace)
            outputs.append(name)
        warn_unless_baselines_converged(converged)
    else:  # supmvlfl
        transforms, objectives, converged = supmvlfl_solve(dataset.views, labels, config.beta)
        warn_unless_baselines_converged(converged)
        outputs = _write_training_outputs(out_dir, transforms, None, objectives)

    write_manifest(config, out_dir, dataset_facts(dataset), outputs)
    return outputs


def emit_curves(curves, out_dir) -> list[str]:
    """Per-participant accuracy-vs-p curve files from fold-averaged curves
    (``mean_curves``).

    Each file has a ``p`` column plus one accuracy column per method
    found.
    """
    present = sorted({c.method for c in curves}, key=METHODS.index)
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
    rows = run_grid(config.methods, dataset, folds, config.beta_grid, config.p_grid,
                    training_hyper(config, dataset.num_participants), config.seed)
    warn_unless_converged(all(row.converged for row in rows if row.method == "mmvfl"), config)
    warn_unless_baselines_converged(all(row.converged for row in rows if row.method != "mmvfl"))
    write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    curves = mean_curves(select_best(rows))
    outputs = ["results.csv"] + emit_curves(curves, out_dir)

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
    dataset, informative = synth_dataset(config)
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


def read_audit_manifest(trace_path) -> dict:
    """The dataset facts of the run manifest beside a message trace, which
    give the payload shape the audit expects, or ``ConfigError``."""
    manifest_path = os.path.join(os.path.dirname(os.path.abspath(trace_path)),
                                 "run_manifest.json")
    facts = _read_json_object(manifest_path, "manifest").get("dataset")
    if not (isinstance(facts, dict) and all(
            type(facts.get(key)) is int and facts[key] > 0
            for key in ("num_samples", "num_classes"))):
        raise ConfigError(f"manifest {manifest_path}: dataset num_samples and "
                          "num_classes must be positive integers")
    return facts


def run_audit_mode(config: RunConfig, out_dir, facts) -> int:
    trace = read_message_trace(config.trace)
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
        # an audit's manifest is checked before the output dir is made
        facts = read_audit_manifest(config.trace) if config.mode == "audit" else None
        os.makedirs(config.out, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits itself on bad flags or --help/--version
        return int(exc.code or 0)

    try:
        if config.mode == "audit":
            return run_audit_mode(config, config.out, facts)
        runner = {"sweep": run_sweep_mode, "synth": run_synth_mode}.get(
            config.mode, run_training_mode)
        outputs = runner(config, config.out)
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
