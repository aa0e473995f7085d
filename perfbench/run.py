"""End-to-end and per-layer benchmark for mmvfl.

Usage (from the repository root):

    python3 perfbench/run.py --workload hw_reference --seed 0 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single caller runs the
workload back to back, the next iteration starting when the previous one
returns, until ``--seconds`` have passed (at least one iteration).  Inputs
come from ``synth_planted`` at the paper's shapes and depend only on
``--seed``.  Every iteration's outputs are checked; a failed check counts
against ``failed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
untraced iterations.  With ``--trace 1`` untraced and traced iterations
alternate and it carries the per-layer metrics (see ``tracing.py``) plus
the tracing overhead.  BLAS thread settings are left as the user's
environment has them; the effective count is recorded, never set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# Set-up is repeated at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_MIN_SECONDS (at most SETUP_MAX_REPEATS times); its median is reported.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0

# Relative slack before a rising objective trace counts as a failure; the
# same relative form the optimizer's own descent guard uses.
MONOTONE_SLACK = 1e-9

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "selection_quality": "share",
}

PER_LAYER_UNITS = {
    "rounds": "count",
    "wire_bytes": "bytes",
    "final_objective": "objective",
    "planted_recall": "share",
    "sweep_accuracy": "share",
    "numerics.solve_spd.calls": "count",
    "numerics.solve_spd.s": "s",
    "numerics.solve_spd.gflop": "GFLOP",
    "optimizer.gram_matrix.s": "s",
    "optimizer.fit_sparse_transform.calls": "count",
    "optimizer.fit_sparse_transform.s": "s",
    "optimizer.fit_sparse_transform.self_s": "s",
    "optimizer.irls_iters": "count",
    "optimizer.participant_round.self_s": "s",
    "optimizer.aggregate_consensus.s": "s",
    "optimizer.round_objective.s": "s",
    "messages.encode_body.calls": "count",
    "messages.encode_body.s": "s",
    "messages.decode_body.calls": "count",
    "messages.decode_body.s": "s",
    "messages.body_bytes": "bytes",
    "channels.send_bytes.s": "s",
    "channels.recv_wait.coordinator_s": "s",
    "channels.recv_wait.participant_s": "s",
    "coordinator.busy_s": "s",
    "participant.busy_s.max": "s",
    "participant.busy_s.min": "s",
    "participant.idle_share": "share",
    "session.overhead_s": "s",
    "audit.audit_trace.s": "s",
    "data.load_csv.s": "s",
    "data.load_csv.mb_per_s": "MB/s",
    "data.make_folds.s": "s",
    "baselines.supfl_solve.s": "s",
    "baselines.supmvlfl_solve.s": "s",
    "featsel.s": "s",
    "evaluation.classify_eval.calls": "count",
    "evaluation.classify_eval.s": "s",
    "evaluation.run_grid.self_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


def load_program():
    """Import mmvfl from this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "mmvfl")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchmarkError(f"no mmvfl sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mmvfl

    if os.path.dirname(os.path.abspath(mmvfl.__file__)) != package:
        raise BenchmarkError(f"imported mmvfl from {mmvfl.__file__}, not {package}")
    import mmvfl.cli  # noqa: F401  (loads every module the tracer patches)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Shape:
    num_samples: int
    num_classes: int
    dims: tuple[int, ...]
    n_informative: int = 5


# Paper shapes: handwritten (HW) and Caltech-7 (C7).
HW = Shape(2000, 10, (240, 76, 216, 47, 64, 6))
C7 = Shape(1474, 7, (48, 40, 254, 1984, 512, 928))
# Self-test shapes: every code path, in well under a second.
TINY = Shape(60, 3, (12, 8, 6), n_informative=2)
TINY_WIDE = Shape(60, 3, (6, 40), n_informative=2)

BETA = 0.1


def make_data(shape: Shape, seed: int):
    from mmvfl import one_hot, synth_planted

    dataset, planted = synth_planted(
        num_participants=len(shape.dims), num_classes=shape.num_classes,
        num_samples=shape.num_samples, dims=shape.dims,
        n_informative=shape.n_informative, seed=seed)
    return dataset, planted, one_hot(dataset.labels, dataset.num_classes)


def monotone_problem(objectives) -> str | None:
    for index, (previous, current) in enumerate(zip(objectives, objectives[1:]), start=2):
        if current > previous + MONOTONE_SLACK * max(1.0, abs(previous)):
            return f"objective rose at round {index}: {previous!r} -> {current!r}"
    return None


def planted_recall(transforms, planted, top: int) -> float:
    """Share of planted columns among each view's ``top`` largest row
    norms, averaged over views.  Computed with numpy alone, so it does not
    depend on the program's own ranking code."""
    import numpy as np

    shares = []
    for transform, cols in zip(transforms, planted):
        norms = np.sqrt(np.sum(transform * transform, axis=1))
        best = np.argsort(-norms, kind="stable")[:top]
        shares.append(len(set(best.tolist()) & set(cols)) / len(cols))
    return float(sum(shares) / len(shares))


def planted_auc(transforms, planted) -> float:
    """Ranking AUC of planted against noise columns by row norm: the share
    of (planted, noise) pairs the transform ranks the right way round, ties
    counting half, averaged over views that have noise columns.  Unlike the
    top-k recall it does not jump by whole columns from seed to seed."""
    import numpy as np

    aucs = []
    for transform, cols in zip(transforms, planted):
        norms = np.sqrt(np.sum(transform * transform, axis=1))
        mask = np.zeros(norms.size, dtype=bool)
        mask[cols] = True
        if mask.all():
            continue
        diff = norms[mask][:, None] - norms[~mask][None, :]
        aucs.append(float(np.mean((diff > 0) + 0.5 * (diff == 0))))
    return float(sum(aucs) / len(aucs))


class ReferenceFit:
    """``run_reference`` to convergence (or ``outer_max``), then rank and
    select each view's top features."""

    def __init__(self, shape: Shape, outer_max: int = 100):
        self.shape = shape
        self.outer_max = outer_max

    def setup(self, seed, workdir):
        from mmvfl import Hyperparams

        dataset, planted, labels = make_data(self.shape, seed)
        hyper = Hyperparams.uniform(len(self.shape.dims), sparsity=BETA,
                                    outer_max=self.outer_max)
        return {"views": dataset.views, "labels": labels, "planted": planted,
                "hyper": hyper, "seed": seed}

    def run(self, inputs, outdir):
        import mmvfl.featsel as featsel
        import mmvfl.optimizer as optimizer

        result = optimizer.run_reference(inputs["views"], inputs["labels"],
                                         inputs["hyper"], inputs["seed"])
        top = self.shape.n_informative
        selected = [featsel.select_top(featsel.score_features(w), 100.0 * top / w.shape[0])
                    for w in result.transforms]
        return result, selected

    def check(self, inputs, output, outdir):
        result, selected = output
        problems = []
        rise = monotone_problem(result.objectives)
        if rise:
            problems.append(rise)
        top = self.shape.n_informative
        if any(len(s) != top for s in selected):
            problems.append(f"select_top did not return {top} features per view")
        recall = planted_recall(result.transforms, inputs["planted"], top)
        selected_recall = sum(len(set(s.tolist()) & set(cols)) / len(cols)
                              for s, cols in zip(selected, inputs["planted"])) / len(selected)
        if selected_recall != recall:
            problems.append(f"select_top recall {selected_recall} != row-norm recall {recall}")
        figures = {"rounds": len(result.objectives), "wire_bytes": 0,
                   "final_objective": result.objectives[-1], "planted_recall": recall,
                   "sweep_accuracy": 0.0,
                   "selection_quality": planted_auc(result.transforms, inputs["planted"])}
        return problems, figures


class FederatedTcp:
    """``run_federated`` over loopback TCP plus the privacy audit, checked
    bit for bit against a ``run_reference`` made during set-up."""

    def __init__(self, shape: Shape, outer_max: int):
        self.shape = shape
        self.outer_max = outer_max

    def setup(self, seed, workdir):
        from mmvfl import Hyperparams, run_reference

        dataset, planted, labels = make_data(self.shape, seed)
        hyper = Hyperparams.uniform(len(self.shape.dims), sparsity=BETA,
                                    outer_max=self.outer_max)
        reference = run_reference(dataset.views, labels, hyper, seed)
        return {"views": dataset.views, "labels": labels, "planted": planted,
                "hyper": hyper, "seed": seed, "reference": reference}

    def run(self, inputs, outdir):
        import mmvfl.federation.audit as audit
        import mmvfl.federation.session as session

        result = session.run_federated(inputs["views"], inputs["labels"], inputs["hyper"],
                                       inputs["seed"], transport="tcp")
        report = audit.audit_trace(result.trace, self.shape.num_samples,
                                   self.shape.num_classes)
        return result, report

    def check(self, inputs, output, outdir):
        import numpy as np

        result, report = output
        reference = inputs["reference"]
        problems = []
        if not report.ok:
            problems.append(f"privacy audit failed: {report.violations[:3]}")
        transforms = [state.transform for state in result.states]
        if len(transforms) != len(reference.transforms) or not all(
                np.array_equal(a, b) for a, b in zip(transforms, reference.transforms)):
            problems.append("federated transforms differ from the reference")
        if not np.array_equal(result.consensus, reference.consensus):
            problems.append("federated consensus differs from the reference")
        if list(result.objectives) != list(reference.objectives):
            problems.append("federated objective trace differs from the reference")
        rise = monotone_problem(result.objectives)
        if rise:
            problems.append(rise)
        recall = planted_recall(transforms, inputs["planted"], self.shape.n_informative)
        figures = {"rounds": len(result.objectives),
                   "wire_bytes": sum(entry.nbytes for entry in result.trace),
                   "final_objective": result.objectives[-1], "planted_recall": recall,
                   "sweep_accuracy": 0.0,
                   "selection_quality": planted_auc(transforms, inputs["planted"])}
        return problems, figures


class SweepCli:
    """``mmvfl.cli.main --mode sweep`` in-process over CSVs written at
    set-up, with the two baselines only."""

    methods = ("supfl", "supmvlfl")
    folds = 2
    beta_grid = (0.01, 0.1, 1.0)
    p_grid = (2.0, 10.0, 50.0, 100.0)

    def __init__(self, shape: Shape):
        self.shape = shape

    def setup(self, seed, workdir):
        from mmvfl import save_csv

        dataset, _, _ = make_data(self.shape, seed)
        data_dir = os.path.join(workdir, "data")
        os.makedirs(data_dir, exist_ok=True)
        views = [os.path.join(data_dir, f"view_{k + 1}.csv") for k in range(len(self.shape.dims))]
        labels = os.path.join(data_dir, "labels.csv")
        save_csv(dataset, views, labels)
        return {"views": views, "labels": labels, "seed": seed}

    def argv(self, inputs, outdir):
        def join(values):
            return ",".join(format(v, "g") for v in values)

        return ["--mode", "sweep", "--views", ",".join(inputs["views"]),
                "--labels", inputs["labels"], "--methods", ",".join(self.methods),
                "--folds", str(self.folds), "--beta-grid", join(self.beta_grid),
                "--p-grid", join(self.p_grid), "--seed", str(inputs["seed"]),
                "--out", outdir]

    def run(self, inputs, outdir):
        import mmvfl.cli as cli

        argv = self.argv(inputs, outdir)
        # the CLI reports to stdout; keep stdout for the benchmark's result
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(argv)

    def check(self, inputs, code, outdir):
        problems = []
        if code != 0:
            problems.append(f"sweep exited with code {code}")
            return problems, {}
        path = os.path.join(outdir, "results.csv")
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        expected = (self.folds * len(self.beta_grid) * len(self.shape.dims)
                    * len(self.p_grid) * len(self.methods))
        if len(rows) != expected:
            problems.append(f"results.csv holds {len(rows)} rows, expected {expected}")
        # best beta per (method, view, p, fold), averaged over folds, then
        # over methods, views and p
        best: dict = {}
        for row in rows:
            key = (row["method"], row["participant"], float(row["p"]), row["fold"])
            best[key] = max(best.get(key, 0.0), float(row["accuracy"]))
        curves: dict = {}
        for (method, view, p, _), accuracy in best.items():
            curves.setdefault((method, view, p), []).append(accuracy)
        means = [sum(v) / len(v) for v in curves.values()]
        accuracy = sum(means) / len(means) if means else 0.0
        figures = {"rounds": 0, "wire_bytes": 0, "final_objective": 0.0,
                   "planted_recall": 0.0, "sweep_accuracy": accuracy,
                   "selection_quality": accuracy}
        return problems, figures


WORKLOADS = {
    "hw_reference": {"paper": lambda: ReferenceFit(HW), "tiny": lambda: ReferenceFit(TINY)},
    "hw_federated_tcp": {"paper": lambda: FederatedTcp(HW, outer_max=5),
                         "tiny": lambda: FederatedTcp(TINY, outer_max=3)},
    "c7_reference": {"paper": lambda: ReferenceFit(C7, outer_max=3),
                     "tiny": lambda: ReferenceFit(TINY_WIDE, outer_max=3)},
    "hw_sweep_cli": {"paper": lambda: SweepCli(HW), "tiny": lambda: SweepCli(TINY)},
}


# ---------------------------------------------------------------------------
# Environment


def _openblas_libraries():
    """Paths of the OpenBLAS builds loaded into this process (numpy and
    scipy each bundle one)."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _blas_symbol(lib, stem):
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                 f"openblas_{stem}64_", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    blas = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        get_threads = _blas_symbol(lib, "get_num_threads")
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            entry["threads"] = get_threads()
        get_config = _blas_symbol(lib, "get_config")
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            entry["config"] = get_config().decode("utf-8", "replace").strip()
        blas.append(entry)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


# ---------------------------------------------------------------------------
# Measurement


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs one workload's set-up, measured loop and checks."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.figures: dict = {}

    def setup(self) -> list[float]:
        times = []
        while (len(times) < SETUP_MIN_REPEATS
               or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
            self.inputs = None
            start = time.perf_counter()
            self.inputs = self.workload.setup(self.seed, self.workdir)
            times.append(time.perf_counter() - start)
        return times

    def iterate(self) -> float:
        """One timed workload call plus its (untimed) checks; returns the
        wall time."""
        outdir = os.path.join(self.workdir, f"out_{self.attempted}")
        self.attempted += 1
        output = None
        start = time.perf_counter()
        try:
            output = self.workload.run(self.inputs, outdir)
        except Exception:  # noqa: BLE001 - a failing call is a counted failure
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        try:
            if output is None:
                problems = ["workload raised"]
            else:
                problems, self.figures = self.workload.check(self.inputs, output, outdir)
        except Exception:  # noqa: BLE001 - a crashing check is a failed check
            traceback.print_exc(file=sys.stderr)
            problems = ["check raised"]
        output = None
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
        return wall


def median_or_exact(values):
    """The value itself when every sample agrees (counts stay integers),
    else the median."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "paper"):
    """Run one workload; returns ``(result, details)`` where ``result`` is
    the object printed last and ``details`` the human-readable extras."""
    workload = WORKLOADS[name][scale]()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        runner = Runner(workload, seed, workdir)
        setup_times = runner.setup()
        walls, traced_walls, layers = [], [], []
        tracer = None
        start = time.perf_counter()
        while True:
            walls.append(runner.iterate())
            if trace:
                tracer = Tracer()
                with tracer.installed():
                    traced_walls.append(runner.iterate())
                layers.append(layer_metrics(tracer.spans))
            if time.perf_counter() - start >= seconds:
                break
        details = {"setup_s": setup_times, "wall_s": walls, "figures": runner.figures}
        if trace:
            details["traced_wall_s"] = traced_walls
            spans_path = os.path.join(WORK_ROOT, f"spans-{name}-seed{seed}.jsonl")
            tracer.write(spans_path, workload=name, seed=seed)
            details["spans"] = spans_path
            metrics = {key: median_or_exact([m[key] for m in layers]) for key in layers[0]}
            metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                           - statistics.median(walls))
            for key in ("rounds", "wire_bytes", "final_objective", "planted_recall",
                        "sweep_accuracy"):
                metrics[key] = runner.figures.get(key, 0)
            units = PER_LAYER_UNITS
        else:
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb(),
                "selection_quality": runner.figures.get("selection_quality", 0.0),
            }
            units = END_TO_END_UNITS
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()},
        }
        details["error_rate"] = runner.failed / runner.attempted
        return result, details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="problem shapes: the paper's, or tiny ones for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        load_program()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.scale)
    # recorded after measuring, so the git subprocess cannot disturb it
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} iterations, {result['failed']} failed, "
          f"error_rate {details['error_rate']:.6g}")
    for key in ("setup_s", "wall_s", "traced_wall_s"):
        if key in details:
            print(f"  {key} samples: " + " ".join(f"{v:.4f}" for v in details[key]))
    for key, value in sorted(details["figures"].items()):
        print(f"  {key} = {value!r}")
    if "spans" in details:
        print(f"  spans written to {os.path.relpath(details['spans'], ROOT)}")
    for key, entry in result["metrics"].items():
        print(f"  {key} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
