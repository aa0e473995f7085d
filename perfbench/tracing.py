"""Span tracing from outside the program.

The traced run replaces functions on the module attributes where the
program *looks them up* (``mmvfl.optimizer.solve_spd`` rather than only
``mmvfl.numerics.solve_spd``, since ``from .numerics import solve_spd``
binds a second name) with wrappers that record one span per call: name,
start, end, thread id, parent span and an optional size figure (flops,
bytes).  Spans stay in memory until the benchmark writes them out.

Nothing here edits the program's source.  A target the program no longer
has is skipped with a warning, so a refactor leaves the per-layer figure
at 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    size: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_flops(args, kwargs, result):
    """Nominal flops of one SPD solve: Cholesky d^3/3 plus forward and
    back substitution 2 d^2 c.  Computed from shapes, so refinement
    steps inside the solver are not counted."""
    a = args[0] if args else kwargs["a"]
    d = a.shape[0]
    c = result.shape[1] if result.ndim == 2 else 1
    return d ** 3 / 3.0 + 2.0 * d * d * c


def _result_len(args, kwargs, result):
    return float(len(result))


def _csv_bytes(args, kwargs, result):
    views = args[0] if args else kwargs["view_paths"]
    labels = args[1] if len(args) > 1 else kwargs["label_path"]
    return float(sum(os.path.getsize(p) for p in list(views) + [labels]))


# (module, attribute, span name, size function).  A module entry may name a
# class inside the module as "module:Class" to patch a method.
TARGETS = [
    # numerics, where the optimizer and the baselines look the solver up
    ("mmvfl.optimizer", "solve_spd", "numerics.solve_spd", _solve_flops),
    # optimizer
    ("mmvfl.optimizer", "gram_matrix", "optimizer.gram_matrix", None),
    ("mmvfl.baselines", "gram_matrix", "optimizer.gram_matrix", None),
    ("mmvfl.optimizer", "irls_diagonal", "optimizer.irls_diagonal", None),
    ("mmvfl.baselines", "irls_diagonal", "optimizer.irls_diagonal", None),
    ("mmvfl.optimizer", "fit_sparse_transform", "optimizer.fit_sparse_transform", None),
    ("mmvfl.baselines", "fit_sparse_transform", "optimizer.fit_sparse_transform", None),
    ("mmvfl.optimizer", "participant_round", "optimizer.participant_round", None),
    ("mmvfl.federation.participant", "participant_round", "optimizer.participant_round", None),
    ("mmvfl.optimizer", "aggregate_consensus", "optimizer.aggregate_consensus", None),
    ("mmvfl.federation.coordinator", "aggregate_consensus", "optimizer.aggregate_consensus", None),
    ("mmvfl.optimizer", "round_objective", "optimizer.round_objective", None),
    ("mmvfl.federation.coordinator", "round_objective", "optimizer.round_objective", None),
    ("mmvfl.optimizer", "run_reference", "optimizer.run_reference", None),
    # federation
    ("mmvfl.federation.channels", "encode_body", "messages.encode_body", _result_len),
    ("mmvfl.federation.channels", "decode_body", "messages.decode_body", None),
    ("mmvfl.federation.channels:TcpChannel", "send_bytes", "channels.send_bytes", None),
    ("mmvfl.federation.channels:InProcessChannel", "send_bytes", "channels.send_bytes", None),
    ("mmvfl.federation.channels:TcpChannel", "recv_bytes", "channels.recv_bytes", None),
    ("mmvfl.federation.channels:InProcessChannel", "recv_bytes", "channels.recv_bytes", None),
    ("mmvfl.federation.session", "coordinator_run", "coordinator.coordinator_run", None),
    ("mmvfl.federation.session", "participant_run", "participant.participant_run", None),
    ("mmvfl.federation.session", "run_federated", "session.run_federated", None),
    ("mmvfl.federation.audit", "audit_trace", "audit.audit_trace", None),
    # sweep path
    ("mmvfl.cli", "load_csv", "data.load_csv", _csv_bytes),
    ("mmvfl.cli", "make_folds", "data.make_folds", None),
    ("mmvfl.evaluation", "supfl_solve", "baselines.supfl_solve", None),
    ("mmvfl.evaluation", "supmvlfl_solve", "baselines.supmvlfl_solve", None),
    ("mmvfl.evaluation", "score_features", "featsel.score_features", None),
    ("mmvfl.evaluation", "select_top", "featsel.select_top", None),
    ("mmvfl.featsel", "score_features", "featsel.score_features", None),
    ("mmvfl.featsel", "select_top", "featsel.select_top", None),
    ("mmvfl.evaluation", "classify_eval", "evaluation.classify_eval", None),
    ("mmvfl.cli", "run_grid", "evaluation.run_grid", None),
    ("mmvfl.cli", "write_results_csv", "cli.write_results_csv", None),
    ("mmvfl.cli", "emit_curves", "cli.emit_curves", None),
    ("mmvfl.cli", "write_manifest", "cli.write_manifest", None),
    ("mmvfl.cli", "version_string", "cli.version_string", None),
    ("mmvfl.cli", "main", "cli.main", None),
]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans from wrapped calls; ``installed()`` patches and
    restores the targets around a block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                figure = size(args, kwargs, result) if size and result is not None else None
                self.spans.append(Span(span_id, parent, name, start, end,
                                       threading.get_ident(), figure))
        return traced

    def installed(self):
        return _Installed(self)

    def write(self, path, **fields):
        """Write every span as one JSON line, with ``fields`` added."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = asdict(span)
                record.update(fields)
                handle.write(json.dumps(record) + "\n")


class _Installed:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._saved = []

    def __enter__(self):
        for target, attr, name, size in TARGETS:
            try:
                owner = _resolve(target)
            except (ImportError, AttributeError):
                owner = None
            original = None
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
            elif owner is not None:
                original = getattr(owner, attr, None)
            if original is None:
                print(f"perfbench: {target}.{attr} not found; span {name} not recorded",
                      file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._tracer.wrap(name, original, size))
        return self._tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# From spans to per-layer figures


class SpanIndex:
    """Spans of one traced iteration, indexed for the layer figures."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def total(self, *names) -> float:
        return sum(s.duration for n in names for s in self.by_name[n])

    def size(self, name) -> float:
        return sum(s.size or 0.0 for s in self.by_name[name])

    def self_time(self, name) -> float:
        """Duration minus the part covered by direct child spans."""
        return sum(s.duration - sum(c.duration for c in self.children[s.span_id])
                   for s in self.by_name[name])

    def enclosing(self, span: Span, names) -> str | None:
        """Name of the nearest ancestor span whose name is in ``names``."""
        while span.parent is not None and span.parent in self.by_id:
            span = self.by_id[span.parent]
            if span.name in names:
                return span.name
        return None

    def descendants(self, span: Span, name: str):
        for child in self.children[span.span_id]:
            if child.name == name:
                yield child
            yield from self.descendants(child, name)

    def outermost(self, names) -> float:
        """Total time of spans named in ``names`` not nested in another."""
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span.name in names:
                parent = self.by_id.get(span.parent)
                if parent is None or parent.name not in names:
                    total += span.duration
        return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced iteration (units in ``perfbench/run.py``)."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    m["numerics.solve_spd.calls"] = ix.calls("numerics.solve_spd")
    m["numerics.solve_spd.s"] = ix.total("numerics.solve_spd")
    m["numerics.solve_spd.gflop"] = ix.size("numerics.solve_spd") / 1e9

    m["optimizer.gram_matrix.s"] = ix.total("optimizer.gram_matrix")
    m["optimizer.fit_sparse_transform.calls"] = ix.calls("optimizer.fit_sparse_transform")
    m["optimizer.fit_sparse_transform.s"] = ix.total("optimizer.fit_sparse_transform")
    m["optimizer.fit_sparse_transform.self_s"] = ix.self_time("optimizer.fit_sparse_transform")
    m["optimizer.irls_iters"] = sum(
        1 for s in ix.by_name["numerics.solve_spd"]
        if s.parent in ix.by_id and ix.by_id[s.parent].name == "optimizer.fit_sparse_transform")
    m["optimizer.participant_round.self_s"] = ix.self_time("optimizer.participant_round")
    m["optimizer.aggregate_consensus.s"] = ix.total("optimizer.aggregate_consensus")
    m["optimizer.round_objective.s"] = ix.total("optimizer.round_objective")

    m["messages.encode_body.calls"] = ix.calls("messages.encode_body")
    m["messages.encode_body.s"] = ix.total("messages.encode_body")
    m["messages.decode_body.calls"] = ix.calls("messages.decode_body")
    m["messages.decode_body.s"] = ix.total("messages.decode_body")
    m["messages.body_bytes"] = ix.size("messages.encode_body")
    m["channels.send_bytes.s"] = ix.total("channels.send_bytes")

    # A receive is charged to the actor span it runs under: the coordinator
    # runs in the caller's thread, each participant in a thread of its own.
    wait = {"coordinator.coordinator_run": 0.0, "participant.participant_run": 0.0}
    for span in ix.by_name["channels.recv_bytes"]:
        group = ix.enclosing(span, wait)
        if group is not None:
            wait[group] += span.duration
    m["channels.recv_wait.coordinator_s"] = wait["coordinator.coordinator_run"]
    m["channels.recv_wait.participant_s"] = wait["participant.participant_run"]
    m["coordinator.busy_s"] = (ix.total("coordinator.coordinator_run")
                               - wait["coordinator.coordinator_run"])
    busy = [s.duration - sum(r.duration for r in ix.descendants(s, "channels.recv_bytes"))
            for s in ix.by_name["participant.participant_run"]]
    m["participant.busy_s.max"] = max(busy, default=0.0)
    m["participant.busy_s.min"] = min(busy, default=0.0)
    lived = ix.total("participant.participant_run")
    m["participant.idle_share"] = wait["participant.participant_run"] / lived if lived else 0.0
    m["session.overhead_s"] = (ix.total("session.run_federated")
                               - ix.total("coordinator.coordinator_run"))
    m["audit.audit_trace.s"] = ix.total("audit.audit_trace")

    load_s = ix.total("data.load_csv")
    m["data.load_csv.s"] = load_s
    m["data.load_csv.mb_per_s"] = ix.size("data.load_csv") / 1e6 / load_s if load_s else 0.0
    m["data.make_folds.s"] = ix.total("data.make_folds")
    m["baselines.supfl_solve.s"] = ix.total("baselines.supfl_solve")
    m["baselines.supmvlfl_solve.s"] = ix.total("baselines.supmvlfl_solve")
    m["featsel.s"] = ix.total("featsel.score_features", "featsel.select_top")
    m["evaluation.classify_eval.calls"] = ix.calls("evaluation.classify_eval")
    m["evaluation.classify_eval.s"] = ix.total("evaluation.classify_eval")
    m["evaluation.run_grid.self_s"] = ix.self_time("evaluation.run_grid")
    m["cli.write_s"] = ix.outermost(("cli.write_results_csv", "cli.emit_curves",
                                     "cli.write_manifest", "cli.version_string"))
    return m
