"""Validation protocol: fold-wise accuracy grids and comparison tables.

Selected-feature quality is measured with a deliberately simple
classifier (a least-squares linear map onto one-hot targets with argmax
decoding) so accuracy differences reflect the selected features, not
classifier tuning.  The grid runner records one row per
(method, participant, p, fold, sparsity-weight) cell; reductions pick
the best weight per fold and average over folds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .baselines import supfl_solve, supmvlfl_solve
from .data import FoldPlan, MultiViewDataset
from .featsel import score_features, select_top
from .numerics import check_seed, derive_seed, single_blas_thread
from .optimizer import Hyperparams, one_hot, run_reference

METHODS = ("mmvfl", "supfl", "supmvlfl")

RESULT_FIELDS = ("method", "participant", "p", "fold", "beta", "accuracy")


class DegenerateInputError(Exception):
    """The classifier was handed an empty feature set."""


class GridMismatchError(Exception):
    """Two result sets do not cover the same participants and p grid."""


@dataclass(frozen=True)
class ExperimentResult:
    """Accuracy of one (method, participant, p, fold, beta) cell."""

    method: str
    participant: int
    p: float
    fold: int
    beta: float
    accuracy: float


def classify_eval(train_features, train_labels, val_features, val_labels) -> float:
    """Validation accuracy of a least-squares map onto one-hot targets.

    Prediction is the argmax over class scores; ties resolve to the
    lowest class index.  Every class must appear in the training labels.
    """
    train_features = np.asarray(train_features, dtype=np.float64)
    val_features = np.asarray(val_features, dtype=np.float64)
    if train_features.ndim != 2 or val_features.ndim != 2:
        raise ValueError("feature blocks must be 2-D")
    if train_features.shape[1] == 0:
        raise DegenerateInputError("no features selected")
    train_labels = np.asarray(train_labels)
    val_labels = np.asarray(val_labels)
    num_classes = int(max(train_labels.max(), val_labels.max())) + 1
    present = np.bincount(train_labels, minlength=num_classes)
    if np.any(present == 0):
        raise ValueError("every class needs at least one training sample")

    targets = one_hot(train_labels, num_classes)
    design = np.hstack([train_features, np.ones((train_features.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    val_design = np.hstack([val_features, np.ones((val_features.shape[0], 1))])
    scores = val_design @ coef
    predictions = np.argmax(scores, axis=1)
    return float(np.mean(predictions == val_labels))


def _fit_transforms(method: str, train: MultiViewDataset, beta: float,
                    hyper_kwargs: dict, seed: int):
    """Train one method on the training split; returns per-view transforms."""
    labels = one_hot(train.labels, train.num_classes)
    if method == "mmvfl":
        hyper = Hyperparams.uniform(train.num_participants, sparsity=beta, **hyper_kwargs)
        return run_reference(train.views, labels, hyper, seed).transforms
    eps = hyper_kwargs.get("eps", 1e-6)
    tol = hyper_kwargs.get("inner_tol", 1e-6)
    max_iter = hyper_kwargs.get("inner_max", 50)
    if method == "supfl":
        return [supfl_solve(v, labels, beta, eps=eps, tol=tol, max_iter=max_iter)[0]
                for v in train.views]
    if method == "supmvlfl":
        return supmvlfl_solve(train.views, labels, beta, eps=eps, tol=tol,
                              max_iter=max_iter)[0]
    raise ValueError(f"unknown method {method!r}")


@single_blas_thread()
def run_grid(method: str, dataset: MultiViewDataset, folds: FoldPlan,
             beta_grid, p_grid, *, consensus_penalty: float = 1000.0,
             label_penalty: float = 1000.0, seed=0,
             hyper_kwargs: dict | None = None) -> list[ExperimentResult]:
    """Evaluate one method over every (fold, beta, participant, p) cell.

    Per cell the method is trained on the fold's training split, features
    are ranked per participant, the top p percent are kept, and the
    selected columns are scored with ``classify_eval`` on the validation
    split.  Returns one ``ExperimentResult`` per cell.  BLAS runs on one
    thread throughout.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    beta_grid = [float(b) for b in beta_grid]
    p_grid = [float(p) for p in p_grid]
    if not beta_grid or not p_grid:
        raise ValueError("beta_grid and p_grid must be non-empty")
    seed = check_seed(seed)
    kwargs = dict(hyper_kwargs or {})
    if method == "mmvfl":
        kwargs.setdefault("consensus_penalty", consensus_penalty)
        kwargs.setdefault("label_penalty", label_penalty)

    results = []
    for fold in range(folds.num_folds):
        train_idx = folds.train_indices(fold)
        val_idx = folds.val_indices(fold)
        train = dataset.restrict(train_idx)
        val = dataset.restrict(val_idx)
        for beta_index, beta in enumerate(beta_grid):
            run_seed = derive_seed(seed, fold, beta_index)
            transforms = _fit_transforms(method, train, beta, kwargs, run_seed)
            for k, transform in enumerate(transforms):
                ranking = score_features(transform)
                for p in p_grid:
                    selected = select_top(ranking, p)
                    accuracy = classify_eval(
                        train.views[k][:, selected], train.labels,
                        val.views[k][:, selected], val.labels)
                    results.append(ExperimentResult(
                        method=method, participant=k, p=p, fold=fold,
                        beta=beta, accuracy=accuracy))
    return results


def select_best(results) -> list[ExperimentResult]:
    """Best sparsity weight per (method, participant, p, fold).

    Ties keep the entry that appeared first, i.e. the smallest weight in
    grid order.
    """
    best: dict = {}
    for row in results:
        key = (row.method, row.participant, row.p, row.fold)
        current = best.get(key)
        if current is None or row.accuracy > current.accuracy:
            best[key] = row
    return [best[key] for key in sorted(best)]


@dataclass(frozen=True)
class MeanAccuracy:
    """Fold-averaged accuracy of one (method, participant, p) point."""

    method: str
    participant: int
    p: float
    accuracy: float


def mean_curves(best_results) -> list[MeanAccuracy]:
    """Average the per-fold best accuracies over folds."""
    grouped: dict = {}
    for row in best_results:
        grouped.setdefault((row.method, row.participant, row.p), []).append(row.accuracy)
    return [
        MeanAccuracy(method=m, participant=k, p=p,
                     accuracy=float(np.mean(values)))
        for (m, k, p), values in sorted(grouped.items())
    ]


@dataclass(frozen=True)
class DiffTable:
    """Per-participant accuracy difference, mean over the p grid, in
    percentage points, plus the cross-participant average."""

    participants: tuple[int, ...]
    differences: tuple[float, ...]
    average: float


def diff_table(curves_a, curves_b) -> DiffTable:
    """Accuracy difference table between two fold-averaged curves.

    Both inputs must cover the same (participant, p) grid.  Entry k is
    the mean over p of (accuracy_a - accuracy_b) for participant k,
    scaled to percentage points.
    """
    a = {(c.participant, c.p): c.accuracy for c in curves_a}
    b = {(c.participant, c.p): c.accuracy for c in curves_b}
    if set(a) != set(b):
        raise GridMismatchError("result sets cover different (participant, p) grids")
    if not a:
        raise GridMismatchError("empty result sets")
    participants = sorted({k for k, _ in a})
    differences = []
    for k in participants:
        deltas = [(a[key] - b[key]) * 100.0 for key in sorted(a) if key[0] == k]
        differences.append(float(np.mean(deltas)))
    average = float(np.mean(differences))
    return DiffTable(participants=tuple(participants),
                     differences=tuple(differences), average=average)


def format_cell(value: float) -> str:
    """Render a percentage-point value with two decimals.

    Floating-point noise is flushed at the ninth decimal first, then the
    result is rounded half away from zero, matching how such tables are
    conventionally typeset.
    """
    flushed = Decimal(repr(round(float(value), 9)))
    return str(flushed.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_diff_table(table: DiffTable) -> str:
    """One CSV-ish line per table: participant cells then the average."""
    cells = [format_cell(v) for v in table.differences]
    cells.append(format_cell(table.average))
    header = [f"participant_{k + 1}" for k in table.participants] + ["average"]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


def write_results_csv(results, path):
    """Persist experiment rows as method,participant,p,fold,beta,accuracy."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULT_FIELDS)
        for row in results:
            writer.writerow([
                row.method, row.participant,
                format(row.p, ".17g"), row.fold,
                format(row.beta, ".17g"), format(row.accuracy, ".17g"),
            ])


def read_results_csv(path) -> list[ExperimentResult]:
    """Load experiment rows written by ``write_results_csv``."""
    results = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RESULT_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(RESULT_FIELDS)}")
        for record in reader:
            results.append(ExperimentResult(
                method=record["method"],
                participant=int(record["participant"]),
                p=float(record["p"]),
                fold=int(record["fold"]),
                beta=float(record["beta"]),
                accuracy=float(record["accuracy"]),
            ))
    return results
