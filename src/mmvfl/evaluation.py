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
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .baselines import _fit_blocks
from .data import FoldPlan, MultiViewDataset
from .featsel import check_percent, score_features, select_top
from .numerics import (
    NotPositiveDefiniteError,
    _cholesky_factor_in_place,
    _cholesky_solve,
    _dpocon,
    check_seed,
    derive_seed,
    single_blas_thread,
)
from .optimizer import (Hyperparams, ProblemShape, _new_state, check_weight, gram_matrix,
                        one_hot, train_states)

METHODS = ("mmvfl", "supfl", "supmvlfl")

RESULT_FIELDS = ("method", "participant", "p", "fold", "beta", "accuracy")


class DegenerateInputError(Exception):
    """The classifier was handed an empty feature set."""


class GridMismatchError(Exception):
    """Two result sets do not cover the same participants and p grid."""


@dataclass(frozen=True)
class ExperimentResult:
    """Accuracy of one (method, participant, p, fold, beta) cell; ``converged``
    (never written out) is False when the cell's training stopped at its
    iteration limit: ``outer_max`` for ``mmvfl``, the baselines' ``MAX_ITER``
    for any of a ``supfl`` cell's per-view fits or a ``supmvlfl`` cell's
    joint fit."""

    method: str
    participant: int
    p: float
    fold: int
    beta: float
    accuracy: float
    converged: bool


# A cell's Gram is solved by Cholesky only while LAPACK's estimate of its
# reciprocal condition number (1-norm, ``dpocon``) is at least this; below
# it, or when the factorization fails, the cell falls back to ``lstsq`` on
# the explicit design, which gives the min-norm fit of a rank-deficient one.
MIN_RCOND = 1e-10


def _cholesky_coef(gram, rhs):
    """Solve ``gram @ coef = rhs`` by Cholesky, or return None when
    ``gram`` is not positive definite or its condition estimate is below
    ``MIN_RCOND``.  ``gram`` is overwritten."""
    anorm = float(np.abs(gram).sum(axis=0).max())
    # gram is symmetric, so its transpose is the Fortran-order matrix LAPACK
    # can factor in place
    factor = gram.T
    try:
        _cholesky_factor_in_place(factor)
    except NotPositiveDefiniteError:
        return None
    rcond, info = _dpocon(factor, anorm)
    if info != 0 or not rcond >= MIN_RCOND:
        return None
    return _cholesky_solve(factor, rhs)


class _SplitScorer:
    """Least-squares classifier accuracy for column subsets of one
    train/validation split.

    The labels are checked once.  The scorer keeps ``xtx`` = XᵀX (from
    ``gram_matrix``), the column sums and n, which border it into the
    Gram of the training design ``[X 1]``, and ``[X 1]ᵀY`` for the
    one-hot targets Y, so each subset costs a bordered principal
    submatrix, a Cholesky solve and the validation scores; no design
    matrix, nor a second d×d array, is built unless the solve falls back
    to ``lstsq``.  ``xtx`` and ``moments[:-1]`` = XᵀY are the training
    block the baselines fit on.
    """

    def __init__(self, train_features, train_labels, val_features, val_labels):
        train_features = np.asarray(train_features, dtype=np.float64)
        val_features = np.asarray(val_features, dtype=np.float64)
        if train_features.ndim != 2 or val_features.ndim != 2:
            raise ValueError("feature blocks must be 2-D")
        if train_features.shape[1] != val_features.shape[1]:
            raise ValueError("train and validation features have different columns")
        train_labels = np.asarray(train_labels)
        val_labels = np.asarray(val_labels)
        num_classes = int(max(train_labels.max(), val_labels.max())) + 1
        present = np.bincount(train_labels, minlength=num_classes)
        if np.any(present == 0):
            raise ValueError("every class needs at least one training sample")

        self.train = train_features
        self.val = val_features
        self.val_labels = val_labels
        self.targets = one_hot(train_labels, num_classes)
        self.xtx = gram_matrix(train_features)
        self.sums = train_features.sum(axis=0)
        # X^T Y as (Y^T X)^T, the operand order OpenBLAS runs fast
        self.moments = np.vstack([(self.targets.T @ train_features).T,
                                  self.targets.sum(axis=0)])

    def accuracy(self, columns) -> float:
        """Validation accuracy of the fit on the given feature columns.

        Prediction is the argmax over class scores; ties resolve to the
        lowest class index.
        """
        columns = np.asarray(columns, dtype=np.intp)
        if columns.size == 0:
            raise DegenerateInputError("no features selected")
        m = columns.size
        gram = np.empty((m + 1, m + 1))
        gram[:m, :m] = self.xtx[np.ix_(columns, columns)]
        gram[:m, m] = gram[m, :m] = self.sums[columns]
        gram[m, m] = len(self.train)
        coef = _cholesky_coef(gram, self.moments[np.append(columns, -1)])
        if coef is None:
            design = np.hstack([self.train[:, columns], np.ones((len(self.train), 1))])
            coef, *_ = np.linalg.lstsq(design, self.targets, rcond=None)
        scores = self.val[:, columns] @ coef[:-1] + coef[-1]
        predictions = np.argmax(scores, axis=1)
        return float(np.mean(predictions == self.val_labels))


@single_blas_thread()
def run_grid(methods, dataset: MultiViewDataset, folds: FoldPlan, beta_grid, p_grid,
             hyper: Hyperparams, seed=0) -> list[ExperimentResult]:
    """Evaluate every method over every (fold, beta, participant, p) cell.

    Each cell trains on the fold's training split with ``hyper``, every
    sparsity weight set to beta; features are ranked per participant, the
    top p percent kept, and those columns scored on the validation split
    by ``_SplitScorer``, the least-squares classifier built once per
    (fold, participant) and shared by every method.  Its XᵀX and XᵀY are
    the only training blocks the baselines use: ``supfl`` fits each view
    alone and ``supmvlfl`` all views jointly, by the fit behind
    ``supfl_solve`` and ``supmvlfl_solve`` with its stopping rule;
    ``mmvfl`` by ``train_states`` on states over the scorers' blocks,
    participant 0 getting the labels, seeded ``derive_seed(seed, fold,
    beta_index)``.  Each
    fit factors the XᵀX it is lent in place and restores it bit for bit.
    Each beta is read through ``check_weight`` and each p through
    ``check_percent`` before any fit.  Returns one ``ExperimentResult``
    per cell, method by method in ``methods`` order.  BLAS runs on one
    thread throughout.
    """
    methods = tuple(methods)
    if not methods or any(m not in METHODS for m in methods):
        raise ValueError(f"methods must be drawn from {METHODS}, got {methods!r}")
    beta_grid = [check_weight(beta) for beta in beta_grid]
    p_grid = [check_percent(p) for p in p_grid]
    if not beta_grid or not p_grid:
        raise ValueError("beta_grid and p_grid must be non-empty")
    seed = check_seed(seed)
    num_participants = dataset.num_participants
    if "mmvfl" in methods:
        ProblemShape(num_participants, dataset.num_classes, dataset.num_samples)
    cells = [replace(hyper, sparsity=(beta,) * num_participants) for beta in beta_grid]

    results: list[list[ExperimentResult]] = [[] for _ in methods]
    for fold in range(folds.num_folds):
        train = dataset.restrict(folds.train_indices(fold))
        val = dataset.restrict(folds.val_indices(fold))
        scorers = [_SplitScorer(train.views[k], train.labels, val.views[k], val.labels)
                   for k in range(num_participants)]
        xtxs = [scorer.xtx for scorer in scorers]
        xtys = [scorer.moments[:-1] for scorer in scorers]
        # ||Y||_F^2 of the one-hot training labels
        n = float(train.num_samples)
        for rows, method in zip(results, methods):
            for beta_index, (beta, cell) in enumerate(zip(beta_grid, cells)):
                if method == "mmvfl":
                    cell_seed = derive_seed(seed, fold, beta_index)
                    # every scorer holds the same one-hot training labels
                    trained = train_states([
                        _new_state(k, sc.train, sc.xtx, sc.targets.shape[1], cell_seed,
                                   None if k else sc.targets)
                        for k, sc in enumerate(scorers)], cell, cell_seed)
                    transforms, converged = trained.transforms, trained.converged
                elif method == "supfl":
                    fits = [_fit_blocks([xtx], [xty], n, beta)
                            for xtx, xty in zip(xtxs, xtys)]
                    transforms = [fit[0][0] for fit in fits]
                    converged = all(fit[2] for fit in fits)
                else:
                    transforms, _, converged = _fit_blocks(xtxs, xtys, n, beta)
                for k, transform in enumerate(transforms):
                    ranking = score_features(transform)
                    for p in p_grid:
                        rows.append(ExperimentResult(
                            method=method, participant=k, p=p, fold=fold, beta=beta,
                            accuracy=scorers[k].accuracy(select_top(ranking, p)),
                            converged=converged))
        # free this fold's views before the next fold's split is built
        del train, val, scorers, xtxs, xtys
    return [row for rows in results for row in rows]


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
