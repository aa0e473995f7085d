"""Multi-view dataset loading, fold planning, and synthetic generation.

On disk a dataset is one headerless CSV per view (rows are samples,
columns are that view's features) plus a label file with one integer
class index per line.  All views must agree on the number of rows and
row order; values are written with 17 significant digits so a
load/save/load round trip is bit-exact.  Views are read and written by
numpy's C tokenizer and formatter; the Python line parser runs only
when the tokenizer refuses a file, to name the bad row and column.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import check_seed, ensure_matrix

FLOAT_FORMAT = ".17g"

# numpy's float parser strips these ASCII separators as whitespace around
# a cell, float() does not; a view holding one goes to the line parser
_FLOAT_REJECTS_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class ParseError(Exception):
    """A cell failed to parse; carries 1-based row/column location."""

    def __init__(self, path, row, col, detail):
        self.path = str(path)
        self.row = row
        self.col = col
        super().__init__(f"{path}: row {row}, column {col}: {detail}")


class RowCountMismatchError(Exception):
    """A view's row count disagrees with the label file."""

    def __init__(self, path, rows, expected):
        self.path = str(path)
        super().__init__(f"{path}: {rows} rows, expected {expected}")


class ClassTooSmallError(Exception):
    """A class has fewer samples than the requested fold count."""


@dataclass
class MultiViewDataset:
    """Per-participant feature blocks over one shared sample axis."""

    views: list[np.ndarray]
    labels: np.ndarray

    def __post_init__(self):
        self.views = [ensure_matrix(v, f"views[{k}]") for k, v in enumerate(self.views)]
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if np.any(labels < 0):
            raise ValueError("labels must be nonnegative")
        self.labels = labels.astype(np.int64)
        if not self.views:
            raise ValueError("need at least one view")
        n = self.views[0].shape[0]
        for k, view in enumerate(self.views):
            if view.shape[0] != n:
                raise ValueError(f"view {k} has {view.shape[0]} rows, expected {n}")
        if self.labels.shape[0] != n:
            raise ValueError("label count must match sample count")

    @property
    def num_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def num_participants(self) -> int:
        return len(self.views)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.views)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def restrict(self, indices) -> "MultiViewDataset":
        """Row subset across every view, keeping label alignment."""
        indices = np.asarray(indices)
        return MultiViewDataset(
            views=[v[indices] for v in self.views],
            labels=self.labels[indices],
        )


def _parse_view(path) -> np.ndarray:
    rows = []
    width = None
    # invalid UTF-8 decodes to lone surrogates, which no number parses
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if line == "" :
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(path, lineno, min(len(cells), width) + 1,
                                 f"expected {width} columns, found {len(cells)}")
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(path, lineno, col, f"not a number: {cell!r}") from None
                if not np.isfinite(value):
                    raise ParseError(path, lineno, col, f"non-finite value: {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(path, 1, 1, "empty file")
    return np.asarray(rows, dtype=np.float64)


def _parse_labels(path) -> np.ndarray:
    labels = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line == "":
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise ParseError(path, lineno, 1, f"not an integer label: {line!r}") from None
            if not 0 <= labels[-1] <= np.iinfo(np.int64).max:
                raise ParseError(path, lineno, 1, f"label out of range: {line!r}")
    if not labels:
        raise ParseError(path, 1, 1, "empty label file")
    return np.asarray(labels, dtype=np.int64)


def _read_view(path) -> np.ndarray:
    """One view through numpy's tokenizer.  Anything it refuses, or reads
    as non-finite or empty, goes to the line parser, which raises the
    located ParseError or accepts what only float() reads (underscores,
    non-ASCII digits); so both paths accept the same files and values."""
    with open(path, "rb") as handle:
        while block := handle.read(1 << 16):
            if any(sep in block for sep in _FLOAT_REJECTS_SPACE):
                return _parse_view(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            view = np.loadtxt(path, delimiter=",", comments=None, dtype=np.float64,
                              ndmin=2, encoding="utf-8")
    except (ValueError, Warning):
        pass
    else:
        if view.size and np.isfinite(view).all():
            return view
    return _parse_view(path)


def load_csv(view_paths, label_path) -> MultiViewDataset:
    """Load one CSV per view plus a label file into a dataset.  A malformed
    file raises ParseError (with row and column) or RowCountMismatchError."""
    labels = _parse_labels(label_path)
    views = []
    for path in view_paths:
        view = _read_view(path)
        if view.shape[0] != labels.shape[0]:
            raise RowCountMismatchError(path, view.shape[0], labels.shape[0])
        views.append(view)
    return MultiViewDataset(views=views, labels=labels)


def write_matrix_csv(path, matrix):
    """Write one 2-D matrix, a row per line, with the lossless float encoding."""
    np.savetxt(path, matrix, fmt="%" + FLOAT_FORMAT, delimiter=",")


def save_csv(dataset: MultiViewDataset, view_paths, label_path):
    """Write a dataset back to disk with a lossless float encoding."""
    view_paths = list(view_paths)
    if len(view_paths) != dataset.num_participants:
        raise ValueError("one path per view required")
    for path, view in zip(view_paths, dataset.views):
        write_matrix_csv(path, view)
    np.savetxt(label_path, dataset.labels, fmt="%d")


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: assignments[i] is sample i's fold."""

    assignments: np.ndarray
    num_folds: int
    seed: int

    def __post_init__(self):
        if self.assignments.ndim != 1:
            raise ValueError("assignments must be 1-D")
        if np.any(self.assignments < 0) or np.any(self.assignments >= self.num_folds):
            raise ValueError("fold assignments out of range")

    def val_indices(self, fold: int) -> np.ndarray:
        self._check_fold(fold)
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        self._check_fold(fold)
        return np.flatnonzero(self.assignments != fold)

    def _check_fold(self, fold: int):
        if not 0 <= fold < self.num_folds:
            raise ValueError(f"fold must be in [0, {self.num_folds}), got {fold}")


def make_folds(dataset: MultiViewDataset, num_folds: int = 5, seed=0) -> FoldPlan:
    """Class-stratified folds: within each class the fold sizes differ by
    at most one, exactly equal when the class count divides evenly."""
    if num_folds < 2:
        raise ValueError("need at least two folds")
    seed = check_seed(seed)
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    assignments = np.full(labels.shape[0], -1, dtype=np.int64)
    for cls in range(dataset.num_classes):
        members = np.flatnonzero(labels == cls)
        if members.size < num_folds:
            raise ClassTooSmallError(
                f"class {cls} has {members.size} samples, needs >= {num_folds}")
        members = rng.permutation(members)
        for fold, chunk in enumerate(np.array_split(members, num_folds)):
            assignments[chunk] = fold
    return FoldPlan(assignments=assignments, num_folds=num_folds, seed=seed)


def synth_planted(num_participants: int = 3, num_classes: int = 3,
                  num_samples: int = 300, dims: tuple[int, ...] = (30, 30, 30),
                  n_informative: int = 5, noise: float = 0.5, seed=0):
    """Synthetic dataset with known informative columns per view.

    Each view plants ``n_informative`` columns whose class means are
    pairwise separated by at least four noise standard deviations (and
    stay distinct even at zero noise); every other column is pure
    standard normal noise.  Class means are nonnegative level values
    assigned per column in a random class order, so planted columns also
    carry the common offset a one-hot target needs, and the class orders
    are drawn without replacement while distinct ones remain, which
    avoids duplicated mean profiles across planted columns.  Returns
    ``(dataset, informative)`` where ``informative[k]`` lists view k's
    planted column indices, sorted.
    """
    if num_participants < 1:
        raise ValueError("need at least one participant")
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    dims = tuple(int(d) for d in dims)
    if len(dims) != num_participants:
        raise ValueError("dims must list one feature count per participant")
    if any(n_informative > d for d in dims):
        raise ValueError("n_informative exceeds a view's feature count")
    if n_informative < 0:
        raise ValueError("n_informative must be >= 0")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(check_seed(seed))

    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    # pairwise class-mean separation stays >= 4 sigma and nonzero at sigma=0
    spacing = 4.0 * noise + 1.0
    levels = np.arange(num_classes, dtype=np.float64) * spacing
    # sampling class orders without replacement is only worth enumerating
    # when the permutation count is small; collisions are negligible past it
    if num_classes <= 8 and n_informative <= math.factorial(num_classes):
        all_orders = list(itertools.permutations(range(num_classes)))
    else:
        all_orders = None

    views = []
    informative_sets = []
    for dim in dims:
        view = rng.standard_normal((num_samples, dim))
        planted = np.sort(rng.choice(dim, size=n_informative, replace=False))
        if all_orders is not None:
            picks = rng.choice(len(all_orders), size=n_informative, replace=False)
            orders = [np.asarray(all_orders[i], dtype=np.int64) for i in picks]
        else:
            orders = [rng.permutation(num_classes) for _ in range(n_informative)]
        for col, class_order in zip(planted, orders):
            offsets = levels[class_order]
            view[:, col] = offsets[labels] + noise * rng.standard_normal(num_samples)
        views.append(view)
        informative_sets.append([int(c) for c in planted])
    dataset = MultiViewDataset(views=views, labels=labels)
    return dataset, informative_sets
