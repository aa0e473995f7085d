"""Feature importance scoring and top-percent selection.

A feature's importance is the Euclidean norm of its row in the learned
transformation matrix: rows the row-sparsity penalty drove to zero mark
features the model does not use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import ensure_matrix


@dataclass(frozen=True)
class FeatureRanking:
    """Per-feature scores plus the feature order sorted by descending
    score, ties broken by ascending feature index."""

    scores: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        if self.scores.ndim != 1 or self.order.shape != self.scores.shape:
            raise ValueError("scores and order must be 1-D and equally long")
        if np.any(self.scores < 0):
            raise ValueError("scores must be nonnegative")


def score_features(transform) -> FeatureRanking:
    """Rank features by the row norms of a transformation matrix."""
    transform = ensure_matrix(transform, "transform")
    scores = np.sqrt(np.sum(transform * transform, axis=1))
    # stable argsort keeps the original (ascending) index order for ties
    order = np.argsort(-scores, kind="stable")
    return FeatureRanking(scores=scores, order=order)


def check_percent(p) -> float:
    """A selection percentage as a float: ``TypeError`` unless it is a real
    number and not a bool, so a string or a flag is never read as one,
    and ``ValueError`` unless it lies in (0, 100]."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise TypeError(f"p must be a real number, not {p!r}")
    if not 0 < p <= 100:
        raise ValueError(f"p must be in (0, 100], got {p!r}")
    return float(p)


def select_top(ranking: FeatureRanking, p: float) -> np.ndarray:
    """Indices of the top p percent of features, rounded up.

    Selections are nested: a larger p always contains the selection of a
    smaller p, because both are prefixes of the same ranking.
    """
    p = check_percent(p)
    d = ranking.scores.size
    exact = p * d / 100.0
    nearest = round(exact)
    # products like 10 * 64 / 100 can land a hair above an integer; do not
    # let that round the count up
    count = int(nearest) if abs(exact - nearest) < 1e-9 else math.ceil(exact)
    count = max(count, 1)
    return ranking.order[:count].copy()
