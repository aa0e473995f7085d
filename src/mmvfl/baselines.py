"""Supervised baselines that regress features directly onto the labels.

``supfl_solve`` fits one participant's transform against the one-hot
label matrix with the same reweighted least-squares scheme the federated
training uses, i.e. the label matrix replaces the pseudo-labels.
``supmvlfl_solve`` is the summed multi-view variant; the objective is
separable across participants, so the joint fit must match independent
per-participant fits; that equivalence is pinned by tests.
"""

from __future__ import annotations

import numpy as np

from .numerics import ensure_matrix, frobenius_norm_sq
from .optimizer import _irls, check_one_hot, fit_sparse_transform, gram_matrix


def supfl_solve(features, labels, sparsity: float, *, eps: float = 1e-6,
                tol: float = 1e-6, max_iter: int = 50):
    """Row-sparse regression of one feature block onto the labels.

    Returns ``(transform, objectives)`` with the per-iteration objective
    trace.
    """
    labels = check_one_hot(labels)
    transform, _, objectives = fit_sparse_transform(
        features, labels, sparsity, eps=eps, inner_tol=tol, inner_max=max_iter)
    return transform, objectives


def supmvlfl_solve(views, labels, sparsity, *, eps: float = 1e-6,
                   tol: float = 1e-6, max_iter: int = 50):
    """Joint row-sparse regression of every view onto the labels.

    All views are iterated together and the stopping rule watches the
    summed objective; each view's update only reads that view's state,
    which keeps the problem separable.  Returns
    ``(transforms, objectives)`` where ``objectives`` traces the sum.
    """
    views = [ensure_matrix(v, f"views[{k}]") for k, v in enumerate(views)]
    labels = check_one_hot(labels)
    if np.isscalar(sparsity):
        sparsity = [float(sparsity)] * len(views)
    sparsity = [float(b) for b in sparsity]
    if len(sparsity) != len(views):
        raise ValueError("one sparsity weight per view required")
    if any(not b > 0 for b in sparsity):
        raise ValueError("sparsity weights must be positive")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    for k, view in enumerate(views):
        if view.shape[0] != labels.shape[0]:
            raise ValueError(f"view {k} rows do not match the label rows")

    transforms, _, objectives = _irls(
        [gram_matrix(v) for v in views], [v.T @ labels for v in views],
        [frobenius_norm_sq(labels)] * len(views), sparsity, eps, tol, max_iter)
    return transforms, objectives
