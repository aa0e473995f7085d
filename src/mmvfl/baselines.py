"""Supervised baselines that regress features directly onto the labels.

``supmvlfl_solve`` fits every view's transform against the one-hot
label matrix with the reweighted least-squares kernel the federated
training uses, i.e. the label matrix replaces the pseudo-labels; the
objective is a sum of per-view terms, so the joint fit matches
independent per-view fits, which tests pin.  ``supfl_solve`` is that
fit for one feature block.  The CV sweep (``evaluation.run_grid``)
runs the same kernel on the training blocks its classifier already
holds rather than calling these entry points.
"""

from __future__ import annotations

import numpy as np

from .numerics import ensure_matrix, frobenius_norm_sq
from .optimizer import _irls, check_one_hot, check_solver_controls, gram_matrix


def supfl_solve(features, labels, sparsity: float, *, eps: float = 1e-6,
                tol: float = 1e-6, max_iter: int = 50):
    """Row-sparse regression of one feature block onto the labels:
    ``supmvlfl_solve`` on the single view ``[features]``.

    Returns ``(transform, objectives)`` with the per-iteration objective
    trace.
    """
    [transform], objectives = supmvlfl_solve(
        [features], labels, sparsity, eps=eps, tol=tol, max_iter=max_iter)
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
    check_solver_controls(eps, (tol,), (max_iter,))
    for k, view in enumerate(views):
        if view.shape[0] != labels.shape[0]:
            raise ValueError(f"view {k} rows do not match the label rows")

    transforms, _, objectives = _irls(
        [gram_matrix(v) for v in views], [v.T @ labels for v in views],
        [frobenius_norm_sq(labels)] * len(views), sparsity, eps, tol, max_iter)
    return transforms, objectives
