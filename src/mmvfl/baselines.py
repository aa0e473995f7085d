"""Supervised baselines that regress features directly onto the labels.

``supmvlfl_solve`` fits every view's transform against the one-hot
label matrix with the reweighted step the federated training uses, i.e.
the label matrix replaces the pseudo-labels.  The objective is a sum of
per-view terms, so each joint step is the per-view step, which tests
pin; the joint fit stops on the summed change, so at ``TOL`` it may stop
at another step than a per-view fit would.  ``supfl_solve`` is that fit
for one feature block.  Both return whether the fit met ``TOL`` before
``MAX_ITER``.  The CV sweep (``evaluation.run_grid``) runs their fit,
``_fit_blocks``, on the training blocks its classifier already holds and
learns the same.  Only this module sets when a baseline fit stops.
"""

from __future__ import annotations

from .numerics import ensure_matrix, single_blas_thread
from .optimizer import _reweighted_step, check_one_hot, check_weight, gram_matrix, has_converged

# A baseline fit stops once the relative change of its summed objective
# is at most TOL, or after MAX_ITER reweighted steps.
TOL = 1e-6
MAX_ITER = 50


def _fit_blocks(grams, xtys, target_sq, sparsity):
    """``(transforms, objectives, converged)`` of the joint fit of blocks k
    onto T from trusted X_k^T X_k, X_k^T T, ||T||_F^2 and one sparsity
    weight for every block.  Each iteration takes one ``_reweighted_step``
    of every block, each under its own descent guard, and records the
    objectives summed in block order.  The
    fit stops, ``converged``, once that sum changes by at most TOL, or
    after MAX_ITER iterations, as they stand at call time.  The caller
    lends its Grams: each step factors one in place and restores it bit
    for bit before it returns (see ``optimizer._reweighted_step``), so no
    other array is built."""
    starts = [None] * len(grams)
    objectives: list[float] = []
    converged = False
    while not converged and len(objectives) < MAX_ITER:
        total = 0.0
        for k, (gram, xty) in enumerate(zip(grams, xtys)):
            w, gw, objective = _reweighted_step(gram, xty, target_sq, sparsity, starts[k])
            starts[k] = (w, gw)
            total += objective
        converged = bool(objectives) and has_converged(objectives[-1], total, TOL)
        objectives.append(total)
    return [w for w, _ in starts], objectives, converged


def supfl_solve(features, labels, sparsity: float):
    """Row-sparse regression of one feature block onto the labels:
    ``supmvlfl_solve`` on the single view ``[features]``.

    Returns ``(transform, objectives, converged)`` with the per-iteration
    objective trace and whether the fit met ``TOL`` before ``MAX_ITER``.
    """
    [transform], objectives, converged = supmvlfl_solve([features], labels, sparsity)
    return transform, objectives, converged


@single_blas_thread()
def supmvlfl_solve(views, labels, sparsity: float):
    """Joint row-sparse regression of every view onto the labels, with one
    sparsity weight for every view, BLAS on one thread.

    All views are stepped together and the stopping rule watches the
    summed objective; each view's step only reads that view's state and
    is guarded on its own, which keeps the problem separable.  Returns
    ``(transforms, objectives, converged)`` where ``objectives`` traces
    the sum and ``converged`` tells whether it met ``TOL`` before
    ``MAX_ITER``.
    """
    views = [ensure_matrix(v, f"views[{k}]") for k, v in enumerate(views)]
    labels = check_one_hot(labels)
    sparsity = check_weight(sparsity)
    for k, view in enumerate(views):
        if view.shape[0] != labels.shape[0]:
            raise ValueError(f"view {k} rows do not match the label rows")
    # X^T Y as (Y^T X)^T, the operand order OpenBLAS runs fast; ||Y||_F^2
    # of a one-hot Y is its row count
    return _fit_blocks([gram_matrix(v) for v in views], [(labels.T @ v).T for v in views],
                       float(labels.shape[0]), sparsity)
