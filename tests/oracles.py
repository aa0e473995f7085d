"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and shares no code with the
package under test: explicit Python loops, plain np.linalg.solve or
grid/first-order search instead of the package's factorizations and
closed forms.  Frozen constants in the tests were produced by these
functions.  The exceptions, ``solve_transform``, ``solve_spd`` and
``total_objective``, are marked below: they are the package's own
kernels behind a plain signature, which the tests hold against these
oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def loop_frobenius_sq(matrix) -> float:
    total = 0.0
    for row in np.asarray(matrix, dtype=np.float64):
        for value in row:
            total += float(value) * float(value)
    return total


def loop_row_norms(matrix) -> np.ndarray:
    out = []
    for row in np.asarray(matrix, dtype=np.float64):
        acc = 0.0
        for value in row:
            acc += float(value) ** 2
        out.append(math.sqrt(acc))
    return np.asarray(out)


def loop_l21(matrix) -> float:
    return float(sum(loop_row_norms(matrix)))


def loop_reweight_diag(matrix, eps: float) -> np.ndarray:
    return np.asarray([1.0 / (2.0 * (t + eps)) for t in loop_row_norms(matrix)])


def plain_solve_minimizer(features, targets, diag, weight) -> np.ndarray:
    """Minimizer of ||XW - T||_F^2 + weight * sum_i diag_i ||W_(i)||^2 by
    a generic LU solve (different code path than the package's Cholesky)."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64)
    a = features.T @ features + weight * np.diag(diag)
    return np.linalg.solve(a, features.T @ targets)


def solve_transform(features, targets, irls_diag, sparsity: float) -> np.ndarray:
    """The package's exact minimizer of ||X W - T||_F^2 + sparsity *
    tr(W^T diag W) (not an oracle: it runs the kernel's Cholesky step)."""
    from mmvfl.optimizer import _penalized_solve, gram_matrix

    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    irls_diag = np.asarray(irls_diag, dtype=np.float64)
    gram = gram_matrix(features)
    work = np.empty(gram.shape, order="F")
    return _penalized_solve(gram, features.T @ targets, irls_diag, sparsity, work)


def solve_spd(a, b) -> np.ndarray:
    """a @ x = b for symmetric positive definite a, by the package's
    Cholesky step with refinement on a copy of a (not an oracle: it runs
    the kernel's solve)."""
    from mmvfl.numerics import _cholesky_solve_in_place

    a = np.asarray(a, dtype=np.float64)
    return _cholesky_solve_in_place(np.array(a, order="F"), np.asarray(b, dtype=np.float64), a)


def total_objective(states, consensus) -> float:
    """Full training objective of participant states: each state's
    ``local_objective_part`` plus its consensus penalty, summed in
    participant order as the coordinator sums a round (not an oracle: the
    local parts are the package's)."""
    from mmvfl.optimizer import local_objective_part

    total = 0.0
    for st in states:
        gap = st.pseudo_labels - consensus
        total += (local_objective_part(st, st.features @ st.transform)
                  + float(st.consensus_penalty) * float(np.sum(gap * gap)))
    return total


def fit_objective(features, targets, transform, sparsity: float) -> float:
    """Reconstruction error plus the row-sparsity penalty, in residual form."""
    transform = np.asarray(transform, dtype=np.float64)
    residual = np.asarray(features) @ transform - targets
    norms = np.sqrt(np.sum(transform * transform, axis=1))
    return float(np.sum(residual * residual)) + sparsity * float(np.sum(norms))


def gd_quadratic_minimizer(features, targets, diag, weight,
                           max_steps: int = 200000, tol: float = 1e-12) -> np.ndarray:
    """First-order (plain gradient descent) minimizer of the same
    reweighted quadratic, run to stationarity."""
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64)
    hessian = 2.0 * (x.T @ x) + 2.0 * weight * np.diag(diag)
    eigs = np.linalg.eigvalsh(hessian)
    step = 2.0 / (eigs.max() + eigs.min())
    w = np.zeros((x.shape[1], t.shape[1]))
    for _ in range(max_steps):
        grad = 2.0 * x.T @ (x @ w - t) + 2.0 * weight * diag[:, None] * w
        if np.max(np.abs(grad)) < tol:
            break
        w = w - step * grad
    return w


def grid_minimize_scalar(fun, lo: float, hi: float, rounds: int = 40,
                         points: int = 81) -> float:
    """Repeatedly refined grid search for a 1-D minimizer."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        values = [fun(float(g)) for g in grid]
        best = int(np.argmin(values))
        lo = float(grid[max(best - 1, 0)])
        hi = float(grid[min(best + 1, points - 1)])
    return (lo + hi) / 2.0


def loop_total_objective(views, transforms, pseudo_labels, consensus, labels,
                         sparsity, consensus_penalty, label_penalty) -> float:
    """Hand-summed full training objective, term by term."""
    total = 0.0
    for k in range(len(views)):
        residual = np.asarray(views[k]) @ np.asarray(transforms[k]) - pseudo_labels[k]
        total += loop_frobenius_sq(residual)
        total += sparsity[k] * loop_l21(transforms[k])
        gap = np.asarray(pseudo_labels[k]) - np.asarray(consensus)
        total += consensus_penalty[k] * loop_frobenius_sq(gap)
    owner_gap = np.asarray(pseudo_labels[0]) - np.asarray(labels)
    total += label_penalty * loop_frobenius_sq(owner_gap)
    return total


def analytic_block_gradients(views, transforms, pseudo_labels, consensus, labels,
                             sparsity, consensus_penalty, label_penalty):
    """Analytic gradients of the full objective for each block.

    Valid wherever no transform row is exactly zero (the row-norm term
    is smooth there).  Returns (transform grads, pseudo-label grads,
    consensus grad).
    """
    g_transforms = []
    g_pseudo = []
    for k in range(len(views)):
        x = np.asarray(views[k], dtype=np.float64)
        w = np.asarray(transforms[k], dtype=np.float64)
        z = np.asarray(pseudo_labels[k], dtype=np.float64)
        norms = loop_row_norms(w)
        if np.any(norms == 0.0):
            raise ValueError("gradient undefined at a zero row")
        grad_w = 2.0 * x.T @ (x @ w - z) + sparsity[k] * (w / norms[:, None])
        g_transforms.append(grad_w)
        grad_z = 2.0 * (z - x @ w) + 2.0 * consensus_penalty[k] * (z - consensus)
        if k == 0:
            grad_z = grad_z + 2.0 * label_penalty * (z - np.asarray(labels))
        g_pseudo.append(grad_z)
    grad_c = np.zeros_like(np.asarray(consensus, dtype=np.float64))
    for k in range(len(views)):
        grad_c += 2.0 * consensus_penalty[k] * (np.asarray(consensus) - pseudo_labels[k])
    return g_transforms, g_pseudo, grad_c


def finite_difference_gradient(fun, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one matrix."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = point.copy()
        bumped[idx] += step
        up = fun(bumped)
        bumped[idx] -= 2.0 * step
        down = fun(bumped)
        grad[idx] = (up - down) / (2.0 * step)
        it.iternext()
    return grad


def sort_ranking(scores) -> list[int]:
    """Descending score order with index tie-break, via plain sort."""
    scores = list(np.asarray(scores, dtype=np.float64))
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def fraction_top_count(dim: int, percent) -> int:
    """Exact-rational ceiling of percent% of dim.

    ``percent`` is interpreted through its decimal string, matching how
    a person writes grid values like 2 or 10.5.
    """
    exact = Fraction(str(float(percent))) * dim / 100
    return int(math.ceil(exact))


def pinv_accuracy(train_x, train_y, val_x, val_y, num_classes: int) -> float:
    """Least-squares classifier accuracy via pseudo-inverse (distinct
    path from the package's lstsq call)."""
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    design = np.hstack([train_x, np.ones((train_x.shape[0], 1))])
    targets = np.zeros((train_x.shape[0], num_classes))
    for i, label in enumerate(train_y):
        targets[i, int(label)] = 1.0
    coef = np.linalg.pinv(design) @ targets
    val_design = np.hstack([val_x, np.ones((val_x.shape[0], 1))])
    scores = val_design @ coef
    hits = 0
    for i in range(val_x.shape[0]):
        row = scores[i]
        best = 0
        for c in range(1, num_classes):
            if row[c] > row[best]:
                best = c
        if best == int(val_y[i]):
            hits += 1
    return hits / val_x.shape[0]
