"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and shares no code with the
package under test: explicit Python loops, plain np.linalg.solve or
grid/first-order search instead of the package's factorizations and
closed forms.  Frozen constants in the tests were produced by these
functions.  The exceptions, ``solve_transform``, ``solve_spd``,
``fit_sparse_transform`` and ``total_objective``, are marked below: they
are the package's own kernels behind a plain signature, which the tests
hold against these oracles.  ``fit_sparse_transform`` is the one
multi-step fit of a single block from a given start, a loop over the
package's reweighted step that only the tests run.  ``lstsq_accuracy``
is the package's former classifier, kept as it was to hold the
Gram-based one against, and ``read_results_csv`` reads back the sweep's
``results.csv``.
"""

from __future__ import annotations

import csv
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
    from mmvfl.numerics import _cholesky_solve_in_place
    from mmvfl.optimizer import gram_matrix

    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    irls_diag = np.asarray(irls_diag, dtype=np.float64)
    gram = gram_matrix(features)
    # the reweighted step's solve: G.T is the symmetric G in Fortran order
    transform, _ = _cholesky_solve_in_place(gram.T, features.T @ targets, sparsity * irls_diag)
    return transform


def solve_spd(a, b) -> np.ndarray:
    """a @ x = b for symmetric positive definite a, by the package's
    Cholesky step with refinement on a copy of a (not an oracle: it runs
    the kernel's solve)."""
    from mmvfl.numerics import _cholesky_solve_in_place

    a = np.asarray(a, dtype=np.float64)
    x, _ = _cholesky_solve_in_place(np.array(a, order="F"), np.asarray(b, dtype=np.float64),
                                    np.zeros(len(a)))
    return x


def fit_sparse_transform(features, targets, sparsity: float, *,
                         inner_tol: float = 1e-6, inner_max: int = 50, init=None):
    """Row-sparse least squares of one block by repeated steps of the
    package's kernel (not an oracle: it runs ``optimizer._reweighted_step``),
    until the raw objective changes by at most ``inner_tol`` relative or
    after ``inner_max`` steps.

    Starts from ``init`` when given, whose objective then opens the trace,
    else from a plain ridge step.  Returns ``(transform, irls_diag,
    objectives)``: ``irls_diag`` is the diagonal of the final step (ones
    for the ridge step, else ``loop_reweight_diag`` of the transform it
    started from), so the pair is stationary for the reweighted problem,
    and ``objectives`` is the raw objective trace."""
    from mmvfl.optimizer import EPS, _reweighted_step, gram_matrix, has_converged

    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    # X^T T in the operand order ``supmvlfl_solve`` forms it, (T^T X)^T
    gram, xty = gram_matrix(features), (targets.T @ features).T
    target_sq = float(np.sum(targets * targets))
    start, objectives = None, []
    if init is not None:
        w = np.asarray(init, dtype=np.float64)
        start = (w, gram @ w)
        # the kernel's Gram form, so a fixed point repeats the value
        objectives.append(float(np.sum(w * (start[1] - 2.0 * xty))) + target_sq
                          + sparsity * float(np.sum(np.sqrt(np.sum(w * w, axis=1)))))
    for _ in range(inner_max):
        before = start
        w, gw, objective = _reweighted_step(gram, xty, target_sq, sparsity, start)
        start = (w, gw)
        objectives.append(objective)
        if len(objectives) > 1 and has_converged(objectives[-2], objective, inner_tol):
            break
    diag = np.ones(len(w)) if before is None else loop_reweight_diag(before[0], EPS)
    return w, diag, objectives


def total_objective(states, consensus, hyper) -> float:
    """Full training objective of participant states under the weights of
    ``hyper``: each state's ``local_objective_part`` plus its consensus
    penalty, summed in participant order as the coordinator sums a round
    (not an oracle: the local parts are the package's)."""
    from mmvfl.optimizer import local_objective_part

    total = 0.0
    for st in states:
        gap = st.pseudo_labels - consensus
        total += (local_objective_part(st, st.features @ st.transform, hyper)
                  + float(hyper.consensus_penalty[st.participant_id]) * float(np.sum(gap * gap)))
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


def loop_total_objective(views, transforms, pseudo_labels, consensus, labels, owners,
                         sparsity, consensus_penalty, label_penalty) -> float:
    """Hand-summed full training objective, term by term; the label term
    for each participant in ``owners``."""
    total = 0.0
    for k in range(len(views)):
        residual = np.asarray(views[k]) @ np.asarray(transforms[k]) - pseudo_labels[k]
        total += loop_frobenius_sq(residual)
        total += sparsity[k] * loop_l21(transforms[k])
        gap = np.asarray(pseudo_labels[k]) - np.asarray(consensus)
        total += consensus_penalty[k] * loop_frobenius_sq(gap)
        if k in owners:
            owner_gap = np.asarray(pseudo_labels[k]) - np.asarray(labels)
            total += label_penalty * loop_frobenius_sq(owner_gap)
    return total


def _coupling(consensus_penalty, label_penalty, owners):
    """Half the Hessian of the objective in the K pseudo-labels and the
    consensus, one entry at a time: the (K+1) x (K+1) matrix of its normal
    equations, the consensus last; ``owners`` are the participants whose
    pseudo-labels the label term pulls."""
    k = len(consensus_penalty)
    coupling = np.zeros((k + 1, k + 1))
    for j, zeta in enumerate(consensus_penalty):
        coupling[j, j] = 1.0 + zeta + (label_penalty if j in owners else 0.0)
        coupling[j, k] = coupling[k, j] = -zeta
        coupling[k, k] += zeta
    return coupling


def joint_minimizer(projections, labels, owners, consensus_penalty, label_penalty):
    """The pseudo-labels and consensus that minimize
    sum_k ||P_k - Z_k||^2 + zeta_k ||Z_k - Z||^2 + [k in owners] eta ||Z_k - Y||^2
    for fixed projections P_k, by a plain solve of its normal equations.
    Returns ``(pseudo_labels, consensus)``."""
    y = np.asarray(labels, dtype=np.float64)
    rhs = np.stack([np.asarray(p, dtype=np.float64) for p in projections] + [np.zeros_like(y)])
    for j in owners:
        rhs[j] += label_penalty * y
    solved = np.linalg.solve(_coupling(consensus_penalty, label_penalty, owners),
                             rhs.reshape(len(rhs), -1)).reshape(rhs.shape)
    return list(solved[:-1]), solved[-1]


def smoothed_objective_optimum(views, labels, owners, sparsity, consensus_penalty,
                               label_penalty, eps, rtol: float = 1e-13,
                               max_iter: int = 100000):
    """Minimum of the full training objective with each row norm t in the
    sparsity term replaced by t - eps*log(1 + t/eps), the smoothed penalty
    the package's reweighted solve descends on; the label term pulls the
    pseudo-labels of each participant in ``owners``.  Returns
    ``(value, transforms)``.

    For fixed transforms the pseudo-labels and the consensus enter the
    objective as one strictly convex quadratic that couples them entry by
    entry, so they are eliminated by one (K+1) x (K+1) linear solve.
    What remains is a smooth function of the transforms, with gradient
    2 X_k^T (X_k W_k - Z_k*) and Lipschitz constant at most
    2 max_k ||X_k||_2^2 (eliminating variables lowers curvature), plus the
    row penalty.  FISTA (Beck & Teboulle 2009) with function-value restart
    (O'Donoghue & Candes 2015) minimizes it.  The penalty's proximal step
    has a closed form: a row of norm s shrinks to the positive root r of
    r^2 + (eps - s + step*sparsity) r - s*eps = 0.  The loop stops when
    the prox-gradient step moves no transform entry by more than ``rtol``
    of the largest entry.

    The objective a run records uses the plain row norm, which exceeds
    the smoothed one by eps*log(1 + t/eps) per row times the sparsity
    weight; so a recorded value is never below the returned minimum."""
    xs = [np.asarray(v, dtype=np.float64) for v in views]
    y = np.asarray(labels, dtype=np.float64)
    k = len(xs)
    zeta = np.asarray(consensus_penalty, dtype=np.float64)
    inverse = np.linalg.inv(_coupling(zeta, label_penalty, owners))
    lipschitz = 2.0 * max(np.linalg.norm(x, 2) ** 2 for x in xs)
    step = 1.0 / lipschitz

    def smooth(ws):
        projected = [x @ w for x, w in zip(xs, ws)]
        rhs = np.stack(projected + [np.zeros_like(y)])
        for j in owners:
            rhs[j] += label_penalty * y
        zs = np.einsum("ij,jnc->inc", inverse, rhs)
        value = sum(label_penalty * float(np.sum((zs[j] - y) ** 2)) for j in owners)
        grads = []
        for j in range(k):
            residual = projected[j] - zs[j]
            value += float(np.sum(residual ** 2)) + zeta[j] * float(np.sum((zs[j] - zs[k]) ** 2))
            grads.append(2.0 * xs[j].T @ residual)
        return value, grads

    def penalty(ws):
        total = 0.0
        for w, beta in zip(ws, sparsity):
            norms = np.sqrt(np.sum(w * w, axis=1))
            total += beta * float(np.sum(norms - eps * np.log1p(norms / eps)))
        return total

    def prox(ws):
        out = []
        for w, beta in zip(ws, sparsity):
            s = np.sqrt(np.sum(w * w, axis=1))
            b = eps - s + step * beta
            root = np.sqrt(b * b + 4.0 * s * eps)
            # the two forms of the positive root, each free of cancellation
            r = np.where(b > 0, 2.0 * s * eps / np.where(b > 0, b + root, 1.0), (root - b) / 2.0)
            scale = np.divide(r, s, out=np.zeros_like(s), where=s > 0)
            out.append(w * scale[:, None])
        return out

    x = [np.zeros((v.shape[1], y.shape[1])) for v in xs]
    value = smooth(x)[0] + penalty(x)
    extrapolated, momentum = x, 1.0
    for _ in range(max_iter):
        _, grads = smooth(extrapolated)
        nxt = prox([w - step * g for w, g in zip(extrapolated, grads)])
        nxt_value = smooth(nxt)[0] + penalty(nxt)
        moved = max(float(np.max(np.abs(a - b))) for a, b in zip(nxt, extrapolated))
        size = max(float(np.max(np.abs(w))) for w in nxt)
        if moved <= rtol * max(size, 1e-300):
            return nxt_value, nxt
        if nxt_value > value and momentum > 1.0:
            # restart: drop the momentum and step again from the last iterate
            extrapolated, momentum = x, 1.0
            continue
        following = (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum)) / 2.0
        extrapolated = [a + ((momentum - 1.0) / following) * (a - b) for a, b in zip(nxt, x)]
        x, value, momentum = nxt, nxt_value, following
    raise RuntimeError(f"FISTA did not converge in {max_iter} iterations")


def analytic_block_gradients(views, transforms, pseudo_labels, consensus, labels, owners,
                             sparsity, consensus_penalty, label_penalty):
    """Analytic gradients of the full objective for each block, the label
    term pulling the pseudo-labels of each participant in ``owners``.

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
        if k in owners:
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


def lstsq_accuracy(train_features, train_labels, val_features, val_labels) -> float:
    """Validation accuracy of a least-squares map onto one-hot targets,
    fit by ``np.linalg.lstsq`` on the explicit design ``[X 1]``.

    Prediction is the argmax over class scores; ties resolve to the
    lowest class index.  Every class must appear in the training labels.
    """
    from mmvfl.evaluation import DegenerateInputError
    from mmvfl.optimizer import one_hot

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


def read_results_csv(path):
    """Experiment rows from a file ``evaluation.write_results_csv`` wrote."""
    from mmvfl.evaluation import RESULT_FIELDS, ExperimentResult

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
                converged=True,  # not written out
            ))
    return results
