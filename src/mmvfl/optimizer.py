"""Alternating-minimization training for consensus pseudo-labels.

Each participant k holds a private feature block ``X_k`` (same rows, its
own columns) and learns a transformation matrix ``W_k`` plus a local
pseudo-label matrix.  A shared consensus matrix ties the local
pseudo-labels together, and the label owner is additionally pulled toward
its one-hot label matrix ``Y``.  The training objective is

    sum_k  ||X_k W_k - Z_k||_F^2
         + sparsity_k * ||W_k||_{2,1}
         + consensus_penalty_k * ||Z_k - Z||_F^2
    + label_penalty * ||Z_owner - Y||_F^2

where ``Z_k`` are the local pseudo-labels and ``Z`` the consensus.  Every
block update below is the exact minimizer of its subproblem; ``W_k`` is
fit by iteratively reweighted least squares.  ``run_reference`` executes
the full schedule in a single process and serves as the equivalence
oracle for the federated protocol.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import (
    _cholesky_solve_in_place,
    check_seed,
    derive_seed,
    ensure_matrix,
    frobenius_norm_sq,
    random_orthonormal,
    single_blas_thread,
)

# Absolute slack allowed before a rising objective is treated as a
# numerical fault.
MONOTONICITY_SLACK = 1e-9

# Estimated multiply-adds per round a lane needs before participants run
# side by side.  Threads only gain while LAPACK and BLAS run without the
# interpreter lock; on small blocks the lock hand-offs between numpy calls
# cost more than that overlap saves.  Measured on 2 cores, rounds under
# 1e7 of estimated work (see ``_lane_count``) took 1.2-2.6x as long on
# two lanes as on one, and rounds of 1.5e7-4e7 took 0.65-1.1x.
LANE_WORK = 8_000_000

# At most this many lanes: only one and two have been measured (on a
# 2-core machine), so wider hosts keep to two until more are.
MAX_LANES = 2

# CPU quota of the process's own cgroup, as a container sees it: cgroup v2
# ``cpu.max`` ("<quota|max> <period>"), else the cgroup v1 quota and
# period (quota -1 when there is none).
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us")

# Stream tags for seed derivation; every randomly initialized block gets
# its own child seed so federated and single-process runs agree bitwise.
_TRANSFORM_STREAM = 0
_PSEUDO_LABEL_STREAM = 1
_CONSENSUS_STREAM = 2


class DimensionMismatchError(Exception):
    """Participant blocks disagree on sample count or class count."""


class NonDecreasingObjectiveError(Exception):
    """The inner objective rose beyond slack: numerical fault."""


@dataclass(frozen=True)
class ProblemShape:
    """Dimensions of a multi-participant training problem."""

    num_participants: int
    num_classes: int
    num_samples: int
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.num_participants < 2:
            raise ValueError("need at least two participants")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.num_samples < self.num_classes:
            raise ValueError("need at least as many samples as classes")
        if len(self.dims) != self.num_participants:
            raise ValueError("dims must list one feature count per participant")
        if any(d < 1 for d in self.dims):
            raise ValueError("every participant needs at least one feature")


@dataclass(frozen=True)
class Hyperparams:
    """Penalty weights and stopping controls for a training run.

    ``sparsity`` and ``consensus_penalty`` carry one value per
    participant; ``label_penalty`` applies only to the label owner.
    """

    sparsity: tuple[float, ...]
    consensus_penalty: tuple[float, ...]
    label_penalty: float
    eps: float = 1e-6
    inner_tol: float = 1e-6
    inner_max: int = 50
    outer_tol: float = 1e-5
    outer_max: int = 100

    def __post_init__(self):
        if len(self.sparsity) != len(self.consensus_penalty):
            raise ValueError("sparsity and consensus_penalty must have equal length")
        if any(not b > 0 for b in self.sparsity):
            raise ValueError("sparsity weights must be positive")
        if any(not z > 0 for z in self.consensus_penalty):
            raise ValueError("consensus penalties must be positive")
        if not self.label_penalty > 0:
            raise ValueError("label penalty must be positive")
        if not 0 < self.eps <= 1e-3:
            raise ValueError("eps must be in (0, 1e-3]")
        if not (self.inner_tol > 0 and self.outer_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.inner_max < 1 or self.outer_max < 1:
            raise ValueError("iteration limits must be >= 1")

    @classmethod
    def uniform(cls, num_participants: int, *, sparsity: float = 0.1,
                consensus_penalty: float = 1000.0, label_penalty: float = 1000.0,
                **kwargs) -> "Hyperparams":
        """Same sparsity/consensus weight for every participant."""
        return cls(
            sparsity=(float(sparsity),) * num_participants,
            consensus_penalty=(float(consensus_penalty),) * num_participants,
            label_penalty=float(label_penalty),
            **kwargs,
        )


@dataclass
class ParticipantState:
    """Everything participant k keeps locally between rounds.

    ``features``, ``transform``, and ``labels`` never leave the
    participant; only ``pseudo_labels`` and scalar objective
    contributions are shared.
    """

    participant_id: int
    features: np.ndarray
    transform: np.ndarray
    pseudo_labels: np.ndarray
    sparsity: float
    consensus_penalty: float
    is_label_owner: bool = False
    labels: np.ndarray | None = None
    label_penalty: float | None = None
    gram: np.ndarray | None = field(default=None, repr=False)
    # Fortran-order d x d buffer for the factor of the gram plus its
    # diagonal; participants that never run at the same time may share one
    work: np.ndarray | None = field(default=None, repr=False)


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Encode integer class labels as a one-hot float64 matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if labels.size == 0:
        raise ValueError("labels must be non-empty")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("labels out of range")
    encoded = np.zeros((labels.size, num_classes), dtype=np.float64)
    encoded[np.arange(labels.size), labels.astype(int)] = 1.0
    return encoded


def check_one_hot(matrix) -> np.ndarray:
    """Validate a one-hot label matrix: exactly one 1 per row, rest 0."""
    matrix = ensure_matrix(matrix, "labels")
    if not np.all((matrix == 0.0) | (matrix == 1.0)):
        raise ValueError("label matrix entries must be 0 or 1")
    if not np.all(matrix.sum(axis=1) == 1.0):
        raise ValueError("each label row must contain exactly one 1")
    return matrix


# ---------------------------------------------------------------------------
# Block updates


def gram_matrix(features) -> np.ndarray:
    """Symmetric feature gram matrix X^T X."""
    features = ensure_matrix(features, "features")
    g = features.T @ features
    # numpy computes X^T X by a symmetric rank-k update, which is exactly
    # symmetric; averaging with the transpose would then change no bit
    # but cost a second d x d temporary.
    if not np.array_equal(g, g.T):
        g = (g + g.T) * 0.5
    return g


def _penalized_solve(gram, xty, irls_diag, sparsity, work):
    """(G + sparsity diag) W = X^T T; G is symmetric, so G.T is G in
    Fortran order, the layout the in-place Cholesky factor needs.  The
    Fortran-order ``work`` (shaped like G) is overwritten by the factor."""
    shift = sparsity * irls_diag
    np.copyto(work, gram.T)
    work[np.diag_indices_from(work)] += shift
    return _cholesky_solve_in_place(work, xty, gram, shift)


def smoothed_row_penalty(norms, eps: float) -> float:
    """Smoothed row-sparsity penalty sum_i (t_i - eps*log(1 + t_i/eps)).

    This is the exact penalty the reweighted solve descends on: its
    derivative in the squared row norm equals the reweighting diagonal
    1/(2(t+eps)).  It lower-bounds the plain row-norm sum and meets it
    as eps -> 0, but unlike the raw sum it is guaranteed non-increasing
    across reweighted iterations, so the monotonicity guard watches it
    rather than the raw objective (which can rise by up to eps*d/2)."""
    norms = np.asarray(norms, dtype=np.float64)
    return float(np.sum(norms - eps * np.log1p(norms / eps)))


def _irls(grams, xtys, targets_sq, sparsity, eps, tol, max_iter, inits=None, works=None):
    """Reweighted least squares for blocks k minimizing
    ||X_k W_k - T||_F^2 + sparsity[k] ||W_k||_{2,1}, given G_k = X_k^T X_k,
    X_k^T T and ||T||_F^2, so the fit term is the Gram form
    sum(W * (G W - 2 X^T T)) + ||T||_F^2 with no n-row temporary.  The
    guard and the stopping rule watch the sum over blocks.  Inputs are
    trusted (the public callers check them).  ``works`` holds one
    Fortran-order factor buffer per block (allocated here when None).
    Returns ``(transforms, irls_diags, objectives)``."""
    def evaluate(transforms):
        raw = smoothed = 0.0
        norms = []
        for w, g, xty, t_sq, s in zip(transforms, grams, xtys, targets_sq, sparsity):
            fit = float(np.sum(w * (g @ w - 2.0 * xty))) + t_sq
            norms.append(np.sqrt(np.sum(w * w, axis=1)))
            raw += fit + s * float(norms[-1].sum())
            smoothed += fit + s * smoothed_row_penalty(norms[-1], eps)
        return raw, smoothed, norms

    objectives: list[float] = []
    guard = norms = None
    if inits is not None:
        raw, guard, norms = evaluate(inits)
        objectives.append(raw)
    diags = [np.ones(g.shape[0]) for g in grams]
    # one factor buffer per block for the whole fit: a d x d block freed
    # and allocated again every iteration fragments the allocator's heap
    if works is None:
        works = [np.empty(g.shape, order="F") for g in grams]
    for _ in range(max_iter):
        if norms is not None:
            diags = [1.0 / (2.0 * (row + eps)) for row in norms]
        transforms = [_penalized_solve(*block)
                      for block in zip(grams, xtys, diags, sparsity, works)]
        if not all(np.isfinite(w).all() for w in transforms):
            raise ValueError("a transform contains non-finite entries")
        value, smoothed, norms = evaluate(transforms)
        if guard is not None and smoothed > guard + MONOTONICITY_SLACK * max(1.0, abs(guard)):
            raise NonDecreasingObjectiveError(
                f"smoothed objective rose from {guard!r} to {smoothed!r}")
        guard = smoothed
        objectives.append(value)
        if len(objectives) > 1 and has_converged(objectives[-2], value, tol):
            break
    return transforms, diags, objectives


def fit_sparse_transform(features, targets, sparsity: float, *, eps: float = 1e-6,
                         inner_tol: float = 1e-6, inner_max: int = 50,
                         init=None):
    """Row-sparse least squares by iteratively reweighted least squares.

    Alternates the reweighting diagonal and the closed-form solve until
    the relative change of the objective drops below ``inner_tol`` or
    ``inner_max`` iterations pass.  Starts from ``init`` when given (a
    warm transform from the previous round), otherwise from a plain ridge
    step.  Returns ``(transform, irls_diag, objectives)`` where
    ``irls_diag`` is the diagonal used for the final solve, so the pair
    satisfies the reweighted stationarity condition to solver precision.

    The reported trace holds the raw objective; the internal descent
    guard watches the smoothed penalty instead, since only that one is
    mathematically non-increasing under reweighting (the raw row-norm
    sum may drift up by O(eps) near convergence).
    """
    features = ensure_matrix(features, "features")
    targets = ensure_matrix(targets, "targets")
    if not sparsity > 0:
        raise ValueError("sparsity must be positive")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if inner_max < 1:
        raise ValueError("inner_max must be >= 1")
    inits = None if init is None else [ensure_matrix(init, "init")]
    [transform], [diag], objectives = _irls(
        [gram_matrix(features)], [features.T @ targets], [frobenius_norm_sq(targets)],
        [sparsity], eps, inner_tol, inner_max, inits)
    return transform, diag, objectives


def owner_pseudo_label_update(projected, consensus, labels, consensus_penalty: float,
                              label_penalty: float) -> np.ndarray:
    """Label owner's pseudo-label minimizer: weighted average of the local
    projection, the consensus, and the one-hot labels."""
    return (projected + consensus_penalty * consensus + label_penalty * labels) / (
        1.0 + consensus_penalty + label_penalty)


def pseudo_label_update(projected, consensus, consensus_penalty: float) -> np.ndarray:
    """Non-owner pseudo-label minimizer: weighted average of the local
    projection and the consensus."""
    return (projected + consensus_penalty * consensus) / (1.0 + consensus_penalty)


def aggregate_consensus(pseudo_labels, penalties) -> np.ndarray:
    """Consensus minimizer: penalty-weighted average of the local
    pseudo-label matrices, accumulated in participant order.  The
    matrices are trusted to be finite and of one shape (see
    ``run_rounds``)."""
    numerator = np.zeros(pseudo_labels[0].shape)
    total = 0.0
    for z, weight in zip(pseudo_labels, penalties):
        numerator += float(weight) * z
        total += float(weight)
    return numerator / total


# ---------------------------------------------------------------------------
# Objective bookkeeping


def _sum_sq(m) -> float:
    """Sum of squared entries of an array the caller built itself."""
    return float(np.sum(m * m))


def local_objective_part(state: ParticipantState, projected) -> float:
    """The objective terms participant k can evaluate alone: fit error,
    sparsity penalty, and (owner only) the label attachment term, given
    ``projected`` = ``X_k W_k``."""
    w = state.transform
    value = _sum_sq(projected - state.pseudo_labels)
    value += state.sparsity * float(np.sum(np.sqrt(np.sum(w * w, axis=1))))
    if state.is_label_owner:
        value += state.label_penalty * _sum_sq(state.pseudo_labels - state.labels)
    return value


def round_objective(local_parts, pseudo_labels, penalties, consensus) -> float:
    """Total objective from local parts plus the consensus penalties.

    The coordinator and the single-process reference both use this exact
    accumulation so their objective traces agree bitwise.
    """
    total = 0.0
    for part, z, weight in zip(local_parts, pseudo_labels, penalties):
        total += float(part) + float(weight) * _sum_sq(z - consensus)
    return total


def has_converged(previous: float, current: float, tol: float) -> bool:
    """Relative-change stopping rule shared by every training loop."""
    return abs(current - previous) <= tol * max(1.0, abs(previous))


# ---------------------------------------------------------------------------
# Initialization


def init_transform(dim: int, num_classes: int, seed, participant_id: int) -> np.ndarray:
    """Seeded standard normal transform scaled by 1/sqrt(dim)."""
    rng = np.random.default_rng(derive_seed(seed, _TRANSFORM_STREAM, participant_id))
    return rng.standard_normal((dim, num_classes)) / np.sqrt(dim)


def init_pseudo_labels(num_samples: int, num_classes: int, seed, participant_id: int) -> np.ndarray:
    """Seeded random matrix with orthonormal columns for participant k."""
    return random_orthonormal(num_samples, num_classes,
                              derive_seed(seed, _PSEUDO_LABEL_STREAM, participant_id))


def init_consensus(num_samples: int, num_classes: int, seed) -> np.ndarray:
    """Seeded random matrix with orthonormal columns for the consensus."""
    return random_orthonormal(num_samples, num_classes,
                              derive_seed(seed, _CONSENSUS_STREAM, 0))


def init_participant_state(participant_id: int, features, hyper: Hyperparams,
                           num_classes: int, seed, labels=None) -> ParticipantState:
    """Build a participant's starting state from the shared seed.
    ``labels`` (label owner only) must be samples x ``num_classes``."""
    features = ensure_matrix(features, f"features[{participant_id}]")
    n, d = features.shape
    if labels is not None:
        labels = check_one_hot(labels)
        if labels.shape != (n, num_classes):
            raise DimensionMismatchError("labels must be samples x classes")
    return ParticipantState(
        participant_id=participant_id,
        features=features,
        transform=init_transform(d, num_classes, seed, participant_id),
        pseudo_labels=init_pseudo_labels(n, num_classes, seed, participant_id),
        sparsity=hyper.sparsity[participant_id],
        consensus_penalty=hyper.consensus_penalty[participant_id],
        is_label_owner=labels is not None,
        labels=labels,
        label_penalty=hyper.label_penalty if labels is not None else None,
    )


def make_states(views, labels, hyper: Hyperparams, seed) -> list[ParticipantState]:
    """States for all participants; the first one owns the labels."""
    views = [ensure_matrix(v, f"views[{k}]") for k, v in enumerate(views)]
    labels = check_one_hot(labels)
    if len(views) != len(hyper.sparsity):
        raise DimensionMismatchError("hyperparameters must cover every participant")
    n = views[0].shape[0]
    for k, view in enumerate(views):
        if view.shape[0] != n:
            raise DimensionMismatchError(
                f"view {k} has {view.shape[0]} rows, expected {n}")
    if labels.shape[0] != n:
        raise DimensionMismatchError("label rows must match sample count")
    num_classes = labels.shape[1]
    ProblemShape(len(views), num_classes, n, tuple(v.shape[1] for v in views))
    return [
        init_participant_state(k, view, hyper, num_classes, seed,
                               labels=labels if k == 0 else None)
        for k, view in enumerate(views)
    ]


# ---------------------------------------------------------------------------
# Round schedule


def participant_round(state: ParticipantState, consensus, hyper: Hyperparams) -> float:
    """One local round: refit the transform against the current
    pseudo-labels, refresh the pseudo-labels against the broadcast
    consensus, and return the local objective contribution (the only
    scalar that leaves the participant).  The state's features were
    checked when it was built, so they are not checked again here."""
    if state.gram is None:
        state.gram = gram_matrix(state.features)
    if state.work is None:
        state.work = np.empty(state.gram.shape, order="F")
    targets = state.pseudo_labels
    [transform], _, _ = _irls(
        [state.gram], [state.features.T @ targets], [_sum_sq(targets)],
        [state.sparsity], hyper.eps, hyper.inner_tol, hyper.inner_max, [state.transform],
        [state.work])
    state.transform = transform
    projected = state.features @ transform
    if state.is_label_owner:
        state.pseudo_labels = owner_pseudo_label_update(
            projected, consensus, state.labels,
            state.consensus_penalty, state.label_penalty)
    else:
        state.pseudo_labels = pseudo_label_update(
            projected, consensus, state.consensus_penalty)
    return local_objective_part(state, projected)


def run_rounds(refit, consensus, hyper: Hyperparams):
    """The one loop over training rounds, shared by ``run_reference`` and
    the coordinator.

    In round r (from 1), ``refit(r, consensus)`` has every participant
    refit against the consensus of round r - 1 (the seeded one in round
    1) and returns ``(pseudo_labels, parts)`` in participant order: the
    uploaded matrices and objective contributions.  The consensus is then
    re-aggregated with the ``consensus_penalty`` weights and the
    objective totalled, until its relative change
    drops below ``outer_tol`` or ``outer_max`` rounds have run.  The
    matrices are not checked again here: the caller built them or
    checked them when they arrived.  Returns ``(consensus, objectives)``.
    """
    penalties = hyper.consensus_penalty
    objectives: list[float] = []
    for round_index in range(1, hyper.outer_max + 1):
        pseudo_labels, parts = refit(round_index, consensus)
        consensus = aggregate_consensus(pseudo_labels, penalties)
        objectives.append(round_objective(parts, pseudo_labels, penalties, consensus))
        if len(objectives) > 1 and has_converged(objectives[-2], objectives[-1],
                                                 hyper.outer_tol):
            break
    return consensus, objectives


def _cpu_quota() -> int | None:
    """Whole CPUs the cgroup CPU quota allows (rounded up), or None when
    there is no quota or it cannot be read."""
    try:
        try:
            quota, period = Path(_CPU_MAX).read_text().split()
        except FileNotFoundError:
            quota, period = (Path(name).read_text().strip() for name in _CFS_QUOTA)
        if quota in ("max", "-1"):
            return None
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError, ZeroDivisionError):
        return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its CPU affinity, capped by the
    cgroup CPU quota, which affinity does not show."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _cpu_quota() or cpus)


def _lane_count(num_samples: int, num_classes: int, dims) -> int:
    """Lanes for a round: one per usable CPU, at most one per participant,
    at most ``MAX_LANES``, and at most one per ``LANE_WORK`` of estimated
    round work, sum_k d_k (n c + d_k^2) multiply-adds (X^T Z and X W, one
    Cholesky)."""
    work = sum(d * (num_samples * num_classes + d * d) for d in dims)
    return max(1, min(len(dims), _usable_cpus(), MAX_LANES, work // LANE_WORK))


def _assign_lanes(dims, lanes: int) -> list[list[int]]:
    """Participants (by index) per lane, greedily by feature count: the
    widest unassigned participant goes to the lane with the fewest
    features so far (ties to the lower lane).  Lane 0 gets the widest."""
    assigned: list[list[int]] = [[] for _ in range(lanes)]
    loads = [0] * lanes
    for k in sorted(range(len(dims)), key=lambda k: (-dims[k], k)):
        lane = min(range(lanes), key=lambda j: (loads[j], j))
        assigned[lane].append(k)
        loads[lane] += dims[k]
    return assigned


@dataclass
class TrainingResult:
    """Converged blocks plus the per-round objective trace."""

    transforms: list[np.ndarray]
    pseudo_labels: list[np.ndarray]
    consensus: np.ndarray
    objectives: list[float]

    @property
    def rounds(self) -> int:
        return len(self.objectives)


@single_blas_thread()
def run_reference(views, labels, hyper: Hyperparams, seed) -> TrainingResult:
    """Single-process execution of the full training schedule.

    The rounds run through ``run_rounds``, the loop the coordinator runs
    too: per round every participant refits its transform and
    pseudo-labels, then the consensus is re-aggregated and the objective
    recorded.  BLAS runs on one thread throughout.

    A participant's round reads only its own state and the consensus, so
    the participants of a round run side by side on up to min(P, usable
    CPUs, ``MAX_LANES``) lanes when the round is large enough (see
    ``_lane_count``).  The calling thread runs lane 0, one worker thread
    runs each other lane, and a participant stays on one lane for the
    whole run, where it shares one factor buffer with the lane's other
    participants.  Parts are gathered and aggregated in participant
    order, so the result is the same bit for bit for any lane count.
    """
    seed = check_seed(seed)
    states = make_states(views, labels, hyper, seed)
    n, num_classes = states[0].pseudo_labels.shape
    dims = [st.features.shape[1] for st in states]
    lanes = _assign_lanes(dims, _lane_count(n, num_classes, dims))
    for lane in lanes:
        # the participants of a lane run one at a time: one factor buffer
        shared = np.empty(max(dims[k] for k in lane) ** 2)
        for k in lane:
            states[k].work = shared[:dims[k] ** 2].reshape((dims[k], dims[k]), order="F")
    workers = [ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"mmvfl-lane{j}")
               for j in range(1, len(lanes))]

    def run_lane(lane, consensus):
        return [(k, participant_round(states[k], consensus, hyper)) for k in lane]

    def refit(_, consensus):
        futures = [worker.submit(run_lane, lane, consensus)
                   for worker, lane in zip(workers, lanes[1:])]
        try:
            done = run_lane(lanes[0], consensus)
        finally:
            wait(futures)
        for future in futures:
            done += future.result()
        return [st.pseudo_labels for st in states], [part for _, part in sorted(done)]

    try:
        consensus, objectives = run_rounds(refit, init_consensus(n, num_classes, seed), hyper)
    finally:
        for worker in workers:
            worker.shutdown()
    return TrainingResult(
        transforms=[st.transform for st in states],
        pseudo_labels=[st.pseudo_labels for st in states],
        consensus=consensus,
        objectives=objectives,
    )
