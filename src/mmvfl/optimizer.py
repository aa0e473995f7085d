"""Alternating-minimization training for consensus pseudo-labels.

Each participant k holds a private feature block ``X_k`` (same rows, its
own columns) and learns a transformation matrix ``W_k`` plus a local
pseudo-label matrix.  A shared consensus matrix ties the local
pseudo-labels together; a participant that holds the labels has its own
pulled toward the one-hot labels ``Y`` as well.  The training objective is

    sum_k  ||X_k W_k - Z_k||_F^2
         + sparsity_k * ||W_k||_{2,1}
         + consensus_penalty_k * ||Z_k - Z||_F^2
         + label_penalty * [k holds the labels] * ||Z_k - Y||_F^2

where ``Z_k`` are the local pseudo-labels and ``Z`` the consensus.  The
weights live in one ``Hyperparams``, which every round reads.  A round
is two-block coordinate descent on a jointly convex form of the
objective, with no inner loop: every ``W_k`` takes one reweighted
least-squares step from its current value (see ``participant_round``),
then the consensus and every pseudo-label are minimized jointly, in
closed form, from the uploads (see ``joint_consensus``).
``run_reference`` executes the full schedule in a single process and
serves as the equivalence oracle for the federated protocol.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    CHOLESKY_TILE,
    _cholesky_solve_in_place,
    _run_tasks,
    check_seed,
    derive_seed,
    ensure_matrix,
    random_orthonormal,
    single_blas_thread,
)

# Keeps the reweighting 1/(2(t + EPS)) finite on a zero row: a solver detail, not a weight.
EPS = 1e-6

# Relative slack, with a floor of 1: a reweighted step that raises its
# block's smoothed objective by more than MONOTONICITY_SLACK * max(1,
# |the value before the step|) is a numerical fault, and so is a round
# whose recorded objective is below -MONOTONICITY_SLACK * max(1, its
# ``round_objective`` total).
MONOTONICITY_SLACK = 1e-9

# Estimated multiply-adds a round needs before its participant refits are
# shared with the scope's helper thread (see ``_share_refits``).  Threads
# only gain while LAPACK and BLAS run without the interpreter lock; on
# small blocks the lock hand-offs between numpy calls cost more than that
# overlap saves.  Measured on 2 cores with one reweighted step per
# participant round (10 alternating pairs of 10-round runs per shape),
# two threads against one took a median 1.71x as long at 1.8e6 of
# estimated work, 1.03x and 0.99x at 6e6 and 8e6, 0.82-0.87x at
# 1e7-1.5e7, 0.74x on the HW shape (3.8e7) and 0.82x on C7 (8.8e9).
LANE_WORK = 8_000_000

# Stream tags for seed derivation; every randomly initialized block gets
# its own child seed so federated and single-process runs agree bitwise.
_TRANSFORM_STREAM = 0
_PSEUDO_LABEL_STREAM = 1
_CONSENSUS_STREAM = 2


class DimensionMismatchError(Exception):
    """Participant blocks disagree on sample count or class count."""


class NonDecreasingObjectiveError(Exception):
    """A reweighted step raised its block's smoothed objective beyond
    slack: numerical fault."""


@dataclass(frozen=True)
class ProblemShape:
    """Dimensions of a multi-participant training problem."""

    num_participants: int
    num_classes: int
    num_samples: int

    def __post_init__(self):
        if self.num_participants < 2:
            raise ValueError("need at least two participants")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.num_samples < self.num_classes:
            raise ValueError("need at least as many samples as classes")


def check_solver_controls(tol, max_iter):
    """The bounds of the rounds' stopping controls: a positive tolerance
    and an integer round limit of at least 1."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError("iteration limit must be an integer >= 1")


def check_weight(value) -> float:
    """A weight (beta_k, zeta_k or eta) as a float: ``TypeError`` unless it
    is a real number and not a bool, so a string or a flag is never read
    as a weight, and ``ValueError`` unless it is finite and positive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"a weight must be a real number, not {value!r}")
    if not 0 < value < math.inf:
        raise ValueError(f"a weight must be finite and positive, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class Hyperparams:
    """Every setting a training run reads, in one place.

    ``sparsity`` (beta_k) and ``consensus_penalty`` (zeta_k) hold one value
    per participant, indexed by ``participant_id``; ``label_penalty`` (eta)
    applies only to the participants that hold the labels.  ``outer_tol``
    and ``outer_max`` stop the rounds.
    """

    sparsity: tuple[float, ...]
    consensus_penalty: tuple[float, ...]
    label_penalty: float
    outer_tol: float = 1e-5
    outer_max: int = 100

    def __post_init__(self):
        if len(self.sparsity) != len(self.consensus_penalty):
            raise ValueError("sparsity and consensus_penalty must have equal length")
        for weight in (*self.sparsity, *self.consensus_penalty, self.label_penalty):
            check_weight(weight)
        check_solver_controls(self.outer_tol, self.outer_max)

    @classmethod
    def uniform(cls, num_participants: int, *, sparsity: float = 0.1,
                consensus_penalty: float = 1000.0, label_penalty: float = 1000.0,
                **kwargs) -> "Hyperparams":
        """Same sparsity/consensus weight for every participant."""
        return cls(
            sparsity=(check_weight(sparsity),) * num_participants,
            consensus_penalty=(check_weight(consensus_penalty),) * num_participants,
            label_penalty=check_weight(label_penalty),
            **kwargs,
        )


@dataclass
class ParticipantState:
    """Everything participant k keeps locally between rounds.

    ``features``, ``transform``, ``labels`` (one-hot if it holds the
    labels, else None) and ``projection`` = X W (None before the first
    round's step) never leave the participant; only ``pseudo_labels`` and
    scalar objective contributions are shared.  It keeps no weights: every
    round reads them from the run's ``Hyperparams``.

    ``gram`` = X^T X is the state's only d x d array: each round's step
    factors it in place and restores it bit for bit (see
    ``_reweighted_step``).  ``gram_transform`` = G W is the product the
    step that made ``transform`` returned, which the next step's descent
    guard starts from.
    """

    participant_id: int
    features: np.ndarray
    gram: np.ndarray = field(repr=False)
    transform: np.ndarray
    gram_transform: np.ndarray = field(repr=False)
    pseudo_labels: np.ndarray
    labels: np.ndarray | None = None
    projection: np.ndarray | None = field(default=None, repr=False)


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Encode integer class labels as a one-hot float64 matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if labels.size == 0:
        raise ValueError("labels must be non-empty")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("labels out of range")
    encoded = np.zeros((labels.size, num_classes), dtype=np.float64)
    encoded[np.arange(labels.size), labels] = 1.0
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
    """The feature Gram matrix X^T X, exactly symmetric.  ``features`` is
    trusted: every caller checked it at its boundary.

    Up to ``CHOLESKY_TILE`` columns it is one numpy product, built on the
    calling thread.  A wider block X = [X_1 X_2] is split after
    round(d / sqrt(2)) columns, where the two tasks below cost about the
    same, and built as one batch of ``_run_tasks``, shared with the scope's
    helper thread: X_1^T X_1 into the head block, and X_2^T X_1, X_2^T X_2
    and the mirror of X_2^T X_1 into the upper triangle.  Each product is
    one numpy ``matmul`` into its place in the Gram (numpy's symmetric
    rank-k update on the diagonal blocks, which fills both triangles), so
    nothing d x d is allocated beside the result, and its bits depend
    only on the shape.  numpy takes that update only for an operand BLAS
    reads in place, so a block in any layout but C order is copied into
    C order first (CSV, ``synth_planted`` and sweep blocks are C order)."""
    features = np.ascontiguousarray(features)
    d = features.shape[1]
    if d <= CHOLESKY_TILE:
        return features.T @ features
    gram = np.empty((d, d))
    split = round(d / math.sqrt(2))
    head, tail = features[:, :split], features[:, split:]

    def build_head():
        np.matmul(head.T, head, out=gram[:split, :split])

    def build_tail():
        np.matmul(tail.T, head, out=gram[split:, :split])
        np.matmul(tail.T, tail, out=gram[split:, split:])
        gram[:split, split:] = gram[split:, :split].T

    _run_tasks([build_head, build_tail])
    return gram


def smoothed_row_penalty(norms) -> float:
    """Smoothed row-sparsity penalty sum_i (t_i - EPS*log(1 + t_i/EPS)).

    This is the exact penalty the reweighted solve descends on: its
    derivative in the squared row norm equals the reweighting diagonal
    1/(2(t+EPS)).  It lower-bounds the plain row-norm sum and meets it
    as EPS -> 0, but unlike the raw sum it is guaranteed non-increasing
    across reweighted iterations, so the monotonicity guard watches it
    rather than the raw objective (which can rise by up to EPS*d/2)."""
    norms = np.asarray(norms, dtype=np.float64)
    return float(np.sum(norms - EPS * np.log1p(norms / EPS)))


def _reweighted_step(gram, xty, target_sq, sparsity, start=None):
    """One reweighted least-squares step for one block minimizing
    ||X W - T||_F^2 + sparsity ||W||_{2,1}, given G = X^T X, X^T T and
    ||T||_F^2, so the fit term is the Gram form
    sum(W * (G W - 2 X^T T)) + ||T||_F^2 with no n-row temporary.
    ``start`` = ``(W0, G W0)`` sets the diagonal 1/(2(||w_i|| + EPS)) of
    W0's rows and arms the descent guard; ``None`` uses the unit diagonal.
    The step solves (G + sparsity diag) W = X^T T.  G is exactly
    symmetric, so G.T is G in Fortran order, the layout the in-place
    Cholesky factor needs: G is factored in its own lower triangle and
    restored bit for bit before the solve returns (see
    ``numerics._cholesky_solve_in_place``), so no other thread may read
    it meanwhile.  Inputs are trusted (the callers check them).  Returns
    ``(W, G W, objective)``, the raw objective at W.

    The guard raises when the smoothed objective rises from W0 by more
    than ``MONOTONICITY_SLACK`` times max(1, |its value at W0|).  It
    computes the change, sum(dW * (G (W0 + W) - 2 X^T T)) plus the
    penalty change, not the difference of two Gram-form values: their
    rounding error scales with |W| |G| |W|, which on an ill-conditioned
    block exceeds the slack where the residual form still descends; the
    change's scales with |dW| |G| |W|."""
    if start is None:
        diag = np.ones(gram.shape[0])
    else:
        w0, gw0 = start
        norms0 = np.sqrt(np.sum(w0 * w0, axis=1))
        diag = 1.0 / (2.0 * (norms0 + EPS))
    w, gw = _cholesky_solve_in_place(gram.T, xty, sparsity * diag)
    if not np.isfinite(w).all():
        raise ValueError("a transform contains non-finite entries")
    norms = np.sqrt(np.sum(w * w, axis=1))
    if start is not None:
        penalty0 = sparsity * smoothed_row_penalty(norms0)
        smoothed0 = float(np.sum(w0 * (gw0 - 2.0 * xty))) + target_sq + penalty0
        rise = (float(np.sum((w - w0) * (gw + gw0 - 2.0 * xty)))
                + (sparsity * smoothed_row_penalty(norms) - penalty0))
        if rise > MONOTONICITY_SLACK * max(1.0, abs(smoothed0)):
            raise NonDecreasingObjectiveError(
                f"smoothed objective rose by {rise!r} from {smoothed0!r}")
    fit = float(np.sum(w * (gw - 2.0 * xty))) + target_sq
    return w, gw, fit + sparsity * float(norms.sum())


def pseudo_label_update(projected, consensus, consensus_penalty: float, labels=None,
                        label_penalty: float = 0.0) -> np.ndarray:
    """Pseudo-label minimizer: weighted average of the local projection,
    the consensus and, for a participant that holds ``labels``, the
    one-hot labels."""
    pull = projected + consensus_penalty * consensus
    weight = 1.0 + consensus_penalty
    if labels is not None:
        pull += label_penalty * labels
        weight += label_penalty
    return pull / weight


def refresh_pseudo_labels(state: ParticipantState, consensus, hyper: Hyperparams) -> None:
    """Set the state's pseudo-labels to their minimizer against
    ``consensus``, from its last projection X_k W_k."""
    state.pseudo_labels = pseudo_label_update(
        state.projection, consensus, hyper.consensus_penalty[state.participant_id],
        state.labels, hyper.label_penalty)


def joint_consensus(uploads, broadcast, hyper: Hyperparams, owners):
    """The consensus that minimizes the objective jointly with every
    pseudo-label while the transforms stay fixed, and the curvature s of
    that minimization.

    Each upload Z_k is participant k's pseudo-label minimizer against the
    broadcast Z_b, Z_k = (1 - b_k) Q_k + b_k Z_b with b_k = zeta_k / (1 +
    zeta_k + [eta if k is in ``owners``, the ids of the participants that
    hold the labels]), where Q_k is what its projection and labels pull
    toward.  Minimized over Z_k, the objective is sum_k zeta_k (1 - b_k)
    ||Z - Q_k||^2 plus a constant: a quadratic in Z with Hessian 2 s I,
    s = sum_k zeta_k (1 - b_k), minimized by Z* = sum_k zeta_k (Z_k - b_k
    Z_b) / s.  So its value at Z* is its value at
    Z_b less s ||Z* - Z_b||^2.  Z* = Z_b + (sum_k zeta_k / s) (Z_agg -
    Z_b), where Z_agg is the zeta-weighted mean of the uploads: the plain
    consensus update, over-relaxed by a fixed factor of at least 1.  The
    uploads are trusted to be finite and of one shape (see
    ``run_rounds``).  Returns ``(Z*, s)``."""
    numerator = np.zeros(broadcast.shape)
    curvature = 0.0
    for k, (upload, zeta) in enumerate(zip(uploads, hyper.consensus_penalty)):
        pull = zeta / (1.0 + zeta + (hyper.label_penalty if k in owners else 0.0))
        numerator += zeta * (upload - pull * broadcast)
        curvature += zeta * (1.0 - pull)
    return numerator / curvature, curvature


# ---------------------------------------------------------------------------
# Objective bookkeeping


def _sum_sq(m) -> float:
    """Sum of squared entries of an array the caller built itself."""
    return float(np.sum(m * m))


def local_objective_part(state: ParticipantState, projected, hyper: Hyperparams) -> float:
    """The objective terms participant k can evaluate alone: fit error,
    sparsity penalty, and (if it holds the labels) the label attachment
    term, given ``projected`` = ``X_k W_k``."""
    w = state.transform
    value = _sum_sq(projected - state.pseudo_labels)
    value += hyper.sparsity[state.participant_id] * float(np.sum(np.sqrt(np.sum(w * w, axis=1))))
    if state.labels is not None:
        value += hyper.label_penalty * _sum_sq(state.pseudo_labels - state.labels)
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


def _new_state(participant_id, features, gram, num_classes, seed, labels):
    """A participant's starting state from the shared seed, on checked
    inputs: ``gram`` is X^T X of ``features``, and ``labels`` (if the
    participant holds the labels, else None) is samples x ``num_classes``."""
    n, d = features.shape
    transform = init_transform(d, num_classes, seed, participant_id)
    return ParticipantState(
        participant_id=participant_id,
        features=features,
        gram=gram,
        transform=transform,
        # G W as (W^T G)^T, the order of ``numerics._cholesky_solve_in_place``
        gram_transform=(transform.T @ gram).T,
        pseudo_labels=init_pseudo_labels(n, num_classes, seed, participant_id),
        labels=labels,
    )


def _check_inputs(views, labels, hyper: Hyperparams):
    """The views and one-hot labels checked against each other and
    ``hyper``, with their ``ProblemShape``: the one input check of
    ``make_states`` and ``federation.run_federated``."""
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
    shape = ProblemShape(len(views), labels.shape[1], n)
    return views, labels, shape


def make_states(views, labels, hyper: Hyperparams, seed) -> list[ParticipantState]:
    """States for all participants; participant 0 gets the labels.  Each
    view and the labels are checked once, by ``_check_inputs``."""
    views, labels, shape = _check_inputs(views, labels, hyper)
    return [
        _new_state(k, view, gram_matrix(view), shape.num_classes, seed, None if k else labels)
        for k, view in enumerate(views)
    ]


# ---------------------------------------------------------------------------
# Round schedule


def participant_round(state: ParticipantState, consensus, hyper: Hyperparams) -> float:
    """One local round against the broadcast consensus: a refresh of the
    pseudo-labels against it from the last projection (from round 2 on),
    one reweighted step of the transform from its current value against
    them, a refresh from the new projection, and the local objective
    contribution (the only scalar that leaves the participant).

    The first refresh puts the pseudo-labels where the coordinator's
    joint minimization left them (see ``joint_consensus``), so the round
    starts from the objective last recorded; round 1 starts from the
    seeded ones.  The step is one ``_reweighted_step`` from the current
    transform, so one solve with the diagonal 1/(2(||w_i|| + EPS)) of its
    rows under the step's descent guard: the exact minimizer of the fit
    plus the eta-variational form of the penalty, sum_i (||w_i||^2 /
    eta_i + eta_i) / 2, at eta_i = ||w_i|| + EPS (Bach, Jenatton, Mairal
    & Obozinski 2012, section 5.1).  That form is jointly convex, so the
    rounds are block coordinate descent on it, with no inner loop and no
    inner stopping rule.  beta_k and zeta_k are read from ``hyper`` at
    ``participant_id``.  The state's features were checked when it was
    built, so they are not checked again here."""
    if state.projection is not None:
        refresh_pseudo_labels(state, consensus, hyper)
    targets = state.pseudo_labels
    # X^T T and X W with the n x d block as stored, not transposed: the
    # operand order in which OpenBLAS forms a product with a thin factor fast
    state.transform, state.gram_transform, _ = _reweighted_step(
        state.gram, (targets.T @ state.features).T, _sum_sq(targets),
        hyper.sparsity[state.participant_id],
        start=(state.transform, state.gram_transform))
    state.projection = (state.transform.T @ state.features.T).T
    refresh_pseudo_labels(state, consensus, hyper)
    return local_objective_part(state, state.projection, hyper)


def run_rounds(refit, consensus, hyper: Hyperparams, owners):
    """The one loop over training rounds, shared by ``run_reference`` and
    the coordinator.

    In round r (from 1), ``refit(r, consensus)`` has every participant
    run ``participant_round`` against the consensus Z_b broadcast after
    round r - 1 (the seeded one in round 1) and returns
    ``(pseudo_labels, parts)`` in participant order: the uploaded
    matrices and objective contributions.  From them and Z_b,
    ``joint_consensus`` gives Z*, the consensus that minimizes the
    objective jointly with every pseudo-label, ``owners`` being the ids of
    the participants that hold the labels, and the curvature s.  The
    objective at Z* and the pseudo-labels that go with it,
    round_objective(parts, uploads, zeta, Z_b) - s ||Z* - Z_b||^2, is
    recorded, exactly and without a second pass over the uploads, and Z*
    is broadcast.  So a round is two-block
    coordinate descent, the transforms then the consensus with the
    pseudo-labels, and the trace is non-increasing as far as the
    participants' steps descend.  The run stops once the relative change
    of the recorded objective drops below ``outer_tol``, or in round
    ``outer_max``.  The matrices are not checked again here: the caller
    built them or checked them when they arrived.  But when the uploads
    are the participants' minimizers, the recorded value is the minimum
    of a sum of squares and norms, so a value below
    -``MONOTONICITY_SLACK`` max(1, the ``round_objective`` total) raises
    ``ValueError``: an upload did not answer the broadcast.
    Returns ``(consensus, objectives, converged)``: the last Z*, the
    trace, and whether the run stopped on ``outer_tol`` rather than at
    ``outer_max``.
    """
    objectives: list[float] = []
    for round_index in range(1, hyper.outer_max + 1):
        pseudo_labels, parts = refit(round_index, consensus)
        joint, curvature = joint_consensus(pseudo_labels, consensus, hyper, owners)
        total = round_objective(parts, pseudo_labels, hyper.consensus_penalty, consensus)
        value = total - curvature * _sum_sq(joint - consensus)
        if value < -MONOTONICITY_SLACK * max(1.0, total):
            raise ValueError(f"round {round_index} recorded the objective {value!r}, below "
                             "zero: an upload is not its participant's minimizer against "
                             "the broadcast")
        converged = bool(objectives) and has_converged(objectives[-1], value, hyper.outer_tol)
        objectives.append(value)
        consensus = joint
        if converged or round_index == hyper.outer_max:
            return consensus, objectives, converged


def _share_refits(num_samples: int, num_classes: int, dims) -> bool:
    """Whether a round's participant refits are shared with the scope's
    helper thread: at least two participants and at least ``LANE_WORK``
    of estimated round work, sum_k d_k (n c + d_k^2) multiply-adds (X^T Z
    and X W, one Cholesky)."""
    work = sum(d * (num_samples * num_classes + d * d) for d in dims)
    return len(dims) >= 2 and work >= LANE_WORK


@dataclass
class TrainingResult:
    """Final blocks, the per-round objective trace, and whether the run
    stopped on ``outer_tol`` (False: it stopped at ``outer_max``)."""

    transforms: list[np.ndarray]
    pseudo_labels: list[np.ndarray]
    consensus: np.ndarray
    objectives: list[float]
    converged: bool

    @property
    def rounds(self) -> int:
        return len(self.objectives)


@single_blas_thread()
def run_reference(views, labels, hyper: Hyperparams, seed) -> TrainingResult:
    """Single-process training: ``make_states``, then ``train_states``, BLAS on one thread."""
    seed = check_seed(seed)
    return train_states(make_states(views, labels, hyper, seed), hyper, seed)


def train_states(states, hyper: Hyperparams, seed) -> TrainingResult:
    """Run the rounds from ``states``, built from ``seed`` as ``make_states``
    builds them, and the consensus ``seed`` gives.  Each step factors its
    state's Gram in place, so no other thread may read it meanwhile.

    The states that hold labels get the label penalty.  The rounds run
    through ``run_rounds``, the loop the coordinator runs too: per round every
    participant refits its transform and pseudo-labels, then the
    consensus and pseudo-labels are minimized jointly and the objective
    recorded.  Afterwards every state's pseudo-labels are refreshed
    against the final consensus, where that joint minimization put them.
    A participant's round reads only its own state and the consensus, so
    when the round is large enough (see ``_share_refits``) its refits are
    one batch of ``numerics._run_tasks``: the calling thread and the
    scope's helper thread claim them, widest block first.  Each part is
    stored at its participant's index and summed in participant order, so
    the result is the same bit for bit however the refits were shared,
    and on one CPU, where there is no helper.
    """
    n, num_classes = states[0].pseudo_labels.shape
    dims = [st.features.shape[1] for st in states]
    widest_first = sorted(range(len(states)), key=lambda k: -dims[k])
    share = _share_refits(n, num_classes, dims)
    parts = [0.0] * len(states)

    def refit_one(k, consensus):
        parts[k] = participant_round(states[k], consensus, hyper)

    def refit(_, consensus):
        tasks = [functools.partial(refit_one, k, consensus) for k in widest_first]
        if share:
            _run_tasks(tasks)
        else:
            for task in tasks:
                task()
        return [st.pseudo_labels for st in states], list(parts)

    owners = {st.participant_id for st in states if st.labels is not None}
    consensus, objectives, converged = run_rounds(
        refit, init_consensus(n, num_classes, seed), hyper, owners)
    for st in states:
        refresh_pseudo_labels(st, consensus, hyper)
    return TrainingResult(
        transforms=[st.transform for st in states],
        pseudo_labels=[st.pseudo_labels for st in states],
        consensus=consensus,
        objectives=objectives,
        converged=converged,
    )
