"""Participant side of the round-based training protocol.

A participant keeps its feature block, transform, and (if it holds
them) the labels strictly local.  Per round it refits locally, uploads
only its pseudo-label matrix plus a scalar objective contribution, and
waits for the next consensus broadcast.
On ``Converged`` it refreshes its pseudo-labels against the final
consensus, as ``optimizer.train_states`` does.
"""

from __future__ import annotations

from ..optimizer import (
    DimensionMismatchError,
    ParticipantState,
    _new_state,
    gram_matrix,
    participant_round,
    refresh_pseudo_labels,
)
from .coordinator import FederationAbortError, FederationConfig
from .messages import (
    KIND_ABORT,
    KIND_CONVERGED,
    KIND_REGISTER,
    KIND_Z_BROADCAST,
    KIND_ZK_UPLOAD,
    RoundMessage,
)


def participant_run(participant_id: int, features, labels,
                    config: FederationConfig, channel) -> ParticipantState:
    """Run one participant to completion and return its final state.

    ``labels`` is the one-hot label matrix if the participant holds the
    labels, else None.  Initialization is a pure function of
    ``config.seed`` and ``participant_id``, so a federated session and
    the single-process reference start from identical blocks.  The
    channel is closed on every exit, a failed set-up included, so the
    coordinator learns of a failure at once rather than at its deadline.
    """
    matrix_shape = (config.shape.num_samples, config.shape.num_classes)
    try:
        # inputs checked by run_federated; the Gram is built on this thread,
        # whose freed blocks stay in its own malloc arena
        state = _new_state(participant_id, features, gram_matrix(features),
                           config.shape.num_classes, config.seed, labels)

        channel.send(RoundMessage(
            kind=KIND_REGISTER, round=0, participant_id=participant_id,
            label_owner=state.labels is not None))

        # Answer the consensus of round r (0: the seeded one) with the
        # upload of round r + 1, until the coordinator says Converged.
        round_index = 0
        while True:
            # no deadline here: the coordinator holds them all, and however
            # it stops it sends Abort or closes its end, which ends this wait
            message, _ = channel.recv()
            if message.kind == KIND_ABORT:
                raise FederationAbortError("session aborted by the coordinator")
            if (message.kind not in (KIND_Z_BROADCAST, KIND_CONVERGED)
                    or message.round != round_index):
                raise FederationAbortError(
                    f"unexpected message {message.kind} for round {message.round}")
            if message.payload is None or message.payload.shape != matrix_shape:
                raise DimensionMismatchError("broadcast consensus has the wrong shape")
            if message.kind == KIND_CONVERGED:
                refresh_pseudo_labels(state, message.payload, config.hyper)
                return state
            round_index += 1
            part = participant_round(state, message.payload, config.hyper)
            channel.send(RoundMessage(
                kind=KIND_ZK_UPLOAD, round=round_index, participant_id=participant_id,
                payload=state.pseudo_labels, objective_part=part))
    finally:
        channel.close()
