"""Participant side of the round-based training protocol.

A participant keeps its feature block, transform, and (for the label
owner) label matrix strictly local.  Per round it
refits locally, uploads only its pseudo-label matrix plus a scalar
objective contribution, and waits for the next consensus broadcast.
"""

from __future__ import annotations

from ..optimizer import (
    DimensionMismatchError,
    ParticipantState,
    init_participant_state,
    participant_round,
)
from .channels import MessageChannel
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

    ``labels`` is the one-hot label matrix for the label owner and None
    for everyone else.  Initialization is a pure function of
    ``config.seed`` and ``participant_id``, so a federated session and
    the single-process reference start from identical blocks.
    """
    channel = channel if isinstance(channel, MessageChannel) else MessageChannel(channel)
    state = init_participant_state(
        participant_id, features, config.hyper, config.shape.num_classes,
        config.seed, labels=labels)

    matrix_shape = (config.shape.num_samples, config.shape.num_classes)
    if state.features.shape[0] != matrix_shape[0]:
        raise DimensionMismatchError("feature rows disagree with the session shape")

    try:
        channel.send(RoundMessage(
            kind=KIND_REGISTER, round=0, participant_id=participant_id,
            objective_part=1.0 if state.is_label_owner else 0.0))

        # Answer the consensus of round r (0: the seeded one) with the
        # upload of round r + 1, until the coordinator says Converged.
        round_index = 0
        while True:
            message, _ = channel.recv(timeout=config.round_timeout)
            if message.kind == KIND_ABORT:
                raise FederationAbortError("session aborted by the coordinator")
            if (message.kind not in (KIND_Z_BROADCAST, KIND_CONVERGED)
                    or message.round != round_index):
                raise FederationAbortError(
                    f"unexpected message {message.kind} for round {message.round}")
            if message.payload is None or message.payload.shape != matrix_shape:
                raise DimensionMismatchError("broadcast consensus has the wrong shape")
            if message.kind == KIND_CONVERGED:
                return state
            round_index += 1
            part = participant_round(state, message.payload, config.hyper)
            channel.send(RoundMessage(
                kind=KIND_ZK_UPLOAD, round=round_index, participant_id=participant_id,
                payload=state.pseudo_labels, objective_part=part))
    finally:
        channel.close()
