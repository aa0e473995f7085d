"""Coordinator side of the round-based training protocol.

The coordinator never sees features, transforms, or labels: it receives
pseudo-label uploads plus scalar objective contributions, re-aggregates
the consensus, checks convergence on the summed objective, and
broadcasts.  Its message trace is the audit surface for the privacy
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..optimizer import Hyperparams, ProblemShape, close_round, init_consensus
from .channels import ChannelClosedError, ChannelTimeoutError, MessageChannel
from .messages import (
    KIND_ABORT,
    KIND_CONVERGED,
    KIND_REGISTER,
    KIND_Z_BROADCAST,
    KIND_ZK_UPLOAD,
    ProtocolError,
    RoundMessage,
)


class FederationAbortError(Exception):
    """The session ended on a protocol violation or transport failure."""


class RoundTimeoutError(Exception):
    """A participant missed a round deadline."""

    def __init__(self, participant_id, detail=""):
        self.participant_id = participant_id
        suffix = f": {detail}" if detail else ""
        super().__init__(f"participant {participant_id} missed the deadline{suffix}")


@dataclass(frozen=True)
class FederationConfig:
    """Static session parameters shared by coordinator and participants."""

    shape: ProblemShape
    hyper: Hyperparams
    seed: int
    round_timeout: float = 60.0

    def __post_init__(self):
        if not self.round_timeout > 0:
            raise ValueError("round_timeout must be positive")
        if len(self.hyper.sparsity) != self.shape.num_participants:
            raise ValueError("hyperparameters must cover every participant")


@dataclass(frozen=True)
class TracedMessage:
    """One protocol message as seen by the coordinator."""

    direction: str  # "recv" or "sent"
    kind: str
    round: int
    participant_id: int
    nbytes: int
    payload_shape: tuple[int, int] | None = None
    payload: np.ndarray | None = None
    objective_part: float | None = None


@dataclass
class CoordinatorResult:
    """Final consensus, per-round objectives, and the message trace."""

    consensus: np.ndarray
    objectives: list[float]
    trace: list[TracedMessage]


def _trace_entry(direction: str, message: RoundMessage, nbytes: int) -> TracedMessage:
    shape = None if message.payload is None else tuple(message.payload.shape)
    return TracedMessage(
        direction=direction, kind=message.kind, round=message.round,
        participant_id=message.participant_id, nbytes=nbytes,
        payload_shape=shape, payload=message.payload,
        objective_part=message.objective_part)


def coordinator_run(config: FederationConfig, channels) -> CoordinatorResult:
    """Drive one full training session over already-connected channels.

    ``channels`` are raw byte channels, one per participant connection;
    participant identities come from their Register messages.  Raises
    ``RoundTimeoutError`` when a participant misses ``round_timeout`` and
    ``FederationAbortError`` on duplicate registration, malformed
    messages, or transport failure.
    """
    channels = [ch if isinstance(ch, MessageChannel) else MessageChannel(ch)
                for ch in channels]
    expected = config.shape.num_participants
    if len(channels) != expected:
        raise ValueError(f"need {expected} channels, got {len(channels)}")
    trace: list[TracedMessage] = []

    def abort_all(reason: str):
        notice = RoundMessage(kind=KIND_ABORT, round=0, participant_id=0)
        for ch in channels:
            try:
                nbytes = ch.send(notice)
            except (ChannelClosedError, ProtocolError):
                continue
            trace.append(_trace_entry("sent", notice, nbytes))
        raise FederationAbortError(reason)

    try:
        # Registration: one Register per channel, distinct ids, exactly
        # one label owner.
        by_id: dict[int, MessageChannel] = {}
        owners = []
        for index, ch in enumerate(channels):
            try:
                message, nbytes = ch.recv(timeout=config.round_timeout)
            except ChannelTimeoutError as exc:
                raise RoundTimeoutError(f"<unregistered channel {index}>", str(exc)) from exc
            except (ChannelClosedError, ProtocolError) as exc:
                abort_all(f"registration failed on channel {index}: {exc}")
            trace.append(_trace_entry("recv", message, nbytes))
            if message.kind != KIND_REGISTER:
                abort_all(f"expected Register, got {message.kind}")
            pid = message.participant_id
            if pid >= expected:
                abort_all(f"participant id {pid} out of range")
            if pid in by_id:
                abort_all(f"duplicate registration for participant {pid}")
            if message.objective_part == 1.0:
                owners.append(pid)
            by_id[pid] = ch
        if len(owners) != 1:
            abort_all(f"need exactly one label owner, got {sorted(owners)}")
        ids = sorted(by_id)

        # Round 0: broadcast the seeded initial consensus.
        consensus = init_consensus(config.shape.num_samples,
                                   config.shape.num_classes, config.seed)
        for pid in ids:
            message = RoundMessage(kind=KIND_Z_BROADCAST, round=0,
                                   participant_id=pid, payload=consensus)
            nbytes = by_id[pid].send(message)
            trace.append(_trace_entry("sent", message, nbytes))

        penalties = list(config.hyper.consensus_penalty)
        matrix_shape = (config.shape.num_samples, config.shape.num_classes)
        objectives: list[float] = []
        previous = None
        for round_index in range(1, config.hyper.outer_max + 1):
            uploads: dict[int, RoundMessage] = {}
            for pid in ids:
                try:
                    message, nbytes = by_id[pid].recv(timeout=config.round_timeout)
                except ChannelTimeoutError as exc:
                    raise RoundTimeoutError(pid, str(exc)) from exc
                except (ChannelClosedError, ProtocolError) as exc:
                    abort_all(f"transport failure on participant {pid}: {exc}")
                trace.append(_trace_entry("recv", message, nbytes))
                if message.kind != KIND_ZK_UPLOAD:
                    abort_all(f"expected ZkUpload, got {message.kind}")
                if message.round != round_index or message.participant_id != pid:
                    abort_all(f"out-of-order upload from participant {pid}")
                if message.payload is None or message.payload.shape != matrix_shape:
                    abort_all(f"bad upload payload shape from participant {pid}")
                if message.objective_part is None:
                    abort_all(f"upload without objective part from participant {pid}")
                uploads[pid] = message

            consensus, value, done = close_round(
                [uploads[pid].payload for pid in ids],
                [uploads[pid].objective_part for pid in ids], penalties, previous,
                config.hyper.outer_tol)
            objectives.append(value)
            done = done or round_index == config.hyper.outer_max
            kind = KIND_CONVERGED if done else KIND_Z_BROADCAST
            for pid in ids:
                message = RoundMessage(kind=kind, round=round_index,
                                       participant_id=pid, payload=consensus)
                nbytes = by_id[pid].send(message)
                trace.append(_trace_entry("sent", message, nbytes))
            if done:
                break
            previous = value
    finally:
        for ch in channels:
            ch.close()
    return CoordinatorResult(consensus=consensus, objectives=objectives, trace=trace)
