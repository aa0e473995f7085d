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

from ..optimizer import Hyperparams, ProblemShape, init_consensus, run_rounds
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
        payload_shape=shape, objective_part=message.objective_part)


def coordinator_run(config: FederationConfig, channels) -> CoordinatorResult:
    """Drive one full training session over already-connected channels.

    ``channels`` are raw byte channels, one per participant connection;
    participant identities come from their Register messages.  The rounds
    run through ``optimizer.run_rounds``: each round broadcasts the
    previous round's consensus (round 0: the seeded one) and collects
    every upload, and the last consensus goes out as ``Converged``.
    Raises ``RoundTimeoutError`` when a participant misses
    ``round_timeout`` and ``FederationAbortError`` on duplicate
    registration, malformed messages, or transport failure.
    """
    channels = [ch if isinstance(ch, MessageChannel) else MessageChannel(ch)
                for ch in channels]
    expected = config.shape.num_participants
    if len(channels) != expected:
        raise ValueError(f"need {expected} channels, got {len(channels)}")
    matrix_shape = (config.shape.num_samples, config.shape.num_classes)
    trace: list[TracedMessage] = []
    by_id: dict[int, MessageChannel] = {}

    def abort_all(reason: str):
        notice = RoundMessage(kind=KIND_ABORT, round=0, participant_id=0)
        for ch in channels:
            try:
                nbytes = ch.send(notice)
            except (ChannelClosedError, ProtocolError):
                continue
            trace.append(_trace_entry("sent", notice, nbytes))
        raise FederationAbortError(reason)

    def receive(ch: MessageChannel, who, failure: str) -> RoundMessage:
        try:
            message, nbytes = ch.recv(timeout=config.round_timeout)
        except ChannelTimeoutError as exc:
            raise RoundTimeoutError(who, str(exc)) from exc
        except (ChannelClosedError, ProtocolError) as exc:
            abort_all(f"{failure}: {exc}")
        trace.append(_trace_entry("recv", message, nbytes))
        return message

    def broadcast(kind: str, round_index: int, consensus):
        for pid in sorted(by_id):
            message = RoundMessage(kind=kind, round=round_index,
                                   participant_id=pid, payload=consensus)
            trace.append(_trace_entry("sent", message, by_id[pid].send(message)))

    def upload(pid: int, round_index: int) -> RoundMessage:
        message = receive(by_id[pid], pid, f"transport failure on participant {pid}")
        if message.kind != KIND_ZK_UPLOAD:
            abort_all(f"expected ZkUpload, got {message.kind}")
        if message.round != round_index or message.participant_id != pid:
            abort_all(f"out-of-order upload from participant {pid}")
        if message.payload is None or message.payload.shape != matrix_shape:
            abort_all(f"bad upload payload shape from participant {pid}")
        if message.objective_part is None:
            abort_all(f"upload without objective part from participant {pid}")
        return message

    def refit(round_index: int, consensus):
        broadcast(KIND_Z_BROADCAST, round_index - 1, consensus)
        uploads = [upload(pid, round_index) for pid in sorted(by_id)]
        return [m.payload for m in uploads], [m.objective_part for m in uploads]

    try:
        # Registration: one Register per channel, distinct ids, exactly
        # one label owner.
        owners = []
        for index, ch in enumerate(channels):
            message = receive(ch, f"<unregistered channel {index}>",
                              f"registration failed on channel {index}")
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

        consensus, objectives = run_rounds(
            refit, init_consensus(*matrix_shape, config.seed), config.hyper)
        broadcast(KIND_CONVERGED, len(objectives), consensus)
    finally:
        for ch in channels:
            ch.close()
    return CoordinatorResult(consensus=consensus, objectives=objectives, trace=trace)
