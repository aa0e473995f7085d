"""Coordinator side of the round-based training protocol.

The coordinator never sees features, transforms, or labels: it receives
pseudo-label uploads plus scalar objective contributions, minimizes the
objective over the consensus jointly with the pseudo-labels, checks
convergence on the summed objective, and broadcasts.  Its message trace is the audit surface for the privacy
checks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..optimizer import Hyperparams, ProblemShape, init_consensus, run_rounds
from .channels import ChannelClosedError, ChannelTimeoutError, TcpChannel
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
    """The session ended on a protocol fault or a failed send or receive;
    a participant raises it on the coordinator's ``Abort``."""


class RoundTimeoutError(Exception):
    """A participant missed a round deadline."""

    def __init__(self, participant_id, detail=""):
        self.participant_id = participant_id
        suffix = f": {detail}" if detail else ""
        super().__init__(f"participant {participant_id} missed the deadline{suffix}")


def check_round_timeout(seconds) -> None:
    """``ValueError`` unless ``seconds`` is in (0, ``threading.TIMEOUT_MAX``],
    the longest wait the threading and socket timeouts accept."""
    if not 0 < seconds <= threading.TIMEOUT_MAX:
        raise ValueError(f"round_timeout must be in (0, {threading.TIMEOUT_MAX:g}] seconds")


@dataclass(frozen=True)
class FederationConfig:
    """Static session parameters shared by coordinator and participants."""

    shape: ProblemShape
    hyper: Hyperparams
    seed: int
    round_timeout: float = 60.0

    def __post_init__(self):
        check_round_timeout(self.round_timeout)
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
    label_owner: bool = False


@dataclass
class CoordinatorResult:
    """Final consensus, per-round objectives, the message trace, and
    whether the run stopped on ``outer_tol`` rather than at
    ``outer_max``."""

    consensus: np.ndarray
    objectives: list[float]
    trace: list[TracedMessage]
    converged: bool


def _trace_entry(direction: str, message: RoundMessage, nbytes: int) -> TracedMessage:
    shape = None if message.payload is None else tuple(message.payload.shape)
    return TracedMessage(
        direction=direction, kind=message.kind, round=message.round,
        participant_id=message.participant_id, nbytes=nbytes,
        payload_shape=shape, objective_part=message.objective_part,
        label_owner=message.label_owner)


def coordinator_run(config: FederationConfig, channels) -> CoordinatorResult:
    """Drive one full training session over already-connected channels.

    ``channels`` are connected ``TcpChannel``s, one per participant;
    participant identities come from their Register messages, and the
    participants that register as holding the labels are the ones
    ``run_rounds`` weighs with the label penalty.  The rounds run through
    ``optimizer.run_rounds``.  The ``ZBroadcast`` of round r carries the
    consensus after round r: the seeded one for r = 0, else the joint
    minimizer Z* of round r (see ``optimizer.joint_consensus``).  Every
    upload of round r + 1 answers it.  The last round's Z* goes out as
    ``Converged``, and each participant refreshes its pseudo-labels
    against it.
    Any failure sends ``Abort`` on every channel that still takes it,
    closes the channels and re-raises: ``RoundTimeoutError`` when a
    participant misses ``round_timeout``, ``FederationAbortError`` on a
    protocol fault or on a failed send or receive (naming the
    participant), and ``run_rounds``'s ``ValueError`` when uploads that
    do not answer the broadcast drive a recorded objective below zero.
    """
    expected = config.shape.num_participants
    if len(channels) != expected:
        raise ValueError(f"need {expected} channels, got {len(channels)}")
    matrix_shape = (config.shape.num_samples, config.shape.num_classes)
    trace: list[TracedMessage] = []
    by_id: dict[int, TcpChannel] = {}

    def exchange(who, operation, *args):
        try:
            return operation(*args)
        except ChannelTimeoutError as exc:
            raise RoundTimeoutError(who, str(exc)) from exc
        except (ChannelClosedError, ProtocolError) as exc:
            raise FederationAbortError(f"transport failure on participant {who}: {exc}") from exc

    def receive(ch: TcpChannel, who) -> RoundMessage:
        message, nbytes = exchange(who, ch.recv, config.round_timeout)
        trace.append(_trace_entry("recv", message, nbytes))
        return message

    def broadcast(kind: str, round_index: int, consensus):
        for pid in sorted(by_id):
            message = RoundMessage(kind=kind, round=round_index,
                                   participant_id=pid, payload=consensus)
            trace.append(_trace_entry("sent", message, exchange(pid, by_id[pid].send, message)))

    def upload(pid: int, round_index: int) -> RoundMessage:
        message = receive(by_id[pid], pid)
        if message.kind != KIND_ZK_UPLOAD:
            raise FederationAbortError(f"expected ZkUpload, got {message.kind}")
        if message.round != round_index or message.participant_id != pid:
            raise FederationAbortError(f"out-of-order upload from participant {pid}")
        if message.payload is None or message.payload.shape != matrix_shape:
            raise FederationAbortError(f"bad upload payload shape from participant {pid}")
        if message.objective_part is None:
            raise FederationAbortError(f"upload without objective part from participant {pid}")
        return message

    def refit(round_index: int, consensus):
        broadcast(KIND_Z_BROADCAST, round_index - 1, consensus)
        uploads = [upload(pid, round_index) for pid in sorted(by_id)]
        return [m.payload for m in uploads], [m.objective_part for m in uploads]

    try:
        # Registration: one Register per channel, distinct ids, exactly
        # one label owner.
        owners = set()
        for index, ch in enumerate(channels):
            message = receive(ch, f"<unregistered channel {index}>")
            if message.kind != KIND_REGISTER:
                raise FederationAbortError(f"expected Register, got {message.kind}")
            pid = message.participant_id
            if pid >= expected:
                raise FederationAbortError(f"participant id {pid} out of range")
            if pid in by_id:
                raise FederationAbortError(f"duplicate registration for participant {pid}")
            if message.label_owner:
                owners.add(pid)
            by_id[pid] = ch
        if len(owners) != 1:
            raise FederationAbortError(f"need exactly one label owner, got {sorted(owners)}")

        consensus, objectives, converged = run_rounds(
            refit, init_consensus(*matrix_shape, config.seed), config.hyper, owners)
        broadcast(KIND_CONVERGED, len(objectives), consensus)
    except BaseException:
        notice = RoundMessage(kind=KIND_ABORT, round=0, participant_id=0)
        for ch in channels:
            try:
                ch.send(notice)
            except ChannelClosedError:
                pass  # that participant has already gone
        raise
    finally:
        for ch in channels:
            ch.close()
    return CoordinatorResult(consensus=consensus, objectives=objectives, trace=trace,
                             converged=converged)
