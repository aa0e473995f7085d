"""One-call federated training session over either transport.

Spawns the coordinator and one thread per participant, wires them
together with in-process queues or loopback TCP sockets, and collects
everything a run produces.  Given the same seed and inputs the result is
bit-identical to ``optimizer.run_reference`` regardless of transport.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass

import numpy as np

from ..numerics import ensure_matrix, single_blas_thread
from ..optimizer import Hyperparams, ParticipantState, ProblemShape, check_one_hot
from .channels import InProcessChannel, TcpChannel
from .coordinator import (
    CoordinatorResult,
    FederationConfig,
    TracedMessage,
    coordinator_run,
)
from .participant import participant_run

# Generous join allowance on top of the protocol's own timeouts.
_JOIN_GRACE = 30.0


@dataclass
class FederatedResult:
    """Per-participant final states plus the coordinator's outputs."""

    states: list[ParticipantState]
    consensus: np.ndarray
    objectives: list[float]
    trace: list[TracedMessage]


class _Worker(threading.Thread):
    """Thread that keeps its target's return value or exception."""

    def __init__(self, target, args):
        super().__init__(daemon=True)
        self._target_fn = target
        self._args = args
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = self._target_fn(*self._args)
        except BaseException as exc:  # surfaced by the caller
            self.error = exc


def _tcp_channel_pairs(count: int, port: int, timeout: float):
    """Connect ``count`` loopback sockets; returns (server side, client side)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", port))
        listener.listen(count)
        listener.settimeout(timeout)
        bound_port = listener.getsockname()[1]
        client_sockets = []
        for _ in range(count):
            sock = socket.create_connection(("127.0.0.1", bound_port), timeout=timeout)
            client_sockets.append(sock)
        server_sockets = [listener.accept()[0] for _ in range(count)]
    finally:
        listener.close()
    return ([TcpChannel(s) for s in server_sockets],
            [TcpChannel(s) for s in client_sockets])


@single_blas_thread()
def run_federated(views, labels, hyper: Hyperparams, seed, *,
                  transport: str = "in_process", round_timeout: float = 60.0,
                  port: int = 0) -> FederatedResult:
    """Train over the federated protocol and return all final blocks.

    The first participant owns the labels.  ``transport`` selects
    in-process queues or loopback TCP; ``port`` 0 lets the OS pick one.
    BLAS is pinned to one thread for the whole session, so the
    participant threads' solves do not oversubscribe the cores.
    """
    views = [ensure_matrix(v, f"views[{k}]") for k, v in enumerate(views)]
    labels = check_one_hot(labels)
    shape = ProblemShape(
        num_participants=len(views),
        num_classes=labels.shape[1],
        num_samples=views[0].shape[0],
        dims=tuple(v.shape[1] for v in views),
    )
    config = FederationConfig(shape=shape, hyper=hyper, seed=seed,
                              round_timeout=round_timeout)

    if transport == "in_process":
        pairs = [InProcessChannel.pair() for _ in views]
        coordinator_side = [a for a, _ in pairs]
        participant_side = [b for _, b in pairs]
    elif transport == "tcp":
        coordinator_side, participant_side = _tcp_channel_pairs(
            len(views), port, round_timeout)
    else:
        raise ValueError(f"unknown transport {transport!r}")

    workers = []
    for k, view in enumerate(views):
        worker = _Worker(participant_run,
                         (k, view, labels if k == 0 else None, config,
                          participant_side[k]))
        workers.append(worker)
        worker.start()

    coordinator_error = None
    coordinator_result: CoordinatorResult | None = None
    try:
        coordinator_result = coordinator_run(config, coordinator_side)
    except BaseException as exc:
        coordinator_error = exc
        # unblock any participant still waiting on a dead session
        for side in participant_side:
            side.close()

    deadline = round_timeout + _JOIN_GRACE
    for worker in workers:
        worker.join(timeout=deadline)
    if coordinator_error is not None:
        raise coordinator_error
    for worker in workers:
        if worker.is_alive():
            raise RuntimeError("a participant thread failed to finish")
        if worker.error is not None:
            raise worker.error

    states = [worker.result for worker in workers]
    return FederatedResult(
        states=states,
        consensus=coordinator_result.consensus,
        objectives=coordinator_result.objectives,
        trace=coordinator_result.trace,
    )
