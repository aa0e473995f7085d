"""One-call federated training session over either transport.

Runs the coordinator on the calling thread and each participant on a
thread of its own, wires them together with socket pairs or loopback TCP
connections, and collects everything a run produces.  Given the same
seed and inputs the result is bit-identical to ``optimizer.run_reference``
regardless of transport.
"""

from __future__ import annotations

import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..numerics import check_seed, single_blas_thread
from ..optimizer import Hyperparams, ParticipantState, _check_inputs
from .channels import ChannelClosedError, TcpChannel
from .coordinator import (
    FederationAbortError,
    FederationConfig,
    TracedMessage,
    coordinator_run,
)
from .participant import participant_run

# What a participant raises when the session fails around it; any other
# participant error is the failure itself.
_SESSION_ERRORS = (FederationAbortError, ChannelClosedError)


@dataclass
class FederatedResult:
    """Per-participant final states plus the coordinator's outputs;
    ``converged`` is False when the run stopped at ``outer_max``."""

    states: list[ParticipantState]
    consensus: np.ndarray
    objectives: list[float]
    trace: list[TracedMessage]
    converged: bool


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
    for sock in server_sockets + client_sockets:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return ([TcpChannel(s) for s in server_sockets],
            [TcpChannel(s) for s in client_sockets])


@single_blas_thread()
def run_federated(views, labels, hyper: Hyperparams, seed, *,
                  transport: str = "in_process", round_timeout: float = 60.0,
                  port: int = 0) -> FederatedResult:
    """Train over the federated protocol and return all final blocks.

    Participant 0 gets the labels.  ``transport`` selects
    in-process socket pairs or loopback TCP; ``port`` 0 lets the OS pick
    one.  The inputs are checked as ``run_reference`` checks them, with
    the same errors, before any thread starts.  When a participant
    fails, the session raises that participant's own exception rather
    than the abort it caused.  The participants' threads are joined with
    no deadline of their own: the coordinator holds every deadline, and
    its close ends each participant, so no thread outlives the call.
    BLAS is pinned to one thread for the whole session, so the
    participant threads' solves do not oversubscribe the cores.
    """
    seed = check_seed(seed)
    views, labels, shape = _check_inputs(views, labels, hyper)
    config = FederationConfig(shape=shape, hyper=hyper, seed=seed,
                              round_timeout=round_timeout)

    if transport == "in_process":
        pairs = [socket.socketpair() for _ in views]
        coordinator_side = [TcpChannel(a) for a, _ in pairs]
        participant_side = [TcpChannel(b) for _, b in pairs]
    elif transport == "tcp":
        coordinator_side, participant_side = _tcp_channel_pairs(
            len(views), port, round_timeout)
    else:
        raise ValueError(f"unknown transport {transport!r}")

    coordinator_error = None
    futures = []
    # Each participant holds its thread for the whole session, waiting on
    # the coordinator between rounds, so a smaller pool would deadlock.
    with ThreadPoolExecutor(max_workers=len(views)) as pool:
        try:
            for k, view in enumerate(views):
                futures.append(pool.submit(participant_run, k, view,
                                           labels if k == 0 else None, config,
                                           participant_side[k]))
            coordinator_result = coordinator_run(config, coordinator_side)
        except BaseException as exc:
            coordinator_error = exc
            # coordinator_run closes these on its way out, but a participant
            # thread that fails to start stops the session before it runs
            for channel in coordinator_side:
                channel.close()
    if coordinator_error is not None:
        # the end of a participant that never ran is still open
        for channel in participant_side:
            channel.close()
        for future in futures:
            error = future.exception()
            if error is not None and not isinstance(error, _SESSION_ERRORS):
                raise error
        raise coordinator_error

    return FederatedResult(
        states=[future.result() for future in futures],
        consensus=coordinator_result.consensus,
        objectives=coordinator_result.objectives,
        trace=coordinator_result.trace,
        converged=coordinator_result.converged,
    )
