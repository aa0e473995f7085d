"""Round-based federation: wire protocol, one channel over a stream socket,
actors, audit."""

from .audit import PrivacyReport, audit_trace
from .channels import ChannelClosedError, ChannelTimeoutError, TcpChannel
from .coordinator import (
    CoordinatorResult,
    FederationAbortError,
    FederationConfig,
    RoundTimeoutError,
    TracedMessage,
    coordinator_run,
)
from .messages import (
    KIND_ABORT,
    KIND_CONVERGED,
    KIND_REGISTER,
    KIND_Z_BROADCAST,
    KIND_ZK_UPLOAD,
    KINDS,
    MATRIX_KINDS,
    ProtocolError,
    RoundMessage,
    decode_body,
    encode_body,
    frame,
    frame_size,
)
from .participant import participant_run
from .session import FederatedResult, run_federated

__all__ = [
    "PrivacyReport",
    "audit_trace",
    "ChannelClosedError",
    "ChannelTimeoutError",
    "TcpChannel",
    "CoordinatorResult",
    "FederationAbortError",
    "FederationConfig",
    "RoundTimeoutError",
    "TracedMessage",
    "coordinator_run",
    "KIND_ABORT",
    "KIND_CONVERGED",
    "KIND_REGISTER",
    "KIND_Z_BROADCAST",
    "KIND_ZK_UPLOAD",
    "KINDS",
    "MATRIX_KINDS",
    "ProtocolError",
    "RoundMessage",
    "decode_body",
    "encode_body",
    "frame",
    "frame_size",
    "participant_run",
    "FederatedResult",
    "run_federated",
]
