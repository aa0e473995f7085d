"""Privacy audit over a recorded message trace.

Checks the protocol's core promise: the only matrices that ever cross
the boundary are pseudo-label uploads and consensus broadcasts, both of
shape samples x classes.  Feature blocks, transforms, and the label
matrix must never appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .messages import KIND_ZK_UPLOAD, KINDS, MATRIX_KINDS


@dataclass
class PrivacyReport:
    """Audit outcome: violations found plus per-round traffic totals."""

    violations: list[str]
    round_bytes: dict[int, int]
    message_counts: dict[str, int]
    total_bytes: int

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_trace(trace, num_samples: int, num_classes: int) -> PrivacyReport:
    """Audit trace entries (anything with kind/round/participant_id/
    payload_shape/nbytes attributes, e.g. coordinator trace records).

    Flags unknown kinds, matrix payloads on non-matrix kinds, uploads or
    broadcasts missing their matrix, and any payload whose shape is not
    (num_samples, num_classes), the only shape the protocol permits.
    """
    violations: list[str] = []
    round_bytes: dict[int, int] = {}
    message_counts: dict[str, int] = {}
    total = 0
    expected_shape = (int(num_samples), int(num_classes))
    for index, entry in enumerate(trace):
        kind = entry.kind
        message_counts[kind] = message_counts.get(kind, 0) + 1
        round_bytes[entry.round] = round_bytes.get(entry.round, 0) + entry.nbytes
        total += entry.nbytes
        where = f"message {index} ({kind}, round {entry.round}, participant {entry.participant_id})"
        if kind not in KINDS:
            violations.append(f"{where}: unknown kind")
            continue
        shape = entry.payload_shape
        if kind in MATRIX_KINDS:
            if shape is None:
                violations.append(f"{where}: missing matrix payload")
            elif tuple(shape) != expected_shape:
                violations.append(
                    f"{where}: payload shape {tuple(shape)} is not {expected_shape}")
        elif shape is not None:
            violations.append(f"{where}: payload on a non-matrix message")
        if kind == KIND_ZK_UPLOAD and entry.objective_part is None:
            violations.append(f"{where}: upload without objective part")
    return PrivacyReport(violations=violations, round_bytes=round_bytes,
                         message_counts=message_counts, total_bytes=total)
