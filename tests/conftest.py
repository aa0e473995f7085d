"""Test-suite settings and shared fixtures.

``HYPOTHESIS_PROFILE=ci`` replays the same examples on every run and
prints a reproduction blob for each failure, so a red CI fuzz run can be
repeated locally; without it hypothesis explores at random.
"""

import os

import pytest
from hypothesis import settings

from mmvfl.federation import TcpChannel

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def wire(monkeypatch):
    """Every message sent through a ``TcpChannel`` while the test runs,
    by the coordinator and the participants alike, keyed by (kind, round,
    participant_id).  The coordinator's trace keeps only payload shapes,
    so tests that look at what a payload holds read it here; clear the
    dict between sessions."""
    sent = {}
    original = TcpChannel.send

    def send(self, message):
        nbytes = original(self, message)
        sent[(message.kind, message.round, message.participant_id)] = message
        return nbytes

    monkeypatch.setattr(TcpChannel, "send", send)
    return sent
