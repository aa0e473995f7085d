"""Test-suite settings.

``HYPOTHESIS_PROFILE=ci`` replays the same examples on every run and
prints a reproduction blob for each failure, so a red CI fuzz run can be
repeated locally; without it hypothesis explores at random.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
