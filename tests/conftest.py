"""Shared pytest set-up.

`--hypothesis-profile=ci` runs every property test on a fixed example
sequence with no per-example deadline, so a shared or slow machine can
neither flake a test nor turn up a new example between two runs.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
