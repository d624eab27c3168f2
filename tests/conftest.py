"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run and have no time
# limit per example, so a loaded host can make them neither flaky nor slow
# to fail.
settings.register_profile("cvmdi", deadline=None, derandomize=True)
settings.load_profile("cvmdi")
