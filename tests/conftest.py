"""Hypothesis settings for the suite.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: examples are derived
from each test's name instead of a random seed, so a run's verdict does not
depend on the seed, and no example is failed for running slowly.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
