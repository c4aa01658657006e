"""Hypothesis settings for the suite.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: examples are derived
from each test's name instead of a random seed, so a run's verdict does not
depend on the seed, and no example is failed for running slowly.
``HYPOTHESIS_PROFILE=ci-deep`` does the same with 1000 examples per test,
for a deeper run of the exact-arithmetic kernels.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("ci-deep", derandomize=True, deadline=None,
                          max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
