"""Shared test settings.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's own source, so every run checks the same cases, and no
per-example deadline applies, so a slow or busy machine cannot make a
passing test fail.
"""

from hypothesis import settings

settings.register_profile("kuhn3p", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("kuhn3p")
