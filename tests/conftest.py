"""Hypothesis settings for the whole suite.

The example database is off, so every run draws from the strategies and the
explicit @example cases only, and never replays a machine-local .hypothesis
cache.
"""

from hypothesis import settings

settings.register_profile("docsynth", database=None)
settings.load_profile("docsynth")
