"""Shared test settings.

Every hypothesis property test runs under one profile: derandomized, so
the suite is deterministic, with no example database, so a test run
writes nothing into the checkout, and with no deadline, so a slow shared
host cannot fail a test by timing alone.
"""

from hypothesis import settings

settings.register_profile("qasnets", derandomize=True, database=None, deadline=None)
settings.load_profile("qasnets")
