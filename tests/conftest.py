"""Test-suite settings: hypothesis draws the same examples on every run.

Examples are derived from each test's own source and nothing is replayed
from an example database, so a tier-1 run is a pure function of the code.
No deadline: the property tests run finite differences, whose time depends
on the host.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
