"""Shared test settings.

The hypothesis profile makes property tests deterministic.
"""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic; no deadline, because timing on a
# shared host varies.
settings.register_profile("qmit", derandomize=True, database=None, deadline=None)
settings.load_profile("qmit")
