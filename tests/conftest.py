"""Shared pytest configuration.

Hypothesis profiles: tier-1 runs with hypothesis' default budget; the
``ci`` profile raises it for the wire fuzz harness, which CI runs as
``pytest tests/test_wire_fuzz.py --hypothesis-profile=ci``.  Tests that
pin their own ``max_examples`` keep it under either profile.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000, deadline=None)
