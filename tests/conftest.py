"""Hypothesis profiles, picked by the HYPOTHESIS_PROFILE environment variable.

A property test that sets no ``max_examples`` of its own takes the
profile's: 300 examples in the default ``local`` profile and 2,000 in the
``ci`` profile that CI runs.  Two bit-exact properties are among them, so
CI probes them harder than a local run does: the sigma oracle, whose
bit-exactness rests on an empirical property of numpy's dot kernel, and
the cascade's per-tap sums, which must add each ray's terms in ray order
from +0.0 as the test's own loop does.
"""

import os

from hypothesis import settings

settings.register_profile("local", max_examples=300)
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "local"))
