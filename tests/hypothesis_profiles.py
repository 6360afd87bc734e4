"""The Hypothesis profile the deeper properties follow.

Two profiles are registered: ``tier1`` (the default) and ``ci``, ten times
deeper, selected by ``HYPOTHESIS_PROFILE=ci``.  Only the properties
decorated with :data:`PROFILE` follow it; the global default is left alone.
The modules that use it import Hypothesis anyway, so the fault and
durability suites, which run without it, never load this module.
"""

from __future__ import annotations

import os

from hypothesis import settings

#: Examples per property under the default profile.
TIER1_EXAMPLES = 30

settings.register_profile("tier1", max_examples=TIER1_EXAMPLES, deadline=None)
settings.register_profile("ci", max_examples=10 * TIER1_EXAMPLES, deadline=None)
PROFILE = settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
