"""Hypothesis profiles.  `ci` is derandomized and has no deadline, so the
property and fuzz tests neither flake nor time out on a slow runner; select
it with HYPOTHESIS_PROFILE=ci.  Local runs keep Hypothesis's default."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
