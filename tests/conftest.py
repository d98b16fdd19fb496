"""Shared pytest setup.

HYPOTHESIS_PROFILE=ci selects the ``ci`` profile: property tests draw the
same examples on every run and print the reproduction blob of a failure, so
a red CI run fails the same way locally with
``HYPOTHESIS_PROFILE=ci python -m pytest``. Without it they stay randomized.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
