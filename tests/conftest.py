"""Pytest configuration: make test-local helper modules importable."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings  # noqa: E402

#: Heavy tier for the RV64 core's golden differential test
#: (tests/test_cpu_golden.py), selected with
#: ``--hypothesis-profile=oracle``.  Tier-1 keeps the default profile.
settings.register_profile("oracle", max_examples=5000, deadline=None)
