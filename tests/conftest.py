"""Hypothesis profiles of the suite.

A profile must be registered before pytest loads the one that
``--hypothesis-profile=NAME`` names, so they are registered here rather
than in a test module.  ``exit-code-fuzz`` raises the example count of
tests/test_cli.py's exit-code fuzz, which takes its count from the active
profile (at least 300), to 3,000:

    python -m pytest -q tests/test_cli.py -k ExitCodeFuzz --hypothesis-profile=exit-code-fuzz
"""

from hypothesis import settings

settings.register_profile("exit-code-fuzz", max_examples=3000)
