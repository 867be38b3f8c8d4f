"""Shared test configuration: the ``ci`` hypothesis profile.

``pytest --hypothesis-profile=ci`` draws the same examples on every run and
prints a failing example's ``@reproduce_failure`` blob, so a property that
fails in CI fails the same way on any checkout.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
