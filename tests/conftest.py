"""Test-suite settings shared by every test module.

Hypothesis runs under one profile with no per-example deadline: several
property tests assemble and solve operators whose time per example varies
with the machine's load, and a deadline would make them fail on a slow
run rather than on a wrong result.  Each test keeps its own max_examples.
The profile is derandomized and keeps no example database, so every run
of a checkout draws the same examples and none is stored in it to be
replayed.
"""

from hypothesis import settings

settings.register_profile("diraclab", deadline=None, derandomize=True, database=None)
settings.load_profile("diraclab")
