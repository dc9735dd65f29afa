"""Test-suite settings shared by every test module.

Hypothesis runs under one profile with no per-example deadline: several
property tests assemble and solve operators whose time per example varies
with the machine's load, and a deadline would make them fail on a slow
run rather than on a wrong result.  Each test keeps its own max_examples.
The profile is derandomized and keeps no example database, so every run
of a checkout draws the same examples and none is stored in it to be
replayed.

The lapack_guard fixture holds a run to the LAPACK drivers the program
is meant to use: complex Hermitian eigh/eigvalsh, LU and cholesky.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("diraclab", deadline=None, derandomize=True, database=None)
settings.load_profile("diraclab")

# numpy.linalg entry points backed by an SVD, QR or a general eigensolver
REFUSED_LINALG = ("svd", "cond", "eig", "eigvals", "qr", "pinv", "lstsq", "matrix_rank")


@pytest.fixture
def lapack_guard(monkeypatch):
    """Make the REFUSED_LINALG calls and np.linalg.norm(x, 2) raise, and
    return the list of the dtypes of every eigh and eigvalsh input."""
    dtypes = []

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")

        return refused

    def recording(solver):
        def recorded(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return solver(a, *args, **kwargs)

        return recorded

    norm = np.linalg.norm

    def checked_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2):
            raise AssertionError("np.linalg.norm called with ord=2")
        return norm(x, ord, *args, **kwargs)

    for name in REFUSED_LINALG:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", checked_norm)
    return dtypes
