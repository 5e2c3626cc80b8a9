import numpy as np
import pytest

from garchmc import _kernels_py, backend, samplers


def _independence_chain(target, prop, theta0, n_draws, rng, batch=10000):
    """(draws, accepted) of a fixed-proposal independence MH chain of
    n_draws steps, run through the production batch kernel in batches of at
    most ``batch`` draws, scoring candidates with the scalar ``target`` one
    row at a time."""

    def score(cands):
        return np.array([target(c) for c in cands], dtype=np.float64)

    theta = np.asarray(theta0, dtype=np.float64)
    log_p = target(theta)
    parts = []
    remaining = n_draws
    while remaining > 0:
        k = min(batch, remaining)
        d, a, theta, log_p = samplers._independence_batch(theta, log_p, k, prop, score, rng)
        parts.append((d, a))
        remaining -= k
    return tuple(np.concatenate(col) for col in zip(*parts))


@pytest.fixture
def independence_chain():
    return _independence_chain


@pytest.fixture
def compiled():
    """The compiled kernels of ``_kernels.c``. Where no C compiler is found
    only the numpy twin exists and the tests that take this fixture skip;
    ``test_backend`` fails wherever a compiler is found but they did not load."""
    if backend.KERNEL != "c":
        pytest.skip("no C compiler: only the numpy twin is built")
    return backend.kernels


@pytest.fixture(params=["c", "numpy"])
def either_kernels(request, monkeypatch):
    """Each kernel module in turn, set as ``backend.kernels``: the compiled
    one by way of ``compiled``, so that case skips without a compiler, and
    the numpy twin."""
    kernels = request.getfixturevalue("compiled") if request.param == "c" else _kernels_py
    monkeypatch.setattr(backend, "kernels", kernels)
    return kernels
