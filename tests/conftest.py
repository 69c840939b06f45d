"""Shared pytest plumbing.

Acceptance tests record one verdict line each; the terminal-summary hook
replays them after the run so they are visible regardless of capture mode.
The ``two_blas_threads`` fixture sets the process's BLAS thread count to 2.
``propagation_oracle`` is the reference for attribute propagation.
"""

import numpy as np
import pytest

from srosda.numkernel import _blas_thread_control

acceptance_verdicts = []


def propagation_oracle(z, beta):
    """(adjacency, sigma^2, W) of the points ``z`` by the textbook route:
    broadcast squared distances, ``np.var`` of the off-diagonal and
    ``np.linalg.inv(I - beta L)``. It shares no code with srosda."""
    n = z.shape[0]
    d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
    off = ~np.eye(n, dtype=bool)
    sigma2 = max(float(np.var(d2[off])), 1e-12)
    adj = np.where(off, np.exp(-d2 / sigma2), 0.0)
    dinv = 1.0 / np.sqrt(np.maximum(adj.sum(axis=1), 1e-12))
    lap = adj * np.outer(dinv, dinv)
    return adj, sigma2, np.linalg.inv(np.eye(n) - beta * lap)


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def two_blas_threads():
    """Run the test with BLAS at 2 threads, then restore the count; yields
    the thread-count getter. Skips where numpy's BLAS has no OpenBLAS
    thread control."""
    control = _blas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    get, set_ = control
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)
