"""Shared pytest plumbing.

Acceptance tests record one verdict line each; the terminal-summary hook
replays them after the run so they are visible regardless of capture mode.
The ``two_blas_threads`` fixture sets the process's BLAS thread count to 2.
``propagation_oracle`` is the reference for attribute propagation,
``gauss_jordan_oracle`` the bitwise reference for ``numkernel.inv_small``,
``affine_oracle`` the bitwise reference for ``autodiff.affine``,
``copy_params`` a deep copy of a ``ModelParams``, ``grad_check`` the
finite-difference check of analytic gradients and ``save_features`` a writer
of one feature file.
"""

from typing import Callable

import numpy as np
import pytest

from srosda import autodiff as ad
from srosda.dataio import _feature_file, write_file
from srosda.exceptions import ContractError, SingularMatrixError
from srosda.model import LAYER_NAMES, ModelParams
from srosda.numkernel import _blas_thread_control, check_finite, make_rng

acceptance_verdicts = []


def propagation_system(z, beta):
    """(adjacency, sigma^2, I - beta L) of the points ``z`` by the textbook
    route: broadcast squared distances and ``np.var`` of the off-diagonal.
    It shares no code with srosda."""
    n = z.shape[0]
    d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
    off = ~np.eye(n, dtype=bool)
    sigma2 = max(float(np.var(d2[off])), 1e-12)
    adj = np.where(off, np.exp(-d2 / sigma2), 0.0)
    dinv = 1.0 / np.sqrt(np.maximum(adj.sum(axis=1), 1e-12))
    lap = adj * np.outer(dinv, dinv)
    return adj, sigma2, np.eye(n) - beta * lap


def propagation_oracle(z, beta):
    """(adjacency, sigma^2, W) with W = ``np.linalg.inv(I - beta L)``."""
    adj, sigma2, system = propagation_system(z, beta)
    return adj, sigma2, np.linalg.inv(system)


def gauss_jordan_oracle(m):
    """Gauss-Jordan elimination of the n x 2n ``[m | I]`` with partial
    pivoting: the textbook form of ``inv_small``, with its checks and
    messages. ``inv_small`` must return the same bytes."""
    m = check_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError("inv_small expects a square matrix")
    n = m.shape[0]
    scale = np.abs(m).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix is singular")
    aug = np.hstack([m, np.eye(n)])  # [m | I] -> [I | m^-1]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        pv = aug[piv, col]
        if abs(pv) <= scale * 1e-13:
            raise SingularMatrixError(f"zero pivot at column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        # columns left of col are never read again (the left half is discarded)
        aug[col, col:] /= pv
        factors = aug[:, col].copy()
        factors[col] = 0.0
        aug[:, col:] -= np.outer(factors, aug[col, col:])
    return aug[:, n:].copy()


def affine_oracle(x, w, b, relu=False):
    """The unfused tape that ``autodiff.affine`` replaces: ``matmul``, then
    ``add``, then for ReLU ``v * (v > 0)``. ``affine`` must give the same
    value and gradient bytes."""
    h = ad.add(ad.matmul(x, w), b)
    return h * (h.value > 0.0) if relu else h


def copy_params(params: ModelParams) -> ModelParams:
    """A ``ModelParams`` whose arrays are copies of ``params``'s."""
    return ModelParams({k: v.copy() for k, v in params.arrays.items()})


def save_features(matrix, path):
    """Write ``matrix`` as a binary ``SROS`` feature file, as ``save_dataset``
    writes each of its feature files."""
    write_file(path, _feature_file(matrix, "features"))


def grad_check(loss_evaluator: Callable, params: ModelParams, eps=1e-5,
               n_coords=200, seed=0):
    """Compare analytic parameter gradients to central finite differences.

    ``loss_evaluator(params)`` must return ``(value, grads)`` where grads maps
    layer names to arrays; it must be pure in params. A random subset of at
    least ``n_coords`` coordinates is probed; returns the max relative error
    with denominator max(|g|, |g_fd|, 1e-8).
    """
    _, grads = loss_evaluator(params)
    rng = make_rng(seed)
    names = [n for n in LAYER_NAMES if n in params.arrays]
    max_err = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        arr = params.arrays[name]
        flat = rng.integers(arr.size)
        idx = np.unravel_index(flat, arr.shape)
        probe = copy_params(params)
        probe.arrays[name][idx] += eps
        up, _ = loss_evaluator(probe)
        probe.arrays[name][idx] -= 2.0 * eps
        down, _ = loss_evaluator(probe)
        fd = (up - down) / (2.0 * eps)
        g = float(grads[name][idx]) if name in grads else 0.0
        denom = max(abs(g), abs(fd), 1e-8)
        max_err = max(max_err, abs(g - fd) / denom)
    return max_err


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
