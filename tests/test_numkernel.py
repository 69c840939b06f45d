import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import gauss_jordan_oracle, propagation_system
from hypothesis import given, settings
from hypothesis import strategies as st

from srosda import numkernel
from srosda.exceptions import (ContractError, DataError, SingularMatrixError,
                               SrosdaError)
from srosda.numkernel import (UPDATE_ROWS, check_finite, class_means,
                              inv_small, make_rng, single_blas_thread,
                              sq_dist, sq_norms)


def test_make_rng_reproducible():
    a = make_rng(123).normal(size=10)
    b = make_rng(123).normal(size=10)
    assert np.array_equal(a, b)
    c = make_rng(124).normal(size=10)
    assert not np.array_equal(a, c)


def test_check_finite_rejects_nan_inf():
    with pytest.raises(DataError):
        check_finite([1.0, np.nan])
    with pytest.raises(DataError):
        check_finite([np.inf])
    out = check_finite([[1, 2]], "x")
    assert out.dtype == np.float64


def test_class_means_absent_and_out_of_range_labels():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 10.0], [7.0, 7.0]])
    means, present = class_means(x, [0, 0, 2, -1], 3)
    assert np.array_equal(means, [[2.0, 3.0], [0.0, 0.0], [10.0, 10.0]])
    assert present.tolist() == [True, False, True]


def test_sq_dist_rectangular():
    rng = make_rng(2)
    a, b = rng.normal(size=(7, 4)), rng.normal(size=(3, 4))
    d2 = sq_dist(a, b, sq_norms(a))
    brute = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert d2.shape == (7, 3)
    assert np.allclose(d2, brute, atol=1e-12)


def test_inv_small_identity_and_analytic():
    assert np.array_equal(inv_small(np.eye(4)), np.eye(4))
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    assert np.allclose(inv_small(m), np.diag([0.5, 0.25]), atol=1e-15)
    # [[a,b],[c,d]]^-1 = [[d,-b],[-c,a]]/(ad-bc)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = np.array([[-2.0, 1.0], [1.5, -0.5]])
    assert np.allclose(inv_small(m), expected, atol=1e-12)


def test_inv_small_needs_pivoting():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(inv_small(m), m, atol=1e-15)


@given(st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_inv_small_round_trip(n, seed):
    rng = make_rng(seed)
    m = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    w = inv_small(m)
    assert np.allclose(w @ m, np.eye(n), atol=1e-8)
    assert np.allclose(m @ w, np.eye(n), atol=1e-8)


def test_inv_small_singular():
    with pytest.raises(SingularMatrixError):
        inv_small(np.zeros((3, 3)))
    with pytest.raises(SingularMatrixError):
        inv_small(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_inv_small_contracts():
    with pytest.raises(ContractError):
        inv_small(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        inv_small(np.zeros((0, 0)))


def _outcome(f, m):
    """The bytes ``f(m)`` returns, or the type of the error it raises."""
    try:
        return f(m).tobytes()
    except SrosdaError as err:
        return type(err)


def _test_matrix(kind, n, seed, tiny):
    rng = make_rng(seed)
    if kind == "random":
        return rng.normal(size=(n, n))
    if kind == "pivot":  # diagonally dominant, rows shuffled
        m = rng.normal(size=(n, n)) + n * np.eye(n)
        return m[rng.permutation(n)]
    # near-singular: rank n - 1 plus a perturbation of size ``tiny``
    u, v = rng.normal(size=(n, max(n - 1, 1))), rng.normal(size=(n, max(n - 1, 1)))
    return u @ v.T + tiny * rng.normal(size=(n, n))


@given(st.sampled_from(["random", "pivot", "near-singular"]),
       st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-4, 1e-8, 1e-11, 1e-14, 0.0]))
@settings(max_examples=150, deadline=None)
def test_inv_small_matches_gauss_jordan_oracle(kind, n, seed, tiny):
    m = _test_matrix(kind, n, seed, tiny)
    with single_blas_thread():
        assert _outcome(inv_small, m) == _outcome(gauss_jordan_oracle, m)


@pytest.mark.parametrize("n", [28, 64, 360, 512])
def test_inv_small_propagation_systems_match_oracle(n):
    z = make_rng(n).normal(size=(n, 16))
    _, _, system = propagation_system(z, 0.2)
    with single_blas_thread():
        assert inv_small(system).tobytes() == gauss_jordan_oracle(system).tobytes()


# above UPDATE_ROWS rows the rank-1 update runs in chunks; these sizes put
# pivot rows and their swaps in other chunks than the rows they update
MULTI_CHUNK_SIZES = [UPDATE_ROWS + 1, 2 * UPDATE_ROWS + 3]


@pytest.mark.parametrize("n", MULTI_CHUNK_SIZES)
@pytest.mark.parametrize("kind", ["pivot", "random"])
def test_inv_small_multi_chunk_matches_oracle(kind, n):
    m = _test_matrix(kind, n, n, 0.0)
    with single_blas_thread():
        assert inv_small(m).tobytes() == gauss_jordan_oracle(m).tobytes()


@pytest.mark.parametrize("n", MULTI_CHUNK_SIZES)
def test_inv_small_signed_zero_pivot_rows_match_oracle(n):
    """A row-shuffled triangular matrix with a negative diagonal: its zeros
    divided by the pivots make -0.0 in the pivot rows, which each row's own
    step turns into +0.0, and the zeros survive to the inverse, whose bytes
    show their signs."""
    rng = make_rng(n)
    m = np.triu(rng.normal(size=(n, n)), 1) / n
    np.fill_diagonal(m, -1.0 - rng.random(n))
    m = m[rng.permutation(n)]
    with single_blas_thread():
        assert inv_small(m).tobytes() == gauss_jordan_oracle(m).tobytes()


@pytest.mark.parametrize("case", ["pivot-row-zeros", "zero-factors", "underflow"])
def test_update_in_chunks_matches_textbook_update(case):
    """One step's update against ``a - outer(factors, a[col])``, with -0.0
    entries that a product of the wrong sign of zero would flip. An
    inverse cannot show all of these: each row's own pivot step clears the
    signs of its zeros. ``pivot-row-zeros`` fails if later chunks read the
    pivot row after its own chunk rewrote it; ``zero-factors`` and
    ``underflow`` fail if einsum forms a product that is zero."""
    n, col = UPDATE_ROWS + 1, 3
    rng = make_rng(0)
    a, factors = rng.normal(size=(n, n)), rng.normal(size=n)
    if case == "pivot-row-zeros":
        a[col, ::2] = -0.0
        a[UPDATE_ROWS:, ::2] = -0.0
    elif case == "zero-factors":
        factors[5::7] = 0.0
        a[5::7] = -0.0
    else:  # nonzero factors and pivot row whose products underflow to zero
        a[:] = -0.0
        a[col] = 1e-200 * rng.normal(size=n)
        factors *= 1e-200
    factors[col] = 0.0
    expected = a - np.outer(factors, a[col])
    numkernel._update_in_chunks(a, col, factors, np.empty((UPDATE_ROWS, n)))
    assert a.tobytes() == expected.tobytes()


def test_inv_small_peak_memory_has_no_square_temporary():
    n = 512
    z = make_rng(n).normal(size=(n, 16))
    _, _, system = propagation_system(z, 0.2)
    working = result = n * n * 8
    chunk_buffer = UPDATE_ROWS * n * 8
    tracemalloc.start()
    try:
        with single_blas_thread():
            inv_small(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < working + result + chunk_buffer


def test_single_blas_thread_pins_and_restores(two_blas_threads):
    get = two_blas_threads
    with single_blas_thread():
        assert get() == 1
    assert get() == 2
    with pytest.raises(ValueError):
        with single_blas_thread():
            assert get() == 1
            raise ValueError("inside the pin")
    assert get() == 2


def overlap_pins(get):
    """Run two pins in two threads in the order "A enters, B enters, A
    exits, B exits", each over a tiny product; returns the thread count B
    sees after A's exit."""
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with single_blas_thread():
            np.ones((3, 4)) @ np.ones((4, 2))
            a_in.set()
            assert b_in.wait(timeout=30)
        a_out.set()

    def b():
        assert a_in.wait(timeout=30)
        with single_blas_thread():
            b_in.set()
            assert a_out.wait(timeout=30)
            np.ones((3, 4)) @ np.ones((4, 2))
            seen.append(get())

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(seen) == 1, "a pinning thread failed or hung"
    return seen[0]


def test_single_blas_thread_pin_outlives_an_overlapping_exit(two_blas_threads):
    assert overlap_pins(two_blas_threads) == 1


def test_single_blas_thread_overlapping_pins_restore_the_caller(two_blas_threads):
    get = two_blas_threads
    overlap_pins(get)
    assert get() == 2


def test_single_blas_thread_pin_holds_under_thread_churn(two_blas_threads):
    # more threads than cores, switching often: a lost update of the pin's
    # depth or saved count shows as 2 threads inside a pin, or a wrong count
    # after the last exit
    get = two_blas_threads
    counts = []

    def churn():
        for _ in range(200):
            with single_blas_thread():
                counts.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(counts) == 8 * 200 and set(counts) == {1}
    assert get() == 2 and numkernel._PIN.depth == 0


def test_single_blas_thread_without_control_warns_once(monkeypatch):
    monkeypatch.setattr(numkernel, "_find_blas_thread_control", lambda: None)
    numkernel._blas_thread_control.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="BLAS thread count"):
            with single_blas_thread():
                product = np.ones((3, 4)) @ np.ones((4, 2))
        assert product.shape == (3, 2) and np.all(product == 4.0)
        # once per process: the second pin runs silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with single_blas_thread():
                product = np.ones((2, 2)) @ np.ones((2, 2))
        assert np.all(product == 2.0)
    finally:
        numkernel._blas_thread_control.cache_clear()
