"""Deterministic numeric substrate: squared distances, class means, small
dense inverses (Gauss-Jordan on one n x n working array, with the same
operations per entry as eliminating ``[M | I]``), seeded RNG construction and
a scoped BLAS single-thread pin.

Above UPDATE_ROWS rows the inverse's rank-1 update runs one row chunk at a
time through a chunk-sized buffer, with the outer product from ``einsum``
whenever no product outside the pivot row is zero. ``einsum`` has no summed
index, so a nonzero product comes out correctly rounded as from
``multiply``: each entry still takes ``a - round(f*p)`` in the same order, and
the bits do not change.

Everything here is pure and double precision. Reductions rely on numpy's
fixed left-to-right summation so repeated runs agree bitwise.
"""

import contextlib
import functools
import threading
import warnings
from types import SimpleNamespace

import numpy as np

from .exceptions import ContractError, DataError, SingularMatrixError

# rows per chunk of inv_small's rank-1 update: 128 x 512 doubles are 512 KiB
UPDATE_ROWS = 128
ZERO_NORM_EPS = 1e-12


def make_rng(seed):
    """Seeded PCG64 generator. Identical seed + call sequence gives an
    identical stream on every platform."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _find_blas_thread_control():
    """(get, set) ctypes functions of the BLAS numpy links, or None.

    The library is opened through numpy's core extension module, whose
    dynamic-symbol lookup also searches the libraries it depends on, so this
    finds whichever OpenBLAS numpy itself loaded.
    """
    import ctypes
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    # numpy's bundled scipy-openblas64, then a plain OpenBLAS
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@functools.cache
def _blas_thread_control():
    """Looked up on first use, so importing the package costs nothing; warns
    once per process when no thread control is found."""
    control = _find_blas_thread_control()
    if control is None:
        warnings.warn("no OpenBLAS thread control found; results may depend "
                      "on the BLAS thread count", RuntimeWarning)
    return control


# the one owner of the process-wide pin: ``depth`` pins are open, and
# ``saved`` is the count the first of them found, restored by the last
_PIN = SimpleNamespace(lock=threading.Lock(), depth=0, saved=None)


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with BLAS on one thread, then restore the caller's count.

    Multi-threaded OpenBLAS gemm splits the inner dimension of some shapes
    (e.g. 524 = 512 + d_a) differently from its single-thread kernel, so the
    last bits of a product depend on the thread count. Pinning makes results
    depend only on the inputs. Usable as ``with single_blas_thread():`` or as
    the decorator ``@single_blas_thread()``. The thread count is
    process-wide, so overlapping pins, nested or in other Python threads,
    share one: the first to enter saves the count and sets 1, and the last to
    exit restores the saved count.
    """
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _PIN.lock:
        if _PIN.depth == 0:
            _PIN.saved = get()
            set_(1)
        _PIN.depth += 1
    try:
        yield
    finally:
        with _PIN.lock:
            _PIN.depth -= 1
            if _PIN.depth == 0:
                set_(_PIN.saved)


def check_finite(a, name="input"):
    """Coerce to a float64 array, rejecting NaN/Inf."""
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


def sq_norms(a):
    """Squared Euclidean norm of each row of ``a``."""
    return np.einsum("ij,ij->i", a, a)


def sq_dist(a, b, a_sq):
    """Squared Euclidean distances of the rows of ``a`` to the rows of ``b``
    by the expansion |a|^2 + |b|^2 - 2 a.b^T: one gemm, no (n, m, d)
    temporary. Not clamped, so cancellation can leave tiny negatives.
    ``a_sq`` is ``sq_norms(a)``, computed once by a caller that loops on b.
    """
    return a_sq[:, None] + sq_norms(b)[None, :] - 2.0 * (a @ b.T)


def class_means(x, labels, n):
    """(means, present) for classes 0..n-1: the mean of the rows of ``x`` with
    that label, or zeros and present False for a class without rows."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    means = np.zeros((n, x.shape[1]))
    present = np.zeros(n, dtype=bool)
    for c in range(n):
        members = x[labels == c]
        if members.shape[0] > 0:
            means[c] = members.mean(axis=0)
            present[c] = True
    return means, present


def inv_small(m):
    """Invert a small dense square matrix via Gauss-Jordan elimination with
    partial pivoting, on one n x n working array.

    Every entry goes through the same floating-point operations as the
    textbook elimination of ``[m | I]``, so the result has the same bits. At
    step k left column k would become e_k and is never read again, so its
    slot takes the column of the right half that the step fills first (until
    then a unit vector, on which an update ``a - f*0`` changes nothing). The
    slots are put back in column order at the end. Above UPDATE_ROWS rows the
    rank-1 update of each step runs a chunk of rows at a time (see
    ``_update_in_chunks``).

    Raises ContractError on an empty or non-square matrix, and
    SingularMatrixError on a zero matrix or a (near-)zero pivot. Size and
    conditioning are the caller's to bound (``TrainConfig.validate`` does so
    for the propagation system).
    """
    m = check_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError("inv_small expects a square matrix")
    if m.shape[0] == 0:
        raise ContractError("inv_small expects a non-empty matrix")
    scale = np.abs(m).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix is singular")
    a = m.copy()
    rows = _eliminate(a, scale)
    inv = np.empty_like(a)
    inv[:, rows] = a
    return inv


def _eliminate(a, scale):
    """Run the elimination on the working array ``a`` in place; returns the
    original row held at each position."""
    n = a.shape[0]
    rows = np.arange(n)
    buf = np.empty((min(n, UPDATE_ROWS), n))
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        pv = a[piv, col]
        if abs(pv) <= scale * 1e-13:
            raise SingularMatrixError(f"zero pivot at column {col}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            rows[[col, piv]] = rows[[piv, col]]
        factors = a[:, col].copy()
        factors[col] = 0.0
        # slot col now holds right-half column rows[col]: the unit vector at col
        a[:, col] = 0.0
        a[col, col] = 1.0
        a[col] /= pv
        if n <= UPDATE_ROWS:  # one chunk: the product is whole before a changes
            np.multiply(factors[:, None], a[col], out=buf)
            a -= buf
        else:
            _update_in_chunks(a, col, factors, buf)
    return rows


def _update_in_chunks(a, col, factors, buf):
    """``a -= outer(factors, a[col])`` with the same bits, UPDATE_ROWS rows at
    a time through ``buf``, so no n x n temporary is made.

    The outer product runs through ``einsum``, which numpy computes about
    twice as fast as the broadcast ``multiply``. It has no summed index, but
    it adds each product onto a zeroed output, so a zero product comes out as
    +0.0 whatever its sign, and ``a - f*p`` differs when that entry of ``a``
    is -0.0. So ``einsum`` runs only when no product can be zero: every
    factor but row col's and every pivot-row entry is nonzero, and the
    product of the smallest magnitudes does not underflow. Row col's products
    are then zeros subtracted from nonzero entries, which change nothing.
    Otherwise ``multiply`` forms the chunks. The pivot row is a copy: the
    chunk holding row col rewrites it (``-0.0 - 0*(-0.0)`` is +0.0), and
    later chunks must read the old row, or their update differs from
    ``a - outer(factors, a[col])`` in the signs of zeros. (The inverse's
    bytes would not show it: each row's own step clears its zeros' signs.)
    """
    n = a.shape[0]
    pivot_row = a[col].copy()
    magnitudes = np.abs(factors)
    magnitudes[col] = np.inf
    nonzero_products = magnitudes.min() * np.abs(pivot_row).min() > 0.0
    for r0 in range(0, n, UPDATE_ROWS):
        r1 = min(r0 + UPDATE_ROWS, n)
        out = buf[:r1 - r0]
        if nonzero_products:
            np.einsum("i,j->ij", factors[r0:r1], pivot_row, out=out)
        else:
            np.multiply(factors[r0:r1, None], pivot_row, out=out)
        a[r0:r1] -= out
