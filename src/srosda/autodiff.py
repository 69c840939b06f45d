"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the primitive set the training objective needs: the fused
dense layer ``affine(x, w, b, relu)``, matmul, logistic, exp/log/sqrt,
reductions, concatenation, row gathering, clipping, softmax cross-entropy and
dense matrix inversion. Gradients through the inverse use dW = -W^T g W^T, so
losses may differentiate through the attribute-propagation solve.

An explicit ``Tensor(v)`` is a differentiable leaf; a raw ndarray that an op
wraps with ``ensure`` is a constant. A node needs a gradient if and only if
one of its parents does; a node that needs none keeps neither its parents
nor its backward closure, so the tape holds only what backward reads, and a
backward forms a gradient only for the parents that need one.

``backward`` consumes the tape: each node that has parents drops its
gradient, parents and closure once its own backward has run, so only leaves
keep ``grad`` and a built graph takes one backward.
"""

import numpy as np

from .exceptions import ContractError
from .numkernel import inv_small

SQRT_GRAD_FLOOR = 1e-12


class Tensor:
    """A node in the computation graph. Leaf tensors have no parents; calling
    ``backward()`` on a scalar output sets ``grad`` on every leaf that
    ``needs_grad`` and consumes the graph above the leaves."""

    __slots__ = ("value", "grad", "needs_grad", "_parents", "_backward")

    # defer to Tensor's reflected operators when mixed with ndarrays
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None, needs_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if parents:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad
        self._parents = parents if needs_grad else ()
        self._backward = backward if needs_grad else None

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)

    __float__ = item

    def backward(self):
        if self.value.ndim != 0:
            raise ContractError("backward() requires a scalar output")
        order = _topo_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        # pop, so the list stops holding a node once its turn has passed;
        # dropping the closure frees the arrays that only its backward read
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
                node._parents = ()
                node._backward = _consumed

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def _consumed(g):
    raise ContractError("backward through a consumed tape")


def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def ensure(x):
    """``x`` itself if a Tensor, else ``x`` as a constant."""
    return x if isinstance(x, Tensor) else Tensor(x, needs_grad=False)


def _acc(t, g):
    # the first gradient is kept as given, perhaps shared with another node
    # or a view: no backward writes a grad array in place
    if not t.needs_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b):
    a, b = ensure(a), ensure(b)
    out_val = a.value + b.value

    def back(g):
        if a.needs_grad:
            _acc(a, _unbroadcast(g, a.value.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(g, b.value.shape))

    return Tensor(out_val, (a, b), back)


def sub(a, b):
    a, b = ensure(a), ensure(b)
    out_val = a.value - b.value

    def back(g):
        if a.needs_grad:
            _acc(a, _unbroadcast(g, a.value.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(-g, b.value.shape))

    return Tensor(out_val, (a, b), back)


def mul(a, b):
    a, b = ensure(a), ensure(b)
    out_val = a.value * b.value

    def back(g):
        if a.needs_grad:
            _acc(a, _unbroadcast(g * b.value, a.value.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out_val, (a, b), back)


def div(a, b):
    a, b = ensure(a), ensure(b)
    out_val = a.value / b.value

    def back(g):
        if a.needs_grad:
            _acc(a, _unbroadcast(g / b.value, a.value.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(-g * a.value / (b.value * b.value),
                                 b.value.shape))

    return Tensor(out_val, (a, b), back)


def neg(a):
    a = ensure(a)

    def back(g):
        _acc(a, -g)

    return Tensor(-a.value, (a,), back)


def matmul(a, b):
    a, b = ensure(a), ensure(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ContractError("matmul supports 2-D operands only")
    out_val = a.value @ b.value

    def back(g):
        if a.needs_grad:
            _acc(a, g @ b.value.T)
        if b.needs_grad:
            _acc(b, a.value.T @ g)

    return Tensor(out_val, (a, b), back)


def affine(x, w, b, relu=False):
    """x @ w + b as one node, optionally followed by ReLU (kept as ``h * mask``
    so negative pre-activations give -0.0)."""
    x, w, b = ensure(x), ensure(w), ensure(b)
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ContractError("affine supports 2-D operands only")
    h = x.value @ w.value
    h += b.value
    mask = None
    if relu:
        mask = h > 0.0
        h *= mask

    def back(g):
        if mask is not None:
            g = g * mask
        if x.needs_grad:
            _acc(x, g @ w.value.T)
        if w.needs_grad:
            _acc(w, x.value.T @ g)
        _acc(b, _unbroadcast(g, b.value.shape))

    return Tensor(h, (x, w, b), back)


def transpose(a):
    a = ensure(a)

    def back(g):
        _acc(a, g.T)

    return Tensor(a.value.T, (a,), back)


def sigmoid(a):
    a = ensure(a)
    x = a.value
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        _acc(a, g * s * (1.0 - s))

    return Tensor(s, (a,), back)


def exp(a):
    a = ensure(a)
    e = np.exp(a.value)

    def back(g):
        _acc(a, g * e)

    return Tensor(e, (a,), back)


def log(a):
    a = ensure(a)

    def back(g):
        _acc(a, g / a.value)

    return Tensor(np.log(a.value), (a,), back)


def sqrt(a):
    a = ensure(a)
    r = np.sqrt(a.value)

    def back(g):
        _acc(a, g * 0.5 / np.maximum(r, SQRT_GRAD_FLOOR))

    return Tensor(r, (a,), back)


def square(a):
    a = ensure(a)

    def back(g):
        _acc(a, g * 2.0 * a.value)

    return Tensor(a.value * a.value, (a,), back)


def tsum(a, axis=None, keepdims=False):
    a = ensure(a)
    out_val = a.value.sum(axis=axis, keepdims=keepdims)

    def back(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _acc(a, np.broadcast_to(gg, a.value.shape))

    return Tensor(out_val, (a,), back)


def concat(tensors, axis=0):
    tensors = [ensure(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in tensors]
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _acc(t, piece)

    return Tensor(out_val, tuple(tensors), back)


def gather_rows(a, idx):
    a = ensure(a)
    idx = np.asarray(idx, dtype=np.intp)

    def back(g):
        buf = np.zeros_like(a.value)
        np.add.at(buf, idx, g)
        _acc(a, buf)

    return Tensor(a.value[idx], (a,), back)


def clip(a, lo, hi):
    a = ensure(a)
    inside = (a.value >= lo) & (a.value <= hi)

    def back(g):
        _acc(a, g * inside)

    return Tensor(np.clip(a.value, lo, hi), (a,), back)


def clip_min(a, lo):
    a = ensure(a)
    inside = a.value >= lo

    def back(g):
        _acc(a, g * inside)

    return Tensor(np.maximum(a.value, lo), (a,), back)


def inverse(a):
    """Matrix inverse by ``inv_small``'s pivoted Gauss-Jordan elimination,
    which also enforces its size and condition limits."""
    a = ensure(a)
    w = inv_small(a.value)

    def back(g):
        _acc(a, -(w.T @ g @ w.T))

    return Tensor(w, (a,), back)


def softmax_cross_entropy(logits, labels):
    """Per-row softmax cross-entropy against integer labels. Returns a length-n
    loss vector; mean/sum composition is left to the caller."""
    logits = ensure(logits)
    labels = np.asarray(labels, dtype=np.intp)
    v = logits.value
    if v.ndim != 2 or labels.shape != (v.shape[0],):
        raise ContractError("softmax_cross_entropy expects (n, c) logits and n labels")
    if labels.size and (labels.min() < 0 or labels.max() >= v.shape[1]):
        raise ContractError("label out of range")
    top = v.max(axis=1, keepdims=True)
    shifted = v - top
    lse = np.log(np.exp(shifted).sum(axis=1)) + top[:, 0]
    losses = lse - v[np.arange(v.shape[0]), labels]

    def back(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(v.shape[0]), labels] -= 1.0
        _acc(logits, p * np.asarray(g)[:, None])

    return Tensor(losses, (logits,), back)
