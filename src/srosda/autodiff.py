"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the primitive set the training objective needs: the fused
dense layer ``affine(x, w, b, relu)``, matmul, logistic, exp/log/sqrt,
reductions, concatenation, row gathering, clipping, softmax cross-entropy and
dense matrix inversion. Gradients through the inverse use dW = -W^T g W^T, so
losses may differentiate through the attribute-propagation solve.

A ``Tensor`` is a value and its tape node; the node holds the gradient, the
parents' nodes and the backward closure, never a value. Each closure keeps
only the arrays and shapes its backward reads, so the tape holds only what
backward reads, and an intermediate value that no backward reads is freed
when its Tensor goes.

An explicit ``Tensor(v)`` is a differentiable leaf; a raw ndarray that an op
wraps with ``ensure`` is a constant. A node needs a gradient if and only if
one of its parents does; a node that needs none keeps neither its parents
nor its backward closure, and a backward forms a gradient only for the
parents that need one.

``backward`` consumes the tape: each node that has parents drops its
gradient, parents and closure once its own backward has run, so only leaves
keep ``grad`` and a built graph takes one backward.
"""

import numpy as np

from .exceptions import ContractError
from .numkernel import inv_small

SQRT_GRAD_FLOOR = 1e-12


class _Node:
    """The tape's record of one Tensor: its gradient, its parents' nodes and
    the backward closure that hands them their gradients."""

    __slots__ = ("grad", "needs_grad", "parents", "backward")

    def __init__(self, needs_grad, parents, backward):
        self.grad = None
        self.needs_grad = needs_grad
        self.parents = parents
        self.backward = backward


class Tensor:
    """A value and its tape node, whose ``grad`` and ``needs_grad`` it reads
    through; an op passes its operands' nodes as ``parents``. Leaf tensors
    have no parents; calling ``backward()`` on a scalar output sets ``grad``
    on every leaf that ``needs_grad`` and consumes the graph above the
    leaves. The tape reaches a value only through the closures that read it,
    so an intermediate value lives only as long as its Tensor or such a
    closure."""

    __slots__ = ("value", "node")

    # defer to Tensor's reflected operators when mixed with ndarrays
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None, needs_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        if parents:
            needs_grad = any(p.needs_grad for p in parents)
        self.node = _Node(needs_grad, parents if needs_grad else (),
                          backward if needs_grad else None)

    grad = property(lambda self: self.node.grad)
    needs_grad = property(lambda self: self.node.needs_grad)

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)

    __float__ = item

    def backward(self):
        if self.value.ndim != 0:
            raise ContractError("backward() requires a scalar output")
        order = _topo_order(self.node)
        for node in order:
            node.grad = None
        self.node.grad = np.ones_like(self.value)
        # pop, so the list stops holding a node once its turn has passed;
        # dropping the closure frees the arrays that only its backward read
        while order:
            node = order.pop()
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
            if node.parents:
                node.grad = None
                node.parents = ()
                node.backward = _consumed

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
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def ensure(x):
    """``x`` itself if a Tensor, else ``x`` as a constant."""
    return x if isinstance(x, Tensor) else Tensor(x, needs_grad=False)


def _acc(node, g):
    # the first gradient is kept as given, perhaps shared with another node
    # or a view: no backward writes a grad array in place
    if not node.needs_grad:
        return
    if node.grad is None:
        node.grad = np.asarray(g, dtype=np.float64)
    else:
        node.grad = node.grad + g


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b):
    a, b = ensure(a), ensure(b)
    na, nb, sa, sb = a.node, b.node, a.value.shape, b.value.shape

    def back(g):
        if na.needs_grad:
            _acc(na, _unbroadcast(g, sa))
        if nb.needs_grad:
            _acc(nb, _unbroadcast(g, sb))

    return Tensor(a.value + b.value, (na, nb), back)


def sub(a, b):
    a, b = ensure(a), ensure(b)
    na, nb, sa, sb = a.node, b.node, a.value.shape, b.value.shape

    def back(g):
        if na.needs_grad:
            _acc(na, _unbroadcast(g, sa))
        if nb.needs_grad:
            _acc(nb, _unbroadcast(-g, sb))

    return Tensor(a.value - b.value, (na, nb), back)


def mul(a, b):
    a, b = ensure(a), ensure(b)
    na, nb, sa, sb = a.node, b.node, a.value.shape, b.value.shape
    # each operand's value is kept only for the other's gradient
    av = a.value if nb.needs_grad else None
    bv = b.value if na.needs_grad else None

    def back(g):
        if na.needs_grad:
            _acc(na, _unbroadcast(g * bv, sa))
        if nb.needs_grad:
            _acc(nb, _unbroadcast(g * av, sb))

    return Tensor(a.value * b.value, (na, nb), back)


def div(a, b):
    a, b = ensure(a), ensure(b)
    na, nb, sa, sb = a.node, b.node, a.value.shape, b.value.shape
    av, bv = (a.value if nb.needs_grad else None), b.value

    def back(g):
        if na.needs_grad:
            _acc(na, _unbroadcast(g / bv, sa))
        if nb.needs_grad:
            _acc(nb, _unbroadcast(-g * av / (bv * bv), sb))

    return Tensor(a.value / b.value, (na, nb), back)


def neg(a):
    a = ensure(a)
    na = a.node

    def back(g):
        _acc(na, -g)

    return Tensor(-a.value, (na,), back)


def matmul(a, b):
    a, b = ensure(a), ensure(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ContractError("matmul supports 2-D operands only")
    na, nb = a.node, b.node
    av = a.value if nb.needs_grad else None
    bv = b.value if na.needs_grad else None

    def back(g):
        if na.needs_grad:
            _acc(na, g @ bv.T)
        if nb.needs_grad:
            _acc(nb, av.T @ g)

    return Tensor(a.value @ b.value, (na, nb), back)


def affine(x, w, b, relu=False):
    """x @ w + b as one node, optionally followed by ReLU (kept as ``h * mask``
    so negative pre-activations give -0.0)."""
    x, w, b = ensure(x), ensure(w), ensure(b)
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ContractError("affine supports 2-D operands only")
    nx, nw, nb, sb = x.node, w.node, b.node, b.value.shape
    xv = x.value if nw.needs_grad else None
    wv = w.value if nx.needs_grad else None
    h = x.value @ w.value
    h += b.value
    mask = None
    if relu:
        mask = h > 0.0
        h *= mask

    def back(g):
        if mask is not None:
            g = g * mask
        if nx.needs_grad:
            _acc(nx, g @ wv.T)
        if nw.needs_grad:
            _acc(nw, xv.T @ g)
        _acc(nb, _unbroadcast(g, sb))

    return Tensor(h, (nx, nw, nb), back)


def transpose(a):
    a = ensure(a)
    na = a.node

    def back(g):
        _acc(na, g.T)

    return Tensor(a.value.T, (na,), back)


def sigmoid(a):
    a = ensure(a)
    na, x = a.node, a.value
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        _acc(na, g * s * (1.0 - s))

    return Tensor(s, (na,), back)


def exp(a):
    a = ensure(a)
    na, e = a.node, np.exp(a.value)

    def back(g):
        _acc(na, g * e)

    return Tensor(e, (na,), back)


def log(a):
    a = ensure(a)
    na, av = a.node, a.value

    def back(g):
        _acc(na, g / av)

    return Tensor(np.log(av), (na,), back)


def sqrt(a):
    a = ensure(a)
    na, r = a.node, np.sqrt(a.value)

    def back(g):
        _acc(na, g * 0.5 / np.maximum(r, SQRT_GRAD_FLOOR))

    return Tensor(r, (na,), back)


def square(a):
    a = ensure(a)
    na, av = a.node, a.value

    def back(g):
        _acc(na, g * 2.0 * av)

    return Tensor(av * av, (na,), back)


def tsum(a, axis=None):
    """The sum of every entry, or the sums along ``axis`` with that axis kept."""
    a = ensure(a)
    na, shape = a.node, a.value.shape

    def back(g):
        _acc(na, np.broadcast_to(g, shape))

    return Tensor(a.value.sum(axis=axis, keepdims=axis is not None), (na,), back)


def concat(tensors, axis=0):
    tensors = [ensure(t) for t in tensors]
    nodes = tuple(t.node for t in tensors)
    splits = np.cumsum([t.value.shape[axis] for t in tensors])[:-1]

    def back(g):
        for node, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _acc(node, piece)

    return Tensor(np.concatenate([t.value for t in tensors], axis=axis),
                  nodes, back)


def gather_rows(a, idx):
    a = ensure(a)
    na, shape = a.node, a.value.shape
    idx = np.asarray(idx, dtype=np.intp)

    def back(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        _acc(na, buf)

    return Tensor(a.value[idx], (na,), back)


def clip(a, lo, hi):
    a = ensure(a)
    na, inside = a.node, (a.value >= lo) & (a.value <= hi)

    def back(g):
        _acc(na, g * inside)

    return Tensor(np.clip(a.value, lo, hi), (na,), back)


def clip_min(a, lo):
    a = ensure(a)
    na, inside = a.node, a.value >= lo

    def back(g):
        _acc(na, g * inside)

    return Tensor(np.maximum(a.value, lo), (na,), back)


def inverse(a):
    """Matrix inverse by ``inv_small``'s pivoted Gauss-Jordan elimination;
    the caller bounds its size and conditioning."""
    a = ensure(a)
    na, w = a.node, inv_small(a.value)

    def back(g):
        _acc(na, -(w.T @ g @ w.T))

    return Tensor(w, (na,), back)


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
    nl, rows = logits.node, np.arange(v.shape[0])
    top = v.max(axis=1, keepdims=True)
    shifted = v - top
    lse = np.log(np.exp(shifted).sum(axis=1)) + top[:, 0]
    losses = lse - v[rows, labels]

    def back(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        _acc(nl, p * np.asarray(g)[:, None])

    return Tensor(losses, (nl,), back)
