"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the primitive set the training objective needs: the fused
dense layer ``affine(x, w, b, relu)``, matmul, logistic, exp/log/sqrt,
reductions, concatenation, row gathering, clipping, softmax cross-entropy and
dense matrix inversion. Gradients through the inverse use dW = -W^T g W^T, so
losses may differentiate through the attribute-propagation inverse.

A ``Tensor`` is a value and its tape node; the node holds the gradient and
its edges, never a value. An edge is an operand's node and its vjp, which
maps the output's gradient to that operand's; a vjp keeps only the arrays and
shapes it reads, so an intermediate value that no vjp reads is freed when
its Tensor goes.

An explicit ``Tensor(v)`` is a differentiable leaf; a raw ndarray that an op
wraps with ``ensure`` is a constant. Each op hands ``_op`` its value and one
vjp per operand, and ``_op`` keeps an edge only for an operand that needs a
gradient: the other vjps are dropped with what they read, a node needs a
gradient if and only if it has an edge, and backward forms a gradient only
along an edge.

``backward`` consumes the tape: each node with edges drops its gradient and
edges once it has passed its gradient on, so only leaves keep ``grad`` and a
built graph takes one backward.
"""

import numpy as np

from .exceptions import ContractError
from .numkernel import inv_small

SQRT_GRAD_FLOOR = 1e-12


class _Node:
    """The tape's record of one Tensor: its gradient and its edges, one
    ``(parent node, vjp)`` pair per operand that needs a gradient; ``edges``
    is None once backward has consumed the node."""

    __slots__ = ("grad", "needs_grad", "edges")

    def __init__(self, needs_grad, edges):
        self.grad = None
        self.needs_grad = needs_grad
        self.edges = edges


class Tensor:
    """A value and its tape node, whose ``grad`` and ``needs_grad`` it reads
    through; ``_op`` passes the node's ``edges``. Leaf tensors have no edges;
    calling ``backward()`` on a scalar output sets ``grad`` on every leaf
    that ``needs_grad`` and consumes the graph above the leaves. The tape
    reaches a value only through the vjps that read it, so an intermediate
    value lives only as long as its Tensor or such a vjp."""

    __slots__ = ("value", "node")

    # defer to Tensor's reflected operators when mixed with ndarrays
    __array_ufunc__ = None

    def __init__(self, value, edges=(), needs_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.node = _Node(needs_grad, edges)

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
        # dropping the edges frees the arrays that only their vjps read.
        # Every node in the order gets a gradient before its turn.
        while order:
            node = order.pop()
            edges = node.edges
            if edges is None:
                raise ContractError("backward through a consumed tape")
            if edges:
                g = node.grad
                for parent, vjp in edges:
                    _acc(parent, vjp(g))
                node.grad = None
                node.edges = None

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
        for p, _ in node.edges or ():
            if id(p) not in seen:
                stack.append((p, False))
    return order


def ensure(x):
    """``x`` itself if a Tensor, else ``x`` as a constant."""
    return x if isinstance(x, Tensor) else Tensor(x, needs_grad=False)


def _op(value, *operands):
    """The Tensor of ``value`` from ``(operand Tensor, vjp)`` pairs: its node
    keeps an edge for each operand that needs a gradient and drops the other
    vjps, with the arrays only they read."""
    live = tuple([(t.node, vjp) for t, vjp in operands if t.node.needs_grad])
    return Tensor(value, live, needs_grad=bool(live))


def _acc(node, g):
    # the first gradient is kept as given, perhaps shared with another node
    # or a view: no vjp writes a grad array in place
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
    sa, sb = a.value.shape, b.value.shape
    return _op(a.value + b.value, (a, lambda g: _unbroadcast(g, sa)),
               (b, lambda g: _unbroadcast(g, sb)))


def sub(a, b):
    a, b = ensure(a), ensure(b)
    sa, sb = a.value.shape, b.value.shape
    return _op(a.value - b.value, (a, lambda g: _unbroadcast(g, sa)),
               (b, lambda g: _unbroadcast(-g, sb)))


def mul(a, b):
    a, b = ensure(a), ensure(b)
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape
    return _op(av * bv, (a, lambda g: _unbroadcast(g * bv, sa)),
               (b, lambda g: _unbroadcast(g * av, sb)))


def div(a, b):
    a, b = ensure(a), ensure(b)
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape
    return _op(av / bv, (a, lambda g: _unbroadcast(g / bv, sa)),
               (b, lambda g: _unbroadcast(-g * av / (bv * bv), sb)))


def neg(a):
    a = ensure(a)
    return _op(-a.value, (a, lambda g: -g))


def matmul(a, b):
    a, b = ensure(a), ensure(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ContractError("matmul supports 2-D operands only")
    return _op(av @ bv, (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))


def affine(x, w, b, relu=False):
    """x @ w + b as one node, optionally followed by ReLU (kept as ``h * mask``
    so negative pre-activations give -0.0)."""
    x, w, b = ensure(x), ensure(w), ensure(b)
    xv, wv, sb = x.value, w.value, b.value.shape
    if xv.ndim != 2 or wv.ndim != 2:
        raise ContractError("affine supports 2-D operands only")
    h = xv @ wv
    h += b.value
    if not relu:
        return _op(h, (x, lambda g: g @ wv.T), (w, lambda g: xv.T @ g),
                   (b, lambda g: _unbroadcast(g, sb)))
    # no step runs before a node's vjps, so each masks g (the same product)
    mask = h > 0.0
    h *= mask
    return _op(h, (x, lambda g: (g * mask) @ wv.T),
               (w, lambda g: xv.T @ (g * mask)),
               (b, lambda g: _unbroadcast(g * mask, sb)))


def transpose(a):
    a = ensure(a)
    return _op(a.value.T, (a, lambda g: g.T))


def sigmoid(a):
    a = ensure(a)
    x = a.value
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _op(s, (a, lambda g: g * s * (1.0 - s)))


def exp(a):
    a = ensure(a)
    e = np.exp(a.value)
    return _op(e, (a, lambda g: g * e))


def log(a):
    a = ensure(a)
    av = a.value
    return _op(np.log(av), (a, lambda g: g / av))


def sqrt(a):
    a = ensure(a)
    r = np.sqrt(a.value)
    return _op(r, (a, lambda g: g * 0.5 / np.maximum(r, SQRT_GRAD_FLOOR)))


def square(a):
    a = ensure(a)
    av = a.value
    return _op(av * av, (a, lambda g: g * 2.0 * av))


def tsum(a, axis=None):
    """The sum of every entry, or the sums along ``axis`` with that axis kept."""
    a = ensure(a)
    shape = a.value.shape
    return _op(a.value.sum(axis=axis, keepdims=axis is not None),
               (a, lambda g: np.broadcast_to(g, shape)))


def concat(tensors, axis=0):
    tensors = [ensure(t) for t in tensors]
    value = np.concatenate([t.value for t in tensors], axis=axis)
    # each operand's gradient is its slice of g, a view as np.split gives
    cut = (slice(None),) * (axis % value.ndim)
    ends = np.cumsum([0] + [t.value.shape[axis] for t in tensors]).tolist()
    return _op(value, *[(t, lambda g, i=cut + (slice(lo, hi),): g[i])
                        for t, lo, hi in zip(tensors, ends, ends[1:])])


def gather_rows(a, idx):
    a = ensure(a)
    shape, idx = a.value.shape, np.asarray(idx, dtype=np.intp)

    def vjp(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        return buf

    return _op(a.value[idx], (a, vjp))


def clip(a, lo, hi):
    a = ensure(a)
    inside = (a.value >= lo) & (a.value <= hi)
    return _op(np.clip(a.value, lo, hi), (a, lambda g: g * inside))


def clip_min(a, lo):
    a = ensure(a)
    inside = a.value >= lo
    return _op(np.maximum(a.value, lo), (a, lambda g: g * inside))


def inverse(a):
    """Matrix inverse by ``inv_small``'s pivoted Gauss-Jordan elimination;
    the caller bounds its size and conditioning."""
    a = ensure(a)
    w = inv_small(a.value)
    return _op(w, (a, lambda g: -(w.T @ g @ w.T)))


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
    rows = np.arange(v.shape[0])
    top = v.max(axis=1, keepdims=True)
    shifted = v - top
    lse = np.log(np.exp(shifted).sum(axis=1)) + top[:, 0]

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        return p * np.asarray(g)[:, None]

    return _op(lse - v[rows, labels], (logits, vjp))
