import ast
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import affine_oracle
from srosda import autodiff as ad
from srosda.exceptions import ContractError
from srosda.numkernel import make_rng


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = x.copy()
        up[idx] += eps
        down = x.copy()
        down[idx] -= eps
        g[idx] = (f(up) - f(down)) / (2.0 * eps)
    return g


def check_unary(op, plain, x, atol=1e-6):
    t = ad.Tensor(x)
    out = ad.tsum(op(t))
    out.backward()
    assert np.allclose(op(t).value, plain(np.asarray(x, dtype=np.float64)))
    num = numeric_grad(lambda v: plain(v).sum(), x)
    assert np.allclose(t.grad, num, atol=atol)


def test_elementwise_ops_match_numeric():
    rng = make_rng(0)
    x = rng.normal(size=(3, 4))
    check_unary(lambda t: ad.sigmoid(t), lambda v: 1.0 / (1.0 + np.exp(-v)), x)
    check_unary(lambda t: ad.exp(t), np.exp, x)
    check_unary(lambda t: ad.square(t), np.square, x)
    check_unary(lambda t: ad.log(t), np.log, np.abs(x) + 0.5)
    check_unary(lambda t: ad.sqrt(t), np.sqrt, np.abs(x) + 0.5)
    check_unary(lambda t: ad.neg(t), np.negative, x)


def test_binary_ops_and_broadcasting():
    rng = make_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(1, 4)) + 2.0
    ta, tb = ad.Tensor(a), ad.Tensor(b)
    out = ad.tsum(ta * tb + ta / tb - tb)
    out.backward()
    ga = numeric_grad(lambda v: (v * b + v / b - b).sum(), a)
    gb = numeric_grad(lambda v: (a * v + a / v - v).sum(), b)
    assert np.allclose(ta.grad, ga, atol=1e-6)
    assert np.allclose(tb.grad, gb, atol=1e-6)
    assert ta.grad.shape == a.shape and tb.grad.shape == b.shape


def test_matmul_grad():
    rng = make_rng(2)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    ta, tb = ad.Tensor(a), ad.Tensor(b)
    out = ad.tsum(ad.square(ta @ tb))
    out.backward()
    ga = numeric_grad(lambda v: np.square(v @ b).sum(), a)
    gb = numeric_grad(lambda v: np.square(a @ v).sum(), b)
    assert np.allclose(ta.grad, ga, atol=1e-5)
    assert np.allclose(tb.grad, gb, atol=1e-5)
    with pytest.raises(ContractError):
        ad.matmul(ad.Tensor(np.zeros(3)), tb)


def test_affine_grad_matches_numeric():
    rng = make_rng(6)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    c = rng.normal(size=(5, 4))

    def plain(xv, wv, bv):
        return (np.maximum(xv @ wv + bv, 0.0) * c).sum()

    # keep every pre-activation away from the ReLU kink at 0
    assert np.abs(x @ w + b).min() > 1e-3
    tx, tw, tb = ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)
    out = ad.tsum(ad.affine(tx, tw, tb, relu=True) * c)
    out.backward()
    assert out.item() == pytest.approx(plain(x, w, b), abs=1e-12)
    assert np.allclose(tx.grad, numeric_grad(lambda v: plain(v, w, b), x), atol=1e-6)
    assert np.allclose(tw.grad, numeric_grad(lambda v: plain(x, v, b), w), atol=1e-6)
    assert np.allclose(tb.grad, numeric_grad(lambda v: plain(x, w, v), b), atol=1e-6)
    with pytest.raises(ContractError):
        ad.affine(np.zeros(3), tw, tb)


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("x_is_leaf", [False, True])
def test_affine_same_bits_as_unfused_tape(relu, x_is_leaf):
    rng = make_rng(7)
    x = rng.normal(size=(6, 5))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    # row 0 and b[0] make pre-activations of exactly 0 (row 0 is all b)
    x[0] = 0.0
    b[0] = 0.0
    c = rng.normal(size=(6, 4))
    results = []
    for build in (ad.affine, affine_oracle):
        tx = ad.Tensor(x) if x_is_leaf else x
        tw, tb = ad.Tensor(w), ad.Tensor(b)
        out = build(tx, tw, tb, relu=relu)
        ad.tsum(out * c).backward()
        results.append((out.value, tx.grad if x_is_leaf else None, tw.grad,
                        tb.grad))
    (v, gx, gw, gb), (rv, rgx, rgw, rgb) = results
    pre = x @ w + b
    assert (pre == 0.0).any() and (pre < 0.0).any()
    if relu:
        assert np.signbit(v[pre < 0.0]).all()  # h * mask keeps -0.0
    assert np.array_equal(v, rv) and _bits(v) == _bits(rv)
    assert np.array_equal(gw, rgw) and _bits(gw) == _bits(rgw)
    assert np.array_equal(gb, rgb) and _bits(gb) == _bits(rgb)
    if x_is_leaf:
        assert np.array_equal(gx, rgx) and _bits(gx) == _bits(rgx)


def test_constants_stay_off_the_tape():
    rng = make_rng(8)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    c = ad.ensure(a)
    t = ad.Tensor(b)
    assert not c.needs_grad and c.node.edges == () and t.needs_grad
    out = ad.matmul(c, t)
    # the constant is no edge of the product: only the leaf's node is
    assert [parent for parent, _ in out.node.edges] == [t.node]
    ad.tsum(out).backward()
    assert c.grad is None
    assert np.array_equal(t.grad, a.T @ np.ones((3, 2)))
    # a subgraph built only from constants needs no gradient and keeps no tape
    k = ad.exp(ad.ensure(a)) * ad.ensure(a) + 1.0
    assert not k.needs_grad and k.node.edges == ()
    mixed = ad.tsum(ad.concat([k, ad.Tensor(a)], axis=0))
    assert mixed.needs_grad
    mixed.backward()
    assert k.grad is None


def test_binary_ops_skip_constant_parents(monkeypatch):
    """add/sub/mul/div form a gradient only for a parent that needs one."""
    shapes = []
    unbroadcast = ad._unbroadcast

    def spy(g, shape):
        shapes.append(shape)
        return unbroadcast(g, shape)

    monkeypatch.setattr(ad, "_unbroadcast", spy)
    rng = make_rng(9)
    x = rng.normal(size=(3, 4))
    k = rng.normal(size=(1, 4)) + 2.0  # a constant of another shape
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        for operands in ((0, 1), (1, 0)):
            t = ad.Tensor(x)
            shapes.clear()
            ad.tsum(op(*[(t, k)[i] for i in operands])).backward()
            assert shapes == [(3, 4)] and t.grad.shape == (3, 4)


def test_reductions_concat_gather_reshape_transpose():
    rng = make_rng(3)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(2, 3))
    idx = np.array([0, 2, 2, 5])

    def scalar(av, bv):
        cat = np.concatenate([av, bv], axis=0)
        picked = cat[idx]
        return (picked.T.reshape(-1) ** 2).sum() + cat.mean(axis=0).sum()

    ta, tb = ad.Tensor(a), ad.Tensor(b)
    cat = ad.concat([ta, tb], axis=0)
    picked = ad.gather_rows(cat, idx)
    out = (ad.tsum(ad.square(ad.transpose(picked)))
           + ad.tsum(ad.tsum(cat, axis=0) / 6.0))
    out.backward()
    assert out.item() == pytest.approx(scalar(a, b), abs=1e-10)
    assert np.allclose(ta.grad, numeric_grad(lambda v: scalar(v, b), a), atol=1e-6)
    assert np.allclose(tb.grad, numeric_grad(lambda v: scalar(a, v), b), atol=1e-6)


def test_gather_rows_accumulates_duplicates():
    t = ad.Tensor(np.arange(6, dtype=np.float64).reshape(3, 2))
    out = ad.tsum(ad.gather_rows(t, np.array([1, 1, 1])))
    out.backward()
    assert np.array_equal(t.grad, np.array([[0, 0], [3, 3], [0, 0]], dtype=float))


def test_clip_gradient_masks_outside():
    t = ad.Tensor(np.array([-1.0, 0.5, 2.0]))
    out = ad.tsum(ad.clip(t, 0.0, 1.0))
    out.backward()
    assert np.array_equal(t.grad, np.array([0.0, 1.0, 0.0]))
    t2 = ad.Tensor(np.array([-1.0, 3.0]))
    ad.tsum(ad.clip_min(t2, 0.0)).backward()
    assert np.array_equal(t2.grad, np.array([0.0, 1.0]))


def test_inverse_forward_and_grad():
    rng = make_rng(4)
    m = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    t = ad.Tensor(m)
    w = ad.inverse(t)
    assert np.allclose(w.value @ m, np.eye(3), atol=1e-10)
    c = rng.normal(size=(3, 3))
    out = ad.tsum(w * c)
    out.backward()
    num = numeric_grad(lambda v: (np.linalg.inv(v) * c).sum(), m)
    assert np.allclose(t.grad, num, atol=1e-5)


def test_softmax_cross_entropy_oracle_and_grad():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    labels = np.array([2, 0])
    t = ad.Tensor(logits)
    losses = ad.softmax_cross_entropy(t, labels)
    # frozen from log-sum-exp computed by hand:
    # row 0: log(e^1+e^2+e^3) - 3 = 0.40760596444438...
    # row 1: log(3) - 0 = 1.0986122886681098
    assert losses.value[0] == pytest.approx(0.4076059644443804, abs=1e-12)
    assert losses.value[1] == pytest.approx(np.log(3.0), abs=1e-12)
    ad.tsum(losses).backward()

    def f(v):
        shifted = v - v.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1)) + v.max(axis=1)
        return (lse - v[np.arange(2), labels]).sum()

    assert np.allclose(t.grad, numeric_grad(f, logits), atol=1e-6)
    with pytest.raises(ContractError):
        ad.softmax_cross_entropy(ad.Tensor(logits), np.array([3, 0]))


def test_shared_subexpression_accumulates():
    t = ad.Tensor(np.array(2.0))
    y = t * t + t  # dy/dt = 2t + 1 = 5
    y.backward()
    assert float(t.grad) == pytest.approx(5.0, abs=1e-12)


def test_gradient_array_shared_by_two_parents():
    # add and concat hand one gradient array (or views of it) to both
    # parents; the first is kept without a copy, so nothing may write it
    rng = make_rng(5)
    x = rng.normal(size=(3, 4))
    w1, w2 = rng.normal(size=(3, 8)), rng.normal(size=(6, 4))

    def plain(v):
        s, a, b = v + v, v * w2[:3], np.exp(v)
        return ((w1 * np.concatenate([s, s], axis=1)).sum()
                + (w2 * np.concatenate([s, s * v], axis=0)).sum()
                + np.square(a + b).sum() + (a * b).sum())

    t = ad.Tensor(x)
    s, a, b = t + t, t * w2[:3], ad.exp(t)
    out = (ad.tsum(ad.concat([s, s], axis=1) * w1)
           + ad.tsum(ad.concat([s, s * t], axis=0) * w2)
           + ad.tsum(ad.square(a + b)) + ad.tsum(a * b))
    out.backward()
    assert out.item() == pytest.approx(plain(x), abs=1e-12)
    assert np.allclose(t.grad, numeric_grad(plain, x), atol=1e-6)


def test_backward_requires_scalar():
    with pytest.raises(ContractError):
        ad.Tensor(np.zeros(3)).backward()


def test_ndarray_interop_prefers_tensor_ops():
    a = np.ones((2, 2))
    t = ad.Tensor(np.full((2, 2), 3.0))
    out = ad.tsum(a * t)
    assert isinstance(out, ad.Tensor)
    out.backward()
    assert np.array_equal(t.grad, np.ones((2, 2)))


def test_deep_graph_iterative_backward():
    # would overflow the recursion limit with a recursive implementation
    t = ad.Tensor(np.array(1.0))
    out = t
    for _ in range(5000):
        out = out + 0.0
    out.backward()
    assert float(t.grad) == 1.0


def consumable_graph():
    """(root, leaf, constant, non-leaf nodes) of a small graph that mixes a
    fused layer, a shared node and a constant."""
    rng = make_rng(11)
    w = ad.Tensor(rng.normal(size=(3, 2)))
    c = ad.ensure(rng.normal(size=(4, 2)))
    h = ad.affine(rng.normal(size=(4, 3)), w, np.zeros(2), relu=True)
    s = ad.sigmoid(h)
    prod = s * s
    scaled = prod * c
    root = ad.tsum(scaled + s)
    return root, w, c, [h, s, prod, scaled, root]


def test_backward_consumes_the_tape():
    root, w, c, inner = consumable_graph()
    root.backward()
    for t in inner:
        assert t.grad is None and t.node.edges is None
        # a new graph through the consumed node refuses to differentiate
        with pytest.raises(ContractError, match="consumed tape"):
            ad.tsum(t * 1.0).backward()
    # the leaf keeps its gradient, the constant gets none
    assert w.grad is not None and w.grad.shape == (3, 2)
    assert c.grad is None
    # leaves are not consumed: a new graph over them differentiates again
    ad.tsum(w * w).backward()
    assert np.array_equal(w.grad, 2.0 * w.value)


def test_consumed_tape_refuses_another_backward():
    root, _, _, inner = consumable_graph()
    root.backward()
    with pytest.raises(ContractError, match="consumed tape"):
        root.backward()
    # a new graph whose gradient reaches a consumed node
    s = inner[1]
    with pytest.raises(ContractError, match="consumed tape"):
        ad.tsum(s * 2.0).backward()


def _leaf(*shape, low=None):
    v = make_rng(12).normal(size=shape)
    return ad.Tensor(np.abs(v) + low if low is not None else v)


DIFFERENTIABLE_OPS = {
    "add": lambda: ad.add(_leaf(3, 4), _leaf(1, 4)),
    "sub": lambda: ad.sub(_leaf(3, 4), _leaf(3, 1)),
    "mul": lambda: ad.mul(_leaf(3, 4), _leaf(3, 4)),
    "div": lambda: ad.div(_leaf(3, 4), _leaf(3, 4, low=0.5)),
    "neg": lambda: ad.neg(_leaf(3, 4)),
    "matmul": lambda: ad.matmul(_leaf(3, 4), _leaf(4, 2)),
    "affine": lambda: ad.affine(_leaf(3, 4), _leaf(4, 2), _leaf(2)),
    "affine_relu": lambda: ad.affine(_leaf(3, 4), _leaf(4, 2), _leaf(2),
                                     relu=True),
    "transpose": lambda: ad.transpose(_leaf(3, 4)),
    "sigmoid": lambda: ad.sigmoid(_leaf(3, 4)),
    "exp": lambda: ad.exp(_leaf(3, 4)),
    "log": lambda: ad.log(_leaf(3, 4, low=0.5)),
    "sqrt": lambda: ad.sqrt(_leaf(3, 4, low=0.5)),
    "square": lambda: ad.square(_leaf(3, 4)),
    "tsum": lambda: ad.tsum(_leaf(3, 4), axis=1),
    "concat": lambda: ad.concat([_leaf(3, 4), _leaf(2, 4)], axis=0),
    "gather_rows": lambda: ad.gather_rows(_leaf(3, 4), [0, 2, 2]),
    "clip": lambda: ad.clip(_leaf(3, 4), -0.5, 0.5),
    "clip_min": lambda: ad.clip_min(_leaf(3, 4), 0.0),
    "inverse": lambda: ad.inverse(ad.Tensor(np.eye(3) * 2.0 + 0.1)),
    "softmax_cross_entropy": lambda: ad.softmax_cross_entropy(
        _leaf(3, 4), np.array([0, 3, 1])),
}


@pytest.mark.parametrize("op", sorted(DIFFERENTIABLE_OPS))
def test_no_backward_closure_holds_a_tensor(op):
    # a vjp that held an operand Tensor would keep its value alive for as
    # long as the tape, whether or not the vjp reads it
    out = DIFFERENTIABLE_OPS[op]()
    assert out.needs_grad and out.node.edges
    stack = [vjp for _, vjp in out.node.edges]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        assert not isinstance(obj, ad.Tensor), f"{op}'s vjp holds a Tensor"


def test_every_public_op_is_walked():
    public = {name for name, f in vars(ad).items()
              if inspect.isfunction(f) and f.__module__ == ad.__name__
              and not name.startswith("_")}
    assert public - {"ensure"} <= set(DIFFERENTIABLE_OPS)


def _scope_of_each(tree, node_type):
    """(name of the top-level def or class around it, node) for each node."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, node_type):
                yield getattr(top, "name", None), node


def test_one_owner_of_the_gradient_rule():
    """Only _op decides which operands get an edge: no op reads needs_grad,
    and no Tensor is built with edges elsewhere."""
    tree = ast.parse(Path(ad.__file__).read_text())
    readers = {scope for scope, node in _scope_of_each(tree, ast.Attribute)
               if node.attr == "needs_grad"}
    assert readers <= {"_Node", "Tensor", "_op"}, readers
    builders = {scope for scope, call in _scope_of_each(tree, ast.Call)
                if isinstance(call.func, ast.Name) and call.func.id == "Tensor"
                and (len(call.args) > 1
                     or any(k.arg == "edges" for k in call.keywords))}
    assert builders <= {"_op"}, builders


def test_a_value_no_backward_reads_is_freed_before_backward():
    t = ad.Tensor(make_rng(13).normal(size=(3, 4)))
    s = t + 1.0
    e = ad.exp(s)
    out = ad.tsum(s) + ad.tsum(e)
    # exp's backward reads its output, and neither tsum nor exp reads s
    unread, read = weakref.ref(s.value), weakref.ref(e.value)
    del s, e
    assert unread() is None, "a value no backward reads outlives its Tensor"
    assert read() is not None, "exp's backward lost the output it reads"
    out.backward()
    assert read() is None, "backward keeps a consumed closure's array"
    assert np.array_equal(t.grad, 1.0 + np.exp(t.value + 1.0))
