import tracemalloc

import numpy as np
import pytest

from conftest import copy_params, grad_check
from srosda import autodiff as ad
from srosda import model
from srosda.exceptions import ContractError, FormatError
from srosda.model import (GZ_HIDDEN, HEAD_HIDDEN, LAYER_NAMES, Z_DIM,
                          forward_gz, init_params, load_checkpoint,
                          save_checkpoint, tape_forward_ga, tape_forward_gz,
                          tape_joint)
from srosda.numkernel import make_rng

D_X, D_A, K_S = 10, 5, 4


@pytest.fixture(scope="module")
def params():
    return init_params(D_X, D_A, K_S, seed=3)


def reference_gz(params, x):
    """Independent re-implementation of the embedding forward pass."""
    a = params.arrays
    h = x @ a["gz_w1"] + a["gz_b1"]
    h[h < 0] = 0.0
    return h @ a["gz_w2"] + a["gz_b2"]


def test_init_shapes_and_bounds(params):
    a = params.arrays
    assert set(a) == set(LAYER_NAMES)
    assert a["gz_w1"].shape == (D_X, GZ_HIDDEN)
    assert a["gz_w2"].shape == (GZ_HIDDEN, Z_DIM)
    assert a["ga_w2"].shape == (HEAD_HIDDEN, D_A)
    assert a["c_w1"].shape == (Z_DIM + D_A, HEAD_HIDDEN)
    assert a["c_w2"].shape == (HEAD_HIDDEN, K_S + 1)
    assert a["d_w2"].shape == (HEAD_HIDDEN, 2)
    for name in LAYER_NAMES:
        if name.endswith(("b1", "b2")):
            assert np.all(a[name] == 0.0)
        else:
            bound = np.sqrt(6.0 / a[name].shape[0])
            assert np.abs(a[name]).max() <= bound
    assert params.d_x == D_X and params.d_a == D_A and params.k_s == K_S


def test_init_deterministic():
    p1 = init_params(D_X, D_A, K_S, seed=9)
    p2 = init_params(D_X, D_A, K_S, seed=9)
    for name in LAYER_NAMES:
        assert np.array_equal(p1.arrays[name], p2.arrays[name])
    with pytest.raises(ContractError):
        init_params(0, D_A, K_S)


def test_forward_gz_matches_reference(params):
    x = make_rng(0).normal(size=(7, D_X))
    assert np.allclose(forward_gz(params, x), reference_gz(params, x),
                       atol=1e-12)


def test_forward_ga_range_and_reference(params):
    z = make_rng(1).normal(size=(5, Z_DIM))
    a_hat = tape_forward_ga(params.arrays, z).value
    assert a_hat.shape == (5, D_A)
    assert a_hat.min() > 0.0 and a_hat.max() < 1.0
    arr = params.arrays
    h = np.maximum(z @ arr["ga_w1"] + arr["ga_b1"], 0.0)
    expected = 1.0 / (1.0 + np.exp(-(h @ arr["ga_w2"] + arr["ga_b2"])))
    assert np.allclose(a_hat, expected, atol=1e-12)


def test_forward_shape_contracts(params):
    with pytest.raises(ContractError):
        forward_gz(params, np.zeros((3, D_X + 1)))


@pytest.mark.parametrize("use_fusion", [True, False])
def test_tape_joint_fusion_rule(use_fusion):
    rng = make_rng(11)
    z = ad.Tensor(rng.normal(size=(4, 3)))
    attrs = ad.Tensor(rng.uniform(size=(4, 2)))
    f = tape_joint(z, attrs, use_fusion)
    tail = attrs.value if use_fusion else np.zeros((4, 2))
    assert f.value.tobytes() == np.hstack([z.value, tail]).tobytes()
    # raw arrays are constants with the same values
    raw = tape_joint(z.value, attrs.value, use_fusion)
    assert not raw.needs_grad and raw.value.tobytes() == f.value.tobytes()
    # without fusion no gradient reaches the attribute half's source
    weights = rng.normal(size=(4, 5))
    ad.tsum(f * weights).backward()
    assert np.array_equal(z.grad, weights[:, :3])
    if use_fusion:
        assert np.array_equal(attrs.grad, weights[:, 3:])
    else:
        assert attrs.grad is None


def test_forward_gz_peak_memory(params):
    # forward_gz keeps no tape and makes one output per layer, not a matmul,
    # bias-add and ReLU output each, so its peak stays under two hidden
    # activations
    x = make_rng(6).normal(size=(2000, D_X))
    hidden_bytes = 2000 * GZ_HIDDEN * 8
    tracemalloc.start()
    try:
        forward_gz(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * hidden_bytes, f"peak {peak / hidden_bytes:.2f}x hidden"


@pytest.fixture
def empty_slot():
    """Start and end the test with no kept G_Z embedding."""
    model._kept = None
    yield
    model._kept = None


def fresh_gz(params, x):
    return tape_forward_gz(params.arrays, x).value


def test_kept_gz_misses_after_weight_edit(params, empty_slot):
    p = copy_params(params)
    x = make_rng(7).normal(size=(9, D_X))
    kept = forward_gz(p, x, keep=True)
    p.arrays["gz_w2"][3, 5] += 0.25  # in place: same arrays, other bytes
    z = forward_gz(p, x)
    assert z is not kept
    assert z.tobytes() == fresh_gz(p, x).tobytes()
    assert z.tobytes() != kept.tobytes()


def test_kept_gz_hits_byte_equal_rows_once(params, empty_slot):
    x = make_rng(8).normal(size=(9, D_X))
    kept = forward_gz(params, x, keep=True)
    assert kept.tobytes() == fresh_gz(params, x).tobytes()
    z = forward_gz(params, x.copy())
    assert z is kept and not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 1.0
    # one-shot: the hit emptied the slot, so the next call runs the pass
    again = forward_gz(params, x)
    assert again is not kept and again.flags.writeable
    assert again.tobytes() == kept.tobytes()


def test_kept_gz_other_rows_miss(params, empty_slot):
    x = make_rng(9).normal(size=(9, D_X))
    x[0, 0] = 0.0
    kept = forward_gz(params, x, keep=True)
    other = x.copy()
    other[4, 2] = np.nextafter(other[4, 2], np.inf)
    signed = x.copy()
    signed[0, 0] = -0.0  # equal in value, not in bytes
    for rows in (other, signed, x[:-1], x[::-1]):
        z = forward_gz(params, rows)
        assert z is not kept
        assert z.tobytes() == fresh_gz(params, rows).tobytes()
    # a miss leaves the slot as it was
    assert forward_gz(params, x) is kept


def test_kept_gz_returns_the_entry_it_compared(params, empty_slot, monkeypatch):
    # another thread's keep=True pass on other rows, with the same weights,
    # refills the slot while this call hashes the weights
    x = make_rng(11).normal(size=(9, D_X))
    forward_gz(params, x, keep=True)
    other = make_rng(12).normal(size=(9, D_X))
    digest = model._gz_digest
    racing = (other, digest(params.arrays), fresh_gz(params, other))
    calls = []

    def refill_then_digest(arrays):
        if not calls:
            model._kept = racing
        calls.append(arrays)
        return digest(arrays)

    monkeypatch.setattr(model, "_gz_digest", refill_then_digest)
    assert forward_gz(params, x).tobytes() == fresh_gz(params, x).tobytes()
    assert calls


def test_kept_gz_freed_before_next_keep_pass(params, empty_slot):
    # a keep=True call empties the slot before its pass, so two of them on
    # different rows peak at one pass (hidden activation + z), not one pass
    # plus the previous z (about 2x hidden)
    rng = make_rng(10)
    x1, x2 = rng.normal(size=(2, 2000, D_X))
    hidden_bytes = 2000 * GZ_HIDDEN * 8
    tracemalloc.start()
    try:
        forward_gz(params, x1, keep=True)
        forward_gz(params, x2, keep=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * hidden_bytes, f"peak {peak / hidden_bytes:.2f}x hidden"


def test_grad_check_accepts_true_gradient(params):
    rng = make_rng(5)
    direction = {n: rng.normal(size=params.arrays[n].shape)
                 for n in ("gz_w1", "ga_w2", "c_b2")}

    def quadratic(p):
        value = 0.0
        grads = {}
        for name, d in direction.items():
            arr = p.arrays[name]
            value += float((d * arr * arr).sum())
            grads[name] = 2.0 * d * arr
        return value, grads

    assert grad_check(quadratic, params, n_coords=150, seed=0) < 1e-6


def test_grad_check_flags_wrong_gradient(params):
    def wrong(p):
        arr = p.arrays["gz_w1"]
        return float((arr * arr).sum()), {"gz_w1": 3.0 * arr}

    assert grad_check(wrong, params, n_coords=50, seed=0) > 0.1


def test_checkpoint_round_trip(tmp_path, params):
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for name in LAYER_NAMES:
        assert np.array_equal(loaded.arrays[name], params.arrays[name])
    # byte-identical second save
    path2 = tmp_path / "model2.bin"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_checkpoint_atomic(tmp_path, params):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.arrays["gz_w1"], params.arrays["gz_w1"])
    # no temp files left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
    # a write that raises partway (here: a layer is missing) leaves the
    # previous file intact and no temp file
    before = path.read_bytes()
    partial = model.ModelParams({n: a for n, a in params.arrays.items()
                                 if n != "d_b2"})
    with pytest.raises(KeyError, match="d_b2"):
        save_checkpoint(partial, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]


def test_checkpoint_rejects_corruption(tmp_path, params):
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:100])
    with pytest.raises(FormatError):
        load_checkpoint(trunc)
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "missing.bin")
    non_finite = tmp_path / "non_finite.bin"
    for value in (np.nan, np.inf):
        bad = copy_params(params)
        bad.arrays["c_w2"][1, 0] = value
        save_checkpoint(bad, non_finite)
        with pytest.raises(FormatError, match="layer c_w2 has non-finite"):
            load_checkpoint(non_finite)


def test_checkpoint_every_prefix_and_trailing_bytes(tmp_path, monkeypatch):
    # the format does not depend on the layer widths; tiny ones keep the
    # file at a few hundred bytes, so every cut can be tried
    monkeypatch.setattr(model, "Z_DIM", 3)
    monkeypatch.setattr(model, "GZ_HIDDEN", 4)
    monkeypatch.setattr(model, "HEAD_HIDDEN", 2)
    path = tmp_path / "model.bin"
    params = init_params(2, 2, 1, seed=0)
    save_checkpoint(params, path)
    raw = path.read_bytes()
    assert load_checkpoint(path).arrays.keys() == params.arrays.keys()
    cut = tmp_path / "cut.bin"
    for end in range(len(raw)):
        cut.write_bytes(raw[:end])
        with pytest.raises(FormatError):
            load_checkpoint(cut)
    for end, field in [(10, "checkpoint version"), (14, "layer count"),
                       (16, "rank of layer gz_w1"), (20, "shape of layer gz_w1"),
                       (33, "truncated layer gz_w1")]:
        cut.write_bytes(raw[:end])
        with pytest.raises(FormatError, match=field):
            load_checkpoint(cut)
    cut.write_bytes(raw + b"\0")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load_checkpoint(cut)
    bad_rank = bytearray(raw)
    bad_rank[16] = 1  # gz_w1 stored as a vector
    cut.write_bytes(bytes(bad_rank))
    with pytest.raises(FormatError, match="rank 1"):
        load_checkpoint(cut)
