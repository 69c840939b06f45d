import tracemalloc

import numpy as np
import pytest

from conftest import propagation_oracle
from srosda import autodiff as ad
from srosda.exceptions import ContractError, SingularMatrixError
from srosda.dataio import default_synth_spec, synth_generate
from srosda.model import init_params
from srosda.numkernel import class_means, make_rng, single_blas_thread
from srosda.objective import (BCE_EPS, TrainBatch, ZPrototypes,
                              batch_objective, build_adjacency_t,
                              loss_alignment_one_t,
                              loss_attribute_t, loss_classifier_t,
                              objective_grads, propagate_attributes_t,
                              propagation_matrix_t, total_objective)
from srosda.trainer import TrainConfig, refresh_pseudo

D_X, D_A, K_S, K = 6, 4, 3, 2


def test_compute_z_prototypes_means_and_presence():
    z = np.array([[1.0, 1.0], [3.0, 3.0], [5.0, 5.0]])
    rz = ZPrototypes(*class_means(z, np.array([0, 0, 2]), 4))
    assert np.array_equal(rz.means[0], [2.0, 2.0])
    assert np.array_equal(rz.means[2], [5.0, 5.0])
    assert np.array_equal(rz.present, [True, False, True, False])


# ---------------------------------------------------------------------------
# adjacency + propagation

def adjacency(z):
    adj, sigma2 = build_adjacency_t(ad.Tensor(z))
    return adj.value, float(sigma2.value)


def propagation(adj, beta):
    return propagation_matrix_t(ad.Tensor(adj), beta).value


def test_adjacency_hand_computed():
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    adj, sigma2 = adjacency(z)
    # squared distances: d01=1, d02=4, d12=5; off-diagonal population
    # variance of [1,4,5,1,4,5] = mean 10/3, var 26/9
    assert sigma2 == pytest.approx(26.0 / 9.0, abs=1e-12)
    assert adj[0, 1] == pytest.approx(np.exp(-1.0 / sigma2), abs=1e-12)
    assert adj[0, 2] == pytest.approx(np.exp(-4.0 / sigma2), abs=1e-12)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0.0)


def test_adjacency_tape_matches_plain():
    rng = make_rng(0)
    for _ in range(20):
        z = rng.normal(size=(int(rng.integers(2, 33)), 3))
        adj, sigma2 = adjacency(z)
        adj_o, sigma2_o, _ = propagation_oracle(z, 0.2)
        assert np.allclose(adj, adj_o, rtol=0.0, atol=1e-12)
        assert sigma2 == pytest.approx(sigma2_o, rel=1e-12)
    with pytest.raises(ContractError):
        build_adjacency_t(ad.Tensor(z[:1]))


def test_propagation_beta_zero_is_identity():
    z = make_rng(1).normal(size=(5, 3))
    adj, _ = adjacency(z)
    assert np.array_equal(propagation(adj, 0.0), np.eye(5))


def test_propagation_two_by_two_analytic():
    # two nodes: A = [[0,a],[a,0]], degrees a, normalized L = [[0,1],[1,0]],
    # W = (I - beta L)^-1 = [[1, beta], [beta, 1]] / (1 - beta^2)
    beta = 0.2
    adj = np.array([[0.0, 0.7], [0.7, 0.0]])
    w = propagation(adj, beta)
    expected = np.array([[1.0, beta], [beta, 1.0]]) / (1.0 - beta ** 2)
    assert np.allclose(w, expected, atol=1e-12)


def test_propagation_inverse_identity_random():
    rng = make_rng(2)
    beta = 0.2
    for _ in range(20):
        z = rng.normal(size=(rng.integers(2, 9), 3))
        adj, _ = adjacency(z)
        deg = np.maximum(adj.sum(axis=1), 1e-12)
        dinv = 1.0 / np.sqrt(deg)
        lap = adj * np.outer(dinv, dinv)
        w = propagation(adj, beta)
        resid = np.abs(w @ (np.eye(adj.shape[0]) - beta * lap) - np.eye(adj.shape[0]))
        assert resid.max() <= 1e-8


def test_propagation_tape_matches_plain_and_grad_flows():
    rng = make_rng(3)
    for _ in range(20):
        z = rng.normal(size=(int(rng.integers(2, 33)), 3))
        adj, _ = build_adjacency_t(ad.Tensor(z))
        _, _, w_o = propagation_oracle(z, 0.2)
        assert np.allclose(propagation_matrix_t(adj, 0.2).value, w_o,
                           rtol=0.0, atol=1e-12)
    zt = ad.Tensor(z)
    adj, _ = build_adjacency_t(zt)
    ad.tsum(ad.square(propagation_matrix_t(adj, 0.2))).backward()
    assert zt.grad is not None and np.any(zt.grad != 0.0)


def test_propagation_singular_raises():
    # beta=1 on a connected pair makes I - L singular
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        propagation(adj, 1.0)


def test_propagate_attributes_clipped():
    w = np.array([[0.5, 0.5], [0.0, 1.0]])
    raw = np.array([[0.0, 1.0], [0.5, 0.5]])
    out = propagate_attributes_t(ad.Tensor(np.eye(2)), ad.Tensor(raw)).value
    assert out.min() == BCE_EPS
    assert out.max() == 1.0 - BCE_EPS
    out = propagate_attributes_t(ad.Tensor(w), ad.Tensor(raw)).value
    assert np.array_equal(out, np.clip(w @ raw, BCE_EPS, 1.0 - BCE_EPS))


# ---------------------------------------------------------------------------
# loss terms

def test_alignment_loss_hand_value():
    # one sample at its own prototype, other prototype at distance 2:
    # pull = 0, push = 2 / (2 - 1) -> loss = -2
    rz = ZPrototypes(means=np.array([[0.0, 0.0], [2.0, 0.0]]),
                     present=np.array([True, True]))
    z = ad.Tensor(np.array([[0.0, 0.0]]))
    loss = loss_alignment_one_t(z, np.array([0]), rz)
    assert loss.item() == pytest.approx(-2.0, abs=1e-9)


def test_alignment_loss_push_normalization():
    # 3 present prototypes: push sum divided by 2
    rz = ZPrototypes(means=np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
                     present=np.array([True, True, True]))
    z = ad.Tensor(np.array([[0.0, 0.0]]))
    loss = loss_alignment_one_t(z, np.array([0]), rz)
    assert loss.item() == pytest.approx(-(3.0 + 4.0) / 2.0, abs=1e-9)


def test_alignment_loss_absent_prototypes_warn_zero():
    rz = ZPrototypes(means=np.zeros((3, 2)),
                     present=np.array([True, False, False]))
    with pytest.warns(UserWarning):
        loss = loss_alignment_one_t(ad.Tensor(np.ones((2, 2))),
                                    np.array([0, 0]), rz)
    assert loss.item() == 0.0


def test_attribute_bce_hand_value():
    # -mean(t log p + (1-t) log(1-p)) over 4 entries with p=0.8, t=[1,0,1,1]
    p = ad.Tensor(np.full((1, 4), 0.8))
    t = np.array([[1.0, 0.0, 1.0, 1.0]])
    expected = -(3.0 * np.log(0.8) + np.log(0.2)) / 4.0
    assert loss_attribute_t(p, t).item() == pytest.approx(expected, abs=1e-12)
    assert loss_attribute_t(p, np.zeros((0, 4))).item() == 0.0


def test_classifier_loss_uniform_logits():
    logits = ad.Tensor(np.zeros((5, 4)))
    loss = loss_classifier_t(logits, np.array([0, 1, 2, 3, 0]))
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)
    assert loss_classifier_t(logits, np.zeros(0, dtype=int)).item() == 0.0


def test_total_objective_weighting():
    total, report = total_objective(1.0, 2.0, 3.0, 4.0, 5.0,
                                    lambda1=0.1, lambda2=0.01)
    assert total == pytest.approx(1.0 + 2.0 + 0.1 * 7.0 + 0.01 * 5.0, abs=1e-12)
    assert report.l_c == 1.0 and report.l_a == 5.0
    assert report.total == pytest.approx(total)


# ---------------------------------------------------------------------------
# batch objective

def make_batch(seed=0, ns=6, nt=8):
    rng = make_rng(seed)
    table = rng.integers(0, 2, size=(K_S + K, D_A)).astype(np.float64)
    ys = rng.integers(0, K_S, size=ns)
    pseudo = rng.integers(0, K_S + K, size=nt)
    seen_mask = pseudo < K_S
    pseudo_attrs = np.zeros((nt, D_A))
    pseudo_attrs[seen_mask] = table[pseudo[seen_mask]]
    return TrainBatch(xs=rng.normal(size=(ns, D_X)), ys=ys,
                      src_attrs=table[ys],
                      xt=rng.normal(size=(nt, D_X)), t_pseudo=pseudo,
                      t_seen_mask=seen_mask, t_pseudo_attrs=pseudo_attrs)


def make_rz(params, batch):
    from srosda.model import forward_gz
    z = forward_gz(params, batch.xt)
    return ZPrototypes(*class_means(z, batch.t_pseudo, K_S + K))


def test_batch_objective_report_consistent():
    params = init_params(D_X, D_A, K_S, seed=0)
    batch = make_batch()
    cfg = TrainConfig(k=K)
    total, report, _, terms = batch_objective(params, batch,
                                              make_rz(params, batch), cfg)
    recomputed = (report.l_c + report.l_d
                  + cfg.lambda1 * (report.l_r_source + report.l_r_target)
                  + cfg.lambda2 * report.l_a)
    assert report.total == pytest.approx(recomputed, abs=1e-12)
    assert total.item() == pytest.approx(report.total, abs=1e-12)
    assert report.l_c > 0.0 and report.l_d > 0.0 and report.l_a > 0.0


def part(batch, s_rows, t_rows):
    """``batch`` cut to the given source and target rows."""
    return TrainBatch(xs=batch.xs[s_rows], ys=batch.ys[s_rows],
                      src_attrs=batch.src_attrs[s_rows], xt=batch.xt[t_rows],
                      t_pseudo=batch.t_pseudo[t_rows],
                      t_seen_mask=batch.t_seen_mask[t_rows],
                      t_pseudo_attrs=batch.t_pseudo_attrs[t_rows])


# composition -> (source rows, target rows) of a full batch, and whether the
# part has source, seen target and unseen target rows
ALL, NONE = slice(None), slice(0)
COMPOSITIONS = {
    "full": (lambda b: (ALL, ALL), (True, True, True)),
    "source-only": (lambda b: (ALL, NONE), (True, False, False)),
    "target-only": (lambda b: (NONE, ALL), (False, True, True)),
    "all-seen-target": (lambda b: (ALL, b.t_seen_mask), (True, True, False)),
    "all-unseen-target": (lambda b: (ALL, ~b.t_seen_mask), (True, False, True)),
}


@pytest.mark.parametrize("composition", list(COMPOSITIONS))
def test_batch_objective_joint_feature_rows(monkeypatch, composition):
    # C sees two joint features per source and per seen target sample and one
    # per unseen target sample; D sees the target ones only, the same rows as
    # C's from 2 * ns on, and none in a batch without target rows
    from srosda import objective
    inputs = {}

    def capturing(name, forward):
        def wrapped(pt, f):
            inputs[name] = f.value.copy()
            return forward(pt, f)
        return wrapped

    monkeypatch.setattr(objective, "tape_forward_c",
                        capturing("c", objective.tape_forward_c))
    monkeypatch.setattr(objective, "tape_forward_d_logits",
                        capturing("d", objective.tape_forward_d_logits))
    params = init_params(D_X, D_A, K_S, seed=0)
    full = make_batch()
    rz = make_rz(params, full)
    rows, has_parts = COMPOSITIONS[composition]
    batch = part(full, *rows(full))
    ns = batch.xs.shape[0]
    n_seen = int(batch.t_seen_mask.sum())
    n_unseen = batch.xt.shape[0] - n_seen
    assert (ns > 0, n_seen > 0, n_unseen > 0) == has_parts
    for use_fusion in (True, False):
        inputs.clear()
        batch_objective(params, batch, rz,
                        TrainConfig(k=K, use_fusion=use_fusion))
        c, d = inputs["c"], inputs["d"]
        assert c.shape[0] == 2 * ns + 2 * n_seen + n_unseen
        assert d.shape[0] == 2 * n_seen + n_unseen
        assert c[2 * ns:].tobytes() == d.tobytes()
        # the attribute half is exactly zero without fusion, and only then
        zero_attrs = [not f[:, -D_A:].any() for f in (c, d) if f.shape[0]]
        assert zero_attrs == [not use_fusion] * len(zero_attrs)
        if use_fusion:
            seen_rows = c[2 * ns:2 * ns + n_seen, -D_A:]
            assert np.array_equal(c[:ns, -D_A:], batch.src_attrs)
            assert np.array_equal(seen_rows,
                                  batch.t_pseudo_attrs[batch.t_seen_mask])


def test_batch_objective_toggles():
    params = init_params(D_X, D_A, K_S, seed=0)
    batch = make_batch()
    rz = make_rz(params, batch)
    _, off_ld, _, _ = batch_objective(params, batch, rz,
                                   TrainConfig(k=K, use_ld=False))
    assert off_ld.l_d == 0.0
    _, off_lr, _, _ = batch_objective(params, batch, rz,
                                   TrainConfig(k=K, use_lr=False))
    assert off_lr.l_r_source == 0.0 and off_lr.l_r_target == 0.0
    _, on, _, _ = batch_objective(params, batch, rz, TrainConfig(k=K))
    _, off_prop, _, _ = batch_objective(params, batch, rz,
                                     TrainConfig(k=K, use_prop=False))
    assert off_prop.l_a != pytest.approx(on.l_a)  # propagation changes a-hat
    _, off_fus, _, _ = batch_objective(params, batch, rz,
                                    TrainConfig(k=K, use_fusion=False))
    assert off_fus.l_c != pytest.approx(on.l_c)  # zeroed attribute half


def test_batch_objective_single_domain_batches():
    params = init_params(D_X, D_A, K_S, seed=0)
    full = make_batch()
    rz = make_rz(params, full)
    cfg = TrainConfig(k=K)
    _, report, _, _ = batch_objective(params, part(full, ALL, NONE), rz, cfg)
    assert report.l_d == 0.0 and report.l_r_target == 0.0 and report.l_c > 0.0
    _, report, _, _ = batch_objective(params, part(full, NONE, ALL), rz, cfg)
    assert report.l_r_source == 0.0 and report.l_c > 0.0
    # target-only with every target row seen, then every one unseen: only
    # unseen rows leave no attribute targets (l_r may take either sign)
    seen_only = part(full, NONE, full.t_seen_mask)
    _, report, _, _ = batch_objective(params, seen_only, rz, cfg)
    assert report.l_r_source == 0.0 and report.l_r_target != 0.0
    assert min(report.l_c, report.l_d, report.l_a) > 0.0
    unseen_only = part(full, NONE, ~full.t_seen_mask)
    _, report, _, _ = batch_objective(params, unseen_only, rz, cfg)
    assert report.l_r_source == 0.0 and report.l_a == 0.0
    assert min(report.l_c, report.l_d) > 0.0 and report.l_r_target != 0.0
    with pytest.raises(ContractError):
        batch_objective(params, part(full, NONE, NONE), rz, cfg)


def test_objective_grads_finite_and_nonzero():
    params = init_params(D_X, D_A, K_S, seed=0)
    batch = make_batch()
    value, report, grads = objective_grads(params, batch, make_rz(params, batch),
                                           TrainConfig(k=K))
    assert np.isfinite(value)
    for name, g in grads.items():
        assert g.shape == params.arrays[name].shape
        assert np.all(np.isfinite(g))
    assert any(np.any(g != 0.0) for g in grads.values())


def test_objective_grads_deterministic():
    params = init_params(D_X, D_A, K_S, seed=0)
    batch = make_batch()
    rz = make_rz(params, batch)
    v1, _, g1 = objective_grads(params, batch, rz, TrainConfig(k=K))
    v2, _, g2 = objective_grads(params, batch, rz, TrainConfig(k=K))
    assert v1 == v2
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_wide_batch_backward_frees_the_tape():
    # the default spec at batch 512: the forward builds about 25 dense
    # 512 x 512 nodes, but the tape keeps only the arrays their backwards
    # read (about 33 MiB). Backward consumes it, so each node's grad and
    # closure go once its backward has run: the traced peak stays near the
    # memory held at backward's start, and afterwards only the leaf
    # gradients are held
    source, target = synth_generate(default_synth_spec())
    cfg = TrainConfig(k=3, batch_size=512)
    params = init_params(source.features.shape[1], source.d_a, source.k_s,
                         seed=cfg.seed)
    pseudo, rz, pseudo_attrs = refresh_pseudo(params, source, target.features,
                                              cfg, space="x", keep=False)
    s, t = np.arange(256), np.arange(256)
    batch = TrainBatch(xs=source.features[s], ys=source.labels[s],
                       src_attrs=source.sample_attributes()[s],
                       xt=target.features[t], t_pseudo=pseudo.pseudo_label[t],
                       t_seen_mask=pseudo.seen_mask[t],
                       t_pseudo_attrs=pseudo_attrs[t])
    mib = 2 ** 20
    tracemalloc.start()
    try:
        with single_blas_thread():
            total, _, pt, _ = batch_objective(params, batch, rz, cfg)
            at_start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            total.backward()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    leaf_grads = sum(p.grad.nbytes for p in pt.values() if p.grad is not None)
    assert at_start <= 40 * mib, \
        f"the batch-512 tape holds {at_start / mib:.1f} MiB at backward's start"
    assert peak - at_start <= 16 * mib, \
        f"backward peaks {(peak - at_start) / mib:.1f} MiB over its start"
    assert held <= leaf_grads + mib, \
        f"{held / mib:.1f} MiB held after backward, leaf grads " \
        f"{leaf_grads / mib:.1f} MiB"
