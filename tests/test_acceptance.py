"""Acceptance suite: eight end-to-end checks of the pipeline.

Each test records one ``criterion N: PASS/FAIL`` line, replayed in the
terminal summary (and printed immediately under ``-s``), then asserts.
Thresholds are calibrated once against the frozen default synthetic spec and
pinned here.
"""

import itertools
import sys
import time

import numpy as np
import pytest

import conftest
from srosda import autodiff as ad
from srosda.dataio import SynthSpec, default_synth_spec, synth_generate
from srosda.evaluation import compute_report, load_report, save_report
from conftest import grad_check
from srosda.model import (ModelParams, init_params, load_checkpoint,
                          save_checkpoint)
from srosda.numkernel import class_means, make_rng, single_blas_thread
from srosda.objective import (TrainBatch, ZPrototypes, batch_objective,
                              build_adjacency_t, objective_grads,
                              propagation_matrix_t)
from srosda.separation import (kmeans, kmeans_pp_init,
                               run_progressive_separation)
from srosda.trainer import TrainConfig, train
from srosda import dataio

# frozen thresholds (pinned after pilot calibration)
GRAD_TOL = 1e-4
GRAD_EPS = 1e-5
PROP_RESID_TOL = 1e-8
ANALYTIC_TOL = 1e-12
METRIC_TOL = 1e-12
KMEANS_TOL = 1e-9
SEEN_ACC_MIN = 0.90
PURITY_MIN = 0.80
OS_STAR_MIN = 0.85
OS_DIAMOND_MIN = 0.70
H_MIN = 0.70
DETERMINISM_TOL = 1e-10

K_S, K = 6, 3
PILOT_SEED = 7


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_verdicts.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of every loss term and the total

def _grad_check_batch():
    spec = SynthSpec(k_s=4, k=2, d_x=32, d_a=12, n_source_per_class=2,
                     n_target_per_class=2, seed=0)
    src, tgt = synth_generate(spec)
    rng = make_rng(1)
    s_idx = rng.permutation(src.features.shape[0])[:8]
    t_idx = rng.permutation(tgt.features.shape[0])[:8]
    # two members per pseudo class: a paired class keeps its z-prototype off
    # every sample, so alignment distances stay away from the |.| kink at 0
    pseudo = rng.permutation(np.repeat([0, 1, 4, 5], 2))
    seen_mask = pseudo < 4
    pseudo_attrs = np.zeros((8, 12))
    pseudo_attrs[seen_mask] = src.attr_table_seen[pseudo[seen_mask]]
    batch = TrainBatch(xs=src.features[s_idx], ys=src.labels[s_idx],
                       src_attrs=src.sample_attributes()[s_idx],
                       xt=tgt.features[t_idx], t_pseudo=pseudo,
                       t_seen_mask=seen_mask, t_pseudo_attrs=pseudo_attrs)
    params = init_params(32, 12, 4, seed=2)
    from srosda.model import forward_gz
    rz = ZPrototypes(*class_means(forward_gz(params, batch.xt), pseudo, 6))
    return params, batch, rz


def test_criterion_1_gradients():
    start = time.time()
    params, batch, rz = _grad_check_batch()
    cfg = TrainConfig(k=2)

    def term_evaluator(term):
        def ev(p):
            full = ModelParams({**params.arrays, **p.arrays})
            _, _, pt, terms = batch_objective(full, batch, rz, cfg)
            node = terms[term]
            node.backward()
            grads = {n: (t.grad if t.grad is not None
                         else np.zeros_like(t.value))
                     for n, t in pt.items()}
            return node.item(), grads
        return ev

    def total_evaluator(p):
        v, _, g = objective_grads(p, batch, rz, cfg)
        return v, g

    # probe each term only over the layers it depends on; finite differences
    # cannot resolve an exactly-zero cross-term derivative
    nets = {"gz": ("gz_w1", "gz_b1", "gz_w2", "gz_b2"),
            "ga": ("ga_w1", "ga_b1", "ga_w2", "ga_b2"),
            "c": ("c_w1", "c_b1", "c_w2", "c_b2"),
            "d": ("d_w1", "d_b1", "d_w2", "d_b2")}
    depends = {"l_c": nets["gz"] + nets["ga"] + nets["c"],
               "l_d": nets["gz"] + nets["ga"] + nets["d"],
               "l_r": nets["gz"],
               "l_a": nets["gz"] + nets["ga"]}
    errs = {}
    ok = True
    # the training step runs BLAS on one thread; check that same computation
    with single_blas_thread():
        for term, layers in depends.items():
            probe = ModelParams({n: params.arrays[n] for n in layers})
            errs[term] = grad_check(term_evaluator(term), probe, eps=GRAD_EPS,
                                    n_coords=120, seed=5)
            ok = ok and errs[term] <= GRAD_TOL
        errs["total"] = grad_check(total_evaluator, params, eps=GRAD_EPS,
                                   n_coords=200, seed=5)
    ok = ok and errs["total"] <= GRAD_TOL
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    detail = ("max rel err " +
              ", ".join(f"{k}={v:.2e}" for k, v in errs.items()) +
              f" (tol {GRAD_TOL:g}, {elapsed:.1f}s)")
    verdict(1, ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: propagation algebra, on the tape functions training runs

def test_criterion_2_propagation_algebra():
    start = time.time()
    rng = make_rng(0)
    beta = 0.2
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        z = rng.normal(size=(n, 3))
        adj_t, _ = build_adjacency_t(ad.Tensor(z))
        # beta = 0 gives the identity bitwise
        ok = ok and np.array_equal(propagation_matrix_t(adj_t, 0.0).value,
                                   np.eye(n))
        adj = adj_t.value
        deg = np.maximum(adj.sum(axis=1), 1e-12)
        dinv = 1.0 / np.sqrt(deg)
        lap = adj * np.outer(dinv, dinv)
        w = propagation_matrix_t(adj_t, beta).value
        resid = np.abs(w @ (np.eye(n) - beta * lap) - np.eye(n)).max()
        worst = max(worst, resid)
    ok = ok and worst <= PROP_RESID_TOL
    # two-node analytic case
    adj2 = np.array([[0.0, 0.35], [0.35, 0.0]])
    w2 = propagation_matrix_t(ad.Tensor(adj2), beta).value
    analytic = np.array([[1.0, beta], [beta, 1.0]]) / (1.0 - beta ** 2)
    analytic_err = np.abs(w2 - analytic).max()
    ok = ok and analytic_err <= ANALYTIC_TOL
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    verdict(2, ok, f"max residual {worst:.2e} (tol {PROP_RESID_TOL:g}), "
                   f"2x2 err {analytic_err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: metric identities on randomized reports

def test_criterion_3_metric_identities():
    start = time.time()
    rng = make_rng(3)
    spec = SynthSpec(k_s=3, k=2, d_x=6, d_a=8, n_source_per_class=2,
                     n_target_per_class=2, seed=0)
    src, tgt0 = synth_generate(spec)
    params = init_params(6, 8, 3, seed=0)
    table = tgt0.eval_data.attr_table_full
    ok = True
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 12))
        feats = rng.normal(size=(n, 6)) * 3.0
        labels = rng.integers(0, 5, size=n)
        tgt = dataio.TargetDataset(
            features=feats,
            eval_data=dataio.TargetEval(labels=labels, attr_table_full=table))
        rep = compute_report(params, tgt, tau=0.5, epochs=1, seed=0)
        os_err = abs(rep.os - (3 * rep.os_star + rep.os_diamond) / 4.0)
        if rep.s + rep.u > 0:
            h_err = abs(rep.h - 2.0 * rep.s * rep.u / (rep.s + rep.u))
        else:
            h_err = abs(rep.h)
        worst = max(worst, os_err, h_err)
        ok = ok and rep.h <= (rep.s + rep.u) / 2.0 + METRIC_TOL
    ok = ok and worst <= METRIC_TOL
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    verdict(3, ok, f"1000 reports, worst identity err {worst:.2e} "
                   f"(tol {METRIC_TOL:g}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: k-means against the exhaustive-partition oracle

def _exhaustive_best(points, k):
    best_inertia, best_assign = np.inf, None
    for assign in itertools.product(range(k), repeat=points.shape[0]):
        assign = np.asarray(assign)
        inertia = 0.0
        for c in range(k):
            members = points[assign == c]
            if members.shape[0]:
                inertia += ((members - members.mean(axis=0)) ** 2).sum()
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign
    return best_inertia, best_assign


def test_criterion_4_kmeans_oracle():
    start = time.time()
    rng = make_rng(4)
    ok = True
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        points = rng.normal(size=(n, 2))
        opt_inertia, opt_assign = _exhaustive_best(points, 2)
        seeds = kmeans_pp_init(points, 2, make_rng(int(rng.integers(1 << 30))))
        _, _, lloyd = kmeans(points, seeds)
        ok = ok and lloyd >= opt_inertia - KMEANS_TOL
        if len(set(opt_assign.tolist())) == 2:
            centers = np.stack([points[opt_assign == c].mean(axis=0)
                                for c in range(2)])
            _, _, from_opt = kmeans(points, centers)
            worst_gap = max(worst_gap, abs(from_opt - opt_inertia))
            ok = ok and abs(from_opt - opt_inertia) <= KMEANS_TOL
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    verdict(4, ok, f"200 instances, worst optimal-start gap {worst_gap:.2e} "
                   f"(tol {KMEANS_TOL:g}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5-7 share the frozen default synthetic problem

@pytest.fixture(scope="module")
def pilot_data():
    return synth_generate(default_synth_spec(seed=PILOT_SEED))


_run_cache = {}


def _train_and_report(pilot_data, **overrides):
    key = tuple(sorted(overrides.items()))
    if key not in _run_cache:
        src, tgt = pilot_data
        cfg = TrainConfig(k=K, epochs=100, seed=PILOT_SEED, **overrides)
        params, history, pseudo = train(cfg, src, tgt.features)
        _run_cache[key] = compute_report(params, tgt, tau=pseudo.tau,
                                         epochs=cfg.epochs, seed=cfg.seed,
                                         use_fusion=cfg.use_fusion)
    return _run_cache[key]


def test_criterion_5_separation_quality(pilot_data):
    start = time.time()
    src, tgt = pilot_data
    cfg = TrainConfig(k=K, alpha=0.001, separation_rounds=5, seed=PILOT_SEED)
    state = run_progressive_separation(src.features, src.labels, K_S,
                                       tgt.features, cfg)
    labels = tgt.eval_data.labels
    seen_true = labels < K_S
    seen_acc = float(np.mean(state.pseudo_label[seen_true]
                             == labels[seen_true]))
    majority = 0
    total = 0
    for c in range(K_S, K_S + K):
        members = labels[state.pseudo_label == c]
        if members.size:
            majority += int(np.bincount(members).max())
            total += int(members.size)
    purity = majority / total if total else 0.0
    elapsed = time.time() - start
    ok = (not state.used_fallback and seen_acc >= SEEN_ACC_MIN
          and purity >= PURITY_MIN and elapsed < 30.0)
    verdict(5, ok, f"seen pseudo-label acc {seen_acc:.3f} (min {SEEN_ACC_MIN}),"
                   f" unseen purity {purity:.3f} (min {PURITY_MIN}), "
                   f"fallback {'fired' if state.used_fallback else 'unused'}, "
                   f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_end_to_end_training(pilot_data):
    start = time.time()
    full = _train_and_report(pilot_data)
    ablations = {}
    for toggle in ("use_lr", "use_ld", "use_prop", "use_fusion"):
        ablations[toggle] = _train_and_report(pilot_data, **{toggle: False})
    elapsed = time.time() - start
    ok = (full.os_star >= OS_STAR_MIN and full.os_diamond >= OS_DIAMOND_MIN
          and full.h >= H_MIN)
    drops = {}
    for toggle, rep in ablations.items():
        drops[toggle] = rep.os < full.os - 1e-12 or rep.h < full.h - 1e-12
        ok = ok and drops[toggle]
    ok = ok and elapsed < 600.0
    detail = (f"OS*={full.os_star:.3f} (min {OS_STAR_MIN}), "
              f"OS^={full.os_diamond:.3f} (min {OS_DIAMOND_MIN}), "
              f"H={full.h:.3f} (min {H_MIN}); ablation drops " +
              ", ".join(f"{k}={'yes' if v else 'NO'}"
                        for k, v in drops.items()) +
              f"; {elapsed:.0f}s")
    verdict(6, ok, detail)


@pytest.mark.slow
def test_criterion_7_determinism(pilot_data):
    first = _train_and_report(pilot_data)
    src, tgt = pilot_data
    cfg = TrainConfig(k=K, epochs=100, seed=PILOT_SEED)
    params, _, pseudo = train(cfg, src, tgt.features)
    second = compute_report(params, tgt, tau=pseudo.tau, epochs=cfg.epochs,
                            seed=cfg.seed)
    scalars = ("os", "os_star", "os_diamond", "s", "u", "h", "tau")
    worst = max(abs(getattr(first, f) - getattr(second, f)) for f in scalars)
    ok = worst <= DETERMINISM_TOL
    ok = ok and np.array_equal(first.confusion, second.confusion)
    pr_a = np.asarray(first.attr_pr)
    pr_b = np.asarray(second.attr_pr)
    ok = ok and pr_a.shape == pr_b.shape
    if ok and pr_a.size:
        worst = max(worst, float(np.abs(pr_a - pr_b).max()))
        ok = worst <= DETERMINISM_TOL
    verdict(7, ok, f"two identical runs, max report difference {worst:.2e} "
                   f"(tol {DETERMINISM_TOL:g})")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical format round trips

def test_criterion_8_format_round_trips(tmp_path):
    spec = SynthSpec(k_s=3, k=2, d_x=8, d_a=8, n_source_per_class=4,
                     n_target_per_class=4, seed=8)
    src, tgt = synth_generate(spec)
    results = {}

    p1, p2 = tmp_path / "a.sros", tmp_path / "b.sros"
    conftest.save_features(src.features, p1)
    conftest.save_features(dataio.load_features(p1), p2)
    results["features"] = p1.read_bytes() == p2.read_bytes()

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dataio.save_attribute_table(tgt.eval_data.attr_table_full, p1)
    dataio.save_attribute_table(dataio.load_attribute_table(p1), p2)
    results["attributes"] = p1.read_bytes() == p2.read_bytes()

    params = init_params(8, 8, 3, seed=0)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(params, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    results["checkpoint"] = p1.read_bytes() == p2.read_bytes()

    report = compute_report(params, tgt, tau=0.5, epochs=1, seed=0)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_report(report, p1)
    save_report(load_report(p1), p2)
    results["report"] = p1.read_bytes() == p2.read_bytes()

    ok = all(results.values())
    verdict(8, ok, "save->load->save byte-identical: " +
            ", ".join(f"{k}={'yes' if v else 'NO'}"
                      for k, v in results.items()))
