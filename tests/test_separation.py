import itertools

import numpy as np
import pytest

from srosda.exceptions import ContractError, DataError
from srosda.numkernel import class_means, make_rng, sq_dist, sq_norms
from srosda.separation import (KMEANS_MAX_ITER, KMEANS_TOL, init_prototypes,
                               kmeans, kmeans_pp_init, predict_all,
                               run_progressive_separation, split_seen_unseen,
                               update_prototypes_ema)
from srosda.trainer import TrainConfig


def test_init_prototypes_class_means():
    feats = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 0.0]])
    labels = np.array([0, 0, 1])
    protos = init_prototypes(feats, labels, 2)
    assert np.array_equal(protos, [[1.0, 1.0], [4.0, 0.0]])
    with pytest.raises(DataError):
        init_prototypes(feats, labels, 3)


def test_predict_all_two_prototype_oracle():
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = np.array([[1.0, 0.0]])
    labels, conf, probs = predict_all(x, protos)
    # cosine distances are 0 and 1; softmax over negatives:
    # p0 = e^0/(e^0+e^-1) = 0.7310585786300049
    assert labels[0] == 0
    assert conf[0] == pytest.approx(0.7310585786300049, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_predict_all_tie_breaks_low_index():
    protos = np.array([[1.0, 0.0], [1.0, 0.0]])
    labels, _, probs = predict_all(np.array([[2.0, 0.0]]), protos)
    assert labels[0] == 0
    assert probs[0, 0] == probs[0, 1]


def test_predict_all_scale_invariance():
    rng = make_rng(0)
    protos = rng.normal(size=(4, 6))
    x = rng.normal(size=(10, 6))
    l1, c1, _ = predict_all(x, protos)
    l2, c2, _ = predict_all(5.0 * x, protos)
    assert np.array_equal(l1, l2)
    assert np.allclose(c1, c2, atol=1e-12)


def test_predict_all_zero_norm_is_neutral():
    # a zero row or prototype gets the neutral cosine distance 1.0: no NaN,
    # and a zero row sees every prototype as equally likely
    protos = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    x = np.array([[0.0, 0.0], [3.0, 0.0]])
    labels, conf, probs = predict_all(x, protos)
    assert np.all(np.isfinite(probs)) and np.all(np.isfinite(conf))
    assert np.all(probs[0] == probs[0, 0])
    assert labels[0] == 0
    # row 1: distances 0, 1 (zero prototype), 1
    e = np.exp([0.0, -1.0, -1.0])
    assert np.allclose(probs[1], e / e.sum(), atol=1e-12)
    assert probs[1, 1] == probs[1, 2]


def test_predict_all_contracts():
    with pytest.raises(ContractError):
        predict_all(np.zeros((2, 3)), np.zeros((0, 3)))
    with pytest.raises(ContractError):
        predict_all(np.zeros((2, 3)), np.zeros((2, 4)))


def test_split_seen_unseen_threshold_inclusive():
    tau, mask = split_seen_unseen([0.25, 0.5, 0.75])
    assert tau == 0.5
    assert np.array_equal(mask, [False, True, True])  # >= tau is seen
    with pytest.raises(ContractError):
        split_seen_unseen([])


def test_ema_update_formula():
    protos = np.array([[0.0, 0.0], [10.0, 10.0]])
    feats = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 9.0]])
    labels = np.array([0, 0, 1])
    seen_mask = np.array([True, True, False])
    out = update_prototypes_ema(protos, feats, labels, seen_mask, alpha=0.5)
    # class 0 blends toward mean [3, 0]; class 1 has no confident member
    assert np.allclose(out[0], [1.5, 0.0], atol=1e-12)
    assert np.array_equal(out[1], [10.0, 10.0])
    # original array untouched
    assert np.array_equal(protos[0], [0.0, 0.0])
    with pytest.raises(ContractError):
        update_prototypes_ema(protos, feats, labels, seen_mask, alpha=1.5)


# ---------------------------------------------------------------------------
# k-means

def brute_force_best_partition(points, k):
    """Exhaustive minimum inertia over all assignments (oracle)."""
    n = points.shape[0]
    best = (np.inf, None)
    for assign in itertools.product(range(k), repeat=n):
        assign = np.asarray(assign)
        inertia = 0.0
        for c in range(k):
            members = points[assign == c]
            if members.shape[0]:
                inertia += ((members - members.mean(axis=0)) ** 2).sum()
        if inertia < best[0]:
            best = (inertia, assign)
    return best


def test_kmeans_explicit_init_two_clusters():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    centers, assign, inertia = kmeans(points,
                                      np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert np.array_equal(assign, [0, 0, 1, 1])
    assert np.allclose(centers, [[0.0, 0.5], [10.0, 0.5]], atol=1e-12)
    assert inertia == pytest.approx(1.0, abs=1e-12)


def test_kmeans_matches_exhaustive_oracle():
    rng = make_rng(3)
    for trial in range(20):
        points = rng.normal(size=(rng.integers(4, 8), 2))
        opt_inertia, opt_assign = brute_force_best_partition(points, 2)
        centers = np.stack([points[opt_assign == c].mean(axis=0)
                            for c in range(2)])
        _, _, inertia = kmeans(points, centers)
        assert inertia <= opt_inertia + 1e-9
        assert inertia >= opt_inertia - 1e-9  # optimum is a fixed point


def test_kmeans_empty_cluster_reseeded():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
    # second center so remote that it owns nothing initially
    centers, assign, _ = kmeans(points, np.array([[0.0, 0.0], [-1e6, 0.0]]))
    assert len(set(assign.tolist())) == 2  # both clusters end up used


def test_kmeans_pp_seeded_deterministic():
    points = make_rng(1).normal(size=(30, 3))
    a = kmeans(points, kmeans_pp_init(points, 3, make_rng(5)))
    b = kmeans(points, kmeans_pp_init(points, 3, make_rng(5)))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def broadcast_lloyd(points, centers):
    """Lloyd loop with the squared distances taken from an n x k x d
    broadcast: the oracle for the gemm expansion in ``kmeans``."""
    n, k = points.shape[0], centers.shape[0]
    prev_inertia = shift = np.inf
    for it in range(KMEANS_MAX_ITER + 1):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = np.argmin(d2, axis=1)
        closest = d2[np.arange(n), assignment]
        inertia = float(closest.sum())
        assert inertia <= prev_inertia + 1e-9
        prev_inertia = inertia
        if shift < KMEANS_TOL or it == KMEANS_MAX_ITER:
            break
        new_centers, present = class_means(points, assignment, k)
        new_centers[~present] = points[int(np.argmax(closest))]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
    return centers, assignment, inertia


@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("seed", range(4))
def test_kmeans_matches_broadcast_lloyd_bitwise(k, seed):
    rng = make_rng(100 + seed)
    blobs = rng.normal(size=(k, 6)) * 4.0
    points = blobs[rng.integers(k, size=60)] + rng.normal(size=(60, 6))
    points = np.vstack([points, points[rng.integers(60, size=15)]])  # duplicates
    explicit = points[rng.choice(points.shape[0], k, replace=False)]
    seeded = kmeans_pp_init(points, k, make_rng(seed))
    for start in (explicit, seeded):
        centers, assign, inertia = kmeans(points, start)
        want_centers, want_assign, want_inertia = broadcast_lloyd(points, start)
        assert np.array_equal(assign, want_assign)
        assert np.array_equal(centers, want_centers)
        assert inertia == pytest.approx(want_inertia, rel=1e-12)


def test_kmeans_every_point_a_center_clamps_at_zero():
    points = 100.0 + 10.0 * make_rng(7).normal(size=(20, 7))
    # the unclamped expansion leaves negative self-distances on this cloud
    assert (np.diag(sq_dist(points, points, sq_norms(points))) < 0.0).any()
    centers, assign, inertia = kmeans(points, points)
    assert np.array_equal(assign, np.arange(points.shape[0]))
    assert np.array_equal(centers, points)
    assert 0.0 <= inertia <= 1e-9


def test_kmeans_contracts():
    points = np.zeros((3, 2))
    with pytest.raises(ContractError, match="k >= 1"):
        kmeans(points, np.zeros((0, 2)))  # zero centers
    with pytest.raises(ContractError, match="width 3"):
        kmeans(points, np.zeros((2, 3)))  # width mismatch
    with pytest.raises(ContractError, match="k <= n"):
        kmeans_pp_init(points, 4, make_rng(0))
    with pytest.raises(ContractError, match="k >= 1"):
        kmeans_pp_init(points, 0, make_rng(0))


# ---------------------------------------------------------------------------
# full separation

def two_domain_fixture(seed=0, n=40):
    """3 seen + 2 unseen well-separated clusters, no shift."""
    rng = make_rng(seed)
    protos = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0],
                       [7.0, 7.0, 0.0], [0.0, 7.0, 7.0]])
    t_labels = np.repeat(np.arange(5), n)
    t_feats = protos[t_labels] + rng.normal(size=(5 * n, 3)) * 0.3
    s_labels = np.repeat(np.arange(3), n)
    s_feats = protos[s_labels] + rng.normal(size=(3 * n, 3)) * 0.3
    return s_feats, s_labels, t_feats, t_labels


def test_progressive_separation_recovers_structure():
    s_feats, s_labels, t_feats, t_labels = two_domain_fixture()
    cfg = TrainConfig(k=2, separation_rounds=5, seed=0)
    state = run_progressive_separation(s_feats, s_labels, 3, t_feats, cfg)
    assert not state.used_fallback
    seen_true = t_labels < 3
    # seen samples keep their class
    assert np.mean(state.pseudo_label[seen_true] == t_labels[seen_true]) > 0.95
    # unseen samples flagged unseen
    assert np.mean(~state.seen_mask[~seen_true]) > 0.95
    assert np.all(state.seen_mask == (state.pseudo_label < 3))
    assert state.confidence.min() > 0.0 and state.confidence.max() <= 1.0
    assert 0.0 < state.tau < 1.0
    assert state.centers.shape == (5, 3)
    # each unseen cluster is pure (majority vote)
    for c in (3, 4):
        members = t_labels[state.pseudo_label == c]
        assert members.size > 0
        counts = np.bincount(members, minlength=5)
        assert counts.max() / members.size > 0.95


def test_progressive_separation_deterministic():
    s_feats, s_labels, t_feats, _ = two_domain_fixture()
    cfg = TrainConfig(k=2, separation_rounds=3, seed=7)
    a = run_progressive_separation(s_feats, s_labels, 3, t_feats, cfg)
    b = run_progressive_separation(s_feats, s_labels, 3, t_feats, cfg)
    assert np.array_equal(a.pseudo_label, b.pseudo_label)
    assert np.array_equal(a.confidence, b.confidence)
    assert a.tau == b.tau


def test_progressive_separation_k_zero_rejected():
    # validate() requires k >= 1; an unvalidated k = 0 stops in kmeans
    s_feats, s_labels, t_feats, _ = two_domain_fixture()
    cfg = TrainConfig(k=0, separation_rounds=0, seed=0)
    with pytest.raises(ContractError, match="k >= 1"):
        run_progressive_separation(s_feats, s_labels, 3, t_feats, cfg)


def test_progressive_separation_no_candidates():
    # all target samples identical to one source class: everything confident
    s_feats = np.array([[5.0, 0.0], [5.2, 0.0], [0.0, 5.0], [0.0, 5.1]])
    s_labels = np.array([0, 0, 1, 1])
    t_feats = np.tile([5.1, 0.0], (8, 1))
    cfg = TrainConfig(k=1, separation_rounds=1, seed=0)
    state = run_progressive_separation(s_feats, s_labels, 2, t_feats, cfg)
    assert state.used_fallback
    # fallback completes and yields all k_s + k centers even on degenerate
    # data (identical points may still all refine back to one cluster)
    assert state.centers.shape == (3, 2)
    assert state.pseudo_label.shape == (8,)


@pytest.mark.parametrize("domain", ["source", "target"])
def test_progressive_separation_rejects_non_finite(domain):
    s_feats, s_labels, t_feats, _ = two_domain_fixture()
    feats = {"source": s_feats.copy(), "target": t_feats.copy()}
    feats[domain][4, 1] = np.inf
    with pytest.raises(DataError, match=f"{domain} features"):
        run_progressive_separation(feats["source"], s_labels, 3,
                                   feats["target"],
                                   TrainConfig(k=2))
