"""Progressive seen/unseen separation of the unlabeled target domain.

Produces pseudo labels (0..k_s-1 = seen class, k_s..k_s+k-1 = unseen
cluster), per-sample confidences, the split threshold tau and the final
centers (seen rows first). Prototype scoring uses cosine distance;
clustering uses Euclidean distance. All tie-breaks go to the lowest index.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import write_file
from .exceptions import ContractError, DataError
from .numkernel import (ZERO_NORM_EPS, check_finite, class_means, make_rng,
                        sq_dist, sq_norms)

KMEANS_MAX_ITER = 100  # center updates per k-means run, at most
KMEANS_TOL = 1e-6  # stop once no center moves this far


@dataclass
class PseudoState:
    pseudo_label: np.ndarray  # N_t ints in [0, k_s + k)
    confidence: np.ndarray    # N_t reals in (0, 1]
    tau: float
    seen_mask: np.ndarray     # N_t bools, True iff pseudo_label < k_s
    centers: np.ndarray       # (k_s + k) x d, the seen rows first
    used_fallback: bool       # True iff the quantile fallback chose the
                              # unseen candidates (fewer than k were unseen)


def init_prototypes(features, labels, k_s):
    """The (k_s, d) seen prototypes: per-class means of source features."""
    seen, present = class_means(features, labels, k_s)
    if not present.all():
        raise DataError(f"class {np.argmin(present)} has no source samples")
    return seen


def _cosine_dist_matrix(x, protos, xn):
    """Rows of x against rows of protos; near-zero-norm rows fall back to the
    neutral distance 1.0. ``xn`` is ``np.linalg.norm(x, axis=1)``."""
    pn = np.linalg.norm(protos, axis=1)
    safe_x = np.where(xn < ZERO_NORM_EPS, 1.0, xn)
    safe_p = np.where(pn < ZERO_NORM_EPS, 1.0, pn)
    cos = (x @ protos.T) / np.outer(safe_x, safe_p)
    dist = np.clip(1.0 - cos, 0.0, 2.0)
    degenerate = (xn < ZERO_NORM_EPS)[:, None] | (pn < ZERO_NORM_EPS)[None, :]
    return np.where(degenerate, 1.0, dist)


def predict_all(x, protos, x_norms=None):
    """Prototypical prediction for each row of x against the rows of protos.

    Returns (labels, confidences, probs); probs is softmax over negative
    cosine distances, computed with max-subtraction. ``x_norms``, if given,
    is ``np.linalg.norm(x, axis=1)``, computed once by a caller that loops on
    protos.
    """
    x = np.asarray(x, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    if protos.ndim != 2 or protos.shape[0] < 1:
        raise ContractError("predict_all requires at least one prototype")
    if x.shape[1] != protos.shape[1]:
        raise ContractError(f"dimension mismatch: {x.shape[1]} vs {protos.shape[1]}")
    if x_norms is None:
        x_norms = np.linalg.norm(x, axis=1)
    dist = _cosine_dist_matrix(x, protos, x_norms)
    shifted = -(dist - dist.min(axis=1, keepdims=True))
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    labels = np.argmax(probs, axis=1)  # argmax takes the lowest index on ties
    conf = probs[np.arange(x.shape[0]), labels]
    return labels, conf, probs


def split_seen_unseen(confidences):
    """tau = mean confidence; samples at or above tau are seen."""
    confidences = np.asarray(confidences, dtype=np.float64)
    if confidences.size == 0:
        raise ContractError("split_seen_unseen requires a non-empty vector")
    tau = float(confidences.sum() / confidences.size)
    return tau, confidences >= tau


def update_prototypes_ema(seen, target_feats, labels, seen_mask, alpha):
    """New (k_s, d) seen prototypes: each row of ``seen`` blended toward the
    mean of its confident target samples, mu <- (1 - alpha) mu + alpha * mean.
    Classes with no confident samples keep their prototype."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractError("alpha must be in [0, 1]")
    means, present = class_means(target_feats, np.where(seen_mask, labels, -1),
                                 seen.shape[0])
    new_seen = seen.copy()
    new_seen[present] = (1.0 - alpha) * new_seen[present] + alpha * means[present]
    return new_seen


def kmeans_pp_init(points, k, rng):
    """k-means++ seeding: k rows of ``points`` drawn by ``rng``, each after
    the first with probability proportional to its squared distance from the
    nearest center drawn so far. Requires 1 <= k <= n."""
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"kmeans++ init needs k >= 1 and k <= n, got "
                            f"k={k}, n={n}")
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = points[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            centers[i] = points[min(idx, n - 1)]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def kmeans(points, centers):
    """Lloyd iterations with Euclidean distance from the (k, d) ``centers``.

    Each pass takes the squared distances to the centers from ``sq_dist``
    (one points x centers gemm; the point norms are computed once per call),
    clamped at 0. Assignment ties break to the lowest center index; an
    emptied cluster is reseeded to the point farthest from its assigned
    center. Inertia is asserted non-increasing across iterations.

    Returns (centers, assignment, inertia).
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.array(centers, dtype=np.float64)
    n = points.shape[0]
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ContractError("kmeans requires k >= 1 centers in a 2-d array")
    if centers.shape[1] != points.shape[1]:
        raise ContractError(f"centers have width {centers.shape[1]}, "
                            f"points {points.shape[1]}")
    k = centers.shape[0]

    points_sq = sq_norms(points)
    prev_inertia = shift = np.inf
    # the last pass's assignment is returned
    for it in range(KMEANS_MAX_ITER + 1):
        d2 = np.maximum(sq_dist(points, centers, points_sq), 0.0)
        assignment = np.argmin(d2, axis=1)
        closest = d2[np.arange(n), assignment]
        inertia = float(closest.sum())
        assert inertia <= prev_inertia + 1e-9, "kmeans inertia increased"
        prev_inertia = inertia
        if shift < KMEANS_TOL or it == KMEANS_MAX_ITER:
            break
        new_centers, present = class_means(points, assignment, k)
        new_centers[~present] = points[int(np.argmax(closest))]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
    return centers, assignment, inertia


def run_progressive_separation(source_feats, source_labels, k_s, target_feats,
                               cfg) -> PseudoState:
    """Full separation procedure in a given feature space.

    1. source class means as seen prototypes;
    2. ``cfg.separation_rounds`` iterations of predict -> threshold split ->
       EMA update (rate ``cfg.alpha``);
    3. K-means over the unseen candidates gives the ``cfg.k`` unseen
       prototypes (k-means++ seeded by ``cfg.seed``); with fewer than k
       candidates, the quantile fallback takes the least confident samples
       instead, and the state records ``used_fallback``;
    4. K-means over all target samples initialized at the seen prototypes
       stacked over the unseen ones refines the pseudo labels (each cluster
       keeps the identity of its initializing prototype);
    5. confidences recomputed prototypically against the final centers.

    ``cfg`` is the run's ``TrainConfig``. Non-finite features raise
    DataError.
    """
    source_feats = check_finite(source_feats, "source features")
    target_feats = check_finite(target_feats, "target features")
    seen = init_prototypes(source_feats, source_labels, k_s)
    target_norms = np.linalg.norm(target_feats, axis=1)

    labels, conf, _ = predict_all(target_feats, seen, target_norms)
    tau, seen_mask = split_seen_unseen(conf)
    for _ in range(cfg.separation_rounds):
        seen = update_prototypes_ema(seen, target_feats, labels, seen_mask,
                                     cfg.alpha)
        labels, conf, _ = predict_all(target_feats, seen, target_norms)
        tau, seen_mask = split_seen_unseen(conf)

    unseen_idx = np.flatnonzero(~seen_mask)
    used_fallback = bool(unseen_idx.size < cfg.k)
    if used_fallback:
        n_fallback = max(cfg.k, int(np.ceil(target_feats.shape[0] / (k_s + cfg.k))))
        unseen_idx = np.argsort(conf, kind="stable")[:n_fallback]

    candidates = target_feats[unseen_idx]
    eta, _, _ = kmeans(candidates,
                       kmeans_pp_init(candidates, cfg.k, make_rng(cfg.seed)))
    centers, assignment, _ = kmeans(target_feats, np.vstack([seen, eta]))
    _, conf, probs = predict_all(target_feats, centers, target_norms)
    conf = probs[np.arange(target_feats.shape[0]), assignment]
    return PseudoState(pseudo_label=assignment, confidence=conf, tau=tau,
                       seen_mask=assignment < k_s, centers=centers,
                       used_fallback=used_fallback)


def dump_pseudo_state(state: PseudoState, path):
    """Debug dump: sample_id, pseudo_label, confidence, seen_flag (TSV)."""
    rows = ["sample_id\tpseudo_label\tconfidence\tseen_flag\n"]
    for i, (lab, c, s) in enumerate(zip(state.pseudo_label, state.confidence,
                                        state.seen_mask)):
        rows.append(f"{i}\t{int(lab)}\t{float(c)!r}\t{int(s)}\n")
    write_file(path, "".join(rows))
