"""Loss terms of the training objective, evaluated on mixed batches.

total = l_c + l_d + lambda1 * (l_r_source + l_r_target) + lambda2 * l_a

All terms are built on the autodiff tape so gradients flow end to end,
including through the adjacency construction and the propagation-matrix
inverse.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .exceptions import ContractError
from .model import (ModelParams, param_tensors, tape_forward_c,
                    tape_forward_d_logits, tape_forward_ga, tape_forward_gz,
                    tape_joint)

SIGMA2_FLOOR = 1e-12
DEGREE_FLOOR = 1e-12
BCE_EPS = 1e-7
DIST_SQ_FLOOR = 1e-24


@dataclass
class ZPrototypes:
    """Per-class mean of target z-features under pseudo labels; classes with
    no members are flagged absent."""
    means: np.ndarray    # n_classes x 512
    present: np.ndarray  # n_classes bools


@dataclass
class BatchLossReport:
    l_c: float
    l_d: float
    l_r_source: float
    l_r_target: float
    l_a: float
    total: float


@dataclass
class TrainBatch:
    """One mixed mini-batch of 2-D float64 parts; any part may be empty, but
    not the whole batch."""
    xs: np.ndarray            # ns x d_x
    ys: np.ndarray            # ns ints in [0, k_s)
    src_attrs: np.ndarray     # ns x d_a (ground-truth rows)
    xt: np.ndarray            # nt x d_x
    t_pseudo: np.ndarray      # nt ints in [0, k_s + k)
    t_seen_mask: np.ndarray   # nt bools
    t_pseudo_attrs: np.ndarray  # nt x d_a, valid where seen


# ---------------------------------------------------------------------------
# attribute propagation

def _pairwise_sq_t(z):
    r = ad.tsum(ad.square(z), axis=1)
    d2 = ad.clip_min(r + ad.transpose(r) - 2.0 * (z @ ad.transpose(z)), 0.0)
    return 0.5 * (d2 + ad.transpose(d2))


def build_adjacency_t(z):
    """A_ij = exp(-d_ij^2 / sigma^2) with zero diagonal; sigma^2 is the
    population variance of the off-diagonal squared distances, floored."""
    n = z.shape[0]
    if n < 2:
        raise ContractError("adjacency needs at least 2 samples")
    d2 = _pairwise_sq_t(z)
    off = 1.0 - np.eye(n)
    cnt = float(n * (n - 1))
    mean = ad.tsum(d2 * off) / cnt
    var = ad.tsum(off * ad.square(d2 - mean)) / cnt
    sigma2 = ad.clip_min(var, SIGMA2_FLOOR)
    adj = ad.exp(-(d2 / sigma2)) * off
    return adj, sigma2


def propagation_matrix_t(adj, beta):
    """W = (I - beta L)^-1 with L = D^-1/2 A D^-1/2, the closed form of label
    propagation (Zhou et al., NIPS 2004); degrees are floored."""
    n = adj.shape[0]
    deg = ad.clip_min(ad.tsum(adj, axis=1), DEGREE_FLOOR)
    dinv = 1.0 / ad.sqrt(deg)
    lap = adj * (dinv @ ad.transpose(dinv))
    return ad.inverse(np.eye(n) - beta * lap)


def propagate_attributes_t(w, raw):
    """W @ raw, clipped away from {0, 1} for the attribute BCE."""
    return ad.clip(w @ raw, BCE_EPS, 1.0 - BCE_EPS)


# ---------------------------------------------------------------------------
# loss terms

def _dists_to_protos_t(z, protos):
    rz = ad.tsum(ad.square(z), axis=1)
    rr = (protos * protos).sum(axis=1)[None, :]
    d2 = ad.clip_min(rz + rr - 2.0 * (z @ ad.ensure(protos.T)), DIST_SQ_FLOOR)
    return ad.sqrt(d2)


def loss_alignment_one_t(z, labels, rz: ZPrototypes):
    """Pull each sample toward its own z-prototype, push from the others
    (Euclidean distances, push normalized by present-count - 1)."""
    n = z.shape[0]
    if n == 0:
        return ad.ensure(0.0)
    cols = np.flatnonzero(rz.present)
    if cols.size < 2:
        warnings.warn("fewer than 2 present z-prototypes; alignment loss is 0",
                      stacklevel=2)
        return ad.ensure(0.0)
    protos = rz.means[cols]
    onehot = (np.asarray(labels)[:, None] == cols[None, :]).astype(np.float64)
    denom = np.maximum(cols.size - onehot.sum(axis=1), 1.0)[:, None]
    push_w = (1.0 - onehot) / denom
    dists = _dists_to_protos_t(z, protos)
    return (ad.tsum(dists * onehot) - ad.tsum(dists * push_w)) / float(n)


def loss_attribute_t(ahat_rows, targets):
    """Mean (over samples and dimensions) binary cross-entropy; ``ahat_rows``
    must already be clamped away from {0, 1}."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.size == 0:
        return ad.ensure(0.0)
    bce = -(targets * ad.log(ahat_rows) + (1.0 - targets) * ad.log(1.0 - ahat_rows))
    return ad.tsum(bce) / float(targets.size)


def loss_classifier_t(logits, labels):
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size == 0:
        return ad.ensure(0.0)
    return ad.tsum(ad.softmax_cross_entropy(logits, labels)) / float(labels.size)


def total_objective(l_c, l_d, l_r_source, l_r_target, l_a, lambda1, lambda2):
    """The objective and its report from computed parts (floats or Tensors)."""
    total = l_c + l_d + lambda1 * (l_r_source + l_r_target) + lambda2 * l_a
    report = BatchLossReport(l_c=float(l_c), l_d=float(l_d),
                             l_r_source=float(l_r_source),
                             l_r_target=float(l_r_target), l_a=float(l_a),
                             total=float(total))
    return total, report


# ---------------------------------------------------------------------------
# full batch objective

def batch_objective(params: ModelParams, batch: TrainBatch,
                    rz: Optional[ZPrototypes], cfg):
    """Assemble every enabled loss term for one batch on the tape.

    One path serves every batch composition: a joint-feature group may have
    zero rows, and each loss is 0 on zero rows.

    ``cfg`` is the run's ``TrainConfig``; this reads its ``lambda1``,
    ``lambda2``, ``beta`` and the ``use_lr`` / ``use_ld`` / ``use_prop`` /
    ``use_fusion`` switches.

    Returns (total Tensor, BatchLossReport, param tensors, term Tensors);
    the last maps {"l_c", "l_d", "l_r", "l_a"} to unweighted loss nodes.
    Each built graph takes one backward (it consumes the tape), so the graph
    is rebuilt to differentiate another term.
    """
    pt = param_tensors(params)
    ns = batch.xs.shape[0]
    n = ns + batch.xt.shape[0]
    if n == 0:
        raise ContractError("empty batch")

    z = tape_forward_gz(pt, np.vstack([batch.xs, batch.xt]))  # x takes no grad
    raw = tape_forward_ga(pt, z)
    if cfg.use_prop and n >= 2:
        adj, _ = build_adjacency_t(z)
        w = propagation_matrix_t(adj, cfg.beta)
        ahat = propagate_attributes_t(w, raw)
    else:
        ahat = ad.clip(raw, BCE_EPS, 1.0 - BCE_EPS)

    t_seen = np.flatnonzero(batch.t_seen_mask)
    seen, unseen = ns + t_seen, ns + np.flatnonzero(~batch.t_seen_mask)
    zs = ad.gather_rows(z, np.arange(ns))
    ahat_s = ad.gather_rows(ahat, np.arange(ns))
    zt_seen = ad.gather_rows(z, seen)
    ahat_seen = ad.gather_rows(ahat, seen)
    seen_attrs = batch.t_pseudo_attrs[t_seen]
    pseudo_seen = batch.t_pseudo[t_seen]

    # each joint-feature group once, perhaps with zero rows: (z rows,
    # attribute half, C labels); the last three are the target groups
    groups = [(zs, batch.src_attrs, batch.ys), (zs, ahat_s, batch.ys),
              (zt_seen, seen_attrs, pseudo_seen),
              (zt_seen, ahat_seen, pseudo_seen),
              (ad.gather_rows(z, unseen), ad.gather_rows(ahat, unseen),
               np.full(unseen.size, params.k_s))]

    def joint_rows(gs):
        """The groups' joint features stacked, on fresh concat nodes."""
        return ad.concat([tape_joint(z_rows, attrs, cfg.use_fusion)
                          for z_rows, attrs, _ in gs], axis=0)

    # classifier C: every member of each sample's joint-feature set contributes
    l_c = loss_classifier_t(tape_forward_c(pt, joint_rows(groups)),
                            np.concatenate([g[2] for g in groups]))
    # binary head D over the three target groups: seen 0, seen 0, unseen 1
    if cfg.use_ld:
        l_d = loss_classifier_t(
            tape_forward_d_logits(pt, joint_rows(groups[2:])),
            np.repeat([0, 0, 1], [seen.size, seen.size, unseen.size]))
    else:
        l_d = ad.ensure(0.0)

    # structure-preserving partial alignment
    if cfg.use_lr and rz is not None:
        l_rs = loss_alignment_one_t(zs, batch.ys, rz)
        l_rt = loss_alignment_one_t(ad.gather_rows(z, np.arange(ns, n)),
                                    batch.t_pseudo, rz)
    else:
        l_rs = ad.ensure(0.0)
        l_rt = ad.ensure(0.0)

    # attribute BCE over source + pseudo-seen target
    l_a = loss_attribute_t(ad.concat([ahat_s, ahat_seen], axis=0),
                           np.vstack([batch.src_attrs, seen_attrs]))

    total, report = total_objective(l_c, l_d, l_rs, l_rt, l_a, cfg.lambda1,
                                    cfg.lambda2)
    terms = {"l_c": l_c, "l_d": l_d, "l_r": l_rs + l_rt, "l_a": l_a}
    return total, report, pt, terms


def objective_grads(params, batch, rz, cfg):
    """(value, report, grads) for one batch; grads maps layer name to array."""
    total, report, pt, _ = batch_objective(params, batch, rz, cfg)
    total.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
             for name, t in pt.items()}
    return total.item(), report, grads
