"""Loss terms of the training objective, evaluated on mixed batches.

total = l_c + l_d + lambda1 * (l_r_source + l_r_target) + lambda2 * l_a

All terms are built on the autodiff tape so gradients flow end to end,
including through the adjacency construction and the propagation-matrix
solve.
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
    """One mixed mini-batch. Either domain part may be empty."""
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
        return ad.Tensor(0.0)
    cols = np.flatnonzero(rz.present)
    if cols.size < 2:
        warnings.warn("fewer than 2 present z-prototypes; alignment loss is 0",
                      stacklevel=2)
        return ad.Tensor(0.0)
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
        return ad.Tensor(0.0)
    bce = -(targets * ad.log(ahat_rows) + (1.0 - targets) * ad.log(1.0 - ahat_rows))
    return ad.tsum(bce) / float(targets.size)


def loss_classifier_t(logits, labels):
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size == 0:
        return ad.Tensor(0.0)
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
    nt = batch.xt.shape[0]
    n = ns + nt
    if n == 0:
        raise ContractError("empty batch")

    d_x = params.d_x
    x_all = np.vstack([np.asarray(batch.xs, dtype=np.float64).reshape(ns, d_x),
                       np.asarray(batch.xt, dtype=np.float64).reshape(nt, d_x)])
    z = tape_forward_gz(pt, x_all)  # a constant: no input gradient
    raw = tape_forward_ga(pt, z)
    if cfg.use_prop and n >= 2:
        adj, _ = build_adjacency_t(z)
        w = propagation_matrix_t(adj, cfg.beta)
        ahat = propagate_attributes_t(w, raw)
    else:
        ahat = ad.clip(raw, BCE_EPS, 1.0 - BCE_EPS)

    seen_idx = np.flatnonzero(batch.t_seen_mask)
    unseen_idx = np.flatnonzero(~batch.t_seen_mask)

    # each joint-feature group once: (z rows, attribute half, C labels,
    # D label); source groups have no D label
    groups = []
    zs = ahat_s = ahat_seen = None
    if ns:
        zs = ad.gather_rows(z, np.arange(ns))
        ahat_s = ad.gather_rows(ahat, np.arange(ns))
        groups += [(zs, batch.src_attrs, batch.ys, None),
                   (zs, ahat_s, batch.ys, None)]
    if seen_idx.size:
        zt_seen = ad.gather_rows(z, ns + seen_idx)
        ahat_seen = ad.gather_rows(ahat, ns + seen_idx)
        pseudo_seen = batch.t_pseudo[seen_idx]
        groups += [(zt_seen, batch.t_pseudo_attrs[seen_idx], pseudo_seen, 0),
                   (zt_seen, ahat_seen, pseudo_seen, 0)]
    if unseen_idx.size:
        groups.append((ad.gather_rows(z, ns + unseen_idx),
                       ad.gather_rows(ahat, ns + unseen_idx),
                       np.full(unseen_idx.size, params.k_s), 1))

    def joint_rows(gs):
        """The groups' joint features stacked, on fresh concat nodes."""
        return ad.concat([tape_joint(z_rows, attrs, cfg.use_fusion)
                          for z_rows, attrs, _, _ in gs], axis=0)

    # classifier C: every member of each sample's joint-feature set contributes
    l_c = loss_classifier_t(tape_forward_c(pt, joint_rows(groups)),
                            np.concatenate([g[2] for g in groups]))
    # binary head D (seen 0, unseen 1) over the target groups only
    target_groups = [g for g in groups if g[3] is not None]
    if cfg.use_ld and target_groups:
        l_d = loss_classifier_t(
            tape_forward_d_logits(pt, joint_rows(target_groups)),
            np.concatenate([np.full(len(g[2]), g[3]) for g in target_groups]))
    else:
        l_d = ad.Tensor(0.0)

    # structure-preserving partial alignment
    if cfg.use_lr and rz is not None:
        l_rs = loss_alignment_one_t(zs, batch.ys, rz) if ns else ad.Tensor(0.0)
        zt_all = ad.gather_rows(z, ns + np.arange(nt)) if nt else None
        l_rt = (loss_alignment_one_t(zt_all, batch.t_pseudo, rz)
                if nt else ad.Tensor(0.0))
    else:
        l_rs = ad.Tensor(0.0)
        l_rt = ad.Tensor(0.0)

    # attribute BCE over source + pseudo-seen target
    a_rows, a_targets = [], []
    if ns:
        a_rows.append(ahat_s)
        a_targets.append(batch.src_attrs)
    if seen_idx.size:
        a_rows.append(ahat_seen)
        a_targets.append(batch.t_pseudo_attrs[seen_idx])
    if a_rows:
        l_a = loss_attribute_t(ad.concat(a_rows, axis=0), np.vstack(a_targets))
    else:
        l_a = ad.Tensor(0.0)

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
