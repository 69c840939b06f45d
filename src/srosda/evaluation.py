"""Evaluation protocols: open-set recognition (OS / OS* / OS-diamond),
two-stage semantic recovery (S / U / H) and per-sample attribute
precision/recall. All accuracies are class-averaged; evaluation is read-only
over the model and uses raw attribute predictions (no batch propagation).
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .dataio import TargetDataset, fields_from_kv, fields_to_kv, read_kv, write_kv
from .exceptions import ContractError, FormatError, ProtocolError
from .model import ModelParams, forward_c, forward_d, forward_ga, forward_gz
from .numkernel import single_blas_thread
from .separation import predict_all

ATTR_THRESHOLD = 0.5


@dataclass
class MetricsReport:
    # the report file lists the scalar fields first, in this order
    os: float
    os_star: float
    os_diamond: float
    s: float
    u: float
    h: float
    confusion: np.ndarray  # k_t true x (k_s + 1) predicted counts
    tau: float
    epochs: int
    seed: int
    attr_pr: List[Tuple[float, float]] = field(default_factory=list)


def harmonic_mean(s, u):
    """H = 2SU / (S + U); 0 when both are 0."""
    if s + u <= 0.0:
        return 0.0
    return 2.0 * s * u / (s + u)


def joint_features(params: ModelParams, features, use_fusion=True):
    """(f, a_hat): G_A's raw attribute prediction a_hat for each row and the
    joint feature f = z (+) a_hat, whose attribute part is zero without
    fusion. ``compute_report`` runs it once for all three metrics."""
    z = forward_gz(params, features)
    a_hat = forward_ga(params, z)
    tail = a_hat if use_fusion else np.zeros_like(a_hat)
    return np.hstack([z, tail]), a_hat


def _eval_annotations(params: ModelParams, target: TargetDataset):
    """(labels, full attribute table) of ``target``'s eval data; ProtocolError
    without it, or if the table lacks an unseen class beyond the k_s seen."""
    if target.eval_data is None:
        raise ProtocolError("evaluation requires target eval labels")
    table = target.eval_data.attr_table_full
    if table.shape[0] <= params.k_s:
        raise ProtocolError(f"the eval attribute table has {table.shape[0]} "
                            f"classes, not more than the model's {params.k_s}")
    return target.eval_data.labels, table


def eval_openset(params: ModelParams, target: TargetDataset, f):
    """C's argmax over the joint features ``f`` (see ``joint_features``);
    class k_s is 'unknown'. Returns (os, os_star, os_diamond, confusion)
    where the confusion matrix resolves all k_t true classes against k_s+1
    predictions.
    """
    labels, table = _eval_annotations(params, target)
    k_s = params.k_s
    k_t = table.shape[0]
    pred = np.argmax(forward_c(params, f), axis=1)

    confusion = np.zeros((k_t, k_s + 1), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)

    seen_accs = []
    for c in range(k_s):
        row = confusion[c]
        total = row.sum()
        seen_accs.append(row[c] / total if total else 0.0)
    os_star = float(np.mean(seen_accs)) if seen_accs else 0.0
    unseen_total = confusion[k_s:].sum()
    unseen_correct = confusion[k_s:, k_s].sum()
    os_diamond = float(unseen_correct / unseen_total) if unseen_total else 0.0
    os_val = (k_s * os_star + os_diamond) / (k_s + 1)
    return os_val, os_star, os_diamond, confusion


def eval_semantic(params: ModelParams, target: TargetDataset, f, a_hat):
    """Two-stage semantic recovery: D routes each joint feature in ``f`` to
    the seen or unseen attribute rows, then the raw attribute prediction
    ``a_hat`` is classified prototypically (cosine) against the routed rows.
    Returns (s, u, h)."""
    labels, table = _eval_annotations(params, target)
    table = table.astype(np.float64)
    k_s = params.k_s
    k_t = table.shape[0]
    d_probs = forward_d(params, f)
    says_unseen = np.argmax(d_probs, axis=1) == 1

    pred_class = np.empty(labels.shape[0], dtype=np.int64)
    seen_rows = np.flatnonzero(~says_unseen)
    unseen_rows = np.flatnonzero(says_unseen)
    if seen_rows.size:
        lab, _, _ = predict_all(a_hat[seen_rows], table[:k_s])
        pred_class[seen_rows] = lab
    if unseen_rows.size:
        lab, _, _ = predict_all(a_hat[unseen_rows], table[k_s:])
        pred_class[unseen_rows] = lab + k_s

    def class_avg(classes):
        accs = []
        for c in classes:
            mask = labels == c
            if mask.any():
                accs.append(float(np.mean(pred_class[mask] == c)))
        return float(np.mean(accs)) if accs else 0.0

    s = class_avg(range(k_s))
    u = class_avg(range(k_s, k_t))
    return s, u, harmonic_mean(s, u)


def attribute_pr_all(target: TargetDataset, a_hat):
    """Per-sample precision/recall of each row of ``a_hat``, thresholded at
    ATTR_THRESHOLD (inclusive), against its class's row of the full attribute
    table, as a list of (precision, recall) pairs.

    Vacuous cases: no predicted and no true positives -> precision 1.0; no
    predicted positives but true positives exist -> precision 0.0; no true
    positives -> recall 1.0.
    """
    if target.eval_data is None:
        raise ProtocolError("attribute evaluation requires target eval data")
    a_hat = np.asarray(a_hat, dtype=np.float64)
    a_true = target.eval_data.attr_table_full[target.eval_data.labels]
    if a_hat.shape != a_true.shape:
        raise ContractError("attribute_pr_all dimension mismatch")
    pred = a_hat >= ATTR_THRESHOLD
    true = a_true > 0.5
    tp = np.count_nonzero(pred & true, axis=1)
    fp = np.count_nonzero(pred & ~true, axis=1)
    fn = np.count_nonzero(~pred & true, axis=1)
    has_pred = tp + fp > 0
    has_true = tp + fn > 0
    precision = np.where(has_pred, tp / np.maximum(tp + fp, 1),
                         np.where(has_true, 0.0, 1.0))
    recall = np.where(has_true, tp / np.maximum(tp + fn, 1), 1.0)
    return list(zip(precision.tolist(), recall.tolist()))


@single_blas_thread()
def compute_report(params: ModelParams, target: TargetDataset, tau, epochs,
                   seed, use_fusion=True) -> MetricsReport:
    """Open-set, semantic and attribute metrics of ``params`` on ``target``,
    with BLAS pinned to one thread (see ``single_blas_thread``)."""
    f, a_hat = joint_features(params, target.features, use_fusion)
    os_val, os_star, os_diamond, confusion = eval_openset(params, target, f)
    s, u, h = eval_semantic(params, target, f, a_hat)
    return MetricsReport(os=os_val, os_star=os_star, os_diamond=os_diamond,
                         s=s, u=u, h=h, confusion=confusion, tau=float(tau),
                         epochs=int(epochs), seed=int(seed),
                         attr_pr=attribute_pr_all(target, a_hat))


# ---------------------------------------------------------------------------
# report file

def save_report(report: MetricsReport, path):
    if report.confusion.size == 0:
        raise ContractError("report has an empty confusion matrix")
    rows, cols = report.confusion.shape
    pairs = fields_to_kv(report) + [("confusion.rows", rows), ("confusion.cols", cols)]
    for t in range(rows):
        for p in range(cols):
            pairs.append((f"confusion.{t}.{p}", int(report.confusion[t, p])))
    for i, (prec, rec) in enumerate(report.attr_pr):
        pairs.append((f"attr_pr.{i}", f"{float(prec)!r},{float(rec)!r}"))
    write_kv(pairs, path)


def load_report(path) -> MetricsReport:
    values = {}
    for key, value in read_kv(path):
        if key in values:
            raise FormatError(f"{path}: report key {key!r} is given more than once")
        values[key] = value
    try:
        rows = int(values["confusion.rows"])
        cols = int(values["confusion.cols"])
        confusion = np.zeros((rows, cols), dtype=np.int64)
        for t in range(rows):
            for p in range(cols):
                confusion[t, p] = int(values[f"confusion.{t}.{p}"])
        attr_pr = []
        i = 0
        while f"attr_pr.{i}" in values:
            prec, rec = values[f"attr_pr.{i}"].split(",")
            attr_pr.append((float(prec), float(rec)))
            i += 1
        return MetricsReport(confusion=confusion, attr_pr=attr_pr,
                             **fields_from_kv(values, MetricsReport))
    except KeyError as err:
        raise FormatError(f"{path}: missing report key {err}") from None
    except ValueError as err:
        raise FormatError(f"{path}: bad report value: {err}") from None
