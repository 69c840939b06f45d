"""Evaluation protocols: open-set recognition (OS / OS* / OS-diamond),
two-stage semantic recovery (S / U / H) and per-sample attribute
precision/recall, averaged over the classes with eval samples.
``compute_report`` alone reads the ``TargetDataset``; the metric functions
score arrays. Evaluation is read-only over the model and uses raw attribute
predictions (no batch propagation).
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .dataio import TargetDataset, fields_from_kv, fields_to_kv, read_kv, write_kv
from .exceptions import ContractError, FormatError, ProtocolError
from .model import (ModelParams, forward_gz, tape_forward_c,
                    tape_forward_d_logits, tape_forward_ga, tape_joint)
from .numkernel import check_finite, single_blas_thread
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


def _class_average(correct, total):
    """Mean of ``correct / total`` over the classes with ``total`` > 0, or 0
    when there is none; OS*, S and U all use it."""
    present = total > 0
    return float(np.mean(correct[present] / total[present])) if present.any() else 0.0


def harmonic_mean(s, u):
    """H = 2SU / (S + U); 0 when both are 0."""
    if s + u <= 0.0:
        return 0.0
    return 2.0 * s * u / (s + u)


def joint_features(params: ModelParams, z, use_fusion=True):
    """(f, a_hat): G_A's raw attribute prediction a_hat for each row of the
    G_Z embedding ``z`` and the joint feature f = z (+) a_hat from
    ``tape_joint``, whose attribute part is zero without fusion; DataError if
    f is not finite."""
    a_hat = tape_forward_ga(params.arrays, z).value
    f = check_finite(tape_joint(z, a_hat, use_fusion).value, "joint features")
    return f, a_hat


def eval_openset(params: ModelParams, f, labels, k_t):
    """The argmax of C's logits (``tape_forward_c``) over the joint features
    ``f`` (see ``joint_features``) against the true ``labels`` in [0, k_t);
    class k_s is 'unknown'. Returns (os, os_star, os_diamond, confusion)
    where the confusion matrix resolves all k_t true classes against k_s+1
    predictions."""
    k_s = params.k_s
    pred = np.argmax(tape_forward_c(params.arrays, f).value, axis=1)

    confusion = np.zeros((k_t, k_s + 1), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)

    os_star = _class_average(np.diag(confusion[:k_s]), confusion[:k_s].sum(axis=1))
    unseen_total = confusion[k_s:].sum()
    unseen_correct = confusion[k_s:, k_s].sum()
    os_diamond = float(unseen_correct / unseen_total) if unseen_total else 0.0
    os_val = (k_s * os_star + os_diamond) / (k_s + 1)
    return os_val, os_star, os_diamond, confusion


def eval_semantic(params: ModelParams, f, a_hat, labels, table):
    """Two-stage semantic recovery: D routes each joint feature in ``f`` to
    the unseen rows of the full attribute ``table`` where the argmax of its
    logits (``tape_forward_d_logits``) is 1, else to the seen rows; then the
    raw attribute prediction ``a_hat`` is classified prototypically (cosine)
    against the routed rows and scored against the true ``labels``. Returns
    (s, u, h)."""
    k_s = params.k_s
    k_t = table.shape[0]
    says_unseen = np.argmax(tape_forward_d_logits(params.arrays, f).value,
                            axis=1) == 1

    # either side may have no rows: predict_all then returns no labels
    seen_lab, _, _ = predict_all(a_hat[~says_unseen], table[:k_s])
    unseen_lab, _, _ = predict_all(a_hat[says_unseen], table[k_s:])
    pred_class = np.empty(labels.shape[0], dtype=np.int64)
    pred_class[~says_unseen] = seen_lab
    pred_class[says_unseen] = unseen_lab + k_s

    correct = np.bincount(labels[pred_class == labels], minlength=k_t)
    total = np.bincount(labels, minlength=k_t)
    s = _class_average(correct[:k_s], total[:k_s])
    u = _class_average(correct[k_s:], total[k_s:])
    return s, u, harmonic_mean(s, u)


def attribute_pr_all(a_hat, a_true):
    """Per-sample precision/recall of each row of ``a_hat``, thresholded at
    ATTR_THRESHOLD (inclusive), against the same row of the 0/1 ``a_true``,
    as a list of (precision, recall) pairs.

    Vacuous cases: no predicted and no true positives -> precision 1.0; no
    predicted positives but true positives exist -> precision 0.0; no true
    positives -> recall 1.0.
    """
    a_hat = np.asarray(a_hat, dtype=np.float64)
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
    fused unless ``use_fusion`` is False, with BLAS pinned to one thread (see
    ``single_blas_thread``). Before it embeds a row it raises ProtocolError
    unless ``target`` has at least one row and eval data whose attribute
    table has more rows than the model's k_s and as many columns as its
    d_a."""
    if target.eval_data is None:
        raise ProtocolError("evaluation requires target eval labels")
    labels, table = target.eval_data.labels, target.eval_data.attr_table_full
    if labels.size == 0:
        raise ProtocolError("evaluation requires at least one target row")
    k_t, width = table.shape
    if k_t <= params.k_s:
        raise ProtocolError(f"the eval attribute table has {k_t} classes, not "
                            f"more than the model's {params.k_s}")
    if width != params.d_a:
        raise ProtocolError(f"the eval attribute table has {width} columns, "
                            f"not the model's d_a = {params.d_a}")
    z = forward_gz(params, target.features)
    f, a_hat = joint_features(params, z, use_fusion)
    os_val, os_star, os_diamond, confusion = eval_openset(params, f, labels, k_t)
    s, u, h = eval_semantic(params, f, a_hat, labels, table)
    return MetricsReport(os=os_val, os_star=os_star, os_diamond=os_diamond,
                         s=s, u=u, h=h, confusion=confusion, tau=float(tau),
                         epochs=int(epochs), seed=int(seed),
                         attr_pr=attribute_pr_all(a_hat, table[labels]))


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
    """The report ``save_report`` wrote to ``path``; FormatError if a key is
    missing, malformed or not one it reads: the scalar fields, the
    confusion shape and its cells, and ``attr_pr.0`` up to the first gap."""
    values = dict(read_kv(path))
    try:
        rows = int(values.pop("confusion.rows"))
        cols = int(values.pop("confusion.cols"))
        if min(rows, cols) < 0 or rows * cols > len(values):
            raise FormatError(f"{path}: confusion shape {rows} x {cols} does "
                              f"not fit the {len(values)} keys left to read")
        confusion = np.zeros((rows, cols), dtype=np.int64)
        for t in range(rows):
            for p in range(cols):
                confusion[t, p] = int(values.pop(f"confusion.{t}.{p}"))
        attr_pr = []
        while f"attr_pr.{len(attr_pr)}" in values:
            prec, rec = values.pop(f"attr_pr.{len(attr_pr)}").split(",")
            attr_pr.append((float(prec), float(rec)))
        scalars = fields_from_kv(values, MetricsReport)
    except KeyError as err:
        raise FormatError(f"{path}: missing report key {err}") from None
    except ValueError as err:
        raise FormatError(f"{path}: bad report value: {err}") from None
    unknown = [key for key in values if key not in scalars]
    if unknown:
        raise FormatError(f"{path}: unknown report key(s) {', '.join(unknown)}")
    return MetricsReport(confusion=confusion, attr_pr=attr_pr, **scalars)
