import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from srosda.dataio import (SynthSpec, TargetDataset, TargetEval, read_kv,
                           synth_generate)
from srosda.evaluation import (MetricsReport, attribute_pr_all, compute_report,
                               eval_openset, eval_semantic, harmonic_mean,
                               joint_features, load_report, save_report)
from srosda.exceptions import ContractError, FormatError, ProtocolError
from srosda.model import init_params

probs = st.floats(min_value=0.0, max_value=1.0)


def test_harmonic_mean_oracle():
    # frozen from 2 * 0.952 * 0.378 / (0.952 + 0.378)
    assert harmonic_mean(0.952, 0.378) == pytest.approx(0.5411368421052631,
                                                        abs=1e-12)
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(1.0, 1.0) == 1.0
    assert harmonic_mean(0.5, 0.0) == 0.0


@given(probs, probs)
@settings(max_examples=100, deadline=None)
def test_harmonic_le_arithmetic(s, u):
    h = harmonic_mean(s, u)
    assert 0.0 <= h <= 1.0
    assert h <= (s + u) / 2.0 + 1e-12


def attribute_pr_row(a_hat, a_true):
    """Reference for one row of ``attribute_pr_all``: counts of the
    predictions >= 0.5 against the 0/1 row ``a_true``, then the vacuous-case
    rules one branch at a time."""
    pred = np.asarray(a_hat) >= 0.5
    true = np.asarray(a_true) > 0.5
    tp = int(np.sum(pred & true))
    fp = int(np.sum(pred & ~true))
    fn = int(np.sum(~pred & true))
    if tp + fp == 0:
        precision = 1.0 if tp + fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    return precision, recall


def pr_one(a_hat, a_true):
    """``attribute_pr_all`` of a single sample whose class row is ``a_true``."""
    target = TargetDataset(features=np.zeros((1, 1)),
                           eval_data=TargetEval(labels=np.array([0]),
                                                attr_table_full=np.array([a_true])))
    (pair,) = attribute_pr_all(target, np.array([a_hat], dtype=np.float64))
    return pair


def test_attribute_pr_counting():
    # pred = [1,1,0,0], true = [1,0,1,0] -> tp=1 fp=1 fn=1
    p, r = pr_one([0.9, 0.6, 0.2, 0.1], [1, 0, 1, 0])
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(0.5)
    # threshold is inclusive at 0.5
    p, r = pr_one([0.5], [1])
    assert (p, r) == (1.0, 1.0)


def test_attribute_pr_vacuous_cases():
    assert pr_one([0.1, 0.2], [0, 0]) == (1.0, 1.0)
    assert pr_one([0.1, 0.2], [1, 0]) == (0.0, 0.0)
    p, r = pr_one([0.9, 0.8], [0, 0])
    assert p == 0.0 and r == 1.0
    with pytest.raises(ContractError):
        pr_one([0.5], [1, 0])


@st.composite
def attribute_problems(draw):
    """(target, a_hat): a 0/1 table whose last row is all zeros (a class
    with no true attributes), labels that use it, and predictions on a
    grid that hits the threshold exactly, with an all-negative row."""
    n = draw(st.integers(1, 12))
    d_a = draw(st.integers(1, 6))
    k_t = draw(st.integers(1, 4))
    table = draw(hnp.arrays(np.int64, (k_t, d_a), elements=st.integers(0, 1)))
    table = np.vstack([table, np.zeros((1, d_a), dtype=np.int64)])
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k_t)))
    labels = np.append(labels, k_t)
    grid = st.sampled_from([0.0, 0.25, 0.4999999999999999, 0.5, 0.75, 1.0])
    a_hat = draw(hnp.arrays(np.float64, (n, d_a), elements=grid))
    a_hat = np.vstack([a_hat, np.zeros((1, d_a))])
    target = TargetDataset(features=np.zeros((n + 1, 1)),
                           eval_data=TargetEval(labels=labels,
                                                attr_table_full=table))
    return target, a_hat


@given(attribute_problems())
@settings(max_examples=200, deadline=None)
def test_attribute_pr_all_matches_per_row(problem):
    target, a_hat = problem
    table, labels = target.eval_data.attr_table_full, target.eval_data.labels
    want = [attribute_pr_row(a_hat[i], table[labels[i]])
            for i in range(a_hat.shape[0])]
    got = attribute_pr_all(target, a_hat)
    assert got == want
    assert all(type(v) is float for pair in got for v in pair)


def test_attribute_pr_all_contracts():
    target = TargetDataset(features=np.zeros((2, 1)),
                           eval_data=TargetEval(labels=np.array([0, 1]),
                                                attr_table_full=np.eye(2)))
    assert attribute_pr_all(target, np.eye(2)) == [(1.0, 1.0), (1.0, 1.0)]
    with pytest.raises(ContractError):
        attribute_pr_all(target, np.zeros((2, 3)))
    with pytest.raises(ProtocolError):
        attribute_pr_all(TargetDataset(features=np.zeros((2, 1))), np.eye(2))


# ---------------------------------------------------------------------------
# protocol evaluation on a trained-free fixture

@pytest.fixture(scope="module")
def fixture():
    spec = SynthSpec(k_s=3, k=2, d_x=8, d_a=8, n_source_per_class=4,
                     n_target_per_class=5, seed=4)
    _, tgt = synth_generate(spec)
    params = init_params(8, 8, 3, seed=0)
    return params, tgt


def test_eval_openset_identity_and_confusion(fixture):
    params, tgt = fixture
    f, _ = joint_features(params, tgt.features)
    os_val, os_star, os_diamond, confusion = eval_openset(params, tgt, f)
    k_s = 3
    assert confusion.shape == (5, 4)
    assert confusion.sum() == tgt.features.shape[0]
    # composition identity holds exactly by construction
    assert os_val == pytest.approx((k_s * os_star + os_diamond) / (k_s + 1),
                                   abs=1e-15)
    # class-average identity against the confusion matrix
    per_class = [confusion[c, c] / confusion[c].sum() for c in range(k_s)]
    assert os_star == pytest.approx(np.mean(per_class), abs=1e-12)
    assert os_diamond == pytest.approx(confusion[k_s:, k_s].sum()
                                       / confusion[k_s:].sum(), abs=1e-12)


def test_eval_semantic_bounds_and_requirements(fixture):
    params, tgt = fixture
    f, a_hat = joint_features(params, tgt.features)
    s, u, h = eval_semantic(params, tgt, f, a_hat)
    assert 0.0 <= s <= 1.0 and 0.0 <= u <= 1.0
    assert h == pytest.approx(harmonic_mean(s, u), abs=1e-15)
    bare = TargetDataset(features=tgt.features)
    with pytest.raises(ProtocolError):
        eval_semantic(params, bare, f, a_hat)
    with pytest.raises(ProtocolError):
        eval_openset(params, bare, f)
    seen_only = TargetDataset(
        features=tgt.features,
        eval_data=TargetEval(labels=np.zeros(tgt.features.shape[0], dtype=int),
                             attr_table_full=tgt.eval_data.attr_table_full[:3]))
    with pytest.raises(ProtocolError):
        eval_semantic(params, seen_only, f, a_hat)
    with pytest.raises(ProtocolError):
        eval_openset(params, seen_only, f)
    # fewer eval classes than the model's k_s = 6 seen classes
    params6 = init_params(8, 8, 6, seed=0)
    f6, a_hat6 = joint_features(params6, tgt.features)
    four_classes = TargetDataset(
        features=tgt.features,
        eval_data=TargetEval(labels=tgt.eval_data.labels % 4,
                             attr_table_full=tgt.eval_data.attr_table_full[:4]))
    with pytest.raises(ProtocolError, match="4 classes"):
        eval_openset(params6, four_classes, f6)
    with pytest.raises(ProtocolError, match="4 classes"):
        eval_semantic(params6, four_classes, f6, a_hat6)


def test_compute_report_fields(fixture):
    params, tgt = fixture
    rep = compute_report(params, tgt, tau=0.42, epochs=7, seed=3)
    assert rep.tau == 0.42 and rep.epochs == 7 and rep.seed == 3
    assert len(rep.attr_pr) == tgt.features.shape[0]
    assert all(0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 for p, r in rep.attr_pr)


def test_perfect_predictor_yields_perfect_metrics():
    """A labels-aware stand-in confirms the metric arithmetic at the optimum."""
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4])
    k_s, k_t = 3, 5
    confusion = np.zeros((k_t, k_s + 1), dtype=np.int64)
    pred = np.where(labels < k_s, labels, k_s)
    np.add.at(confusion, (labels, pred), 1)
    per_class = [confusion[c, c] / confusion[c].sum() for c in range(k_s)]
    os_star = float(np.mean(per_class))
    os_diamond = confusion[k_s:, k_s].sum() / confusion[k_s:].sum()
    assert os_star == 1.0 and os_diamond == 1.0


# ---------------------------------------------------------------------------
# report file round trip

def test_report_round_trip(tmp_path, fixture):
    params, tgt = fixture
    rep = compute_report(params, tgt, tau=0.3, epochs=5, seed=1)
    path = tmp_path / "report.txt"
    save_report(rep, path)
    loaded = load_report(path)
    assert loaded.os == rep.os
    assert loaded.h == rep.h
    assert np.array_equal(loaded.confusion, rep.confusion)
    assert loaded.attr_pr == rep.attr_pr
    path2 = tmp_path / "report2.txt"
    save_report(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_report_scalar_keys_lead_in_order(tmp_path, fixture):
    # the order comes from MetricsReport's field order; pin it so a reordered
    # dataclass cannot silently change the file
    params, tgt = fixture
    path = tmp_path / "report.txt"
    save_report(compute_report(params, tgt, tau=0.3, epochs=5, seed=1), path)
    keys = [key for key, _ in read_kv(path)]
    assert keys[:9] == ["os", "os_star", "os_diamond", "s", "u", "h",
                        "tau", "epochs", "seed"]
    assert keys[9:11] == ["confusion.rows", "confusion.cols"]


def test_load_report_rejects_repeated_key(tmp_path, fixture):
    params, tgt = fixture
    path = tmp_path / "report.txt"
    save_report(compute_report(params, tgt, tau=0.3, epochs=5, seed=1), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("os = 0.99\n")
    with pytest.raises(FormatError, match="'os' is given more than once"):
        load_report(path)


def test_report_errors(tmp_path):
    rep = MetricsReport(os=0.0, os_star=0.0, os_diamond=0.0, s=0.0, u=0.0,
                        h=0.0, confusion=np.zeros((0, 0), dtype=np.int64),
                        tau=0.0, epochs=0, seed=0)
    with pytest.raises(ContractError):
        save_report(rep, tmp_path / "r.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("os = 0.5\n")
    with pytest.raises(FormatError):
        load_report(bad)
