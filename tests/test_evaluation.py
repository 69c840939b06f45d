import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import copy_params
from srosda import evaluation
from srosda.dataio import (SynthSpec, TargetDataset, TargetEval, read_kv,
                           synth_generate, write_kv)
from srosda.evaluation import (MetricsReport, attribute_pr_all, compute_report,
                               eval_openset, eval_semantic, harmonic_mean,
                               joint_features, load_report, save_report)
from srosda.exceptions import (ContractError, DataError, FormatError,
                               ProtocolError)
from srosda.model import Z_DIM, forward_gz, init_params

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
    (pair,) = attribute_pr_all(np.array([a_hat], dtype=np.float64),
                               np.array([a_true]))
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


@st.composite
def attribute_problems(draw):
    """(a_hat, a_true): the rows of a 0/1 table whose last row is all zeros
    (a class with no true attributes) for labels that use it, and
    predictions on a grid that hits the threshold exactly, with an
    all-negative row."""
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
    return a_hat, table[labels]


@given(attribute_problems())
@settings(max_examples=200, deadline=None)
def test_attribute_pr_all_matches_per_row(problem):
    a_hat, a_true = problem
    want = [attribute_pr_row(a_hat[i], a_true[i]) for i in range(a_hat.shape[0])]
    got = attribute_pr_all(a_hat, a_true)
    assert got == want
    assert all(type(v) is float for pair in got for v in pair)


def test_attribute_pr_all_contracts():
    assert attribute_pr_all(np.eye(2), np.eye(2)) == [(1.0, 1.0), (1.0, 1.0)]


# ---------------------------------------------------------------------------
# protocol evaluation on a trained-free fixture

@pytest.fixture(scope="module")
def fixture():
    spec = SynthSpec(k_s=3, k=2, d_x=8, d_a=8, n_source_per_class=4,
                     n_target_per_class=5, seed=4)
    _, tgt = synth_generate(spec)
    params = init_params(8, 8, 3, seed=0)
    return params, tgt


def embedded(params, features, use_fusion=True):
    """``joint_features`` of the G_Z embedding of ``features``, as
    ``compute_report`` runs it."""
    return joint_features(params, forward_gz(params, features), use_fusion)


def test_eval_openset_identity_and_confusion(fixture):
    params, tgt = fixture
    f, _ = embedded(params, tgt.features)
    os_val, os_star, os_diamond, confusion = eval_openset(
        params, f, tgt.eval_data.labels, 5)
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


def test_class_without_samples_is_left_out_of_every_average(fixture):
    params, tgt = fixture
    keep = tgt.eval_data.labels != 1  # seen class 1 has no eval samples
    f, _ = embedded(params, tgt.features[keep])
    os_val, os_star, os_diamond, confusion = eval_openset(
        params, f, tgt.eval_data.labels[keep], 5)
    assert confusion[1].sum() == 0
    assert os_star == np.mean([confusion[c, c] / confusion[c].sum() for c in (0, 2)])
    assert os_val == pytest.approx((3 * os_star + os_diamond) / 4, abs=1e-15)


def test_eval_semantic_bounds(fixture):
    params, tgt = fixture
    f, a_hat = embedded(params, tgt.features)
    s, u, h = eval_semantic(params, f, a_hat, tgt.eval_data.labels,
                            tgt.eval_data.attr_table_full)
    assert 0.0 <= s <= 1.0 and 0.0 <= u <= 1.0
    assert h == pytest.approx(harmonic_mean(s, u), abs=1e-15)


@pytest.mark.parametrize("case", ["no eval data", "seen classes only",
                                  "6 columns", "no rows"])
def test_compute_report_refuses_unusable_annotations_before_embedding(
        fixture, monkeypatch, case):
    params, tgt = fixture  # k_s = 3, d_a = 8
    features = tgt.features
    labels, table = tgt.eval_data.labels, tgt.eval_data.attr_table_full
    eval_data, message = {
        "no eval data": (None, "requires target eval labels"),
        "seen classes only": (TargetEval(labels=labels % 3,
                                         attr_table_full=table[:3]),
                              "has 3 classes, not more than the model's 3"),
        "6 columns": (TargetEval(labels=labels, attr_table_full=table[:, :6]),
                      "has 6 columns, not the model's d_a = 8"),
        "no rows": (TargetEval(labels=labels[:0], attr_table_full=table),
                    "at least one target row")}[case]
    if case == "no rows":
        features = features[:0]

    def no_embedding(*args, **kwargs):
        raise AssertionError("compute_report embedded rows it cannot score")

    monkeypatch.setattr(evaluation, "forward_gz", no_embedding)
    with pytest.raises(ProtocolError, match=message):
        compute_report(params, TargetDataset(features, eval_data),
                       tau=0.5, epochs=1, seed=0)


def test_compute_report_fields(fixture):
    params, tgt = fixture
    rep = compute_report(params, tgt, tau=0.42, epochs=7, seed=3)
    assert rep.tau == 0.42 and rep.epochs == 7 and rep.seed == 3
    assert len(rep.attr_pr) == tgt.features.shape[0]
    assert all(0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 for p, r in rep.attr_pr)


def test_joint_features_fusion_rule(fixture):
    params, tgt = fixture
    z = forward_gz(params, tgt.features)
    fused, a_hat = joint_features(params, z)
    plain, plain_a_hat = joint_features(params, z, use_fusion=False)
    for f in (fused, plain):
        assert f.shape == (tgt.features.shape[0], Z_DIM + params.d_a)
        assert f[:, :Z_DIM].tobytes() == z.tobytes()
    assert fused[:, Z_DIM:].tobytes() == a_hat.tobytes()
    # exactly +0.0 in every attribute slot, while a_hat is still G_A's output
    assert plain[:, Z_DIM:].tobytes() == bytes(plain[:, Z_DIM:].nbytes)
    assert plain_a_hat.tobytes() == a_hat.tobytes()


@pytest.mark.parametrize("use_fusion", [True, False])
def test_overflowed_activation_is_a_data_error(fixture, use_fusion):
    params, tgt = fixture
    big = copy_params(params)
    big.arrays["gz_w2"] *= 1e308  # z overflows to +-inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataError, match="joint features"):
            compute_report(big, tgt, tau=0.5, epochs=1, seed=0,
                           use_fusion=use_fusion)


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


@pytest.mark.parametrize("extra", [
    "attr_pr.{after_gap} = 0.5,0.5", "confusion.99.0 = 4", "os_typo = 7",
], ids=["attr_pr after a gap", "confusion cell outside", "unknown scalar"])
def test_load_report_rejects_keys_it_does_not_read(tmp_path, fixture, extra):
    params, tgt = fixture
    path = tmp_path / "report.txt"
    save_report(compute_report(params, tgt, tau=0.3, epochs=5, seed=1), path)
    line = extra.format(after_gap=tgt.features.shape[0] + 1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    key = line.partition(" ")[0]
    with pytest.raises(FormatError, match=f"unknown report key.*{key}"):
        load_report(path)


@pytest.mark.parametrize("rows, cols", [(10_000_000, 10_000_000), (-1, 4)])
def test_load_report_rejects_a_confusion_shape_its_cells_cannot_fill(
        tmp_path, fixture, rows, cols):
    # refused before the matrix is allocated: 10^7 x 10^7 int64 is 728 TiB
    params, tgt = fixture
    path = tmp_path / "report.txt"
    save_report(compute_report(params, tgt, tau=0.3, epochs=5, seed=1), path)
    shape = {"confusion.rows": rows, "confusion.cols": cols}
    write_kv([(key, shape.get(key, value)) for key, value in read_kv(path)],
             path)
    with pytest.raises(FormatError, match=f"confusion shape {rows} x {cols}"):
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
