import os

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_features
from srosda import dataio
from srosda.dataio import (SourceDataset, SynthSpec, TargetDataset, TargetEval,
                           default_synth_spec, fields_to_kv, load_attribute_table,
                           load_features, load_labels, load_source, load_target,
                           read_dataclass, read_kv, save_attribute_table, save_dataset,
                           save_labels, synth_generate, write_file, write_kv)
from srosda.evaluation import MetricsReport, save_report
from srosda.exceptions import (ContractError, DataError, FormatError,
                               GenerationError)
from srosda.model import init_params, save_checkpoint
from srosda.numkernel import make_rng
from srosda.objective import BatchLossReport
from srosda.separation import PseudoState, dump_pseudo_state
from srosda.trainer import TrainConfig, TrainHistory, save_history


# ---------------------------------------------------------------------------
# dataset containers

def test_source_dataset_validation():
    feats = np.zeros((4, 3))
    table = np.array([[0, 1], [1, 0]])
    SourceDataset(features=feats, labels=np.array([0, 1, 0, 1]),
                  attr_table_seen=table)
    with pytest.raises(DataError):
        SourceDataset(features=feats, labels=np.array([0, 1, 0, 2]),
                      attr_table_seen=table)
    with pytest.raises(DataError):
        SourceDataset(features=feats, labels=np.array([0, 1, 0, 1]),
                      attr_table_seen=np.array([[0, 2], [1, 0]]))
    with pytest.raises(DataError):
        SourceDataset(features=feats * np.nan, labels=np.array([0, 1, 0, 1]),
                      attr_table_seen=table)
    # one label per feature row, also for a dataset built in code
    with pytest.raises(DataError, match="mismatch"):
        SourceDataset(features=feats, labels=np.array([0, 1, 0, 1, 0]),
                      attr_table_seen=table)


def test_target_eval_validation():
    table = np.array([[0, 1], [1, 0], [1, 1]])
    TargetEval(labels=np.array([0, 2, 1]), attr_table_full=table)
    TargetEval(labels=np.empty(0, dtype=np.int64), attr_table_full=table)
    for labels in ([0, -1, 1], [3, 0, 1]):
        with pytest.raises(DataError, match="eval label"):
            TargetEval(labels=np.array(labels), attr_table_full=table)
    with pytest.raises(DataError, match="0/1"):
        TargetEval(labels=np.array([0, 1]),
                   attr_table_full=np.array([[0, 1], [1, 2]]))
    # one eval label per target row
    TargetDataset(features=np.zeros((3, 2)),
                  eval_data=TargetEval(labels=np.array([0, 2, 1]),
                                       attr_table_full=table))
    for n_rows in (2, 4):
        with pytest.raises(DataError, match="mismatch"):
            TargetDataset(features=np.zeros((n_rows, 2)),
                          eval_data=TargetEval(labels=np.array([0, 2, 1]),
                                               attr_table_full=table))


@pytest.mark.parametrize("labels", [
    np.array([0.0, 1.0, 0.0, 1.0]), np.array([[0], [1], [0], [1]]),
    np.array([True, False, True, False]), np.array(1),
])
def test_dataset_labels_must_be_1d_integers(labels):
    table = np.array([[0, 1], [1, 0]])
    with pytest.raises(DataError, match="source labels must be a 1-D integer"):
        SourceDataset(features=np.zeros((4, 3)), labels=labels,
                      attr_table_seen=table)
    with pytest.raises(DataError, match="eval labels must be a 1-D integer"):
        TargetEval(labels=labels, attr_table_full=table)


@pytest.mark.parametrize("shape", [(8,), (2, 4, 1)], ids=["1-D", "3-D"])
def test_datasets_refuse_non_2d_arrays(shape):
    bad = np.zeros(shape)
    labels = np.zeros(shape[0], dtype=np.int64)
    table = np.array([[0, 1], [1, 0]])
    with pytest.raises(DataError, match="source features must be a 2-D"):
        SourceDataset(features=bad, labels=labels, attr_table_seen=table)
    with pytest.raises(DataError, match="source attribute table must be a 2-D"):
        SourceDataset(features=np.zeros((shape[0], 3)), labels=labels,
                      attr_table_seen=bad.astype(np.int64))
    with pytest.raises(DataError, match="eval attribute table must be a 2-D"):
        TargetEval(labels=labels, attr_table_full=bad.astype(np.int64))
    with pytest.raises(DataError, match="target features must be a 2-D"):
        TargetDataset(bad)


def test_sample_attributes():
    src = SourceDataset(features=np.zeros((3, 2)), labels=np.array([1, 0, 1]),
                        attr_table_seen=np.array([[0, 0, 1], [1, 1, 0]]))
    rows = src.sample_attributes()
    assert np.array_equal(rows, [[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert rows.dtype == np.float64


# ---------------------------------------------------------------------------
# synthetic generation

def test_synth_shapes_and_annotations():
    spec = SynthSpec(k_s=4, k=2, d_x=8, d_a=8, n_source_per_class=5,
                     n_target_per_class=7, seed=0)
    src, tgt = synth_generate(spec)
    assert src.features.shape == (20, 8)
    assert np.array_equal(np.bincount(src.labels), [5] * 4)
    assert src.attr_table_seen.shape == (4, 8)
    assert tgt.features.shape == (42, 8)
    assert tgt.eval_data.labels.shape == (42,)
    assert tgt.eval_data.attr_table_full.shape == (6, 8)
    # source table is the seen prefix of the full table
    assert np.array_equal(tgt.eval_data.attr_table_full[:4], src.attr_table_seen)


def test_synth_deterministic():
    spec = default_synth_spec(seed=11)
    a = synth_generate(spec)
    b = synth_generate(spec)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)
    c = synth_generate(replace(spec, seed=12))
    assert not np.array_equal(a[1].features, c[1].features)


def test_synth_cluster_separation():
    spec = SynthSpec(k_s=3, k=2, d_x=16, d_a=8, n_source_per_class=4,
                     n_target_per_class=4, cluster_spread=0.5, seed=1)
    _, tgt = synth_generate(spec)
    labels = tgt.eval_data.labels
    protos = np.stack([tgt.features[labels == c].mean(axis=0)
                       for c in range(5)])
    d = np.sqrt(((protos[:, None] - protos[None]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    # empirical class means stay separated on the rescaled prototype scale
    assert d.min() > 4.0 * spec.cluster_spread


def test_synth_attr_table_hamming():
    spec = SynthSpec(k_s=5, k=3, d_x=8, d_a=12, n_source_per_class=2,
                     n_target_per_class=2, min_attr_hamming=3,
                     unseen_flip_bits=3, seed=2)
    _, tgt = synth_generate(spec)
    table = tgt.eval_data.attr_table_full
    diff = (table[:, None, :] != table[None, :, :]).sum(axis=2)
    np.fill_diagonal(diff, 99)
    assert diff.min() >= 3


def test_synth_infeasible_attr_space():
    # 4 distinct classes cannot fit in 1 attribute bit
    spec = SynthSpec(k_s=3, k=1, d_x=4, d_a=1, n_source_per_class=2,
                     n_target_per_class=2, min_attr_hamming=1,
                     unseen_flip_bits=1, seed=0)
    with pytest.raises(GenerationError):
        synth_generate(spec)


def test_synth_spec_validation():
    good = default_synth_spec()
    good.validate()
    with pytest.raises(ContractError):
        replace(good, k=0).validate()
    with pytest.raises(ContractError):
        replace(good, n_source_per_class=0).validate()
    with pytest.raises(ContractError):
        replace(good, unseen_flip_bits=1, min_attr_hamming=2).validate()
    with pytest.raises(ContractError):
        replace(good, unseen_flip_bits=good.d_a + 1).validate()


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("d_x", 0), ("d_x", -2),
    ("cluster_spread", float("nan")), ("cluster_spread", 0.0),
    ("cluster_spread", float("inf")), ("bias_magnitude", -0.1),
    ("bias_magnitude", float("nan")), ("noise_level", float("inf")),
    ("noise_level", -1.0), ("rotation_angle", float("nan")),
    ("rotation_angle", float("-inf")),
])
def test_synth_spec_validation_rejects_out_of_range(field, value):
    with pytest.raises(ContractError, match=field):
        replace(default_synth_spec(), **{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("n_source_per_class", 2.5), ("d_a", 12.0), ("k", 3.0), ("k_s", True),
    ("seed", np.float64(7)), ("cluster_spread", "1.0"), ("noise_level", None),
])
def test_synth_spec_validation_rejects_wrong_type(field, value):
    with pytest.raises(ContractError, match=f"{field} must be"):
        synth_generate(replace(default_synth_spec(), **{field: value}))


def test_synth_overflow_is_generation_error():
    spec = replace(default_synth_spec(), n_source_per_class=2,
                   n_target_per_class=2, cluster_spread=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GenerationError, match="overflow"):
            synth_generate(spec)


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# any value of each field, in range or past its edges
PAST_EDGES = {
    **{name: st.integers(-3, 12) for name in (
        "k_s", "k", "d_x", "d_a", "n_source_per_class", "n_target_per_class",
        "min_attr_hamming", "unseen_flip_bits")},
    **{name: st.floats(-10.0, 10.0) | NON_FINITE for name in (
        "cluster_spread", "rotation_angle", "bias_magnitude", "noise_level")},
    "seed": st.integers(-2**32, -1) | st.integers(0, 2**32),
}


@st.composite
def fuzz_specs(draw):
    """An in-range spec with up to two fields pushed anywhere, so that both
    sides of validate() are reached."""
    d_a = draw(st.integers(4, 8))
    min_hamming = draw(st.integers(1, 2))
    fields = dict(
        k_s=draw(st.integers(1, 4)), k=draw(st.integers(1, 3)),
        d_x=draw(st.integers(1, 8)), d_a=d_a,
        n_source_per_class=draw(st.integers(1, 4)),
        n_target_per_class=draw(st.integers(1, 4)),
        cluster_spread=draw(st.floats(0.0, 10.0, exclude_min=True)),
        rotation_angle=draw(st.floats(-10.0, 10.0)),
        bias_magnitude=draw(st.floats(0.0, 10.0)),
        noise_level=draw(st.floats(0.0, 10.0)),
        min_attr_hamming=min_hamming,
        unseen_flip_bits=draw(st.integers(min_hamming, min_hamming + 1)),
        seed=draw(st.integers(0, 2**32)))
    for name in draw(st.sets(st.sampled_from(sorted(PAST_EDGES)), max_size=2)):
        fields[name] = draw(PAST_EDGES[name])
    return SynthSpec(**fields)


@given(fuzz_specs())
@settings(max_examples=50, deadline=None)
def test_validated_spec_generates_or_refuses(spec):
    """A spec that validate() accepts gives finite datasets of the declared
    shapes or raises GenerationError; synth_generate refuses any other."""
    try:
        spec.validate()
    except ContractError:
        with pytest.raises(ContractError):
            synth_generate(spec)
        return
    try:
        source, target = synth_generate(spec)
    except GenerationError:
        return
    n_s, n_t = spec.k_s * spec.n_source_per_class, spec.k_t * spec.n_target_per_class
    assert source.features.shape == (n_s, spec.d_x)
    assert target.features.shape == (n_t, spec.d_x)
    assert source.labels.shape == (n_s,) and target.eval_data.labels.shape == (n_t,)
    assert source.attr_table_seen.shape == (spec.k_s, spec.d_a)
    assert target.eval_data.attr_table_full.shape == (spec.k_t, spec.d_a)
    assert np.all(np.isfinite(source.features))
    assert np.all(np.isfinite(target.features))


def test_synth_zero_rotation_is_identity():
    rng = make_rng(0)
    rot = dataio._rotation_matrix(rng, 6, 0.0)
    assert np.array_equal(rot, np.eye(6))
    rot = dataio._rotation_matrix(make_rng(0), 6, 0.3)
    assert np.allclose(rot @ rot.T, np.eye(6), atol=1e-12)  # orthogonal


# ---------------------------------------------------------------------------
# the one file writer

def test_write_file_data_kinds(tmp_path):
    path = tmp_path / "out"
    write_file(path, "é\n")
    assert path.read_bytes() == "é\n".encode("utf-8")
    write_file(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    write_file(path, [b"ab", np.array([1.0]), memoryview(b"c")])
    assert path.read_bytes() == b"ab" + np.array([1.0]).tobytes() + b"c"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_write_file_replaces_a_symlink(tmp_path):
    target = tmp_path / "target"
    target.write_text("old")
    link = tmp_path / "link"
    link.symlink_to(target)
    write_file(link, "new")
    assert not link.is_symlink() and link.read_text() == "new"
    assert target.read_text() == "old"


TINY_SPEC = SynthSpec(k_s=2, k=1, d_x=4, d_a=6, n_source_per_class=3,
                      n_target_per_class=3, seed=6)


def _report(v):
    return MetricsReport(os=v, os_star=v, os_diamond=v, s=v, u=v, h=v,
                         confusion=np.ones((2, 2), dtype=np.int64), tau=0.5,
                         epochs=1, seed=0, attr_pr=[(v, 1.0)])


def _pseudo(v):
    return PseudoState(pseudo_label=np.array([v]), confidence=np.array([1.0]),
                       tau=0.5, seen_mask=np.array([True]),
                       centers=np.zeros((1, 1)), used_fallback=False)


# each writer, called with version 0 or 1 of its content
WRITERS = {
    "features": lambda path, v: save_features(np.full((2, 3), float(v)), path),
    "dataset": lambda path, v: save_dataset(
        *synth_generate(replace(TINY_SPEC, seed=v)), path),
    "labels": lambda path, v: save_labels([v, 1], path),
    "attributes": lambda path, v: save_attribute_table([[v, 1]], path),
    "report": lambda path, v: save_report(_report(float(v)), path),
    "run_record": lambda path, v: write_kv(
        fields_to_kv(TrainConfig(k=1, seed=v)) + [("tau", "0.5")], path),
    "checkpoint": lambda path, v: save_checkpoint(init_params(2, 2, 1, seed=v), path),
    "history": lambda path, v: save_history(
        TrainHistory(epochs=[BatchLossReport(*[1.0] * 6)] * v), path),
    "pseudo": lambda path, v: dump_pseudo_state(_pseudo(v), path),
}


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, writer):
    write = WRITERS[writer]
    path = tmp_path / "out"
    write(path, 0)
    before = _files(tmp_path)

    def full_disk(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError, match="no space"):
        write(path, 1)
    # the previous file is byte-equal, and no temp file is left
    assert _files(tmp_path) == before
    monkeypatch.undo()
    write(path, 1)
    assert _files(tmp_path).keys() == before.keys()
    assert _files(tmp_path) != before


# ---------------------------------------------------------------------------
# feature file format

def test_feature_round_trip(tmp_path):
    m = make_rng(0).normal(size=(5, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f.sros"
    save_features(m, path)
    out = load_features(path)
    assert np.array_equal(out, m)
    path2 = tmp_path / "f2.sros"
    save_features(out, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_feature_float32_overflow_writes_nothing(tmp_path):
    f32_max = float(np.finfo(np.float32).max)
    path = tmp_path / "f.sros"
    save_features(np.array([[f32_max, -f32_max]]), path)
    assert np.array_equal(load_features(path), [[f32_max, -f32_max]])
    for big in (1e39, -1e39, np.nextafter(f32_max, np.inf) * 1.001):
        bad = tmp_path / "bad.sros"
        with pytest.raises(DataError, match="float32"):
            save_features(np.array([[0.0, big]]), bad)
        assert not bad.exists()
    # a dataset whose target features overflow leaves no directory behind
    spec = SynthSpec(k_s=2, k=1, d_x=4, d_a=6, n_source_per_class=3,
                     n_target_per_class=3, seed=6)
    src, tgt = synth_generate(spec)
    huge = dataio.TargetDataset(features=tgt.features * 1e38,
                                eval_data=tgt.eval_data)
    with pytest.raises(DataError, match="target features"):
        save_dataset(src, huge, tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_feature_header_layout(tmp_path):
    path = tmp_path / "f.sros"
    save_features(np.zeros((2, 3)), path)
    raw = path.read_bytes()
    assert raw[:4] == b"SROS"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 3
    assert len(raw) == 24 + 2 * 3 * 4


def test_feature_format_errors(tmp_path):
    path = tmp_path / "f.sros"
    save_features(np.zeros((2, 3)), path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad_magic.sros"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        load_features(bad)

    bad = tmp_path / "bad_version.sros"
    bad.write_bytes(bytes(raw[:4]) + (9).to_bytes(4, "little") + bytes(raw[8:]))
    with pytest.raises(FormatError, match="version"):
        load_features(bad)

    bad = tmp_path / "short.sros"
    bad.write_bytes(bytes(raw[:-4]))
    with pytest.raises(FormatError, match="payload"):
        load_features(bad)


def test_feature_every_prefix(tmp_path):
    path = tmp_path / "f.sros"
    save_features(np.ones((2, 3)), path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.sros"
    for end in range(len(raw)):
        cut.write_bytes(raw[:end])
        with pytest.raises(FormatError):
            load_features(cut)
    for end, field in [(6, "version"), (8, "shape"), (23, "shape"),
                       (24, "payload"), (47, "payload")]:
        cut.write_bytes(raw[:end])
        with pytest.raises(FormatError, match=field):
            load_features(cut)


# ---------------------------------------------------------------------------
# labels and attribute tables

def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(np.array([3, 0, 2]), path)
    assert path.read_text() == "3\n0\n2\n"
    assert np.array_equal(load_labels(path), [3, 0, 2])
    (tmp_path / "bad.txt").write_text("1\nx\n")
    with pytest.raises(FormatError, match="line 2"):
        load_labels(tmp_path / "bad.txt")


def test_attribute_table_round_trip(tmp_path):
    table = np.array([[0, 1, 1], [1, 0, 0]])
    path = tmp_path / "attrs.csv"
    save_attribute_table(table, path)
    assert path.read_text() == "0,0,1,1\n1,1,0,0\n"
    assert np.array_equal(load_attribute_table(path), table)


def test_attribute_table_errors(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("0,0,1\n0,1,0\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_attribute_table(p)
    p.write_text("0,0,1\n2,1,0\n")
    with pytest.raises(FormatError, match="dense"):
        load_attribute_table(p)
    p.write_text("0,0,2\n")
    with pytest.raises(FormatError, match="non-binary"):
        load_attribute_table(p)
    p.write_text("0,0,1\n1,1\n")
    with pytest.raises(FormatError, match="ragged"):
        load_attribute_table(p)


# ---------------------------------------------------------------------------
# dataset directory round trip

def test_dataset_directory_round_trip(tmp_path):
    spec = SynthSpec(k_s=3, k=2, d_x=6, d_a=8, n_source_per_class=4,
                     n_target_per_class=5, seed=5)
    src, tgt = synth_generate(spec)
    save_dataset(src, tgt, tmp_path)
    src2 = load_source(tmp_path)
    tgt2 = load_target(tmp_path, with_eval=True)
    # float32 storage round trip
    assert np.array_equal(src2.features,
                          src.features.astype(np.float32).astype(np.float64))
    assert np.array_equal(src2.labels, src.labels)
    assert np.array_equal(src2.attr_table_seen, src.attr_table_seen)
    assert np.array_equal(tgt2.eval_data.labels, tgt.eval_data.labels)
    assert np.array_equal(tgt2.eval_data.attr_table_full,
                          tgt.eval_data.attr_table_full)
    # training path never loads eval annotations unless asked
    assert load_target(tmp_path).eval_data is None


def test_dataset_without_eval_removes_stale_eval_files(tmp_path):
    spec = SynthSpec(k_s=3, k=2, d_x=6, d_a=8, n_source_per_class=4,
                     n_target_per_class=5, seed=0)
    src, tgt = synth_generate(spec)
    save_dataset(src, tgt, tmp_path)
    src1, tgt1 = synth_generate(replace(spec, seed=1))
    save_dataset(src1, TargetDataset(features=tgt1.features), tmp_path)
    assert not (tmp_path / dataio.EVAL_LABELS).exists()
    assert not (tmp_path / dataio.EVAL_ATTRS).exists()
    # seed 1's features never load beside seed 0's eval annotations
    with pytest.raises(FileNotFoundError):
        load_target(tmp_path, with_eval=True)
    assert load_target(tmp_path).features.tobytes() == \
        tgt1.features.astype(np.float32).astype(np.float64).tobytes()


def test_load_source_length_mismatch(tmp_path):
    spec = SynthSpec(k_s=2, k=1, d_x=4, d_a=6, n_source_per_class=3,
                     n_target_per_class=3, seed=6)
    src, tgt = synth_generate(spec)
    save_dataset(src, tgt, tmp_path)
    save_labels(np.array([0, 1]), tmp_path / "source_labels.txt")
    with pytest.raises(DataError, match="mismatch"):
        load_source(tmp_path)


# ---------------------------------------------------------------------------
# key = value files

def test_kv_round_trip(tmp_path):
    path = tmp_path / "kv.txt"
    write_kv([("alpha", 0.5), ("name", "x")], path)
    assert path.read_text() == "alpha = 0.5\nname = x\n"
    assert read_kv(path) == [("alpha", "0.5"), ("name", "x")]
    path.write_text("# comment\n\nkey = value\n")
    assert read_kv(path) == [("key", "value")]
    path.write_text("no separator here\n")
    with pytest.raises(FormatError):
        read_kv(path)
    path.write_text("a = 1\n# a = 3\n\nb = 2\n a = 1\n")
    with pytest.raises(FormatError, match="key 'a' is given more than once at line 5"):
        read_kv(path)


@pytest.mark.parametrize("cls, lines", [
    (SynthSpec, "k_s = 3\nk = 2\nd_x = 8\nd_a = 8\nn_source_per_class = 4\n"
                "n_target_per_class = 4\nd_x = 16\n"),
    (TrainConfig, "k = 3\nseed = 3\nk = 2\n"),
], ids=["spec", "train_config"])
def test_read_dataclass_rejects_repeated_key(tmp_path, cls, lines):
    path = tmp_path / "kv.txt"
    path.write_text(lines)
    repeated = lines.splitlines()[-1].split(" = ")[0]
    with pytest.raises(FormatError, match=f"'{repeated}' is given more than once"):
        read_dataclass(path, cls)
