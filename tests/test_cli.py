import os
import shutil
import stat
from dataclasses import fields

import numpy as np
import pytest

from srosda import dataio, evaluation
from srosda.cli import cli_main
from srosda.model import load_checkpoint, save_checkpoint
from srosda.trainer import TrainConfig, params_checksum


def write_spec(path, **overrides):
    spec = dict(k_s=3, k=2, d_x=8, d_a=8, n_source_per_class=6,
                n_target_per_class=6, cluster_spread=0.5, seed=2)
    spec.update(overrides)
    dataio.write_kv(list(spec.items()), path)


def write_config(path, **overrides):
    cfg = dict(k=2, epochs=2, batch_size=16, seed=3, refresh_period=2,
               separation_rounds=2)
    cfg.update(overrides)
    dataio.write_kv(list(cfg.items()), path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train -> eval -> report, shared across assertions."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.txt"
    data = root / "data"
    cfg = root / "config.txt"
    out = root / "run"
    report = root / "report.txt"
    write_spec(spec)
    write_config(cfg)
    assert cli_main(["--quiet", "synth", "--spec", str(spec),
                     "--out", str(data)]) == 0
    assert cli_main(["--quiet", "train", "--config", str(cfg),
                     "--data", str(data), "--out", str(out)]) == 0
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data),
                     "--out", str(report)]) == 0
    return root, data, out, report


def test_synth_writes_dataset(workspace):
    _, data, _, _ = workspace
    src = dataio.load_source(data)
    tgt = dataio.load_target(data, with_eval=True)
    assert src.features.shape == (18, 8)
    assert tgt.features.shape == (30, 8)
    assert tgt.eval_data.attr_table_full.shape == (5, 8)


def test_train_outputs(workspace):
    _, _, out, _ = workspace
    params = load_checkpoint(out / "checkpoint.bin")
    assert params.d_x == 8 and params.k_s == 3
    history = (out / "history.csv").read_text().strip().splitlines()
    assert len(history) == 3  # header + 2 epochs
    pseudo = (out / "pseudo.tsv").read_text().strip().splitlines()
    assert pseudo[0] == "sample_id\tpseudo_label\tconfidence\tseen_flag"
    assert len(pseudo) == 31
    record = dataio.read_kv(out / "run.txt")
    assert [key for key, _ in record] == (
        [f.name for f in fields(TrainConfig)] + ["tau", "params_checksum"])
    record = dict(record)
    assert record["use_fusion"] == "true"
    assert record["epochs"] == "2" and record["seed"] == "3"
    assert record["params_checksum"] == params_checksum(params)


def test_run_files_share_the_umask_mode(workspace, tmp_path):
    root, _, _, _ = workspace
    data, out = tmp_path / "data", tmp_path / "run"
    before = os.umask(0o022)
    try:
        assert cli_main(["--quiet", "synth", "--spec", str(root / "spec.txt"),
                         "--out", str(data)]) == 0
        assert cli_main(["--quiet", "train", "--config", str(root / "config.txt"),
                         "--data", str(data), "--out", str(out)]) == 0
        assert cli_main(["--quiet", "eval", "--checkpoint",
                         str(out / "checkpoint.bin"), "--data", str(data),
                         "--out", str(out / "report.txt")]) == 0
    finally:
        os.umask(before)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode)
             for p in tmp_path.rglob("*") if p.is_file()}
    assert len(modes) == 11
    assert modes["checkpoint.bin"] == modes["history.csv"] == 0o644
    assert set(modes.values()) == {0o644}


def test_eval_report_contents(workspace):
    _, _, out, report_path = workspace
    report = evaluation.load_report(report_path)
    assert report.confusion.shape == (5, 4)
    assert report.epochs == 2 and report.seed == 3
    meta = dict(dataio.read_kv(out / "run.txt"))
    assert report.tau == float(meta["tau"])


def test_report_pretty_print(workspace, capsys):
    _, _, _, report_path = workspace
    assert cli_main(["report", "--in", str(report_path)]) == 0
    text = capsys.readouterr().out
    assert "OS*" in text and "semantic recovery" in text
    assert "attribute prediction" in text


def test_seed_override_changes_training(workspace, tmp_path):
    root, data, out, _ = workspace
    out2 = tmp_path / "run2"
    assert cli_main(["--quiet", "--seed", "11", "train",
                     "--config", str(root / "config.txt"),
                     "--data", str(data), "--out", str(out2)]) == 0
    p1 = load_checkpoint(out / "checkpoint.bin")
    p2 = load_checkpoint(out2 / "checkpoint.bin")
    assert not np.array_equal(p1.arrays["gz_w1"], p2.arrays["gz_w1"])


def test_eval_seed_overrides_meta(workspace, tmp_path):
    _, data, out, _ = workspace
    report_path = tmp_path / "report.txt"
    assert cli_main(["--quiet", "--seed", "5", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data),
                     "--out", str(report_path)]) == 0
    report = evaluation.load_report(report_path)
    meta = dict(dataio.read_kv(out / "run.txt"))
    assert meta["seed"] == "3"
    assert report.seed == 5
    assert report.epochs == 2 and report.tau == float(meta["tau"])


def _scored_bytes(tmp_path, out, data, meta, use_fusion):
    """Report bytes of ``compute_report`` on the run in ``out``."""
    expected = tmp_path / f"expected_{use_fusion}.txt"
    evaluation.save_report(evaluation.compute_report(
        load_checkpoint(out / "checkpoint.bin"),
        dataio.load_target(data, with_eval=True), tau=float(meta["tau"]),
        epochs=int(meta["epochs"]), seed=int(meta["seed"]),
        use_fusion=use_fusion), expected)
    return expected.read_bytes()


def test_eval_scores_without_fusion_when_trained_without(workspace, tmp_path):
    _, data, _, _ = workspace
    cfg = tmp_path / "config.txt"
    write_config(cfg, use_fusion="false")
    out = tmp_path / "run"
    assert cli_main(["--quiet", "train", "--config", str(cfg),
                     "--data", str(data), "--out", str(out)]) == 0
    meta = dict(dataio.read_kv(out / "run.txt"))
    assert meta["use_fusion"] == "false"
    report_path = tmp_path / "report.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data),
                     "--out", str(report_path)]) == 0
    assert report_path.read_bytes() == _scored_bytes(tmp_path, out, data,
                                                     meta, False)


def test_cli_error_exit_codes(tmp_path, capsys):
    # missing files -> runtime error (1)
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(tmp_path / "nope.bin"), "--data", str(tmp_path),
                     "--out", str(tmp_path / "r.txt")]) == 1
    assert "error:" in capsys.readouterr().err
    # bad config key -> 1
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k = 2\nwat = 1\n")
    assert cli_main(["--quiet", "train", "--config", str(cfg),
                     "--data", str(tmp_path), "--out", str(tmp_path)]) == 1
    # usage error -> 2
    assert cli_main(["definitely-not-a-command"]) == 2
    assert cli_main([]) == 2
    capsys.readouterr()


def test_eval_truncated_checkpoint_exit(workspace, tmp_path, capsys):
    _, data, out, _ = workspace
    cut = tmp_path / "checkpoint.bin"
    cut.write_bytes((out / "checkpoint.bin").read_bytes()[:12])
    assert cli_main(["--quiet", "eval", "--checkpoint", str(cut),
                     "--data", str(data), "--out", str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "layer count" in err


def copy_run(out, run, record=None):
    """``out``'s checkpoint in the new directory ``run``, beside a copy of
    ``record`` (``None``: no run record); returns the checkpoint path."""
    run.mkdir()
    shutil.copy(out / "checkpoint.bin", run / "checkpoint.bin")
    if record is not None:
        shutil.copy(record, run / "run.txt")
    return run / "checkpoint.bin"


def eval_error(checkpoint, data, report_path, capsys):
    """stderr of an ``eval`` that must exit 1 and write no report."""
    assert cli_main(["--quiet", "eval", "--checkpoint", str(checkpoint),
                     "--data", str(data), "--out", str(report_path)]) == 1
    assert not report_path.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def test_eval_malformed_meta_exit(workspace, tmp_path, capsys):
    _, data, out, _ = workspace
    lines = (out / "run.txt").read_text().splitlines()
    for key, bad in [("epochs", "two"), ("tau", "half")]:
        record = tmp_path / f"{key}.txt"
        record.write_text("".join(
            f"{key} = {bad}\n" if line.startswith(f"{key} =") else f"{line}\n"
            for line in lines))
        ckpt = copy_run(out, tmp_path / key, record)
        err = eval_error(ckpt, data, tmp_path / "r.txt", capsys)
        assert f"{key} = '{bad}'" in err


@pytest.mark.parametrize("key", ["seed", "tau", "params_checksum"])
def test_eval_run_record_missing_or_unknown_key_exit(workspace, tmp_path, key,
                                                     capsys):
    _, data, out, _ = workspace
    lines = (out / "run.txt").read_text().splitlines(keepends=True)
    missing, unknown = tmp_path / "missing.txt", tmp_path / "unknown.txt"
    missing.write_text("".join(line for line in lines
                               if not line.startswith(f"{key} =")))
    unknown.write_text("".join(lines) + f"{key}_extra = 1\n")
    err = eval_error(copy_run(out, tmp_path / "a", missing), data,
                     tmp_path / "r.txt", capsys)
    assert f"missing key(s) ['{key}']" in err
    err = eval_error(copy_run(out, tmp_path / "b", unknown), data,
                     tmp_path / "r.txt", capsys)
    assert f"unknown key(s) ['{key}_extra']" in err


def test_eval_checkpoint_alone_exit(workspace, tmp_path, capsys):
    _, data, out, _ = workspace
    ckpt = copy_run(out, tmp_path / "run")
    err = eval_error(ckpt, data, tmp_path / "r.txt", capsys)
    assert "run.txt" in err


def test_eval_record_of_another_run_exit(workspace, tmp_path, capsys):
    # run B's checkpoint beside run A's record, as a train that failed after
    # writing its checkpoint leaves them
    root, data, out, _ = workspace
    run_b = tmp_path / "run_b"
    assert cli_main(["--quiet", "--seed", "11", "train",
                     "--config", str(root / "config.txt"),
                     "--data", str(data), "--out", str(run_b)]) == 0
    shutil.copy(out / "run.txt", run_b / "run.txt")
    err = eval_error(run_b / "checkpoint.bin", data, tmp_path / "r.txt", capsys)
    assert "params_checksum" in err


def test_synth_infeasible_spec_exit(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    write_spec(spec, d_a=1, min_attr_hamming=1, unseen_flip_bits=1)
    assert cli_main(["--quiet", "synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    assert "error:" in capsys.readouterr().err


def test_synth_malformed_spec_value_exit(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    write_spec(spec, k_s=2.5)
    assert cli_main(["--quiet", "synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    assert "k_s" in capsys.readouterr().err


def test_synth_spec_missing_field_exit(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    write_spec(spec)
    lines = spec.read_text().splitlines()
    spec.write_text("\n".join(line for line in lines
                             if not line.startswith("d_x")))
    assert cli_main(["--quiet", "synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    assert "d_x" in capsys.readouterr().err


def test_synth_float32_overflow_exit(tmp_path, capsys):
    # the features are finite in float64 but not in the float32 file format
    spec = tmp_path / "spec.txt"
    write_spec(spec, cluster_spread=1e38)
    assert cli_main(["--quiet", "synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float32" in err
    assert not (tmp_path / "d").exists()


def test_train_repeated_config_key_exit(workspace, tmp_path, capsys):
    root, data, _, _ = workspace
    cfg = tmp_path / "cfg.txt"
    cfg.write_text((root / "config.txt").read_text() + "epochs = 100\n")
    assert cli_main(["--quiet", "train", "--config", str(cfg),
                     "--data", str(data), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'epochs'" in err
    assert not (tmp_path / "run").exists()


def test_synth_negative_seed_exit(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    write_spec(spec)
    assert cli_main(["--quiet", "--seed", "-1", "synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


def test_train_negative_seed_exit(workspace, tmp_path, capsys):
    root, data, _, _ = workspace
    assert cli_main(["--quiet", "--seed", "-1", "train",
                     "--config", str(root / "config.txt"), "--data", str(data),
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("label", [99, -1])
def test_eval_label_out_of_range_exit(workspace, tmp_path, label, capsys):
    _, data, out, _ = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    labels = dataio.load_labels(copy / dataio.EVAL_LABELS)
    labels[0] = label
    dataio.save_labels(labels, copy / dataio.EVAL_LABELS)
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(copy),
                     "--out", str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eval label" in err
    assert not (tmp_path / "r.txt").exists()


def test_eval_fewer_classes_than_model_exit(workspace, tmp_path, capsys):
    # the k_s = 3 checkpoint on a 2-class eval table
    _, data, out, _ = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    labels = dataio.load_labels(copy / dataio.EVAL_LABELS)
    dataio.save_labels(labels % 2, copy / dataio.EVAL_LABELS)
    table = dataio.load_attribute_table(copy / dataio.EVAL_ATTRS)
    dataio.save_attribute_table(table[:2], copy / dataio.EVAL_ATTRS)
    report_path = tmp_path / "r.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(copy),
                     "--out", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2 classes" in err
    assert not report_path.exists()


def test_eval_table_narrower_than_checkpoint_exit(workspace, tmp_path, capsys):
    # the d_a = 8 checkpoint on a 6-column eval table
    _, data, out, _ = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    table = dataio.load_attribute_table(copy / dataio.EVAL_ATTRS)
    dataio.save_attribute_table(table[:, :6], copy / dataio.EVAL_ATTRS)
    report_path = tmp_path / "r.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(copy),
                     "--out", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "6 columns" in err and "d_a = 8" in err
    assert not report_path.exists()


def test_eval_non_finite_checkpoint_exit(workspace, tmp_path, capsys):
    _, data, out, _ = workspace
    params = load_checkpoint(out / "checkpoint.bin")
    params.arrays["c_w2"][0, 0] = np.nan
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(params, ckpt)
    report_path = tmp_path / "r.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint", str(ckpt),
                     "--data", str(data), "--out", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "c_w2" in err
    assert not report_path.exists()
