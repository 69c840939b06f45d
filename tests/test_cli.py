import shutil

import numpy as np
import pytest

from srosda import dataio, evaluation
from srosda.cli import cli_main
from srosda.model import load_checkpoint, save_checkpoint


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
    meta = dict(dataio.read_kv(out / "train_meta.txt"))
    assert set(meta) == {"tau", "epochs", "seed", "use_fusion"}
    assert meta["use_fusion"] == "true"
    assert meta["epochs"] == "2"


def test_eval_report_contents(workspace):
    _, _, out, report_path = workspace
    report = evaluation.load_report(report_path)
    assert report.confusion.shape == (5, 4)
    assert report.epochs == 2 and report.seed == 3
    meta = dict(dataio.read_kv(out / "train_meta.txt"))
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
    meta = dict(dataio.read_kv(out / "train_meta.txt"))
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
    meta = dict(dataio.read_kv(out / "train_meta.txt"))
    assert meta["use_fusion"] == "false"
    report_path = tmp_path / "report.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data),
                     "--out", str(report_path)]) == 0
    assert report_path.read_bytes() == _scored_bytes(tmp_path, out, data,
                                                     meta, False)


def test_eval_meta_without_fusion_key_scores_fused(workspace, tmp_path):
    _, data, out, _ = workspace
    meta = dict(dataio.read_kv(out / "train_meta.txt"))
    old_meta = tmp_path / "meta.txt"
    dataio.write_kv([(k, meta[k]) for k in ("tau", "epochs", "seed")], old_meta)
    report_path = tmp_path / "report.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data),
                     "--out", str(report_path), "--meta", str(old_meta)]) == 0
    assert report_path.read_bytes() == _scored_bytes(tmp_path, out, data,
                                                     meta, True)


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


def test_eval_malformed_meta_exit(workspace, tmp_path, capsys):
    _, data, out, _ = workspace
    meta = tmp_path / "meta.txt"
    meta.write_text("tau = 0.5\nepochs = two\nseed = 3\n")
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data),
                     "--out", str(tmp_path / "r.txt"),
                     "--meta", str(meta)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epochs" in err


def test_eval_missing_explicit_meta_exit(workspace, tmp_path, capsys):
    # only the implicit meta file, in the checkpoint's directory, may be absent
    _, data, out, _ = workspace
    report_path = tmp_path / "r.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data),
                     "--out", str(report_path),
                     "--meta", str(out / "NO_SUCH_FILE.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NO_SUCH_FILE.txt" in err
    assert not report_path.exists()


def test_eval_without_meta_file_uses_defaults(workspace, tmp_path):
    _, data, out, _ = workspace
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(out / "checkpoint.bin", run / "checkpoint.bin")
    report_path = tmp_path / "r.txt"
    assert cli_main(["--quiet", "eval", "--checkpoint",
                     str(run / "checkpoint.bin"), "--data", str(data),
                     "--out", str(report_path)]) == 0
    report = evaluation.load_report(report_path)
    assert np.isnan(report.tau) and report.epochs == 0 and report.seed == 0


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
