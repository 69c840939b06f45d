import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srosda
from conftest import copy_params
from srosda import model, trainer
from srosda.dataio import (SynthSpec, TargetDataset, fields_to_kv,
                           synth_generate, write_kv)
from srosda.evaluation import compute_report, save_report
from srosda.exceptions import (ConfigError, DataError, ProtocolError,
                               TrainingError)
from srosda.model import LAYER_NAMES, ModelParams, init_params
from srosda.numkernel import make_rng
from srosda.trainer import (BETA_MAX, TrainConfig, load_config, make_batches,
                            refresh_pseudo, save_history, sgd_step, train)

SPEC = SynthSpec(k_s=3, k=2, d_x=8, d_a=8, n_source_per_class=8,
                 n_target_per_class=8, seed=9)


def small_cfg(**kw):
    defaults = dict(k=2, epochs=2, batch_size=16, seed=3, refresh_period=2,
                    separation_rounds=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_config_validation():
    small_cfg().validate()
    # the edges of each range stay valid
    small_cfg(beta=0.0, alpha=0.0, lambda1=0.0, lambda2=0.0,
              separation_rounds=0).validate()
    small_cfg(alpha=1.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(batch_size=1).validate()
    with pytest.raises(ConfigError):
        small_cfg(lr=0.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(epochs=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(refresh_period=0).validate()


@pytest.mark.parametrize("field, value", [
    ("beta", 1.0), ("beta", -0.1), ("beta", float("nan")),
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -1e-3),
    ("alpha", 2.0), ("alpha", -0.5),
    ("lambda1", float("inf")), ("lambda1", -1.0),
    ("lambda2", -1.0), ("lambda2", float("nan")),
    ("separation_rounds", -1), ("seed", -1),
    ("beta", float(np.nextafter(BETA_MAX, 1.0))), ("batch_size", 513),
])
def test_config_validation_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        small_cfg(**{field: value}).validate()


def test_config_round_trip(tmp_path):
    cfg = small_cfg(lr=0.01, use_prop=False, lambda1=0.5)
    path = tmp_path / "cfg.txt"
    write_kv(fields_to_kv(cfg), path)
    loaded = load_config(path)
    assert loaded == cfg
    path.write_text("k = 2\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("epochs = 5\n")
    with pytest.raises(ConfigError, match="k"):
        load_config(path)
    path.write_text("k = 2\nuse_ld = yes\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_repeated_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("k = 2\nepochs = 5\nlr = 0.01\nepochs = 100\n")
    with pytest.raises(ConfigError, match="'epochs' is given more than once"):
        load_config(path)


def test_load_config_rejects_malformed_value(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("k = 2\nepochs = 1.5\n")
    with pytest.raises(ConfigError, match="epochs"):
        load_config(path)


def test_config_batch_size_limited_by_propagation_inverse():
    small_cfg(batch_size=512).validate()
    with pytest.raises(ConfigError, match="batch_size"):
        small_cfg(batch_size=513).validate()
    # without propagation no inverse is taken, so a wider batch still trains
    cfg = small_cfg(batch_size=600, use_prop=False, epochs=1)
    cfg.validate()
    src, tgt = synth_generate(SPEC)
    _, history, _ = train(cfg, src, tgt.features)
    assert len(history.epochs) == 1 and np.isfinite(history.epochs[0].total)


def test_config_beta_limited_by_propagation_condition():
    small_cfg(beta=BETA_MAX).validate()
    with pytest.raises(ConfigError, match="beta"):
        small_cfg(beta=float(np.nextafter(BETA_MAX, 1.0))).validate()
    # at the limit the propagation inverse of any batch width is accepted
    src, tgt = synth_generate(SPEC)
    for batch_size in (2, 16, 512):
        train(small_cfg(beta=BETA_MAX, batch_size=batch_size, epochs=1), src,
              tgt.features)


def test_train_rejects_k_above_target_count():
    src, tgt = synth_generate(SPEC)
    n = tgt.features.shape[0]
    small_cfg(k=n).validate(n_target=n)
    with pytest.raises(ConfigError, match=f"k = {n + 1} "):
        train(small_cfg(k=n + 1, epochs=1), src, tgt.features)


FUZZ_DATA = synth_generate(SynthSpec(k_s=3, k=2, d_x=8, d_a=8,
                                     n_source_per_class=4,
                                     n_target_per_class=4, seed=9))


def edge_or_between(lo, hi):
    return st.sampled_from([lo, hi]) | st.floats(lo, hi)


@st.composite
def fuzz_configs(draw):
    """Each field over its valid range, edges included, in the shipped
    regime and out to the float limits: k up to the 20 target rows, beta up
    to BETA_MAX and, with propagation, batch_size up to 512. The values just
    outside these ranges are rejection cases of
    ``test_config_validation_rejects_out_of_range`` and
    ``test_train_rejects_k_above_target_count``."""
    use_prop = draw(st.booleans())
    return TrainConfig(
        k=draw(st.integers(1, 20)),
        lr=draw(st.floats(0.0, 1.0, exclude_min=True)
                | st.floats(0.0, exclude_min=True, allow_infinity=False)),
        epochs=1,
        batch_size=draw(st.integers(2, 512 if use_prop else 600)),
        lambda1=draw(edge_or_between(0.0, 10.0) | edge_or_between(0.0, 1e308)),
        lambda2=draw(edge_or_between(0.0, 10.0) | edge_or_between(0.0, 1e308)),
        alpha=draw(edge_or_between(0.0, 1.0)),
        beta=draw(edge_or_between(0.0, BETA_MAX)),
        seed=draw(st.integers(0, 2**32)),
        refresh_period=draw(st.integers(1, 3)),
        separation_rounds=draw(st.integers(0, 6)),
        use_lr=draw(st.booleans()), use_ld=draw(st.booleans()),
        use_prop=use_prop, use_fusion=draw(st.booleans()))


@given(fuzz_configs())
@settings(max_examples=25, deadline=None)
def test_validated_config_never_crashes(cfg):
    """A valid config trains one epoch and reports. Training may stop only
    with the error that reports what the optimization did: divergence
    (TrainingError). Parameters that stayed finite but grew huge may
    overflow in the report's forward (DataError)."""
    src, tgt = FUZZ_DATA
    cfg.validate(n_target=tgt.features.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            params, _, pseudo = train(cfg, src, tgt.features)
        except TrainingError:
            return
        try:
            report = compute_report(params, tgt, tau=pseudo.tau, epochs=1,
                                    seed=cfg.seed)
        except DataError:
            return
    assert report.confusion.sum() == tgt.features.shape[0]


@pytest.mark.parametrize("overrides, message", [
    # an overflowed activation reaches a finiteness check inside a step
    (dict(lr=0.1, batch_size=2), "epoch 0, batch"),
    # the last step overflows the parameters themselves
    (dict(lr=2.1e307, lambda2=8.8e30), "final"),
])
def test_divergence_raises_training_error(overrides, message):
    src, tgt = FUZZ_DATA
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=message):
            train(TrainConfig(k=2, epochs=1, **overrides), src, tgt.features)


def test_train_rejects_non_finite_inputs():
    # checked on entry, so a DataError is not mistaken for divergence later
    src, tgt = FUZZ_DATA
    features = tgt.features.copy()
    features[3, 1] = np.nan
    with pytest.raises(DataError, match="target features"):
        train(small_cfg(epochs=1), src, features)


def test_make_batches_partition():
    rng = make_rng(0)
    batches = make_batches(20, 30, 8, rng)
    s_all = np.concatenate([s for s, _ in batches])
    t_all = np.concatenate([t for _, t in batches])
    assert sorted(s_all.tolist()) == list(range(20))
    assert sorted(t_all.tolist()) == list(range(30))
    for s, t in batches:
        assert s.size <= 4 and t.size <= 4
    # longer stream spills into single-domain batches at the end
    tail = [b for b in batches if b[0].size == 0]
    assert len(tail) > 0 and all(t.size > 0 for _, t in tail)


def test_make_batches_seeded():
    a = make_batches(10, 10, 4, make_rng(1))
    b = make_batches(10, 10, 4, make_rng(1))
    for (s1, t1), (s2, t2) in zip(a, b):
        assert np.array_equal(s1, s2) and np.array_equal(t1, t2)


def test_sgd_step_linear():
    params = init_params(4, 3, 2, seed=0)
    before = copy_params(params)
    arrays = dict(params.arrays)
    grads = {n: np.ones_like(params.arrays[n]) for n in LAYER_NAMES}
    assert sgd_step(params, grads, 0.5) is None
    for n in LAYER_NAMES:
        assert params.arrays[n] is arrays[n]  # updated in place
        assert np.allclose(params.arrays[n], before.arrays[n] - 0.5, atol=1e-15)
        assert np.array_equal(grads[n], np.ones_like(grads[n]))
    with pytest.raises(KeyError, match="c_b2"):
        sgd_step(params, {n: g for n, g in grads.items() if n != "c_b2"}, 0.5)
    grads["gz_w1"] = grads["gz_w1"] * np.nan
    with pytest.raises(TrainingError):
        sgd_step(params, grads, 0.5)


def test_sgd_step_checks_every_gradient_before_writing():
    params = init_params(4, 3, 2, seed=0)
    before = {n: a.tobytes() for n, a in params.arrays.items()}
    grads = {n: np.ones_like(params.arrays[n]) for n in LAYER_NAMES}
    assert LAYER_NAMES[-1] == "d_b2"
    grads["d_b2"][1] = np.nan
    with pytest.raises(TrainingError, match="d_b2"):
        sgd_step(params, grads, 0.5)
    assert {n: a.tobytes() for n, a in params.arrays.items()} == before


def test_refresh_pseudo_spaces():
    src, tgt = synth_generate(SPEC)
    params = init_params(SPEC.d_x, SPEC.d_a, SPEC.k_s, seed=0)
    cfg = small_cfg()
    state_x, rz, attrs = refresh_pseudo(params, src, tgt.features, cfg, space="x")
    assert state_x.pseudo_label.shape == (tgt.features.shape[0],)
    assert rz.means.shape == (SPEC.k_s + cfg.k, 512)
    assert attrs.shape == (tgt.features.shape[0], SPEC.d_a)
    # seen targets carry their pseudo class's attribute row, unseen all zeros
    seen = state_x.seen_mask
    assert np.array_equal(attrs[seen],
                          src.attr_table_seen[state_x.pseudo_label[seen]])
    assert np.all(attrs[~seen] == 0.0)
    state_z, _, _ = refresh_pseudo(params, src, tgt.features, cfg, space="z")
    assert state_z.pseudo_label.shape == state_x.pseudo_label.shape
    with pytest.raises(ConfigError):
        refresh_pseudo(params, src, tgt.features, cfg, space="y")


def test_refresh_then_report_embeds_target_once(monkeypatch, tmp_path):
    src, tgt = synth_generate(SPEC)
    params = init_params(SPEC.d_x, SPEC.d_a, SPEC.k_s, seed=0)
    n_t = tgt.features.shape[0]
    assert n_t != src.features.shape[0]
    model._kept = None
    alone = tmp_path / "alone.txt"
    save_report(compute_report(params, tgt, tau=0.5, epochs=0, seed=0), alone)

    rows = []
    plain = model.tape_forward_gz

    def counted(pt, x):
        rows.append(x.shape[0])
        return plain(pt, x)

    monkeypatch.setattr(model, "tape_forward_gz", counted)
    refresh_pseudo(params, src, tgt.features, small_cfg(), space="z")
    shared = tmp_path / "shared.txt"
    save_report(compute_report(params, tgt, tau=0.5, epochs=0, seed=0), shared)
    # the source and the target once: the report took the refresh's embedding
    assert rows == [src.features.shape[0], n_t]
    assert model._kept is None
    assert shared.read_bytes() == alone.read_bytes()


def test_train_keeps_no_embedding():
    src, tgt = synth_generate(SPEC)
    model._kept = None
    train(small_cfg(epochs=3), src, tgt.features)
    assert model._kept is None


def test_train_smoke_and_history(monkeypatch):
    src, tgt = synth_generate(SPEC)
    cfg = small_cfg(epochs=3)
    events = []
    refresh = trainer.refresh_pseudo

    def recorded_refresh(*args, space, **kwargs):
        events.append(("refresh", space))
        return refresh(*args, space=space, **kwargs)

    monkeypatch.setattr(trainer, "refresh_pseudo", recorded_refresh)
    params, history, pseudo = train(
        cfg, src, tgt.features,
        on_epoch=lambda e, r: events.append(("epoch", e)))
    # raw features before epoch 0, then z every refresh_period (2) epochs
    assert events == [("refresh", "x"), ("epoch", 0), ("epoch", 1),
                      ("refresh", "z"), ("epoch", 2)]
    assert len(history.epochs) == 3
    assert len(history.params_checksum) == 64
    assert np.isfinite(pseudo.tau)
    for r in history.epochs:
        recomputed = (r.l_c + r.l_d + cfg.lambda1 * (r.l_r_source + r.l_r_target)
                      + cfg.lambda2 * r.l_a)
        assert r.total == pytest.approx(recomputed, abs=1e-12)
    assert isinstance(params, ModelParams)
    assert pseudo.pseudo_label.shape == (tgt.features.shape[0],)


def test_train_deterministic():
    src, tgt = synth_generate(SPEC)
    cfg = small_cfg(epochs=2)
    p1, h1, _ = train(cfg, src, tgt.features)
    p2, h2, _ = train(cfg, src, tgt.features)
    assert h1.params_checksum == h2.params_checksum
    for n in LAYER_NAMES:
        assert np.array_equal(p1.arrays[n], p2.arrays[n])
    p3, h3, _ = train(small_cfg(epochs=2, seed=4), src, tgt.features)
    assert h3.params_checksum != h1.params_checksum


def test_train_decreases_loss():
    src, tgt = synth_generate(SPEC)
    cfg = small_cfg(epochs=8, refresh_period=4)
    _, history, _ = train(cfg, src, tgt.features)
    assert history.epochs[-1].total < history.epochs[0].total


def test_save_history_format(tmp_path):
    src, tgt = synth_generate(SPEC)
    _, history, _ = train(small_cfg(epochs=2), src, tgt.features)
    path = tmp_path / "history.csv"
    save_history(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,l_c,l_d,l_r_s,l_r_t,l_a,total"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[-1]) == pytest.approx(history.epochs[0].total)


# trains 2 epochs of the default spec and prints the checksum, the report and
# the BLAS thread count in effect after the run (None without a control)
THREADS_CHILD = """
import json
from srosda import compute_report, default_synth_spec, synth_generate, train
from srosda.numkernel import _blas_thread_control
from srosda.trainer import TrainConfig
src, tgt = synth_generate(default_synth_spec(seed=7))
cfg = TrainConfig(k=3, epochs=2, seed=7)
params, history, pseudo = train(cfg, src, tgt.features)
rep = compute_report(params, tgt, tau=pseudo.tau, epochs=cfg.epochs,
                     seed=cfg.seed)
control = _blas_thread_control()
print(json.dumps({
    "checksum": history.params_checksum,
    "scalars": [repr(getattr(rep, f)) for f in
                ("os", "os_star", "os_diamond", "s", "u", "h", "tau")],
    "confusion": rep.confusion.tolist(),
    "threads": control[0]() if control else None}))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one core cannot show a thread-count dependence")
def test_train_and_report_independent_of_blas_threads():
    src_dir = os.path.dirname(os.path.dirname(srosda.__file__))
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", THREADS_CHILD], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        # the caller's thread count is back in place after the pinned calls
        assert result.pop("threads") in (None, int(threads))
        results.append(result)
    assert results[0]["checksum"] == results[1]["checksum"]
    assert results[0]["scalars"] == results[1]["scalars"]
    assert results[0]["confusion"] == results[1]["confusion"]


def test_entry_points_restore_blas_threads(two_blas_threads):
    get = two_blas_threads
    src, tgt = synth_generate(SPEC)
    cfg = small_cfg(epochs=1)
    params, _, pseudo = train(cfg, src, tgt.features)
    assert get() == 2
    with pytest.raises(ConfigError):
        train(small_cfg(lr=0.0), src, tgt.features)
    assert get() == 2
    refresh_pseudo(params, src, tgt.features, cfg, space="z")
    assert get() == 2
    with pytest.raises(ConfigError):
        refresh_pseudo(params, src, tgt.features, cfg, space="y")
    assert get() == 2
    compute_report(params, tgt, tau=pseudo.tau, epochs=1, seed=0)
    assert get() == 2
    with pytest.raises(ProtocolError):
        compute_report(params, TargetDataset(tgt.features), tau=0.5,
                       epochs=1, seed=0)
    assert get() == 2
