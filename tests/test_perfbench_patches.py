"""The benchmark's tracer (``perfbench/spans.py``) patches srosda functions
from outside the package; every (module, attribute) it names must exist, or
traced benchmark runs break on a rename, and must be called by the pipeline,
or a refactor that bypasses it (a call by another name, an inlined function)
leaves its layer silently empty."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from srosda import evaluation, trainer
from srosda.dataio import SynthSpec, synth_generate

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    return spans.PATCHES


def resolve(module, attr):
    """(owner, attribute name): the same lookup ``Tracer.install`` uses."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def test_every_patch_point_resolves():
    for module, attr, _, _ in load_patches():
        owner, name = resolve(module, attr)
        assert name in owner.__dict__, f"{module}: no {attr}"
        assert callable(owner.__dict__[name])


def counted(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_patch_point_is_called(monkeypatch):
    # one counter per (module, attribute) entry, not per layer name: two
    # entries each share model.forward_gz and separation.predict_all
    counts = Counter()
    entries = [(module, attr) for module, attr, _, _ in load_patches()]
    for entry in entries:
        owner, name = resolve(*entry)
        monkeypatch.setattr(owner, name, counted(counts, entry, owner.__dict__[name]))

    src, tgt = synth_generate(SynthSpec(k_s=3, k=2, d_x=8, d_a=8,
                                        n_source_per_class=8,
                                        n_target_per_class=8, seed=9))
    cfg = trainer.TrainConfig(k=2, epochs=2, batch_size=16, seed=3,
                              refresh_period=1, separation_rounds=2)
    params, _, _ = trainer.train(cfg, src, tgt.features)
    state, _, _ = trainer.refresh_pseudo(params, src, tgt.features, cfg, space="z")
    evaluation.compute_report(params, tgt, tau=state.tau, epochs=cfg.epochs,
                              seed=cfg.seed)
    assert [entry for entry in entries if counts[entry] < 1] == []
