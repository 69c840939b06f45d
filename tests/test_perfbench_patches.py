"""The benchmark's tracer (``perfbench/spans.py``) patches srosda functions
from outside the package; every (module, attribute) it names must exist, or
traced benchmark runs break on a rename."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_patch_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module, attr, _, _ in spans.PATCHES:
        owner = importlib.import_module(module)
        if "." in attr:  # the same lookup Tracer.install uses
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        assert attr in owner.__dict__, f"{module}: no {attr}"
        assert callable(owner.__dict__[attr])
