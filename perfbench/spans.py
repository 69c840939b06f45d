"""In-memory span tracing of srosda layers, applied from outside the package.

Each traced function is replaced where its caller looks it up (a module
global or a class attribute), so ``srosda.trainer.forward_gz`` and
``srosda.evaluation.forward_gz`` are two patches of one layer. A span is
``(name, start, end, parent)``; spans live in a list until the run ends.
Tape nodes are counted by wrapping ``Tensor.__init__``.
"""

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer name, row-count argument index or None)
PATCHES = (
    ("srosda.trainer", "refresh_pseudo", "trainer.refresh_pseudo", None),
    ("srosda.trainer", "objective_grads", "trainer.objective_grads", None),
    ("srosda.trainer", "sgd_step", "trainer.sgd_step", None),
    ("srosda.trainer", "run_progressive_separation",
     "separation.run_progressive_separation", None),
    ("srosda.trainer", "forward_gz", "model.forward_gz", 1),
    ("srosda.evaluation", "forward_gz", "model.forward_gz", 1),
    ("srosda.evaluation", "eval_openset", "evaluation.eval_openset", None),
    ("srosda.evaluation", "eval_semantic", "evaluation.eval_semantic", None),
    ("srosda.evaluation", "attribute_pr_all", "evaluation.attribute_pr_all", None),
    ("srosda.separation", "kmeans", "separation.kmeans", None),
    ("srosda.separation", "predict_all", "separation.predict_all", None),
    ("srosda.evaluation", "predict_all", "separation.predict_all", None),
    ("srosda.objective", "batch_objective", "objective.batch_objective", None),
    ("srosda.objective", "tape_forward_gz", "model.tape_forward_gz", 1),
    ("srosda.objective", "tape_forward_c", "model.tape_forward_c", 1),
    ("srosda.objective", "build_adjacency_t", "objective.build_adjacency_t", None),
    ("srosda.objective", "propagation_matrix_t",
     "objective.propagation_matrix_t", None),
    ("srosda.autodiff", "inverse", "autodiff.inverse", None),
    ("srosda.autodiff", "inv_small", "numkernel.inv_small", None),
    ("srosda.autodiff", "Tensor.backward", "autodiff.backward", None),
)


class Tracer:
    """Records spans and counts; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def active(self, root):
        """Patch the layers and record one root span around the body."""
        self.install()
        self._open(root)
        try:
            yield
        finally:
            self._close()
            self.uninstall()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, rows_arg=None):
        def traced(*args, **kwargs):
            if rows_arg is not None:
                self.counts[name + ".rows"] += args[rows_arg].shape[0]
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    def install(self):
        import srosda.autodiff as ad
        for module, attr, name, rows_arg in PATCHES:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, rows_arg))
            self._undo.append((owner, attr, original))
        init = ad.Tensor.__init__
        counts = self.counts

        def counted_init(node, *args, **kwargs):
            counts["autodiff.nodes"] += 1
            init(node, *args, **kwargs)
        ad.Tensor.__init__ = counted_init
        self._undo.append((ad.Tensor, "__init__", init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_table(self):
        """{name: {"calls", "incl_s", "self_s"}}; self time is the span's
        duration minus the durations of its direct children."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(table)

    def dump_spans(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]

