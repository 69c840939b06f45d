"""Workloads of the srosda benchmark: inputs made from a seed, a closed loop
of operations through the public API, and the checks on their outputs.

Every workload uses the shipped data spec and model seeds
(``default_synth_spec(seed=7)``, ``TrainConfig(k=3, seed=7)``,
``init_params(seed=7)``). The train workloads are the shipped inputs
whatever the benchmark seed: the trained model depends on sample order
(over six row permutations OS ranged 0.81-1.00 and H 0.52-0.96), so the
quality metrics could not guard anything if the seed permuted rows. On the
infer workload every op draws a fresh permutation of the target rows from
the seed; that changes which points k-means++ draws, and so how long
k-means runs, while OS and H, being per-sample, stay the same.

Load is a closed loop with one client: the next operation starts when the
previous one has returned. An operation starts only if, judged by the
longest one so far, it ends within the run's seconds; the first always runs.
"""

import contextlib
import hashlib
import importlib
import resource
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

import srosda
from srosda import (TargetDataset, TargetEval, TrainConfig, evaluation, train,
                    trainer)
from srosda.exceptions import SrosdaError

SHIPPED_SEED = 7
OS_IDENTITY_TOL = 1e-12
TAIL_BEYOND = 10
# the machine's speed changes in spells of seconds, so set-up is timed once
# a second all through a run, as the ops are, not in one burst
PROBE_INTERVAL_S = 1.0

# Why each workload exists is recorded in BENCHMARK.json; sizes live here.
WORKLOADS = {
    # the shipped configuration: 360 source / 540 target, batch 64, 100 epochs
    "train-default": {"kind": "train", "n_target_per_class": 60,
                      "batch_size": 64, "epochs": 100},
    # the largest batch validate() accepts; one training fits a 30 s run
    "train-wide-batch": {"kind": "train", "n_target_per_class": 60,
                         "batch_size": 512, "epochs": 25},
    # 9 classes x 500 = 4500 target rows
    "infer-large-target": {"kind": "infer", "n_target_per_class": 500},
}

# tiny sizes for the smoke test: every code path in a few seconds
SMOKE = {
    "train-default": {"epochs": 2, "refresh_period": 1},
    "train-wide-batch": {"epochs": 2, "refresh_period": 1},
    "infer-large-target": {"n_target_per_class": 20},
}


def workload_spec(name, smoke=False):
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec


def setup(spec, pkg=srosda):
    """The timed set-up: data generation and model initialization."""
    synth = replace(pkg.default_synth_spec(seed=SHIPPED_SEED),
                    n_target_per_class=spec["n_target_per_class"])
    source, target = pkg.synth_generate(synth)
    params = pkg.init_params(source.features.shape[1], source.d_a,
                             source.k_s, seed=SHIPPED_SEED)
    return source, target, params


def time_setup(spec):
    """Seconds of one set-up from scratch: a fresh import of srosda (its
    module code runs again), then ``setup``. The live srosda modules are put
    back afterwards, so the objects a run holds keep working. numpy stays
    imported: its import is not the program's work."""
    def ours(name):
        return name == "srosda" or name.startswith("srosda.")

    live = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in live:
        del sys.modules[name]
    try:
        t0 = time.perf_counter()
        setup(spec, importlib.import_module("srosda"))
        return time.perf_counter() - t0
    finally:
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(live)


def permute_target(target, rng):
    p = rng.permutation(target.features.shape[0])
    ev = target.eval_data
    return TargetDataset(features=target.features[p],
                         eval_data=TargetEval(labels=ev.labels[p],
                                              attr_table_full=ev.attr_table_full))


def data_sha256(source, target):
    h = hashlib.sha256()
    for arr in (source.features, source.labels, source.attr_table_seen,
                target.features, target.eval_data.labels,
                target.eval_data.attr_table_full):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def params_sha256(params):
    """The digest ``TrainHistory.params_checksum`` uses."""
    h = hashlib.sha256()
    for name in sorted(params.arrays):
        h.update(name.encode())
        h.update(params.arrays[name].tobytes())
    return h.hexdigest()


def tail(values):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples beyond it. Below 2 * TAIL_BEYOND samples that percentile would
    fall under the median, so the median (p50) is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def output_checks(pseudo_label, report, k_s, k):
    """Failure messages for one operation's pseudo labels and report."""
    fails = []
    n_classes = k_s + k
    if pseudo_label.size and (pseudo_label.min() < 0
                              or pseudo_label.max() >= n_classes):
        fails.append(f"pseudo label outside [0, {n_classes})")
    expect = (k_s * report.os_star + report.os_diamond) / (k_s + 1)
    if abs(report.os - expect) > OS_IDENTITY_TOL:
        fails.append(f"os identity off by {abs(report.os - expect):.3e}")
    return fails


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload run: inputs, the operation loop and its tallies.

    ``attempted``/``failed`` count operations: an epoch on the train
    workloads, a refresh + report on the infer workload, plus the warm-up
    repeat check. A training whose result fails a check fails all of its
    epochs. ``setup_samples`` are the set-up times taken during the run;
    op times and busy time leave them out.
    """

    def __init__(self, name, seed, smoke=False):
        self.name = name
        self.spec = workload_spec(name, smoke)
        self.source, self.target, self.params = setup(self.spec)
        extra = {k: self.spec[k] for k in ("epochs", "batch_size",
                                           "refresh_period") if k in self.spec}
        self.cfg = TrainConfig(k=3, seed=SHIPPED_SEED, **extra)
        self.params_checksum = params_sha256(self.params)
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.op_times = []
        self.samples = 0
        self.busy_s = 0.0
        self.report = None
        self.setup_samples = []
        self._last_probe = None

    def _probe_setup(self):
        """Time one set-up if PROBE_INTERVAL_S has passed since the last;
        return the seconds this call took."""
        t0 = time.perf_counter()
        if (self._last_probe is not None
                and t0 - self._last_probe < PROBE_INTERVAL_S):
            return 0.0
        self.setup_samples.append(time_setup(self.spec))
        self._last_probe = time.perf_counter()
        return self._last_probe - t0

    def _fail(self, n_ops, msg):
        self.failed += n_ops
        self.messages.append(msg)

    def run(self, seconds, tracer=None):
        if self.spec["kind"] == "train":
            self._warm_train()
            op = self._train_op
        else:
            self._warm_infer()
            op = self._infer_op
        t_start = time.perf_counter()
        longest = 0.0
        i = 0
        self._probe_setup()
        while i == 0 or time.perf_counter() - t_start + longest <= seconds:
            t0 = time.perf_counter()
            op(i, tracer)
            longest = max(longest, time.perf_counter() - t0)
            i += 1
            self._probe_setup()

    def _traced(self, tracer, root):
        return tracer.active(root) if tracer else contextlib.nullcontext()

    # -- train workloads: one op is a whole training, timed per epoch --------

    def _warm_train(self):
        """Warm-up and repeat check: two short trainings, equal checksums."""
        cfg = replace(self.cfg, epochs=2, refresh_period=1)
        self.attempted += 1
        try:
            sums = {train(cfg, self.source, self.target.features)[1]
                    .params_checksum for _ in range(2)}
        except SrosdaError as err:
            self._fail(1, f"warm-up training raised {err!r}")
            return
        if len(sums) != 1:
            self._fail(1, "repeated warm-up trainings give different checksums")

    def _train_op(self, i, tracer):
        cfg = self.cfg
        epoch_times = []
        bad_epochs = []
        last = [time.perf_counter()]
        probe_s = [0.0]

        def on_epoch(epoch, rep):
            epoch_times.append(time.perf_counter() - last[0])
            probe_s[0] += self._probe_setup()
            last[0] = time.perf_counter()
            if not np.all(np.isfinite([rep.l_c, rep.l_d, rep.l_r_source,
                                       rep.l_r_target, rep.l_a, rep.total])):
                bad_epochs.append(epoch)

        self.attempted += cfg.epochs
        t0 = time.perf_counter()
        try:
            with self._traced(tracer, "bench.train"):
                params, history, pseudo = train(cfg, self.source,
                                                self.target.features,
                                                on_epoch=on_epoch)
        except SrosdaError as err:
            self._fail(cfg.epochs, f"training {i} raised {err!r}")
            return
        self.busy_s += time.perf_counter() - t0 - probe_s[0]
        self.op_times += epoch_times
        self.samples += cfg.epochs * (self.source.features.shape[0]
                                      + self.target.features.shape[0])
        report = evaluation.compute_report(params, self.target, tau=pseudo.tau,
                                           epochs=cfg.epochs, seed=cfg.seed)
        fails = output_checks(pseudo.pseudo_label, report, params.k_s, cfg.k)
        if i == 0:
            self.params_checksum = history.params_checksum
            self.report = report
        elif history.params_checksum != self.params_checksum:
            fails.append("params checksum differs from training 0")
        if fails:
            self._fail(cfg.epochs, f"training {i}: " + "; ".join(fails))
        elif bad_epochs:
            self._fail(len(bad_epochs),
                       f"training {i}: non-finite loss at epochs {bad_epochs}")

    # -- infer workload: each op on a fresh target permutation ---------------

    def _infer(self, target):
        state, _, _ = trainer.refresh_pseudo(self.params, self.source,
                                             target.features, self.cfg,
                                             space="z")
        report = evaluation.compute_report(self.params, target, tau=state.tau,
                                           epochs=0, seed=self.cfg.seed)
        return state, report

    @staticmethod
    def _digest(state, report):
        return hashlib.sha256(
            state.pseudo_label.tobytes() + report.confusion.tobytes()
            + repr((report.os, report.os_star, report.os_diamond, report.s,
                    report.u, report.h)).encode()).hexdigest()

    def _warm_infer(self):
        """Warm-up on the first permutation; measured op 0 repeats it."""
        self._first_target = permute_target(self.target, self.rng)
        self.attempted += 1
        try:
            self._first_digest = self._digest(*self._infer(self._first_target))
        except SrosdaError as err:
            self._first_digest = None
            self._fail(1, f"warm-up op raised {err!r}")

    def _infer_op(self, i, tracer):
        target = (self._first_target if i == 0
                  else permute_target(self.target, self.rng))
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self._traced(tracer, "bench.infer_op"):
                state, report = self._infer(target)
        except SrosdaError as err:
            self._fail(1, f"op {i} raised {err!r}")
            return
        dt = time.perf_counter() - t0
        self.busy_s += dt
        self.op_times.append(dt)
        self.samples += target.features.shape[0]
        fails = output_checks(state.pseudo_label, report, self.params.k_s,
                              self.cfg.k)
        if i == 0:
            self.report = report
            if self._digest(state, report) != self._first_digest:
                fails.append("differs from the warm-up op on the same input")
        if fails:
            self._fail(1, f"op {i}: " + "; ".join(fails))
