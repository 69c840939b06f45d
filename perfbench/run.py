"""srosda benchmark: one workload per process, or every workload with --all.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--smoke]

A single run prints a readable report, writes it with provenance (and, when
traced, every span) to ``perfbench/out/``, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
``--all`` runs each workload untraced and traced, checks names and units
against BENCHMARK.json and prints the tracing overhead. ``--smoke`` shrinks
every workload to a few seconds.

BLAS is pinned to one thread before numpy is imported: on a 2-core machine
two threads are no faster and change the results.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BLAS_THREADS = 1

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170

# name -> unit; BENCHMARK.json must list the same names and units
END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "os": "ratio",
    "h": "ratio",
}
# op_s.* and samples_per_s mean one thing per kind of workload; the report
# also prints them under the name of that meaning
KIND_NAMES = {
    "train": {"op_s.p50": "epoch_s.p50", "op_s.tail": "epoch_s.tail",
              "samples_per_s": "train_samples_per_s"},
    "infer": {"op_s.p50": "infer_op_s.p50", "op_s.tail": "infer_op_s.tail",
              "samples_per_s": "infer_samples_per_s"},
}
# self time in ms per training step (train workloads) or per op (infer)
LAYER_MS = (
    "trainer.objective_grads", "trainer.sgd_step", "objective.batch_objective",
    "model.tape_forward_gz", "model.tape_forward_c",
    "objective.build_adjacency_t", "objective.propagation_matrix_t",
    "autodiff.inverse", "numkernel.inv_small", "autodiff.backward",
    "trainer.refresh_pseudo", "separation.run_progressive_separation",
    "separation.kmeans", "separation.predict_all", "model.forward_gz",
    "evaluation.eval_openset", "evaluation.eval_semantic",
    "evaluation.attribute_pr_all",
)
PER_LAYER = {
    "trainer.step.ms": "ms",
    **{f"{name}.ms": "ms" for name in LAYER_MS},
    "autodiff.nodes_per_step": "count",
    "separation.kmeans.calls": "count",
    "model.forward_gz.rows": "count",
    "model.gemm_floor_ms": "ms",
    "model.step_floor_ratio": "ratio",
}


def metric_label(kind, name):
    alias = KIND_NAMES[kind].get(name)
    return f"{name} ({alias})" if alias else name


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    pkg = SRC / "srosda"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"run.py: no srosda sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import srosda
    if Path(srosda.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"run.py: imported srosda from {srosda.__file__}, not {pkg}")


# ---------------------------------------------------------------------------
# provenance

def blas_runtime():
    """(OpenBLAS config string, thread count) from numpy's bundled library;
    the thread count is None when the library cannot be queried."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            return get_config().decode(), int(get_threads())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')} (build info)", None


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(run, blas):
    import numpy as np
    import workloads
    config, threads = blas
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": tree_sha256(SRC / "srosda"),
        "data_sha256": workloads.data_sha256(run.source, run.target),
        "params_checksum": run.params_checksum,
    }


# ---------------------------------------------------------------------------
# measurements

def gemm_floor_ms(shapes, reps):
    """Median over ``reps`` of the summed time of plain (m,k)@(k,n) matmuls."""
    import numpy as np
    rng = np.random.default_rng(0)
    pairs = [(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
             for m, k, n in shapes]
    for a, b in pairs:
        np.matmul(a, b)
    totals = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a, b in pairs:
            np.matmul(a, b)
        totals.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(totals)


def end_to_end(run):
    import workloads
    times = run.op_times
    tail, pct = workloads.tail(times) if times else (None, None)
    values = {
        "setup_s": statistics.median(run.setup_samples),
        "op_s.p50": statistics.median(times) if times else None,
        "op_s.tail": tail,
        "samples_per_s": run.samples / run.busy_s if run.busy_s else None,
        "peak_rss_mb": workloads.peak_rss_mb(),
        "os": run.report.os if run.report else None,
        "h": run.report.h if run.report else None,
    }
    extra = {"op": "epoch" if run.spec["kind"] == "train" else
             "refresh_pseudo + compute_report",
             "op_count": len(times), "op_times_s": times,
             "tail_percentile": pct,
             "setup_samples_s": run.setup_samples,
             "failed_frac": run.failed / run.attempted}
    return values, extra


def per_layer(run, tracer):
    """Self time per step (train) or per op (infer), counts and gemm floor."""
    table = tracer.layer_table()
    counts = tracer.counts
    params = run.params
    train = run.spec["kind"] == "train"
    n = (table.get("trainer.objective_grads", {}).get("calls", 0) if train
         else len(run.op_times)) or 1

    def row(name, key="self_s"):
        return table.get(name, {}).get(key, 0.0)

    values = {f"{name}.ms": 1000.0 * row(name) / n for name in LAYER_MS}
    step_ms = 1000.0 * (row("trainer.objective_grads", "incl_s")
                        + row("trainer.sgd_step", "incl_s")) / n
    values["trainer.step.ms"] = step_ms
    values["autodiff.nodes_per_step"] = counts["autodiff.nodes"] / n
    values["separation.kmeans.calls"] = row("separation.kmeans", "calls") / n
    values["model.forward_gz.rows"] = counts["model.forward_gz.rows"] / n
    d_x, d_a, k_s = params.d_x, params.d_a, params.k_s
    hidden = params.arrays["gz_w1"].shape[1]
    z_dim = params.arrays["gz_w2"].shape[1]
    head = params.arrays["c_w1"].shape[1]
    if train:
        # forward (m,k)@(k,n) and both backward gemms of the G_Z and C layers
        r_gz = max(1, round(counts["model.tape_forward_gz.rows"] / n))
        r_c = max(1, round(counts["model.tape_forward_c.rows"] / n))
        layers = [(r_gz, d_x, hidden), (r_gz, hidden, z_dim),
                  (r_c, z_dim + d_a, head), (r_c, head, k_s + 1)]
        shapes = [s for m, k, o in layers
                  for s in ((m, k, o), (m, o, k), (k, m, o))]
        floor = gemm_floor_ms(shapes, reps=30)
        busy = step_ms
    else:
        # the G_Z forward gemms over every row forward_gz sees in one op
        block = run.target.features.shape[0]
        floor = gemm_floor_ms([(block, d_x, hidden), (block, hidden, z_dim)],
                              reps=5) * values["model.forward_gz.rows"] / block
        busy = 1000.0 * row("bench.infer_op", "incl_s") / n
    values["model.gemm_floor_ms"] = floor
    values["model.step_floor_ratio"] = busy / floor
    return values, {"normalized_per": "step" if train else "op", "count": n}


def run_one(args):
    import spans
    import workloads
    run = workloads.Run(args.workload, args.seed, args.smoke)
    blas = blas_runtime()
    if blas[1] not in (None, BLAS_THREADS):
        sys.exit(f"run.py: BLAS runs {blas[1]} threads, expected {BLAS_THREADS}")
    tracer = spans.Tracer() if args.trace else None
    run.run(args.seconds, tracer)
    e2e, e2e_extra = end_to_end(run)
    detail = {"workload": args.workload, "kind": run.spec["kind"],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "provenance": provenance(run, blas),
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.messages, "end_to_end": e2e, **e2e_extra}
    if tracer:
        layers, layer_extra = per_layer(run, tracer)
        table = tracer.layer_table()
        detail.update(per_layer=layers, **layer_extra, layer_table=table,
                      counts=dict(tracer.counts), spans=tracer.dump_spans())
        metrics = {k: (layers[k], u) for k, u in PER_LAYER.items()}
    else:
        metrics = {k: (e2e[k], u) for k, u in END_TO_END.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in detail["provenance"].items():
        print(f"  {key}: {value}")
    print(f"  op = {e2e_extra['op']}; {e2e_extra['op_count']} ops; tail is "
          f"p{e2e_extra['tail_percentile']}; failed_frac "
          f"{e2e_extra['failed_frac']!r} ({run.failed}/{run.attempted})")
    for name, unit in END_TO_END.items():
        print(f"  {metric_label(detail['kind'], name)} = {e2e[name]!r} {unit}")
    if tracer:
        print("  self time per layer (ms per "
              f"{detail['normalized_per']}), largest first:")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:42s} {1000 * row['self_s'] / detail['count']:10.4f}"
                  f"  calls {row['calls']}")
        for name in PER_LAYER:
            print(f"  {name} = {layers[name]!r} {PER_LAYER[name]}")
    for msg in run.messages:
        print(f"  FAILED: {msg}")
    print(f"  detail: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# every workload, each in its own process

def run_all(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    seconds = 1 if args.smoke else bench["run_seconds"]
    problems = []
    for trace, ours in ((0, END_TO_END), (1, PER_LAYER)):
        if declared[trace] != ours:
            problems.append(f"BENCHMARK.json trace {trace} metrics differ from "
                            f"run.py: {sorted(set(declared[trace]) ^ set(ours))}")
    summary = {}
    for w in bench["workloads"]:
        name = w["name"]
        summary[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            if proc.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems += check_result(f"{name} trace {trace}", result,
                                     declared[trace])
            detail = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}"
                                 ".json").read_text())
            summary[name][trace] = detail
        if len(summary[name]) == 2 and not any(
                d["failed"] for d in summary[name].values()):
            print_workload(name, summary[name])
    for p in problems:
        print(f"PROBLEM: {p}")
    if problems:
        sys.exit(1)
    print("all workloads ran; every output check passed")


def check_result(label, result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        problems.append(f"{label}: {result.get('failed')} of "
                        f"{result.get('attempted')} operations failed")
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != declared:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(declared.items()))}")
    for k, v in result.get("metrics", {}).items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{label}: {k} has no value")
    return problems


def print_workload(name, runs):
    plain, traced = runs[0], runs[1]
    print(f"== {name}  ({plain['op_count']} ops of {plain['op']}; tail is "
          f"p{plain['tail_percentile']}; failed_frac {plain['failed_frac']!r})")
    print(f"   {'metric':40s} {'untraced':>14s} {'traced':>14s} "
          f"{'overhead':>12s}")
    for metric, unit in END_TO_END.items():
        a = plain["end_to_end"][metric]
        b = traced["end_to_end"][metric]
        print(f"   {metric_label(plain['kind'], metric):40s} {a:14.6g} "
              f"{b:14.6g} {b - a:+12.4g} {unit}")
    for metric, unit in PER_LAYER.items():
        print(f"   {metric:40s} {traced['per_layer'][metric]:14.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; checks names and units, not speed")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    main()
