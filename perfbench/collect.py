"""Repeat benchmark runs over several seeds and judge their spread.

    python3 perfbench/collect.py --seeds 1-10 [--record LABEL]

Runs ``run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, one process at a time, untraced. For each end-to-end metric
it prints the median, the quartiles from ``statistics.quantiles(values,
n=4)`` and their distance as a share of the median, against the metric's
bound in BENCHMARK.json (the target is a third of the bound). ``--record``
adds one traced run per workload at the first seed and appends the medians,
quartiles and per-layer values to ``perfbench/trajectory.json``.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    """(metric values, wall seconds, run detail) of one run.py process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
                         ".json").read_text())
    return ({k: v["value"] for k, v in result["metrics"].items()},
            time.perf_counter() - t0, detail)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"label": args.record,
             "date": datetime.datetime.now(datetime.timezone.utc)
             .strftime("%Y-%m-%d"),
             "seeds": args.seeds, "run_seconds": bench["run_seconds"],
             "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, s, bench["run_seconds"], 0) for s in seeds]
        stats = {m: summarize([r[0][m] for r in runs]) for m in bounds}
        walls = [r[1] for r in runs]
        print(f"== {workload} ({len(seeds)} seeds; wall s per run: median "
              f"{statistics.median(walls):.1f}, max {max(walls):.1f})")
        for m, st in stats.items():
            verdict = ("ok" if st["spread"] <= bounds[m] / 3 else
                       "within bound" if st["spread"] <= bounds[m] else "WIDE")
            steady &= verdict == "ok"
            print(f"   {m:16s} median {st['median']:<12.6g} q1 {st['q1']:<12.6g}"
                  f" q3 {st['q3']:<12.6g} spread {st['spread']:.4f}"
                  f" bound {bounds[m]}  {verdict}")
        prov = runs[-1][2]["provenance"]
        entry["provenance"] = {k: v for k, v in prov.items()
                               if k not in ("data_sha256", "params_checksum")}
        entry["workloads"][workload] = {
            "data_sha256": prov["data_sha256"],
            "params_checksum": prov["params_checksum"],
            "wall_s": walls, "end_to_end": stats}
        if args.record:
            layers, _, _ = run(workload, seeds[0], bench["run_seconds"], 1)
            entry["workloads"][workload]["per_layer"] = layers
    print("every spread is under a third of its bound" if steady else
          "some spread is at or over a third of its bound")
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended '{args.record}' to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
