"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads campaign --seeds 0 1 2 3 4 [--trace 0] [--output FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (Q3 - Q1) / median, next to the metric's bound and a third of
it.  ``--output`` writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"details": json.loads(lines[-2])["details"], "result": json.loads(lines[-1])}


def summarize(runs, bounds):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if args.trace == 0 else {}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        summary = summarize(runs, bounds)
        report[workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s":
                flag = "ok" if s["spread"] < s["bound"] / 3 else ("within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            bound = "" if s["bound"] is None else f"bound {s['bound']:.3f} (/3 = {s['bound'] / 3:.4f})"
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {spread}  {bound} {flag}", flush=True)
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
