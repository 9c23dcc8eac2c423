"""opmeans benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, measured
with tracing off.  With ``--trace 1`` it carries the per-layer metrics of a
traced pass, next to an untraced pass on the same inputs for the tracing
overhead.  The line before it holds the details: sample counts, the tail
percentile, gate failures and the environment.

A run measures whole passes of its workload: it stops once another pass
would end after ``--seconds``, and always completes at least one.  Latencies
are scaled to a reference host speed, which a fixed numpy probe timed
between units tracks (see ``perfbench/README.md``).
"""

from __future__ import annotations

import os

# BLAS pinned to one thread in this process and its children, before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
TAIL_BEYOND = 10
PROBES_NEAR = 3


def import_seconds():
    """Time ``import opmeans.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import opmeans.cli; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload, seed, workdir, reps):
    """Import plus input preparation, ``reps`` times; the median and the state."""
    from workloads import warm_up

    imports = [import_seconds() for _ in range(reps)]
    preps = []
    for i in range(reps):
        d = workdir / f"setup{i}"
        d.mkdir()
        t0 = time.perf_counter()
        state = workload.prepare(seed, d)
        warm_up(d)
        preps.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(preps), state


def measure(workload, state, seconds):
    """Whole passes until another one would overrun ``seconds``.

    Returns the items, each pass's wall time, and the host probe.
    """
    from workloads import HostProbe

    probe = HostProbe()
    probe(repeats=PROBES_NEAR)
    items, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        items += workload.run_pass(state, probe)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + walls[-1] > seconds:
            return items, walls, probe


def host_factors(items, probe):
    """Each item's host speed factor: the mean time of the probe calls just
    before and just after it, over the probe's reference time."""
    from workloads import PROBE_REF_S

    factors = []
    for item in items:
        before = bisect.bisect_right(probe.ends, item.start)
        after = bisect.bisect_left(probe.ends, item.start + item.latency_s)
        near = probe.times[max(0, before - PROBES_NEAR):before] + probe.times[after:after + PROBES_NEAR]
        factors.append(statistics.fmean(near) / PROBE_REF_S)
    return factors


def tail_percentile(n):
    """Highest percentile with at least ten of ``n`` samples beyond it (100 if none).

    ``n`` is the item count of one pass, so the percentile is a property of
    the workload and does not shift with the number of passes a run fits.
    """
    return 100.0 * (1.0 - TAIL_BEYOND / n) if n > TAIL_BEYOND else 100.0


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def end_to_end(items, passes, probe, setup_s, scale):
    """The end-to-end metrics; with ``scale``, each latency is scaled to the
    reference host speed."""
    import numpy as np

    pct = tail_percentile(len(items) // passes)
    trials = sum(i.trials for i in items)
    raw = np.array([i.latency_s for i in items])
    factors = np.array(host_factors(items, probe)) if scale else np.ones(len(items))

    def timing(lat):
        return {
            "trials_per_s": trials / lat.sum(),
            "item_p50_s": float(np.percentile(lat, 50)),
            "item_tail_s": float(np.percentile(lat, pct)),
        }

    scaled = timing(raw / factors)
    failed = sum(not i.ok for i in items)
    metrics = {
        "trials_per_s": (scaled["trials_per_s"], "1/s"),
        "item_p50_s": (scaled["item_p50_s"], "s"),
        "item_tail_s": (scaled["item_tail_s"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / len(items), "frac"),
    }
    extra = {"tail_percentile": pct, "host_factor_median": float(np.median(factors)), "unscaled": timing(raw)}
    return metrics, extra


def traced(workload, state, seed):
    import numpy as np

    from tracer import SPAN_NAMES, Tracer, layer_metrics

    plain, plain_walls, _ = measure(workload, state, 0)
    tracer = Tracer()
    tracer.install()
    try:
        items, walls, _ = measure(workload, state, 0)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    trace_path = OUT / f"trace-{workload.name}-{seed}.npz"
    np.savez_compressed(trace_path, names=np.array(SPAN_NAMES), **spans)
    metrics = layer_metrics(spans, workload.threads)
    overhead = walls[0] - plain_walls[0]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain_walls[0], "frac")
    extra = {"untraced_pass_s": plain_walls[0], "traced_pass_s": walls[0], "spans_file": str(trace_path.relative_to(ROOT))}
    return plain + items, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opmeans" / "__init__.py").is_file():
        print(f"error: no opmeans sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        setup_s, state = setup(workload, args.seed, workdir, 1 if args.trace else SETUP_REPS)
        if args.trace:
            items, metrics, extra = traced(workload, state, args.seed)
        else:
            items, walls, probe = measure(workload, state, args.seconds)
            # the single-threaded probe tracks single-threaded units only
            metrics, extra = end_to_end(items, len(walls), probe, setup_s, scale=workload.threads == 1)
            extra["pass_s"] = walls
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [i.note for i in items if not i.ok]
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "items": len(items),
        "setup_s": setup_s,
        **extra,
        "failures": failures[:20],
        "environment": environment(),
    }
    print(json.dumps({"details": details}))
    result = {
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
