"""Closed-loop benchmark of ncgp: one process, one client, BLAS on one thread.

    python3 perfbench/run.py --workload lattice-n15 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the ncgp under test is the one in `src/` of
that checkout.  The last line of standard output is a JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it holds
the run's diagnostics, and `perfbench/out/` keeps both (plus the spans of a
traced run) for every run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3   # full set-ups timed per run: this process and two fresh interpreters


def timed_loop(workload, state, inputs, seconds, max_ops=None, tracer=None):
    """Run ops back to back on inputs (cycled) for `seconds` (at least one
    op), or for exactly `max_ops` ops when given.  Returns per-op records
    (latency s, ok, traced, failure or None, input index) and the wall and
    CPU seconds of the loop.

    With a tracer, each input runs twice in a row, once traced and once not,
    the traced one first on even pairs and second on odd ones; so traced and
    untraced ops see the same inputs and the same stretch of machine time.
    An op that raises or fails its check is recorded as failed, with the
    reason; the loop carries on.
    """
    records = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = wall0 + seconds
    i = 0
    while (i < max_ops) if max_ops is not None else (i == 0 or time.perf_counter() < deadline):
        if tracer is None:
            k, traced = i % len(inputs), False
        else:
            k, traced = (i // 2) % len(inputs), i % 2 == (i // 2) % 2
        x = inputs[k]
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(i):
                    out = workload.op(state, x)
            else:
                out = workload.op(state, x)
            failure = None if workload.check(state, x, out) else "check failed"
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        records.append((time.perf_counter() - t0, failure is None, traced, failure, k))
        i += 1
    return records, time.perf_counter() - wall0, time.process_time() - cpu0


def latency_summary(latencies):
    """Median and the highest percentile with at least ten ops beyond it
    (the maximum when a run has ten ops or fewer), in ms."""
    lat = sorted(latencies)
    n = len(lat)
    tail_index = n - 11 if n > 10 else n - 1
    return {"p50_ms": statistics.median(lat) * 1e3,
            "tail_ms": lat[tail_index] * 1e3,
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "ops_beyond_tail": n - 1 - tail_index}


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def import_library():
    """Import the ncgp of this checkout and the workloads; returns the
    workloads by name and the seconds the imports took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ncgp
    if Path(ncgp.__file__).resolve().parent != ROOT / "src" / "ncgp":
        raise ImportError(f"ncgp imported from {ncgp.__file__}, not from this checkout")
    from perfbench.workloads import WORKLOADS
    return WORKLOADS, time.perf_counter() - t0


def child_setup_seconds(name, seed, n):
    """Seconds a full set-up (the imports, then the workload's set-up from
    `seed`) takes in each of n fresh interpreters, run one after another."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]; "
            "from perfbench.workloads import WORKLOADS; "
            f"WORKLOADS[{name!r}].setup({seed}); print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(n)]


def run(workload, seed, seconds, trace=False, max_ops=None, import_s=0.0, other_setup_s=()):
    """One benchmark run; returns the result, the diagnostics, the per-op
    latencies in ms and the spans (None when untraced).  `import_s` is the
    time this process took to import the library; `other_setup_s` holds the
    full set-up times measured in other interpreters.  `setup_s` is the
    median of those and this process's import plus set-up."""
    from perfbench.tracing import Tracer
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    if tracer is None:
        state, inputs = workload.setup(seed)
    else:
        with tracer.installed(-1):
            state, inputs = workload.setup(seed)
    setup_samples = [import_s + time.perf_counter() - t0, *other_setup_s]

    timed_loop(workload, state, inputs, 0.0, max_ops=workload.warmup_ops)
    gc.collect()

    load_start = loadavg()
    records, wall, cpu = timed_loop(workload, state, inputs, seconds, max_ops, tracer)
    load_end = loadavg()

    attempted = len(records)
    ok = sum(r[1] for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = latency_summary([r[0] for r in records])
    half = attempted // 2
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ok / wall, "1/s"),
            "op_p50_ms": (summary["p50_ms"], "ms"),
            "op_tail_ms": (summary["tail_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": (ok / attempted, "frac"),
        }
    else:
        # over complete pairs only: each input once traced and once not
        paired = records[:2 * half]
        traced_s = sum(r[0] for r in paired if r[2])
        plain_s = sum(r[0] for r in paired if not r[2])
        metrics = tracer.layer_metrics(sum(r[2] for r in records))
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0) if half else 0.0, "%")
        metrics["run.cpu_wall_ratio"] = (cpu / wall, "ratio")

    result = {"correct": ok == attempted, "attempted": attempted, "failed": attempted - ok,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    diagnostics = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "timed_wall_s": wall, "timed_cpu_s": cpu, "cpu_wall_ratio": cpu / wall,
        "loadavg_start": load_start, "loadavg_end": load_end,
        "import_s": import_s, "setup_samples_s": setup_samples,
        "op_tail_percentile": summary["tail_percentile"],
        # later half over earlier half of the run: a drifting machine, not a
        # slower program, shows here (inputs are the same kind throughout)
        "half_p50_ratio": (statistics.median(r[0] for r in records[half:])
                           / statistics.median(r[0] for r in records[:half])) if half else None,
        "ops_beyond_tail": summary["ops_beyond_tail"],
        "failures": [f"op {i} (input {r[4]}): {r[3]}"
                     for i, r in enumerate(records) if r[3]][:20],
        "thread_env": {k: os.environ.get(k) for k in PINNED},
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
    }
    op_ms = [r[0] * 1e3 for r in records]
    return result, diagnostics, op_ms, tracer.spans if tracer else None


def save(result, diagnostics, op_ms, spans):
    OUT.mkdir(exist_ok=True)
    stem = "{workload}-seed{seed}-trace{t}-{stamp}".format(
        t=int(diagnostics["trace"]), stamp=time.strftime("%Y%m%dT%H%M%S"), **diagnostics)
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, "diagnostics": diagnostics, "op_ms": op_ms}))
    if spans is not None:
        with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt") as f:
            f.write("# name start end parent op info\n")
            for s in spans:
                f.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice-n15", "theorem1-sweep", "w1-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # pin every thread pool before numpy loads: a second BLAS thread spins on
    # a shared machine and makes iteration counts depend on reduction order
    for var in PINNED:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT))
    try:
        workloads, import_s = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library under test: {exc}", file=sys.stderr)
        return 2
    # the other set-ups run first, while this process holds no workload state
    others = child_setup_seconds(args.workload, args.seed, SETUP_RUNS - 1)
    result, diagnostics, op_ms, spans = run(workloads[args.workload], args.seed, args.seconds,
                                            args.trace, import_s=import_s, other_setup_s=others)
    save(result, diagnostics, op_ms, spans)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
