"""Tests of the benchmark harness itself.

    python -m pytest -q perfbench/tests

The traced-run tests start the benchmark as a subprocess, as it is run for
real, with `--seconds 0`: set-up and warm-up, then exactly one timed op, so
that their counts can repeat.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Flaky:
    """Stand-in workload: input 1 raises, input 2 fails its check."""

    name = "flaky"
    warmup_ops = 1

    def setup(self, seed):
        return None, [0, 1, 2, 3]

    def op(self, state, x):
        if x == 1:
            raise RuntimeError("op failed")
        return x

    def check(self, state, x, out):
        return out != 2


def test_failing_ops_lower_ok_frac():
    result, diagnostics, op_ms, spans = bench.run(Flaky(), seed=0, seconds=0.0, max_ops=8)
    assert (result["attempted"], result["failed"], result["correct"]) == (8, 4, False)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ok_frac"] == 0.5
    assert metrics["ops_per_s"] == pytest.approx(4 / diagnostics["timed_wall_s"])
    assert diagnostics["failures"][:2] == ["op 1 (input 1): RuntimeError: op failed",
                                           "op 2 (input 2): check failed"]
    assert len(op_ms) == 8 and spans is None


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    s = bench.latency_summary([i / 1e3 for i in range(1, 101)])
    assert (s["tail_ms"], s["tail_percentile"], s["ops_beyond_tail"]) == (90.0, 90.0, 10)
    assert s["p50_ms"] == 50.5
    short = bench.latency_summary([0.003, 0.001, 0.002])
    assert (short["tail_ms"], short["ops_beyond_tail"]) == (3.0, 0)


def test_traced_ops_pair_up_on_the_same_input():
    from perfbench.tracing import Tracer
    bench.import_library()
    records, _, _ = bench.timed_loop(Flaky(), None, [0, 3, 4], 0.0, max_ops=8, tracer=Tracer())
    assert [(r[4], r[2]) for r in records] == [(0, True), (0, False), (1, False), (1, True),
                                               (2, True), (2, False), (0, False), (0, True)]


def test_tracer_restores_the_library():
    from perfbench.tracing import Tracer, _targets
    workloads, _ = bench.import_library()
    before = [owner.__dict__[attr] for owner, attr, _ in _targets()]
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(0):
            workloads["w1-grid"].setup(0)
            raise ValueError("an op that raises still uninstalls the wrappers")
    assert [owner.__dict__[attr] for owner, attr, _ in _targets()] == before
    assert [s[0] for s in tracer.spans] == ["wasserstein.space"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    runs = [last_json(run_cli("--workload", workload, "--seed", 5, "--seconds", 0,
                              "--trace", 1)) for _ in range(2)]
    for name in ("sdp.newton_steps", "sdp.svd_per_step", "wasserstein.linprog_calls"):
        assert runs[0]["metrics"][name]["value"] == runs[1]["metrics"][name]["value"], name
    exercised = {"w1-grid": "wasserstein.linprog_calls"}.get(workload, "sdp.newton_steps")
    assert runs[0]["metrics"][exercised]["value"] > 0
    assert runs[0]["failed"] == 0


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, group):
    out = last_json(run_cli("--workload", "w1-grid", "--seed", 1, "--seconds", 0,
                            "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "w1-grid", "--seed", 1, "--seconds", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
