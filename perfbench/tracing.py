"""Per-layer tracing by wrapping ncgp's public names from outside.

`Tracer.installed()` replaces each traced name with a wrapper that records a
span (name, start, end, parent span, op id) and restores the originals on
exit; the library itself is not modified.  Spans stay in memory until the
runner writes them out at the end of the run.

Inside an `sdp.ipm` span (`maximize_over_unit_ball`) the tracer also counts
`numpy.linalg.svd` calls and keeps the returned Newton-step count and
convergence flag.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

IPM = "sdp.ipm"

# spans of these layers exclude the time of their direct children
SELF_TIMED = {"distance.solve": "distance.self_ms", "wasserstein.w1": "wasserstein.self_ms"}

# layers whose set-up-phase cost is reported on its own, as setup.<layer>_ms
SETUP_LAYERS = ("triples.product", "distance.setup", "algebra.basis", "wasserstein.space")

# layers reported per timed op, as <layer>_ms and <layer>_calls
OP_LAYERS = ("triples.product", "experiments.random_triple", "distance.setup",
             "distance.solve", IPM, "algebra.rebuild", "algebra.basis",
             "linalg.op_norm", "wasserstein.w1", "wasserstein.linprog")


def _targets():
    import numpy
    from ncgp import distance, experiments, triples, wasserstein

    return [
        (triples, "product", "triples.product"),
        (experiments, "product", "triples.product"),
        (experiments, "random_triple", "experiments.random_triple"),
        (distance.DistanceSolver, "__init__", "distance.setup"),
        (distance.DistanceSolver, "distance", "distance.solve"),
        (distance, "maximize_over_unit_ball", IPM),
        (distance, "ratio_ascent", "sdp.fallback"),
        (distance, "element_from_coordinates", "algebra.rebuild"),
        (distance, "hermitian_basis", "algebra.basis"),
        (distance, "op_norm", "linalg.op_norm"),
        (wasserstein, "product_space", "wasserstein.space"),
        (wasserstein, "w1", "wasserstein.w1"),
        (wasserstein, "linprog", "wasserstein.linprog"),
        (numpy.linalg, "svd", None),
    ]


class Tracer:
    """Collects spans as lists [name, start, end, parent index, op id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[list] = []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None]
            frame = [len(self.spans), 0]   # span index, svd calls directly inside
            self.spans.append(span)
            self._stack.append(frame)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name == IPM:
                span[5] = {"steps": out.newton_steps, "converged": out.converged,
                           "svd": frame[1]}
            return out
        return wrapper

    def _svd_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1][0]][0] == IPM:
                self._stack[-1][1] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, op: int):
        """Trace calls made inside the block, tagging their spans with `op`."""
        self.op = op
        saved = []
        try:
            for owner, attr, name in _targets():
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._svd_counter(fn) if name is None else self._span(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit): means per traced op over the spans with op
        id >= 0, and totals over the set-up spans (op id -1).  Layers off a
        workload's path read 0."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_ms[s[3]] += (s[2] - s[1]) * 1e3
        ms, calls = {}, {}
        setup_ms = dict.fromkeys(SETUP_LAYERS, 0.0)
        self_ms = dict.fromkeys(SELF_TIMED.values(), 0.0)
        steps = svd = converged = 0
        for i, (name, t0, t1, _, op, info) in enumerate(self.spans):
            dur = (t1 - t0) * 1e3
            if op < 0:
                if name in SETUP_LAYERS:
                    setup_ms[name] += dur
                continue
            ms[name] = ms.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name in SELF_TIMED:
                self_ms[SELF_TIMED[name]] += dur - child_ms[i]
            if name == IPM and info is not None:   # None when the solve raised
                steps += info["steps"]
                svd += info["svd"]
                converged += bool(info["converged"])
        n = max(n_ops, 1)
        out = {}
        for layer in OP_LAYERS:
            out[layer + "_ms"] = (ms.get(layer, 0.0) / n, "ms")
            out[layer + "_calls"] = (calls.get(layer, 0) / n, "count")
        out.update({k: (v / n, "ms") for k, v in self_ms.items()})
        out["sdp.newton_steps"] = (steps / n, "count")
        out["sdp.ms_per_step"] = (ms.get(IPM, 0.0) / steps if steps else 0.0, "ms")
        out["sdp.svd_per_step"] = (svd / steps if steps else 0.0, "count")
        out["sdp.converged_frac"] = (converged / calls[IPM] if calls.get(IPM) else 0.0, "frac")
        out["sdp.fallback_calls"] = (calls.get("sdp.fallback", 0) / n, "count")
        out.update({f"setup.{layer}_ms": (v, "ms") for layer, v in setup_ms.items()})
        return out
