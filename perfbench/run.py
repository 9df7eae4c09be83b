"""Run one workload of the noongen benchmark and print its metrics.

    python3 perfbench/run.py --workload cascade --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory. With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. Each metric is
printed by name with its unit, followed by the run context, and the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload untraced and then traced,
one process at a time, and so prints every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("filtration", "cascade", "cli")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Fresh interpreters timed for setup_s, and for each start-up probe of a traced run.
SETUP_RUNS = 21
PROBE_RUNS = 5


class BenchError(Exception):
    """The run cannot report a valid result."""


def _spawn_checked(workloads, args: list[str]) -> tuple[int, int]:
    """Run ``python <args>`` as one operation; a nonzero exit aborts the run."""
    code, output, _ = workloads.spawn(args)
    if code != 0:
        raise BenchError(f"python {' '.join(args)} exited {code}:\n{output.decode(errors='replace')}")
    return 1, 0


def fresh_interpreters(workloads, args: list[str], runs: int) -> measure.Loop:
    """``runs`` fresh interpreters, calibrated against a bare interpreter start."""
    return measure.closed_loop(
        lambda: _spawn_checked(workloads, args),
        0.0,
        min_requests=runs,
        slowdown=measure.process_start_slowdown,
    )


def end_to_end(workloads, name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Untraced run: cold start, one warm-up request, then the timed closed loop.

    Times are scaled by each loop's host slowdown (see ``measure``); the raw
    wall-clock values go into the context.
    """
    setup = fresh_interpreters(workloads, [str(HERE / "workloads.py"), name, str(seed)], SETUP_RUNS)
    workload = workloads.build(name, seed)
    attempted, failed = workload.warmup()
    slowdown = measure.process_start_slowdown if name == "cli" else measure.in_process_slowdown
    loop = measure.closed_loop(
        workload.request, seconds, workload.stride, measure.TAIL_MIN_SAMPLES, slowdown
    )
    scaled = loop.scaled_latencies
    tail = measure.tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup.scaled_latencies),
        "ops_per_s": loop.scaled_ops_per_s,
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": tail.value * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    raw_tail = measure.tail(loop.latencies)
    extra = {
        "tail_percentile": tail.percentile,
        "requests": tail.samples,
        "slowdown": {"setup": setup.slowdown, "loop": loop.slowdown},
        "wall": {
            "setup_s": statistics.median(setup.latencies),
            "ops_per_s": loop.ops_per_s,
            "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
            "latency_tail_ms": raw_tail.value * 1e3,
        },
    }
    return metrics, attempted + loop.ops, failed + loop.failed, extra


class CacheLookups:
    """Hits and misses of ``bs_matrix_element``'s cache over the requests it wraps.

    With ``cold`` set, the cache is cleared before each request, as it starts
    empty in every fresh ``noongen`` process.
    """

    def __init__(self, noongen, cold: bool) -> None:
        self._cached = noongen.elements.bs_matrix_element
        self._cold = cold and hasattr(self._cached, "cache_clear")
        self.hits = self.misses = 0

    def _counts(self) -> tuple[int, int]:
        info = getattr(self._cached, "cache_info", None)
        return (info().hits, info().misses) if info else (0, 0)

    def wrap(self, request):
        def counted() -> tuple[int, int]:
            if self._cold:
                self._cached.cache_clear()
            hits, misses = self._counts()
            result = request()
            after_hits, after_misses = self._counts()
            self.hits += after_hits - hits
            self.misses += after_misses - misses
            return result

        return counted

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def per_layer(workloads, name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Traced run: warm-up, an untraced loop, then a traced loop of equal length.

    ``cli`` requests run in process through ``noongen.cli.main`` here, so the
    wrappers see them; both loops end on a whole cycle of its commands.
    """
    import noongen

    workload = workloads.build(name, seed)
    start = time.perf_counter()
    attempted, failed = workload.warmup()
    warmup_ms = (time.perf_counter() - start) * 1e3
    request = workload.in_process_request if name == "cli" else workload.request
    stride = workload.stride
    base = measure.closed_loop(
        CacheLookups(noongen, name == "cli").wrap(request),
        seconds / 2,
        stride,
        slowdown=measure.in_process_slowdown,
    )

    tracer = spans.Tracer()
    cache = CacheLookups(noongen, name == "cli")
    counted = cache.wrap(request)

    def traced_request() -> tuple[int, int]:
        tracer.request += 1
        return counted()

    tracer.install()
    try:
        loop = measure.closed_loop(
            traced_request, seconds / 2, stride, slowdown=measure.in_process_slowdown
        )
    finally:
        tracer.uninstall()
    tracer.write(workloads.OUT_DIR / f"{name}.spans.jsonl")

    metrics = spans.span_metrics(tracer.spans, len(loop.latencies))
    metrics["elements.bs_matrix_element.hit_ratio"] = cache.hit_ratio
    module = "noongen.cli" if name == "cli" else "noongen"
    bare = statistics.median(fresh_interpreters(workloads, ["-c", "pass"], PROBE_RUNS).latencies)
    imported = statistics.median(
        fresh_interpreters(workloads, ["-c", f"import {module}"], PROBE_RUNS).latencies
    )
    metrics["cli.interpreter_ms"] = bare * 1e3
    metrics["cli.import_ms"] = (imported - bare) * 1e3
    metrics["warmup_pass_ms"] = warmup_ms
    metrics["trace.overhead"] = loop.scaled_ops_per_s / base.scaled_ops_per_s
    metrics = {key: metrics[key] for key in spans.per_layer_names()}
    extra = {"traced_requests": len(loop.latencies), "spans": len(tracer.spans)}
    return metrics, attempted + base.ops + loop.ops, failed + base.failed + loop.failed, extra


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    calibration_start = measure.calibration_ms()
    run = per_layer if trace else end_to_end
    metrics, attempted, failed, extra = run(workloads, name, seed, seconds)
    context = measure.context(name, seed)
    context.update(extra)
    if name == "cascade":
        context["underflow_probe"] = workloads.probe_underflow()
    context["calibration_ms"] = {"start": calibration_start, "end": measure.calibration_ms()}

    units = {key: spans.unit(key) for key in metrics} if trace else END_TO_END
    for key, value in metrics.items():
        print(f"{key:<48} {value:>16.6f} {units[key]}")
    print(f"{'operations attempted':<48} {attempted:>16d}")
    print(f"{'operations failed':<48} {failed:>16d}")
    print("context " + json.dumps(context))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process in turn."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "noongen" / "__init__.py").is_file():
        print(f"error: no noongen package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
