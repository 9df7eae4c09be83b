"""Timing helpers: the closed loop, the tail estimator, host speed and the run context.

The host this benchmark was written on is a shared 2-core virtual machine
whose speed swings by up to 1.9x, per CPU, on time scales from 0.1 s to a
minute, so runs of the same code spread by about 20% between quartiles in
wall time. Every timed loop therefore measures the host's slowdown with a
fixed calibration before its first request and after each request, and the
reported times are scaled to the nominal host (slowdown 1). The raw
wall-clock readings are reported beside them.

Two calibrations are used, each matching the work it corrects. Requests that
run in this process are paired with :func:`calibration_ms`, a fixed piece of
pure-Python work. Requests that start a fresh interpreter are paired with
:func:`bare_start_ms`, the start of an interpreter that does nothing, since
process start-up slows with the host differently from pure-Python work.
"""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

TAIL_MIN_BEYOND = 10
# Fewest samples for which tail() lies above the median: 2 * TAIL_MIN_BEYOND + 2.
TAIL_MIN_SAMPLES = 2 * TAIL_MIN_BEYOND + 2
CALIBRATION_ROUNDS = 12
# Readings of calibration_ms() and bare_start_ms() on the host the benchmark
# was written on, at one moment. Any fixed values would do: they only set the
# unit of the scaled times.
CALIBRATION_NOMINAL_MS = 9.5
BARE_START_NOMINAL_MS = 10.0


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int


def tail(samples: list[float], min_beyond: int = TAIL_MIN_BEYOND) -> Tail | None:
    """Highest percentile that leaves at least ``min_beyond`` samples above it.

    The value is the sample of rank n - min_beyond (1-based) in sorted order,
    so exactly ``min_beyond`` samples lie beyond it. Returns None, a refusal,
    when that sample does not lie strictly above the median's position: with
    too few samples such a "tail" can read below the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - min_beyond
    if rank < 1 or 2 * rank <= n + 1:
        return None
    return Tail(ordered[rank - 1], 100.0 * rank / n, n)


@dataclass
class Loop:
    """Result of one closed loop: per-request latencies and operation counts.

    ``slowdowns`` holds the host's slowdown measured before the first request
    and after each request, when the loop calibrates.
    """

    latencies: list[float] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0

    @property
    def ops_per_s(self) -> float:
        """Operations per second of request time (wall clock)."""
        return self.ops / sum(self.latencies)

    @property
    def scaled_latencies(self) -> list[float]:
        """Each latency divided by the mean slowdown just before and just after it."""
        cal = self.slowdowns
        return [
            latency * 2.0 / (before + after)
            for latency, before, after in zip(self.latencies, cal, cal[1:])
        ]

    @property
    def scaled_ops_per_s(self) -> float:
        """Operations per second of scaled request time."""
        return self.ops / sum(self.scaled_latencies)

    @property
    def slowdown(self) -> float:
        """Host slowdown over the loop's request time (1 = the nominal host)."""
        return sum(self.latencies) / sum(self.scaled_latencies)


def closed_loop(
    request: Callable[[], tuple[int, int]],
    seconds: float,
    stride: int = 1,
    min_requests: int = 1,
    slowdown: Callable[[], float] | None = None,
) -> Loop:
    """One client, one request in flight, until ``seconds`` have passed.

    ``request`` returns (operations completed, operations failed). The loop
    stops only after a multiple of ``stride`` requests, so a loop that cycles
    through a fixed list of requests always ends on a whole cycle, and not
    before ``min_requests``, so a host that runs slow still yields a tail.
    ``slowdown``, when given, is measured before the first request and after
    each one, outside their latencies.
    """
    loop = Loop()
    clock = time.perf_counter
    if slowdown:
        loop.slowdowns.append(slowdown())
    deadline = clock() + seconds
    while True:
        t0 = clock()
        ops, failed = request()
        t1 = clock()
        loop.latencies.append(t1 - t0)
        loop.ops += ops
        loop.failed += failed
        if slowdown:
            loop.slowdowns.append(slowdown())
        done = len(loop.latencies)
        if t1 >= deadline and done >= min_requests and done % stride == 0:
            return loop


def calibration_ms() -> float:
    """Wall time of a fixed piece of pure-Python work, in ms.

    Like the program's sparse-state updates, it rebuilds a dict of tuple keys
    and complex amplitudes, so it slows with the host the way they do. It
    uses nothing of noongen, so a change to the program cannot move it, and
    it runs with the garbage collector paused, so the program's garbage
    cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        state = {(i % 5, i // 5 % 5, i // 25): complex(i, 1.0) for i in range(125)}
        for _ in range(CALIBRATION_ROUNDS):
            mixed: dict[tuple[int, int, int], complex] = {}
            for (a, b, c), amp in state.items():
                for k in range(3):
                    key = (a + k, b, c - k)
                    mixed[key] = mixed.get(key, 0j) + amp * 0.5
            state = {key: amp for key, amp in mixed.items() if abs(amp) > 1e-300}
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def bare_start_ms() -> float:
    """Wall time of starting and ending an interpreter that runs nothing, in ms.

    ``-I -S`` keeps it free of the environment and of site packages, so no
    program change can move it.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-S", "-c", "pass"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=True,
    )
    return (time.perf_counter() - start) * 1e3


def in_process_slowdown() -> float:
    """Host slowdown for work done in this process (1 = the nominal host)."""
    return calibration_ms() / CALIBRATION_NOMINAL_MS


def process_start_slowdown() -> float:
    """Host slowdown for work that starts a fresh interpreter (1 = the nominal host)."""
    return bare_start_ms() / BARE_START_NOMINAL_MS


def context(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
