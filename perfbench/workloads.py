"""The benchmark's workloads: seeded inputs, requests and correctness checks.

``filtration`` and ``cascade`` call ``noongen.run_method`` in process. Their
request is one full pass over the workload's grid in a seeded shuffled order,
so every request does identical work. ``cli`` starts one fresh ``noongen``
process per request, cycling through a seeded order of start-up-dominated
commands.

Every operation is checked: a grid point against the closed-form probability
to 1e-9 relative, a CLI invocation by its exit code, by byte-identity with the
first run of the same command, and on that first run by the probabilities it
prints. A failed check, or an exception, counts the operation as failed; it
is never skipped.

Run as a script, ``python perfbench/workloads.py <workload> <seed>`` does only
the cold-start work that ``setup_s`` times: import the package and build the
inputs and closed-form references.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from noongen import analysis, pipelines

REL_TOL = 1e-9
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# Methods 1 and 2: large product and split states (10^3-10^5 terms), where
# time goes to beam splitters, heralded projections and state construction.
# M1 d=4 N=8 and M1 d=8 N=4 are left out: one call costs 1-70 s, which would
# leave too few passes per run for a tail.
FILTRATION = ((1, 4, 4), (1, 4, 6), (1, 5, 4), (2, 4, 8), (2, 8, 4), (2, 6, 8), (2, 8, 6))
# Methods 3 (even and odd N) and 4 at power-of-two d: small states, thousands
# of element calls on 10-64 modes, so per-call overhead dominates.
CASCADE = ((3, 4, 7), (3, 4, 8), (3, 8, 3), (3, 8, 4), (3, 8, 5), (4, 16, 4), (4, 32, 6), (4, 64, 8))
# Known underflow points: the seed returns p=0 against closed forms of
# 1.4e-30, 5.4e-31 and 8.0e-38. They are run and checked once per cascade run
# as a probe reported beside the metrics, not as workload operations, because
# a benchmark workload must be one on which no operation fails.
UNDERFLOW = ((3, 8, 6), (3, 4, 12), (3, 16, 4))

# (method, d, N) of the `generate` commands; method 3 at odd N covers the
# polarizing splitter. The config-file command runs CONFIG_POINT.
GENERATE_POINTS = ((1, 3, 3), (2, 3, 4), (3, 2, 3), (4, 4, 3))
CONFIG_POINT = (1, 2, 4)
SWEEP_ARGS = ("sweep", "--vary", "d", "--N", "4", "--d-range", "2:4")
VERIFY_ARGS = ("verify", "--d-values", "2", "--N-range", "2:4")
CLI_ENTRY = "import sys; from noongen.cli import main; sys.exit(main())"


def _relative_error_ok(p_sim: float, p_closed: float) -> bool:
    return abs(p_sim - p_closed) <= REL_TOL * p_closed


@dataclass(frozen=True)
class Point:
    """One grid point with its configuration and closed-form probability."""

    method: int
    d: int
    N: int
    alpha_sq: float | None
    config: pipelines.MethodConfig
    reference: float


def make_point(method: int, d: int, n: int, alpha_sq: float | None = None) -> Point:
    alpha = None if alpha_sq is None else math.sqrt(alpha_sq)
    return Point(
        method,
        d,
        n,
        alpha_sq,
        pipelines.MethodConfig(method=method, d=d, N=n, alpha=alpha),
        analysis.closed_form_probability(method, d, n, alpha_sq),
    )


def run_points(points: list[Point]) -> tuple[int, int]:
    """Simulate and check each point; returns (attempted, failed)."""
    failed = 0
    for point in points:
        try:
            p_sim = pipelines.run_method(point.config).generation_probability
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        failed += not _relative_error_ok(p_sim, point.reference)
    return len(points), failed


def probe_underflow() -> list[dict]:
    """Run the known underflow points once and report each against its closed form."""
    rows = []
    for method, d, n in UNDERFLOW:
        point = make_point(method, d, n)
        p_sim = pipelines.run_method(point.config).generation_probability
        rows.append({
            "point": f"M{method} d={d} N={n}",
            "p_sim": p_sim,
            "p_closed": point.reference,
            "ok": _relative_error_ok(p_sim, point.reference),
        })
    return rows


class GridWorkload:
    """``filtration`` or ``cascade``: one request is one shuffled grid pass."""

    stride = 1

    def __init__(self, name: str, seed: int) -> None:
        grid = {"filtration": FILTRATION, "cascade": CASCADE}[name]
        rng = random.Random(f"{name}:{seed}")
        self.points = [
            make_point(m, d, n, rng.uniform(0.5, 1.5) * n / d if m == 1 else None)
            for m, d, n in grid
        ]
        self._order = random.Random(f"{name}:{seed}:order")

    def request(self) -> tuple[int, int]:
        return run_points(self._order.sample(self.points, len(self.points)))

    warmup = request

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process, which runs the workload."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- cli ---------------------------------------------------------------------


def _rows_generate_json(text: str) -> list[tuple]:
    payload = json.loads(text)
    report = payload["report"]
    return [(int(payload["method"][1:]), report["d"], report["N"], report["generation_probability"])]


def _rows_generate_csv(text: str) -> list[tuple]:
    (row,) = list(csv.DictReader(io.StringIO(text)))
    return [(int(row["method"][1:]), int(row["d"]), int(row["N"]), float(row["generation_probability"]))]


def _rows_sweep_csv(text: str) -> list[tuple]:
    return [
        (int(r["method"][1:]), int(r["d"]), int(r["N"]), float(r["p_sim"]))
        for r in csv.DictReader(io.StringIO(text))
    ]


def _rows_sweep_json(text: str) -> list[tuple]:
    return [(int(r["method"][1:]), r["d"], r["N"], float(r["p_sim"])) for r in json.loads(text)]


_VERIFY_LINE = re.compile(r"^M(\d) d=(\d+) N=(\d+) .* p_sim=(\S+) rel_err=\S+ ok$")


def _rows_verify(text: str) -> list[tuple]:
    lines = text.splitlines()
    if not lines or not lines[-1].endswith("-> PASS"):
        raise ValueError("verify did not report PASS")
    rows = []
    for line in lines[:-1]:
        match = _VERIFY_LINE.match(line)
        if match is None:
            raise ValueError(f"unexpected verify line {line!r}")
        m, d, n, p = match.groups()
        rows.append((int(m), int(d), int(n), float(p)))
    return rows


def _rows_none(text: str) -> list[tuple]:
    return []


@dataclass(frozen=True)
class Command:
    """One CLI command and what its first output must show.

    ``parse`` turns the output into (method, d, N, p_sim) rows; ``expected``
    maps each (method, d, N) to its closed-form probability.
    """

    argv: tuple[str, ...]
    parse: Callable[[str], list[tuple]]
    expected: dict

    def check(self, code: int, output: bytes) -> bool:
        if code != 0:
            return False
        try:
            rows = self.parse(output.decode("utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            print(f"{' '.join(self.argv)}: {exc}", file=sys.stderr)
            return False
        seen = {(m, d, n): p for m, d, n, p in rows}
        return len(seen) == len(rows) and seen.keys() == self.expected.keys() and all(
            _relative_error_ok(seen[key], ref) for key, ref in self.expected.items()
        )


def _generate_argv(method: int, d: int, n: int, alpha_sq: float | None) -> tuple[str, ...]:
    argv = ("generate", "--method", str(method), "--d", str(d), "--N", str(n))
    return argv if alpha_sq is None else argv + ("--alpha-sq", repr(alpha_sq))


def cli_commands(seed: int) -> list[Command]:
    """The CLI commands of one run; writes the config file they read."""
    rng = random.Random(f"cli:{seed}")
    commands = []
    for method, d, n in GENERATE_POINTS:
        alpha_sq = rng.uniform(0.5, 1.5) * n / d if method == 1 else None
        expected = {(method, d, n): analysis.closed_form_probability(method, d, n, alpha_sq)}
        argv = _generate_argv(method, d, n, alpha_sq)
        commands.append(Command(argv, _rows_generate_json, expected))
        commands.append(Command(argv + ("--format", "csv"), _rows_generate_csv, expected))

    method, d, n = CONFIG_POINT
    alpha_sq = rng.uniform(0.5, 1.5) * n / d
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    config = OUT_DIR / f"cli-{seed}.conf"
    config.write_text(f"method = {method}\nd = {d}\nN = {n}\nalpha-sq = {alpha_sq!r}\n", encoding="utf-8")
    expected = {(method, d, n): analysis.closed_form_probability(method, d, n, alpha_sq)}
    commands.append(Command(("--config", str(config), "generate"), _rows_generate_json, expected))

    sweep = {
        (m, d, 4): analysis.closed_form_probability(m, d, 4)
        for m in (1, 2, 3, 4)
        for d in (2, 3, 4)
        if m < 3 or d != 3
    }
    commands.append(Command(SWEEP_ARGS, _rows_sweep_csv, sweep))
    commands.append(Command(SWEEP_ARGS + ("--format", "json"), _rows_sweep_json, sweep))
    verify = {(m, 2, n): analysis.closed_form_probability(m, 2, n) for m in (1, 2, 3, 4) for n in (2, 3, 4)}
    commands.append(Command(VERIFY_ARGS, _rows_verify, verify))
    commands.append(Command(("resources", "--d", "4", "--N", "4"), _rows_none, {}))
    commands.append(Command(("resources", "--d", "4", "--N", "4", "--format", "json"), _rows_none, {}))
    return commands


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args: list[str]) -> tuple[int, bytes, float]:
    """Run ``python <args>`` to completion: (exit code, stdout+stderr, peak RSS in MB)."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=child_env(),
        cwd=ROOT,
    )
    with proc.stdout:
        output = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, usage.ru_maxrss / 1024.0


class CliWorkload:
    """``cli``: one request is one fresh ``noongen`` process."""

    def __init__(self, seed: int) -> None:
        import noongen.cli  # noqa: F401  (part of the cold start users pay)

        commands = cli_commands(seed)
        self.order = random.Random(f"cli:{seed}:order").sample(commands, len(commands))
        # Timed loops end on a whole cycle of commands, so every cycle weighs the same.
        self.stride = len(self.order)
        self.outputs: dict[tuple[str, ...], bytes] = {}
        self._next = 0
        self._peak_rss_mb = 0.0

    def warmup(self) -> tuple[int, int]:
        """Run every command once, checking its output against the closed forms."""
        failed = 0
        for command in self.order:
            code, output, _ = spawn(["-c", CLI_ENTRY, *command.argv])
            self.outputs[command.argv] = output
            if not command.check(code, output):
                print(f"failed: {' '.join(command.argv)}\n{output.decode(errors='replace')}", file=sys.stderr)
                failed += 1
        return len(self.order), failed

    def request(self) -> tuple[int, int]:
        command = self.order[self._next % len(self.order)]
        self._next += 1
        code, output, rss = spawn(["-c", CLI_ENTRY, *command.argv])
        self._peak_rss_mb = max(self._peak_rss_mb, rss)
        return 1, int(code != 0 or output != self.outputs[command.argv])

    def in_process_request(self) -> tuple[int, int]:
        """One command through ``noongen.cli.main`` in this process, stdout captured."""
        import noongen.cli

        command = self.order[self._next % len(self.order)]
        self._next += 1
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = noongen.cli.main(list(command.argv))
        return 1, int(code != 0 or buffer.getvalue().encode() != self.outputs[command.argv])

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest timed child process."""
        return self._peak_rss_mb


def build(name: str, seed: int) -> GridWorkload | CliWorkload:
    return CliWorkload(seed) if name == "cli" else GridWorkload(name, seed)


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
