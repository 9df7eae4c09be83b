"""Command-line interface: NOON-state reports, sweep tables, verification
grids, and hardware resource counts.

Exit codes: 0 on success, 1 on configuration or validation errors, 2 when the
verification grid finds a point whose simulation is off its closed form by
1e-9 relative or more. All output is deterministic: repeated identical
invocations emit byte-identical text.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import analysis
from .pipelines import METHODS, MethodConfig, check_domain, run_method

OUTPUT_DIR_ENV = "NOONGEN_OUTPUT_DIR"


class CliError(Exception):
    """Configuration or validation failure; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        self.flags: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags.update(action.option_strings)
        return action

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _parse_methods(text: str) -> tuple[int, ...]:
    if text == "all":
        return METHODS
    try:
        methods = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"invalid method list {text!r}") from exc
    for method in methods:
        check_domain(method)
    return methods


def _parse_range(text: str, name: str) -> tuple[int, ...]:
    """Parse 'lo:hi' (inclusive) or a comma-separated list of integers."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"invalid {name} {text!r}; expected lo:hi or a,b,c") from exc


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="noongen", description=__doc__)
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="key=value file supplying defaults; explicit flags win",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, _Parser] = {}

    def add_command(name: str, help_text: str) -> _Parser:
        sub = subparsers.add_parser(name, help=help_text)
        if name != "verify":  # verify prints only its text lines
            sub.add_argument("--format", choices=("json", "csv"), default=None)
        sub.add_argument(
            "--output",
            default=None,
            help=f"output path (relative paths resolve against ${OUTPUT_DIR_ENV}); default stdout",
        )
        registry[name] = sub
        return sub

    gen = add_command("generate", "run one pipeline and emit its NOON report")
    gen.add_argument("--method", type=int, choices=METHODS, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--N", type=int, required=True)
    gen.add_argument("--alpha-sq", type=float, default=None)
    gen.set_defaults(func=cmd_generate)

    sweep = add_command("sweep", "emit a closed-form/simulation sweep table")
    sweep.add_argument("--vary", choices=("d", "N"), required=True)
    sweep.add_argument("--methods", default="all")
    sweep.add_argument("--d", type=int, default=None)
    sweep.add_argument("--N", type=int, default=None)
    sweep.add_argument("--d-range", default=None)
    sweep.add_argument("--N-range", default=None)
    sweep.add_argument("--alpha-sq", type=float, default=None)
    sweep.set_defaults(func=cmd_sweep)

    verify = add_command("verify", "compare simulation against closed forms")
    verify.add_argument("--methods", default="all")
    verify.add_argument("--d-values", default="2,4")
    verify.add_argument("--N-range", default="2:6")
    verify.add_argument("--alpha-sq", type=float, default=None)
    verify.set_defaults(func=cmd_verify)

    resources = add_command("resources", "emit hardware counts")
    resources.add_argument("--methods", default="all")
    resources.add_argument("--d", type=int, required=True)
    resources.add_argument("--N", type=int, required=True)
    resources.set_defaults(func=cmd_resources)

    return parser, registry


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(
                        f"{path}:{line_no}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def _config_flags(sub: _Parser, values: dict[str, str]) -> list[str]:
    """Turn config ``key=value`` pairs into ``--key=value`` flags of ``sub``."""
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if flag not in sub.flags:
            raise CliError(f"unknown config key {key!r}")
        flags.append(f"{flag}={value}")
    return flags


def _extract_config(argv: list[str]) -> tuple[str | None, list[str]]:
    rest: list[str] = []
    config: str | None = None
    index = 0
    while index < len(argv):
        token = argv[index]
        if token == "--config":
            if index + 1 >= len(argv):
                raise CliError("--config requires a file path")
            config = argv[index + 1]
            index += 2
            continue
        if token.startswith("--config="):
            config = token.split("=", 1)[1]
            index += 1
            continue
        rest.append(token)
        index += 1
    return config, rest


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
        return
    path = output
    if not os.path.isabs(path):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = os.path.join(base, path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output file {path}: {exc}") from exc


def cmd_generate(args) -> int:
    analysis.check_alpha_sq(args.alpha_sq)
    alpha = None if args.alpha_sq is None else math.sqrt(args.alpha_sq)
    report = run_method(MethodConfig(args.method, args.d, args.N, alpha))
    alpha_sq = None
    if args.method == 1:
        alpha_sq = (
            args.alpha_sq
            if args.alpha_sq is not None
            else analysis.optimal_alpha_sq(args.d, args.N)
        )
    if args.format == "csv":
        record = {
            "method": f"M{args.method}",
            "d": args.d,
            "N": args.N,
            "alpha_sq": alpha_sq,
            "generation_probability": report.generation_probability,
            "balanced": report.balanced,
            "residual_norm": report.residual_norm,
        }
        _emit(analysis.to_csv(list(record), [record]), args.output)
        return 0
    payload = {
        "method": f"M{args.method}",
        "report": {**report.to_dict(), "alpha_sq": alpha_sq},
    }
    _emit(analysis.to_json(payload, sort_keys=True), args.output)
    return 0


def _sweep_spec(args) -> analysis.SweepSpec:
    methods = _parse_methods(args.methods)
    if args.vary == "d":
        if args.N is None or args.d_range is None:
            raise CliError("sweep --vary d requires --N and --d-range")
        fixed, values = args.N, _parse_range(args.d_range, "--d-range")
    else:
        if args.d is None or args.N_range is None:
            raise CliError("sweep --vary N requires --d and --N-range")
        fixed, values = args.d, _parse_range(args.N_range, "--N-range")
    return analysis.SweepSpec(
        methods=methods,
        vary=args.vary,
        fixed=fixed,
        values=values,
        alpha_sq=args.alpha_sq,
    )


def cmd_sweep(args) -> int:
    rows = analysis.run_sweep(_sweep_spec(args))
    if args.format == "json":
        _emit(analysis.sweep_to_json(rows), args.output)
    else:
        _emit(analysis.sweep_to_csv(rows), args.output)
    return 0


def cmd_verify(args) -> int:
    methods = _parse_methods(args.methods)
    d_values = _parse_range(args.d_values, "--d-values")
    n_values = _parse_range(args.N_range, "--N-range")
    for d in d_values:
        if d > analysis.SIM_MAX_D:
            raise CliError(
                f"d={d} exceeds the simulation limit d<={analysis.SIM_MAX_D}"
            )
    for n in n_values:
        if n > analysis.SIM_MAX_N:
            raise CliError(
                f"N={n} exceeds the simulation limit N<={analysis.SIM_MAX_N}"
            )
    fmt, tolerance = analysis.format_float, analysis._REL_TOLERANCE
    rows = analysis.compare_grid(methods, d_values, n_values, args.alpha_sq)
    lines = []
    failures = 0
    for row in rows:
        ok = row.rel_err < tolerance
        failures += 0 if ok else 1
        alpha_cell = "-" if row.alpha_sq is None else fmt(row.alpha_sq)
        lines.append(
            f"M{row.method} d={row.d} N={row.N} alpha_sq={alpha_cell} "
            f"p_closed={fmt(row.p_closed)} p_sim={fmt(row.p_sim)} "
            f"rel_err={fmt(row.rel_err)} {'ok' if ok else 'FAIL'}"
        )
    worst = max([0.0] + [row.rel_err for row in rows])
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} of {len(rows)} points)"
    lines.append(
        f"verify: {len(rows)} points, max rel_err={fmt(worst)}, "
        f"tolerance={fmt(tolerance)} -> {verdict}"
    )
    _emit("\n".join(lines), args.output)
    return 0 if failures == 0 else 2


def cmd_resources(args) -> int:
    records = [
        {
            "method": f"M{method}",
            "d": args.d,
            "N": args.N,
            **analysis.resource_counts(method, args.d, args.N)._asdict(),
        }
        for method in sorted(set(_parse_methods(args.methods)))
    ]
    if args.format == "json":
        _emit(analysis.to_json(records, sort_keys=True), args.output)
    else:
        _emit(analysis.to_csv(list(records[0]), records), args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, registry = build_parser()
        config_path, rest = _extract_config(argv)
        if config_path is not None:
            values = _load_config(config_path)
            command = next((token for token in rest if token in registry), None)
            if command is None:
                raise CliError("--config requires a subcommand")
            # right after the command, so explicit flags that follow still win
            at = rest.index(command) + 1
            rest[at:at] = _config_flags(registry[command], values)
        args = parser.parse_args(rest)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
