"""Layer trace taken from outside the package.

A :class:`Tracer` wraps the public functions of noongen's layers and records
one span per call: name, start, end, parent span and request id, plus the
term counts of the states the call took and returned. Spans stay in memory
and are written out as JSON lines when the run ends. Per-layer metrics are
computed afterwards from the spans alone, with self time taken as a span's
duration minus the durations of its child spans.

``FockState.__init__`` is deliberately not wrapped: a trusted construction
path that bypasses it would silently zero such a count. Construction cost
shows up in the self time of the element or pipeline that built the state.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Public functions wrapped per layer (module ``noongen.<layer>``).
TRACED = {
    "fock": ("tensor", "make_coherent_truncated", "restrict_total_photons"),
    "elements": ("apply_element", "project_photons", "apply_fsf", "two_photon_herald"),
    "pipelines": (
        "run_method",
        "split_evenly",
        "generator_even",
        "generator_odd",
        "generator_kerr",
        "extract_noon",
        "collapse_polarization",
    ),
    "analysis": ("closed_form_probability", "run_sweep"),
    "cli": ("main",),
}
ELEMENT_TYPES = ("BeamSplitter", "PhaseShifter", "CrossKerr", "PolarizingBS")
CLI_COMMANDS = ("generate", "sweep", "verify", "resources")

_NAME, _START, _END, _PARENT, _REQUEST, _IN, _OUT, _EMPTY = range(8)


def _terms(value) -> int | None:
    """Term count of a state, of a heralded outcome's state, else None."""
    value = getattr(value, "state", value)
    if hasattr(value, "terms") and hasattr(value, "mode_count"):
        return len(value)
    return None


def _empty(value) -> bool:
    """True for a state or outcome with no terms, or a report with p = 0."""
    probability = getattr(value, "generation_probability", None)
    if probability is not None:
        return probability == 0.0
    terms = _terms(value)
    return terms == 0


def _span_name(layer: str, func: str, args: tuple) -> str:
    if func == "apply_element":
        return f"elements.apply_element.{type(args[1]).__name__}"
    if func == "run_method":
        return f"pipelines.run_method.M{args[0].method}"
    if func == "main":
        argv = args[0] if args and args[0] is not None else sys.argv[1:]
        command = next((a for a in argv if a in CLI_COMMANDS), "none")
        return f"cli.main.{command}"
    return f"{layer}.{func}"


class Tracer:
    """Records spans around noongen's public functions while installed.

    Each wrapper is bound in place of the original under every name that any
    loaded ``noongen`` module holds it by (``pipelines`` imports
    ``apply_element`` and ``tensor`` at import time, ``elements`` imports
    ``tensor`` under an alias), so internal calls are traced too.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == "noongen" or name.startswith("noongen.")
        ]
        for layer, funcs in TRACED.items():
            module = sys.modules.get(f"noongen.{layer}")
            if module is None:
                continue
            for func in funcs:
                original = getattr(module, func, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, func, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, func: str, original):
        spans = self.spans
        stack = self._stack
        counts_terms = layer in ("fock", "elements", "pipelines")
        counts_empty = layer == "pipelines"
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [
                _span_name(layer, func, args),
                0,
                0,
                stack[-1] if stack else None,
                self.request,
                None,
                None,
                False,
            ]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if counts_terms:
                record[_IN] = _terms(args[0]) if args else None
                record[_OUT] = _terms(result)
            if counts_empty:
                record[_EMPTY] = _empty(result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "request", "terms_in", "terms_out", "empty")
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, record in enumerate(self.spans):
                row = {"id": span_id, **dict(zip(keys, record))}
                handle.write(json.dumps(row) + "\n")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for element in ELEMENT_TYPES:
        for suffix in ("calls", "self_ms", "terms_in", "terms_out"):
            names.append(f"elements.apply_element.{element}.{suffix}")
    for func in ("project_photons", "apply_fsf", "two_photon_herald"):
        names += [f"elements.{func}.calls", f"elements.{func}.self_ms"]
    names += ["elements.project_photons.kept_ratio", "elements.bs_matrix_element.hit_ratio"]
    for func in TRACED["fock"]:
        names += [f"fock.{func}.calls", f"fock.{func}.self_ms"]
    names.append("fock.peak_terms")
    names += [f"pipelines.run_method.M{m}.self_ms" for m in (1, 2, 3, 4)]
    for func in TRACED["pipelines"][1:]:
        names += [f"pipelines.{func}.calls", f"pipelines.{func}.self_ms"]
    names.append("pipelines.empty_outcomes")
    for func in TRACED["analysis"]:
        names += [f"analysis.{func}.calls", f"analysis.{func}.self_ms"]
    names += ["cli.interpreter_ms", "cli.import_ms"]
    names += [f"cli.main.{command}.ms" for command in CLI_COMMANDS]
    names += ["warmup_pass_ms", "trace.overhead"]
    return names


def span_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-request counts and self times, computed from the spans alone.

    Returns the span-derived subset of :func:`per_layer_names`; names of
    functions that were never called read 0.
    """
    child_ns = [0] * len(spans)
    for record in spans:
        if record[_PARENT] is not None:
            child_ns[record[_PARENT]] += record[_END] - record[_START]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    terms_in: dict[str, int] = {}
    terms_out: dict[str, int] = {}
    peak_terms = 0
    empty = 0
    for span_id, record in enumerate(spans):
        name = record[_NAME]
        duration = record[_END] - record[_START]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + duration
        self_ns[name] = self_ns.get(name, 0) + duration - child_ns[span_id]
        if record[_IN] is not None:
            terms_in[name] = terms_in.get(name, 0) + record[_IN]
        if record[_OUT] is not None:
            terms_out[name] = terms_out.get(name, 0) + record[_OUT]
            peak_terms = max(peak_terms, record[_OUT])
        empty += record[_EMPTY]

    def per_request(table: dict[str, int], name: str, scale: float = 1.0) -> float:
        return table.get(name, 0) * scale / requests

    out: dict[str, float] = {}
    for name in per_layer_names():
        prefix, _, suffix = name.rpartition(".")
        if suffix == "calls":
            out[name] = per_request(calls, prefix)
        elif suffix == "self_ms":
            out[name] = per_request(self_ns, prefix, 1e-6)
        elif suffix in ("terms_in", "terms_out"):
            out[name] = per_request(terms_in if suffix == "terms_in" else terms_out, prefix)
        elif prefix.startswith("cli.main.") and suffix == "ms":
            count = calls.get(prefix, 0)
            out[name] = total_ns.get(prefix, 0) * 1e-6 / count if count else 0.0
    project = "elements.project_photons"
    kept_in = terms_in.get(project, 0)
    out[f"{project}.kept_ratio"] = terms_out.get(project, 0) / kept_in if kept_in else 0.0
    out["fock.peak_terms"] = float(peak_terms)
    out["pipelines.empty_outcomes"] = empty / requests
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", ".terms_in", ".terms_out", ".empty_outcomes")):
        return "count/req"
    if name.endswith(".self_ms"):
        return "ms/req"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    if name.endswith(".peak_terms"):
        return "terms"
    return "ms"
