"""The layer trace: rebinding, self time, JSON lines and repeatable counts."""

import json

import pytest

import noongen
import noongen.cli
import run
import spans
import workloads
from noongen import elements, fock, pipelines

COUNT_SUFFIXES = (".calls", ".terms_in", ".terms_out", ".peak_terms", ".empty_outcomes", "_ratio")


def test_install_rebinds_every_imported_name_and_uninstall_restores_it():
    originals = (elements.apply_element, fock.tensor, pipelines.run_method, noongen.cli.main)
    init = fock.FockState.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipelines.apply_element is elements.apply_element is noongen.apply_element
        assert elements.apply_element is not originals[0]
        assert elements._tensor is fock.tensor is pipelines.tensor is not originals[1]
        assert noongen.cli.run_method is pipelines.run_method is not originals[2]
        assert noongen.cli.main is not originals[3]
        assert fock.FockState.__init__ is init
    finally:
        tracer.uninstall()
    assert (elements.apply_element, fock.tensor, pipelines.run_method, noongen.cli.main) == originals
    assert pipelines.apply_element is originals[0]
    assert elements._tensor is originals[1]


def test_self_time_is_span_minus_its_children():
    # name, start, end, parent, request, terms_in, terms_out, empty
    records = [
        ["pipelines.generator_kerr", 0, 1000, None, 1, 4, 0, True],
        ["elements.apply_element.BeamSplitter", 100, 300, 0, 1, 4, 9, False],
        ["elements.project_photons", 400, 700, 0, 1, 9, 3, False],
        ["fock.tensor", 450, 500, 2, 1, 2, 5, False],
    ]
    metrics = spans.span_metrics(records, requests=2)
    assert metrics["pipelines.generator_kerr.self_ms"] == pytest.approx(500e-6 / 2)
    assert metrics["elements.project_photons.self_ms"] == pytest.approx(250e-6 / 2)
    assert metrics["fock.tensor.self_ms"] == pytest.approx(50e-6 / 2)
    assert metrics["elements.apply_element.BeamSplitter.terms_out"] == 4.5
    assert metrics["elements.project_photons.kept_ratio"] == pytest.approx(3 / 9)
    assert metrics["fock.peak_terms"] == 9
    assert metrics["pipelines.empty_outcomes"] == 0.5
    assert metrics["elements.apply_fsf.calls"] == 0


def test_spans_are_written_as_json_lines(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request = 7
        pipelines.run_method(pipelines.MethodConfig(method=4, d=2, N=2))
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(tracer.spans) > 1
    assert rows[0]["name"] == "pipelines.run_method.M4" and rows[0]["parent"] is None
    assert all(row["request"] == 7 and row["end_ns"] >= row["start_ns"] for row in rows)
    assert all(rows[row["parent"]]["start_ns"] <= row["start_ns"] for row in rows[1:])


@pytest.mark.parametrize("name", ["filtration", "cascade", "cli"])
def test_counts_repeat_exactly_across_two_traced_runs(name):
    def counts():
        metrics, _, failed, _ = run.per_layer(workloads, name, seed=5, seconds=0.2)
        assert failed == 0
        return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}

    first, second = counts(), counts()
    assert first == second
    assert first["fock.peak_terms"] > 0

