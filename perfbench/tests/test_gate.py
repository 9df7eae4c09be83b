"""The correctness gate: every operation is checked, none is skipped."""

import pytest

import workloads
from noongen import pipelines


def test_checker_fails_the_underflow_points_and_passes_every_other_cascade_point():
    points = [workloads.make_point(*p) for p in workloads.CASCADE + workloads.UNDERFLOW]
    assert workloads.run_points(points) == (11, 3)
    for p in points[len(workloads.CASCADE):]:
        assert workloads.run_points([p]) == (1, 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_filtration_and_cascade_passes_succeed(seed):
    assert workloads.GridWorkload("filtration", seed).request() == (7, 0)
    assert workloads.GridWorkload("cascade", seed).request() == (8, 0)


def test_an_exception_counts_as_a_failed_operation(monkeypatch):
    original = pipelines.run_method

    def flaky(cfg):
        if cfg.method == 4:
            raise ValueError("boom")
        return original(cfg)

    monkeypatch.setattr(pipelines, "run_method", flaky)
    points = [workloads.make_point(*p) for p in workloads.CASCADE]
    assert workloads.run_points(points) == (8, 3)


def test_underflow_probe_reports_each_point_against_its_closed_form():
    rows = workloads.probe_underflow()
    assert [row["point"] for row in rows] == ["M3 d=8 N=6", "M3 d=4 N=12", "M3 d=16 N=4"]
    assert all(row["p_closed"] > 0.0 and not row["ok"] for row in rows)


def test_cli_check_rejects_wrong_output_and_nonzero_exit():
    command = workloads.Command(
        ("generate",), workloads._rows_generate_csv, {(2, 3, 4): 0.25}
    )
    header = "method,d,N,alpha_sq,generation_probability,balanced,residual_norm\n"
    assert command.check(0, (header + "M2,3,4,,0.25,true,0\n").encode())
    assert not command.check(0, (header + "M2,3,4,,0.2500001,true,0\n").encode())
    assert not command.check(1, (header + "M2,3,4,,0.25,true,0\n").encode())
    assert not command.check(0, b"not csv at all")
