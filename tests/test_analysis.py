"""Tests for closed forms, resource counts, losses, asymptotics, and sweeps."""

import csv
import io
import math
from math import factorial

import numpy as np
import pytest

from conftest import (
    EXACT,
    NORMAL_MIN,
    exact_generator_magnitudes,
    exact_probability,
    relative_error,
    scan_points,
)
from noongen import (
    LossModel,
    ResourceCount,
    SweepSpec,
    asymptotic_ratio,
    closed_form_component_magnitude,
    closed_form_probability,
    format_float,
    generator_magnitudes,
    loss_adjusted_probability,
    optimal_alpha_sq,
    resource_counts,
    run_sweep,
    simulated_probability,
    sweep_to_csv,
    sweep_to_json,
)
from noongen import analysis
from noongen.analysis import compare_grid


class TestClosedForms:
    def test_method1_headline(self):
        assert closed_form_probability(1, 4, 4, 1.0) == pytest.approx(
            4.2e-6, rel=0.03, abs=0.0
        )

    def test_method4_exact(self):
        assert closed_form_probability(4, 4, 4) == 0.25
        assert closed_form_probability(4, 8, 3) == 0.125

    def test_method3_small(self):
        assert closed_form_probability(3, 2, 2) == pytest.approx(
            1 / 16, rel=1e-12, abs=0.0
        )

    def test_method1_zero_alpha(self):
        assert closed_form_probability(1, 4, 4, 0.0) == 0.0

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError, match="method"):
            closed_form_probability(0, 2, 2)
        with pytest.raises(ValueError, match="power of two"):
            closed_form_probability(3, 3, 2)
        with pytest.raises(ValueError, match="alpha_sq"):
            closed_form_probability(1, 2, 2, -1.0)
        with pytest.raises(ValueError, match="d must be at least 2, got 1"):
            optimal_alpha_sq(1, 3)  # method 1 needs two modes

    @pytest.mark.parametrize(
        "args, message",
        [
            ((4, 2, 3.5), "N must be an int, got 3.5"),
            ((1, 2.0, 2), "d must be an int, got 2.0"),
            ((True, 2, 2), "method must be an int, got True"),
        ],
    )
    @pytest.mark.parametrize(
        "function",
        [closed_form_probability, closed_form_component_magnitude, resource_counts],
    )
    def test_rejects_non_int_domain(self, function, args, message):
        # 3.5 photons once gave p = 0.5; 2.0 modes a TypeError from inside.
        with pytest.raises(ValueError) as info:
            function(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("alpha_sq", [math.nan, math.inf, -1.0])
    def test_rejects_bad_alpha_sq(self, alpha_sq):
        for closed_form in (closed_form_probability, closed_form_component_magnitude):
            with pytest.raises(ValueError, match="finite and non-negative"):
                closed_form(1, 2, 2, alpha_sq)
        with pytest.raises(ValueError, match="finite and non-negative"):
            SweepSpec(methods=(1,), vary="N", fixed=2, values=(2,), alpha_sq=alpha_sq)

    @pytest.mark.parametrize(
        "args", [(2, 2, 4, math.nan), (4, 2, 4, -1.0), (3, 2, 2, 0.5)]
    )
    def test_rejects_alpha_sq_off_method_1(self, args):
        # M2 with a nan alpha_sq once gave p = 0.00154, M4 with -1.0 p = 0.5.
        for closed_form in (closed_form_probability, closed_form_component_magnitude):
            with pytest.raises(ValueError) as info:
                closed_form(*args)
            assert str(info.value) == (
                f"alpha applies to method 1 only, got method {args[0]}"
            )

    @pytest.mark.parametrize("method", [1, 2, 3, 4])
    def test_closed_forms_match_exact(self, method):
        # p and |c| = sqrt(p/d) over the domain scan, within 1e-12 of the
        # exact closed form wherever that is a normal float.
        for point in scan_points():
            if point[0] != method:
                continue
            exact_p = exact_probability(*point)
            exact_c = EXACT.sqrt(EXACT.divide(exact_p, point[1]))
            for closed_form, exact in (
                (closed_form_probability, exact_p),
                (closed_form_component_magnitude, exact_c),
            ):
                if exact >= NORMAL_MIN:
                    got = closed_form(*point)
                    assert relative_error(got, exact) <= 1e-12, (closed_form, point)

    def test_generator_magnitudes_match_exact(self):
        for n in range(1, 41):
            for got, exact in zip(generator_magnitudes(n), exact_generator_magnitudes(n)):
                assert relative_error(got, exact) <= 1e-12, n

    def test_large_n_does_not_overflow(self):
        value = closed_form_probability(2, 4, 40)
        assert 0.0 < value < 1e-59
        # far beyond double range the result underflows gracefully to zero
        assert closed_form_probability(2, 4, 200) == 0.0

    def test_probabilities_in_unit_interval(self):
        for method in (1, 2, 3, 4):
            for d in (2, 4):
                for n in (2, 3, 4, 5, 6):
                    p = closed_form_probability(method, d, n)
                    assert 0.0 < p <= 1.0


class TestOptimalAlpha:
    def test_values(self):
        assert optimal_alpha_sq(4, 4) == 1.0
        assert optimal_alpha_sq(2, 4) == 2.0

    def test_optimal_form_consistency(self):
        for d, n in ((2, 3), (4, 4), (3, 5)):
            m = n // 2
            expected = (
                math.exp(-n)
                * n ** (n - 2)
                * factorial(n)
                / (
                    d ** (n - 1)
                    * (m + 1) ** (n + d)
                    * factorial(n - m - 1) ** 2
                    * factorial(m) ** 2
                )
            )
            got = closed_form_probability(1, d, n, optimal_alpha_sq(d, n))
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_grid_maximum_at_n_over_d(self):
        d, n = 4, 4
        best = optimal_alpha_sq(d, n)
        grid = np.linspace(0.1, 3.0, 291)
        values = [closed_form_probability(1, d, n, a) for a in grid]
        peak = grid[int(np.argmax(values))]
        assert abs(peak - best) <= grid[1] - grid[0]


class TestAsymptotics:
    def test_small_n_value(self):
        assert asymptotic_ratio(4) == pytest.approx(
            6 * math.exp(4) / 64, rel=1e-12, abs=0.0
        )

    def test_n20_close_to_gaussian_limit(self):
        ratio = asymptotic_ratio(20) / math.sqrt(2 * math.pi * 20)
        assert 0.99 <= ratio <= 1.01

    def test_monotone_from_above(self):
        scaled = [
            asymptotic_ratio(n) / math.sqrt(2 * math.pi * n) for n in range(4, 41)
        ]
        assert all(s > 1.0 for s in scaled)
        assert all(a > b for a, b in zip(scaled, scaled[1:]))

    def test_matches_probability_ratio(self):
        for n in (2, 3, 4, 6, 8):
            direct = closed_form_probability(2, 4, n) / closed_form_probability(
                1, 4, n, optimal_alpha_sq(4, n)
            )
            assert asymptotic_ratio(n) == pytest.approx(direct, rel=1e-10, abs=0.0)


class TestResources:
    def test_method1(self):
        assert resource_counts(1, 4, 4) == ResourceCount(8, 0, 8, 0, 8)

    def test_method2(self):
        assert resource_counts(2, 4, 4) == ResourceCount(11, 4, 8, 1, 8)

    def test_method3_even(self):
        assert resource_counts(3, 2, 2) == ResourceCount(3, 1, 2, 2, 0)
        assert resource_counts(3, 4, 4) == ResourceCount(18, 6, 12, 4, 0)

    def test_method3_odd_doubles_splitters(self):
        even = resource_counts(3, 4, 4)
        odd = resource_counts(3, 4, 3)
        assert odd.odd_n_variant
        assert odd.beam_splitters == 3 * 3 * 3  # 3N(d-1)
        assert odd.phase_shifters == 3 * 3
        assert odd.spcd_detectors == 3 * 3
        assert not even.odd_n_variant

    def test_method4(self):
        assert resource_counts(4, 4, 7) == ResourceCount(12, 3, 3, 1, 3)


class TestLosses:
    def test_lossless_identity(self):
        rc = resource_counts(2, 4, 4)
        assert loss_adjusted_probability(0.3, rc, LossModel(1.0, 1.0)) == 0.3

    def test_method4_example(self):
        rc = resource_counts(4, 4, 4)
        adjusted = loss_adjusted_probability(0.25, rc, LossModel(0.9, 0.9))
        assert adjusted == pytest.approx(0.25 * 0.9**6, rel=1e-12, abs=0.0)

    def test_dead_detectors(self):
        rc = resource_counts(1, 2, 4)
        assert loss_adjusted_probability(0.5, rc, LossModel(0.0, 1.0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="eta_detector"):
            LossModel(1.5, 1.0)
        rc = resource_counts(4, 2, 2)
        with pytest.raises(ValueError, match="probability"):
            loss_adjusted_probability(1.5, rc, LossModel(1.0, 1.0))


class TestSweep:
    def test_over_d_rows(self):
        spec = SweepSpec(
            methods=(1, 2, 3, 4),
            vary="d",
            fixed=4,
            values=(2, 3, 4, 8),
        )
        rows = run_sweep(spec)
        by_key = {(r.method, r.d): r for r in rows}
        # methods 3 and 4 skip d=3
        assert (3, 3) not in by_key and (4, 3) not in by_key
        assert (1, 3) in by_key and (2, 3) in by_key
        assert by_key[(4, 8)].p_closed == 0.125

    def test_ordering_at_n4(self):
        spec = SweepSpec(
            methods=(1, 2, 3, 4), vary="d", fixed=4, values=(4,)
        )
        rows = {r.method: r.p_closed for r in run_sweep(spec)}
        assert rows[4] > rows[2] > rows[1] > rows[3]

    def test_method2_decreases_in_n(self):
        spec = SweepSpec(
            methods=(2,), vary="N", fixed=4, values=(2, 3, 4, 5, 6)
        )
        values = [r.p_closed for r in run_sweep(spec)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_simulation_columns_at_every_point(self):
        spec = SweepSpec(methods=(4,), vary="d", fixed=3, values=(2, 4, 8))
        rows = {r.d: r for r in run_sweep(spec)}
        assert sorted(rows) == [2, 4, 8]
        for d, row in rows.items():
            assert row.p_sim == 1.0 / d and row.rel_err == 0.0

    def test_deterministic_order(self):
        spec = SweepSpec(
            methods=(4, 1), vary="N", fixed=2, values=(3, 2)
        )
        keys = [(r.method, r.d, r.N) for r in run_sweep(spec)]
        assert keys == [(1, 2, 2), (1, 2, 3), (4, 2, 2), (4, 2, 3)]

    def test_validation(self):
        with pytest.raises(ValueError, match="vary"):
            SweepSpec(methods=(1,), vary="x", fixed=2, values=(2,))
        with pytest.raises(ValueError, match="at least"):
            SweepSpec(methods=(1,), vary="d", fixed=4, values=(1,))
        with pytest.raises(ValueError, match="method"):
            SweepSpec(methods=(9,), vary="d", fixed=4, values=(2,))

    @pytest.mark.parametrize(
        "fixed, values, message",
        [
            (4, (2.5,), "values must be ints, got 2.5"),
            (4, (2, True), "values must be ints, got True"),
            (4, ("3",), "values must be ints, got '3'"),
            (4.0, (2,), "fixed must be an int, got 4.0"),
            (True, (2,), "fixed must be an int, got True"),
        ],
    )
    def test_non_int_values_rejected_when_built(self, fixed, values, message):
        # Checked when the spec is built, not mid-sweep.
        with pytest.raises(ValueError, match=message):
            SweepSpec(methods=(1,), vary="N", fixed=fixed, values=values)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="power-of-two"):
            compare_grid((3, 4), (3, 5, 6), (2,))
        with pytest.raises(ValueError, match="power-of-two"):
            run_sweep(SweepSpec(methods=(4,), vary="d", fixed=2, values=(3,)))

    def test_negative_d_not_skipped(self):
        with pytest.raises(ValueError, match="at least 2, got -3"):
            compare_grid((3,), (-3, 2), (2,))

    def test_grid_at_the_budget_is_simulated(self):
        # d*N summed over the grid may reach the budget but not pass it; the
        # check runs before any point is simulated.
        budget = analysis._GRID_BUDGET
        (row,) = compare_grid((2,), (budget,), (1,))
        assert row.p_sim == row.p_closed == 1.0
        with pytest.raises(ValueError, match="exceeds the simulation budget"):
            compare_grid((2,), (budget + 1,), (1,))
        with pytest.raises(ValueError, match="exceeds the simulation budget"):
            compare_grid((1, 2), (2, budget // 2), (1,))

    def test_csv_round_trip(self):
        spec = SweepSpec(methods=(1, 4), vary="d", fixed=4, values=(2, 4))
        rows = run_sweep(spec)
        text = sweep_to_csv(rows)
        assert text.splitlines()[0] == "method,d,N,alpha_sq,p_closed,p_sim,rel_err"
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        for row, record in zip(rows, parsed):
            assert record["method"] == f"M{row.method}"
            assert int(record["d"]) == row.d
            assert float(record["p_closed"]) == pytest.approx(
                row.p_closed, rel=1e-11, abs=0.0
            )
            assert float(record["p_sim"]) == pytest.approx(
                row.p_sim, rel=1e-11, abs=0.0
            )

    def test_json_shape(self):
        import json

        # every point is simulated, so p_sim is a number at d = 8 too
        spec = SweepSpec(methods=(3,), vary="N", fixed=8, values=(2, 3))
        payload = json.loads(sweep_to_json(run_sweep(spec)))
        assert payload[0]["method"] == "M3"
        assert isinstance(payload[0]["p_sim"], float)
        assert payload[0]["p_sim"] == pytest.approx(
            payload[0]["p_closed"], rel=1e-11, abs=0.0
        )

    def test_simulation_agrees_with_direct_run(self):
        assert simulated_probability(4, 4, 4) == pytest.approx(0.25, abs=1e-12)


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_float(0.25) == "0.25"
        assert format_float(1.0) == "1"
        assert format_float(2.1433470507544583e-05) == "2.14334705075e-05"

    def test_scientific_below_threshold(self):
        assert "e" in format_float(9.999e-5)
        assert "e" not in format_float(1.001e-4)

    def test_zero(self):
        assert format_float(0.0) == "0"
