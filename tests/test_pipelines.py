"""Tests for the four generation pipelines and their building blocks."""

import cmath
import decimal
import enum
import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from conftest import (
    NORMAL_MIN,
    assert_noon_close,
    assert_same_bits,
    assert_terms_close,
    cascade_generator,
    cascade_one_path_at_a_time,
    collapse_polarization,
    exact_probability,
    filter_factors,
    filtrate_blocks,
    generator_even_herald_circuit,
    noon_report_per_component,
    polarize,
    polarized_generator_odd_circuit,
    random_state,
    relative_error,
    restrict_total_photons,
    scan_points,
    sector_by_levels,
    sector_unpruned,
    split_circuit,
    split_factors,
)
from noongen import analysis, pipelines
from noongen import (
    PRUNE_THRESHOLD,
    FockState,
    MethodConfig,
    NoonReport,
    amplitude,
    apply_fsf,
    bs_matrix_element,
    closed_form_component_magnitude,
    closed_form_probability,
    extract_noon,
    generator_even,
    generator_kerr,
    generator_magnitudes,
    generator_odd,
    make_coherent_truncated,
    make_fock,
    norm_sq,
    run_method,
    split_evenly,
    tensor,
)
from noongen.elements import fsf_factor

REPORT_TOLERANCE = pipelines._REPORT_TOLERANCE  # the oracle's threshold


def multinomial_amplitude(occ: tuple[int, ...]) -> float:
    n = sum(occ)
    d = len(occ)
    coeff = factorial(n)
    for part in occ:
        coeff //= factorial(part)
    return math.sqrt(coeff) / d ** (n / 2)


class TestMethodConfig:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            MethodConfig(method=5, d=2, N=2)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError, match="at least 2"):
            MethodConfig(method=1, d=1, N=2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            MethodConfig(method=3, d=3, N=4)
        with pytest.raises(ValueError, match="power of two"):
            MethodConfig(method=4, d=6, N=2)
        MethodConfig(method=4, d=8, N=2)  # fine

    def test_rejects_tolerance_keyword(self):
        # The report's threshold is fixed: no field sets it.
        assert MethodConfig._fields == ("method", "d", "N", "alpha")
        with pytest.raises(TypeError, match="tolerance"):
            MethodConfig(method=1, d=2, N=2, tolerance=1e-10)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, math.inf)])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            MethodConfig(method=1, d=2, N=2, alpha=alpha)

    @pytest.mark.parametrize("alpha", [1e200, complex(1e200, 1.0)])
    def test_rejects_alpha_whose_square_overflows(self, alpha):
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 must be finite"):
            MethodConfig(method=1, d=2, N=3, alpha=alpha)


class TestSplitEvenly:
    def test_single_photon_two_modes(self):
        state = split_evenly(1, 2)
        inv = 1 / math.sqrt(2)
        assert_terms_close(state, {(1, 0): inv, (0, 1): inv})

    def test_two_photons_two_modes(self):
        state = split_evenly(2, 2)
        assert_terms_close(
            state,
            {(2, 0): 0.5, (1, 1): math.sqrt(2) / 2, (0, 2): 0.5},
        )

    def test_two_photons_three_modes(self):
        state = split_evenly(2, 3)
        assert amplitude(state, (2, 0, 0)) == pytest.approx(1 / 3, abs=1e-12)
        assert amplitude(state, (1, 1, 0)) == pytest.approx(
            math.sqrt(2) / 3, abs=1e-12
        )

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 4), (3, 2), (3, 3), (4, 4), (5, 2)])
    def test_matches_multinomial_formula(self, n, d):
        state = split_evenly(n, d)
        count = 0
        for occ in itertools.product(range(n + 1), repeat=d):
            if sum(occ) != n:
                continue
            count += 1
            assert amplitude(state, occ) == pytest.approx(
                multinomial_amplitude(occ), abs=1e-12
            )
        assert len(state) == count
        assert norm_sq(state) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "n,d", [(1, 2), (3, 5), (4, 8), (8, 4), (6, 8), (8, 6), (16, 4)]
    )
    def test_matches_circuit(self, n, d):
        state = split_evenly(n, d)
        oracle = split_circuit(n, d)
        assert state.mode_count == oracle.mode_count
        assert set(state.terms) == set(oracle.terms)
        scale = max(abs(amp) for amp in oracle.terms.values())
        for occ, amp in state.terms.items():
            assert abs(amp - oracle.terms[occ]) <= 1e-14 * scale, occ
            assert repr(amp.imag) == "0.0", occ

    @pytest.mark.parametrize("n,d", [(40, 2), (30, 3)])
    def test_keeps_small_terms_a_late_scale_would_drop(self, n, d):
        # Here the unscaled factor product of the outer occupations falls
        # below the prune floor, while their amplitudes (down to 2^-20 and
        # 3^-15) do not.
        state = split_evenly(n, d)
        for occ in itertools.product(range(n + 1), repeat=d):
            if sum(occ) == n:
                want = multinomial_amplitude(occ)
                assert amplitude(state, occ) == pytest.approx(want, rel=1e-12)
        assert norm_sq(state) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "n, d, message",
        [
            (True, 2, "photon number must be an int, got True"),
            (2.0, 2, "photon number must be an int, got 2.0"),
            (2, True, "mode count must be an int, got True"),
            (2, 3.0, "mode count must be an int, got 3.0"),
        ],
    )
    def test_non_int_counts_rejected(self, n, d, message):
        # True would run as N = 1; a float would fail inside the multinomial.
        with pytest.raises(ValueError, match=message):
            split_evenly(n, d)

    def test_validation(self):
        with pytest.raises(ValueError, match="photon number"):
            split_evenly(0, 2)
        with pytest.raises(ValueError, match="mode count"):
            split_evenly(2, 1)
        with pytest.raises(ValueError, match="photon number"):
            split_evenly(301, 2)

    @pytest.mark.parametrize("n,d", [(300, 2), (40, 3), (12, 6)])
    def test_amplitudes_within_one_ulp_of_exact_root(self, n, d):
        # Each amplitude against the 60-digit square root of the exact ratio
        # N!/(d^N n_1!...n_d!). The terms come in lexicographic order, and
        # exactly the occupations whose exact amplitude is not below the
        # prune floor are kept.
        context = decimal.Context(prec=60)
        state = split_evenly(n, d)
        assert list(state.terms) == sorted(state.terms)
        kept = 0
        for head in itertools.product(range(n + 1), repeat=d - 1):
            if sum(head) > n:
                continue
            occ = (*head, n - sum(head))
            coeff = factorial(n)
            for part in occ:
                coeff //= factorial(part)
            exact = context.sqrt(context.divide(coeff, d**n))
            want = float(exact)
            if exact < PRUNE_THRESHOLD:
                assert occ not in state.terms
                continue
            kept += 1
            got = state.terms[occ]
            assert abs(got.real - want) <= math.ulp(want), occ
            assert repr(got.imag) == "0.0", occ
        assert len(state) == kept

    @pytest.mark.parametrize("n,d", [(1, 2), (8, 8), (128, 64), (300, 2)])
    def test_split_factors_match_per_n_formula(self, n, d):
        # The oracle's factors are method 2's cached 1/sqrt(weight) at the
        # weight d^n * n!, bit for bit, and its scale is sqrt(N!) correctly
        # rounded.
        factors, scale = split_factors(n, d)
        assert list(factors) == list(range(n + 1))
        for k, factor in factors.items():
            assert repr(factor) == repr(pipelines._split_factor(d**k * factorial(k)))
        exact = decimal.Context(prec=60).sqrt(factorial(n))
        assert abs(decimal.Decimal(scale) - exact) <= decimal.Decimal(math.ulp(scale)) / 2


class TestSector:
    """The level-by-level sector, the oracle of the filtration routes and of
    ``split_evenly``, equals restricting the d-fold product to N photons."""

    @staticmethod
    def product_sector(factors, d, n, first=None):
        # The first mode carries ``first`` the way the level build starts from it.
        single = FockState._trusted(1, (((k,), amp) for k, amp in factors.items()))
        state = FockState._trusted(
            1,
            (((k,), amp if first is None else first * amp) for k, amp in factors.items()),
        )
        for _ in range(d - 1):
            state = tensor(state, single)
        return restrict_total_photons(state, n)

    @staticmethod
    def assert_split_matches(got, want, d):
        # Same terms in the same order; each amplitude of ``got`` is one
        # correctly rounded quotient, each of ``want`` d products of d + 1
        # correctly rounded factors, so they agree to 2(d + 1) ulps.
        assert list(got.terms) == list(want.terms)
        for occ, amp in got.terms.items():
            assert repr(amp.imag) == "0.0", occ
            assert abs(amp.real - want.terms[occ].real) <= 2 * (d + 1) * math.ulp(amp.real)

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 7), (4, 9), (4, 1), (3, 3)])
    def test_sparse_factors_with_gaps(self, d, n):
        factors = {0: 0.6 + 0.1j, 2: -0.3j, 5: -0.45 + 0.2j}
        got = sector_by_levels(factors, d, n)
        assert_same_bits(got, self.product_sector(factors, d, n))

    @pytest.mark.parametrize("d,n", [(3, 6), (4, 6), (5, 4)])
    def test_pruned_coherent_factors(self, d, n):
        # At alpha = 1e-4 the coherent state keeps all N + 1 amplitudes, the
        # high photon numbers below the prune floor; the level build drops
        # them at its partial products as the product sector does.
        single = make_coherent_truncated(1e-4, n)
        factors = {k: amp for (k,), amp in single.terms.items()}
        assert len(factors) == n + 1
        assert abs(factors[n]) < PRUNE_THRESHOLD
        got = sector_by_levels(factors, d, n)
        want = self.product_sector(factors, d, n)
        assert len(got) < math.comb(n + d - 1, d - 1)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("d,n", [(2, 6), (4, 8), (3, 10)])
    def test_split_factors_scaled_first(self, d, n):
        factors, scale = split_factors(n, d)
        want = self.product_sector(factors, d, n, scale)
        assert_same_bits(sector_by_levels(factors, d, n, scale), want)
        assert len(want) == math.comb(n + d - 1, d - 1)
        self.assert_split_matches(split_evenly(n, d), want, d)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_level_by_level_build(self, seed):
        # ``split_evenly`` keeps the terms of the level build of its factors
        # scaled by sqrt(N!), in its order, up to the photon numbers at which
        # the small amplitudes fall below the prune floor (N ~ 100 at d = 3).
        rng = np.random.default_rng(seed)
        largest = {2: 300, 3: 120, 4: 40, 5: 20}
        for _ in range(12):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, largest[d] + 1))
            factors, scale = split_factors(n, d)
            want = sector_by_levels(factors, d, n, scale)
            self.assert_split_matches(split_evenly(n, d), want, d)

    def test_partial_products_that_climb_back_stay_pruned(self):
        # |zero| is 1 to rounding: a * zero rounds just below the floor and
        # a * zero * zero back onto it. The product sector drops (2, 0, 0)
        # and (0, 2, 0) at their pruned partial products; so must the level
        # build.
        a = -2.098896194220593e-15 + 9.777250879766066e-15j
        zero = -0.9639184244411627 + 0.266197804316389j
        assert abs(a * zero) < PRUNE_THRESHOLD <= abs(a * zero * zero)
        factors = {0: zero, 2: a}
        got = sector_by_levels(factors, 3, 2)
        assert_same_bits(got, self.product_sector(factors, 3, 2))
        assert list(got.terms) == [(0, 0, 2)]

    def test_filtered_factors_at_64_modes(self):
        # Filtered factors lie on {0, M+1, ..., N}: only the 64 NOON terms
        # complete, each the unpruned left-to-right product.
        factors = {k: 0.9 + 0j for k in [0, *range(33, 65)]}
        got = sector_by_levels(factors, 64, 64)
        noon = [tuple(64 if m == j else 0 for m in range(64)) for j in range(64)]
        assert sorted(got.terms) == sorted(noon)
        assert got.terms == sector_unpruned(factors, 64, 64)


class TestNoonSector:
    """``_filtrate`` reports the unpruned sector of the folded factors."""

    @staticmethod
    def filtrate(d, n, zero, top):
        # The NOON amplitudes ``_filtrate`` reports for single-mode factors
        # ``zero`` and ``top`` at 0 and N photons, before the filter blocks;
        # its report is the per-component one of those amplitudes.
        report = pipelines._filtrate(MethodConfig(method=1, d=d, N=n), zero, top)
        got = list(report.component_amplitudes)
        assert repr(report) == repr(noon_report_per_component(got, n, 1e-10, 0.0))
        return got

    @staticmethod
    def random_amplitude(rng):
        # |c| up to 1.5, exactly 1, or within 100x of 1e-14, with a random
        # phase or on an axis with a signed zero part.
        magnitude = [
            float(rng.uniform(0, 1.5)),
            1.0,
            PRUNE_THRESHOLD * float(10 ** rng.uniform(-2, 2)),
        ][rng.integers(3)]
        kind = rng.integers(3)
        if kind == 0:
            return cmath.rect(magnitude, rng.uniform(-math.pi, math.pi))
        sign, zero = rng.choice([-1.0, 1.0]), rng.choice([-0.0, 0.0])
        if kind == 1:
            return complex(sign * magnitude, zero)
        return complex(zero, sign * magnitude)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sector_of_the_fold(self, seed):
        # Random factor dicts with gaps, with and without keys 0 and N; their
        # 0 and N factors feed ``_filtrate``, a missing one as 0j. The fold's
        # unpruned N-photon sector holds only NOON terms.
        rng = np.random.default_rng(seed)
        built = 0
        for _ in range(500):
            d = int(rng.integers(2, 10))
            n = int(rng.integers(1, 13))
            keys = [
                k for k in range(n + 1) if rng.random() < (0.8 if k in (0, n) else 0.5)
            ]
            factors = {k: self.random_amplitude(rng) for k in keys}
            folded = filter_factors(factors, n)
            got = self.filtrate(d, n, factors.get(0, 0j), factors.get(n, 0j))
            assert_noon_close(got, sector_unpruned(folded, d, n), n)
            built += any(got)
        assert built > 100

    def test_products_below_the_floor_are_kept(self):
        # After the one filter block of N = 2, |zero| is 1 to rounding, a *
        # zero rounds below 1e-14 and a * zero * zero back onto it; no
        # product is tested against a floor, so all three terms are kept.
        factors = {
            0: -1.3631865088659978 + 0.3764605451381764j,
            2: 2.2528513398651476e-14 - 1.7101639805784158e-14j,
        }
        folded = filter_factors(factors, 2)
        a, zero = folded[2], folded[0]
        assert abs(a * zero) < PRUNE_THRESHOLD <= abs(a * zero * zero)
        got = self.filtrate(3, 2, factors[0], factors[2])
        assert_noon_close(got, sector_unpruned(folded, 3, 2), 2)
        assert all(got)

    def test_underflow_reads_unsigned_zero(self):
        # A subnormal amplitude is kept; one past the float range underflows
        # to a signed zero and is stored as 0j. The factors filter to -0.5
        # and -2^-1060 exactly at N = 2; at N = 1 no block applies.
        zero, top = -0.5 + 0j, complex(-(2.0**-1060), 0.0)
        raw = -0.7071067811865475 + 0j, complex(2.28955e-319, 0.0)
        assert filter_factors(dict(zip((0, 2), raw)), 2) == {0: zero, 2: top}
        for n, (zero_in, top_in) in [(1, (zero, top)), (2, raw)]:
            assert self.filtrate(8, n, zero_in, top_in) == [2.0**-1067] * 8
            assert repr(self.filtrate(20, n, zero_in, top_in)) == repr([0j] * 20)

    @pytest.mark.parametrize("seed", range(4))
    def test_report_matches_per_component(self, seed):
        # ``_filtrate`` builds its report from one magnitude and one sign;
        # it must equal the per-component report of the d equal amplitudes
        # at the report's threshold, for magnitudes from underflow to
        # infinity (an infinite magnitude is above no threshold and never
        # balanced). A finite magnitude whose square overflows raises in both.
        def outcome(report, *args):
            try:
                return repr(report(*args))
            except OverflowError as exc:
                return repr(exc)

        rng = np.random.default_rng(seed)
        extremes = [0j, complex(-0.0, 0.0), 1e-300 + 0j, -1e150j, 1e200 + 1e200j]
        raised = 0
        for _ in range(300):
            d, n = int(rng.integers(2, 41)), int(rng.integers(1, 21))
            zero, top = (
                extremes[rng.integers(len(extremes))] if rng.random() < 0.2
                else self.random_amplitude(rng) * 10.0 ** (rng.uniform(-300, 300) / d)
                for _ in range(2)
            )
            folded = filter_factors({0: zero, n: top}, n)
            amplitude = functools.reduce(
                operator.mul, itertools.repeat(folded[0], d - 1), folded[n]
            ) or 0j
            cfg = MethodConfig(method=1, d=d, N=n)
            got = outcome(pipelines._filtrate, cfg, zero, top)
            want = outcome(
                noon_report_per_component, [amplitude] * d, n, REPORT_TOLERANCE, 0.0
            )
            assert got == want, (d, n, zero, top)
            raised += got.startswith("OverflowError")
        assert raised < 300 // 2

    def test_missing_factor_leaves_no_term(self):
        # Method 1 reads a coherent amplitude that rounded to 0 as 0j;
        # a zero factor of either sign gives exact unsigned zeros, with or
        # without filter blocks.
        signed = complex(-0.0, -0.0)
        for zero, top in [(0j, 0.5j), (0.5 + 0j, 0j), (0j, 0j), (0.5 + 0j, signed)]:
            for n in (1, 2, 5):
                got = self.filtrate(3, n, zero, top)
                assert repr(got) == repr([0j, 0j, 0j])

    @pytest.mark.parametrize(
        "cfg", [MethodConfig(method=2, d=2, N=300), MethodConfig(method=1, d=4, N=64)]
    )
    def test_filter_work_is_linear_in_n(self, cfg):
        # Only the 0- and N-photon factors pass the floor(N/2) blocks.
        fsf_factor.cache_clear()
        bs_matrix_element.cache_clear()
        run_method(cfg)
        assert fsf_factor.cache_info().currsize <= 2 * (cfg.N // 2)


class TestMethod1:
    def test_two_mode_two_photon_amplitude(self):
        report = run_method(MethodConfig(method=1, d=2, N=2, alpha=1.0))
        expected = -math.exp(-1.0) / (4.0 * math.sqrt(2.0))
        for comp in report.component_amplitudes:
            assert comp == pytest.approx(expected, rel=1e-9)
        assert report.generation_probability == pytest.approx(
            closed_form_probability(1, 2, 2, 1.0), rel=1e-9, abs=0.0
        )

    def test_headline_four_mode_four_photon(self):
        report = run_method(MethodConfig(method=1, d=4, N=4, alpha=1.0))
        assert report.generation_probability == pytest.approx(4.2e-6, rel=0.03)
        assert report.generation_probability == pytest.approx(
            closed_form_probability(1, 4, 4, 1.0), rel=1e-9, abs=0.0
        )

    def test_vacuum_input_reports_zero(self):
        report = run_method(MethodConfig(method=1, d=3, N=2, alpha=0.0))
        assert report.generation_probability == 0.0
        assert report.component_amplitudes == (0j, 0j, 0j)

    def test_common_phase_across_components(self):
        report = run_method(MethodConfig(method=1, d=4, N=4, alpha=1.0))
        for sign in report.sign_pattern:
            assert sign == pytest.approx(1.0 + 0j, abs=1e-10)

    def test_sector_purity(self):
        report = run_method(MethodConfig(method=1, d=4, N=4, alpha=1.0))
        assert report.residual_norm < 1e-12
        assert report.balanced

    def test_surviving_occupations_after_filters(self):
        # After the k=1..M filter blocks every per-mode occupation lies in
        # {0} or {M+1, ...}.
        cfg = MethodConfig(method=1, d=2, N=5, alpha=1.0)
        single = make_coherent_truncated(1.0, 5)
        state = filtrate_blocks(tensor(single, single), cfg.N)
        m_blocks = cfg.N // 2
        allowed = {0} | set(range(m_blocks + 1, 6))
        for occ in state.terms:
            assert set(occ) <= allowed

    def test_default_alpha_is_optimal(self):
        report = run_method(MethodConfig(method=1, d=4, N=4))
        assert report.generation_probability == pytest.approx(
            closed_form_probability(1, 4, 4, 1.0), rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("d,n", [(8, 4), (4, 8), (10, 10), (12, 8)])
    def test_matches_closed_form_beyond_verify_grid(self, d, n):
        report = run_method(MethodConfig(method=1, d=d, N=n))
        assert report.generation_probability == pytest.approx(
            closed_form_probability(1, d, n, n / d), rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sector_first_matches_product_state(self, d, n):
        # Oracle: filter the full coherent product, then postselect N photons.
        for alpha in (None, 0.9 + 0.4j):
            cfg = MethodConfig(method=1, d=d, N=n, alpha=alpha)
            amp = alpha if alpha is not None else math.sqrt(n / d)
            single = make_coherent_truncated(amp, n)
            state = single
            for _ in range(d - 1):
                state = tensor(state, single)
            state = filtrate_blocks(state, n)
            want = extract_noon(restrict_total_photons(state, n), n)
            got = run_method(cfg)
            for a, b in zip(got.component_amplitudes, want.component_amplitudes):
                assert abs(a - b) <= 1e-15 * abs(b), alpha
            assert abs(got.residual_norm - want.residual_norm) <= (
                1e-15 * want.residual_norm
            ), alpha


class TestMethod2:
    def test_two_mode_two_photon_amplitude(self):
        report = run_method(MethodConfig(method=2, d=2, N=2))
        for comp in report.component_amplitudes:
            assert comp == pytest.approx(-0.125, rel=1e-9)

    def test_headline_and_ratio(self):
        p2 = run_method(MethodConfig(method=2, d=4, N=4)).generation_probability
        assert p2 == pytest.approx(2.1e-5, rel=0.03)
        p1 = run_method(
            MethodConfig(method=1, d=4, N=4, alpha=1.0)
        ).generation_probability
        assert p2 / p1 == pytest.approx(5.0, rel=0.05)

    def test_no_residual(self):
        report = run_method(MethodConfig(method=2, d=3, N=4))
        assert report.residual_norm < 1e-12
        assert report.balanced

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (3, 5)])
    def test_block_annihilation_schedule(self, d, n):
        # After block k no component keeps exactly k or exactly n-k photons
        # in any mode.
        state = split_evenly(n, d)
        for k in range(1, n // 2 + 1):
            for mode in range(d):
                state = apply_fsf(state, mode, k).state
            for occ in state.terms:
                assert k not in occ
                assert (n - k) not in occ

    @pytest.mark.parametrize("d,n", [(8, 8), (6, 10), (4, 16), (12, 12), (16, 8)])
    def test_matches_closed_form_beyond_verify_grid(self, d, n):
        report = run_method(MethodConfig(method=2, d=d, N=n))
        assert report.generation_probability == pytest.approx(
            closed_form_probability(2, d, n), rel=1e-9, abs=0.0
        )
        assert report.balanced

    def test_single_photon_degenerate_case(self):
        # N=1 has no filter blocks; the even split is already the target state.
        report = run_method(MethodConfig(method=2, d=4, N=1))
        assert report.generation_probability == pytest.approx(1.0, rel=1e-12)


class TestFiltrationRoutes:
    """Folded filter blocks against the unpruned fold, block passes and closed form."""

    @staticmethod
    def check(got, oracle, factors, alpha_sq=None):
        """Compare a report with the unpruned fold of ``factors``, the filtered
        ``oracle`` state and the closed-form component magnitude."""
        d, n = got.d, got.N
        folded = filter_factors(factors, n)
        assert set(folded) <= {0} | set(range(n // 2 + 1, n + 1))
        assert all(abs(c) <= 1 for c in folded.values())
        unpruned = sector_unpruned(folded, d, n)
        assert_noon_close(list(got.component_amplitudes), unpruned, n)
        # The block passes prune at the floor. No folded factor exceeds 1, so
        # a term they drop ends below it, and every term they keep matches.
        want = extract_noon(oracle, n).component_amplitudes
        scale = max(map(abs, want))
        for a, b in zip(got.component_amplitudes, want):
            assert abs(a - b) <= 1e-14 * scale if b else abs(a) < PRUNE_THRESHOLD
        method = 1 if alpha_sq is not None else 2
        magnitude = closed_form_component_magnitude(method, d, n, alpha_sq)
        for c in got.component_amplitudes:
            assert abs(abs(c) - magnitude) <= 1e-9 * magnitude
        assert got.balanced == (got.generation_probability > 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_method1_matches_block_passes(self, d, n):
        for alpha in (None, 0.7, 1.1 + 0.4j, 1e-2, 1e-3):
            amp = alpha if alpha is not None else math.sqrt(n / d)
            single = make_coherent_truncated(amp, n)
            factors = {k: c for (k,), c in single.terms.items()}
            oracle = filtrate_blocks(sector_by_levels(factors, d, n), n)
            got = run_method(MethodConfig(method=1, d=d, N=n, alpha=alpha))
            self.check(got, oracle, factors, abs(amp) ** 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_method2_matches_block_passes(self, d, n):
        oracle = filtrate_blocks(split_circuit(n, d), n)
        got = run_method(MethodConfig(method=2, d=d, N=n))
        factors, scale = split_factors(n, d)
        factors[n] *= scale  # the NOON term's sqrt(N!) * d^(-N/2)/sqrt(N!)
        self.check(got, oracle, factors)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_reports_match_the_oracle_state(self, d):
        # The report built from the amplitude list equals, bit for bit, the
        # report read off a state of the same NOON terms, and to rounding the
        # report of the unpruned fold's state; p = 0 points (alpha 0)
        # included.
        zeros = 0
        for n in range(1, 17):
            noon = [tuple(n if m == j else 0 for m in range(d)) for j in range(d)]
            cfgs = [MethodConfig(method=2, d=d, N=n)] + [
                MethodConfig(method=1, d=d, N=n, alpha=alpha)
                for alpha in (None, 0.7, 1.1 + 0.4j, 1e-5, 0.0)
            ]
            for cfg in cfgs:
                got = run_method(cfg)
                same = FockState._adopt(d, {
                    occ: c for occ, c in zip(noon, got.component_amplitudes) if c
                })
                assert repr(got) == repr(extract_noon(same, n)), cfg
                want = extract_noon(self.oracle_state(cfg), n)
                assert got.generation_probability == pytest.approx(
                    want.generation_probability, rel=1e-14, abs=0.0
                )
                assert got.balanced == want.balanced
                for a, b in zip(got.sign_pattern, want.sign_pattern):
                    assert abs(a - b) <= 1e-14, cfg
                assert got.residual_norm == 0.0
                zeros += got.generation_probability == 0.0
        assert zeros == 16

    @staticmethod
    def oracle_state(cfg):
        """The unpruned N-photon sector of the folded factors of ``cfg``."""
        n, d = cfg.N, cfg.d
        if cfg.method == 1:
            alpha = cfg.alpha if cfg.alpha is not None else math.sqrt(n / d)
            single = make_coherent_truncated(alpha, n)
            factors = {k: c for (k,), c in single.terms.items()}
        else:
            factors, scale = split_factors(n, d)
            factors[n] *= scale
        return FockState._adopt(d, sector_unpruned(filter_factors(factors, n), d, n))


class TestGeneratorEven:
    def test_two_photon_split(self):
        outcome = generator_even(make_fock(1, (2,)), 0, 2)
        expected = -1j * math.sqrt(2) / 8
        assert_terms_close(
            outcome.state, {(2, 0): expected, (0, 2): expected}, atol=1e-12
        )
        assert outcome.herald_probability == pytest.approx(1 / 16, rel=1e-9)

    def test_four_photon_sign_is_minus(self):
        outcome = generator_even(make_fock(1, (4,)), 0, 4)
        report = extract_noon(outcome.state, 4)
        assert report.sign_pattern[0] == pytest.approx(1.0 + 0j, abs=1e-10)
        assert report.sign_pattern[1] == pytest.approx(-1.0 + 0j, abs=1e-10)
        split, _ = generator_magnitudes(4)
        for comp in report.component_amplitudes:
            assert abs(comp) == pytest.approx(split, rel=1e-9)

    def test_vacuum_passthrough_two_photon(self):
        outcome = generator_even(make_fock(1, (0,)), 0, 2)
        assert_terms_close(
            outcome.state, {(0, 0): -1j * math.sqrt(2) / 4}, atol=1e-12
        )

    def test_vacuum_passthrough_magnitude(self):
        outcome = generator_even(make_fock(1, (0,)), 0, 4)
        _, passthrough = generator_magnitudes(4)
        assert abs(amplitude(outcome.state, (0, 0))) == pytest.approx(
            passthrough, rel=1e-9
        )

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            generator_even(make_fock(1, (3,)), 0, 3)

    @pytest.mark.parametrize("n", [2.0, 4.0])
    def test_rejects_non_int(self, n):
        with pytest.raises(ValueError, match=f"requires even int N >= 2, got {n}"):
            generator_even(make_fock(1, (2,)), 0, n)


class TestGeneratorOdd:
    @staticmethod
    def _report(n):
        outcome = generator_odd(make_fock(1, (n,)), 0, n)
        return extract_noon(outcome.state, n)

    def test_three_photon_magnitude(self):
        report = self._report(3)
        expected_sq = factorial(3) / (2**6 * 3**3)
        for comp in report.component_amplitudes:
            assert abs(comp) ** 2 == pytest.approx(expected_sq, rel=1e-9)

    def test_three_photon_sign_is_plus(self):
        report = self._report(3)
        assert report.sign_pattern[1] == pytest.approx(1.0 + 0j, abs=1e-10)

    def test_five_photon_sign_is_minus(self):
        report = self._report(5)
        assert report.sign_pattern[1] == pytest.approx(-1.0 + 0j, abs=1e-10)

    def test_vacuum_passthrough(self):
        outcome = generator_odd(make_fock(1, (0,)), 0, 3)
        amp = amplitude(outcome.state, (0, 0))
        assert abs(amp) == pytest.approx(1 / 6, rel=1e-9)

    def test_rejects_even(self):
        with pytest.raises(ValueError, match="odd"):
            generator_odd(make_fock(1, (2,)), 0, 2)

    @pytest.mark.parametrize("n", [True, 3.0])
    def test_rejects_non_int(self, n):
        # True once ran as N = 1.
        with pytest.raises(ValueError, match=f"requires odd int N >= 1, got {n}"):
            generator_odd(make_fock(1, (1,)), 0, n)


class TestGeneratorOddMatchesPolarizedCircuit:
    """Single-mode paths give what the paths doubled into (H, V) pairs give.

    The oracle runs the odd generator's circuit on polarized paths whose
    content is H only, and merges each (H, V) pair of its output.
    """

    @staticmethod
    def assert_matches(state, path_a, n_photons):
        direct = generator_odd(state, path_a, n_photons)
        oracle = polarized_generator_odd_circuit(polarize(state), path_a, n_photons)
        merged = collapse_polarization(oracle.state)
        assert direct.state.mode_count == merged.mode_count == state.mode_count + 1
        scale = max(abs(amp) for amp in merged.terms.values())
        assert _max_deviation(direct.state, merged) <= 1e-12 * scale
        assert direct.herald_probability == pytest.approx(
            oracle.herald_probability, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("n_photons", [1, 3, 5, 7])
    def test_basis_inputs(self, n_photons):
        for n in range(n_photons + 3):
            self.assert_matches(make_fock(1, (n,)), 0, n_photons)

    @pytest.mark.parametrize("n_photons", [1, 3, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_multi_path_states(self, n_photons, seed):
        # H-only spectators on three paths around the touched one.
        rng = np.random.default_rng(7300 + seed)
        state = random_state(rng, 3, max_photons=3, max_terms=8)
        for path_a in range(3):
            self.assert_matches(state, path_a, n_photons)


class TestMethod3:
    def test_two_mode_two_photon(self):
        report = run_method(MethodConfig(method=3, d=2, N=2))
        assert report.generation_probability == pytest.approx(1 / 16, rel=1e-9)

    def test_headline_four_mode_four_photon(self):
        report = run_method(MethodConfig(method=3, d=4, N=4))
        assert report.generation_probability == pytest.approx(3.1e-9, rel=0.04)
        assert report.generation_probability == pytest.approx(
            closed_form_probability(3, 4, 4), rel=1e-9, abs=0.0
        )
        assert report.balanced
        assert report.residual_norm < 1e-12

    def test_even_photon_number_beyond_verify_grid(self):
        pipelines._transfer_table.cache_clear()
        report = run_method(MethodConfig(method=3, d=2, N=20))
        assert report.generation_probability == pytest.approx(
            closed_form_probability(3, 2, 20), rel=1e-9, abs=0.0
        )
        assert report.balanced

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (4, 3), (4, 5)])
    def test_odd_photon_numbers(self, d, n):
        report = run_method(MethodConfig(method=3, d=d, N=n))
        assert report.generation_probability == pytest.approx(
            closed_form_probability(3, d, n), rel=1e-9, abs=0.0
        )
        assert report.balanced

    # Odd-N reports bit for bit: N = 7 is 3 (mod 4), with sign +1, and
    # N = 5 and 21 are 1 (mod 4), with sign -1.
    PINNED_ODD = {
        (4, 7): (
            "{'d': 4, 'N': 7, 'component_amplitudes': "
            "[[7.874886624318138e-24, 2.582804059892372e-09], "
            "[5.354876622180321e-24, 2.5828040598923707e-09], "
            "[2.8348666200425055e-24, 2.58280405989237e-09], "
            "[5.354876622180321e-24, 2.5828040598923707e-09]], "
            "'generation_probability': 2.668350724718605e-17, "
            "'sign_pattern': [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], "
            "'balanced': True, 'residual_norm': 0.0}"
        ),
        (8, 5): (
            "{'d': 8, 'N': 5, 'component_amplitudes': "
            "[[1.9299801189721343e-27, 3.3068111527573005e-13], "
            "[-1.684083066252421e-27, -3.3068111527573005e-13], "
            "[1.4381860135327078e-27, 3.306811152757301e-13], "
            "[-1.684083066252421e-27, -3.3068111527573005e-13], "
            "[1.4381860135327078e-27, 3.3068111527573015e-13], "
            "[-1.192288960812995e-27, -3.306811152757301e-13], "
            "[1.4381860135327082e-27, 3.306811152757301e-13], "
            "[-1.684083066252421e-27, -3.306811152757301e-13]], "
            "'generation_probability': 8.748000000000056e-25, "
            "'sign_pattern': [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], "
            "[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], "
            "'balanced': True, 'residual_norm': 0.0}"
        ),
        (2, 21): (
            "{'d': 2, 'N': 21, 'component_amplitudes': "
            "[[-1.2884307392793742e-25, -4.4590203271684544e-11], "
            "[0.0, 4.4590203271684544e-11]], "
            "'generation_probability': 3.976572455620294e-21, "
            "'sign_pattern': [[1.0, 0.0], [-1.0, 0.0]], "
            "'balanced': True, 'residual_norm': 0.0}"
        ),
    }

    @pytest.mark.parametrize("d,n", sorted(PINNED_ODD))
    def test_odd_reports_pinned(self, d, n):
        pipelines._transfer_table.cache_clear()  # tables built by this run's circuit
        report = run_method(MethodConfig(method=3, d=d, N=n))
        assert repr(report.to_dict()) == self.PINNED_ODD[(d, n)]

    def test_component_magnitude_pattern(self):
        report = run_method(MethodConfig(method=3, d=4, N=4))
        split, passthrough = generator_magnitudes(4)
        for comp in report.component_amplitudes:
            assert abs(comp) == pytest.approx(split**2 * passthrough, rel=1e-9)
        assert abs(report.component_amplitudes[0]) == pytest.approx(
            closed_form_component_magnitude(3, 4, 4), rel=1e-12
        )


class TestGeneratorKerr:
    def test_single_photon_split(self):
        outcome = generator_kerr(make_fock(1, (1,)), 0)
        assert_terms_close(outcome.state, {(1, 0): 0.5, (0, 1): 0.5}, atol=1e-12)
        assert outcome.herald_probability == pytest.approx(0.5, rel=1e-12)

    def test_four_photon_split(self):
        outcome = generator_kerr(make_fock(1, (4,)), 0)
        assert_terms_close(outcome.state, {(4, 0): 0.5, (0, 4): 0.5}, atol=1e-12)

    def test_two_photon_common_phase(self):
        # The per-photon -pi/2 phase keeps both components aligned for every N.
        outcome = generator_kerr(make_fock(1, (2,)), 0)
        assert_terms_close(outcome.state, {(2, 0): 0.5, (0, 2): 0.5}, atol=1e-12)

    def test_vacuum_passthrough(self):
        outcome = generator_kerr(make_fock(1, (0,)), 0)
        assert_terms_close(outcome.state, {(0, 0): 1.0}, atol=1e-12)
        assert outcome.herald_probability == pytest.approx(1.0, rel=1e-12)


class TestEmptyInput:
    # An empty state flows through every generator unchanged, so the drivers
    # need no early exit: the final readout reports zero on its own.
    def test_generator_even(self):
        outcome = generator_even(FockState(1, {}), 0, 4)
        assert not outcome.state and outcome.state.mode_count == 2
        assert outcome.herald_probability == 0.0

    def test_generator_odd(self):
        outcome = generator_odd(FockState(1, {}), 0, 3)
        assert not outcome.state and outcome.state.mode_count == 2
        assert outcome.herald_probability == 0.0

    def test_generator_kerr(self):
        outcome = generator_kerr(FockState(1, {}), 0)
        assert not outcome.state and outcome.state.mode_count == 2
        assert outcome.herald_probability == 0.0


def _max_deviation(a: FockState, b: FockState) -> float:
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys), default=0.0)


class TestGeneratorRoutes:
    """Each generator's transfer tables reproduce its circuit on whole states."""

    CASES = [
        (generator_even, pipelines._generator_even_circuit, (2,)),
        (generator_even, pipelines._generator_even_circuit, (4,)),
        (generator_even, generator_even_herald_circuit, (2,)),
        (generator_even, generator_even_herald_circuit, (4,)),
        (generator_odd, pipelines._generator_odd_circuit, (1,)),
        (generator_odd, pipelines._generator_odd_circuit, (3,)),
        (generator_kerr, pipelines._generator_kerr_circuit, ()),
    ]

    @staticmethod
    def assert_route_matches(public, circuit, state, path_a, args):
        direct = public(state, path_a, *args)
        oracle = circuit(state, path_a, *args)
        scale = max(abs(amp) for amp in oracle.state.terms.values())
        assert direct.state.mode_count == oracle.state.mode_count
        assert _max_deviation(direct.state, oracle.state) <= 1e-12 * scale
        assert direct.herald_probability == pytest.approx(
            oracle.herald_probability, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("public, circuit, args", CASES)
    @pytest.mark.parametrize("seed", range(4))
    def test_tables_match_circuit(self, public, circuit, args, seed):
        # Three paths: spectators around path_a, whose occupation varies from
        # term to term.
        rng = np.random.default_rng(7000 + seed)
        state = random_state(rng, 3, max_photons=3, max_terms=8)
        for path_a in range(3):
            self.assert_route_matches(public, circuit, state, path_a, args)

    @staticmethod
    def wide_state(rng, paths, path_a):
        """Random state on many paths whose terms mostly leave ``path_a`` empty.

        Twenty spectator patterns (mostly vacuum, at most two photons per
        path) each appear with ``path_a`` empty. Two of them also appear
        with one and with two photons on ``path_a``, so some terms differ
        only on the touched path.
        """
        terms = {}
        for pattern in range(20):
            occ = [int(n) for n in rng.choice(3, paths, p=(0.8, 0.15, 0.05))]
            for n in (0, 1, 2) if pattern < 2 else (0,):
                occ[path_a] = n
                terms[tuple(occ)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return FockState(paths, terms)

    @pytest.mark.parametrize("public, circuit, args", CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_tables_match_circuit_on_wide_states(self, public, circuit, args, seed):
        # 16 to 24 paths, the touched path first, in the middle and last:
        # most terms take the vacuum table's pass-through, the rest expand.
        rng = np.random.default_rng(7100 + seed)
        paths = int(rng.integers(16, 25))
        for path_a in (0, paths // 2, paths - 1):
            state = self.wide_state(rng, paths, path_a)
            self.assert_route_matches(public, circuit, state, path_a, args)

    TABLE_CIRCUITS = [
        (pipelines._generator_even_circuit, (2,)),
        (pipelines._generator_even_circuit, (4,)),
        (pipelines._generator_even_circuit, (6,)),
        (pipelines._generator_odd_circuit, (1,)),
        (pipelines._generator_odd_circuit, (3,)),
        (pipelines._generator_odd_circuit, (5,)),
        (pipelines._generator_kerr_circuit, ()),
    ]

    @pytest.mark.parametrize("circuit, args", TABLE_CIRCUITS)
    def test_tables_keep_the_touched_photon_number(self, circuit, args):
        # The vacuum table is a single pass-through entry, and every entry
        # keeps the touched path's photons on the touched and fresh paths:
        # this keeps the pass-through and expanded terms of a generator apart.
        ((touched, fresh, idle),) = pipelines._transfer_table(circuit, 0, *args)
        assert (touched, fresh) == (0, 0) and idle != 0
        for n in range(7):
            for touched, fresh, _ in pipelines._transfer_table(circuit, n, *args):
                assert type(touched) is int and type(fresh) is int
                assert touched + fresh == n

    @pytest.mark.parametrize(
        "cfg",
        [
            MethodConfig(method=1, d=3, N=4),
            MethodConfig(method=2, d=4, N=6),
            MethodConfig(method=3, d=4, N=4),
            MethodConfig(method=3, d=4, N=5),
            MethodConfig(method=4, d=8, N=3),
        ],
    )
    def test_cold_and_warm_tables_agree(self, cfg):
        pipelines._transfer_table.cache_clear()
        bs_matrix_element.cache_clear()
        cold = repr(run_method(cfg).to_dict())
        assert cold == repr(run_method(cfg).to_dict())

    GENERATORS = [(generator_even, (2,)), (generator_odd, (3,)), (generator_kerr, ())]

    @pytest.mark.parametrize("generator, args", GENERATORS)
    @pytest.mark.parametrize("path_a", [5, -1, 1])
    def test_path_validated_on_the_input(self, generator, args, path_a):
        # The message counts the input's own modes, not the ancilla and taps
        # a circuit would append, and an empty input is checked too.
        for state in (FockState(1, {(2,): 1.0}), FockState(1, {})):
            with pytest.raises(ValueError, match=f"path index {path_a} out of range for 1 modes"):
                generator(state, path_a, *args)

    @pytest.mark.parametrize("generator, args", GENERATORS)
    @pytest.mark.parametrize(
        "paths, message",
        [
            ((), "paths must name at least one mode"),
            ((3, 0), "path index 3 out of range for 3 modes"),
            ((0, 1.0), "path index 1.0 is not an int"),
            ((0, "1"), "path index '1' is not an int"),
            (True, "path index True is not an int"),
            ((0, 4), "path index 4 out of range for 4 modes"),
            ((0, -1), "path index -1 out of range for 4 modes"),
            ((5, 1.0), "path index 5 out of range for 3 modes"),
        ],
    )
    def test_level_paths_validated_on_the_input(self, generator, args, paths, message):
        # Entry i may name a mode below mode_count + i: an input mode, or the
        # fresh mode of an earlier entry, never one not appended yet. Entries
        # are checked in order, type then range, so (5, 1.0) fails on its 5.
        for state in (FockState(3, {(1, 0, 2): 1.0}), FockState(3, {})):
            with pytest.raises(ValueError, match=message):
                generator(state, paths, *args)

    @pytest.mark.parametrize("generator, args", GENERATORS)
    @pytest.mark.parametrize("paths", [(0, 1.0), (0, True)])
    def test_equal_paths_do_not_reuse_a_checked_schedule(self, generator, args, paths):
        # (0, 1.0) and (0, True) equal (0, 1) and hash alike, so the cached
        # schedule of (0, 1) must not stand in for their type check.
        state = FockState(1, {(1,): 1.0})
        generator(state, (0, 1), *args)
        assert (0, 1) == paths and pipelines._schedule.cache_info().currsize
        with pytest.raises(ValueError, match=f"path index {paths[1]!r} is not an int"):
            generator(state, paths, *args)

    @pytest.mark.parametrize("generator, args", GENERATORS)
    def test_int_enum_paths_accepted(self, generator, args):
        # An int subclass other than bool is a mode index: the call takes
        # the entry-by-entry check and gives the plain ints' state.
        Mode = enum.IntEnum("Mode", {"A": 0, "B": 1, "C": 2})
        state = FockState(2, {(2, 0): 1.0, (1, 1): 0.5j})
        plain = generator(state, (0, 1, 2, 0), *args).state
        named = generator(state, (Mode.A, Mode.B, Mode.C, Mode.A), *args).state
        assert named.mode_count == plain.mode_count == 6
        assert repr(list(named.terms.items())) == repr(list(plain.terms.items()))


def _level_state(rng, modes: int) -> FockState:
    """Random state on ``modes`` paths with several paths occupied per term.

    Each term puts 1 to 3 photons on each of 1 to 3 paths; one draw in eight
    is the vacuum. About one amplitude in three lies within a factor 100 of
    :data:`PRUNE_THRESHOLD`, so idle steps and expansions prune some
    products mid-walk, and one in two has a real or imaginary part of 0.0 or
    -0.0.
    """
    terms = {}
    for _ in range(int(rng.integers(4, 13))):
        occ = [0] * modes
        if rng.random() >= 1 / 8:
            touched = rng.choice(modes, size=int(rng.integers(1, 4)), replace=False)
            for mode in touched:
                occ[int(mode)] = int(rng.integers(1, 4))
        if rng.random() < 1 / 3:
            magnitude = PRUNE_THRESHOLD * 10 ** rng.uniform(0, 2)
        else:
            magnitude = rng.uniform(0.1, 1.0)
        amp = magnitude * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        zero = float(rng.choice([0.0, -0.0]))
        amp = [amp, amp, complex(amp.real, zero), complex(zero, amp.imag)][rng.integers(4)]
        terms[tuple(occ)] = amp
    return FockState(modes, terms)


class TestLevelPass:
    """One call on a tuple of paths equals one int call per path, bit for bit."""

    GENERATORS = [
        (generator_even, (2,)),
        (generator_even, (4,)),
        (generator_odd, (1,)),
        (generator_odd, (3,)),
        (generator_kerr, ()),
    ]

    @staticmethod
    def assert_tuple_call_equals_int_calls(generator, args, state, paths):
        whole = generator(state, paths, *args)
        one_at_a_time = state
        for path in paths:
            one_at_a_time = generator(one_at_a_time, path, *args).state
        assert whole.state.mode_count == state.mode_count + len(paths)
        assert whole.before is state
        assert_same_bits(whole.state, one_at_a_time)

    @pytest.mark.parametrize("generator, args", GENERATORS)
    @pytest.mark.parametrize("seed", range(8))
    def test_tuple_call_equals_int_calls(self, generator, args, seed):
        rng = np.random.default_rng(7400 + seed)
        modes = int(rng.integers(3, 9))
        state = _level_state(rng, modes)
        count = int(rng.integers(2, modes + 1))
        distinct = tuple(int(p) for p in rng.permutation(modes)[:count])
        self.assert_tuple_call_equals_int_calls(generator, args, state, distinct)
        # Entry i names any mode below modes + i, so modes repeat and fresh
        # modes are split again, as in a cascade; at least one of each.
        steps = int(rng.integers(4, 13))
        paths = [int(rng.integers(0, modes)), modes]
        paths += [int(rng.integers(0, modes + i)) for i in range(2, steps)]
        paths.insert(int(rng.integers(2, steps)), paths[0])
        self.assert_tuple_call_equals_int_calls(generator, args, state, tuple(paths))

    @pytest.mark.parametrize(
        "amplitude, kept", [(2e-14, False), (math.nextafter(2e-14, 1.0), True)]
    )
    def test_idle_run_pruned_at_the_floor_as_int_calls(self, amplitude, kept):
        # Two empty paths of the N = 1 odd generator scale the amplitude by
        # |idle|^2 ~ 1/2, to just below the floor or exactly onto it: the run
        # is pruned once at its end and keeps the term exactly when the int
        # calls, which prune after each step, keep it.
        state = FockState(2, {(0, 0): amplitude})
        whole = generator_odd(state, (0, 1), 1).state
        self.assert_tuple_call_equals_int_calls(generator_odd, (1,), state, (0, 1))
        assert bool(whole.terms) is kept

    @pytest.mark.parametrize(
        "circuit, args",
        [
            (pipelines._generator_odd_circuit, (n,))
            if n % 2
            else (pipelines._generator_even_circuit, (n,))
            for n in range(1, 13)
        ]
        + [(pipelines._generator_kerr_circuit, ())],
    )
    def test_idle_factor_at_most_one(self, circuit, args):
        # Pruning an idle run once at its end is exact only while no idle
        # step can raise a magnitude. The Kerr pass-through is exactly
        # 1+0j: the condition under which an expanded branch skips its idle
        # runs, since a product with it changes no bit of an amplitude
        # without a -0.0 part.
        ((_, _, idle),) = pipelines._transfer_table(circuit, 0, *args)
        assert abs(idle) <= 1.0
        if circuit is pipelines._generator_kerr_circuit:
            assert repr(idle) == "(1+0j)"

    SIGNED_ZERO_AMPS = [
        complex(-0.0, -1.0), complex(1.0, -0.0), complex(-0.0, 1.0), complex(-1.0, -0.0)
    ]

    @pytest.mark.parametrize("amp", SIGNED_ZERO_AMPS)
    @pytest.mark.parametrize(
        "occ, paths",
        [((1, 0), (1, 1, 1)), ((1, 1, 0), (2, 2, 2)), ((1, 0), (1, 1, 1, 1, 1))],
    )
    def test_kerr_idle_run_on_an_input_term_bit_for_bit(self, amp, occ, paths):
        # Kerr generators on an empty mode are one idle run of products with
        # 1+0j on an input term, which takes every one of them: on a
        # single-mode branch and on a map branch. The term never expands, so
        # no 0j + can hide a skipped product; a walk that skipped the run
        # outright would keep the -0.0 real part of complex(-0.0, -1.0),
        # which one product turns into +0.0.
        state = FockState(len(occ), {occ: amp})
        self.assert_tuple_call_equals_int_calls(generator_kerr, (), state, paths)
        product = functools.reduce(operator.mul, [1 + 0j] * len(paths), amp)
        expected = [(occ + (0,) * len(paths), product)]
        out = generator_kerr(state, paths).state
        assert repr(list(out.terms.items())) == repr(expected)

    @pytest.mark.parametrize("amp", SIGNED_ZERO_AMPS)
    def test_kerr_expanded_branch_idles_bit_for_bit(self, amp):
        # The photon expands at step 0 into a branch left on mode 0, which
        # idles two steps before it expands again at step 3, and one moved
        # to mode 2, which idles three before it expands at step 4. Each
        # expanded amplitude is 0j + amp * factor, with no -0.0 part, so the
        # idle products with 1+0j that the int calls make change no bit and
        # the walk skips them: the output is the two expansions alone.
        state = FockState(2, {(1, 0): amp})
        paths = (0, 1, 1, 0, 2)
        self.assert_tuple_call_equals_int_calls(generator_kerr, (), state, paths)
        table = pipelines._transfer_table(pipelines._generator_kerr_circuit, 1)
        expected = []
        for kept, _, first in table:
            mode, fresh = (0, 5) if kept else (2, 6)
            for touched, moved, second in table:
                occ = [0] * 7
                occ[mode], occ[fresh] = touched, moved
                expected.append((tuple(occ), 0j + (0j + amp * first) * second))
        out = generator_kerr(state, paths).state
        assert repr(list(out.terms.items())) == repr(expected)

    def test_expanded_amplitudes_are_sums_from_zero(self):
        # An expanded amplitude is 0j + amp * factor, the sum a zero-filled
        # map gave when each generator ran alone: amp * factor's -0.0
        # imaginary part comes out +0.0. The terms come out in table order,
        # so a call's terms are in the order of the int calls it equals.
        amp = complex(-0.5, -0.0)
        out = generator_kerr(FockState(1, {(1,): amp}), 0).state
        table = pipelines._transfer_table(pipelines._generator_kerr_circuit, 1)
        assert all(str((amp * factor).imag) == "-0.0" for _, _, factor in table)
        expected = [((t, f), 0j + amp * factor) for t, f, factor in table]
        assert repr(list(out.terms.items())) == repr(expected)

    @pytest.mark.parametrize(
        "method, d, n",
        [
            (3, 2, 2),
            (3, 4, 4),
            (3, 4, 8),
            (3, 8, 4),
            (3, 8, 6),
            (3, 16, 4),
            (3, 2, 21),
            (3, 4, 7),
            (3, 8, 3),
            (3, 8, 5),
            (3, 16, 3),
            (4, 2, 5),
            (4, 8, 3),
            (4, 16, 4),
            (4, 32, 6),
            (4, 64, 8),
            (4, 256, 4),
            # The first Kerr table whose entries leave photons on both the
            # touched and the fresh mode: single-mode branches split into
            # two-mode ones mid-walk.
            (4, 2, 24),
        ],
    )
    def test_cascade_reports_match_one_path_at_a_time(self, method, d, n):
        # The states too: a report cannot see the order of the terms.
        cfg = MethodConfig(method=method, d=d, N=n)
        one_at_a_time = cascade_one_path_at_a_time(cfg)
        generator, args = cascade_generator(cfg)
        paths = pipelines._tree_paths(d)
        whole = generator(make_fock(1, (n,)), paths, *args).state
        assert_same_bits(whole, one_at_a_time)
        assert repr(run_method(cfg).to_dict()) == repr(
            extract_noon(one_at_a_time, n).to_dict()
        )

    @staticmethod
    def assert_leaves_pass_the_floor(out: FockState) -> None:
        # The walk hands its dict to FockState._adopt, which prunes nothing:
        # every amplitude must already pass the test _trusted makes, so that
        # rebuilding the state through _trusted keeps every term and bit.
        assert all(abs(amp) >= PRUNE_THRESHOLD for amp in out.terms.values())
        rebuilt = FockState._trusted(out.mode_count, list(out.terms.items()))
        assert_same_bits(out, rebuilt)

    @pytest.mark.parametrize("generator, args", GENERATORS)
    @pytest.mark.parametrize("seed", range(6))
    def test_walk_output_needs_no_pruning(self, generator, args, seed):
        # Multi-mode terms near the floor (idle runs and expansions prune
        # mid-walk) and single-mode inputs, on tuples of paths whose later
        # entries split fresh modes.
        rng = np.random.default_rng(7500 + seed)
        near_floor = FockState(1, {(int(rng.integers(0, 7)),): 3 * PRUNE_THRESHOLD})
        steps = int(rng.integers(2, 9))
        for state in (
            _level_state(rng, int(rng.integers(3, 7))),
            near_floor,
            FockState(1, {(4,): 0.5j}),
        ):
            modes = state.mode_count
            paths = [0] + [int(rng.integers(0, modes + i)) for i in range(1, steps)]
            out = generator(state, tuple(paths), *args).state
            self.assert_leaves_pass_the_floor(out)

    @pytest.mark.parametrize("amp", [1.0, 2e-14, -0.5j])
    def test_kerr_map_split_needs_no_pruning(self, amp):
        # At n = 24 the Kerr table leaves photons on both the touched and the
        # fresh mode, so single-mode branches turn into map branches mid-walk.
        state = FockState(1, {(24,): amp})
        out = generator_kerr(state, (0, 1, 0, 3, 2, 1, 0)).state
        self.assert_leaves_pass_the_floor(out)


class TestCascadeLayout:
    @pytest.mark.parametrize(
        "d, paths", [(2, (0,)), (4, (0, 1, 0)), (8, (0, 1, 0, 3, 2, 1, 0))]
    )
    def test_paths_pinned_and_shared_across_calls(self, d, paths):
        # Level l splits the paths 2^l - 1, ..., 1, 0; the tuple depends on d
        # alone, so every call at one d is handed the same tuple.
        seen = [pipelines._tree_paths(d) for _ in range(2)]
        assert seen[0] == paths
        assert seen[1] is seen[0]

    @pytest.mark.parametrize("method, n", [(3, 2), (3, 3), (4, 5)])
    def test_cascade_input_is_the_basis_state(self, monkeypatch, method, n):
        # run_method builds |N> through the trusted constructor, N being
        # checked by MethodConfig: the same state as make_fock, bit for bit.
        inputs = []
        cfg = MethodConfig(method=method, d=4, N=n)
        generator, _ = cascade_generator(cfg)

        def spy(state, *args):
            inputs.append(state)
            return generator(state, *args)

        monkeypatch.setattr(pipelines, generator.__name__, spy)
        run_method(cfg)
        (state,) = inputs
        assert_same_bits(state, make_fock(1, (n,)))


class TestMethod4:
    def test_headline(self):
        report = run_method(MethodConfig(method=4, d=4, N=4))
        assert abs(report.generation_probability - 0.25) < 1e-12
        for sign in report.sign_pattern:
            assert sign == pytest.approx(1.0 + 0j, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_two_mode_any_photon_number(self, n):
        report = run_method(MethodConfig(method=4, d=2, N=n))
        assert abs(report.generation_probability - 0.5) < 1e-12

    def test_eight_modes(self):
        report = run_method(MethodConfig(method=4, d=8, N=3))
        assert abs(report.generation_probability - 0.125) < 1e-12
        assert report.balanced

    def test_balanced_tree_path_order(self, monkeypatch):
        # One call for the whole tree: its levels in turn, each last first.
        calls = []

        def recording(state, paths):
            calls.append(paths)
            return generator_kerr(state, paths)

        monkeypatch.setattr(pipelines, "generator_kerr", recording)
        run_method(MethodConfig(method=4, d=8, N=2))
        assert calls == [(0, 1, 0, 3, 2, 1, 0)]


class TestBeyondVerifyGrid:
    """Closed-form agreement outside the default ``verify`` grid."""

    @pytest.mark.parametrize("d,n", [(64, 8), (128, 4)])
    def test_many_mode_method4(self, d, n):
        report = run_method(MethodConfig(method=4, d=d, N=n))
        assert report.generation_probability == pytest.approx(
            closed_form_probability(4, d, n), rel=1e-9, abs=0.0
        )
        assert report.balanced

    # Method 3: every NOON amplitude falls below the cascade's absolute
    # pruning floor here, so the run reports p = 0 against a positive closed
    # form. Methods 1 and 2 keep every nonzero amplitude.
    @pytest.mark.parametrize(
        "method,d,n",
        [
            *(
                pytest.param(*point, marks=pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 1: absolute PRUNE_THRESHOLD"
                ))
                for point in [(3, 8, 6), (3, 4, 12), (3, 16, 4), (3, 32, 2), (3, 2, 30)]
            ),
            (1, 12, 12),
            (1, 16, 10),
            (2, 16, 10),
            (2, 16, 12),
        ],
    )
    def test_underflow_domain(self, method, d, n):
        report = run_method(MethodConfig(method=method, d=d, N=n))
        assert report.generation_probability == pytest.approx(
            closed_form_probability(method, d, n), rel=1e-9, abs=0.0
        )

    def test_filtration_scan(self):
        # Methods 1 and 2 at d 2-32 x N 1-40, the optimal alpha for method 1:
        # p against its closed form wherever that is positive, every
        # component against its closed-form magnitude wherever that is a
        # normal float, and no p = 0 marked balanced.
        for method in (1, 2):
            for d in range(2, 33):
                for n in range(1, 41):
                    report = run_method(MethodConfig(method=method, d=d, N=n))
                    p = report.generation_probability
                    want = closed_form_probability(method, d, n)
                    if want > 0:
                        assert abs(p - want) <= 1e-9 * want, (method, d, n, p, want)
                    assert not report.balanced or p > 0
                    check_components(report, method)

    # The M3 points whose every NOON amplitude falls below the cascade's
    # absolute pruning floor, so the run reports p = 0 (ROADMAP item 1).
    M3_FLOOR_POINTS = {
        (3, d, n)
        for d, first, last in (
            (4, 11, 12), (8, 6, 12), (16, 4, 12), (32, 2, 6), (64, 2, 3)
        )
        for n in range(first, last + 1)
    }

    def test_scan_against_exact(self):
        # Every report of the domain scan against the exact closed form at
        # the alpha the run used. Only the floor points may miss the verify
        # gate, and the rest hold to 1e-12. A point whose exact p is not a
        # normal float is out of range: counted and printed, not judged.
        missed, out_of_range, worst = set(), [], 0.0
        for method, d, n, alpha_sq in scan_points():
            alpha = None
            if method == 1:
                alpha = math.sqrt(n / d if alpha_sq is None else alpha_sq)
            report = run_method(MethodConfig(method, d, n, alpha))
            p = report.generation_probability
            exact = exact_probability(
                method, d, n, None if alpha is None else Fraction(alpha) ** 2
            )
            if exact < NORMAL_MIN:
                out_of_range.append((method, d, n, alpha_sq, p))
                continue
            error = relative_error(p, exact)
            if error > analysis._REL_TOLERANCE:
                missed.add((method, d, n))
            else:
                worst = max(worst, error)
        print(f"worst relative error against exact: {worst:.3g};"
              f" {len(missed)} past the gate; {len(out_of_range)} out of range:")
        for point in out_of_range:
            print("  out of range:", point)
        assert missed <= self.M3_FLOOR_POINTS
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "method,d,n,underflows",
        [(2, 2, 300, True), (2, 7, 200, True), (2, 64, 128, True), (1, 12, 128, False)],
    )
    def test_filtration_components_past_the_probability_range(
        self, method, d, n, underflows
    ):
        # |c_j| stays a normal float where p = d |c_j|^2 underflows to 0.0
        # (M2; 3.1e-286 at (2,300)) or goes subnormal (M1, 6.9e-319). A
        # p of 0 is not balanced.
        report = run_method(MethodConfig(method=method, d=d, N=n))
        check_components(report, method)
        assert all(report.component_amplitudes)
        assert (report.generation_probability == 0.0) is underflows
        assert report.balanced is not underflows


def check_components(report, method):
    """Check a method-1 or -2 report's |c_j| at the default alpha against the
    closed form, wherever that is a normal float."""
    d, n = report.d, report.N
    magnitude = closed_form_component_magnitude(method, d, n)
    if magnitude >= sys.float_info.min:
        for c in report.component_amplitudes:
            assert abs(abs(c) - magnitude) <= 1e-9 * magnitude, (method, d, n, c)


class TestExtractNoon:
    def test_balanced_pair(self):
        state = FockState(2, {(2, 0): 0.5, (0, 2): 0.5})
        report = extract_noon(state, 2)
        assert report.generation_probability == pytest.approx(0.5)
        assert report.balanced
        assert report.sign_pattern == (1 + 0j, 1 + 0j)

    def test_empty_state_is_not_balanced(self):
        report = extract_noon(FockState(2, {}), 2)
        assert report.component_amplitudes == (0j, 0j)
        assert report.generation_probability == 0.0
        assert not report.balanced

    def test_sign_pattern_minus(self):
        state = FockState(2, {(2, 0): 0.3, (0, 2): -0.3})
        report = extract_noon(state, 2)
        assert report.sign_pattern[1] == pytest.approx(-1.0 + 0j)

    def test_threshold_scales_with_components(self):
        tiny = FockState(2, {(2, 0): 3e-13j, (0, 2): -3e-13j})
        report = extract_noon(tiny, 2)
        assert report.sign_pattern == (1 + 0j, -1 + 0j)
        assert report.balanced
        uneven = FockState(2, {(2, 0): 3e-13, (0, 2): 1e-13})
        assert not extract_noon(uneven, 2).balanced

    def test_residual_flagged(self):
        state = FockState(2, {(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.1})
        report = extract_noon(state, 2)
        assert report.residual_norm == pytest.approx(0.01, rel=1e-12)

    def test_residual_is_read_from_the_other_terms(self):
        # Terms stored out of component order: the squared norm sums them in
        # another order than the probability, so a difference of the two
        # would read 1.4e-17 here, and would lose a small extra term.
        noon = {(0, 0, 3): 0.3, (3, 0, 0): 0.1, (0, 3, 0): 0.1}
        assert extract_noon(FockState(3, noon), 3).residual_norm == 0.0
        extra = 1e-9 + 2e-9j
        report = extract_noon(FockState(3, {**noon, (1, 1, 1): extra}), 3)
        assert report.residual_norm == abs(extra) ** 2

    def test_lone_mode_with_another_photon_number_is_residual(self):
        # d-1 empty modes and a lone mode holding n != N photons: the empty
        # count passes, the index of N fails, and the term is residual.
        lone = {(3, 0, 0): 0.1j, (0, 1, 0): 0.2}
        state = FockState(3, {(2, 0, 0): 0.5, (0, 0, 2): -0.5, **lone})
        report = extract_noon(state, 2)
        assert repr(report) == repr(
            NoonReport(
                3, 2, (0.5 + 0j, 0j, -0.5 + 0j), 0.5, (1 + 0j, 0j, -1 + 0j), False,
                math.fsum(abs(complex(a)) ** 2 for a in lone.values()),
            )
        )

    def test_single_mode_state_reads_its_one_component(self):
        # With d = 1 every term has d-1 = 0 empty modes: the N-photon term is
        # the one component, every other photon number is residual.
        state = FockState(1, {(0,): 0.4, (3,): 0.6j, (2,): 0.3})
        report = extract_noon(state, 3)
        assert repr(report) == repr(
            NoonReport(
                1, 3, (0.6j,), abs(0.6j) ** 2, (1 + 0j,), True,
                math.fsum([abs(0.4 + 0j) ** 2, abs(0.3 + 0j) ** 2]),
            )
        )

    def test_n_photons_beside_other_photons_is_residual(self):
        # A NOON term holds all N photons in one mode and none elsewhere;
        # N photons in a mode beside other occupied modes is residual.
        other = {(2, 2, 0): 0.1, (0, 2, 1): 0.2j}
        state = FockState(3, {(2, 0, 0): 0.5, (0, 2, 0): -0.5, **other})
        report = extract_noon(state, 2)
        assert report.component_amplitudes == (0.5 + 0j, -0.5 + 0j, 0j)
        assert report.residual_norm == math.fsum(abs(a) ** 2 for a in other.values())

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_sign_part_at_tolerance_is_zero(self, part):
        # A sign part of size at most the report's fixed 1e-10 reads exactly
        # 0.0; one ulp above it, the part is kept as computed. The other part
        # is untouched.
        assert REPORT_TOLERANCE == 1e-10
        above = math.nextafter(REPORT_TOLERANCE, 1.0)
        other = "imag" if part == "real" else "real"
        cases = [(REPORT_TOLERANCE, 0.0), (-REPORT_TOLERANCE, 0.0)]
        cases += [(above, above), (-above, -above)]
        for value, want in cases:
            sign = complex(value, 0.5) if part == "real" else complex(0.5, value)
            got = pipelines._rounded_sign(sign)
            assert repr(getattr(got, part)) == repr(want), value
            assert getattr(got, other) == 0.5

    def test_negative_zero_sign_part_reads_positive(self):
        # The second phase over the first is 1-0j: its -0.0 part is within
        # the tolerance and reads +0.0.
        state = FockState(2, {(2, 0): 1 + 0j, (0, 2): complex(1.0, -0.0)})
        assert repr(state.terms[(0, 2)]) == "(1-0j)"
        assert repr(extract_noon(state, 2).sign_pattern) == "((1+0j), (1+0j))"

    def test_rejects_tolerance_argument(self):
        # The report's threshold is fixed: a smaller one left 1e-32
        # imaginary residue in this state's signs.
        state = generator_kerr(make_fock(1, (3,)), (0, 1, 0)).state
        with pytest.raises(TypeError):
            extract_noon(state, 3, 1e-10)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True])
    def test_rejects_photon_number_below_one(self, n):
        # At N = 0 the vacuum term would count as every component: p = 0.75
        # here, above the state's squared norm of 0.5. N = 2.0 or True would
        # find the int-valued mode and report N as given.
        state = FockState(3, {(0, 0, 0): 0.5, (2, 0, 0): 0.5})
        with pytest.raises(ValueError) as info:
            extract_noon(state, n)
        assert str(info.value) == f"N must be an int of at least 1, got {n!r}"

    def test_probability_is_d_times_component(self):
        report = run_method(MethodConfig(method=2, d=3, N=4))
        common = abs(report.component_amplitudes[0]) ** 2
        assert report.generation_probability == pytest.approx(
            3 * common, rel=1e-10
        )


class TestNoonReport:
    """``_noon_report`` builds the per-component oracle's report, bit for bit."""

    # The grids of the benchmark's filtration and cascade workloads.
    FILTRATION = (
        (1, 4, 4), (1, 4, 6), (1, 5, 4), (2, 4, 8), (2, 8, 4), (2, 6, 8), (2, 8, 6),
    )
    CASCADE = (
        (3, 4, 7), (3, 4, 8), (3, 8, 3), (3, 8, 4), (3, 8, 5), (4, 16, 4),
        (4, 32, 6), (4, 64, 8),
    )

    @staticmethod
    def random_components(rng: random.Random) -> list:
        # d from 1 to 70 drawn from a pool of distinct values, all distinct a
        # quarter of the time, else with repeats. Values: exact 0j and
        # -0-0j, random phases, values on an axis with a signed zero part,
        # negations (sign patterns), and magnitudes from 1e-300 to 1e150,
        # most at one scale per list, the rest anywhere in that range. A
        # repeat flips the sign of a zero part half the time, which leaves
        # the dict key the same.
        d = rng.randint(1, 70)
        scale = 10.0 ** rng.uniform(-300, 150)

        def value():
            kind = rng.randrange(7)
            magnitude = scale * (1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1))
            sign, zero = rng.choice([-1.0, 1.0]), rng.choice([-0.0, 0.0])
            if kind == 0:
                return rng.choice([0j, complex(-0.0, -0.0)])
            if kind == 1:
                return complex(sign * magnitude, zero)
            if kind == 2:
                return complex(zero, sign * magnitude)
            if kind == 3:
                magnitude = 10.0 ** rng.uniform(-300, 150)
            return cmath.rect(magnitude, rng.uniform(-math.pi, math.pi))

        distinct = d if rng.random() < 0.25 else rng.randint(1, d)
        pool = [value() for _ in range(distinct)]
        pool += [-c for c in pool if rng.random() < 0.3]
        if len(pool) >= d:
            return pool[:d]
        components = []
        for _ in range(d):
            c = rng.choice(pool)
            if rng.random() < 0.5:
                re, im = c.real, c.imag
                c = complex(re if re else -re, im if im else -im)
            components.append(c)
        return components

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_component_report(self, seed):
        rng = random.Random(seed)
        merged = 0
        for _ in range(500):
            components = self.random_components(rng)
            n = rng.randint(1, 40)
            residual = rng.choice([0.0, rng.random()])
            merged += len(dict.fromkeys(components)) < len(set(map(repr, components)))
            got = pipelines._noon_report(components, n, residual)
            want = noon_report_per_component(components, n, REPORT_TOLERANCE, residual)
            # Both hold the very component objects passed in; the fields
            # after them are compared through repr, signed zeros too.
            assert got[:2] == want[:2] == (len(components), n)
            assert all(map(operator.is_, got[2], components))
            assert repr(got[3:]) == repr(want[3:]), components
        assert merged > 50

    def test_benchmark_grid_reports(self):
        for method, d, n in self.FILTRATION + self.CASCADE:
            report = run_method(MethodConfig(method=method, d=d, N=n))
            want = noon_report_per_component(
                list(report.component_amplitudes), n, REPORT_TOLERANCE,
                report.residual_norm,
            )
            assert repr(report) == repr(want), (method, d, n)


class TestDispatch:
    def test_run_method_routes(self):
        for method in (1, 2, 3, 4):
            alpha = 1.0 if method == 1 else None  # the others reject alpha
            cfg = MethodConfig(method=method, d=2, N=2, alpha=alpha)
            report = run_method(cfg)
            assert report.d == 2

    @pytest.mark.parametrize("method", [5, True, 1.0])
    def test_unchecked_method_rejected(self, method):
        # _make skips MethodConfig's checks; run_method still names the
        # method, and True or 1.0 is not method 1 though it compares equal.
        cfg = MethodConfig._make((method, 2, 2, None))
        with pytest.raises(ValueError, match=f"method must be 1, 2, 3 or 4, got {method!r}"):
            run_method(cfg)
