"""Tests for optical elements, projections, and the Fock state filter."""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    assert_same_bits,
    assert_terms_close,
    fsf_circuit,
    global_phase_spread,
    polarizing_bs,
    project_photons,
    random_state,
    random_unit_state,
    two_photon_herald,
)
from noongen import (
    BeamSplitter,
    CrossKerr,
    FockState,
    PhaseShifter,
    apply_element,
    apply_fsf,
    bs_matrix_element,
    herald,
    make_fock,
    norm_sq,
    tensor,
    two_photon_projector,
)


def filter_response(n: int, theta: float) -> float:
    """Amplitude law of a single-photon-heralded filter on |n>."""
    return math.cos(theta) ** (n + 1) * (1.0 - n * math.tan(theta) ** 2)


class TestBsMatrixElement:
    @pytest.mark.parametrize("theta", [0.3, 0.7, math.pi / 4, 1.2])
    def test_single_photon(self, theta):
        assert bs_matrix_element(1, 0, 1, 0, theta) == pytest.approx(math.cos(theta))
        assert bs_matrix_element(1, 0, 0, 1, theta) == pytest.approx(
            1j * math.sin(theta)
        )

    def test_hong_ou_mandel(self):
        theta = math.pi / 4
        assert bs_matrix_element(1, 1, 2, 0, theta) == pytest.approx(1j / math.sqrt(2))
        assert bs_matrix_element(1, 1, 0, 2, theta) == pytest.approx(1j / math.sqrt(2))
        assert abs(bs_matrix_element(1, 1, 1, 1, theta)) < 1e-15

    def test_sector_mismatch_is_zero(self):
        assert bs_matrix_element(2, 1, 1, 1, 0.4) == 0j

    def test_unitarity_single_sector(self):
        total = sum(
            abs(bs_matrix_element(3, 2, p, 5 - p, 0.7)) ** 2 for p in range(6)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sector_unitarity_random_thetas(self):
        rng = np.random.default_rng(20240811)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 20):
            for m in range(9):
                for n in range(9 - m):
                    total = sum(
                        abs(bs_matrix_element(m, n, p, m + n - p, theta)) ** 2
                        for p in range(m + n + 1)
                    )
                    assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [0.37, 1.1, -0.6])
    @pytest.mark.parametrize("total", [1, 2, 3, 5])
    def test_against_matrix_exponential(self, theta, total):
        # Independent route: exponentiate theta*(a^dag b + a b^dag) in the
        # fixed photon-number sector and compare matrix elements.
        dim = total + 1
        generator = np.zeros((dim, dim), dtype=complex)
        for p in range(total):
            # a^dag b maps (p, q) -> (p+1, q-1) with sqrt((p+1) q)
            generator[p + 1, p] += math.sqrt((p + 1) * (total - p))
            generator[p, p + 1] += math.sqrt((p + 1) * (total - p))
        unitary = expm(1j * theta * generator)
        for m in range(dim):
            for p in range(dim):
                expected = unitary[p, m]
                got = bs_matrix_element(m, total - m, p, total - p, theta)
                assert abs(got - expected) < 1e-10


class TestApplyElement:
    def test_hom_bunching(self):
        state = apply_element(make_fock(2, [1, 1]), BeamSplitter(0, 1, math.pi / 4))
        amp = 1j / math.sqrt(2)
        assert_terms_close(state, {(2, 0): amp, (0, 2): amp})

    def test_phase_shifter_diagonal(self):
        state = apply_element(make_fock(1, [2]), PhaseShifter(0, math.pi))
        assert_terms_close(state, {(2,): 1.0})
        state = apply_element(make_fock(1, [1]), PhaseShifter(0, math.pi))
        assert_terms_close(state, {(1,): -1.0})

    def test_cross_kerr_diagonal(self):
        state = apply_element(make_fock(2, [1, 1]), CrossKerr(0, 1, math.pi))
        assert_terms_close(state, {(1, 1): -1.0})
        state = apply_element(make_fock(2, [3, 0]), CrossKerr(0, 1, math.pi))
        assert_terms_close(state, {(3, 0): 1.0})

    def test_polarizing_bs(self):
        # paths (0,1) and (2,3); H passes, V swaps with factor i per photon
        state = polarizing_bs(make_fock(4, [2, 1, 0, 0]), (0, 1), (2, 3))
        assert_terms_close(state, {(2, 0, 0, 1): 1j})
        state = polarizing_bs(make_fock(4, [0, 1, 0, 1]), (0, 1), (2, 3))
        assert_terms_close(state, {(0, 1, 0, 1): -1.0})

    def test_invalid_mode_index(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_element(make_fock(2, [1, 0]), BeamSplitter(0, 2, 0.5))
        with pytest.raises(ValueError, match="distinct"):
            apply_element(make_fock(2, [1, 0]), CrossKerr(1, 1, 0.5))

    @pytest.mark.parametrize("seed", range(6))
    def test_photon_number_conservation(self, seed):
        rng = np.random.default_rng(1000 + seed)
        state = random_state(rng, 4)
        totals = {sum(occ) for occ in state.terms}
        elements = [
            BeamSplitter(0, 2, rng.uniform(0, math.pi)),
            PhaseShifter(1, rng.uniform(0, 2 * math.pi)),
            CrossKerr(1, 3, rng.uniform(0, 2 * math.pi)),
        ]
        outputs = [apply_element(state, element) for element in elements]
        outputs.append(polarizing_bs(state, (0, 1), (2, 3)))
        for out in outputs:
            assert {sum(occ) for occ in out.terms} <= totals

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_preservation(self, seed):
        rng = np.random.default_rng(2000 + seed)
        state = random_state(rng, 4)
        before = norm_sq(state)
        elements = [
            BeamSplitter(1, 3, rng.uniform(0, math.pi)),
            PhaseShifter(2, rng.uniform(0, 2 * math.pi)),
            CrossKerr(0, 2, rng.uniform(0, 2 * math.pi)),
        ]
        outputs = [apply_element(state, element) for element in elements]
        outputs.append(polarizing_bs(state, (0, 1), (2, 3)))
        for out in outputs:
            assert norm_sq(out) == pytest.approx(before, rel=1e-12)


class TestHerald:
    # Modes (3, 1): the pattern is read as (n_3, n_1). The first two terms
    # leave the same (n_0, n_2) = (0, 2) and must add coherently.
    STATE = FockState(
        4,
        {
            (0, 0, 2, 1): 0.3,
            (0, 1, 2, 0): 0.4j,
            (1, 0, 0, 1): 0.5,
            (1, 1, 0, 1): 0.6,
            (2, 0, 0, 0): 0.2,
        },
    )
    CLICKS = {(1, 0): 0.5, (0, 1): 2j}

    def test_weighted_patterns_add_coherently(self):
        outcome = herald(self.STATE, (3, 1), self.CLICKS)
        assert outcome.state.mode_count == 2
        assert_terms_close(
            outcome.state, {(0, 2): 0.5 * 0.3 + 2j * 0.4j, (1, 0): 0.5 * 0.5}
        )
        assert outcome.herald_probability == pytest.approx(
            (0.65**2 + 0.25**2) / 0.9, rel=1e-12
        )

    def test_rejections(self):
        with pytest.raises(ValueError, match="distinct"):
            herald(self.STATE, (1, 1), {(1, 1): 1})
        with pytest.raises(ValueError, match="out of range"):
            herald(self.STATE, (3, 4), self.CLICKS)
        with pytest.raises(ValueError, match="only remaining"):
            herald(self.STATE, (0, 1, 2, 3), {(0, 0, 2, 1): 1})
        with pytest.raises(ValueError, match="needs a mode"):
            herald(self.STATE, (), {(): 1})

    def test_click_pattern_length_must_match_modes(self):
        # A pattern longer than the measured modes is not cut to its first
        # count, and a shorter one is not read as an empty outcome.
        with pytest.raises(ValueError, match="2 counts for 1 modes"):
            herald(self.STATE, (0,), {(1, 7): 1})
        with pytest.raises(ValueError, match="1 counts for 2 modes"):
            herald(self.STATE, (0, 2), {(1,): 1})
        with pytest.raises(ValueError, match="click pattern"):
            herald(self.STATE, (3, 1), {**self.CLICKS, (1, 0, 0): 1})


class TestProjectPhotons:
    def test_single_photon_herald(self):
        outcome = project_photons(make_fock(2, [1, 1]), 1, 1)
        assert_terms_close(outcome.state, {(1,): 1.0})
        assert outcome.herald_probability == pytest.approx(1.0)

    def test_hom_has_no_coincidence(self):
        bunched = apply_element(make_fock(2, [1, 1]), BeamSplitter(0, 1, math.pi / 4))
        outcome = project_photons(bunched, 1, 1)
        assert len(outcome.state) == 0
        assert outcome.herald_probability == pytest.approx(0.0)

    def test_filter_amplitude_law(self):
        # Arbitrary superposition + |1> ancilla through a splitter, heralded on
        # one ancilla photon: C_n -> C_n cos^(n+1)(theta) (1 - n tan^2(theta)).
        rng = np.random.default_rng(77)
        for theta in (0.3, 0.9, 1.2):
            coeffs = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
            state = FockState(1, {(n,): coeffs[n] for n in range(7)})
            mixed = apply_element(
                tensor(state, make_fock(1, [1])), BeamSplitter(0, 1, theta)
            )
            outcome = project_photons(mixed, 1, 1)
            expected = {
                (n,): coeffs[n] * filter_response(n, theta) for n in range(7)
            }
            assert_terms_close(outcome.state, expected, atol=1e-12)

    def test_mode_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            project_photons(make_fock(2, [1, 1]), 2, 1)
        with pytest.raises(ValueError, match="only remaining"):
            project_photons(make_fock(1, [1]), 0, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_probability_bounds_unit_input(self, seed):
        rng = np.random.default_rng(3000 + seed)
        state = random_unit_state(rng, 3)
        for k in range(4):
            outcome = project_photons(state, 1, k)
            assert -1e-12 <= outcome.herald_probability <= 1.0 + 1e-12


class TestFockStateFilter:
    def test_removes_single_photon(self):
        outcome = apply_fsf(make_fock(1, [1]), 0, 1)
        assert len(outcome.state) == 0

    def test_removes_two_photon(self):
        outcome = apply_fsf(make_fock(1, [2]), 0, 2)
        assert len(outcome.state) == 0

    def test_vacuum_scaling(self):
        outcome = apply_fsf(make_fock(1, [0]), 0, 1)
        assert_terms_close(outcome.state, {(0,): 1 / math.sqrt(2)})
        assert outcome.herald_probability == pytest.approx(0.5)

    def test_invalid_filter_order(self):
        with pytest.raises(ValueError, match="at least 1"):
            apply_fsf(make_fock(1, [1]), 0, 0)

    @pytest.mark.parametrize("k_filter", [1.5, 1.0, True])
    def test_non_int_filter_order(self, k_filter):
        message = f"filter order must be an int, at least 1, got {k_filter}"
        with pytest.raises(ValueError, match=message):
            apply_fsf(make_fock(1, [1]), 0, k_filter)

    def test_randomized_nulling_and_law(self):
        rng = np.random.default_rng(20180630)
        for _ in range(25):
            coeffs = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
            state = FockState(1, {(n,): coeffs[n] for n in range(9)})
            for k in (1, 2, 3, 4):
                theta = math.atan(1 / math.sqrt(k))
                out = apply_fsf(state, 0, k).state
                assert abs(out.terms.get((k,), 0j)) < 1e-12
                for n in range(9):
                    if n == k:
                        continue
                    expected = coeffs[n] * filter_response(n, theta)
                    assert abs(out.terms.get((n,), 0j) - expected) < 1e-12


    @pytest.mark.parametrize("seed", range(8))
    def test_matches_circuit_exactly(self, seed):
        # The one-pass filter equals its kept circuit in terms, order, every
        # bit of every amplitude (signed zeros included) and herald probability.
        # Real and imaginary amplitudes of both signs meet negative factors,
        # which is where a product not summed into 0j leaves a -0.0 part.
        rng = np.random.default_rng(4100 + seed)
        raw = random_state(rng, 3, max_photons=6, max_terms=12)
        shapes = (lambda a: complex(a.real), lambda a: complex(0.0, a.imag), complex)
        state = FockState(
            3, {occ: shapes[i % 3](amp) for i, (occ, amp) in enumerate(raw.terms.items())}
        )
        for mode in range(3):
            for k in (1, 2, 3, 5):
                direct = apply_fsf(state, mode, k)
                circuit = fsf_circuit(state, mode, k)
                assert_same_bits(direct.state, circuit.state)
                assert direct.herald_probability == circuit.herald_probability

    def test_herald_probability_matches_detection(self):
        # Against the circuit's own detection, which measures the probability
        # against the splitter's output: equal up to roundoff in that norm.
        rng = np.random.default_rng(4200)
        state = random_state(rng, 4, max_terms=10)
        theta = math.atan(1.0)
        mixed = apply_element(
            tensor(state, make_fock(1, [1])), BeamSplitter(2, 4, theta)
        )
        detected = project_photons(mixed, 4, 1).herald_probability
        assert apply_fsf(state, 2, 1).herald_probability == pytest.approx(
            detected, rel=1e-13
        )


class TestTwoPhotonHerald:
    @staticmethod
    def _tap_state(occ_map):
        # taps in modes 1 and 2, plus a spectator mode so the heralded state
        # keeps at least one mode
        return FockState(3, {(0, *occ): amp for occ, amp in occ_map.items()})

    def test_constructive(self):
        amp = 1j / math.sqrt(2)
        state = self._tap_state({(2, 0): amp, (0, 2): amp})
        outcome = two_photon_herald(state, 1, 2, 0.0)
        assert outcome.herald_probability > 0.1

    def test_destructive(self):
        amp = 1j / math.sqrt(2)
        state = self._tap_state({(2, 0): amp, (0, 2): -amp})
        outcome = two_photon_herald(state, 1, 2, 0.0)
        assert outcome.herald_probability < 1e-24

    def test_coincidence_forbidden(self):
        state = self._tap_state({(1, 1): 1.0})
        for psi in (0.0, 0.7, math.pi):
            outcome = two_photon_herald(state, 1, 2, psi)
            assert outcome.herald_probability < 1e-24

    def test_route_equivalence_randomized(self):
        rng = np.random.default_rng(52)
        tap_patterns = [(2, 0), (0, 2), (1, 1), (0, 0), (1, 0), (2, 1)]
        for _ in range(50):
            terms = {}
            for _ in range(rng.integers(2, 7)):
                rest = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                taps = tap_patterns[rng.integers(0, len(tap_patterns))]
                occ = (rest[0], taps[0], taps[1], rest[1])
                terms[occ] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            state = FockState(4, terms)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            circuit = two_photon_herald(state, 1, 2, psi)
            projector = two_photon_projector(state, 1, 2, psi)
            spread = global_phase_spread(
                dict(circuit.state.terms), dict(projector.state.terms)
            )
            assert spread < 1e-10
