"""Tests for the sparse Fock-state algebra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_bits,
    assert_terms_close,
    fsf_circuit,
    project_photons,
    random_state,
    restrict_total_photons,
)
from noongen import (
    BeamSplitter,
    CrossKerr,
    FockState,
    PRUNE_THRESHOLD,
    PhaseShifter,
    amplitude,
    apply_element,
    apply_fsf,
    generator_even,
    generator_kerr,
    generator_odd,
    make_coherent_truncated,
    make_fock,
    norm_sq,
    state_rows,
    tensor,
    two_photon_projector,
)


class TestMakeFock:
    def test_vacuum(self):
        state = make_fock(1, [0])
        assert_terms_close(state, {(0,): 1.0})
        assert norm_sq(state) == pytest.approx(1.0)

    def test_single_term(self):
        state = make_fock(2, [4, 0])
        assert_terms_close(state, {(4, 0): 1.0})

    def test_multimode(self):
        state = make_fock(4, [0, 0, 0, 2])
        assert amplitude(state, (0, 0, 0, 2)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mode_count"):
            make_fock(3, [1, 0])

    def test_negative_occupation(self):
        with pytest.raises(ValueError, match="negative"):
            make_fock(2, [1, -1])

    def test_non_integral_occupation(self):
        with pytest.raises(ValueError, match="non-integral"):
            make_fock(2, (1.7, 0))
        assert dict(make_fock(2, (1.0, 0)).terms) == {(1, 0): 1 + 0j}


class TestCoherent:
    def test_vacuum_alpha(self):
        state = make_coherent_truncated(0.0, 5)
        assert_terms_close(state, {(0,): 1.0})

    def test_alpha_one_cutoff_two(self):
        state = make_coherent_truncated(1.0, 2)
        root = math.exp(-0.5)
        assert_terms_close(
            state,
            {(0,): root, (1,): root, (2,): root / math.sqrt(2)},
        )

    def test_norm_approaches_one(self):
        state = make_coherent_truncated(1.0, 20)
        assert abs(norm_sq(state) - 1.0) < 1e-12

    def test_norm_cutoff_two(self):
        state = make_coherent_truncated(1.0, 2)
        assert norm_sq(state) == pytest.approx(2.5 * math.exp(-1.0), rel=1e-12)

    def test_negative_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            make_coherent_truncated(1.0, -1)

    @pytest.mark.parametrize("cutoff", [2.5, 2.0, True])
    def test_non_int_cutoff(self, cutoff):
        message = f"cutoff must be a non-negative int, got {cutoff}"
        with pytest.raises(ValueError, match=message):
            make_coherent_truncated(0.5, cutoff)

    @pytest.mark.parametrize(
        "alpha", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)]
    )
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            make_coherent_truncated(alpha, 3)

    @pytest.mark.parametrize(
        "alpha", [1e200, -1e200, complex(0.0, 1e200), complex(1.7e308, 1.7e308)]
    )
    def test_alpha_whose_square_overflows(self, alpha):
        # Finite alpha, but |alpha|^2 is past the float range.
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 must be finite"):
            make_coherent_truncated(alpha, 3)

    def test_large_alpha_with_finite_square(self):
        # Accepted: its Gaussian prefactor underflows, so no term survives.
        state = make_coherent_truncated(1e150, 2)
        assert dict(state.terms) == {}

    @pytest.mark.parametrize("alpha", [0, 1e-4, 1, 0.3 + 0.4j, 1e150])
    @pytest.mark.parametrize("cutoff", range(13))
    def test_matches_public_construction(self, alpha, cutoff):
        # The same Poisson recurrence, every nonzero amplitude kept (at alpha
        # 1e-4 from n = 4 on they are below PRUNE_THRESHOLD); through the
        # validating constructor both give the same pruned state.
        amp = complex(math.exp(-0.5 * abs(alpha) ** 2))
        terms = {(0,): amp}
        for n in range(1, cutoff + 1):
            amp = amp * alpha / math.sqrt(n)
            terms[(n,)] = amp
        state = make_coherent_truncated(alpha, cutoff)
        kept = [(occ, amp) for occ, amp in terms.items() if amp]
        assert repr(list(state.terms.items())) == repr(kept)
        assert_same_bits(FockState(1, state.terms), FockState(1, terms))

    @given(
        re=st.floats(-1.5, 1.5),
        im=st.floats(-1.5, 1.5),
        cutoff=st.integers(2, 12),
    )
    @settings(max_examples=60, deadline=None)
    @example(re=0.0, im=2.0**-24, cutoff=2)
    @example(re=1e-200, im=0.0, cutoff=3)
    def test_amplitude_recurrence(self, re, im, cutoff):
        # Every amplitude is the one below times alpha / sqrt(n + 1), however
        # small; only a product that rounds to exactly 0 is left out.
        alpha = complex(re, im)
        state = make_coherent_truncated(alpha, cutoff)
        for n in range(cutoff):
            below = amplitude(state, (n,))
            above = amplitude(state, (n + 1,))
            if below * alpha / math.sqrt(n + 1) == 0:
                assert (n + 1,) not in state.terms
            else:
                assert abs(above / below - alpha / math.sqrt(n + 1)) < 1e-12


class TestTensor:
    def test_vacuum_product(self):
        state = tensor(make_fock(1, [0]), make_fock(1, [0]))
        assert_terms_close(state, {(0, 0): 1.0})

    def test_single_terms(self):
        state = tensor(make_fock(1, [2]), make_fock(1, [1]))
        assert_terms_close(state, {(2, 1): 1.0})

    def test_distributes(self):
        plus = FockState(1, {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
        state = tensor(plus, make_fock(1, [1]))
        assert_terms_close(
            state, {(0, 1): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_state(rng, 2)
        b = random_state(rng, 1)
        left = norm_sq(tensor(a, b))
        right = norm_sq(a) * norm_sq(b)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-15)


class TestAmplitude:
    def test_present(self):
        assert amplitude(make_fock(2, [4, 0]), (4, 0)) == 1.0

    def test_absent_is_exact_zero(self):
        value = amplitude(make_fock(2, [4, 0]), (0, 4))
        assert value == 0j
        assert isinstance(value, complex)

    def test_poisson_value(self):
        state = make_coherent_truncated(1.0, 4)
        assert amplitude(state, (2,)) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2), rel=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="modes"):
            amplitude(make_fock(2, [1, 1]), (1, 1, 0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_total_for_valid_lengths(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 3)
        occ = tuple(int(n) for n in rng.integers(0, 9, 3))
        amplitude(state, occ)  # never raises for a valid-length query


class TestRestrict:
    def test_keeps_sector(self):
        state = FockState(2, {(4, 0): 0.5, (3, 0): 0.5})
        sector = restrict_total_photons(state, 4)
        assert_terms_close(sector, {(4, 0): 0.5})

    def test_empty_sector(self):
        state = FockState(2, {(1, 0): 1.0})
        sector = restrict_total_photons(state, 5)
        assert len(sector) == 0
        assert norm_sq(sector) == 0.0

    def test_filtered_coherent_sector_is_noon(self):
        # Two filtered coherent modes keep per-mode occupations in {0, 3, 4, ...},
        # so the 4-photon sector holds exactly the two extremal terms.
        single = make_coherent_truncated(1.0, 4)
        state = tensor(single, single)
        for k in (1, 2):
            for mode in (0, 1):
                state = apply_fsf(state, mode, k).state
        sector = restrict_total_photons(state, 4)
        assert set(sector.terms) == {(4, 0), (0, 4)}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sectors_partition_norm(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 3)
        total = sum(
            norm_sq(restrict_total_photons(state, n)) for n in range(0, 13)
        )
        assert total == pytest.approx(norm_sq(state), rel=1e-12)


class TestStateInvariants:
    def test_prunes_tiny_amplitudes(self):
        state = FockState(1, {(0,): 1.0, (1,): PRUNE_THRESHOLD / 10})
        assert set(state.terms) == {(0,)}

    def test_rows_canonical_order(self):
        state = FockState(2, {(1, 0): 0.5j, (0, 1): 0.5, (0, 0): -0.5})
        rows = state_rows(state)
        assert [r[0] for r in rows] == [(0, 0), (0, 1), (1, 0)]
        assert rows[2] == ((1, 0), 0.0, 0.5)

    def test_zero_mode_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FockState(0, {})

    def test_wrong_length_occupation_rejected(self):
        with pytest.raises(ValueError, match="expected 2"):
            FockState(2, {(1, 0, 0): 1.0})

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FockState(2, {(1, -1): 1.0})

    def test_non_integral_occupation_rejected(self):
        with pytest.raises(ValueError, match="non-integral"):
            FockState(2, {(0.5, 1): 1.0})
        with pytest.raises(ValueError, match="non-integral"):
            amplitude(make_fock(2, (1, 0)), (1.2, 0))

    @pytest.mark.parametrize(
        "amp", [math.nan, math.inf, complex(0.5, -math.inf), complex(math.nan, 0.0)]
    )
    def test_non_finite_amplitude_rejected(self, amp):
        # A NaN amplitude fails the pruning comparison, so it would vanish unseen.
        with pytest.raises(ValueError, match="not finite"):
            FockState(1, {(0,): amp})

    def test_amplitude_whose_magnitude_overflows_rejected(self):
        # Both parts are finite, but |amp| is past the float range.
        with pytest.raises(ValueError, match="not finite in magnitude"):
            FockState(1, {(4,): complex(1.5e308, 1.5e308)})


def _assert_trusted_invariants(out: FockState, source: FockState) -> None:
    assert out._terms is not source._terms
    for occ, amp in out.terms.items():
        assert type(occ) is tuple and len(occ) == out.mode_count
        assert all(type(n) is int and n >= 0 for n in occ)
        assert type(amp) is complex and abs(amp) >= PRUNE_THRESHOLD


class TestTrustedConstruction:
    """States built inside the package keep the public constructor's invariants."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        mode_count=st.sampled_from((4, 6)),
        angle=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_operation_keeps_invariants(self, seed, mode_count, angle):
        rng = np.random.default_rng(seed)
        state = random_state(rng, mode_count)
        elements = (
            BeamSplitter(0, 1, angle),
            PhaseShifter(2, angle),
            CrossKerr(1, 3, angle),
        )
        outputs = [apply_element(state, element) for element in elements]
        detected = next(iter(state.terms))[1]
        outputs += [
            project_photons(state, 1, detected).state,
            two_photon_projector(state, 0, 2, angle).state,
            apply_fsf(state, 3, 1).state,
            tensor(state, random_state(rng, 2)),
            restrict_total_photons(state, sum(next(iter(state.terms)))),
            generator_even(state, 0, 2).state,
            generator_odd(state, 1, 3).state,
            generator_kerr(state, 2).state,
        ]
        for out in outputs:
            _assert_trusted_invariants(out, state)
        filtered = apply_fsf(state, 0, 2)
        circuit = fsf_circuit(state, 0, 2)
        assert_same_bits(filtered.state, circuit.state)
        assert filtered.herald_probability == circuit.herald_probability

    def test_trusted_copies_and_prunes(self):
        terms = {(1, 0): 0.5 + 0j, (0, 1): PRUNE_THRESHOLD / 10 + 0j}
        state = FockState._trusted(2, terms.items())
        terms[(2, 0)] = 1j
        assert dict(state.terms) == {(1, 0): 0.5 + 0j}

    def test_trusted_prunes_a_single_pass_of_pairs(self):
        # A one-shot iterator is read once; the floor itself is kept.
        pairs = [
            ((1, 0), 0.5 + 0j),
            ((0, 1), PRUNE_THRESHOLD / 10 + 0j),
            ((0, 2), -PRUNE_THRESHOLD + 0j),
        ]
        state = FockState._trusted(2, iter(pairs))
        assert dict(state.terms) == {(1, 0): 0.5 + 0j, (0, 2): -PRUNE_THRESHOLD + 0j}
