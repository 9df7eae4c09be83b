"""Shared helpers for the test suite."""

from __future__ import annotations

import cmath
import math

import numpy as np

from noongen import (
    BeamSplitter,
    FockState,
    HeraldedOutcome,
    apply_element,
    make_fock,
    project_photons,
    tensor,
)


def assert_terms_close(state: FockState, expected: dict, atol: float = 1e-12) -> None:
    """Assert a sparse state equals an expected occupation->amplitude map."""
    keys = set(state.terms) | set(expected)
    for occ in keys:
        got = state.terms.get(occ, 0j)
        want = complex(expected.get(occ, 0j))
        assert abs(got - want) <= atol, (
            f"amplitude mismatch at {occ}: got {got}, expected {want}"
        )


def random_state(
    rng: np.random.Generator,
    mode_count: int,
    max_photons: int = 4,
    max_terms: int = 6,
) -> FockState:
    """Random unnormalized sparse state with bounded occupations."""
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        occ = tuple(int(n) for n in rng.integers(0, max_photons + 1, mode_count))
        terms[occ] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FockState(mode_count, terms)


def random_unit_state(
    rng: np.random.Generator, mode_count: int, max_photons: int = 4, max_terms: int = 6
) -> FockState:
    """Random unit-norm sparse state."""
    raw = random_state(rng, mode_count, max_photons, max_terms)
    norm = sum(abs(a) ** 2 for a in raw.terms.values()) ** 0.5
    return FockState(mode_count, {occ: amp / norm for occ, amp in raw.terms.items()})


def global_phase_spread(a: dict, b: dict, atol: float = 1e-10) -> float:
    """Largest deviation between two amplitude maps after one global rescale.

    Returns 0.0 when both maps are empty. The scale is fixed from the largest
    amplitude of ``b``.
    """
    keys = set(a) | set(b)
    if not keys:
        return 0.0
    anchor = max(b, key=lambda k: abs(b.get(k, 0j)), default=None)
    if anchor is None or abs(b.get(anchor, 0j)) == 0.0:
        return max(abs(a.get(k, 0j)) for k in keys)
    scale = a.get(anchor, 0j) / b[anchor]
    return max(abs(a.get(k, 0j) - scale * b.get(k, 0j)) for k in keys)


def fsf_circuit(state: FockState, mode: int, k_filter: int) -> HeraldedOutcome:
    """Fock-state filter built as its circuit: a |1> ancilla, a splitter, a click.

    The herald probability is taken relative to ``state``, as ``apply_fsf``
    reports it; the circuit's own ``project_photons`` measures it against the
    splitter's output, whose norm equals the input's only to roundoff.
    """
    theta = math.atan(1.0 / math.sqrt(k_filter))
    ancilla = state.mode_count
    mixed = apply_element(
        tensor(state, make_fock(1, (1,))), BeamSplitter(mode, ancilla, theta)
    )
    return HeraldedOutcome.relative(project_photons(mixed, ancilla, 1).state, state)


def assert_same_bits(a: FockState, b: FockState) -> None:
    """Assert two states hold the same terms in the same order, bit for bit."""
    assert a.mode_count == b.mode_count
    assert repr(list(a.terms.items())) == repr(list(b.terms.items()))
