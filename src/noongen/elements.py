"""Optical elements and heralded detection acting on sparse Fock states.

Beam-splitter convention: U(theta) = exp[i*theta*(a_i^dag a_j + a_i a_j^dag)],
so transmitted amplitudes scale by cos(theta) and reflected amplitudes pick up
a factor i*sin(theta). Every sign elsewhere in the package is validated against
this single convention; there are no per-element sign flags. The elements
are the beam splitter, the phase shifter and the cross-Kerr medium. The
odd-N generator's polarizing splitter is not one of them: at its detection
it only moves one V photon, so its reflection factor i is folded into that
click's weight.

Detectors are ideal and photon-number resolving and destructive. Every
detection in a circuit is one call to :func:`herald`: it keeps the click
patterns it is given on the measured modes, weights them, removes those modes
and returns a :class:`HeraldedOutcome`, whose herald probability is relative
to the state it was heralded from. The Fock-state filter is the one heralded
block applied without a circuit: its ancilla has one surviving path, so
:func:`apply_fsf` multiplies each term by that path's beam-splitter
amplitude, :func:`fsf_factor`.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict, namedtuple
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter
from typing import Mapping

from .fock import FockState, Record, is_int, norm_sq

# Unused here since the filter lost its ancilla circuit; perfbench's span test
# reads this alias to check that the tracer rebinds names imported under
# another name.
from .fock import tensor as _tensor  # noqa: F401


class BeamSplitter(Record, namedtuple("BeamSplitter", "mode_i mode_j theta")):
    """Two-mode splitter with transmissivity cos^2(theta)."""

    __slots__ = ()


class PhaseShifter(Record, namedtuple("PhaseShifter", "mode phi")):
    """Single-mode phase: each term gains exp(i*phi*n_mode)."""

    __slots__ = ()


class CrossKerr(Record, namedtuple("CrossKerr", "mode_i mode_j chi")):
    """Diagonal two-mode nonlinearity: each term gains exp(i*chi*n_i*n_j)."""

    __slots__ = ()


Element = BeamSplitter | PhaseShifter | CrossKerr


class HeraldedOutcome(Record, namedtuple("HeraldedOutcome", "state before")):
    """Unnormalized post-measurement state and the state it was heralded from.

    ``herald_probability`` is the squared norm of the surviving state divided
    by the squared norm of ``before``, i.e. the probability of the detection
    pattern for a unit-norm input. It is computed when read, so pipelines that
    keep only ``state`` pay nothing for it.
    """

    __slots__ = ()

    @property
    def herald_probability(self) -> float:
        """Squared-norm ratio of ``state`` to ``before``; 0 for a zero-norm input."""
        reference = norm_sq(self.before)
        return norm_sq(self.state) / reference if reference > 0.0 else 0.0


@lru_cache(maxsize=None)
def bs_matrix_element(m: int, n: int, p: int, q: int, theta: float) -> complex:
    """Photon-number matrix element <p,q|U(theta)|m,n> of a beam splitter.

    Obtained by binomially expanding
    (cos(theta) a^dag + i sin(theta) b^dag)^m (cos(theta) b^dag + i sin(theta) a^dag)^n
    and reading off the a^dag^p b^dag^q monomial. Zero whenever p+q != m+n.
    """
    if min(m, n, p, q) < 0:
        raise ValueError("photon numbers must be non-negative")
    if p + q != m + n:
        return 0j
    c = math.cos(theta)
    s = math.sin(theta)
    acc = 0j
    for j in range(max(0, p - n), min(m, p) + 1):
        low = j + n - p
        acc += (
            comb(m, j)
            * comb(n, low)
            * c ** (2 * j + n - p)
            * (1j * s) ** (m + p - 2 * j)
        )
    scale = math.sqrt(factorial(p) * factorial(q) / (factorial(m) * factorial(n)))
    return acc * scale


def _check_modes(state: FockState, *modes: int) -> None:
    """Raise ValueError unless every mode is in range and none repeats."""
    for mode in modes:
        if not 0 <= mode < state.mode_count:
            raise ValueError(
                f"mode index {mode} out of range for {state.mode_count} modes"
            )
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes must be distinct, got {modes}")


def _apply_beam_splitter(state: FockState, e: BeamSplitter) -> FockState:
    _check_modes(state, e.mode_i, e.mode_j)
    out: dict[tuple[int, ...], complex] = defaultdict(complex)
    for occ, amp in state.terms.items():
        m, n = occ[e.mode_i], occ[e.mode_j]
        total = m + n
        if total == 0:
            out[occ] += amp
            continue
        scattered = list(occ)
        for p in range(total + 1):
            coef = bs_matrix_element(m, n, p, total - p, e.theta)
            if coef:
                scattered[e.mode_i] = p
                scattered[e.mode_j] = total - p
                out[tuple(scattered)] += amp * coef
    return FockState._trusted(state.mode_count, out.items())


def _apply_phase_shifter(state: FockState, e: PhaseShifter) -> FockState:
    _check_modes(state, e.mode)
    terms = (
        (occ, amp * cmath.exp(1j * e.phi * occ[e.mode]))
        for occ, amp in state.terms.items()
    )
    return FockState._trusted(state.mode_count, terms)


def _apply_cross_kerr(state: FockState, e: CrossKerr) -> FockState:
    _check_modes(state, e.mode_i, e.mode_j)
    terms = (
        (occ, amp * cmath.exp(1j * e.chi * occ[e.mode_i] * occ[e.mode_j]))
        for occ, amp in state.terms.items()
    )
    return FockState._trusted(state.mode_count, terms)


def apply_element(state: FockState, element: Element) -> FockState:
    """Apply one optical element exactly, returning a new state."""
    if isinstance(element, BeamSplitter):
        return _apply_beam_splitter(state, element)
    if isinstance(element, PhaseShifter):
        return _apply_phase_shifter(state, element)
    if isinstance(element, CrossKerr):
        return _apply_cross_kerr(state, element)
    raise TypeError(f"unknown element {element!r}")


def herald(
    state: FockState,
    modes: tuple[int, ...],
    clicks: Mapping[tuple[int, ...], complex],
) -> HeraldedOutcome:
    """Detect the click patterns ``clicks`` on ``modes`` and remove those modes.

    A term survives when its occupation of ``modes``, read in the order given,
    is a key of ``clicks``; it is multiplied by that key's weight. Every key
    holds one count per measured mode. Terms that coincide once the measured
    modes are removed add coherently. Surviving amplitudes stay relative to
    whatever reference the input carried, and an empty outcome is a valid
    zero state with herald probability 0.
    """
    _check_modes(state, *modes)
    if not 0 < len(modes) < state.mode_count:
        raise ValueError(
            "herald needs a mode and cannot remove the only remaining modes"
        )
    for key in clicks:
        if len(key) != len(modes):
            raise ValueError(
                f"click pattern {key} has {len(key)} counts for {len(modes)} modes"
            )
    pattern = itemgetter(*modes)
    if len(modes) == 1:  # itemgetter then returns the bare count, not a 1-tuple
        clicks = {key[0]: weight for key, weight in clicks.items()}
    keep = [i for i in range(state.mode_count) if i not in modes]
    # A contiguous rest is one slice: it copies fastest, and unlike itemgetter
    # of a single index it still returns a tuple.
    if keep[-1] - keep[0] == len(keep) - 1:
        rest = itemgetter(slice(keep[0], keep[-1] + 1))
    else:
        rest = itemgetter(*keep)
    summed = defaultdict(complex)
    for occ, amp in state.terms.items():
        weight = clicks.get(pattern(occ))
        if weight is not None:
            summed[rest(occ)] += weight * amp
    outcome = FockState._trusted(state.mode_count - len(modes), summed.items())
    return HeraldedOutcome(outcome, state)


@lru_cache(maxsize=None)
def fsf_factor(n: int, k_filter: int) -> complex:
    """Amplitude a ``k_filter``-filter gives a term with ``n`` photons in its mode.

    The filter's ancilla photon reaches its detector by one path only, ``n``
    photons staying in the mode and one in the ancilla, so the amplitude is
    ``bs_matrix_element(n, 1, n, 1, theta)`` at theta = arctan(1/sqrt(k)):
    cos^(n+1)(theta) * (1 - n*tan^2(theta)), which vanishes at n = k_filter.
    """
    return bs_matrix_element(n, 1, n, 1, math.atan(1.0 / math.sqrt(k_filter)))


def apply_fsf(state: FockState, mode: int, k_filter: int) -> HeraldedOutcome:
    """Fock state filter: remove the |k_filter> component from ``mode``.

    The circuit is a fresh single-photon ancilla, a beam splitter with
    transmissivity k/(k+1), and a heralding single-photon detection on the
    ancilla. It multiplies each term by :func:`fsf_factor` of its photon
    number in ``mode``. Each product is summed into 0j as the circuit's
    splitter sums it, so the terms, their order and every bit of their
    amplitudes are those of the circuit. The herald probability is relative
    to ``state``.
    """
    _check_modes(state, mode)
    if not is_int(k_filter) or k_filter < 1:
        raise ValueError(f"filter order must be an int, at least 1, got {k_filter!r}")
    kept = (
        (occ, 0j + amp * fsf_factor(occ[mode], k_filter))
        for occ, amp in state.terms.items()
    )
    return HeraldedOutcome(FockState._trusted(state.mode_count, kept), state)


def two_photon_projector(
    state: FockState, tap_b: int, tap_c: int, psi_k: float
) -> HeraldedOutcome:
    """Two-fold single-photon coincidence on the taps of a sub-block.

    Applies (i/sqrt(2)) (<2,0| + e^(2i psi_k) <0,2|) directly on the taps and
    removes them. Up to one global constant this equals the circuit route: a
    phase psi_k on ``tap_c``, a 50:50 recombining splitter on the taps, then a
    click in each tap.
    """
    prefactor = 1j / math.sqrt(2.0)
    clicks = {(2, 0): prefactor, (0, 2): prefactor * cmath.exp(2j * psi_k)}
    return herald(state, (tap_b, tap_c), clicks)
