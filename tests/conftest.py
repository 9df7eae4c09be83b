"""Shared helpers for the test suite."""

from __future__ import annotations

import cmath
import math
import sys
from collections import defaultdict
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np

from noongen import (
    PRUNE_THRESHOLD,
    BeamSplitter,
    FockState,
    HeraldedOutcome,
    MethodConfig,
    NoonReport,
    PhaseShifter,
    apply_element,
    apply_fsf,
    generator_even,
    generator_kerr,
    generator_odd,
    herald,
    make_fock,
    tensor,
)
from noongen.elements import fsf_factor


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


def restrict_total_photons(state: FockState, n_total: int) -> FockState:
    """Keep only the terms whose occupations sum to ``n_total`` (unnormalized)."""
    kept = ((occ, amp) for occ, amp in state.terms.items() if sum(occ) == n_total)
    return FockState._trusted(state.mode_count, kept)


def project_photons(state: FockState, mode: int, k: int) -> HeraldedOutcome:
    """Detect exactly ``k`` photons in ``mode`` and remove that mode."""
    if k < 0:
        raise ValueError("photon count must be non-negative")
    return herald(state, (mode,), {(k,): 1})


def two_photon_herald(
    state: FockState, tap_b: int, tap_c: int, psi_k: float
) -> HeraldedOutcome:
    """Two-fold single-photon coincidence on the taps of a sub-block, as a circuit.

    Phase psi_k on ``tap_c``, a 50:50 recombining splitter on the taps, then
    one ``herald`` of a click in each tap. Equals, up to one global constant,
    the direct projector ``two_photon_projector``.
    """
    work = apply_element(state, PhaseShifter(tap_c, psi_k))
    work = apply_element(work, BeamSplitter(tap_b, tap_c, math.pi / 4))
    work = herald(work, (tap_b, tap_c), {(1, 1): 1}).state
    return HeraldedOutcome(work, state)


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
    return HeraldedOutcome(project_photons(mixed, ancilla, 1).state, state)


def filtrate_blocks(state: FockState, n_photons: int) -> FockState:
    """The floor(N/2) Fock-state filter blocks as passes of ``apply_fsf``.

    Block k filters every mode of ``state`` in turn. The pipelines fold the
    same blocks into their single-mode factors instead.
    """
    for k in range(1, n_photons // 2 + 1):
        for mode in range(state.mode_count):
            state = apply_fsf(state, mode, k).state
    return state


def split_circuit(n_photons: int, d: int) -> FockState:
    """Even split of |N> over d modes built as its circuit.

    A chain of d-1 beam splitters, the j-th (1-based) with transmissivity
    1/(d+1-j), then per-mode phase shifters exp[-i*(pi/2)*(j-1)*n_j] that
    cancel the reflection phases.
    """
    state = make_fock(d, (n_photons,) + (0,) * (d - 1))
    for j in range(1, d):
        transmissivity = 1.0 / (d + 1 - j)
        theta = math.acos(math.sqrt(transmissivity))
        state = apply_element(state, BeamSplitter(j - 1, j, theta))
    for mode in range(1, d):
        state = apply_element(state, PhaseShifter(mode, -0.5 * math.pi * mode))
    return state


def generator_even_herald_circuit(
    state: FockState, path_a: int, n_photons: int
) -> HeraldedOutcome:
    """Even-N generator circuit with each sub-block's coincidence detected.

    The same taps as ``pipelines._generator_even_circuit``, but every
    sub-block ends in ``two_photon_herald`` (tap phase, 50:50 recombiner,
    (1,1) click) instead of the equivalent tap projector.
    """
    internal = state.mode_count
    work = tensor(state, make_fock(1, (n_photons,)))
    for k in range(1, n_photons // 2 + 1):
        theta = math.acos(math.sqrt((n_photons - k) / (n_photons - k + 1)))
        psi = 2.0 * math.pi * k / n_photons
        tap_b = work.mode_count
        tap_c = tap_b + 1
        work = tensor(work, make_fock(2, (0, 0)))
        work = apply_element(work, BeamSplitter(path_a, tap_b, theta))
        work = apply_element(work, BeamSplitter(tap_c, internal, theta))
        work = two_photon_herald(work, tap_b, tap_c, psi).state
    return HeraldedOutcome(work, state)


def polarizing_bs(
    state: FockState, path_i: tuple[int, int], path_j: tuple[int, int]
) -> FockState:
    """Polarizing splitter over two (H, V) submode pairs, each a tuple of modes.

    H submodes pass straight through. The V submodes of the two paths are
    exchanged, and each reflected V photon picks up the same factor i as a
    fully reflecting beam splitter.
    """
    i_v, j_v = path_i[1], path_j[1]
    i_pow = (1 + 0j, 1j, -1 + 0j, -1j)
    terms = []
    for occ, amp in state.terms.items():
        out = list(occ)
        out[i_v], out[j_v] = occ[j_v], occ[i_v]
        terms.append((tuple(out), amp * i_pow[(occ[i_v] + occ[j_v]) % 4]))
    return FockState._trusted(state.mode_count, terms)


def polarized_generator_odd_circuit(
    state: FockState, path_a: int, n_photons: int
) -> HeraldedOutcome:
    """Odd-N generator circuit on paths doubled into (H, V) submode pairs.

    Every path is a consecutive submode pair and ``path_a`` is a path index.
    The fresh path's internal |N> sits in its first submode, which couples to
    tap c's V submode during the sub-blocks and is read as H afterwards (an
    ideal V -> H half-wave plate). Each sub-block merges its four tap
    submodes in :func:`polarizing_bs` and detects one photon at port b in
    either polarization. ``pipelines._generator_odd_circuit`` runs the same
    sub-blocks on single-mode paths and two tap modes, with the splitter
    folded into the V click's weight; :func:`collapse_polarization` of this
    circuit's output must equal that route's.
    """
    path_h, path_v = 2 * path_a, 2 * path_a + 1
    internal_v = state.mode_count
    work = tensor(state, make_fock(2, (n_photons, 0)))
    v_click_weight = cmath.exp(0.5j * math.pi / n_photons)
    clicks = {(1, 0, 0, 0): 1, (0, 1, 0, 0): v_click_weight}
    for k in range(1, n_photons + 1):
        theta = math.acos(
            math.sqrt((2 * n_photons - k) / (2 * n_photons - k + 1))
        )
        psi = 2.0 * math.pi * k / n_photons
        tap = work.mode_count
        b_h, b_v, c_h, c_v = tap, tap + 1, tap + 2, tap + 3
        work = tensor(work, make_fock(4, (0, 0, 0, 0)))
        work = apply_element(work, BeamSplitter(path_h, b_h, theta))
        work = apply_element(work, BeamSplitter(path_v, b_v, theta))
        work = apply_element(work, BeamSplitter(c_v, internal_v, theta))
        work = apply_element(work, PhaseShifter(c_v, psi))
        work = polarizing_bs(work, (b_h, b_v), (c_h, c_v))
        work = herald(work, (b_h, b_v, c_h, c_v), clicks).state
    return HeraldedOutcome(work, state)


def polarize(state: FockState) -> FockState:
    """Double every mode into an (H, V) pair holding the mode's photons in H."""
    return FockState(
        2 * state.mode_count,
        {
            tuple(n for path in occ for n in (path, 0)): amp
            for occ, amp in state.terms.items()
        },
    )


def collapse_polarization(state: FockState) -> FockState:
    """Merge each (H, V) submode pair into one path occupation."""
    if state.mode_count % 2:
        raise ValueError("polarized states need an even number of submodes")
    paths = state.mode_count // 2
    out: dict[tuple[int, ...], complex] = defaultdict(complex)
    for occ, amp in state.terms.items():
        collapsed = tuple(occ[2 * i] + occ[2 * i + 1] for i in range(paths))
        out[collapsed] += amp
    return FockState._trusted(paths, out.items())


def sector_by_levels(factors: dict, d: int, n_photons: int, first=None) -> FockState:
    """N-photon sector of the d-fold product of one single-mode state, level by level.

    A breadth-first build: every prefix whose remaining photons ``remaining *
    largest`` could still cover is kept, so prefixes that cannot complete are
    built too. ``factors`` maps photon numbers, ascending, to amplitudes;
    amplitudes multiply left to right from ``first``, if given, and a partial
    product below the pruning threshold is dropped. The last mode reads the
    one factor that completes N.
    """
    largest = max(factors, default=0)
    partial = {(): (0, first)}
    for remaining in range(d - 1, 0, -1):
        grown = {}
        for prefix, (used, amp) in partial.items():
            for n, factor in factors.items():
                total = used + n
                if total > n_photons:
                    break
                if n_photons - total > remaining * largest:
                    continue
                value = factor if amp is None else amp * factor
                if abs(value) >= PRUNE_THRESHOLD:
                    grown[prefix + (n,)] = (total, value)
        partial = grown
    terms = (
        (prefix + (n_photons - used,), factor if amp is None else amp * factor)
        for prefix, (used, amp) in partial.items()
        if (factor := factors.get(n_photons - used)) is not None
    )
    return FockState._trusted(d, terms)


def split_factors(n_photons: int, d: int) -> tuple[dict, float]:
    """Single-mode factors d^(-n/2)/sqrt(n!) of the even split, and sqrt(N!).

    Each factor, n = 0..N, is 1/sqrt(d^n * n!) and the scale sqrt(N!), both
    correctly rounded from the exact integer. The NOON term of the split is
    the scale times the N-photon factor.
    """
    one = 1 << 106
    factors = {
        n: complex(one / math.isqrt(d**n * math.factorial(n) * one * one))
        for n in range(n_photons + 1)
    }
    return factors, math.isqrt(math.factorial(n_photons) * one * one) / one


def filter_factors(factors: dict, n_photons: int) -> dict:
    """Fold the floor(N/2) filter blocks into every single-mode factor.

    Block k multiplies each factor by ``fsf_factor(n, k)`` of its photon
    number n and drops n = k, the filter's exact zero. The factors left lie
    on {0, M+1, ..., N} (M = floor(N/2)), in the order of ``factors``. The
    pipelines filter only the 0- and N-photon factors; :func:`sector_unpruned`
    of this fold is their oracle.
    """
    for k in range(1, n_photons // 2 + 1):
        factors = {n: c * fsf_factor(n, k) for n, c in factors.items() if n != k}
    return factors


def assert_same_bits(a: FockState, b: FockState) -> None:
    """Assert two states hold the same terms in the same order, bit for bit."""
    assert a.mode_count == b.mode_count
    assert repr(list(a.terms.items())) == repr(list(b.terms.items()))


def sector_unpruned(factors: dict, d: int, n_photons: int) -> dict:
    """N-photon sector of the d-fold product of one single-mode state, unpruned.

    ``factors`` maps photon numbers to amplitudes. Every prefix that still
    fits N photons is grown mode by mode, its amplitude multiplied left to
    right from the first mode's factor, and no product is tested against a
    floor. Returns the occupation -> amplitude dict of the completed terms.
    """
    partial = {(): (0, 1.0)}
    for _ in range(d):
        partial = {
            prefix + (n,): (used + n, amp * factor)
            for prefix, (used, amp) in partial.items()
            for n, factor in factors.items()
            if used + n <= n_photons
        }
    return {occ: amp for occ, (used, amp) in partial.items() if used == n_photons}


def assert_noon_close(amplitudes: list, terms: dict, n_photons: int) -> None:
    """Assert a NOON amplitude list holds the NOON ``terms`` to rounding.

    Entry j is the amplitude of the term with all N photons in mode j: within
    1e-14 of it, relative, or exactly 0j (no signed zero part) where ``terms``
    lacks that term or holds an exact 0. ``terms`` may hold no other term.
    """
    d = len(amplitudes)
    noon = [tuple(n_photons if m == j else 0 for m in range(d)) for j in range(d)]
    assert set(terms) <= set(noon)
    for got, occ in zip(amplitudes, noon):
        want = terms.get(occ, 0j)
        if want:
            assert abs(got - want) <= 1e-14 * abs(want), (occ, got, want)
        else:
            assert repr(got) == "0j", (occ, got)


def noon_report_per_component(
    components: list, n_photons: int, tolerance: float, residual_norm: float
) -> NoonReport:
    """The NOON report built one component at a time, in mode order.

    The oracle of ``pipelines._noon_report``: each component gets its own
    magnitude and sign, and the reference phase is that of the first
    component above the threshold.
    """
    d = len(components)
    magnitudes = list(map(abs, components))
    probability = sum([m**2 for m in magnitudes])
    largest = max(magnitudes)
    threshold = tolerance * largest
    balanced = 0.0 < probability and largest - min(magnitudes) <= threshold
    signs = [0j] * d
    reference = None
    for j, (c, m) in enumerate(zip(components, magnitudes)):
        if m > threshold:
            phase = c / m
            if reference is None:
                reference = phase
            sign = phase / reference
            re, im = sign.real, sign.imag
            signs[j] = complex(
                0.0 if abs(re) <= tolerance else re, 0.0 if abs(im) <= tolerance else im
            )
    if reference is None:
        signs = [1 + 0j] * d
    return NoonReport(
        d, n_photons, tuple(components), probability, tuple(signs), balanced,
        residual_norm,
    )


def cascade_generator(cfg: MethodConfig) -> tuple:
    """The public generator of method 3 or 4 at ``cfg``, and its extra arguments."""
    if cfg.method == 4:
        return generator_kerr, ()
    return (generator_odd if cfg.N % 2 else generator_even), (cfg.N,)


def cascade_one_path_at_a_time(cfg: MethodConfig) -> FockState:
    """Final state of method 3 or 4 with every generator of the tree called alone.

    The same tree as ``pipelines._tree_paths``: at level l the paths 2^l - 1,
    ..., 1, 0 are split in turn. Here each path is its own int call of the
    public generator, where ``run_method`` runs the whole tree in one call.
    """
    generator, args = cascade_generator(cfg)
    state = make_fock(1, (cfg.N,))
    for level in range(cfg.d.bit_length() - 1):
        for path in reversed(range(2**level)):
            state = generator(state, path, *args).state
    return state


# 60 digits over an exponent range far past the double's: every closed-form
# value, including the ones a float underflows, held to far below 1e-12.
EXACT = Context(prec=60, Emin=-(10**6), Emax=10**6)
NORMAL_MIN = Decimal(sys.float_info.min)


def scan_points() -> list[tuple]:
    """(method, d, N, alpha_sq) of the domain scan, alpha_sq None for the default.

    M1/M2 at d 2-32 x N 1-40; M3/M4 at power-of-two d 2-64 x N 1-12, M3 only
    where d*N <= 200; M1 again at alpha^2 1e-5, 0.7 and 3.0.
    """
    points = [
        (method, d, n, None) for method in (1, 2) for d in range(2, 33) for n in range(1, 41)
    ]
    points += [
        (method, 2**level, n, None)
        for method in (3, 4)
        for level in range(1, 7)
        for n in range(1, 13)
        if method == 4 or 2**level * n <= 200
    ]
    points += [
        (1, d, n, alpha_sq)
        for alpha_sq in (1e-5, 0.7, 3.0)
        for d in range(2, 33)
        for n in range(1, 41)
    ]
    return points


def _exact_decimal(value: Fraction) -> Decimal:
    return EXACT.divide(Decimal(value.numerator), Decimal(value.denominator))


def exact_probability(method: int, d: int, n: int, alpha_sq=None) -> Decimal:
    """Each method's closed-form p from exact integers, as a 60-digit Decimal.

    Methods 2-4 are exact fractions; method 1's e^(-d alpha^2) is evaluated
    in :data:`EXACT`. ``alpha_sq`` (a float or Fraction, taken exactly)
    defaults to the float N/d the package uses.
    """
    m = n // 2
    filters = (m + 1) ** (n + d) * math.factorial(n - m - 1) ** 2 * math.factorial(m) ** 2
    if method == 1:
        a = Fraction(n / d if alpha_sq is None else alpha_sq)
        rational = d * a**n * math.factorial(n - 1) / (n * filters)
        return EXACT.multiply(
            _exact_decimal(rational), EXACT.exp(_exact_decimal(-d * a))
        )
    if method == 2:
        rational = Fraction(math.factorial(n - 1) ** 2, d ** (n - 1) * filters)
    elif method == 3:
        generator = Fraction(math.factorial(n), 2**n * n**n)
        rational = generator ** (d - 1) / d ** (n - 1)
    else:
        rational = Fraction(1, d)
    return _exact_decimal(rational)


def exact_generator_magnitudes(n: int) -> tuple[Decimal, Decimal]:
    """Method 3's |split| = sqrt(N!/(4^N N^N)) and |pass-through| = sqrt(N!/(2^N N^N))."""
    return tuple(
        EXACT.sqrt(_exact_decimal(Fraction(math.factorial(n), 2 ** (k * n) * n**n)))
        for k in (2, 1)
    )


def relative_error(got: float, exact: Decimal) -> float:
    """|got - exact| / exact for a positive ``exact``, in :data:`EXACT`."""
    return float(EXACT.divide(EXACT.abs(EXACT.subtract(Decimal(got), exact)), exact))
