"""End-to-end generation pipelines for d-mode N-photon NOON states.

Four schemes are simulated exactly on the sparse Fock representation:

1. d coherent inputs pass through floor(N/2) Fock-state-filter blocks and the
   N-photon sector is postselected. The filter multiplies each term by a
   factor of each mode's photon number, and after the blocks a mode holds 0
   or more than N/2 photons, so the N-photon sector holds only the d NOON
   terms. The single-mode factors at 0 and N photons alone are filtered and
   multiply out to the one NOON amplitude every mode shares, none pruned,
   reported from one magnitude; no state follows the input.
2. an evenly split N-photon input passes through the same filter blocks,
   its NOON amplitude built the same way from the split factors 1 and
   d^(-N/2); no postselection is needed because the photon number is fixed.
3. a cascade of d-1 entanglement generators built from two-photon
   interference, fed by N-photon inputs; for odd N each generator merges its
   two taps in a polarizing splitter and erases the polarization at
   detection, which is one click weight on the taps, so the paths between
   generators stay single modes.
4. a cascade of d-1 cross-Kerr interferometer generators, each heralded on a
   single-photon detection.

All amplitudes stay relative to the original input, so generation
probabilities are squared norms of the extracted NOON components.
:func:`run_method` runs every scheme: one branch filters methods 1 and 2,
the other cascades methods 3 and 4, which require d to be a power of two.
The cascade is a balanced binary tree (each occupied-or-superposed mode is
paired with a fresh mode level by level), which makes the final component
amplitudes equal; one generator call runs the whole tree, each branch kept
as its occupied modes until its final occupation is built.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, repeat
from operator import mul, sub

from .elements import (
    BeamSplitter,
    CrossKerr,
    HeraldedOutcome,
    PhaseShifter,
    apply_element,
    fsf_factor,
    herald,
    two_photon_projector,
)
from .fock import (
    PRUNE_THRESHOLD,
    FockState,
    Record,
    check_alpha,
    is_int,
    make_coherent_truncated,
    make_fock,
    tensor,
)


METHODS = (1, 2, 3, 4)


def check_domain(method: int, d: int = 2, n_photons: int = 1) -> None:
    """Raise ValueError unless the schemes accept (method, d, N).

    Each must be an int that is not a bool. ``d`` and ``n_photons`` default
    to the smallest accepted values, so a method can be checked on its own.
    """
    for name, value in (("method", method), ("d", d), ("N", n_photons)):
        if not is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if method not in METHODS:
        raise ValueError(f"method must be 1, 2, 3 or 4, got {method}")
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n_photons < 1:
        raise ValueError(f"N must be at least 1, got {n_photons}")
    if method in (3, 4) and d & (d - 1):
        raise ValueError("d must be a power of two for methods 3 and 4")


class MethodConfig(
    Record, namedtuple("MethodConfig", "method d N alpha", defaults=(None,))
):
    """Configuration for one generation run.

    ``alpha`` is the coherent amplitude of method 1, which the other methods
    reject; when omitted it defaults to the optimal value sqrt(N/d). ``alpha``
    and |alpha|^2 must be finite. The report's threshold is fixed
    (:data:`_REPORT_TOLERANCE`), so no field sets it.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        check_domain(self.method, self.d, self.N)
        if self.alpha is not None:
            if self.method != 1:
                raise ValueError(
                    f"alpha applies to method 1 only, got method {self.method}"
                )
            check_alpha(self.alpha)


# The report's threshold, relative to the largest component magnitude, and
# the size at or below which a sign part reads 0. Over the scanned domain any
# value from 1e-12 to 0.999 gives the same reports; a smaller one reads the
# cascades' rounding residue as imbalance, and 1 or more erases signs.
_REPORT_TOLERANCE = 1e-10


class NoonReport(
    Record,
    namedtuple(
        "NoonReport",
        "d N component_amplitudes generation_probability sign_pattern balanced"
        " residual_norm",
    ),
):
    """Extracted NOON content of a final pipeline state.

    ``component_amplitudes[j]`` is the amplitude of the basis state with all N
    photons in mode j, relative to the pipeline input. The report's threshold
    is :data:`_REPORT_TOLERANCE` (1e-10) times the largest component
    magnitude, so it holds at every scale of heralded amplitude.
    ``sign_pattern`` holds the component phases after factoring out the phase
    of the first component above the threshold; components at or below it get
    0, and real or imaginary parts at or below 1e-10 are exactly 0. Both are
    tuples of complex numbers.
    ``balanced`` means the probability is positive and the component
    magnitudes differ by at most the threshold. ``residual_norm`` is the
    squared norm of everything else left in the state.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "component_amplitudes": [
                [c.real, c.imag] for c in self.component_amplitudes
            ],
            "generation_probability": self.generation_probability,
            "sign_pattern": [[s.real, s.imag] for s in self.sign_pattern],
            "balanced": self.balanced,
            "residual_norm": self.residual_norm,
        }


def extract_noon(state: FockState, n_photons: int) -> NoonReport:
    """Read the d NOON component amplitudes out of a final state.

    One pass over the terms, two scans of each: a term is a NOON term when
    d-1 modes are empty and the other holds all ``n_photons`` (its index
    fails on a lone mode holding another number). The residual is a correctly
    rounded sum (``math.fsum``) of the other terms' squared magnitudes, so
    their order does not matter. :func:`_noon_report` builds the report from
    the components. Raises ValueError unless ``n_photons`` is an int (not a
    bool) of at least 1.
    """
    if not is_int(n_photons) or n_photons < 1:
        raise ValueError(f"N must be an int of at least 1, got {n_photons!r}")
    d = state.mode_count
    components = [0j] * d
    rest = []
    for occ, amp in state.terms.items():
        if occ.count(0) == d - 1:
            try:
                components[occ.index(n_photons)] = amp
                continue
            except ValueError:
                pass
        rest.append(abs(amp) ** 2)
    return _noon_report(components, n_photons, math.fsum(rest))


def _noon_report(components: list, n_photons: int, residual_norm: float) -> NoonReport:
    """Report on the NOON ``components``, one amplitude per mode, 0j where absent.

    Each component's sign is relative to the phase of the first component
    above the threshold. It is computed here once per distinct component
    value, in order of first appearance, and looked up for each repeat: a
    cascade's d components take a handful of values. Components that compare
    equal differ at most in the sign of a zero part, which the rounded sign
    does not show, and the first component above the threshold is the first
    of its value, so every sign is the one computed per component.
    """
    d = len(components)
    magnitudes = list(map(abs, components))
    probability = sum(map(pow, magnitudes, repeat(2.0)))
    largest = max(magnitudes)
    threshold = _REPORT_TOLERANCE * largest
    balanced = 0.0 < probability and largest - min(magnitudes) <= threshold
    signs = dict.fromkeys(components, 0j)
    reference = None
    for c in signs:
        m = abs(c)
        if m > threshold:
            phase = c / m
            if reference is None:
                reference = phase
            signs[c] = _rounded_sign(phase / reference)
    if reference is None:
        pattern = (1 + 0j,) * d
    else:
        # Through a list: a tuple built from a map of unknown length grows
        # by reallocation, which fragments the heap and raises peak memory.
        pattern = tuple(list(map(signs.__getitem__, components)))
    return NoonReport(
        d, n_photons, tuple(components), probability, pattern, balanced,
        residual_norm,
    )


def _rounded_sign(sign: complex) -> complex:
    """``sign`` with each part at most :data:`_REPORT_TOLERANCE` in size set to 0.0."""
    re, im, tol = sign.real, sign.imag, _REPORT_TOLERANCE
    return complex(0.0 if abs(re) <= tol else re, 0.0 if abs(im) <= tol else im)


def split_evenly(n_photons: int, d: int) -> FockState:
    """Split |N> evenly over d modes: amplitude sqrt(N!/(n_1!...n_d!)) / d^(N/2).

    That real amplitude on every occupation summing to N is the output of d-1
    beam splitters, the j-th (1-based) of transmissivity 1/(d+1-j), and phase
    shifters exp[-i*(pi/2)*(j-1)*n_j]. The photon totals of the first 1..d-1
    modes run over the nondecreasing tuples of 0..N in lexicographic order,
    so the occupations come in lexicographic order too. Each amplitude is
    the ratio of the square roots of the exact integers N! and d^N * n_1! ...
    n_d!, each scaled by ``_ONE``; :meth:`FockState._trusted` drops one below
    :data:`PRUNE_THRESHOLD`.
    """
    _check_split(n_photons, d)
    top = math.isqrt(math.factorial(n_photons) * _ONE * _ONE)
    scale = d**n_photons * _ONE * _ONE
    factorials = [math.factorial(n) for n in range(n_photons + 1)]
    pairs = []
    for totals in combinations_with_replacement(range(n_photons + 1), d - 1):
        occ = tuple(map(sub, (*totals, n_photons), (0, *totals)))
        amp = top / math.isqrt(math.prod(map(factorials.__getitem__, occ)) * scale)
        pairs.append((occ, complex(amp)))
    return FockState._trusted(d, pairs)


_ONE = 1 << 106  # isqrt(m * _ONE * _ONE) / _ONE: sqrt(m) correctly rounded


def _check_split(n_photons: int, d: int) -> None:
    """Raise ValueError unless N and d are ints, not bools, 1 <= N <= 300, d >= 2."""
    if not is_int(n_photons):
        raise ValueError(f"photon number must be an int, got {n_photons!r}")
    if not is_int(d):
        raise ValueError(f"mode count must be an int, got {d!r}")
    if not 1 <= n_photons <= 300:
        raise ValueError(f"photon number must be 1 to 300, got {n_photons}")
    if d < 2:
        raise ValueError(f"mode count must be at least 2, got {d}")


@lru_cache(maxsize=256)
def _split_factor(weight: int) -> complex:
    """1/sqrt(``weight``) correctly rounded, cached: d^(-N/2) for method 2's d^N."""
    return complex(_ONE / math.isqrt(weight * _ONE * _ONE))


@lru_cache(maxsize=256)
def _block_factors(n: int, blocks: int) -> tuple:
    """``fsf_factor(n, k)`` for k = 1..``blocks``: one tuple per revisited N."""
    return tuple(fsf_factor(n, k) for k in range(1, blocks + 1))


def _filtrate(cfg: MethodConfig, zero, top) -> NoonReport:
    """The NOON report of d filtered modes, each of factors ``zero`` and ``top``.

    ``zero`` and ``top`` are a mode's amplitudes at 0 and N photons; block k
    multiplies each by :func:`fsf_factor` of its photon number and k. The M
    = floor(N/2) blocks zero the factors at 1..M photons, and 2(M+1) > N, so
    the N-photon sector holds only the d NOON terms, each the running
    product ``top * zero^(d-1)`` (0j, unsigned, if exactly 0). The report is
    :func:`_noon_report`'s for d copies of it, bit for bit, made from one
    magnitude, so a point runs a handful of operations, warm or cold. Every
    copy's sign relative to the first is ``1+0j``: a value divided by itself
    has real part exactly 1.0, and :func:`_rounded_sign` zeroes the rest. No
    other term is built, so the residual is exactly 0.0.
    """
    n, d = cfg.N, cfg.d
    zero = reduce(mul, _block_factors(0, n // 2), zero)
    top = reduce(mul, _block_factors(n, n // 2), top)
    amplitude = reduce(mul, repeat(zero, d - 1), top) or 0j
    magnitude = abs(amplitude)
    threshold = _REPORT_TOLERANCE * magnitude
    probability = sum(repeat(magnitude**2.0, d))
    balanced = 0.0 < probability and magnitude - magnitude <= threshold  # inf - inf is nan
    return NoonReport(d, n, (amplitude,) * d, probability, (1 + 0j,) * d, balanced, 0.0)


@lru_cache(maxsize=None)
def _transfer_table(circuit, n: int, *args) -> tuple:
    """Output map of a generator circuit on ``n`` photons in the touched mode.

    Runs ``circuit`` once on the basis state |n> (path 0) and returns its
    terms as ``(touched, fresh, amplitude)`` triples: the photon numbers the
    touched mode and the appended mode end with, and the amplitude. Cached per
    circuit, photon number and arguments; tuples all the way down, so no
    caller can change a table.
    """
    outcome = circuit(make_fock(1, (n,)), 0, *args).state
    return tuple(
        (touched, fresh, amp) for (touched, fresh), amp in outcome.terms.items()
    )


def _level_paths(paths, mode_count: int) -> tuple[int, ...]:
    """``paths``, an int or a tuple of ints, as a tuple of mode indices.

    Entry ``i`` may name any mode below ``mode_count + i``: an input mode or
    the fresh mode an earlier entry appends. Raises ValueError for an empty
    tuple, a non-int entry or an index outside that range. A tuple of exact
    ints passes one pass over the entries' types here, and its ranges are
    checked by :func:`_schedule`, once per cached schedule. Any other tuple
    is checked here entry by entry, type then range, so a float or bool
    never reaches the cache, where ``(0, 1.0)`` or ``(0, True)`` would find
    the schedule of the equal ``(0, 1)``.
    """
    if not isinstance(paths, tuple):
        paths = (paths,)
    if not paths:
        raise ValueError("paths must name at least one mode")
    if set(map(type, paths)) != {int}:
        for i, path in enumerate(paths):
            if not is_int(path):
                raise ValueError(f"path index {path!r} is not an int")
            if not 0 <= path < mode_count + i:
                raise ValueError(
                    f"path index {path} out of range for {mode_count + i} modes"
                )
    return paths


@lru_cache(maxsize=64)
def _schedule(paths: tuple[int, ...], mode_count: int) -> tuple[tuple, ...]:
    """Step lists of a generator call on ``paths``, one per output mode.

    Entry ``m`` lists, in order, the steps whose generator touches mode ``m``
    of the ``mode_count + len(paths)`` output modes, and ends with
    ``len(paths)``, the step past the last. Each entry's range is checked
    here, in order, as :func:`_level_paths` does for a tuple that is not all
    exact ints; an error is not cached, so it is raised on every call.
    Cached because the cascades repeat their shape: every method 3 or 4 run
    at one d makes the same call on the same paths, and a grid revisits few
    d.
    """
    width = len(paths)
    steps = [[] for _ in range(mode_count + width)]
    for step, path in enumerate(paths):
        if not 0 <= path < mode_count + step:
            raise ValueError(
                f"path index {path} out of range for {mode_count + step} modes"
            )
        steps[path].append(step)
    return tuple(tuple(touches) + (width,) for touches in steps)


def _apply_transfer(state: FockState, paths, circuit, *args) -> HeraldedOutcome:
    """Apply a heralded generator to each of ``paths`` in one pass over the terms.

    The generator ``circuit`` touches one path and appends one fresh mode. The
    fresh mode of ``paths[i]`` gets index ``state.mode_count + i``, and a later
    entry may name it, so the call equals applying the generators one after
    another in the order of ``paths``, and one call runs a whole cascade.

    The generators are linear, so each term walks them depth first. Every
    generator before the next one that touches an occupied mode meets an
    empty path and multiplies the amplitude by the vacuum table's one factor
    ``idle``; the generator itself expands the branch by the transfer table
    of its photon number, looked up once per call. Each product is the one
    applying the generators one at a time formed. That route pruned each
    product below :data:`PRUNE_THRESHOLD`; here an idle run is pruned at its
    end, which drops the same branches because |idle| <= 1. When ``idle``
    is 1 (the Kerr pass-through), a branch made by an expansion skips its
    idle runs: its amplitude is ``0j + amp * factor``, so neither part is
    -0.0, and on such a value a product with ``1+0j`` or ``1-0j`` returns
    every bit unchanged, so the prune it passed when pushed still holds. An
    input term may carry a -0.0 part, which such a product can turn into
    +0.0, so it takes every product. Every amplitude is therefore bit for
    bit the same. Each expansion pushes its branches
    straight onto the walk's stack from the call's copy of the table, stored
    in reverse order, so they pop in table order and finish in that route's
    term order. A finished branch builds its output occupation once, from one
    row per call: a list of zeros whose occupied modes are set, copied to a
    tuple and reset, and goes untested into the dict the output state adopts
    (:meth:`FockState._adopt`): it passed the pruning test in the walk.

    Every table keeps the touched photon number on the touched and fresh
    modes, so no two outputs meet and none are summed; a branch carries the
    occupied mode its next generator touches as its head, and its other
    occupied modes, in the order they are touched, as ``rest``.
    """
    paths = _level_paths(paths, state.mode_count)
    first_fresh = state.mode_count
    steps = _schedule(paths, first_fresh)  # a range error comes before the vacuum's
    vacuum = _transfer_table(circuit, 0, *args)
    if not vacuum:
        # Only the N-photon generators can get here: the Kerr pass-through is 1.
        raise ValueError(
            f"the generator's vacuum pass-through at N = {args[0]} is below"
            f" PRUNE_THRESHOLD = {PRUNE_THRESHOLD}"
        )
    ((_, _, idle),) = vacuum
    unit = idle == 1
    width = len(paths)
    row = [0] * len(steps)
    tables = {}
    leaves = {}
    for occ, amplitude in state.terms.items():
        heads = sorted((steps[mode][0], mode, n, 0) for mode, n in enumerate(occ) if n)
        heads = heads or [(width, 0, 0, 0)]
        stack = [(amplitude, 0, *heads[0], tuple(heads[1:]))]
        while stack:
            amp, step, index, mode, n, k, rest = stack.pop()
            run = index - step
            if run and not (step and unit):
                for _ in range(run):
                    amp = amp * idle
                if abs(amp) < PRUNE_THRESHOLD:
                    continue
            if index == width:
                row[mode] = n
                # Nearly every leaf holds one mode: skip the loops over rest.
                if rest:
                    for _, other, count, _ in rest:
                        row[other] = count
                    leaves[tuple(row)] = amp
                    for _, other, _, _ in rest:
                        row[other] = 0
                else:
                    leaves[tuple(row)] = amp
                row[mode] = 0
                continue
            fresh = first_fresh + index
            after = steps[mode][k + 1]
            table = tables.get(n)
            if table is None:
                table = tables[n] = _transfer_table(circuit, n, *args)[::-1]
            for touched, moved, factor in table:
                # Summed from 0j, as into a zero-filled map: a -0.0 part of
                # the product comes out +0.0, which the reports have always
                # shown.
                value = 0j + amp * factor
                if abs(value) < PRUNE_THRESHOLD:
                    continue
                if rest or touched and moved:
                    heads = list(rest)
                    if touched:
                        heads.append((after, mode, touched, k + 1))
                    if moved:
                        heads.append((steps[fresh][0], fresh, moved, 0))
                    heads.sort()
                    stack.append((value, index + 1, *heads[0], tuple(heads[1:])))
                elif moved:
                    stack.append((value, index + 1, steps[fresh][0], fresh, moved, 0, ()))
                else:
                    stack.append((value, index + 1, after, mode, touched, k + 1, ()))
    return HeraldedOutcome(FockState._adopt(len(row), leaves), state)


def generator_even(
    state: FockState, paths: int | tuple[int, ...], n_photons: int
) -> HeraldedOutcome:
    """Entanglement generator for even N: reduce two photons per sub-block.

    Appends a fresh mode holding |N> and runs N/2 sub-blocks. Sub-block k taps
    both modes with splitters of transmissivity (N-k)/(N-k+1) and heralds a
    two-fold coincidence behind a 50:50 recombiner with tap phase 2*pi*k/N.
    On a pure |N> input the output is an equal-magnitude two-mode NOON state;
    on a vacuum input the internal |N> is fully consumed and the generator
    reduces to a scalar factor.

    ``paths`` is one mode index or a tuple of them, such as a whole cascade;
    each entry gets one generator and one fresh mode, with the next unused
    indices in the order of ``paths``, and entry i may name any mode below
    ``state.mode_count + i``, so a later entry can split an earlier one's
    fresh mode. The call equals the int calls made in that order. The circuit
    (:func:`_generator_even_circuit`) runs once per photon number of a path
    and N to build a transfer table; each call applies the tables to its terms
    in one pass.
    """
    if not is_int(n_photons) or n_photons < 2 or n_photons % 2:
        raise ValueError(
            f"even-N generator requires even int N >= 2, got {n_photons!r}"
        )
    return _apply_transfer(state, paths, _generator_even_circuit, n_photons)


def _generator_even_circuit(
    state: FockState, path_a: int, n_photons: int
) -> HeraldedOutcome:
    """Circuit of :func:`generator_even`; each sub-block ends in its tap projector."""
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
        work = two_photon_projector(work, tap_b, tap_c, psi).state
    return HeraldedOutcome(work, state)


def generator_odd(
    state: FockState, paths: int | tuple[int, ...], n_photons: int
) -> HeraldedOutcome:
    """Entanglement generator for odd N: reduce one photon per sub-block.

    Appends a fresh mode holding |N> and runs N sub-blocks, each reducing one
    photon: the touched path feeds tap b and the fresh mode feeds tap c through
    splitters of transmissivity (2N-k)/(2N-k+1), and tap c takes the phase
    2*pi*k/N. In the paper's circuit tap b is H-polarized and tap c
    V-polarized; a polarizing splitter merges them and a polarization-erasing
    single-photon detection sits on the port that can receive both. Tap b's
    photon passes the splitter, tap c's is reflected with the factor i, so
    the detection is one :func:`herald` on the two taps with the click
    patterns (1, 0) and (0, 1), summed coherently. The erased click leaves no
    which-path trace, and every path between generators is a single mode.

    The detection basis carries a fixed relative phase pi/(2N) on the V click;
    together with the splitter's factor i this pins the relative sign of the
    two output components to +1 for N = 3 (mod 4) and -1 for N = 1 (mod 4).

    ``paths`` is one mode index or a tuple of them, as for
    :func:`generator_even`. The circuit (:func:`_generator_odd_circuit`) runs
    once per photon number of a path and N to build a transfer table; each
    call applies the tables to its terms in one pass.
    """
    if not is_int(n_photons) or n_photons < 1 or n_photons % 2 == 0:
        raise ValueError(f"odd-N generator requires odd int N >= 1, got {n_photons!r}")
    return _apply_transfer(state, paths, _generator_odd_circuit, n_photons)


def _generator_odd_circuit(
    state: FockState, path_a: int, n_photons: int
) -> HeraldedOutcome:
    """Circuit of :func:`generator_odd`; the V click weight holds the splitter's i."""
    internal = state.mode_count
    work = tensor(state, make_fock(1, (n_photons,)))
    clicks = {(1, 0): 1, (0, 1): 1j * cmath.exp(0.5j * math.pi / n_photons)}
    for k in range(1, n_photons + 1):
        theta = math.acos(
            math.sqrt((2 * n_photons - k) / (2 * n_photons - k + 1))
        )
        psi = 2.0 * math.pi * k / n_photons
        tap_b = work.mode_count
        tap_c = tap_b + 1
        work = tensor(work, make_fock(2, (0, 0)))
        work = apply_element(work, BeamSplitter(path_a, tap_b, theta))
        work = apply_element(work, BeamSplitter(tap_c, internal, theta))
        work = apply_element(work, PhaseShifter(tap_c, psi))
        work = herald(work, (tap_b, tap_c), clicks).state
    return HeraldedOutcome(work, state)


def generator_kerr(state: FockState, paths: int | tuple[int, ...]) -> HeraldedOutcome:
    """Cross-Kerr entanglement generator heralded on one single photon.

    Appends a fresh partner mode (vacuum), a single-photon mode and a fourth
    interferometer arm. A chi = pi cross-Kerr medium sits between two nested
    50:50 interferometers (the outer pair on the single-photon arms, the inner
    pair on the Fock arms, the second of each reversed). A -pi/2 per-photon
    phase on the partner mode aligns the two output components, so a pure |N>
    input yields (|N,0> + |0,N>)/2 and a vacuum input passes through with
    amplitude 1 while the photon still exits at the heralding detector.

    Of the three appended modes only the partner is kept. ``paths`` is one
    mode index or a tuple of them, as for :func:`generator_even`.
    The circuit (:func:`_generator_kerr_circuit`) runs once per photon number
    of a path to build a transfer table; each call applies the tables to its
    terms in one pass.
    """
    return _apply_transfer(state, paths, _generator_kerr_circuit)


def _generator_kerr_circuit(state: FockState, path_a: int) -> HeraldedOutcome:
    """Circuit of :func:`generator_kerr`."""
    partner = state.mode_count
    herald_mode = partner + 1
    kerr_arm = partner + 2
    quarter = math.pi / 4
    work = tensor(state, make_fock(3, (0, 1, 0)))
    work = apply_element(work, BeamSplitter(herald_mode, kerr_arm, quarter))
    work = apply_element(work, BeamSplitter(path_a, partner, quarter))
    work = apply_element(work, CrossKerr(path_a, kerr_arm, math.pi))
    work = apply_element(work, BeamSplitter(path_a, partner, -quarter))
    work = apply_element(work, BeamSplitter(herald_mode, kerr_arm, -quarter))
    work = apply_element(work, PhaseShifter(partner, -0.5 * math.pi))
    work = herald(work, (herald_mode, kerr_arm), {(1, 0): 1}).state
    return HeraldedOutcome(work, state)


@lru_cache(maxsize=64)
def _tree_paths(d: int) -> tuple[int, ...]:
    """Paths of the d-1 generators of a balanced binary tree, one tuple per d.

    Level l splits the paths 2^l - 1, ..., 1, 0 in turn, each generator
    appending a fresh path with the next unused index: for d=8 the paths are
    (0, 1, 0, 3, 2, 1, 0).
    """
    levels = range(d.bit_length() - 1)
    return tuple(path for level in levels for path in reversed(range(2**level)))


def run_method(cfg: MethodConfig) -> NoonReport:
    """Run the configured scheme and report on its NOON components.

    Methods 1 and 2 filter one mode's 0- and N-photon amplitudes: a coherent
    state's truncated at N (0j for one that rounded to 0), or the split's 1
    and d^(-N/2), rounded from the exact d^N as the product of sqrt(N!) and
    d^(-N/2)/sqrt(N!) underflows. Methods 3 and 4 run the generator of N's
    parity, or the cross-Kerr one, once over :func:`_tree_paths` from |N>.
    Raises ValueError unless the method is an int (not a bool) in
    :data:`METHODS`.
    """
    method, d, n, alpha = cfg
    if not is_int(method) or method not in METHODS:
        raise ValueError(f"method must be 1, 2, 3 or 4, got {method!r}")
    if method == 1:
        alpha = alpha if alpha is not None else math.sqrt(n / d)
        single = make_coherent_truncated(alpha, n).terms
        return _filtrate(cfg, single.get((0,), 0j), single.get((n,), 0j))
    if method == 2:
        _check_split(n, d)
        return _filtrate(cfg, 1 + 0j, _split_factor(d**n))
    generator, args = generator_kerr, ()
    if method == 3:
        generator, args = (generator_odd if n % 2 else generator_even), (n,)
    source = FockState._adopt(1, {(n,): 1 + 0j})  # cfg checked N
    return extract_noon(generator(source, _tree_paths(d), *args).state, n)
