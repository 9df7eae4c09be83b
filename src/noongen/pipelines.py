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
   detection, so the paths between generators stay single modes.
4. a cascade of d-1 cross-Kerr interferometer generators, each heralded on a
   single-photon detection.

Every generator applies its output on n photons in closed form, at most two
rows (:func:`_transfer_table`); the tests keep the circuits as the tables' oracles.

All amplitudes stay relative to the original input, so generation
probabilities are squared norms of the extracted NOON components.
:func:`run_method` runs every scheme: one branch filters methods 1 and 2,
the other cascades methods 3 and 4, which require d to be a power of two.
The cascade is a balanced binary tree (each occupied-or-superposed mode is
paired with a fresh mode level by level), which makes the final component
amplitudes equal. Each component is a product along its leaf's tree path of
three numbers one generator gives: the amplitudes with which |N> stays or
moves and an empty path's factor, read from two generator calls
(:func:`_cascade_report`). A generator takes one int path and appends one
fresh mode.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, repeat
from operator import mul, sub

from .elements import HeraldedOutcome, fsf_factor
from .fock import (
    PRUNE_THRESHOLD,
    FockState,
    Record,
    check_alpha,
    is_int,
    make_coherent_truncated,
)

# Not used here: perfbench's span test reads these names to check that the
# tracer rebinds every module's imports.
from .elements import apply_element  # noqa: F401
from .fock import tensor  # noqa: F401


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


# i^k, k = 0..3, as (real, imaginary) parts: a table entry's zero part is +0.0.
_I_POWERS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@lru_cache(maxsize=None)
def _transfer_table(n: int, n_photons: int | None) -> tuple:
    """Output map of a generator on ``n`` photons in the touched mode, in closed form.

    Returns ``(touched, fresh, amplitude)`` rows: the photon numbers the
    touched mode and the appended mode end with, and the amplitude. The row
    that moves photons comes first and a row below :data:`PRUNE_THRESHOLD` is
    dropped, as in the circuits' output states. Cached; tuples all the way
    down, so no caller can change a table.

    ``n_photons`` None is the cross-Kerr generator: 1/2 at (0, n) and (n, 0)
    for n >= 1, 1 at (0, 0). Otherwise both of method 3's flavours share c
    2^(-n/2) at (n, 0) and, for n >= N, s(N) c 2^(-n/2) sqrt(C(n, N)) at
    (n - N, N), with c = phi sqrt(N!/(2^N N^N)), phi = -i for odd N and
    -i^(N/2) for even N, and s(N) = -1 for N = 0, 1 (mod 4), else +1. Each
    magnitude is rounded once from the exact integers N! C(n, N) and 2^(N+n)
    N^N, as :func:`_split_factor` rounds.
    """
    if n_photons is None:
        return ((0, 0, 1 + 0j),) if n == 0 else ((0, n, 0.5 + 0j), (n, 0, 0.5 + 0j))
    weight = 2 ** (n_photons + n) * n_photons**n_photons
    top = math.factorial(n_photons)
    turns = 3 if n_photons % 2 else n_photons // 2 + 2  # phi = i^turns
    rows = []
    if n >= n_photons:  # s(N) = i^2 for N = 0, 1 (mod 4)
        flip = 2 * (n_photons % 4 < 2)
        rows.append((n - n_photons, n_photons, turns + flip, top * math.comb(n, n_photons)))
    rows.append((n, 0, turns, top))
    table = []
    for touched, fresh, power, count in rows:
        magnitude = math.isqrt(count * weight * _ONE * _ONE) / (weight * _ONE)
        if magnitude >= PRUNE_THRESHOLD:
            re, im = _I_POWERS[power % 4]
            table.append((touched, fresh, complex(magnitude * re, magnitude * im)))
    return tuple(table)


def _apply_transfer(state: FockState, path: int, n_photons: int | None) -> HeraldedOutcome:
    """Apply the generator of :func:`_transfer_table`'s ``n_photons`` to ``path``.

    The generator touches mode ``path`` of ``state`` and appends one fresh
    mode. A term with ``path`` empty is multiplied by the vacuum table's one
    factor ``idle`` as ``amp * idle``; any other is expanded by the transfer
    table of its photon number, in table order, each product summed from 0j
    as into a zero-filled map, so a -0.0 part comes out +0.0. A product below
    :data:`PRUNE_THRESHOLD` is dropped. Every table keeps the touched photon
    number on the touched and fresh modes, so no two outputs meet and the
    dict goes to :meth:`FockState._adopt` as it is.
    """
    if not is_int(path):
        raise ValueError(f"path index {path!r} is not an int")
    if not 0 <= path < state.mode_count:
        raise ValueError(f"path index {path} out of range for {state.mode_count} modes")
    vacuum = _transfer_table(0, n_photons)
    if not vacuum:
        # Only the N-photon generators can get here: the Kerr pass-through is 1.
        raise ValueError(
            f"the generator's vacuum pass-through at N = {n_photons} is below"
            f" PRUNE_THRESHOLD = {PRUNE_THRESHOLD}"
        )
    ((_, _, idle),) = vacuum
    out = {}
    for occ, amp in state.terms.items():
        n = occ[path]
        if not n:
            amp = amp * idle
            if abs(amp) >= PRUNE_THRESHOLD:
                out[occ + (0,)] = amp
            continue
        head, tail = occ[:path], occ[path + 1 :]
        for touched, moved, factor in _transfer_table(n, n_photons):
            value = 0j + amp * factor
            if abs(value) >= PRUNE_THRESHOLD:
                out[(*head, touched, *tail, moved)] = value
    return HeraldedOutcome(FockState._adopt(state.mode_count + 1, out), state)


def generator_even(state: FockState, path: int, n_photons: int) -> HeraldedOutcome:
    """Entanglement generator for even N: reduce two photons per sub-block.

    Appends a fresh mode holding |N> and runs N/2 sub-blocks. Sub-block k taps
    both modes with splitters of transmissivity (N-k)/(N-k+1) and heralds a
    two-fold coincidence behind a 50:50 recombiner with tap phase 2*pi*k/N.
    Applied in closed form (:func:`_transfer_table`): |n> goes to c 2^(-n/2)
    (|n, 0> + s(N) sqrt(C(n, N)) |n-N, N>), the second term for n >= N only,
    with c = -i^(N/2) sqrt(N!/(2^N N^N)) and s(N) = -1 for N = 0 (mod 4), else
    +1, because the transmissivities multiply to 1/2 and the tap phases
    cancel every partial removal. So |N> gives a balanced two-mode NOON state.
    ``path`` is the index of the touched mode; the fresh mode is appended last.
    """
    if not is_int(n_photons) or n_photons < 2 or n_photons % 2:
        raise ValueError(
            f"even-N generator requires even int N >= 2, got {n_photons!r}"
        )
    return _apply_transfer(state, path, n_photons)


def generator_odd(state: FockState, path: int, n_photons: int) -> HeraldedOutcome:
    """Entanglement generator for odd N: reduce one photon per sub-block.

    Appends a fresh mode holding |N> and runs N sub-blocks, each reducing one
    photon: the touched path feeds tap b and the fresh mode feeds tap c through
    splitters of transmissivity (2N-k)/(2N-k+1), and tap c takes the phase
    2*pi*k/N. Tap b is H-polarized and tap c V-polarized; a polarizing
    splitter merges them, reflecting tap c's photon with the factor i, and a
    polarization-erasing detection with a relative phase pi/(2N) on the V
    click sits on the port that can receive both. Applied in closed form as
    :func:`generator_even`, with c = -i sqrt(N!/(2^N N^N)) and s(N) = +1 for
    N = 3 (mod 4), -1 for N = 1 (mod 4): the transmissivities multiply to 1/2
    and the tap phases and click weights cancel every partial removal.
    ``path`` is as for :func:`generator_even`.
    """
    if not is_int(n_photons) or n_photons < 1 or n_photons % 2 == 0:
        raise ValueError(f"odd-N generator requires odd int N >= 1, got {n_photons!r}")
    return _apply_transfer(state, path, n_photons)


def generator_kerr(state: FockState, path: int) -> HeraldedOutcome:
    """Cross-Kerr entanglement generator heralded on one single photon.

    Appends a fresh partner mode (vacuum), a single-photon mode and a fourth
    interferometer arm. A chi = pi cross-Kerr medium sits between two nested
    50:50 interferometers (the outer pair on the single-photon arms, the inner
    pair on the Fock arms, the second of each reversed), and a -pi/2
    per-photon phase on the partner aligns the outputs; only the partner is
    kept. Applied in closed form (:func:`_transfer_table`): |n> goes to
    (|n, 0> + |0, n>)/2 for n >= 1 and vacuum passes with amplitude 1,
    because the photon either misses the medium or gives the path a phase pi
    per photon, which sends all n photons to the partner, and the herald
    takes each branch at 1/2. ``path`` is as for :func:`generator_even`.
    """
    return _apply_transfer(state, path, None)


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
    d^(-N/2)/sqrt(N!) underflows. Methods 3 and 4 multiply out, along the
    tree of :func:`_tree_paths`, what the generator of N's parity, or the
    cross-Kerr one, does to |N> and to |0> on one path
    (:func:`_cascade_report`).
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
    return _cascade_report(generator, args, d, n)


def _cascade_report(generator, args: tuple, d: int, n: int) -> NoonReport:
    """The report of ``generator``'s balanced tree on |N>, from three of its outputs.

    One call on |N> gives ``stay`` and ``move``, the amplitudes of |N, 0> and
    |0, N>, and one on |0> gives ``idle``, an empty path's factor. In the
    tree every branch keeps its N photons on one mode and no two meet, so
    component j is the product, in step order along leaf j's path, of a
    ``stay`` or ``move`` per generator on its mode and an ``idle`` per
    generator between. The products repeat the operations of one int call
    per generator (:func:`_apply_transfer`), so the report is that of the
    state those calls build, bit for bit: an expansion is ``0j + amp *
    factor`` and an idle step ``amp * idle``, and a branch is dropped (0j)
    wherever its product falls below :data:`PRUNE_THRESHOLD`. An idle run is
    floored once at its end, which drops the same branches because |idle|
    <= 1, and skipped when ``idle`` is 1: every run follows an expansion (the
    input is split at step 0), and on a sum from 0j a product with 1+0j
    changes no bit. Only the d NOON terms are built, so the residual is 0.0.
    """
    source = FockState._adopt(1, {(n,): 1 + 0j})  # cfg checked N
    stay, move = extract_noon(generator(source, 0, *args).state, n).component_amplitudes
    vacuum = FockState._adopt(1, {(0,): 1 + 0j})
    ((_, idle),) = generator(vacuum, 0, *args).state.terms.items()
    floor = PRUNE_THRESHOLD

    def idled(amp, run):
        for _ in range(run):
            amp = amp * idle
        return amp if abs(amp) >= floor else 0j

    runs = idle != 1
    paths = _tree_paths(d)
    amps = [1 + 0j] + [0j] * len(paths)
    born = [0] * d  # the step after the expansion that made each live branch
    for fresh, mode in enumerate(paths, 1):  # step fresh - 1 appends mode fresh
        amp = amps[mode]
        if runs and amp:
            amp = idled(amp, fresh - 1 - born[mode])
            born[mode] = born[fresh] = fresh
        kept, moved = 0j + amp * stay, 0j + amp * move
        amps[mode] = kept if abs(kept) >= floor else 0j
        amps[fresh] = moved if abs(moved) >= floor else 0j
    if runs:
        amps = [idled(amp, len(paths) - b) if amp else amp for amp, b in zip(amps, born)]
    return _noon_report(amps, n, 0.0)
