"""Sparse multimode bosonic Fock-state algebra.

States are sparse maps from per-mode occupation tuples to complex amplitudes.
Heralded pipelines keep amplitudes relative to their original input state, so
intermediate states are intentionally unnormalized and event probabilities are
read off as squared norms; nothing is renormalized mid-pipeline.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType
from typing import Iterable, Mapping

Occupation = tuple[int, ...]

# The state constructors, the even split and the generators drop amplitudes
# below this magnitude as destructive-interference residue; real heralded
# amplitudes can be smaller (ROADMAP item 1). Methods 1 and 2 never apply it.
PRUNE_THRESHOLD = 1e-14


class Record:
    """Mixin that turns a namedtuple into a value record of its own type.

    A record class derives from ``Record`` and a ``collections.namedtuple``
    and sets ``__slots__ = ()``: it keeps the namedtuple's fields, defaults,
    keyword construction, repr, ``_asdict`` and read-only fields, and equals
    only records of its own class with equal fields, never a plain tuple or a
    record of another class. A record that checks its fields does so in
    ``__init__``, which runs after the namedtuple's ``__new__`` stored them;
    the namedtuple's ``_make`` and ``_replace`` skip ``__init__``, and the
    package calls neither.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


def _counts(occupation: Iterable[int]) -> Occupation:
    """``occupation`` as a tuple of ints; ValueError on a non-integral count."""
    given = tuple(occupation)
    counts = tuple(int(n) for n in given)
    if counts != given:
        raise ValueError(f"occupation {given} has a non-integral photon count")
    return counts


class FockState:
    """Sparse complex-amplitude expansion over occupation vectors.

    Instances are immutable: every operation returns a new state, so states can
    be shared freely across concurrent workers. A state carries no claim about
    its norm: heralded expansions are relative amplitudes, and
    :func:`norm_sq` reads the squared norm off when it is needed.

    There are two construction paths. The public constructor validates its
    input: every occupation must have ``mode_count`` non-negative integral
    entries, and every amplitude is converted with ``complex()`` and must be
    finite. Operations inside the package build their results through the
    trusted :meth:`_trusted` path instead, which takes (occupation, amplitude)
    pairs, often a generator over another state's terms, and skips those
    checks because its occupations and amplitudes are derived from states
    that already passed them. Both prune by the same rule once, in the pass
    that builds their dict; :meth:`_adopt` takes its caller's dict as it is:
    a generator's pruned outputs, or a coherent state's nonzero terms.
    """

    __slots__ = ("_mode_count", "_terms")

    def __init__(self, mode_count: int, terms: Mapping[Occupation, complex]) -> None:
        if mode_count < 1:
            raise ValueError(f"mode_count must be positive, got {mode_count}")
        pruned: dict[Occupation, complex] = {}
        for occ, amp in terms.items():
            occ = _counts(occ)
            if len(occ) != mode_count:
                raise ValueError(
                    f"occupation {occ} has {len(occ)} modes, expected {mode_count}"
                )
            if any(n < 0 for n in occ):
                raise ValueError(f"occupation {occ} has a negative photon count")
            value = complex(amp)
            try:
                size = abs(value)
            except OverflowError:  # finite parts, but |value| exceeds a float
                size = math.inf
            if not size < math.inf:
                raise ValueError(f"amplitude {value} of {occ} is not finite in magnitude")
            if size >= PRUNE_THRESHOLD:
                pruned[occ] = value
        self._mode_count = mode_count
        self._terms = pruned

    @classmethod
    def _trusted(
        cls, mode_count: int, pairs: Iterable[tuple[Occupation, complex]]
    ) -> FockState:
        """Build a state from package-derived pairs without re-validating them.

        ``pairs`` yields (occupation, amplitude) pairs with distinct
        occupations: a dict's ``items()`` or a generator over another state's
        terms. The caller guarantees tuple occupations of length
        ``mode_count`` with non-negative ints and ``complex`` amplitudes. The
        terms are pruned in the single pass that builds the state's dict; a
        caller that prunes its own dict hands it to :meth:`_adopt` instead.
        """
        state = object.__new__(cls)
        state._mode_count = mode_count
        state._terms = {occ: amp for occ, amp in pairs if abs(amp) >= PRUNE_THRESHOLD}
        return state

    @classmethod
    def _adopt(cls, mode_count: int, terms: dict) -> FockState:
        """Own a trusted ``terms`` dict as it is: no check, no prune, no copy."""
        state = object.__new__(cls)
        state._mode_count, state._terms = mode_count, terms
        return state

    @property
    def mode_count(self) -> int:
        return self._mode_count

    @property
    def terms(self) -> Mapping[Occupation, complex]:
        """Read-only view of the stored (occupation, amplitude) pairs."""
        return MappingProxyType(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"FockState(mode_count={self._mode_count}, terms={len(self._terms)})"


def make_fock(mode_count: int, occupation: Iterable[int]) -> FockState:
    """Single-term basis state |n_1, ..., n_d> with amplitude 1."""
    occ = tuple(occupation)
    if len(occ) != mode_count:
        raise ValueError(
            f"occupation has {len(occ)} entries but mode_count is {mode_count}"
        )
    return FockState(mode_count, {occ: 1.0})


def is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``: a photon number or mode index."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_alpha(alpha: complex) -> complex:
    """``alpha`` as a complex; ValueError unless it and |alpha|^2 are finite."""
    value = complex(alpha)
    if not cmath.isfinite(value):
        raise ValueError(f"alpha must be finite, got {alpha}")
    try:
        abs(value) ** 2  # as make_coherent_truncated evaluates it
    except OverflowError:
        raise ValueError(f"|alpha|^2 must be finite, got alpha={alpha}") from None
    return value


def make_coherent_truncated(alpha: complex, cutoff: int) -> FockState:
    """Single-mode coherent state truncated at photon number ``cutoff``.

    Amplitudes follow the Poisson law exp(-|alpha|^2/2) * alpha^n / sqrt(n!).
    The Gaussian prefactor is kept exactly, so the stored amplitudes are the
    true coherent-state amplitudes and the truncated norm is below one. None
    is pruned: the terms stop at the first that rounds to 0, as all later
    ones do. ``alpha`` and |alpha|^2 must be finite. Both arguments are
    checked here, so the terms are handed to :meth:`FockState._adopt`.
    """
    if not is_int(cutoff) or cutoff < 0:
        raise ValueError(f"cutoff must be a non-negative int, got {cutoff!r}")
    alpha = check_alpha(alpha)
    amp = complex(math.exp(-0.5 * abs(alpha) ** 2))
    terms = {}
    for n in range(cutoff + 1):
        if not amp:
            break
        terms[(n,)] = amp
        amp = amp * alpha / math.sqrt(n + 1)
    return FockState._adopt(1, terms)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; occupations concatenate and amplitudes multiply."""
    pairs = (
        (occ_a + occ_b, amp_a * amp_b)
        for occ_a, amp_a in a.terms.items()
        for occ_b, amp_b in b.terms.items()
    )
    return FockState._trusted(a.mode_count + b.mode_count, pairs)


def norm_sq(state: FockState) -> float:
    """Sum of squared amplitude magnitudes over all stored terms."""
    return sum(abs(amp) ** 2 for amp in state.terms.values())


def amplitude(state: FockState, occupation: Iterable[int]) -> complex:
    """Stored amplitude of ``occupation``, or exactly zero when absent."""
    occ = _counts(occupation)
    if len(occ) != state.mode_count:
        raise ValueError(
            f"occupation has {len(occ)} entries but the state has "
            f"{state.mode_count} modes"
        )
    return state.terms.get(occ, 0j)


def state_rows(state: FockState) -> list[tuple[Occupation, float, float]]:
    """Serialize as (occupation, real, imag) rows in lexicographic order."""
    return [
        (occ, amp.real, amp.imag) for occ, amp in sorted(state.terms.items())
    ]
