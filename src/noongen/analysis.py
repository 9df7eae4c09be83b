"""Closed-form analysis of the four generation schemes.

Each method's generation probability has one closed form, evaluated in log
space (via lgamma) so that large d and N do not overflow. The component
magnitude and method 3's generator magnitudes are read off the same
logarithms; method 4 is returned exactly as 1/d. One
comparison, :func:`compare_grid`, pairs every closed form with a direct
simulation; sweeps and verification grids are both built on it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import lgamma, log
from typing import Sequence

from . import pipelines
from .fock import Record, is_int
from .pipelines import check_domain

class ResourceCount(
    Record,
    namedtuple(
        "ResourceCount",
        "beam_splitters phase_shifters spcd_detectors fock_inputs"
        " single_photon_inputs odd_n_variant",
        defaults=(False,),
    ),
):
    """Hardware tallies for one (method, d, N) configuration.

    ``odd_n_variant`` marks the odd-N flavor of method 3, which doubles the
    splitter and phase-shifter counts relative to the even-N flavor.
    """

    __slots__ = ()


class LossModel(Record, namedtuple("LossModel", "eta_detector eta_single_photon")):
    """Scalar component inefficiencies: detectors and single-photon sources."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        for name, value in (
            ("eta_detector", self.eta_detector),
            ("eta_single_photon", self.eta_single_photon),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def check_alpha_sq(alpha_sq: float | None) -> None:
    """Raise ValueError unless ``alpha_sq`` is None or finite and non-negative."""
    if alpha_sq is not None and not 0.0 <= alpha_sq < math.inf:
        raise ValueError(f"alpha_sq must be finite and non-negative, got {alpha_sq}")


def optimal_alpha_sq(d: int, n_photons: int) -> float:
    """Coherent intensity N/d that maximizes the method-1 probability.

    At this value the mean total photon number of the d coherent inputs
    equals N. Raises ValueError outside method 1's domain.
    """
    check_domain(1, d, n_photons)
    return n_photons / d


def _log_probability(
    method: int, d: int, n_photons: int, alpha_sq: float | None
) -> float:
    """Natural log of the generation probability, -inf where it is exactly 0.

    The one closed form of each method, factorials through lgamma. Raises
    ValueError outside the domain, on a bad ``alpha_sq``, and on any
    ``alpha_sq`` given to a method other than 1; None there means the
    optimal N/d.
    """
    check_domain(method, d, n_photons)
    if method != 1 and alpha_sq is not None:
        raise ValueError(f"alpha applies to method 1 only, got method {method}")
    n = n_photons
    m = n // 2
    if method == 1:
        if alpha_sq is None:
            alpha_sq = n / d
        check_alpha_sq(alpha_sq)
        if alpha_sq == 0.0:
            return -math.inf
        return (
            log(d)
            - d * alpha_sq
            + n * log(alpha_sq)
            + lgamma(n)
            - (n + d) * log(m + 1)
            - log(n)
            - 2.0 * lgamma(n - m)
            - 2.0 * lgamma(m + 1)
        )
    if method == 2:
        return (
            2.0 * lgamma(n)
            - (n - 1) * log(d)
            - (n + d) * log(m + 1)
            - 2.0 * lgamma(n - m)
            - 2.0 * lgamma(m + 1)
        )
    if method == 3:
        return -(n - 1) * log(d) + (d - 1) * _log_generator_factor(n)
    return -log(d)


def _log_generator_factor(n: int) -> float:
    """log(N!/(2^N N^N)): the factor each method-3 generator puts on p."""
    return lgamma(n + 1) - n * log(2.0) - n * log(n)


def closed_form_probability(
    method: int, d: int, n_photons: int, alpha_sq: float | None = None
) -> float:
    """Generation probability of a d-mode N-photon NOON state.

    ``alpha_sq`` applies to method 1 only; omitted, the optimal value N/d is
    used. Evaluated in log space, so large-N sweeps stay finite; method 4's
    1/d is exact.
    """
    log_p = _log_probability(method, d, n_photons, alpha_sq)
    return 1.0 / d if method == 4 else math.exp(log_p)


def closed_form_component_magnitude(
    method: int, d: int, n_photons: int, alpha_sq: float | None = None
) -> float:
    """Magnitude sqrt(p/d) of each NOON component amplitude.

    Read off the logarithm of :func:`closed_form_probability`'s p, so it
    stays a normal float where p itself underflows.
    """
    log_p = _log_probability(method, d, n_photons, alpha_sq)
    return 1.0 / d if method == 4 else math.exp(0.5 * (log_p - log(d)))


def generator_magnitudes(n_photons: int) -> tuple[float, float]:
    """Magnitudes of the method-3 generator coefficients.

    Returns (|splitting coefficient|, |pass-through coefficient|): the factor
    attached to each branch when the generator splits an |N> input into a
    two-mode NOON pair, and the factor when a vacuum input consumes the
    internal |N>. Identical for the even- and odd-N generator flavors. The
    pass-through squared is the factor each generator puts on p.
    """
    if not is_int(n_photons) or n_photons < 1:
        raise ValueError(f"N must be an int of at least 1, got {n_photons!r}")
    log_passthrough = 0.5 * _log_generator_factor(n_photons)
    split = math.exp(log_passthrough - 0.5 * n_photons * log(2.0))
    return split, math.exp(log_passthrough)


def asymptotic_ratio(n_photons: int) -> float:
    """Probability ratio of method 2 over optimal method 1: (N-1)! e^N / N^(N-1).

    Approaches sqrt(2*pi*N) from above as N grows.
    """
    if not is_int(n_photons) or n_photons < 2:
        raise ValueError(f"N must be an int of at least 2, got {n_photons!r}")
    n = n_photons
    return math.exp(lgamma(n) + n - (n - 1) * log(n))


def resource_counts(method: int, d: int, n_photons: int) -> ResourceCount:
    """Component tallies for one configuration."""
    check_domain(method, d, n_photons)
    m = n_photons // 2
    if method == 1:
        return ResourceCount(d * m, 0, d * m, 0, d * m)
    if method == 2:
        return ResourceCount(d * m + d - 1, d, d * m, 1, d * m)
    if method == 3:
        odd = n_photons % 2 == 1
        sub_blocks = (d - 1) * (n_photons if odd else m)
        return ResourceCount(
            3 * sub_blocks, sub_blocks, n_photons * (d - 1), d, 0, odd_n_variant=odd
        )
    return ResourceCount(4 * (d - 1), d - 1, d - 1, 1, d - 1)


def loss_adjusted_probability(
    probability: float, counts: ResourceCount, losses: LossModel
) -> float:
    """Scale an ideal probability by detector and single-photon efficiencies."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    return (
        probability
        * losses.eta_detector**counts.spcd_detectors
        * losses.eta_single_photon**counts.single_photon_inputs
    )


def simulated_probability(
    method: int, d: int, n_photons: int, alpha_sq: float | None = None
) -> float:
    """Generation probability from a full circuit simulation."""
    alpha = None if alpha_sq is None else math.sqrt(alpha_sq)
    cfg = pipelines.MethodConfig(method=method, d=d, N=n_photons, alpha=alpha)
    return pipelines.run_method(cfg).generation_probability


class SweepSpec(
    Record,
    namedtuple("SweepSpec", "methods vary fixed values alpha_sq", defaults=(None,)),
):
    """One sweep request: vary d at fixed N, or vary N at fixed d.

    ``methods`` and ``values`` are tuples of ints, ``fixed`` is an int and
    ``vary`` is "d" or "N"; an int here is never a bool. ``alpha_sq`` fixes
    the method-1 intensity; None means the optimal N/d at every grid point.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.vary not in ("d", "N"):
            raise ValueError(f"vary must be 'd' or 'N', got {self.vary!r}")
        if not self.methods:
            raise ValueError("at least one method is required")
        for method in self.methods:
            check_domain(method)
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        for value in self.values:
            if not is_int(value):
                raise ValueError(f"values must be ints, got {value!r}")
        if not is_int(self.fixed):
            raise ValueError(f"fixed must be an int, got {self.fixed!r}")
        minimum = 2 if self.vary == "d" else 1
        if min(self.values) < minimum:
            raise ValueError(
                f"swept {self.vary} values must be at least {minimum}"
            )
        if self.fixed < (1 if self.vary == "d" else 2):
            raise ValueError(f"fixed value {self.fixed} out of range")
        check_alpha_sq(self.alpha_sq)


class SweepRow(
    Record,
    namedtuple("SweepRow", "method d N alpha_sq p_closed p_sim rel_err"),
):
    """One grid point: its closed form, its simulation and their relative error."""

    __slots__ = ()


# The relative error a simulated point may show against its closed form. The
# largest is 7.2e-14 on the M1/M2 grid d 2-32 x N 1-40, 1.9e-14 on M3 and 0 on
# M4 at d 2-64, N 1-12 (M3 outside the pruning floor); a gate above 1 would
# pass p = 0 against a positive closed form.
_REL_TOLERANCE = 1e-9

# The largest d*N summed over a grid's points that compare_grid simulates. At
# the budget the costliest point, M1 (2, 524288), takes 2.5 s and 180 MB (one
# core of a 2-core VM); the M1/M2 grid above sums to 864 280.
_GRID_BUDGET = 2**20


def compare_grid(
    methods: tuple[int, ...],
    d_values: tuple[int, ...],
    n_values: tuple[int, ...],
    alpha_sq: float | None = None,
) -> list[SweepRow]:
    """Pair closed form and simulation over a grid in sorted (method, d, N) order.

    Methods 3 and 4 emit only power-of-two d points; other d >= 2 are
    skipped rather than reported as errors, mirroring how the comparison plots
    are drawn. A grid left with no point at all raises ValueError, as does any
    point outside the domain. ``alpha_sq`` fixes the method-1 intensity; None
    means the optimal N/d at every point. Every point is simulated, so a
    point the simulation rejects raises its ValueError, as does a grid over
    :data:`_GRID_BUDGET` before any point is simulated.
    """
    n_values = sorted(set(n_values))
    grid = [
        (method, d)
        for method in sorted(set(methods))
        for d in sorted(set(d_values))
        if method in (1, 2) or d < 2 or not d & (d - 1)
    ]
    if sum(d for _, d in grid) * sum(n_values) > _GRID_BUDGET:
        raise ValueError(
            f"the grid's summed d*N exceeds the simulation budget of {_GRID_BUDGET}"
        )
    rows: list[SweepRow] = []
    for method, d in grid:
        for n in n_values:
            point_alpha_sq = None
            if method == 1:
                point_alpha_sq = float(alpha_sq) if alpha_sq is not None else n / d
            p_closed = closed_form_probability(method, d, n, point_alpha_sq)
            p_sim = simulated_probability(method, d, n, point_alpha_sq)
            error = abs(p_sim - p_closed)
            rel_err = error / p_closed if p_closed > 0.0 else error
            row = SweepRow(method, d, n, point_alpha_sq, p_closed, p_sim, rel_err)
            rows.append(row)
    if not rows:
        raise ValueError(
            "the grid has no point: methods 3 and 4 need a power-of-two d"
        )
    return rows


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate a sweep: :func:`compare_grid` with the fixed value as one axis."""
    fixed = (spec.fixed,)
    if spec.vary == "d":
        return compare_grid(spec.methods, spec.values, fixed, spec.alpha_sq)
    return compare_grid(spec.methods, fixed, spec.values, spec.alpha_sq)


def format_float(value: float) -> str:
    """Deterministic 12-significant-digit rendering, scientific below 1e-4."""
    if value != value:
        return "nan"
    if value == 0.0:
        return "0"
    if abs(value) < 1e-4:
        return f"{value:.11e}"
    return f"{value:.12g}"


def json_float(value: float) -> float:
    """Round to 12 significant digits for stable JSON output."""
    return float(f"{value:.12g}")


def _csv_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _json_rounded(value):
    if isinstance(value, float):
        return json_float(value)
    if isinstance(value, (list, tuple)):
        return [_json_rounded(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_rounded(item) for key, item in value.items()}
    return value


def to_csv(columns: Sequence[str], records: list[dict]) -> str:
    """Render records as CSV: a header of ``columns``, then one line per record.

    None becomes an empty cell, booleans are lower case and floats go through
    :func:`format_float`.
    """
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join(_csv_text(record[name]) for name in columns))
    return "\n".join(lines) + "\n"


def to_json(payload, sort_keys: bool = False) -> str:
    """Render as indented JSON with every float rounded by :func:`json_float`.

    ``json`` is imported here, so CSV output and ``verify`` never load it.
    """
    import json

    return json.dumps(_json_rounded(payload), indent=2, sort_keys=sort_keys) + "\n"


def _sweep_records(rows: list[SweepRow]) -> list[dict]:
    return [{**row._asdict(), "method": f"M{row.method}"} for row in rows]


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV under a header of :class:`SweepRow`'s fields."""
    return to_csv(SweepRow._fields, _sweep_records(rows))


def sweep_to_json(rows: list[SweepRow]) -> str:
    return to_json(_sweep_records(rows))
