"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n ...: PASS`` line on success (visible with
``pytest -s`` or ``pytest -v -rA``); a failing criterion surfaces as a normal
pytest failure. Run the whole gate with::

    pytest tests/test_acceptance.py -s
"""

import json
import math
import time
from math import factorial

import numpy as np
import pytest

from conftest import global_phase_spread, two_photon_herald
from noongen import (
    BeamSplitter,
    CrossKerr,
    FockState,
    MethodConfig,
    PhaseShifter,
    analysis,
    apply_element,
    apply_fsf,
    bs_matrix_element,
    closed_form_probability,
    extract_noon,
    generator_even,
    generator_odd,
    make_fock,
    optimal_alpha_sq,
    run_method,
    split_evenly,
    two_photon_projector,
)
from noongen.cli import main as cli_main


def _announce(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_acceptance_1_headline_probabilities():
    cases = [
        (MethodConfig(method=1, d=4, N=4, alpha=1.0), 4.2e-6, 0.03),
        (MethodConfig(method=2, d=4, N=4), 2.1e-5, 0.03),
        (MethodConfig(method=3, d=4, N=4), 3.1e-9, 0.04),
    ]
    for cfg, target, tolerance in cases:
        start = time.perf_counter()
        probability = run_method(cfg).generation_probability
        elapsed = time.perf_counter() - start
        assert abs(probability - target) / target < tolerance, (
            f"method {cfg.method}: {probability} vs {target}"
        )
        assert elapsed < 10.0, f"method {cfg.method} took {elapsed:.1f}s"
    start = time.perf_counter()
    p4 = run_method(MethodConfig(method=4, d=4, N=4)).generation_probability
    elapsed = time.perf_counter() - start
    assert abs(p4 - 0.25) < 1e-12
    assert elapsed < 10.0
    _announce(1, "headline probabilities by full simulation")


def test_acceptance_2_closed_form_equivalence_grid():
    start = time.perf_counter()
    checked = 0
    for method in (1, 2, 3, 4):
        for d in (2, 4):
            for n in (2, 3, 4, 5, 6):
                alpha_sq = optimal_alpha_sq(d, n) if method == 1 else None
                p_closed = closed_form_probability(method, d, n, alpha_sq)
                p_sim = analysis.simulated_probability(method, d, n, alpha_sq)
                rel_err = abs(p_sim - p_closed) / p_closed
                assert rel_err < 1e-9, (
                    f"M{method} d={d} N={n}: rel_err={rel_err:.2e}"
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 40  # method 3 covers both even and odd N
    assert elapsed < 120.0, f"grid took {elapsed:.1f}s"
    _announce(2, f"simulation/closed-form grid, {checked} points in {elapsed:.1f}s")


def test_acceptance_3_method_ratio():
    p1 = run_method(
        MethodConfig(method=1, d=4, N=4, alpha=1.0)
    ).generation_probability
    p2 = run_method(MethodConfig(method=2, d=4, N=4)).generation_probability
    assert abs(p2 / p1 - 5.0) / 5.0 < 0.05
    _announce(3, "method-2 over method-1 ratio of 5 at d=N=4")


def test_acceptance_4_asymptotic_ratio():
    scaled20 = analysis.asymptotic_ratio(20) / math.sqrt(2 * math.pi * 20)
    assert 0.99 <= scaled20 <= 1.01
    scaled = [
        analysis.asymptotic_ratio(n) / math.sqrt(2 * math.pi * n)
        for n in range(4, 41)
    ]
    assert all(value > 1.0 for value in scaled)
    assert all(a > b for a, b in zip(scaled, scaled[1:]))
    _announce(4, "large-N efficiency ratio approaches sqrt(2 pi N) from above")


def test_acceptance_5_probability_ordering():
    n = 4
    p1 = {d: closed_form_probability(1, d, n, optimal_alpha_sq(d, n)) for d in range(2, 9)}
    p2 = {d: closed_form_probability(2, d, n) for d in range(2, 9)}
    p3 = {d: closed_form_probability(3, d, n) for d in (2, 4, 8)}
    p4 = {d: closed_form_probability(4, d, n) for d in (2, 4, 8)}
    for d in (4, 8):
        assert p4[d] > p2[d] > p1[d] > p3[d]
    for d in range(3, 9):
        assert p2[d] > p1[d]
    for series in (p1, p2, p3, p4):
        ds = sorted(series)
        assert all(series[a] > series[b] for a, b in zip(ds, ds[1:]))
    _announce(5, "probability ordering and monotonicity in d at N=4")


def test_acceptance_6_filter_property_suite():
    rng = np.random.default_rng(60312)
    for _ in range(100):
        coeffs = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
        state = FockState(1, {(n,): coeffs[n] for n in range(9)})
        for k in (1, 2, 3, 4):
            theta = math.atan(1.0 / math.sqrt(k))
            filtered = apply_fsf(state, 0, k).state
            assert abs(filtered.terms.get((k,), 0j)) < 1e-12
            for n in range(9):
                if n == k:
                    continue
                law = math.cos(theta) ** (n + 1) * (1 - n * math.tan(theta) ** 2)
                assert abs(filtered.terms.get((n,), 0j) - coeffs[n] * law) < 1e-12
    _announce(6, "filter nulling and amplitude law on 100 random inputs")


def test_acceptance_7_structural_invariants():
    # beam-splitter sector unitarity
    rng = np.random.default_rng(70707)
    for theta in rng.uniform(0.0, 2.0 * math.pi, 20):
        for m in range(9):
            for n in range(9 - m):
                total = sum(
                    abs(bs_matrix_element(m, n, p, m + n - p, theta)) ** 2
                    for p in range(m + n + 1)
                )
                assert abs(total - 1.0) < 1e-12

    # photon-number conservation for every element kind
    state = FockState(
        4, {(2, 1, 0, 1): 0.5, (0, 3, 1, 0): 0.5j, (1, 1, 1, 1): -0.5}
    )
    for element in (
        BeamSplitter(0, 3, 0.83),
        PhaseShifter(2, 1.1),
        CrossKerr(1, 2, 2.2),
    ):
        out = apply_element(state, element)
        assert {sum(occ) for occ in out.terms} <= {sum(occ) for occ in state.terms}

    # method-2 block schedule: block k annihilates k and N-k occupations
    for d, n in ((2, 4), (4, 5)):
        work = split_evenly(n, d)
        for k in range(1, n // 2 + 1):
            for mode in range(d):
                work = apply_fsf(work, mode, k).state
            for occ in work.terms:
                assert k not in occ and (n - k) not in occ

    # method-1 N-photon sector holds nothing but the NOON components
    report = run_method(MethodConfig(method=1, d=4, N=4, alpha=1.0))
    assert report.residual_norm < 1e-12

    # two-mode generator sign rules over N mod 4
    expected_sign = {2: 1.0, 3: 1.0, 4: -1.0, 5: -1.0}
    for n, sign in expected_sign.items():
        generator = generator_odd if n % 2 else generator_even
        outcome = generator(make_fock(1, (n,)), 0, n)
        pattern = extract_noon(outcome.state, n).sign_pattern
        assert pattern[0] == pytest.approx(1.0 + 0j, abs=1e-10)
        assert pattern[1] == pytest.approx(sign + 0j, abs=1e-10)
    # the same rules through whole method-3 cascades whose components lie far
    # below the report's 1e-10 tolerance (about 1e-12 and 3e-13): every generator
    # gives its fresh path the opposite sign here, so the paths alternate
    for d, n in ((2, 24), (8, 5)):
        pattern = run_method(MethodConfig(method=3, d=d, N=n)).sign_pattern
        assert pattern == pytest.approx((1, -1) * (d // 2), abs=1e-10)
    _announce(7, "unitarity, conservation, filtration schedule, sign rules")


def test_acceptance_8_route_equivalence():
    rng = np.random.default_rng(80808)
    tap_patterns = [(2, 0), (0, 2), (1, 1), (0, 0), (1, 0), (0, 1), (2, 1)]
    for _ in range(50):
        terms = {}
        for _ in range(rng.integers(2, 8)):
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
    _announce(8, "coincidence circuit equals tap projector up to one constant")


def test_acceptance_9_cli_contract(capsys, monkeypatch):
    code = cli_main(["verify"])
    first = capsys.readouterr().out
    assert code == 0

    code = cli_main(["verify"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second  # byte-identical repeated runs

    true_fn = analysis.closed_form_probability
    for method in (1, 2, 3, 4):

        def corrupted(m, d, n, alpha_sq=None, _target=method):
            value = true_fn(m, d, n, alpha_sq)
            return value * (1.0 + 1e-6) if m == _target else value

        monkeypatch.setattr(analysis, "closed_form_probability", corrupted)
        code = cli_main(["verify"])
        capsys.readouterr()
        assert code == 2, f"corrupting method {method} constants must exit 2"
    monkeypatch.setattr(analysis, "closed_form_probability", true_fn)
    _announce(9, "verify grid passes, detects 1e-6 corruption, deterministic")
