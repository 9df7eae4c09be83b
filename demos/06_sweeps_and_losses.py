#!/usr/bin/env python3
"""Probability sweeps and loss adjustment.

Reproduces the comparison tables behind the generation-probability plots:
4-photon probabilities versus mode number, and 4-mode probabilities versus
photon number, with a simulation cross-check column at every grid point. Ends
with a loss-adjusted comparison using finite detector and single-photon-source
efficiencies.
"""

from noongen import (
    LossModel,
    SweepSpec,
    closed_form_probability,
    loss_adjusted_probability,
    optimal_alpha_sq,
    resource_counts,
    run_sweep,
    sweep_to_csv,
)


def main():
    print("4-photon NOON states versus mode number (CSV):\n")
    rows = run_sweep(
        SweepSpec(methods=(1, 2, 3, 4), vary="d", fixed=4, values=tuple(range(2, 9)))
    )
    print(sweep_to_csv(rows))

    print("4-mode NOON states versus photon number (CSV):\n")
    rows = run_sweep(
        SweepSpec(methods=(1, 2, 3, 4), vary="N", fixed=4, values=tuple(range(2, 9)))
    )
    print(sweep_to_csv(rows))

    print("with eta_detector = eta_single_photon = 0.95 at d=4, N=4:\n")
    losses = LossModel(eta_detector=0.95, eta_single_photon=0.95)
    print(f"  {'method':>7} {'ideal':>12} {'with losses':>12} {'detectors':>10} {'singles':>8}")
    for method in (1, 2, 3, 4):
        alpha_sq = optimal_alpha_sq(4, 4) if method == 1 else None
        ideal = closed_form_probability(method, 4, 4, alpha_sq)
        counts = resource_counts(method, 4, 4)
        adjusted = loss_adjusted_probability(ideal, counts, losses)
        print(
            f"  {'M' + str(method):>7} {ideal:>12.4e} {adjusted:>12.4e} "
            f"{counts.spcd_detectors:>10} {counts.single_photon_inputs:>8}"
        )
    print("\nmethod 3 pays for its photon appetite twice: low ideal probability")
    print("and the most detectors to keep efficient")


if __name__ == "__main__":
    main()
