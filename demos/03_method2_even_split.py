#!/usr/bin/env python3
"""Method 2: an evenly split N-photon Fock input, no postselection.

A single |N> is split over d modes by a chain of beam splitters (with phase
shifters undoing the reflection phases), producing the multinomial-weighted
superposition of all occupations. The same filter blocks as in method 1 then
annihilate every non-NOON component: because the total photon number is fixed,
the block that removes k-photon terms removes (N-k)-photon terms with them.
"""

from noongen import (
    MethodConfig,
    apply_fsf,
    run_method,
    split_evenly,
    state_rows,
)


def main():
    d, n = 2, 4
    print(f"evenly split |{n}> over {d} modes:")
    for occ, re, im in state_rows(split_evenly(n, d)):
        print(f"  {occ}: {complex(re, im):.6g}")

    print("\noccupations surviving after each filter block (d=2, N=4):")
    state = split_evenly(n, d)
    for k in (1, 2):
        for mode in range(d):
            state = apply_fsf(state, mode, k).state
        survivors = sorted(state.terms)
        print(f"  after block k={k}: {survivors}")
    print("block 1 removed occupations 1 and 3, block 2 removed occupation 2")

    print("\nfour modes, four photons:")
    report = run_method(MethodConfig(method=2, d=4, N=4))
    p1 = run_method(
        MethodConfig(method=1, d=4, N=4, alpha=1.0)
    ).generation_probability
    print(f"  generation probability: {report.generation_probability:.6e}")
    print(f"  residual norm:          {report.residual_norm:.3e} (no postselection needed)")
    print(f"  advantage over method 1 at |alpha|^2=1: "
          f"{report.generation_probability / p1:.3f}x")


if __name__ == "__main__":
    main()
