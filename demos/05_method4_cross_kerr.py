#!/usr/bin/env python3
"""Method 4: cross-Kerr generators, the nonlinear route.

A chi = pi cross-Kerr medium inside nested 50:50 interferometers acts as a
photon-controlled swap: the single heralding photon takes both interferometer
arms at once, and detecting it at the bright port projects the Fock input into
(|N,0> + |0,N>)/2 regardless of N. Vacuum passes through with amplitude one,
which is exactly what lets the cascade keep its heralds deterministic on the
empty branches. The d-mode probability is 1/d, far above the linear methods.
"""

from noongen import (
    MethodConfig,
    generator_kerr,
    make_fock,
    run_method,
    state_rows,
)


def main():
    print("single generator outputs:")
    for n in (1, 2, 4, 7):
        outcome = generator_kerr(make_fock(1, (n,)), 0)
        rows = ", ".join(
            f"{occ}: {complex(re, im):.3g}" for occ, re, im in state_rows(outcome.state)
        )
        print(f"  N={n}: {rows}   (herald prob {outcome.herald_probability:.3f})")
    outcome = generator_kerr(make_fock(1, (0,)), 0)
    print(f"  vacuum: {dict(outcome.state.terms)}   (photon always exits at the detector)")

    print("\ncascades:")
    print(f"  {'d':>2} {'N':>2} {'probability':>12}")
    for d in (2, 4, 8):
        report = run_method(MethodConfig(method=4, d=d, N=4))
        print(f"  {d:>2} {4:>2} {report.generation_probability:>12.10f}")
    print("\nexactly 1/d every time; the price is a pi cross-Kerr phase,")
    print("far beyond present-day nonlinearities")


if __name__ == "__main__":
    main()
