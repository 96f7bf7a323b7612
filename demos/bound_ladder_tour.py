#!/usr/bin/env python3
"""Tour of the bound sector: the ladder of decay rates of a double well.

Bound levels of the two-layer structure are counted by Sturm's
oscillation theorem, bracketed one by one and refined to decay rates
kappa (the eigenvalue is -kappa^2).  Each is also shown as the root chi
in (0, rho) of the paper's compact equation tan(chi) = y(chi).  An
independent direct integration of the Schrodinger equation confirms the
ladder.
"""

import numpy as np

from bilayer1d import (
    DoubleLayerSpec,
    build_chi_problem,
    find_roots,
    scattering_wavefunction,
    verify_ladder,
    Wavenumber,
)
from bilayer1d.oracle import integrate_bound


def main():
    # two attractive layers: 0.3 eV x 2.1 nm and 0.5 eV x 12 nm, 20 nm apart
    spec = DoubleLayerSpec.from_ev(-0.3, 2.1, -0.5, 12.0, 20.0)
    print("structure:", spec)

    problem = build_chi_problem(spec)
    print(f"reference layer (branch): {problem.branch}")
    print(f"chi interval: (0, {problem.rho:.4f})")

    ladder = find_roots(problem)
    print(f"\n{ladder.chis.size} bound levels (kappa in 1/nm, "
          "energy = -kappa^2 / 2.62464 eV):")
    reference = np.sort(np.asarray(integrate_bound(spec)))
    print("  level    chi        kappa      energy [eV]   direct-integration gap")
    for n, (chi, kappa) in enumerate(zip(ladder.chis, ladder.kappas), start=1):
        gap = abs(kappa - reference[n - 1])
        print(
            f"  {n:3d}   {chi:9.5f}  {kappa:9.6f}   {-kappa**2 / 2.62464:9.5f}"
            f"      {gap:.2e}"
        )

    report = verify_ladder(spec, ladder)
    print(f"\nladder verified: {bool(report)}; "
          f"max residual {max(abs(r) for r in report.residuals):.2e}; "
          f"missed roots: {len(report.missed)}")

    # sketch the most deeply bound eigenfunction
    kappa = ladder.kappas[-1]
    wave = scattering_wavefunction(spec, Wavenumber.bound(kappa))
    xs = np.linspace(-3.0, spec.extent + 3.0, 61)
    values = np.abs(wave(xs))
    top = values.max()
    print(f"\n|psi(x)| of the deepest level (kappa = {kappa:.4f} 1/nm):")
    for x, v in zip(xs[::4], values[::4]):
        print(f"  x = {x:7.2f} nm  {'*' * int(round(38 * v / top))}")


if __name__ == "__main__":
    main()
