#!/usr/bin/env python3
"""Cross-validate the fixed point of the cutoff Duhamel map against the
integrating-factor time stepper on small band-limited data.

Prints the per-time relative L2 discrepancy and the observed contraction
ratios; both solvers discretize the same equation, so the discrepancy is
dominated by the trapezoid quadrature of the mild-form integral.
"""

import numpy as np

from gkdvlab.config import load_config
from gkdvlab.grid import Field, make_grid
from gkdvlab.solver import evolve_reference, picard_solve, reconstruct_solution
from gkdvlab.spacetime import centered_axis


def banded_bump(grid, amplitude, band):
    """Real data with a sharply truncated gaussian spectral envelope."""
    coeffs = amplitude * np.exp(-grid.xi**2) * (np.abs(grid.xi) <= band)
    return Field.from_spectrum(grid, coeffs)


def main():
    cfg = load_config(None)
    grid = make_grid(32.0, 512)
    phi = banded_bump(grid, amplitude=1.0, band=2.0)
    T = 1.0 / 16.0
    taxis = centered_axis(4.0, 2048)

    result = picard_solve(
        phi,
        T,
        tol=1e-11,
        max_iter=cfg["lwp"]["max_iter"],
        taxis=taxis,
        xi_band=8.0,
        eps=cfg["model"]["epsilon"],
    )
    print(f"picard: converged={result.converged} after {result.iterations} iterations")
    print("  distances:", " ".join(f"{d:.3e}" for d in result.distances))
    print("  ratios:   ", " ".join(f"{r:.3e}" for r in result.ratios))
    print(f"  discarded band mass: {result.discarded_band_mass:.2e}")

    u = reconstruct_solution(result)
    stride = 20
    traj = evolve_reference(
        phi, T, taxis.dt / stride, output_stride=stride, diag_stride=10**9, seed=None
    )
    j0 = int(np.argmin(np.abs(taxis.t)))
    print("t        rel_L2_error")
    for k in range(traj.u.taxis.n_samples):
        a = u.values[j0 + k]
        b = traj.u.values[k]
        err = np.sqrt(np.sum((a - b) ** 2) / np.sum(b**2))
        if k % 4 == 0 or k == traj.u.taxis.n_samples - 1:
            print(f"{traj.u.taxis.t[k]:.5f}  {err:.3e}")


if __name__ == "__main__":
    main()
