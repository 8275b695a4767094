"""Closed-form error curves for three analytically solvable models.

Covers a linear model trained on a rank-limited isotropic measure
(sample-wise double descent and its removal by the optimal ridge), a
rank-limited student kernel that either resolves the teacher or hits an
irreducible floor, both from ``general_linear_Eg``, and a depth-two relu
network kernel tested on spheres of different radii, from
``ntk_sphere_Eg`` on a spectrum computed once.  Each curve is one call
on its whole P grid.
"""

import numpy as np

from kernelshift.closedform import (dot_product_kernel_spectrum,
                                    general_linear_Eg, ntk_sphere_Eg,
                                    optimal_ridge)
from kernelshift.kernels import KernelSpec


def ridge_section():
    D, M_r, noise = 120, 40, 0.1
    beta = np.ones(D) / np.sqrt(D)
    lam_star = optimal_ridge(M_r, D, noise)
    print(f"linear model, D={D}, training support rank M_r={M_r}, "
          f"noise {noise}")
    print(f"optimal ridge lambda* = {lam_star:.6f}")
    print(f"{'P':>5} {'Eg, lambda=1e-4':>16} {'Eg, lambda*':>12}")
    P_grid = [5, 10, 20, 30, 40, 50, 80, 160, 320]
    small = general_linear_Eg(P_grid, D, M_r, D, beta, 1.0, 1.0, 1e-4,
                              noise=noise)
    best = general_linear_Eg(P_grid, D, M_r, D, beta, 1.0, 1.0, lam_star,
                             noise=noise)
    for P, s, b in zip(P_grid, small, best):
        tag = "  <- spike at P = M_r" if P == M_r else ""
        print(f"{P:>5} {s.Eg:>16.4f} {b.Eg:>12.4f}{tag}")


def expressivity_section():
    M, M_r = 20, 30
    beta = np.ones(M_r)
    print(f"\nstudent kernel of rank M={M}, teacher uses M_r={M_r} "
          f"directions")
    for M_s in (15, 30):
        (r,) = general_linear_Eg([4000], M, M_r, M_s, beta, 1.0, 1.0, 1e-2)
        print(f"  teacher support M_s={M_s}: Eg at P=4000 is "
              f"{r.Eg:.3e}, irreducible floor {r.irreducible:.3e}")


def ntk_section():
    D, depth, k_max = 10, 2, 30
    eta, degen = dot_product_kernel_spectrum(
        KernelSpec("ntk_relu", depth=depth), D, k_max)
    print(f"\nrelu network kernel on the sphere, D={D}, depth={depth}, "
          f"linear target")
    print(f"{'P':>5} {'Eg, test R=1.0':>15} {'Eg, test R=0.5':>15}")
    P_grid = [5, 10, 20, 40, 80, 160, 320]
    same, half = (ntk_sphere_Eg(P_grid, depth, eta, degen, [0.0, 1.0], 0.01,
                                noise=0.05, radius_test=rt)
                  for rt in (1.0, 0.5))
    for P, a, b in zip(P_grid, same, half):
        print(f"{P:>5} {a.Eg:>15.4f} {b.Eg:>15.4f}")


if __name__ == "__main__":
    ridge_section()
    expressivity_section()
    ntk_section()
