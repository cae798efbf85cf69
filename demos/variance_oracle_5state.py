"""The finite-state variance oracle, end to end.

On a five-state target with two temperature levels this script builds
the explicit transition matrices of the base kernel and both limiting
kernels, verifies their stationary laws by direct linear algebra, solves
the Poisson equation, and compares the exact asymptotic variance of the
limiting equi-energy kernel with a batch-means estimate from one long
simulated trajectory.

Run from the repository root:

    python demos/variance_oracle_5state.py
"""

import numpy as np

from eesampler import (
    FiniteChainModel,
    FiniteTarget,
    TemperatureLadder,
    asymptotic_variance,
    batch_means_variance,
    finite_kernel_matrix,
    metropolis_matrix,
    neighbor_proposal,
    poisson_solve,
    simulate_matrix_chain,
)

energies = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
temps = (4.0, 1.0)
target = FiniteTarget(energies)
ladder = TemperatureLadder(temps)
bases = [metropolis_matrix(neighbor_proposal(5), -energies / t) for t in temps]

print("stationary residuals of the explicit kernel matrices (level 1, theta=0.5):")
for kind in ("base", "ee_limit", "ir_limit"):
    m = finite_kernel_matrix(kind, target, ladder, 1, bases[1], 0.5)
    pi = target.tempered_probabilities(1.0)
    print(f"  {kind:9s} ||pi'M - pi'||_inf = {np.abs(pi @ m - pi).max():.2e}")

k = finite_kernel_matrix("ee_limit", target, ladder, 1, bases[1], 0.5)
model = FiniteChainModel(k, target.tempered_probabilities(1.0))
f = energies.copy()  # estimate the mean energy at the cold level

u = poisson_solve(model, f - model.stationary @ f)
print(f"\nPoisson solution U for the centered energy: {np.round(u, 4)}")
print(f"identity residual ||U - MU - f_c||_inf = "
      f"{np.abs(u - k @ u - (f - model.stationary @ f)).max():.2e}")

exact = asymptotic_variance(model, f)
print(f"\nexact asymptotic variance of the ergodic mean-energy estimate: {exact:.4f}")

n = 1_000_000
chain = simulate_matrix_chain(k, n, seed=1)
estimate, se = batch_means_variance(f[chain], 500)
print(f"batch means over one {n}-step trajectory: {estimate:.4f} +- {se:.4f}")
print(f"difference: {abs(estimate - exact) / se:.2f} standard errors")
