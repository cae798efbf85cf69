"""Quickstart: the adaptive equi-energy ladder on a correlated Gaussian.

Builds the strongly-correlated bivariate Gaussian benchmark, runs the
coupled four-chain sampler, and compares every level's sample moments
against the exact tempered law (temperature t rescales the covariance to
t * Sigma).  Also shows the per-level acceptance diagnostics that the
step outcomes carry.

Run from the repository root:

    python demos/quickstart_gaussian.py
"""

import numpy as np

from eesampler import GaussianTarget, TemperatureLadder, ladder_configs, run_sampler

SIGMA = np.array([[0.96, 2.44], [2.44, 7.04]])

target = GaussianTarget(SIGMA)
ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
# one local-move probability theta per adaptive level (level 0 never mixes)
configs = ladder_configs(ladder, (0.5, 0.5, 0.5), proposal_covariance=np.eye(2))

n = 50_000
print(f"running the equi-energy ladder for {n} iterations ...")
traj = run_sampler("ee", target, ladder, configs, n_iterations=n, seed=7)

print("\nlevel   t    mean(X1)  mean(X2)   var(X1) (exact)   var(X2) (exact)")
for level in range(ladder.n_levels):
    t = ladder.temperatures[level]
    xs = traj.states[level]
    print(
        f"  {level}   {t:4.0f}   {xs[:, 0].mean():+7.3f}  {xs[:, 1].mean():+7.3f}"
        f"    {xs[:, 0].var():6.2f} ({t * SIGMA[0, 0]:6.2f})"
        f"    {xs[:, 1].var():6.2f} ({t * SIGMA[1, 1]:6.2f})"
    )

print("\nper-level step diagnostics:")
for level in range(ladder.n_levels):
    line = (
        f"  level {level}: local acceptance "
        f"{traj.acceptance_rate(level, 'local'):.2f}"
    )
    if level > 0:
        line += (
            f", exchange fraction {traj.branch_fraction(level, 'exchange'):.2f}"
            f", exchange acceptance {traj.acceptance_rate(level, 'exchange'):.2f}"
        )
    print(line)

print("\nfor comparison, the limiting kernel of the coldest level")
print("(independence proposals from the exact t=2 law instead of the reservoir):")
single = run_sampler("ee_limit", target, ladder, configs, n, seed=7)
xs = single.states[0]
print(
    f"  limit-EE moments: var(X1)={xs[:, 0].var():.2f} (exact {SIGMA[0, 0]:.2f}), "
    f"var(X2)={xs[:, 1].var():.2f} (exact {SIGMA[1, 1]:.2f})"
)
