"""Adaptive tempered MCMC (equi-energy and importance resampling) with
limiting-kernel comparators and exact finite-state variance oracles."""

from .analysis import (
    FiniteChainModel,
    MomentEstimand,
    MSETable,
    ReducibleChainError,
    TableEstimand,
    VarianceReport,
    asymptotic_variance,
    batch_means_variance,
    ee_h_function,
    ee_limit_clt_variance,
    ee_pair_scaled_sums,
    gamma_covariance,
    mse_harness,
    poisson_solve,
    replication_seed,
    simulate_matrix_chain,
    stationary_distribution,
)
from .kernels import (
    KappaTooLargeError,
    KernelConfig,
    acceptance_matrix,
    ee_limit_matrix,
    finite_kernel_matrix,
    metropolis_matrix,
    neighbor_proposal,
    theta_lower_bound,
)
from .ladder import Trajectory, ladder_configs, run_sampler
from .reservoir import NonFiniteWeightError
from .targets import FiniteTarget, GaussianTarget, TemperatureLadder

__version__ = "0.1.0"
