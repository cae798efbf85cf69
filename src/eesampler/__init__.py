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
    Variates,
    acceptance_matrix,
    ee_adaptive_step,
    ee_limit_matrix,
    finite_kernel_matrix,
    ir_adaptive_step,
    limit_ee_step,
    limit_ir_step,
    metropolis_matrix,
    neighbor_proposal,
    rwm_step,
    theta_lower_bound,
)
from .ladder import (
    Trajectory,
    init_ladder_state,
    ladder_configs,
    ladder_step,
    level_rng,
    level_variates,
    run_ladder,
    run_sampler,
    run_single,
)
from .reservoir import EmptyReservoirError, NonFiniteWeightError, Reservoir
from .targets import FiniteTarget, GaussianTarget, TemperatureLadder

__version__ = "0.1.0"
