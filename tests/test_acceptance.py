"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The first criterion
replays the full five-sampler replication experiment and takes a few
minutes; everything else runs in seconds to a minute.
"""

import os

import numpy as np
import pytest

from eesampler import (
    FiniteChainModel,
    FiniteTarget,
    GaussianTarget,
    MomentEstimand,
    TemperatureLadder,
    asymptotic_variance,
    batch_means_variance,
    ee_limit_clt_variance,
    ee_limit_matrix,
    ee_pair_scaled_sums,
    finite_kernel_matrix,
    ladder_configs,
    metropolis_matrix,
    mse_harness,
    neighbor_proposal,
    poisson_solve,
    simulate_matrix_chain,
)
from eesampler.ladder import run_ladder

SIGMA = np.array([[0.96, 2.44], [2.44, 7.04]])
JOBS = min(2, os.cpu_count() or 1)


def _report(name, detail, status="PASS"):
    print(f"\nACCEPTANCE {status} {name}: {detail}")


# the bundled 5-state two-temperature instance (demos/configs/finite_5state.yaml)
FIVE_STATE_ENERGIES = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
FIVE_STATE_TEMPS = (4.0, 1.0)

# the bundled slow-mixing shared-kernel instance (demos/configs/oracle_5state.yaml)
WELL_ENERGIES = np.array([0.0, 2.0, 4.0, 2.0, 0.0])
WELL_MOVE_PROB = 0.6
WELL_F = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
WELL_THETA = 0.5


def five_state_instance():
    target = FiniteTarget(FIVE_STATE_ENERGIES)
    ladder = TemperatureLadder(FIVE_STATE_TEMPS)
    bases = [
        metropolis_matrix(neighbor_proposal(5), -FIVE_STATE_ENERGIES / t)
        for t in FIVE_STATE_TEMPS
    ]
    return target, ladder, bases


def well_instance():
    p = metropolis_matrix(neighbor_proposal(5, WELL_MOVE_PROB), -WELL_ENERGIES)
    pi = np.exp(-WELL_ENERGIES)
    pi /= pi.sum()
    model0 = FiniteChainModel(p, pi)
    limit = FiniteChainModel(ee_limit_matrix(p, pi, np.zeros(5), WELL_THETA), pi)
    return model0, limit


def test_criterion_1_table_reproduction():
    """Five-sampler MSE experiment reproduces the reported pattern."""
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    configs = ladder_configs(ladder, (0.5, 0.5, 0.5), proposal_covariance=np.eye(2))
    estimands = [
        MomentEstimand("E[X1]", 0.0, component=0, power=1),
        MomentEstimand("E[X2]", 0.0, component=1, power=1),
        MomentEstimand("E[X1^2]", float(SIGMA[0, 0]), component=0, power=2),
        MomentEstimand("E[X2^2]", float(SIGMA[1, 1]), component=1, power=2),
    ]
    kinds = ("rwm", "ir", "ir_limit", "ee", "ee_limit")
    table = mse_harness(
        kinds, target, ladder, configs, estimands, replications=100, iterations=10_000,
        master_seed=20100127, burn_in=0, jobs=JOBS,
    )
    row = {k: i for i, k in enumerate(kinds)}
    # the whole table first, so that a run outside the bands shows what it read
    _report("criterion 1 (table reproduction)", "".join(
        f"\n  {kind}: MSE {table.mse[i].tolist()}, ratio {table.ratios[i].tolist()}"
        for i, kind in enumerate(kinds)), status="TABLE")
    rwm_mse_x1 = table.mse[row["rwm"], 0]
    assert 0.003 <= rwm_mse_x1 <= 0.03
    assert table.ratios[row["ir_limit"], 0] >= 10.0
    assert table.ratios[row["ee_limit"], 0] >= 8.0
    for j in (0, 1):  # first moments
        assert 0.5 <= table.ratios[row["ir"], j] <= 2.5
    for j in range(4):
        assert 1.0 <= table.ratios[row["ee"], j] <= 4.0
    _report(
        "criterion 1 (table reproduction)",
        f"RWM MSE(E[X1])={rwm_mse_x1:.4f}, "
        f"limit-IR ratio={table.ratios[row['ir_limit'], 0]:.1f}, "
        f"limit-EE ratio={table.ratios[row['ee_limit'], 0]:.1f}, "
        f"IR ratios={table.ratios[row['ir'], :2].round(2).tolist()}, "
        f"EE ratios={table.ratios[row['ee']].round(2).tolist()}",
    )


def test_criterion_2_stationarity_oracle():
    """Explicit kernel matrices hold their tempered stationary vector to 1e-12."""
    target, ladder, bases = five_state_instance()
    worst = 0.0
    for kind, level in (("base", 1), ("ee_limit", 1), ("ir_limit", 1)):
        m = finite_kernel_matrix(kind, target, ladder, level, bases[level], 0.5)
        pi = target.tempered_probabilities(ladder.temperatures[level])
        worst = max(worst, float(np.abs(pi @ m - pi).max()))
    assert worst <= 1e-12
    _report("criterion 2 (stationarity oracle)", f"max residual {worst:.2e} <= 1e-12")


def test_criterion_3_poisson_suite():
    """Residual <= 1e-10 and series agreement <= 1e-8 on 50 random chains."""
    rng = np.random.default_rng(33)
    worst_res, worst_series = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        m = rng.random((n, n)) + 0.02
        m /= m.sum(axis=1, keepdims=True)
        model = FiniteChainModel(m)
        f = rng.normal(size=n)
        u = poisson_solve(model, f)
        centered = f - model.stationary @ f
        worst_res = max(worst_res, float(np.abs(u - m @ u - centered).max()))
        mbar = m - np.outer(np.ones(n), model.stationary)
        series, term = np.zeros(n), f.copy()
        for _ in range(200):
            series += term
            term = mbar @ term
        worst_series = max(worst_series, float(np.abs(u - series).max()))
    assert worst_res <= 1e-10
    assert worst_series <= 1e-8
    _report(
        "criterion 3 (Poisson suite)",
        f"max residual {worst_res:.2e}, max series gap {worst_series:.2e}",
    )


def test_criterion_4_variance_formula_vs_batch_means():
    """Batch means over 1e6 steps agrees with the exact asymptotic variance."""
    target, ladder, bases = five_state_instance()
    k = finite_kernel_matrix("ee_limit", target, ladder, 1, bases[1], 0.5)
    model = FiniteChainModel(k, target.tempered_probabilities(1.0))
    f = np.arange(5, dtype=float)
    exact = asymptotic_variance(model, f)
    chain = simulate_matrix_chain(k, 1_000_000, seed=44)
    estimate, se = batch_means_variance(f[chain], 500)
    assert abs(estimate - exact) <= 3.0 * se
    _report(
        "criterion 4 (variance vs batch means)",
        f"exact {exact:.4f}, batch means {estimate:.4f} +- {se:.4f}",
    )


def test_criterion_5_second_moment_coefficient_two():
    """Replicated adaptive runs hit the coefficient-2 limit, not coefficient-4."""
    model0, limit = well_instance()
    report = ee_limit_clt_variance(model0, limit, WELL_THETA, WELL_F)
    coef2 = report.second_moment_limit
    coef4 = report.clt_variance
    assert coef2 is not None
    # the bundled instance must make the adaptivity penalty dominant
    assert 2.0 * (1.0 - WELL_THETA) ** 2 * report.gamma_gbar >= 0.5 * report.sigma_star_sq
    fc = WELL_F - limit.stationary @ WELL_F
    reps, steps = 2000, 100_000
    scaled = ee_pair_scaled_sums(
        model0.matrix, model0.matrix, WELL_THETA, np.zeros(5), fc,
        n_steps=steps, replications=reps, seed=55,
    )
    sample_var = float(scaled.var(ddof=1))
    se = sample_var * np.sqrt(2.0 / (reps - 1))
    assert abs(sample_var - coef2) <= 3.0 * se
    assert abs(sample_var - coef2) < abs(sample_var - coef4)
    _report(
        "criterion 5 (coefficient-2 second moment)",
        f"sample var {sample_var:.1f} vs coefficient-2 {coef2:.1f} (+-{se:.1f}) "
        f"and coefficient-4 {coef4:.1f}",
    )


# two-level instances whose levels run different kernels on different laws:
# (name, energies, f, hot temperature t0, theta, move probability, seed)
NON_SHARED_PANEL = (
    ("well t0=2", WELL_ENERGIES, WELL_F, 2.0, 0.5, 0.6, 606),
    ("well t0=3", WELL_ENERGIES, WELL_F, 3.0, 0.3, 0.6, 607),
    ("ramp t0=4", FIVE_STATE_ENERGIES, FIVE_STATE_ENERGIES, 4.0, 0.5, 0.3, 608),
)


def test_second_moment_coefficient_two_on_non_shared_instances():
    """Replicated runs match coefficient 2 where the levels share no kernel."""
    reps, steps = 400, 50_000
    details = []
    for name, energies, f, t0, theta, move_prob, seed in NON_SHARED_PANEL:
        p0, p1 = (
            metropolis_matrix(neighbor_proposal(5, move_prob), -energies / t)
            for t in (t0, 1.0)
        )
        pi0, pi1 = (FiniteTarget(energies).tempered_probabilities(t) for t in (t0, 1.0))
        log_r = -(1.0 - 1.0 / t0) * energies
        model0 = FiniteChainModel(p0, pi0)
        limit = FiniteChainModel(ee_limit_matrix(p1, pi0, log_r, theta), pi1)
        report = ee_limit_clt_variance(model0, limit, theta, f, log_r=log_r)
        scaled = ee_pair_scaled_sums(
            p0, p1, theta, log_r, f - pi1 @ f,
            n_steps=steps, replications=reps, seed=seed,
        )
        sample_var = float(scaled.var(ddof=1))
        se = sample_var * np.sqrt(2.0 / (reps - 1))
        coef2 = report.second_moment_limit
        assert abs(sample_var - coef2) <= 3.0 * se, name
        assert abs(sample_var - coef2) < abs(sample_var - report.clt_variance), name
        details.append(
            f"{name} z={(sample_var - coef2) / se:+.2f} "
            f"(coefficient 4: {(sample_var - report.clt_variance) / se:+.1f})"
        )
    _report("coefficient 2 on non-shared instances", ", ".join(details))


def test_criterion_6_cautionary_inequality():
    """CLT variance never falls below sigma_star^2; strict when Gamma > 0."""
    rng = np.random.default_rng(66)
    strict = 0
    for _ in range(40):
        n = int(rng.integers(3, 8))
        e0, e1 = rng.normal(size=n), rng.normal(size=n)
        theta = float(rng.uniform(0.05, 0.95))
        pi0 = np.exp(-e0)
        pi0 /= pi0.sum()
        model0 = FiniteChainModel(metropolis_matrix(neighbor_proposal(n), -e0), pi0)
        p1 = metropolis_matrix(neighbor_proposal(n), -e1)
        limit = FiniteChainModel(ee_limit_matrix(p1, pi0, e0 - e1, theta))
        report = ee_limit_clt_variance(model0, limit, theta, rng.normal(size=n), log_r=e0 - e1)
        assert report.clt_variance >= report.sigma_star_sq - 1e-12
        if report.gamma_gbar > 1e-12:
            assert report.clt_variance > report.sigma_star_sq
            strict += 1
    assert strict > 30  # the strict case is the generic one
    _report(
        "criterion 6 (cautionary inequality)",
        f"40 random instances, {strict} with strictly larger CLT variance",
    )


def test_criterion_7_law_of_large_numbers():
    """Adaptive-EE ergodic averages match tempered expectations at every level."""
    target, ladder, bases = five_state_instance()
    configs = ladder_configs(ladder, (0.5,), base_matrices=bases)
    n = 1_000_000
    traj = run_ladder(target, ladder, configs, "ee", n, seed=77)
    states = np.arange(5, dtype=float)
    panel = {
        "identity": states,
        "square": states**2,
        "ground": (states == 0).astype(float),
        "top": (states == 4).astype(float),
        "wave": np.cos(states),
    }
    worst = 0.0
    for level in range(ladder.n_levels):
        pi = target.tempered_probabilities(ladder.temperatures[level])
        level_states = traj.states[level]
        for name, values in panel.items():
            series = values[level_states]
            truth = float(pi @ values)
            var_of_mean, _ = batch_means_variance(series, 1000)
            se = max(np.sqrt(var_of_mean / n), 1e-12)
            dev = abs(series.mean() - truth) / se
            worst = max(worst, dev)
            assert dev <= 4.0, f"level {level} {name}: {dev:.2f} se"
    _report(
        "criterion 7 (law of large numbers)",
        f"all level averages within 4 se (worst {worst:.2f} se)",
    )
