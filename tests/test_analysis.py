import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eesampler.analysis
from eesampler import (
    FiniteChainModel,
    FiniteTarget,
    GaussianTarget,
    KernelConfig,
    MomentEstimand,
    ReducibleChainError,
    TableEstimand,
    TemperatureLadder,
    asymptotic_variance,
    batch_means_variance,
    ee_h_function,
    ee_limit_clt_variance,
    ee_limit_matrix,
    ee_pair_scaled_sums,
    gamma_covariance,
    ladder_configs,
    metropolis_matrix,
    mse_harness,
    neighbor_proposal,
    poisson_solve,
    replication_seed,
    simulate_matrix_chain,
    stationary_distribution,
)
from eesampler.cli import TABLE1_KINDS, _table1_estimands, load_config
from eesampler.kernels import acceptance_matrix
from eesampler.targets import _pinned_cumsum

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def random_chain(rng, n_states):
    m = rng.random((n_states, n_states)) + 0.05
    return m / m.sum(axis=1, keepdims=True)


def slow_metropolis(energies, move_prob=0.25):
    e = np.asarray(energies, dtype=float)
    p = metropolis_matrix(neighbor_proposal(len(e), move_prob), -e)
    pi = np.exp(-e)
    return FiniteChainModel(p, pi / pi.sum())


# --- stationary distributions -------------------------------------------------


def test_doubly_stochastic_has_uniform_stationary():
    m = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
    assert stationary_distribution(m) == pytest.approx(np.full(3, 1 / 3), abs=1e-13)


@pytest.mark.parametrize("n", [255, 256, 512])
def test_uniform_chain_of_many_states_is_irreducible(n):
    # the reachability check's path counts reach n: 256 and 512 wrap to 0 in uint8
    pi = stationary_distribution(np.full((n, n), 1 / n))
    assert pi == pytest.approx(np.full(n, 1 / n), abs=1e-13)


def test_two_state_closed_form():
    a, b = 0.3, 0.12
    m = np.array([[1 - a, a], [b, 1 - b]])
    assert stationary_distribution(m) == pytest.approx(
        np.array([b, a]) / (a + b), abs=1e-13
    )


def test_random_chains_match_power_iteration():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = random_chain(rng, 5)
        pi = stationary_distribution(m)
        assert np.abs(pi @ m - pi).max() < 1e-10
        power = np.full(5, 0.2) @ np.linalg.matrix_power(m, 400)
        assert pi == pytest.approx(power, abs=1e-10)


def test_reducible_matrix_rejected():
    m = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ReducibleChainError):
        stationary_distribution(m)
    block = np.array(
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
    )
    with pytest.raises(ReducibleChainError):
        stationary_distribution(block)


def test_model_validates_rows_and_residual():
    with pytest.raises(ValueError):
        FiniteChainModel(np.array([[0.6, 0.401], [0.5, 0.5]]))
    m = np.array([[0.4, 0.6], [0.3, 0.7]])
    with pytest.raises(ValueError):
        FiniteChainModel(m, stationary=np.array([0.9, 0.1]))
    for degenerate in ([0.0, 0.0], [np.nan, 1.0], [0.5, np.inf]):
        with pytest.raises(ValueError, match="finite with positive total mass"):
            FiniteChainModel(m, stationary=np.array(degenerate))


# --- Poisson equation ----------------------------------------------------------


def truncated_poisson_series(model, f, terms):
    mbar = model.matrix - np.outer(np.ones(model.n_states), model.stationary)
    u = np.zeros_like(f)
    term = np.asarray(f, dtype=float)
    for _ in range(terms):
        u = u + term
        term = mbar @ term
    return u


def test_poisson_constant_function_is_fixed_point():
    rng = np.random.default_rng(1)
    model = FiniteChainModel(random_chain(rng, 4))
    f = np.full(4, 2.7)
    assert poisson_solve(model, f) == pytest.approx(f, abs=1e-12)


def test_poisson_iid_chain_returns_f():
    pi = np.array([0.5, 0.3, 0.2])
    model = FiniteChainModel(np.tile(pi, (3, 1)))
    f = np.array([1.0, -2.0, 0.5])
    assert poisson_solve(model, f) == pytest.approx(f, abs=1e-12)


def test_poisson_matches_truncated_series():
    rng = np.random.default_rng(2)
    model = FiniteChainModel(random_chain(rng, 3))
    f = rng.normal(size=3)
    u = poisson_solve(model, f)
    series = truncated_poisson_series(model, f, 200)
    assert u == pytest.approx(series, abs=1e-10)
    # identity and normalization
    centered = f - model.stationary @ f
    assert model.matrix @ u + centered == pytest.approx(u, abs=1e-12)
    assert model.stationary @ u == pytest.approx(model.stationary @ f, abs=1e-12)


def test_poisson_solves_columns_like_single_functions():
    rng = np.random.default_rng(3)
    model = FiniteChainModel(random_chain(rng, 6))
    fs = rng.normal(size=(6, 4))
    u = poisson_solve(model, fs)
    columns = np.column_stack([poisson_solve(model, fs[:, j]) for j in range(4)])
    # one LU solve with four right-hand sides rounds differently from four solves
    tol = 100 * np.finfo(float).eps * np.abs(columns).max()
    np.testing.assert_allclose(u, columns, rtol=0.0, atol=tol)
    for bad in (np.ones((5, 4)), np.ones(7), np.ones((6, 4, 1))):
        with pytest.raises(ValueError, match="6 rows"):
            poisson_solve(model, bad)


# --- asymptotic variance --------------------------------------------------------


def truncated_variance_series(model, f, terms):
    fc = f - model.stationary @ f
    total = float(model.stationary @ (fc * fc))
    term = fc.copy()
    for _ in range(terms):
        term = model.matrix @ term
        total += 2.0 * float(model.stationary @ (fc * term))
    return total


def test_iid_chain_variance_is_plain_variance():
    pi = np.array([0.4, 0.35, 0.25])
    model = FiniteChainModel(np.tile(pi, (3, 1)))
    f = np.array([2.0, -1.0, 0.0])
    expected = float(pi @ f**2 - (pi @ f) ** 2)
    assert asymptotic_variance(model, f) == pytest.approx(expected, abs=1e-12)


def test_two_state_indicator_closed_form():
    a, b = 0.22, 0.34
    model = FiniteChainModel(np.array([[1 - a, a], [b, 1 - b]]))
    f = np.array([0.0, 1.0])
    closed = a * b * (2.0 - a - b) / (a + b) ** 3
    assert asymptotic_variance(model, f) == pytest.approx(closed, rel=1e-12)
    assert truncated_variance_series(model, f, 500) == pytest.approx(closed, abs=1e-10)


def test_variance_matches_truncated_series_on_random_chains():
    rng = np.random.default_rng(3)
    for _ in range(5):
        model = FiniteChainModel(random_chain(rng, 5))
        f = rng.normal(size=5)
        assert asymptotic_variance(model, f) == pytest.approx(
            truncated_variance_series(model, f, 500), abs=1e-8
        )


# --- the two-level oracle -------------------------------------------------------


def test_h_function_with_equal_energies_is_independent_of_x():
    rng = np.random.default_rng(4)
    model0 = FiniteChainModel(random_chain(rng, 4))
    theta = 0.6
    k = ee_limit_matrix(model0.matrix, model0.stationary, np.zeros(4), theta)
    limit = FiniteChainModel(k)
    f = rng.normal(size=4)
    h = ee_h_function(model0, limit, np.zeros(4), f)
    fc = f - limit.stationary @ f
    u = poisson_solve(limit, fc)
    expected_row = u - model0.stationary @ u
    for x in range(4):
        assert h[x] == pytest.approx(expected_row, abs=1e-12)


def test_h_function_rows_are_centered():
    rng = np.random.default_rng(5)
    e0 = rng.normal(size=5)
    e1 = rng.normal(size=5)
    p0 = metropolis_matrix(neighbor_proposal(5), -e0)
    pi0 = np.exp(-e0) / np.exp(-e0).sum()
    model0 = FiniteChainModel(p0, pi0)
    log_r = e0 - e1
    p1 = metropolis_matrix(neighbor_proposal(5), -e1)
    limit = FiniteChainModel(ee_limit_matrix(p1, pi0, log_r, 0.5))
    h = ee_h_function(model0, limit, log_r, rng.normal(size=5))
    assert np.abs(h @ model0.stationary).max() < 1e-12


def test_h_function_against_brute_force_enumeration():
    rng = np.random.default_rng(6)
    e0 = rng.normal(size=5)
    e1 = rng.normal(size=5)
    p1 = metropolis_matrix(neighbor_proposal(5), -e1)
    pi0 = np.exp(-e0) / np.exp(-e0).sum()
    model0 = FiniteChainModel(metropolis_matrix(neighbor_proposal(5), -e0), pi0)
    log_r = e0 - e1
    limit = FiniteChainModel(ee_limit_matrix(p1, pi0, log_r, 0.5))
    f = rng.normal(size=5)
    h = ee_h_function(model0, limit, log_r, f)
    fc = f - limit.stationary @ f
    u = poisson_solve(limit, fc)
    r = np.exp(log_r)
    for x in range(5):
        t_vals = np.empty(5)
        for y in range(5):
            accept = min(1.0, r[y] / r[x])
            t_vals[y] = accept * u[y] + (1.0 - accept) * u[x]
        expected = t_vals - float(pi0 @ t_vals)
        assert h[x] == pytest.approx(expected, abs=1e-12)


def test_gamma_of_constant_is_zero():
    rng = np.random.default_rng(7)
    model0 = FiniteChainModel(random_chain(rng, 4))
    g = rng.normal(size=4)
    assert gamma_covariance(model0, np.full(4, 3.3), g) == pytest.approx(0.0, abs=1e-12)


def test_gamma_iid_chain_is_plain_variance():
    pi = np.array([0.25, 0.5, 0.25])
    model0 = FiniteChainModel(np.tile(pi, (3, 1)))
    f = np.array([1.0, 4.0, -2.0])
    expected = float(pi @ f**2 - (pi @ f) ** 2)
    assert gamma_covariance(model0, f) == pytest.approx(expected, abs=1e-12)


def test_gamma_is_symmetric_bilinear_and_cauchy_schwarz():
    rng = np.random.default_rng(8)
    model0 = FiniteChainModel(random_chain(rng, 6))
    for _ in range(10):
        f, g, h = rng.normal(size=(3, 6))
        a, b = rng.normal(size=2)
        gfg = gamma_covariance(model0, f, g)
        assert gfg == pytest.approx(gamma_covariance(model0, g, f), abs=1e-10)
        assert gamma_covariance(model0, a * f + b * g, h) == pytest.approx(
            a * gamma_covariance(model0, f, h) + b * gamma_covariance(model0, g, h),
            abs=1e-9,
        )
        assert gfg**2 <= gamma_covariance(model0, f) * gamma_covariance(model0, g) + 1e-10


def test_gamma_matches_level_zero_simulation():
    # Gamma(f, f) is the long-run variance of the scaled level-0 sums;
    # check it against a direct vectorized simulation from stationarity
    model0 = slow_metropolis([0.0, 0.7, 1.4, 0.7, 0.0], move_prob=0.5)
    f = np.array([1.0, -0.5, 0.0, 2.0, -1.0])
    fc = f - model0.stationary @ f
    gamma = gamma_covariance(model0, fc)

    reps, n = 2000, 6000
    rng = np.random.default_rng(9)
    cum = np.cumsum(model0.matrix, axis=1)
    cum[:, -1] = 1.0
    s = np.searchsorted(np.cumsum(model0.stationary), rng.random(reps), side="right")
    sums = np.zeros(reps)
    for _ in range(n):
        s = (cum[s] < rng.random(reps)[:, None]).sum(axis=1)
        sums += fc[s]
    sample_var = (sums / np.sqrt(n)).var(ddof=1)
    se = sample_var * np.sqrt(2.0 / (reps - 1))
    assert abs(sample_var - gamma) < 3.0 * se + 0.02 * gamma


def test_report_theta_one_degenerates_to_sigma_star():
    rng = np.random.default_rng(11)
    e = rng.normal(size=5)
    pi = np.exp(-e) / np.exp(-e).sum()
    p = metropolis_matrix(neighbor_proposal(5), -e)
    model0 = FiniteChainModel(p, pi)
    limit = FiniteChainModel(ee_limit_matrix(p, pi, np.zeros(5), 1.0), pi)
    f = rng.normal(size=5)
    report = ee_limit_clt_variance(model0, limit, 1.0, f)
    assert report.clt_variance == pytest.approx(report.sigma_star_sq, abs=1e-12)
    assert report.second_moment_limit == pytest.approx(report.sigma_star_sq, abs=1e-12)


def test_shared_kernel_case_dual_formulas():
    # when both levels share one kernel and one law: gbar is the
    # geometric resolvent of f and sigma_star^2 its discounted series
    e = np.array([0.0, 1.2, 0.3, 2.0, 0.8])
    theta = 0.57
    model0 = slow_metropolis(e, move_prob=0.8)
    p = model0.matrix
    pi = model0.stationary
    limit = FiniteChainModel(ee_limit_matrix(p, pi, np.zeros(5), theta), pi)
    rng = np.random.default_rng(12)
    f = rng.normal(size=5)
    fc = f - pi @ f

    u_closed = np.linalg.solve(np.eye(5) - theta * p, fc)
    u_series = np.zeros(5)
    term = fc.copy()
    for _ in range(600):
        u_series += term
        term = theta * (p @ term)
    assert u_closed == pytest.approx(u_series, abs=1e-10)
    assert poisson_solve(limit, fc) == pytest.approx(u_closed, abs=1e-10)

    sigma_series = float(pi @ (fc * fc))
    term = fc.copy()
    for _ in range(600):
        term = theta * (p @ term)
        sigma_series += 2.0 * float(pi @ (fc * term))
    assert asymptotic_variance(limit, fc) == pytest.approx(sigma_series, abs=1e-10)

    h = ee_h_function(model0, limit, np.zeros(5), fc)
    gbar = limit.stationary @ h
    assert gbar == pytest.approx(u_closed, abs=1e-10)

    report = ee_limit_clt_variance(model0, limit, theta, fc)
    assert report.second_moment_limit is not None
    assert report.second_moment_limit == pytest.approx(
        report.sigma_star_sq + 2.0 * (1 - theta) ** 2 * report.gamma_gbar, rel=1e-12
    )
    assert report.clt_variance == pytest.approx(
        report.sigma_star_sq + 4.0 * (1 - theta) ** 2 * report.gamma_gbar, rel=1e-12
    )


def test_generic_instance_reports_coefficient_two_second_moment():
    rng = np.random.default_rng(13)
    e0 = np.array([0.0, 0.5, 1.0, 1.5, 2.0]) / 2.0
    e1 = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    pi0 = np.exp(-e0) / np.exp(-e0).sum()
    model0 = FiniteChainModel(metropolis_matrix(neighbor_proposal(5), -e0), pi0)
    p1 = metropolis_matrix(neighbor_proposal(5), -e1)
    limit = FiniteChainModel(ee_limit_matrix(p1, pi0, e0 - e1, 0.5))
    report = ee_limit_clt_variance(model0, limit, 0.5, rng.normal(size=5))
    assert report.second_moment_limit == pytest.approx(
        report.sigma_star_sq + 2.0 * 0.5**2 * report.gamma_gbar, rel=1e-12
    )
    assert report.gamma_gbar > 1e-12
    assert report.clt_variance > report.sigma_star_sq


def test_cautionary_inequality_on_randomized_instances():
    rng = np.random.default_rng(14)
    for trial in range(20):
        n = int(rng.integers(3, 8))
        e0 = rng.normal(size=n)
        e1 = rng.normal(size=n)
        theta = float(rng.uniform(0.05, 0.95))
        pi0 = np.exp(-e0) / np.exp(-e0).sum()
        model0 = FiniteChainModel(metropolis_matrix(neighbor_proposal(n), -e0), pi0)
        p1 = metropolis_matrix(neighbor_proposal(n), -e1)
        limit = FiniteChainModel(ee_limit_matrix(p1, pi0, e0 - e1, theta))
        f = rng.normal(size=n)
        report = ee_limit_clt_variance(model0, limit, theta, f)
        assert report.gamma_gbar >= -1e-12
        assert report.clt_variance >= report.sigma_star_sq - 1e-12
        if report.gamma_gbar > 1e-12:
            assert report.clt_variance > report.sigma_star_sq


# --- empirical side -------------------------------------------------------------


def test_batch_means_on_iid_normals():
    rng = np.random.default_rng(15)
    est, se = batch_means_variance(rng.standard_normal(1_000_000), 100)
    assert abs(est - 1.0) < 3.0 * se


def test_batch_means_on_constants_is_zero():
    est, _ = batch_means_variance(np.full(10_000, 4.2), 10)
    assert est == 0.0


def test_batch_means_recovers_two_state_closed_form():
    a, b = 0.18, 0.3
    matrix = np.array([[1 - a, a], [b, 1 - b]])
    closed = a * b * (2.0 - a - b) / (a + b) ** 3
    chain = simulate_matrix_chain(matrix, 1_000_000, seed=16)
    est, se = batch_means_variance((chain == 1).astype(float), 500)
    assert abs(est - closed) < 3.0 * se


def test_limit_chain_batch_sums_look_gaussian():
    # normality sanity check behind the CLT variance numbers: standardized
    # batch means of a geometrically ergodic chain should pass a loose test
    from scipy import stats

    energies = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    base = metropolis_matrix(neighbor_proposal(5), -energies)
    pi = np.exp(-energies)
    pi /= pi.sum()
    k = ee_limit_matrix(base, np.full(5, 0.2), -energies, 0.5)
    chain = simulate_matrix_chain(k, 1_000_000, seed=27)
    values = energies[chain]
    batch_means = values.reshape(500, 2000).mean(axis=1)
    _, p_value = stats.normaltest(batch_means)
    assert p_value > 1e-4


def test_batch_means_validation():
    with pytest.raises(ValueError):
        batch_means_variance(np.zeros(1000), 3)  # not divisible
    with pytest.raises(ValueError):
        batch_means_variance(np.zeros(1000), 20)  # batches below 100 points
    with pytest.raises(ValueError):
        batch_means_variance(np.zeros(1000), 1)


def test_simulate_matrix_chain_occupation():
    rng = np.random.default_rng(17)
    m = random_chain(rng, 4)
    pi = stationary_distribution(m)
    chain = simulate_matrix_chain(m, 200_000, seed=18)
    freq = np.bincount(chain, minlength=4) / len(chain)
    assert freq == pytest.approx(pi, abs=0.01)


def test_pair_simulator_timing_contract():
    # deterministic construction: level 0 cycles 0->1->2->..., level 1 holds
    # still, exchange is forced from iteration 2 on and always accepted, so
    # with two steps the level-1 chain must land exactly on X_1^(0)
    shift = np.roll(np.eye(5), 1, axis=1)
    hold = np.eye(5)
    f = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    scaled = ee_pair_scaled_sums(
        shift, hold, theta=1e-12, log_r=np.zeros(5), f=f,
        n_steps=2, replications=64, seed=19, x0=0, x1=2,
    )
    # S_2 = f(X_1^(1)) + f(X_2^(1)) = f(2) + f(X_1^(0)) = 4 + f(1)
    assert np.all(scaled == (4.0 + 2.0) / np.sqrt(2.0))


class ZeroUniforms:
    """Generator stub whose every uniform is 0.0 and every integer is the lowest allowed."""

    def random(self, size=None):
        return np.zeros(size)

    def integers(self, low, high=None, size=None):
        return np.full(size, low)


def test_pair_simulator_draws_no_massless_state_at_a_zero_uniform(monkeypatch):
    # at u = 0.0 the flip chain must still flip (1, 0, 1, 0: the sum of
    # f = (1, -1) is 0); a left search stays on state 0, which has no mass
    # in its row, and gives 4 / sqrt(4) = 2
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: ZeroUniforms())
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with np.errstate(divide="ignore"):  # log 0 of the unused exchange test
        scaled = ee_pair_scaled_sums(
            flip, flip, theta=0.5, log_r=np.zeros(2), f=np.array([1.0, -1.0]),
            n_steps=4, replications=3, seed=1,
        )
    assert list(scaled) == [0.0, 0.0, 0.0]


def test_pair_simulator_theta_one_matches_single_chain_variance():
    model = slow_metropolis([0.0, 0.6, 1.2, 0.6, 0.0], move_prob=0.6)
    f = np.array([0.0, 1.0, 0.0, -1.0, 2.0])
    fc = f - model.stationary @ f
    truth = asymptotic_variance(model, fc)
    scaled = ee_pair_scaled_sums(
        model.matrix, model.matrix, theta=1.0, log_r=np.zeros(5), f=fc,
        n_steps=4000, replications=2000, seed=20,
    )
    sample_var = scaled.var(ddof=1)
    se = sample_var * np.sqrt(2.0 / (len(scaled) - 1))
    assert abs(sample_var - truth) < 3.0 * se + 0.03 * truth


def test_pair_simulator_matches_the_exact_three_step_law():
    # three iterations on three states: the level-1 sum takes finitely many
    # values, whose law is enumerated over level-0 paths and level-1 moves;
    # this checks the uniform draw from the level-0 history, the acceptance
    # rule and the timing contract together
    from collections import defaultdict

    from scipy import stats

    p0 = np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.3, 0.3, 0.4]])
    p1 = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    log_r = np.array([0.0, -0.7, 0.9])
    theta, x0, x1 = 0.4, 1, 2
    f = np.array([1.0, 4.0, 16.0])  # distinct visit counts give distinct sums
    accept = acceptance_matrix(log_r)

    def level_one_law(x, history):
        if not history:  # iteration 1 is forced local
            return p1[x]
        law = theta * p1[x]
        for y in history:
            w = (1.0 - theta) / len(history)
            law[y] += w * accept[x, y]
            law[x] += w * (1.0 - accept[x, y])
        return law

    exact = defaultdict(float)
    for a in range(3):  # X_1 of level 0
        for b in range(3):  # X_2 of level 0; X_3 is never proposed
            w0 = p0[x0, a] * p0[a, b]
            for y1, w1 in enumerate(level_one_law(x1, [])):
                for y2, w2 in enumerate(level_one_law(y1, [a])):
                    for y3, w3 in enumerate(level_one_law(y2, [a, b])):
                        exact[f[y1] + f[y2] + f[y3]] += w0 * w1 * w2 * w3
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    reps = 20_000
    scaled = ee_pair_scaled_sums(p0, p1, theta, log_r, f, n_steps=3, replications=reps,
                                 seed=2718, x0=x0, x1=x1)
    sums = np.round(scaled * np.sqrt(3.0))
    values = sorted(exact)
    observed = np.array([np.sum(sums == v) for v in values])
    assert observed.sum() == reps  # no impossible sum
    expected = reps * np.array([exact[v] for v in values])
    rare = expected < 5.0
    if rare.any():  # pooled into one cell
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 1e-3


FIVE_STATE = metropolis_matrix(neighbor_proposal(5), -np.arange(5.0))
PAIR_ARGS = dict(p0=FIVE_STATE, p1=FIVE_STATE, theta=0.5, log_r=np.zeros(5), f=np.zeros(5),
                 n_steps=10, replications=3, seed=1)
MALFORMED_PAIR_ARGS = {
    "theta 1.7": {"theta": 1.7},
    "theta -0.5": {"theta": -0.5},
    "theta nan": {"theta": float("nan")},
    "log_r of 7": {"log_r": np.zeros(7)},
    "f of 9": {"f": np.zeros(9)},
    "p0 of 3 states": {"p0": metropolis_matrix(neighbor_proposal(3), np.zeros(3))},
    "nan in log_r": {"log_r": np.array([0.0, np.nan, 0.0, 0.0, 0.0])},
    "nan in f": {"f": np.array([0.0, 0.0, np.nan, 0.0, 0.0])},
    "no steps": {"n_steps": 0},
    "no replications": {"replications": 0},
    "x0 past the states": {"x0": 5},
    "negative x1": {"x1": -1},
    "tables past the limit": {  # 300 states with distinct log weights: about 2.7e7 entries
        "p0": metropolis_matrix(neighbor_proposal(300), np.zeros(300)),
        "p1": metropolis_matrix(neighbor_proposal(300), np.zeros(300)),
        "log_r": np.linspace(0.0, 1.0, 300), "f": np.zeros(300),
    },
}


@pytest.mark.parametrize("changes", MALFORMED_PAIR_ARGS.values(), ids=MALFORMED_PAIR_ARGS)
def test_pair_simulator_rejects_malformed_inputs(changes):
    with pytest.raises(ValueError):
        ee_pair_scaled_sums(**{**PAIR_ARGS, **changes})


WELL_ENERGIES = np.array([0.0, 2.0, 4.0, 2.0, 0.0])
WELL = metropolis_matrix(neighbor_proposal(5, 0.6), -WELL_ENERGIES)
WELL_PI = np.exp(-WELL_ENERGIES) / np.exp(-WELL_ENERGIES).sum()
SEVEN_ENERGIES = np.array([0.0, 0.3, 1.1, 2.0, 0.7, 1.6, 0.2])
SEVEN = dict(
    p0=metropolis_matrix(neighbor_proposal(7, 0.5), -SEVEN_ENERGIES / 3.0),
    p1=metropolis_matrix(neighbor_proposal(7, 0.5), -SEVEN_ENERGIES),
    theta=0.4, log_r=-(1.0 - 1.0 / 3.0) * SEVEN_ENERGIES,
    f=np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.0, 2.0]),
)


def test_pair_simulator_bits_are_pinned():
    # outputs recorded before the guide-table rewrite; a change to the variate
    # schedule must edit these on purpose
    f = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
    well = ee_pair_scaled_sums(WELL, WELL, 0.5, np.zeros(5), f - WELL_PI @ f,
                               n_steps=1000, replications=7, seed=2010)
    assert [v.hex() for v in well.tolist()] == [
        "-0x1.b11b05373e1b7p+2", "0x1.995341a3c2c5ap+4", "0x1.94c583ada5b53p+3",
        "-0x1.c558189986648p-2", "0x1.97ceacfc63c02p+4", "0x1.8c2b8ea3e0962p+4",
        "0x1.2a0357073533dp+4",
    ]
    # two chunks (500 + 1) and a short last block (128 + 2)
    seven = ee_pair_scaled_sums(**SEVEN, n_steps=130, replications=501, seed=7, x0=3, x1=5)
    assert [seven[i].hex() for i in (0, 1, 250, 499, 500)] == [
        "0x1.72782486debd4p+1", "0x1.61a13a23a611cp+2", "0x1.18a897cb05d53p+1",
        "0x1.26b105c85fb97p+2", "0x1.99c2f2190da2cp+1",
    ]
    assert math.fsum(seven).hex() == "0x1.9a2aca13c6d59p+10"
    one = ee_pair_scaled_sums(**SEVEN, n_steps=1, replications=16, seed=3, x1=3)
    hexes = {"a": "0x1.8000000000000p+1", "b": "0x1.0000000000000p-1", "c": "-0x1.0000000000000p+0"}
    assert [v.hex() for v in one.tolist()] == [hexes[k] for k in "abababaaaaccccab"]


def adversarial_uniforms(b: np.ndarray, buckets: int) -> np.ndarray:
    """0.0, every entry of b below 1 and its neighbours, every bucket edge, 1 - 2^-53."""
    inner = b[b < 1.0]
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], inner, np.nextafter(inner, 0.0),
                        np.nextafter(inner, 1.0), np.arange(buckets) / buckets])
    return u[(u >= 0.0) & (u < 1.0)]


def check_inverse_cdf(cum: np.ndarray, extra=()):
    b = eesampler.analysis._distinct(cum)
    draw = eesampler.analysis._InverseCdf(b)
    u = np.concatenate([adversarial_uniforms(b, draw.buckets), extra])
    assert np.array_equal(draw(u), b.searchsorted(u, side="right"))
    assert len(draw.steps) <= np.log2(b.size) + 1
    return b, draw


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_guide_table_matches_searchsorted(n, data):
    weights = data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-18, 1.0), st.sampled_from([1e-16, 0.1, 0.25, 0.5])),
        min_size=n * n, max_size=n * n))
    m = np.array(weights).reshape(n, n) + np.eye(n) * 1e-12
    m /= m.sum(axis=1, keepdims=True)
    extra = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    check_inverse_cdf(_pinned_cumsum(m), extra)


def test_guide_table_bisects_a_clustered_bucket():
    # 0.7 followed by 20 boundaries one ulp apart: no bucket width splits them
    m = np.full((22, 22), 1 / 22)
    m[0] = [0.7] + [1.2e-16] * 20 + [0.3 - 20 * 1.2e-16]
    m[1] = m[0, ::-1]
    cum = _pinned_cumsum(m)
    assert np.count_nonzero(np.diff(cum[0]) == np.spacing(0.7)) >= 19
    _, draw = check_inverse_cdf(cum)
    assert draw.steps[0] > 1  # bisection, not one pass per clustered entry


def test_guide_table_at_the_size_guard_limit():
    n = 140
    m = random_chain(np.random.default_rng(31), n)
    eesampler.analysis.check_pair_table_size(m, m, np.linspace(0.0, 1.0, n))  # admitted
    b, _ = check_inverse_cdf(_pinned_cumsum(m))
    assert b.size > n * (n - 1)


# --- replication harness --------------------------------------------------------


def finite_samplers():
    """The ``mse_harness`` arguments (kinds, target, ladder, configs) of rwm and
    ee on a five-state target, and the estimands."""
    energies = (0.0, 0.4, 0.9, 1.5, 2.2)
    target = FiniteTarget(energies)
    ladder = TemperatureLadder((2.0, 1.0))
    bases = [
        metropolis_matrix(neighbor_proposal(5), -np.asarray(energies) / t)
        for t in (2.0, 1.0)
    ]
    configs = ladder_configs(ladder, (0.5,), base_matrices=bases)
    pi = target.tempered_probabilities(1.0)
    estimand = TableEstimand("mean_state", float(pi @ np.arange(5)), tuple(range(5)))
    return (("rwm", "ee"), target, ladder, configs), [estimand]


def test_replication_seed_is_deterministic():
    assert replication_seed(123, 7) == replication_seed(123, 7)
    assert replication_seed(123, 7) != replication_seed(123, 8)


def test_mse_harness_baseline_ratios_are_one():
    samplers, estimands = finite_samplers()
    table = mse_harness(*samplers, estimands, replications=5, iterations=400, master_seed=21)
    assert np.all(table.ratios[0] == 1.0)
    assert table.mse.shape == (2, 1)


def bundled_samplers(name):
    """The ``table1`` arguments of a bundled config: its five kinds and estimands."""
    cfg = load_config(CONFIGS / name)
    return (TABLE1_KINDS, cfg.target, cfg.ladder, cfg.configs), _table1_estimands(cfg)


HARNESS_CASES = {
    "finite_rwm_ee": finite_samplers,
    "gaussian_table1": lambda: bundled_samplers("gaussian_table1.yaml"),
    "finite_5state": lambda: bundled_samplers("finite_5state.yaml"),
}


@pytest.mark.parametrize("case", HARNESS_CASES)
def test_mse_harness_results_independent_of_worker_count(monkeypatch, case):
    samplers, estimands = HARNESS_CASES[case]()
    run = functools.partial(mse_harness, *samplers, estimands, iterations=300, master_seed=22)
    seq = run(replications=6)
    par = run(replications=6, jobs=2)
    assert np.array_equal(seq.mse, par.mse)
    assert np.array_equal(seq.averages, par.averages)
    # replication r's averages depend on neither the replication count nor the chunks
    five = run(replications=5)
    assert np.array_equal(run(replications=3).averages, five.averages[:, :3])
    assert np.array_equal(five.averages, seq.averages[:, :5])
    monkeypatch.setattr(eesampler.analysis, "TASK_MEMORY_BUDGET", 1)  # one replication per task
    assert np.array_equal(run(replications=5).averages, five.averages)


def test_mse_harness_pool_has_no_more_workers_than_tasks(monkeypatch, pool_sizes):
    samplers, estimands = finite_samplers()
    serial = mse_harness(*samplers, estimands, replications=3, iterations=200, master_seed=27)
    for jobs in (64, 4):
        table = mse_harness(*samplers, estimands, replications=3, iterations=200, master_seed=27,
                            jobs=jobs)
        assert np.array_equal(table.mse, serial.mse)
    kinds, *rest = samplers
    mse_harness(kinds[:1], *rest, estimands, replications=1, iterations=200, master_seed=27,
                jobs=2)
    # a task is one sampler and a chunk of replications: here each sampler's 3
    # fit one chunk, so 2 tasks; a single task runs in-process
    assert pool_sizes == [2, 2]
    monkeypatch.setattr(eesampler.analysis, "TASK_MEMORY_BUDGET", 1)  # chunks of one
    for jobs in (64, 4):
        table = mse_harness(*samplers, estimands, replications=3, iterations=200, master_seed=27,
                            jobs=jobs)
        assert np.array_equal(table.mse, serial.mse)
    assert pool_sizes[2:] == [6, 4]  # 2 samplers x 3 replications


@pytest.mark.parametrize("jobs", [0, -3])
def test_mse_harness_rejects_jobs_below_one(jobs):
    samplers, estimands = finite_samplers()
    with pytest.raises(ValueError, match="jobs"):
        mse_harness(*samplers, estimands, replications=2, iterations=50, master_seed=28,
                    jobs=jobs)


@pytest.mark.parametrize("burn_in", [-5, 300, 301])
def test_mse_harness_rejects_burn_in_outside_the_run(burn_in):
    samplers, estimands = finite_samplers()
    with pytest.raises(ValueError, match="burn_in"):
        mse_harness(*samplers, estimands, replications=2, iterations=300, master_seed=29,
                    burn_in=burn_in)


def test_iid_sampler_mse_matches_closed_form():
    sigma = np.array([[0.96, 2.44], [2.44, 7.04]])
    target = GaussianTarget(sigma)
    ladder = TemperatureLadder((2.0, 1.0))
    configs = (
        KernelConfig(theta=0.0, proposal_covariance=np.eye(2)),
        KernelConfig(theta=0.0, proposal_covariance=np.eye(2)),
    )
    est = MomentEstimand("E[X1]", truth=0.0, component=0, power=1)
    reps, iters = 60, 2000
    table = mse_harness(["ir_limit"], target, ladder, configs, [est], replications=reps,
                        iterations=iters, master_seed=23)
    expected = sigma[0, 0] / iters
    se = expected * np.sqrt(2.0 / reps)
    assert abs(table.mse[0, 0] - expected) < 3.0 * se


def test_mse_harness_single_replication_is_flagged():
    samplers, estimands = finite_samplers()
    table = mse_harness(*samplers, estimands, replications=1, iterations=400, master_seed=25)
    assert table.mse.shape == (2, 1)
    assert np.all(table.ratios[0] == 1.0)
    assert "unreliable" in table.to_text()


def test_theta_one_makes_adaptive_and_plain_samplers_comparable():
    # with theta = 1 the adaptive scheme never touches the reservoir, so its
    # cold chain is the same kernel as the baseline (up to seed schedule)
    energies = (0.0, 0.4, 0.9, 1.5, 2.2)
    target = FiniteTarget(energies)
    ladder = TemperatureLadder((2.0, 1.0))
    bases = [
        metropolis_matrix(neighbor_proposal(5), -np.asarray(energies) / t)
        for t in (2.0, 1.0)
    ]
    configs = ladder_configs(ladder, (1.0,), base_matrices=bases)
    pi = target.tempered_probabilities(1.0)
    estimand = TableEstimand("mean_state", float(pi @ np.arange(5)), tuple(range(5)))
    table = mse_harness(("rwm", "ee"), target, ladder, configs, [estimand], replications=40,
                        iterations=2000, master_seed=26)
    assert 1.0 / 3.0 < table.ratios[1, 0] < 3.0


def test_mse_table_text_and_csv(tmp_path):
    samplers, estimands = finite_samplers()
    table = mse_harness(*samplers, estimands, replications=4, iterations=300, master_seed=24)
    text = table.to_text()
    assert "MSE" in text and "Ratios" in text and "mean_state" in text
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sampler,row,mean_state"
    written = float(lines[1].split(",")[2])
    assert written == table.mse[0, 0]
