import numpy as np
import pytest

from eesampler import (
    KappaTooLargeError,
    KernelConfig,
    Reservoir,
    TemperatureLadder,
    acceptance_matrix,
    batch_means_variance,
    ee_adaptive_step,
    finite_kernel_matrix,
    ir_adaptive_step,
    limit_ee_step,
    limit_ir_step,
    make_finite_target,
    make_gaussian_target,
    metropolis_matrix,
    neighbor_proposal,
    rwm_step,
    stationary_distribution,
    theta_lower_bound,
)
from eesampler.targets import GaussianTarget

SIGMA = np.array([[0.96, 2.44], [2.44, 7.04]])


def finite_setup(energies=(0.0, 0.6, 1.5), temps=(2.0, 1.0), theta=0.5):
    target = make_finite_target(energies)
    ladder = TemperatureLadder(temps, (theta,) * (len(temps) - 1))
    bases = [
        metropolis_matrix(
            neighbor_proposal(target.state_count),
            -np.asarray(energies) / t,
        )
        for t in temps
    ]
    configs = [KernelConfig(theta=theta, base_matrix=b) for b in bases]
    return target, ladder, bases, configs


def test_rwm_accepts_equal_energy_proposals():
    # a vanishing proposal makes E(y) ~ E(x): acceptance ratio ~ 1
    target = make_gaussian_target(np.eye(2))
    ladder = TemperatureLadder((1.0,))
    config = KernelConfig(proposal_covariance=1e-24 * np.eye(2))
    rng = np.random.default_rng(0)
    x = np.array([1.0, -2.0])
    n = 2000
    accepted = 0
    for _ in range(n):
        out = rwm_step(target, ladder, 0, x, config, rng)
        accepted += out.accepted
        assert np.abs(out.next - x).max() < 1e-9
    assert accepted / n > 0.999


def test_rwm_long_run_mean_near_zero():
    target = make_gaussian_target(np.eye(2))
    ladder = TemperatureLadder((1.0,))
    config = KernelConfig(proposal_covariance=np.eye(2))
    rng = np.random.default_rng(1)
    n = 1_000_000
    x = np.zeros(2)
    total = np.zeros(2)
    first = np.empty(n)
    for i in range(n):
        out = rwm_step(target, ladder, 0, x, config, rng)
        x = out.next
        total += x
        first[i] = x[0]
    mean = total / n
    var_of_mean, _ = batch_means_variance(first, 500)
    se = np.sqrt(var_of_mean / n)
    assert abs(mean[0]) < 4.0 * se
    assert abs(mean[1]) < 4.0 * se * np.sqrt(1.0)  # components share the same kernel scale


def test_theta_one_makes_every_mixture_kernel_local():
    target, ladder, bases, _ = finite_setup(theta=1.0)
    config = KernelConfig(theta=1.0, base_matrix=bases[1])
    res = Reservoir()
    res.push(0, target.energy(0))
    rng = np.random.default_rng(2)
    for _ in range(300):
        assert ee_adaptive_step(target, ladder, 1, 1, res, config, rng).branch == "local"
        assert ir_adaptive_step(target, ladder, 1, 1, res, config, rng).branch == "local"
        assert limit_ee_step(target, ladder, 1, 1, config, rng).branch == "local"
        assert limit_ir_step(target, ladder, 1, 1, config, rng).branch == "local"


def test_ee_downhill_exchange_always_accepted():
    target, ladder, bases, _ = finite_setup()
    config = KernelConfig(theta=1e-12, base_matrix=bases[1])
    res = Reservoir()
    res.push(0, target.energy(0))  # E(0) < E(2): the importance ratio favors the proposal
    rng = np.random.default_rng(3)
    for _ in range(200):
        out = ee_adaptive_step(target, ladder, 1, 2, res, config, rng)
        assert out.branch == "exchange"
        assert out.accepted
        assert out.next == 0


def test_ee_rejected_exchange_holds_the_current_state():
    # proposals far uphill in energy are (almost) always rejected
    target, ladder, bases, _ = finite_setup(energies=(0.0, 0.5, 60.0))
    config = KernelConfig(theta=1e-12, base_matrix=bases[1])
    res = Reservoir()
    res.push(2, target.energy(2))
    rng = np.random.default_rng(21)
    for _ in range(200):
        out = ee_adaptive_step(target, ladder, 1, 0, res, config, rng)
        assert out.branch == "exchange"
        assert not out.accepted
        assert out.next == 0


def test_ee_empty_reservoir_falls_back_to_local():
    target, ladder, bases, configs = finite_setup()
    rng = np.random.default_rng(4)
    empty = Reservoir()
    for _ in range(200):
        out = ee_adaptive_step(target, ladder, 1, 0, empty, configs[1], rng)
        assert out.branch == "local"


def test_ee_frozen_reservoir_matches_matrix_row():
    target, ladder, bases, configs = finite_setup()
    res = Reservoir()
    for s in (0, 1, 1, 2, 0):
        res.push(s, target.energy(s))
    mu = res.empirical_distribution(3)
    frozen = finite_kernel_matrix("ee_frozen", target, ladder, 1, bases[1], 0.5, mu=mu)
    rng = np.random.default_rng(5)
    n = 1_000_000
    x = 1
    counts = np.zeros(3)
    for _ in range(n):
        counts[ee_adaptive_step(target, ladder, 1, x, res, configs[1], rng).next] += 1
    freq = counts / n
    for s in range(3):
        p = frozen[x, s]
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(freq[s] - p) < 4.0 * se


def test_ir_frozen_reservoir_matches_matrix_row():
    target, ladder, bases, configs = finite_setup()
    res = Reservoir()
    for s in (0, 1, 1, 2, 0):
        res.push(s, target.energy(s))
    mu = res.empirical_distribution(3)
    frozen = finite_kernel_matrix("ir_frozen", target, ladder, 1, bases[1], 0.5, mu=mu)
    rng = np.random.default_rng(6)
    n = 1_000_000
    x = 1
    counts = np.zeros(3)
    for _ in range(n):
        counts[ir_adaptive_step(target, ladder, 1, x, res, configs[1], rng).next] += 1
    freq = counts / n
    for s in range(3):
        p = frozen[x, s]
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(freq[s] - p) < 4.0 * se


def test_ir_single_point_reservoir_starts_inner_move_there():
    target = make_gaussian_target(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0), (0.5,))
    config = KernelConfig(theta=1e-12, proposal_covariance=1e-24 * np.eye(2))
    res = Reservoir(dimension=2)
    y = np.array([2.5, -1.0])
    res.push(y, target.energy(y))
    rng = np.random.default_rng(7)
    for _ in range(100):
        out = ir_adaptive_step(target, ladder, 1, np.zeros(2), res, config, rng)
        assert out.branch == "resample"
        assert np.abs(out.next - y).max() < 1e-9  # inner kernel barely moves


def test_branch_frequency_matches_theta():
    target, ladder, bases, _ = finite_setup(theta=0.7)
    config = KernelConfig(theta=0.7, base_matrix=bases[1])
    res = Reservoir()
    res.push(0, target.energy(0))
    rng = np.random.default_rng(8)
    n = 100_000
    local = 0
    for _ in range(n):
        local += ee_adaptive_step(target, ladder, 1, 1, res, config, rng).branch == "local"
    se = np.sqrt(0.7 * 0.3 / n)
    assert abs(local / n - 0.7) < 4.0 * se


def test_limit_ee_stationarity_of_explicit_matrix():
    target, ladder, bases, _ = finite_setup(energies=(0.0, 0.5, 1.1, 2.0, 3.2))
    k = finite_kernel_matrix("ee_limit", target, ladder, 1, bases[1], 0.5)
    pi = target.tempered_probabilities(1.0)
    assert np.abs(pi @ k - pi).max() <= 1e-12
    # independent route: the linear-solve stationary vector agrees
    assert np.abs(stationary_distribution(k) - pi).max() < 1e-12


def test_limit_ir_stationarity_of_explicit_matrix():
    target, ladder, bases, _ = finite_setup(energies=(0.0, 0.5, 1.1, 2.0, 3.2))
    k = finite_kernel_matrix("ir_limit", target, ladder, 1, bases[1], 0.5)
    pi = target.tempered_probabilities(1.0)
    assert np.abs(pi @ k - pi).max() <= 1e-12


def test_theta_one_matrix_is_base_exactly():
    target, ladder, bases, _ = finite_setup()
    for kind in ("ee_limit", "ir_limit"):
        k = finite_kernel_matrix(kind, target, ladder, 1, bases[1], 1.0)
        assert np.array_equal(k, bases[1])
    assert np.array_equal(
        finite_kernel_matrix("base", target, ladder, 1, bases[1], 0.5), bases[1]
    )


def test_equal_energies_make_exchange_kernel_rank_one():
    target, ladder, bases, _ = finite_setup(energies=(1.0, 1.0))
    pi_hot = target.tempered_probabilities(2.0)
    k = finite_kernel_matrix("ee_limit", target, ladder, 1, bases[1], 0.0)
    assert np.allclose(k, np.tile(pi_hot, (2, 1)), atol=1e-15)


def test_metropolis_matrix_reversible():
    energies = np.array([0.0, 0.9, 0.4, 2.0, 1.3])
    pi = np.exp(-energies)
    pi /= pi.sum()
    p = metropolis_matrix(neighbor_proposal(5), -energies)
    detailed = pi[:, None] * p
    assert np.abs(detailed - detailed.T).max() <= 1e-12
    assert np.abs(pi @ p - pi).max() <= 1e-12


def test_acceptance_matrix_within_unit_interval():
    rng = np.random.default_rng(9)
    a = acceptance_matrix(rng.normal(size=12) * 300)
    assert a.min() >= 0.0
    assert a.max() <= 1.0
    assert np.all(np.diag(a) == 1.0)


def test_non_stochastic_base_matrix_rejected():
    target, ladder, bases, _ = finite_setup()
    bad = bases[1].copy()
    bad[0, 0] += 1e-9
    with pytest.raises(ValueError):
        finite_kernel_matrix("ee_limit", target, ladder, 1, bad, 0.5)


def test_frozen_kinds_require_mu():
    target, ladder, bases, _ = finite_setup()
    with pytest.raises(ValueError):
        finite_kernel_matrix("ee_frozen", target, ladder, 1, bases[1], 0.5)


def test_limit_ir_theta_zero_draws_iid():
    target, ladder, bases, _ = finite_setup(energies=(0.0, 0.5, 1.1, 2.0, 3.2))
    config = KernelConfig(theta=0.0, base_matrix=bases[1])
    rng = np.random.default_rng(10)
    n = 200_000
    counts = np.zeros(5)
    x = 0
    for _ in range(n):
        x = limit_ir_step(target, ladder, 1, x, config, rng).next
        counts[x] += 1
    pi = target.tempered_probabilities(1.0)
    for s in range(5):
        se = np.sqrt(pi[s] * (1 - pi[s]) / n)
        assert abs(counts[s] / n - pi[s]) < 4.0 * se


def test_limit_ee_gaussian_second_moments():
    target = make_gaussian_target(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0), (0.5, 0.5, 0.5))
    config = KernelConfig(theta=0.5, proposal_covariance=np.eye(2))
    rng = np.random.default_rng(11)
    n, burn = 400_000, 10_000
    x = np.zeros(2)
    sq = np.zeros((n, 2))
    for i in range(n + burn):
        x = limit_ee_step(target, ladder, 3, x, config, rng).next
        if i >= burn:
            sq[i - burn] = x**2
    for j, truth in enumerate((SIGMA[0, 0], SIGMA[1, 1])):
        var_of_mean, _ = batch_means_variance(sq[:, j], 400)
        se = np.sqrt(var_of_mean / n)
        assert abs(sq[:, j].mean() - truth) < 4.0 * se


class ZeroUniform:
    """Generator stub whose every uniform is 0.0 (the smallest value ``random()``
    returns) and every standard normal is 1."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def standard_normal(self, size=None):
        return 1.0 if size is None else np.ones(size)


def test_metropolis_and_exchange_moves_accept_at_a_zero_uniform():
    # u = 0.0 is log u = -inf, which accepts both uphill proposals
    # (math.log(0.0) raises instead)
    target = make_gaussian_target(SIGMA)
    ladder = TemperatureLadder((2.0, 1.0), (0.5,))
    config = KernelConfig(theta=0.0, proposal_covariance=np.eye(2))
    local = rwm_step(target, ladder, 1, np.zeros(2), config, ZeroUniform())
    assert local.accepted and list(local.next) == [1.0, 1.0]
    exchange = limit_ee_step(target, ladder, 1, np.zeros(2), config, ZeroUniform())
    assert exchange.branch == "exchange" and exchange.accepted
    assert list(exchange.next) == list(np.sqrt(2.0) * np.linalg.cholesky(SIGMA) @ np.ones(2))


def test_theta_lower_bound_values_and_limits():
    # kappa^{-1} * (1/t_l - 1/t_prev) = 2 at lambda = 0.5 gives 2/3
    assert theta_lower_bound(0.5, 0.25, 1.0, 2.0) == pytest.approx(2.0 / 3.0)
    # weak drift (lambda -> 1) forbids resampling entirely
    assert theta_lower_bound(1.0 - 1e-12, 0.25, 1.0, 2.0) == pytest.approx(1.0, abs=1e-9)
    # kappa at its supremum also forces the bound to 1
    delta = 0.5
    assert theta_lower_bound(0.5, delta * (1 - 1e-12), 1.0, 2.0) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(KappaTooLargeError):
        theta_lower_bound(0.5, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        theta_lower_bound(1.5, 0.25, 1.0, 2.0)
    with pytest.raises(ValueError):
        theta_lower_bound(0.5, -0.1, 1.0, 2.0)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(theta=1.5)
    with pytest.raises(ValueError):
        KernelConfig(theta=0.5, proposal_covariance=[[1.0, 2.0], [2.0, 1.0]])
    bad_rows = np.array([[0.5, 0.4], [0.0, 1.0]])
    with pytest.raises(ValueError):
        KernelConfig(theta=0.5, base_matrix=bad_rows)


class NanEnergyTarget(GaussianTarget):
    """A Gaussian whose energy is NaN everywhere."""

    def energy(self, x):
        super().energy(x)
        return float("nan")


@pytest.mark.parametrize(
    "kind, theta",
    [("rwm", 1.0), ("ee", 1.0), ("ir", 1.0), ("ir", 0.0),
     ("ee_limit", 1.0), ("ee_limit", 0.0), ("ir_limit", 1.0)],
)
def test_fresh_non_finite_energy_raises_even_with_a_carried_energy(kind, theta):
    target = NanEnergyTarget(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0), (0.5,))
    config = KernelConfig(theta=theta, proposal_covariance=np.eye(2))
    res = Reservoir(dimension=2)  # a push needs a finite energy: the plain Gaussian's
    res.push(np.ones(2), GaussianTarget(np.eye(2)).energy(np.ones(2)))
    rng = np.random.default_rng(8)
    x = np.zeros(2)
    steps = {
        "rwm": lambda: rwm_step(target, ladder, 1, x, config, rng, 0.0),
        "ee": lambda: ee_adaptive_step(target, ladder, 1, x, res, config, rng, 0.0),
        "ir": lambda: ir_adaptive_step(target, ladder, 1, x, res, config, rng, 0.0),
        "ee_limit": lambda: limit_ee_step(target, ladder, 1, x, config, rng, 0.0),
        "ir_limit": lambda: limit_ir_step(target, ladder, 1, x, config, rng, 0.0),
    }
    with pytest.raises(ValueError, match="non-finite energy"):
        steps[kind]()
