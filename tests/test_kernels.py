import hashlib
from pathlib import Path

import numpy as np
import pytest

from eesampler import (
    FiniteTarget,
    GaussianTarget,
    KappaTooLargeError,
    KernelConfig,
    TemperatureLadder,
    acceptance_matrix,
    batch_means_variance,
    finite_kernel_matrix,
    metropolis_matrix,
    neighbor_proposal,
    stationary_distribution,
    theta_lower_bound,
)
from eesampler.cli import load_config
from eesampler.kernels import (
    Variates,
    ee_adaptive_step,
    ir_adaptive_step,
    limit_ee_step,
    limit_ir_step,
    rwm_step,
)
from eesampler.reservoir import Reservoir
from eesampler.targets import importance_coefficient

SIGMA = np.array([[0.96, 2.44], [2.44, 7.04]])
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def variates(rng, dim=None):
    """One step's ``Variates`` from ``rng``: three uniforms and the proposal,
    ``dim`` standard normals or, for a finite target (``dim`` None), a row
    uniform."""
    branch, draw, accept = rng.random(3)
    proposal = rng.random() if dim is None else rng.standard_normal(dim)
    return Variates(branch, draw, accept, proposal)


def finite_setup(energies=(0.0, 0.6, 1.5), temps=(2.0, 1.0), theta=0.5):
    target = FiniteTarget(energies)
    ladder = TemperatureLadder(temps)
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
    target = GaussianTarget(np.eye(2))
    ladder = TemperatureLadder((1.0,))
    config = KernelConfig(proposal_covariance=1e-24 * np.eye(2))
    rng = np.random.default_rng(0)
    x = np.array([1.0, -2.0])
    n = 2000
    accepted = 0
    for _ in range(n):
        out = rwm_step(target, ladder, 0, x, config, variates(rng, 2), target.energy(x))
        accepted += out.accepted
        assert np.abs(out.next - x).max() < 1e-9
    assert accepted / n > 0.999


def test_rwm_long_run_mean_near_zero():
    target = GaussianTarget(np.eye(2))
    ladder = TemperatureLadder((1.0,))
    config = KernelConfig(proposal_covariance=np.eye(2))
    rng = np.random.default_rng(1)
    n = 1_000_000
    x = np.zeros(2)
    energy = target.energy(x)
    total = np.zeros(2)
    first = np.empty(n)
    for i in range(n):
        out = rwm_step(target, ladder, 0, x, config, variates(rng, 2), energy)
        x, energy = out.next, out.energy
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
    res = Reservoir(coefficient=importance_coefficient(ladder, 1))
    res.push(0, target.energy(0))
    rng = np.random.default_rng(2)
    e1 = target.energy(1)
    for _ in range(300):
        v = variates(rng)
        assert ee_adaptive_step(target, ladder, 1, 1, res, config, v, e1).branch == "local"
        assert ir_adaptive_step(target, ladder, 1, 1, res, config, v, e1).branch == "local"
        assert limit_ee_step(target, ladder, 1, 1, config, v, e1).branch == "local"
        assert limit_ir_step(target, ladder, 1, 1, config, v, e1).branch == "local"


def test_ee_downhill_exchange_always_accepted():
    target, ladder, bases, _ = finite_setup()
    config = KernelConfig(theta=1e-12, base_matrix=bases[1])
    res = Reservoir()
    res.push(0, target.energy(0))  # E(0) < E(2): the importance ratio favors the proposal
    rng = np.random.default_rng(3)
    for _ in range(200):
        out = ee_adaptive_step(target, ladder, 1, 2, res, config, variates(rng), target.energy(2))
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
        out = ee_adaptive_step(target, ladder, 1, 0, res, config, variates(rng), target.energy(0))
        assert out.branch == "exchange"
        assert not out.accepted
        assert out.next == 0


def test_ee_empty_reservoir_falls_back_to_local():
    target, ladder, bases, configs = finite_setup()
    rng = np.random.default_rng(4)
    empty = Reservoir()
    for _ in range(200):
        out = ee_adaptive_step(target, ladder, 1, 0, empty, configs[1], variates(rng),
                               target.energy(0))
        assert out.branch == "local"


def test_ee_frozen_reservoir_matches_matrix_row():
    target, ladder, bases, configs = finite_setup()
    res = Reservoir()
    for s in (0, 1, 1, 2, 0):
        res.push(s, target.energy(s))
    mu = np.bincount(res.samples, minlength=3) / res.count
    frozen = finite_kernel_matrix("ee_frozen", target, ladder, 1, bases[1], 0.5, mu=mu)
    rng = np.random.default_rng(5)
    n = 1_000_000
    x = 1
    energy = target.energy(x)
    counts = np.zeros(3)
    for _ in range(n):
        v = variates(rng)
        counts[ee_adaptive_step(target, ladder, 1, x, res, configs[1], v, energy).next] += 1
    freq = counts / n
    for s in range(3):
        p = frozen[x, s]
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(freq[s] - p) < 4.0 * se


def test_ir_frozen_reservoir_matches_matrix_row():
    target, ladder, bases, configs = finite_setup()
    res = Reservoir(coefficient=importance_coefficient(ladder, 1))
    for s in (0, 1, 1, 2, 0):
        res.push(s, target.energy(s))
    mu = np.bincount(res.samples, minlength=3) / res.count
    frozen = finite_kernel_matrix("ir_frozen", target, ladder, 1, bases[1], 0.5, mu=mu)
    rng = np.random.default_rng(6)
    n = 1_000_000
    x = 1
    energy = target.energy(x)
    counts = np.zeros(3)
    for _ in range(n):
        v = variates(rng)
        counts[ir_adaptive_step(target, ladder, 1, x, res, configs[1], v, energy).next] += 1
    freq = counts / n
    for s in range(3):
        p = frozen[x, s]
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(freq[s] - p) < 4.0 * se


def test_ir_single_point_reservoir_starts_inner_move_there():
    target = GaussianTarget(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0))
    config = KernelConfig(theta=1e-12, proposal_covariance=1e-24 * np.eye(2))
    res = Reservoir(dimension=2, coefficient=importance_coefficient(ladder, 1))
    y = np.array([2.5, -1.0])
    res.push(y, target.energy(y))
    rng = np.random.default_rng(7)
    for _ in range(100):
        out = ir_adaptive_step(target, ladder, 1, np.zeros(2), res, config, variates(rng, 2), 0.0)
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
    e1 = target.energy(1)
    for _ in range(n):
        v = variates(rng)
        local += ee_adaptive_step(target, ladder, 1, 1, res, config, v, e1).branch == "local"
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


# sha256 of each kind's matrix bytes at level 1 of finite_5state.yaml, from
# frozen counts mu (a zero among them): a rewrite of the builders keeps
# every bit, as the oracle's reports and the demos read these matrices
KIND_MATRIX_SHA256 = {
    "base": "7876bce43aec9bbd94bbf24ba2a5b3c32a797d031ae2f763d2b556748eb9b4cf",
    "ee_limit": "2e71edc0e2141f2c0d766934ab4c97f1bcbc4781be978936bf5a26bb393608a5",
    "ir_limit": "40c2cda4fc953fbc919d92736d2c3d0ed98550f368fe20be19e8e93a3fd52d1c",
    "ee_frozen": "30ae6313f592b6822d928dd1037d641f198640c9e04be5d9ce7533874545196e",
    "ir_frozen": "badbf4bb446de21d3b4546799a5c8c82eb53b23fe75ff0e657d1edf1923f7395",
}


@pytest.mark.parametrize("kind", KIND_MATRIX_SHA256)
def test_finite_kernel_matrix_bits_are_pinned(kind):
    cfg = load_config(CONFIGS / "finite_5state.yaml")
    mu = np.array([1.0, 3.0, 0.0, 4.0, 2.0])
    m = finite_kernel_matrix(kind, cfg.target, cfg.ladder, 1, cfg.configs[1].base_matrix,
                             cfg.configs[1].theta, mu=mu)
    assert m.dtype == np.float64 and m.shape == (5, 5)
    assert hashlib.sha256(m.tobytes()).hexdigest() == KIND_MATRIX_SHA256[kind]


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
    energy = target.energy(x)
    for _ in range(n):
        out = limit_ir_step(target, ladder, 1, x, config, variates(rng), energy)
        x, energy = out.next, out.energy
        counts[x] += 1
    pi = target.tempered_probabilities(1.0)
    for s in range(5):
        se = np.sqrt(pi[s] * (1 - pi[s]) / n)
        assert abs(counts[s] / n - pi[s]) < 4.0 * se


def test_limit_ee_gaussian_second_moments():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    config = KernelConfig(theta=0.5, proposal_covariance=np.eye(2))
    rng = np.random.default_rng(11)
    n, burn = 400_000, 10_000
    x = np.zeros(2)
    energy = target.energy(x)
    sq = np.zeros((n, 2))
    for i in range(n + burn):
        out = limit_ee_step(target, ladder, 3, x, config, variates(rng, 2), energy)
        x, energy = out.next, out.energy
        if i >= burn:
            sq[i - burn] = x**2
    for j, truth in enumerate((SIGMA[0, 0], SIGMA[1, 1])):
        var_of_mean, _ = batch_means_variance(sq[:, j], 400)
        se = np.sqrt(var_of_mean / n)
        assert abs(sq[:, j].mean() - truth) < 4.0 * se


def test_metropolis_and_exchange_moves_accept_at_a_zero_uniform():
    # u = 0.0 is log u = -inf, which accepts both uphill proposals
    # (math.log(0.0) raises instead)
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((2.0, 1.0))
    config = KernelConfig(theta=0.0, proposal_covariance=np.eye(2))
    # every uniform 0.0 (the smallest value ``random()`` returns), every normal 1
    zero = Variates(0.0, 0.0, 0.0, np.ones(2))
    local = rwm_step(target, ladder, 1, np.zeros(2), config, zero, 0.0)
    assert local.accepted and list(local.next) == [1.0, 1.0]
    exchange = limit_ee_step(target, ladder, 1, np.zeros(2), config, zero, 0.0)
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
    with pytest.raises(ValueError, match="kappa"):  # NaN lies in no interval
        theta_lower_bound(0.5, np.nan, 5.0, 10.0)


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
     ("ee_limit", 1.0), ("ee_limit", 0.0), ("ir_limit", 1.0), ("ir_limit", 0.0)],
)
def test_fresh_non_finite_energy_raises_even_with_a_carried_energy(kind, theta):
    target = NanEnergyTarget(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0))
    config = KernelConfig(theta=theta, proposal_covariance=np.eye(2))
    # a push needs a finite energy: the plain Gaussian's
    res = Reservoir(dimension=2, coefficient=importance_coefficient(ladder, 1))
    res.push(np.ones(2), GaussianTarget(np.eye(2)).energy(np.ones(2)))
    v = variates(np.random.default_rng(8), 2)
    x = np.zeros(2)
    steps = {
        "rwm": lambda: rwm_step(target, ladder, 1, x, config, v, 0.0),
        "ee": lambda: ee_adaptive_step(target, ladder, 1, x, res, config, v, 0.0),
        "ir": lambda: ir_adaptive_step(target, ladder, 1, x, res, config, v, 0.0),
        "ee_limit": lambda: limit_ee_step(target, ladder, 1, x, config, v, 0.0),
        "ir_limit": lambda: limit_ir_step(target, ladder, 1, x, config, v, 0.0),
    }
    with pytest.raises(ValueError, match="non-finite energy"):
        steps[kind]()


def roles_read(kind, branch, finite):
    """The variate roles a step of ``kind`` reads on ``branch``, by the rules of
    the ``ladder`` docstring."""
    local = {"proposal"} if finite else {"proposal", "accept"}
    exact = {"draw"} if finite else {"proposal"}  # an exact draw
    away = {"ee": {"draw", "accept"}, "ir": {"draw"} | local,
            "ee_limit": exact | {"accept"}, "ir_limit": exact}
    return (set() if kind == "rwm" else {"branch"}) | (local if branch == "local" else away[kind])


ROLE_CASES = [
    (kind, branch, finite, role)
    for kind in ("rwm", "ee", "ir", "ee_limit", "ir_limit")
    for branch in ("local", "exchange" if "ee" in kind else "resample")
    if kind != "rwm" or branch == "local"
    for finite in (False, True)
    for role in Variates._fields
    if role not in roles_read(kind, branch, finite)
]


@pytest.mark.parametrize("kind, branch, finite, role", ROLE_CASES)
def test_a_step_ignores_the_variates_its_branch_does_not_read(kind, branch, finite, role):
    """A step uses at most one variate of each role: changing one its branch
    has no use for changes neither the next state, the branch, the
    acceptance nor the energy."""
    if finite:
        target, ladder, _, configs = finite_setup()
        config, dim, pushed = configs[1], None, [0, 1, 2, 1]
    else:
        target, ladder = GaussianTarget(SIGMA), TemperatureLadder((2.0, 1.0))
        config, dim = KernelConfig(theta=0.5, proposal_covariance=np.eye(2)), 2
        pushed = [np.array([1.0, 2.0]), np.array([-0.5, 0.3]), np.zeros(2)]
    res = Reservoir(dimension=dim, coefficient=importance_coefficient(ladder, 1))
    for y in pushed:
        res.push(y, target.energy(y))
    steps = {
        "rwm": lambda x, v, e: rwm_step(target, ladder, 1, x, config, v, e),
        "ee": lambda x, v, e: ee_adaptive_step(target, ladder, 1, x, res, config, v, e),
        "ir": lambda x, v, e: ir_adaptive_step(target, ladder, 1, x, res, config, v, e),
        "ee_limit": lambda x, v, e: limit_ee_step(target, ladder, 1, x, config, v, e),
        "ir_limit": lambda x, v, e: limit_ir_step(target, ladder, 1, x, config, v, e),
    }
    rng = np.random.default_rng(31)
    accepted = set()
    for _ in range(200):
        x = int(rng.integers(3)) if finite else rng.normal(size=2)
        energy = target.energy(x)
        v = variates(rng, dim)
        # a uniform below theta = 0.5 picks the local branch
        v = v._replace(branch=0.5 * v.branch + (0.0 if branch == "local" else 0.5))
        other = variates(rng, dim)
        ref = steps[kind](x, v, energy)
        out = steps[kind](x, v._replace(**{role: getattr(other, role)}), energy)
        assert ref.branch == out.branch == branch
        assert np.array_equal(out.next, ref.next)
        assert out.accepted == ref.accepted and out.energy == ref.energy
        accepted.add(ref.accepted)
    if "accept" in roles_read(kind, branch, finite):
        assert accepted == {True, False}  # the steps tried both outcomes
