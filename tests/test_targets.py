import numpy as np
import pytest
from scipy import stats

from eesampler import FiniteTarget, GaussianTarget, TemperatureLadder, ladder_configs
from eesampler.ladder import check_adaptive_thetas
from eesampler.targets import _matvec, checked_energy, importance_coefficient

SIGMA = np.array([[0.96, 2.44], [2.44, 7.04]])


def log_density(target, ladder, level, x):
    """Unnormalized log density -E(x)/t_level of the tempered law at ``level``."""
    return -checked_energy(target, x) / ladder.temperature(level)


def log_weight(target, ladder, level, x):
    """log r at ``level``, as the kernels form it: -E(x) times the importance coefficient."""
    return -checked_energy(target, x) * importance_coefficient(ladder, level)


def test_finite_log_density_difference_is_log_two():
    target = FiniteTarget([0.0, np.log(2.0)])
    ladder = TemperatureLadder((2.0, 1.0))
    d0 = log_density(target, ladder, 1, 0)
    d1 = log_density(target, ladder, 1, 1)
    assert d0 - d1 == pytest.approx(np.log(2.0), abs=1e-15)


def test_gaussian_mode_at_origin_on_grid():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((2.0, 1.0))
    at_origin = log_density(target, ladder, 1, np.zeros(2))
    grid = np.linspace(-3.0, 3.0, 13)
    for a in grid:
        for b in grid:
            if a == 0.0 and b == 0.0:
                continue
            assert log_density(target, ladder, 1, np.array([a, b])) < at_origin


def test_tempering_halves_log_density():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((2.0, 1.0))
    x = np.array([1.0, 1.0])
    cold = log_density(target, ladder, 1, x)
    hot = log_density(target, ladder, 0, x)
    assert hot == pytest.approx(0.5 * cold, rel=1e-14)


def test_level_differences_match_energy_scaling_exactly():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=2) * 3
        e = target.energy(x)
        for m in range(4):
            for l in range(4):
                diff = log_density(target, ladder, l, x) - log_density(
                    target, ladder, m, x
                )
                expected = -e * (1.0 / ladder.temperatures[l] - 1.0 / ladder.temperatures[m])
                assert diff == pytest.approx(expected, abs=1e-12)


def test_importance_log_weight_values():
    ladder = TemperatureLadder((2.0, 1.0))
    zero = FiniteTarget([0.0, 0.0])
    assert log_weight(zero, ladder, 1, 0) == 0.0
    three = FiniteTarget([3.0])
    assert log_weight(three, ladder, 1, 0) == pytest.approx(-1.5)


def test_importance_weight_is_log_density_increment():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    rng = np.random.default_rng(3)
    for level in (1, 2, 3):
        x, y = rng.normal(size=2), rng.normal(size=2)
        lhs = log_weight(target, ladder, level, x) - log_weight(
            target, ladder, level, y
        )
        rhs = (
            log_density(target, ladder, level, x)
            - log_density(target, ladder, level - 1, x)
        ) - (
            log_density(target, ladder, level, y)
            - log_density(target, ladder, level - 1, y)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_equal_energy_acceptance_ratio_is_one():
    target = FiniteTarget([1.7, 1.7])
    ladder = TemperatureLadder((3.0, 1.0))
    r0 = log_weight(target, ladder, 1, 0)
    r1 = log_weight(target, ladder, 1, 1)
    assert np.exp(r1 - r0) == 1.0


def test_gaussian_target_refuses_a_covariance_without_a_finite_inverse():
    # Cholesky succeeds on the subnormal 1e-320, but the float inverse holds
    # NaN, which would make every energy NaN, the origin's included
    with pytest.raises(ValueError, match="covariance is too near singular"):
        GaussianTarget([[1.0, 0.0], [0.0, 1e-320]])


def test_importance_weight_rejects_level_zero():
    ladder = TemperatureLadder((2.0, 1.0))
    with pytest.raises(ValueError, match="level 0 has no importance weight"):
        importance_coefficient(ladder, 0)


def test_log_density_rejects_bad_level_and_nonfinite_state():
    target = GaussianTarget(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0))
    with pytest.raises(ValueError):
        log_density(target, ladder, 2, np.zeros(2))
    with pytest.raises(ValueError):
        log_density(target, ladder, 1, np.array([np.nan, 0.0]))


def test_checked_energy_has_one_rule_for_a_state_and_a_stack():
    # a non-finite energy names its state, alone or in a stack; finite
    # energies whose sum overflows pass
    gaussian = GaussianTarget(np.eye(2))
    bad = np.array([np.nan, 0.0])
    for x in (bad, np.stack([np.zeros(2), bad])):
        with pytest.raises(ValueError, match=r"non-finite energy at state array\(\[nan,"):
            checked_energy(gaussian, x)
    target = FiniteTarget([0.0, 1e308, 1e308])
    assert checked_energy(target, 1) == 1e308
    with np.errstate(over="ignore"):
        assert list(checked_energy(target, np.array([1, 2]))) == [1e308, 1e308]


def test_gaussian_identity_sampler_moments():
    target = GaussianTarget(np.eye(2))
    rng = np.random.default_rng(11)
    draws = target.tempered_draw(1.0, rng.standard_normal((100_000, 2)))
    n = draws.shape[0]
    # second-moment s.e. for a unit Gaussian is sqrt(2/n)
    for i in range(2):
        assert abs(draws[:, i].mean()) < 3.0 / np.sqrt(n)
        assert abs((draws[:, i] ** 2).mean() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_gaussian_paper_covariance_moments():
    target = GaussianTarget(SIGMA)
    rng = np.random.default_rng(12)
    draws = target.tempered_draw(1.0, rng.standard_normal((200_000, 2)))
    n = draws.shape[0]
    for i in range(2):
        var = SIGMA[i, i]
        se = var * np.sqrt(2.0 / n)
        assert abs((draws[:, i] ** 2).mean() - var) < 4.0 * se
    cross_se = np.sqrt((SIGMA[0, 0] * SIGMA[1, 1] + SIGMA[0, 1] ** 2) / n)
    assert abs((draws[:, 0] * draws[:, 1]).mean() - SIGMA[0, 1]) < 4.0 * cross_se


def test_tempered_gaussian_scales_covariance_by_temperature():
    # the t*Sigma rescaling is a derived fact: validate it against moments
    # of one million exact draws before anything else relies on it
    target = GaussianTarget(SIGMA)
    rng = np.random.default_rng(13)
    t = 10.0
    draws = target.tempered_draw(t, rng.standard_normal((1_000_000, 2)))
    n = draws.shape[0]
    for i in range(2):
        var = t * SIGMA[i, i]
        se = var * np.sqrt(2.0 / n)
        assert abs((draws[:, i] ** 2).mean() - var) < 4.0 * se
    cross = t * SIGMA[0, 1]
    cross_se = np.sqrt((t * SIGMA[0, 0] * t * SIGMA[1, 1] + cross**2) / n)
    assert abs((draws[:, 0] * draws[:, 1]).mean() - cross) < 4.0 * cross_se


def test_finite_target_uniform_when_energies_equal():
    target = FiniteTarget([2.5, 2.5, 2.5])
    for t in (0.3, 1.0, 7.0):
        assert target.tempered_probabilities(t) == pytest.approx(np.full(3, 1 / 3))


def test_finite_target_two_state_probabilities():
    target = FiniteTarget([0.0, np.log(2.0)])
    assert target.tempered_probabilities(1.0) == pytest.approx([2 / 3, 1 / 3])


def test_finite_target_three_state_probabilities_by_direct_normalization():
    energies = np.array([0.0, 1.0, 2.0])
    weights = np.exp(-energies / 2.0)
    expected = weights / weights.sum()
    target = FiniteTarget(energies)
    assert target.tempered_probabilities(2.0) == pytest.approx(expected, abs=1e-15)


def test_finite_sampler_chi_square_goodness_of_fit():
    target = FiniteTarget([0.0, 0.7, 1.3, 2.9])
    rng = np.random.default_rng(14)
    n = 1_000_000
    draws = target.tempered_draw(1.0, rng.random(n))
    counts = np.bincount(draws, minlength=4)
    expected = target.tempered_probabilities(1.0) * n
    _, p_value = stats.chisquare(counts, expected)
    assert p_value > 0.001


def test_finite_sampler_stays_on_states_with_mass_at_the_top_uniform():
    # both tempered laws' cumulative sums reach only 0.9999999999999999, and
    # state 3 of the second has no mass (exp(-800) underflows to 0)
    top = 1.0 - 2.0**-53  # the largest double below 1
    for energies in ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 800.0]):
        target = FiniteTarget(energies)
        assert target.tempered_draw(1.0, top) == 2
        assert list(target.tempered_draw(1.0, np.full(3, top))) == [2, 2, 2]


def test_ladder_validation():
    with pytest.raises(ValueError):
        TemperatureLadder((1.0, 2.0))
    with pytest.raises(ValueError):
        TemperatureLadder((2.0, 1.5))
    with pytest.raises(ValueError):
        TemperatureLadder((2.0, -1.0))
    # theta lives on the kernel configs: one per adaptive level, in (0, 1]
    ladder = TemperatureLadder((4.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="one theta per adaptive level"):
        ladder_configs(ladder, (0.5,))
    with pytest.raises(ValueError, match="adaptive levels need theta in"):
        check_adaptive_thetas(ladder_configs(ladder, (0.5, 0.0)))
    configs = ladder_configs(ladder, (0.5, 1.0))
    assert [config.theta for config in configs] == [1.0, 0.5, 1.0]
    check_adaptive_thetas(configs)  # theta 1 is allowed
    with pytest.raises(ValueError, match="one theta per adaptive level"):
        ladder_configs(TemperatureLadder((4.0, 1.0)), ())


def test_target_construction_errors():
    with pytest.raises(ValueError):
        GaussianTarget([[1.0, 2.0], [2.0, 1.0]])  # not positive definite
    with pytest.raises(ValueError):
        GaussianTarget([[1.0, 0.5], [0.4, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        FiniteTarget([])
    with pytest.raises(ValueError):
        FiniteTarget([0.0, np.inf])


@pytest.mark.parametrize("d", [1, 2, 5, 9, 20])
def test_energy_and_draw_rows_have_the_same_bits_in_any_stack(d):
    """``energy``, the Gaussian draws and the random-walk steps (``_matvec``)
    work row by row, so a row's bits are the same alone, as a row view of a
    2-D array such as ``Trajectory.states``, and inside a stack of any shape
    or memory order: the batched engine and the scalar kernels agree bit for
    bit only because of this.  Each equals its matrix formula to rounding."""
    rng = np.random.default_rng(30 + d)
    if d == 2:
        cov = SIGMA
    else:
        a = rng.normal(size=(d, d))
        cov = a @ a.T + d * np.eye(d)
    target = GaussianTarget(cov)
    precision, chol = np.linalg.inv(cov), np.linalg.cholesky(cov)
    states = rng.normal(scale=3.0, size=(1000, d))
    noise = rng.standard_normal((1000, d))
    energies = target.energy(states)
    draws = target.tempered_draw(2.5, noise)
    steps = _matvec(chol, noise)
    for k, (row, z) in enumerate(zip(states, noise)):
        for x in (row, row.copy()):
            assert target.energy(x) == energies[k]
        assert np.array_equal(target.tempered_draw(2.5, z), draws[k])
        assert np.array_equal(_matvec(chol, z.copy()), steps[k])
    assert np.array_equal(target.energy(states.reshape(10, 100, d)).ravel(), energies)
    assert np.array_equal(target.tempered_draw(2.5, noise.reshape(4, 250, d)).reshape(-1, d),
                          draws)
    assert np.array_equal(target.energy(np.asfortranarray(states)), energies)
    assert np.array_equal(_matvec(chol, np.asfortranarray(noise)), steps)
    # one matrix per level, broadcast over a (replication, level, d) stack
    mats = np.stack([chol, 2.0 * chol])
    per_level = _matvec(mats, noise.reshape(500, 2, d))
    for k, z in enumerate(noise):
        assert np.array_equal(per_level[k // 2, k % 2], _matvec(mats[k % 2], z))
    np.testing.assert_allclose(energies, 0.5 * np.einsum("ni,ij,nj->n", states, precision, states),
                               rtol=1e-12)
    np.testing.assert_allclose(steps, noise @ chol.T, rtol=1e-12, atol=1e-12)
