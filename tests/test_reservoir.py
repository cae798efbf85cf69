import numpy as np
import pytest
from scipy import stats

from eesampler import EmptyReservoirError, NonFiniteWeightError, Reservoir


def test_first_push_defines_point_mass():
    r = Reservoir(dimension=2)
    x = np.array([1.5, -0.5])
    r.push(x, 0.75)
    assert r.count == 1
    rng = np.random.default_rng(0)
    for _ in range(10):
        drawn, energy = r.sample_uniform(rng.random())
        assert np.array_equal(drawn, x) and energy == 0.75
        drawn, energy = r.sample_weighted(2.0, rng.random())
        assert np.array_equal(drawn, x) and energy == 0.75


@pytest.mark.parametrize("energy", [None, np.nan, np.inf, -np.inf])
def test_push_rejects_a_missing_or_non_finite_energy(energy):
    r = Reservoir()
    with pytest.raises(ValueError, match="finite energy"):
        r.push(0, energy)
    assert r.count == 0


def test_push_same_state_twice_keeps_full_mass_there():
    r = Reservoir()
    r.push(3, 1.0)
    r.push(3, 1.0)
    assert r.count == 2
    assert (np.bincount(r.samples, minlength=5) / r.count)[3] == 1.0


def test_two_point_empirical_mean():
    r = Reservoir(dimension=1)
    r.push(np.array([2.0]), 2.0)
    r.push(np.array([4.0]), 8.0)
    # the stored states realize the empirical measure: mean of x^2 over both
    assert np.mean(r.samples[:, 0] ** 2) == pytest.approx((4.0 + 16.0) / 2.0)


def test_empirical_mean_matches_direct_recomputation_exactly():
    rng = np.random.default_rng(1)
    r = Reservoir(dimension=3)
    pushed = []
    for _ in range(257):  # crosses the buffer-doubling boundary
        x = rng.normal(size=3)
        r.push(x, 0.5 * float(x @ x))
        pushed.append(x)
    direct = np.stack(pushed).mean(axis=0)
    assert np.array_equal(r.samples.mean(axis=0), direct)
    assert r.count == 257


def test_uniform_sampling_frequencies():
    r = Reservoir()
    for s in range(4):
        r.push(s, float(s))
    rng = np.random.default_rng(2)
    n = 100_000
    draws = np.array([r.sample_uniform(u)[0] for u in rng.random(n)])
    counts = np.bincount(draws, minlength=4)
    _, p_value = stats.chisquare(counts, np.full(4, n / 4))
    assert p_value > 0.001


def test_two_element_frequencies_within_four_se():
    r = Reservoir()
    r.push(0, 0.0)
    r.push(1, 1.0)
    rng = np.random.default_rng(3)
    n = 100_000
    freq = np.mean([r.sample_uniform(u)[0] for u in rng.random(n)])
    se = np.sqrt(0.25 / n)
    assert abs(freq - 0.5) < 4.0 * se


def test_equal_weights_behave_uniformly():
    r = Reservoir()
    for s in range(3):
        r.push(s, -5.0)
    rng = np.random.default_rng(4)
    n = 60_000
    draws = np.array([r.sample_weighted(1.0, u)[0] for u in rng.random(n)])
    counts = np.bincount(draws, minlength=3)
    _, p_value = stats.chisquare(counts, np.full(3, n / 3))
    assert p_value > 0.001


def test_weighted_frequencies_match_explicit_normalization():
    r = Reservoir()
    log_w = np.log(np.array([1.0, 2.0, 3.0]))
    for s in range(3):
        r.push(s, -log_w[s])
    expected = np.array([1.0, 2.0, 3.0]) / 6.0  # normalized by direct summation
    rng = np.random.default_rng(5)
    n = 100_000
    draws = np.array([r.sample_weighted(1.0, u)[0] for u in rng.random(n)])
    counts = np.bincount(draws, minlength=3)
    _, p_value = stats.chisquare(counts, expected * n)
    assert p_value > 0.001


def test_dominant_log_weight_never_overflows():
    r = Reservoir()
    log_w = np.array([0.0, 10.0, 710.0])  # exp(710) overflows a float64
    for s in range(3):
        r.push(s, -log_w[s])
    rng = np.random.default_rng(6)
    draws = [r.sample_weighted(1.0, u)[0] for u in rng.random(10_000)]
    assert set(draws) == {2}


def test_draws_reproducible_and_shift_invariant():
    log_w = np.array([0.1, 1.2, -0.7, 0.0, 2.2])

    def draw_sequence(shift, seed):
        r = Reservoir()
        for s in range(5):
            r.push(s, -(log_w[s] + shift))
        rng = np.random.default_rng(seed)
        return [r.sample_weighted(1.0, u)[0] for u in rng.random(200)]

    assert draw_sequence(0.0, 42) == draw_sequence(0.0, 42)
    assert draw_sequence(0.0, 42) == draw_sequence(123.456, 42)


def test_empty_reservoir_errors():
    r = Reservoir()
    u = np.random.default_rng(7).random()
    with pytest.raises(EmptyReservoirError):
        r.sample_uniform(u)
    with pytest.raises(EmptyReservoirError):
        r.sample_weighted(1.0, u)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_weights_rejected():
    r = Reservoir()
    r.push(0, 0.0)
    r.push(1, -1e308)  # finite, but -c * E overflows for c = 10
    u = np.random.default_rng(8).random()
    with pytest.raises(NonFiniteWeightError):
        r.sample_weighted(10.0, u)


def test_states_are_copies_not_views():
    r = Reservoir(dimension=2)
    x = np.array([1.0, 2.0])
    r.push(x, 2.5)
    x[0] = 99.0  # caller-side mutation must not reach the stored state
    drawn, _ = r.sample_uniform(np.random.default_rng(9).random())
    assert drawn[0] == 1.0
    drawn[1] = -5.0  # and mutating a drawn copy must not corrupt the store
    assert r.samples[0, 1] == 2.0


def reference_cdf(energies, coefficient):
    """The full recompute: weight every stored state at the current max."""
    lw = -coefficient * np.asarray(energies, dtype=float)
    return np.cumsum(np.exp(lw - lw.max()))


def reference_draw(energies, coefficient, u):
    cdf = reference_cdf(energies, coefficient)
    k = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
    return min(k, len(cdf) - 1)


def record_table(n_rows, seed):
    """Log weights by row: normal noise, rising records, then a dominant 710
    followed by near-dominant rows (so later draws still vary)."""
    table = np.random.default_rng(seed).normal(scale=2.0, size=n_rows)
    for row, value in [(3, 6.0), (40, 9.0), (300, 15.0), (700, 40.0)]:
        table[row] = value
    table[1100] = 710.0  # exp(710) overflows a float64
    table[1101:] = 709.0 + np.random.default_rng(seed + 1).uniform(size=n_rows - 1101)
    table[1150] = 711.5
    return table


# energies -2 * table at coefficient 0.5 give back the table's log weights exactly
COEFFICIENT = 0.5


@pytest.mark.parametrize("dimension", [None, 2])
def test_weighted_draws_match_full_recompute(dimension):
    table = record_table(1300, seed=11)
    energies = -table / COEFFICIENT
    schedule = np.random.default_rng(12)
    rng = np.random.default_rng(13)
    r = Reservoir(dimension)
    cached, ref = [], []
    while r.count < len(table):
        # zero pushes between draws happen too: a draw with nothing new to weight
        for _ in range(min(int(schedule.integers(0, 12)), len(table) - r.count)):
            k = r.count
            r.push(k if dimension is None else np.array([k, -0.5 * k]), energies[k])
        if r.count == 0:
            continue
        for _ in range(int(schedule.integers(1, 4))):
            u = rng.random()
            state, energy = r.sample_weighted(COEFFICIENT, u)
            k = state if dimension is None else int(state[0])
            assert energy == energies[k]
            cached.append(k)
            ref.append(reference_draw(energies[: r.count], COEFFICIENT, u))
        # a differing last bit almost never changes an index, so compare the
        # cached prefix sums themselves
        assert np.array_equal(r._cum[: r.count], reference_cdf(energies[: r.count], COEFFICIENT))
    assert r.count == 1300  # crossed every doubling from 16 to 2048 rows
    assert cached == ref
    assert len(set(cached[-50:])) > 1  # near-dominant rows keep the tail informative


def test_a_draw_that_raises_leaves_the_cache_intact():
    table = record_table(1300, seed=21)
    energies = -table / COEFFICIENT
    schedule = np.random.default_rng(22)
    rng = np.random.default_rng(23)
    r = Reservoir()
    for step in range(400):
        pushes = min(int(schedule.integers(0, 7)), len(table) - r.count)
        for _ in range(pushes):
            r.push(r.count, energies[r.count])
        if r.count == 0:
            continue
        if step % 37 == 5 and pushes:  # the failing draws see unweighted rows
            with pytest.raises(ValueError, match="coefficient"):
                r.sample_weighted(2 * COEFFICIENT, rng.random())
        u = rng.random()
        drawn, _ = r.sample_weighted(COEFFICIENT, u)
        assert drawn == reference_draw(energies[: r.count], COEFFICIENT, u)
    assert r.count > 1000


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_first_weighted_draw_that_raises_fixes_no_coefficient():
    r = Reservoir()
    r.push(0, 0.0)
    r.push(1, -1e308)
    rng = np.random.default_rng(24)
    with pytest.raises(NonFiniteWeightError):
        r.sample_weighted(10.0, rng.random())
    assert r.sample_weighted(1.0, rng.random())[0] == 1


def _assert_schedule_matches_full_recompute(dimension, run_lengths, n_rows, seed):
    """Push ``run_lengths`` rows between successive draws, one draw each time,
    and check the cached prefix sums and every draw against the full recompute."""
    table = record_table(n_rows, seed)
    energies = -table / COEFFICIENT
    rng = np.random.default_rng(seed + 2)
    r = Reservoir(dimension)
    for pushes in run_lengths:
        for _ in range(pushes):
            k = r.count
            r.push(k if dimension is None else np.array([k, -0.5 * k]), energies[k])
        u = rng.random()
        state, energy = r.sample_weighted(COEFFICIENT, u)
        k = state if dimension is None else int(state[0])
        assert energy == energies[k]
        assert k == reference_draw(energies[: r.count], COEFFICIENT, u)
        assert np.array_equal(r._cum[: r.count], reference_cdf(energies[: r.count], COEFFICIENT))
    assert r.count == n_rows


@pytest.mark.parametrize("dimension", [None, 2])
def test_one_push_before_each_draw_matches_full_recompute(dimension):
    # the ladder's schedule: each level pushes once per iteration, and the
    # level above draws at most once from it before the next push
    _assert_schedule_matches_full_recompute(dimension, [1] * 3000, 3000, seed=31)


@pytest.mark.parametrize("dimension", [None, 2])
def test_long_push_runs_between_draws_match_full_recompute(dimension):
    # a level that takes its local branch for many iterations weights a long
    # run of new rows at its next draw: runs here cross every record row of
    # ``record_table``, its rows near 710 and rows after the last record
    lengths = np.random.default_rng(42).integers(50, 400, size=40)
    lengths = lengths[np.cumsum(lengths) <= 6000].tolist()
    _assert_schedule_matches_full_recompute(dimension, lengths, sum(lengths), seed=41)
