import numpy as np
import pytest
from scipy import stats

from eesampler.reservoir import EmptyReservoirError, NonFiniteWeightError, Reservoir


def test_first_push_defines_point_mass():
    r = Reservoir(dimension=2, coefficient=2.0)
    x = np.array([1.5, -0.5])
    r.push(x, 0.75)
    assert r.count == 1
    rng = np.random.default_rng(0)
    for _ in range(10):
        drawn, energy = r.sample_uniform(rng.random())
        assert np.array_equal(drawn, x) and energy == 0.75
        drawn, energy = r.sample_weighted(rng.random())
        assert np.array_equal(drawn, x) and energy == 0.75


@pytest.mark.parametrize("coefficient", [None, 1.0])
@pytest.mark.parametrize("energy", [None, np.nan, np.inf, -np.inf])
def test_push_rejects_a_missing_or_non_finite_energy(energy, coefficient):
    r = Reservoir(coefficient=coefficient)
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
    r = Reservoir(coefficient=1.0)
    for s in range(3):
        r.push(s, -5.0)
    rng = np.random.default_rng(4)
    n = 60_000
    draws = np.array([r.sample_weighted(u)[0] for u in rng.random(n)])
    counts = np.bincount(draws, minlength=3)
    _, p_value = stats.chisquare(counts, np.full(3, n / 3))
    assert p_value > 0.001


def test_weighted_frequencies_match_explicit_normalization():
    r = Reservoir(coefficient=1.0)
    log_w = np.log(np.array([1.0, 2.0, 3.0]))
    for s in range(3):
        r.push(s, -log_w[s])
    expected = np.array([1.0, 2.0, 3.0]) / 6.0  # normalized by direct summation
    rng = np.random.default_rng(5)
    n = 100_000
    draws = np.array([r.sample_weighted(u)[0] for u in rng.random(n)])
    counts = np.bincount(draws, minlength=3)
    _, p_value = stats.chisquare(counts, expected * n)
    assert p_value > 0.001


def test_dominant_log_weight_never_overflows():
    r = Reservoir(coefficient=1.0)
    log_w = np.array([0.0, 10.0, 710.0])  # exp(710) overflows a float64
    for s in range(3):
        r.push(s, -log_w[s])
    rng = np.random.default_rng(6)
    draws = [r.sample_weighted(u)[0] for u in rng.random(10_000)]
    assert set(draws) == {2}


def test_draws_reproducible_and_shift_invariant():
    log_w = np.array([0.1, 1.2, -0.7, 0.0, 2.2])

    def draw_sequence(shift, seed):
        r = Reservoir(coefficient=1.0)
        for s in range(5):
            r.push(s, -(log_w[s] + shift))
        rng = np.random.default_rng(seed)
        return [r.sample_weighted(u)[0] for u in rng.random(200)]

    assert draw_sequence(0.0, 42) == draw_sequence(0.0, 42)
    assert draw_sequence(0.0, 42) == draw_sequence(123.456, 42)


def test_empty_reservoir_errors():
    r = Reservoir(coefficient=1.0)
    u = np.random.default_rng(7).random()
    with pytest.raises(EmptyReservoirError):
        r.sample_uniform(u)
    with pytest.raises(EmptyReservoirError):
        r.sample_weighted(u)


def test_weighted_draws_need_a_coefficient():
    r = Reservoir()
    r.push(0, 0.0)
    assert r._cum is None  # a reservoir for uniform draws weights nothing
    with pytest.raises(ValueError, match="coefficient"):
        r.sample_weighted(np.random.default_rng(8).random())


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
    r = Reservoir(dimension, COEFFICIENT)
    drawn, ref = [], []
    while r.count < len(table):
        # zero pushes between draws happen too
        for _ in range(min(int(schedule.integers(0, 12)), len(table) - r.count)):
            k = r.count
            r.push(k if dimension is None else np.array([k, -0.5 * k]), energies[k])
        if r.count == 0:
            continue
        for _ in range(int(schedule.integers(1, 4))):
            u = rng.random()
            state, energy = r.sample_weighted(u)
            k = state if dimension is None else int(state[0])
            assert energy == energies[k]
            drawn.append(k)
            ref.append(reference_draw(energies[: r.count], COEFFICIENT, u))
    assert r.count == 1300  # crossed every doubling from 16 to 2048 rows
    assert drawn == ref
    assert len(set(drawn[-50:])) > 1  # near-dominant rows keep the tail informative


@pytest.mark.parametrize("dimension", [None, 2])
def test_prefix_sums_match_full_recompute_after_every_push(dimension):
    # a differing last bit almost never changes an index, so compare the log
    # prefix sums themselves: across every record row of ``record_table``,
    # its rows near 710, the rows after its last record and every doubling
    table = record_table(3000, seed=31)
    energies = -table / COEFFICIENT
    r = Reservoir(dimension, COEFFICIENT)
    for k in range(len(table)):
        r.push(k if dimension is None else np.array([k, -0.5 * k]), energies[k])
        lw = -COEFFICIENT * energies[: r.count]
        assert np.array_equal(r._cum[: r.count], np.logaddexp.accumulate(lw))
    assert r.count == 3000  # crossed every doubling from 16 to 4096 rows


def snapshot(r):
    """Count, capacity, stored rows and log prefix sums of a reservoir."""
    n = r.count
    return (n, len(r._buf), r._buf[:n].copy(), r._energy[:n].copy(), r._cum[:n].copy())


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("dimension", [None, 2])
def test_a_push_with_a_non_finite_log_weight_changes_nothing(dimension):
    coefficient = 10.0  # so that a finite energy, -1e308, has log weight -c * E = inf
    table = record_table(1300, seed=21)
    energies = -table / coefficient
    r = Reservoir(dimension, coefficient)
    for k in range(len(table)):
        if k in (0, 16, 17, 700, 1024, 1101):  # first push, doublings, records, near 710
            before = snapshot(r)
            with pytest.raises(NonFiniteWeightError):
                r.push(0 if dimension is None else np.zeros(2), -1e308)
            assert all(np.array_equal(a, b) for a, b in zip(before, snapshot(r)))
        r.push(k if dimension is None else np.array([k, -0.5 * k]), energies[k])
    u = np.random.default_rng(23).random()
    drawn, _ = r.sample_weighted(u)
    k = drawn if dimension is None else int(drawn[0])
    assert k == reference_draw(energies, coefficient, u)
