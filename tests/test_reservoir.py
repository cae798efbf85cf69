import numpy as np
import pytest
from scipy import stats

from eesampler import EmptyReservoirError, NonFiniteWeightError, Reservoir


def test_first_push_defines_point_mass():
    r = Reservoir(dimension=2)
    x = np.array([1.5, -0.5])
    r.push(x)
    assert r.count == 1
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert np.array_equal(r.sample_uniform(rng), x)


def test_push_same_state_twice_keeps_full_mass_there():
    r = Reservoir()
    r.push(3)
    r.push(3)
    assert r.count == 2
    assert r.empirical_distribution(5)[3] == 1.0


def test_two_point_empirical_mean():
    r = Reservoir(dimension=1)
    r.push(np.array([2.0]))
    r.push(np.array([4.0]))
    f = lambda xs: xs[:, 0] ** 2
    assert r.empirical_mean(f) == pytest.approx((4.0 + 16.0) / 2.0)


def test_empirical_mean_matches_direct_recomputation_exactly():
    rng = np.random.default_rng(1)
    r = Reservoir(dimension=3)
    pushed = []
    for _ in range(257):  # crosses the buffer-doubling boundary
        x = rng.normal(size=3)
        r.push(x)
        pushed.append(x)
    direct = np.stack(pushed).mean(axis=0)
    assert np.array_equal(r.empirical_mean(), direct)
    assert r.count == 257


def test_uniform_sampling_frequencies():
    r = Reservoir()
    for s in range(4):
        r.push(s)
    rng = np.random.default_rng(2)
    n = 100_000
    draws = np.array([r.sample_uniform(rng) for _ in range(n)])
    counts = np.bincount(draws, minlength=4)
    _, p_value = stats.chisquare(counts, np.full(4, n / 4))
    assert p_value > 0.001


def test_two_element_frequencies_within_four_se():
    r = Reservoir()
    r.push(0)
    r.push(1)
    rng = np.random.default_rng(3)
    n = 100_000
    freq = np.mean([r.sample_uniform(rng) for _ in range(n)])
    se = np.sqrt(0.25 / n)
    assert abs(freq - 0.5) < 4.0 * se


def test_equal_weights_behave_uniformly():
    r = Reservoir()
    for s in range(3):
        r.push(s)
    rng = np.random.default_rng(4)
    n = 60_000
    draws = np.array([r.sample_weighted(lambda xs: np.full(len(xs), 5.0), rng) for _ in range(n)])
    counts = np.bincount(draws, minlength=3)
    _, p_value = stats.chisquare(counts, np.full(3, n / 3))
    assert p_value > 0.001


def test_weighted_frequencies_match_explicit_normalization():
    r = Reservoir()
    for s in range(3):
        r.push(s)
    log_w = np.log(np.array([1.0, 2.0, 3.0]))
    expected = np.array([1.0, 2.0, 3.0]) / 6.0  # normalized by direct summation
    rng = np.random.default_rng(5)
    n = 100_000
    draws = np.array([r.sample_weighted(lambda xs: log_w[xs], rng) for _ in range(n)])
    counts = np.bincount(draws, minlength=3)
    _, p_value = stats.chisquare(counts, expected * n)
    assert p_value > 0.001


def test_dominant_log_weight_never_overflows():
    r = Reservoir()
    for s in range(3):
        r.push(s)
    log_w = np.array([0.0, 10.0, 710.0])  # exp(710) overflows a float64
    rng = np.random.default_rng(6)
    draws = [r.sample_weighted(lambda xs: log_w[xs], rng) for _ in range(10_000)]
    assert set(draws) == {2}


def test_draws_reproducible_and_shift_invariant():
    values = np.array([0.2, -1.0, 3.0, 0.5, 2.0])
    log_w = np.array([0.1, 1.2, -0.7, 0.0, 2.2])

    def draw_sequence(shift, seed):
        r = Reservoir()
        for s in range(5):
            r.push(s)
        rng = np.random.default_rng(seed)
        return [r.sample_weighted(lambda xs: log_w[xs] + shift, rng) for _ in range(200)]

    assert draw_sequence(0.0, 42) == draw_sequence(0.0, 42)
    assert draw_sequence(0.0, 42) == draw_sequence(123.456, 42)
    assert values is not None  # silence linters about unused helper data


def test_empty_reservoir_errors():
    r = Reservoir()
    rng = np.random.default_rng(7)
    with pytest.raises(EmptyReservoirError):
        r.sample_uniform(rng)
    with pytest.raises(EmptyReservoirError):
        r.sample_weighted(lambda xs: np.zeros(len(xs)), rng)
    with pytest.raises(EmptyReservoirError):
        r.empirical_mean()


def test_non_finite_weights_rejected():
    r = Reservoir()
    r.push(0)
    r.push(1)
    rng = np.random.default_rng(8)
    with pytest.raises(NonFiniteWeightError):
        r.sample_weighted(lambda xs: np.array([0.0, np.inf]), rng)


def test_states_are_copies_not_views():
    r = Reservoir(dimension=2)
    x = np.array([1.0, 2.0])
    r.push(x)
    x[0] = 99.0  # caller-side mutation must not reach the stored state
    rng = np.random.default_rng(9)
    drawn = r.sample_uniform(rng)
    assert drawn[0] == 1.0
    drawn[1] = -5.0  # and mutating a drawn copy must not corrupt the store
    assert r.samples[0, 1] == 2.0


def reference_cdf(samples, log_weight):
    """The full recompute: weight every stored state at the current max."""
    lw = np.asarray(log_weight(samples), dtype=float)
    return np.cumsum(np.exp(lw - lw.max()))


def reference_draw(samples, log_weight, rng):
    cdf = reference_cdf(samples, log_weight)
    k = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
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


@pytest.mark.parametrize("dimension", [None, 2])
def test_weighted_draws_match_full_recompute(dimension):
    table = record_table(1300, seed=11)
    if dimension is None:
        log_weight = lambda xs: table[xs]
        index_of = lambda s: s
    else:
        log_weight = lambda xs: table[xs[:, 0].astype(int)]
        index_of = lambda s: int(s[0])
    schedule = np.random.default_rng(12)
    rng_cached, rng_ref = np.random.default_rng(13), np.random.default_rng(13)
    r = Reservoir(dimension)
    cached, ref = [], []
    while r.count < len(table):
        # zero pushes between draws happen too: a draw with nothing new to weight
        for _ in range(min(int(schedule.integers(0, 12)), len(table) - r.count)):
            k = r.count
            r.push(k if dimension is None else np.array([k, -0.5 * k]))
        if r.count == 0:
            continue
        for _ in range(int(schedule.integers(1, 4))):
            cached.append(index_of(r.sample_weighted(log_weight, rng_cached)))
            ref.append(reference_draw(r.samples, log_weight, rng_ref))
        # a differing last bit almost never changes an index, so compare the
        # cached prefix sums themselves
        assert np.array_equal(r._cum[: r.count], reference_cdf(r.samples, log_weight))
    assert r.count == 1300  # crossed every doubling from 16 to 2048 rows
    assert cached == ref
    assert len(set(cached[-50:])) > 1  # near-dominant rows keep the tail informative


def test_each_state_is_weighted_once_and_errors_leave_the_cache_intact():
    table = record_table(1300, seed=21)
    handed = []

    def counting(xs):
        handed.append(len(xs))
        return table[xs]

    def poisoned(xs):
        out = table[xs].copy()
        out[-1] = np.inf
        return out

    schedule = np.random.default_rng(22)
    rng_cached, rng_ref = np.random.default_rng(23), np.random.default_rng(23)
    r = Reservoir()
    for step in range(400):
        pushes = min(int(schedule.integers(0, 7)), len(table) - r.count)
        for _ in range(pushes):
            r.push(r.count)
        if r.count == 0:
            continue
        if step % 37 == 5 and pushes:  # the failing draws see unweighted rows
            with pytest.raises(NonFiniteWeightError):
                r.sample_weighted(poisoned, rng_cached)
            with pytest.raises(ValueError):
                r.sample_weighted(lambda xs: table[xs][:-1], rng_cached)
        drawn = r.sample_weighted(counting, rng_cached)
        assert drawn == reference_draw(r.samples, lambda xs: table[xs], rng_ref)
    assert r.count > 1000
    assert sum(handed) == r.count
