import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy import stats

from eesampler import (
    FiniteTarget,
    GaussianTarget,
    KernelConfig,
    TemperatureLadder,
    batch_means_variance,
    finite_kernel_matrix,
    ladder_configs,
    metropolis_matrix,
    neighbor_proposal,
    replication_seed,
    run_sampler,
)
from eesampler.cli import load_config
from eesampler.kernels import (
    Variates,
    limit_ee_step,
    limit_ir_step,
    rwm_step,
)
from eesampler.analysis import TASK_MEMORY_BUDGET
from eesampler.ladder import (
    ADAPTIVE_KINDS,
    BLOCK,
    BRANCH_CODES,
    SINGLE_KINDS,
    _engine,
    init_ladder_state,
    ladder_step,
    level_rng,
    level_variates,
    replication_bytes,
    run_ladder,
    run_single,
)

SIGMA = np.array([[0.96, 2.44], [2.44, 7.04]])


def finite_ladder(energies=(0.0, 0.4, 0.9, 1.5, 2.2), temps=(4.0, 2.0, 1.0), theta=0.5,
                  move_prob=1.0):
    target = FiniteTarget(energies)
    ladder = TemperatureLadder(temps)
    proposal = neighbor_proposal(target.state_count, move_prob)
    bases = [metropolis_matrix(proposal, -np.asarray(energies) / t) for t in temps]
    configs = ladder_configs(ladder, (theta,) * (len(temps) - 1), base_matrices=bases)
    return target, ladder, configs


def test_zero_adaptive_levels_is_plain_rwm():
    target = GaussianTarget(np.eye(2))
    ladder = TemperatureLadder((1.0,))
    configs = ladder_configs(ladder, (), proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 500, seed=5)
    single = run_single(target, ladder, configs[0], "rwm", 500, seed=5)
    assert np.array_equal(traj.states[0], single.states[0])


def test_first_iteration_takes_local_branch_everywhere():
    target, ladder, configs = finite_ladder()
    traj = run_ladder(target, ladder, configs, "ee", 1, seed=0)
    assert traj.n_iterations == 1
    assert np.all(traj.branches[0] == BRANCH_CODES["local"])


def test_exchange_at_step_two_reads_only_the_first_hot_state():
    # the classic order-of-update bug: pushing before advancing would let
    # the level-1 step at n=2 see X_2^(0) (or the initial state 0), and from
    # state 0 either differs from X_1^(0) in about half of the seeds
    target = FiniteTarget([0.0] * 5)  # equal energies: exchanges always accepted
    ladder = TemperatureLadder((2.0, 1.0))
    base = neighbor_proposal(5)  # uniform target: the proposal is already stationary
    configs = ladder_configs(ladder, (1e-9,), base_matrices=[base, base])
    exchanges = 0
    for seed in range(300):
        traj = run_ladder(target, ladder, configs, "ee", 2, seed=seed)
        if traj.branches[1, 1] == BRANCH_CODES["exchange"]:
            exchanges += 1
            assert traj.states[1][1] == traj.states[0][0]
    assert exchanges > 250


def test_reservoir_counts_track_iteration():
    target, ladder, configs = finite_ladder()
    state = init_ladder_state(target, ladder, "ee")
    steps = zip(*(level_variates(1, level, target) for level in range(ladder.n_levels)))
    for n in range(1, 20):
        ladder_step(state, target, ladder, configs, next(steps))
        for res in state.reservoirs:
            assert res.count == n


def test_run_ladder_deterministic():
    target, ladder, configs = finite_ladder()
    a = run_ladder(target, ladder, configs, "ir", 400, seed=9)
    b = run_ladder(target, ladder, configs, "ir", 400, seed=9)
    for la, lb in zip(a.states, b.states):
        assert np.array_equal(la, lb)
    assert np.array_equal(a.branches, b.branches)
    assert np.array_equal(a.accepted, b.accepted)


def test_paper_setup_runs_and_has_full_shape():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    configs = ladder_configs(ladder, (0.5, 0.5, 0.5), proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 2000, seed=42)
    assert traj.n_levels == 4
    assert all(level.shape == (2000, 2) for level in traj.states)
    # exchange branch appears once reservoirs fill
    assert traj.branch_fraction(3, "exchange") > 0.3


def test_level_zero_trace_matches_single_rwm_run():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    configs = ladder_configs(ladder, (0.5, 0.5, 0.5), proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 300, seed=77)
    # a random walk at level 0 on level 0's variate stream, stepped by hand
    x, states = target.initial_state(), []
    energy = target.energy(x)
    for _, v in zip(range(300), level_variates(77, 0, target)):
        out = rwm_step(target, ladder, 0, x, configs[0], v, energy)
        x, energy = out.next, out.energy
        states.append(x)
    assert np.array_equal(traj.states[0], states)


def test_run_single_rwm_matches_manual_metropolis():
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    config = KernelConfig(theta=1.0, proposal_covariance=np.eye(2))
    seed, n, level = 123, 500, 3
    traj = run_single(target, ladder, config, "rwm", n, seed=seed)
    # independent reimplementation of the block variate schedule: per block,
    # (branch, draw, accept) uniforms and then the proposal normals
    rng = level_rng(seed, level)
    t = ladder.temperature(level)
    x = np.zeros(2)
    states = []
    while len(states) < n:
        _, _, accept = rng.random((3, BLOCK))
        for u, z in zip(accept, rng.standard_normal((BLOCK, 2))):
            y = x + z
            lar = (-target.energy(y) / t) - (-target.energy(x) / t)
            if u > 0.0 and np.log(u) < lar:
                x = y
            states.append(x.copy())
    assert np.array_equal(traj.states[0], np.array(states[:n]))


def test_limit_ir_theta_zero_has_no_autocorrelation():
    target = GaussianTarget(np.eye(1))
    ladder = TemperatureLadder((2.0, 1.0))
    config = KernelConfig(theta=0.0, proposal_covariance=np.eye(1))
    traj = run_single(target, ladder, config, "ir_limit", 100_000, seed=6)
    x = traj.states[0][:, 0]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1) < 4.0 / np.sqrt(len(x))
    assert traj.branch_fraction(0, "resample") == 1.0


def test_limit_ee_occupation_matches_stationary_law():
    energies = (0.0, 0.5, 1.1, 2.0, 3.2)
    target = FiniteTarget(energies)
    ladder = TemperatureLadder((2.0, 1.0))
    base = metropolis_matrix(neighbor_proposal(5), -np.asarray(energies))
    config = KernelConfig(theta=0.5, base_matrix=base)
    n = 1_000_000
    traj = run_single(target, ladder, config, "ee_limit", n, seed=8)
    pi = target.tempered_probabilities(1.0)
    values = traj.states[0]
    for s in range(5):
        ind = (values == s).astype(float)
        var_of_mean, _ = batch_means_variance(ind, 1000)
        se = np.sqrt(var_of_mean / n)
        assert abs(ind.mean() - pi[s]) < 4.0 * se


@pytest.mark.parametrize("scheme", ["ee", "ir"])
def test_adaptive_ladder_law_of_large_numbers(scheme):
    target, ladder, configs = finite_ladder()
    n = 100_000
    traj = run_ladder(target, ladder, configs, scheme, n, seed=13)
    for level in range(ladder.n_levels):
        pi = target.tempered_probabilities(ladder.temperatures[level])
        truth = float(pi @ np.arange(5))
        values = traj.states[level].astype(float)
        var_of_mean, _ = batch_means_variance(values, 200)
        se = np.sqrt(var_of_mean / n)
        assert abs(values.mean() - truth) < 4.0 * se


def invalid_runs():
    """(id, the ``run_sampler`` arguments before the seed, a match of the
    error) of each kind of invalid run."""
    gauss, ladder = GaussianTarget(np.eye(2)), TemperatureLadder((2.0, 1.0))
    configs = ladder_configs(ladder, (0.5,), proposal_covariance=np.eye(2))
    # theta 0 would never take the local branch on a non-empty reservoir
    theta_0 = ladder_configs(ladder, (0.0,), proposal_covariance=np.eye(2))
    wide = ladder_configs(ladder, (0.5,), proposal_covariance=np.eye(3))
    finite, finite_temps, _ = finite_ladder()  # five states
    return [
        ("unknown kind", ("nope", gauss, ladder, configs, 10), "unknown sampler kind"),
        ("no iterations", ("rwm", gauss, ladder, configs, 0), "n_iterations must be at least 1"),
        ("ee_limit on one level", ("ee_limit", gauss, TemperatureLadder((1.0,)), configs[-1:], 10),
         "hotter level"),
        ("one config for two levels", ("ee", gauss, ladder, configs[-1:], 10),
         "need 2 kernel configs, got 1"),
        ("no config", ("rwm", gauss, ladder, (), 10), "need a kernel config, got none"),
        ("adaptive theta 0", ("ee", gauss, ladder, theta_0, 10), "adaptive levels need theta in"),
    ] + [
        (f"{kind} 3-dimensional proposal", (kind, gauss, ladder, wide, 10),
         r"proposal shape \(3, 3\) does not match the target's size 2")
        for kind in ADAPTIVE_KINDS + SINGLE_KINDS
    ] + [
        (f"{kind} {size}x{size} base matrix", (kind, finite, finite_temps, ladder_configs(
            finite_temps, (0.5, 0.5), base_matrices=[neighbor_proposal(size)] * 3), 10),
         rf"base matrix shape \({size}, {size}\) does not match the target's size 5")
        for kind in ADAPTIVE_KINDS + SINGLE_KINDS
        for size in (3, 7)
    ]


INVALID_RUNS = invalid_runs()


@pytest.mark.parametrize("args, match", [case[1:] for case in INVALID_RUNS],
                         ids=[case[0] for case in INVALID_RUNS])
def test_run_sampler_validations(args, match):
    """Every invalid run fails up front, with one message on both paths."""
    messages = []
    for seed in (1, [1, 2]):
        with pytest.raises(ValueError, match=match) as raised:
            run_sampler(*args, seed=seed)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_run_ladder_takes_thetas_from_the_configs():
    target = GaussianTarget(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0))
    # theta 1 takes only the local branch at level 1; theta 0.8 also exchanges
    configs = ladder_configs(ladder, (1.0,), proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 200, seed=0)
    assert traj.branch_fraction(1, "local") == 1.0
    configs = ladder_configs(ladder, (0.8,), proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 200, seed=0)
    assert traj.branch_fraction(1, "exchange") > 0.0


def test_run_sampler_dispatch():
    target, ladder, configs = finite_ladder()
    adaptive = run_sampler("ee", target, ladder, configs, 50, seed=3)
    assert adaptive.n_levels == 3
    single = run_sampler("rwm", target, ladder, configs, 50, seed=3)
    assert single.n_levels == 1


def test_trajectory_csv_roundtrip(tmp_path):
    target, ladder, configs = finite_ladder()
    traj = run_ladder(target, ladder, configs, "ee", 25, seed=4)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,level,state,branch,accepted"
    assert len(lines) == 1 + 25 * 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert int(first[2]) == traj.states[0][0]


# --- the engine against the scalar kernels ---------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
BUNDLED_CASES = [
    (config, kind)
    for config in ("gaussian_table1.yaml", "finite_5state.yaml")
    for kind in ADAPTIVE_KINDS + SINGLE_KINDS
]
SINGLE_KERNELS = {"rwm": rwm_step, "ee_limit": limit_ee_step, "ir_limit": limit_ir_step}


def stream_variates(seed, level, n, finite, dim):
    """The ``Variates`` of each of the first n steps of one level's stream,
    rebuilt from the documented block layout."""
    rng = level_rng(seed, level)
    steps = []
    while len(steps) < n:
        branch, draw, accept = rng.random((3, BLOCK))
        proposal = rng.random(BLOCK) if finite else rng.standard_normal((BLOCK, dim))
        steps.extend(map(Variates, branch, draw, accept, proposal))
    return steps[:n]


def engine_run(kind, target, ladder, configs, n, seed):
    """Replication ``seed`` of the engine, run in a batch of two."""
    return run_sampler(kind, target, ladder, configs, n, [seed, seed + 1])[0]


def assert_scalar_replay(traj, kind, target, ladder, configs, n, seed):
    """Replay ``engine_run``'s Trajectory ``traj`` through ``ladder_step`` or the
    single-chain kernel with the engine's variates rebuilt here: the same
    states, branches and acceptances, and every carried energy equals a fresh
    evaluation."""
    finite = target.kind == "finite"
    dim = None if finite else target.dimension
    levels = range(ladder.n_levels) if kind in ADAPTIVE_KINDS else [ladder.top_level]
    variates = [stream_variates(seed, level, n, finite, dim) for level in levels]
    if kind in ADAPTIVE_KINDS:
        state = init_ladder_state(target, ladder, kind)
    else:
        x = target.initial_state()
        energy = target.energy(x)
    for step in range(n):
        step_variates = [stream[step] for stream in variates]
        if kind in ADAPTIVE_KINDS:
            outs = ladder_step(state, target, ladder, configs, step_variates)
            carried = list(zip(state.states, state.energies))
        else:
            outs = [SINGLE_KERNELS[kind](target, ladder, levels[0], x, configs[-1],
                                         step_variates[0], energy)]
            x, energy = outs[0].next, outs[0].energy
            carried = [(x, energy)]
        for j, out in enumerate(outs):
            assert np.array_equal(out.next, traj.states[j][step])
            assert BRANCH_CODES[out.branch] == traj.branches[step, j]
            assert out.accepted == traj.accepted[step, j]
        for x_j, e_j in carried:
            assert e_j == target.energy(x_j)


@pytest.mark.parametrize("config_name, kind", BUNDLED_CASES)
def test_scalar_kernels_replay_the_engine_bit_for_bit(config_name, kind):
    cfg = load_config(CONFIGS / config_name)
    args = (kind, cfg.target, cfg.ladder, cfg.configs, 300, 5)
    assert_scalar_replay(engine_run(*args), *args)


@pytest.mark.parametrize("config_name, kind", BUNDLED_CASES)
def test_replication_bytes_counts_what_the_engine_holds(config_name, kind):
    """A block more iterations raises the engine's traced peak by
    ``replication_bytes`` of one block per replication: the engine holds
    those arrays and no others that grow with the run."""
    cfg = load_config(CONFIGS / config_name)
    args = (kind, cfg.target, cfg.ladder, cfg.configs)
    seeds = list(range(16))

    def peak(n):
        tracemalloc.start()
        try:
            _engine(*args, n, seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _engine(*args, 2, seeds[:2])  # first-call allocations out of the way
    # two blocks against three: the same block temporaries, one block more history
    grown = (peak(3 * BLOCK) - peak(2 * BLOCK)) / len(seeds)
    assert grown == pytest.approx(replication_bytes(kind, cfg.target, cfg.ladder, BLOCK), rel=0.03)


def test_every_kind_at_the_benchmark_shape_runs_as_one_task():
    cfg = load_config(CONFIGS / "gaussian_table1.yaml")
    # per level and step: 2 coordinates, a branch code and an acceptance; 3 prefix-sum rows
    assert replication_bytes("ir", cfg.target, cfg.ladder, 10_000) == 10_000 * (4 * 18 + 3 * 8)
    for kind in ADAPTIVE_KINDS + SINGLE_KINDS:
        assert TASK_MEMORY_BUDGET // replication_bytes(kind, cfg.target, cfg.ladder, 10_000) >= 10


def test_scalar_kernels_replay_a_late_ir_record():
    """A hotter level that reaches a new lowest energy after iteration 2 BLOCK
    gives a state whose weight dwarfs every earlier one, late in a long
    history; the scalar kernels still replay the engine's run bit for bit."""
    # from the highest-energy state, slow proposals walk downhill state by state
    target, ladder, configs = finite_ladder(8.0 * np.arange(40)[::-1], temps=(8.0, 3.0, 1.0),
                                            move_prob=0.05)
    args = ("ir", target, ladder, configs, 600, 5)
    traj = engine_run(*args)
    late = []
    for level in range(ladder.n_levels - 1):  # the levels an ir level reads
        e = target.energy(traj.states[level])
        records = np.flatnonzero(e[1:] < np.minimum.accumulate(e)[:-1]) + 1
        late.extend(records[records >= 2 * BLOCK].tolist())
    assert late
    assert_scalar_replay(traj, *args)


@pytest.mark.parametrize("config_name, kind", BUNDLED_CASES)
def test_a_shorter_run_is_the_start_of_a_longer_one(config_name, kind):
    cfg = load_config(CONFIGS / config_name)
    args = (kind, cfg.target, cfg.ladder, cfg.configs)
    short, long = run_sampler(*args, 300, seed=11), run_sampler(*args, 500, seed=11)
    for mine, ref in zip(short.states, long.states):
        assert np.array_equal(mine, ref[:300])
    assert np.array_equal(short.branches, long.branches[:300])
    assert np.array_equal(short.accepted, long.accepted[:300])


@pytest.mark.parametrize("config_name, kind", BUNDLED_CASES)
def test_a_replication_runs_the_same_alone_and_in_any_batch(config_name, kind):
    """Alone, a replication runs through the scalar kernels; in a batch, through
    the engine: every level, branch and acceptance agrees."""
    cfg = load_config(CONFIGS / config_name)
    args = (kind, cfg.target, cfg.ladder, cfg.configs, 200)
    batch = run_sampler(*args, seed=[3, 17, 5])
    for seed, traj in zip((3, 17, 5), batch):
        alone = run_sampler(*args, seed=seed)
        for mine, ref in zip(traj.states, alone.states):
            assert np.array_equal(mine, ref)
        assert np.array_equal(traj.branches, alone.branches)
        assert np.array_equal(traj.accepted, alone.accepted)


@pytest.mark.parametrize("scheme, frozen", [("ee", "ee_frozen"), ("ir", "ir_frozen")])
def test_cold_step_two_follows_the_frozen_kernel_of_the_first_hot_state(scheme, frozen):
    """At iteration 2 the level-0 reservoir holds exactly X_1^(0), so the cold
    level's step is one draw from the frozen kernel with mu = delta at X_1^(0)."""
    energies = np.array([0.0, 0.8, 1.7])
    target = FiniteTarget(energies)
    ladder = TemperatureLadder((3.0, 1.0))
    theta = 0.4
    uniform = np.full((3, 3), 1.0 / 3.0)  # every state reachable in one step
    bases = [metropolis_matrix(uniform, -energies / t) for t in ladder.temperatures]
    configs = ladder_configs(ladder, (theta,), base_matrices=bases)
    seeds = [replication_seed(20261019, r) for r in range(20_000)]
    trajs = run_sampler(scheme, target, ladder, configs, 2, seeds)
    counts = np.zeros((3, 3, 3), dtype=int)  # (X_1^(0), X_1^(1), X_2^(1))
    for traj in trajs:
        counts[traj.states[0][0], traj.states[1][0], traj.states[1][1]] += 1
    stat, dof = 0.0, 0
    for hot in range(3):
        m = finite_kernel_matrix(frozen, target, ladder, 1, bases[1], theta, mu=np.eye(3)[hot])
        for x in range(3):
            total = counts[hot, x].sum()
            if total == 0:
                continue
            expected = total * m[x]
            support = expected > 0
            assert counts[hot, x][~support].sum() == 0
            stat += float((((counts[hot, x] - expected) ** 2)[support] / expected[support]).sum())
            dof += int(support.sum()) - 1
    assert dof == 18  # 9 (hot, cold) cells, 3 next states each
    assert stats.chi2.sf(stat, dof) > 0.001


@pytest.fixture
def energy_calls(monkeypatch):
    """A list that gains, per ``GaussianTarget.energy`` call, the number of states
    evaluated: ``sum(energy_calls)`` counts evaluations in rows."""
    calls = []
    energy = GaussianTarget.energy

    def counting(self, x):
        calls.append(int(np.prod(np.shape(x)[:-1])))  # rows of a stack; 1 for a state
        return energy(self, x)

    monkeypatch.setattr(GaussianTarget, "energy", counting)
    return calls


def test_rwm_evaluates_one_energy_per_proposal(energy_calls):
    cfg = load_config(CONFIGS / "gaussian_table1.yaml")
    n = 500
    run_sampler("rwm", cfg.target, cfg.ladder, cfg.configs, n, seed=3)
    assert sum(energy_calls) == n + 1


def test_ir_limit_evaluates_one_energy_per_step(energy_calls):
    # a local proposal and an exact refresh each evaluate E once, plus E(x0)
    cfg = load_config(CONFIGS / "gaussian_table1.yaml")
    n = 500
    traj = run_sampler("ir_limit", cfg.target, cfg.ladder, cfg.configs, n, seed=3)
    assert 0.3 < traj.branch_fraction(0, "resample") < 0.7
    assert sum(energy_calls) == n + 1


@pytest.mark.parametrize("kind", ADAPTIVE_KINDS + SINGLE_KINDS)
def test_the_engine_evaluates_only_candidates_and_resampling_starts(energy_calls, kind):
    # each chain's initial state and one candidate per step, plus each ir
    # resampling start: no recorded state is evaluated again for its weight
    cfg = load_config(CONFIGS / "gaussian_table1.yaml")
    n, seeds = 2_000, [1, 2, 3]
    runs = _engine(kind, cfg.target, cfg.ladder, cfg.configs, n, seeds)
    chains = len(seeds) * runs[0].n_levels
    starts = sum(int((traj.branches == BRANCH_CODES["resample"]).sum()) for traj in runs)
    assert sum(energy_calls) == chains * (n + 1) + (starts if kind == "ir" else 0)
    assert max(energy_calls) <= chains


@pytest.mark.parametrize("scheme", ADAPTIVE_KINDS)
def test_energy_is_evaluated_once_per_local_or_inner_proposal(energy_calls, scheme):
    target = GaussianTarget(SIGMA)
    ladder = TemperatureLadder((4.0, 1.0))
    configs = ladder_configs(ladder, (0.5,), proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, scheme, 400, seed=6)
    # an exchange proposal and a resampled state carry the energy stored with
    # them in the reservoir; each level also evaluates its initial state once
    proposals = (traj.branches != BRANCH_CODES["exchange"]).sum()  # local or inner
    assert sum(energy_calls) == proposals + ladder.n_levels
    drawn = "exchange" if scheme == "ee" else "resample"
    assert traj.branch_fraction(1, drawn) > 0.3
