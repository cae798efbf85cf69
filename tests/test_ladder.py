import math
from pathlib import Path

import numpy as np
import pytest

import eesampler.ladder as ladder_module
from eesampler import (
    KernelConfig,
    TemperatureLadder,
    batch_means_variance,
    init_ladder_state,
    ladder_configs,
    ladder_step,
    level_rng,
    make_finite_target,
    make_gaussian_target,
    metropolis_matrix,
    neighbor_proposal,
    run_ladder,
    run_sampler,
    run_single,
    tempered_log_density,
)
from eesampler.cli import load_config
from eesampler.kernels import (
    ee_adaptive_step,
    ir_adaptive_step,
    limit_ee_step,
    limit_ir_step,
    rwm_step,
)
from eesampler.ladder import ADAPTIVE_KINDS, BRANCH_CODES, SINGLE_KINDS
from eesampler.targets import GaussianTarget

SIGMA = np.array([[0.96, 2.44], [2.44, 7.04]])


def finite_ladder(energies=(0.0, 0.4, 0.9, 1.5, 2.2), temps=(4.0, 2.0, 1.0), theta=0.5):
    target = make_finite_target(energies)
    ladder = TemperatureLadder(temps, (theta,) * (len(temps) - 1))
    bases = [
        metropolis_matrix(neighbor_proposal(target.state_count), -np.asarray(energies) / t)
        for t in temps
    ]
    configs = ladder_configs(ladder, base_matrices=bases)
    return target, ladder, configs


def test_zero_adaptive_levels_is_plain_rwm():
    target = make_gaussian_target(np.eye(2))
    ladder = TemperatureLadder((1.0,), ())
    configs = ladder_configs(ladder, proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 500, seed=5)
    single = run_single(target, ladder, configs[0], "rwm", 500, seed=5, level=0)
    assert np.array_equal(traj.states[0], single.states[0])


def test_first_iteration_takes_local_branch_everywhere():
    target, ladder, configs = finite_ladder()
    traj = run_ladder(target, ladder, configs, "ee", 1, seed=0)
    assert traj.n_iterations == 1
    assert np.all(traj.branches[0] == BRANCH_CODES["local"])


def test_exchange_at_step_two_reads_only_the_first_hot_state():
    # the classic order-of-update bug: pushing before advancing would let
    # the level-1 step at n=2 see X_2^(0) (or the initial state)
    target = make_finite_target([0.0] * 5)  # equal energies: exchanges always accepted
    ladder = TemperatureLadder((2.0, 1.0), (1e-9,))
    base = neighbor_proposal(5)  # uniform target: the proposal is already stationary
    configs = ladder_configs(ladder, base_matrices=[base, base])
    exchanges = 0
    for seed in range(300):
        traj = run_ladder(
            target, ladder, configs, "ee", 2, seed=seed, initial_states=[3, 0]
        )
        if traj.branches[1, 1] == BRANCH_CODES["exchange"]:
            exchanges += 1
            assert traj.states[1][1] == traj.states[0][0]
    assert exchanges > 250


def test_reservoir_counts_track_iteration():
    target, ladder, configs = finite_ladder()
    state = init_ladder_state(target, ladder, seed=1)
    for n in range(1, 20):
        ladder_step(state, target, ladder, configs, "ee")
        assert state.iteration == n
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
    target = make_gaussian_target(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0), (0.5, 0.5, 0.5))
    configs = ladder_configs(ladder, proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 2000, seed=42)
    assert traj.n_levels == 4
    assert all(level.shape == (2000, 2) for level in traj.states)
    # exchange branch appears once reservoirs fill
    assert traj.branch_fraction(3, "exchange") > 0.3


def test_level_zero_trace_matches_single_rwm_run():
    target = make_gaussian_target(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0), (0.5, 0.5, 0.5))
    configs = ladder_configs(ladder, proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, "ee", 300, seed=77)
    single = run_single(target, ladder, configs[0], "rwm", 300, seed=77, level=0)
    assert np.array_equal(traj.states[0], single.states[0])


def test_run_single_rwm_matches_manual_metropolis():
    target = make_gaussian_target(SIGMA)
    ladder = TemperatureLadder((10.0, 5.0, 2.0, 1.0))
    config = KernelConfig(theta=1.0, proposal_covariance=np.eye(2))
    seed, n, level = 123, 500, 3
    traj = run_single(target, ladder, config, "rwm", n, seed=seed)
    # independent reimplementation of the same variate schedule
    rng = level_rng(seed, level)
    x = np.zeros(2)
    states = []
    for _ in range(n):
        y = x + rng.standard_normal(2)
        lar = tempered_log_density(target, ladder, level, y) - tempered_log_density(
            target, ladder, level, x
        )
        if math.log(rng.random()) < lar:
            x = y
        states.append(x.copy())
    assert np.array_equal(traj.states[0], np.array(states))


def test_limit_ir_theta_zero_has_no_autocorrelation():
    target = make_gaussian_target(np.eye(1))
    ladder = TemperatureLadder((2.0, 1.0))
    config = KernelConfig(theta=0.0, proposal_covariance=np.eye(1))
    traj = run_single(target, ladder, config, "ir_limit", 100_000, seed=6)
    x = traj.states[0][:, 0]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1) < 4.0 / np.sqrt(len(x))
    assert traj.branch_fraction(0, "resample") == 1.0


def test_limit_ee_occupation_matches_stationary_law():
    energies = (0.0, 0.5, 1.1, 2.0, 3.2)
    target = make_finite_target(energies)
    ladder = TemperatureLadder((2.0, 1.0), (0.5,))
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


def test_run_single_validations():
    target = make_gaussian_target(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0))
    config = KernelConfig(theta=0.5, proposal_covariance=np.eye(2))
    with pytest.raises(ValueError):
        run_single(target, ladder, config, "ee_limit", 10, seed=0, level=0)
    with pytest.raises(ValueError):
        run_single(target, ladder, config, "nope", 10, seed=0)
    with pytest.raises(ValueError):
        run_single(target, ladder, config, "rwm", 0, seed=0)


def test_run_ladder_requires_thetas():
    target = make_gaussian_target(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0))  # no thetas
    configs = (KernelConfig(proposal_covariance=np.eye(2)),) * 2
    with pytest.raises(ValueError):
        run_ladder(target, ladder, configs, "ee", 10, seed=0)


def test_run_ladder_takes_thetas_from_the_configs():
    target = make_gaussian_target(np.eye(2))
    ladder = TemperatureLadder((2.0, 1.0), (0.5,))
    configs = ladder_configs(ladder, proposal_covariance=np.eye(2), single_theta=0.8)
    traj = run_ladder(target, ladder, configs, "ee", 10, seed=0)
    assert traj.metadata["thetas"] == [0.8]
    # theta 0 would never take the local branch on a non-empty reservoir
    configs = ladder_configs(ladder, proposal_covariance=np.eye(2), single_theta=0.0)
    with pytest.raises(ValueError, match="adaptive levels need theta in"):
        run_ladder(target, ladder, configs, "ee", 10, seed=0)


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


# --- the energy handoff between steps --------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
KERNEL_NAMES = {
    "rwm": "rwm_step",
    "ee": "ee_adaptive_step",
    "ir": "ir_adaptive_step",
    "ee_limit": "limit_ee_step",
    "ir_limit": "limit_ir_step",
}
HANDOFF_CASES = [
    (config, kind)
    for config in ("gaussian_table1.yaml", "finite_5state.yaml")
    for kind in ADAPTIVE_KINDS + SINGLE_KINDS
]


def reference_run(kind, target, ladder, configs, n, seed):
    """States, branches and accepted flags of ``run_sampler`` rebuilt with
    ``energy=None`` at every step, so every step evaluates E(x) afresh."""
    outcomes = []
    if kind in ADAPTIVE_KINDS:
        adaptive = ee_adaptive_step if kind == "ee" else ir_adaptive_step
        state = init_ladder_state(target, ladder, seed)
        for _ in range(n):
            outs = [rwm_step(target, ladder, 0, state.states[0], configs[0], state.rngs[0])]
            for level in range(1, ladder.n_levels):
                outs.append(adaptive(target, ladder, level, state.states[level],
                                     state.reservoirs[level - 1], configs[level],
                                     state.rngs[level]))
            for level, out in enumerate(outs):
                state.states[level] = out.next
                if level < len(state.reservoirs):
                    state.reservoirs[level].push(out.next, target.energy(out.next))
            outcomes.append(outs)
    else:
        kernel = {"rwm": rwm_step, "ee_limit": limit_ee_step, "ir_limit": limit_ir_step}[kind]
        level = ladder.top_level
        rng = level_rng(seed, level)
        x = target.initial_state()
        for _ in range(n):
            out = kernel(target, ladder, level, x, configs[-1], rng)
            x = out.next
            outcomes.append([out])
    states = [np.array([outs[level].next for outs in outcomes]) for level in range(len(outcomes[0]))]
    branches = np.array([[BRANCH_CODES[o.branch] for o in outs] for outs in outcomes])
    accepted = np.array([[o.accepted for o in outs] for outs in outcomes])
    return states, branches, accepted


@pytest.mark.parametrize("config_name, kind", HANDOFF_CASES)
def test_carried_energies_keep_every_trajectory_bit_for_bit(monkeypatch, config_name, kind):
    cfg = load_config(CONFIGS / config_name)
    target, ladder, configs = cfg.target, cfg.ladder, cfg.configs
    carried = []

    def checked(kernel):
        def step(target, ladder, level, x, *rest):
            energy = rest[-1]
            assert energy is None or energy == target.energy(x)
            out = kernel(target, ladder, level, x, *rest)
            assert out.energy is None or out.energy == target.energy(out.next)
            carried.append(energy is not None)
            return out
        return step

    name = KERNEL_NAMES[kind]
    monkeypatch.setattr(ladder_module, name, checked(getattr(ladder_module, name)))
    if kind in ADAPTIVE_KINDS:
        monkeypatch.setattr(ladder_module, "rwm_step", checked(ladder_module.rwm_step))
    n, seed = 300, 5
    traj = run_sampler(kind, target, ladder, configs, n, seed)
    states, branches, accepted = reference_run(kind, target, ladder, configs, n, seed)
    for mine, ref in zip(traj.states, states):
        assert np.array_equal(mine, ref)
    assert np.array_equal(traj.branches, branches)
    assert np.array_equal(traj.accepted, accepted)
    assert len(carried) == n * traj.n_levels
    if target.kind != "finite" or kind in ("ee", "ee_limit"):
        assert sum(carried) > n // 4  # the handoff is exercised, not bypassed


def test_rwm_evaluates_one_energy_per_proposal(monkeypatch):
    calls = []
    energy = GaussianTarget.energy

    def counting(self, x):
        calls.append(1)
        return energy(self, x)

    monkeypatch.setattr(GaussianTarget, "energy", counting)
    cfg = load_config(CONFIGS / "gaussian_table1.yaml")
    n = 500
    run_sampler("rwm", cfg.target, cfg.ladder, cfg.configs, n, seed=3)
    assert len(calls) == n + 1


@pytest.mark.parametrize("scheme", ADAPTIVE_KINDS)
def test_energy_is_evaluated_once_per_local_or_inner_proposal(monkeypatch, scheme):
    calls = []
    energy = GaussianTarget.energy

    def counting(self, x):
        calls.append(1)
        return energy(self, x)

    monkeypatch.setattr(GaussianTarget, "energy", counting)
    target = make_gaussian_target(SIGMA)
    ladder = TemperatureLadder((4.0, 1.0), (0.5,))
    configs = ladder_configs(ladder, proposal_covariance=np.eye(2))
    traj = run_ladder(target, ladder, configs, scheme, 400, seed=6)
    # an exchange proposal and a resampled state carry the energy stored with
    # them in the reservoir; each level also evaluates its initial state once
    proposals = (traj.branches != BRANCH_CODES["exchange"]).sum()  # local or inner
    assert len(calls) == proposals + ladder.n_levels
    drawn = "exchange" if scheme == "ee" else "resample"
    assert traj.branch_fraction(1, drawn) > 0.3
