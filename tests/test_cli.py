import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eesampler.analysis
import eesampler.cli
from eesampler import FiniteChainModel, ee_limit_clt_variance, ee_limit_matrix
from eesampler.cli import CONFIG_KEYS, load_config, load_oracle_config, main, oracle_report

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_CONFIGS = REPO_ROOT / "demos" / "configs"


def write_config(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def gaussian_config(tmp_path, **overrides):
    cfg = {
        "target": "gaussian",
        "covariance": [[0.96, 2.44], [2.44, 7.04]],
        "temperatures": [10, 5, 2, 1],
        "theta": 0.5,
        "kernel": "ee",
        "iterations": 200,
        "replications": 2,
        "seed": 7,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return write_config(tmp_path, "config.yaml", cfg)


def finite_config(tmp_path, **overrides):
    cfg = {
        "target": "finite",
        "energies": [0.0, 1.0, 2.0, 3.0, 4.0],
        "temperatures": [4, 1],
        "theta": 0.5,
        "kernel": "ee",
        "iterations": 300,
        "replications": 3,
        "seed": 11,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return write_config(tmp_path, "finite.yaml", cfg)


def test_validate_accepts_bundled_configs():
    assert main(["validate", f"{REPO_CONFIGS}/gaussian_table1.yaml"]) == 0
    assert main(["validate", f"{REPO_CONFIGS}/finite_5state.yaml"]) == 0
    assert main(["validate", f"{REPO_CONFIGS}/oracle_5state.yaml"]) == 0
    # the finite sampler config is a two-level oracle instance too
    oracle_report(load_oracle_config(f"{REPO_CONFIGS}/finite_5state.yaml"))


def test_an_oracle_report_solves_one_poisson_system_per_chain(monkeypatch):
    """The limit kernel's one solution gives both sigma_star^2 and H; level 0's gives Gamma."""
    solved = []
    solve = eesampler.analysis.poisson_solve
    monkeypatch.setattr(eesampler.analysis, "poisson_solve",
                        lambda model, f: solved.append(model) or solve(model, f))
    _, limit, _ = oracle_report(load_oracle_config(f"{REPO_CONFIGS}/oracle_5state.yaml"))
    assert len(solved) == 2 and solved[0] is limit and solved[1] is not limit


def test_oracle_reads_a_finite_sampler_config(tmp_path):
    # finite_5state is energies E at temperatures [4, 1]: the explicit laws E / 4 and E
    sampler = yaml.safe_load((REPO_CONFIGS / "finite_5state.yaml").read_text())
    explicit = {
        "target": "finite",
        "energies0": [e / 4 for e in sampler["energies"]],
        "energies1": sampler["energies"],
        "theta": sampler["theta"],
        "move_prob": sampler["move_prob"],
    }
    path = write_config(tmp_path, "explicit.yaml", explicit)
    assert main(["oracle", f"{REPO_CONFIGS}/finite_5state.yaml", "--out", str(tmp_path / "a")]) == 0
    assert main(["oracle", path, "--out", str(tmp_path / "b")]) == 0
    report = (tmp_path / "a" / "variance_report.txt").read_bytes()
    assert report == (tmp_path / "b" / "variance_report.txt").read_bytes()
    assert b"second_moment_limit" in report


@pytest.mark.parametrize("command", ["run", "table1"])
def test_run_and_table1_refuse_an_oracle_key_by_name(tmp_path, capsys, command):
    base = yaml.safe_load((REPO_CONFIGS / "finite_5state.yaml").read_text())
    path = write_config(tmp_path, "config.yaml", {**base, "f": [0.0, 1.0, 0.0, 1.0, 0.0]})
    assert main(["validate", path]) == 0  # an oracle key makes it an oracle config
    assert "valid oracle instance" in capsys.readouterr().out
    out = tmp_path / command
    assert main([command, path, "--out", str(out)]) == 1
    assert "config key 'f': is read by the oracle command only" in capsys.readouterr().err
    assert not out.exists()


def test_validate_reports_theta_bounds(tmp_path, capsys):
    path = gaussian_config(tmp_path, lambdas=[0.9, 0.9, 0.9], kappas=[0.05, 0.15, 0.25])
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "lower bound" in out


def test_validate_rejects_nondecreasing_temperatures(tmp_path, capsys):
    path = gaussian_config(tmp_path, temperatures=[10, 5, 5, 1])
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "(5, 5)" in err


def test_validate_rejects_zero_theta_for_adaptive_kernel(tmp_path, capsys):
    path = gaussian_config(tmp_path, theta=0.0)
    assert main(["validate", path]) == 1
    assert "theta" in capsys.readouterr().err


def test_limit_kernel_theta_error_names_the_bad_entry(tmp_path, capsys):
    # theta 0 is allowed for a limit kernel, so the message must point at the 2
    path = gaussian_config(tmp_path, kernel="rwm", theta=[0, 2, 0.5])
    assert main(["validate", path]) == 1
    assert "config key 'theta': theta must lie in [0, 1], got 2.0" in capsys.readouterr().err


def test_theta_zero_allowed_for_limit_kernels(tmp_path, capsys):
    path = gaussian_config(tmp_path, theta=0.0, kernel="ir_limit")
    config = load_config(path)
    assert config.configs[-1].theta == 0.0
    # table1 runs the adaptive samplers too, which need theta in (0, 1]
    assert main(["table1", path]) == 1
    assert "config key 'theta'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_reports_the_theta_each_level_runs_with(tmp_path, capsys):
    # level 1's bound is 0.4 (delta / kappa = 4)
    path = gaussian_config(tmp_path, kernel="ir_limit", theta=[0.25, 0.5, 0.5],
                           lambdas=[0.5, 0.5, 0.5], kappas=[0.025, 0.075, 0.125])
    assert main(["validate", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    level1 = next(line for line in lines if "level 1:" in line)
    assert "theta=0.2500" in level1 and level1.endswith("-> below bound")


@pytest.mark.parametrize("kernel", ["rwm", "ir_limit"])
def test_validate_refuses_the_theta_0_that_table1_refuses(tmp_path, capsys, kernel):
    # a limit kernel runs at theta 0, but table1 runs the adaptive samplers too
    path = gaussian_config(tmp_path, kernel=kernel, theta=0.0)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "config key 'theta': adaptive levels need theta in (0, 1], got 0.0" in err
    assert main(["table1", path]) == 1
    assert err == capsys.readouterr().err


def test_run_writes_deterministic_csv(tmp_path):
    path = finite_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out_a)]) == 0
    assert main(["run", path, "--out", str(out_b)]) == 0
    bytes_a = (out_a / "trajectory.csv").read_bytes()
    assert bytes_a == (out_b / "trajectory.csv").read_bytes()
    meta = json.loads((out_a / "trajectory.meta.json").read_text())
    assert meta["kernel"] == "ee"
    assert meta["config_digest"] == json.loads(
        (out_b / "trajectory.meta.json").read_text()
    )["config_digest"]


def test_run_gaussian_has_level_rows_and_roundtrip_floats(tmp_path):
    from eesampler import run_sampler

    path = gaussian_config(tmp_path, iterations=50)
    out = tmp_path / "traj"
    assert main(["run", path, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,level,x0,x1,branch,accepted"
    assert len(lines) == 1 + 50 * 4
    # re-parsing recovers the simulated states exactly
    config = load_config(path)
    traj = run_sampler("ee", config.target, config.ladder, config.configs, 50, config.seed)
    cells = lines[1].split(",")
    assert [float(cells[2]), float(cells[3])] == list(traj.states[0][0])
    last = lines[-1].split(",")
    assert [float(last[2]), float(last[3])] == list(traj.states[3][-1])


def test_run_requires_kernel(tmp_path, capsys):
    cfg = {
        "target": "gaussian",
        "covariance": [[1.0, 0.0], [0.0, 1.0]],
        "temperatures": [2, 1],
        "theta": 0.5,
        "iterations": 10,
        "seed": 1,
        "out": str(tmp_path / "o"),
    }
    path = write_config(tmp_path, "nokernel.yaml", cfg)
    assert main(["run", path]) == 1
    assert "kernel" in capsys.readouterr().err


def test_table1_smoke_and_csv_roundtrip(tmp_path, capsys):
    path = finite_config(tmp_path, iterations=400, replications=3)
    out = tmp_path / "t1"
    assert main(["table1", path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Ratios" in printed
    lines = (out / "mse_table.csv").read_text().strip().splitlines()
    assert lines[0].startswith("sampler,row,")
    assert lines[1].split(",")[0] == "rwm"
    ratio_row = lines[2].split(",")
    assert ratio_row[1] == "ratio"
    assert all(float(v) == 1.0 for v in ratio_row[2:])
    # re-parsing recovers the written MSE exactly
    mse_value = float(lines[1].split(",")[2])
    assert mse_value == mse_value


@pytest.mark.parametrize("jobs", ["0", "-3", "abc"])
def test_table1_rejects_jobs_below_one_before_any_output(tmp_path, capsys, jobs):
    path = finite_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["table1", path, "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_table1_pool_is_sized_by_its_tasks(tmp_path, pool_sizes):
    path = finite_config(tmp_path, iterations=50, replications=2)
    assert main(["table1", path, "--jobs", "64"]) == 0
    # ee and ir, each with its 2 replications in one task, and the three
    # single-chain samplers in one batch task
    assert pool_sizes == [3]


def test_oracle_report_matches_direct_computation(tmp_path):
    cfg = {
        "target": "finite",
        "energies0": [0.0, 2.0, 4.0, 2.0, 0.0],
        "energies1": [0.0, 2.0, 4.0, 2.0, 0.0],
        "theta": 0.5,
        "move_prob": 0.6,
        "f": [1.0, 0.0, 0.0, 0.0, -1.0],
        "seed": 3,
        "out": str(tmp_path / "oracle"),
    }
    path = write_config(tmp_path, "oracle.yaml", cfg)
    assert main(["oracle", path]) == 0
    text = (tmp_path / "oracle" / "variance_report.txt").read_text()
    values = {}
    for line in text.splitlines():
        if ":" in line and not line.startswith("#"):
            key, _, value = line.partition(":")
            values[key.strip()] = value.strip()
    report, *_ = oracle_report(load_oracle_config(path))
    assert float(values["sigma_star_sq"]) == report.sigma_star_sq
    assert float(values["clt_variance"]) == report.clt_variance
    assert float(values["second_moment_limit"]) == report.second_moment_limit


def test_oracle_theta_one_zeroes_gamma_contribution(tmp_path):
    cfg = {
        "target": "finite",
        "energies0": [0.0, 1.0, 2.0],
        "energies1": [0.0, 1.0, 2.0],
        "theta": 1.0,
        "f": [1.0, 0.0, -1.0],
        "seed": 3,
        "out": str(tmp_path / "oracle1"),
    }
    path = write_config(tmp_path, "oracle1.yaml", cfg)
    report, *_ = oracle_report(load_oracle_config(path))
    assert report.clt_variance == pytest.approx(report.sigma_star_sq, abs=1e-14)
    assert report.second_moment_limit == pytest.approx(report.sigma_star_sq, abs=1e-14)


def test_oracle_iid_base_chain_gives_plain_variance(tmp_path):
    e = np.array([0.0, 0.7, 1.4])
    pi = np.exp(-e) / np.exp(-e).sum()
    iid = np.tile(pi, (3, 1)).tolist()
    f = [2.0, -1.0, 0.5]
    cfg = {
        "target": "finite",
        "energies0": e.tolist(),
        "energies1": e.tolist(),
        "theta": 0.5,
        "p0": iid,
        "p1": iid,
        "f": f,
        "seed": 3,
        "out": str(tmp_path / "oracleiid"),
    }
    path = write_config(tmp_path, "oracleiid.yaml", cfg)
    report, *_ = oracle_report(load_oracle_config(path))
    fc = np.asarray(f) - pi @ np.asarray(f)
    assert report.sigma_star_sq == pytest.approx(float(pi @ fc**2), abs=1e-12)


def test_oracle_against_independent_model_construction(tmp_path):
    # independent route: build the models by hand and compare every field
    cfg = {
        "target": "finite",
        "energies": [0.0, 1.0, 2.0, 3.0, 4.0],
        "temperatures": [4, 1],
        "theta": 0.4,
        "f": [0.0, 1.0, 2.0, 3.0, 4.0],
        "seed": 3,
        "out": str(tmp_path / "oracle2"),
    }
    path = write_config(tmp_path, "oracle2.yaml", cfg)
    parsed = load_oracle_config(path)
    report, *_ = oracle_report(parsed)
    e = np.array(cfg["energies"], dtype=float)
    e0, e1 = e / 4.0, e / 1.0
    pi0 = np.exp(-e0) / np.exp(-e0).sum()
    pi1 = np.exp(-e1) / np.exp(-e1).sum()
    p0, p1 = (level.base_matrix for level in parsed.configs)
    model0 = FiniteChainModel(p0, pi0)
    limit = FiniteChainModel(ee_limit_matrix(p1, pi0, e0 - e1, 0.4), pi1)
    direct = ee_limit_clt_variance(model0, limit, 0.4, np.array(cfg["f"]), log_r=e0 - e1)
    assert report.sigma_star_sq == pytest.approx(direct.sigma_star_sq, rel=1e-14)
    assert report.gamma_gbar == pytest.approx(direct.gamma_gbar, rel=1e-14)
    assert report.second_moment_limit == pytest.approx(direct.second_moment_limit, rel=1e-14)
    assert report.second_moment_limit == pytest.approx(
        report.sigma_star_sq + 2.0 * 0.6**2 * report.gamma_gbar, rel=1e-14
    )
    assert main(["oracle", path]) == 0
    text = (tmp_path / "oracle2" / "variance_report.txt").read_text()
    assert "not applicable" not in text
    line = next(ln for ln in text.splitlines() if ln.startswith("second_moment_limit:"))
    assert float(line.partition(":")[2]) == report.second_moment_limit


def test_failure_sentinel_on_midrun_error(tmp_path, capsys):
    # p1 is stochastic but not stationary for energies1: the variance report
    # cannot be priced, so validate and oracle refuse it before any output
    bad_p1 = [[0.5, 0.5, 0.0], [0.2, 0.6, 0.2], [0.0, 0.5, 0.5]]
    cfg = {
        "target": "finite",
        "energies0": [0.0, 0.5, 1.0],
        "energies1": [0.0, 0.5, 1.0],
        "theta": 0.5,
        "p1": bad_p1,
        "f": [1.0, 0.0, -1.0],
        "seed": 3,
        "out": str(tmp_path / "bad"),
    }
    path = write_config(tmp_path, "bad.yaml", cfg)
    for command in ("validate", "oracle"):
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert "config key 'p1'" in err and "residual" in err
    assert not (tmp_path / "bad").exists()
    # a failure once the output directory exists leaves a FAILED sentinel there
    del cfg["p1"]
    path = write_config(tmp_path, "bad.yaml", cfg)
    (tmp_path / "bad" / "variance_report.txt").mkdir(parents=True)
    assert main(["oracle", path]) == 1
    sentinel = tmp_path / "bad" / "FAILED"
    assert sentinel.exists()
    assert "variance_report.txt" in sentinel.read_text()


@pytest.mark.parametrize("overrides", [
    {"energies": [1e308, 0, -1e308]},
    {"energies": [0, 1e308, -1e308]},
    # at coefficient 3/4 two log weights lie further apart than the float range
    {"energies": [1.5e308, 0, -1.5e308], "temperatures": [4, 1], "seed": 2,
     "proposal_matrix": [[0.5, 0, 0.5], [0, 0.5, 0.5], [0.5, 0.5, 0]]},
], ids=["high-start", "low-end", "wide-log-weights"])
def test_wide_finite_energies_run_without_warnings(tmp_path, overrides):
    # a difference of energies past the float range is +-inf, which gives
    # the right probability (0 or 1): nothing to warn about
    path = write_config(tmp_path, "wide.yaml", {
        "target": "finite", "temperatures": [2, 1], "kernel": "ir", "iterations": 10,
        "seed": 1, "replications": 3, "out": str(tmp_path / "out"), **overrides})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 0
        assert main(["table1", path, "--jobs", "1"]) == 0


@pytest.mark.parametrize("cfg", [
    {"target": "finite", "energies": [0], "move_prob": 1.0},
    {"target": "gaussian", "covariance": [[1e-300, 0], [0, 1e-300]]},
], ids=["one-state", "every-move-rejected"])
def test_zero_mse_tables_run_without_warnings(tmp_path, cfg):
    # samplers that never leave the truth have MSE 0: the ratio 0/0 is nan,
    # kept as the table's value, with nothing to warn about
    path = write_config(tmp_path, "zero.yaml", {
        **cfg, "temperatures": [4, 1], "theta": 0.5, "kernel": "ee", "iterations": 50,
        "replications": 3, "seed": 1, "out": str(tmp_path / "out")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", path]) == 0
        assert main(["table1", path, "--jobs", "1"]) == 0
    table = (tmp_path / "out" / "mse_table.csv").read_text()
    rows = [row.split(",") for row in table.splitlines()]
    estimands = len(rows[0]) - 2
    assert rows[1:3] == [["rwm", "mse"] + ["0.0"] * estimands, ["rwm", "ratio"] + ["nan"] * estimands]


def test_unreadable_and_malformed_configs(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.yaml")]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("temperatures: [10, 5\n")
    assert main(["validate", str(bad)]) == 1
    notdict = tmp_path / "list.yaml"
    notdict.write_text("- 1\n- 2\n")
    assert main(["validate", str(notdict)]) == 1


def test_negative_seed_rejected_before_any_run(tmp_path, capsys):
    path = gaussian_config(tmp_path, seed=-5)
    assert main(["validate", path]) == 1
    assert "config key 'seed'" in capsys.readouterr().err
    path = finite_config(tmp_path)
    for command in ("run", "table1"):
        out = tmp_path / command
        assert main([command, path, "--seed", "-5", "--out", str(out)]) == 1
        assert "config key 'seed'" in capsys.readouterr().err
        assert not out.exists()  # rejected before the output directory is made
    oracle = f"{REPO_CONFIGS}/oracle_5state.yaml"
    assert main(["oracle", oracle, "--seed", "-5", "--out", str(tmp_path / "o")]) == 1
    assert "config key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_crosscheck_needs_two_replications(tmp_path, capsys):
    cfg = {
        "target": "finite",
        "energies0": [0.0, 1.0, 2.0],
        "energies1": [0.0, 1.0, 2.0],
        "theta": 0.5,
        "f": [1.0, 0.0, -1.0],
        "crosscheck_replications": 1,
        "crosscheck_iterations": 50,
        "seed": 3,
        "out": str(tmp_path / "xc"),
    }
    path = write_config(tmp_path, "xc.yaml", cfg)
    assert main(["validate", path]) == 1
    assert "config key 'crosscheck_replications'" in capsys.readouterr().err
    assert main(["oracle", path]) == 1
    assert "config key 'crosscheck_replications'" in capsys.readouterr().err
    assert not (tmp_path / "xc").exists()
    cfg["crosscheck_replications"] = 2
    path = write_config(tmp_path, "xc2.yaml", cfg)
    assert main(["validate", path]) == 0
    assert main(["oracle", path]) == 0
    assert "crosscheck_replications: 2" in (tmp_path / "xc" / "variance_report.txt").read_text()


def oracle_config(tmp_path, **overrides):
    """The bundled well with a short cross-check; an override of None drops the key.

    The default ``move_prob`` is left out when ``p0`` and ``p1`` are both given,
    since it has no effect beside them."""
    cfg = {
        "target": "finite",
        "energies0": [0.0, 2.0, 4.0, 2.0, 0.0],
        "energies1": [0.0, 2.0, 4.0, 2.0, 0.0],
        "theta": 0.5,
        "move_prob": 0.6,
        "f": [1.0, 0.0, 0.0, 0.0, -1.0],
        "crosscheck_replications": 2,
        "seed": 3,
        "out": str(tmp_path / "out"),
    }
    if "p0" in overrides and "p1" in overrides:
        del cfg["move_prob"]
    cfg.update(overrides)
    return write_config(tmp_path, "oracle.yaml", {k: v for k, v in cfg.items() if v is not None})


@pytest.mark.parametrize("energies", [[i % 7 for i in range(130)], [0] * 130],
                         ids=["mod7", "zero"])
def test_oracle_runs_on_instances_past_127_states(tmp_path, energies):
    path = oracle_config(tmp_path, energies0=energies, energies1=energies,
                         f=list(range(130)), crosscheck_iterations=10)
    assert main(["oracle", path]) == 0
    lines = (tmp_path / "out" / "variance_report.txt").read_text().splitlines()
    values = dict(line.split(": ", 1) for line in lines[1:])
    for key in ("sigma_star_sq", "gamma_gbar", "clt_variance", "crosscheck_sample_variance"):
        assert np.isfinite(float(values[key]))


def test_crosscheck_past_the_table_limit_is_a_config_error(tmp_path, capsys):
    # 300 states with distinct log weights need about 2.7e7 table entries
    energies = [0.01 * i for i in range(300)]
    path = oracle_config(tmp_path, energies0=energies, energies1=[2.0 * e for e in energies],
                         f=[0.0] * 300)
    for command in ("validate", "oracle"):
        assert main([command, path]) == 1
        assert "config key 'crosscheck_replications'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    path = oracle_config(tmp_path, energies0=energies, energies1=[2.0 * e for e in energies],
                         f=[0.0] * 300, crosscheck_replications=None)
    assert main(["validate", path]) == 0


# three-state instances whose variance report cannot be priced
THREE_STATES = {"energies0": [0.0, 0.5, 1.0], "energies1": [0.0, 0.5, 1.0], "f": [1.0, 0.0, -1.0]}
IDENTITY_3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # reducible
UNIFORM_3 = [[1 / 3] * 3] * 3  # stationary law uniform, not the tempered one
WEIGHTS_3 = np.exp(-np.array(THREE_STATES["energies0"]))
IID_3 = np.tile(WEIGHTS_3 / WEIGHTS_3.sum(), (3, 1)).tolist()  # stationary for the tempered law

MALFORMED_KEYS = [
    (gaussian_config, {"theta": "abc"}, "theta"),
    (gaussian_config, {"theta": [0.5, 0.5, "a"]}, "theta"),
    (gaussian_config, {"temperatures": [4, "x", 1]}, "temperatures"),
    (gaussian_config, {"temperatures": [1]}, "temperatures"),
    (gaussian_config, {"temperatures": [1], "kernel": "rwm"}, "temperatures"),
    # an exact draw of 10 sd at t_0 has energy 50 t_0, which overflows
    (gaussian_config, {"covariance": [[1, 0], [0, 1]], "temperatures": [1.0e308, 1],
                       "kernel": "ee_limit"}, "temperatures"),
    (gaussian_config, {"proposal_scale": "abc"}, "proposal_scale"),
    # positive definite, but its float inverse holds NaN, which no other key can explain
    (gaussian_config, {"covariance": [[1, 0], [0, 1e-320]]}, "covariance"),
    (gaussian_config, {"proposal_scale": 1e308}, "proposal_scale"),
    # the scale's square is finite, but a 10-sd step overflows the energy
    (gaussian_config, {"covariance": [[1e-10, 0], [0, 1e-10]], "proposal_scale": 1e150},
     "proposal_scale"),
    # ir_proposal_scale and include_initial_state are no longer config keys:
    # any value of either is an unknown-key error
    (gaussian_config, {"ir_proposal_scale": "abc"}, "ir_proposal_scale"),
    (gaussian_config, {"ir_proposal_scale": 1e308}, "ir_proposal_scale"),
    (gaussian_config, {"ir_proposal_scale": -1}, "ir_proposal_scale"),
    (gaussian_config, {"include_initial_state": "no"}, "include_initial_state"),
    (gaussian_config, {"lambdas": 3, "kappas": 3}, "lambdas"),
    (gaussian_config, {"lambdas": [0.5, 0.5, 0.5]}, "lambdas"),
    (gaussian_config, {"kappas": [0.025, 0.075, 0.125]}, "kappas"),
    # each drift parameter's range error names its own key
    (gaussian_config, {"temperatures": [4, 2, 1], "lambdas": [1.5, 0.5], "kappas": [0.1, 0.1]},
     "lambdas"),
    (gaussian_config, {"temperatures": [4, 2, 1], "lambdas": [0.5, 0.5], "kappas": [0.1, 0.6]},
     "kappas"),
    (gaussian_config, {"lambdas": [0.5, 0.5, 0.5], "kappas": [float("nan"), 0.1, 0.1]},
     "kappas"),
    (gaussian_config, {"lambdas": [2.0, "x"], "kappas": 5}, "lambdas"),
    (gaussian_config, {"kernel": "rwm", "lambdas": [0.5, 0.5, 0.5], "kappas": [0.1, 0.1, "x"]},
     "kappas"),
    (gaussian_config, {"out": None}, "out"),
    (gaussian_config, {"out": 5}, "out"),
    (finite_config, {"move_prob": 0}, "move_prob"),
    (finite_config, {"move_prob": "abc"}, "move_prob"),
    (finite_config, {"proposal_matrix": "abc"}, "proposal_matrix"),
    (finite_config, {"proposal_matrix": [[0.5, 0.5], [0.5, 0.5]]}, "proposal_matrix"),
    (finite_config, {"temperatures": [1]}, "temperatures"),
    (oracle_config, {"move_prob": 0}, "move_prob"),
    (oracle_config, {"move_prob": "abc"}, "move_prob"),
    (oracle_config, {"f": "abc"}, "f"),
    (oracle_config, {"energies0": ["a", "b"]}, "energies0"),
    (oracle_config, {"p0": [[1]]}, "p0"),
    (oracle_config, {"crosscheck_iterations": "abc"}, "crosscheck_iterations"),
    (oracle_config, {"crosscheck_iterations": -3}, "crosscheck_iterations"),
    (oracle_config, {"crosscheck_replications": None, "crosscheck_iterations": 50},
     "crosscheck_iterations"),
    (oracle_config, {"temperatures": [7, 3, 1]}, "temperatures"),
    (oracle_config, {"energies": [9, 9]}, "energies"),
    (oracle_config, {**THREE_STATES, "p0": IDENTITY_3}, "p0"),
    (oracle_config, {**THREE_STATES, "p0": UNIFORM_3}, "p0"),
    (oracle_config, {**THREE_STATES, "p0": IID_3, "p1": UNIFORM_3}, "p1"),
    (oracle_config, {**THREE_STATES, "proposal_matrix": IDENTITY_3}, "proposal_matrix"),
    # beside both p0 and p1 the proposal builds no base matrix
    (oracle_config, {**THREE_STATES, "p0": IID_3, "p1": IID_3, "move_prob": 0.3}, "move_prob"),
    (oracle_config, {**THREE_STATES, "p0": IID_3, "p1": IID_3, "proposal_matrix": UNIFORM_3},
     "proposal_matrix"),
    # at theta 1 the limit kernel is p1 itself, so its singular Poisson system is level 1's
    (oracle_config, {**THREE_STATES, "theta": 1, "p0": IID_3, "p1": IDENTITY_3}, "p1"),
    # the oracle's theta, temperatures and kernel follow the sampler rules
    (oracle_config, {"theta": 0}, "theta"),
    (oracle_config, {"kernel": "ir"}, "kernel"),
    (oracle_config, {"energies0": None, "energies1": None, "energies": [0.0, 2.0, 4.0, 2.0, 0.0],
                     "temperatures": [4, 1], "lambdas": ["x"], "kappas": [0.1]}, "lambdas"),
    (oracle_config, {"energies0": None, "energies1": None, "energies": [0.0, 2.0, 4.0, 2.0, 0.0],
                     "temperatures": [1, 4]}, "temperatures"),
    # an f this large overflows the report (1e160 and up) or the Poisson solve itself (1e308)
    (oracle_config, {"f": [1e160, -1e160, 0, 0, 0]}, "f"),
    (oracle_config, {"f": [1e200, -1e200, 0, 0, 0]}, "f"),
    (oracle_config, {"f": [1e300, -1e300, 0, 0, 0]}, "f"),
    (oracle_config, {"f": [1e308, -1e308, 0, 0, 0]}, "f"),
    # two wells the nearest-neighbor Metropolis chain cannot cross in floating point
    (oracle_config, {**THREE_STATES, "energies0": [0.0, 1e3, 0.0], "energies1": [0.0, 1e3, 0.0]},
     "move_prob"),
    # YAML's true and false are not numbers, though Python reads them as 1 and 0
    (gaussian_config, {"theta": True}, "theta"),
    (gaussian_config, {"theta": [True, 0.5, 0.5]}, "theta"),
    (gaussian_config, {"temperatures": [2, True]}, "temperatures"),
    (gaussian_config, {"proposal_scale": True}, "proposal_scale"),
    (gaussian_config, {"covariance": [[True, 0], [0, True]]}, "covariance"),
    (finite_config, {"move_prob": True}, "move_prob"),
    (finite_config, {"energies": [0.0, True, 2.0, False, 4.0]}, "energies"),
    (oracle_config, {"f": [True, 0, 0, 0, False]}, "f"),
]


@pytest.mark.parametrize(
    "make, overrides, key", MALFORMED_KEYS,
    ids=[f"{make.__name__}-{overrides}" for make, overrides, _ in MALFORMED_KEYS],
)
def test_malformed_key_is_a_config_error(tmp_path, capsys, make, overrides, key):
    path = make(tmp_path, **overrides)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert f"config key '{key}'" in err and "Traceback" not in err
    # every command parses the whole config, lambdas and kappas included
    commands = ("oracle",) if make is oracle_config else ("run", "table1")
    for command in commands:
        assert main([command, path]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_a_boolean_lambda_is_refused_as_a_boolean(tmp_path, capsys):
    # read as 1.0, it used to be refused as a lambda outside (0, 1)
    path = gaussian_config(tmp_path, lambdas=[True, 0.5, 0.5], kappas=[0.025, 0.075, 0.125])
    assert main(["validate", path]) == 1
    assert "config key 'lambdas': must not be or hold a boolean, got True" in capsys.readouterr().err


# (key, invalid file value, the flags that replace it, the commands that take them)
FLAG_REPLACED_VALUES = [
    ("kernel", "foo", ["--kernel", "ee"], ("run",)),
    ("seed", -1, ["--seed", "3"], ("run", "table1", "oracle")),
    ("out", [1], [], ("run", "table1", "oracle")),  # every command gets --out
]


@pytest.mark.parametrize("key, value, flags, commands", FLAG_REPLACED_VALUES,
                         ids=[key for key, *_ in FLAG_REPLACED_VALUES])
def test_a_flag_does_not_hide_an_invalid_file_value(tmp_path, capsys, key, value, flags,
                                                    commands):
    for command in commands:
        path = (oracle_config if command == "oracle" else gaussian_config)(tmp_path, **{key: value})
        assert main(["validate", path]) == 1
        message = capsys.readouterr().err
        assert f"config key '{key}'" in message
        out = tmp_path / command
        assert main([command, path, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_explicit_p0_p1_are_the_level_base_matrices(tmp_path, monkeypatch):
    # beside both p0 and p1 no Metropolis base matrix is built and thrown away
    def unused(*args):
        raise AssertionError("a proposal was built beside p0 and p1")

    monkeypatch.setattr(eesampler.cli, "metropolis_matrix", unused)
    monkeypatch.setattr(eesampler.cli, "neighbor_proposal", unused)
    parsed = load_oracle_config(oracle_config(tmp_path, **THREE_STATES, p0=IID_3, p1=UNIFORM_3))
    assert np.array_equal(parsed.configs[0].base_matrix, IID_3)
    assert np.array_equal(parsed.configs[1].base_matrix, UNIFORM_3)


def test_a_proposal_key_counts_only_beside_one_explicit_matrix(tmp_path, capsys):
    path = oracle_config(tmp_path, **THREE_STATES, p0=IID_3, p1=IID_3, move_prob=0.3)
    assert main(["validate", path]) == 1
    assert "config key 'move_prob': has no effect beside p0 and p1" in capsys.readouterr().err
    # beside p0 alone, move_prob sets level 1's base matrix, so it changes the report
    reports = []
    for move_prob in (0.3, 0.7):
        path = oracle_config(tmp_path, **THREE_STATES, p0=IID_3, move_prob=move_prob,
                             crosscheck_replications=None)
        assert main(["validate", path]) == 0
        reports.append(oracle_report(load_oracle_config(path))[0])
    assert reports[0].second_moment_limit != reports[1].second_moment_limit


UNKNOWN_KEYS = [
    (bundled, key, value)
    for bundled in ("gaussian_table1", "finite_5state", "oracle_5state")
    for key, value in (("thetaa", 0.9), ("ir_proposal_scale", 3), ("include_initial_state", True))
]


@pytest.mark.parametrize("bundled, key, value", UNKNOWN_KEYS,
                         ids=[f"{bundled}-{key}" for bundled, key, _ in UNKNOWN_KEYS])
def test_unknown_key_is_a_config_error(tmp_path, capsys, bundled, key, value):
    base = yaml.safe_load((REPO_CONFIGS / f"{bundled}.yaml").read_text())
    path = write_config(tmp_path, "config.yaml", {**base, key: value})
    message = f"config key '{key}': unknown key"
    assert main(["validate", path]) == 1
    assert message in capsys.readouterr().err
    for command in ("oracle",) if bundled == "oracle_5state" else ("run", "table1"):
        out = tmp_path / command
        assert main([command, path, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()  # rejected before the output directory is made


OTHER_FAMILY_KEYS = [
    ("finite_5state", "covariance", [[1.0]], "gaussian"),
    ("finite_5state", "proposal_scale", 5.0, "gaussian"),
    ("gaussian_table1", "move_prob", 0.3, "finite"),
    ("gaussian_table1", "energies", [0.0, 1.0], "finite"),
    ("gaussian_table1", "proposal_matrix", [[1.0]], "finite"),
    ("gaussian_table1", "f", [1.0, 2.0], "finite"),
    ("gaussian_table1", "p0", [[1.0]], "finite"),
]


@pytest.mark.parametrize("bundled, key, value, family", OTHER_FAMILY_KEYS,
                         ids=[f"{bundled}-{key}" for bundled, key, _, _ in OTHER_FAMILY_KEYS])
def test_key_of_the_other_target_family_is_a_config_error(tmp_path, capsys, bundled, key,
                                                          value, family):
    base = yaml.safe_load((REPO_CONFIGS / f"{bundled}.yaml").read_text())
    path = write_config(tmp_path, "config.yaml", {**base, key: value})
    message = f"config key '{key}': applies to {family} targets only"
    assert main(["validate", path]) == 1
    assert message in capsys.readouterr().err
    for command in ("run", "table1"):
        out = tmp_path / command
        assert main([command, path, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_readme_key_table_lists_every_config_key():
    readme = (REPO_ROOT / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = {key for row in rows for key in row.split("|")[1].split("`")[1::2]}
    assert documented == CONFIG_KEYS


# the two removed keys stay in the pool, where they exercise the unknown-key error
DOCUMENTED_KEYS = (*sorted(CONFIG_KEYS), "ir_proposal_scale", "include_initial_state")
CONFIG_ERRORS = ("config key '", "cannot read", "cannot parse", "must contain a mapping")


FUZZ_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 12),
        st.sampled_from([0.0, 0.5, -1.0, 1e308, -1e308, float("nan"), float("inf")]),
        st.text(alphabet="ax1. ", max_size=3),
        st.sampled_from(["gaussian", "finite", "ee", "rwm", "ir_limit"]),
    ),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bundled=st.sampled_from(["gaussian_table1", "finite_5state", "oracle_5state"]),
       changes=st.dictionaries(st.sampled_from(DOCUMENTED_KEYS), FUZZ_VALUES,
                               min_size=1, max_size=3))
def test_fuzzed_configs_never_escape_validate(tmp_path_factory, bundled, changes):
    with open(f"{REPO_CONFIGS}/{bundled}.yaml") as fh:
        base = yaml.safe_load(fh)
    path = write_config(tmp_path_factory.getbasetemp(), "fuzz.yaml", {**base, **changes})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate", path])
    assert code == 0 or (code == 1 and any(m in err.getvalue() for m in CONFIG_ERRORS))
