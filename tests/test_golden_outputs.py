"""Byte-identity pins of the files the commands write.

Each pin is the sha256 of one output file of ``run``, ``table1`` or
``oracle`` on a bundled config, cut to a size that runs in seconds.  A
refactor that keeps every output bit keeps every pin; a change that moves
an output on purpose updates the pin and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from eesampler.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def sized_config(tmp_path, name, **overrides):
    """The bundled config ``name`` with ``overrides``, writing under tmp_path/out."""
    raw = yaml.safe_load((CONFIGS / name).read_text())
    raw.update(overrides, out=str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


RUN_PINS = {
    ("finite_5state.yaml", "rwm"): "6d4f5bed47c1538e37a4fd6255109ee167e76f64e60d5848bb40df1f2acfb839",
    ("finite_5state.yaml", "ee"): "707fffa08cd45ce3782cdb3224660e612d34392b1477a67b2c75e0e88a5550d2",
    ("finite_5state.yaml", "ir"): "7c55d192b5e5a18e577e44a02413291e6b53ae49698ae62af99cb115469c0605",
    ("finite_5state.yaml", "ee_limit"): "000b889fc1d33b7f17a0f899b0b3ad4d7a04da12481747fba8f4ad3a5cf5ab07",
    ("finite_5state.yaml", "ir_limit"): "dab12b1b5a91b0b70790400f163877629222151cfba78e07e7d868e9a173020a",
    ("gaussian_table1.yaml", "rwm"): "5190a2196bfc2f637edc00828ce7d4ff1a66426684c3120f35e81aaf1a4c930e",
    ("gaussian_table1.yaml", "ee"): "f10bc9d9821ebebaedea238d446589497ed4266fe4346555289bf4fce9e11238",
    ("gaussian_table1.yaml", "ir"): "ecb9bf2d89336bdf3c8ea2efc49d87af828796c5332819df16243200b15c5d9c",
    ("gaussian_table1.yaml", "ee_limit"): "4d7ced1bcb4c9d0b8c047ae2c93162c315752fd27ec516546f6f004b02e807e4",
    ("gaussian_table1.yaml", "ir_limit"): "e791d9add37bbcfedcf24dccda9504da884bd347033525843bb917c1f70b2ca9",
}

TABLE1_PINS = {
    "finite_5state.yaml": "030847fa9e16cf34e029a780231da8d19b64dc9123c306d0093169c1a0940ad1",
    "gaussian_table1.yaml": "8c16bb6a6903f437ed75f4159660e814332d6fc2f52234a0b8ee168ecd95377f",
}

ORACLE_PINS = {
    "finite_5state.yaml": "f54f0a89efb8cca251a85ab9269bf05781a4aee8cd650e9cd864d83c52a6f133",
    "oracle_5state.yaml": "cfe50efcb968e5223a5ba65bd133f93ab51f02af7db8ab43b43dcba7f275757c",
}


@pytest.mark.parametrize(("name", "kind"), sorted(RUN_PINS))
def test_run_trajectory_bytes_are_pinned(tmp_path, name, kind):
    path = sized_config(tmp_path, name, iterations=300)
    assert main(["run", path, "--kernel", kind, "--seed", "1"]) == 0
    assert digest(tmp_path / "out" / "trajectory.csv") == RUN_PINS[name, kind]


@pytest.mark.parametrize("name", sorted(TABLE1_PINS))
def test_table1_bytes_are_pinned(tmp_path, name):
    path = sized_config(tmp_path, name, replications=3, iterations=300)
    assert main(["table1", path, "--seed", "1", "--jobs", "1"]) == 0
    assert digest(tmp_path / "out" / "mse_table.csv") == TABLE1_PINS[name]


@pytest.mark.parametrize("name", sorted(ORACLE_PINS))
def test_variance_report_bytes_are_pinned(tmp_path, name):
    sizes = {"crosscheck_replications": 20, "crosscheck_iterations": 2_000}
    path = sized_config(tmp_path, name, **sizes if name == "oracle_5state.yaml" else {})
    assert main(["oracle", path]) == 0
    assert digest(tmp_path / "out" / "variance_report.txt") == ORACLE_PINS[name]
