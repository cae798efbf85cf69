"""README.md names exactly the BENCH_*.json files at the repository root (its
"Performance records" lists them), and each file states its claim and its
command."""

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_readme_names_every_bench_record_and_no_other():
    on_disk = {path.name for path in REPO.glob("BENCH_*.json")}
    named = set(re.findall(r"BENCH_\w+\.json", (REPO / "README.md").read_text()))
    assert on_disk  # the glob runs from the repository root
    assert sorted(on_disk - named) == [], "records the README does not name"
    assert sorted(named - on_disk) == [], "records the README names that do not exist"


def test_every_bench_record_states_its_claim_and_command():
    for path in sorted(REPO.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        for field in ("claim", "command"):
            assert isinstance(record.get(field), str) and record[field], (path.name, field)
