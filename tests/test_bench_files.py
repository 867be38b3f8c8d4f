"""The benchmark trajectory: every ``BENCH_<n>.json`` at the repository root.

Each file holds the last JSON line of ``perfbench/run.py`` for every
workload of ``BENCHMARK.json``, once on the parent tree and once on the
change, all from one command.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
COMMAND = "python3 perfbench/run.py --workload W --seed 1 --seconds 20"


def test_bench_files_are_named_by_number():
    assert BENCH_FILES
    assert all(p.stem.split("_")[1].isdigit() for p in ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_bench_file_holds_one_correct_run_per_workload_and_tree(path):
    data = json.loads(path.read_text())
    assert data["command"] == COMMAND
    trees = data["trees"]
    assert set(trees) == {"parent", "change"}
    runs = Counter((run["tree"], run["workload"]) for run in data["runs"])
    assert runs == Counter({(tree, w): 1 for tree in trees for w in WORKLOADS})
    for run in data["runs"]:
        result = run["result"]
        assert result["correct"] is True, (run["tree"], run["workload"])
        assert result["metrics"]["ops_per_s"]["value"] > 0
