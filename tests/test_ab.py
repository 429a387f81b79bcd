"""The gain rule and name checks of the A/B runner, tools/ab.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(failing_seed):
    """A run_bench stand-in: the change is 10% faster, and its run at
    ``failing_seed`` exits non-zero with no metrics."""

    def run(tree, workload, seed, seconds, trace):
        if tree == "change" and seed == failing_seed:
            return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "returncode": 1}
        wall = (0.9 if tree == "change" else 1.0) * (1.0 + 0.001 * seed)
        return {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {"wall_s": {"value": wall}},
            "returncode": 0,
        }

    return run


def test_failed_pair_is_not_a_gain(ab, monkeypatch):
    # ten pairs, one with a failed change run, nine change wins: the
    # record is not all correct, so the claim is not met
    monkeypatch.setattr(ab, "run_bench", fake_run(failing_seed=3))
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    trees = {"parent": "parent", "change": "change"}
    record = {"workloads": {"w": ab.run_workload(trees, "w", 10, 1.0, 0, metrics)}}
    stats = record["workloads"]["w"]["stats"]["wall_s"]
    assert stats["change_wins"] == 9
    result = ab.claim(record, "w:wall_s")
    assert result["pairs"] == 10
    assert result["met"] is False


def test_all_correct_pairs_meet_the_claim(ab, monkeypatch):
    monkeypatch.setattr(ab, "run_bench", fake_run(failing_seed=None))
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    trees = {"parent": "parent", "change": "change"}
    record = {"workloads": {"w": ab.run_workload(trees, "w", 10, 1.0, 0, metrics)}}
    assert ab.claim(record, "w:wall_s")["met"] is True


@pytest.mark.parametrize(
    "flags",
    [
        ["--workloads", "no_such_workload"],
        ["--claim", "no_such_workload:wall_s"],
        ["--claim", "{workload}:no_such_metric"],
        ["--traced", "no_such_workload"],
    ],
)
def test_unknown_names_rejected_before_any_run(ab, monkeypatch, tmp_path, flags):
    workload = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"][0]["name"]
    flags = [f.format(workload=workload) for f in flags]

    def no_runs(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(ab, "git", no_runs)
    monkeypatch.setattr(ab, "extract", no_runs)
    monkeypatch.setattr(ab, "run_bench", no_runs)
    out = tmp_path / "ab.json"
    with pytest.raises(SystemExit) as exc:
        ab.main(["--parent", "HEAD", "--change", "HEAD", "--out", str(out), *flags])
    assert exc.value.code == 2
    assert not out.exists()
