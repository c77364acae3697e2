"""Committed benchmark records: every ``BENCH_*.json`` at the repository
root names only workloads and end-to-end metrics that ``BENCHMARK.json``
declares, and holds finite runs for both sides of each, with their
median and spread. A record that claims a gain names a declared workload
and metric, and its change median moves that metric the better way."""

import math
import statistics

import pytest

from helpers import REPO, load_json

BENCH_FILES = sorted(REPO.glob("BENCH_*.json"))


def test_at_least_one_record_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_record_matches_the_declared_benchmark(path):
    declared = load_json(REPO / "BENCHMARK.json")
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    record = load_json(path)
    assert record["environment"]
    assert record["workloads"]
    for workload, table in record["workloads"].items():
        assert workload in workloads
        assert table
        for name, entry in table.items():
            assert name in metrics, f"{workload}: {name}"
            assert entry["unit"] == metrics[name]["unit"]
            for side in ("parent", "change"):
                runs = entry[side]["runs"]
                assert runs and all(math.isfinite(v) for v in runs)
                for stat in ("median", "iqr"):
                    assert math.isfinite(entry[side][stat]), (
                        f"{workload} {name} {side} {stat}")
                assert entry[side]["median"] == statistics.median(runs), (
                    f"{workload} {name} {side} median")
    if "claim" in record:
        claim = record["claim"]
        assert claim["workload"] in workloads
        assert claim["metric"] in metrics
        entry = record["workloads"][claim["workload"]][claim["metric"]]
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        if metrics[claim["metric"]]["better"] == "lower":
            assert change < parent
        else:
            assert change > parent
