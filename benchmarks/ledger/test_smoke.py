"""Self-check of the ledger: ``pytest benchmarks/ledger`` (under a minute).

Runs the real command at smoke size and checks what it printed against
``BENCHMARK.json``; smoke numbers themselves are never compared.
"""

import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args, timeout=600):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    done = run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout
    return out, json.loads((out / "ledger.json").read_text()), done.stdout


def test_every_metric_for_every_workload(smoke):
    _, ledger, printed = smoke
    assert list(ledger["workloads"]) == WORKLOADS
    for name, entry in ledger["workloads"].items():
        assert list(entry["end_to_end"]) == END_TO_END, name
        assert list(entry["per_layer"]) == PER_LAYER, name
        for metric in (*entry["end_to_end"].values(), *entry["per_layer"].values()):
            assert isinstance(metric["value"], (int, float))
    for name in (*WORKLOADS, *END_TO_END, *PER_LAYER):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert name in printed
    assert ledger["meta"]["seed"] == 12345
    assert ledger["meta"]["transport"] == "loopback, in-process server"


def test_spans_nest(smoke):
    out, ledger, _ = smoke
    for name in WORKLOADS:
        rows = json.loads((out / f"spans-{name}.json").read_text())
        assert rows["fields"] == ["call", "id", "parent", "name", "start_ns", "end_ns"]
        by_id = {row[1]: row for row in rows["spans"]}
        roots = defaultdict(int)
        for call, _, parent, span_name, start, end in rows["spans"]:
            assert start <= end
            if span_name == "call":
                roots[call] += 1
                continue
            enclosing = by_id[parent]
            assert enclosing[0] == call, (name, span_name)
            assert enclosing[4] <= start and end <= enclosing[5], (name, span_name)
        calls = ledger["workloads"][name]["traced"]["samples"]
        assert len(roots) == calls and set(roots.values()) == {1}, name


def test_spans_cover_the_call(smoke):
    _, ledger, _ = smoke
    for name in WORKLOADS:
        per_layer = ledger["workloads"][name]["per_layer"]
        assert "trace.overhead_share" in per_layer
        if not name.startswith("small_content"):
            # On the two sub-millisecond workloads span bookkeeping is
            # itself a visible share of the call: reported, not gated.
            assert per_layer["trace.coverage_share"]["value"] >= 0.9, name


@pytest.mark.parametrize("trace, names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_contract_result_line(tmp_path, trace, names):
    done = run("--workload", "small_content", "--seed", "7", "--seconds", "1",
               "--trace", trace, "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]


def test_compare_flags_a_regression(smoke, tmp_path):
    out, ledger, _ = smoke
    same = run("--compare", str(out / "ledger.json"), str(out / "ledger.json"))
    assert same.returncode == 0, same.stdout
    ledger["workloads"]["large_sparse"]["end_to_end"]["calls_per_s"]["value"] /= 2
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(ledger))
    worse = run("--compare", str(out / "ledger.json"), str(slower))
    assert worse.returncode == 1
    assert "large_sparse/calls_per_s" in worse.stdout
