"""Fast self-test of the benchmark on tiny versions of its workloads.

Run from the root of a checkout:  python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is printed with its unit,
that the layers' self-time shares of a traced run sum to 100%, that the
flood bypasses every layer above the MAC, and that the benchmark refuses
to run outside a checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layertrace import ALL_LAYERS  # noqa: E402
from run import SUBSEEDS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert "outcome_digest" in proc.stdout
    return out["metrics"]


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(SUBSEEDS)


@pytest.mark.parametrize("workload", sorted(SUBSEEDS))
def test_end_to_end_metrics_with_units(workload):
    metrics = result(workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(SUBSEEDS))
def test_per_layer_metrics_and_shares(workload):
    metrics = result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in ALL_LAYERS)
    assert shares == pytest.approx(100.0, abs=1e-6)
    if workload == "mobile-flood":
        for name in ("naming.match_calls", "core.messages_received",
                     "filters.calls", "apps.deliveries", "link.messages_sent"):
            assert metrics[name]["value"] == 0, name
        for layer in ("link", "naming", "core", "filters", "apps"):
            assert metrics[f"{layer}.self_s"]["value"] == 0, layer
    else:
        for name in ("naming.match_calls", "core.messages_received",
                     "link.messages_sent"):
            assert metrics[name]["value"] > 0, name


def test_refuses_outside_a_checkout(tmp_path):
    proc = bench("isi-surveillance", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
