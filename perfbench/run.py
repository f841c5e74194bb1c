"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload isi-surveillance --seed 1 \
        --seconds 60 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
Each repetition runs in a fresh interpreter (``rep.py``), one at a time.
A run repeats the workload over a fixed set of sub-seeds derived from
``--seed``, cycling through them while ``--seconds`` has room for
another repetition; the simulated statistics pool the first repetition
of each sub-seed, the host timings use every repetition (see
``end_to_end``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions of the same sub-seed and prints the
per-layer metrics from the traced ones.  Either way every repetition's
correctness checks must pass, and repetitions of one sub-seed, traced
or not, must agree on the outcome digest.  The last line of standard
output is the JSON result; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layertrace import ALL_LAYERS  # noqa: E402  (path set up above)

#: sub-seeds pooled per run, sized so that one pass over them takes a
#: third to a half of a 60-second run on a 2-CPU host
SUBSEEDS = {"isi-surveillance": 16, "mobile-flood": 5, "regional-576": 3}
#: seconds of one ``rep.calibrate`` round on the reference host, a quiet
#: 2-CPU Xeon virtual machine; it fixes the scale of reference seconds
REFERENCE_ROUND_S = 0.0025
#: no repetition may take longer than this
REP_TIMEOUT_S = 120.0
#: a run ends within this, whatever --seconds says
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "delivery_ratio": "ratio",
    "radio_bytes_per_delivery": "B",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}

PER_LAYER_UNITS = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.useful_event_ratio": "ratio",
    "radio.self_s": "s",
    "radio.fragments_sent": "count",
    "radio.us_per_fragment": "us",
    "radio.rx_success_ratio": "ratio",
    "radio.carrier_checks_per_query": "ratio",
    "radio.set_builds": "count",
    "radio.probes_per_set_build": "ratio",
    "radio.memo_hit_rate": "ratio",
    "mac.self_s": "s",
    "mac.enqueued": "count",
    "mac.backoffs_per_tx": "ratio",
    "mac.queue_drop_ratio": "ratio",
    "link.self_s": "s",
    "link.messages_sent": "count",
    "link.reassembly_ratio": "ratio",
    "naming.self_s": "s",
    "naming.match_calls": "count",
    "naming.memo_hit_rate": "ratio",
    "naming.profile_builds_per_message": "ratio",
    "core.self_s": "s",
    "core.messages_received": "count",
    "core.messages_sent": "count",
    "core.duplicate_ratio": "ratio",
    "core.flood_byte_share": "ratio",
    "filters.self_s": "s",
    "filters.calls": "count",
    "apps.self_s": "s",
    "apps.deliveries": "count",
    "bench.self_s": "s",
    **{f"{layer}.self_share": "%" for layer in ALL_LAYERS},
    "trace.overhead_ratio": "ratio",
}


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Runner:
    """Starts repetitions and keeps what they report."""

    def __init__(self, root: str, workload: str, size: str, deadline: float) -> None:
        self.workload = workload
        self.size = size
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            # String hashing must not vary between repetitions.
            PYTHONHASHSEED="0",
        )
        self.cwd = root
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[int, str] = {}

    def rep(self, subseed: int, trace: bool) -> Optional[dict]:
        """One repetition; None (and a recorded failure) when it raised,
        timed out, failed a check or disagreed on its digest."""
        self.attempted += 1
        label = f"sub-seed {subseed} trace={int(trace)}"
        timeout = min(REP_TIMEOUT_S, max(1.0, self.deadline - time.monotonic()))
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "rep.py"), self.workload,
                 str(subseed), "1" if trace else "0", self.size],
                cwd=self.cwd, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label}: timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{label}: exit {proc.returncode}: {tail[0]}")
            return None
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if record["problems"]:
            self.failures.append(f"{label}: " + "; ".join(record["problems"]))
            return None
        expected = self.digests.setdefault(subseed, record["digest"])
        if record["digest"] != expected:
            self.failures.append(
                f"{label}: digest {record['digest']} != {expected}")
            return None
        record["subseed"] = subseed
        return record


def run_reps(runner: Runner, subseeds: List[int], trace: bool, seconds: float,
             started: float) -> List[List[dict]]:
    """Repeat over ``subseeds`` in order, cycling, while time allows.

    Returns one group per repetition: ``[untraced]`` or, with tracing,
    ``[untraced, traced]`` of the same sub-seed.  Without tracing the
    first pass over the sub-seeds always completes, so the pooled
    simulated statistics never depend on host speed; with tracing one
    pair is enough.
    """
    mandatory = 1 if trace else len(subseeds)
    groups: List[List[dict]] = []
    longest = 0.0
    for i, subseed in enumerate(itertools.cycle(subseeds)):
        now = time.monotonic()
        if i >= mandatory and (now - started + longest > seconds
                               or now + longest > runner.deadline):
            break
        group = [runner.rep(subseed, False)]
        if trace:
            group.append(runner.rep(subseed, True))
        longest = max(longest, time.monotonic() - now)
        if None not in group:
            groups.append(group)
    return groups


def quiet(records: List[dict], key: str) -> float:
    """Sum over the run's slices of each slice's fastest repetition:
    ``key`` "slices" for the simulation, "calibration" for the
    calibration rounds timed before them.

    Repetitions of one sub-seed do the same work slice by slice, down to
    the garbage collector's passes.  On a shared host other tenants slow
    a process for spells of a fraction of a second to many seconds; a
    spell rarely covers the same slice in every repetition, so the
    per-slice minimum removes it where the minimum of whole repetitions
    would need one repetition with no spell at all.
    """
    return sum(min(times) for times in zip(*(r[key] for r in records)))


def reference_seconds(host_s: float, round_s: float) -> float:
    """Host seconds measured while a calibration round took ``round_s``,
    scaled to the reference host's speed.

    A spell that lasts a whole run slows the program and the rounds
    timed beside it alike, so the scaled figure stays.  The loop is fixed
    and shares nothing with the program, so a faster program lowers the
    figure by exactly its saving.
    """
    return host_s * REFERENCE_ROUND_S / round_s


def quiet_wall(records: List[dict]) -> float:
    """Run time of one sub-seed in reference seconds."""
    rounds = quiet(records, "calibration") / len(records[0]["calibration"])
    return reference_seconds(quiet(records, "slices"), rounds)


def end_to_end(groups: List[List[dict]],
               subseeds: List[int]) -> Tuple[Dict[str, float], Dict[int, List[dict]], int]:
    """The end-to-end metrics, the repetitions per sub-seed and the
    latency sample count.

    ``wall_s`` is the mean of ``quiet_wall`` over the sub-seeds: the run
    time of each input varies by several percent with its sub-seed, so
    every sub-seed counts.  ``setup_s`` is the median over every
    repetition of its set-up in reference seconds, ``peak_rss_mb`` the
    median over every repetition.
    """
    records = [group[0] for group in groups]
    by_subseed: Dict[int, List[dict]] = {}
    for record in records:
        by_subseed.setdefault(record["subseed"], []).append(record)
    pooled = [by_subseed[subseed][0] for subseed in subseeds]
    offered = sum(r["offered"] for r in pooled)
    delivered = sum(r["delivered"] for r in pooled)
    latencies = [lat for r in pooled for lat in r["latencies"]]
    return {
        "setup_s": statistics.median(
            reference_seconds(r["setup_s"], r["setup_calibration"])
            for r in records),
        "wall_s": statistics.mean(quiet_wall(reps) for reps in by_subseed.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "delivery_ratio": delivered / offered,
        "radio_bytes_per_delivery": sum(r["radio_bytes"] for r in pooled) / delivered,
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
    }, by_subseed, len(latencies)


def per_layer(groups: List[List[dict]]) -> Dict[str, float]:
    """Self times pooled over the traced repetitions (so the shares sum
    to 100%), counters as medians over them."""
    plain = [group[0] for group in groups]
    traced = [group[1] for group in groups]
    traced_wall = sum(r["traced_wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in plain)
    out: Dict[str, float] = {}
    for layer in ALL_LAYERS:
        total = sum(r["self_s"][layer] for r in traced)
        out[f"{layer}.self_s"] = total / len(traced)
        out[f"{layer}.self_share"] = 100.0 * total / traced_wall
    out["sim.events_per_s"] = sum(r["events"] for r in plain) / untraced_wall
    out["radio.us_per_fragment"] = 1e6 * sum(r["self_s"]["radio"] for r in traced) / max(
        1, sum(r["counters"]["radio.fragments_sent"] for r in traced))
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    for name in PER_LAYER_UNITS:
        if name not in out:
            out[name] = statistics.median(r["counters"][name] for r in traced)
    return {name: out[name] for name in PER_LAYER_UNITS}


def span_table(groups: List[List[dict]]) -> List[str]:
    """Readable (layer, parent) span totals over the traced repetitions."""
    totals: Dict[tuple, List[float]] = {}
    for group in groups:
        for row in group[1]["spans"]:
            entry = totals.setdefault((row["layer"], row["parent"]), [0, 0.0, 0.0])
            entry[0] += row["calls"]
            entry[1] += row["inclusive_s"]
            entry[2] += row["self_s"]
    lines = [f"  {'layer':8s} {'parent':8s} {'calls':>10s} {'incl_s':>10s} {'self_s':>10s}"]
    for (layer, parent), (calls, incl, self_s) in sorted(
            totals.items(), key=lambda item: -item[1][2]):
        lines.append(f"  {layer:8s} {parent:8s} {calls:10d} {incl:10.4f} {self_s:10.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBSEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small workloads")
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("run from the root of a checkout: src/repro is missing",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.size, started + RUN_LIMIT_S)
    n_subseeds = SUBSEEDS[args.workload] if args.size == "full" else 1
    subseeds = [args.seed * 1000 + i for i in range(n_subseeds)]
    trace = bool(args.trace)
    groups = run_reps(runner, subseeds, trace, args.seconds, started)
    measured = {group[0]["subseed"] for group in groups}
    complete = bool(groups) if trace else measured >= set(subseeds)
    if not complete:
        for failure in runner.failures:
            print("FAILED", failure)
        print(f"no complete measurement of {args.workload}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"sub-seeds {n_subseeds} repetitions {runner.attempted} "
          f"trace {args.trace}")
    for subseed, digest in runner.digests.items():
        print(f"outcome_digest sub-seed {subseed}: {digest}")
    if trace:
        values = per_layer(groups)
        units = PER_LAYER_UNITS
        print(f"traced repetitions: {len(groups)}; spans by (layer, parent):")
        print("\n".join(span_table(groups)))
    else:
        values, by_subseed, n_latency = end_to_end(groups, subseeds)
        units = END_TO_END_UNITS
        setups = [group[0]["setup_s"] for group in groups]
        print(f"setup_s and wall_s in reference seconds; setup_s the median "
              f"over {len(groups)} repetitions (host seconds: median "
              f"{statistics.median(setups):.6g}); wall_s the mean over the "
              f"sub-seeds; simulated statistics pooled over {n_subseeds} "
              f"sub-seeds, {n_latency} latency samples")
        for subseed in subseeds:
            reps = by_subseed[subseed]
            walls = sorted(r["wall_s"] for r in reps)
            print(f"  sub-seed {subseed}: {len(reps)} repetitions, wall_s "
                  f"{quiet_wall(reps):.6g}; host seconds: slice-wise "
                  f"{quiet(reps, 'slices'):.6g}, fastest {walls[0]:.6g}, "
                  f"median {statistics.median(walls):.6g}")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for failure in runner.failures:
        print("FAILED", failure)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
