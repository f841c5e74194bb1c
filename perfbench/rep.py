"""One repetition of one workload, in the interpreter that runs it.

Usage: ``python3 perfbench/rep.py WORKLOAD SEED TRACE SIZE`` with
``PYTHONPATH`` pointing at the library sources.  ``run.py`` starts a
fresh interpreter per repetition, so memory peaks, process-global id
counters and warm caches never leak from one repetition into the next.

The run is cut into ``SLICES`` equal spans of simulated time, each timed
on its own: one ``sim.run(until=...)`` per span, which dispatches exactly
the events of a single ``sim.run(until=duration)``.  Repetitions of one
seed do identical work slice by slice, so ``run.py`` can take each
slice's fastest repetition.  A fixed calibration loop is timed just
before the set-up and, without tracing, before every slice, so the
host's speed is sampled at the moments the program runs.

Prints one JSON line: set-up and run host seconds, the run's slice and
calibration times, peak resident memory, the simulated outcome and its
digest, every failed check, and with TRACE=1 the per-layer spans and
counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (path set up above)
from layertrace import LayerTracer  # noqa: E402

#: timed spans of simulated time per run
SLICES = 40
#: dictionary updates in one calibration round (about 2.5 ms on a
#: 2-CPU Xeon virtual machine)
CALIBRATION_OPS = 20000
#: calibration rounds timed before the set-up; the fastest one counts
SETUP_ROUNDS = 3


def calibrate() -> float:
    """Host seconds of one round of a fixed pure-Python loop.  It shares
    no state with the simulation and allocates nothing that lives on."""
    table: dict = {}
    started = time.perf_counter()
    for i in range(CALIBRATION_OPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


def digest(outcome: dict) -> str:
    """Short content hash of the deterministic simulated counters."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def layer_counters(built, tracer: LayerTracer) -> dict:
    """Counts and ratios per layer, from the program's own counters and
    the tracer's.  Ratios with nothing to divide read zero."""
    from repro.core.messages import MessageType

    def ratio(num, den):
        return num / den if den else 0.0

    channel, index = built.channel, built.channel.index
    macs, frags, nodes = built.macs, built.frags, built.nodes
    calls = tracer.calls()
    enqueued = sum(m.stats.enqueued for m in macs)
    queue_drops = sum(m.stats.dropped_queue_full for m in macs)
    link_done = sum(f.messages_delivered for f in frags)
    link_lost = sum(f.messages_incomplete for f in frags)
    received = sum(n.stats.messages_received for n in nodes)
    match_stats = [n.gradients.match_index.stats for n in nodes]
    match_hits = sum(s.hits for s in match_stats)
    match_lookups = sum(s.lookups for s in match_stats)
    attempts = channel.fragments_delivered + channel.fragments_collided + \
        channel.fragments_lost
    return {
        "sim.events": built.sim.events_processed,
        "sim.useful_event_ratio": ratio(built.sim.events_processed, tracer.scheduled),
        "radio.fragments_sent": channel.fragments_sent,
        "radio.rx_success_ratio": ratio(channel.fragments_delivered, attempts),
        "radio.carrier_checks_per_query": ratio(
            channel.carrier_checks, channel.carrier_queries),
        "radio.set_builds": index.set_builds if index is not None else 0,
        "radio.probes_per_set_build": ratio(
            tracer.bound_probes, index.set_builds if index is not None else 0),
        "radio.memo_hit_rate": ratio(
            index.memo_hits, index.memo_hits + index.memo_misses)
        if index is not None else 0.0,
        "mac.enqueued": enqueued,
        "mac.backoffs_per_tx": ratio(
            sum(m.stats.backoffs for m in macs),
            sum(m.stats.transmitted for m in macs)),
        "mac.queue_drop_ratio": ratio(queue_drops, enqueued + queue_drops),
        "link.messages_sent": sum(f.messages_sent for f in frags),
        "link.reassembly_ratio": ratio(link_done, link_done + link_lost),
        "naming.match_calls": calls["naming"],
        "naming.memo_hit_rate": ratio(match_hits, match_lookups),
        "naming.profile_builds_per_message": ratio(tracer.profile_builds, received),
        "core.messages_received": received,
        "core.messages_sent": sum(n.stats.messages_sent for n in nodes),
        "core.duplicate_ratio": ratio(
            sum(n.stats.duplicates_suppressed for n in nodes), received),
        "core.flood_byte_share": ratio(
            sum(n.stats.bytes_by_type[MessageType.INTEREST]
                + n.stats.bytes_by_type[MessageType.EXPLORATORY_DATA]
                for n in nodes),
            sum(n.stats.bytes_sent for n in nodes)),
        "filters.calls": calls["filters"],
        "apps.deliveries": sum(n.stats.events_delivered for n in nodes),
    }


def main(argv) -> int:
    workload, seed, trace, size = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    tracer = LayerTracer() if trace else None
    if tracer is not None:
        tracer.install()
    workloads.preload(workload)
    setup_round = min(calibrate() for _ in range(SETUP_ROUNDS))
    started = time.perf_counter()
    built = workloads.build(workload, seed, size)
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.attach(built)
        tracer.begin()
    horizons = [built.duration * k / SLICES for k in range(1, SLICES)]
    slices, calibration = [], []
    for until in horizons + [built.duration]:
        if tracer is None:
            calibration.append(calibrate())
        started = time.perf_counter()
        built.sim.run(until=until)
        slices.append(time.perf_counter() - started)
    if tracer is not None:
        tracer.end()
    outcome = built.outcome()
    offered, delivered = built.units()
    record = {
        "setup_s": setup_s,
        "setup_calibration": setup_round,
        "wall_s": sum(slices),
        "slices": slices,
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": built.sim.events_processed,
        "offered": offered,
        "delivered": delivered,
        "radio_bytes": built.radio_bytes(),
        "latencies": built.latencies,
        "digest": digest(outcome),
        "problems": built.problems(),
    }
    if tracer is not None:
        record["self_s"] = tracer.self_seconds()
        record["traced_wall_s"] = tracer.wall_s
        record["counters"] = layer_counters(built, tracer)
        record["spans"] = tracer.table()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
