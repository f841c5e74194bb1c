"""The benchmark's three workloads, built from the library's public
constructors only.

Each workload function returns a :class:`Built` whose ``outcome()`` gives the
simulated statistics of a finished run and whose ``problems()`` lists
every failed correctness check.  Nothing here resets a module global:
each run happens in a fresh interpreter (see ``rep.py``), which is what
makes process-global id counters start from the same place every time.

Load is open-loop in simulated time: sources hand units to the stack on
a fixed schedule whether or not earlier units were delivered.

The diffusion stack is imported for the diffusion workloads only (see
``preload``), so a flood repetition does not pay for importing layers it
never runs.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.mac import CsmaMac
from repro.radio import Channel, DistancePropagation, Modem, Topology
from repro.radio.dynamics import RandomWaypointMobility
from repro.sim import SeedSequence, Simulator
from repro.sim.metrics import MetricsRegistry

#: workload -> size -> construction parameters.  ``full`` is what the
#: benchmark measures; ``tiny`` is for the self-test.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "isi-surveillance": {
        "full": {"duration": 1800.0},
        "tiny": {"duration": 240.0},
    },
    "regional-576": {
        "full": {"side": 24, "region": 8, "duration": 75.0},
        "tiny": {"side": 16, "region": 8, "duration": 30.0},
    },
    "mobile-flood": {
        "full": {"side": 20, "movers": 8, "duration": 8.0},
        "tiny": {"side": 6, "movers": 2, "duration": 4.0},
    },
}

REGIONAL_SPACING = 18.0
FLOOD_SPACING = 26.0
#: imported by ``preload`` for every workload but the flood
DIFFUSION_MODULES = ("repro.apps", "repro.testbed", "repro.testbed.isi",
                     "repro.naming.keys")

BEACON_BYTES = 27
BEACON_INTERVAL = 0.5
MOVER_SPEED = 5.0
MOVER_STEP = 1.0


@dataclass
class Built:
    """A constructed workload, ready for ``sim.run(until=duration)``."""

    sim: Simulator
    duration: float
    channel: Channel
    modems: List[Modem]
    macs: List[Any]
    frags: List[Any] = field(default_factory=list)
    nodes: List[Any] = field(default_factory=list)
    propagation: Any = None
    #: (task, seq) -> simulated time the app first handed it to the stack
    offered: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: (task, seq) -> simulated time of its first delivery at its sink
    delivered: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: every delivery latency sample, in simulated seconds
    latencies: List[float] = field(default_factory=list)
    #: counters of the beacon flood (empty for diffusion workloads)
    flood: Dict[str, int] = field(default_factory=dict)
    registry: Optional[MetricsRegistry] = None

    # -- results ---------------------------------------------------------------

    def units(self) -> Tuple[int, int]:
        """(offered, delivered) application units."""
        if self.flood:
            return self.reception_attempts(), self.flood["heard"]
        return len(self.offered), len(self.delivered)

    def reception_attempts(self) -> int:
        """Every reception attempt of the flood ends delivered or dropped
        for one of the channel's recorded reasons."""
        registry = self.registry
        return registry.counter("channel.fragments_delivered").value + sum(
            registry.counter("channel.drops", reason=reason).value
            for reason in ("collision", "half-duplex", "channel-loss")
        )

    def radio_bytes(self) -> int:
        return sum(m.bytes_sent for m in self.modems)

    def outcome(self) -> Dict[str, Any]:
        """Deterministic simulated counters of the finished run."""
        channel = self.channel
        index = channel.index
        offered, delivered = self.units()
        out: Dict[str, Any] = {
            "now": self.sim.now,
            "events": self.sim.events_processed,
            "offered": offered,
            "delivered": delivered,
            "radio_bytes": self.radio_bytes(),
            "latencies": self.latencies,
            "channel": [
                channel.fragments_sent, channel.fragments_delivered,
                channel.fragments_collided, channel.fragments_lost,
                channel.carrier_queries, channel.carrier_checks,
            ],
            "index": [index.set_builds, index.rebuilds, index.memo_hits,
                      index.memo_misses] if index is not None else [],
            "mac": [sum(getattr(m.stats, k) for m in self.macs) for k in (
                "enqueued", "transmitted", "dropped_queue_full", "backoffs")],
            "link": [sum(getattr(f, k) for f in self.frags) for k in (
                "messages_sent", "messages_delivered", "messages_incomplete")],
            "core": [sum(getattr(n.stats, k) for n in self.nodes) for k in (
                "messages_sent", "bytes_sent", "messages_received",
                "events_delivered", "duplicates_suppressed",
                "messages_dropped_no_route")],
            "flood": self.flood,
        }
        return out

    def problems(self) -> List[str]:
        """Every failed correctness check of the finished run."""
        found = []
        offered, delivered = self.units()
        if offered <= 0 or delivered <= 0:
            found.append(f"offered {offered}, delivered {delivered}: nothing to measure")
        if delivered > offered:
            found.append(f"delivered {delivered} > offered {offered}")
        if any(lat < 0 or math.isnan(lat) for lat in self.latencies):
            found.append("negative latency sample")
        if self.flood:
            if self.flood["heard"] != self.channel.fragments_delivered:
                found.append(
                    f"beacons heard {self.flood['heard']} != channel "
                    f"fragments_delivered {self.channel.fragments_delivered}"
                )
        else:
            for unit, when in self.delivered.items():
                sent = self.offered.get(unit)
                if sent is None:
                    found.append(f"delivered {unit} was never offered")
                elif sent > when:
                    found.append(f"{unit} delivered at {when} before sent {sent}")
        return found


# -- diffusion workloads -------------------------------------------------------


def _instrument_tasks(built: Built, experiments: List[Any]) -> None:
    """Record when each (task, seq) is handed to the stack and when it
    first reaches its sink.

    Both hooks shadow one attribute on objects the workload owns (the
    sources' API objects and the sink's subscription record); they touch
    no simulated state, so the run is the same with or without them.
    """
    from repro.naming.keys import Key

    sim = built.sim
    for exp in experiments:
        for source in exp.sources:
            api = source.api
            original_send = api.send

            def send(handle, attrs, *args, _send=original_send, _task=source.task_type, **kwargs):
                unit = (_task, int(attrs.value_of(Key.SEQUENCE)))
                built.offered.setdefault(unit, sim.now)
                return _send(handle, attrs, *args, **kwargs)

            api.send = send
        sink_node = exp.network.node(exp.sink_id)
        subscription = sink_node.subscriptions[exp.sink.handle.handle_id]
        original_callback = subscription.callback

        def on_data(attrs, message, _cb=original_callback,
                    _task=exp.sources[0].task_type):
            seq = attrs.value_of(Key.SEQUENCE)
            if seq is not None and message.msg_type.is_data:
                unit = (_task, int(seq))
                if unit not in built.delivered:
                    built.delivered[unit] = sim.now
                    if unit in built.offered:
                        built.latencies.append(sim.now - built.offered[unit])
            return _cb(attrs, message)

        subscription.callback = on_data


def _diffusion_built(net: Any, duration: float, experiments: List[Any]) -> Built:
    stacks = [net.stack(i) for i in net.node_ids()]
    built = Built(
        sim=net.sim,
        duration=duration,
        channel=net.channel,
        modems=[s.modem for s in stacks],
        macs=[s.mac for s in stacks],
        frags=[s.frag for s in stacks],
        nodes=[s.diffusion for s in stacks],
        propagation=net.propagation,
    )
    _instrument_tasks(built, experiments)
    return built


def build_isi(seed: int, duration: float) -> Built:
    """Figure 8 on the 14-node ISI testbed: 4 sources, one sink,
    suppression filters on every node, paper timers."""
    from repro.apps import SurveillanceExperiment
    from repro.testbed.isi import FIG8_SINK, FIG8_SOURCES, isi_testbed_network

    net = isi_testbed_network(seed=seed)
    exp = SurveillanceExperiment(net, FIG8_SINK, FIG8_SOURCES, suppression=True)
    return _diffusion_built(net, duration, [exp])


def regional_tasks(side: int, region: int) -> List[Tuple[int, int]]:
    """(source, sink) per ``region``-square block of a ``side``-square
    grid: source one node in from one corner, sink one node in from the
    opposite corner, so every task is local to its block."""
    tasks = []
    for base_row in range(0, side - region + 1, region):
        for base_col in range(0, side - region + 1, region):
            source = (base_row + 1) * side + base_col + 1
            sink = (base_row + region - 2) * side + base_col + region - 2
            tasks.append((source, sink))
    return tasks


def build_regional(seed: int, side: int, region: int, duration: float) -> Built:
    """Concurrent local source->sink tasks on a grid, one per region."""
    from repro.apps import SurveillanceExperiment
    from repro.testbed import SensorNetwork

    net = SensorNetwork(Topology.grid(side, side, spacing=REGIONAL_SPACING), seed=seed)
    experiments = [
        SurveillanceExperiment(
            net, sink, [source], suppression=False, task_type=f"region{k}"
        )
        for k, (source, sink) in enumerate(regional_tasks(side, region))
    ]
    return _diffusion_built(net, duration, experiments)


# -- beacon flood ----------------------------------------------------------------


def build_mobile_flood(seed: int, side: int, movers: int, duration: float) -> Built:
    """Every node beacons through CSMA while a few nodes move: no layer
    above the MAC runs."""
    topology = Topology.grid(side, side, spacing=FLOOD_SPACING)
    sim = Simulator()
    seeds = SeedSequence(seed)
    registry = MetricsRegistry()
    propagation = DistancePropagation(topology, seed=seed)
    channel = Channel(sim, propagation, seeds=seeds, metrics=registry)
    flood = {"beacons": 0, "heard": 0}
    latencies: List[float] = []

    def on_receive(payload, src, nbytes, link_dst):
        flood["heard"] += 1
        latencies.append(sim.now - payload[2])

    modems, macs = [], []
    for node_id in topology.node_ids():
        modem = Modem(sim, channel, node_id)
        modem.receive_callback = on_receive
        modems.append(modem)
        macs.append(CsmaMac(sim, modem, rng=seeds.stream(f"mac:{node_id}")))

    def beacon(mac, rng):
        flood["beacons"] += 1
        mac.enqueue(("beacon", mac.node_id, sim.now), BEACON_BYTES)
        sim.schedule(BEACON_INTERVAL * (0.5 + rng.random()), beacon, mac, rng,
                     name="beacon")

    for mac in macs:
        rng = seeds.stream(f"beacon:{mac.node_id}")
        sim.schedule(rng.random() * BEACON_INTERVAL, beacon, mac, rng, name="beacon")

    extent = (side - 1) * FLOOD_SPACING
    picker = seeds.stream("movers")
    for node_id in sorted(picker.sample(topology.node_ids(), movers)):
        RandomWaypointMobility(
            sim, topology, node_id, (0.0, extent, 0.0, extent),
            speed=MOVER_SPEED, step=MOVER_STEP,
            rng=seeds.stream(f"mobility:{node_id}"),
        )
    return Built(
        sim=sim, duration=duration, channel=channel,
        modems=modems, macs=macs, propagation=propagation,
        latencies=latencies, flood=flood, registry=registry,
    )


FACTORIES: Dict[str, Callable[..., Built]] = {
    "isi-surveillance": build_isi,
    "regional-576": build_regional,
    "mobile-flood": build_mobile_flood,
}


def preload(workload: str) -> None:
    """Import what ``build(workload, ...)`` needs, so that timing the
    set-up does not time the imports."""
    if workload != "mobile-flood":
        for name in DIFFUSION_MODULES:
            importlib.import_module(name)


def build(workload: str, seed: int, size: str = "full") -> Built:
    params = dict(SIZES[workload][size])
    return FACTORIES[workload](seed, **params)
