"""Per-layer self time, measured from outside the program.

The benchmark wraps each layer's public entry points in its own spans;
the library itself is not modified.  A span is opened when control
crosses into a different layer and closed when the call returns, so
delivery callbacks that run synchronously up the stack (channel ->
modem -> fragmentation -> core -> naming) are split among the layers
they pass through instead of being charged to the first one.

Spans are aggregated on the fly per (layer, parent layer) into a call
count, inclusive time and self time, so memory stays bounded however
many calls a run makes.  A layer's self time is its spans' duration
minus the time covered by the spans they caused.  The root span is the
simulator's run loop, so the layers' self times add up to the traced
run's wall time exactly.

Ownership of a callback (a scheduled event, a receive or delivery
callback, a filter or a subscription) is decided by the module that
defines it: ``repro.<layer>...`` belongs to that layer; anything else,
including the benchmark's own load generator, is reported as ``bench``.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("sim", "radio", "mac", "link", "naming", "core", "filters", "apps")
#: the load generator and any module outside the eight layers
OTHER = "bench"
ALL_LAYERS = LAYERS + (OTHER,)

#: (module, class or None, attribute, layer): the public boundaries
#: whose calls open a span of ``layer``.
ENTRY_POINTS = (
    ("repro.sim.kernel", "Simulator", "schedule", "sim"),
    ("repro.sim.kernel", "Simulator", "schedule_at", "sim"),
    ("repro.radio.modem", "Modem", "transmit_fragment", "radio"),
    ("repro.radio.modem", "Modem", "carrier_busy", "radio"),
    ("repro.radio.modem", "Modem", "deliver", "radio"),
    ("repro.radio.channel", "Channel", "start_transmission", "radio"),
    ("repro.mac.base", "Mac", "enqueue", "mac"),
    ("repro.link.frag", "FragmentationLayer", "send_message", "link"),
    ("repro.link.frag", "FragmentationLayer", "on_fragment", "link"),
    ("repro.naming.engine", "MatchIndex", "one_way", "naming"),
    ("repro.naming.engine", None, "fast_one_way_match", "naming"),
    ("repro.naming.engine", None, "fast_two_way_match", "naming"),
    ("repro.naming.engine", None, "profile_of", "naming"),
    ("repro.naming.matching", None, "one_way_match", "naming"),
    ("repro.naming.matching", None, "one_way_match_segregated", "naming"),
    ("repro.naming.matching", None, "two_way_match", "naming"),
    ("repro.core.node", "DiffusionNode", "send", "core"),
    ("repro.core.node", "DiffusionNode", "publish", "core"),
    ("repro.core.node", "DiffusionNode", "subscribe", "core"),
    ("repro.core.node", "DiffusionNode", "add_filter", "core"),
    ("repro.core.node", "DiffusionNode", "send_message", "core"),
    ("repro.core.node", "DiffusionNode", "send_message_to_next", "core"),
)


class LayerTracer:
    """Span aggregation per (layer, parent layer) plus a few counts the
    program does not keep itself."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        # Frames are [layer, time covered by child spans, start].
        self.root: List[Any] = ["sim", 0.0, 0.0]
        self.stack: List[List[Any]] = [self.root]
        #: (layer, parent layer) -> [calls, inclusive s, self s]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.wall_s = 0.0
        self.scheduled = 0
        self.profile_builds = 0
        self.bound_probes = 0
        self._module_layer: Dict[str, str] = {}

    # -- spans ---------------------------------------------------------------

    def layer_of(self, fn: Callable) -> str:
        """The layer owning ``fn``, by the module that defines it."""
        module = getattr(getattr(fn, "__func__", fn), "__module__", None) or ""
        layer = self._module_layer.get(module)
        if layer is None:
            parts = module.split(".")
            if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
                layer = parts[1]
            else:
                layer = OTHER
            self._module_layer[module] = layer
        return layer

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call from another layer is a span."""
        stack, spans, clock = self.stack, self.spans, self.clock

        def spanned(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[2]
                stack.pop()
                parent[1] += elapsed
                key = (layer, parent[0])
                record = spans.get(key)
                if record is None:
                    spans[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[1]

        return spanned

    def owned(self, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of the layer that defines it."""
        return self.span(self.layer_of(fn), fn)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point process-wide.  Call in a fresh
        interpreter before any workload object is built."""
        for module_name, cls_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._entry(cls_name, attr, layer, original))
            else:
                original = getattr(module, attr)
                wrapped = self.span(layer, original)
                wrapped.__module__ = original.__module__
                # Rebind every module-level alias (``from x import f``).
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and \
                            getattr(other, attr, None) is original:
                        setattr(other, attr, wrapped)
        from repro.naming.engine import MatchProfile

        profile_init = MatchProfile.__init__
        tracer = self

        def counted_init(profile, attrs):
            tracer.profile_builds += 1
            profile_init(profile, attrs)

        MatchProfile.__init__ = counted_init

    def _entry(self, cls_name: str, attr: str, layer: str, original: Callable) -> Callable:
        spanned = self.span(layer, original)
        owned = self.owned
        if cls_name == "Simulator":
            tracer = self

            def entry(sim, when, callback, *args, **kwargs):
                tracer.scheduled += 1
                return spanned(sim, when, owned(callback), *args, **kwargs)
        elif attr == "subscribe":
            def entry(node, attrs, callback):
                return spanned(node, attrs, owned(callback))
        elif attr == "add_filter":
            def entry(node, attrs, priority, callback, name=""):
                return spanned(node, attrs, priority, owned(callback), name=name)
        else:
            entry = spanned
        # A bound entry point scheduled as a callback must still be
        # owned by its layer, which layer_of reads from __module__.
        entry.__module__ = original.__module__
        entry.__qualname__ = original.__qualname__
        entry.__wrapped__ = original
        return entry

    def attach(self, built) -> None:
        """Wrap the per-object callbacks of a built workload: the
        radio->link and link->core delivery callbacks, and the bound
        probes of the neighborhood index."""
        for modem in built.modems:
            if modem.receive_callback is not None:
                modem.receive_callback = self.owned(modem.receive_callback)
        for frag in built.frags:
            if frag.deliver_callback is not None:
                frag.deliver_callback = self.owned(frag.deliver_callback)
        propagation = built.propagation
        bound = propagation.link_prr_bound
        tracer = self

        def counted_bound(src, dst):
            tracer.bound_probes += 1
            return bound(src, dst)

        propagation.link_prr_bound = counted_bound

    # -- measurement -----------------------------------------------------------

    def begin(self) -> None:
        """Discard what set-up recorded and open the root span."""
        self.spans.clear()
        self.scheduled = 0
        self.profile_builds = 0
        self.bound_probes = 0
        self.root[1] = 0.0
        self.root[2] = self.clock()

    def end(self) -> None:
        """Close the root span; the run loop's own time is ``sim``'s."""
        self.wall_s = self.clock() - self.root[2]
        if len(self.stack) != 1:
            raise RuntimeError(f"unbalanced spans: {len(self.stack) - 1} open")
        key = ("sim", "-")
        self.spans[key] = [1, self.wall_s, self.wall_s - self.root[1]]

    def self_seconds(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in ALL_LAYERS}
        for (layer, _), (_, _, self_s) in self.spans.items():
            out[layer] += self_s
        return out

    def calls(self) -> Dict[str, int]:
        """Spans entered per layer (root excluded)."""
        out = {layer: 0 for layer in ALL_LAYERS}
        for (layer, parent), (count, _, _) in self.spans.items():
            if parent != "-":
                out[layer] += int(count)
        return out

    def table(self) -> List[Dict[str, Any]]:
        return [
            {"layer": layer, "parent": parent, "calls": int(count),
             "inclusive_s": incl, "self_s": self_s}
            for (layer, parent), (count, incl, self_s) in sorted(
                self.spans.items(), key=lambda item: -item[1][2])
        ]
