"""Self-time accounting for the traced run.

:class:`SpanClock` keeps a stack of open spans. A span's *self* time is its
duration minus the durations of the spans opened inside it, so the self
times of all spans add up to the wall time spent inside root spans, and
each layer's share is its own work only.

:func:`instrument` wraps the public entry points of each layer at class
level (the protocol stacks are rebuilt on every boot, so instance-level
wrapping would miss rebooted nodes). Call it before the cluster is built
and call the returned function to restore the originals. The wrappers
read the clock only: they draw no random numbers and schedule no events,
so a traced run executes exactly the events of an untraced one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span key of the event loop (``Simulation.step`` / ``run_until``).
LOOP = "sim.loop"

#: Suffixes of per-protocol span keys: message handler vs timer callback.
MSG = "#msg"
TIMER = "#timer"


class SpanClock:
    """Accumulates self time and call counts per span key.

    Nested calls under the same key as the innermost open span fold into
    it (a sieve wrapping another sieve is one ``admits`` call, not two).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # one [child seconds, key] frame per open span
        self._stack: List[list] = []

    def reset(self) -> None:
        """Forget everything recorded so far (open spans stay open)."""
        self.self_time.clear()
        self.calls.clear()
        for frame in self._stack:
            frame[0] = 0.0

    def run(self, key: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``key``."""
        stack = self._stack
        if stack and stack[-1][1] == key:
            return fn(*args, **kwargs)
        frame = [0.0, key]
        stack.append(frame)
        clock = self.clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            self.self_time[key] += duration - frame[0]
            self.calls[key] += 1
            if stack:
                stack[-1][0] += duration

    def wrap(self, fn: Callable, key: str) -> Callable:
        """``fn`` with every call timed under ``key``."""
        run = self.run

        def timed(*args, **kwargs):
            return run(key, fn, *args, **kwargs)

        return timed


def protocol_key(proto) -> str:
    """``<package>.<protocol name>`` of a protocol instance, e.g.
    ``randomwalk.random-walk``; an instance suffix after ``:`` (push-sum
    instances are ``push-sum:count``) is dropped."""
    parts = type(proto).__module__.split(".")
    package = parts[1] if len(parts) > 1 else parts[0]
    return f"{package}.{proto.name.split(':')[0]}"


def _timer_owner(callback, depth: int = 0):
    """The protocol that registered a timer callback, found through bound
    methods, ``PeriodicTimer`` and closure cells; None if not found."""
    from repro.sim.node import PeriodicTimer, Protocol

    if depth > 3:
        return None
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Protocol):
        return owner
    if isinstance(owner, PeriodicTimer):
        return _timer_owner(owner._callback, depth + 1)
    for cell in getattr(callback, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, Protocol):
            return value
        if callable(value):
            found = _timer_owner(value, depth + 1)
            if found is not None:
                return found
    return None


def instrument(spans: SpanClock) -> Callable[[], None]:
    """Wrap each layer's entry points so calls are timed into ``spans``.

    Returns a function that restores the original attributes."""
    from repro.common.messages import Message
    from repro.core.datadroplets import DataDroplets
    from repro.membership.cyclon import CyclonProtocol
    from repro.redundancy.manager import RedundancyManager
    from repro.sieve.base import Sieve
    from repro.sim.network import Network
    from repro.sim.node import Node
    from repro.sim.simulator import Simulation
    from repro.store.memtable import Memtable

    saved: List[Tuple[type, str, object]] = []

    def replace(cls: type, attr: str, new) -> None:
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def plain(cls: type, attr: str, key: str) -> None:
        replace(cls, attr, spans.wrap(cls.__dict__[attr], key))

    plain(Simulation, "step", LOOP)
    plain(Simulation, "run_until", LOOP)
    plain(Network, "send", "sim.net_send")
    plain(Message, "size_bytes", "common.size_bytes")
    plain(CyclonProtocol, "sample_peers", "membership.sample_peers")
    plain(RedundancyManager, "run_census", "redundancy.run_census")
    plain(Memtable, "get", "store.memtable_get")
    plain(Memtable, "get_any", "store.memtable_get")  # the storage read path's lookup
    plain(Memtable, "put", "store.memtable_put")
    plain(DataDroplets, "put", "core.facade")
    plain(DataDroplets, "get", "core.facade")
    pending = [Sieve]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "admits" in cls.__dict__ and not getattr(cls.__dict__["admits"], "__isabstractmethod__", False):
            plain(cls, "admits", "sieve.admits")
    for cls in Message.__subclasses__():
        if "size_bytes" in cls.__dict__:
            plain(cls, "size_bytes", "common.size_bytes")

    run = spans.run
    handle_message = Node.__dict__["handle_message"]
    set_timer = Node.__dict__["set_timer"]
    msg_keys: Dict[str, str] = {}

    def timed_handle_message(node, sender, protocol, message):
        key = msg_keys.get(protocol)
        if key is None:
            if not node.has_protocol(protocol):
                return run("other" + MSG, handle_message, node, sender, protocol, message)
            key = msg_keys[protocol] = protocol_key(node.protocol(protocol)) + MSG
        return run(key, handle_message, node, sender, protocol, message)

    def timed_set_timer(node, delay, callback):
        owner = _timer_owner(callback)
        key = (protocol_key(owner) if owner is not None else "other") + TIMER
        return set_timer(node, delay, spans.wrap(callback, key))

    replace(Node, "handle_message", timed_handle_message)
    replace(Node, "set_timer", timed_set_timer)

    def restore() -> None:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)

    return restore


def layer_of(key: str) -> Optional[str]:
    """Strip the ``#msg`` / ``#timer`` suffix of a protocol span key."""
    for suffix in (MSG, TIMER):
        if key.endswith(suffix):
            return key[: -len(suffix)]
    return None
