"""Workloads of the facade benchmark and the pass that runs one.

Every workload is a closed loop: one client, at most one operation
outstanding, driven through the stock ``DataDroplets`` facade. The config
stays at ``DataDropletsConfig`` defaults (simulation seed included) except
for the overrides listed per workload, so a later change of a default is
measured. The workload seed only generates the client's inputs: keys,
values, op mix and order.

The op count is a fixed function of the workload and ``--seconds`` (never
of the wall clock), so message, byte and event counts and every virtual
latency repeat exactly for a given seed.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import DataDroplets, DataDropletsConfig
from repro.common.errors import DataDropletsError
from repro.softstate.coordinator import SoftStateConfig

from spans import SpanClock
from speed import Meter

#: Ops of each kind every workload runs at least, so p90 keeps >= 10
#: samples beyond it (measure.MIN_BEYOND).
MIN_PER_KIND = 100

#: Pacing. An op's wall latency is the wall time of the events that run
#: during its virtual latency, and every 10 virtual s (the census period)
#: census bursts multiply the event rate for ~4 s, so an op issued in a
#: burst takes 3-20x longer in wall time than one issued between bursts.
#: If ops ran back to back, the share of them that land in bursts would
#: differ from seed to seed, and a median that sits between the two modes
#: would jump. So the ops of each phase are due at evenly spaced virtual
#: times that cover whole census periods: every seed samples the same
#: census phases.
CENSUS_PERIOD = 10.0
#: read-n64: virtual seconds between ops; puts are one in every block of
#: ten ops (at a seeded position in the block), so they are paced too
READ_SLOT = 0.1
#: write-n256: virtual seconds per cycle of one put (which takes ~0.14 s)
#: and two gets (~0.055 s each). Census bursts differ in size from seed to
#: seed, so each kind is spread over four of them (100 cycles, 40 s)
#: rather than puts over some bursts and then gets over the next. The
#: ~0.15 s of slack per cycle lets the schedule catch up after the rare
#: put that takes seconds; with 0.05 s (a 0.3 s cycle) such a put
#: stretched the whole phase, and messages per op varied by 0.29 between
#: seeds.
WRITE_CYCLE = 0.4
#: churn-n64: read-back rounds after the heal window, one census period
#: each, so the gets sample two bursts
READ_BACK_ROUNDS = 2
#: churn-n64: share of puts that write a fresh key (the rest overwrite a
#: written one). With half fresh, the soft caches served 55-74% of gets
#: depending on the seed, so the get median sat on the edge between cache
#: hits and storage reads and jumped; with 0.8 they serve 36-38%.
CHURN_FRESH = 0.8
#: churn-n64: think time, churn process, heal window after churn stops
CHURN_THINK = 0.5
CHURN_RATE = 0.1
CHURN_DOWNTIME = 30.0
HEAL_WINDOW = 30.0


@dataclass(frozen=True)
class Op:
    kind: str  # "put" | "get"
    key: str = ""
    record: Optional[Dict[str, Any]] = None
    #: virtual seconds the client waits after the op (think time)
    think: float = 0.0
    #: virtual seconds into its phase at which the op is due; the client
    #: issues it then, or as soon as the op before it completes if later
    at: Optional[float] = None


@dataclass(frozen=True)
class Inputs:
    preload: Tuple[Op, ...]
    ops: Tuple[Op, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: Dict[str, Any]
    make_inputs: Callable[[random.Random, int], Inputs]
    #: crash/recover storage nodes during the ops, then heal and read back
    churn: bool = False

    def config(self) -> DataDropletsConfig:
        return DataDropletsConfig(**self.overrides)


def _key(rng: random.Random) -> str:
    return f"key-{rng.getrandbits(48):012x}"


def zipf_sampler(rng: random.Random, items: List[str], theta: float) -> Callable[[], str]:
    """Draw from ``items`` with P(rank r) proportional to 1/r**theta; ranks
    are a seeded permutation so the hot keys differ per seed."""
    ranked = list(items)
    rng.shuffle(ranked)
    cumulative, total = [], 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank ** theta
        cumulative.append(total)
    return lambda: ranked[min(len(ranked) - 1, bisect.bisect_left(cumulative, rng.random() * total))]


def _stratified_kinds(rng: random.Random, blocks: int, block: Tuple[str, ...]) -> List[str]:
    """``blocks`` copies of ``block``, each in its own seeded order, so the
    kinds are mixed evenly along the run."""
    kinds: List[str] = []
    for _ in range(blocks):
        order = list(block)
        rng.shuffle(order)
        kinds.extend(order)
    return kinds


def read_inputs(rng: random.Random, seconds: int) -> Inputs:
    """200 preloaded keys, then exactly 10% puts / 90% gets, Zipf(0.99),
    one op due every READ_SLOT virtual seconds."""
    keys = [_key(rng) for _ in range(200)]
    preload = tuple(Op("put", k, {"k": k, "n": 0}) for k in keys)
    total = max(10 * MIN_PER_KIND, 50 * seconds // 10 * 10)
    draw = zipf_sampler(rng, keys, 0.99)
    ops = []
    kinds = _stratified_kinds(rng, total // 10, ("put",) + ("get",) * 9)
    for i, kind in enumerate(kinds, start=1):
        key = draw()
        ops.append(Op(kind, key, {"k": key, "n": i} if kind == "put" else None,
                      at=(i - 1) * READ_SLOT))
    return Inputs(preload, tuple(ops))


def write_inputs(rng: random.Random, seconds: int) -> Inputs:
    """Cycles of a fresh-key put, a read-back get of that key and a get of
    a key written so far, one cycle due every WRITE_CYCLE virtual seconds
    (the gets at half and three quarters into it)."""
    count = max(MIN_PER_KIND, 5 * seconds)
    keys = [_key(rng) for _ in range(count)]
    ops = []
    for i, key in enumerate(keys):
        due = i * WRITE_CYCLE
        ops.append(Op("put", key, {"k": key, "n": i + 1}, at=due))
        ops.append(Op("get", key, at=due + 0.5 * WRITE_CYCLE))
        ops.append(Op("get", keys[rng.randrange(i + 1)], at=due + 0.75 * WRITE_CYCLE))
    return Inputs((), tuple(ops))


def churn_inputs(rng: random.Random, seconds: int) -> Inputs:
    """50/50 put/get with think time, in seeded put/get pairs; a put
    writes a fresh key (CHURN_FRESH of them) or overwrites a written one,
    a get reads a written key. The first op is a put."""
    half = max(MIN_PER_KIND + 20, 8 * seconds)
    kinds = ["put"] + _stratified_kinds(rng, half - 1, ("put", "get")) + ["get"]
    written: List[str] = []
    ops = []
    for i, kind in enumerate(kinds, start=1):
        if kind == "put":
            if not written or rng.random() < CHURN_FRESH:
                written.append(_key(rng))
                key = written[-1]
            else:
                key = rng.choice(written)
            ops.append(Op("put", key, {"k": key, "n": i}, think=CHURN_THINK))
        else:
            ops.append(Op("get", rng.choice(written), think=CHURN_THINK))
    return Inputs((), tuple(ops))


def read_back(keys: List[str]) -> List[Op]:
    """READ_BACK_ROUNDS rounds of one get per key, each round spread
    evenly over one census period."""
    slot = CENSUS_PERIOD / max(1, len(keys))
    return [Op("get", k, at=r * CENSUS_PERIOD + j * slot)
            for r in range(READ_BACK_ROUNDS) for j, k in enumerate(keys)]


_CACHE16 = {"soft": SoftStateConfig(cache_capacity=16)}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "read-n64",
            "Zipf reads over 200 keys, 3x the soft layer's 64 cache entries: the read path "
            "(coordinator, storage hints, memtable lookups, cache hit vs miss) does real work",
            dict(n_storage=64, **_CACHE16),
            read_inputs,
        ),
        Workload(
            "write-n256",
            "fresh-key puts at N=256, each read back: gossip to ~N*fanout peers and random-walk census "
            "traffic dominate; the put-throughput cell at scale",
            dict(n_storage=256),
            write_inputs,
        ),
        Workload(
            "churn-n64",
            "storage nodes crash and recover under 50/50 traffic with think time: range "
            "repair, census eviction and dead hints; background cost per virtual second",
            dict(n_storage=64, **_CACHE16),
            churn_inputs,
            churn=True,
        ),
    )
}


@dataclass
class OpRecord:
    kind: str
    #: wall latency (rescaled to reference speed once the pass ends)
    wall_s: float
    virt_s: float
    ok: bool
    #: start of the call on the client's clock
    start: float = 0.0


@dataclass
class PassResult:
    """Everything the measured phase of one pass observed. Times are
    rescaled to reference speed (speed.Meter); ``raw_wall_s`` (probes
    excluded) and ``probe_s`` (median probe) are as measured."""

    records: List[OpRecord] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    probe_s: float = 0.0
    events: int = 0
    virt_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    retries: int = 0
    self_time: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    replicas: List[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def exact(self) -> Tuple:
        """The counts that must repeat exactly for one seed."""
        return (
            self.attempted,
            self.counters.get("net.sent.total", 0.0),
            self.counters.get("net.bytes.total", 0.0),
            self.events,
            tuple((r.kind, r.virt_s) for r in self.records),
        )


class Client:
    """Issues ops through the facade, times them and checks each get
    against the last acked write of its key."""

    def __init__(self, dd: DataDroplets, clock: Callable[[], float] = time.perf_counter):
        self.dd = dd
        self.clock = clock
        self.acked: Dict[str, Dict[str, Any]] = {}
        self.records: List[OpRecord] = []
        self.retries = 0
        dd.set_op_observer(self._observe)

    def _observe(self, trace) -> None:
        self.retries += max(0, len(trace.attempts) - 1)

    def do(self, op: Op, origin: float = 0.0) -> None:
        """Issue ``op`` when it is due (``op.at`` virtual seconds after
        ``origin``), check it, then wait its think time."""
        dd = self.dd
        if op.at is not None and origin + op.at > dd.sim.now:
            dd.run_for(origin + op.at - dd.sim.now)
        virt0 = dd.sim.now
        start = self.clock()
        try:
            if op.kind == "put":
                dd.put(op.key, op.record)
                ok = True
            else:
                ok = dd.get(op.key) == self.acked.get(op.key)
        except DataDropletsError:
            ok = False
        wall = self.clock() - start
        if ok and op.kind == "put":
            self.acked[op.key] = op.record
        self.records.append(OpRecord(op.kind, wall, dd.sim.now - virt0, ok, start))
        if op.think:
            dd.run_for(op.think)


def set_up(workload: Workload, inputs: Inputs) -> Tuple[Client, float]:
    """Build, start and preload one cluster; returns it with the seconds
    that took, rescaled to reference speed."""
    with Meter() as meter:
        start = meter.now()
        dd = DataDroplets(workload.config())
        dd.start()
        client = Client(dd)
        for op in inputs.preload:
            client.do(op)
        end = meter.now()
    elapsed = meter.rescale(start, end)
    if not all(r.ok for r in client.records):
        raise RuntimeError(f"{workload.name}: preload write failed")
    client.records.clear()
    client.retries = 0
    return client, elapsed


def run_ops(workload: Workload, inputs: Inputs, client: Client,
            spans: Optional[SpanClock] = None) -> PassResult:
    """Run the workload's ops on a set-up cluster and collect the result."""
    dd = client.dd
    metrics = dd.metrics
    gc.collect()
    before = {name: c.value for name, c in metrics.counters.items()}
    events0, virt0 = dd.sim.events_processed, dd.sim.now
    with Meter() as meter:
        client.clock = meter.now
        if spans is not None:
            # probes run inside spans; the meter's clock leaves them out
            spans.clock = meter.now
            spans.reset()
        cpu0, wall0 = meter.cpu(), meter.now()

        churn = None
        if workload.churn:
            churn = dd.churn(event_rate=CHURN_RATE, mean_downtime=CHURN_DOWNTIME)
            churn.start()
        for op in inputs.ops:
            client.do(op, virt0)
        if churn is not None:
            churn.stop()
            dd.run_for(HEAL_WINDOW)
            origin = dd.sim.now
            for op in read_back(sorted(client.acked)):
                client.do(op, origin)

        wall = meter.now() - wall0
        cpu = meter.cpu() - cpu0
    for record in client.records:
        record.wall_s = meter.rescale(record.start, record.start + record.wall_s)
    scaled = meter.rescale(wall0, wall0 + wall)
    result = PassResult(records=list(client.records), wall_s=scaled, cpu_s=cpu * scaled / wall,
                        raw_wall_s=wall, probe_s=statistics.median(meter.probes),
                        events=dd.sim.events_processed - events0, virt_s=dd.sim.now - virt0,
                        retries=client.retries)
    if spans is not None:
        result.self_time = dict(spans.self_time)
        result.calls = dict(spans.calls)
    result.counters = {name: c.value - before.get(name, 0.0)
                       for name, c in metrics.counters.items()}
    result.replicas = live_replicas(dd, client.acked)
    return result


def live_replicas(dd: DataDroplets, acked: Dict[str, Dict[str, Any]]) -> List[int]:
    """Ground truth per acked key: up storage nodes whose memtable holds
    its last acked record."""
    tables = [n.durable["memtable"] for n in dd.storage_nodes
              if n.is_up and "memtable" in n.durable]
    counts = []
    for key, record in sorted(acked.items()):
        held = 0
        for table in tables:
            item = table.get_any(key)
            if item is not None and not item.tombstone and item.record == record:
                held += 1
        counts.append(held)
    return counts
