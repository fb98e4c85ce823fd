"""Facade benchmark of the DataDroplets stack.

Run one workload from the root of the repository::

    python3 perfbench/run.py --workload read-n64 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
seed once untraced and once with every layer's entry points timed, checks
that both runs executed identically, and prints the per-layer metrics.
The last line of standard output is the result as one JSON object; the
line before it records the run's environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per untraced run; setup_s is their median. Two: a set-up is
#: over half of a read-n64 run, and rescaled set-ups spread by ~0.03, so a
#: third would add run time but no steadiness.
SETUP_REPEATS = 2

#: protocols of the stock stack, as ``<package>.<protocol name>``
PROTOCOLS = (
    "softstate.soft",
    "core.storage",
    "core.client",
    "epidemic.gossip",
    "randomwalk.random-walk",
    "membership.membership",
    "estimation.size-estimator",
    "estimation.push-sum",
    "redundancy.range-repair",
    "redundancy.redundancy",
)

#: span keys of the layers reported per call
CALL_LAYERS = (
    "sim.net_send",
    "common.size_bytes",
    "membership.sample_peers",
    "redundancy.run_census",
    "store.memtable_get",
    "store.memtable_put",
    "sieve.admits",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the measured phase (op counts are a fixed function of it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(setups: List[float], run) -> Dict[str, Tuple[float, str]]:
    """The 15 end-to-end metrics of one untraced pass."""
    from measure import MIN_BEYOND, percentile, wilson_upper

    def lat(kind: str, attr: str, q: float) -> float:
        values = [getattr(r, attr) for r in run.records if r.kind == kind]
        return ms(percentile(values, q, MIN_BEYOND if q > 50 else 0))

    ops = run.attempted
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / run.wall_s, "1/s"),
        "cpu_ms_per_op": (ms(run.cpu_s) / ops, "ms"),
        "put_p50_ms": (lat("put", "wall_s", 50), "ms"),
        "put_p90_ms": (lat("put", "wall_s", 90), "ms"),
        "get_p50_ms": (lat("get", "wall_s", 50), "ms"),
        "get_p90_ms": (lat("get", "wall_s", 90), "ms"),
        "vput_p50_ms": (lat("put", "virt_s", 50), "ms"),
        "vput_p90_ms": (lat("put", "virt_s", 90), "ms"),
        "vget_p50_ms": (lat("get", "virt_s", 50), "ms"),
        "vget_p90_ms": (lat("get", "virt_s", 90), "ms"),
        "msgs_per_op": (run.counters.get("net.sent.total", 0.0) / ops, "count"),
        "bytes_per_op": (run.counters.get("net.bytes.total", 0.0) / ops, "B"),
        "op_error_rate": (wilson_upper(run.failed, ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wire_protocol(counter: str, prefix: str):
    """Protocol name (instance suffix dropped) of a per-protocol network
    counter such as ``net.sent.push-sum:count``; None for other counters,
    including the per-category ``net.sent.<protocol>.<category>`` ones."""
    if not counter.startswith(prefix) or "." in counter[len(prefix):]:
        return None
    return counter[len(prefix):].split(":")[0]


def per_layer(plain, traced) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: counts and time shares from the traced pass,
    rates from the untraced pass of the same seed. Times per call are
    rescaled to reference speed like the pass's wall time."""
    from spans import LOOP, layer_of

    ops = traced.attempted
    c = traced.counters
    total = sum(traced.self_time.values())
    us = 1e6 * traced.wall_s / traced.raw_wall_s
    out: Dict[str, Tuple[float, str]] = {}

    def share(seconds: float) -> Tuple[float, str]:
        return (seconds / total, "ratio")

    # sim
    dropped = sum(v for k, v in c.items() if k.startswith("net.dropped."))
    out["sim.events_per_op"] = (traced.events / ops, "count")
    out["sim.events_per_s"] = (plain.events / plain.wall_s, "1/s")
    out["sim.virt_s_per_wall_s"] = (plain.virt_s / plain.wall_s, "ratio")
    out["sim.loop.self_share"] = share(traced.self_time.get(LOOP, 0.0))
    out["sim.dropped_per_op"] = (dropped / ops, "count")

    # call-counted layers
    for key in CALL_LAYERS:
        calls = traced.calls.get(key, 0)
        seconds = traced.self_time.get(key, 0.0)
        out[f"{key}.calls_per_op"] = (calls / ops, "count")
        out[f"{key}.us_per_call"] = (seconds * us / calls if calls else 0.0, "us")
        out[f"{key}.self_share"] = share(seconds)

    # protocols: handler + timer self time, wire traffic
    proto_time: Dict[str, float] = {p: 0.0 for p in PROTOCOLS}
    other = 0.0
    for key, seconds in traced.self_time.items():
        layer = layer_of(key)
        if layer is None:
            continue
        if layer in proto_time:
            proto_time[layer] += seconds
        else:
            other += seconds
    for proto in PROTOCOLS:
        name = proto.split(".", 1)[1]
        handled = traced.calls.get(proto + "#msg", 0)
        handler = traced.self_time.get(proto + "#msg", 0.0)
        sent = sum(v for k, v in c.items() if wire_protocol(k, "net.sent.") == name)
        sent_bytes = sum(v for k, v in c.items() if wire_protocol(k, "net.bytes.") == name)
        out[f"{proto}.msgs_per_op"] = (sent / ops, "count")
        out[f"{proto}.bytes_per_op"] = (sent_bytes / ops, "B")
        out[f"{proto}.us_per_msg"] = (handler * us / handled if handled else 0.0, "us")
        out[f"{proto}.timer_fires_per_op"] = (traced.calls.get(proto + "#timer", 0) / ops, "count")
        out[f"{proto}.self_share"] = share(proto_time[proto])
    out["other.self_share"] = share(other)

    # redundancy ground truth and repair work
    replicas = traced.replicas
    out["redundancy.censuses_per_op"] = (traced.calls.get("redundancy.run_census", 0) / ops, "count")
    out["redundancy.repairs_per_op"] = (c.get("redundancy.repairs", 0.0) / ops, "count")
    out["redundancy.items_repaired_per_op"] = (
        (c.get("antientropy.items_applied", 0.0) + c.get("redundancy.items_redisseminated", 0.0)) / ops,
        "count")
    out["redundancy.live_replicas_per_key"] = (sum(replicas) / len(replicas) if replicas else 0.0, "count")
    out["redundancy.zero_replica_frac"] = (
        sum(1 for r in replicas if r == 0) / len(replicas) if replicas else 0.0, "ratio")

    delivered = c.get("gossip.delivered", 0.0)
    duplicates = c.get("gossip.duplicates", 0.0)
    out["epidemic.gossip.useful_ratio"] = (
        delivered / (delivered + duplicates) if delivered + duplicates else 0.0, "ratio")
    reads = c.get("soft.reads", 0.0)
    out["softstate.cache_hit_ratio"] = (c.get("soft.cache_hits", 0.0) / reads if reads else 0.0, "ratio")

    out["core.client.retries_per_op"] = (traced.retries / ops, "count")
    out["core.facade.self_share"] = share(traced.self_time.get("core.facade", 0.0))
    out["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
    return out


def run_record(args: argparse.Namespace, workload, run) -> Dict[str, object]:
    """Where and on what this result was measured. ``src_sha256`` names
    the program's sources where no git commit is available; ``probe_ms``
    (median probe) and ``raw_wall_s`` show the host's speed during the
    measured pass (perfbench/speed.py)."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "probe_ms": ms(run.probe_s),
        "raw_wall_s": run.raw_wall_s,
        "config": dataclasses.asdict(workload.config()),
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no DataDroplets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from measure import check_metric_name
    from spans import SpanClock, instrument
    from workloads import WORKLOADS, run_ops, set_up

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workload.make_inputs(random.Random(f"{workload.name}/{args.seed}"), args.seconds)
    problems: List[str] = []

    if args.trace == 0:
        setups = []
        for _ in range(SETUP_REPEATS):
            client = None
            gc.collect()
            client, elapsed = set_up(workload, inputs)
            setups.append(elapsed)
        run = run_ops(workload, inputs, client)
        metrics = end_to_end(setups, run)
    else:
        client, _ = set_up(workload, inputs)
        plain = run_ops(workload, inputs, client)
        client = None
        gc.collect()
        spans = SpanClock()
        restore = instrument(spans)
        try:
            client, _ = set_up(workload, inputs)
            run = run_ops(workload, inputs, client, spans)
        finally:
            restore()
        if run.exact() != plain.exact():
            problems.append("traced run diverged from the untraced run of the same seed")
        if plain.failed:
            problems.append(f"{plain.failed} ops failed in the untraced pass")
        metrics = per_layer(plain, run)
        shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share"))
        if abs(shares - 1.0) > 1e-6:
            problems.append(f"self shares sum to {shares!r}, not 1")

    if run.failed:
        problems.append(f"{run.failed} of {run.attempted} ops failed or read a stale value")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"run": run_record(args, workload, run)}, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {check_metric_name(name): {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
