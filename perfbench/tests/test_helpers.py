"""Unit tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import random
import signal
import time

import pytest

import run
from measure import MIN_BEYOND, check_metric_name, percentile, samples_beyond, wilson_upper
from spans import MSG, TIMER, SpanClock, layer_of, protocol_key
from speed import NOMINAL_S, Meter, probe_work, segment_scales
import workloads
from workloads import OpRecord, PassResult


# -- percentile rule ---------------------------------------------------------

def test_p90_of_100_samples_keeps_ten_beyond():
    assert samples_beyond(100, 90) == MIN_BEYOND
    assert percentile(range(1, 101), 90, MIN_BEYOND) == 90


def test_p90_with_too_few_samples_beyond_is_refused():
    assert samples_beyond(99, 90) == 9
    with pytest.raises(ValueError):
        percentile(range(99), 90, MIN_BEYOND)


def test_p99_needs_a_thousand_samples():
    assert samples_beyond(1000, 99) == MIN_BEYOND
    with pytest.raises(ValueError):
        percentile(range(999), 99, MIN_BEYOND)


def test_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_wilson_upper_is_positive_and_grows_with_failures():
    clean = wilson_upper(0, 1000)
    assert 0 < clean < 0.004
    assert wilson_upper(1, 1000) > clean
    assert wilson_upper(1000, 1000) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wilson_upper(1, 0)


# -- self time from nested spans ---------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    spans = SpanClock(clock)

    def advance(seconds):
        clock.now += seconds

    def leaf():
        advance(1.0)

    def middle():
        advance(1.0)
        spans.run("leaf", leaf)
        advance(1.0)

    def outer():
        advance(2.0)
        spans.run("middle", middle)
        advance(5.0)

    spans.run("outer", outer)
    assert spans.self_time == {"outer": 7.0, "middle": 2.0, "leaf": 1.0}
    assert spans.calls == {"outer": 1, "middle": 1, "leaf": 1}
    assert sum(spans.self_time.values()) == clock.now


def test_same_key_nesting_folds_into_one_call():
    clock = FakeClock()
    spans = SpanClock(clock)

    def inner():
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        spans.run("sieve", inner)

    spans.run("sieve", outer)
    assert spans.self_time == {"sieve": 2.0}
    assert spans.calls == {"sieve": 1}


def test_reset_keeps_open_spans_consistent():
    clock = FakeClock()
    spans = SpanClock(clock)

    def outer():
        clock.now += 1.0
        spans.run("child", lambda: setattr(clock, "now", clock.now + 1.0))
        spans.reset()
        clock.now += 1.0

    spans.run("outer", outer)
    # the child ran before the reset, so the outer span keeps all 3 s
    assert spans.self_time == {"outer": 3.0}


def test_wrap_times_calls_and_passes_results_through():
    clock = FakeClock()
    spans = SpanClock(clock)
    timed = spans.wrap(lambda x, y=1: x + y, "add")
    assert timed(2, y=3) == 5
    assert spans.calls == {"add": 1}


def test_protocol_span_keys():
    class Fake:
        __module__ = "repro.estimation.pushsum"
        name = "push-sum:count"

    assert protocol_key(Fake()) == "estimation.push-sum"
    assert layer_of("core.storage" + MSG) == "core.storage"
    assert layer_of("core.storage" + TIMER) == "core.storage"
    assert layer_of("sim.loop") is None


def test_wire_protocol_skips_category_counters():
    assert run.wire_protocol("net.sent.push-sum:count", "net.sent.") == "push-sum"
    assert run.wire_protocol("net.sent.range-repair", "net.sent.") == "range-repair"
    assert run.wire_protocol("net.sent.range-repair.items", "net.sent.") is None
    assert run.wire_protocol("net.bytes.gossip", "net.sent.") is None


# -- rescaling to reference speed -------------------------------------------

def _meter(marks, probes):
    meter = Meter()
    meter.marks, meter.probes = list(marks), list(probes)
    meter.scales = segment_scales(probes)
    return meter


def test_rescale_integrates_the_local_scale_over_segments():
    # host at half the reference speed for two segments, then at it
    meter = _meter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [2 * NOMINAL_S] * 3 + [NOMINAL_S] * 3)
    assert meter.scales == pytest.approx([0.5, 0.5, 2 / 3, 1.0, 1.0])
    assert meter.rescale(0.0, 2.0) == pytest.approx(1.0)
    assert meter.rescale(0.25, 0.75) == pytest.approx(0.25)
    assert meter.rescale(3.5, 5.0) == pytest.approx(1.5)
    assert meter.rescale(1.5, 3.5) == pytest.approx(0.25 + 2 / 3 + 0.5)


def test_one_disturbed_probe_does_not_set_a_scale():
    scales = segment_scales([NOMINAL_S, NOMINAL_S, 10 * NOMINAL_S, NOMINAL_S, NOMINAL_S])
    assert scales == pytest.approx([1.0] * 4)


def test_a_slower_host_cancels_out():
    fast = _meter([0.0, 1.0, 2.0], [NOMINAL_S] * 3)
    slow = _meter([0.0, 1.4, 2.8], [1.4 * NOMINAL_S] * 3)
    assert slow.rescale(0.0, 2.8) == pytest.approx(fast.rescale(0.0, 2.0))


def test_meter_clock_leaves_probes_out():
    with Meter(probe=lambda: time.sleep(0.004) or 0.004, tick=0.001) as meter:
        start, wall0 = meter.now(), time.perf_counter()
        while time.perf_counter() - wall0 < 0.05:
            pass
        program = meter.now() - start
    assert len(meter.probes) > 3
    # the probes slept at least 4 ms each, none of it counted
    assert program < time.perf_counter() - wall0 - 0.004 * (len(meter.probes) - 2)
    assert meter.rescale(start, start + program) == pytest.approx(program * NOMINAL_S / 0.004)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_work_is_fixed():
    assert probe_work() == probe_work()


# -- paced inputs ------------------------------------------------------------

def _inputs(name, seed=3):
    return workloads.WORKLOADS[name].make_inputs(random.Random(f"{name}/{seed}"), 20)


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        assert _inputs(name) == _inputs(name)
        assert _inputs(name) != _inputs(name, seed=4)


def test_read_ops_are_paced_with_one_put_per_block_of_ten():
    ops = _inputs("read-n64").ops
    assert len(ops) == 1000
    assert [op.at for op in ops] == pytest.approx([i * workloads.READ_SLOT for i in range(1000)])
    for block in range(0, 1000, 10):
        assert [op.kind for op in ops[block:block + 10]].count("put") == 1


def test_write_cycles_read_back_every_key_after_its_put():
    ops = _inputs("write-n256").ops
    puts = [op for op in ops if op.kind == "put"]
    assert len(puts) == 100 and len({op.key for op in puts}) == 100
    written = set()
    for op in ops:
        if op.kind == "put":
            written.add(op.key)
        else:
            assert op.key in written
    assert {op.key for op in ops if op.kind == "get"} == written
    assert ops[-1].at < 100 * workloads.WRITE_CYCLE


def test_churn_read_back_spans_whole_census_periods():
    keys = [f"k{i}" for i in range(7)]
    ops = workloads.read_back(keys)
    assert [op.key for op in ops] == keys * workloads.READ_BACK_ROUNDS
    period = workloads.CENSUS_PERIOD
    assert [op.at for op in ops] == pytest.approx(
        [r * period + j * period / 7 for r in range(workloads.READ_BACK_ROUNDS) for j in range(7)])


# -- metric names ------------------------------------------------------------

@pytest.mark.parametrize("name", ["ops_per_s", "sim.loop.self_share", "randomwalk.random-walk.us_per_msg"])
def test_legal_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", "push-sum:count", "a b", "µs", "x" * 65])
def test_illegal_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def _fake_pass() -> PassResult:
    records = [OpRecord(kind, 0.01 * (i + 1), 0.05, True)
               for kind in ("put", "get") for i in range(100)]
    counters = {"net.sent.total": 400.0, "net.bytes.total": 4000.0,
                "net.sent.gossip": 100.0, "net.bytes.gossip": 1000.0}
    return PassResult(records=records, wall_s=2.0, cpu_s=1.5, raw_wall_s=1.0, events=900,
                      virt_s=20.0, counters=counters,
                      self_time={"sim.loop": 1.0, "core.facade": 0.5, "epidemic.gossip" + MSG: 0.5},
                      calls={"sim.loop": 900, "core.facade": 200, "epidemic.gossip" + MSG: 100},
                      replicas=[3, 4, 0])


def test_result_metrics_match_the_benchmark_declaration():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = _fake_pass()
    e2e = run.end_to_end([1.0, 2.0, 3.0], traced)
    layers = run.per_layer(_fake_pass(), traced)
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    for name, (value, unit) in {**e2e, **layers}.items():
        check_metric_name(name)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in {**e2e, **layers}.items())
    shares = sum(v for k, (v, _) in layers.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0)
    assert e2e["setup_s"][0] == 2.0
    assert layers["redundancy.zero_replica_frac"][0] == pytest.approx(1 / 3)
