"""Tests for the benchmark's own helpers.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.soc.events import EventSource, SecurityEvent
from repro.core.safety import Asil
from repro.soc.service import decode_message, encode_batch
from repro.soc.store import unframe_payload

from perfbench.spec import E2E_UNITS, WORKLOADS, service_config
from perfbench.stats import tail
from perfbench.trace import Spans, Tracer, self_times
from perfbench.workloads import (InputStats, batch_payload, build_ingest,
                                 build_regions)


# -- the declaration ---------------------------------------------------------

def test_benchmark_json_matches_the_code():
    import json
    from pathlib import Path

    from perfbench.layers import MOVES

    declared = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for metric in declared["end_to_end"]:
        assert E2E_UNITS[metric["name"]] == metric["unit"]
    assert {m["name"] for m in declared["per_layer"]} == set(MOVES)


# -- the percentile rule ---------------------------------------------------

def test_tail_reports_p99_when_ten_samples_lie_beyond():
    values = list(range(1000))
    result = tail(values)
    assert result.quantile == pytest.approx(0.99)
    assert result.samples == 1000
    assert sum(v > result.value for v in values) == 10


def test_tail_falls_back_to_the_highest_supported_percentile():
    values = [float(v) for v in range(500)][::-1]
    result = tail(values)
    assert sum(v > result.value for v in values) == 10
    assert result.quantile == pytest.approx(490 / 500)
    assert result.samples == 500


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)
    assert tail([float(v) for v in range(11)]).value == 0.0


# -- self time -------------------------------------------------------------

def test_self_time_subtracts_direct_children_union_once():
    # 0: parent [0, 10]; 1 and 2 overlap ([1, 3] and [2, 5]); 3 is a
    # grandchild inside 1; 4 pokes out of the parent and is clipped.
    start = np.array([0.0, 1.0, 2.0, 1.5, 9.0])
    end = np.array([10.0, 3.0, 5.0, 2.0, 12.0])
    parent = np.array([-1, 0, 0, 1, 0])
    out = self_times(start, end, parent)
    assert out[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert out[1] == pytest.approx(2.0 - 0.5)
    assert out[2] == pytest.approx(3.0)
    assert out[3] == pytest.approx(0.5)
    assert out[4] == pytest.approx(3.0)


def test_self_time_of_disjoint_children_and_lone_spans():
    start = np.array([0.0, 1.0, 4.0, 20.0])
    end = np.array([10.0, 2.0, 6.0, 21.0])
    parent = np.array([-1, 0, 0, -1])
    assert list(self_times(start, end, parent)) == pytest.approx(
        [7.0, 1.0, 2.0, 1.0])


def test_tracer_nests_spans_and_inherits_the_request_id():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    class Layer:
        def inner(self, n):
            return n * 2

        def outer(self, n):
            return self.inner(n) + 1

        def rows(self):
            yield from (1, 2, 3)

    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "outer", "outer", req_of=lambda self, n: n)
    tracer.wrap(Layer, "rows", "rows", materialize=True)
    layer = Layer()
    assert layer.outer(7) == 15
    assert list(layer.rows()) == [1, 2, 3]
    spans = Spans.from_tracer(tracer)
    outer = np.nonzero(spans.mask("outer"))[0][0]
    inner = np.nonzero(spans.mask("inner"))[0][0]
    assert spans.parent[inner] == outer
    assert spans.req[inner] == spans.req[outer] == 7
    assert spans.self_total("outer") == pytest.approx(
        spans.total("outer") - spans.total("inner"))
    assert spans.count("rows") == 1


# -- the generator ---------------------------------------------------------

def _frames(name: str, seed: int):
    inputs = build_ingest(WORKLOADS[name], seed, seconds=0.8,
                          saturation_share=0.5, rounds=2)
    frames = []
    for rnd in inputs.rounds:
        frames += [b.frame for conn in rnd.saturation for b in conn]
        frames += [b.frame for b in rnd.open_loop]
    return frames, inputs


@pytest.mark.parametrize("name", ["fleet_steady", "campaign_storm"])
def test_generator_is_byte_identical_per_seed(name):
    first, _ = _frames(name, 5)
    again, _ = _frames(name, 5)
    other, _ = _frames(name, 6)
    assert first == again
    assert first != other


def test_generator_seals_auth_payloads_deterministically():
    spec = dataclasses.replace(WORKLOADS["auth_steady"],
                               expected_sat_eps=200.0, rate_eps=200.0)
    one = build_ingest(spec, 3, 0.4, 0.5, 1)
    two = build_ingest(spec, 3, 0.4, 0.5, 1)
    assert one.fleet_key == two.fleet_key
    assert ([b.frame for b in one.rounds[0].open_loop]
            == [b.frame for b in two.rounds[0].open_loop])


def test_batch_payload_matches_the_service_codec():
    rows = [["00000001deadbeef", 1.6e9 + 0.5, "veh-000001", "ids",
             "ids.local:veh-000001:2", 2, []]]
    events = [SecurityEvent(event_id=r[0], time=r[1], vehicle_id=r[2],
                            source=EventSource(r[3]), signature=r[4],
                            severity=Asil(r[5])) for r in rows]
    assert batch_payload(9, rows) == encode_batch(9, events)
    assert decode_message(batch_payload(9, rows))[2] == events


def test_schedule_and_event_times_follow_the_rate():
    frames, inputs = _frames("fleet_steady", 2)
    spec = WORKLOADS["fleet_steady"]
    gap = spec.batch_events / spec.rate_eps
    for rnd in inputs.rounds:
        dues = [b.due_s for b in rnd.open_loop]
        assert dues == pytest.approx([i * gap for i in range(len(dues))])
    # One global event-time schedule across rounds and phases.
    times = sorted(decode_message(unframe_payload(f))[2][0].time
                   for f in frames)
    assert np.diff(times) == pytest.approx(gap, abs=1e-6)


def test_regions_keep_each_campaign_below_k_but_not_the_fleet():
    regions, campaign, _ = build_regions(WORKLOADS["federation_replay"], 3,
                                         30_000)
    k = service_config().k
    fleetwide = {sig: set() for sig in campaign}
    for region in regions:
        local = {sig: set() for sig in campaign}
        for _, items in region.handoffs:
            for _, _, _, payload in items:
                for event in decode_message(payload)[2]:
                    if event.signature in campaign:
                        local[event.signature].add(event.vehicle_id)
        assert all(len(v) == k - 1 for v in local.values())
        for sig, vehicles in local.items():
            fleetwide[sig] |= vehicles
    assert all(len(v) == len(regions) * (k - 1) for v in fleetwide.values())


# -- hit-share accounting --------------------------------------------------

def test_input_stats_count_campaign_share_vehicles_and_signatures():
    stats = InputStats()
    rows = [["a", 0.0, "v1", "ids", "ids.campaign:00", 2, []],
            ["b", 0.0, "v2", "ids", "ids.campaign:00", 2, []],
            ["c", 0.0, "v1", "ids", "ids.local:v1:0", 2, []],
            ["d", 0.0, "v3", "ids", "ids.local:v3:1", 3, []]]
    stats.add(rows, 400, {"ids.campaign:00"})
    props = stats.as_dict()
    assert props["campaign_event_share"] == pytest.approx(0.5)
    assert props["distinct_vehicles"] == 3
    assert props["distinct_signatures"] == 3
    assert props["bytes_per_event"] == pytest.approx(100.0)


@pytest.mark.parametrize("name,low,high", [("fleet_steady", 0.0, 0.05),
                                           ("campaign_storm", 0.8, 0.9)])
def test_workloads_have_their_designed_campaign_share(name, low, high):
    _, inputs = _frames(name, 4)
    share = inputs.stats.as_dict()["campaign_event_share"]
    assert low < share < high
