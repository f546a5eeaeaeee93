"""The columnar correlate hot path, proven byte-identical differentially.

The columnar rewrite (``ColumnarBatch`` built once at drain time,
``CorrelationEngine.observe_columnar`` doing the batch's work as numpy /
C-level dict operations) is a pure performance change; these tests are
the proof:

- Hypothesis properties drive arbitrary streams -- ragged batch splits,
  exact duplicate redeliveries, late/out-of-order times, sub-threshold
  (LOWEST_SEVERITY-class) events -- through the columnar, per-event, and
  :class:`ReferenceCorrelationEngine` paths and require byte-identical
  ``snapshot()`` state between columnar and per-event (the reference
  engine, which predates snapshots, is held to equal observables:
  verdict stream, counters, watermark, flagged campaigns), at 1 and at
  4 signature-sharded engine sets, both with the production batch-size
  gate and with it forced open (``COLUMNAR_MIN_BATCH=1``) so small
  Hypothesis batches exercise the vector spans, not just the scalar
  fallback;
- pinned regressions: ``observe_batch([])`` / an empty columnar batch
  are exact no-ops (state *and* metrics, counters included), and a
  fully severity-filtered batch leaves the engine byte-identical to the
  per-event path -- which does count ``observed``/
  ``low_severity_ignored`` and does advance the seen-ledger/watermark,
  so "no-op" is defined by the per-event semantics, not by wishing the
  counters away;
- center: a responding :class:`SecurityOperationsCenter` in columnar
  mode ends with the same metrics, flagged campaigns and incident
  lifecycles (opens, spread attribution, containment history) as the
  scalar center, at one shard and at four;
- crash paths: with the *writer* in columnar mode, the durable log's
  bytes are identical to the scalar writer's, kill-at-arbitrary-pump
  recovery (``recover_soc_state``) rebuilds the exact live state, and
  the resumed run converges byte-identically to the uninterrupted twin;
- federation: columnar regional writers ship to the byte-identical hub
  state as scalar writers, per-region log segments included.
"""

import json
import zlib
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import repro.soc.correlate as correlate_mod
from repro.core.safety import Asil
from repro.sim import RngStreams, Simulator
from repro.soc import (
    CorrelationEngine,
    DurableStore,
    EventSource,
    FleetModel,
    FleetWorkloadGenerator,
    ReferenceCorrelationEngine,
    SecurityOperationsCenter,
    StringInterner,
    build_batch,
    make_event,
    recover_soc_state,
    seeded_campaigns,
)
from repro.experiments import e18_federation
from repro.experiments.e18_federation import build_federated_scene


def ev(vehicle, sig, time, seq, severity=Asil.C):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


ENGINE_KW = dict(window_s=8.0, k=3, dedup_window_s=4.0, max_lateness_s=2.0)


def observables(engine):
    """Cross-implementation state (works on the reference engine too)."""
    return {
        "metrics": engine.metrics(),
        "watermark": engine.watermark,
        "detections": list(engine.detections),
        "flagged": engine.flagged_signatures,
        "campaigns": {s: engine.campaign_vehicles(s)
                      for s in engine.flagged_signatures},
    }


def canon(engine):
    return json.dumps(engine.snapshot(), sort_keys=True)


# ----------------------------------------------------------------------
# Stream strategy: duplicates, late/out-of-order, sub-threshold severity
# ----------------------------------------------------------------------
# Times stay inside [0, retention_horizon) so the bounded engine cannot
# diverge from the unbounded reference by design (the ledger-eviction
# regressions live in test_soc_correlate_batch).
_spec = st.tuples(
    st.integers(0, 5),                         # vehicle
    st.integers(0, 2),                         # signature
    st.floats(0.0, 5.9),                       # time (< retention 6.0)
    st.sampled_from([Asil.QM, Asil.A, Asil.B, Asil.C, Asil.D]),
    st.one_of(st.none(), st.integers(0, 50)),  # duplicate-of index
)


def build_stream(specs):
    events = []
    for seq, (veh, sig, t, sev, dup) in enumerate(specs):
        if dup is not None and dup < len(events):
            events.append(events[dup])          # exact redelivery
        else:
            events.append(ev(f"v{veh:03d}", f"ids.sig:{sig}", t, seq,
                             severity=sev))
    return events


@st.composite
def stream_and_chunks(draw):
    events = build_stream(draw(st.lists(_spec, min_size=1, max_size=50)))
    sizes = draw(st.lists(st.integers(1, 24), min_size=1, max_size=40))
    return events, sizes


def chunked(events, sizes):
    i = n = 0
    while i < len(events):
        size = sizes[n % len(sizes)]
        yield events[i:i + size]
        i += size
        n += 1


def _run_columnar(events, sizes, num_shards):
    """One engine set per path, the stream signature-sharded across it;
    returns (columnar engines, per-event engines, reference engines)."""
    columnar = [CorrelationEngine(**ENGINE_KW) for _ in range(num_shards)]
    per_event = [CorrelationEngine(**ENGINE_KW) for _ in range(num_shards)]
    reference = [ReferenceCorrelationEngine(**ENGINE_KW)
                 for _ in range(num_shards)]

    def shard_of(e):
        return zlib.crc32(e.signature.encode()) % num_shards

    interner = StringInterner()
    for batch in chunked(events, sizes):
        per_shard = [[] for _ in range(num_shards)]
        for e in batch:
            per_shard[shard_of(e)].append(e)
        for s, span in enumerate(per_shard):
            if span:
                columnar[s].observe_columnar(build_batch(span, interner))
    for e in events:
        s = shard_of(e)
        got, want = per_event[s].observe(e), reference[s].observe(e)
        assert got == want
    return columnar, per_event, reference


class TestColumnarDifferential:
    """The tentpole harness: columnar == per-event == reference."""

    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("min_batch", [1, None])
    @settings(max_examples=150, deadline=None)
    @given(stream_and_chunks())
    def test_columnar_equals_per_event_and_reference(
            self, num_shards, min_batch, case):
        events, sizes = case
        saved = correlate_mod.COLUMNAR_MIN_BATCH
        if min_batch is not None:
            # Force the vector spans open for small Hypothesis batches;
            # the default gate (None) exercises the scalar-fallback
            # routing on the same streams.
            correlate_mod.COLUMNAR_MIN_BATCH = min_batch
        try:
            columnar, per_event, reference = _run_columnar(
                events, sizes, num_shards)
        finally:
            correlate_mod.COLUMNAR_MIN_BATCH = saved
        for col, per, ref in zip(columnar, per_event, reference):
            assert canon(col) == canon(per)     # byte-identical state
            assert observables(col) == observables(ref)

    @settings(max_examples=80, deadline=None)
    @given(stream_and_chunks())
    def test_columnar_verdicts_align_with_per_event(self, case):
        # Verdict *positions*, not just final state: detections must
        # fire at the same batch indices the per-event path fires at.
        events, sizes = case
        saved = correlate_mod.COLUMNAR_MIN_BATCH
        correlate_mod.COLUMNAR_MIN_BATCH = 1
        try:
            columnar = CorrelationEngine(**ENGINE_KW)
            per_event = CorrelationEngine(**ENGINE_KW)
            interner = StringInterner()
            expected = []
            for i, e in enumerate(events):
                if per_event.observe(e) is not None:
                    expected.append(i)
            got = []
            offset = 0
            for batch in chunked(events, sizes):
                result = columnar.observe_columnar(
                    build_batch(batch, interner))
                got.extend(offset + i for i, _ in result.detections)
                offset += len(batch)
        finally:
            correlate_mod.COLUMNAR_MIN_BATCH = saved
        assert got == expected
        assert canon(columnar) == canon(per_event)

    @settings(max_examples=60, deadline=None)
    @given(stream_and_chunks())
    def test_columnar_hits_match_batched_attribution(self, case):
        # ``track_hits`` must reproduce the center's scalar-sink
        # predicate: verdict-less events whose signature is flagged
        # after the batch has been fully observed.
        events, sizes = case
        saved = correlate_mod.COLUMNAR_MIN_BATCH
        correlate_mod.COLUMNAR_MIN_BATCH = 1
        try:
            columnar = CorrelationEngine(**ENGINE_KW)
            scalar = CorrelationEngine(**ENGINE_KW)
            interner = StringInterner()
            for batch in chunked(events, sizes):
                verdicts = scalar.observe_batch(batch)
                expected = [i for i, (e, v) in enumerate(zip(batch, verdicts))
                            if v is None and scalar.is_flagged(e.signature)]
                result = columnar.observe_columnar(
                    build_batch(batch, interner), track_hits=True)
                assert result.hits == expected
        finally:
            correlate_mod.COLUMNAR_MIN_BATCH = saved
        assert canon(columnar) == canon(scalar)


# ----------------------------------------------------------------------
# Pinned regressions: empty and fully severity-filtered batches
# ----------------------------------------------------------------------
class TestDegenerateBatches:
    def test_empty_batches_are_exact_noops(self):
        engine = CorrelationEngine(**ENGINE_KW)
        engine.observe(ev("v1", "ids.sig:0", 1.0, 1))
        before_state = canon(engine)
        before_metrics = engine.metrics()

        assert engine.observe_batch([]) == []
        result = engine.observe_columnar(build_batch([], StringInterner()))
        assert (result.n, result.detections, result.hits) == (0, [], [])

        assert canon(engine) == before_state
        assert engine.metrics() == before_metrics

    @pytest.mark.parametrize("n", [1, 40])
    def test_fully_severity_filtered_batch_equals_per_event(self, n):
        # QM < min_severity B: every event is filtered.  The per-event
        # path still counts observed/low_severity_ignored, records the
        # ids in the seen ledger, and advances the watermark -- the
        # columnar path must do exactly that, bit for bit, and nothing
        # else (no windows, no dedup keys, no detections).
        events = [ev(f"v{i:03d}", f"ids.sig:{i % 3}", 0.5 + 0.01 * i, i,
                     severity=Asil.QM) for i in range(n)]
        per_event = CorrelationEngine(**ENGINE_KW)
        columnar = CorrelationEngine(**ENGINE_KW)
        for e in events:
            assert per_event.observe(e) is None
        result = columnar.observe_columnar(
            build_batch(events, StringInterner()), track_hits=True)

        assert (result.detections, result.hits) == ([], [])
        assert canon(columnar) == canon(per_event)
        assert columnar.metrics() == per_event.metrics()
        assert columnar.metrics()["low_severity_ignored"] == float(n)
        assert columnar.metrics()["observed"] == float(n)
        snap = columnar.snapshot()
        assert snap["windows"] == []
        assert snap["last_by_key"] == []

    def test_filtered_batch_then_live_traffic_stays_identical(self):
        # The filtered batch's ledger/watermark side effects must carry
        # the same consequences forward (e.g. a duplicate id arriving
        # later is rejected on both paths).
        filtered = [ev(f"v{i:03d}", "ids.sig:0", 1.0 + 0.01 * i, i,
                       severity=Asil.QM) for i in range(20)]
        live = [ev(f"v{i:03d}", "ids.sig:1", 2.0 + 0.01 * i, 100 + i)
                for i in range(20)] + [filtered[3]]  # dup id redelivery
        per_event = CorrelationEngine(**ENGINE_KW)
        columnar = CorrelationEngine(**ENGINE_KW)
        interner = StringInterner()
        for e in filtered + live:
            per_event.observe(e)
        columnar.observe_columnar(build_batch(filtered, interner))
        columnar.observe_columnar(build_batch(live, interner))
        assert canon(columnar) == canon(per_event)
        assert columnar.metrics()["duplicate_ids"] == 1.0

    def test_cross_batch_dedup_survives_partial_span_bloom_screen(self):
        # Regression (found by the Hypothesis differential): on a
        # partially severity-filtered span, the chunk-hit screen used to
        # AND the uint8 bloom *bit masks* against the bool admitted mask
        # -- True casts to 1, erasing every hit whose bloom bit isn't
        # bit 0, so a cross-batch duplicate key slipped past dedup with
        # ~7/8 probability.  Two B-severity events from one vehicle in
        # consecutive mixed (QM+B) batches must dedup exactly like the
        # per-event path, for every bloom-bit alignment the key hash
        # happens to land on.
        saved = correlate_mod.COLUMNAR_MIN_BATCH
        correlate_mod.COLUMNAR_MIN_BATCH = 1
        try:
            for veh in [f"v{i:03d}" for i in range(16)]:
                batches = [
                    [ev("v900", "ids.sig:0", 0.0, 0, severity=Asil.QM),
                     ev(veh, "ids.sig:0", 0.0, 1, severity=Asil.B)],
                    [ev("v901", "ids.sig:0", 0.0, 2, severity=Asil.QM),
                     ev(veh, "ids.sig:0", 0.0, 3, severity=Asil.B)],
                ]
                per_event = CorrelationEngine(**ENGINE_KW)
                columnar = CorrelationEngine(**ENGINE_KW)
                interner = StringInterner()
                for batch in batches:
                    columnar.observe_columnar(build_batch(batch, interner))
                    for e in batch:
                        per_event.observe(e)
                assert canon(columnar) == canon(per_event)
                assert columnar.metrics()["deduped"] == 1.0
        finally:
            correlate_mod.COLUMNAR_MIN_BATCH = saved


# ----------------------------------------------------------------------
# Center: columnar and scalar correlate sinks, same incidents
# ----------------------------------------------------------------------
def _responding_scene(columnar, num_shards):
    sim = Simulator()
    rng = RngStreams(3)
    campaigns = seeded_campaigns(rng, 2_000, 0.02)
    fleet = FleetModel(2_000, campaigns)
    soc = SecurityOperationsCenter(sim, fleet, capacity_eps=400.0, k=3,
                                   num_shards=num_shards, columnar=columnar)
    generator = FleetWorkloadGenerator(sim, rng, fleet, soc.pipeline)
    soc.start()
    generator.start()
    sim.run_until(12.0)
    soc.final_drain()
    return soc


class TestColumnarCenter:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_columnar_center_identical_to_scalar(self, num_shards):
        scalar = _responding_scene(False, num_shards)
        columnar = _responding_scene(True, num_shards)
        assert columnar.analytics.engines[0].columnar_batches > 0
        assert columnar.metrics() == scalar.metrics()
        assert columnar.flagged_signatures() == scalar.flagged_signatures()
        assert columnar.flagged_signatures()

        def incident_state(soc):
            return {
                iid: (inc.signature, inc.opened_at, inc.severity, inc.state,
                      sorted(inc.vehicles), inc.history)
                for iid, inc in soc.tracker.incidents.items()
            }

        assert incident_state(columnar) == incident_state(scalar)
        assert (json.dumps(columnar.analytics_snapshot(), sort_keys=True)
                == json.dumps(scalar.analytics_snapshot(), sort_keys=True))


# ----------------------------------------------------------------------
# Crash paths: the columnar writer's log recovers byte-identically
# ----------------------------------------------------------------------
def _durable_scene(root, columnar, seed=11, n=600, prevalence=0.05,
                   num_shards=4, capacity_eps=120.0,
                   snapshot_every_pumps=8):
    sim = Simulator()
    rng = RngStreams(seed)
    campaigns = seeded_campaigns(rng, n, prevalence)
    fleet = FleetModel(n, campaigns)
    store = DurableStore(root)
    soc = SecurityOperationsCenter(
        sim, fleet, capacity_eps=capacity_eps, k=3, respond=False,
        num_shards=num_shards, store=store,
        snapshot_every_pumps=snapshot_every_pumps, columnar=columnar)
    generator = FleetWorkloadGenerator(sim, rng, fleet, soc.pipeline)
    soc.start()
    generator.start()
    return sim, soc, store


def _log_bytes(store):
    return [p.read_bytes()
            for p in sorted(store.log.root.glob("seg-*.log"))]


class TestColumnarCrashRecovery:
    DURATION = 12.0

    def test_columnar_writer_log_bytes_equal_batched_writer(self, tmp_path):
        _, soc_b, store_b = _durable_scene(tmp_path / "scalar", False)
        soc_b.sim.run_until(self.DURATION)
        soc_b.final_drain()
        store_b.log.sync()
        _, soc_c, store_c = _durable_scene(tmp_path / "columnar", True)
        soc_c.sim.run_until(self.DURATION)
        soc_c.final_drain()
        store_c.log.sync()
        assert _log_bytes(store_c) == _log_bytes(store_b)
        assert (json.dumps(soc_c.analytics_snapshot(), sort_keys=True)
                == json.dumps(soc_b.analytics_snapshot(), sort_keys=True))

    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("kill_pump", [5, 18, 31])
    def test_kill_recover_resume_byte_identical_with_columnar_writer(
            self, tmp_path, num_shards, kill_pump):
        sim, soc, _ = _durable_scene(tmp_path / "ref", True,
                                     num_shards=num_shards)
        sim.run_until(self.DURATION)
        soc.final_drain()
        ref_state = json.dumps(soc.analytics_snapshot(), sort_keys=True)
        ref_metrics = soc.metrics()

        sim, soc, store = _durable_scene(tmp_path / "crash", True,
                                         num_shards=num_shards)
        sim.run_until(kill_pump * soc.pump_tick_s)
        live_mid = json.dumps(soc.analytics_snapshot(), sort_keys=True)
        recovered = recover_soc_state(store)
        # Rebuilt state equals the live state at the kill point...
        assert (json.dumps(recovered.analytics_snapshot(), sort_keys=True)
                == live_mid)
        # ...and resuming (still in columnar mode: the sinks rewire to
        # the recovered engines) converges on the uninterrupted run.
        soc.adopt_analytics(recovered)
        sim.run_until(self.DURATION)
        soc.final_drain()
        assert (json.dumps(soc.analytics_snapshot(), sort_keys=True)
                == ref_state)
        assert soc.metrics() == ref_metrics


# ----------------------------------------------------------------------
# Federation: columnar regional writers, same hub state
# ----------------------------------------------------------------------
class TestColumnarFederation:
    N = 250
    DURATION = 10.0

    def _scene_result(self, columnar, **channel_kw):
        with pytest.MonkeyPatch.context() as mp:
            if columnar:
                mp.setattr(e18_federation, "SecurityOperationsCenter",
                           partial(SecurityOperationsCenter, columnar=True))
            scene = build_federated_scene(seed=1, n_per_region=self.N,
                                          **channel_kw)
        try:
            scene.start()
            scene.run(self.DURATION)
            return {
                "hub": json.dumps(scene.hub.analytics_snapshot(),
                                  sort_keys=True),
                "logs": {name: _log_bytes(runtime.store)
                         for name, runtime in scene.regions.items()},
                "unapplied": scene.hub.unapplied(),
            }
        finally:
            scene.close()

    @pytest.mark.parametrize("channel_kw", [
        {},                                      # zero lag
        {"lag_s": 1.0, "jitter_s": 0.3, "duplicate_p": 0.2},
    ])
    def test_columnar_fleet_matches_batched_fleet(self, channel_kw):
        scalar = self._scene_result(False, **channel_kw)
        columnar = self._scene_result(True, **channel_kw)
        assert columnar["unapplied"] == 0
        # Shipments from columnar writers replay to the identical state...
        assert columnar["hub"] == scalar["hub"]
        # ...because the columnar writer's durable logs -- the shipped
        # bytes -- are identical per region, segment for segment.
        assert columnar["logs"] == scalar["logs"]
