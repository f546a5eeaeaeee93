"""Where the traced run puts its spans: the public functions of each
``repro.soc`` layer, wrapped from outside.

``install_service_probes`` runs in the server process before the worker
is forked, so the worker inherits the wrappers; the worker forgets the
frontend's spans when its ``WorkerCore`` is built and writes its own at
``WorkerCore.close``.  ``install_hub_probes`` runs in the benchmark
process, where the federation hub lives.
"""

from __future__ import annotations

import os
import time
from collections import deque
from pathlib import Path

from perfbench.trace import Tracer


def install_service_probes(tracer: Tracer, spans_dir: Path) -> None:
    from repro.soc import center, correlate, incident, ingest, service, shard
    from repro.soc import store

    # -- frontend ------------------------------------------------------
    tracer.wrap(service.FrameStreamDecoder, "feed", "service.feed")
    routed = deque()  # monotonic route time of each buffered batch
    buffered_before = [0]

    def note_route(ok, svc, conn, payload):
        if ok:
            routed.append(time.monotonic())

    tracer.wrap(service.IngestService, "route", "service.route",
                on_result=note_route)

    def before_flush(svc, shard=None):
        buffered_before[0] = svc.buffered()

    def after_flush(submitted, svc, shard=None):
        # One worker: a submitted handoff takes the whole shard buffer,
        # i.e. the oldest ``buffered_before`` routed batches.
        if submitted:
            now = time.monotonic()
            for _ in range(buffered_before[0]):
                tracer.sample("buffer_wait_s", now - routed.popleft())

    tracer.wrap(service.IngestService, "flush", "service.flush",
                on_call=before_flush, on_result=after_flush)

    # -- worker ----------------------------------------------------------
    original_init = service.WorkerCore.__init__

    def worker_init(core, *args, **kwargs):
        tracer.reset()
        original_init(core, *args, **kwargs)

    service.WorkerCore.__init__ = worker_init

    def handoff_call(core, t_send, items, seq=-1, t_mono=None):
        if t_mono is not None:
            tracer.sample("ipc_wait_s", time.monotonic() - t_mono)
        tracer.sample("batches_per_handoff", len(items))

    tracer.wrap(service.WorkerCore, "ingest_handoff", "worker.handoff",
                req_of=lambda core, t_send, items, seq=-1, t_mono=None: seq,
                on_call=handoff_call)
    original_close = service.WorkerCore.close

    def worker_close(core):
        original_close(core)
        tracer.dump(spans_dir / f"worker-{os.getpid()}.npz")

    service.WorkerCore.close = worker_close

    # Module globals the worker resolves at call time.
    tracer.wrap(service, "decode_message", "service.decode")
    tracer.wrap(service, "cmac_verify", "crypto.cmac_verify")

    def note_offer(ok, *args):
        tracer.count("offered")
        if ok:
            tracer.count("admitted")

    tracer.wrap(ingest.IngestPipeline, "offer", "ingest.offer",
                on_result=note_offer)
    tracer.wrap(ingest.IngestPipeline, "drain_all", "ingest.drain_all")
    original_add = ingest.IngestPipeline.add_batch_sink

    def add_batch_sink(pipeline, sink):
        # Sinks are registered closures; give each its own span so the
        # dispatch loop's self time excludes them.
        label = ("center.archive_sink" if "archive" in sink.__qualname__
                 else "center.correlate_sink")
        original_add(pipeline, tracer.wrapper(sink, label))

    ingest.IngestPipeline.add_batch_sink = add_batch_sink

    tracer.wrap(center.SecurityOperationsCenter, "service_pump",
                "center.service_pump",
                on_call=lambda soc, now, *a, **k: tracer.sample(
                    "queue_depth", soc.pipeline.queue_depth))

    def snapshot_size(path, soc):
        tracer.sample("snapshot_bytes", Path(path).stat().st_size)

    tracer.wrap(center.SecurityOperationsCenter, "save_snapshot",
                "center.save_snapshot", on_result=snapshot_size)
    tracer.wrap(shard.ConservationAudit, "check", "shard.audit")
    tracer.wrap(correlate.CorrelationEngine, "observe_batch",
                "correlate.observe_batch")
    tracer.wrap(incident.IncidentTracker, "attach_vehicle",
                "incident.attach_vehicle")
    tracer.wrap(incident.IncidentTracker, "open_from_detection",
                "incident.open_from_detection")
    tracer.wrap(store.EventLog, "append_batch", "store.append_batch")
    tracer.wrap(store.EventLog, "append_mark", "store.append_mark")
    tracer.wrap(store.EventLog, "sync", "store.sync")


def install_hub_probes(tracer: Tracer) -> None:
    from repro.soc import correlate, federation, incident, store

    tracer.wrap(federation.SegmentShipper, "pump", "federation.ship")
    tracer.wrap(store.EventLog, "tail", "store.tail", materialize=True)
    tracer.wrap(federation.FederationHub, "receive", "federation.receive")
    tracer.wrap(federation.FederationHub, "advance", "federation.advance")
    tracer.wrap(federation.FederationHub, "finalize", "federation.finalize")
    tracer.wrap(correlate.CorrelationEngine, "observe_batch",
                "correlate.observe_batch")
    tracer.wrap(correlate.GlobalCampaignMerger, "merge", "correlate.merge")
    tracer.wrap(incident.IncidentTracker, "attach_vehicle",
                "incident.attach_vehicle")
    tracer.wrap(incident.IncidentTracker, "open_from_detection",
                "incident.open_from_detection")
