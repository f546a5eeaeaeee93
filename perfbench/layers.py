"""The per-layer table of a traced run.

Every figure is computed from spans (:mod:`perfbench.trace`) recorded
around the public functions of one ``repro.soc`` layer, plus the
counters those layers already publish.  ``MOVES`` names, for each layer
metric, the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.stats import median, tail
from perfbench.trace import Spans, Tracer

#: layer metric -> (end-to-end metric, workload) it should move.
MOVES: Dict[str, str] = {
    "service.frame_decode_us_per_batch": "cpu_us_per_event on fleet_steady",
    "service.route_us_per_batch": "cpu_us_per_event on fleet_steady",
    "service.buffer_wait_ms": "ack_p50_ms on all ingest workloads",
    "service.ipc_wait_ms": "ack_p50_ms on all ingest workloads",
    "service.batches_per_handoff": "cpu_us_per_event, ack_p99_ms",
    "service.submit_refusals": "failed share, ack_p99_ms",
    "service.suppress_transitions": "failed share, ack_p99_ms",
    "service.decode_us_per_event":
        "cpu_us_per_event on fleet_steady and campaign_storm "
        "(not auth_steady)",
    "worker.busy_frac_saturation": "acked_eps (bottleneck indicator)",
    "worker.busy_frac_open": "ack_p50_ms, ack_p99_ms",
    "worker.handoff_p50_ms": "ack_p50_ms",
    "worker.handoff_p99_ms": "ack_p99_ms",
    "crypto.cmac_verify_us_per_batch":
        "cpu_us_per_event, ack_p50_ms on auth_steady",
    "crypto.cmac_share": "cpu_us_per_event, ack_p50_ms on auth_steady",
    "ingest.offer_us_per_event": "cpu_us_per_event on fleet_steady",
    "ingest.admit_ratio": "failed share",
    "ingest.queue_depth_max": "ack_p99_ms, rss_mb",
    "ingest.dispatch_self_ms": "cpu_us_per_event on fleet_steady",
    "correlate.observe_us_per_event":
        "cpu_us_per_event on fleet_steady and federation_replay",
    "correlate.detections": "correctness (planted campaigns)",
    "correlate.dedup_dropped": "cpu_us_per_event on fleet_steady",
    "correlate.late_dropped": "correctness (should stay 0)",
    "incident.hit_share": "cpu_us_per_event on campaign_storm",
    "incident.attach_us_per_call": "cpu_us_per_event on campaign_storm",
    "incident.opened": "correctness (planted campaigns)",
    "store.append_us_per_event": "cpu_us_per_event on ingest workloads",
    "store.bytes_per_event": "cpu_us_per_event, rss_mb",
    "store.sync_ms": "cpu_us_per_event, ack_p50_ms on ingest workloads",
    "store.tail_us_per_record": "cpu_us_per_event on federation_replay",
    "center.snapshot_ms": "ack_p99_ms (with periodic snapshots), rss_mb",
    "center.snapshot_bytes": "rss_mb",
    "shard.audit_us_per_pump": "cpu_us_per_event on small-handoff traffic",
    "federation.ship_us_per_record": "cpu_us_per_event on federation_replay",
    "federation.receive_us_per_shipment":
        "cpu_us_per_event on federation_replay",
    "federation.advance_self_us_per_record":
        "cpu_us_per_event on federation_replay",
    "federation.stalled_rounds": "ack_p99_ms on federation_replay",
    "federation.duplicate_ratio": "cpu_us_per_event on federation_replay",
    "loadgen.late_p99_ms": "run validity",
    "loadgen.credit_wait_ms": "ack_p50_ms, ack_p99_ms",
    "trace.overhead_frac":
        "tracing cost (traced vs untraced cpu_us_per_event)",
    "trace.residual_frac": "unattributed share of worker busy time",
}

#: Worker-side spans whose self time the table breaks busy time into.
WORKER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("crypto.cmac_verify", "crypto"),
    ("service.decode", "service (wire decode)"),
    ("ingest.offer", "ingest (admission)"),
    ("ingest.drain_all", "ingest (dispatch loop)"),
    ("center.archive_sink", "center (archive sink)"),
    ("store.append_batch", "store (log append)"),
    ("center.correlate_sink", "center (correlate sink)"),
    ("correlate.observe_batch", "correlate"),
    ("incident.attach_vehicle", "incident (attach)"),
    ("incident.open_from_detection", "incident (open)"),
    ("center.service_pump", "center (pump)"),
    ("shard.audit", "shard (audit)"),
    ("store.append_mark", "store (pump marker)"),
    ("store.sync", "store (sync)"),
    ("worker.handoff", "residual (handoff self)"),
)

HUB_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("federation.ship", "federation (ship: encode)"),
    ("store.tail", "store (log tail)"),
    ("federation.receive", "federation (receive)"),
    ("federation.advance", "federation (advance)"),
    ("federation.finalize", "federation (finalize)"),
    ("correlate.observe_batch", "correlate"),
    ("correlate.merge", "correlate (merge)"),
    ("incident.attach_vehicle", "incident (attach)"),
    ("incident.open_from_detection", "incident (open)"),
)


def _per(total_s: float, count: float, scale: float) -> float:
    return total_s / count * scale if count else 0.0


def _zeroed() -> Dict[str, float]:
    return {name: 0.0 for name in MOVES}


def _loadgen(layers: Dict[str, float], out) -> None:
    late = out.info.get("loadgen.late_ms")
    layers["loadgen.late_p99_ms"] = late["value"] if late else 0.0
    layers["loadgen.credit_wait_ms"] = out.info.get("credit_wait_ms_mean",
                                                    0.0)


def _table(rows: List[Tuple[str, float, float]], layers: Dict[str, float],
           title: str, basis: str) -> str:
    lines = [title, f"  self time by layer ({basis})",
             f"    {'layer':<30} {'self ms':>10} {'share':>7}"]
    for label, ms, share in rows:
        lines.append(f"    {label:<30} {ms:>10.1f} {share:>7.1%}")
    lines.append("  layer metrics                               value  "
                 "moves")
    for name in sorted(layers):
        lines.append(f"    {name:<38} {layers[name]:>12.4f}  "
                     f"{MOVES.get(name, '')}")
    return "\n".join(lines)


def ingest_layers(spec, run: dict, spans_dir: Path,
                  base_cpu_us: Optional[float], out
                  ) -> Tuple[Dict[str, float], str]:
    """Per-layer figures of a traced ingest run (frontend and worker
    spans from the service process)."""
    sat, opened, finish = run["sat"], run["open"], run["finish"]
    front = Spans.load(spans_dir / "frontend.npz")
    worker = Spans.load(spans_dir / f"worker-{finish['worker_pid']}.npz")
    windows = sat.windows + opened.windows
    t0 = min(a for a, _ in windows)
    t1 = max(b for _, b in windows)
    wm = finish["worker"]
    fm = finish["frontend"]
    events = wm["service_events_in"]
    handoffs = worker.count("worker.handoff", t0, t1)
    batches = fm["batches_routed"]
    busy = worker.total("worker.handoff", t0, t1)
    layers = _zeroed()

    layers["service.frame_decode_us_per_batch"] = _per(
        front.total("service.feed", t0, t1), batches, 1e6)
    layers["service.route_us_per_batch"] = _per(
        front.total("service.route", t0, t1), batches, 1e6)
    waits = front.samples.get("buffer_wait_s")
    layers["service.buffer_wait_ms"] = (
        median(list(waits)) * 1e3 if waits is not None and len(waits)
        else 0.0)
    ipc = worker.samples.get("ipc_wait_s")
    layers["service.ipc_wait_ms"] = (
        median(list(ipc)) * 1e3 if ipc is not None and len(ipc) else 0.0)
    per_handoff = worker.samples.get("batches_per_handoff")
    layers["service.batches_per_handoff"] = (
        float(np.mean(per_handoff)) if per_handoff is not None
        and len(per_handoff) else 0.0)
    layers["service.submit_refusals"] = fm["submit_refusals"]
    layers["service.suppress_transitions"] = fm["suppress_transitions"]
    layers["service.decode_us_per_event"] = _per(
        worker.total("service.decode", t0, t1), events, 1e6)

    for key, phase in (("worker.busy_frac_saturation", sat),
                       ("worker.busy_frac_open", opened)):
        layers[key] = sum(worker.total("worker.handoff", a, b)
                          for a, b in phase.windows) / phase.seconds
    durations = worker.durations("worker.handoff", t0, t1)
    layers["worker.handoff_p50_ms"] = median(list(durations)) * 1e3
    layers["worker.handoff_p99_ms"] = tail(list(durations)).value * 1e3

    cmac_calls = worker.count("crypto.cmac_verify", t0, t1)
    layers["crypto.cmac_verify_us_per_batch"] = _per(
        worker.total("crypto.cmac_verify", t0, t1), cmac_calls, 1e6)
    layers["crypto.cmac_share"] = (
        worker.self_total("crypto.cmac_verify", t0, t1) / busy)

    layers["ingest.offer_us_per_event"] = _per(
        worker.total("ingest.offer", t0, t1),
        worker.count("ingest.offer", t0, t1), 1e6)
    offered = worker.counts.get("offered", 0)
    layers["ingest.admit_ratio"] = (
        worker.counts.get("admitted", 0) / offered if offered else 0.0)
    depth = worker.samples.get("queue_depth")
    layers["ingest.queue_depth_max"] = (
        float(np.max(depth)) if depth is not None and len(depth) else 0.0)
    layers["ingest.dispatch_self_ms"] = _per(
        worker.self_total("ingest.drain_all", t0, t1), handoffs, 1e3)

    layers["correlate.observe_us_per_event"] = _per(
        worker.total("correlate.observe_batch", t0, t1), wm["observed"], 1e6)
    layers["correlate.detections"] = wm["campaigns_flagged"]
    layers["correlate.dedup_dropped"] = wm["deduped"]
    layers["correlate.late_dropped"] = wm["late_dropped"]

    attaches = worker.count("incident.attach_vehicle", t0, t1)
    layers["incident.hit_share"] = attaches / events if events else 0.0
    layers["incident.attach_us_per_call"] = _per(
        worker.total("incident.attach_vehicle", t0, t1), attaches, 1e6)
    layers["incident.opened"] = float(
        worker.count("incident.open_from_detection", t0, t1))

    layers["store.append_us_per_event"] = _per(
        worker.total("store.append_batch", t0, t1), events, 1e6)
    layers["store.bytes_per_event"] = _per(finish["log_bytes"], events, 1.0)
    layers["store.sync_ms"] = _per(worker.total("store.sync", t0, t1),
                                   handoffs, 1e3)
    snaps = worker.durations("center.save_snapshot")
    sizes = worker.samples.get("snapshot_bytes")
    # The last snapshot is the full-state one written at close.
    layers["center.snapshot_ms"] = (float(snaps[-1]) * 1e3 if len(snaps)
                                    else 0.0)
    layers["center.snapshot_bytes"] = (
        float(sizes[-1]) if sizes is not None and len(sizes) else 0.0)
    layers["shard.audit_us_per_pump"] = _per(
        worker.total("shard.audit", t0, t1),
        worker.count("shard.audit", t0, t1), 1e6)

    _loadgen(layers, out)
    traced_cpu_us = 1e6 * run["sat_cpu"] / sat.acked_events
    layers["trace.overhead_frac"] = (traced_cpu_us / base_cpu_us - 1.0
                                     if base_cpu_us else 0.0)
    residual = worker.self_total("worker.handoff", t0, t1)
    layers["trace.residual_frac"] = residual / busy if busy else 0.0

    rows = [(label, worker.self_total(name, t0, t1) * 1e3,
             worker.self_total(name, t0, t1) / busy)
            for name, label in WORKER_LAYERS]
    title = (f"{spec.name}: worker busy {busy * 1e3:.0f} ms over "
             f"{handoffs} handoffs, {events:.0f} events; saturation "
             f"service CPU {traced_cpu_us:.1f} us/event traced vs "
             f"{base_cpu_us or 0:.1f} untraced "
             f"(overhead {layers['trace.overhead_frac']:.1%}); residual "
             f"{residual * 1e3:.1f} ms ({layers['trace.residual_frac']:.1%} "
             f"of busy)")
    return layers, _table(rows, layers, title,
                          "share of worker busy time, both phases")


def federation_layers(spec, tracer: Tracer, out
                      ) -> Tuple[Dict[str, float], str]:
    """Per-layer figures of a traced hub replay (spans from this
    process; the service layers are not exercised and read 0)."""
    hub = Spans.from_tracer(tracer)
    info = out.info["hub"]
    t0, t1 = info["window"]
    layers = _zeroed()
    records = info["records"]
    layers["federation.ship_us_per_record"] = _per(
        hub.self_total("federation.ship", t0, t1), records, 1e6)
    layers["store.tail_us_per_record"] = _per(
        hub.total("store.tail", t0, t1), records, 1e6)
    layers["federation.receive_us_per_shipment"] = _per(
        hub.total("federation.receive", t0, t1),
        hub.count("federation.receive", t0, t1), 1e6)
    layers["federation.advance_self_us_per_record"] = _per(
        hub.self_total("federation.advance", t0, t1), records, 1e6)
    layers["federation.stalled_rounds"] = float(info["stalled_rounds"])
    layers["federation.duplicate_ratio"] = (
        info["duplicates"] / info["received"] if info["received"] else 0.0)
    events = info["events"]
    layers["correlate.observe_us_per_event"] = _per(
        hub.total("correlate.observe_batch", t0, t1), events, 1e6)
    attaches = hub.count("incident.attach_vehicle", t0, t1)
    layers["incident.hit_share"] = attaches / events if events else 0.0
    layers["incident.attach_us_per_call"] = _per(
        hub.total("incident.attach_vehicle", t0, t1), attaches, 1e6)
    layers["incident.opened"] = float(
        hub.count("incident.open_from_detection", t0, t1))
    layers["correlate.detections"] = float(len(out.info["hub_flagged"]))
    _loadgen(layers, out)
    wall = info["wall_s"]
    traced_cpu_us = 1e6 * info["cpu_s"] / events
    base = out.metrics["cpu_us_per_event"]
    layers["trace.overhead_frac"] = traced_cpu_us / base - 1.0
    selfs = {name: hub.self_total(name, t0, t1) for name, _ in HUB_LAYERS}
    layers["trace.residual_frac"] = max(0.0, wall - sum(selfs.values())) / wall
    rows = [(label, selfs[name] * 1e3, selfs[name] / wall)
            for name, label in HUB_LAYERS]
    title = (f"{spec.name}: hub replay {wall * 1e3:.0f} ms for {events} "
             f"events; hub CPU {traced_cpu_us:.1f} us/event traced vs "
             f"{base:.1f} untraced (overhead "
             f"{layers['trace.overhead_frac']:.1%}); residual "
             f"{layers['trace.residual_frac']:.1%} of replay wall")
    return layers, _table(rows, layers, title, "share of replay wall time")
