"""The log-shipping leg: regional durable logs through
``SegmentShipper`` -> zero-lag, fault-free ``ShippingChannel`` ->
``FederationHub``, in this process.

``replay`` is the closed-loop measurement (``apply_eps``): the clock runs
from the first ``SegmentShipper.pump`` to ``FederationHub.finalize``
returning.  ``open_loop`` feeds a fresh hub pre-encoded shipments at
fixed due times and times each shipment from due to applied.

Run as ``python3 -m perfbench.hub`` it builds the regional logs of the
``federation_replay`` workload (used from ``run.py`` in a child process,
so the benchmark process's peak RSS covers the hub only).
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.soc.federation import (FederationHub, SegmentShipper,
                                  ShippingChannel)
from repro.soc.store import EventLog

from perfbench.spec import service_config


def new_hub(regions: Sequence[str]) -> FederationHub:
    """A hub for one-worker service regions (the benchmark's config)."""
    config = service_config()
    return FederationHub(regions, 1, window_s=config.window_s, k=config.k,
                         dedup_window_s=config.dedup_window_s,
                         max_lateness_s=config.max_lateness_s)


@dataclass
class Leg:
    """One hub with a shipper per region."""

    hub: FederationHub
    logs: Dict[str, EventLog]
    channels: Dict[str, ShippingChannel]
    shippers: Dict[str, SegmentShipper]

    @classmethod
    def build(cls, log_dirs: Dict[str, Path], seed: int) -> "Leg":
        regions = list(log_dirs)
        hub = new_hub(regions)
        logs = {r: EventLog(log_dirs[r]) for r in regions}
        channels = {r: ShippingChannel(random.Random(f"{seed}:{r}"))
                    for r in regions}
        shippers = {r: SegmentShipper(r, logs[r], channels[r])
                    for r in regions}
        return cls(hub, logs, channels, shippers)

    def close(self) -> None:
        for log in self.logs.values():
            log.close()

    def check(self) -> List[str]:
        """Receiver conservation and completeness breaches (empty when
        every shipped record was received once and applied)."""
        problems = []
        for region, receiver in self.hub.receivers.items():
            shipped = self.shippers[region].records_shipped
            if receiver.records_received != (receiver.duplicates
                                             + receiver.applied_seq
                                             + len(receiver.buffer)):
                problems.append(f"{region}: receiver conservation broken")
            if receiver.applied_seq != self.logs[region].last_seq:
                problems.append(
                    f"{region}: applied {receiver.applied_seq} of "
                    f"{self.logs[region].last_seq} records")
            if receiver.corrupt_rejected or shipped != receiver.applied_seq:
                problems.append(f"{region}: shipped {shipped}, applied "
                                f"{receiver.applied_seq}")
        if self.hub.unapplied():
            problems.append(f"{self.hub.unapplied()} records unapplied")
        return problems


def replay(leg: Leg) -> float:
    """Ship every region's whole log and finalize; returns wall seconds.
    Afterwards ``events_applied(leg.hub)`` is the batch events replayed."""
    hub = leg.hub
    t0 = time.perf_counter()
    for shipper in leg.shippers.values():
        shipper.pump(0.0)
    for channel in leg.channels.values():
        for blob in channel.deliver(0.0):
            hub.receive(blob)
    hub.advance(0.0)
    hub.finalize(0.0)
    return time.perf_counter() - t0


def events_applied(hub: FederationHub) -> int:
    """Batch events the hub's replica engines have observed."""
    return sum(engine.observed for engines in hub.engines.values()
               for engine in engines)


@dataclass(frozen=True)
class Shipment:
    region: str
    last_seq: int
    blob: bytes
    due_s: float


def shipments(leg: Leg, records_per_handoff: int,
              period_s: float) -> List[Shipment]:
    """Pre-encode every region's log as one shipment per worker handoff,
    due in the order the regions wrote them: region ``r``'s ``h``-th
    handoff at ``(h + r / regions) * period_s``."""
    regions = list(leg.shippers)
    out = []
    for r, region in enumerate(regions):
        shipper = leg.shippers[region]
        shipper.max_batch_records = records_per_handoff
        shipper.pump(0.0)
        last = leg.logs[region].last_seq
        for h, blob in enumerate(leg.channels[region].deliver(0.0)):
            out.append(Shipment(region,
                                min(last, (h + 1) * records_per_handoff),
                                blob, (h + r / len(regions)) * period_s))
    out.sort(key=lambda s: s.due_s)
    return out


def open_loop(hub: FederationHub, schedule: Sequence[Shipment],
              seconds: float) -> Tuple[List[float], List[float], int]:
    """Deliver each shipment at its due time for up to ``seconds``, then
    finalize.  Returns (due-to-applied latencies, generator lateness,
    shipments sent)."""
    pending: Dict[str, deque] = {r: deque() for r in hub.regions}
    latencies: List[float] = []
    late: List[float] = []
    t_start = time.monotonic() + 0.02
    sent = 0

    def collect(now: float) -> None:
        for region, queue in pending.items():
            applied = hub.receivers[region].applied_seq
            while queue and queue[0][0] <= applied:
                latencies.append(now - queue.popleft()[1])

    for shipment in schedule:
        due = t_start + shipment.due_s
        if shipment.due_s > seconds:
            break
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
            now = time.monotonic()
            late.append(now - due)
        else:
            # Still busy applying earlier shipments: the hub's backlog,
            # which shows in the latency, not the schedule's lateness.
            late.append(0.0)
        hub.receive(shipment.blob)
        pending[shipment.region].append((shipment.last_seq, due))
        sent += 1
        hub.advance(now)
        collect(time.monotonic())
    hub.finalize(time.monotonic())
    collect(time.monotonic())
    return latencies, late, sent


def build_region_logs(root: Path, workload: str, seed: int,
                      total_events: int) -> Dict[str, object]:
    """Write the three regional logs through the real worker stack
    (``WorkerCore``, inline) and report what each region flagged."""
    from repro.soc.service import WorkerCore, worker_root

    from perfbench.spec import WORKLOADS
    from perfbench.workloads import build_regions

    regions, campaign, stats = build_regions(WORKLOADS[workload], seed,
                                             total_events)
    flagged = {}
    for region in regions:
        core = WorkerCore(0, root / region.name, service_config())
        for seq, (t_send, items) in enumerate(region.handoffs, start=1):
            core.ingest_handoff(t_send, items, seq=seq)
        flagged[region.name] = sorted(core.soc.flagged_signatures())
        core.close()
    return {
        "log_dirs": {r.name: str(worker_root(root / r.name, 0) / "log")
                     for r in regions},
        "flagged": flagged,
        "campaign": sorted(campaign),
        "inputs": stats.as_dict(),
        "handoffs": len(regions[0].handoffs),
    }


if __name__ == "__main__":
    args = json.loads(sys.stdin.readline())
    result = build_region_logs(Path(args["root"]), args["workload"],
                               args["seed"], args["events"])
    sys.stdout.write(json.dumps(result) + "\n")
