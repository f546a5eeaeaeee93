"""Seeded workload generator.

Everything the service sees is built here, before any clock starts, as
framed wire bytes (sealed with the connection's session key on
``auth_steady``).  The same ``(workload, seed)`` always yields the same
bytes; each event's ``time`` is ``T_BASE`` plus its batch's scheduled
offset.

Signature mix, the property the incident tracker's load depends on:

- vehicle-local signatures (``ids.local:<vehicle>:<j>``) are only ever
  reported by their own vehicle, so they never reach ``k`` vehicles;
- campaign signatures are shared fleet-wide.  ``fleet_steady`` plants a
  handful on ~2% of events; ``campaign_storm`` puts ~85% of events on 32
  of them, so nearly every event hits an open incident.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.soc.service import derive_session_key, seal_payload
from repro.soc.store import canonical_dumps, frame_payload

from perfbench.spec import (CONNECTIONS, LOCAL_SIGS_PER_VEHICLE, N_VEHICLES,
                            REGION_BATCHES_PER_HANDOFF, REGIONS, T_BASE,
                            WorkloadSpec, service_config)

_SEVERITIES = (2, 3)  # Asil.B, Asil.C: actionable, never shed at source


@dataclass(frozen=True)
class Batch:
    """One pre-built BATCH frame on one gateway connection."""

    conn: int
    batch_id: int
    n_events: int
    frame: bytes
    #: Scheduled send offset from the start of its phase (open loop).
    due_s: float = 0.0


@dataclass
class InputStats:
    """Measured properties of the generated inputs."""

    events: int = 0
    payload_bytes: int = 0
    campaign_events: int = 0
    vehicles: Set[str] = field(default_factory=set)
    signatures: Set[str] = field(default_factory=set)

    def add(self, rows: Sequence[list], payload_len: int,
            campaign: Set[str]) -> None:
        self.events += len(rows)
        self.payload_bytes += payload_len
        for row in rows:
            self.vehicles.add(row[2])
            self.signatures.add(row[4])
            if row[4] in campaign:
                self.campaign_events += 1

    def as_dict(self) -> Dict[str, float]:
        n = max(1, self.events)
        return {
            "events": float(self.events),
            "distinct_vehicles": float(len(self.vehicles)),
            "distinct_signatures": float(len(self.signatures)),
            "bytes_per_event": self.payload_bytes / n,
            "campaign_event_share": self.campaign_events / n,
        }


@dataclass
class Round:
    """One closed-loop burst followed by one open-loop stretch."""

    #: Closed-loop batches, one list per connection, sent in order.
    saturation: List[List[Batch]]
    #: Open-loop schedule, all connections, in due order; ``due_s`` is
    #: relative to the start of this stretch.
    open_loop: List[Batch]


@dataclass
class IngestInputs:
    client_ids: Tuple[str, ...]
    fleet_key: Optional[bytes]
    rounds: List[Round]
    campaign_signatures: Set[str]
    stats: InputStats


class EventRows:
    """Deterministic event rows for one workload and seed."""

    def __init__(self, spec: WorkloadSpec, seed: int, prefix: str = "",
                 campaign: Optional[Sequence[str]] = None,
                 campaign_vehicles: Optional[Sequence[str]] = None) -> None:
        self.spec = spec
        self.rng = random.Random(f"{spec.name}:{seed}:{prefix}")
        self.prefix = prefix
        self._tag = zlib.crc32(f"{spec.name}:{seed}:{prefix}".encode())
        self._next_id = 0
        kind = "storm" if spec.campaign_share > 0.5 else "campaign"
        self.campaign = list(campaign) if campaign is not None else [
            f"ids.{kind}:{c:02d}" for c in range(spec.campaign_sigs)]
        #: When set, only these vehicles report campaign signatures
        #: (federation regions keep each campaign below k locally).
        self.campaign_vehicles = campaign_vehicles

    def rows(self, n: int, t: float) -> List[list]:
        """``n`` event rows (the log's canonical event objects), all
        stamped with the batch time ``t``."""
        rng = self.rng
        spec = self.spec
        out = []
        for _ in range(n):
            self._next_id += 1
            eid = f"{self._tag:08x}{self._next_id:08x}"
            if rng.random() < spec.campaign_share:
                sig = self.campaign[rng.randrange(len(self.campaign))]
                if self.campaign_vehicles is not None:
                    vid = self.campaign_vehicles[
                        rng.randrange(len(self.campaign_vehicles))]
                else:
                    vid = f"{self.prefix}veh-{rng.randrange(N_VEHICLES):06d}"
            else:
                vid = f"{self.prefix}veh-{rng.randrange(N_VEHICLES):06d}"
                sig = (f"ids.local:{vid}:"
                       f"{rng.randrange(LOCAL_SIGS_PER_VEHICLE)}")
            out.append([eid, t, vid, "ids", sig, rng.choice(_SEVERITIES), []])
        return out


def batch_payload(batch_id: int, rows: Sequence[list]) -> bytes:
    """A BATCH payload exactly as ``repro.soc.service.encode_batch``
    would encode the same events."""
    return canonical_dumps(["e", batch_id, list(rows)])


def fleet_key_for(seed: int) -> bytes:
    return zlib.crc32(b"perfbench-fleet-%d" % seed).to_bytes(4, "big") * 4


def build_ingest(spec: WorkloadSpec, seed: int, seconds: float,
                 saturation_share: float, rounds: int) -> IngestInputs:
    """Pre-build every frame of an ingest workload: ``rounds`` rounds of
    saturation batches (enough for ``saturation_share`` of ``seconds`` at
    the expected saturation rate) and open-loop batches (the rest of
    ``seconds`` at the fixed rate).

    Batches carry event times on one global schedule spaced at the
    open-loop rate, alternating connections so the two gateways' event
    times stay within the lateness bound.  The correlator's retention
    horizon is in event time, so its state peaks at the same size however
    fast the saturation bursts run."""
    client_ids = tuple(f"gw-{c}" for c in range(CONNECTIONS))
    fleet_key = fleet_key_for(seed) if spec.auth else None
    keys = ([derive_session_key(fleet_key, cid) for cid in client_ids]
            if fleet_key else None)
    source = EventRows(spec, seed)
    campaign = set(source.campaign)
    stats = InputStats()
    next_id = [0] * CONNECTIONS
    gap = spec.batch_events / spec.rate_eps
    index = 0

    def make(due_s: float) -> Batch:
        nonlocal index
        conn = index % CONNECTIONS
        rows = source.rows(spec.batch_events, T_BASE + index * gap)
        payload = batch_payload(next_id[conn], rows)
        stats.add(rows, len(payload), campaign)
        if keys is not None:
            payload = seal_payload(keys[conn], client_ids[conn], payload)
        batch = Batch(conn, next_id[conn], len(rows), frame_payload(payload),
                      due_s)
        next_id[conn] += 1
        index += 1
        return batch

    sat_s = seconds * saturation_share / rounds
    open_s = seconds * (1.0 - saturation_share) / rounds
    n_sat = math.ceil(spec.expected_sat_eps * sat_s / spec.batch_events)
    n_open = math.ceil(open_s / gap)
    built = []
    for _ in range(rounds):
        saturation: List[List[Batch]] = [[] for _ in range(CONNECTIONS)]
        for _ in range(n_sat):
            batch = make(0.0)
            saturation[batch.conn].append(batch)
        built.append(Round(saturation, [make(j * gap)
                                        for j in range(n_open)]))
    return IngestInputs(client_ids, fleet_key, built, campaign, stats)


@dataclass
class RegionInputs:
    """One region's worker handoffs: ``(t_send, items)`` in order, where
    items are ``(conn, client_id, batch_id, payload)`` as the frontend
    hands them to a worker."""

    name: str
    handoffs: List[Tuple[float, List[Tuple[int, str, int, bytes]]]]


def build_regions(spec: WorkloadSpec, seed: int, total_events: int
                  ) -> Tuple[List[RegionInputs], Set[str], InputStats]:
    """Three regions of ``fleet_steady``-shaped traffic.  Each campaign
    signature is reported by exactly ``k - 1`` vehicles per region, so no
    region can flag it alone but the hub sees ``3 * (k - 1)``.

    Regions hand off on a shared cadence, staggered by a third of the
    period (regional clocks are independent)."""
    k = service_config().k
    stats = InputStats()
    per_handoff = REGION_BATCHES_PER_HANDOFF * spec.batch_events
    n_handoffs = max(1, math.ceil(total_events / (len(REGIONS) * per_handoff)))
    period = per_handoff * len(REGIONS) / spec.expected_sat_eps
    campaign = [f"ids.xregion:{c:02d}" for c in range(spec.campaign_sigs)]
    campaign_set = set(campaign)
    regions = []
    for r, name in enumerate(REGIONS):
        prefix = f"{name}-"
        source = EventRows(
            spec, seed, prefix=prefix, campaign=campaign,
            campaign_vehicles=[f"{prefix}veh-{N_VEHICLES + v:06d}"
                               for v in range(k - 1)])
        client_id = f"{name}-gw"
        handoffs = []
        batch_id = 0
        for h in range(n_handoffs):
            t_send = T_BASE + h * period + r * period / len(REGIONS)
            items = []
            for _ in range(REGION_BATCHES_PER_HANDOFF):
                rows = source.rows(spec.batch_events, t_send - 1e-3)
                payload = batch_payload(batch_id, rows)
                stats.add(rows, len(payload), campaign_set)
                items.append((0, client_id, batch_id, payload))
                batch_id += 1
            handoffs.append((t_send, items))
        regions.append(RegionInputs(name, handoffs))
    return regions, campaign_set, stats
