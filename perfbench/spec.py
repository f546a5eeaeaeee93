"""Fixed workload parameters.

Offered rates are absolute events/s, chosen once from the saturation
``acked_eps`` measured on the host the benchmark was defined on (2
vCPUs; see ``perfbench/README.md``).  They sit at about a third of it
rather than a half: that host's CPU speed drifts by a third over tens of
seconds, and at half load the resulting swings in utilisation moved
ACK p50 by 40% between runs.  Rates are never recomputed from the run
being measured: a later change that makes the service faster must show
up as lower latency at the same rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Every event's ``time`` is ``T_BASE`` plus its batch's scheduled offset.
#: A fixed epoch keeps payloads byte-identical per seed; it lies in the
#: past, so the service's "not from the future" admission check passes.
T_BASE = 1_600_000_000.0

#: Gateway connections the generator opens (at most ``nproc`` = 2).
CONNECTIONS = 2

N_VEHICLES = 100_000
#: Vehicle-local signatures per vehicle (never shared, never reach k).
LOCAL_SIGS_PER_VEHICLE = 4


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    kind: str                 # "ingest" or "federation"
    why: str
    batch_events: int         # events per BATCH frame
    rate_eps: float           # fixed open-loop offered rate
    expected_sat_eps: float   # sizes the saturation volume
    campaign_sigs: int = 4    # planted (or storm) signature count
    campaign_share: float = 0.02
    auth: bool = False


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec(
            "fleet_steady", "ingest",
            "common case: 1e5 vehicles over 2 gateways, vehicle-local "
            "signatures plus 4 planted campaigns; open loop at 12000 "
            "events/s",
            batch_events=128, rate_eps=12_000.0, expected_sat_eps=40_000.0,
            campaign_sigs=4, campaign_share=0.02),
        WorkloadSpec(
            "campaign_storm", "ingest",
            "class-break storm: same rate and batches, 85% of events on 32 "
            "fleet-wide signatures, so the incident tracker is hot; open "
            "loop at 12000 events/s",
            batch_events=128, rate_eps=12_000.0, expected_sat_eps=45_000.0,
            campaign_sigs=32, campaign_share=0.85),
        WorkloadSpec(
            "auth_steady", "ingest",
            "fleet_steady traffic CMAC-sealed per batch (32-event batches), "
            "so crypto verify dominates; open loop at 450 events/s",
            batch_events=32, rate_eps=450.0, expected_sat_eps=1_300.0,
            campaign_sigs=4, campaign_share=0.02, auth=True),
        WorkloadSpec(
            "federation_replay", "federation",
            "3 regional logs with cross-region campaigns below k per region "
            "shipped to the hub: the log read side and the hub; open loop "
            "at 10000 events/s",
            batch_events=128, rate_eps=10_000.0, expected_sat_eps=45_000.0,
            campaign_sigs=4, campaign_share=0.02),
    )
}

#: Share of ``--seconds`` given to closed-loop saturation; the rest is
#: open loop.  Both are split over ``ROUNDS`` alternating rounds.  Half,
#: because the gated ``cpu_us_per_event`` is taken over the saturation
#: bursts and the longer they run, the more of the host's drift they
#: average over.
SATURATION_SHARE = 0.5
ROUNDS = 4
#: Service set-ups per run; ``setup_s`` is the median of their CPU time.
SETUP_REPEATS = 9
#: A run whose generator sent later than this (p99) is invalid.
MAX_GENERATOR_LATE_MS = 100.0

#: Every end-to-end figure a run prints, with its unit.  ``BENCHMARK.json``
#: gates the CPU-time and memory figures (``setup_s``,
#: ``cpu_us_per_event``, ``rss_mb``); the wall-clock ones move with the
#: load other tenants put on a shared host and are printed only.
#: ``apply_eps`` is ``acked_eps`` on ``federation_replay``.
E2E_UNITS = {"setup_s": "s", "setup_wall_s": "s", "cpu_us_per_event": "us",
             "acked_eps": "1/s", "apply_eps": "1/s", "ack_p50_ms": "ms",
             "ack_p99_ms": "ms", "rss_mb": "MiB"}

#: Federation regions and each region's batches per worker handoff.
REGIONS = ("r0", "r1", "r2")
REGION_BATCHES_PER_HANDOFF = 1


def service_config(fleet_key: Optional[bytes] = None):
    """The production ``ServiceConfig`` minus periodic snapshots.

    At the default cadence (every 256 pumps) a snapshot of fleet-scale
    correlator state stalls the worker for seconds (27 MB took 5.1 s on
    the defining host), and whether one lands inside a measured phase
    moved ``acked_eps`` between 12k and 39k and ACK p99 between 10 ms
    and 3.5 s across seeds.  Snapshots are still written and measured:
    snapshot 0 at start and the full-state snapshot at ``close``, which
    the traced run reports as ``center.snapshot_ms``."""
    from repro.soc.service import ServiceConfig

    return ServiceConfig(snapshot_every_pumps=0, fleet_key=fleet_key)

