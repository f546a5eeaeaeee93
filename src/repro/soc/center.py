"""The VSOC facade: ingestion -> correlation -> incidents -> response.

Wires the four subsystem stages into one
:class:`SecurityOperationsCenter` running on a shared simulation kernel,
and aggregates every stage's counters into a single flat ``metrics()``
dict (the shape E17 publishes and the determinism tests pin).

Correlation topology scales with the ingest topology: one
:class:`~repro.soc.correlate.CorrelationEngine` per ingest shard, plus a
:class:`~repro.soc.correlate.GlobalCampaignMerger` that stitches the
local verdicts into fleet-wide campaigns after every pump iff
``num_shards > 1``.  Both live in one
:class:`~repro.soc.analytics.AnalyticState`, the same state machine
crash recovery (:func:`recover_soc_state`) and the federation hub
replay the durable log through.

Every stage consumes the pipeline the same way: a batch sink taking the
drained ``List[SecurityEvent]``.  The archival tap is registered first
(write-ahead), then the correlator sink.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.sim import Simulator
from repro.soc.analytics import AnalyticState
from repro.soc.columnar import StringInterner, build_batch
from repro.soc.correlate import CampaignDetection
from repro.soc.events import SecurityEvent
from repro.soc.fleet import FleetModel
from repro.soc.incident import AMENDMENT_KINDS, Amendment, IncidentTracker
from repro.soc.ingest import IngestPipeline, ShedPolicy
from repro.soc.respond import ResponseOrchestrator
from repro.soc.shard import ConservationAudit, ShardedIngestPipeline, ShardKeyFn
from repro.soc.store import DurableStore


class SecurityOperationsCenter:
    """An OEM fleet SOC over a simulated vehicle population.

    ``respond=False`` gives the observe-only configuration used as the
    E17 baseline: everything is ingested and correlated, but no incident
    ever reaches containment -- the fleet burns.

    Correlation runs the scalar path (``observe_batch``) by default.
    ``columnar`` makes the correlator sink rebuild each drained batch as
    :class:`~repro.soc.columnar.ColumnarBatch` arrays (with a
    center-owned interner) and feed ``observe_columnar``; the final
    analytic state is byte-identical either way (the differential tests
    pin it), and the archived log bytes do not depend on it.  Only the
    fleet-scale E17 cells set it: on the service workloads columnar
    costs more CPU and memory per event than the scalar path.
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: FleetModel,
        capacity_eps: float = 250.0,
        queue_capacity: int = 2048,
        batch_size: int = 64,
        shed_policy: ShedPolicy = ShedPolicy.LOWEST_SEVERITY,
        window_s: float = 8.0,
        k: int = 3,
        dedup_window_s: float = 4.0,
        max_lateness_s: float = 2.0,
        respond: bool = True,
        ota_sample: int = 1,
        pump_tick_s: float = 0.25,
        num_shards: int = 1,
        shard_key: Optional[ShardKeyFn] = None,
        audit: bool = True,
        columnar: bool = False,
        store: Optional[DurableStore] = None,
        snapshot_every_pumps: int = 0,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.pump_tick_s = pump_tick_s
        self.store = store
        self.snapshot_every_pumps = snapshot_every_pumps
        self._pump_no = 0
        # Correlation parameters, kept for federation_profile(): a hub
        # must build replica engines with exactly the region's hygiene
        # settings or replayed verdicts diverge from local ones.
        self.window_s = window_s
        self.k = k
        self.dedup_window_s = dedup_window_s
        self.max_lateness_s = max_lateness_s

        # num_shards=1 keeps the plain single-queue pipeline (the two are
        # behaviorally identical -- the differential tests prove it -- but
        # the plain object is what the pre-shard seed benchmarks pinned).
        if num_shards > 1:
            self.pipeline = ShardedIngestPipeline(
                num_shards=num_shards,
                shard_key=shard_key,
                capacity_eps=capacity_eps,
                queue_capacity=queue_capacity,
                batch_size=batch_size,
                shed_policy=shed_policy,
            )
        else:
            self.pipeline = IngestPipeline(
                capacity_eps=capacity_eps,
                queue_capacity=queue_capacity,
                batch_size=batch_size,
                shed_policy=shed_policy,
            )
        self.audit: Optional[ConservationAudit] = (
            ConservationAudit() if audit else None
        )

        # Interner ids are batch-local grouping labels, so one interner
        # serves every engine of this center.
        self._interner: Optional[StringInterner] = (
            StringInterner() if columnar else None)
        self.analytics = AnalyticState.fresh(
            num_shards, merged=num_shards > 1, window_s=window_s, k=k,
            dedup_window_s=dedup_window_s, max_lateness_s=max_lateness_s)
        queues = self.pipeline.shards if num_shards > 1 else [self.pipeline]
        for index, queue in enumerate(queues):
            # The archival tap goes in *before* the correlator sink
            # (write-ahead: by the time analytics sees a batch it is
            # already in the log).
            if store is not None:
                queue.add_batch_sink(self._archive_handler(index))
            queue.add_batch_sink(self._correlate_handler(index))

        self.responder: Optional[ResponseOrchestrator] = (
            ResponseOrchestrator(sim, fleet, ota_sample=ota_sample)
            if respond else None
        )
        if self.responder is not None:
            self.analytics.on_open = self.responder.on_detection
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._started:
            self._started = True
            if self.store is not None:
                # Snapshot 0: recovery always has a base state to restore,
                # even if the process dies before the first periodic one.
                self.save_snapshot()
            self.sim.schedule(self.pump_tick_s, self._pump)

    def _pump(self) -> None:
        self.pipeline.pump(self.sim.now)
        self._finish_pump()
        self.sim.schedule(self.pump_tick_s, self._pump)

    def _finish_pump(self, now: Optional[float] = None) -> None:
        """Post-dispatch bookkeeping every pump shares: audit, campaign
        merge, the durable pump marker, and the periodic snapshot.
        ``now`` defaults to simulation time; service drive mode passes
        the wall-clock handoff time instead."""
        if self.audit is not None:
            self.audit.check(self.pipeline)
        self.analytics.end_pump()
        if self.store is not None:
            self._pump_no += 1
            self.store.log.append_mark(
                self.sim.now if now is None else now, self._pump_no)
            if (self.snapshot_every_pumps
                    and self._pump_no % self.snapshot_every_pumps == 0):
                self.save_snapshot()

    def start_service(self) -> None:
        """Arm this center for network-service drive mode
        (:mod:`repro.soc.service`): write snapshot 0 so recovery always
        has a base state, but schedule nothing -- the service's worker
        loop calls :meth:`service_pump` on every queue handoff instead
        of the simulation kernel calling :meth:`_pump` on a tick."""
        if not self._started:
            self._started = True
            if self.store is not None:
                self.save_snapshot()

    def service_pump(self, now: float, sync_log: bool = True,
                     pre_mark: Optional[Callable[[], None]] = None) -> int:
        """One network-service pump: drain *everything* queued at wall
        time ``now``, then run the standard post-dispatch bookkeeping
        (audit, campaign merge, durable pump marker, periodic snapshot).

        This is the drive mode a :class:`~repro.soc.service.WorkerCore`
        uses -- arrival cadence replaces the simulated capacity budget,
        so each handoff batch is dispatched whole and the pump marker
        records the handoff boundary replay must reproduce.  With
        ``sync_log`` (default) the event log is flushed to the OS after
        the marker, so a SIGKILLed worker process loses nothing that was
        acknowledged (the log's own torn-tail recovery covers the kill
        landing mid-append).  Returns the number of events dispatched.

        ``pre_mark``, if given, runs after the batch records are
        archived but *before* the pump marker is appended.  The worker
        auto-restart protocol hangs its handoff journal write here: the
        marker is the commit point restart recovery truncates back to,
        so anything that must be durable-before-commit (the recorded
        acks for this handoff) goes through this hook.
        """
        dispatched = self.pipeline.drain_all(now)
        if pre_mark is not None:
            pre_mark()
        self._finish_pump(now)
        if self.store is not None and sync_log:
            self.store.log.sync()
        return dispatched

    def final_drain(self) -> None:
        """Audited pump + merge rounds until every queue is empty, so all
        in-flight events are scored and accounted before the experiment
        reads its metrics.

        The first round is a normal rate-budgeted pump (the residual
        capacity since the last tick); at a fixed ``sim.now`` further
        pumps would grant zero budget, so the remaining backlog drains
        through :meth:`~repro.soc.ingest.IngestPipeline.drain_all`, which
        is bounded by the events still queued.  A single pump here used
        to strand anything deeper than one capacity budget.
        """
        self.pipeline.pump(self.sim.now)
        self._finish_pump()
        while self.pipeline.queue_depth:
            self.pipeline.drain_all(self.sim.now)
            self._finish_pump()

    # ------------------------------------------------------------------
    # Batch sinks
    # ------------------------------------------------------------------
    def _archive_handler(self, index: int):
        """Batch-sink tap appending each dispatched batch to the log."""
        log = self.store.log

        def archive(now: float, events: List[SecurityEvent]) -> None:
            log.append_batch(now, index, events)
        return archive

    def _correlate_handler(self, index: int):
        """Batch sink feeding shard ``index``'s batches to the analytic
        state.  It resolves ``self.analytics`` at call time, so adopting
        recovered state (:meth:`adopt_analytics`) rewires every sink."""
        interner = self._interner
        if interner is None:
            def correlate(now: float, events: List[SecurityEvent]) -> None:
                self.analytics.apply_batch(index, events)
        else:
            def correlate(now: float, events: List[SecurityEvent]) -> None:
                self.analytics.apply_columnar(index,
                                              build_batch(events, interner))
        return correlate

    # ------------------------------------------------------------------
    # Durable snapshots / recovery
    # ------------------------------------------------------------------
    def analytics_snapshot(self) -> Dict[str, object]:
        """Canonical dump of every piece of recoverable analytic state,
        taken at a pump boundary (engines, merger, tracker are mutually
        consistent there).  Two runs in the same state produce the same
        bytes under ``json.dumps(..., sort_keys=True)`` -- the equality
        the crash-recovery differential tests compare on.
        """
        return {
            "pump_no": self._pump_no,
            "log_seq": self.store.log.last_seq if self.store else 0,
            **self.analytics.snapshot(),
        }

    def save_snapshot(self):
        """Persist the analytic state; the log is synced first so a
        snapshot never references records less durable than itself."""
        self.store.log.sync()
        return self.store.snapshots.save(self.analytics_snapshot())

    def adopt_analytics(self, recovered: "RecoveredAnalytics") -> None:
        """Swap recovered analytic state into this (running) center.

        The correlator sinks resolve ``self.analytics`` at call time, so
        the swap rewires them without touching the pipeline; the ingest
        tier (queues, counters) is not part of the recovery contract and
        keeps running as-is.
        """
        recovered.on_open = self.analytics.on_open
        self.analytics = recovered
        self._pump_no = recovered.pump_no

    # ------------------------------------------------------------------
    # Federation hooks
    # ------------------------------------------------------------------
    def federation_profile(self) -> Dict[str, object]:
        """The shape a :class:`~repro.soc.federation.FederationHub` needs
        to build byte-compatible replica engines for this region: the
        shard fan-out plus every correlation-hygiene parameter."""
        return {
            "num_shards": len(self.analytics.engines),
            "window_s": self.window_s,
            "k": self.k,
            "dedup_window_s": self.dedup_window_s,
            "max_lateness_s": self.max_lateness_s,
        }

    def export_verdicts(self) -> List[CampaignDetection]:
        """This region's campaign verdicts in fire order -- the payload
        of the lightweight verdict-level federation path
        (:meth:`~repro.soc.federation.FederationHub.adopt_verdicts`)."""
        return self.analytics.export_verdicts()

    def adopt_amendments(self, amendments) -> Dict[str, int]:
        """Consume a hub's reconciliation feed
        (:meth:`~repro.soc.federation.FederationHub.export_amendments`)
        -- dicts or :class:`~repro.soc.incident.Amendment` objects --
        applying each outcome to this region's incident tracker.
        Returns counts per kind plus ``unmatched`` (amendments whose
        signature opened no incident here; a region only ever saw its
        own slice of the fleet, so unmatched is the common case, not an
        error)."""
        counts: Dict[str, int] = {kind: 0 for kind in AMENDMENT_KINDS}
        counts["unmatched"] = 0
        for obj in amendments:
            amendment = (obj if isinstance(obj, Amendment)
                         else Amendment(**obj))
            counts[amendment.kind] += 1
            if not self.tracker.record_amendment(amendment):
                counts["unmatched"] += 1
        return counts

    # ------------------------------------------------------------------
    @property
    def tracker(self) -> IncidentTracker:
        """The live incident tracker (swapped by :meth:`adopt_analytics`)."""
        return self.analytics.tracker

    def flagged_signatures(self) -> Set[str]:
        return self.analytics.flagged_signatures()

    def precision_recall(self) -> Dict[str, float]:
        """Score flagged signatures against the fleet's ground truth."""
        truth = self.fleet.attack_signatures()
        flagged = self.flagged_signatures()
        tp = len(flagged & truth)
        precision = tp / len(flagged) if flagged else 1.0
        recall = tp / len(truth) if truth else 1.0
        return {"precision": precision, "recall": recall,
                "true_positives": float(tp),
                "false_positives": float(len(flagged) - tp)}

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        out.update(self.pipeline.metrics())
        out.update(self.analytics.correlator_metrics())
        out.update(self.precision_recall())
        out["incidents_open"] = float(len(self.tracker.incidents))
        out["mean_time_to_containment_s"] = self.tracker.mean_time_to_containment_s()
        if self.responder is not None:
            out.update(self.responder.metrics())
        out["fleet_compromised"] = float(self.fleet.total_compromised())
        out["fleet_targets"] = float(self.fleet.total_targets())
        if self.audit is not None:
            out["audit_checks"] = float(self.audit.checks)
        return out


# ----------------------------------------------------------------------
# Crash recovery: snapshot + log-suffix replay
# ----------------------------------------------------------------------

class RecoveredAnalytics(AnalyticState):
    """Analytic state rebuilt from a :class:`~repro.soc.store.DurableStore`,
    plus where the replay stopped and what it replayed.

    Hand it to :meth:`SecurityOperationsCenter.adopt_analytics` to resume
    a live center, or inspect it directly for post-mortem forensics.
    """

    pump_no = 0
    log_seq = 0
    replayed_batches = 0
    replayed_events = 0
    replayed_pumps = 0

    def analytics_snapshot(self) -> Dict[str, object]:
        """Same canonical shape as
        :meth:`SecurityOperationsCenter.analytics_snapshot`."""
        return {"pump_no": self.pump_no, "log_seq": self.log_seq,
                **self.snapshot()}


def recover_soc_state(store: DurableStore) -> RecoveredAnalytics:
    """Rebuild the analytic state a dead SOC process would have had.

    Loads the latest valid snapshot, then replays the log records after
    the snapshot's ``log_seq`` through :class:`AnalyticState`, stopping
    at the last pump marker -- the one commit point.  Batch records are
    held until the marker that seals them arrives; then they go to
    :meth:`~AnalyticState.apply_batch` with the owning shard and the
    exact batch boundaries of the live dispatch path, and the marker
    runs :meth:`~AnalyticState.end_pump`, reproducing the live
    pump/merge cadence.  The result is byte-identical (under
    :meth:`RecoveredAnalytics.analytics_snapshot`) to the uninterrupted
    run at the same pump boundary -- the tentpole differential in
    ``tests/test_soc_store.py``.

    A trailing run of batch records past the last marker (a handoff the
    process died inside) is left unapplied, so the recovered state lands
    exactly on a handoff boundary.  That is the worker auto-restart
    contract: the frontend resubmits the torn handoff, and re-processing
    it from the boundary is what makes restart byte-identical to the
    uninterrupted twin (:class:`~repro.soc.service.WorkerCore` pairs
    this with :meth:`~repro.soc.store.EventLog.truncate_after_last_mark`
    so the log *bytes* agree too).
    """
    snap = store.snapshots.load_latest()
    if snap is None:
        raise RuntimeError(
            "no recoverable snapshot: the center writes snapshot 0 at "
            "start(), so an empty snapshot store means this DurableStore "
            "never backed a running SOC")
    state = RecoveredAnalytics.from_snapshot(snap)
    state.pump_no = snap["pump_no"]
    state.log_seq = snap["log_seq"]

    pending: List = []  # batch records awaiting their sealing marker
    for record in store.log.tail(after_seq=snap["log_seq"]):
        if record.kind == "batch":
            pending.append(record)
            continue
        # Pump marker: the live run closed a pump here.
        for sealed in pending:
            state.replayed_batches += 1
            state.replayed_events += len(sealed.events)
            state.apply_batch(sealed.shard, list(sealed.events))
        pending.clear()
        state.log_seq = record.seq
        state.replayed_pumps += 1
        state.pump_no = record.pump_no
        state.end_pump()
    return state
