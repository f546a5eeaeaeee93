"""The analytic state machine every consumer of dispatched batches runs.

:class:`AnalyticState` holds the one rule by which a dispatched batch and
a pump boundary become engine, merger and incident state.  The live
:class:`~repro.soc.center.SecurityOperationsCenter`, crash recovery
(:func:`~repro.soc.center.recover_soc_state`) and the
:class:`~repro.soc.federation.FederationHub` each drive an instance, so
the byte-identity differentials between them pin one implementation
under different drivers rather than copies kept in step by hand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.safety import Asil
from repro.soc.columnar import ColumnarBatch
from repro.soc.correlate import (
    CampaignDetection,
    CorrelationEngine,
    GlobalCampaignMerger,
)
from repro.soc.events import (
    DEFAULT_SOURCE_SEVERITY,
    SecurityEvent,
    source_for_signature,
)
from repro.soc.incident import Incident, IncidentTracker


def base_severity(detection: CampaignDetection) -> Asil:
    """Merged detections carry no triggering event; recover the source
    family from the signature namespace (same defaulting as the
    per-event path)."""
    source = source_for_signature(detection.signature)
    if source is None:
        return Asil.A
    return DEFAULT_SOURCE_SEVERITY.get(source, Asil.A)


class AnalyticState:
    """Correlation engines + optional merger + incident tracker, advanced
    one dispatched batch (:meth:`apply_batch`) and one pump boundary
    (:meth:`end_pump`) at a time.

    Without a merger (one engine) a batch opens an incident at each
    detection's triggering event and attaches every verdict-less event
    on a flagged signature, in batch order; a pump boundary only drains
    the engine's dirty set, which would otherwise grow with every
    distinct signature.  With a merger, batches only feed engine
    ``shard`` of the flat engine list; at the pump boundary the merge
    runs, each new fleet-wide verdict is adopted into every engine (so
    spread attribution stays exact and nothing re-fires) and opens an
    incident, and newly attributed vehicles attach in sorted order.
    Merger cursors index engines by position, so list order is state.

    ``on_open``, if set, receives every incident an opening returns, in
    opening order: the center's responder hangs here, so response
    scheduling follows detection order exactly.
    """

    def __init__(self, engines: Sequence[CorrelationEngine],
                 merger: Optional[GlobalCampaignMerger],
                 tracker: IncidentTracker) -> None:
        self.engines: List[CorrelationEngine] = list(engines)
        self.merger = merger
        self.tracker = tracker
        self.on_open: Optional[Callable[[Incident], None]] = None

    @classmethod
    def fresh(cls, num_engines: int, *, merged: bool, window_s: float,
              k: int, dedup_window_s: float,
              max_lateness_s: float) -> "AnalyticState":
        """Empty state with ``num_engines`` engines and, iff ``merged``,
        a merger."""
        engines = [CorrelationEngine(window_s=window_s, k=k,
                                     dedup_window_s=dedup_window_s,
                                     max_lateness_s=max_lateness_s)
                   for _ in range(num_engines)]
        merger = (GlobalCampaignMerger(window_s=window_s, k=k)
                  if merged else None)
        return cls(engines, merger, IncidentTracker())

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------
    def apply_batch(self, shard: int, events: List[SecurityEvent]) -> None:
        """Correlate one dispatched batch on engine ``shard``."""
        if self.merger is not None:
            self.engines[shard].observe_batch(events)
            return
        engine = self.engines[0]
        tracker = self.tracker
        for event, detection in zip(events, engine.observe_batch(events)):
            if detection is not None:
                self._open(detection,
                           DEFAULT_SOURCE_SEVERITY.get(event.source, Asil.A))
            elif engine.is_flagged(event.signature):
                tracker.attach_vehicle(event.signature, event.vehicle_id)

    def apply_columnar(self, shard: int, batch: ColumnarBatch) -> None:
        """Columnar form of :meth:`apply_batch`.  Detections and
        flagged-signature hits come back as batch indices; replaying
        them merged in index order reproduces the scalar open/attach
        interleaving, so the resulting state is byte-identical."""
        if self.merger is not None:
            self.engines[shard].observe_columnar(batch)
            return
        result = self.engines[0].observe_columnar(batch, track_hits=True)
        if not result.detections and not result.hits:
            return
        events = batch.events
        tracker = self.tracker
        detections = result.detections
        di = 0
        for idx in result.hits:
            while di < len(detections) and detections[di][0] < idx:
                j, detection = detections[di]
                di += 1
                self._open(detection, DEFAULT_SOURCE_SEVERITY.get(
                    events[j].source, Asil.A))
            event = events[idx]
            tracker.attach_vehicle(event.signature, event.vehicle_id)
        for j, detection in detections[di:]:
            self._open(detection, DEFAULT_SOURCE_SEVERITY.get(
                events[j].source, Asil.A))

    def end_pump(self, provisional: bool = False) -> List[CampaignDetection]:
        """Close one pump boundary; returns the fleet-wide detections the
        merge fired (none without a merger).  ``provisional`` tags the
        incidents they open (the hub's optimistic episodes)."""
        if self.merger is None:
            self.engines[0].pop_dirty()
            return []
        new_detections, new_vehicles = self.merger.merge(self.engines)
        for detection in new_detections:
            for engine in self.engines:
                engine.adopt_campaign(detection)
            self._open(detection, base_severity(detection), provisional)
        for signature in sorted(new_vehicles):
            for vehicle in sorted(new_vehicles[signature]):
                self.tracker.attach_vehicle(signature, vehicle)
        return new_detections

    def _open(self, detection: CampaignDetection, base: Asil,
              provisional: bool = False) -> None:
        incident = self.tracker.open_from_detection(
            detection, base, provisional=provisional)
        if self.on_open is not None:
            self.on_open(incident)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Canonical dump, consistent only at a pump boundary (the
        merger's cursors index the engines' detection lists)."""
        return {
            "sharded": self.merger is not None,
            "engines": [e.snapshot() for e in self.engines],
            "merger": self.merger.snapshot() if self.merger else None,
            "tracker": self.tracker.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, object]) -> "AnalyticState":
        return cls(
            [CorrelationEngine.from_snapshot(s) for s in snap["engines"]],
            (GlobalCampaignMerger.from_snapshot(snap["merger"])
             if snap["merger"] is not None else None),
            IncidentTracker.from_snapshot(snap["tracker"]))

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def flagged_signatures(self) -> Set[str]:
        if self.merger is not None:
            return set(self.merger.flagged_signatures)
        return set(self.engines[0].flagged_signatures)

    def export_verdicts(self) -> List[CampaignDetection]:
        """Campaign verdicts in fire order."""
        if self.merger is not None:
            return list(self.merger.detections)
        return list(self.engines[0].detections)

    def correlator_metrics(self) -> Dict[str, float]:
        """The engines' counters summed."""
        if self.merger is None:
            return self.engines[0].metrics()
        merged: Dict[str, float] = {}
        for engine in self.engines:
            for key, value in engine.metrics().items():
                merged[key] = merged.get(key, 0.0) + value
        # Campaign count is a fleet-level fact: adopted local flags would
        # count one campaign once per shard.
        merged["campaigns_flagged"] = float(
            len(self.merger.flagged_signatures))
        return merged
