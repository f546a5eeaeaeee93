"""Sliding-window cross-vehicle correlation.

The paper's §4.2 class-break argument: because a vehicle class shares
software, keys, and configurations, one working exploit recurs across
the fleet with the *same signature*.  Single-vehicle detection cannot
see that; a backend watching all vehicles can.  The engine here flags a
**campaign** when at least ``k`` *distinct* vehicles report the same
signature within a ``window``-second span.

Stream hygiene, in order of application:

1. **duplicate ids** -- at-least-once transports redeliver; an
   ``event_id`` is only ever counted once;
2. **lateness bound** -- events older than ``watermark - max_lateness``
   are dropped (out-of-order arrival *within* the bound is fine and
   still correlates);
3. **per-vehicle dedup** -- one noisy vehicle repeating a signature
   inside ``dedup_window`` seconds collapses to a single observation, so
   a single chatty ECU can never fake a fleet campaign.

Window semantics are **closed**: two events exactly ``window`` seconds
apart co-occur; ``window + ε`` apart do not.  (Pinned by the property
tests in ``tests/test_soc.py``.)

Fleet-scale fast path (the 10^7-vehicle E17 cell):

- per-signature state is **incremental** -- a min-heap of in-window
  entries, a running distinct-vehicle count, and a monotonically
  tracked newest timestamp -- so one observe costs O(log w) in the
  window size instead of the O(w) set-rebuild + max()-rescan the
  :class:`ReferenceCorrelationEngine` (the original implementation,
  kept as the executable spec) pays per event;
- :meth:`CorrelationEngine.observe_columnar` consumes a whole drained
  batch as numpy columns, differential-tested byte-identical to
  per-event :meth:`~CorrelationEngine.observe`;
- dedup/duplicate bookkeeping is **bounded**: ids and per-vehicle
  timestamps older than the watermark minus the retention horizon are
  evicted, so memory is O(events in horizon), not O(events ever);
- :class:`GlobalCampaignMerger` stitches shard-local engines into
  fleet-wide campaigns, which makes region-keyed sharding (one
  signature spread over many shards) detect exactly what a single
  global engine would.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Deque, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from collections import deque

import numpy as np

from repro.core.safety import Asil
from repro.soc.columnar import BLOOM_BYTES
from repro.soc.events import SecurityEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soc.columnar import ColumnarBatch

# Ledger chunk-list length cap: bounds the per-suspect chunk scans (and
# bloom false-positive buildup) on very long sweep-free streams.
_MAX_LEDGER_CHUNKS = 64

#: Below this size the columnar machinery costs more than it saves;
#: ``observe_columnar`` silently falls back to per-event ``observe``
#: (identical semantics).
COLUMNAR_MIN_BATCH = 16


def k_for_fleet_size(n_vehicles: int, base_k: int = 3,
                     base_fleet: int = 1_000_000) -> int:
    """Distinct-vehicle threshold scaled to fleet size: ``base_k`` up to
    ``base_fleet`` vehicles, +1 per decade beyond.

    ``k`` is a noise floor, and the noise grows with the fleet: benign
    telemetry draws signatures from a fixed catalog, so the expected
    number of *distinct* vehicles hitting any one benign signature inside
    a correlation window scales linearly with fleet size.  A threshold
    tuned at 10^6 (k=3) is crossed by pure chance at 10^8 -- E17's XL
    cell measured precision 0.6 there, every miss a benign signature that
    three unrelated vehicles happened to share in-window.  Per-signature
    co-occurrence counts are Poisson-ish, so holding the false-campaign
    rate roughly constant needs ``k`` to grow with ``log(fleet)``, not
    with the fleet: one extra distinct-vehicle demand per decade.

    Real campaigns clear the raised bar by construction -- a §4.2
    class-break recurs across the fleet's shared software, so planted
    prevalences put orders of magnitude more than ``k`` vehicles in
    window (E17's XL regression pins precision >= 0.9 at recall 1.0).
    """
    if n_vehicles < 1:
        raise ValueError("n_vehicles must be >= 1")
    k = base_k
    scale = base_fleet
    while n_vehicles > scale * 3:  # past the decade's geometric midpoint
        k += 1
        scale *= 10
    return k


@dataclass(frozen=True)
class CampaignDetection:
    """The correlator's verdict: one signature active fleet-wide."""

    signature: str
    detect_time: float          # time of the event that tripped the rule
    first_time: float           # earliest in-window observation
    vehicles: Tuple[str, ...]   # distinct vehicles at detection, sorted
    window_s: float
    k: int

    @property
    def spread(self) -> int:
        return len(self.vehicles)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form (snapshot/restore round-trips it exactly)."""
        return {
            "signature": self.signature,
            "detect_time": self.detect_time,
            "first_time": self.first_time,
            "vehicles": list(self.vehicles),
            "window_s": self.window_s,
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, object]) -> "CampaignDetection":
        return cls(
            signature=obj["signature"],
            detect_time=obj["detect_time"],
            first_time=obj["first_time"],
            vehicles=tuple(obj["vehicles"]),
            window_s=obj["window_s"],
            k=obj["k"],
        )


#: float("-inf") is not valid strict JSON; snapshots encode it as None.
def _enc_time(t: float) -> Optional[float]:
    return None if t == float("-inf") else t


def _dec_time(t: Optional[float]) -> float:
    return float("-inf") if t is None else t


class _SignatureWindow:
    """Incremental per-signature window state.

    ``heap`` holds the live (time, vehicle) entries as a min-heap, so
    expiry is pop-from-the-top and ``first_time`` is ``heap[0]``;
    ``counts`` tracks live entries per vehicle, so the distinct-vehicle
    cardinality is ``len(counts)`` with no per-event set rebuild;
    ``newest`` is tracked monotonically -- pruning can only remove
    entries strictly older than ``newest - window``, never the maximum
    itself, so a running max is exact.

    The columnar fast path appends whole per-signature batch slices as
    **tail chunks** -- ``(times, vehicles, t_first, t_last, count)`` with
    times ascending and ``t_first >= newest`` at append time -- instead
    of per-entry heap pushes.  Chunks are pruned lazily (a whole chunk
    drops once its ``t_last`` expires; partially-expired entries wait)
    and folded into ``heap``/``counts`` only when scalar code needs
    exact state (:meth:`CorrelationEngine._fold_window`).  Because every
    chunk entry is >= every heap entry and chunks are globally
    ascending, extending the heap with them preserves the heap
    invariant without a heapify.  ``tail_len`` counts chunk entries
    (including lazily-retained expired ones), so
    ``len(counts) + tail_len`` upper-bounds the live distinct-vehicle
    cardinality -- the fire-possibility screen.
    """

    __slots__ = ("heap", "counts", "newest", "tail", "tail_len")

    def __init__(self) -> None:
        self.heap: List[Tuple[float, str]] = []
        self.counts: Dict[str, int] = {}
        self.newest = float("-inf")
        self.tail: List[Tuple[np.ndarray, np.ndarray, float, float, int]] = []
        self.tail_len = 0


class ColumnarResult:
    """Per-batch outcome of :meth:`CorrelationEngine.observe_columnar`.

    ``detections`` is ``(batch_index, detection)`` in batch-index order
    (exactly where ``observe_batch``'s verdict list would be non-None).
    ``hits`` lists, in batch-index order, the verdict-less events whose
    signature is flagged once the batch is fully observed -- the same
    predicate the center's scalar sink evaluates per event
    (``verdict is None and is_flagged(signature)``), so campaign-spread
    attribution stays byte-identical across delivery paths.  ``hits`` is
    only populated when the caller asks (``track_hits=True``); shard
    handlers skip it because spread surfaces at merge time.
    """

    __slots__ = ("n", "detections", "hits")

    def __init__(self, n: int,
                 detections: List[Tuple[int, CampaignDetection]],
                 hits: List[int]) -> None:
        self.n = n
        self.detections = detections
        self.hits = hits


class CorrelationEngine:
    """Deduplicate per-vehicle noise; detect cross-fleet campaigns.

    Equivalent to :class:`ReferenceCorrelationEngine` (the property
    tests machine-check it) but O(log w) per event and bounded-memory:

    - ``_seen_ids`` and ``_last_by_key`` map to the *time* of the entry
      and are swept once the watermark has advanced past the retention
      horizon ``max_lateness_s + dedup_window_s``.  Inside that horizon
      dedup/duplicate semantics are bit-identical to the reference;
      beyond it a redelivered id can only belong to an event that the
      lateness bound drops anyway (it is then attributed to
      ``late_dropped`` instead of ``duplicate_ids`` -- same drop, same
      hygiene, bounded ledger).
    - signature windows whose newest entry can never co-occur with any
      future admissible event (``newest < watermark - max_lateness -
      window``) are dropped whole.
    """

    def __init__(
        self,
        window_s: float = 8.0,
        k: int = 3,
        dedup_window_s: float = 4.0,
        max_lateness_s: float = 2.0,
        min_severity: Asil = Asil.B,
    ) -> None:
        if k < 2:
            raise ValueError("a campaign needs k >= 2 vehicles")
        if window_s <= 0 or dedup_window_s < 0 or max_lateness_s < 0:
            raise ValueError("windows must be positive")
        self.window_s = window_s
        self.k = k
        self.dedup_window_s = dedup_window_s
        self.max_lateness_s = max_lateness_s
        self.min_severity = min_severity

        # Retention horizon for the dedup/duplicate ledgers.  The sum
        # (not the max) is the tight bound: an admissible event has
        # time >= watermark - max_lateness, so a per-vehicle timestamp
        # older than watermark - (max_lateness + dedup_window) can never
        # again satisfy |t_new - t_old| <= dedup_window.
        self._retention_s = max_lateness_s + dedup_window_s

        self._seen_ids: Dict[str, float] = {}
        self._last_by_key: Dict[Tuple[str, str], float] = {}
        # Columnar ledger chunks: drained batches arrive with their
        # ``id_time``/``key_time`` dicts already built, so the fast path
        # *appends the dict itself* instead of paying a growing-dict
        # insert per entry (the dominant per-event cost at fleet scale).
        # A bit-packed bloom filter per ledger screens a batch against
        # the chunks in a few vectorized ops (bloom-hit elements are
        # double-checked exactly); ``_fold_ledgers`` merges chunks into
        # the base dicts -- and zeroes the blooms, which by invariant
        # cover exactly the chunk contents -- whenever scalar code needs
        # per-key lookups.  Blooms allocate lazily: per-event engines
        # never pay the 2 MiB.
        self._seen_chunks: List[Dict[str, float]] = []
        self._lbk_chunks: List[Dict[Tuple[str, str], float]] = []
        self._seen_bloom: Optional[np.ndarray] = None
        self._lbk_bloom: Optional[np.ndarray] = None
        self._by_signature: Dict[str, _SignatureWindow] = {}
        self._flagged: Dict[str, CampaignDetection] = {}
        self._campaign_vehicles: Dict[str, Set[str]] = {}
        self._dirty: Set[str] = set()          # signatures changed since pop_dirty
        self._last_sweep_wm = float("-inf")

        self.watermark = float("-inf")
        self.observed = 0
        self.duplicate_ids = 0
        self.late_dropped = 0
        self.low_severity_ignored = 0
        self.deduped = 0
        self.ids_evicted = 0
        self.keys_evicted = 0
        self.windows_evicted = 0
        self.detections: List[CampaignDetection] = []

        # Columnar-path telemetry.  Deliberately *not* part of
        # ``snapshot()``: which path fed the engine is an implementation
        # detail, and including it would break the byte-identity contract
        # between columnar- and scalar-fed engines.
        self.columnar_batches = 0
        self.columnar_fallbacks = 0
        self.columnar_group_replays = 0

    # ------------------------------------------------------------------
    def observe(self, event: SecurityEvent) -> Optional[CampaignDetection]:
        """Feed one event; returns a detection the first time a signature
        crosses the k-vehicles-in-window threshold."""
        if self._seen_chunks or self._lbk_chunks:
            self._fold_ledgers()
        self.observed += 1

        t = event.time
        seen = self._seen_ids
        if event.event_id in seen:
            self.duplicate_ids += 1
            return None
        seen[event.event_id] = t

        if t < self.watermark - self.max_lateness_s:
            self.late_dropped += 1
            return None
        if t > self.watermark:
            self.watermark = t
            if t - self._last_sweep_wm >= self._retention_s:
                self._sweep()

        # Only actionable telemetry (>= min_severity) can seed a campaign
        # window -- QM/A observability noise is counted and discarded, so
        # chatter can never manufacture a fleet incident.
        if event.severity < self.min_severity:
            self.low_severity_ignored += 1
            return None

        key = (event.vehicle_id, event.signature)
        last = self._last_by_key.get(key)
        if last is not None and abs(t - last) <= self.dedup_window_s:
            self.deduped += 1
            if t > last:
                self._last_by_key[key] = t
            return None
        self._last_by_key[key] = t

        sig = event.signature
        if sig in self._flagged:
            # Campaign already open: track spread, don't re-fire.
            self._campaign_vehicles[sig].add(event.vehicle_id)
            self._dirty.add(sig)
            return None
        return self._window_insert(sig, t, event.vehicle_id)

    def observe_batch(
        self, events: Sequence[SecurityEvent]
    ) -> List[Optional[CampaignDetection]]:
        """Feed a dispatched batch; returns per-event verdicts, exactly
        ``[self.observe(e) for e in events]``."""
        observe = self.observe
        return [observe(event) for event in events]

    # ------------------------------------------------------------------
    def _window_insert(
        self, sig: str, t: float, vehicle: str
    ) -> Optional[CampaignDetection]:
        """Add one admissible observation to a signature window; prune
        incrementally; fire when k distinct vehicles co-occur."""
        w = self._by_signature.get(sig)
        if w is None:
            w = self._by_signature[sig] = _SignatureWindow()
        elif w.tail_len:
            self._fold_window(w)
        heap = w.heap
        counts = w.counts
        heappush(heap, (t, vehicle))
        counts[vehicle] = counts.get(vehicle, 0) + 1
        if t > w.newest:
            w.newest = t
        # Closed window: entries exactly window_s old still co-occur;
        # strictly older ones expire.  The heap's top is always the
        # oldest live entry, so expiry never rescans the window.
        cutoff = w.newest - self.window_s
        while heap[0][0] < cutoff:
            _, gone = heappop(heap)
            c = counts[gone] - 1
            if c:
                counts[gone] = c
            else:
                del counts[gone]
        self._dirty.add(sig)
        if len(counts) < self.k:
            return None

        detection = CampaignDetection(
            signature=sig,
            detect_time=t,
            first_time=heap[0][0],
            vehicles=tuple(sorted(counts)),
            window_s=self.window_s,
            k=self.k,
        )
        self._flagged[sig] = detection
        self._campaign_vehicles[sig] = set(counts)
        del self._by_signature[sig]
        self.detections.append(detection)
        return detection

    def _sweep(self) -> None:
        """Evict dedup/duplicate ledger entries past the retention
        horizon and signature windows that can never fire again.

        Amortized O(1) per observe: a sweep runs only once per
        ``_retention_s`` of watermark advance, and an entry is examined
        by at most two sweeps before eviction.
        """
        if self._seen_chunks or self._lbk_chunks:
            self._fold_ledgers()
        wm = self.watermark
        self._last_sweep_wm = wm
        horizon = wm - self._retention_s
        seen = self._seen_ids
        stale_ids = [eid for eid, t in seen.items() if t < horizon]
        for eid in stale_ids:
            del seen[eid]
        self.ids_evicted += len(stale_ids)
        last = self._last_by_key
        stale_keys = [key for key, t in last.items() if t < horizon]
        for key in stale_keys:
            del last[key]
        self.keys_evicted += len(stale_keys)
        # A window whose newest entry is older than this can never share
        # a closed window with any future admissible (in-lateness) event,
        # so dropping it whole is invisible to detection semantics.
        window_horizon = wm - self.max_lateness_s - self.window_s
        windows = self._by_signature
        stale_sigs = [s for s, w in windows.items() if w.newest < window_horizon]
        for s in stale_sigs:
            del windows[s]
        self.windows_evicted += len(stale_sigs)

    # ------------------------------------------------------------------
    # Columnar fast path (numpy structured batches from the drain)
    # ------------------------------------------------------------------
    def _fold_window(self, w: _SignatureWindow) -> None:
        """Materialize a window's columnar tail chunks into the exact
        scalar state (``heap``/``counts``), pruning against the current
        ``newest`` -- the live set only depends on the final newest, so
        deferred pruning folds to precisely what per-event pruning would
        have left."""
        heap = w.heap
        counts = w.counts
        cutoff = w.newest - self.window_s
        # The base heap may predate columnar appends that advanced newest.
        while heap and heap[0][0] < cutoff:
            _, gone = heappop(heap)
            c = counts[gone] - 1
            if c:
                counts[gone] = c
            else:
                del counts[gone]
        get = counts.get
        for t_a, v_a, t_first, t_last, _count in w.tail:
            if t_last < cutoff:
                continue  # whole chunk expired while lazily retained
            if t_first < cutoff:
                s = int(np.searchsorted(t_a, cutoff, side="left"))
                t_a = t_a[s:]
                v_a = v_a[s:]
            vl = v_a.tolist()
            # Chunks are ascending and >= every live heap entry, so
            # extending preserves the heap invariant (no heapify).
            heap.extend(zip(t_a.tolist(), vl))
            for v in vl:
                counts[v] = get(v, 0) + 1
        w.tail = []
        w.tail_len = 0

    def _fold_ledgers(self) -> None:
        """Merge columnar ledger chunks into the base dicts.

        Chunks are pairwise disjoint and disjoint from the base (the
        fast path screens before appending), so the merge is a plain
        union -- byte-identical to having inserted per-event.  Runs
        before any code that needs exact per-key lookups: scalar
        observes, retention sweeps, dedup-ledger hits, snapshots.
        """
        if self._seen_chunks:
            base = self._seen_ids
            for chunk in self._seen_chunks:
                base.update(chunk)
            self._seen_chunks = []
            self._seen_bloom.fill(0)
        if self._lbk_chunks:
            base_k = self._last_by_key
            for chunk_k in self._lbk_chunks:
                base_k.update(chunk_k)
            self._lbk_chunks = []
            self._lbk_bloom.fill(0)

    def observe_columnar(self, batch: "ColumnarBatch",
                         track_hits: bool = False) -> ColumnarResult:
        """Feed one drained :class:`~repro.soc.columnar.ColumnarBatch`.

        Semantically identical to ``observe_batch(batch.events)`` -- the
        differential/Hypothesis suite pins byte-identical ``snapshot()``
        state, counters included -- but the batch-wide work (duplicate
        screening, lateness, severity, dedup-ledger maintenance,
        per-signature grouping, window appends) runs as C-level dict and
        numpy operations.  Rare hazards route to exact scalar code:

        - within-batch duplicate ids/dedup keys, or overlap between the
          batch's ids and the seen-ledger -> whole-batch scalar fallback;
        - a retention sweep tripping mid-batch -> the batch splits at the
          tripping event, which is observed scalar (sweeps are amortized
          once per ``retention_s`` of watermark advance);
        - a group that could possibly fire, arrive out of order, or land
          behind its window's newest -> that signature's slice replays
          through the scalar insert path.
        """
        n = batch.n
        if n == 0:
            return ColumnarResult(0, [], [])
        self.columnar_batches += 1
        d0 = len(self.detections)
        if self._seen_bloom is None:
            self._seen_bloom = np.zeros(BLOOM_BYTES, dtype=np.uint8)
            self._lbk_bloom = np.zeros(BLOOM_BYTES, dtype=np.uint8)
        elif (len(self._seen_chunks) >= _MAX_LEDGER_CHUNKS
                or len(self._lbk_chunks) >= _MAX_LEDGER_CHUNKS):
            self._fold_ledgers()
        hazard = n < COLUMNAR_MIN_BATCH or not batch.ids_unique
        if not hazard and self._seen_chunks:
            hits = self._seen_bloom[batch.id_bloom_byte] & batch.id_bloom_bit
            if hits.any():
                # Bloom hits are only *suspects*: confirm each against
                # the chunk dicts; any true hit is a real duplicate id.
                eids = batch.eid_list
                seen_chunks = self._seen_chunks
                for i in np.flatnonzero(hits).tolist():
                    eid = eids[i]
                    if any(eid in chunk for chunk in reversed(seen_chunks)):
                        hazard = True
                        break
        if not hazard and self._seen_ids:
            base = self._seen_ids
            if len(base) <= n:
                # dict-keys isdisjoint iterates its *argument*: probe
                # the smaller side into the larger dict.
                hazard = not batch.id_time.keys().isdisjoint(base)
            else:
                hazard = not base.keys().isdisjoint(batch.id_time)
        if not hazard and not batch.keys_unique:
            # Repeated dedup keys are handled columnar only on the clean
            # full-span path (sequential suspect resolution); any chance
            # of a sweep split or an admission mask routes the batch to
            # exact scalar code instead.
            wm = self.watermark
            hazard = (
                (batch.t_max > wm
                 and batch.t_max - self._last_sweep_wm >= self._retention_s)
                or batch.t_min < max(batch.t_max, wm) - self.max_lateness_s
                or batch.sev_min < int(self.min_severity))
        if hazard:
            self.columnar_fallbacks += 1
            fired = self._scalar_span(batch, 0, n)
        else:
            fired = []
            events = batch.events
            start = 0
            while start < n:
                stop, c = self._next_sweep_trip(batch, start)
                if stop > start:
                    fired.extend(self._columnar_span(batch, start, stop, c))
                if stop >= n:
                    break
                # The tripping event runs scalar: its observe() advances
                # the watermark and performs the sweep exactly in-order.
                d = self.observe(events[stop])
                if d is not None:
                    fired.append((stop, d))
                start = stop + 1
        if len(fired) > 1:
            fired.sort()
            # Group-major processing can fire out of batch order; restore
            # the per-event append order detections snapshots pin.
            self.detections[d0:] = [d for _, d in fired]
        hits: List[int] = []
        if track_hits and self._flagged:
            ids = batch.interner.ids
            flagged_ids = np.array(
                [ids.get(s, -1) for s in self._flagged], dtype=np.int64)
            mask = np.isin(batch.sig_ids, flagged_ids)
            if mask.any():
                fired_at = {i for i, _ in fired}
                hits = [i for i in np.flatnonzero(mask).tolist()
                        if i not in fired_at]
        return ColumnarResult(n, fired, hits)

    def _next_sweep_trip(self, batch: "ColumnarBatch",
                         start: int) -> Tuple[int, Optional[np.ndarray]]:
        """Index of the next event that would trigger a retention sweep
        (or batch end), plus the running-watermark prefix when it had to
        be computed (``None`` means no event in the span can be late).

        Between sweeps ``watermark - last_sweep_wm < retention`` holds,
        so an event trips iff it advances the watermark to ``t`` with
        ``t - last_sweep_wm >= retention`` -- on the cumulative max both
        conditions are monotone, so the first tripping index is exact.
        """
        wm = self.watermark
        lsw = self._last_sweep_wm
        retention = self._retention_s
        t_max = batch.t_max if start == 0 else max(batch.t_list[start:])
        if not (t_max > wm and t_max - lsw >= retention):
            return batch.n, None
        c = np.maximum.accumulate(batch.t[start:])
        trip = (c > wm) & ((c - lsw) >= retention)
        j = int(np.argmax(trip))
        return start + j, c[:j] if j else None

    def _scalar_span(self, batch: "ColumnarBatch", a: int,
                     b: int) -> List[Tuple[int, CampaignDetection]]:
        verdicts = self.observe_batch(
            batch.events[a:b] if (a, b) != (0, batch.n) else batch.events)
        return [(a + i, d) for i, d in enumerate(verdicts) if d is not None]

    def _columnar_span(
        self, batch: "ColumnarBatch", a: int, b: int,
        c: Optional[np.ndarray],
    ) -> List[Tuple[int, CampaignDetection]]:
        """Vectorized observe of ``events[a:b]`` -- no sweep can trip in
        the span, batch ids/keys are unique, and none collide with the
        seen-ledger (the caller checked)."""
        n = batch.n
        full = (a, b) == (0, n)
        t_list = batch.t_list
        wm0 = self.watermark

        # --- duplicate-id ledger: adopt the drain-built dict as a chunk
        # (ids pre-screened unique and disjoint from base + chunks), so
        # the span pays zero per-entry insert cost here.
        if full:
            self._seen_chunks.append(batch.id_time)
            np.bitwise_or.at(self._seen_bloom, batch.id_bloom_byte,
                             batch.id_bloom_bit)
        else:
            self._seen_chunks.append(
                dict(zip(batch.eid_list[a:b], t_list[a:b])))
            np.bitwise_or.at(self._seen_bloom, batch.id_bloom_byte[a:b],
                             batch.id_bloom_bit[a:b])

        # --- lateness + watermark ------------------------------------
        t_min = batch.t_min if full else min(t_list[a:b])
        t_max = batch.t_max if full else max(t_list[a:b])
        late = None
        n_late = 0
        # No event can be late if even the final watermark leaves the
        # oldest event inside the bound (prefix watermarks are <= t_max).
        if t_min < max(t_max, wm0) - self.max_lateness_s:
            if c is None:
                c = np.maximum.accumulate(batch.t[a:b])
            # Per-event watermark before event i is max(wm0, cummax of
            # the span's earlier times) -- the running max alone would
            # under-flag lateness whenever wm0 leads the span.
            prefix = np.empty(b - a, dtype=np.float64)
            prefix[0] = wm0
            np.maximum(c[: b - a - 1], wm0, out=prefix[1:])
            late = batch.t[a:b] < prefix - self.max_lateness_s
            n_late = int(late.sum())
            if n_late == 0:
                late = None
        if t_max > wm0:
            self.watermark = t_max

        # --- severity floor ------------------------------------------
        min_sev = int(self.min_severity)
        low = None
        n_low = 0
        if (batch.sev_min if full else int(batch.sev[a:b].min())) < min_sev:
            low = batch.sev[a:b] < min_sev
            if late is not None:
                low &= ~late
            n_low = int(low.sum())
            if n_low == 0:
                low = None

        admitted: Optional[np.ndarray] = None
        if late is not None or low is not None:
            admitted = np.ones(b - a, dtype=bool)
            if late is not None:
                admitted &= ~late
            if low is not None:
                admitted &= ~low

        # --- per-vehicle dedup ledger --------------------------------
        lbk = self._last_by_key
        n_dedup = 0
        if full and admitted is None:
            hits = self._lbk_bloom[batch.key_bloom_byte] & batch.key_bloom_bit
            any_hits = bool(hits.any())
            base_overlap = False
            if lbk:
                if len(lbk) <= n:
                    base_overlap = \
                        not batch.key_time.keys().isdisjoint(lbk)
                else:
                    base_overlap = \
                        not lbk.keys().isdisjoint(batch.key_time)
            if batch.keys_unique and not any_hits and not base_overlap:
                self._lbk_chunks.append(batch.key_time)
                np.bitwise_or.at(self._lbk_bloom, batch.key_bloom_byte,
                                 batch.key_bloom_bit)
            elif not base_overlap:
                # Chunk (or within-batch) key hits only: resolve just
                # the suspect keys exactly, adopt the rest as a chunk.
                suspects = np.flatnonzero(hits).tolist()
                if batch.dup_key_idx:
                    suspects = sorted({*suspects, *batch.dup_key_idx}) \
                        if suspects else batch.dup_key_idx
                admitted, n_dedup = self._columnar_dedup_chunked(
                    batch, suspects)
            elif batch.keys_unique:
                # Base-ledger hits: exact vectorized dedup on the folded
                # base (the steady state for dedup-heavy streams).
                self._fold_ledgers()
                admitted, n_dedup = self._columnar_dedup(batch, a, b, None)
            else:
                # Base hits *and* repeated in-batch keys: every possibly
                # colliding key resolves exactly, in stream order.
                sus = set(np.flatnonzero(hits).tolist())
                sus.update(batch.dup_key_idx)
                sus.update(i for i, key in enumerate(batch.keys)
                           if key in lbk)
                admitted, n_dedup = self._columnar_dedup_chunked(
                    batch, sorted(sus))
        else:
            # Partial/masked spans (sweep splits, filtered events):
            # chunk-append like the full path -- the hazard gate routes
            # repeated-key batches away from split/masked processing, so
            # span keys are unique -- and fold to exact dict operations
            # on any suspected collision.
            chunk_hit = False
            if self._lbk_chunks:
                hits = (self._lbk_bloom[batch.key_bloom_byte[a:b]]
                        & batch.key_bloom_bit[a:b])
                if admitted is not None:
                    # hits holds bloom *bit masks* (any nonzero byte is a
                    # hit) -- AND-ing the bool mask directly would erase
                    # every hit whose bloom bit isn't bit 0.
                    hits[~admitted] = 0
                chunk_hit = bool(hits.any())
            span_keys = {batch.keys[i]: t_list[i]
                         for i in range(a, b)
                         if admitted is None or admitted[i - a]}
            base_overlap = False
            if lbk and span_keys:
                if len(lbk) <= len(span_keys):
                    base_overlap = not span_keys.keys().isdisjoint(lbk)
                else:
                    base_overlap = not lbk.keys().isdisjoint(span_keys)
            if not chunk_hit and not base_overlap:
                if span_keys:
                    self._lbk_chunks.append(span_keys)
                    np.bitwise_or.at(self._lbk_bloom,
                                     batch.key_bloom_byte[a:b],
                                     batch.key_bloom_bit[a:b])
            else:
                self._fold_ledgers()
                if lbk.keys().isdisjoint(span_keys):
                    lbk.update(span_keys)
                else:
                    admitted, n_dedup = self._columnar_dedup(batch, a, b,
                                                             admitted)

        self.observed += b - a
        self.late_dropped += n_late
        self.low_severity_ignored += n_low
        self.deduped += n_dedup

        # --- per-signature grouping + window appends -----------------
        if full and admitted is None:
            order = batch.order
            bounds = batch.group_bounds
            gsigs = batch.group_sigs
        else:
            order = batch.order
            if not full:
                order = order[(order >= a) & (order < b)]
            if admitted is not None:
                order = order[admitted[order - a]]
            if order.size == 0:
                return []
            sig_sorted = batch.sig_ids[order]
            cuts = np.flatnonzero(sig_sorted[1:] != sig_sorted[:-1]) + 1
            bounds = [0, *cuts.tolist(), int(order.size)]
            table = batch.interner.table
            gsigs = [table[sig_sorted[i]] for i in bounds[:-1]]

        t_srt = batch.t[order]
        v_srt = batch.veh_obj[order]
        in_order = batch.times_sorted

        flagged = self._flagged
        campaign_vehicles = self._campaign_vehicles
        by_sig = self._by_signature
        dirty = self._dirty
        window_s = self.window_s
        k = self.k
        fired: List[Tuple[int, CampaignDetection]] = []

        for gi, sig in enumerate(gsigs):
            ga = bounds[gi]
            gb = bounds[gi + 1]
            if flagged and sig in flagged:
                campaign_vehicles[sig].update(v_srt[ga:gb].tolist())
                dirty.add(sig)
                continue
            w = by_sig.get(sig)
            if w is None:
                w = by_sig[sig] = _SignatureWindow()
            tg = t_srt[ga:gb]
            gcount = gb - ga
            if ((not in_order and not bool(np.all(tg[1:] >= tg[:-1])))
                    or tg[0] < w.newest
                    or len(w.counts) + w.tail_len + gcount >= k):
                fired.extend(self._replay_group(sig, w, order[ga:gb], batch))
                continue
            t_last = float(tg[gcount - 1])
            if t_last > w.newest:
                w.newest = t_last
            cutoff = w.newest - window_s
            heap = w.heap
            if heap and heap[0][0] < cutoff:
                counts = w.counts
                while heap and heap[0][0] < cutoff:
                    _, gone = heappop(heap)
                    cnt = counts[gone] - 1
                    if cnt:
                        counts[gone] = cnt
                    else:
                        del counts[gone]
            tail = w.tail
            while tail and tail[0][3] < cutoff:
                w.tail_len -= tail[0][4]
                del tail[0]
            tail.append((tg, v_srt[ga:gb], float(tg[0]), t_last, gcount))
            w.tail_len += gcount
            dirty.add(sig)
        return fired

    def _columnar_dedup_chunked(
        self, batch: "ColumnarBatch", suspects: List[int],
    ) -> Tuple[Optional[np.ndarray], int]:
        """Dedup a clean full span against the chunked ledger without
        folding: only *suspect* keys (bloom-screen hits, base-dict hits,
        within-batch repeats -- the caller collects them, in stream
        order) get exact lookups, walked sequentially so later
        occurrences see earlier ones' ledger effect; everything else is
        adopted in bulk as a chunk, exactly like the clean path.
        """
        keys = batch.keys
        t_list = batch.t_list
        base = self._last_by_key
        chunks = self._lbk_chunks
        dw = self.dedup_window_s
        span_chunk = batch.key_time
        copied = False
        resolved: Dict[Tuple[str, str], float] = {}
        drop: List[int] = []
        for i in suspects:
            key = keys[i]
            t = t_list[i]
            last = resolved.get(key)
            if last is None:
                for chunk in reversed(chunks):
                    last = chunk.get(key)
                    if last is not None:
                        break
                if last is None and base:
                    last = base.get(key)
            if last is not None and abs(t - last) <= dw:
                drop.append(i)
                resolved[key] = t if t > last else last
            else:
                resolved[key] = t
        # The drain-built dict holds each key's last-occurrence time
        # unconditionally; overwrite where the exact walk disagrees
        # (identity check: admitted non-dup keys resolve to the very
        # float object already stored, so they skip the copy).
        for key, v in resolved.items():
            if span_chunk[key] is not v:
                if not copied:
                    span_chunk = dict(span_chunk)
                    copied = True
                span_chunk[key] = v
        chunks.append(span_chunk)
        np.bitwise_or.at(self._lbk_bloom, batch.key_bloom_byte,
                         batch.key_bloom_bit)
        if not drop:
            return None, 0
        admitted = np.ones(batch.n, dtype=bool)
        admitted[drop] = False
        return admitted, len(drop)

    def _columnar_dedup(
        self, batch: "ColumnarBatch", a: int, b: int,
        admitted: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, int]:
        """Vectorized dedup against a ledger with hits: per-key lookups
        in one C-level pass, threshold compare as a mask (batch keys are
        unique, so there is no within-batch ledger interaction)."""
        keys = batch.keys if (a, b) == (0, batch.n) else batch.keys[a:b]
        t_list = batch.t_list if (a, b) == (0, batch.n) \
            else batch.t_list[a:b]
        lbk = self._last_by_key
        lasts = list(map(lbk.get, keys))
        la = np.array([x if x is not None else np.nan for x in lasts],
                      dtype=np.float64)
        if admitted is None:
            admitted = np.ones(b - a, dtype=bool)
        hit = admitted & ~np.isnan(la)
        dmask = hit & (np.abs(batch.t[a:b] - la) <= self.dedup_window_s)
        n_dedup = int(dmask.sum())
        if n_dedup:
            for i in np.flatnonzero(dmask).tolist():
                if t_list[i] > lasts[i]:
                    lbk[keys[i]] = t_list[i]
            admitted = admitted & ~dmask
            lbk.update((keys[i], t_list[i])
                       for i in np.flatnonzero(admitted).tolist())
        else:
            lbk.update((keys[i], t_list[i])
                       for i in np.flatnonzero(admitted).tolist())
        return admitted, n_dedup

    def _replay_group(
        self, sig: str, w: _SignatureWindow, idx: np.ndarray,
        batch: "ColumnarBatch",
    ) -> List[Tuple[int, CampaignDetection]]:
        """Exact scalar replay of one signature's admitted slice -- the
        window could fire (or received out-of-order times), so every
        insert needs the per-event prune/threshold check."""
        self.columnar_group_replays += 1
        if w.tail_len:
            self._fold_window(w)
        out: List[Tuple[int, CampaignDetection]] = []
        events = batch.events
        flagged = self._flagged
        insert = self._window_insert
        for i in idx.tolist():
            e = events[i]
            if sig in flagged:
                self._campaign_vehicles[sig].add(e.vehicle_id)
                self._dirty.add(sig)
                continue
            d = insert(sig, e.time, e.vehicle_id)
            if d is not None:
                out.append((i, d))
        return out

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-store recovery contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Canonical JSON-safe dump of *all* correlator state.

        Canonical means deterministically ordered (sets and dicts are
        serialized sorted, heaps in sorted order -- equal-element heap
        layout is unobservable, so a sorted list restores identical
        behavior), which makes two semantically equal engines produce
        byte-identical snapshots: the property the crash-recovery
        differential tests compare on.  ``detections`` keeps its append
        order -- :class:`GlobalCampaignMerger` cursors index into it.
        """
        if self._seen_chunks or self._lbk_chunks:
            self._fold_ledgers()
        for w in self._by_signature.values():
            if w.tail_len:
                self._fold_window(w)
        return {
            "config": {
                "window_s": self.window_s,
                "k": self.k,
                "dedup_window_s": self.dedup_window_s,
                "max_lateness_s": self.max_lateness_s,
                "min_severity": int(self.min_severity),
            },
            "watermark": _enc_time(self.watermark),
            "last_sweep_wm": _enc_time(self._last_sweep_wm),
            "seen_ids": sorted([eid, t] for eid, t in self._seen_ids.items()),
            "last_by_key": sorted(
                [v, s, t] for (v, s), t in self._last_by_key.items()),
            "windows": sorted(
                [sig, {"heap": sorted([t, v] for t, v in w.heap),
                       "counts": sorted([v, c] for v, c in w.counts.items()),
                       "newest": _enc_time(w.newest)}]
                for sig, w in self._by_signature.items()),
            "flagged": [self._flagged[s].as_dict()
                        for s in sorted(self._flagged)],
            "campaign_vehicles": sorted(
                [sig, sorted(vehicles)]
                for sig, vehicles in self._campaign_vehicles.items()),
            "dirty": sorted(self._dirty),
            "detections": [d.as_dict() for d in self.detections],
            "counters": {
                "observed": self.observed,
                "duplicate_ids": self.duplicate_ids,
                "late_dropped": self.late_dropped,
                "low_severity_ignored": self.low_severity_ignored,
                "deduped": self.deduped,
                "ids_evicted": self.ids_evicted,
                "keys_evicted": self.keys_evicted,
                "windows_evicted": self.windows_evicted,
            },
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "CorrelationEngine":
        """Rebuild an engine whose future behavior is indistinguishable
        from the snapshotted one (pinned by the recovery differentials)."""
        cfg = state["config"]
        engine = cls(
            window_s=cfg["window_s"], k=cfg["k"],
            dedup_window_s=cfg["dedup_window_s"],
            max_lateness_s=cfg["max_lateness_s"],
            min_severity=Asil(cfg["min_severity"]),
        )
        engine.watermark = _dec_time(state["watermark"])
        engine._last_sweep_wm = _dec_time(state["last_sweep_wm"])
        engine._seen_ids = {eid: t for eid, t in state["seen_ids"]}
        engine._last_by_key = {(v, s): t for v, s, t in state["last_by_key"]}
        for sig, wobj in state["windows"]:
            w = _SignatureWindow()
            # A sorted list satisfies the heap invariant as-is.
            w.heap = [(t, v) for t, v in wobj["heap"]]
            w.counts = {v: c for v, c in wobj["counts"]}
            w.newest = _dec_time(wobj["newest"])
            engine._by_signature[sig] = w
        for dobj in state["flagged"]:
            detection = CampaignDetection.from_dict(dobj)
            engine._flagged[detection.signature] = detection
        engine._campaign_vehicles = {
            sig: set(vehicles)
            for sig, vehicles in state["campaign_vehicles"]}
        engine._dirty = set(state["dirty"])
        engine.detections = [CampaignDetection.from_dict(d)
                             for d in state["detections"]]
        counters = state["counters"]
        engine.observed = counters["observed"]
        engine.duplicate_ids = counters["duplicate_ids"]
        engine.late_dropped = counters["late_dropped"]
        engine.low_severity_ignored = counters["low_severity_ignored"]
        engine.deduped = counters["deduped"]
        engine.ids_evicted = counters["ids_evicted"]
        engine.keys_evicted = counters["keys_evicted"]
        engine.windows_evicted = counters["windows_evicted"]
        return engine

    # ------------------------------------------------------------------
    # Shard-local merge support
    # ------------------------------------------------------------------
    def is_flagged(self, signature: str) -> bool:
        return signature in self._flagged

    def pop_dirty(self) -> Set[str]:
        """Signatures whose window/campaign state changed since the last
        call -- the merger's incremental work list."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def pending_entries(self, signature: str) -> List[Tuple[float, str]]:
        """Live (time, vehicle) entries of an un-flagged window (pruned
        against this engine's own newest; a merger re-prunes globally)."""
        w = self._by_signature.get(signature)
        if w is None:
            return []
        if w.tail_len:
            self._fold_window(w)
        return list(w.heap)

    def adopt_campaign(self, detection: CampaignDetection) -> None:
        """Accept a fleet-wide verdict from a merger: flag the signature
        locally so subsequent events attribute spread exactly, and fold
        any pending window into the campaign's vehicle set."""
        sig = detection.signature
        if sig in self._flagged:
            return
        self._flagged[sig] = detection
        vehicles = self._campaign_vehicles.setdefault(sig, set())
        w = self._by_signature.pop(sig, None)
        if w is not None:
            if w.tail_len:
                self._fold_window(w)
            vehicles.update(w.counts)
        self._dirty.add(sig)

    # ------------------------------------------------------------------
    @property
    def flagged_signatures(self) -> Tuple[str, ...]:
        return tuple(self._flagged)

    def campaign_vehicles(self, signature: str) -> Set[str]:
        """All vehicles attributed to a flagged campaign so far."""
        return set(self._campaign_vehicles.get(signature, set()))

    def pending_vehicles(self, signature: str) -> Set[str]:
        """Distinct vehicles currently in the (un-flagged) window."""
        w = self._by_signature.get(signature)
        if w is None:
            return set()
        if w.tail_len:
            self._fold_window(w)
        return set(w.counts)

    def metrics(self) -> Dict[str, float]:
        return {
            "observed": float(self.observed),
            "duplicate_ids": float(self.duplicate_ids),
            "late_dropped": float(self.late_dropped),
            "low_severity_ignored": float(self.low_severity_ignored),
            "deduped": float(self.deduped),
            "campaigns_flagged": float(len(self._flagged)),
        }


class ReferenceCorrelationEngine:
    """The original per-event correlator, kept verbatim as the
    executable specification.

    Every observe rebuilds the distinct-vehicle set and rescans the
    window maximum -- O(w) per event -- and its dedup/duplicate ledgers
    grow without bound.  It exists so that (a) the Hypothesis
    differential tests can prove :class:`CorrelationEngine` equivalent
    inside the retention horizon, and (b) the E17 bench can report the
    incremental engine's speedup against the *same-run* reference
    baseline (``BENCH_E17.json``).
    """

    def __init__(
        self,
        window_s: float = 8.0,
        k: int = 3,
        dedup_window_s: float = 4.0,
        max_lateness_s: float = 2.0,
        min_severity: Asil = Asil.B,
    ) -> None:
        if k < 2:
            raise ValueError("a campaign needs k >= 2 vehicles")
        if window_s <= 0 or dedup_window_s < 0 or max_lateness_s < 0:
            raise ValueError("windows must be positive")
        self.window_s = window_s
        self.k = k
        self.dedup_window_s = dedup_window_s
        self.max_lateness_s = max_lateness_s
        self.min_severity = min_severity

        self._seen_ids: Set[str] = set()
        self._last_by_key: Dict[Tuple[str, str], float] = {}
        self._by_signature: Dict[str, Deque[Tuple[float, str]]] = {}
        self._flagged: Dict[str, CampaignDetection] = {}
        self._campaign_vehicles: Dict[str, Set[str]] = {}

        self.watermark = float("-inf")
        self.observed = 0
        self.duplicate_ids = 0
        self.late_dropped = 0
        self.low_severity_ignored = 0
        self.deduped = 0
        self.detections: List[CampaignDetection] = []

    # ------------------------------------------------------------------
    def observe(self, event: SecurityEvent) -> Optional[CampaignDetection]:
        self.observed += 1

        if event.event_id in self._seen_ids:
            self.duplicate_ids += 1
            return None
        self._seen_ids.add(event.event_id)

        if event.time < self.watermark - self.max_lateness_s:
            self.late_dropped += 1
            return None
        if event.time > self.watermark:
            self.watermark = event.time

        if event.severity < self.min_severity:
            self.low_severity_ignored += 1
            return None

        key = (event.vehicle_id, event.signature)
        last = self._last_by_key.get(key)
        if last is not None and abs(event.time - last) <= self.dedup_window_s:
            self.deduped += 1
            self._last_by_key[key] = max(last, event.time)
            return None
        self._last_by_key[key] = event.time

        if event.signature in self._flagged:
            self._campaign_vehicles[event.signature].add(event.vehicle_id)
            return None

        entries = self._by_signature.setdefault(event.signature, deque())
        entries.append((event.time, event.vehicle_id))
        entries = self._prune(event.signature)

        vehicles = {v for _, v in entries}
        if len(vehicles) < self.k:
            return None

        detection = CampaignDetection(
            signature=event.signature,
            detect_time=event.time,
            first_time=min(t for t, _ in entries),
            vehicles=tuple(sorted(vehicles)),
            window_s=self.window_s,
            k=self.k,
        )
        self._flagged[event.signature] = detection
        self._campaign_vehicles[event.signature] = set(vehicles)
        self._by_signature.pop(event.signature, None)
        self.detections.append(detection)
        return detection

    def _prune(self, signature: str) -> Deque[Tuple[float, str]]:
        entries = self._by_signature[signature]
        if not entries:
            return entries
        newest = max(t for t, _ in entries)
        cutoff = newest - self.window_s
        if any(t < cutoff for t, _ in entries):
            entries = deque((t, v) for t, v in entries if t >= cutoff)
            self._by_signature[signature] = entries
        return entries

    # ------------------------------------------------------------------
    @property
    def flagged_signatures(self) -> Tuple[str, ...]:
        return tuple(self._flagged)

    def campaign_vehicles(self, signature: str) -> Set[str]:
        return set(self._campaign_vehicles.get(signature, set()))

    def pending_vehicles(self, signature: str) -> Set[str]:
        return {v for _, v in self._by_signature.get(signature, ())}

    def metrics(self) -> Dict[str, float]:
        return {
            "observed": float(self.observed),
            "duplicate_ids": float(self.duplicate_ids),
            "late_dropped": float(self.late_dropped),
            "low_severity_ignored": float(self.low_severity_ignored),
            "deduped": float(self.deduped),
            "campaigns_flagged": float(len(self._flagged)),
        }


class GlobalCampaignMerger:
    """Stitches shard-local :class:`CorrelationEngine` state into
    fleet-wide campaigns.

    With signature-keyed sharding a campaign lives wholly on one shard,
    so a local detection *is* the fleet verdict and the merger merely
    forwards it.  With region-keyed sharding one signature's vehicles
    spread across shards and no single engine may ever reach ``k``; the
    merger therefore also combines the engines' *pending* window entries
    -- re-pruned against the global newest, same closed-window semantics
    -- and fires when the cross-shard distinct-vehicle union reaches
    ``k``.

    The merge is incremental: engines mark signatures dirty as their
    state changes (:meth:`CorrelationEngine.pop_dirty`) and expose new
    local detections through a per-engine cursor, so one merge pass
    costs O(changed signatures), not O(all signatures ever seen).

    :meth:`merge` returns ``(new_detections, new_vehicles)`` where
    ``new_vehicles`` maps already-flagged signatures to vehicles newly
    attributed since the previous merge -- the spread-accounting delta an
    incident tracker consumes without rescanning whole campaigns.
    """

    def __init__(self, window_s: float = 8.0, k: int = 3) -> None:
        if k < 2:
            raise ValueError("a campaign needs k >= 2 vehicles")
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self.k = k
        self._flagged: Dict[str, CampaignDetection] = {}
        self._campaign_vehicles: Dict[str, Set[str]] = {}
        self._cursors: List[int] = []
        self.detections: List[CampaignDetection] = []
        self.merges = 0
        self.adopted = 0
        self.adoptions_deduped = 0

    # ------------------------------------------------------------------
    def merge(
        self, engines: Sequence[CorrelationEngine]
    ) -> Tuple[List[CampaignDetection], Dict[str, Set[str]]]:
        """One incremental stitch over the shard-local engines."""
        self.merges += 1
        while len(self._cursors) < len(engines):
            self._cursors.append(0)

        new_detections: List[CampaignDetection] = []
        new_vehicles: Dict[str, Set[str]] = {}
        dirty: Set[str] = set()
        local_detections: List[CampaignDetection] = []
        for index, engine in enumerate(engines):
            fresh = engine.detections[self._cursors[index]:]
            if fresh:
                local_detections.extend(fresh)
                self._cursors[index] = len(engine.detections)
            dirty |= engine.pop_dirty()

        # 1. Local detections: already-proven campaigns.  Extend the
        #    verdict with other shards' in-window pending vehicles (only
        #    relevant under region sharding; empty under signature
        #    sharding, where the merged detection equals the local one).
        for local in local_detections:
            sig = local.signature
            dirty.discard(sig)
            if sig in self._flagged:
                self._attribute(sig, set(local.vehicles), new_vehicles)
                continue
            entries = self._pending(engines, sig)
            cutoff = local.detect_time - self.window_s
            in_window = [(t, v) for t, v in entries if t >= cutoff]
            vehicles = set(local.vehicles) | {v for _, v in in_window}
            merged = CampaignDetection(
                signature=sig,
                detect_time=local.detect_time,
                first_time=min([local.first_time] + [t for t, _ in in_window]),
                vehicles=tuple(sorted(vehicles)),
                window_s=self.window_s,
                k=self.k,
            )
            self._fire(merged, vehicles | {v for _, v in entries})
            new_detections.append(merged)

        # 2. Dirty signatures without a local verdict: the cross-shard
        #    sub-threshold stitch region sharding needs.
        for sig in sorted(dirty):
            if sig in self._flagged:
                combined: Set[str] = set()
                for engine in engines:
                    combined |= engine.campaign_vehicles(sig)
                    combined |= engine.pending_vehicles(sig)
                self._attribute(sig, combined, new_vehicles)
                continue
            entries = self._pending(engines, sig)
            if not entries:
                continue
            newest = max(t for t, _ in entries)
            cutoff = newest - self.window_s
            in_window = [(t, v) for t, v in entries if t >= cutoff]
            vehicles = {v for _, v in in_window}
            if len(vehicles) < self.k:
                continue
            detection = CampaignDetection(
                signature=sig,
                detect_time=newest,
                first_time=min(t for t, _ in in_window),
                vehicles=tuple(sorted(vehicles)),
                window_s=self.window_s,
                k=self.k,
            )
            self._fire(detection, {v for _, v in entries})
            new_detections.append(detection)
        return new_detections, new_vehicles

    # ------------------------------------------------------------------
    @staticmethod
    def _pending(
        engines: Sequence[CorrelationEngine], signature: str
    ) -> List[Tuple[float, str]]:
        entries: List[Tuple[float, str]] = []
        for engine in engines:
            entries.extend(engine.pending_entries(signature))
        return entries

    def _fire(self, detection: CampaignDetection, vehicles: Set[str]) -> None:
        self._flagged[detection.signature] = detection
        self._campaign_vehicles[detection.signature] = set(vehicles)
        self.detections.append(detection)

    def _attribute(
        self, signature: str, vehicles: Set[str],
        new_vehicles: Dict[str, Set[str]],
    ) -> None:
        known = self._campaign_vehicles[signature]
        delta = vehicles - known
        if delta:
            known |= delta
            new_vehicles.setdefault(signature, set()).update(delta)

    def adopt_campaign(
        self, detection: CampaignDetection
    ) -> Optional[CampaignDetection]:
        """Accept an externally-proven verdict (a federated peer region
        announcing a campaign it already fired).

        Idempotent across regions: the *first* adoption of a signature
        flags it and appends to ``detections`` (returning the adopted
        verdict); a re-adoption of the same campaign id arriving from a
        second region only unions its vehicle attribution into the known
        spread and counts ``adoptions_deduped`` -- it never re-fires,
        re-appends, or double-pages an incident tracker.
        """
        sig = detection.signature
        if sig in self._flagged:
            self.adoptions_deduped += 1
            self._campaign_vehicles[sig].update(detection.vehicles)
            return None
        self.adopted += 1
        self._fire(detection, set(detection.vehicles))
        return detection

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Canonical JSON-safe dump; ``cursors`` index into the engines'
        ``detections`` lists, so a merger snapshot is only consistent
        with engine snapshots taken at the same pump boundary (the
        center snapshots all of them together)."""
        return {
            "config": {"window_s": self.window_s, "k": self.k},
            "flagged": [self._flagged[s].as_dict()
                        for s in sorted(self._flagged)],
            "campaign_vehicles": sorted(
                [sig, sorted(vehicles)]
                for sig, vehicles in self._campaign_vehicles.items()),
            "cursors": list(self._cursors),
            "detections": [d.as_dict() for d in self.detections],
            "merges": self.merges,
            "adopted": self.adopted,
            "adoptions_deduped": self.adoptions_deduped,
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "GlobalCampaignMerger":
        cfg = state["config"]
        merger = cls(window_s=cfg["window_s"], k=cfg["k"])
        for dobj in state["flagged"]:
            detection = CampaignDetection.from_dict(dobj)
            merger._flagged[detection.signature] = detection
        merger._campaign_vehicles = {
            sig: set(vehicles)
            for sig, vehicles in state["campaign_vehicles"]}
        merger._cursors = list(state["cursors"])
        merger.detections = [CampaignDetection.from_dict(d)
                             for d in state["detections"]]
        merger.merges = state["merges"]
        # Pre-federation snapshots lack the adoption counters.
        merger.adopted = state.get("adopted", 0)
        merger.adoptions_deduped = state.get("adoptions_deduped", 0)
        return merger

    # ------------------------------------------------------------------
    def is_flagged(self, signature: str) -> bool:
        return signature in self._flagged

    @property
    def flagged_signatures(self) -> Tuple[str, ...]:
        return tuple(self._flagged)

    def campaign_vehicles(self, signature: str) -> Set[str]:
        """Fleet-wide vehicles attributed to a flagged campaign."""
        return set(self._campaign_vehicles.get(signature, set()))

    def spread(self, signature: str) -> int:
        return len(self._campaign_vehicles.get(signature, ()))

    def metrics(self) -> Dict[str, float]:
        return {
            "campaigns_flagged": float(len(self._flagged)),
            "campaign_merges": float(self.merges),
            "campaigns_adopted": float(self.adopted),
            "adoptions_deduped": float(self.adoptions_deduped),
        }
