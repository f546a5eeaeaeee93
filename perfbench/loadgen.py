"""Load generator: one asyncio loop, one TCP connection per gateway.

Two kinds of phase, alternated over the run in rounds (host speed on a
shared 2-vCPU machine drifts by a third over tens of seconds, so each
figure samples the whole run instead of one stretch of it):

- **saturation** (closed loop): every gateway keeps its whole credit
  window in flight and sends its next batch as soon as a credit returns,
  until its fixed share of batches is sent; throughput is acked events
  over first send to last ACK.
- **open loop**: each batch has a due time on a fixed schedule that does
  not slow when the server slows.  A batch's latency runs from its due
  time to its ACK, so waiting for a credit counts.  How far the
  generator itself ran behind schedule is reported apart from credit
  waits; a run where it fell behind is invalid.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.soc.service import (FrameStreamDecoder, auth_tag, decode_message,
                               encode_auth, encode_bye, encode_hello)
from repro.soc.store import frame_payload

from perfbench.workloads import Batch

ACK_TIMEOUT_S = 60.0


class Gateway:
    """One gateway connection speaking the service's wire protocol."""

    def __init__(self, client_id: str, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, credits: int,
                 leftover: Sequence[bytes], decoder: FrameStreamDecoder
                 ) -> None:
        self.client_id = client_id
        self.reader = reader
        self.writer = writer
        self.credits = credits
        self.decoder = decoder
        self._credit = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        #: batch id -> (due time, events) for every batch awaiting ACK.
        self.pending: Dict[int, Tuple[float, int]] = {}
        self.latencies: List[float] = []
        self.acked_batches = 0
        self.acked_events = 0
        self.admission_refused = 0
        self.refused_batches = 0
        self.suppress_frames = 0
        self.last_ack = 0.0
        self.closed = False
        for payload in leftover:
            self._on_payload(payload)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    @classmethod
    async def connect(cls, port: int, client_id: str,
                      session_key: Optional[bytes]) -> "Gateway":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(frame_payload(encode_hello(client_id)))
        decoder = FrameStreamDecoder()
        pending: List[bytes] = []
        while True:
            while pending:
                msg = decode_message(pending.pop(0))
                if msg[0] == "c":
                    tag = auth_tag(session_key, client_id,
                                   bytes.fromhex(msg[1]))
                    writer.write(frame_payload(encode_auth(tag)))
                elif msg[0] == "w":
                    return cls(client_id, reader, writer, msg[3], pending,
                               decoder)
                else:
                    raise ConnectionError(f"handshake got {msg[0]!r}")
            data = await reader.read(1 << 16)
            if not data:
                raise ConnectionError("server closed during handshake")
            pending = decoder.feed(data)

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(1 << 16)
                if not data:
                    break
                for payload in self.decoder.feed(data):
                    self._on_payload(payload)
        finally:
            self.closed = True
            self._credit.set()
            self._idle.set()

    def _on_payload(self, payload: bytes) -> None:
        msg = decode_message(payload)
        tag = msg[0]
        if tag == "a":
            _, batch_id, accepted, credits = msg
            due, n_events = self.pending.pop(batch_id)
            now = time.monotonic()
            self.latencies.append(now - due)
            self.last_ack = now
            self.acked_batches += 1
            self.acked_events += accepted
            self.admission_refused += n_events - accepted
            self._return_credits(credits)
        elif tag == "n":
            _, batch_id, credits = msg
            self.pending.pop(batch_id)
            self.refused_batches += 1
            self._return_credits(credits)
        elif tag == "s":
            self.suppress_frames += 1
        if not self.pending:
            self._idle.set()

    def _return_credits(self, credits: int) -> None:
        self.credits += credits
        if self.credits > 0:
            self._credit.set()

    async def acquire_credit(self) -> None:
        while self.credits <= 0:
            if self.closed:
                raise ConnectionError(f"{self.client_id} closed")
            self._credit.clear()
            await self._credit.wait()
        self.credits -= 1

    def send(self, batch: Batch, due: float) -> None:
        self.pending[batch.batch_id] = (due, batch.n_events)
        self._idle.clear()
        self.writer.write(batch.frame)

    async def drain(self) -> None:
        await asyncio.wait_for(self._idle.wait(), ACK_TIMEOUT_S)

    async def close(self) -> None:
        if not self.writer.is_closing():
            self.writer.write(frame_payload(encode_bye()))
            await self.writer.drain()
        await asyncio.wait_for(self._reader_task, ACK_TIMEOUT_S)
        self.writer.close()
        await self.writer.wait_closed()


@dataclass
class PhaseResult:
    """What one phase kind measured, over one or more time windows."""

    windows: List[Tuple[float, float]] = field(default_factory=list)
    batches_sent: int = 0
    events_sent: int = 0
    acked_batches: int = 0
    acked_events: int = 0
    latencies: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    credit_waits: List[float] = field(default_factory=list)

    def absorb(self, other: "PhaseResult") -> None:
        self.windows.extend(other.windows)
        self.batches_sent += other.batches_sent
        self.events_sent += other.events_sent
        self.acked_batches += other.acked_batches
        self.acked_events += other.acked_events
        self.latencies.extend(other.latencies)
        self.late.extend(other.late)
        self.credit_waits.extend(other.credit_waits)

    @property
    def seconds(self) -> float:
        return sum(b - a for a, b in self.windows)

    @property
    def acked_eps(self) -> float:
        return self.acked_events / self.seconds


def _snapshot(gateways: Sequence[Gateway]) -> Tuple[int, int]:
    return (sum(g.acked_batches for g in gateways),
            sum(g.acked_events for g in gateways))


async def saturation(gateways: Sequence[Gateway],
                     batches: Sequence[Sequence[Batch]]) -> PhaseResult:
    """Closed loop: each gateway sends its batches as credits return.

    The volume is fixed (sized from ``--seconds`` and the expected rate)
    rather than the duration, so every run leaves the worker with the
    same allocation history and state, however fast it ran."""
    acked0, events0 = _snapshot(gateways)
    t_start = time.monotonic()
    result = PhaseResult()

    async def pump(gateway: Gateway, own: Sequence[Batch]) -> None:
        for batch in own:
            await gateway.acquire_credit()
            gateway.send(batch, time.monotonic())
            result.batches_sent += 1
            result.events_sent += batch.n_events

    await asyncio.gather(*(pump(g, b) for g, b in zip(gateways, batches)))
    await asyncio.gather(*(g.drain() for g in gateways))
    acked1, events1 = _snapshot(gateways)
    result.windows.append((t_start, max(g.last_ack for g in gateways)))
    result.acked_batches = acked1 - acked0
    result.acked_events = events1 - events0
    return result


async def open_loop(gateways: Sequence[Gateway],
                    schedule: Sequence[Batch]) -> PhaseResult:
    """Send every batch at its due time (``batch.due_s`` after start)."""
    acked0, events0 = _snapshot(gateways)
    marks = [len(g.latencies) for g in gateways]
    t_start = time.monotonic() + 0.05
    result = PhaseResult()

    async def pump(gateway: Gateway, own: Sequence[Batch]) -> None:
        behind_on_credit = False
        for batch in own:
            due = t_start + batch.due_s
            now = time.monotonic()
            if now < due:
                await asyncio.sleep(due - now)
                now = time.monotonic()
                behind_on_credit = False
            # Lateness the generator caused itself; a backlog left by an
            # earlier credit wait is the server's, and shows as latency.
            result.late.append(0.0 if behind_on_credit else now - due)
            await gateway.acquire_credit()
            sent = time.monotonic()
            wait = sent - now
            result.credit_waits.append(wait)
            if wait > 0.0005:
                behind_on_credit = True
            gateway.send(batch, due)
            result.batches_sent += 1
            result.events_sent += batch.n_events

    await asyncio.gather(*(
        pump(g, [b for b in schedule if b.conn == c])
        for c, g in enumerate(gateways)))
    await asyncio.gather(*(g.drain() for g in gateways))
    acked1, events1 = _snapshot(gateways)
    result.windows.append((t_start, max(g.last_ack for g in gateways)))
    result.acked_batches = acked1 - acked0
    result.acked_events = events1 - events0
    for gateway, mark in zip(gateways, marks):
        result.latencies.extend(gateway.latencies[mark:])
    return result
