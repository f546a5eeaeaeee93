"""The ingest service under test, in its own process.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.server`` with a
JSON line of options on stdin, answered with a ``ready`` line once
everything is imported, then driven by one JSON command per stdin line;
every reply is one JSON line on stdout:

- ``setup``: build an :class:`~repro.soc.service.IngestService` (process
  backend, one worker, :func:`perfbench.spec.service_config`), wait for the
  worker's snapshot 0, start the TCP listener; reply with the port and
  the monotonic time construction began.
- ``teardown``: stop the current service and delete its store.
- ``finish``: read peak RSS of this process and the worker, stop the
  service, audit frontend/worker conservation, and restore the worker's
  durable store with ``recover_soc_state`` to report what it flagged.

With ``trace`` set, the probes of :mod:`perfbench.probes` are installed
before any worker is forked.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServiceHost:
    def __init__(self, opts: Dict[str, object]) -> None:
        # Imported here, not in the first set-up, so that every set-up
        # costs the same CPU time.
        import repro.soc.service  # noqa: F401

        from perfbench.spec import service_config

        self.root = Path(opts["root"])
        fleet_key = opts.get("fleet_key")
        self.config = service_config(
            bytes.fromhex(fleet_key) if fleet_key else None)
        self.worker_cpu = opts.get("worker_cpu")
        self.generation = 0
        self.service = None
        self.server = None

    def store_root(self) -> Path:
        return self.root / f"service-{self.generation}"

    async def setup(self) -> Dict[str, object]:
        from repro.soc.service import IngestService, serve, worker_root

        self.generation += 1
        t0 = time.monotonic()
        self.service = IngestService(1, mode="process",
                                     root=self.store_root(),
                                     config=self.config)
        if self.worker_cpu is not None:
            os.sched_setaffinity(self.service.backend.procs[0].pid,
                                 {self.worker_cpu})
        snap0 = worker_root(self.store_root(), 0) / "snapshots"
        deadline = t0 + 60.0
        while not (snap0.is_dir() and any(snap0.glob("snap-*.json"))):
            if time.monotonic() > deadline:
                raise RuntimeError("worker never wrote snapshot 0")
            await asyncio.sleep(0.0005)
        self.server = await serve(self.service)
        return {"port": self.server.port, "t0": t0,
                "worker_pid": self.service.backend.procs[0].pid}

    async def teardown(self) -> Dict[str, object]:
        await self.server.stop()
        shutil.rmtree(self.store_root(), ignore_errors=True)
        return {"ok": True}

    async def finish(self) -> Dict[str, object]:
        from repro.soc.service import recover_worker, worker_root

        service = self.service
        worker_pid = service.backend.procs[0].pid
        rss_mb = peak_rss_mb(os.getpid()) + peak_rss_mb(worker_pid)
        t0 = time.monotonic()
        worker_metrics = await self.server.stop()
        t1 = time.monotonic()
        service.audit_conservation()
        recovered = recover_worker(self.store_root(), 0)
        t2 = time.monotonic()
        log_dir = worker_root(self.store_root(), 0) / "log"
        log_bytes = sum(p.stat().st_size for p in log_dir.glob("*.log"))
        return {
            "rss_mb": rss_mb,
            "worker_pid": worker_pid,
            "frontend": service.metrics(),
            "worker": worker_metrics[0],
            "flagged": sorted(recovered.flagged_signatures()),
            "log_dir": str(log_dir),
            "log_bytes": log_bytes,
            "stop_s": t1 - t0,
            "recover_s": t2 - t1,
        }


async def serve_commands() -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    opts = json.loads(await reader.readline())
    tracer = None
    if opts.get("trace"):
        from perfbench.probes import install_service_probes
        from perfbench.trace import Tracer

        tracer = Tracer()
        install_service_probes(tracer, Path(opts["spans_dir"]))
    host = ServiceHost(opts)
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    handlers = {"setup": host.setup, "teardown": host.teardown,
                "finish": host.finish}
    while True:
        line = await reader.readline()
        if not line:
            return
        cmd = json.loads(line)["cmd"]
        reply = await handlers[cmd]()
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if cmd == "finish":
            break
    if tracer is not None:
        tracer.dump(Path(opts["spans_dir"]) / "frontend.npz")


if __name__ == "__main__":
    asyncio.run(serve_commands())
