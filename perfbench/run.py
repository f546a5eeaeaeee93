"""The VSOC benchmark: one command, one seeded workload per run.

    python3 perfbench/run.py --workload fleet_steady --seed 1 \\
        --seconds 12 --trace 0

Ingest workloads (``fleet_steady``, ``campaign_storm``, ``auth_steady``)
run the real service -- an asyncio frontend and one shard worker
process -- in a child process, and drive it from this process over two
gateway connections in rounds of a closed-loop saturation burst and an
open-loop stretch at the workload's fixed rate.  ``federation_replay``
builds three regional logs before the clock and measures the hub that
replays them.  See ``perfbench/README.md`` for every metric.

``--trace 1`` runs the same workload with spans recorded around each
layer's public functions and prints the per-layer table instead.  The
last stdout line is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed correctness check exits 1.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def _require_source() -> None:
    if not (ROOT / "src" / "repro" / "soc" / "service.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro source under {ROOT / 'src'}; run from a "
            "full checkout of the repository\n")
        sys.exit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _fix_hash_seed() -> None:
    """Re-run this command under ``PYTHONHASHSEED=0`` unless it already
    is, so that every process of the run (this one, the service and its
    worker, the region builder) hashes strings the same way every time.
    With per-process random hashing, dict layouts of the service's state
    differ from run to run: three runs of one seed read 29.9 to 33.1 us
    of CPU per event with random hashing, five read 30.5 to 31.5 with
    the seed fixed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))


def _pin_cpus() -> Optional[int]:
    """Keep the shard worker on a CPU of its own: this process, the
    frontend (which inherits this affinity) and the hub share the first
    CPU, the worker gets the last.  Left to the scheduler, the worker
    sometimes shared a CPU with the frontend and saturation throughput
    moved by a third between runs.  Returns the worker's CPU, or
    ``None`` with fewer than two CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def cpu_s(pid: int) -> float:
    """CPU seconds every thread of process ``pid`` has used so far, from
    the kernel's per-process CPU clock.  Time the process spent waiting
    for a CPU (other processes, or the hypervisor's steal) is not
    counted, so on a shared host this moves far less than wall time."""
    return time.clock_gettime(((~pid) << 3) | 2)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Outcome:
    """Everything one run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.invalid: Optional[str] = None
        self.layers: Optional[Dict[str, float]] = None
        self.table: Optional[str] = None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# ----------------------------------------------------------------------
# The service process
# ----------------------------------------------------------------------

class ServerProcess:
    """``python3 -m perfbench.server`` under JSON-line control."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc
        self.worker_pids: List[int] = []

    @classmethod
    async def start(cls, root: Path, fleet_key: Optional[bytes],
                    spans_dir: Optional[Path],
                    worker_cpu: Optional[int]) -> "ServerProcess":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perfbench.server",
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            cwd=str(ROOT), env=_child_env())
        server = cls(proc)
        server._send({"root": str(root),
                      "fleet_key": fleet_key.hex() if fleet_key else None,
                      "trace": spans_dir is not None,
                      "spans_dir": str(spans_dir) if spans_dir else None,
                      "worker_cpu": worker_cpu})
        await proc.stdin.drain()
        if not await proc.stdout.readline():
            await proc.wait()
            raise RuntimeError("service process died while starting")
        return server

    def _send(self, obj: dict) -> None:
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())

    async def call(self, cmd: str) -> dict:
        self._send({"cmd": cmd})
        await self.proc.stdin.drain()
        line = await self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"service process died during {cmd!r}")
        return json.loads(line)

    async def wait(self) -> None:
        self.proc.stdin.close()
        code = await asyncio.wait_for(self.proc.wait(), 60.0)
        if code != 0:
            raise RuntimeError(f"service process exited with {code}")

    async def kill(self, worker_pids: Sequence[int]) -> None:
        """Error-path cleanup: kill the service process and any worker it
        forked (a worker whose parent was killed would be orphaned)."""
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        for pid in worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


async def _setup(server: ServerProcess, inputs) -> tuple:
    """One service set-up: construction to both gateways WELCOMEd."""
    from repro.soc.service import derive_session_key

    from perfbench.loadgen import Gateway

    keys = [derive_session_key(inputs.fleet_key, cid) if inputs.fleet_key
            else None for cid in inputs.client_ids]
    cpu0 = cpu_s(server.proc.pid)
    reply = await server.call("setup")
    worker = reply["worker_pid"]
    server.worker_pids.append(worker)
    gateways = await asyncio.gather(*(
        Gateway.connect(reply["port"], cid, key)
        for cid, key in zip(inputs.client_ids, keys)))
    wall = time.monotonic() - reply["t0"]
    # The worker was forked during this set-up, so all its CPU time is.
    cpu = cpu_s(server.proc.pid) - cpu0 + cpu_s(worker)
    return wall, cpu, list(gateways)


async def _serve_phases(inputs, *, setups: int, workdir: Path,
                        spans_dir: Optional[Path], open_phase: bool,
                        worker_cpu: Optional[int]) -> dict:
    from perfbench import loadgen

    server = await ServerProcess.start(workdir, inputs.fleet_key, spans_dir,
                                       worker_cpu)
    sat, opened = loadgen.PhaseResult(), loadgen.PhaseResult()
    sat_cpu = 0.0
    try:
        setup_walls, setup_cpus = [], []
        for i in range(setups):
            wall, cpu, gateways = await _setup(server, inputs)
            setup_walls.append(wall)
            setup_cpus.append(cpu)
            if i < setups - 1:
                await asyncio.gather(*(g.close() for g in gateways))
                await server.call("teardown")
        pids = (server.proc.pid, server.worker_pids[-1])
        for rnd in inputs.rounds:
            cpu0 = sum(cpu_s(pid) for pid in pids)
            sat.absorb(await loadgen.saturation(gateways, rnd.saturation))
            sat_cpu += sum(cpu_s(pid) for pid in pids) - cpu0
            if open_phase:
                opened.absorb(await loadgen.open_loop(gateways,
                                                      rnd.open_loop))
        await asyncio.gather(*(g.close() for g in gateways))
        t0 = time.monotonic()
        finish = await server.call("finish")
        await server.wait()
    except BaseException:
        await server.kill(server.worker_pids)
        raise
    return {"setup_walls": setup_walls, "setup_cpus": setup_cpus,
            "sat": sat, "sat_cpu": sat_cpu, "open": opened,
            "gateways": gateways, "finish": finish,
            "finish_s": time.monotonic() - t0}


def _check_ingest(out: Outcome, inputs, run: dict) -> None:
    sat, opened, finish = run["sat"], run["open"], run["finish"]
    gateways = run["gateways"]
    sent_batches = sat.batches_sent + opened.batches_sent
    sent_events = sat.events_sent + opened.events_sent
    acked_batches = sat.acked_batches + opened.acked_batches
    acked_events = sat.acked_events + opened.acked_events
    refused = sum(g.refused_batches for g in gateways)
    admission = sum(g.admission_refused for g in gateways)
    not_acked = sum(len(g.pending) for g in gateways)
    batch_events = max(1, sent_events // max(1, sent_batches))
    out.attempted = sent_batches
    # Each loss in its own unit, folded to batches.  Every event is
    # ASIL-B or higher, so nothing is ever shed at the source.
    out.failed = refused + not_acked + math.ceil(admission / batch_events)
    worker = finish["worker"]
    frontend = finish["frontend"]
    out.check(acked_events == sent_events,
              f"acked {acked_events} of {sent_events} events")
    out.check(acked_batches == sent_batches,
              f"acked {acked_batches} of {sent_batches} batches")
    out.check(worker["service_events_in"] == sent_events,
              f"worker took in {worker['service_events_in']:.0f} events, "
              f"generator sent {sent_events}")
    out.check(worker["dispatched"] == acked_events,
              f"worker dispatched {worker['dispatched']:.0f}, "
              f"acked {acked_events}")
    out.check(frontend["batches_acked"] == sent_batches,
              f"frontend acked {frontend['batches_acked']:.0f} batches")
    out.check(set(finish["flagged"]) == inputs.campaign_signatures,
              f"recovered worker flagged {sorted(finish['flagged'])}, "
              f"expected {sorted(inputs.campaign_signatures)}")
    out.info["suppress_frames"] = sum(g.suppress_frames for g in gateways)


def _validity(out: Outcome, late: Sequence[float]) -> None:
    from perfbench.spec import MAX_GENERATOR_LATE_MS
    from perfbench.stats import tail

    late_tail = tail(late)
    out.info["loadgen.late_ms"] = {"value": late_tail.value * 1e3,
                                   "quantile": late_tail.quantile,
                                   "samples": late_tail.samples}
    if late_tail.value * 1e3 > MAX_GENERATOR_LATE_MS:
        out.invalid = (f"generator ran {late_tail.value * 1e3:.1f} ms "
                       f"behind schedule at p{100 * late_tail.quantile:.1f}")


def _latency_metrics(out: Outcome, latencies: Sequence[float]) -> None:
    from perfbench.stats import median, tail

    p99 = tail(latencies)
    out.metrics["ack_p50_ms"] = median(latencies) * 1e3
    out.metrics["ack_p99_ms"] = p99.value * 1e3
    out.info["ack_p99"] = {"quantile": p99.quantile, "samples": p99.samples}


def _hub_leg(out: Outcome, log_dirs: Dict[str, Path], seed: int,
             expected: set, tracer=None) -> float:
    """Ship the regional logs to a fresh hub, replay, check; returns the
    events the hub applied."""
    from perfbench import hub

    leg = hub.Leg.build(log_dirs, seed)
    if tracer is not None:
        from perfbench.probes import install_hub_probes

        install_hub_probes(tracer)
    window = time.monotonic()
    cpu = time.thread_time()
    wall = hub.replay(leg)
    cpu = time.thread_time() - cpu
    window = (window, time.monotonic())
    events = hub.events_applied(leg.hub)
    out.problems.extend(f"hub: {p}" for p in leg.check())
    flagged = leg.hub.flagged_signatures()
    out.check(flagged == expected,
              f"hub flagged {sorted(flagged)}, expected {sorted(expected)}")
    out.info["hub_flagged"] = sorted(flagged)
    out.info["hub"] = {"events": events, "wall_s": wall, "cpu_s": cpu,
                       "window": window,
                       "rejected": sum(r.corrupt_rejected for r in
                                       leg.hub.receivers.values()),
                       "records": leg.hub.records_applied,
                       "stalled_rounds": leg.hub.stalled_rounds,
                       "duplicates": sum(r.duplicates for r in
                                         leg.hub.receivers.values()),
                       "received": sum(r.records_received for r in
                                       leg.hub.receivers.values())}
    out.failed += out.info["hub"]["rejected"] + leg.hub.unapplied()
    leg.close()
    return events


def run_ingest(name: str, seed: int, seconds: float, trace: bool,
               workdir: Path, worker_cpu: Optional[int]) -> Outcome:
    from perfbench.spec import (ROUNDS, SATURATION_SHARE, SETUP_REPEATS,
                                WORKLOADS)
    from perfbench.stats import median
    from perfbench.workloads import build_ingest

    spec = WORKLOADS[name]
    out = Outcome(name)
    walls = out.info["wall_s"] = {}
    t0 = time.perf_counter()
    inputs = build_ingest(spec, seed, seconds, SATURATION_SHARE, ROUNDS)
    walls["generate"] = time.perf_counter() - t0
    out.info["inputs"] = inputs.stats.as_dict()
    base_cpu_us = None
    spans_dir = None
    if trace:
        # Tracing overhead base: the same saturation bursts, untraced.
        base = asyncio.run(_serve_phases(
            inputs, setups=1, workdir=workdir / "untraced",
            spans_dir=None, open_phase=False, worker_cpu=worker_cpu))
        base_cpu_us = 1e6 * base["sat_cpu"] / base["sat"].acked_events
        spans_dir = workdir / "spans"
        spans_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    run = asyncio.run(_serve_phases(
        inputs, setups=1 if trace else SETUP_REPEATS,
        workdir=workdir / "service", spans_dir=spans_dir, open_phase=True,
        worker_cpu=worker_cpu))
    walls["service"] = time.perf_counter() - t0
    walls["finish"] = run["finish_s"]
    walls["stop"] = run["finish"]["stop_s"]
    walls["recover"] = run["finish"]["recover_s"]
    sat, opened, finish = run["sat"], run["open"], run["finish"]
    _check_ingest(out, inputs, run)
    _validity(out, opened.late)
    out.metrics["setup_s"] = median(run["setup_cpus"])
    out.metrics["setup_wall_s"] = median(run["setup_walls"])
    out.metrics["cpu_us_per_event"] = 1e6 * run["sat_cpu"] / sat.acked_events
    out.metrics["acked_eps"] = sat.acked_eps
    _latency_metrics(out, opened.latencies)
    out.metrics["rss_mb"] = finish["rss_mb"]
    out.info["setup_cpu_s"] = run["setup_cpus"]
    out.info["setup_wall_s"] = run["setup_walls"]
    out.info["saturation_s"] = sat.seconds
    out.info["credit_wait_ms_mean"] = (
        1e3 * sum(opened.credit_waits) / max(1, len(opened.credit_waits)))
    if trace:
        from perfbench.layers import ingest_layers

        out.layers, out.table = ingest_layers(spec, run, spans_dir,
                                              base_cpu_us, out)
    return out


def run_federation(name: str, seed: int, seconds: float, trace: bool,
                   workdir: Path) -> Outcome:
    from perfbench import hub
    from perfbench.server import peak_rss_mb
    from perfbench.spec import (REGION_BATCHES_PER_HANDOFF, REGIONS, ROUNDS,
                                SATURATION_SHARE, SETUP_REPEATS, WORKLOADS)
    from perfbench.stats import median

    spec = WORKLOADS[name]
    out = Outcome(name)
    events = int(spec.expected_sat_eps * seconds * SATURATION_SHARE / ROUNDS)
    built = subprocess.run(
        [sys.executable, "-m", "perfbench.hub"], cwd=str(ROOT),
        env=_child_env(), check=True, capture_output=True, timeout=150,
        input=json.dumps({"root": str(workdir / "regions"),
                          "workload": name, "seed": seed,
                          "events": events}).encode())
    regions = json.loads(built.stdout.decode().splitlines()[-1])
    out.info["inputs"] = regions["inputs"]
    log_dirs = {r: Path(p) for r, p in regions["log_dirs"].items()}
    expected = set(regions["campaign"])
    for region, flagged in regions["flagged"].items():
        out.check(not flagged, f"region {region} flagged {flagged} alone")

    setup_walls, setup_cpus = [], []
    for _ in range(SETUP_REPEATS):
        t0, c0 = time.perf_counter(), time.thread_time()
        leg = hub.Leg.build(log_dirs, seed)
        setup_cpus.append(time.thread_time() - c0)
        setup_walls.append(time.perf_counter() - t0)
        leg.close()
    out.metrics["setup_s"] = median(setup_cpus)
    out.metrics["setup_wall_s"] = median(setup_walls)
    out.info["setup_cpu_s"] = setup_cpus
    out.info["setup_wall_s"] = setup_walls

    # Rounds of (replay every log into a fresh hub; feed another fresh hub
    # shipments at the fixed rate), like the ingest workloads' rounds.
    per_handoff = REGION_BATCHES_PER_HANDOFF * spec.batch_events
    period = per_handoff * len(REGIONS) / spec.rate_eps
    open_s = seconds * (1.0 - SATURATION_SHARE) / ROUNDS
    leg = hub.Leg.build(log_dirs, seed)
    schedule = hub.shipments(leg, REGION_BATCHES_PER_HANDOFF + 1, period)
    leg.close()
    applied = wall = cpu = 0.0
    latencies: List[float] = []
    late: List[float] = []
    for _ in range(ROUNDS):
        applied += _hub_leg(out, log_dirs, seed, expected)
        wall += out.info["hub"]["wall_s"]
        cpu += out.info["hub"]["cpu_s"]
        out.attempted += out.info["hub"]["received"]
        fresh = hub.new_hub(list(log_dirs))
        lat, lt, sent = hub.open_loop(fresh, schedule, open_s)
        latencies += lat
        late += lt
        out.check(fresh.unapplied() == 0,
                  f"open loop left {fresh.unapplied()} records unapplied")
        out.attempted += sent
        out.failed += (fresh.unapplied() + sum(
            r.corrupt_rejected for r in fresh.receivers.values()))
    # The hub is this workload's acknowledging end: an event counts as
    # acked once the hub has applied it, so acked_eps is apply_eps here.
    out.metrics["acked_eps"] = applied / wall
    out.metrics["apply_eps"] = out.metrics["acked_eps"]
    out.metrics["cpu_us_per_event"] = 1e6 * cpu / applied
    _validity(out, late)
    _latency_metrics(out, latencies)
    out.metrics["rss_mb"] = peak_rss_mb(os.getpid())
    if trace:
        from perfbench.layers import federation_layers
        from perfbench.trace import Tracer

        tracer = Tracer()
        _hub_leg(out, log_dirs, seed, expected, tracer)
        out.layers, out.table = federation_layers(spec, tracer, out)
    return out


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def report(out: Outcome, trace: bool, seed: int) -> Dict[str, object]:
    """Print the run and return its result object: every ``end_to_end``
    metric of ``BENCHMARK.json`` (``per_layer`` with ``trace``)."""
    from perfbench.spec import E2E_UNITS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in metrics]
    units = {m["name"]: m["unit"] for m in metrics}
    source = out.layers if trace else out.metrics
    print(f"== {out.workload} seed={seed} trace={int(trace)}")
    if trace:
        print(out.table)
    else:
        for name, value in out.metrics.items():
            print(f"  {name:<16} {value:>14.4f} {E2E_UNITS[name]}")
        p99 = out.info["ack_p99"]
        print(f"  ack_p99_ms is p{100 * p99['quantile']:.2f} of "
              f"{p99['samples']} samples")
    frac = out.failed / out.attempted if out.attempted else 0.0
    print(f"  failed_frac  {frac:>14.6f} frac  "
          f"({out.failed} of {out.attempted})")
    for key, value in sorted(out.info.get("inputs", {}).items()):
        print(f"  input.{key:<24} {value:.4f}")
    late = out.info.get("loadgen.late_ms")
    if late:
        print(f"  loadgen.late_ms p{100 * late['quantile']:.2f} "
              f"{late['value']:.3f}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    if out.invalid:
        print(f"  RUN INVALID: {out.invalid}")
    return {
        "correct": not out.problems and out.invalid is None,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {name: {"value": float(source[name]),
                           "unit": units[name]} for name in names},
    }


def save_artifact(out: Outcome, trace: bool, seed: int,
                  result: Dict[str, object]) -> None:
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{out.workload}-seed{seed}-trace{int(trace)}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "info": out.info,
                   "e2e": out.metrics, "layers": out.layers}, fh,
                  indent=2, sort_keys=True, default=str)
    if out.table:
        (results / f"{stem}.txt").write_text(out.table + "\n")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            worker_cpu: Optional[int]) -> Dict[str, object]:
    from perfbench.spec import WORKLOADS

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if WORKLOADS[name].kind == "federation":
            out = run_federation(name, seed, seconds, trace, workdir)
        else:
            out = run_ingest(name, seed, seconds, trace, workdir, worker_cpu)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(out, trace, seed)
    save_artifact(out, trace, seed, result)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    _require_source()
    if argv is None:
        _fix_hash_seed()
    from perfbench.spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    worker_cpu = _pin_cpus()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds,
                             bool(args.trace), worker_cpu) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
