"""E17 bench: fleet VSOC ingest/correlate/contain vs no-SOC baseline.

Every cell runs with the conservation audit enabled (a single
unaccounted event in any pump raises inside the driver); cells at/above
10^6 exercise the sharded worker pool, shard-local correlators behind
the global campaign merger, and the vectorized workload generator.  The 10^7 cell must finish inside the 120 s
acceptance bound, and the whole run writes ``BENCH_E17.json`` -- the
machine-readable perf record (per-cell wall clock + correlate-path
throughput vs the same-run per-event baseline) that the CI smoke job
regression-checks.
"""

import pathlib
import time

from repro.experiments import e17_soc

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_e17_fleet_soc(benchmark, report):
    timings = {}
    start = time.perf_counter()
    result = benchmark.pedantic(e17_soc.run, kwargs={"timings": timings},
                                rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    report(result, "E17")

    rows = {int(r["fleet"]): r for r in result.rows}
    assert set(rows) == {100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

    # Acceptance bound: the 10^7 cell (with its no-SOC twin) < 120 s.
    assert timings[10_000_000]["wall_s"] < 120, timings[10_000_000]
    assert elapsed < 240, f"E17 sweep took {elapsed:.0f}s"

    # Ingest sustains a 10^4-vehicle fleet: bounded queue, no shedding,
    # sub-second dispatch latency.
    sustained = rows[10_000]
    assert sustained["queue_peak"] < 2048
    assert sustained["shed_rate"] == 0
    assert sustained["latency_ms"] < 1000

    # Overload degrades explicitly, never silently: past backend capacity
    # the backpressure path visibly suppresses low-severity telemetry at
    # the source while every queue stays bounded.  At 10^5 a single
    # pipeline saturates against CAPACITY_EPS; at 10^6 the 8-shard pool
    # saturates against its shared budget; at 10^7 the 16-shard pool does
    # -- and queue_peak is always the *hottest single shard's* bounded
    # peak.
    overload = rows[100_000]
    assert overload["offered_eps"] > e17_soc.CAPACITY_EPS
    assert overload["shed_rate"] + overload["src_suppressed"] > 0
    assert overload["queue_peak"] < 2048

    sharded = rows[1_000_000]
    assert sharded["offered_eps"] > e17_soc.CAPACITY_EPS * e17_soc.NUM_SHARDS
    assert sharded["shed_rate"] + sharded["src_suppressed"] > 0
    assert sharded["queue_peak"] < 2048

    mega = rows[10_000_000]
    total_pressure_eps = (mega["offered_eps"]
                          + mega["src_suppressed"] / e17_soc.DURATION_S)
    assert total_pressure_eps > e17_soc.CAPACITY_EPS * e17_soc.MEGA_SHARDS
    assert mega["src_suppressed"] > sharded["src_suppressed"]
    assert mega["queue_peak"] < 2048

    # Underload cells never shed nor suppress: overload-only degradation.
    for fleet in (100, 1_000, 10_000):
        row = rows[fleet]
        assert row["shed_rate"] + row["src_suppressed"] == 0

    for fleet, row in rows.items():
        # Correlation quality at k=3 against the seeded campaigns.
        assert row["precision"] >= 0.9, (fleet, row["precision"])
        assert row["recall"] >= 0.9, (fleet, row["recall"])
        # The loop actually closes: authenticated policy pushes and
        # verified Uptane installs for every planted campaign.
        assert row["policy_pushes"] >= 3
        assert row["ota_installs"] >= 3
        assert row["t_contain_s"] > 0

    # Closed-loop remediation shrinks the blast radius vs the identical
    # scenario without a SOC -- decisively so at fleet scale.
    for fleet in (1_000, 10_000, 100_000, 1_000_000, 10_000_000):
        row = rows[fleet]
        assert row["compromised_soc"] < row["compromised_nosoc"]
        assert row["averted"] > 0
    for fleet in (100_000, 1_000_000, 10_000_000):
        assert rows[fleet]["compromised_soc"] * 2 < rows[fleet]["compromised_nosoc"]

    # Perf trajectory: the incremental and columnar correlate paths vs
    # the same-run reference engine (recorded; CI gates it in e17_smoke).
    correlate = e17_soc.correlate_microbench()

    cells = [
        {"fleet": float(fleet),
         "offered_eps_sim": rows[fleet]["offered_eps"],
         "wall_s": timings[fleet]["wall_s"],
         "soc_scene_wall_s": timings[fleet]["soc_scene_wall_s"],
         "ingest_correlate_eps": timings[fleet]["ingest_correlate_eps"]}
        for fleet in sorted(rows)
    ]
    e17_soc.write_bench_json(RESULTS_DIR / "BENCH_E17.json", cells, correlate)
