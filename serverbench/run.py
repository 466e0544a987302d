"""Open-loop benchmark of the repro query server, end to end and by layer.

Run from the repository root::

    python3 serverbench/run.py --workload oltp-write --seed 1 --seconds 45 --trace 0

The benchmark writes a seed XRA script for the workload, starts
``python -u -m repro serve --port 0 --script <seed.xra>`` with the shipped
defaults, and drives it from this process over two connections in twelve
cycles, each an open-loop block (Poisson arrivals at the workload's fixed
rate) followed by a closed-loop round of a fixed number of operations on
the same connections.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` is a separate traced run (server with
``--telemetry 0``, i.e. metrics-only recording, plus an in-process replay
of a request sample) that reports the per-layer metrics.  Either way the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it are the run
record: host, seed, sample counts, generator lateness, workload
properties, and every metric with its unit.

Outputs are checked in the same command (see ``gate.py``); a mismatch
counts as a failed operation and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: Server spawns per run for ``setup_s``; the last one serves the load.
SETUPS = 7
#: Share of ``--seconds`` given to the open-loop blocks; the rest is closed loop.
OPEN_SHARE = 0.75
#: The timed region is this many cycles of an open-loop block followed by a
#: closed-loop round, so every metric samples the whole run.
CYCLES = 12
#: Stream requests sent, unmeasured, before the open loop (after every
#: fixed query text once), so caches and code paths are warm.
WARMUP_OPS = 100
#: Requests replayed in-process for the front-layer spans.
REPLAY_REQUESTS = 100
#: Every SAMPLE_EVERY-th operation is decoded and kept for the gate.
SAMPLE_EVERY = 40
#: Typical mean time of ``probe.py``'s work beside the load on the recorded
#: 2-core host.  Timings are reported as if the host ran at this speed.
PROBE_REFERENCE_MS = 2.0

#: (name, unit, better) of the end-to-end metrics (``--trace 0``).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("read_p50_norm_ms", "ms", "lower"),
    ("write_p50_norm_ms", "ms", "lower"),
    ("capacity_norm_rps", "1/s", "higher"),
    ("server_rss_mb", "MiB", "lower"),
]

#: (name, unit, better, what it should move) of the per-layer metrics.
PER_LAYER = [
    ("server.request_ms.p50", "ms", "lower", "read_p50_norm_ms, all workloads"),
    ("server.wire_ms.p50", "ms", "lower", "read_p50_norm_ms on dashboard-mixed"),
    ("server.write_lock_wait_ms.p99", "ms", "lower", "capacity_norm_rps on oltp-write"),
    ("server.write_lock_hold_ms.p50", "ms", "lower", "write_p50_norm_ms, capacity_norm_rps on oltp-write"),
    ("server.conflict_retries_per_commit", "ratio", "lower", "write_p50_norm_ms on oltp-write"),
    ("protocol.encode_ms", "ms", "lower", "read_p50_norm_ms on dashboard-mixed"),
    ("protocol.decode_ms", "ms", "lower", "read_p50_norm_ms on dashboard-mixed"),
    ("protocol.response_kb", "KiB", "lower", "read_p50_norm_ms on dashboard-mixed"),
    ("xra.parse_ms", "ms", "lower", "read_p50_norm_ms on oltp-write"),
    ("sql.parse_ms", "ms", "lower", "read_p50_norm_ms on oltp-write"),
    ("sql.translate_ms", "ms", "lower", "read_p50_norm_ms on oltp-write"),
    ("optimizer.optimize_ms", "ms", "lower", "read_p50_norm_ms on analytic-read"),
    ("cache.result_hit_ratio", "ratio", "higher", "read_p50_norm_ms, capacity_norm_rps on dashboard-mixed"),
    ("cache.plan_hit_ratio", "ratio", "higher", "read_p50_norm_ms and the read tail on dashboard-mixed"),
    ("cache.invalidations_per_write", "ratio", "lower", "read_p50_norm_ms and the read tail on dashboard-mixed"),
    ("cache.evictions", "count", "lower", "read_p50_norm_ms and the read tail on dashboard-mixed"),
    ("engine.eval_ms", "ms", "lower", "read_p50_norm_ms, capacity_norm_rps on analytic-read"),
    ("engine.rows_scanned_per_row_returned", "ratio", "lower", "read_p50_norm_ms on analytic-read"),
    ("engine.dedup_ratio", "ratio", "lower", "read_p50_norm_ms on analytic-read"),
    ("engine.vectorized_batch_ratio", "ratio", "higher", "read_p50_norm_ms on analytic-read"),
    ("database.install_ms", "ms", "lower", "write_p50_norm_ms on oltp-write"),
    ("database.snapshot_ms", "ms", "lower", "write_p50_norm_ms on oltp-write"),
    ("database.retained_kb_per_commit", "KiB", "lower", "server_rss_mb on oltp-write"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the price of the traced run"),
]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def tail_record(values: List[float]) -> Dict[str, object]:
    """Sample count and each percentile with at least ten samples beyond it.

    The tail is printed for the record but not gated: across seeds on the
    2-core host its spread exceeded any usable regression bound.
    """
    record: Dict[str, object] = {"n": len(values)}
    for q in (50, 90, 95, 99):
        if len(values) * (100 - q) / 100 >= 10:
            record[f"p{q}"] = round(percentile(values, q), 3)
    return record


def round_rate(outcomes) -> float:
    """Completed operations per second over one closed-loop round."""
    elapsed = max(o.done for o in outcomes) - min(o.sent for o in outcomes)
    return sum(1 for o in outcomes if o.ok) / elapsed


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def cpu_ticks() -> Optional[List[int]]:
    """The host-wide CPU tick counters of ``/proc/stat``, if it exists."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time since ``before`` that the hypervisor took away.

    Printed with the run as a validity check: a run made while the shared
    host was busy shows a high share.
    """
    after = cpu_ticks()
    if before is None or after is None or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return round(ratio(delta[7], sum(delta[:8])), 4)


def source_stamp() -> Dict[str, str]:
    """The git SHA when the checkout has one, else a digest of ``src/``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
        return {"git_sha": sha}
    except (OSError, subprocess.SubprocessError):
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return {"git_sha": "unavailable", "src_sha256": digest.hexdigest()}


def result_hit_ratio(reads) -> float:
    """Result-level cache hits over lookups, from the response envelopes."""
    hits = sum(o.resources.get("cache_hits", 0) for o in reads)
    return ratio(hits, hits + sum(o.resources.get("cache_misses", 0) for o in reads))


def properties(outcomes) -> Dict[str, float]:
    """Measured workload properties, so that drift shows as drift."""
    commits = [o for o in outcomes if o.request.commits]
    reads = [o for o in outcomes if o.ok and not o.request.commits]
    return {
        "result_cache_hit_share": round(result_hit_ratio(reads), 4),
        "write_share": round(ratio(len(commits), len(outcomes)), 4),
        "conflict_share": round(ratio(sum(o.retries for o in commits),
                                      sum(1 + o.retries for o in commits)), 4),
        "mean_result_rows": round(ratio(sum(o.rows for o in reads), len(reads)), 2),
    }


def warm_up(generator, stream) -> None:
    """Unmeasured requests; their commits still count for the gate."""
    requests = stream.distinct_reads() + list(itertools.islice(stream, WARMUP_OPS))
    generator.closed_loop(iter(requests), phase="warmup")


def emit(kind: str, record: dict) -> None:
    print(f"# {kind} " + json.dumps(record, sort_keys=True))


class Run:
    """One benchmark invocation: inputs, servers, load, gate, metrics."""

    def __init__(self, spec, seed: int, seconds: float) -> None:
        from workloads import arrivals, generate_data, seed_script

        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.data = generate_data(spec, seed)
        self.script = OUT / f"{spec.name}-{seed}.xra"
        self.script.write_text(seed_script(spec, self.data), encoding="utf-8")
        self.log = OUT / f"{spec.name}-{seed}.server.log"
        self.log.write_bytes(b"")
        block = seconds * OPEN_SHARE / CYCLES
        self.schedules = [arrivals(spec.rate, block, seed, f"{spec.name}/{cycle}")
                          for cycle in range(CYCLES)]
        # Closed-loop rounds are a fixed number of operations, sized to last
        # the rest of the time at the parent's capacity, so the work a run
        # does (and the memory it leaves behind) does not depend on speed.
        self.round_ops = max(1, round(spec.closed_rate * seconds * (1 - OPEN_SHARE) / CYCLES))
        offset = random.Random(f"{spec.name}/sample/{seed}").randrange(SAMPLE_EVERY)
        self.keep = lambda index: index % SAMPLE_EVERY == offset
        self.servers: List = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        #: Hypervisor steal over the timed cycles (see :func:`steal_share`).
        self.steal: Optional[float] = None

    def server(self, telemetry: bool = False):
        from loadgen import ServerProcess

        server = ServerProcess(ROOT, self.script, self.log, telemetry)
        self.servers.append(server)
        return server.start()

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()

    def gate(self, server, generator, outcomes) -> None:
        from gate import check_server, fetch_final

        final = fetch_final(generator, self.spec)
        report = check_server(self.spec, self.data, server.start_time, outcomes, final)
        emit("gate", {"server_port": server.address[1], "commits": report.commits,
                      "checked_reads": report.checked_reads,
                      "failures": report.failures, "notes": report.notes})
        self.attempted += len(outcomes)
        self.failed += sum(1 for o in outcomes if not o.ok) + report.failures
        if report.failures:
            self.correct = False

    def record(self, mode: str, counts: Dict[str, int], outcomes) -> None:
        late = [o.lateness * 1000.0 for o in outcomes if o.phase == "open"]
        emit("run", {
            "workload": self.spec.name, "seed": self.seed, "mode": mode,
            "seconds": self.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), **source_stamp(),
            "open_loop_rate": self.spec.rate, "samples": counts,
            "lateness_p99_ms": round(percentile(late, 99), 3) if late else None,
            "host_steal_share": self.steal,
        })
        emit("properties", properties([o for o in outcomes if o.phase != "warmup"]))

    def closed_round(self, generator, stream):
        """One closed-loop round of the run's fixed number of operations."""
        return generator.closed_loop(iter(list(itertools.islice(stream, self.round_ops))))

    # -- --trace 0 ----------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        from loadgen import LoadGenerator, ProbeProcess
        from workloads import RequestStream

        setups = []
        for _ in range(SETUPS - 1):
            spawned = self.server()
            setups.append(spawned.setup_seconds)
            spawned.stop()
        server = self.server()
        setups.append(server.setup_seconds)
        generator = LoadGenerator(server.address, self.keep)
        probe = ProbeProcess(HERE / "probe.py", OUT / f"{self.spec.name}-{self.seed}.probe")
        try:
            stream = RequestStream(self.spec, self.seed)
            warm_up(generator, stream)
            opened, rounds = [], []
            ticks = cpu_ticks()
            started = time.monotonic()
            for schedule in self.schedules:
                opened += generator.open_loop(schedule, stream)
                rounds.append(self.closed_round(generator, stream))
            probe_ms = probe.mean_ms(started, time.monotonic())
            self.steal = steal_share(ticks)
            # After a seeded amount of work, so the memory it leaves behind
            # does not depend on how fast the host ran.
            rss = server.rss_mb()
            self.gate(server, generator, generator.outcomes)
        finally:
            probe.stop()
            generator.close()
        reads = [o.latency * 1000.0 for o in opened if o.ok and not o.request.commits]
        writes = [o.latency * 1000.0 for o in opened if o.ok and o.request.commits]
        counts = {"open_reads": len(reads), "open_writes": len(writes),
                  "closed_ops": sum(map(len, rounds)), "setups": len(setups)}
        rates = [round_rate(r) for r in rounds]
        emit("closed_rounds", {"rps": [round(r, 1) for r in rates]})
        self.record("end_to_end", counts, generator.outcomes)
        emit("latency", {kind: tail_record(values)
                         for kind, values in (("read_ms", reads), ("write_ms", writes))})
        raw = {
            "read_p50_ms": percentile(reads, 50),
            "write_p50_ms": percentile(writes, 50),
            "capacity_rps": median(rates),
        }
        slowdown = probe_ms / PROBE_REFERENCE_MS
        emit("host", {"probe_ms": round(probe_ms, 4), "slowdown": round(slowdown, 4),
                      "unscaled": {name: round(value, 4) for name, value in raw.items()}})
        return {
            "setup_s": median(setups),
            "read_p50_norm_ms": raw["read_p50_ms"] / slowdown,
            "write_p50_norm_ms": raw["write_p50_ms"] / slowdown,
            "capacity_norm_rps": raw["capacity_rps"] * slowdown,
            "server_rss_mb": rss,
        }

    # -- --trace 1 ----------------------------------------------------------

    def per_layer(self) -> Dict[str, float]:
        from layers import Spans, replay
        from loadgen import LoadGenerator
        from workloads import RequestStream

        traced = self.server(telemetry=True)
        plain = self.server()
        rss_start = traced.rss_mb()
        gen_traced = LoadGenerator(traced.address, self.keep)
        gen_plain = LoadGenerator(plain.address, self.keep)
        try:
            stream = RequestStream(self.spec, self.seed)
            plain_stream = RequestStream(self.spec, self.seed, part="untraced")
            warm_up(gen_traced, stream)
            warm_up(gen_plain, plain_stream)
            # Each cycle: an open-loop block on the traced server, then one
            # closed-loop round on each server, alternating which goes first.
            opened = []
            rates: Dict[str, list] = {"traced": [], "plain": []}
            ticks = cpu_ticks()
            for cycle, schedule in enumerate(self.schedules):
                opened += gen_traced.open_loop(schedule, stream)
                order = [("traced", gen_traced, stream), ("plain", gen_plain, plain_stream)]
                for label, generator, requests in order[::1 if cycle % 2 == 0 else -1]:
                    rates[label].append(round_rate(self.closed_round(generator, requests)))
            self.steal = steal_share(ticks)
            stats = gen_traced.stats()
            rss_end = traced.rss_mb()
            self.gate(traced, gen_traced, gen_traced.outcomes)
            self.gate(plain, gen_plain, gen_plain.outcomes)
        finally:
            gen_traced.close()
            gen_plain.close()
        self.stop_all()

        spans = Spans()
        replay_requests = list(itertools.islice(RequestStream(self.spec, self.seed),
                                                REPLAY_REQUESTS))
        response_kb = replay(self.spec, self.data, replay_requests, spans)
        spans.write(OUT / f"{self.spec.name}-{self.seed}.spans.jsonl")

        outcomes = gen_traced.outcomes
        reads = [o for o in opened if o.ok and not o.request.commits]
        commits = [o for o in outcomes if o.ok and o.request.commits]
        metered = [o for o in outcomes if o.ok and o.resources]
        total = {key: sum(o.resources.get(key, 0) for o in metered)
                 for key in ("rows_scanned",
                             "rows_emitted", "dedup_rows_in", "dedup_rows_out",
                             "batches_vectorized", "batches_fallback")}
        metrics = {record["name"] + json.dumps(record.get("labels", {}), sort_keys=True): record
                   for record in stats["metrics"]}

        def counter(name: str, **labels) -> float:
            record = metrics.get(name + json.dumps(labels, sort_keys=True))
            return record["value"] if record else 0

        def histogram_ms(name: str, field: str) -> float:
            record = metrics.get(name + "{}")
            value = record.get(field) if record else None
            return 1000.0 * value if value is not None else 0.0

        plan_hits = counter("cache.hits", level="plan")
        counts = {"open_reads": len(reads), "commits": len(commits),
                  "replayed": len(replay_requests), "spans": len(spans.records)}
        self.record("per_layer", counts, outcomes)
        layer = {
            "server.request_ms.p50": 1000.0 * median(o.server_seconds for o in reads),
            "server.wire_ms.p50": 1000.0 * median(
                o.received - o.sent - o.server_seconds for o in reads),
            "server.write_lock_wait_ms.p99": histogram_ms("server.write_lock_wait_seconds", "p99"),
            "server.write_lock_hold_ms.p50": histogram_ms("server.write_lock_hold_seconds", "p50"),
            "server.conflict_retries_per_commit": ratio(sum(o.retries for o in commits), len(commits)),
            "protocol.encode_ms": spans.median_ms("protocol.encode"),
            "protocol.decode_ms": spans.median_ms("protocol.decode"),
            "protocol.response_kb": median(response_kb) if response_kb else 0.0,
            "xra.parse_ms": spans.median_ms("xra.parse"),
            "sql.parse_ms": spans.median_ms("sql.parse"),
            "sql.translate_ms": spans.median_ms("sql.translate"),
            "optimizer.optimize_ms": spans.median_ms("optimizer.optimize"),
            "cache.result_hit_ratio": result_hit_ratio(
                [o for o in outcomes if o.ok and not o.request.commits and o.phase != "warmup"]),
            "cache.plan_hit_ratio": ratio(plan_hits,
                                          plan_hits + counter("cache.misses", level="plan")),
            "cache.invalidations_per_write": ratio(counter("cache.invalidations"), len(commits)),
            "cache.evictions": counter("cache.evictions"),
            "engine.eval_ms": spans.median_ms("engine.eval"),
            "engine.rows_scanned_per_row_returned": ratio(total["rows_scanned"],
                                                          total["rows_emitted"]),
            "engine.dedup_ratio": ratio(total["dedup_rows_in"], total["dedup_rows_out"]),
            "engine.vectorized_batch_ratio": ratio(
                total["batches_vectorized"],
                total["batches_vectorized"] + total["batches_fallback"]),
            "database.install_ms": spans.median_ms("database.install"),
            "database.snapshot_ms": spans.median_ms("database.snapshot"),
            "database.retained_kb_per_commit": ratio(1024.0 * (rss_end - rss_start), len(commits)),
            "trace.overhead_ratio": ratio(median(rates["plain"]), median(rates["traced"])),
        }
        request_ms = layer["server.request_ms.p50"]
        emit("layer_shares", {
            name: round(ratio(layer[name], request_ms), 3)
            for name in ("xra.parse_ms", "sql.parse_ms", "sql.translate_ms",
                         "optimizer.optimize_ms", "engine.eval_ms",
                         "protocol.encode_ms", "database.snapshot_ms")
        })
        return layer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"serverbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import SPECS

    if options.workload not in SPECS:
        parser.error(f"unknown workload {options.workload!r} (known: {', '.join(SPECS)})")
    OUT.mkdir(exist_ok=True)
    # Turn SIGTERM into SystemExit so the ``finally`` below stops the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(SPECS[options.workload], options.seed, options.seconds)
    try:
        if options.trace:
            metrics, table = run.per_layer(), PER_LAYER
        else:
            metrics, table = run.end_to_end(), END_TO_END
    finally:
        run.stop_all()
    for name, unit, better, *moves in table:
        emit("metric", {"name": name, "value": metrics[name], "unit": unit,
                        "better": better, **({"moves": moves[0]} if moves else {})})
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
