"""Shared fixtures for the experiment benches (see DESIGN.md §4).

Each ``bench_eN_*.py`` module regenerates one experiment row/series; the
pytest-benchmark table is the measured series, and shape assertions
inside the bench bodies pin the qualitative outcome (who wins, what is
equal, what diverges).  EXPERIMENTS.md records paper-vs-measured.

Besides the human-readable table, every bench run also emits
machine-readable results: one ``BENCH_<experiment>.json`` file per bench
module at the *repo root* (or ``$BENCH_RESULTS_DIR``), each a list of
``{"name", "group", "n", "seconds", ...}`` records — committed so
successive PRs can diff the perf trajectory without scraping terminal
output (``tools/bench_diff.py`` compares them to
``benchmarks/baselines/``).  A run that covers only some benches of a
module merges into that module's file: its rows replace their namesakes
(same ``fullname``) and every other row stays.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.algebra import RelationRef
from repro.workloads import BeerWorkload, join_chain_relations, zipf_relation


def _bench_record(bench) -> dict:
    """One benchmark's stats as a flat JSON record.

    ``n`` is the number of timed rounds; ``seconds`` the mean per-round
    wall time (min/stddev ride along for noise estimation).
    """
    # Across pytest-benchmark versions, bench.stats is either the Stats
    # object itself or a Metadata wrapper holding one in .stats.
    stats = getattr(bench.stats, "stats", bench.stats)
    record = {
        "name": bench.name,
        "fullname": bench.fullname,
        "group": bench.group,
        "n": stats.rounds,
        "seconds": stats.mean,
        "min_seconds": stats.min,
        "stddev_seconds": stats.stddev,
    }
    # Bench-computed figures (e.g. measured real_speedup) ride along.
    extra_info = getattr(bench, "extra_info", None)
    if extra_info:
        record.update(extra_info)
    return record


def merge_records(existing: list, records: list) -> list:
    """``existing`` with this run's ``records`` replacing their namesakes.

    Rows are matched by ``fullname``; a replaced row keeps its place, a
    new one is appended, and rows this run did not produce are kept.
    """
    fresh = {record["fullname"]: record for record in records}
    merged = [fresh.pop(row.get("fullname"), row) for row in existing]
    merged.extend(fresh.values())
    return merged


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_*.json result files, one per bench module."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None or not benchmark_session.benchmarks:
        return
    by_module: dict[str, list] = {}
    for bench in benchmark_session.benchmarks:
        if bench.stats is None:  # skipped / errored bench
            continue
        # fullname looks like 'benchmarks/bench_e5_example31.py::test_x'.
        module = Path(bench.fullname.split("::", 1)[0]).stem
        module = module.removeprefix("bench_")
        # Key the file by experiment id ('e5_example31' -> 'e5'), so the
        # trajectory reads BENCH_e5.json regardless of the module's
        # descriptive suffix.
        match = re.match(r"(e\d+)_", module)
        if match:
            module = match.group(1)
        by_module.setdefault(module, []).append(_bench_record(bench))
    if not by_module:
        return
    results_dir = Path(
        os.environ.get(
            "BENCH_RESULTS_DIR", Path(__file__).parent.parent
        )
    )
    results_dir.mkdir(parents=True, exist_ok=True)
    for module, records in sorted(by_module.items()):
        path = results_dir / f"BENCH_{module}.json"
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                records = merge_records(json.load(handle), records)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="module")
def beer_env():
    """A mid-sized beer database (3k beers, 150 breweries).

    Size is chosen so the *worst* formulation each bench compares against
    — reference evaluation of a full Cartesian product (450k combined
    tuples) — still completes in about a second per round.
    """
    workload = BeerWorkload(beers=3_000, breweries=150, seed=1994)
    beer, brewery = workload.relations()
    return {"beer": beer, "brewery": brewery}


@pytest.fixture(scope="module")
def beer_refs(beer_env):
    return (
        RelationRef("beer", beer_env["beer"].schema),
        RelationRef("brewery", beer_env["brewery"].schema),
    )


@pytest.fixture(scope="module")
def skewed_bags():
    """Two overlapping Zipf-duplicated relations (for E1/E3/E7).

    Same seed + same distinct-pool parameters give both relations the
    same candidate tuple pool (so their supports overlap heavily, which
    E3's δ/⊎ counterexample requires), while the different sample sizes
    keep them from being identical.
    """
    left = zipf_relation(20_000, degree=2, distinct=2_000, skew=1.2, seed=11)
    right = zipf_relation(14_000, degree=2, distinct=2_000, skew=1.2, seed=11)
    return left, right


@pytest.fixture(scope="module")
def chain_env():
    """A skewed three-relation join chain where association order matters."""
    relations = join_chain_relations(
        3, [4_000, 2_000, 40], [60, 50, 900, 12], seed=42
    )
    return {relation.schema.name: relation for relation in relations}
