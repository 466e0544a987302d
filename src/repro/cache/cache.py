"""The two-level query cache: plan entries and epoch-tagged results.

``QueryCache.evaluate(expr, context)`` is the single entry point; an
:class:`~repro.language.context.ExecutionContext` wired with a cache
routes every expression evaluation through it.  The levels:

1. **Plan level** — keyed on the raw expression tree (structural
   equality, so re-building the same fluent query hits).  An entry
   holds the optimizer normal form, its canonical fingerprint, and the
   read set of base relations.  A hit skips the optimizer; entries are
   engine-agnostic, because planning a normal form is cheap next to
   optimizing it (the vector engine's kernel code is memoized by shape,
   see :mod:`repro.expressions.compile`).
2. **Result level** — keyed on the fingerprint of the *normal form*,
   so syntactically different but equivalent queries (Theorems
   3.1–3.3) share one entry.  Each entry carries the per-relation
   epochs it was computed at; it is served only while the database's
   epochs for every relation in the read set are unchanged — i.e. no
   committed transition has touched anything the query read.

Correctness guards (bypass, never wrong answers):

* expressions reading a *temporary* relation (``R := E`` bindings) are
  never cached — temporary contents are transaction-local;
* inside a transaction, once a statement has modified a base relation,
  reads over it no longer match the installed database state and
  bypass the cache (identity check against the database's relation);
* relations are immutable values, so serving the same
  :class:`~repro.relation.Relation` object to every hit is safe.

Eviction is LRU over a max-bytes + max-entries budget; a result larger
than the whole budget is simply not cached.  All cache traffic is
counted twice: always in :class:`CacheStats` (the CLI's ``.cache
stats``), and into the :mod:`repro.obs` metrics registry (``cache.*``
counters) while observability is enabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.algebra import AlgebraExpr
from repro.cache.fingerprint import base_relations, fingerprint
from repro.engine.evaluator import evaluate as reference_evaluate
from repro.engine.planner import execute as physical_execute
from repro import obs
from repro.obs.telemetry import account as _active_account
from repro.relation import Relation

__all__ = ["QueryCache", "CacheStats", "CachedResult"]


def estimate_bytes(relation: Relation) -> int:
    """A cheap size estimate of a materialised relation.

    Counts distinct tuples (the multiset stores pairs), not total
    multiplicity: ``96`` bytes of dict/entry overhead per pair plus
    ``32`` per attribute slot.  The point is a stable eviction budget,
    not accounting-grade numbers.
    """
    return 96 + relation.distinct_count * (56 + 32 * relation.schema.degree)


class CacheStats:
    """Counters for every way a lookup can go (monotonic, per cache)."""

    __slots__ = (
        "result_hits", "result_misses", "plan_hits", "plan_misses",
        "bypasses", "invalidations", "evictions",
    )

    def __init__(self) -> None:
        self.result_hits = 0
        self.result_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        #: Lookups that never consulted the result level (temporaries,
        #: diverged working state, no database attached).
        self.bypasses = 0
        #: Entries dropped because a dependency's epoch moved on.
        self.invalidations = 0
        #: Entries dropped to stay inside the size budget.
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Result-level hits over result-level lookups (0.0 when idle)."""
        lookups = self.result_hits + self.result_misses
        return self.result_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        record = {name: getattr(self, name) for name in self.__slots__}
        record["hit_rate"] = round(self.hit_rate, 4)
        return record

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.result_hits} misses={self.result_misses}"
            f" rate={self.hit_rate:.2f} evictions={self.evictions}>"
        )


class _PlanEntry:
    """Normal form + fingerprint + read set for one tree."""

    __slots__ = ("normalized", "fingerprint", "deps")

    def __init__(self, normalized: AlgebraExpr) -> None:
        self.normalized = normalized
        self.fingerprint = fingerprint(normalized)
        self.deps = base_relations(normalized)


class CachedResult:
    """One materialised result and the epochs it is valid at."""

    __slots__ = ("relation", "deps", "epochs", "nbytes")

    def __init__(
        self,
        relation: Relation,
        deps: frozenset,
        epochs: Dict[str, int],
        nbytes: int,
    ) -> None:
        self.relation = relation
        self.deps = deps
        self.epochs = epochs
        self.nbytes = nbytes


class QueryCache:
    """A shared, two-level, epoch-invalidated query cache."""

    def __init__(
        self,
        max_bytes: int = 64 * 1024 * 1024,
        max_entries: int = 1024,
    ) -> None:
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._plans: "OrderedDict[Tuple[AlgebraExpr, bool], _PlanEntry]" = (
            OrderedDict()
        )
        self._results: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._bytes = 0

    # -- inspection ------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Estimated bytes held by the result level."""
        return self._bytes

    def __len__(self) -> int:
        """Number of cached results."""
        return len(self._results)

    @property
    def plan_entries(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop both levels (stats are kept — they are monotonic)."""
        self._plans.clear()
        self._results.clear()
        self._bytes = 0

    def result_cached(self, result_fingerprint: str) -> bool:
        """Is a result materialised under this normal-form fingerprint?

        Provenance only — does not check epoch validity, touch LRU
        order, or count as a lookup.
        """
        return result_fingerprint in self._results

    def fingerprint_for(
        self, expr: AlgebraExpr, optimized: bool = True
    ) -> Optional[str]:
        """The normal-form fingerprint this cache keys ``expr``'s result on.

        Returns ``None`` when the expression has no plan entry yet (the
        cache never saw it) — callers fall back to fingerprinting the
        raw tree.  Pure inspection: no LRU movement, no stats.
        """
        entry = self._plans.get((expr, optimized))
        return entry.fingerprint if entry is not None else None

    # -- the lookup path -------------------------------------------------

    def evaluate(self, expr: AlgebraExpr, context: Any) -> Relation:
        """Evaluate ``expr`` for ``context``, serving from cache if valid."""
        entry = self._plan_entry(expr, context)
        database = getattr(context, "database", None)
        deps = entry.deps
        if not self._result_level_applies(deps, context, database):
            self.stats.bypasses += 1
            obs.add("cache.bypasses")
            return self._execute(entry, context)
        epochs = {name: database.epoch(name) for name in deps}
        cached = self._results.get(entry.fingerprint)
        if cached is not None:
            if cached.epochs == epochs:
                self._results.move_to_end(entry.fingerprint)
                self.stats.result_hits += 1
                obs.add("cache.hits", level="result")
                if (acct := _active_account()) is not None:
                    acct.cache_hits += 1
                return cached.relation
            # A transition bumped an epoch this entry depends on.
            self._drop(entry.fingerprint)
            self.stats.invalidations += 1
            obs.add("cache.invalidations")
        self.stats.result_misses += 1
        obs.add("cache.misses", level="result")
        if (acct := _active_account()) is not None:
            acct.cache_misses += 1
        relation = self._execute(entry, context)
        self._store(entry.fingerprint, relation, deps, epochs)
        return relation

    def _result_level_applies(
        self, deps: frozenset, context: Any, database: Optional[Any]
    ) -> bool:
        """Can a materialised result be keyed purely on database epochs?

        Only when every relation the expression reads resolves to the
        database's *currently installed* instance: no temporaries, no
        in-transaction modifications, no detached environments.
        """
        if database is None:
            return False
        temporaries = context.temporaries
        for name in deps:
            if name in temporaries:
                return False
            if name not in database:
                return False
            if context.get_relation(name) is not database.get(name):
                return False
        return True

    def _plan_entry(self, expr: AlgebraExpr, context: Any) -> _PlanEntry:
        optimizer = context.optimizer
        key = (expr, optimizer is not None)
        entry = self._plans.get(key)
        if entry is not None:
            self._plans.move_to_end(key)
            self.stats.plan_hits += 1
            obs.add("cache.hits", level="plan")
            return entry
        self.stats.plan_misses += 1
        obs.add("cache.misses", level="plan")
        normalized = optimizer(expr) if optimizer is not None else expr
        entry = _PlanEntry(normalized)
        self._plans[key] = entry
        while len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)
        return entry

    def _execute(self, entry: _PlanEntry, context: Any) -> Relation:
        env = context.environment()
        if not context.use_physical_engine:
            return reference_evaluate(entry.normalized, env)
        return physical_execute(
            entry.normalized,
            env,
            parallel=context.parallel,
            engine=getattr(context, "engine", "pairs"),
        )

    # -- result storage ---------------------------------------------------

    def _store(
        self,
        key: str,
        relation: Relation,
        deps: frozenset,
        epochs: Dict[str, int],
    ) -> None:
        nbytes = estimate_bytes(relation)
        if nbytes > self.max_bytes:
            return
        previous = self._results.pop(key, None)
        if previous is not None:
            self._bytes -= previous.nbytes
        self._results[key] = CachedResult(relation, deps, epochs, nbytes)
        self._bytes += nbytes
        while self._results and (
            self._bytes > self.max_bytes or len(self._results) > self.max_entries
        ):
            evicted_key, evicted = self._results.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1
            obs.add("cache.evictions")
            if evicted_key == key:
                break
        obs.gauge("cache.bytes", self._bytes)
        obs.gauge("cache.entries", len(self._results))

    def _drop(self, key: str) -> None:
        entry = self._results.pop(key, None)
        if entry is not None:
            self._bytes -= entry.nbytes

    def __repr__(self) -> str:
        return (
            f"<QueryCache {len(self._results)} result(s), "
            f"{len(self._plans)} plan(s), ~{self._bytes} bytes, "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )
