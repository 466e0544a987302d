"""Execution contexts for statements, programs, and transactions.

A context is a *working state*: a copy of the database's relations plus
the temporary relations created by assignment statements, plus the
outputs produced by query statements.  Statements mutate the context;
the transaction machinery decides whether the working state ever becomes
the next database state ``D^{t+1}`` (Definition 4.3).

Every write goes through :meth:`ExecutionContext.apply`, Definition 4.1's
common form ``R ← (R − M) ⊎ A`` with ``M ⊆ₘ R``.  It patches only the
``|M| + |A|`` changed entries and accumulates each written base
relation's net signed delta in :attr:`ExecutionContext.deltas`, which is
what :meth:`~repro.database.Database.install` records at commit.

The context also owns the evaluation strategy: the reference evaluator
by default, optionally the physical engine and/or the optimizer — and,
when a :class:`~repro.cache.QueryCache` is attached, every expression
evaluation is routed through it.  The cache decides per lookup whether
the result level applies (it bypasses itself for temporaries and for
working states that have diverged from the installed database state,
which is why attaching a cache to transactional contexts is safe).
Expressions that read no relation at all (constants, such as update's
``π̂α`` over the matched tuples) skip the cache: an entry for them could
never be invalidated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.algebra import AlgebraExpr, LiteralRelation
from repro.cache.fingerprint import base_relations
from repro.database.transitions import Delta
from repro.engine import StatisticsCatalog, evaluate, execute
from repro.errors import DuplicateRelationError, UnknownRelationError
from repro.relation import Relation

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Working state for statement execution."""

    def __init__(
        self,
        relations: Mapping[str, Relation],
        use_physical_engine: bool = False,
        optimizer: Optional[Callable[[AlgebraExpr], AlgebraExpr]] = None,
        parallel: Optional[object] = None,
        cache: Optional[object] = None,
        database: Optional[object] = None,
        engine: str = "pairs",
        account: Optional[object] = None,
    ) -> None:
        #: Working copies of the base relations.
        self.relations: Dict[str, Relation] = dict(relations)
        #: Temporary relations created by assignment statements.
        self.temporaries: Dict[str, Relation] = {}
        #: Net signed delta of each written base relation against the
        #: state this context started from (see :meth:`apply`).
        self.deltas: Dict[str, Delta] = {}
        #: Results of query statements, in execution order.
        self.outputs: List[Relation] = []
        self._use_physical_engine = use_physical_engine
        self._optimizer = optimizer
        #: Fragment scheduler for parallel plans (physical engine only).
        self._parallel = parallel
        #: Optional :class:`~repro.cache.QueryCache` consulted by
        #: :meth:`evaluate`; None evaluates directly.
        self.cache = cache
        #: The database this working state was snapshotted from — the
        #: cache needs it to check epochs and working-state divergence.
        self.database = database
        #: Physical operator family: ``"pairs"`` or ``"vector"``
        #: (ignored by the reference evaluator).
        self._engine = engine
        #: Optional :class:`~repro.obs.telemetry.ResourceAccount` metering
        #: this context's evaluations (the server attaches one per
        #: request).  Mutable: a pinned transaction context outlives a
        #: single request, so each request swaps its own account in.
        self.account = account

    # -- name resolution -------------------------------------------------

    def environment(self) -> Dict[str, Relation]:
        """Base relations and temporaries together (names are disjoint)."""
        env = dict(self.relations)
        env.update(self.temporaries)
        return env

    def get_relation(self, name: str) -> Relation:
        if name in self.temporaries:
            return self.temporaries[name]
        if name in self.relations:
            return self.relations[name]
        raise UnknownRelationError(name)

    def set_relation(self, name: str, relation: Relation) -> None:
        """Replace an existing base or temporary relation.

        A base relation's replacement goes through :meth:`apply`, so its
        delta is recorded like any statement's.
        """
        if name in self.temporaries:
            self.temporaries[name] = relation
        else:
            self.apply(name, self.get_relation(name), relation)

    def apply(self, name: str, removed: Relation, added: Relation) -> None:
        """``name ← (name − removed) ⊎ added``, with ``removed ⊆ₘ name``.

        Every statement of Definition 4.1 has this form: insert is
        ``(∅, E)``, delete ``(R ∩ E, ∅)``, update ``(R ∩ E, π̂α(R ∩ E))``.
        Only the patched entries are touched, and a base relation's net
        signed delta is accumulated in :attr:`deltas` (temporaries have
        none: they never reach the database).
        """
        current = self.get_relation(name)
        patched = Relation.from_multiset(
            current.schema, current.tuples.patched(removed.tuples, added.tuples)
        )
        if name in self.temporaries:
            self.temporaries[name] = patched
            return
        self.relations[name] = patched
        delta = self.deltas.get(name)
        if delta is None:
            # First write to this relation: adopt A's counts with one
            # C-level copy, so an insert walks its tuples only once.
            delta = self.deltas[name] = added.tuples.to_dict()
            additions = ()
        else:
            additions = added.pairs()
        for row, count in removed.pairs():
            _shift(delta, row, -count)
        for row, count in additions:
            _shift(delta, row, count)

    def bind_temporary(self, name: str, relation: Relation) -> None:
        """Create (or rebind) a temporary relation.

        Shadowing a base relation is rejected: the paper's assignment
        defines a *new* variable, and silently hiding a stored relation
        would make programs treacherous to read.
        """
        if name in self.relations:
            raise DuplicateRelationError(name)
        self.temporaries[name] = relation.rename(name)

    # -- evaluation strategy (read by the cache) --------------------------

    @property
    def use_physical_engine(self) -> bool:
        return self._use_physical_engine

    @property
    def optimizer(self) -> Optional[Callable[[AlgebraExpr], AlgebraExpr]]:
        return self._optimizer

    @property
    def parallel(self) -> Optional[object]:
        return self._parallel

    @property
    def engine(self) -> str:
        """The physical operator family (``"pairs"`` or ``"vector"``)."""
        return self._engine

    # -- expression evaluation --------------------------------------------------

    def evaluate(self, expr: AlgebraExpr) -> Relation:
        """Evaluate ``expr`` against the working state.

        When an :attr:`account` is attached, it is activated for the
        calling thread around the evaluation so the engine's scan /
        duplicate-elimination / cache call sites can credit it, and the
        result cardinalities are tallied here.
        """
        if self.account is None:
            return self._evaluate_direct(expr)
        from repro.obs.telemetry import activate

        with activate(self.account) as acct:
            result = self._evaluate_direct(expr)
            acct.evaluations += 1
            acct.rows_emitted += len(result)  # bag cardinality
            acct.pairs_emitted += result.distinct_count
        return result

    def _evaluate_direct(self, expr: AlgebraExpr) -> Relation:
        if isinstance(expr, LiteralRelation):
            # A constant needs no optimizer, plan, or cache entry.
            return expr.relation
        if self.cache is not None and base_relations(expr):
            # An expression that reads no relation skips the cache: its
            # entries could never be invalidated.
            return self.cache.evaluate(expr, self)
        if self._optimizer is not None:
            expr = self._optimizer(expr)
        env = self.environment()
        if self._use_physical_engine:
            return execute(
                expr, env, parallel=self._parallel, engine=self._engine
            )
        return evaluate(expr, env)

    def statistics(self) -> StatisticsCatalog:
        """Exact statistics of the working state (for cost-based choices)."""
        return StatisticsCatalog.from_env(self.environment())


def _shift(delta: Delta, row: object, count: int) -> None:
    """Add ``count`` to ``delta[row]``, dropping the entry at zero."""
    shifted = delta.get(row, 0) + count
    if shifted:
        delta[row] = shifted
    else:
        del delta[row]
