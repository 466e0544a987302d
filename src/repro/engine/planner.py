"""Translation of logical algebra expressions into physical plans.

The planner is deliberately simple and deterministic — strategy choice,
not search (search lives in :mod:`repro.optimizer`, which rewrites the
*logical* tree first):

* joins whose condition contains equality conjuncts relating the two
  operands become hash joins (remaining conjuncts become a residual
  filter); other joins become nested loops;
* a selection directly above a product is fused the same way (this is
  Theorem 3.1's ``σ_φ(E1 × E2) = E1 ⋈_φ E2`` applied physically);
* everything else maps one-to-one onto the operators of
  :mod:`repro.engine.iterators`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, List, Optional, Tuple

from repro.algebra import (
    AlgebraExpr,
    Difference,
    ExtendedProject,
    GroupBy,
    Intersect,
    Join,
    LiteralRelation,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
    Unique,
)
from repro.engine.iterators import (
    DifferenceOp,
    DistinctOp,
    FilterOp,
    GroupByOp,
    HashJoinOp,
    IntersectOp,
    LiteralOp,
    MapOp,
    NestedLoopJoinOp,
    PhysicalOp,
    ProductOp,
    ProjectOp,
    ScanOp,
    UnionOp,
)
from repro.errors import EvaluationError
from repro import obs
from repro.expressions import (
    AttrRef,
    Compare,
    ScalarExpr,
    conjoin,
    rebase,
    split_conjuncts,
)
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.tuples import Row

__all__ = ["plan", "plan_physical", "execute", "extract_equi_conjuncts"]


def extract_equi_conjuncts(
    condition: ScalarExpr,
    combined: RelationSchema,
    left_degree: int,
) -> Tuple[List[Tuple[ScalarExpr, ScalarExpr]], List[ScalarExpr]]:
    """Split a join condition into equi-key pairs and residual conjuncts.

    Returns ``(pairs, residual)`` where each pair ``(lk, rk)`` is a
    scalar expression over the *left* / *right* operand schema such that
    the conjunct was ``lk = rk`` over the combined schema.  Conjuncts
    that do not have that shape stay in ``residual`` (expressed over the
    combined schema).
    """
    pairs: List[Tuple[ScalarExpr, ScalarExpr]] = []
    residual: List[ScalarExpr] = []
    right_first = left_degree + 1
    right_last = combined.degree
    for conjunct in split_conjuncts(condition):
        if isinstance(conjunct, Compare) and conjunct.op == "=":
            left_on_left = rebase(conjunct.left, combined, 1, left_degree)
            right_on_right = rebase(conjunct.right, combined, right_first, right_last)
            if left_on_left is not None and right_on_right is not None:
                pairs.append((left_on_left, right_on_right))
                continue
            # The symmetric orientation: right side of '=' touches the
            # left operand and vice versa.
            left_on_right = rebase(conjunct.left, combined, right_first, right_last)
            right_on_left = rebase(conjunct.right, combined, 1, left_degree)
            if left_on_right is not None and right_on_left is not None:
                pairs.append((right_on_left, left_on_right))
                continue
        residual.append(conjunct)
    return pairs, residual


def _key_extractor(
    expressions: List[ScalarExpr], schema: RelationSchema
) -> Callable[[Row], Any]:
    # Plain attribute keys — the common case once the optimizer has
    # normalised conditions — extract via a cached C-level itemgetter
    # instead of re-entering one bound closure per key part per row.
    if all(isinstance(expression, AttrRef) for expression in expressions):
        indices = tuple(
            schema.resolve(expression.ref) - 1 for expression in expressions
        )
        return itemgetter(*indices)
    bound = [expression.bind(schema) for expression in expressions]
    if len(bound) == 1:
        only = bound[0]
        return lambda row: only(row)
    return lambda row: tuple(function(row) for function in bound)


def _plan_join(
    left: AlgebraExpr,
    right: AlgebraExpr,
    condition: ScalarExpr,
    schema: RelationSchema,
    parallel: Optional[Any] = None,
) -> PhysicalOp:
    combined = left.schema.concat(right.schema)
    pairs, residual = extract_equi_conjuncts(condition, combined, left.schema.degree)
    left_plan = plan(left, parallel)
    right_plan = plan(right, parallel)
    if pairs:
        left_key = _key_extractor([pair[0] for pair in pairs], left.schema)
        right_key = _key_extractor([pair[1] for pair in pairs], right.schema)
        residual_fn = (
            conjoin(residual).bind(combined) if residual else None
        )
        return HashJoinOp(
            left_plan, right_plan, left_key, right_key, schema, residual_fn
        )
    predicate = condition.bind(combined)
    return NestedLoopJoinOp(left_plan, right_plan, predicate, schema)


def plan(expr: AlgebraExpr, parallel: Optional[Any] = None) -> PhysicalOp:
    """Translate a logical expression into a physical plan.

    With ``parallel`` (a :class:`repro.engine.parallel.FragmentScheduler`),
    eligible subtrees — σ/π/π̂ pipelines, δ, Γ on grouping attributes,
    equi-joins — are rewritten into fragment-parallel exchange operators;
    everything else plans exactly as before.  Without it (the default)
    this is the unchanged single-threaded path.
    """
    if parallel is not None:
        from repro.engine.parallel import try_parallel_plan

        parallelised = try_parallel_plan(expr, parallel)
        if parallelised is not None:
            return parallelised
    if isinstance(expr, RelationRef):
        return ScanOp(expr.name, expr.schema)
    if isinstance(expr, LiteralRelation):
        return LiteralOp(expr.relation)
    if isinstance(expr, Union):
        return UnionOp(plan(expr.left, parallel), plan(expr.right, parallel))
    if isinstance(expr, Difference):
        return DifferenceOp(plan(expr.left, parallel), plan(expr.right, parallel))
    if isinstance(expr, Intersect):
        return IntersectOp(plan(expr.left, parallel), plan(expr.right, parallel))
    if isinstance(expr, Join):
        return _plan_join(
            expr.left, expr.right, expr.condition, expr.schema, parallel
        )
    if isinstance(expr, Select):
        # Fuse sigma-over-product into a join (Theorem 3.1, physically).
        if isinstance(expr.operand, Product):
            product = expr.operand
            return _plan_join(
                product.left, product.right, expr.condition, expr.schema, parallel
            )
        child = plan(expr.operand, parallel)
        predicate = expr.condition.bind(expr.operand.schema)
        return FilterOp(predicate, child, describe=repr(expr.condition))
    if isinstance(expr, Product):
        return ProductOp(
            plan(expr.left, parallel), plan(expr.right, parallel), expr.schema
        )
    if isinstance(expr, Project):
        return ProjectOp(expr.positions, expr.schema, plan(expr.operand, parallel))
    if isinstance(expr, ExtendedProject):
        operand_schema = expr.operand.schema
        functions = [
            expression.bind(operand_schema) for expression in expr.expressions
        ]
        return MapOp(functions, expr.schema, plan(expr.operand, parallel))
    if isinstance(expr, Unique):
        return DistinctOp(plan(expr.operand, parallel))
    if isinstance(expr, GroupBy):
        return GroupByOp(
            expr.positions,
            expr.aggregate,
            expr.param_position,
            expr.schema,
            plan(expr.operand, parallel),
        )
    if hasattr(expr, "reference_evaluate"):
        return _ExtensionOp(expr)
    raise EvaluationError(f"no physical plan rule for {type(expr).__name__}")


class _ExtensionOp(PhysicalOp):
    """Physical wrapper for self-evaluating extension nodes.

    Extension operators (e.g. transitive closure) run through the
    reference evaluator; their output streams into the surrounding
    physical plan like any other operator.
    """

    __slots__ = ("expr",)
    consolidated = True  # streams straight off an evaluated relation

    def __init__(self, expr: AlgebraExpr) -> None:
        super().__init__(expr.schema)
        self.expr = expr

    def execute(self, env: dict[str, Relation]):
        from repro.engine.evaluator import evaluate

        return iter(list(evaluate(self.expr, env).pairs()))

    def label(self) -> str:
        return f"extension [{self.expr.operator_name()}]"


def plan_physical(
    expr: AlgebraExpr,
    parallel: Optional[Any] = None,
    engine: str = "pairs",
) -> PhysicalOp:
    """Plan ``expr`` for the selected physical engine.

    ``engine`` is ``"pairs"`` (the pair-stream operators) or
    ``"vector"`` (the columnar batch operators of
    :mod:`repro.engine.vector`); both honour the ``parallel``
    fragment-scheduler rewrite.
    """
    if engine == "vector":
        from repro.engine.vector import plan_vector

        return plan_vector(expr, parallel)
    if engine != "pairs":
        raise EvaluationError(f"unknown physical engine {engine!r}")
    return plan(expr, parallel)


def _collect_result(physical: PhysicalOp, env: dict[str, Relation]) -> Relation:
    """Materialise a plan's result via the engine-appropriate collect."""
    from repro.engine.iterators import collect
    from repro.engine.vector.operators import VectorOp, collect_batches

    if isinstance(physical, VectorOp):
        return collect_batches(physical, env)
    return collect(physical, env)


def execute(
    expr: AlgebraExpr,
    env: dict[str, Relation],
    parallel: Optional[Any] = None,
    engine: str = "pairs",
) -> Relation:
    """Plan and run ``expr`` on the physical engine.

    ``parallel`` optionally carries a
    :class:`repro.engine.parallel.FragmentScheduler`; the plan is then
    rewritten into fragment-parallel form (see :func:`plan`).
    ``engine`` selects the operator family: ``"pairs"`` streams
    ``(row, count)`` pairs, ``"vector"`` runs the columnar batch
    operators with compiled expression kernels
    (:mod:`repro.engine.vector`).

    While observability is enabled (:mod:`repro.obs`), the plan and
    execute stages run under trace spans and the plan is wrapped with
    the operator profiler, so the execute span carries per-operator
    row/pair counts and the ``operator.*`` metrics accumulate.  Disabled
    (the default), this is the bare plan-and-collect path.
    """
    if not obs.enabled():
        return _collect_result(plan_physical(expr, parallel, engine), env)

    from repro.engine.profiler import ProfileReport, profile_plan

    with obs.span("plan") as plan_span:
        physical = plan_physical(expr, parallel, engine)
        plan_span.set(shape=physical.explain())
        if parallel is not None:
            plan_span.set(parallel_workers=parallel.workers)
    with obs.span("execute") as execute_span:
        instrumented, profiles = profile_plan(physical)
        result = _collect_result(instrumented, env)
        report = ProfileReport(profiles)
        report.emit_metrics(obs.metrics())
        execute_span.set(
            operators=report.operator_records(),
            rows=len(result),
            pairs=result.distinct_count,
        )
    obs.add("engine.executions")
    return result
