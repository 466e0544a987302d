"""Differential matrix for the vectorized columnar engine.

The vector engine (:mod:`repro.engine.vector`) is a second physical
operator family over the same algebra; nothing about it may be
observable through results.  Three layers of evidence:

* **per-operator** — for every operator the planner can vectorize (and
  the pair-stream fallbacks it interoperates with), the vector result
  must be bag-equal to the reference evaluator and the pairs engine,
  including with a tiny batch size that forces chunk boundaries through
  every operator;
* **random plans** — the :mod:`repro.testing` expression fuzzer, run
  through the vector engine raw and optimized (the same corpus
  ``tests/test_differential.py`` pins the pairs engine with);
* **compiled vs. interpreted** — the expression compiler must agree
  with the AST interpreter on edge values: division by zero routes to
  the same :class:`~repro.errors.DivisionByZeroError`, and MONEY
  arithmetic (which the compiler refuses to lower) falls back to the
  interpreter without changing results.

Plus wiring smoke: engine selection on sessions/transactions, the
query cache, EXPLAIN ANALYZE labels, the parallel scheduler, and the
CLI ``.engine`` meta-command; and the kernel memo: kernels that differ
only in their constants share code but never constants, also under
concurrent planning and behind the query server (which runs this
engine by default).
"""

import io
import random
import threading
from collections import Counter
from decimal import Decimal

import pytest

from repro.aggregates import AVG, CNT, SUM
from repro.algebra import (
    Difference,
    ExtendedProject,
    GroupBy,
    Intersect,
    Join,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
    Unique,
)
from repro.algebra.base import as_attr_list
from repro.database import Database
from repro.domains import BOOLEAN, INTEGER, MONEY, REAL, STRING
from repro.engine import evaluate, execute, make_scheduler
from repro.engine.vector import (
    VFilterOp,
    VGroupByOp,
    VHashJoinOp,
    collect_batches,
    plan_vector,
)
from repro.errors import (
    DivisionByZeroError,
    EmptyAggregateError,
    UnboundAttributeError,
)
from repro.expressions import Compare, Neg, col, lit
from repro.expressions.compile import (
    compile_filter_kernel,
    compile_filter_kernel_rows,
    compile_map_kernel,
    compile_map_kernel_rows,
    compile_row,
)
from repro.language import Session
from repro.optimizer import optimize
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.server import ServerConfig, serve_in_background
from repro.server.client import ServerClient
from repro.testing import ExpressionGenerator, random_environment
from repro.workloads import BeerWorkload
from repro.xra.parser import parse_script

SEEDS = list(range(40))

#: A batch size small enough that every 50-row table spans several
#: batches — chunk-boundary bugs cannot hide behind "fits in one batch".
TINY_BATCH = 7


@pytest.fixture(scope="module")
def env():
    return random_environment(tables=3, size=50, degree=2, value_space=5, seed=7)


def _operator_cases(env):
    """One hand-built expression per operator/translation rule."""
    t1, t2, t3 = (RelationRef(name, env[name].schema) for name in ("t1", "t2", "t3"))
    return {
        "scan": t1,
        "select": Select(col(1).ge(lit(2)), t1),
        "select-stack": Select(col(1).ge(lit(2)), Select(col(2).le(lit(4)), t1)),
        "select-arith": Select((col(1) * lit(2) + col(2)).gt(lit(5)), t1),
        "project": Project(as_attr_list([2]), t1),
        "project-swap": Project(as_attr_list([2, 1]), t1),
        "xproject": ExtendedProject([col(1) + col(2), col(2)], t1),
        "union": Union(t1, t2),
        "difference": Difference(t1, t2),
        "intersect": Intersect(t1, t2),
        "equi-join": Join(t1, t2, col(1).eq(col(3))),
        "equi-join-residual": Join(
            t1, t2, col(1).eq(col(3)).and_(col(2).lt(col(4)))
        ),
        "theta-join": Join(t1, t2, col(1).lt(col(3))),
        "select-product": Select(col(1).eq(col(3)), Product(t1, t2)),
        "product": Product(t1, t2),
        "distinct": Unique(t1),
        "group-count": GroupBy([1], CNT, 2, t1),
        "group-sum": GroupBy([1], SUM, 2, t1),
        "group-avg": GroupBy([1], AVG, 2, t1),
        "group-scalar": GroupBy(None, SUM, 1, t1),
        "project-join": Project(
            as_attr_list([1, 4]), Join(t1, t2, col(2).eq(col(3)))
        ),
        "pipeline": Project(
            as_attr_list([1, 3]),
            Select(col(2).ge(lit(2)), Join(t1, Unique(t3), col(1).eq(col(3)))),
        ),
    }


OPERATOR_CASE_NAMES = sorted(
    _operator_cases(random_environment(tables=3, size=2, degree=2, seed=7))
)


@pytest.mark.parametrize("name", OPERATOR_CASE_NAMES)
def test_operator_agrees_with_both_engines(env, name):
    expr = _operator_cases(env)[name]
    reference = evaluate(expr, env)
    assert execute(expr, env) == reference, f"pairs != reference for {name}"
    assert execute(expr, env, engine="vector") == reference, (
        f"vector != reference for {name}"
    )
    chunked = collect_batches(plan_vector(expr, None, TINY_BATCH), env)
    assert chunked == reference, f"tiny batches diverge for {name}"


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_agree(env, seed):
    generator = ExpressionGenerator(env, seed=seed, max_depth=5)
    expr = generator.expression()
    try:
        reference = evaluate(expr, env)
    except EmptyAggregateError:
        # Partial aggregates on an empty bag are defined behaviour
        # (Definition 3.3); the vector engine must refuse alike.
        with pytest.raises(EmptyAggregateError):
            execute(expr, env, engine="vector")
        return
    assert execute(expr, env, engine="vector") == reference, (
        f"vector != reference for {expr!r}"
    )
    assert execute(optimize(expr), env, engine="vector") == reference, (
        f"vector diverges on optimized {expr!r}"
    )


class TestCompiledVsInterpreted:
    """The compiler and the AST interpreter must be indistinguishable."""

    SCHEMA = RelationSchema("r", [("a", INTEGER), ("b", INTEGER)])

    @pytest.mark.parametrize(
        "expr",
        [
            col(1) + col(2),
            col(1) - lit(3) * col(2),
            (col(1) * lit(3)).ge(col(2)),
            Neg(col(1)),
            col(1).eq(col(2)).or_(col(1).lt(lit(0))),
            col(1).gt(lit(0)).and_(col(2).le(lit(5))).not_(),
            col(1) / col(2),
        ],
        ids=repr,
    )
    def test_compiled_matches_interpreter(self, expr):
        compiled = compile_row(expr, self.SCHEMA)
        interpreted = expr.bind(self.SCHEMA)
        for row in [(4, 2), (0, 3), (-7, 5), (6, -2)]:
            assert compiled(row) == interpreted(row), (expr, row)

    def test_division_by_zero_agrees(self):
        expr = col(1) / col(2)
        compiled = compile_row(expr, self.SCHEMA)
        interpreted = expr.bind(self.SCHEMA)
        with pytest.raises(DivisionByZeroError):
            compiled((1, 0))
        with pytest.raises(DivisionByZeroError):
            interpreted((1, 0))

    def test_division_by_zero_routing_through_engines(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        expr = Select((col(1) / (col(2) - col(2))).gt(lit(0)), t1)
        with pytest.raises(DivisionByZeroError):
            evaluate(expr, env)
        with pytest.raises(DivisionByZeroError):
            execute(expr, env)
        with pytest.raises(DivisionByZeroError):
            execute(expr, env, engine="vector")

    def test_money_arithmetic_falls_back_to_interpreter(self):
        schema = RelationSchema("price", [("item", STRING), ("amount", MONEY)])
        relation = Relation.from_pairs(
            schema,
            [
                (("a", Decimal("1.10")), 2),
                (("b", Decimal("2.35")), 1),
                (("c", Decimal("0.99")), 3),
            ],
        )
        env = {"price": relation}
        expr = Select(
            (col(2) + col(2)).gt(lit(Decimal("2.00"))),
            RelationRef("price", schema),
        )
        plan = plan_vector(expr)
        assert isinstance(plan, VFilterOp)
        assert plan.kernel is None, "MONEY arithmetic must refuse to lower"
        assert "(interpreted)" in plan.label()
        assert collect_batches(plan, env) == evaluate(expr, env)


class TestPlanShapes:
    """Vector-specific planner rewrites, pinned structurally."""

    def test_selection_stack_fuses_to_one_filter(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        expr = Select(col(1).ge(lit(2)), Select(col(2).le(lit(4)), t1))
        plan = plan_vector(expr)
        assert isinstance(plan, VFilterOp)
        assert not isinstance(plan.child, VFilterOp)

    def test_project_into_join_fusion(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)
        expr = Project(as_attr_list([1, 4]), Join(t1, t2, col(1).eq(col(3))))
        plan = plan_vector(expr)
        assert isinstance(plan, VHashJoinOp)
        assert tuple(plan.output_positions) == (0, 3)
        assert "+project" in plan.label()
        assert collect_batches(plan, env) == evaluate(expr, env)

    def test_group_by_fold_selection(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        assert plan_vector(GroupBy([1], CNT, 2, t1)).fold == "count"
        # SUM over an INTEGER parameter re-associates exactly.
        assert plan_vector(GroupBy([1], SUM, 2, t1)).fold == "sum"
        # AVG has no fold (measured slower than the bag path).
        assert plan_vector(GroupBy([1], AVG, 2, t1)).fold == "bag"

    def test_real_sum_stays_on_bag_path(self):
        # Float addition is order-sensitive; only the bag path replays
        # the pairs engine's accumulation order bit for bit.
        schema = RelationSchema("m", [("k", INTEGER), ("x", REAL)])
        relation = Relation.from_pairs(
            schema,
            [((i % 3, (i * 0.1) ** 2), 1 + i % 2) for i in range(30)],
        )
        env = {"m": relation}
        expr = GroupBy([1], SUM, 2, RelationRef("m", schema))
        plan = plan_vector(expr)
        assert isinstance(plan, VGroupByOp)
        assert plan.fold == "bag"
        reference = evaluate(expr, env)
        assert collect_batches(plan, env) == reference
        assert execute(expr, env) == reference


class TestEngineWiring:
    """Session/cache/analyze/parallel/CLI smoke on the vector engine."""

    @pytest.fixture()
    def database(self, env):
        db = Database()
        for relation in env.values():
            db.create_relation(relation.schema.strict(), relation)
        return db

    def _query(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)
        return Project(as_attr_list([1, 4]), Join(t1, t2, col(1).eq(col(3))))

    def test_session_engines_agree_and_cache_serves(self, env, database):
        expr = self._query(env)
        pairs = Session(database, engine="pairs")
        vector = Session(database, engine="vector", cache=True)
        expected = pairs.query(expr)
        assert vector.query(expr) == expected
        assert vector.query(expr) == expected  # served from cache
        assert vector.cache.stats.result_hits >= 1

    def test_engine_validation(self, database):
        with pytest.raises(ValueError):
            Session(database, engine="columnar")
        with pytest.raises(ValueError):
            Session(database, use_physical_engine=False, engine="vector")
        session = Session(database, use_physical_engine=False)
        with pytest.raises(ValueError):
            session.set_engine("vector")

    def test_transaction_queries_on_vector(self, env, database):
        session = Session(database, engine="vector")
        expr = self._query(env)
        with session.transaction() as txn:
            inside = txn.query(expr)
        assert inside == evaluate(expr, database.snapshot())

    def test_explain_analyze_annotates_vector_operators(self, env, database):
        session = Session(database, engine="vector")
        expr = self._query(env)
        report = session.explain_analyze(expr)
        assert report.find("v-hash-join")
        assert report.find("v-scan")
        assert report.result == evaluate(expr, database.snapshot())

    def test_parallel_scheduler_interop(self, env):
        expr = self._query(env)
        scheduler = make_scheduler(2, "serial")
        try:
            result = execute(expr, env, parallel=scheduler, engine="vector")
        finally:
            scheduler.close()
        assert result == evaluate(expr, env)

    def test_cli_engine_meta_command(self, database):
        from repro.cli import Shell

        out, err = io.StringIO(), io.StringIO()
        shell = Shell(database, out=out, err=err)
        shell.handle_meta(".engine vector")
        shell.run(io.StringIO("? sel[%1 >= 2](t1);\n"))
        assert "engine: vector" in out.getvalue()
        assert "tuple(s)" in out.getvalue()
        assert not err.getvalue()


class TestKernelMemo:
    """Constants are lifted out of kernel source; code is keyed by shape.

    Kernels that differ only in their constants share one code object
    from the memo but each runs in its own scope, so sharing code must
    never mean sharing constants, error routing, or answers.
    """

    SCHEMA = RelationSchema("r", [("a", INTEGER), ("b", INTEGER)])
    COLUMNS = ([4, 0, -7, 6, 2], [2, 3, 5, -2, 2])
    ROWS = list(zip(*COLUMNS))

    def test_filters_differing_in_constants_share_code(self):
        kernels = {
            bound: compile_filter_kernel(col(1).gt(lit(bound)), self.SCHEMA)
            for bound in (-1, 1, 5)
        }
        row_kernels = {
            bound: compile_filter_kernel_rows(col(1).gt(lit(bound)), self.SCHEMA)
            for bound in (-1, 1, 5)
        }
        assert len({kernel.__code__ for kernel in kernels.values()}) == 1
        assert len({kernel.__code__ for kernel in row_kernels.values()}) == 1
        for _ in range(2):  # interleaved: no kernel sees another's bound
            for bound in (5, -1, 1):
                expected = [i for i, row in enumerate(self.ROWS) if row[0] > bound]
                assert list(kernels[bound](self.COLUMNS, 5)) == expected
                assert list(row_kernels[bound](self.ROWS, 5)) == expected

    def test_maps_differing_in_constants_share_code(self):
        offsets = (1, 10, -3)
        kernels = [
            compile_map_kernel([col(1) * lit(k) + col(2), lit(k)], self.SCHEMA)
            for k in offsets
        ]
        row_kernels = [
            compile_map_kernel_rows([col(1) * lit(k) + col(2)], self.SCHEMA)
            for k in offsets
        ]
        assert kernels[0].__code__ is kernels[1].__code__ is kernels[2].__code__
        assert row_kernels[0].__code__ is row_kernels[2].__code__
        for k, kernel, row_kernel in reversed(list(zip(offsets, kernels, row_kernels))):
            computed, constant = kernel(self.COLUMNS, 5)
            assert computed == [a * k + b for a, b in self.ROWS]
            assert constant == [k] * 5
            assert row_kernel(self.ROWS, 5) == [(a * k + b,) for a, b in self.ROWS]

    @pytest.mark.parametrize(
        "domain, values, constant",
        [
            (STRING, ["O'Brien", 'say "hi"', "back\\slash", "x"], "O'Brien"),
            (STRING, ["O'Brien", 'say "hi"', "back\\slash", "x"], 'say "hi"'),
            (STRING, ["O'Brien", 'say "hi"', "back\\slash", "x"], "back\\slash"),
            (BOOLEAN, [True, False, True], True),
            (BOOLEAN, [True, False, True], False),
            (REAL, [1.5, -2.0, float("inf"), float("-inf")], float("inf")),
            (REAL, [1.5, -2.0, float("inf"), float("-inf")], float("-inf")),
            (REAL, [1.5, -2.0, float("inf")], float("nan")),
            (MONEY, [Decimal("1.10"), Decimal("2.35")], Decimal("2.00")),
        ],
        ids=repr,
    )
    def test_edge_constants_stay_right(self, domain, values, constant):
        schema = RelationSchema("e", [("v", domain)])
        rows = [(value,) for value in values]
        n = len(rows)
        ops = ("=", "<>") if domain in (STRING, BOOLEAN) else ("=", "<>", "<", ">=")
        for op in ops:
            expr = Compare(op, col(1), lit(constant))
            interpreted = expr.bind(schema)
            expected = [i for i, row in enumerate(rows) if interpreted(row)]
            assert list(compile_filter_kernel(expr, schema)((values,), n)) == expected
            assert list(compile_filter_kernel_rows(expr, schema)(rows, n)) == expected
            compiled = compile_row(expr, schema)
            assert [compiled(row) for row in rows] == [interpreted(row) for row in rows]
        # The constant itself survives lifting (repr, because NaN != NaN).
        mapped = compile_map_kernel_rows([lit(constant)], schema)(rows, n)
        assert [repr(value) for (value,) in mapped] == [repr(lit(constant).value)] * n

    def test_memo_hit_kernel_still_raises_division_by_zero(self):
        safe = compile_map_kernel([col(1) / lit(2)], self.SCHEMA)
        unsafe = compile_map_kernel([col(1) / lit(0)], self.SCHEMA)
        assert safe.__code__ is unsafe.__code__
        assert safe(self.COLUMNS, 5) == ([a / 2 for a, _ in self.ROWS],)
        with pytest.raises(DivisionByZeroError):
            unsafe(self.COLUMNS, 5)
        row_safe = compile_row(col(2) / lit(4), self.SCHEMA)
        row_unsafe = compile_row(col(2) / lit(0), self.SCHEMA)
        assert row_safe.__code__ is row_unsafe.__code__
        assert row_safe((1, 2)) == 0.5
        with pytest.raises(DivisionByZeroError):
            row_unsafe((1, 2))

    def test_memo_hit_kernel_still_raises_unbound_attribute(self):
        first = compile_row(col(2) + lit(1), self.SCHEMA)
        second = compile_row(col(2) + lit(7), self.SCHEMA)
        assert first.__code__ is second.__code__
        assert (first((0, 1)), second((0, 1))) == (2, 8)
        with pytest.raises(UnboundAttributeError):
            second((0,))

    def test_concurrent_planning_with_different_constants(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)

        def shapes(low, high):
            return [
                Select(col(1).ge(lit(low)).and_(col(2).lt(lit(high))), t1),
                ExtendedProject([col(1) * lit(high) - lit(low), col(2)], t1),
                Project(
                    as_attr_list([1, 4]),
                    Select(col(2).gt(lit(low)), Join(t1, t2, col(1).eq(col(3)))),
                ),
                GroupBy([1], SUM, 2, Select(col(2).le(lit(high)), t1)),
            ]

        failures = []

        def worker(seed):
            try:
                for round_ in range(6):
                    low, high = seed % 4, 2 + (seed + round_) % 4
                    for expr in shapes(low, high):
                        assert execute(expr, env, engine="vector") == evaluate(
                            expr, env
                        ), (seed, round_, expr)
            except BaseException as error:  # reported by the assert below
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[0]


class TestServerDefaultsToVector:
    """The query server plans every request on the vector engine."""

    def test_default_engine_is_vector(self):
        assert ServerConfig().engine == "vector"

    def test_served_examples_agree_with_the_evaluator(self):
        database = BeerWorkload(beers=300, breweries=20).database()
        rng = random.Random(1994)
        handle = serve_in_background(database, ServerConfig())
        try:
            with ServerClient(*handle.address) as client:
                for _ in range(6):
                    low = round(rng.uniform(0.5, 8.5), 2)
                    high = round(low + rng.uniform(2.95, 3.05), 2)
                    country = rng.choice(["Netherlands", "Belgium", "Germany"])
                    for text in (
                        f"proj[%1](sel[%6 = '{country}' and %3 > {low} "
                        f"and %3 < {high}](join[%2 = %4](beer, brewery)))",
                        f"groupby[(country), AVG, alcperc](sel[%3 > {low} "
                        f"and %3 < {high}](join[%2 = %4](beer, brewery)))",
                    ):
                        (served,) = client.xra(f"? {text};")
                        (item,) = parse_script(f"? {text};", database.schema.get)
                        expected = evaluate(
                            item.statement.expression, database.snapshot()
                        )
                        assert _rounded(served) == _rounded(expected), text
        finally:
            handle.stop()


def _rounded(relation):
    """Pairs with floats rounded (aggregates may sum in another order)."""
    return Counter(
        {
            tuple(round(v, 9) if isinstance(v, float) else v for v in row): count
            for row, count in relation.pairs()
        }
    )
