"""The correctness gate: server answers against an independent in-process oracle.

The oracle is built from the generated rows directly (not from the seed
script), evaluates with the reference evaluator
(:func:`repro.engine.evaluate`) on the *unoptimized* expression, and
replays the acknowledged commits serially in ``logical_time`` order
through plain :class:`~repro.language.context.ExecutionContext` working
states (no cache, no optimizer, no server).  Checked:

* the acknowledged commits carry exactly the logical times
  ``start+1 … start+N`` — none lost, none duplicated;
* a seeded sample of read responses is bag-equal to the oracle's answer
  over the replayed state at the response's ``logical_time``;
* the server's final relations are bag-equal to the replay's final state.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algebra import AlgebraExpr
from repro.database import Database
from repro.domains import INTEGER, REAL, STRING
from repro.engine import evaluate
from repro.language.context import ExecutionContext
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.server.protocol import relation_from_wire
from repro.sql.parser import parse_sql
from repro.sql.translate import translate_statement
from repro.xra.parser import parse_script

from loadgen import Outcome
from workloads import Data, Request, Spec

SCHEMAS = {
    "beer": RelationSchema.of("beer", name=STRING, brewery=STRING, alcperc=REAL),
    "brewery": RelationSchema.of("brewery", name=STRING, city=STRING, country=STRING),
    "visit": RelationSchema.of("visit", drinker=STRING, beer=STRING, glasses=INTEGER),
}


def generated_database(spec: Spec, data: Data) -> Database:
    """The seed state, built from the generated rows without any parser."""
    database = Database()
    for name in spec.relations:
        database.create_relation(SCHEMAS[name], Relation(SCHEMAS[name], data.rows(name)))
    return database


def query_expression(request: Request, database: Database) -> AlgebraExpr:
    """The algebra expression a read request asks for."""
    if request.op == "sql":
        return translate_statement(parse_sql(request.text), database.schema)
    (item,) = parse_script(request.text, database.schema.get)
    return item.statement.expression


def apply_commit(request: Request, state: Dict[str, Relation],
                 database: Database) -> Dict[str, Relation]:
    """The state after one acknowledged commit, computed serially."""
    context = ExecutionContext(state)
    for item in parse_script(request.text, database.schema.get):
        item.statement.execute(context)
    return dict(context.relations)


def _normalized(relation: Relation) -> Counter:
    """Pairs with floats rounded, so an aggregate summed in another order
    (an optimized plan) still compares equal."""
    return Counter({
        tuple(round(value, 9) if isinstance(value, float) else value for value in row): count
        for row, count in relation.pairs()
    })


def bag_equal(actual: Relation, expected: Relation) -> bool:
    if actual == expected:
        return True
    return (
        [a.domain for a in actual.schema.attributes]
        == [e.domain for e in expected.schema.attributes]
        and _normalized(actual) == _normalized(expected)
    )


class GateReport:
    """Findings of one server's check; ``failures`` count as failed operations."""

    def __init__(self) -> None:
        self.failures = 0
        self.checked_reads = 0
        self.commits = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.failures += 1
        if len(self.notes) < 10:
            self.notes.append(note)


def check_server(
    spec: Spec,
    data: Data,
    start_time: int,
    outcomes: Iterable[Outcome],
    final: Dict[str, Tuple[Optional[int], Relation]],
) -> GateReport:
    """Check one server's answers; ``final`` maps relation → (time, value)."""
    report = GateReport()
    database = generated_database(spec, data)
    outcomes = list(outcomes)
    commits = sorted(
        (o for o in outcomes if o.ok and o.request.commits),
        key=lambda o: o.logical_time,
    )
    report.commits = len(commits)
    times = [o.logical_time for o in commits]
    expected_times = list(range(start_time + 1, start_time + 1 + len(commits)))
    if times != expected_times:
        report.fail("acknowledged commits are not one logical step each")
    samples = [o for o in outcomes if o.ok and o.results is not None
               and not o.request.commits]
    wanted = {o.logical_time for o in samples}
    state = dict(database.snapshot())
    states = {start_time: state} if start_time in wanted else {}
    for outcome in commits:
        state = apply_commit(outcome.request, state, database)
        if outcome.logical_time in wanted:
            states[outcome.logical_time] = state
    for outcome in samples:
        report.checked_reads += 1
        at = states.get(outcome.logical_time)
        if at is None:
            report.fail(f"read at unknown logical time {outcome.logical_time}")
            continue
        expected = evaluate(query_expression(outcome.request, database), at)
        if len(outcome.results) != 1 or not bag_equal(outcome.results[0], expected):
            report.fail(f"wrong answer at t={outcome.logical_time}: {outcome.request.text}")
    end_time = start_time + len(commits)
    for name, (logical_time, relation) in final.items():
        if logical_time != end_time:
            report.fail(f"final {name} read at t={logical_time}, expected t={end_time}")
        elif not bag_equal(relation, state[name]):
            report.fail(f"final {name} differs from the serial replay")
    return report


def fetch_final(generator, spec: Spec) -> Dict[str, Tuple[Optional[int], Relation]]:
    """Every checked relation as the server holds it after the load."""
    final = {}
    for name in spec.relations:
        response = generator.read(f"? {name};")
        final[name] = (response.get("logical_time"),
                       relation_from_wire(response["results"][0]))
    return final
