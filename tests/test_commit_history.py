"""Signed-delta transitions and the bounded commit history.

A committed transition is stored as the signed per-relation deltas of
Definition 2.6's pair ``(D^t, D^{t+1})``, and the database keeps only the
last :data:`~repro.database.HISTORY_WINDOW` of them.  These tests pin the
three properties that make that representation trustworthy:

* the recorded delta of every commit is exactly the bag difference of
  the states before and after it;
* a relation's epoch moves exactly when its delta is non-empty;
* walking the window's deltas backwards from the current state rebuilds
  every retained ``D^t``;

and that the history (and so memory) stays bounded under sustained
writes.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import LiteralRelation, RelationRef, Select
from repro.database import HISTORY_WINDOW, Database, DatabaseTransition
from repro.language import (
    Assign,
    Delete,
    ExecutionContext,
    Insert,
    Statement,
    Transaction,
    Update,
)
from repro.relation import Relation
from repro.workloads.synthetic import int_schema

SCHEMA = int_schema(2)
BASE = ("r", "s")

Counts = Dict[tuple, int]


def counts(relation: Relation) -> Counts:
    return dict(relation.pairs())


def state_counts(database: Database) -> Dict[str, Counts]:
    return {name: counts(database[name]) for name in database.names()}


def bag_diff(before: Counts, after: Counts) -> Counts:
    rows = before.keys() | after.keys()
    delta = {row: after.get(row, 0) - before.get(row, 0) for row in rows}
    return {row: change for row, change in delta.items() if change}


def unapply(state: Counts, delta: Counts) -> Counts:
    """``state − delta`` over ℤ, dropping zero entries."""
    result = dict(state)
    for row, change in delta.items():
        result[row] = result.get(row, 0) - change
        if result[row] == 0:
            del result[row]
    return result


def seeded_database(rows_r, rows_s) -> Database:
    database = Database()
    database.create_relation(int_schema(2, "r"), Relation(SCHEMA, rows_r))
    database.create_relation(int_schema(2, "s"), Relation(SCHEMA, rows_s))
    return database


def ref(name: str) -> RelationRef:
    return RelationRef(name, SCHEMA)


def literal(rows) -> LiteralRelation:
    return LiteralRelation(Relation(SCHEMA, rows))


# -- random programs ------------------------------------------------------

values = st.integers(0, 3)
rows = st.lists(st.tuples(values, values), max_size=4)


@st.composite
def transactions(draw) -> List[Statement]:
    """One transaction: an optional temporary, then writes to any target."""
    statements: List[Statement] = []
    targets = list(BASE)
    if draw(st.booleans()):
        statements.append(
            Assign("tmp", Select(f"%1 = {draw(values)}", ref(draw(st.sampled_from(BASE)))))
        )
        targets.append("tmp")
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(targets))
        kind = draw(st.sampled_from(["insert", "delete", "delete-where", "update", "revert"]))
        if kind == "insert":
            statements.append(Insert(target, literal(draw(rows))))
        elif kind == "delete":
            statements.append(Delete(target, literal(draw(rows))))
        elif kind == "delete-where":
            statements.append(Delete(target, Select(f"%1 = {draw(values)}", ref(target))))
        elif kind == "update":
            step = draw(st.sampled_from(["+ 1", "- 1", "* 0"]))
            statements.append(
                Update(target, Select(f"%1 = {draw(values)}", ref(target)), ["%1", f"%2 {step}"])
            )
        else:
            # An update and its exact inverse: a net-zero write.
            statements.append(Update(target, ref(target), ["%1", "%2 + 1"]))
            statements.append(Update(target, ref(target), ["%1", "%2 - 1"]))
    return statements


programs = st.lists(transactions(), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(rows, rows, programs)
def test_deltas_epochs_and_history_agree_with_the_states(rows_r, rows_s, program):
    database = seeded_database(rows_r, rows_s)
    # A twin commits the same working states without deltas, so install
    # must derive them; both paths have to record the same transitions.
    twin = seeded_database(rows_r, rows_s)
    states = {database.logical_time: state_counts(database)}
    for statements in program:
        before = state_counts(database)
        epochs = database.epochs()
        result = Transaction(statements).run(database)
        assert result.committed
        after = state_counts(database)
        states[database.logical_time] = after

        expected = {
            name: bag_diff(before[name], after[name]) for name in BASE
        }
        expected = {name: delta for name, delta in expected.items() if delta}
        assert result.transition.deltas == expected
        for name in BASE:
            moved = database.epoch(name) - epochs[name]
            assert moved == (1 if name in expected else 0), name

        context = ExecutionContext(twin.snapshot())
        for statement in statements:
            statement.execute(context)
        assert context.deltas.keys() <= set(BASE)  # temporaries get none
        assert twin.install(context.relations).deltas == expected

    current = state_counts(database)
    for transition in reversed(database.transitions):
        assert states[transition.time_after] == current
        current = {
            name: unapply(current[name], transition.deltas.get(name, {}))
            for name in BASE
        }
        assert current == states[transition.time_before]


def test_net_zero_transaction_commits_without_moving_the_epoch():
    database = seeded_database([(1, 1), (1, 1), (2, 5)], [(0, 0)])
    epoch = database.epoch("r")
    result = Transaction(
        [
            Update("r", ref("r"), ["%1", "%2 + 1"]),
            Update("r", ref("r"), ["%1", "%2 - 1"]),
        ]
    ).run(database)
    assert result.committed
    assert database.logical_time == 1
    assert result.transition.deltas == {}
    assert database.epoch("r") == epoch


def test_transition_from_two_states_keeps_only_the_deltas():
    before = {"r": Relation(SCHEMA, [(1, 1), (1, 1), (2, 2)])}
    after = {"r": Relation(SCHEMA, [(1, 1), (3, 3)]), "u": Relation(SCHEMA, [(4, 4)])}
    transition = DatabaseTransition(before, after, 0, 1)
    assert transition.deltas == {
        "r": {(1, 1): -1, (2, 2): -1, (3, 3): 1},
        "u": {(4, 4): 1},
    }
    assert not hasattr(transition, "before")
    assert not hasattr(transition, "after")


def test_history_stops_at_the_window_and_still_walks_back():
    database = seeded_database([], [])
    states = {0: state_counts(database)}
    for value in range(HISTORY_WINDOW + 20):
        Transaction([Insert("r", literal([(value % 4, value % 3)]))]).run(database)
        states[database.logical_time] = state_counts(database)
    window = database.transitions
    assert len(window) == HISTORY_WINDOW
    assert window[0].time_before == 20
    assert window[-1].time_after == database.logical_time
    current = state_counts(database)
    for transition in reversed(window):
        current = {
            name: unapply(current[name], transition.deltas.get(name, {}))
            for name in BASE
        }
        assert current == states[transition.time_before]


def test_sustained_single_row_updates_keep_memory_flat():
    size = 2000
    database = Database()
    database.create_relation(
        int_schema(2, "big"), Relation(SCHEMA, [(key, 0) for key in range(size)])
    )
    current = [0] * size
    growth_from = 500
    baseline = None
    try:
        for commit in range(3000):
            if commit == growth_from:
                gc.collect()
                tracemalloc.start()
                baseline = tracemalloc.get_traced_memory()[0]
            key = (commit * 7) % size
            Transaction(
                [Update("big", literal([(key, current[key])]), ["%1", "%2 + 1"])]
            ).run(database)
            current[key] += 1
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert sorted(database["big"].pairs()) == [
        ((key, value), 1) for key, value in enumerate(current)
    ]
    assert growth < 1024 * 1024, f"grew {growth / 1024:.0f} KiB"
