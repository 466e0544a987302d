"""Database transitions (Definition 2.6), stored as signed deltas.

A transition is an ordered pair of database states ``(D^{t1}, D^{t2})``
with ``t1 < t2``; the common case — and what committed transactions
produce — is the single-step transition ``t2 = t1 + 1``.

The pair is not kept as two whole states.  A transition holds, for each
relation that changed, its *signed delta*: a ``tuple -> ±count`` map
with ``D^{t2}.R(x) = D^{t1}.R(x) + delta(x)`` and no zero entries.  This
is Def 2.6's pair restricted to what changed, i.e. the ring (ℤ) case of
a bag difference.  Either state can be rebuilt from the other one and
the delta, so nothing is lost, and a commit that rewrites 14 tuples of a
2000-tuple relation keeps 28 entries alive instead of two whole bags.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relation import Relation
    from repro.tuples import Row

__all__ = ["DatabaseTransition", "Delta", "diff_states"]

#: A signed delta of one relation: ``tuple -> ±count``, no zero entries.
Delta = Dict["Row", int]


def diff_states(
    before: Mapping[str, "Relation"], after: Mapping[str, "Relation"]
) -> Dict[str, Delta]:
    """The non-empty signed delta of every relation that changed.

    Only names whose relation *object* differs between the states are
    diffed (statements never mutate a relation, they replace it); a name
    present on one side only is diffed against the empty bag.
    """
    deltas: Dict[str, Delta] = {}
    for name in before.keys() | after.keys():
        old = before.get(name)
        new = after.get(name)
        if old is new:
            continue
        delta = _diff_counts(_counts(old), _counts(new))
        if delta:
            deltas[name] = delta
    return deltas


def _counts(relation: Optional["Relation"]) -> Mapping["Row", int]:
    return {} if relation is None else relation.tuples.to_dict()


def _diff_counts(old: Mapping["Row", int], new: Mapping["Row", int]) -> Delta:
    # The items' symmetric difference runs at C speed and yields exactly
    # the tuples whose multiplicity differs.
    changed = {row for row, _count in old.items() ^ new.items()}
    return {row: new.get(row, 0) - old.get(row, 0) for row in changed}


class DatabaseTransition:
    """A transition ``(D^{t1}, D^{t2})`` kept as per-relation signed deltas."""

    __slots__ = ("deltas", "time_before", "time_after")

    def __init__(
        self,
        before: Mapping[str, "Relation"],
        after: Mapping[str, "Relation"],
        time_before: int,
        time_after: int,
    ) -> None:
        _check_times(time_before, time_after)
        #: ``{name: signed delta}`` for exactly the changed relations
        #: (treat as read-only).
        self.deltas: Dict[str, Delta] = diff_states(before, after)
        self.time_before = time_before
        self.time_after = time_after

    @classmethod
    def from_deltas(
        cls, deltas: Mapping[str, Delta], time_before: int, time_after: int
    ) -> "DatabaseTransition":
        """Record copies of already-computed deltas; empty ones are dropped."""
        _check_times(time_before, time_after)
        transition = cls.__new__(cls)
        transition.deltas = {
            name: dict(delta) for name, delta in deltas.items() if delta
        }
        transition.time_before = time_before
        transition.time_after = time_after
        return transition

    @property
    def is_single_step(self) -> bool:
        """True for the usual ``t2 = t1 + 1`` transition."""
        return self.time_after == self.time_before + 1

    def changed_relations(self) -> list[str]:
        """Names whose instance differs between the two states."""
        return sorted(self.deltas)

    def __repr__(self) -> str:
        changed = ", ".join(self.changed_relations()) or "nothing"
        return (
            f"<Transition t{self.time_before}->t{self.time_after} "
            f"changed: {changed}>"
        )


def _check_times(time_before: int, time_after: int) -> None:
    if time_before >= time_after:
        raise ValueError(
            f"transition requires t1 < t2, got {time_before} >= {time_after}"
        )
