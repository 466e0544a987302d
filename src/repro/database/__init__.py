"""Database instances, states, logical time, and transitions (Defs 2.5/2.6)."""

from repro.database.database import HISTORY_WINDOW, Database, DatabaseState
from repro.database.persist import load_database, save_database
from repro.database.transitions import DatabaseTransition

__all__ = [
    "Database",
    "DatabaseState",
    "DatabaseTransition",
    "HISTORY_WINDOW",
    "save_database",
    "load_database",
]
