"""Seeded inputs for the query-server benchmark: data, seed script, requests.

Everything here is a pure function of the workload seed.  The benchmark
generates the beer/brewery rows itself (rather than through
``repro.workloads``) so that a change to the program can never change the
benchmark's inputs.

A workload is a :class:`Spec`: relation sizes, the open-loop arrival rate,
and a request mix.  :class:`RequestStream` turns a spec and a seed into an
endless, deterministic sequence of :class:`Request` values.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

COUNTRIES = ["Netherlands", "Belgium", "Germany", "Czechia", "Ireland", "Denmark"]
NAME_STEMS = ["Pils", "Bock", "Tripel", "Dubbel", "Lager", "Stout",
              "Witbier", "Saison", "Alt", "Kolsch", "Porter", "Quadrupel"]

BEER_DDL = "create beer (name: string, brewery: string, alcperc: real);"
BREWERY_DDL = "create brewery (name: string, city: string, country: string);"
VISIT_DDL = "create visit (drinker: string, beer: string, glasses: integer);"

#: Rows per ``insert(…, tuples[…])`` statement in the seed script.
SEED_CHUNK = 2000


@dataclass(frozen=True)
class Spec:
    """One workload: data sizes, open-loop rate and request mix."""

    name: str
    why: str
    beers: int
    breweries: int
    #: Poisson arrival rate of the open-loop blocks (operations/second).
    rate: float
    #: Closed-loop completions per second at the parent commit on a 2-core
    #: host; sizes the fixed-length closed-loop rounds.
    closed_rate: float
    #: Zipf exponent over breweries (oltp) or query texts (dashboard).
    zipf: float
    #: Request kinds and their shares of the stream.
    mix: Tuple[Tuple[str, float], ...]
    #: Relations the end-of-run correctness check fetches and compares.
    relations: Tuple[str, ...] = ("beer", "brewery")


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="oltp-write",
            why="point reads and ~30% commits on a 2000-row bag: install, "
            "write-lock contention, invalidation and per-request parse "
            "and protocol dominate, not the engine",
            beers=2000,
            breweries=100,
            rate=60.0,
            closed_rate=450.0,
            zipf=1.1,
            mix=(
                ("point-xra", 0.35),
                ("point-sql", 0.35),
                ("update", 0.18),
                ("insert-or-delete", 0.06),
                ("txn-update", 0.06),
            ),
        ),
        Spec(
            name="analytic-read",
            why="joins, grouping and duplicate removal with two random "
            "constants per query: the engine and optimizer do the work and "
            "the result cache is bypassed; commits touch only a side relation",
            beers=1200,
            breweries=30,
            rate=20.0,
            closed_rate=150.0,
            zipf=0.0,
            mix=(
                ("ex31-names", 0.15),
                ("ex32-avg", 0.25),
                ("unique-proj", 0.10),
                ("ex32-sql", 0.25),
                ("visit-insert", 0.25),
            ),
            relations=("beer", "brewery", "visit"),
        ),
        Spec(
            name="dashboard-mixed",
            why="40 Zipf-chosen query texts returning hundreds of rows, "
            "plus 5% writes invalidating a few of them: result-cache hits, "
            "wire encode/decode and epoch invalidation dominate",
            beers=20000,
            breweries=300,
            rate=40.0,
            closed_rate=300.0,
            zipf=1.2,
            mix=(
                ("dashboard", 0.95),
                ("dashboard-write", 0.05),
            ),
        ),
    )
}


# -- data ---------------------------------------------------------------------


@dataclass
class Data:
    """The generated base relations, as plain rows."""

    beer: List[Tuple[str, str, float]]
    brewery: List[Tuple[str, str, str]]
    visit: List[Tuple[str, str, int]] = field(default_factory=list)

    def rows(self, name: str) -> list:
        return getattr(self, name)


def brewery_name(index: int) -> str:
    return f"B{index:04d}"


def generate_data(spec: Spec, seed: int) -> Data:
    """Beer/brewery rows with the paper's shape: shared names, duplicates."""
    rng = random.Random(f"{spec.name}/data/{seed}")
    # Countries in fixed proportions (35% Dutch, the rest round-robin), so
    # the selectivity of a country filter does not change with the seed.
    countries = [
        "Netherlands" if index % 20 < 7 else COUNTRIES[1 + index % 5]
        for index in range(spec.breweries)
    ]
    rng.shuffle(countries)
    brewery = [
        (brewery_name(index), f"City-{rng.randrange(200)}", country)
        for index, country in enumerate(countries)
    ]
    names = [f"{rng.choice(NAME_STEMS)}-{k}" for k in range(max(40, spec.beers // 50))]
    beer: List[Tuple[str, str, float]] = []
    for _ in range(spec.beers):
        if beer and rng.random() < 0.2:
            beer.append(rng.choice(beer))  # a true bag duplicate
            continue
        beer.append(
            (
                rng.choice(names),
                brewery_name(rng.randrange(spec.breweries)),
                round(rng.uniform(0.5, 12.0), 1),
            )
        )
    return Data(beer=beer, brewery=brewery)


def literal(value: object) -> str:
    """An XRA literal; reals always carry a decimal point."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def tuples_literal(rows: List[tuple]) -> str:
    return "tuples[" + "; ".join(
        "(" + ", ".join(literal(value) for value in row) + ")" for row in rows
    ) + "]"


def seed_script(spec: Spec, data: Data) -> str:
    """DDL plus bulk inserts that load ``data`` into a fresh server."""
    lines = [BEER_DDL, BREWERY_DDL]
    if "visit" in spec.relations:
        lines.append(VISIT_DDL)
    for name in spec.relations:
        rows = data.rows(name)
        for start in range(0, len(rows), SEED_CHUNK):
            chunk = rows[start:start + SEED_CHUNK]
            lines.append(f"insert({name}, {tuples_literal(chunk)});")
    return "\n".join(lines) + "\n"


# -- requests -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One client operation.

    ``kind`` is ``"read"`` (a non-committing query), ``"write"`` (an
    auto-commit statement) or ``"txn"`` (``text`` runs inside an explicit
    ``begin``/``commit`` bracket, retried on conflict).
    """

    kind: str
    op: str
    text: str

    @property
    def commits(self) -> bool:
        return self.kind != "read"


class Zipf:
    """Draws 0..n-1 with P(rank k) ∝ 1/(k+1)^s.

    With ``shuffle`` the values are assigned to ranks by a seeded
    permutation; without it value k has rank k.
    """

    def __init__(self, n: int, s: float, rng: random.Random,
                 shuffle: bool = True) -> None:
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        self._cumulative = list(itertools.accumulate(weights))
        self._order = list(range(n))
        if shuffle:
            rng.shuffle(self._order)
        self._rng = rng

    def draw(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        index = bisect.bisect_right(self._cumulative, point)
        return self._order[min(index, len(self._order) - 1)]


def _alc(rng: random.Random, low: float = 0.5, high: float = 12.0) -> float:
    return round(rng.uniform(low, high), 1)


#: Popularity ranks (0 = hottest) of the ``brewery`` texts of the dashboard.
BREWERY_RANKS = (2, 6, 11, 17, 25, 34)
#: Kinds of the ``beer`` texts, cycled over the remaining ranks.
BEER_TEXT_KINDS = ("band", "proj", "sql", "band", "group", "proj", "sql")


def dashboard_queries(seed: int) -> List[Request]:
    """The 40 fixed query texts of ``dashboard-mixed``, hottest first.

    The seed varies the constants but not which kind of text sits at which
    popularity rank, so every seed has the same cost structure.  ``beer``
    texts return 300 to 1000 rows and are never invalidated (writes touch
    only ``brewery``); the six ``brewery`` texts miss after each write.
    """
    rng = random.Random(f"dashboard/queries/{seed}")
    countries = rng.sample(COUNTRIES, 3)
    brewery_texts = [
        Request("read", "xra", f"? sel[country = '{countries[0]}'](brewery);"),
        Request("read", "xra", "? proj[%1, %2](brewery);"),
        Request("read", "sql", "SELECT name, city FROM brewery "
                f"WHERE country = '{countries[1]}'"),
        Request("read", "xra", "? groupby[(country), CNT, _](brewery);"),
        Request("read", "xra", f"? sel[country <> '{countries[2]}'](brewery);"),
        Request("read", "sql", "SELECT country, city FROM brewery"),
    ]
    queries: List[Request] = []
    kinds = itertools.cycle(BEER_TEXT_KINDS)
    for rank in range(40):
        if rank in BREWERY_RANKS:
            queries.append(brewery_texts[BREWERY_RANKS.index(rank)])
            continue
        kind = next(kinds)
        low = _alc(rng, 0.5, 11.0)
        if kind == "band":
            text = (f"? sel[alcperc >= {low} and alcperc < "
                    f"{round(low + 0.3, 1)}](beer);")
        elif kind == "proj":
            text = (f"? proj[%1, %3](sel[alcperc >= {low} and alcperc < "
                    f"{round(low + 0.5, 1)}](beer));")
        elif kind == "group":
            text = (f"? groupby[(brewery), AVG, alcperc](sel[alcperc > "
                    f"{round(low / 4, 1)}](beer));")
        else:
            queries.append(Request(
                "read", "sql", f"SELECT name, brewery FROM beer WHERE alcperc "
                f">= {low} AND alcperc < {round(low + 0.3, 1)}"))
            continue
        queries.append(Request("read", "xra", text))
    return queries


class RequestStream:
    """An endless, seeded sequence of requests for one workload.

    Inserts of benchmark-owned tuples are later deleted in FIFO order, so
    the bag's size stays stationary on ``oltp-write``.
    """

    def __init__(self, spec: Spec, seed: int, part: str = "main") -> None:
        self.spec = spec
        self._rng = random.Random(f"{spec.name}/stream/{part}/{seed}")
        kinds, shares = zip(*spec.mix)
        self._kinds = list(kinds)
        self._cumulative = list(itertools.accumulate(shares))
        self._breweries = Zipf(spec.breweries, spec.zipf, self._rng)
        draws_texts = any(kind == "dashboard" for kind, _ in spec.mix)
        self._texts = dashboard_queries(seed) if draws_texts else []
        self._text_pick = Zipf(len(self._texts), spec.zipf, self._rng, shuffle=False)
        self._pending: List[str] = []
        self._serial = 0

    def distinct_reads(self) -> List[Request]:
        """Every fixed query text of the workload (warms the result cache)."""
        return list(self._texts)

    def __iter__(self) -> "RequestStream":
        return self

    def __next__(self) -> Request:
        point = self._rng.random() * self._cumulative[-1]
        kind = self._kinds[
            min(bisect.bisect_right(self._cumulative, point), len(self._kinds) - 1)
        ]
        return getattr(self, "_" + kind.replace("-", "_"))()

    def _brewery(self) -> str:
        return brewery_name(self._breweries.draw())

    # oltp-write
    def _point_xra(self) -> Request:
        return Request("read", "xra", f"? sel[brewery = '{self._brewery()}'](beer);")

    def _point_sql(self) -> Request:
        return Request(
            "read", "sql",
            f"SELECT name, alcperc FROM beer WHERE brewery = '{self._brewery()}'",
        )

    def _bump(self) -> str:
        step = self._rng.choice(("+ 0.1", "- 0.1"))
        return (
            f"update(beer, sel[brewery = '{self._brewery()}'](beer), "
            f"(%1, %2, %3 {step}));"
        )

    def _update(self) -> Request:
        return Request("write", "xra", self._bump())

    def _txn_update(self) -> Request:
        return Request("txn", "xra", self._bump())

    def _insert_or_delete(self) -> Request:
        if len(self._pending) >= 8 and self._rng.random() < 0.5:
            row = self._pending.pop(0)
            return Request("write", "xra", f"delete(beer, tuples[{row}]);")
        self._serial += 1
        row = f"('Bench-{self._serial}', 'B-bench', {_alc(self._rng)})"
        self._pending.append(row)
        return Request("write", "xra", f"insert(beer, tuples[{row}]);")

    # analytic-read: the window [low, high) has a width within 0.05 of
    # ``width``, so with alcperc uniform every query of a kind costs about
    # the same; two-decimal constants keep the texts distinct for the
    # result cache (some 8800 windows per kind).
    def _window(self, top: float, width: float) -> Tuple[float, float]:
        low = round(self._rng.uniform(0.5, top), 2)
        return low, round(low + self._rng.uniform(width - 0.05, width + 0.05), 2)

    def _ex31_names(self) -> Request:
        country = self._rng.choice(COUNTRIES)
        low, high = self._window(8.5, 3.0)
        return Request(
            "read", "xra",
            f"? proj[%1](sel[%6 = '{country}' and %3 > {low} and %3 < {high}]"
            f"(join[%2 = %4](beer, brewery)));",
        )

    def _ex32_avg(self) -> Request:
        low, high = self._window(8.5, 3.0)
        return Request(
            "read", "xra",
            f"? groupby[(country), AVG, alcperc](sel[%3 > {low} and %3 < {high}]"
            f"(join[%2 = %4](beer, brewery)));",
        )

    def _unique_proj(self) -> Request:
        low, high = self._window(10.0, 1.5)
        return Request(
            "read", "xra",
            f"? unique(proj[%1, %2](sel[alcperc > {low} and alcperc < {high}](beer)));",
        )

    def _ex32_sql(self) -> Request:
        low, high = self._window(8.5, 3.0)
        return Request(
            "read", "sql",
            "SELECT country, AVG(alcperc) FROM beer, brewery "
            f"WHERE beer.brewery = brewery.name AND alcperc > {low} "
            f"AND alcperc < {high} GROUP BY country",
        )

    def _visit_insert(self) -> Request:
        self._serial += 1
        return Request(
            "write", "xra",
            f"insert(visit, tuples[('drinker-{self._serial % 97}', "
            f"'Pils-{self._serial % 13}', {1 + self._serial % 4})]);",
        )

    # dashboard-mixed
    def _dashboard(self) -> Request:
        return self._texts[self._text_pick.draw()]

    def _dashboard_write(self) -> Request:
        return Request(
            "write", "xra",
            f"update(brewery, sel[name = '{self._brewery()}'](brewery), "
            f"(%1, 'City-{self._rng.randrange(200)}', %3));",
        )


def arrivals(rate: float, seconds: float, seed: int, name: str) -> List[float]:
    """Poisson arrival offsets (seconds from phase start) for one phase."""
    rng = random.Random(f"{name}/arrivals/{seed}")
    offsets: List[float] = []
    now = rng.expovariate(rate)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets
