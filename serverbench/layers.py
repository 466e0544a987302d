"""Front-layer timings: a sample of the request stream replayed in-process.

Each request runs single-threaded through the public function of every
layer the server would use, each call wrapped in a span recorded by this
benchmark (never ``repro.obs.enable()``, whose profiling wrapper would
change the engine being measured).  Spans stay in memory and are written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterator, List

from repro.engine import evaluate, execute
from repro.language.context import ExecutionContext
from repro.language.statements import Query
from repro.optimizer import optimize
from repro.server import ServerConfig
from repro.server.protocol import encode_message, relation_from_wire, relation_to_wire
from repro.sql.ast import SelectQuery
from repro.sql.parser import parse_sql
from repro.sql.translate import translate_statement
from repro.xra.parser import parse_script

from gate import generated_database
from workloads import Data, Request, Spec


class Spans:
    """In-memory span records: name, request, parent, start, end."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None, **attrs}
        self.records.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def median_ms(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0 when none ran)."""
        values = [1000.0 * (r["end"] - r["start"]) for r in self.records if r["name"] == name]
        return median(values) if values else 0.0

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def server_evaluator():
    """The evaluation path a default-configured server runs on a cache miss."""
    config = ServerConfig()
    engine = getattr(config, "engine", None)
    if engine == "reference":
        return evaluate
    return lambda expr, env: execute(expr, env, engine=engine)


def replay(spec: Spec, data: Data, requests: List[Request], spans: Spans) -> List[float]:
    """Run ``requests`` through every layer in-process; returns response KiB."""
    database = generated_database(spec, data)
    evaluator = server_evaluator()
    config = ServerConfig()
    optimizer = optimize if getattr(config, "optimize", True) else None
    response_kb: List[float] = []
    for index, request in enumerate(requests):
        with spans.span("request", request=index, kind=request.kind, op=request.op):
            if request.op == "sql":
                with spans.span("sql.parse"):
                    parsed = parse_sql(request.text)
                with spans.span("sql.translate"):
                    translated = translate_statement(parsed, database.schema)
                statements = [Query(translated) if isinstance(parsed, SelectQuery)
                              else translated]
            else:
                with spans.span("xra.parse"):
                    items = parse_script(request.text, database.schema.get)
                statements = [item.statement for item in items]
            with spans.span("database.snapshot"):
                state = database.snapshot()
            if not request.commits:
                (query,) = statements
                expr = query.expression
                if optimizer is not None:
                    with spans.span("optimizer.optimize"):
                        expr = optimizer(expr)
                with spans.span("engine.eval"):
                    result = evaluator(expr, dict(state))
                with spans.span("protocol.encode"):
                    line = encode_message({"ok": True, "results": [relation_to_wire(result)]})
                response_kb.append(len(line) / 1024.0)
                with spans.span("protocol.decode"):
                    relation_from_wire(json.loads(line)["results"][0])
            else:
                context = ExecutionContext(state, optimizer=optimizer)
                with spans.span("statement.execute"):
                    for statement in statements:
                        statement.execute(context)
                with spans.span("database.install"):
                    database.install(context.relations)
    return response_kb
