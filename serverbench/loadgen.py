"""Server supervision and the load generator.

:class:`ServerProcess` runs ``python -u -m repro serve`` as a separate
process with the shipped defaults (no engine, cache, optimizer or lint
flags), so a change of default shows here without editing the benchmark.
``-u`` matters: ``serve`` prints its ``listening on`` line without
flushing, and a pipe would otherwise hold it back.

The load generator drives one server over at most two connections (the
recorded host has two cores), one thread per connection:

* **open loop** — requests are due at Poisson arrival times; a free
  connection takes the next due request and sends it at once, so when
  both are busy the request waits, and its latency is timed from when it
  was *due* (no coordinated omission).  How late the sender ran is kept
  as a validity check.
* **closed loop** — each connection sends its next request as soon as the
  previous one returned; completions per second are the capacity.
"""

from __future__ import annotations

import gc
import math
import os
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import ServerError
from repro.server.client import RemoteError, ServerClient
from repro.server.protocol import relation_from_wire

from workloads import Request

CONNECTIONS = 2
#: Conflict retries before a ``begin``/``commit`` bracket counts as failed.
MAX_CONFLICT_RETRIES = 20
START_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0

_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")


class ServerProcess:
    """One ``repro serve`` process, from spawn to the first ping and back."""

    def __init__(self, root: Path, script: Path, log: Path,
                 telemetry: bool = False) -> None:
        self.root = root
        self.script = script
        self.log = log
        self.telemetry = telemetry
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[tuple] = None
        #: Seconds from spawn to the first successful ping.
        self.setup_seconds: Optional[float] = None
        #: Logical time of the state right after the seed script loaded.
        self.start_time: Optional[int] = None

    def start(self) -> "ServerProcess":
        argv = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                "--script", str(self.script)]
        if self.telemetry:
            # Metrics-only recording plus the admin plane; never span tracing.
            argv += ["--telemetry", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
        self.address = self._await_listening(started + START_TIMEOUT)
        with ServerClient(*self.address) as client:
            self.start_time = client.ping()
        self.setup_seconds = time.perf_counter() - started
        return self

    def _await_listening(self, deadline: float) -> tuple:
        assert self.proc is not None and self.proc.stdout is not None
        buffered = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = _LISTENING.search(buffered)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(
            f"server did not report a listening address; see {self.log}"
        )

    def rss_mb(self) -> float:
        """The server's resident set (``VmRSS``) in MiB."""
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"^VmRSS:\s+(\d+)\s+kB", status, re.M).group(1))
        return kib / 1024.0

    def stop(self) -> None:
        """Terminate the server, kill it if it hangs, and reap it.

        SIGTERM rather than SIGINT: a shell starts background jobs with
        SIGINT ignored, and the server would inherit that.
        """
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None


class ProbeProcess:
    """``probe.py`` running beside the load; see that file."""

    def __init__(self, script: Path, output: Path) -> None:
        self.output = output
        with open(output, "wb") as sink:
            self.proc: Optional[subprocess.Popen] = subprocess.Popen(
                [sys.executable, str(script)], stdin=subprocess.DEVNULL,
                stdout=sink, stderr=subprocess.DEVNULL,
            )

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.proc = None

    def mean_ms(self, low: float, high: float) -> float:
        """Stop the probe; mean time of the samples started in [low, high)."""
        self.stop()
        samples = []
        for line in self.output.read_text().splitlines():
            fields = line.split()
            if len(fields) != 2:
                continue  # a line cut short by the stop
            started, ms = float(fields[0]), float(fields[1])
            if low <= started < high:
                samples.append(ms)
        if not samples:
            raise RuntimeError(f"the host probe took no samples; see {self.output}")
        return sum(samples) / len(samples)


@dataclass
class Outcome:
    """What happened to one operation, as seen by the client."""

    request: Request
    index: int
    phase: str
    due: float
    sent: float = 0.0
    received: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""
    #: Server-side ``seconds`` from the envelope (summed over a bracket).
    server_seconds: float = 0.0
    resources: Dict[str, Any] = field(default_factory=dict)
    rows: int = 0
    logical_time: Optional[int] = None
    #: ``REPRO-CONFLICT`` aborts retried before the bracket committed.
    retries: int = 0
    #: Decoded results, kept only for operations the correctness gate samples.
    results: Optional[list] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def execute(client: ServerClient, outcome: Outcome, keep: bool) -> None:
    """Run one request on ``client`` and fill in ``outcome``."""
    request = outcome.request
    outcome.sent = time.perf_counter()
    try:
        if request.kind == "txn":
            _bracket(client, outcome)
        else:
            response = client.request(request.op, q=request.text)
            outcome.received = time.perf_counter()
        outcome.ok = True
    except ServerError as error:  # an error response, or an undecodable one
        outcome.error = getattr(error, "code", type(error).__name__)
    except OSError as error:
        outcome.error = type(error).__name__
    outcome.done = time.perf_counter()
    if not outcome.received:
        outcome.received = outcome.done
    if outcome.ok and request.kind != "txn":
        # Outside the timed region: the load generator's own decoding would
        # otherwise compete with its other connection for the interpreter.
        documents = response.get("results", [])
        outcome.server_seconds = response.get("seconds", 0.0)
        outcome.resources = response.get("resources") or {}
        outcome.rows = sum(document.get("rows", 0) for document in documents)
        outcome.logical_time = response.get("logical_time")
        if keep:
            outcome.results = [relation_from_wire(document) for document in documents]


def _bracket(client: ServerClient, outcome: Outcome) -> None:
    """``begin`` / statement / ``commit``, retried on first-committer-wins."""
    while True:
        seconds = 0.0
        try:
            seconds += client.request("begin")["seconds"]
            response = client.request("xra", q=outcome.request.text)
            seconds += response["seconds"]
            outcome.resources = response.get("resources") or {}
            commit = client.request("commit")
            seconds += commit["seconds"]
        except RemoteError as error:
            if error.code != "REPRO-CONFLICT":
                _rollback_quietly(client)
                raise
            if outcome.retries >= MAX_CONFLICT_RETRIES:
                raise
            outcome.retries += 1
            continue
        outcome.received = time.perf_counter()
        outcome.server_seconds = seconds
        outcome.logical_time = commit["logical_time"]
        return


def _rollback_quietly(client: ServerClient) -> None:
    try:
        client.rollback()
    except RemoteError:
        pass  # the failed statement already ended the bracket


class LoadGenerator:
    """Two connections to one server, each driven by its own thread."""

    def __init__(self, address: tuple, keep: Callable[[int], bool]) -> None:
        self.clients = [ServerClient(*address) for _ in range(CONNECTIONS)]
        self.keep = keep
        self.outcomes: List[Outcome] = []
        self._lock = threading.Lock()
        self._index = 0

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def _next_index(self) -> int:
        with self._lock:
            self._index += 1
            return self._index - 1

    def _run(self, worker: Callable[[ServerClient], None]) -> None:
        """Run ``worker`` once per connection, collector paused meanwhile."""
        errors: List[BaseException] = []

        def guarded(client: ServerClient) -> None:
            try:
                worker(client)
            except BaseException as error:  # surfaced after join
                errors.append(error)

        # Daemon threads, so a terminated run exits (and stops its servers)
        # without first finishing the phase.
        threads = [threading.Thread(target=guarded, args=(client,), daemon=True)
                   for client in self.clients]
        # The generator's own garbage-collection pauses are not the server's
        # latency; its few cycles are collected between phases instead.
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
            gc.collect()
        if errors:
            raise errors[0]

    def open_loop(self, schedule: List[float], requests: Iterator[Request]) -> List[Outcome]:
        """Send one request at each offset of ``schedule``; return outcomes."""
        planned = [(offset, next(requests)) for offset in schedule]
        cursor = iter(range(len(planned)))
        start = time.perf_counter() + 0.05
        outcomes: List[Outcome] = []

        def worker(client: ServerClient) -> None:
            while True:
                with self._lock:
                    position = next(cursor, None)
                if position is None:
                    return
                offset, request = planned[position]
                due = start + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                index = self._next_index()
                outcome = Outcome(request, index, "open", due)
                execute(client, outcome, self.keep(index))
                with self._lock:
                    outcomes.append(outcome)

        self._run(worker)
        self.outcomes += outcomes
        return outcomes

    def closed_loop(self, requests: Iterator[Request], seconds: Optional[float] = None,
                    phase: str = "closed") -> List[Outcome]:
        """Send back to back until ``requests`` ends or ``seconds`` pass."""
        deadline = time.perf_counter() + seconds if seconds is not None else math.inf
        outcomes: List[Outcome] = []

        def worker(client: ServerClient) -> None:
            while time.perf_counter() < deadline:
                with self._lock:
                    request = next(requests, None)
                if request is None:
                    return
                index = self._next_index()
                outcome = Outcome(request, index, phase, time.perf_counter())
                execute(client, outcome, self.keep(index))
                with self._lock:
                    outcomes.append(outcome)

        self._run(worker)
        self.outcomes += outcomes
        return outcomes

    def read(self, text: str) -> Dict[str, Any]:
        """One out-of-band XRA read on the first connection."""
        return self.clients[0].request("xra", q=text)

    def stats(self) -> Dict[str, Any]:
        return self.clients[0].stats()
