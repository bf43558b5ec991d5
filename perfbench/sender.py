"""Request senders for the serving workloads.

``Sender.run`` is an open loop: one sender thread submits
queries on a fixed schedule, whatever the server is doing; request ``i``
of a step is *due* at ``start + i / rate``. Latency runs from the due
time to the moment the response future resolves, so a stall delays every
request scheduled behind it and that wait is counted. How late the
sender itself submitted (``sent - due``) is kept as the generator lag, so
a step in which the sender, not the server, fell behind can be
recognised and reported. ``Sender.window`` is a closed loop that
keeps a fixed number of requests in flight, for saturation throughput;
``Step.laps`` cuts its responses into laps of the query trace, each the
same mix of cheap and heavy queries, so a median over laps is moved less
by a stretch in which a shared host ran slow than a total would be.

Bodies are kept for the oracle check without storing one string per
response: per query position and generation window, the first body is
kept and any later body that differs is kept beside it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from util import median, percentile

#: The serving latency limit (p99) the steps are reported against.
LIMIT_S = 0.100

#: A reference step is invalid when the sender's median lag exceeds this:
#: the schedule was not kept even while most requests were cheap.
MAX_MEDIAN_LAG_S = 0.002


@dataclass
class Step:
    """What one step measured."""

    rate: float
    sent: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    cached: int = 0
    #: perf_counter at the start of the step.
    start: float = 0.0
    wall_s: float = 0.0
    #: Seconds from due time to response, OK responses only.
    latencies: list = field(default_factory=list)
    #: perf_counter when each of those responses arrived.
    finished: list = field(default_factory=list)
    #: The same, for OK responses the engine computed (not cache hits).
    uncached: list = field(default_factory=list)
    #: Seconds from due time to the actual submit, every request.
    lags: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return bool(self.lags) and \
            percentile(self.lags, 50.0) <= MAX_MEDIAN_LAG_S

    def laps(self, size: int) -> tuple[list, list]:
        """OK responses per second and median latency in each whole lap
        of ``size`` consecutive responses (a partial last lap is left
        out). With no failures and a trace of ``size`` queries cycled in
        order, every lap answers each query of the trace once."""
        arrivals = sorted(zip(self.finished, self.latencies))
        rates, medians = [], []
        begin = self.start
        for lo in range(0, len(arrivals) - size + 1, size):
            lap = arrivals[lo:lo + size]
            end = lap[-1][0]
            rates.append(size / (end - begin))
            medians.append(median([latency for _, latency in lap]))
            begin = end
        return rates, medians

    def summary(self) -> dict:
        out = {"rate": self.rate, "sent": self.sent, "ok": self.ok,
               "shed": self.shed, "errors": self.errors,
               "cached": self.cached, "wall_s": round(self.wall_s, 3),
               "ok_per_s": round(self.ok / self.wall_s, 1)
               if self.wall_s else 0.0,
               "valid": self.valid}
        if self.sent:
            out["over_limit_share"] = round(missed(self, LIMIT_S)
                                            / self.sent, 4)
        if self.latencies:
            out["p50_ms"] = round(percentile(self.latencies, 50) * 1e3, 3)
            out["p99_ms"] = round(percentile(self.latencies, 99) * 1e3, 3)
        if self.lags:
            out["lag_p50_ms"] = round(percentile(self.lags, 50) * 1e3, 3)
            out["lag_p99_ms"] = round(percentile(self.lags, 99) * 1e3, 3)
        return out


class Sender:
    """Sends ``queries`` (cycled in order) to ``server``, open or closed
    loop.

    ``generation`` is a zero-argument callable returning the index of the
    snapshot generation currently installed (always 0 for a server that
    never swaps); responses are filed under the window of generations
    they may have been served from.
    """

    def __init__(self, server, queries, generation=lambda: 0):
        self.server = server
        self.queries = queries
        self.generation = generation
        self.position = 0
        self._lock = threading.Lock()
        self._bodies_lock = threading.Lock()
        #: query position -> [(body, first generation, last generation)]
        self.bodies: dict[int, list] = {}

    def _file_body(self, index: int, body: str, lo: int, hi: int) -> None:
        with self._bodies_lock:
            entries = self.bodies.setdefault(index, [])
            for seen, seen_lo, seen_hi in entries:
                if seen_lo == lo and seen_hi == hi and seen == body:
                    return
            entries.append((body, lo, hi))

    def _record(self, step: Step, lock, index: int, due: float, lo: int,
                response) -> None:
        finished = time.perf_counter()
        with lock:
            if response.status == "ok":
                step.ok += 1
                step.cached += response.cached
                step.latencies.append(finished - due)
                step.finished.append(finished)
                if not response.cached:
                    step.uncached.append(finished - due)
            elif response.status == "overloaded":
                step.shed += 1
            else:
                step.errors += 1
        if response.status == "ok":
            self._file_body(index, response.body, lo, self.generation())

    def _next(self) -> int:
        with self._lock:
            index = self.position % len(self.queries)
            self.position += 1
        return index

    def run(self, rate: float, count: int | None = None,
            stop: threading.Event | None = None) -> Step:
        """Open loop: send ``count`` requests at ``rate`` (or until
        ``stop`` is set), then wait for every response."""
        step = Step(rate=rate)
        lock = threading.Lock()
        pending = [0]
        drained = threading.Condition(lock)
        start = step.start = time.perf_counter() + 0.002
        i = 0
        while (count is None or i < count) and \
                (stop is None or not stop.is_set()):
            due = start + i / rate
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            index = self._next()
            lo = self.generation()
            step.lags.append(time.perf_counter() - due)
            with lock:
                pending[0] += 1
            future = self.server.submit(self.queries[index])

            def done(fut, due=due, index=index, lo=lo):
                self._record(step, lock, index, due, lo, fut.result())
                with drained:
                    pending[0] -= 1
                    drained.notify_all()

            future.add_done_callback(done)
            i += 1
        with drained:
            drained.wait_for(lambda: pending[0] == 0)
        step.wall_s = time.perf_counter() - start
        step.sent = i
        return step

    def window(self, outstanding: int, seconds: float,
               least: int = 0) -> Step:
        """Closed loop with a window: keep ``outstanding`` requests in
        flight for ``seconds``, and until at least ``least`` were sent;
        each response's callback submits the next query. The workers
        always find queued work, so the completion rate is what the server
        can do, and none is shed while the window is smaller than the
        server's queue."""
        step = Step(rate=0.0)
        lock = threading.Lock()
        drained = threading.Condition(lock)
        pending = [0]
        start = step.start = time.perf_counter()
        deadline = start + seconds

        def send() -> None:
            index = self._next()
            lo = self.generation()
            due = time.perf_counter()
            with lock:
                pending[0] += 1
                step.sent += 1
            future = self.server.submit(self.queries[index])

            def done(fut, due=due, index=index, lo=lo):
                self._record(step, lock, index, due, lo, fut.result())
                if time.perf_counter() < deadline or step.sent < least:
                    send()
                with drained:
                    pending[0] -= 1
                    drained.notify_all()

            future.add_done_callback(done)

        for _ in range(outstanding):
            send()
        with drained:
            drained.wait_for(lambda: pending[0] == 0)
        step.wall_s = time.perf_counter() - start
        return step


def missed(step: Step, limit_s: float) -> int:
    """Requests that missed ``limit_s``: late, shed or errored."""
    late = sum(1 for latency in step.latencies if latency > limit_s)
    return late + step.shed + step.errors


def latency_ms(samples: list, pct: float) -> float:
    """Percentile latency in ms over answered requests. Shed and errored
    requests have no latency; they count as failed operations instead."""
    return percentile(samples, pct) * 1e3
