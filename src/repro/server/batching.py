"""Micro-batch scheduler: same-``(n, config)`` requests share one ``execute_many``.

Every row of the same ``(n, canonical config)`` key that waits for a
worker joins one group, and the group executes as a single
:meth:`repro.core.ftplan.FTPlan.execute_many` call on a worker thread.
That is the whole point of serving through the plan cache: the batched
path samples the robust threshold statistics once per batch, runs one
matmul per checksum vector, and verifies per worker chunk - overheads
that a one-request-per-``execute`` front end pays per request.

``window=0`` (the default) is *work-conserving* batching.  A request
that finds a worker free dispatches on arrival, alone, with no timer.  A
request that finds every worker busy joins its key's waiting group.  Each
time a batch finishes - with a result, an exception or a cancellation -
the oldest waiting group goes to the freed worker.  Batches are therefore
exactly as large as the backlog that built up behind the previous one:
one row at light load, many under saturation, and no request ever waits
while a worker idles.  ``max_batch`` caps a group: a full group dispatches
at once and queues on the pool behind the busy workers.  A positive
``window`` instead holds every group open for exactly that long - larger
batches under sparse open-loop traffic, but closed-loop clients stall on
the timer (throughput caps at ``max_batch / window``).

Threading model
---------------
``append_request``, ``_flush`` and the batch-done callback run on the
event-loop thread only, so the group table and the in-flight set need no
lock.  Execution happens on a small ``ThreadPoolExecutor`` (numpy
releases the GIL inside the kernels); results come back to the loop via
``asyncio.wrap_future`` and resolve the per-request futures there.  A
client that disconnects mid-batch simply leaves a future nobody awaits -
the batch itself is unaffected.

Fault-injection requests bypass batching: interior fault sites only fire
in the scalar :meth:`FTPlan.execute` path (the batched path deliberately
visits INPUT/OUTPUT only), so routing them solo mirrors the library's own
semantics; a solo job still occupies a worker while it runs.
``max_batch=1`` degenerates to one-``execute``-per-request, which is
exactly the baseline mode ``benchmarks/bench_serve.py`` measures batching
against.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.ftplan import plan
from repro.server.protocol import ProtocolError, RequestHead, build_injector
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

__all__ = ["Batcher", "Reply"]

#: one reply: the response meta dict and the spectrum row (or ``None``)
Reply = Tuple[Dict[str, Any], Optional[np.ndarray]]
GroupKey = Tuple[int, str]


class _Group:
    """Rows of one ``(n, config)`` key waiting for a worker (or the window)."""

    __slots__ = ("rows", "futures", "handle")

    def __init__(self) -> None:
        self.rows: List[np.ndarray] = []
        self.futures: List["asyncio.Future[Reply]"] = []
        self.handle: Optional[asyncio.TimerHandle] = None


class Batcher:
    """Group requests into micro-batches and run them on a worker pool."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        *,
        window: float = 0.0,
        max_batch: int = 32,
        workers: int = 1,
    ) -> None:
        self._loop = loop
        self._window = max(0.0, float(window))
        self._max_batch = max(1, int(max_batch))
        self._workers = max(1, int(workers))
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-serve"
        )
        #: waiting groups in arrival order (a flush pops its key, so the
        #: first entry is always the oldest group)
        self._groups: Dict[GroupKey, _Group] = {}
        self._inflight: Set["asyncio.Future[List[Reply]]"] = set()
        self._closed = False

    # -- introspection (read from the loop thread by the collector) ----
    @property
    def window(self) -> float:
        return self._window

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def pending_rows(self) -> int:
        return sum(len(group.rows) for group in self._groups.values())

    @property
    def inflight_batches(self) -> int:
        return len(self._inflight)

    # -- the per-request hot path (loop thread) ------------------------
    def append_request(self, head: RequestHead, row: np.ndarray) -> "asyncio.Future[Reply]":
        """Queue one request row; the future resolves to its reply.

        Hot per-request path between the frame parse and the flush trigger:
        one dict lookup and two list appends.  At ``window=0`` the group
        flushes at once if a worker is free; a positive ``window`` arms the
        group's timer instead.  Reaching ``max_batch`` flushes immediately.
        """

        fut: "asyncio.Future[Reply]" = self._loop.create_future()
        if self._closed:
            fut.set_exception(
                ProtocolError("server is draining", status=503, kind="draining")
            )
            return fut
        if head.inject is not None or self._max_batch <= 1:
            self._dispatch(_SingleJob(head, row), [fut])
            return fut
        key = (head.n, head.config)
        group = self._groups.get(key)
        if group is None:
            group = _Group()
            self._groups[key] = group
            if self._window > 0.0:
                group.handle = self._loop.call_later(self._window, self._flush, key)
        group.rows.append(row)
        group.futures.append(fut)
        if len(group.rows) >= self._max_batch or self._worker_free():
            self._flush(key)
        return fut

    # -- flushing and delivery (loop thread) ---------------------------
    def _worker_free(self) -> bool:
        """Whether a zero-window group may dispatch now (work conservation)."""

        return self._window == 0.0 and len(self._inflight) < self._workers

    def _flush(self, key: GroupKey) -> None:
        group = self._groups.pop(key, None)
        if group is None:
            return  # already flushed by the max-batch or worker-free trigger
        if group.handle is not None:
            group.handle.cancel()
        self._dispatch(_BatchJob(key, group.rows), group.futures)

    def _dispatch(self, job: "_Job", futures: List["asyncio.Future[Reply]"]) -> None:
        """Run ``job`` on the executor and route its replies to ``futures``."""

        try:
            cfut = self._executor.submit(job.run)
        except RuntimeError:  # executor already shut down by drain()
            self._fail(futures, ProtocolError("server is draining", status=503, kind="draining"))
            return
        afut = asyncio.wrap_future(cfut, loop=self._loop)
        self._inflight.add(afut)

        def deliver(done: "asyncio.Future[List[Reply]]") -> None:
            self._inflight.discard(done)
            # The freed worker takes the oldest waiting group before any
            # outcome is routed, so a failed or cancelled batch never
            # strands the rows queued behind it.
            if self._groups and self._worker_free():
                self._flush(next(iter(self._groups)))
            if done.cancelled():
                self._fail(
                    futures, ProtocolError("batch cancelled", status=503, kind="draining")
                )
                return
            exc = done.exception()
            if exc is not None:
                self._fail(futures, exc)
                return
            for fut, reply in zip(futures, done.result()):
                # A done future here means the client disconnected while the
                # batch ran; the other rows of the batch are unaffected.
                if not fut.done():
                    fut.set_result(reply)

        afut.add_done_callback(deliver)

    @staticmethod
    def _fail(futures: List["asyncio.Future[Reply]"], exc: BaseException) -> None:
        for fut in futures:
            if not fut.done():
                fut.set_exception(exc)

    # -- drain ---------------------------------------------------------
    async def drain(self) -> None:
        """Flush every waiting group, wait out in-flight batches, stop the pool.

        New requests fail with 503 from the moment drain starts; rows that
        were already queued or executing complete normally and their
        responses are delivered - a SIGTERM never poisons an accepted batch.
        """

        self._closed = True
        for key in list(self._groups):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)


# ----------------------------------------------------------------------
# executor-side jobs (worker threads; everything here may allocate freely)
# ----------------------------------------------------------------------

class _BatchJob:
    """One flushed group: a single ``execute_many`` over the stacked rows."""

    __slots__ = ("key", "rows")

    def __init__(self, key: GroupKey, rows: List[np.ndarray]) -> None:
        self.key = key
        self.rows = rows

    def run(self) -> List[Reply]:
        n, config = self.key
        batch = len(self.rows)
        _metrics.inc("server_batches", config=config)
        _metrics.inc("server_transforms", batch, config=config)
        if _trace.active:
            _trace.emit("serve-batch", n=n, config=config, rows=batch)
        result = plan(n, config).execute_many(np.stack(self.rows))
        out = result.output
        dead = frozenset(result.uncorrectable_rows)
        flagged = frozenset(result.fallback_rows) | dead
        scheme = result.report.scheme
        replies: List[Reply] = []
        for index in range(batch):
            meta = {
                "ok": True,
                "n": n,
                "config": config,
                "bins": int(out.shape[-1]),
                "scheme": scheme,
                "batch_size": batch,
                "batch_index": index,
                "report": {
                    "detected": index in flagged,
                    "corrected": index in flagged and index not in dead,
                    "uncorrectable": index in dead,
                },
            }
            replies.append((meta, out[index]))
        return replies


class _SingleJob:
    """One solo request: scalar ``execute`` (interior fault sites live here)."""

    __slots__ = ("head", "row")

    def __init__(self, head: RequestHead, row: np.ndarray) -> None:
        self.head = head
        self.row = row

    def run(self) -> List[Reply]:
        head = self.head
        _metrics.inc("server_transforms", config=head.config)
        injector = build_injector(head.inject) if head.inject is not None else None
        # The payload row is a read-only frombuffer view and the scalar path
        # may corrupt its input in place (INPUT fault site): copy first.
        result = plan(head.n, head.config).execute(np.array(self.row), injector)
        report = result.report
        meta = {
            "ok": True,
            "n": head.n,
            "config": head.config,
            "bins": int(result.output.shape[-1]),
            "scheme": result.scheme or report.scheme,
            "batch_size": 1,
            "batch_index": 0,
            "report": {
                "detected": report.detected,
                "corrected": report.corrected,
                "uncorrectable": report.has_uncorrectable,
                "corrections": report.correction_count,
                "faults_fired": 0 if injector is None else injector.fired_count,
            },
        }
        return [(meta, result.output)]


_Job = Any  # _BatchJob | _SingleJob (both expose .run() -> List[Reply])
