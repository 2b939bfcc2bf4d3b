"""Loop-level tests of the work-conserving micro-batch policy.

Each test drives a :class:`repro.server.batching.Batcher` (or a live
:class:`repro.server.app.TransformServer`) from its own event loop and
holds the single worker with a gated batch job, so "the worker is busy"
is a state the test controls rather than a race it hopes to win.  The
load-bearing assertions:

* a request that finds a worker free dispatches on arrival, even while
  other connections are open;
* rows that arrive while the worker is busy run as one batch when it
  frees, capped at ``max_batch``, oldest waiting group first;
* a batch that raises or is cancelled still releases every row queued
  behind it, each with its own reply.
"""

import asyncio
import os
import tempfile
import threading
from typing import List, Tuple

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.server import TransformServer, batching
from repro.server.batching import Batcher
from repro.server.protocol import ProtocolError, RequestHead, canonical_config

#: generous upper bound for any await in these tests: a hang fails fast
TIMEOUT = 10.0
CONFIG, REAL = canonical_config("opt-online+mem")


def _head(n: int) -> RequestHead:
    return RequestHead(n=n, config=CONFIG, real=REAL)


def _row(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


class _Gate:
    """Wrap ``_BatchJob.run``: every batch waits for ``open()``, then runs.

    ``started`` is set once a worker thread holds the first batch;
    ``batches`` records each executed batch as ``(n, rows)`` in execution
    order; ``fail_first`` makes the first batch raise after the gate opens.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.started = threading.Event()
        self.fail_first = False
        self.batches: List[Tuple[int, int]] = []

    def wrap(self, real_run):
        def run(job):
            self.started.set()
            if not self._event.wait(TIMEOUT):
                raise RuntimeError("gate never opened")
            self.batches.append((job.key[0], len(job.rows)))
            if self.fail_first and len(self.batches) == 1:
                raise RuntimeError("injected batch failure")
            return real_run(job)

        return run

    def open(self) -> None:
        self._event.set()


@pytest.fixture
def gate(monkeypatch):
    held = _Gate()
    monkeypatch.setattr(batching._BatchJob, "run", held.wrap(batching._BatchJob.run))
    yield held
    held.open()  # a failed assertion must not leave a worker parked


async def _wait(futures):
    return await asyncio.wait_for(asyncio.gather(*futures, return_exceptions=True), TIMEOUT)


def _assert_reply(reply, n: int, x: np.ndarray, batch_size: int) -> None:
    meta, spectrum = reply
    assert meta["ok"] is True and meta["n"] == n
    assert meta["batch_size"] == batch_size
    expected = repro.plan(n, CONFIG).execute_many(x[np.newaxis]).output[0]
    assert np.allclose(spectrum, expected, rtol=0.0, atol=1e-9 * n)


class TestWorkConservingPolicy:
    def test_lone_request_dispatches_with_two_connections_open(self, gate):

        async def scenario():
            tmp = tempfile.mkdtemp(prefix="repro-test-batching-")
            sock = os.path.join(tmp, "serve.sock")
            server = TransformServer(port=None, unix_path=sock, max_batch=32, workers=1)
            await server.start()
            streams = []
            try:
                for _ in range(2):
                    streams.append(await asyncio.open_unix_connection(sock))
                surface = lambda: telemetry.snapshot()["caches"]["server"]  # noqa: E731
                for _ in range(1000):
                    if surface()["connections"] == 2:
                        break
                    await asyncio.sleep(0.001)
                assert surface()["connections"] == 2
                x = _row(256, seed=1)
                fut = server._batcher.append_request(_head(256), x)
                # No peer row is awaited: the row is in flight, not pending.
                assert surface()["pending_rows"] == 0
                assert surface()["inflight_batches"] == 1
                gate.open()
                (reply,) = await _wait([fut])
                _assert_reply(reply, 256, x, batch_size=1)
            finally:
                gate.open()
                for _reader, writer in streams:
                    writer.close()
                    await writer.wait_closed()
                await server.shutdown()
                os.rmdir(tmp)

        asyncio.run(scenario())
        assert gate.batches == [(256, 1)]

    def test_rows_behind_a_busy_worker_form_one_batch(self, gate):

        async def scenario():
            batcher = Batcher(asyncio.get_running_loop(), max_batch=32, workers=1)
            rows = [_row(256, seed=s) for s in range(5)]
            futures = [batcher.append_request(_head(256), rows[0])]
            assert (batcher.pending_rows, batcher.inflight_batches) == (0, 1)
            futures += [batcher.append_request(_head(256), x) for x in rows[1:]]
            assert (batcher.pending_rows, batcher.inflight_batches) == (4, 1)
            gate.open()
            replies = await _wait(futures)
            await batcher.drain()
            _assert_reply(replies[0], 256, rows[0], batch_size=1)
            for reply, x in zip(replies[1:], rows[1:]):
                _assert_reply(reply, 256, x, batch_size=4)
            assert [meta["batch_index"] for meta, _ in replies[1:]] == [0, 1, 2, 3]

        asyncio.run(scenario())
        assert gate.batches == [(256, 1), (256, 4)]

    def test_max_batch_caps_a_backlog(self, gate):

        async def scenario():
            batcher = Batcher(asyncio.get_running_loop(), max_batch=4, workers=1)
            rows = [_row(128, seed=s) for s in range(11)]
            futures = [batcher.append_request(_head(128), x) for x in rows]
            # one lone row in flight, two full groups queued on the pool,
            # the remainder still waiting for a worker
            assert (batcher.pending_rows, batcher.inflight_batches) == (2, 3)
            gate.open()
            replies = await _wait(futures)
            await batcher.drain()
            sizes = [1] + [4] * 8 + [2] * 2
            for reply, x, size in zip(replies, rows, sizes):
                _assert_reply(reply, 128, x, batch_size=size)

        asyncio.run(scenario())
        assert gate.batches == [(128, 1), (128, 4), (128, 4), (128, 2)]

    def test_waiting_groups_flush_oldest_first(self, gate):

        async def scenario():
            batcher = Batcher(asyncio.get_running_loop(), max_batch=32, workers=1)
            order = [256, 512, 256, 512, 1024]
            futures = [
                batcher.append_request(_head(n), _row(n, seed=i))
                for i, n in enumerate(order)
            ]
            # the first row holds the worker; 512 then opened the oldest group
            assert (batcher.pending_rows, batcher.inflight_batches) == (4, 1)
            gate.open()
            replies = await _wait(futures)
            await batcher.drain()
            assert all(meta["ok"] for meta, _ in replies)

        asyncio.run(scenario())
        assert gate.batches == [(256, 1), (512, 2), (256, 1), (1024, 1)]


class TestFailurePaths:
    def test_failed_batch_releases_queued_rows(self, gate):
        gate.fail_first = True

        async def scenario():
            batcher = Batcher(asyncio.get_running_loop(), max_batch=32, workers=1)
            rows = [_row(256, seed=s) for s in range(4)]
            futures = [batcher.append_request(_head(256), x) for x in rows]
            gate.open()
            replies = await _wait(futures)
            await batcher.drain()
            assert isinstance(replies[0], RuntimeError)
            for reply, x in zip(replies[1:], rows[1:]):
                _assert_reply(reply, 256, x, batch_size=3)

        asyncio.run(scenario())
        assert gate.batches == [(256, 1), (256, 3)]

    def test_cancelled_batch_releases_queued_rows(self, gate):

        async def scenario():
            batcher = Batcher(asyncio.get_running_loop(), max_batch=32, workers=1)
            rows = [_row(256, seed=s) for s in range(4)]
            futures = [batcher.append_request(_head(256), x) for x in rows]
            assert (batcher.pending_rows, batcher.inflight_batches) == (3, 1)
            # cancel only once the worker runs the job, so it cannot be
            # withdrawn from the pool's queue instead
            while not gate.started.is_set():
                await asyncio.sleep(0.001)
            (held,) = batcher._inflight
            held.cancel()
            # The cancel frees the worker slot on the loop at once: the
            # queued rows dispatch (behind the still-gated thread) and the
            # cancelled row gets its own error.
            with pytest.raises(ProtocolError) as excinfo:
                await asyncio.wait_for(futures[0], TIMEOUT)
            assert excinfo.value.status == 503
            assert (batcher.pending_rows, batcher.inflight_batches) == (0, 1)
            gate.open()
            replies = await _wait(futures[1:])
            await batcher.drain()
            for reply, x in zip(replies, rows[1:]):
                _assert_reply(reply, 256, x, batch_size=3)

        asyncio.run(scenario())
        assert gate.batches == [(256, 1), (256, 3)]
