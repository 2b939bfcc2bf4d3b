"""serve-small: a real ``repro serve`` daemon under open-loop load.

The daemon runs as a subprocess on a unix socket with default options,
warmed for n = 256, 1024, 4096.  One generator thread drives two
keep-alive ``Client`` connections (the reference host has two cores).
Request ``k`` of a phase is due ``k / rate`` after the phase starts; it is
sent when due on a free connection, or as soon as one frees up, and its
latency runs from when it was due.  Each request draws n from the served
sizes by seed and uses ``Client.transform``'s default config.  At these
sizes one round trip costs several times an in-process ``FTPlan.execute``,
so the server, protocol and plan dispatch layers do most of the work.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ftbench import machine, stats
from ftbench.common import (
    RATIO_SHARE,
    Result,
    counter_sum,
    interleaved,
    output_ok,
    peak_rss_pid_mb,
    put_ratio,
    put_setup,
    rng_for,
    run_workers,
    uniform_complex,
)
from ftbench.shapes import DEFAULT_CONFIG, SERVE_SIZES
from ftbench.spans import Tracer

#: The latency limit on p99, from when a request was due (us).
LIMIT_US = 100_000.0
#: Fixed arrival rates (requests/s), each with its share of the load time.
#: Capacity with two connections swings between ~300 and ~750 requests/s
#: with the load on the shared reference host, so the ladder keeps its
#: passing rates well below the low end and its failing rate well above
#: the high end: the highest rate meeting the limit then changes only
#: when the program does.
PHASES = ((100.0, 0.3), (200.0, 0.6), (1600.0, 0.1))
RATES = tuple(rate for rate, _ in PHASES)
#: The rate whose requests give ``latency_p50_us`` / ``latency_p99_us``.
REFERENCE_RATE = 200.0
#: Daemons per run, one after the other, each loaded for an equal share.
DAEMONS = 3
#: Fresh processes for the in-process protected-vs-numpy comparison.
RATIO_PROCESSES = 3
CONNECTIONS = 2
INPUTS_PER_SIZE = 8
WARMUP_S = 0.3


class _Daemon:
    """One ``repro serve`` subprocess on a unix socket inside the checkout."""

    def __init__(self, index: int) -> None:
        # Relative to the checkout root (the working directory of both
        # processes): unix socket paths are limited to ~100 bytes.
        self.path = os.path.relpath(machine.WORK / f"serve-{os.getpid()}-{index}.sock")
        self.log = open(machine.OUT / f"serve-{os.getpid()}-{index}.log", "w", encoding="utf-8")
        argv = [sys.executable, "-m", "repro.cli", "serve", "--unix", self.path]
        for n in SERVE_SIZES:
            argv += ["--warm", str(n)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=machine.child_env(), cwd=str(machine.ROOT),
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    @property
    def address(self) -> str:
        return "unix:" + self.path

    def wait_ready(self, x: np.ndarray, reference: np.ndarray) -> float:
        """Seconds from process start to ``/healthz`` answering and a first
        transform coming back correct."""

        from repro.client import Client

        deadline = self.started + 120.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode} during start-up")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve did not answer /healthz within 120 s")
            if os.path.exists(self.path):
                try:
                    with Client(self.address) as client:
                        if client.healthz()["status"] == "ok":
                            reply = client.transform(x)
                            if reply.detected or not output_ok(reply.output, reference):
                                raise RuntimeError("first served transform was wrong")
                            return time.perf_counter() - self.started
                except (ConnectionError, FileNotFoundError):
                    pass
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


class _Load:
    """Seeded requests and the open-loop generator."""

    def __init__(self, seed: int, index: int, address: str) -> None:
        from repro.client import Client

        data = rng_for(seed, 5, index)
        self.inputs = {n: [uniform_complex(data, n) for _ in range(INPUTS_PER_SIZE)] for n in SERVE_SIZES}
        self.refs = {n: [np.fft.fft(x) for x in xs] for n, xs in self.inputs.items()}
        self.picks = rng_for(seed, 6, index)
        self.clients = [Client(address) for _ in range(CONNECTIONS)]
        # A Client connects on its first request, and the generator only
        # uses the second connection when two requests overlap.  Open both
        # now, so the server counts two connections from the first request
        # on (its zero-window batch target) instead of from whenever the
        # first overlap happens to occur.
        for client in self.clients:
            client.healthz()
        self.rid = 0
        self.good_samples = 0

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def phase(
        self, rate: float, seconds: float, result: Result, tracer: Tracer
    ) -> Tuple[stats.OpenLoopPhase, Dict[int, List[float]]]:
        """One fixed-rate phase; returns its ledger and the round trips
        (submit to reply) per n."""

        from repro.client import ServerError

        scheduled = max(1, int(round(rate * seconds)))
        sizes = self.picks.choice(SERVE_SIZES, scheduled)
        ledger = stats.OpenLoopPhase(rate, scheduled)
        sendable = scheduled
        round_trips: Dict[int, List[float]] = {n: [] for n in SERVE_SIZES}
        # per connection: (rid, n, pick, due, sent) of its request in flight
        busy: List[Optional[Tuple[int, int, int, float, float]]] = [None] * CONNECTIONS
        origin = time.perf_counter() + 0.002
        stop_sending = origin + seconds + LIMIT_US * 1e-6
        k = 0
        while True:
            now = time.perf_counter()
            due = origin + k / rate
            free = next((i for i, slot in enumerate(busy) if slot is None), None)
            if k < sendable and now > stop_sending:
                sendable = k  # the rest were never sent: the ledger counts them
            if k < sendable and free is not None and now >= due:
                n = int(sizes[k])
                pick = (self.rid + k) % INPUTS_PER_SIZE
                try:
                    self.clients[free].submit(self.inputs[n][pick], DEFAULT_CONFIG)
                except OSError as exc:
                    result.attempted += 1
                    result.fail(f"submit n={n}: {exc!r}")
                    self.clients[free].close()
                    ledger.record(due, now, now, False)
                else:
                    busy[free] = (self.rid + k, n, pick, due, now)
                k += 1
                continue
            in_flight = [i for i, slot in enumerate(busy) if slot is not None]
            if k >= sendable and not in_flight:
                break
            timeout = None
            if k < sendable and free is not None:
                timeout = max(0.0, due - now)
            # The generator multiplexes both connections from one thread, so
            # it waits on their sockets directly.
            sockets = [self.clients[i]._sock for i in in_flight]
            if not sockets:
                time.sleep(timeout or 0.0)
                continue
            ready, _, _ = select.select(sockets, [], [], timeout)
            for i in in_flight:
                if self.clients[i]._sock not in ready:
                    continue
                rid, n, pick, due_i, sent = busy[i]  # type: ignore[misc]
                busy[i] = None
                result.attempted += 1
                try:
                    reply = self.clients[i].collect()
                    done = time.perf_counter()
                    ok = (
                        not reply.detected
                        and not reply.uncorrectable
                        and output_ok(reply.output, self.refs[n][pick])
                    )
                    if ok:
                        self.good_samples += n
                    else:
                        result.fail(f"request {rid} n={n}: wrong output or false detection")
                except (ServerError, OSError, EOFError) as exc:
                    done = time.perf_counter()
                    ok = False
                    result.fail(f"request {rid} n={n}: {exc!r}")
                    self.clients[i].close()
                ledger.record(due_i, sent, done, ok)
                round_trips[n].append(done - sent)
                request = tracer.record("serve.request", due_i, done, rid=rid)
                tracer.record("server.round_trip", sent, done, rid=rid, parent=request)
        ledger.end = time.perf_counter()
        self.rid += scheduled
        return ledger, round_trips

    def schedule(
        self, seconds: float, result: Result, tracer: Tracer
    ) -> List[Tuple[stats.OpenLoopPhase, Dict[int, List[float]]]]:
        """Every phase of ``PHASES``, lowest rate first, ``seconds`` in total."""

        return [self.phase(rate, seconds * share, result, tracer) for rate, share in PHASES]


def _stats(address: str) -> Dict[str, Any]:
    from repro.client import Client

    with Client(address) as client:
        return client.stats()


def _served_plans(seed: int, index: int) -> Tuple[Dict[int, Any], Dict[int, np.ndarray]]:
    import repro

    data = rng_for(seed, 7, index)
    xs = {n: uniform_complex(data, n) for n in SERVE_SIZES}
    plans = {n: repro.plan(n, DEFAULT_CONFIG) for n in SERVE_SIZES}
    for n in SERVE_SIZES:
        plans[n].execute(xs[n])
    return plans, xs


def sub_run(seed: int, index: int, seconds: float, ready: Callable[[], None]) -> Dict[str, Any]:
    """The protected-vs-numpy comparison at the served sizes, in a worker
    process (run once no daemon competes for the cores)."""

    plans, xs = _served_plans(seed, index)
    ready()
    pairs = [
        (f"n{n}", lambda p=plans[n], x=xs[n]: p.execute(x), lambda x=xs[n]: np.fft.fft(x))
        for n in SERVE_SIZES
    ]
    return {"ratio_samples": interleaved(pairs, seconds)}


def _in_process(seed: int, seconds: float, result: Result) -> Dict[str, float]:
    """The in-process rungs under a served request (traced run): 1- and
    2-row ``execute_many`` and the numpy floor at each served size."""

    import repro

    plans, xs = _served_plans(seed, 0)
    backend = repro.get_backend("numpy")
    one = {n: xs[n][None, :] for n in SERVE_SIZES}
    two = {n: np.stack([xs[n], xs[n][::-1]]) for n in SERVE_SIZES}
    pairs = []
    for n in SERVE_SIZES:
        pairs.append((f"one.n{n}", lambda p=plans[n], X=one[n]: p.execute_many(X), lambda x=xs[n]: backend.fft(x)))
        pairs.append((f"two.n{n}", lambda p=plans[n], X=two[n]: p.execute_many(X), lambda x=xs[n]: backend.fft(x)))
    samples = interleaved(pairs, seconds)
    single_row: Dict[str, float] = {}
    ftplan_stalls = fftlib_stalls = 0
    for n in SERVE_SIZES:
        one_row, floor_a = samples[f"one.n{n}"]
        two_rows, floor_b = samples[f"two.n{n}"]
        single_row[f"n{n}"] = stats.median(one_row)
        result.put(
            f"core.ftplan.execute_many_row_us.n{n}", stats.median(two_rows) * 1e6 / 2, "us",
            f"2-row execute_many / 2, median of {len(two_rows)}",
        )
        result.put(
            f"fftlib.backends.numpy_fft_us.n{n}", stats.median(floor_a + floor_b) * 1e6, "us",
            f"median of {len(floor_a) + len(floor_b)}",
        )
        ftplan_stalls += stats.stalls(one_row) + stats.stalls(two_rows)
        fftlib_stalls += stats.stalls(floor_a + floor_b)
    result.put("blas.stalls.ftplan", ftplan_stalls, "count", "in-process rungs, > 10x median")
    result.put("blas.stalls.fftlib", fftlib_stalls, "count", "in-process rungs, > 10x median")
    return single_row


def _daemon_run(
    seed: int, index: int, seconds: float, trace: bool, result: Result
) -> Dict[str, Any]:
    """Start daemon ``index``, time its set-up, load it, stop it.

    Untraced, the rate schedule runs once; traced, it runs untraced and
    then with spans.  Returns the figures of this daemon."""

    check_x = uniform_complex(rng_for(seed, 8, index), 1024)
    daemon = _Daemon(index)
    load: Optional[_Load] = None
    try:
        figures: Dict[str, Any] = {"setup_s": daemon.wait_ready(check_x, np.fft.fft(check_x))}
        load = _Load(seed, index, daemon.address)
        load.phase(RATES[0], WARMUP_S, Result(), Tracer(False))
        figures["stats_before"] = _stats(daemon.address)
        if trace:
            figures["untraced"] = load.schedule(seconds / 2, result, Tracer(False))
            figures["stats_before"] = _stats(daemon.address)
            figures["tracer"] = Tracer(True)
            figures["phases"] = load.schedule(seconds / 2, result, figures["tracer"])
        else:
            load.good_samples = 0
            figures["phases"] = load.schedule(seconds, result, Tracer(False))
            figures["good_samples"] = load.good_samples
            figures["peak_rss_mb"] = peak_rss_pid_mb(daemon.proc.pid)
        figures["stats_after"] = _stats(daemon.address)
        return figures
    finally:
        if load is not None:
            load.close()
        daemon.stop()


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    load_seconds = seconds * (1 - RATIO_SHARE)
    if trace:
        figures = _daemon_run(seed, 0, load_seconds, True, result)
    else:
        daemons = [
            _daemon_run(seed, index, load_seconds / DAEMONS, False, result)
            for index in range(DAEMONS)
        ]
    # In-process measurements run once no daemon competes for the cores.
    if trace:
        _per_layer(result, figures, _in_process(seed, seconds * RATIO_SHARE, result))
        result.spans = figures["tracer"]
    else:
        _end_to_end(result, daemons)
        put_ratio(result, run_workers("serve-small", seed, seconds * RATIO_SHARE, RATIO_PROCESSES))
    return result


Phases = List[Tuple[stats.OpenLoopPhase, Dict[int, List[float]]]]


def _reference(phases: Phases) -> List[float]:
    """Latencies (censored) of the requests at the reference rate."""

    return [
        value
        for ledger, _ in phases
        if ledger.rate == REFERENCE_RATE
        for value in ledger.censored_latencies()
    ]


def _end_to_end(result: Result, daemons: List[Dict[str, Any]]) -> None:
    """Per daemon: the highest rate meeting the limit, the reference
    phase's median and tail, and correct samples per second over all
    phases; each reported as the median over the daemons."""

    limit = LIMIT_US * 1e-6
    put_setup(
        result, [d["setup_s"] for d in daemons],
        "serve start to /healthz and a correct first answer",
    )
    best, p50, pooled, throughput, notes = [], [], [], [], []
    for d in daemons:
        phases = d["phases"]
        best.append(stats.max_rate_meeting([ledger for ledger, _ in phases], limit) or 0.0)
        ref = _reference(phases)
        p50.append(stats.median(ref))
        pooled += ref
        span = sum(max([ledger.end] + ledger.done) - min(ledger.due) for ledger, _ in phases)
        throughput.append(d["good_samples"] / span / 1e6)
        parts = []
        for ledger, _ in phases:
            lat = ledger.censored_latencies()
            parts.append(
                f"{ledger.rate:.0f}/s p50 {stats.median(lat) * 1e6:.0f} "
                f"p{stats.tail(lat)[0]:.1f} {stats.tail(lat)[1] * 1e6:.0f} us "
                f"{'meets' if ledger.meets(limit) else 'misses'}"
            )
        notes.append("; ".join(parts))
    result.put(
        "max_rps_at_slo", stats.median(best), "1/s",
        f"median over {len(daemons)} daemons of the highest rate with p99 <= {LIMIT_US / 1e3:.0f} ms "
        f"from due time and no growing backlog: {best}",
    )
    result.put(
        "latency_p50_us", stats.median(p50) * 1e6, "us",
        f"median over daemons of the median request at {REFERENCE_RATE:.0f}/s: "
        + ", ".join(f"{v * 1e6:.0f}" for v in p50),
    )
    pct, tail = stats.tail(pooled)
    result.put(
        "latency_p99_us", tail * 1e6, "us",
        f"p{pct:.2f} of {len(pooled)} requests at {REFERENCE_RATE:.0f}/s, all daemons",
    )
    result.put(
        "throughput_msamples_s", stats.median(throughput), "Msamples/s",
        "median over daemons of samples answered correctly per second of the rate schedule",
    )
    result.put("corrected_frac", 1.0, "fraction", "no faults injected: vacuously 1")
    result.put("peak_rss_mb", stats.median([d["peak_rss_mb"] for d in daemons]), "MiB", "serve daemon")
    result.details["per_daemon"] = notes


def _per_layer(result: Result, figures: Dict[str, Any], single_row: Dict[str, float]) -> None:
    untraced, traced = figures["untraced"], figures["phases"]
    before, after = figures["stats_before"], figures["stats_after"]
    lowest = traced[0][1]
    stalls = 0
    for n in SERVE_SIZES:
        trips = lowest[n]
        rt = stats.median(trips)
        result.put(f"server.round_trip_us.n{n}", rt * 1e6, "us", f"median of {len(trips)} at {RATES[0]:.0f}/s")
        result.put(
            f"server.overhead_us.n{n}", (rt - single_row[f"n{n}"]) * 1e6, "us",
            "round trip - in-process 1-row execute_many",
        )
    for _ledger, trips in traced:
        stalls += sum(stats.stalls(values) for values in trips.values() if values)
    result.put("blas.stalls.server", stalls, "count", "round trips > 10x their n's median, per phase")

    def delta(name: str) -> int:
        return counter_sum(after["counters"], name) - counter_sum(before["counters"], name)

    result.put("server.mean_batch", delta("server_transforms") / max(delta("server_batches"), 1), "rows")
    result.put("server.errors", delta("server_errors"), "count")
    cache_a, cache_b = before["caches"]["plan_cache"], after["caches"]["plan_cache"]
    hits, misses = cache_b["hits"] - cache_a["hits"], cache_b["misses"] - cache_a["misses"]
    result.put("core.plan_cache.hit_ratio", hits / max(hits + misses, 1), "fraction", "daemon plan cache")
    lateness = [v for ledger, _ in traced if ledger.rate == REFERENCE_RATE for v in ledger.lateness()]
    pct, late = stats.tail(lateness)
    result.put("client.send_lateness_us", late * 1e6, "us", f"p{pct:.2f} at the reference rate")
    pct, tail = stats.tail(_reference(untraced))
    result.put("latency_p99_us", tail * 1e6, "us", f"p{pct:.2f} at the reference rate, untraced")
    plain = stats.median(_reference(untraced))
    with_spans = stats.median(_reference(traced))
    result.put("trace.overhead_us", (with_spans - plain) * 1e6, "us", "traced - untraced p50 at the reference rate")
    result.put("trace.overhead_frac", with_spans / plain - 1.0, "fraction", "traced / untraced p50 - 1")
