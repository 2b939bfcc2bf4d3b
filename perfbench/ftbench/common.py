"""Helpers shared by the three workloads: inputs, the correctness check,
the result record, set-up timing in fresh processes, and memory peaks."""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ftbench import machine, stats
from ftbench.spans import Tracer

#: The CLI's default output tolerance: relative max error against numpy.fft.
TOLERANCE = 1e-8

#: Share of ``--seconds`` spent on the interleaved protected-vs-numpy
#: phase by the workloads whose load is not itself that comparison.
RATIO_SHARE = 0.2


def rng_for(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tag])


def uniform_complex(rng: np.random.Generator, shape: Any) -> np.ndarray:
    """i.i.d. U(-1, 1) real and imaginary parts."""

    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def rel_err(output: np.ndarray, reference: np.ndarray) -> float:
    """Worst row's relative max error (each row against its own scale)."""

    out = np.atleast_2d(output)
    ref = np.atleast_2d(reference)
    if out.shape != ref.shape:
        return float("inf")
    scale = np.maximum(np.max(np.abs(ref), axis=-1), 1e-300)
    return float(np.max(np.max(np.abs(out - ref), axis=-1) / scale))


def output_ok(output: np.ndarray, reference: np.ndarray) -> bool:
    return rel_err(output, reference) <= TOLERANCE


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


@dataclass
class Result:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    silent: int = 0
    metrics: Dict[str, Metric] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: the traced run's spans, written out by ``run.py``
    spans: Optional[Tracer] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, note)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.silent == 0 and self.attempted > 0


#: Fresh processes per run: set-up is timed in each, the load is split
#: across them, and per-process figures are combined by their median so
#: one process in an unlucky state (a BLAS stall, a slow core) cannot move
#: the result on its own.
SUB_RUNS = 7


def run_workers(
    workload: str, seed: int, seconds: float, count: int = SUB_RUNS
) -> List[Dict[str, Any]]:
    """Run ``count`` fresh ``ftbench/worker.py`` processes one after the
    other, each measuring ``seconds / count``.  Each worker prints
    ``ready`` once set up (plans built, a first answer checked) and
    ``result {json}`` at the end; its ``setup_s`` is the time from process
    start to ``ready``."""

    worker = str(machine.ROOT / "perfbench" / "ftbench" / "worker.py")
    runs = []
    for index in range(count):
        argv = [sys.executable, worker, workload, str(seed), str(seconds / count), str(index)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=machine.child_env(), cwd=str(machine.ROOT),
            stdout=subprocess.PIPE, text=True,
        )
        setup = None
        answer = None
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                if line.startswith("ready") and setup is None:
                    setup = time.perf_counter() - start
                elif line.startswith("result "):
                    answer = json.loads(line[len("result "):])
        finally:
            if proc.poll() is None and answer is None:
                proc.kill()
            proc.wait(timeout=60)
        if proc.returncode != 0 or answer is None or setup is None:
            raise RuntimeError(f"{workload} worker {index} exited {proc.returncode} without a result")
        answer["setup_s"] = setup
        runs.append(answer)
    return runs


def combine(result: Result, runs: List[Dict[str, Any]], what: str, group_of: Callable[[str], str]) -> None:
    """End-to-end metrics of an in-process workload from its sub-runs.

    Each sub-run reports, per call class, the call times and the samples
    one call transforms.  Per sub-run, throughput is the samples of the
    whole call mix over the mix's time at each class's median call time,
    and the call rate likewise; latency is taken per ``group_of(class)``
    (one public call at one shape).  Medians across sub-runs are reported,
    except for the tail, which pools every sub-run's samples per group.
    """

    put_setup(result, [run["setup_s"] for run in runs], what)
    throughput, rate, p50 = [], [], []
    pooled: Dict[str, List[float]] = {}
    for run in runs:
        result.attempted += run["attempted"]
        result.failed += run["failed"]
        result.silent += run["silent"]
        result.failures += run["failures"]
        classes = run["classes"]
        calls = sum(len(c["samples"]) for c in classes.values())
        busy = sum(len(c["samples"]) * stats.median(c["samples"]) for c in classes.values())
        work = sum(len(c["samples"]) * c["per_call"] for c in classes.values())
        throughput.append(work / busy / 1e6)
        rate.append(calls / busy)
        groups: Dict[str, List[float]] = {}
        for name, c in classes.items():
            groups.setdefault(group_of(name), []).extend(c["samples"])
        p50.append(stats.geomean(stats.median(v) for v in groups.values()))
        for name, values in groups.items():
            pooled.setdefault(name, []).extend(values)
    count = sum(len(v) for v in pooled.values())
    result.put(
        "throughput_msamples_s", stats.median(throughput), "Msamples/s",
        "median over sub-runs of samples per second of the call mix at median call times: "
        + ", ".join(f"{v:.3f}" for v in throughput),
    )
    result.put(
        "max_rps_at_slo", stats.median(rate), "1/s",
        "closed loop: protected calls one caller completes per second (median over sub-runs)",
    )
    result.put(
        "latency_p50_us", stats.median(p50) * 1e6, "us",
        f"median over sub-runs of the geomean over {len(pooled)} call groups of their medians; "
        f"{count} calls",
    )
    put_tail(result, pooled, "pooled over sub-runs")
    put_ratio(result, runs)
    result.put(
        "peak_rss_mb", stats.median([run["peak_rss_mb"] for run in runs]), "MiB",
        "benchmark worker process, median over sub-runs",
    )
    result.details["sub_runs"] = [
        {key: value for key, value in run.items() if key not in ("classes", "ratio_samples")}
        for run in runs
    ]


def put_tail(result: Result, groups: Dict[str, List[float]], what: str) -> None:
    """``latency_p99_us``: geometric mean over call groups of each group's
    tail by the :func:`stats.tail` rule (groups too small for a tail are
    left out, and the note says so)."""

    tails = {
        name: stats.tail(values) for name, values in groups.items() if len(values) > stats.MIN_BEYOND
    }
    if len(tails) < len(groups):
        what += f"; {len(groups) - len(tails)} group(s) too small for a tail"
    result.put(
        "latency_p99_us", stats.geomean(v for _, v in tails.values()) * 1e6, "us",
        f"geomean over call groups of their tails ({what}): "
        + ", ".join(f"{name} p{p:.1f} of {len(groups[name])}" for name, (p, _) in tails.items()),
    )


def put_trace_overhead(
    result: Result, untraced: Dict[str, List[float]], traced: Dict[str, List[float]]
) -> None:
    """Tracing overhead per call group: traced against untraced medians."""

    pairs = [(stats.median(untraced[name]), stats.median(traced[name])) for name in untraced]
    result.put(
        "trace.overhead_us", sum(t - u for u, t in pairs) / len(pairs) * 1e6, "us",
        "mean over call groups of traced - untraced median",
    )
    result.put(
        "trace.overhead_frac", stats.geomean(t / u for u, t in pairs) - 1.0, "fraction",
        "geomean over call groups of traced / untraced median, minus 1",
    )


def put_setup(result: Result, seconds: Sequence[float], what: str) -> None:
    result.put(
        "setup_s", stats.median(seconds), "s",
        f"median of {len(seconds)} fresh starts ({what}): "
        + ", ".join(f"{value:.3f}" for value in seconds),
    )


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_pid_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


Pair = Tuple[str, Callable[[], Any], Callable[[], Any]]


def interleaved(pairs: Sequence[Pair], seconds: float, min_rounds: int = 5) -> Dict[str, Tuple[List[float], List[float]]]:
    """Time ``(name, protected, floor)`` call pairs interleaved in one process.

    Each round calls every pair once, alternating which side goes first, so
    drift on the machine hits both sides alike.  Returns per-name sample
    lists ``(protected_s, floor_s)``.
    """

    samples: Dict[str, Tuple[List[float], List[float]]] = {name: ([], []) for name, _, _ in pairs}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for name, protected, floor in pairs:
            sides = ((0, protected), (1, floor)) if rounds % 2 == 0 else ((1, floor), (0, protected))
            for side, fn in sides:
                start = time.perf_counter()
                fn()
                samples[name][side].append(time.perf_counter() - start)
        rounds += 1
    return samples


def put_ratio(result: Result, runs: List[Dict[str, Any]]) -> None:
    """``protected_over_numpy``: per shape, the median protected call over
    the median numpy.fft call, each side pooled over the sub-runs' interleaved
    samples (every sub-run contributes as many calls to both sides);
    geometric mean over shapes."""

    pooled: Dict[str, Tuple[List[float], List[float]]] = {}
    for run in runs:
        for name, (protected, floor) in run["ratio_samples"].items():
            sides = pooled.setdefault(name, ([], []))
            sides[0].extend(protected)
            sides[1].extend(floor)
    ratios = {
        name: stats.median(protected) / stats.median(floor)
        for name, (protected, floor) in pooled.items()
    }
    result.put(
        "protected_over_numpy", stats.geomean(ratios.values()), "ratio",
        f"geomean over shapes of median protected / median numpy.fft, {len(runs)} processes: "
        + ", ".join(f"{name} {value:.3f}" for name, value in ratios.items()),
    )


def counter_sum(counters: Dict[str, Any], name: str) -> int:
    """Sum one counter over its label sets in a ``telemetry.snapshot()``."""

    return int(
        sum(value for key, value in counters.items() if key == name or key.startswith(name + "{"))
    )
