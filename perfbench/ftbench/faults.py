"""faults: in-process recovery through the public ``FTPlan`` entry points.

Every single-vector ``execute`` (n = 1024 and 4096, ``opt-online+mem``)
carries one seeded live fault.  Sites cycle through the six the scalar path
visits; the kind alternates between a bit flip of a random high bit and an
added constant with a seeded magnitude spanning 1e-2 to 1e3.  After each
cycle of single-vector trials, two 8-row ``execute_many`` batches run with
one row hit at ``input`` and at ``output``: the batched recovery path the
server uses.  Each trial is classified against numpy.fft as corrected,
masked, flagged-uncorrectable or silent.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ftbench import stats
from ftbench.common import (
    RATIO_SHARE,
    Result,
    combine,
    counter_sum,
    interleaved,
    output_ok,
    peak_rss_self_mb,
    put_tail,
    put_trace_overhead,
    rng_for,
    run_workers,
    uniform_complex,
)
from ftbench.shapes import DEFAULT_CONFIG, FAULT_BATCH_ROWS, FAULT_SIZES
from ftbench.spans import Tracer

SITES = ("input", "stage1-compute", "twiddle-compute", "intermediate", "stage2-compute", "output")
KINDS = ("bit-flip", "add-constant")
BATCH_SITES = ("input", "output")
INPUTS_PER_SIZE = 8


class _Trials:
    """The seeded trial schedule and its outcome tally."""

    def __init__(self, seed: int, index: int = 0) -> None:
        import repro

        self.rng = rng_for(seed, 3, index)
        self.plans = {n: repro.plan(n, DEFAULT_CONFIG) for n in FAULT_SIZES}
        data = rng_for(seed, 4, index)
        self.inputs = {n: [uniform_complex(data, n) for _ in range(INPUTS_PER_SIZE)] for n in FAULT_SIZES}
        self.refs = {n: [np.fft.fft(x) for x in xs] for n, xs in self.inputs.items()}
        self.batches = {
            n: uniform_complex(data, (FAULT_BATCH_ROWS, n)) for n in FAULT_SIZES
        }
        self.batch_refs = {n: np.fft.fft(X, axis=-1) for n, X in self.batches.items()}
        self.outcomes: Counter = Counter()
        self.fallback_rows = 0
        #: samples one call of each call class transforms
        self.per_call: Dict[str, int] = {}

    def injector(self, site: str, kind: str, element: Any = None) -> Any:
        from repro import FaultInjector, FaultKind, FaultSite, FaultSpec

        magnitude = float(10.0 ** self.rng.uniform(-2.0, 3.0))
        spec = FaultSpec(
            site=FaultSite(site), kind=FaultKind(kind), magnitude=magnitude, element=element
        )
        return FaultInjector.from_specs([spec], seed=int(self.rng.integers(1 << 31)))

    def single(self, trial: int, result: Result, tracer: Tracer) -> Tuple[str, float, int]:
        """Single-vector trial ``trial``: returns its call class, time and
        the samples it transformed correctly."""

        n = FAULT_SIZES[trial % len(FAULT_SIZES)]
        site = SITES[trial % len(SITES)]
        kind = KINDS[(trial // len(SITES)) % len(KINDS)]
        pick = trial % INPUTS_PER_SIZE
        injector = self.injector(site, kind)
        x = self.inputs[n][pick].copy()  # the input site corrupts in place
        plan = self.plans[n]
        start = time.perf_counter()
        answer = plan.execute(x, injector)
        end = time.perf_counter()
        tracer.record(f"core.ftplan.execute.faulty.n{n}", start, end, rid=trial)
        self._judge(
            result, f"n={n} {site}/{kind}", injector.fired_count,
            output_ok(answer.output, self.refs[n][pick]),
            answer.report.corrected, answer.report.has_uncorrectable,
        )
        return f"execute.n{n}.{site}.{kind}", end - start, n

    def batch(self, index: int, result: Result, tracer: Tracer) -> Tuple[str, float, int]:
        """Batch trial ``index``: cycles site, then size, then kind."""

        site = BATCH_SITES[index % len(BATCH_SITES)]
        n = FAULT_SIZES[(index // len(BATCH_SITES)) % len(FAULT_SIZES)]
        kind = KINDS[(index // (len(BATCH_SITES) * len(FAULT_SIZES))) % len(KINDS)]
        row = int(self.rng.integers(FAULT_BATCH_ROWS))
        element = row * n + int(self.rng.integers(n))
        injector = self.injector(site, kind, element)
        X = self.batches[n].copy()
        start = time.perf_counter()
        answer = self.plans[n].execute_many(X, injector=injector)
        end = time.perf_counter()
        tracer.record(f"core.ftplan.execute_many.faulty.n{n}", start, end, rid=index)
        self.fallback_rows += len(answer.fallback_rows)
        self._judge(
            result, f"batch n={n} row {row} {site}", injector.fired_count,
            output_ok(answer.output, self.batch_refs[n]),
            row in answer.fallback_rows and not answer.uncorrectable_rows,
            bool(answer.uncorrectable_rows),
        )
        return f"execute_many.n{n}.{site}.{kind}", end - start, n * FAULT_BATCH_ROWS

    def _judge(
        self, result: Result, what: str, fired: int, ok: bool, corrected: bool, uncorrectable: bool
    ) -> None:
        """Tally one trial; a flagged or silent outcome is a failed operation."""

        result.attempted += 1
        if not fired:
            # The fault never struck: this is a fault-free transform.
            self.outcomes["not-fired"] += 1
            if not ok or uncorrectable:
                result.fail(f"{what}: fault did not fire, yet output wrong or flagged")
            return
        outcome = stats.classify(ok, corrected, uncorrectable)
        self.outcomes[outcome] += 1
        if outcome == "silent":
            result.silent += 1
            result.fail(f"{what}: SILENT corruption")
        elif outcome == "flagged-uncorrectable":
            result.fail(f"{what}: flagged uncorrectable")


def _load(
    trials: _Trials, seconds: float, result: Result, tracer: Tracer, first: int = 0
) -> Tuple[Dict[str, List[float]], int]:
    """Whole cycles until ``seconds`` pass; a cycle is one single-vector
    trial per (site, kind, size), then two batch trials.  Returns the call
    times per call class and the next trial number."""

    samples: Dict[str, List[float]] = {}
    trial = first
    deadline = time.perf_counter() + seconds
    cycle = len(SITES) * len(KINDS) * len(FAULT_SIZES)
    while trial == first or time.perf_counter() < deadline:
        runs = [trials.single(trial + k, result, tracer) for k in range(cycle)]
        trial += cycle
        batch = (trial // cycle - 1) * len(BATCH_SITES)
        runs += [trials.batch(batch + k, result, tracer) for k in range(len(BATCH_SITES))]
        for name, elapsed, per_call in runs:
            samples.setdefault(name, []).append(elapsed)
            trials.per_call[name] = per_call
    return samples, trial


def _recovery(trials: _Trials, seconds: float, tracer: Tracer) -> Dict[int, Tuple[List[float], List[float]]]:
    """Clean ``execute`` against faulty ``execute`` on the same plan, n and
    input, interleaved; the difference of medians is the recovery cost."""

    from repro import FaultInjector

    pairs = []
    for n in FAULT_SIZES:
        plan, x = trials.plans[n], trials.inputs[n][0]
        trial = iter(range(1 << 30))

        def faulty(plan: Any = plan, x: Any = x, trial: Any = trial) -> None:
            k = next(trial)
            injector: FaultInjector = trials.injector(SITES[k % len(SITES)], KINDS[(k // len(SITES)) % 2])
            span = tracer.begin(f"core.ftplan.execute.recovering.n{plan.n}")
            plan.execute(x.copy(), injector)
            tracer.end(span)

        def clean(plan: Any = plan, x: Any = x) -> None:
            span = tracer.begin(f"core.ftplan.execute.clean.n{plan.n}")
            plan.execute(x.copy())
            tracer.end(span)

        pairs.append((n, faulty, clean))
    return interleaved(pairs, seconds)


def _ratio_pairs(trials: _Trials, floor: Callable[[np.ndarray], Any]) -> List[Tuple[str, Any, Any]]:
    """Fault-free ``execute`` against ``floor`` on the same input, per size."""

    return [
        (f"n{n}", lambda p=trials.plans[n], x=trials.inputs[n][0]: p.execute(x),
         lambda x=trials.inputs[n][0]: floor(x))
        for n in FAULT_SIZES
    ]


def _group(name: str) -> str:
    """Latency group of a call class: the public call and n, over all sites."""

    return ".".join(name.split(".")[:2])


def _by_group(samples: Dict[str, List[float]]) -> Dict[str, List[float]]:
    groups: Dict[str, List[float]] = {}
    for name, values in samples.items():
        groups.setdefault(_group(name), []).extend(values)
    return groups


def _warm(trials: _Trials, result: Result) -> None:
    """One untimed cycle: compiles, allocates, and checks first answers."""

    _load(trials, 0.0, result, Tracer(False))
    trials.outcomes.clear()
    trials.fallback_rows = 0


def sub_run(seed: int, index: int, seconds: float, ready: Callable[[], None]) -> Dict[str, Any]:
    """One untraced sub-run (in a worker process): the fault cycles, then
    the fault-free protected-vs-numpy comparison on the same plans."""

    result = Result()
    trials = _Trials(seed, index)
    _warm(trials, result)
    ready()
    samples, _ = _load(trials, seconds * (1 - RATIO_SHARE), result, Tracer(False))
    ratio_samples = interleaved(_ratio_pairs(trials, np.fft.fft), seconds * RATIO_SHARE)
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "silent": result.silent,
        "failures": result.failures,
        "classes": {
            name: {"samples": values, "per_call": trials.per_call[name]}
            for name, values in samples.items()
        },
        "ratio_samples": ratio_samples,
        "outcomes": dict(trials.outcomes),
        "peak_rss_mb": peak_rss_self_mb(),
    }


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    if not trace:
        runs = run_workers("faults", seed, seconds)
        combine(result, runs, "import, 2 plans, one cycle of checked faulty calls", _group)
        outcomes: Counter = Counter()
        for run_ in runs:
            outcomes.update(run_["outcomes"])
        injected = sum(v for k, v in outcomes.items() if k != "not-fired")
        result.put(
            "corrected_frac", outcomes["corrected"] / max(injected, 1), "fraction",
            f"{injected} injected: " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())),
        )
        return result

    import repro
    from repro import telemetry

    cache_before = repro.plan_cache_info()
    trials = _Trials(seed)
    _warm(trials, result)
    untraced, next_trial = _load(trials, seconds / 3, result, Tracer(False))
    put_tail(result, _by_group(untraced), "untraced load")
    trials.outcomes.clear()
    trials.fallback_rows = 0
    before = telemetry.snapshot()["counters"]
    tracer = Tracer(True)
    traced, _ = _load(trials, seconds / 3, result, tracer, first=next_trial)
    after = telemetry.snapshot()["counters"]
    recovery = _recovery(trials, seconds / 3, tracer)
    floors = interleaved(_ratio_pairs(trials, repro.get_backend("numpy").fft), seconds / 30)
    for name, (_, floor) in floors.items():
        result.put(
            f"fftlib.backends.numpy_fft_us.{name}", stats.median(floor) * 1e6, "us",
            f"median of {len(floor)}, interleaved with clean execute",
        )
    _per_layer(result, trials, before, after, untraced, traced, recovery)
    result.spans = tracer
    result.details["outcomes"] = dict(trials.outcomes)
    cache_after = repro.plan_cache_info()
    hits, misses = cache_after.hits - cache_before.hits, cache_after.misses - cache_before.misses
    result.put("core.plan_cache.hit_ratio", hits / max(hits + misses, 1), "fraction", f"{hits} hits, {misses} misses")
    return result


def _per_layer(
    result: Result,
    trials: _Trials,
    before: Dict[str, Any],
    after: Dict[str, Any],
    untraced: Dict[str, List[float]],
    traced: Dict[str, List[float]],
    recovery: Dict[int, Tuple[List[float], List[float]]],
) -> None:
    for n, (faulty, clean) in recovery.items():
        result.put(
            f"core.ftplan.recovery_us.n{n}", (stats.median(faulty) - stats.median(clean)) * 1e6, "us",
            f"median faulty - median clean over {len(faulty)} pairs",
        )
    result.put("core.ftplan.fallback_rows", trials.fallback_rows, "count", "traced phase batches")
    deltas = {
        name: counter_sum(after, f"abft_{name}") - counter_sum(before, f"abft_{name}")
        for name in ("detected", "corrected", "retries", "uncorrectable")
    }
    for name, value in deltas.items():
        result.put(f"core.abft.{name}", value, "count", "telemetry delta over the traced phase")
    result.put("core.abft.retry_ratio", deltas["retries"] / max(deltas["detected"], 1), "fraction")
    result.put("faults.masked", trials.outcomes["masked"], "count", "traced phase")
    put_trace_overhead(result, _by_group(untraced), _by_group(traced))
