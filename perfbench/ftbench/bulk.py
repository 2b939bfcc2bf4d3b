"""bulk-large: in-process, single thread, closed loop, large transforms.

Each round calls every shape its fixed number of times - ``FTPlan.execute``
at 2^16 and 2^20 under ``opt-online+mem`` and ``opt-online+mem+native``,
and ``execute_many`` on a 64x4096 batch - each call interleaved with
``numpy.fft`` on the same input, alternating which goes first.  The numpy output is the
reference every protected output is checked against, and the pair of
timings gives the paper's overhead ratio per shape.  The fused protected
program, the native kernels and the checksum encode and taps do the work
here; the server does nothing.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ftbench import stats
from ftbench.common import (
    Result,
    combine,
    output_ok,
    peak_rss_self_mb,
    put_tail,
    put_trace_overhead,
    rng_for,
    run_workers,
    uniform_complex,
)
from ftbench.shapes import BULK_BATCH, BULK_SINGLE
from ftbench.spans import Tracer

INPUTS_PER_SHAPE = 2


class _Shape:
    def __init__(
        self, tag: str, n: int, config: str, rows: int, repeats: int, inputs: List[np.ndarray]
    ) -> None:
        import repro

        self.tag, self.n, self.config, self.rows, self.inputs = tag, n, config, rows, inputs
        self.repeats = repeats
        self.plan = repro.plan(n, config)
        self.samples = n * max(rows, 1)

    def call(self, x: np.ndarray) -> Any:
        if self.rows:
            return self.plan.execute_many(x)
        return self.plan.execute(x)


def _shapes(seed: int, index: int = 0) -> List[_Shape]:
    rng = rng_for(seed, 1, index)
    inputs: Dict[Any, List[np.ndarray]] = {}

    def inputs_for(dims: Any) -> List[np.ndarray]:
        # The two configs of one size run on the same inputs.
        if dims not in inputs:
            inputs[dims] = [uniform_complex(rng, dims) for _ in range(INPUTS_PER_SHAPE)]
        return inputs[dims]

    shapes = [
        _Shape(tag, n, config, 0, repeats, inputs_for(n))
        for tag, n, config, repeats in BULK_SINGLE
    ]
    tag, rows, n, config, repeats = BULK_BATCH
    shapes.append(_Shape(tag, n, config, rows, repeats, inputs_for((rows, n))))
    return shapes


def _load(
    shapes: List[_Shape], seconds: float, tracer: Tracer, result: Result
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """The timed closed loop; returns per-tag protected and numpy samples."""

    protected: Dict[str, List[float]] = {shape.tag: [] for shape in shapes}
    floor: Dict[str, List[float]] = {shape.tag: [] for shape in shapes}
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd < 3 or time.perf_counter() < deadline:
        root = tracer.begin("bulk.round", rid=rnd)
        for shape in shapes:
            name = "core.ftplan.execute_many" if shape.rows else "core.ftplan.execute"
            for repeat in range(shape.repeats):
                x = shape.inputs[(rnd + repeat) % INPUTS_PER_SHAPE]
                for side in ((0, 1) if (rnd + repeat) % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    if side:
                        reference = np.fft.fft(x, axis=-1)  # the external floor
                        end = time.perf_counter()
                        floor[shape.tag].append(end - start)
                        tracer.record("numpy.fft", start, end, rid=rnd)
                    else:
                        answer = shape.call(x)
                        end = time.perf_counter()
                        protected[shape.tag].append(end - start)
                        tracer.record(name, start, end, rid=rnd)
                result.attempted += 1
                if answer.report.detected or not output_ok(answer.output, reference):
                    result.fail(f"{shape.tag}: wrong output or false detection in round {rnd}")
        tracer.end(root)
        rnd += 1
    return protected, floor


def _ladder(shapes: List[_Shape], seconds: float, tracer: Tracer) -> Dict[str, List[float]]:
    """Every rung of the stack on the workload's own inputs, interleaved:
    one call per rung per round.  While ``FTPlan.execute`` runs, the fused
    protected program's ``execute_tapped`` is wrapped so its calls become
    child spans of the execute span (self time = dispatch)."""

    import repro
    from repro.fftlib.executor import get_program
    from repro.fftlib.protected import get_protected_program

    backend = repro.get_backend("numpy")
    rungs: List[Tuple[str, Callable[[], Any]]] = []
    wrapped = []
    for shape in shapes:
        x = shape.inputs[0]
        tag = shape.tag
        if tag.endswith("-native"):
            rungs.append((f"core.ftplan.execute_us.{tag}", lambda s=shape, x=x: s.call(x)))
            continue
        n = shape.n
        rungs += [
            (f"fftlib.backends.numpy_fft_us.{tag}", lambda x=x: backend.fft(x)),
            (f"fftlib.executor.program_us.{tag}", lambda n=n, x=x: get_program(n).execute(x)),
            (
                f"fftlib.native.program_us.{tag}",
                lambda n=n, x=x: get_program(n, native=True).execute(x),
            ),
        ]
        if shape.rows:
            rungs.append((f"core.ftplan.execute_many_row_us.{tag}", lambda s=shape, x=x: s.call(x)))
            continue
        program = get_protected_program(n, optimized=True, memory_ft=True)
        rungs += [
            (f"fftlib.protected.encode_us.{tag}", lambda p=program, x=x: p.encode(x)),
            (f"fftlib.protected.tapped_us.{tag}", lambda p=program, x=x: p.execute_tapped(x)),
            (f"core.ftplan.execute_us.{tag}", lambda s=shape, x=x: s.call(x)),
        ]
        wrapped.append(program)

    def watch(program: Any) -> None:
        inner = program.execute_tapped

        def execute_tapped(x: np.ndarray) -> Any:
            span = tracer.begin("fftlib.protected.execute_tapped")
            try:
                return inner(x)
            finally:
                tracer.end(span)

        # The program is a frozen dataclass shared through the program
        # cache; the instance attribute shadows the method only while the
        # ladder runs and is removed again below.
        object.__setattr__(program, "execute_tapped", execute_tapped)

    samples: Dict[str, List[float]] = {name: [] for name, _ in rungs}
    for program in wrapped:
        watch(program)
    try:
        deadline = time.perf_counter() + seconds
        rnd = 0
        while rnd < 3 or time.perf_counter() < deadline:
            root = tracer.begin("ladder.round", rid=rnd)
            order = rungs[rnd % len(rungs):] + rungs[: rnd % len(rungs)]
            for name, fn in order:
                span = tracer.begin(name, rid=rnd)
                start = time.perf_counter()
                fn()
                samples[name].append(time.perf_counter() - start)
                tracer.end(span)
            tracer.end(root)
            rnd += 1
    finally:
        for program in wrapped:
            object.__delattr__(program, "execute_tapped")
    return samples


def sub_run(seed: int, index: int, seconds: float, ready: Callable[[], None]) -> Dict[str, Any]:
    """One untraced sub-run (in a worker process): set up, check a first
    answer per shape, then ``seconds`` of the timed loop."""

    result = Result()
    shapes = _shapes(seed, index)
    for shape in shapes:  # the first call compiles and allocates
        x = shape.inputs[0]
        answer = shape.call(x)
        result.attempted += 1
        if answer.report.detected or not output_ok(answer.output, np.fft.fft(x, axis=-1)):
            result.fail(f"{shape.tag}: first answer wrong")
    ready()
    protected, floor = _load(shapes, seconds, Tracer(False), result)
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "silent": 0,
        "failures": result.failures,
        "classes": {
            shape.tag: {"samples": protected[shape.tag], "per_call": shape.samples}
            for shape in shapes
        },
        "ratio_samples": {tag: (protected[tag], floor[tag]) for tag in protected},
        "peak_rss_mb": peak_rss_self_mb(),
    }


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    if not trace:
        combine(
            result, run_workers("bulk-large", seed, seconds),
            "import, 5 plans, one checked call each", lambda tag: tag,
        )
        result.put("corrected_frac", 1.0, "fraction", "no faults injected: vacuously 1")
        return result

    import repro

    cache_before = repro.plan_cache_info()
    shapes = _shapes(seed)
    for shape in shapes:  # warm: first call compiles and allocates
        shape.call(shape.inputs[0])
    untraced = _load(shapes, seconds / 3, Tracer(False), result)[0]
    put_tail(result, untraced, "untraced load")
    tracer = Tracer(enabled=True)
    traced = _load(shapes, seconds / 3, tracer, result)[0]
    ladder = _ladder(shapes, seconds / 3, tracer)
    _per_layer(result, shapes, untraced, traced, ladder, tracer)
    cache_after = repro.plan_cache_info()
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    result.put(
        "core.plan_cache.hit_ratio", hits / max(hits + misses, 1), "fraction",
        f"{hits} hits, {misses} misses",
    )
    result.spans = tracer
    return result


def _per_layer(
    result: Result,
    shapes: List[_Shape],
    untraced: Dict[str, List[float]],
    traced: Dict[str, List[float]],
    ladder: Dict[str, List[float]],
    tracer: Tracer,
) -> None:
    for name, values in ladder.items():
        rows = 64 if name.startswith("core.ftplan.execute_many_row_us") else 1
        result.put(name, stats.median(values) * 1e6 / rows, "us", f"median of {len(values)}")
    for shape in shapes:
        key = f"fftlib.native.program_us.{shape.tag}"
        if key in ladder:
            flops = 5.0 * shape.n * math.log2(shape.n) * max(shape.rows, 1)
            result.put(
                f"fftlib.native.gflops_computed.{shape.tag}",
                flops / stats.median(ladder[key]) / 1e9, "GFLOP/s",
                "computed: 5 n log2 n per transform",
            )
    selfs = stats.self_times(tracer.spans)
    for shape in shapes:
        name = f"core.ftplan.execute_us.{shape.tag}"
        if name not in ladder:
            continue
        own = [selfs[s["id"]] for s in tracer.spans if s["name"] == name]
        children = sum(
            1 for s in tracer.spans
            if s["name"] == "fftlib.protected.execute_tapped" and s["parent"] is not None
            and tracer.spans[s["parent"]]["name"] == name
        )
        result.put(
            f"core.ftplan.dispatch_us.{shape.tag}", stats.median(own) * 1e6, "us",
            f"self time of {len(own)} execute spans with {children} execute_tapped children",
        )
    groups = {"fftlib": [], "ftplan": []}
    for name, values in ladder.items():
        groups["ftplan" if name.startswith("core.") else "fftlib"].append(stats.stalls(values))
    for shape in shapes:
        groups["ftplan"].append(stats.stalls(traced[shape.tag]))
    result.put("blas.stalls.fftlib", sum(groups["fftlib"]), "count", "samples > 10x rung median")
    result.put("blas.stalls.ftplan", sum(groups["ftplan"]), "count", "samples > 10x rung median")
    put_trace_overhead(result, untraced, traced)
