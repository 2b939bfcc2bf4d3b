"""Every metric the benchmark reports, by name and unit.

``BENCHMARK.json`` lists the same names (a test keeps the two in step).
A run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``); a per-layer metric that does not apply to the
workload is reported as 0 with the note "n/a".

``latency_p99_us``, ``failed_frac`` and ``silent_corruptions`` are
per-layer entries although they describe the whole system: the last two
are 0 on every accepted run, and the tail moves between runs on the
shared two-core reference host by more than any regression bound (see
``perfbench/README.md``).  Untraced runs still print all three.
"""

from __future__ import annotations

from typing import List, Tuple

from ftbench.shapes import BULK_BATCH, BULK_SINGLE, FAULT_SIZES, SERVE_SIZES

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("throughput_msamples_s", "Msamples/s"),
    ("max_rps_at_slo", "1/s"),
    ("latency_p50_us", "us"),
    ("protected_over_numpy", "ratio"),
    ("corrected_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
]


def _tags() -> Tuple[List[str], List[str], List[str]]:
    single = [tag for tag, *_ in BULK_SINGLE]
    plain = [tag for tag in single if not tag.endswith("-native")]
    return single, plain, plain + [BULK_BATCH[0]]


def per_layer() -> List[Tuple[str, str]]:
    single, plain, bulk = _tags()
    served = [f"n{n}" for n in SERVE_SIZES]
    floor_tags = served + [tag for tag in bulk if tag not in served]
    names: List[Tuple[str, str]] = []
    names += [(f"fftlib.backends.numpy_fft_us.{tag}", "us") for tag in floor_tags]
    names += [(f"fftlib.executor.program_us.{tag}", "us") for tag in bulk]
    names += [(f"fftlib.native.program_us.{tag}", "us") for tag in bulk]
    names += [(f"fftlib.native.gflops_computed.{tag}", "GFLOP/s") for tag in bulk]
    names += [(f"fftlib.protected.encode_us.{tag}", "us") for tag in plain]
    names += [(f"fftlib.protected.tapped_us.{tag}", "us") for tag in plain]
    names += [(f"core.ftplan.execute_us.{tag}", "us") for tag in single]
    names += [(f"core.ftplan.dispatch_us.{tag}", "us") for tag in single]
    names += [
        (f"core.ftplan.execute_many_row_us.{tag}", "us") for tag in served + [BULK_BATCH[0]]
    ]
    names += [(f"core.ftplan.recovery_us.n{n}", "us") for n in FAULT_SIZES]
    names += [
        ("core.ftplan.fallback_rows", "count"),
        ("core.abft.detected", "count"),
        ("core.abft.corrected", "count"),
        ("core.abft.retries", "count"),
        ("core.abft.uncorrectable", "count"),
        ("core.abft.retry_ratio", "fraction"),
        ("core.plan_cache.hit_ratio", "fraction"),
    ]
    names += [(f"server.round_trip_us.{tag}", "us") for tag in served]
    names += [(f"server.overhead_us.{tag}", "us") for tag in served]
    names += [
        ("server.mean_batch", "rows"),
        ("server.errors", "count"),
        ("client.send_lateness_us", "us"),
        ("blas.stalls.fftlib", "count"),
        ("blas.stalls.ftplan", "count"),
        ("blas.stalls.server", "count"),
        ("faults.masked", "count"),
        ("latency_p99_us", "us"),
        ("failed_frac", "fraction"),
        ("silent_corruptions", "count"),
        ("trace.overhead_us", "us"),
        ("trace.overhead_frac", "fraction"),
    ]
    return names
