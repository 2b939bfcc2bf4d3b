"""Tests of the benchmark's own logic (no timing, no daemon).

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from ftbench import registry, stats  # noqa: E402
from ftbench.spans import Tracer  # noqa: E402


# -- the tail rule ------------------------------------------------------

def test_tail_is_p99_when_the_sample_supports_it():
    samples = list(range(1, 1001))  # 1000 samples
    pct, value = stats.tail(samples)
    assert pct == 99.0
    assert value == 990
    assert sum(1 for s in samples if s > value) == 10


def test_tail_backs_off_to_leave_ten_samples_beyond():
    samples = list(range(1, 501))  # 500 samples: p99 would leave only 5
    pct, value = stats.tail(samples)
    assert value == 490
    assert pct == pytest.approx(98.0)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_ignores_order_and_counts_failures_as_infinite():
    samples = [5.0] * 995 + [math.inf] * 5
    assert stats.tail(list(reversed(samples))) == (99.0, 5.0)
    samples = [5.0] * 985 + [math.inf] * 15
    assert stats.tail(samples)[1] == math.inf


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


# -- self time from nested spans -----------------------------------------

def _span(i, parent, start, end):
    return {"id": i, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: charged to span 1, not span 0
        _span(3, 0, 6.0, 7.0),
    ]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),  # overlaps span 1 on [4, 6]
        _span(3, 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_self_time_follows():
    tracer = Tracer(True)
    outer = tracer.begin("outer", rid=7)
    tracer.record("inner", 1.0, 2.0)
    tracer.end(outer)
    assert tracer.spans[1]["parent"] == outer
    assert tracer.spans[0]["rid"] == 7
    assert Tracer(False).begin("x") is None
    assert Tracer(False).record("x", 0.0, 1.0) is None


# -- the fault-outcome classifier ------------------------------------------

@pytest.mark.parametrize(
    "output_ok, corrected, uncorrectable, expected",
    [
        (True, True, False, "corrected"),
        (True, False, False, "masked"),
        (False, False, True, "flagged-uncorrectable"),
        (True, False, True, "flagged-uncorrectable"),
        (False, False, False, "silent"),
        (False, True, False, "silent"),  # "corrected" but wrong is still silent
    ],
)
def test_classify(output_ok, corrected, uncorrectable, expected):
    assert stats.classify(output_ok, corrected, uncorrectable) == expected


# -- open-loop lateness accounting ----------------------------------------

def _phase(rate, rows, scheduled=None):
    phase = stats.OpenLoopPhase(rate, scheduled if scheduled is not None else len(rows))
    for due, sent, done, ok in rows:
        phase.record(due, sent, done, ok)
    return phase


def test_latency_runs_from_due_time_and_lateness_from_schedule():
    # Request 1 was due at 0.01 but its connection was busy until 0.05.
    phase = _phase(100.0, [(0.00, 0.00, 0.02, True), (0.01, 0.05, 0.06, True)])
    assert phase.latencies() == pytest.approx([0.02, 0.05])
    assert phase.lateness() == pytest.approx([0.0, 0.04])


def test_failed_and_unsent_requests_miss_every_limit():
    phase = _phase(100.0, [(0.0, 0.0, 0.001, True), (0.01, 0.01, 0.011, False)], scheduled=3)
    assert phase.unsent == 1
    latencies = phase.latencies()
    assert latencies[0] == pytest.approx(0.001)
    assert latencies[1:] == [math.inf, math.inf]
    assert phase.backlog_grew(1.0)


def test_meets_needs_tail_within_limit_and_no_backlog():
    rows = [(k * 0.01, k * 0.01, k * 0.01 + 0.002, True) for k in range(1000)]
    assert _phase(100.0, rows).meets(0.005)
    slow = rows[:-1] + [(9.99, 10.5, 10.6, True)]  # last request sent 0.51 s late
    assert not _phase(100.0, slow).meets(0.005)
    assert _phase(100.0, slow).backlog_grew(0.1)
    tail_heavy = [(d, s, e + (0.01 if k % 50 == 0 else 0.0), ok) for k, (d, s, e, ok) in enumerate(rows)]
    assert not _phase(100.0, tail_heavy).meets(0.005)


def test_max_rate_meeting_picks_the_highest_passing_rate():
    good = [(k * 0.01, k * 0.01, k * 0.01 + 0.001, True) for k in range(100)]
    bad = [(k * 0.01, k * 0.01, k * 0.01 + 1.0, True) for k in range(100)]
    phases = [_phase(100.0, good), _phase(200.0, good), _phase(400.0, bad)]
    assert stats.max_rate_meeting(phases, 0.01) == 200.0
    assert stats.max_rate_meeting([_phase(100.0, bad)], 0.01) is None


# -- other statistics -------------------------------------------------------

def test_stalls_counts_samples_beyond_ten_times_the_median():
    samples = [1.0] * 50 + [10.0, 10.5, 80.0]
    assert stats.stalls(samples) == 2
    assert stats.stalls([]) == 0


def test_geomean():
    assert stats.geomean([1.0, 4.0]) == pytest.approx(2.0)


# -- BENCHMARK.json matches what the runner prints --------------------------

def test_benchmark_json_lists_exactly_the_registry_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == registry.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == registry.per_layer()
    assert [w["name"] for w in spec["workloads"]] == ["serve-small", "bulk-large", "faults"]
