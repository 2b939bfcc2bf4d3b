"""Pure statistics of the benchmark: no timing, no I/O, no repro imports.

Everything here is unit-tested in ``perfbench/tests``: the tail-percentile
rule, self time from nested spans, the fault-outcome classifier, the
open-loop lateness ledger and the stall count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A reported tail needs at least this many samples beyond it.
MIN_BEYOND = 10

#: A sample more than this multiple of its rung's median is a stall.
STALL_FACTOR = 10.0


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def tail(samples: Sequence[float], pct: float = 99.0, min_beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile up to ``pct`` that
    leaves at least ``min_beyond`` samples strictly beyond it.

    Percentiles use the nearest-rank definition: the ``p``-th percentile of
    ``N`` sorted samples is the one at rank ``ceil(p / 100 * N)``.  With
    ``N`` samples the rank is capped at ``N - min_beyond``, so 1000 samples
    support p99 and 500 support only p98; the percentile actually reported
    is returned next to the value.  Infinite samples (failed requests) sort
    last and so count as beyond any finite limit.
    """

    ordered = sorted(samples)
    count = len(ordered)
    if count <= min_beyond:
        raise ValueError(f"{count} samples cannot support a tail with {min_beyond} beyond it")
    rank = min(max(1, math.ceil(pct / 100.0 * count)), count - min_beyond)
    return 100.0 * rank / count, float(ordered[rank - 1])


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def stalls(samples: Sequence[float], factor: float = STALL_FACTOR) -> int:
    """Samples above ``factor`` times the median of their own rung."""

    if not samples:
        return 0
    limit = factor * median(samples)
    return sum(1 for value in samples if value > limit)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def self_times(spans: Sequence[Mapping[str, object]]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once).

    ``spans`` are mappings with ``id``, ``parent`` (``None`` for a root),
    ``start`` and ``end``.
    """

    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children.setdefault(int(parent), []).append((float(span["start"]), float(span["end"])))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(int(span["id"]), [])):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[int(span["id"])] = (end - start) - covered
    return result


# ----------------------------------------------------------------------
# fault outcomes
# ----------------------------------------------------------------------

def classify(output_ok: bool, corrected: bool, uncorrectable: bool) -> str:
    """Outcome of one transform that carried an injected fault.

    * ``flagged-uncorrectable``: the report says so, whatever the output;
    * ``silent``: the output is beyond tolerance and nothing was flagged -
      the worst outcome ABFT can have (a "corrected" report on a wrong
      output is silent too: the caller is told the answer is good);
    * ``corrected``: correct output and the report says it was corrected;
    * ``masked``: correct output with no correction reported (the fault
      did not move the output past tolerance, or was never acted on).
    """

    if uncorrectable:
        return "flagged-uncorrectable"
    if not output_ok:
        return "silent"
    return "corrected" if corrected else "masked"


# ----------------------------------------------------------------------
# open-loop accounting
# ----------------------------------------------------------------------

@dataclass
class OpenLoopPhase:
    """One fixed-rate phase of an open-loop load: request ``k`` is due at
    ``k / rate`` after the phase start, whatever happened to earlier ones.

    Latency runs from when a request was *due*, so a stall also charges the
    requests queued behind it; lateness is how far behind schedule the
    generator sent.  A request that failed, or was due but never sent
    before the phase ended, has infinite latency: it misses any limit.
    """

    rate: float
    scheduled: int
    #: when the phase gave up waiting (set by the generator)
    end: float = 0.0
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)

    def record(self, due: float, sent: float, done: float, ok: bool) -> None:
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(done)
        self.ok.append(ok)

    @property
    def unsent(self) -> int:
        return self.scheduled - len(self.due)

    def latencies(self) -> List[float]:
        values = [
            done - due if ok else math.inf
            for due, done, ok in zip(self.due, self.done, self.ok)
        ]
        return values + [math.inf] * self.unsent

    def censored_latencies(self) -> List[float]:
        """As :meth:`latencies`, but a failed or unsent request counts the
        time from when it was due to the end of the phase: a finite lower
        bound for reporting (every such request still misses the limit)."""

        first_unsent = self.due[-1] + 1.0 / self.rate if self.due else self.end
        unsent = [self.end - (first_unsent + k / self.rate) for k in range(self.unsent)]
        values = [
            done - due if ok else max(done, self.end) - due
            for due, done, ok in zip(self.due, self.done, self.ok)
        ]
        return values + unsent

    def lateness(self) -> List[float]:
        return [sent - due for due, sent in zip(self.due, self.sent)]

    def backlog_grew(self, limit: float) -> bool:
        """Whether the generator fell behind for good: requests left unsent,
        or the last one sent more than ``limit`` after it was due."""

        if self.unsent:
            return True
        return bool(self.due) and (self.sent[-1] - self.due[-1]) > limit

    def meets(self, limit: float) -> bool:
        """p99 (by :func:`tail`) within ``limit`` and no growing backlog."""

        if self.backlog_grew(limit):
            return False
        return tail(self.latencies())[1] <= limit


def max_rate_meeting(phases: Sequence[OpenLoopPhase], limit: float) -> Optional[float]:
    """Highest phase rate that meets ``limit``; ``None`` when none does."""

    passing = [phase.rate for phase in phases if phase.meets(limit)]
    return max(passing) if passing else None
