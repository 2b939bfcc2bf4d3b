"""In-memory span recorder for the traced run.

A span is one public call the benchmark made into a layer (or, for the
fused protected program, one call ``FTPlan`` made into ``fftlib`` while the
benchmark watched it): name, start, end, the span that caused it, and the
request it belongs to.  Spans stay in memory while the workload runs and
are written out as JSON lines when it ends.  A disabled tracer records
nothing, so the untraced run pays one attribute check per call.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def begin(self, name: str, rid: Optional[int] = None) -> Optional[int]:
        """Open a span now; spans begun or recorded before its :meth:`end`
        become its children."""

        if not self.enabled:
            return None
        span_id = self._add(name, time.perf_counter(), 0.0, rid, None)
        self._open.append(span_id)
        return span_id

    def end(self, span_id: Optional[int]) -> None:
        if span_id is None:
            return
        self.spans[span_id]["end"] = time.perf_counter()
        self._open.remove(span_id)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        rid: Optional[int] = None,
        parent: Optional[int] = None,
    ) -> Optional[int]:
        """Add a finished span timed by the caller."""

        if not self.enabled:
            return None
        return self._add(name, start, end, rid, parent)

    def _add(
        self, name: str, start: float, end: float, rid: Optional[int], parent: Optional[int]
    ) -> int:
        if parent is None and self._open:
            parent = self._open[-1]
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "rid": rid}
        )
        return span_id

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
