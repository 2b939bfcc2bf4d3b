"""Where the benchmark runs: checkout paths, child environment, and the
machine record printed with every result.

A number is not trusted without the machine state beside it: cores, CPU
and caches, Python/NumPy, the BLAS library and any thread setting found in
the environment (the benchmark deliberately sets none), the repro worker
pool, the native tier's status, and the one-time cold native compile.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
NATIVE_CACHE = WORK / "native"
OUT = WORK / "out"
#: temporary files (the native compile's C source, the compiler's own)
TMP = WORK / "tmp"
COLD_COMPILE = NATIVE_CACHE / "cold_compile.json"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "REPRO_THREADS",
    "REPRO_NO_NATIVE",
)


def checkout_ok() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts (and itself)."""

    env = dict(os.environ)
    env.update(_OWN_ENV)
    return env


_OWN_ENV = {"PYTHONPATH": str(SRC), "REPRO_NATIVE_CACHE": str(NATIVE_CACHE), "TMPDIR": str(TMP)}


def prepare() -> None:
    """Point this process at the checkout and the benchmark-owned native
    cache, and pay the cold native compile once per checkout, timed in a
    fresh process so ``setup_s`` never includes it."""

    os.environ.update(_OWN_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    if COLD_COMPILE.is_file():
        return
    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    probe = (
        "import json, time; import repro; t = time.perf_counter(); "
        "info = repro.native_cache_info(); "
        "print(json.dumps({'cold_compile_s': time.perf_counter() - t, 'native': info}))"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(),
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["process_s"] = time.perf_counter() - start
    COLD_COMPILE.write_text(json.dumps(record) + "\n", encoding="utf-8")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> Dict[str, str]:
    caches: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _blas() -> Dict[str, Any]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # older NumPy: no dict mode
        return {"name": "unknown", "version": None}


def cpu_ticks() -> Dict[str, int]:
    """The whole machine's CPU time so far from ``/proc/stat``, in clock
    ticks: busy (user, nice, system, irq, softirq), idle (with iowait) and
    steal (time the hypervisor ran something else on our virtual CPUs)."""

    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return {}
    user, nice, system, idle, iowait, irq, softirq, steal = fields + [0] * (8 - len(fields))
    return {"busy": user + nice + system + irq + softirq, "idle": idle + iowait, "steal": steal}


def host_load(since: Dict[str, int]) -> Dict[str, Any]:
    """CPU seconds of every kind spent since ``since`` (a :func:`cpu_ticks`),
    and the stolen share: a run whose numbers sit off the others usually
    shows a large ``steal_frac`` here."""

    now = cpu_ticks()
    if not since or not now:
        return {}
    hz = os.sysconf("SC_CLK_TCK")
    seconds: Dict[str, Any] = {f"{name}_s": (now[name] - since[name]) / hz for name in now}
    total = sum(seconds.values())
    seconds["steal_frac"] = seconds["steal_s"] / total if total > 0 else 0.0
    return seconds


def record(since: Dict[str, int]) -> Dict[str, Any]:
    """The machine record; ``since`` is the :func:`cpu_ticks` taken when
    the run started."""

    import numpy as np

    import repro

    cold = json.loads(COLD_COMPILE.read_text(encoding="utf-8")) if COLD_COMPILE.is_file() else {}
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "pool": repro.pool_info()._asdict(),
        "native": repro.native_cache_info(),
        "cold_native_compile_s": cold.get("cold_compile_s"),
        "loadavg": loadavg,
        "cpu_during_run": host_load(since),
    }
