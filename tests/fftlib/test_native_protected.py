"""Differential tests: the native fused protected program vs its NumPy twin.

``get_protected_program(n, ..., native=True)`` runs the transform and its
checksum taps in one generated-C call and folds the interior tap references
in C.  These tests pin down what makes that safe to serve:

* the spectrum is bitwise identical to the native unprotected transform
  (``get_program(n, native=True).execute``);
* every tap and every reference agrees with the NumPy program's within a
  stated roundoff bound, and that bound sits far below the detection
  threshold ``eta``;
* operators are shared with the NumPy program, not rebuilt;
* fault handling makes the same decisions on both lowerings;
* when the tier is unavailable the plan silently runs the NumPy fused
  program, bitwise, and ``describe()`` says why.
"""

import numpy as np
import pytest

import repro
from repro.core.ftplan import FTPlan, clear_plan_cache
from repro.fftlib import executor as executor_mod
from repro.fftlib.executor import get_program
from repro.fftlib.native import native_supported
from repro.fftlib.protected import (
    _INTERIOR_TAP_MIN,
    ProtectedStageProgram,
    get_protected_program,
)

needs_native = pytest.mark.skipif(
    not native_supported(), reason="no usable C compiler / native tier disabled"
)

#: codelet-only sizes, interior taps (131072), 3 | n (generic base 48) and
#: a generic combine radix (8000 = 5 * 5 * 5 * 64: radix-5 stages)
SIZES = [256, 1024, 4096, 65536, 131072, 3 * 4096, 8000]

EPS = np.finfo(np.float64).eps

NATIVE_CONFIG = "opt-online+mem+native"


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _data(n, seed=0):
    rng = np.random.default_rng(seed + n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _pair(n):
    pure = get_protected_program(n, optimized=True, memory_ft=True)
    native = get_protected_program(n, optimized=True, memory_ft=True, native=True)
    return pure, native


def _roundoff_bounds(prog, x):
    """Per-tap bound on the gap between two summation orders of one tap.

    Tap ``i`` sums ``n`` outputs of a stage whose rows are ``L``-point DFTs,
    so by Parseval its terms have 2-norm ``sqrt(L) * ||x||``; two orderings
    of that sum differ by a few ``eps * sqrt(n) * ||terms||_2``.
    """

    norm = np.linalg.norm(x)
    return np.array(
        [4.0 * EPS * np.sqrt(prog.n) * np.sqrt(tap.span) * norm for tap in prog.taps]
    )


@needs_native
class TestNativeSpectrumAndTaps:
    @pytest.mark.parametrize("n", SIZES)
    def test_spectrum_bitwise_equal_to_native_program(self, n):
        x = _data(n)
        _, native = _pair(n)
        assert native.lowering == "fused-native"
        out, _ = native.execute_tapped(x)
        assert np.array_equal(out, get_program(n, native=True).execute(x))

    @pytest.mark.parametrize("n", SIZES)
    def test_taps_and_references_match_numpy_within_roundoff(self, n):
        x = _data(n)
        pure, native = _pair(n)
        assert len(native.taps) == (len(pure.program.stages) + 1 if n >= _INTERIOR_TAP_MIN else 1)
        bounds = _roundoff_bounds(pure, x)
        eta = repro.plan(n, NATIVE_CONFIG)._encode(x).eta
        # The bound itself is far below the detection threshold ...
        assert np.all(bounds < eta / 10)
        # ... and the native taps and references stay inside it.
        _, taps_numpy = pure.execute_tapped(x)
        _, taps_native = native.execute_tapped(x)
        assert np.all(np.abs(taps_native - taps_numpy) <= bounds)
        refs_numpy = pure.encode(x)
        refs_native = native.encode(x)
        assert np.all(np.abs(refs_native - refs_numpy) <= bounds)
        # refs[-1] is the NumPy c . x either way: the memory re-check's reference.
        assert refs_native[-1] == refs_numpy[-1]

    def test_fault_free_interior_taps_pass_verification(self):
        n = 131072
        _, native = _pair(n)
        x = _data(n)
        refs = native.encode(x)
        _, taps = native.execute_tapped(x)
        eta = repro.plan(n, NATIVE_CONFIG)._encode(x).eta
        assert np.all(np.abs(taps - refs) < eta)

    def test_operators_are_shared_not_rebuilt(self):
        n = 131072
        pure, native = _pair(n)
        assert native.taps is pure.taps
        assert native.w1 is pure.w1 and native.w2 is pure.w2
        assert native.program is get_program(n, native=True)
        assert native is get_protected_program(n, optimized=True, memory_ft=True, native=True)

    def test_plan_runs_the_native_fused_program(self):
        n = 4096
        x = _data(n)
        p = repro.plan(n, NATIVE_CONFIG)
        assert p._fused_program.lowering == "fused-native"
        assert "fused-native" in p.describe()
        assert ", fused," in repro.plan(n).describe()
        assert "fused-native" in p._fused_program.describe()
        result = p.execute(x)
        assert not result.report.detected
        assert np.array_equal(result.output, get_program(n, native=True).execute(x))
        back = p.inverse(result.output).output
        assert np.allclose(back, x, rtol=1e-10, atol=1e-10)


def _run_with(monkeypatch, plan, x, corrupt):
    """Execute ``plan`` fused with ``corrupt`` wrapped around execute_tapped."""

    original = ProtectedStageProgram.execute_tapped
    state = {"hits": 0}

    def wrapped(self, data):
        state["hits"] += 1
        return corrupt(original, self, data, state["hits"])

    monkeypatch.setattr(ProtectedStageProgram, "execute_tapped", wrapped)
    try:
        return plan._execute_fused(x), state["hits"]
    finally:
        monkeypatch.undo()


def _memory_once(original, prog, data, hit):
    if hit == 1:
        data[13] += 1e6  # in-place: memory corruption between encode and transform
    return original(prog, data)


def _output_once(original, prog, data, hit):
    out, taps = original(prog, data)
    if hit == 1:
        out = out.copy()
        out[3] += 1e6
        taps = taps.copy()
        taps[-1] = np.dot(prog.taps[-1].weights, out)
    return out, taps


def _output_always(original, prog, data, hit):
    return _output_once(original, prog, data, 1)


def _decisions(result):
    report = result.report
    return (
        report.detected,
        report.has_uncorrectable,
        [c.kind for c in report.corrections],
        [(v.site, v.index, v.detected) for v in report.verifications],
    )


@needs_native
class TestSameDecisionsAsNumpy:
    @pytest.mark.parametrize("n", [1024, 131072])
    @pytest.mark.parametrize("corrupt", [_memory_once, _output_once, _output_always])
    def test_in_flight_corruption(self, monkeypatch, n, corrupt):
        x = _data(n)
        numpy_plan = FTPlan(n, "opt-online+mem")
        native_plan = FTPlan(n, NATIVE_CONFIG)
        assert native_plan._fused_program.lowering == "fused-native"
        expected, hits = _run_with(monkeypatch, numpy_plan, x.copy(), corrupt)
        got, native_hits = _run_with(monkeypatch, native_plan, x.copy(), corrupt)
        assert native_hits == hits
        assert _decisions(got) == _decisions(expected)
        if not expected.report.has_uncorrectable:
            assert np.allclose(got.output, expected.output, rtol=1e-8, atol=1e-8)


class TestFallback:
    def test_disabled_tier_runs_numpy_fused_program_bitwise(self, monkeypatch):
        n = 131072
        x = _data(n)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        executor_mod.clear_program_cache()
        try:
            p = FTPlan(n, NATIVE_CONFIG)
            prog = p._fused_program
            assert prog.program.native is None
            assert prog.folds is None
            assert prog.lowering.startswith("native-fallback(")
            assert "REPRO_NO_NATIVE" in prog.lowering
            assert "native-fallback(disabled by REPRO_NO_NATIVE)" in p.describe()
            pure = get_protected_program(n, optimized=True, memory_ft=True)
            assert prog.taps is pure.taps
            out, taps = prog.execute_tapped(x)
            out_pure, taps_pure = pure.execute_tapped(x)
            assert np.array_equal(out, out_pure)
            assert np.array_equal(taps, taps_pure)
            assert np.array_equal(prog.encode(x), pure.encode(x))
            assert np.array_equal(p.execute(x).output, out_pure)
        finally:
            monkeypatch.delenv("REPRO_NO_NATIVE")
            executor_mod.clear_program_cache()

    def test_bluestein_base_falls_back_with_reason(self):
        n = 1009
        prog = get_protected_program(n, optimized=True, memory_ft=True, native=True)
        assert prog.lowering.startswith("native-fallback(")
        x = _data(n)
        out, _ = prog.execute_tapped(x)
        pure = get_protected_program(n, optimized=True, memory_ft=True)
        assert np.array_equal(out, pure.execute_tapped(x)[0])


@needs_native
def test_concurrent_native_fused_executions_match_serial():
    """GIL-free calls from several threads share no scratch: each thread's
    fold and ping-pong buffers are its own."""

    import threading

    n = 131072
    p = FTPlan(n, NATIVE_CONFIG)
    inputs = [_data(n, seed) for seed in range(4)]
    expected = [p.execute(x).output for x in inputs]
    failures = []

    def worker(i):
        for _ in range(5):
            result = p.execute(inputs[i])
            if result.report.detected or not np.array_equal(result.output, expected[i]):
                failures.append(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
