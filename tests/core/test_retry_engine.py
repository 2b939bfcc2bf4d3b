"""The one verify-repair-retry engine behind every ``FTPlan`` entry point.

Every protected path the plan runs itself - the fused program, the real
forward and inverse, both overwrite (``out=``) forms, and batch row
recovery - grants ``max(1, max_retries)`` corrective attempts, and batch
recovery never routes through the legacy scheme classes.
"""

import numpy as np
import pytest

from repro.core.base import OptimizationFlags
from repro.core.config import FTConfig
from repro.core.ftplan import FTPlan
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib.protected import ProtectedStageProgram

N = 1024


def _plan(max_retries, **fields):
    return FTPlan(N, FTConfig(flags=OptimizationFlags(max_retries=max_retries), **fields))


def _complex(seed=0, shape=(N,)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _strike(site, element):
    return FaultInjector(rng=np.random.default_rng(0)).arm_memory(
        site=site, element=element, magnitude=300.0
    )


def _corrupt_fused_taps(monkeypatch):
    """Persistently corrupt the fused program's output (and its final tap)."""

    original = ProtectedStageProgram.execute_tapped

    def always_corrupt(self, x):
        out, taps = original(self, x)
        out = out.copy()
        out[3] += 1e6
        taps = taps.copy()
        taps[-1] = np.dot(self.taps[-1].weights, out)
        return out, taps

    monkeypatch.setattr(ProtectedStageProgram, "execute_tapped", always_corrupt)


def _fused_execute(r, monkeypatch):
    p = _plan(r)
    assert p._fused_program is not None
    _corrupt_fused_taps(monkeypatch)
    return p.execute(_complex()).report


def _fused_inverse(r, monkeypatch):
    p = _plan(r)
    _corrupt_fused_taps(monkeypatch)
    return p.inverse(_complex()).report


def _real_execute(r, monkeypatch):
    p = _plan(r, real=True)
    program = p._real_program
    original = type(program).transform_half

    def corrupt_half(self, z):
        spectrum = original(self, z).copy()
        spectrum[2] += 1e6
        return spectrum

    monkeypatch.setattr(type(program), "transform_half", corrupt_half)
    return p.execute(np.random.default_rng(1).standard_normal(N)).report


def _real_inverse(r):
    p = _plan(r, real=True, memory_ft=False)
    spectrum = np.fft.rfft(np.random.default_rng(2).standard_normal(N))
    return p.inverse(spectrum, _strike(FaultSite.INPUT, 3)).report


def _batch(r, real=False):
    p = _plan(r, real=real, memory_ft=False)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, N)) if real else _complex(3, (4, N))
    result = p.execute_many(X, injector=_strike(FaultSite.INPUT, N + 7))
    assert result.fallback_rows == (1,)
    assert result.uncorrectable_rows == (1,)
    return result.report


UNFIXABLE = {
    "execute-fused": _fused_execute,
    "inverse-fused": _fused_inverse,
    "execute-real": _real_execute,
    "inverse-real": lambda r, mp: _real_inverse(r),
    "execute_many": lambda r, mp: _batch(r),
    "execute_many-real": lambda r, mp: _batch(r, real=True),
}


def _out_complex(r):
    x = _complex(4)
    buf = x.copy()
    result = _plan(r).execute(buf, _strike(FaultSite.OUTPUT, 11), out=buf)
    assert np.allclose(result.output, np.fft.fft(x))
    return result.report


def _out_real(r):
    x = np.random.default_rng(5).standard_normal(N)
    out = np.empty(N // 2 + 1, dtype=np.complex128)
    result = _plan(r, real=True).execute(x.copy(), _strike(FaultSite.OUTPUT, 11), out=out)
    assert np.allclose(result.output, np.fft.rfft(x))
    return result.report


def _out_batch(r):
    X = _complex(6, (4, N))
    buf = X.copy()
    result = _plan(r).execute_many(buf, injector=_strike(FaultSite.OUTPUT, 11), out=buf)
    assert result.fallback_rows == (0,) and result.uncorrectable_rows == ()
    assert np.allclose(result.output, np.fft.fft(X, axis=-1))
    return result.report


FIXABLE_OUT = {
    "execute-out": _out_complex,
    "execute-out-real": _out_real,
    "execute_many-out": _out_batch,
}


@pytest.mark.parametrize("max_retries", [0, 1, 3])
class TestOneRetryBudget:
    @pytest.mark.parametrize("entry", sorted(UNFIXABLE))
    def test_unfixable_fault_exhausts_the_same_budget(self, entry, max_retries, monkeypatch):
        report = UNFIXABLE[entry](max_retries, monkeypatch)
        assert report.recompute_count == max(1, max_retries)
        assert report.has_uncorrectable
        assert any(
            f"still failing after {max(1, max_retries)} corrective attempts" in message
            for message in report.uncorrectable
        )

    @pytest.mark.parametrize("entry", sorted(FIXABLE_OUT))
    def test_fixable_output_fault_repaired_on_every_out_path(self, entry, max_retries):
        report = FIXABLE_OUT[entry](max_retries)
        assert report.memory_correction_count == 1
        assert not report.has_uncorrectable
        assert report.corrected


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("site", [FaultSite.INPUT, FaultSite.OUTPUT])
def test_batch_recovery_never_calls_the_scheme(site, real, threads):
    p = FTPlan(N, FTConfig(real=real, threads=threads))

    def refuse(*args, **kwargs):
        raise AssertionError("batch recovery must not route through the scheme")

    p.scheme.execute = refuse
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, N)) if real else _complex(7, (8, N))
    reference = np.fft.rfft(X, axis=-1) if real else np.fft.fft(X, axis=-1)
    injector = _strike(site, N + 7 if site is FaultSite.INPUT else 5)
    result = p.execute_many(X, injector=injector)
    assert injector.fired_count == 1
    assert len(result.fallback_rows) == 1
    assert result.corrected and not result.uncorrectable
    assert result.uncorrectable_rows == ()
    assert np.allclose(result.output, reference)
