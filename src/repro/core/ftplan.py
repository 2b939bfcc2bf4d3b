"""The plan-centric public API: :func:`plan`, :class:`FTPlan`, the wisdom cache.

The paper's premise is FFTW's *plan once, execute many*: all checksum weight
vectors, twiddle tables, and sub-plans of a protected transform are
size-dependent but data-independent, so they should be paid for once.  This
module is that split for the ABFT schemes:

>>> import numpy as np, repro
>>> p = repro.plan(4096)                       # cached FTPlan (opt-online+mem)
>>> x = np.random.default_rng(0).standard_normal(4096) + 0j
>>> bool(np.allclose(p.execute(x).output, np.fft.fft(x)))
True
>>> repro.plan(4096) is p                      # wisdom: same object back
True

``plan()`` consults a thread-safe, size-bounded LRU cache keyed by
``(n, FTConfig)`` - the analogue of FFTW wisdom.  The returned
:class:`FTPlan` owns the scheme instance plus the batched-protection weight
vectors and exposes three execution entry points:

``execute(x)``
    The protected forward transform of one vector (the scheme's native
    fault-tolerance machinery: per-sub-FFT online verification etc.).
``inverse(X)``
    The protected inverse via the conjugation identity, so the same coverage
    applies in both directions.
``execute_many(X, axis=-1)``
    Batched execution.  The whole batch is transformed as one array with the
    plan's compiled stage program (the backend's batched ``fft`` on foreign
    backends) and protection is *vectorized*: per-row end-to-end checksums
    are generated with one matrix product and verified with one residual
    comparison.  Only rows whose verification fails drop into per-row
    recovery: memory repair of the input row via the locating checksum pair,
    then recomputation of that row with the same transform, re-verified
    against the row's encode-time checksum.  The overwrite form (``out=``)
    repairs a flagged row from its checksum-carried surrogate instead.

Every protected path the plan runs itself shares one engine: one encode
step for the reference checksums, one input-side memory repair, and one
retry driver granting ``max(1, max_retries)`` corrective attempts
(:meth:`FTPlan._retry`).  A live injector on single-vector ``execute``
runs the paper-exact scheme instead.

With ``FTConfig.threads`` above 1, fault-free batches additionally run
*chunk-parallel* on the process-wide worker pool (:mod:`repro.runtime`):
each worker transforms a contiguous slice of rows and verifies its own
slice's end-to-end checksums before returning - per-worker ABFT, the
shared-memory analogue of the paper's per-rank FFT2 protection - so a
corrupted worker's chunk is located and recovered independently of the
others.  The chunk layout depends only on ``(batch, threads)``, never on
the pool, keeping threaded results deterministic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.base import SchemeResult
from repro.core.checksums import (
    halfcomplex_sum,
    repair_single_error,
    weighted_sum,
)
from repro.core.config import FTConfig
from repro.core.constants import SchemeConstants
from repro.core.detection import FTReport
from repro.core.thresholds import ThresholdPolicy, residual_exceeds
from repro.faults.injector import FaultInjector, NullInjector
from repro.faults.models import FaultSite
from repro.fftlib.backends import get_backend, resolve_backend_name
from repro.runtime.pool import get_pool, resolve_thread_count, split_ranges
from repro.telemetry import trace as _trace
from repro.utils.validation import as_complex_vector, ensure_positive_int

__all__ = [
    "BatchResult",
    "FTPlan",
    "PlanCacheInfo",
    "plan",
    "plan_cache_info",
    "clear_plan_cache",
    "set_plan_cache_limit",
]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class BatchResult:
    """Output of one batched protected execution (see ``execute_many``)."""

    output: np.ndarray
    report: FTReport
    #: flat indices (into the flattened batch) of rows that failed the
    #: vectorized verification and went through scalar recovery
    fallback_rows: Tuple[int, ...] = ()
    #: flat indices of rows whose recovery ultimately failed; per-row
    #: consumers (the serving batcher) read this instead of parsing the
    #: report's free-text ``uncorrectable`` messages
    uncorrectable_rows: Tuple[int, ...] = ()

    @property
    def detected(self) -> bool:
        return self.report.detected

    @property
    def corrected(self) -> bool:
        return self.report.corrected

    @property
    def uncorrectable(self) -> bool:
        return self.report.has_uncorrectable


@dataclass
class _Refs:
    """Encode-time references of one vector, or per row of a batch (:meth:`row` picks one).

    The end-to-end checksum ``cx`` and its threshold ``eta``; with memory
    fault tolerance the locating pair ``w``, its sums ``s1``/``s2`` and
    threshold ``eta_mem``; on the overwrite paths the carried surrogate
    ``S1``/``S2`` (``w . X`` of the not-yet-computed output) over the
    output-side pair ``Sw``.
    """

    cx: Any
    eta: Any
    w: Optional[Tuple[np.ndarray, np.ndarray]] = None
    s1: Any = None
    s2: Any = None
    eta_mem: Any = None
    Sw: Optional[Tuple[np.ndarray, np.ndarray]] = None
    S1: Any = None
    S2: Any = None

    def row(self, i: int) -> "_Refs":
        s1, s2, eta_mem, S1, S2 = (
            None if v is None else v[i] for v in (self.s1, self.s2, self.eta_mem, self.S1, self.S2)
        )
        return _Refs(self.cx[i], self.eta[i], self.w, s1, s2, eta_mem, self.Sw, S1, S2)


def _where(site: str, index: Optional[int]) -> str:
    """A report label: the site, plus the batch row when there is one."""

    return site if index is None else f"{site} row {index}"


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------

class FTPlan:
    """A reusable, cached, fault-tolerant transform of one size and config.

    Create via :func:`plan` (which caches) or directly (which does not).
    Plans hold no per-execution state, so one plan may be shared freely
    across threads and executed concurrently.
    """

    def __init__(self, n: int, config: Union[FTConfig, str, None] = None) -> None:
        if config is None:
            config = FTConfig()
        elif isinstance(config, str):
            config = FTConfig.from_name(config)
        self.n = ensure_positive_int(n, name="n")
        self.config = config
        # All data-independent ABFT state - checksum weight vectors,
        # closed-form rA encodings, locating pairs, threshold weight-RMS
        # inputs - is computed exactly once here and threaded into the
        # scheme; execute() never rebuilds it.
        self.constants = SchemeConstants.for_config(self.n, config)
        self.scheme = config.build(self.n, constants=self.constants)
        self.dtype = np.dtype(config.dtype)
        self._protected = config.kind != "plain"
        #: real-input mode: float64 input, packed n//2 + 1 output layout
        self._real = bool(config.real)
        self.bins = self.n // 2 + 1
        #: shared-memory parallelism: chunk count of fault-free batched
        #: executions (``None`` -> 1 = serial, ``0`` -> the pool's size)
        self.threads = resolve_thread_count(config.threads)
        if self._protected:
            # Batched-protection state: end-to-end computational checksum
            # vector (c = rA) and, with memory FT, the locating pair
            # (Section 4.1 reuse with the 3 | n degenerate-weights guard,
            # all from the shared plan-time bundle).  Real plans additionally
            # carry the conjugate-even fold of r onto the packed layout and
            # a locating pair over the packed spectrum itself.
            self._c = self.constants.c_n
            self._r = self.constants.r_n
            self._w1 = self.constants.w1_n
            self._w2 = self.constants.w2_n
            self._hc_a = self.constants.hc_a
            self._hc_b = self.constants.hc_b
            # Threshold derivations, pre-bound at plan time (bit-identical
            # to eta_offline / eta_memory, see ThresholdPolicy).
            self._eta = self.thresholds.offline_threshold_fn(self.n)
            self._eta_memory = self.thresholds.memory_threshold_fn(self.n)
        # Compiled real program (fftlib backend): fetched from the shared
        # program LRU at plan time, so real execution pays no lowering cost.
        self._real_program = None
        if self._real and self.backend == "fftlib":
            from repro.fftlib.executor import get_real_program

            self._real_program = get_real_program(self.n, native=config.native)
        #: in-place execution (``FTConfig.inplace``): the compiled Stockham
        #: program behind the ``out=`` overwrite paths of ``execute`` /
        #: ``execute_many`` (complex plans, fftlib backend, supported sizes;
        #: ``None`` keeps the overwrite *semantics* via transform-and-copy).
        self._inplace = bool(config.inplace)
        self._inplace_program = None
        if (
            self._inplace
            and not self._real
            and self.backend == "fftlib"
        ):
            from repro.fftlib.executor import get_stockham_program, stockham_supported

            if stockham_supported(self.n):
                self._inplace_program = get_stockham_program(
                    self.n, native=config.native
                )
        #: Compiled direct program for batched complex rows (fftlib backend):
        #: execute_many transforms the whole batch through the one-shot stage
        #: program instead of the two-layer pipeline.
        self._batch_program = None
        #: Fused protected program (tentpole of the fused execution path):
        #: protection compiled into the transform - per-stage taps, frozen
        #: verification operators - used by the fault-free single-vector
        #: ``execute``/``inverse``.  Live injectors always take the
        #: paper-exact scheme path.
        self._fused_program = None
        if not self._real and self.backend == "fftlib":
            from repro.fftlib.executor import get_program

            # Native stage bodies for the batched fault-free path (the fused
            # protected program keeps its own pure-NumPy lowering - its
            # interleaved verification taps have no native kernels).
            self._batch_program = get_program(self.n, native=config.native)
            if self._protected:
                from repro.fftlib.planner import get_default_planner
                from repro.fftlib.protected import get_protected_program

                self._fused_program = get_protected_program(
                    self.n, optimized=config.optimized, memory_ft=config.memory_ft
                )
                # MEASURE-mode planners time fused-vs-scheme once per size
                # and remember the winner in wisdom; ESTIMATE trusts the
                # fused lowering (it wraps the fastest compiled program).
                if not get_default_planner().fused_wins(
                    self.n,
                    lambda v: self._execute_fused(v),
                    lambda v: self.scheme.execute(v),
                ):
                    self._fused_program = None
        # Recovery retry budget: explicit flags win; otherwise inherit the
        # built scheme's own default.  Every entry point then grants
        # max(1, max_retries) corrective attempts (see _retry).
        flags = config.flags
        if flags is not None:
            self._max_retries = int(flags.max_retries)
        elif hasattr(self.scheme, "flags"):
            self._max_retries = int(self.scheme.flags.max_retries)
        else:
            self._max_retries = int(getattr(self.scheme, "max_retries", 2))

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return self.scheme.plan.m

    @property
    def k(self) -> int:
        return self.scheme.plan.k

    @property
    def backend(self) -> str:
        return self.scheme.plan.backend

    @property
    def scheme_name(self) -> str:
        return self.scheme.name

    @property
    def thresholds(self) -> ThresholdPolicy:
        return self.scheme.thresholds

    # ------------------------------------------------------------------
    def execute(
        self,
        x: np.ndarray,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> SchemeResult:
        """Protected forward transform of one length-``n`` vector.

        Real plans accept ``n`` float64 samples and return the packed
        ``n//2 + 1`` spectrum (``numpy.fft.rfft`` layout) with the same
        detection/correction guarantees: a live injector routes through the
        scheme's full interior machinery (packed-layout OUTPUT site and
        locating checksums included), fault-free runs take the compiled
        half-complex program with end-to-end conjugate-even verification.

        ``out`` selects the overwrite path (Section 5 of the paper): the
        result is written into the given buffer, which for complex plans
        may be ``x`` itself - the transform then runs genuinely in place
        and the input is *destroyed*.  The checksums encoded before the
        transform carry an input surrogate: with memory fault tolerance the
        locating pair is re-encoded onto the output side
        (``w . X = (F w) . x``), so a single corrupted element of the
        overwritten buffer is located and repaired without the input;
        without memory FT a detected violation is honestly uncorrectable.
        The overwrite path visits only the INPUT/OUTPUT fault sites.
        """

        if out is not None:
            return self._execute_out(x, injector, out)
        if self._real:
            return self._execute_real(x, injector)
        return self._cast_result(self._execute_complex(x, injector))

    def __call__(
        self,
        x: np.ndarray,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> SchemeResult:
        return self.execute(x, injector, out=out)

    def _execute_complex(
        self, x: np.ndarray, injector: Optional[FaultInjector]
    ) -> SchemeResult:
        """Route one complex vector: fused fast path or paper-exact scheme.

        The fused program handles fault-free runs only; any live injector
        gets the scheme's full interior machinery so every instrumented
        fault site keeps firing exactly as the paper describes.
        """

        if self._fused_program is not None and (injector is None or not injector.is_live):
            return self._execute_fused(x)
        return self.scheme.execute(x, injector)

    def inverse(
        self, spectrum: np.ndarray, injector: Optional[FaultInjector] = None
    ) -> SchemeResult:
        """Protected inverse transform.

        Implemented with the conjugation identity
        ``ifft(X) = conj(fft(conj(X))) / n`` so the exact same protected
        forward machinery (and therefore the same coverage) applies.  Real
        plans map the packed spectrum back to ``n`` real samples, protected
        end-to-end through the same checksum identity (``c . x = r . X``
        with the packed-layout fold on the spectrum side).
        """

        if self._real:
            return self._inverse_real(spectrum, injector)
        spectrum = np.asarray(spectrum, dtype=np.complex128)
        result = self._execute_complex(np.conj(spectrum), injector)
        output = np.conj(result.output) / self.n
        return self._cast_result(
            SchemeResult(output=output, report=result.report, scheme=result.scheme)
        )

    # ------------------------------------------------------------------
    # the protected execution engine: encode -> attempt -> fix -> retry
    # ------------------------------------------------------------------
    def _encode(
        self,
        x: np.ndarray,
        *,
        cx: Any = None,
        w: Optional[Tuple[np.ndarray, np.ndarray, float]] = None,
        surrogate: bool = False,
    ) -> _Refs:
        """The one encode step: references for ``x`` (1-D) or each row of ``x`` (2-D).

        The data scale is sampled once and shared by every threshold; the
        thresholds come from the plan-time closures (one vector) or their
        vectorized batch forms, all bit-identical to the per-call
        :class:`ThresholdPolicy` formulas.  ``cx`` passes an end-to-end
        checksum the caller already holds (the fused program's final tap
        reference, the real inverse's spectrum-side fold); ``w`` overrides
        the input locating pair ``(w1, w2, rms(w1))``; ``surrogate`` adds the
        overwrite paths' carried surrogate.
        """

        th = self.thresholds
        if x.ndim == 2:
            sigma = th.component_sigma_rows(x)
            eta = th.eta_offline_batch(self.n, x, sigma0=sigma)
            errstate: Any = nullcontext()
        else:
            x_rms = th.magnitude_rms(x)
            eta = self._eta(float(x_rms / np.sqrt(2.0)))
            # Same suppressed-overflow contract as weighted_sum (x @ w equals
            # np.dot(w, x) bit for bit), one errstate entry for every
            # checksum; the per-call cost is kept off the batch encode.
            errstate = np.errstate(over="ignore", invalid="ignore")
        with errstate:
            refs = _Refs(x @ self._c if cx is None else cx, eta)
            if not self.config.memory_ft:
                return refs
            w1, w2, w_rms = w or (self._w1, self._w2, self.constants.w1_n_rms)
            refs.w = (w1, w2)
            # With the optimized scheme w1 *is* the rA encoding, so the first
            # locating checksum is the input checksum already in hand.
            refs.s1 = refs.cx if w1 is self._c else x @ w1
            refs.s2 = x @ w2
            if surrogate:
                # The carried surrogate: these sums ARE w . X of the
                # not-yet-computed output (packed pair for real plans).
                consts = self._inplace_constants()
                if self._real:
                    f1, f2, refs.Sw = consts.fp1_h, consts.fp2_h, (consts.p1_h, consts.p2_h)
                else:
                    f1, f2, refs.Sw = consts.fw1_n, consts.fw2_n, (w1, w2)
                if f1 is not None:
                    refs.S1, refs.S2 = x @ f1, x @ f2
        if x.ndim == 2:
            refs.eta_mem = th.eta_memory_batch(w1, x, weight_rms=w_rms, sigma0=sigma)
        else:
            eta_memory = self._eta_memory if w is None else th.memory_threshold_fn(w1.size)
            refs.eta_mem = eta_memory(w_rms, x_rms)
        return refs

    def _repair_memory(
        self, x: np.ndarray, refs: _Refs, report: FTReport, site: str, index: Optional[int] = None
    ) -> Optional[bool]:
        """The one input-side repair: memory-verify ``x``, fix one located element in place.

        ``None`` when the check passes (or the plan has no memory fault
        tolerance), ``True`` after a repair, ``False`` when the corruption
        could not be located (recorded uncorrectable).
        """

        if refs.w is None:
            return None
        w1, w2 = refs.w
        residual = float(np.abs(weighted_sum(w1, x) - refs.s1))
        if not residual_exceeds(residual, refs.eta_mem):
            return None
        report.record_verification(f"{site}-mcv", index, residual, refs.eta_mem, True)
        repaired = repair_single_error(x, w1, w2, refs.s1, refs.s2)
        if repaired is None:
            report.record_uncorrectable(
                f"{_where(site, index)}: input corruption could not be located"
            )
            return False
        report.record_correction(
            "memory-correct", f"{site}-input", index, f"element {repaired[0]} repaired"
        )
        return True

    def _repair_output(
        self, buf: np.ndarray, refs: _Refs, report: FTReport, site: str, index: Optional[int] = None
    ) -> bool:
        """The surrogate repair: fix one located element of an overwritten buffer.

        The carried sums ``S1``/``S2`` were encoded from the (destroyed)
        input.  ``False`` when no surrogate exists or location fails: the
        overwrite path has nothing left to recompute from.
        """

        repaired = None
        if refs.S1 is not None and refs.Sw is not None:
            repaired = repair_single_error(buf, *refs.Sw, refs.S1, refs.S2)
        if repaired is None:
            why = (
                "could not be located"
                if refs.S1 is not None
                else "has no locating surrogate (the plan has no memory fault tolerance)"
            )
            report.record_uncorrectable(f"{_where(site, index)}: overwritten buffer {why}")
            return False
        detail = f"element {repaired[0]} repaired from the carried surrogate"
        report.record_correction("memory-correct", site, index, detail)
        return True

    def _retry(
        self,
        attempt: Callable[[], Any],
        fix: Callable[[Any], bool],
        report: FTReport,
        label: str,
        failed: Any = None,
    ) -> bool:
        """The one verify-repair-retry loop; returns whether the last attempt verified clean.

        ``attempt()`` runs (or re-verifies) the protected computation and
        returns a falsy value when every check passes, else a token naming
        the violated check.  ``fix(token)`` corrects what it can (input
        repair and restart, row recompute, surrogate repair) and returns
        ``False`` when nothing can be done, having recorded why.  ``failed``
        seeds a violation the caller already detected.  Every entry point
        grants ``max(1, max_retries)`` corrective attempts - the online
        schemes' rule - so ``max_retries=0`` still allows one.
        """

        budget = max(1, self._max_retries)
        if failed is None:
            failed = attempt()
        rounds = 0
        while failed:
            if rounds == budget:
                report.record_uncorrectable(
                    f"{label}: verification still failing after {budget} corrective attempts"
                )
                return False
            if not fix(failed):
                return False
            rounds += 1
            failed = attempt()
        return True

    def _verify_in_place(
        self, buf: np.ndarray, refs: _Refs, report: FTReport, site: str, index: Optional[int] = None
    ) -> Callable[[], bool]:
        """An ``attempt`` re-verifying ``buf`` against its encode-time ``cx``/``eta``."""

        def attempt() -> bool:
            with np.errstate(over="ignore", invalid="ignore"):
                residual = float(np.abs(self._output_checksum(buf) - refs.cx))
            detected = bool(residual_exceeds(residual, refs.eta))
            report.record_verification(site, index, residual, refs.eta, detected)
            return detected

        return attempt

    # ------------------------------------------------------------------
    # fused protected execution (fault-free fast path)
    # ------------------------------------------------------------------
    def _execute_fused(self, x: np.ndarray) -> SchemeResult:
        """One vector through the fused protected program.

        Protection compiled into the transform: one
        :meth:`ProtectedStageProgram.encode` pass yields every tap's
        reference, and the compiled stage program interleaves the per-stage
        tap reductions.  The spectrum is bit-identical to the unprotected
        compiled transform; the end-to-end tap is the paper's offline check
        with the legacy scheme's exact thresholds.  A violation repairs the
        input via the locating pair, then restarts.
        """

        prog = self._fused_program
        original = x
        x = as_complex_vector(x, name="x")
        if x.size != self.n:
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        report = FTReport(scheme=self.scheme.name)
        tap_refs = prog.encode(x)
        refs = self._encode(x, cx=complex(tap_refs[-1]))
        report.bump("checksum-generations", 1)
        output = x
        single_tap = len(prog.taps) == 1

        def attempt() -> bool:
            nonlocal output
            output, taps = prog.execute_tapped(x)
            report.bump("verifications", len(taps))
            if single_tap:
                # Scalar path: a Python float comparison with the same
                # NaN-is-violation semantics as residual_exceeds.
                residual = float(np.abs(taps[0] - tap_refs[0]))
                detected = not residual <= refs.eta
                report.record_verification("fused-ccv", None, residual, refs.eta, detected)
                return detected
            residuals = np.abs(taps - tap_refs)
            violations = residual_exceeds(residuals, refs.eta)
            report.record_verification(
                "fused-ccv", None, float(residuals[-1]), refs.eta, bool(violations[-1])
            )
            if violations.any() and not violations[-1]:
                # Interior-only violation: the earliest flagged tap names the
                # first corrupted stage.
                stage = int(np.nonzero(violations)[0][0])
                report.record_verification(
                    "fused-interior-ccv", stage, float(residuals[stage]), refs.eta, True
                )
            return bool(violations.any())

        def fix(_: object) -> bool:
            nonlocal x, tap_refs
            # Fault-free runs never pay for a defensive copy; only a repair
            # that must mutate the input makes it private.
            if np.may_share_memory(x, original):
                x = x.copy()
            repaired = self._repair_memory(x, refs, report, "fused")
            if repaired is False:
                return False
            if repaired:
                # The tap references were encoded from the pre-repair data
                # and would otherwise flag every subsequent (correct) run.
                tap_refs = prog.encode(x)
                if self._w1 is self._c:
                    refs.cx = refs.s1 = complex(tap_refs[-1])
            report.record_correction("restart", "fused", None, "fused transform recomputed")
            return True

        # The clean common case skips the driver call.
        failed = attempt()
        if failed:
            self._retry(attempt, fix, report, "fused", failed)
        return SchemeResult(output=output, report=report, scheme=self.scheme.name)

    # ------------------------------------------------------------------
    # real-input execution
    # ------------------------------------------------------------------
    def _as_real(self, data: np.ndarray, name: str = "x") -> np.ndarray:
        """A private float64 copy of ``data`` (complex inputs must be real)."""

        data = np.asarray(data)
        if np.iscomplexobj(data):
            if np.any(data.imag != 0.0):
                raise ValueError(f"real plan expects real-valued {name}")
            data = data.real
        return np.array(data, dtype=np.float64)

    def _output_checksum(self, packed: np.ndarray) -> Union[np.complexfloating, np.ndarray]:
        """End-to-end output reduction; the conjugate-even fold in real mode.

        Works on one spectrum (last axis = bins/n) or a batch of them.
        """

        if self._real:
            return halfcomplex_sum(
                self._hc_a, self._hc_b, packed, axis=1 if packed.ndim == 2 else 0
            )
        return packed @ self._r

    def _execute_real(self, x: np.ndarray, injector: Optional[FaultInjector]) -> SchemeResult:
        """One real vector: the scheme under a live injector, else the protected compiled rfft.

        End-to-end protection around the half-complex program (``c . x``
        against the packed-layout fold of ``r``).  On even sizes the
        half-length complex sub-transform is also verified *before* the
        disentangle pass (``c_h . z = r_h . Z``), so a fault inside the
        pipeline is caught and recomputed mid-pipeline.
        """

        injector = injector or NullInjector()
        xr = self._as_real(x)
        if xr.shape != (self.n,):
            raise ValueError(f"input has length {xr.size}, expected {self.n}")
        if injector.is_live:
            # Paper-exact path: full interior machinery on the complexified
            # input, packed OUTPUT site + packed locating MCV in the scheme.
            return self._cast_result(self.scheme.execute(xr, injector))
        report = FTReport(scheme=self.scheme.name)
        if not self._protected:
            return self._cast_result(
                SchemeResult(self._transform_rows(xr), report, self.scheme.name)
            )
        consts = self.constants
        refs = self._encode(xr)
        program = self._real_program
        interior = (
            program is not None
            and getattr(program, "half", 0) > 0
            and consts.c_h is not None
        )
        if interior:
            # The packed view z aliases xr, so a memory repair of the input
            # is visible here without re-packing.
            z = program.pack(xr)
            cz = weighted_sum(consts.c_h, z)
            eta_h = self.thresholds.eta_offline(program.half, z)
        output = xr

        def attempt() -> Optional[Tuple[str, str]]:
            nonlocal output
            if interior:
                half_spectrum = program.transform_half(z)
                residual_h = float(np.abs(weighted_sum(consts.r_h, half_spectrum) - cz))
                detected_h = bool(residual_exceeds(residual_h, eta_h))
                report.record_verification("real-interior-ccv", None, residual_h, eta_h, detected_h)
                output = program.disentangle(half_spectrum)
                if detected_h:
                    return ("real-interior", "half-length transform recomputed before disentangle")
            else:
                output = self._transform_rows(xr)
            residual = float(np.abs(self._output_checksum(output) - refs.cx))
            detected = bool(residual_exceeds(residual, refs.eta))
            report.record_verification("real-ccv", None, residual, refs.eta, detected)
            return ("real", "packed transform recomputed") if detected else None

        def fix(failed: Tuple[str, str]) -> bool:
            nonlocal cz, eta_h
            # A corrupted *input* also trips the interior check (it reads z,
            # a view of xr), so either check gets the repair before the
            # restart recomputes from the same data.
            repaired = self._repair_memory(xr, refs, report, "real")
            if repaired is False:
                return False
            if repaired and interior:
                # cz was encoded from the pre-repair view and would otherwise
                # flag every subsequent (correct) half transform.
                cz = weighted_sum(consts.c_h, z)
                eta_h = self.thresholds.eta_offline(program.half, z)
            report.record_correction("restart", failed[0], None, failed[1])
            return True

        self._retry(attempt, fix, report, "real")
        return self._cast_result(SchemeResult(output, report, self.scheme.name))

    def _inverse_real(
        self, spectrum: np.ndarray, injector: Optional[FaultInjector]
    ) -> SchemeResult:
        """Packed spectrum -> real signal, protected end-to-end.

        Uses the same identity as the forward direction with the roles
        swapped: ``c . x_out`` must match the conjugate-even fold of ``r``
        over the (stored, pre-transform) packed spectrum, and the locating
        pair runs over the packed spectrum itself.  Interior fault sites do
        not fire here (the compiled half-complex inverse has no instrumented
        sub-FFT stages); INPUT strikes the packed spectrum, OUTPUT the real
        signal.
        """

        injector = injector or NullInjector()
        packed = np.array(np.asarray(spectrum), dtype=np.complex128)
        if packed.shape != (self.bins,):
            raise ValueError(
                f"real plan expects {self.bins} packed bins, got shape {packed.shape}"
            )
        report = FTReport(scheme=self.scheme.name)
        refs = None
        if self._protected:
            consts = self.constants
            refs = self._encode(
                packed,
                cx=complex(self._output_checksum(packed)),  # r . X, stored before faults
                w=(consts.p1_h, consts.p2_h, consts.p1_h_rms),
            )
        injector.visit(FaultSite.INPUT, packed)
        output = packed

        def attempt() -> bool:
            nonlocal output
            if self._real_program is not None:
                output = self._real_program.execute_inverse(packed)
            else:
                output = get_backend(self.backend).irfft(packed, n=self.n, axis=-1)
            injector.visit(FaultSite.OUTPUT, output)
            if refs is None:
                return False
            eta = self.thresholds.eta_offline(self.n, output)
            residual = float(np.abs(weighted_sum(self._c, output) - refs.cx))
            detected = bool(residual_exceeds(residual, eta))
            report.record_verification("real-inverse-ccv", None, residual, eta, detected)
            return detected

        def fix(_: object) -> bool:
            assert refs is not None
            if self._repair_memory(packed, refs, report, "real-inverse") is False:
                return False
            report.record_correction("restart", "real-inverse", None, "real inverse recomputed")
            return True

        self._retry(attempt, fix, report, "real inverse")
        return self._cast_result(SchemeResult(output, report, self.scheme.name))

    # ------------------------------------------------------------------
    # in-place / overwrite execution (``out=``)
    # ------------------------------------------------------------------
    def _check_out(self, out: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        if self.dtype != np.complex128:
            raise ValueError(
                "the overwrite path runs in the buffer itself and cannot "
                "down-cast; out= requires dtype='complex128'"
            )
        if (
            not isinstance(out, np.ndarray)
            or out.shape != shape
            or out.dtype != np.complex128
            or not out.flags.c_contiguous
            or not out.flags.writeable
        ):
            raise ValueError(
                f"out must be a writeable C-contiguous complex128 array of shape {shape}"
            )
        return out

    def _inplace_constants(self) -> SchemeConstants:
        """The constants bundle with the carried surrogate pairs present.

        Built at plan time under ``inplace=True``, otherwise lazily on the
        first ``out=`` call (cached on the plan; a benign race recomputes
        identical arrays), so surrogate recovery never silently degrades.
        """

        consts = self.constants
        if self.config.memory_ft and not consts.inplace:
            consts = self.constants = consts.with_inplace()
        return consts

    def _transform_inplace(self, rows: np.ndarray) -> None:
        """Overwrite ``(batch, n)`` (or 1-D) rows with their spectra.

        The Stockham program when the plan lowered one (caller's buffer
        plus the half-size thread-local scratch); otherwise the ordinary
        out-of-place pipeline with a copy back, preserving the overwrite
        contract for unsupported sizes and foreign backends.
        """

        if self._inplace_program is not None:
            self._inplace_program.execute_inplace(rows)
        elif rows.ndim == 1:
            rows[...] = self._transform_rows(rows[None, :])[0]
        else:
            rows[...] = self._transform_rows(rows)

    def _execute_out(
        self, x: np.ndarray, injector: Optional[FaultInjector], out: np.ndarray
    ) -> SchemeResult:
        """Overwrite path: the spectrum lands in ``out`` and the input is consumed.

        Complex plans transform ``out`` (possibly ``x`` itself) in place;
        real plans consume ``x``'s buffer when it is directly usable (its
        packed view is transformed in place), else a private copy.  The
        input gets a last-chance memory verification just before it is
        overwritten; a flagged output is repaired from the carried surrogate.
        """

        out = self._check_out(out, (self.bins if self._real else self.n,))
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        if not self._real:
            if out is not x:
                np.copyto(out, x.astype(np.complex128, copy=False))
            src = out
        elif x.dtype == np.float64 and x.flags.c_contiguous and x.flags.writeable:
            src = x
        else:
            src = self._as_real(x)
        injector = injector or NullInjector()
        report = FTReport(scheme=f"{self.scheme.name}[inplace]")
        refs = None
        if self._protected:
            refs = self._encode(src, surrogate=True)
            report.bump("checksum-generations", 1)
        injector.visit(FaultSite.INPUT, src)
        if refs is not None:
            self._repair_memory(src, refs, report, "inplace")
        if not self._real:
            self._transform_inplace(out)
        elif self._real_program is not None:
            out[...] = self._real_program.execute_overwrite(src)
        else:
            out[...] = get_backend(self.backend).rfft(src, axis=-1)
        injector.visit(FaultSite.OUTPUT, out)
        if refs is not None:
            checked = refs
            self._retry(
                self._verify_in_place(out, checked, report, "inplace-ccv"),
                lambda _: self._repair_output(out, checked, report, "inplace-output"),
                report,
                "in-place",
            )
        return SchemeResult(output=out, report=report, scheme=self.scheme.name)

    # ------------------------------------------------------------------
    def execute_many(
        self,
        X: np.ndarray,
        axis: int = -1,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Protected transform of every length-``n`` slice of ``X`` along ``axis``.

        The batch is transformed as one array and protected by vectorized
        per-row end-to-end checksums; see the module docstring.  Faults may
        strike only the batched input and output arrays
        (:attr:`FaultSite.INPUT` / :attr:`FaultSite.OUTPUT`; row recomputes
        are injector-free so a persistent spec cannot re-corrupt its own
        repair) - use :meth:`execute` to exercise interior fault sites.

        ``out`` selects the batched overwrite path: the spectra land in the
        given buffer, which for complex plans may be ``X`` itself - the
        rows are then transformed chunk-parallel *in place* and destroyed.
        As in :meth:`execute`, a last-chance memory verification repairs
        input corruption just before the overwrite, and flagged output rows
        are repaired from the checksum-carried surrogate.  Real plans accept
        a separate preallocated packed-spectrum buffer.
        """

        if out is not None and self._real:
            # Validate the destination *before* paying for the protected
            # batch: the packed output shape is X's shape with the transform
            # axis replaced by the bin count.
            shape = np.asarray(X).shape
            norm_axis = axis if axis >= 0 else len(shape) + axis
            expected = shape[:norm_axis] + (self.bins,) + shape[norm_axis + 1 :]
            self._check_out(out, expected)
            result = self.execute_many(X, axis, injector)
            np.copyto(out, result.output)
            return BatchResult(
                output=out,
                report=result.report,
                fallback_rows=result.fallback_rows,
                uncorrectable_rows=result.uncorrectable_rows,
            )
        X = np.asarray(X)
        if X.ndim == 0:
            raise ValueError("execute_many expects at least a 1-D array")
        inplace = out is not None
        if out is not None:
            out = self._check_out(out, X.shape)
            if out is not X:
                np.copyto(out, np.asarray(X, dtype=np.complex128))
            moved = np.moveaxis(out, axis, -1)
        elif self._real:
            moved = np.moveaxis(X, axis, -1)
        else:
            moved = np.moveaxis(np.asarray(X, dtype=np.complex128), axis, -1)
        if moved.shape[-1] != self.n:
            raise ValueError(
                f"axis {axis} has length {moved.shape[-1]}, expected {self.n}"
            )
        batch_shape = moved.shape[:-1]
        # The working array must be private: the schemes never mutate caller
        # data, and the batch path must not either (the injector corrupts -
        # and recovery repairs - this array in place).  Reshaping a
        # non-contiguous moveaxis view already copies, so only copy when the
        # reshape still aliases the caller's buffer.  (_as_real always
        # copies.)  The overwrite layout works on `out` itself, or on a
        # private contiguous matrix scattered back at the end when the
        # transform axis is not the last one.
        scatter = False
        if out is not None:
            rows = moved.reshape(-1, self.n)
            scatter = not (np.shares_memory(rows, out) and rows.flags.c_contiguous)
            if scatter:
                rows = np.ascontiguousarray(rows)
        elif self._real:
            rows = self._as_real(moved, name="X").reshape(-1, self.n)
        else:
            rows = moved.reshape(-1, self.n)
            if np.may_share_memory(rows, X):
                rows = rows.copy()
        batch = rows.shape[0]
        injector = injector or NullInjector()
        site = "batch-inplace" if inplace else "batch"
        report = FTReport(scheme=f"{self.scheme.name}[{'batch,inplace' if inplace else 'batch'}]")
        fallback: List[int] = []
        dead: List[int] = []
        refs = None
        if self._protected:
            # Vectorized encoding: one matmul per checksum vector, the
            # per-row statistics sampled once for every threshold.
            refs = self._encode(rows, surrogate=inplace)
            report.bump("checksum-generations", batch)
        # Faults may strike only once the protection exists (the paper's
        # fault model excludes corruption during checksum generation).
        injector.visit(FaultSite.INPUT, rows)
        if refs is not None and inplace and refs.w is not None:
            # Last-chance input verification: the rows are about to go.
            flagged = residual_exceeds(np.abs(rows @ refs.w[0] - refs.s1), refs.eta_mem)
            for idx in np.nonzero(flagged)[0]:
                if self._repair_memory(rows[idx], refs.row(idx), report, site, int(idx)) is False:
                    dead.append(int(idx))
            report.bump("memory-verifications", batch)
        spectra, residuals, violations = self._batch_pass(rows, injector, refs, inplace)
        if refs is not None:
            report.bump("verifications", batch)
            if refs.w is not None and not inplace:
                report.bump("memory-verifications", batch)
            for idx in np.nonzero(violations)[0]:
                idx = int(idx)
                # Rows flagged only by the memory check get their mcv record
                # from the repair; don't fabricate a computational one here.
                if residual_exceeds(residuals[idx], refs.eta[idx]):
                    report.record_verification(
                        f"{site}-ccv", idx, float(residuals[idx]), float(refs.eta[idx]), True
                    )
                fallback.append(idx)
                if not self._recover_row(rows, spectra, idx, refs.row(idx), report, inplace):
                    dead.append(idx)
        if out is not None:
            if scatter:
                moved[...] = rows.reshape(moved.shape)
            output = out
        else:
            output = np.moveaxis(spectra.reshape(batch_shape + spectra.shape[-1:]), -1, axis)
            if self.dtype != np.complex128:
                output = output.astype(self.dtype)
        return BatchResult(
            output=output,
            report=report,
            fallback_rows=tuple(fallback),
            uncorrectable_rows=tuple(sorted(set(dead))),
        )

    def _batch_pass(
        self,
        rows: np.ndarray,
        injector: Union[FaultInjector, NullInjector],
        refs: Optional[_Refs],
        inplace: bool,
    ) -> Tuple[np.ndarray, Any, Any]:
        """The chunked transform-and-verify body of both ``execute_many`` layouts.

        The chunk layout depends on ``(batch, threads)`` only, so threaded
        runs are deterministic; one chunk is the fully serial path.  Each
        chunk transforms its rows (in place for the overwrite layout),
        exposes the OUTPUT fault site (specs can pin a worker with
        ``index=``), and verifies its own slice before returning -
        per-worker ABFT, the shared-memory analogue of the paper's per-rank
        protection.  Returns the spectra, the end-to-end residuals, and the
        per-row violations (computational or memory; both ``None`` when the
        plan is unprotected).
        """

        batch = rows.shape[0]
        ranges = split_ranges(batch, min(self.threads, batch) if self.threads > 1 else 1)
        # Out-of-place runs also memory-verify the still-intact input rows,
        # which catches input corruption even at the 3 | n sizes where the
        # end-to-end vector rA is nearly degenerate.
        mem_w1 = None if refs is None or refs.w is None or inplace else refs.w[0]
        visit_lock = threading.Lock()

        def body(ci: int, lo: int, hi: int) -> Tuple[np.ndarray, Any, Any]:
            if inplace:
                self._transform_inplace(rows[lo:hi])
                segment = rows[lo:hi]
            else:
                segment = self._transform_rows(rows[lo:hi])
            if injector.is_live:
                with visit_lock:
                    injector.visit(
                        FaultSite.OUTPUT, segment, index=ci if len(ranges) > 1 else None
                    )
            if refs is None:
                return segment, None, None
            residuals = np.abs(self._output_checksum(segment) - refs.cx[lo:hi])
            flagged = residual_exceeds(residuals, refs.eta[lo:hi])
            if mem_w1 is not None:
                mem_residuals = np.abs(rows[lo:hi] @ mem_w1 - refs.s1[lo:hi])
                flagged = flagged | residual_exceeds(mem_residuals, refs.eta_mem[lo:hi])
            return segment, residuals, flagged

        if len(ranges) <= 1:
            return body(0, 0, batch)
        # The pool itself runs inline when it has one worker or is
        # re-entered from a worker thread.
        parts: List[Any] = get_pool().run_tasks(
            [(lambda ci=ci, lo=lo, hi=hi: body(ci, lo, hi)) for ci, (lo, hi) in enumerate(ranges)]
        )
        spectra = rows if inplace else np.concatenate([part[0] for part in parts])
        if refs is None:
            return spectra, None, None
        return (
            spectra,
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
        )

    def _recover_row(
        self,
        rows: np.ndarray,
        spectra: np.ndarray,
        idx: int,
        refs: _Refs,
        report: FTReport,
        inplace: bool,
    ) -> bool:
        """Recover flagged batch row ``idx`` under the one retry driver.

        The overwrite layout has no input left, so the spectrum is repaired
        from the carried surrogate.  Otherwise the input row is
        memory-repaired, recomputed with the same unprotected transform the
        batch ran (:meth:`_transform_rows`), and re-verified against the
        row's encode-time ``cx``/``eta``.
        """

        def fix(_: object) -> bool:
            if inplace:
                return self._repair_output(spectra[idx], refs, report, "batch-inplace-output", idx)
            if self._repair_memory(rows[idx], refs, report, "batch", idx) is False:
                return False
            spectra[idx] = self._transform_rows(rows[idx : idx + 1])[0]
            report.record_correction("recompute", "batch", idx, "row recomputed")
            return True

        site = "batch-inplace-ccv-retry" if inplace else "batch-ccv-retry"
        attempt = self._verify_in_place(spectra[idx], refs, report, site, idx)
        return self._retry(attempt, fix, report, f"batch row {idx}", failed=True)

    # ------------------------------------------------------------------
    def _transform_rows(self, rows: np.ndarray) -> np.ndarray:
        """Unprotected vectorized transform of a ``(batch, n)`` array.

        Complex fftlib plans run the whole batch through the compiled
        one-shot stage program (the same lowering the fused protected path
        wraps); other backends fall back to the backend's batched ``fft``.
        Real plans run the compiled half-complex program (packed output;
        one vector or a batch) or the backend's ``rfft``.
        """

        if self._real:
            if self._real_program is not None:
                return self._real_program.execute(rows)
            return get_backend(self.backend).rfft(rows, axis=-1)
        if self._batch_program is not None:
            return self._batch_program.execute(rows)
        # Foreign backends (pocketfft & co.): every registered backend's
        # ``fft`` is a full-size transform batched over the leading axes by
        # contract, ~3x faster than the two-layer pipeline at serving sizes.
        # The batch checksums bracket whatever produces the spectrum, so
        # the scheme's two-layer stage structure is not needed.
        return get_backend(self.backend).fft(rows, axis=-1)

    # ------------------------------------------------------------------
    def _cast_result(self, result: SchemeResult) -> SchemeResult:
        if self.dtype != np.complex128:
            output = result.output
            if np.isrealobj(output):
                # Real time-domain output (real-plan inverse): halve the
                # precision instead of complexifying.
                result.output = output.astype(np.float32)
            else:
                result.output = output.astype(self.dtype)
        return result

    def profile(self, x: np.ndarray) -> "ProfileResult":
        """Timed per-phase breakdown of one fault-free execution (diagnostic).

        Times the checksum encode pass, each lowered transform stage, and
        the fused tap verification of one execution and returns a
        :class:`repro.telemetry.profile.ProfileResult`.  Profiling is a
        diagnostic run outside the hot-path contract (it allocates and
        re-executes freely); the steady-state paths are untouched.
        """

        import time

        from repro.telemetry.profile import ProfileEntry, ProfileResult

        entries: List[ProfileEntry] = []
        fused = self._fused_program
        if self._real and self._real_program is not None:
            xs = np.asarray(x, dtype=np.float64)
            inner = self._real_program.profile(xs)
            entries.extend(inner.entries)
            start = time.perf_counter()
            result = self.execute(xs)
            end_to_end = time.perf_counter() - start
            entries.append(
                ProfileEntry(
                    "protection overhead (checksums + verification)",
                    max(end_to_end - inner.total_seconds, 0.0),
                )
            )
            return ProfileResult(
                n=self.n,
                description=self.describe(),
                # The overhead entry is clamped at zero, so the reported
                # total must take the same floor - otherwise a noisy
                # sub-profile (inner run measured slower than the real
                # execution) breaks sum(entries) == total.
                entries=tuple(entries),
                total_seconds=max(end_to_end, inner.total_seconds),
                output=result.output,
            )
        if fused is not None:
            xs = as_complex_vector(x, name="x")
            start = time.perf_counter()
            fused.encode(xs)
            encode_seconds = time.perf_counter() - start
            entries.append(
                ProfileEntry("encode (checksum references)", encode_seconds)
            )
            inner = fused.program.profile(xs)
            entries.extend(inner.entries)
            start = time.perf_counter()
            output, _taps = fused.execute_tapped(xs)
            tapped_seconds = time.perf_counter() - start
            entries.append(
                ProfileEntry(
                    "tap verification (fused checksum taps)",
                    max(tapped_seconds - inner.total_seconds, 0.0),
                )
            )
            return ProfileResult(
                n=self.n,
                description=self.describe(),
                entries=tuple(entries),
                # Same floor as the tap-verification entry's zero clamp:
                # sum(entries) == total even when the stage sub-profile
                # measured slower than the tapped execution.
                total_seconds=encode_seconds + max(tapped_seconds, inner.total_seconds),
                output=output,
            )
        # No compiled fast path to dissect (foreign backend or plain
        # scheme): time the protected execution end to end.
        start = time.perf_counter()
        result = self.execute(np.asarray(x))
        total = time.perf_counter() - start
        entries.append(ProfileEntry("protected execute (end to end)", total))
        return ProfileResult(
            n=self.n,
            description=self.describe(),
            entries=tuple(entries),
            total_seconds=total,
            output=result.output,
        )

    def describe(self) -> str:
        real = f", real -> {self.bins} bins" if self._real else ""
        if self._inplace:
            # Uniform capability-fallback wording (same shape as the
            # native-fallback report): a requested in-place lowering the
            # size cannot support is called out, never silently dropped.
            if self._inplace_program is not None or self._real:
                inplace = ", inplace"
            else:
                inplace = ", inplace-fallback(no Stockham lowering for this size)"
        else:
            inplace = ""
        native = ""
        if self.config.native:
            from repro.fftlib.plan import _native_program_state

            native = ", native-fallback"
            for program in (self._real_program, self._inplace_program, self._batch_program):
                if program is None:
                    continue
                active, reason = _native_program_state(program)
                native = ", native" if active else f", native-fallback({reason or 'not lowered'})"
                break
        return (
            f"FTPlan(n={self.n} = {self.m} x {self.k}{real}{inplace}{native}, "
            f"scheme={self.scheme.name}, backend={self.backend}, dtype={self.dtype.name})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# ----------------------------------------------------------------------
# the plan cache ("wisdom")
# ----------------------------------------------------------------------

class PlanCacheInfo(NamedTuple):
    hits: int
    misses: int
    size: int
    limit: int


_DEFAULT_CACHE_LIMIT = 32

_cache_lock = threading.RLock()
_cache: "OrderedDict[Tuple[int, FTConfig], FTPlan]" = OrderedDict()
_cache_limit = _DEFAULT_CACHE_LIMIT
_hits = 0
_misses = 0


def plan(n: int, config: Union[FTConfig, str, None] = None, **overrides: Any) -> FTPlan:
    """A cached :class:`FTPlan` for an ``n``-point protected transform.

    Parameters
    ----------
    n:
        Transform length.
    config:
        An :class:`FTConfig`, a legacy registry name (``"opt-online+mem"``),
        or ``None`` for the default configuration.
    **overrides:
        Individual :class:`FTConfig` fields to override, e.g.
        ``plan(4096, backend="numpy")`` or
        ``plan(4096, "offline", memory_ft=True)``.

    Repeated calls with an equal ``(n, config)`` return the *same* plan
    object from a thread-safe, size-bounded LRU cache, so planning cost
    (checksum weight vectors, twiddle tables, sub-plans) is paid once per
    configuration - FFTW wisdom for the protected transform.
    """

    if config is None:
        config = FTConfig(**overrides)
    elif isinstance(config, str):
        config = FTConfig.from_name(config, **overrides)
    elif isinstance(config, FTConfig):
        if overrides:
            config = config.replace(**overrides)
    else:
        raise TypeError(f"config must be FTConfig, str, or None, got {type(config).__name__}")

    # Resolve backend=None to the *current* process default before keying:
    # otherwise a later set_default_backend() would keep returning plans
    # built under the old default, and backend=None / backend="fftlib"
    # would cache duplicate plans for the same kernel.
    resolved = resolve_backend_name(config.backend)
    if config.backend != resolved:
        config = config.replace(backend=resolved)

    key = (int(n), config)
    global _hits, _misses
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            _cache.move_to_end(key)
            return cached
    # Build outside the lock: planning is the expensive part (checksum
    # weight vectors, twiddle warm-up) and must not serialize unrelated
    # threads.  On a race the first inserted plan wins and the duplicate
    # construction is discarded.
    created = FTPlan(n, config)
    with _cache_lock:
        existing = _cache.get(key)
        if existing is not None:
            _hits += 1
            _cache.move_to_end(key)
            return existing
        _misses += 1
        _cache[key] = created
        while len(_cache) > _cache_limit:
            _cache.popitem(last=False)
    if _trace.active:
        _trace.emit(
            "plan-compile",
            n=int(n),
            scheme=created.scheme.name,
            backend=resolved,
            real=bool(config.real),
            inplace=bool(config.inplace),
            native=bool(config.native),
        )
    return created


def plan_cache_info() -> PlanCacheInfo:
    """Hit/miss/size statistics of the plan cache."""

    with _cache_lock:
        return PlanCacheInfo(hits=_hits, misses=_misses, size=len(_cache), limit=_cache_limit)


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the statistics."""

    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def set_plan_cache_limit(limit: int) -> None:
    """Bound the cache to ``limit`` plans (evicting least-recently-used)."""

    global _cache_limit
    limit = ensure_positive_int(limit, name="limit")
    with _cache_lock:
        _cache_limit = limit
        while len(_cache) > _cache_limit:
            _cache.popitem(last=False)
