"""Fused protected stage programs: ABFT compiled into the transform.

The scheme objects in :mod:`repro.core` verify a transform by wrapping it -
they run the two-part decomposition, re-derive checksum operators per call,
and pay several extra full passes over the data even when no fault injector
is live.  ``BENCH_fft_speed.json`` put that wrapper at 3.7-9.9x the
unprotected compiled transform, which contradicts the paper's low-overhead
claim (ROADMAP item 1).

This module makes a *protected* plan a different compiled program instead of
a wrapper around one.  :class:`ProtectedStageProgram` lowers, at plan time,
everything the fault-free verification needs into a frozen object sitting
next to the ordinary :class:`~repro.fftlib.executor.StageProgram`:

* **Per-stage taps.**  The executor maintains the decimation-in-time
  invariant: after the combine stage of span ``L`` the state rows are the
  ``L``-point DFTs of the ``count = n/L`` stride-``count`` input
  subsequences.  Summing those rows therefore yields ``DFT_L(S_L)`` where
  ``S_L`` is the column-sum fold ``x.reshape(L, count).sum(axis=1)`` of the
  *input*, so the checksum identity ``r_L . DFT_L(S_L) = (r_L A_L) . S_L``
  gives an interior verification point per stage.  The tap side is a cheap
  row reduction of output the BLAS combine has just produced (still warm in
  cache); the reference side telescopes - ``S_L`` is a fold of
  ``S_{r*L}`` - so *all* stage references together cost about ``2n``
  complex operations, computed once per execution by :meth:`encode`.
* **Precomputed operators.**  The per-stage weight vectors ``r_L``
  (computational checksums) and closed-form encodings ``c_L = r_L A_L``,
  the end-to-end pair matching :class:`~repro.core.constants.SchemeConstants`
  bit-for-bit, the memory-checksum locating pair ``(w1, w2)`` and its
  plan-time weight RMS are all frozen into the program - nothing is
  re-derived per call.

The final tap (span ``n``, count 1) *is* the paper's end-to-end offline
check: its reference is ``c . x`` and its value ``r . X``, bit-identical to
what the legacy scheme computes.  The transform loop itself replicates
:meth:`StageProgram.execute` operation-for-operation, so the fused spectrum
is bit-identical to the unprotected compiled transform.  Live fault
injectors never reach this module - ``FTPlan`` routes them through the
paper-exact scheme path - so detection/correction coverage is untouched.

**Native lowering.**  ``get_protected_program(n, ..., native=True)`` (what a
``+native`` plan asks for) wraps the native-tier ``StageProgram`` and shares
every operator of the pure program - the same frozen taps, ``w1`` and
``w2``.  :meth:`~ProtectedStageProgram.execute_tapped` is then one
GIL-released foreign call returning the spectrum (bit-identical to the
native unprotected transform) and the tap vector, each tap reduced in C
right after its stage writes it; :meth:`~ProtectedStageProgram.encode`
folds the interior references in C too.  ``refs[-1]`` stays the NumPy
``c . x``, so the end-to-end reference, the memory re-check and every
threshold are unchanged.  Where the tier cannot serve the size (no
compiler, ``REPRO_NO_NATIVE=1``, a Bluestein base, a radix past the generic
bound) the program silently keeps the pure-NumPy body and
:meth:`~ProtectedStageProgram.describe` names the reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Tuple

import numpy as np

from repro.fftlib.executor import StageProgram, _cached_program, _work_buffers, get_program
from repro.telemetry import trace as _trace

__all__ = [
    "StageTap",
    "ProtectedStageProgram",
    "get_protected_program",
]

#: Interior (per-stage) taps are built only for sizes at or above this.
#: Below it the per-stage row sums and telescoped reference folds are a
#: double-digit percentage of the transform itself (at 65536 they measured
#: ~20% + ~19% on top of the compiled program, blowing the <= 1.5x budget
#: for large sizes) while adding nothing the end-to-end check does not
#: already guarantee; the final tap - the paper's offline verification - is
#: always present, and live injectors never route here.
_INTERIOR_TAP_MIN = 131072


@dataclass(frozen=True)
class StageTap:
    """One interior (or final) verification point of a fused program.

    Attributes
    ----------
    span:
        Length ``L`` of the transforms completed when this tap fires.
    count:
        Number of state rows summed by the tap (``n / span``).
    weights:
        ``r_L`` - the computational checksum vector applied to the summed
        state rows (the *tap* side of the identity).
    encode:
        ``c_L = r_L A_L`` - the folded input encoding applied to ``S_L``
        (the *reference* side, consumed by
        :meth:`ProtectedStageProgram.encode`).
    """

    span: int
    count: int
    weights: np.ndarray
    encode: np.ndarray


@dataclass(frozen=True, eq=False)
class ProtectedStageProgram:
    """A frozen, fully lowered protected execution recipe for one size.

    Immutable after construction and safe to share across threads and the
    program LRU: execution uses only the executor's thread-local ping-pong
    scratch plus per-call O(stages) tap vectors.

    Attributes
    ----------
    n:
        Transform length.
    program:
        The underlying unprotected :class:`StageProgram` (shared with the
        plain compiled path via the program cache).
    taps:
        One :class:`StageTap` per verification point, innermost first: the
        base kernel, then every combine stage (sizes below
        ``_INTERIOR_TAP_MIN`` carry only the final tap).  ``taps[-1]``
        always has
        ``span == n`` and is the paper's end-to-end offline check; its
        ``encode``/``weights`` are built with the same encoding family
        (closed-form vs naive) as :class:`SchemeConstants`, so the
        reference checksum is bit-identical to the legacy scheme's.
    optimized / memory_ft:
        The plan-configuration axes the operators were built for (part of
        the program-cache key).
    w1, w2:
        Memory-checksum locating pair (Section 4.1 modified weights when
        ``optimized``, classic otherwise); ``None`` when ``memory_ft`` is
        off.
    w1_rms:
        Plan-time weight RMS of ``w1`` for the memory threshold.
    reuse_input_checksum:
        True when ``w1`` *is* the end-to-end encoding ``c`` (the modified
        weights of the optimized scheme), so ``s1`` equals the input
        checksum bit-for-bit and need not be recomputed.
    folds:
        The native interior reference folds (a
        :class:`~repro.fftlib.native.kernels.NativeFolds`) of a native
        lowering with interior taps, else ``None``.  The native transform
        itself is ``program.native``.
    """

    n: int
    program: StageProgram
    taps: Tuple[StageTap, ...]
    optimized: bool
    memory_ft: bool
    w1: "np.ndarray | None"
    w2: "np.ndarray | None"
    w1_rms: float
    reuse_input_checksum: bool
    folds: Any = None

    # ------------------------------------------------------------------
    @property
    def c(self) -> np.ndarray:
        """End-to-end input encoding ``c = r A`` (bit-identical to legacy)."""

        return self.taps[-1].encode

    @property
    def r(self) -> np.ndarray:
        """End-to-end computational weights ``r``."""

        return self.taps[-1].weights

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, n: int, *, optimized: bool, memory_ft: bool) -> "ProtectedStageProgram":
        """Lower size ``n`` plus its verification operators, once.

        The core-layer operator constructors are imported lazily (the same
        direction :meth:`SchemeConstants.with_inplace` already crosses) so
        ``fftlib`` keeps no hard dependency on ``repro.core``.
        """

        from repro.core.checksums import (
            computational_weights,
            input_checksum_weights,
            input_checksum_weights_naive,
            memory_weights_classic,
            memory_weights_modified,
        )
        from repro.core.constants import weight_rms

        program = get_program(n)
        c_n = input_checksum_weights(n) if optimized else input_checksum_weights_naive(n)
        r_n = computational_weights(n)
        taps = []
        if program.stages and n >= _INTERIOR_TAP_MIN:
            base = program.base
            taps.append(
                StageTap(
                    span=base,
                    count=n // base,
                    weights=computational_weights(base),
                    # interior encodings always use the closed form: they are
                    # internal to the fused program, not a scheme contract
                    encode=input_checksum_weights(base),
                )
            )
            for stage in program.stages[:-1]:
                span = stage.radix * stage.span
                taps.append(
                    StageTap(
                        span=span,
                        count=stage.count,
                        weights=computational_weights(span),
                        encode=input_checksum_weights(span),
                    )
                )
        taps.append(StageTap(span=n, count=1, weights=r_n, encode=c_n))

        w1 = w2 = None
        w1_rms = 0.0
        if memory_ft:
            if optimized:
                w1, w2 = memory_weights_modified(n, base=c_n)
            else:
                w1, w2 = memory_weights_classic(n)
            w1_rms = weight_rms(w1)
        if _trace.active:
            _trace.emit(
                "protected-compile",
                n=int(n),
                optimized=bool(optimized),
                memory_ft=bool(memory_ft),
                taps=len(taps),
                interior_taps=len(taps) - 1,
            )
        return cls(
            n=int(n),
            program=program,
            taps=tuple(taps),
            optimized=bool(optimized),
            memory_ft=bool(memory_ft),
            w1=w1,
            w2=w2,
            w1_rms=w1_rms,
            reuse_input_checksum=w1 is c_n,
        )

    @property
    def lowering(self) -> str:
        """What executes: ``fused-native``, ``fused``, or ``native-fallback(<reason>)``."""

        if self.program.native is not None:
            return "fused-native"
        reason = self.program.native_fallback_reason
        return "fused" if reason is None else f"native-fallback({reason})"

    def with_native(self) -> "ProtectedStageProgram":
        """This program over the native-tier stage program, sharing every operator.

        Adds no ``n``-sized array: the taps, ``w1`` and ``w2`` are this
        program's own, and the native transform is the cached
        ``get_program(n, native=True)``.  Where the tier cannot serve the
        size, the result runs the pure-NumPy body and reports why.
        """

        program = get_program(self.n, native=True)
        folds = None
        interior = self.taps[:-1]
        if program.native is not None and interior:
            from repro.fftlib.native.kernels import build_native_folds

            folds = build_native_folds(
                self.n, [tap.span for tap in interior], [tap.encode for tap in interior]
            )
        return replace(self, program=program, folds=folds)

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Reference checksums for every tap, via the telescoping fold.

        ``S_L = S_{r*L}.reshape(L, r).sum(axis=1)`` lets the references be
        computed outermost-first from ``S_n = x`` itself, so the whole chain
        costs about ``2n`` complex operations.  ``refs[-1]`` is the
        end-to-end input checksum ``c . x``, bit-identical to the legacy
        scheme's (same ``np.dot`` on the same operands).  A native lowering
        computes the interior folds in one C call (same sums, summed in a
        different order, so they agree to roundoff).
        """

        taps = self.taps
        # reprolint: alloc-ok - O(stages) reference vector, not O(n)
        refs = np.empty(len(taps), dtype=np.complex128)
        s = np.asarray(x, dtype=np.complex128).reshape(-1)
        folds = self.folds
        # Same np.dot / suppressed-overflow contract as weighted_sum, one
        # errstate entry for the whole chain (tap shapes are guaranteed by
        # construction).
        with np.errstate(over="ignore", invalid="ignore"):
            if folds is not None:
                if not s.flags.c_contiguous:
                    # reprolint: alloc-ok - normalisation fallback, never
                    # taken for conforming (contiguous) callers
                    s = np.ascontiguousarray(s)
                # The fold shrinks inside one thread-local scratch buffer.
                folds.encode(s, _work_buffers(s.size)[1], refs)
                refs[-1] = np.dot(taps[-1].encode, s)
                return refs
            for i in range(len(taps) - 1, -1, -1):
                tap = taps[i]
                if tap.span != s.size:
                    s = s.reshape(tap.span, -1).sum(axis=1)
                refs[i] = np.dot(tap.encode, s)
        return refs

    # ------------------------------------------------------------------
    def execute_tapped(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Forward DFT of one vector plus the per-stage tap checksums.

        Replicates :meth:`StageProgram.execute` operation-for-operation
        (same scratch, same kernel calls, same write order) so the returned
        spectrum is bit-identical to the unprotected compiled transform;
        between stages each tap sums the just-written combine output rows
        (a cache-warm row read) and contracts them with ``r_L``.  A native
        lowering does all of it in one foreign call (bit-identical to the
        native unprotected transform; taps equal to roundoff).
        """

        prog = self.program
        n = prog.n
        xs = x.reshape(1, n)
        if not xs.flags.c_contiguous or xs.dtype != np.complex128:
            # reprolint: alloc-ok - normalisation fallback, never taken for
            # conforming (contiguous complex) callers
            xs = np.ascontiguousarray(xs, dtype=np.complex128)
        # reprolint: alloc-ok - O(stages) tap vector, not O(n)
        taps_out = np.empty(len(self.taps), dtype=np.complex128)
        # Small sizes carry only the final (end-to-end) tap; see
        # _INTERIOR_TAP_MIN.
        interior = len(self.taps) > 1

        native = prog.native
        if native is not None:
            # reprolint: alloc-ok - the result array itself (out-of-place
            # contract, mirrors StageProgram.execute)
            out = np.empty(n, dtype=np.complex128)
            work_a, work_b = _work_buffers(n) if prog.stages else (None, None)
            native.execute_tapped(xs, out, work_a, work_b, taps_out, interior)
            return out, taps_out

        if not prog.stages:
            # Whole transform handled by the base kernel; the only tap is
            # the end-to-end check on the output.
            out = prog.execute(xs).reshape(n)
            taps_out[0] = np.dot(self.taps[0].weights, out)
            return out, taps_out

        work_a, work_b = _work_buffers(n)

        base = prog.base
        q = n // base
        gathered = xs.reshape(1, base, q).transpose(0, 2, 1)  # view
        if prog.base_kind == "bluestein":
            from repro.fftlib.bluestein import bluestein_fft

            # reprolint: alloc-ok - the Bluestein base kernel allocates its
            # own output; large-prime sizes never hit the matmul fast path
            current = np.ascontiguousarray(bluestein_fft(gathered))
        else:
            current = np.matmul(
                gathered, prog.base_matrix, out=work_a[:n].reshape(1, q, base)
            )
        if interior:
            taps_out[0] = np.dot(
                self.taps[0].weights, current.reshape(q, base).sum(axis=0)
            )

        last = len(prog.stages) - 1
        for index, stage in enumerate(prog.stages):
            r, p, count = stage.radix, stage.span, stage.count
            grouped = work_b[:n].reshape(1, r, count, p)
            np.multiply(
                current.reshape(1, r, count, p),
                stage.twiddle[:, None, :],
                out=grouped,
            )
            if index == last:
                # reprolint: alloc-ok - the result array itself (out-of-place
                # contract, mirrors StageProgram.execute)
                target = np.empty((1, count, r * p), dtype=np.complex128)
            else:
                target = work_a[:n].reshape(1, count, r * p)
            np.matmul(
                grouped.transpose(0, 2, 3, 1),
                stage.matrix,
                out=target.reshape(1, count, r, p).transpose(0, 1, 3, 2),
            )
            current = target
            if interior:
                tap = self.taps[index + 1]
                if count == 1:
                    taps_out[index + 1] = np.dot(tap.weights, current.reshape(n))
                else:
                    taps_out[index + 1] = np.dot(
                        tap.weights, current.reshape(count, r * p).sum(axis=0)
                    )
            elif index == last:
                taps_out[0] = np.dot(self.taps[0].weights, current.reshape(n))
        return current.reshape(n), taps_out

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line listing: the wrapped program plus the tap spans."""

        spans = ",".join(str(tap.span) for tap in self.taps)
        return (
            f"ProtectedStageProgram(n={self.n}, {self.lowering}, taps=[{spans}], "
            f"optimized={self.optimized}, memory_ft={self.memory_ft}, "
            f"inner={self.program.describe()})"
        )


def get_protected_program(
    n: int, *, optimized: bool, memory_ft: bool, native: bool = False
) -> ProtectedStageProgram:
    """Fused protected program for ``n``, from the shared program LRU.

    ``native=True`` returns the native lowering (a separate cache entry
    built from the pure program, see :meth:`ProtectedStageProgram.with_native`).
    """

    key = ("protected", int(n), bool(optimized), bool(memory_ft))
    if native:
        return _cached_program(
            ("native", key),
            lambda: get_protected_program(n, optimized=optimized, memory_ft=memory_ft).with_native(),
        )
    return _cached_program(
        key, lambda: ProtectedStageProgram.build(n, optimized=optimized, memory_ft=memory_ft)
    )
