"""Round-off error modelling and detection-threshold selection (Section 8).

Floating-point round-off makes the two sides of a checksum identity differ
even in fault-free runs, so every verification compares the residual against
a threshold :math:`\\eta`.  Picking :math:`\\eta` trades *throughput* (the
probability a fault-free run is not flagged) against *fault coverage* (the
smallest error that can still be detected).

The paper follows Weinstein's floating-point round-off analysis: for an
``m``-point FFT with i.i.d. zero-mean inputs of per-component variance
:math:`\\sigma_0^2`,

.. math::

    \\sigma_e = \\sqrt{2 m \\sigma_0^2 \\sigma_\\epsilon^2 \\log_2 m},
    \\qquad
    \\sigma_{roe} = m\\,\\sigma_e,

where :math:`\\sigma_\\epsilon^2 = 0.21\\cdot 2^{-2t}` is the experimentally
measured variance of a single rounding (``t`` = mantissa bits).  The
threshold is then set to :math:`\\eta = 3\\sqrt{m}\\,\\sigma_{roe}` so that,
by the central-limit argument of Section 8.1, the theoretical throughput is
about 99.7%.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.stats import norm

__all__ = [
    "MANTISSA_BITS_DOUBLE",
    "RoundoffModel",
    "ThresholdMode",
    "ThresholdPolicy",
    "residual_exceeds",
]


def residual_exceeds(residual, eta):
    """``True`` where a checksum residual violates its threshold.

    Implemented as ``not (residual <= eta)`` rather than ``residual > eta`` so
    that non-finite residuals - which arise when a corrupted value overflows a
    weighted sum to inf/NaN - count as violations instead of silently passing
    the comparison.  Works elementwise on arrays and on scalars.
    """

    return ~(np.asarray(residual) <= eta)

#: Mantissa bits of IEEE-754 binary64 (excluding the implicit leading bit).
MANTISSA_BITS_DOUBLE = 52


def _median_finite(sample: np.ndarray) -> float:
    """``float(np.median(sample))`` for a 1-D finite array, faster.

    ``np.median`` partitions around *both* middle order statistics, which
    costs two introselect passes; one pass around the upper statistic plus a
    ``max`` over the lower partition gives the same two values.  The even
    case averages them exactly as ``np.median`` does (``(a + b) / 2`` - a
    power-of-two division, so bit-identical).  Callers guarantee the sample
    is non-empty and contains no NaN/inf (``np.median`` would propagate
    them; the threshold paths filter first).
    """

    m = sample.size // 2
    if sample.size % 2:
        return float(np.partition(sample, m)[m])
    part = np.partition(sample, m)
    return float((part[:m].max() + part[m]) / 2.0)


def _median_rows_finite(sample: np.ndarray) -> np.ndarray:
    """``np.median(sample, axis=1)`` for a 2-D finite array, faster.

    One C partition per row: calling partition directly skips np.median's
    _ureduce/moveaxis dispatch - several FFT-sized passes of pure Python
    per batch - and, as in :func:`_median_finite`, partitioning around the
    upper central statistic plus a ``max`` over the lower half yields both
    central statistics in one select pass.  Bit-identical: the midpoint
    ``(a + b) * 0.5`` is np.mean of the same pair, and odd widths take the
    single central statistic.
    """

    width = sample.shape[1]
    mid = width // 2
    part = np.partition(sample, mid, axis=1)
    if width % 2:
        return part[:, mid]
    return (part[:, :mid].max(axis=1) + part[:, mid]) * 0.5


@dataclass(frozen=True)
class RoundoffModel:
    """Weinstein-style round-off statistics for floating-point FFTs.

    Parameters
    ----------
    mantissa_bits:
        ``t`` in the paper; 52 for double precision.
    rounding_constant:
        The 0.21 constant from Gentleman & Sande's measurement
        (``sigma_eps^2 = rounding_constant * 2^{-2t}``).
    """

    mantissa_bits: int = MANTISSA_BITS_DOUBLE
    rounding_constant: float = 0.21

    # ------------------------------------------------------------------
    @property
    def sigma_eps(self) -> float:
        """Standard deviation of a single rounding error."""

        return float(np.sqrt(self.rounding_constant) * 2.0 ** (-self.mantissa_bits))

    def noise_to_signal_ratio(self, n: int) -> float:
        """Weinstein's output noise-to-signal ratio ``2 sigma_eps^2 log2 n``."""

        if n < 2:
            return 0.0
        return 2.0 * self.sigma_eps ** 2 * float(np.log2(n))

    def fft_output_sigma(self, n: int, sigma0: float) -> float:
        """Standard deviation of an output element of an ``n``-point FFT."""

        return float(np.sqrt(n) * sigma0)

    def fft_roundoff_sigma(self, n: int, sigma0: float) -> float:
        """``sigma_e``: per-element round-off noise of an ``n``-point FFT."""

        if n < 2:
            return 0.0
        return float(np.sqrt(2.0 * n * sigma0 ** 2 * self.sigma_eps ** 2 * np.log2(n)))

    def checksum_roundoff_sigma(self, n: int, sigma0: float) -> float:
        """``sigma_roe``: round-off of the checksum *difference* (upper bound).

        The checksum sums ``n`` output elements; the paper uses the
        conservative upper bound ``n * sigma_e`` rather than the
        ``sqrt(n)``-scaling of independent errors to improve fault coverage.
        """

        return float(n * self.fft_roundoff_sigma(n, sigma0))

    def second_stage_checksum_sigma(self, k: int, m: int, sigma0: float) -> float:
        """``sigma_roe2`` for the second-part ``k``-point FFTs.

        Their input is the output of the ``m``-point FFTs, hence has
        per-component standard deviation ``sqrt(m) * sigma0``.
        """

        return self.checksum_roundoff_sigma(k, float(np.sqrt(m) * sigma0))

    def summation_sigma(self, n: int, value_rms: float) -> float:
        """Round-off of a plain weighted sum of ``n`` values (memory checksums)."""

        return float(n * value_rms * self.sigma_eps)

    # ------------------------------------------------------------------
    @staticmethod
    def throughput(eta: float, n: int, sigma: float) -> float:
        """Theoretical throughput ``1 / (3 - 2 Phi(eta / (sqrt(n) sigma)))``.

        ``sigma`` is the per-element round-off standard deviation; a
        fault-free run is accepted when the |residual| stays below ``eta``.
        """

        if sigma <= 0:
            return 1.0
        z = eta / (np.sqrt(n) * sigma)
        return float(1.0 / (3.0 - 2.0 * norm.cdf(z)))


class ThresholdMode(enum.Enum):
    """How verification thresholds are derived."""

    #: The paper's variance-based estimate (Section 8.1) with sigma_0
    #: measured from the data being protected.
    PAPER = "paper"
    #: A norm-relative engineering bound: ``eta = factor * eps * scale``.
    RELATIVE = "relative"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Produces the detection thresholds used by the ABFT schemes.

    A single policy instance is shared by a scheme; all thresholds scale
    linearly with the magnitude of the protected data, so the policy is
    applicable to inputs of any scale.

    The dataclass is frozen (and therefore hashable) so that a policy can be
    part of an :class:`repro.core.config.FTConfig` plan-cache key.
    """

    mode: ThresholdMode = ThresholdMode.PAPER
    model: RoundoffModel = RoundoffModel()
    safety_factor: float = 3.0
    #: Extra multiplier applied to memory-checksum thresholds.  Memory
    #: verifications compare sums accumulated in *different orders* (e.g. the
    #: incremental checksums of Section 4.3 against a direct re-summation),
    #: so their fault-free residual can approach the paper's 3-sigma bound;
    #: the margin keeps the throughput at ~100% without materially reducing
    #: coverage (memory faults of interest flip high bits).
    memory_margin: float = 8.0
    relative_factor: float = 5e-12
    floor: float = 1e-300

    #: Number of elements sampled when estimating data statistics.  The
    #: thresholds only need the *scale* of the data; sampling keeps the
    #: estimation cost O(1) relative to the transform instead of adding an
    #: extra full pass per verification boundary.  1024 strided samples pin
    #: the robust RMS to a few percent (concentration ~1/sqrt(2k)), far
    #: inside the 3-sigma safety factor and the paper's conservative
    #: n^(3/2) round-off bound; the median/partition work this saves was
    #: the single largest non-BLAS cost of a protected transform.
    sample_size: int = 1024

    # ------------------------------------------------------------------
    def _sample(self, data: np.ndarray) -> np.ndarray:
        flat = np.asarray(data).reshape(-1)
        if flat.size <= self.sample_size:
            return flat
        step = max(1, flat.size // self.sample_size)
        return flat[::step]

    def _magnitude_rms(self, data: np.ndarray) -> float:
        """Robust RMS of ``|data|`` (sampled).

        Genuine FFT data can be extremely spiky (a narrowband signal's
        spectrum has a handful of huge bins), so a plain median would
        underestimate the scale badly; a plain RMS, on the other hand, can be
        hijacked - or overflowed - by a single corrupted element when a
        threshold is derived from data that already contains the fault.  The
        compromise: RMS over the sample after discarding non-finite values
        and elements more than ``1e6`` times the median magnitude (legitimate
        spikes stay well below that ratio; exponent-bit flips do not).
        """

        sample = np.abs(self._sample(data))
        if sample.size == 0:
            return 0.0
        # One max reduction gates both slow paths: magnitudes are >= 0, so a
        # finite max means every element is finite (NaN poisons np.max), and
        # max <= bound means all <= bound.  The common all-clean case then
        # touches the data twice (max, mean) instead of building two masks.
        amax = float(np.max(sample))
        if not np.isfinite(amax):
            sample = sample[np.isfinite(sample)]
            if sample.size == 0:
                return 0.0
            amax = float(np.max(sample))
        median = _median_finite(sample)
        if median > 0 and not amax <= 1e6 * median:
            sample = sample[sample <= 1e6 * median]
        if sample.size == 0:
            return median
        # In-place square: ``sample`` is always a private array here (np.abs
        # output or a mask copy), and x**2 == np.square(x) bit-for-bit.
        return float(np.sqrt(np.mean(np.square(sample, out=sample))))

    def magnitude_rms(self, data: np.ndarray) -> float:
        """Public robust RMS of ``|data|`` (see :meth:`_magnitude_rms`).

        Exposed so a scheme can sample its input *once* per run and feed the
        value into every threshold that depends on the same data
        (``sigma0 = magnitude_rms / sqrt(2)`` exactly as
        :meth:`component_sigma` computes it).
        """

        return self._magnitude_rms(data)

    def component_sigma(self, data: np.ndarray) -> float:
        """Estimate sigma_0 (per real/imaginary component) from data."""

        rms = self._magnitude_rms(data)
        return float(rms / np.sqrt(2.0))

    # ------------------------------------------------------------------
    def eta_stage1(self, m: int, data: np.ndarray, *, sigma0: Optional[float] = None) -> float:
        """Threshold for verifying one first-part ``m``-point FFT.

        ``sigma0`` may carry a precomputed :meth:`component_sigma` of
        ``data`` (bit-identical, avoids re-sampling the same array).
        """

        if sigma0 is None:
            sigma0 = self.component_sigma(data)
        if self.mode is ThresholdMode.RELATIVE:
            scale = float(np.sqrt(m)) * m * max(sigma0, 1e-30)
            return max(self.relative_factor * scale, self.floor)
        sigma_roe = self.model.checksum_roundoff_sigma(m, sigma0)
        return max(self.safety_factor * float(np.sqrt(m)) * sigma_roe, self.floor)

    def eta_stage2(
        self, k: int, m: int, data: np.ndarray, *, sigma0: Optional[float] = None
    ) -> float:
        """Threshold for verifying one second-part ``k``-point FFT.

        ``data`` is the *original* input (its sigma_0 is amplified by
        ``sqrt(m)`` through the first part, as in the paper's derivation).
        """

        if sigma0 is None:
            sigma0 = self.component_sigma(data)
        if self.mode is ThresholdMode.RELATIVE:
            scale = float(np.sqrt(k)) * k * max(np.sqrt(m) * sigma0, 1e-30)
            return max(self.relative_factor * scale, self.floor)
        sigma_roe2 = self.model.second_stage_checksum_sigma(k, m, sigma0)
        return max(self.safety_factor * float(np.sqrt(k)) * sigma_roe2, self.floor)

    def eta_offline(self, n: int, data: np.ndarray, *, sigma0: Optional[float] = None) -> float:
        """Threshold for the single offline verification of an ``n``-point FFT."""

        return self.eta_stage1(n, data, sigma0=sigma0)

    def offline_threshold_fn(self, n: int) -> "Callable[[float], float]":
        """A ``sigma0 -> eta`` closure bit-identical to :meth:`eta_offline`.

        Every data-independent scalar (``sqrt(n)``, ``log2(n)``,
        ``sigma_eps^2`` and their products) is bound once, in the exact
        evaluation order and dtypes of the per-call formula, so the closure's
        result matches :meth:`eta_offline` bit for bit while costing one
        short multiply chain.  Built at plan time by the fused protected
        path, which derives a threshold on every execution.
        """

        sqrt_n = float(np.sqrt(n))
        floor = self.floor
        if self.mode is ThresholdMode.RELATIVE:
            base = sqrt_n * n  # float(np.sqrt(m)) * m, same association
            rel = self.relative_factor

            def eta_relative(sigma0: float) -> float:
                return max(rel * (base * max(sigma0, 1e-30)), floor)

            return eta_relative
        prefactor = self.safety_factor * sqrt_n
        if n < 2:
            const = max(prefactor * 0.0, floor)
            return lambda sigma0: const
        # fft_roundoff_sigma's radicand, left-associated exactly as written
        # there: (((2.0 * n) * sigma0**2) * sigma_eps**2) * log2(n).
        two_n = 2.0 * n
        eps2 = self.model.sigma_eps ** 2
        log2_n = np.log2(n)  # numpy scalar, preserving the promotion

        def eta_paper(sigma0: float) -> float:
            roundoff = float(np.sqrt(((two_n * sigma0 ** 2) * eps2) * log2_n))
            sigma_roe = float(n * roundoff)
            return max(prefactor * sigma_roe, floor)

        return eta_paper

    def memory_threshold_fn(self, n: int) -> "Callable[[float, float], float]":
        """A ``(weight_rms, data_rms) -> eta`` closure matching :meth:`eta_memory`.

        Same contract as :meth:`offline_threshold_fn`: the weight- and
        data-independent factors are bound once with unchanged evaluation
        order, so results are bit-identical to calling :meth:`eta_memory`
        with precomputed ``weight_rms``/``data_rms``.
        """

        floor = self.floor
        if self.mode is ThresholdMode.RELATIVE:
            rel = self.relative_factor

            def eta_relative(weight_rms: float, data_rms: float) -> float:
                return max(rel * n * (weight_rms * data_rms), floor)

            return eta_relative
        eps = self.model.sigma_eps
        prefactor = self.safety_factor * self.memory_margin

        def eta_paper(weight_rms: float, data_rms: float) -> float:
            sigma = float(n * (weight_rms * data_rms) * eps)
            return max(prefactor * sigma, floor)

        return eta_paper

    def eta_offline_batch(
        self, n: int, rows: np.ndarray, *, sigma0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-row offline thresholds for a ``(batch, n)`` array, vectorized.

        Semantically one :meth:`eta_offline` per row, but computed without a
        Python loop so batched execution (``FTPlan.execute_many``) keeps its
        protection fully vectorized.  Both threshold modes are linear in the
        per-row ``sigma_0``, so the data-independent factor is evaluated once
        and scaled by the vector of per-row sigmas.  ``sigma0`` may carry a
        precomputed :meth:`component_sigma_rows` of ``rows`` (bit-identical,
        lets a caller sample the batch once and share the statistics with
        :meth:`eta_memory_batch`).
        """

        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        if sigma0 is None:
            sigma0 = self._component_sigma_rows(rows)
        if self.mode is ThresholdMode.RELATIVE:
            unit = self.relative_factor * float(np.sqrt(n)) * n
            etas = unit * np.maximum(sigma0, 1e-30)
        else:
            # checksum_roundoff_sigma(n, s) = s * checksum_roundoff_sigma(n, 1)
            unit = (
                self.safety_factor * float(np.sqrt(n)) * self.model.checksum_roundoff_sigma(n, 1.0)
            )
            etas = unit * sigma0
        return np.maximum(etas, self.floor)

    def component_sigma_rows(self, rows: np.ndarray) -> np.ndarray:
        """Public vectorized per-row :meth:`component_sigma`.

        Exposed so batched callers can sample a batch *once* and feed the
        same statistics into both :meth:`eta_offline_batch` and
        :meth:`eta_memory_batch` (bit-identical thresholds either way).
        """

        return self._component_sigma_rows(rows)

    def _component_sigma_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized per-row :meth:`component_sigma` (robust, sampled)."""

        step = max(1, rows.shape[1] // self.sample_size)
        sample = np.abs(rows[:, ::step])
        finite = np.isfinite(sample)
        if finite.all():
            # Fault-free batches are all-finite (np.nanmedian would route
            # through a per-row apply_along_axis that dominates the whole
            # batched protection pipeline).
            median = _median_rows_finite(sample)
        else:
            with np.errstate(invalid="ignore"):
                median = np.nanmedian(np.where(finite, sample, np.nan), axis=1)
            median = np.nan_to_num(median, nan=0.0)
        # Same outlier rule as _magnitude_rms: drop non-finite values and
        # values more than 1e6 x the per-row median (rows whose median is 0
        # keep everything finite, mirroring the scalar path).
        keep = finite & (
            (median[:, None] <= 0.0) | (sample <= 1e6 * median[:, None])
        )
        counts = keep.sum(axis=1)
        sums = np.square(np.where(keep, sample, 0.0)).sum(axis=1)
        rms = np.sqrt(sums / np.maximum(counts, 1))
        rms = np.where(counts > 0, rms, median)
        return rms / np.sqrt(2.0)

    def eta_memory(
        self,
        weights: np.ndarray,
        data: np.ndarray,
        *,
        weight_rms: Optional[float] = None,
        data_rms: Optional[float] = None,
    ) -> float:
        """Threshold for a memory-checksum verification.

        The residual of a fault-free weighted sum is bounded by the round-off
        of summing ``len(weights)`` terms of magnitude ``|w_j x_j|``; the RMS
        of those terms is measured from the data so the bound adapts to the
        modified (non-uniform) weights as well.  ``weight_rms`` may carry the
        weight-vector RMS precomputed at plan time
        (:func:`repro.core.constants.weight_rms` uses the identical
        expression, so the threshold is bit-identical either way).
        """

        weights = np.asarray(weights)
        n = weights.shape[0]
        # |w_j x_j| RMS approximated as rms(|w|) * robust-rms(|x|) on a sample
        # of the data; the threshold only needs the right order of magnitude
        # and this keeps verification from re-reading whole arrays.  The data
        # scale is outlier-filtered (see _magnitude_rms) so that a threshold
        # derived from already-corrupted data is not inflated - or overflowed
        # - by the corruption it is supposed to expose.
        if weight_rms is None:
            weight_rms = float(np.sqrt(np.mean(np.abs(weights) ** 2))) if n else 0.0
        value_rms = weight_rms * (
            data_rms if data_rms is not None else self._magnitude_rms(data)
        )
        if self.mode is ThresholdMode.RELATIVE:
            return max(self.relative_factor * n * value_rms, self.floor)
        sigma = self.model.summation_sigma(n, value_rms)
        return max(self.safety_factor * self.memory_margin * sigma, self.floor)

    def eta_memory_batch(
        self,
        weights: np.ndarray,
        rows: np.ndarray,
        *,
        weight_rms: Optional[float] = None,
        sigma0: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-row memory-checksum thresholds for a ``(batch, n)`` array.

        Semantically one :meth:`eta_memory` per row, vectorized: both modes
        are linear in the per-row data RMS, so the weight/data-independent
        factor is computed once and scaled by the vector of row RMS values.
        ``weight_rms`` optionally carries the plan-time precomputed
        weight-vector RMS (see :meth:`eta_memory`); ``sigma0`` a precomputed
        :meth:`component_sigma_rows` of ``rows`` (see
        :meth:`eta_offline_batch`).
        """

        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        weights = np.asarray(weights)
        n = weights.shape[0]
        if weight_rms is None:
            weight_rms = float(np.sqrt(np.mean(np.abs(weights) ** 2))) if n else 0.0
        if sigma0 is None:
            sigma0 = self._component_sigma_rows(rows)
        # component sigma is rms/sqrt(2); undo to get magnitude RMS.
        value_rms = weight_rms * sigma0 * float(np.sqrt(2.0))
        if self.mode is ThresholdMode.RELATIVE:
            etas = self.relative_factor * n * value_rms
        else:
            etas = (
                self.safety_factor
                * self.memory_margin
                * self.model.summation_sigma(n, 1.0)
                * value_rms
            )
        return np.maximum(etas, self.floor)
