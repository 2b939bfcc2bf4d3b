"""Checksum algebra for ABFT FFT.

Computational checksums (Section 2.2)
-------------------------------------
The DFT is the matrix-vector product ``X = A x`` with
``A[j, l] = omega_N^{j l}``.  For a weight vector ``r`` the identity
``r . X = (r A) . x`` holds exactly in real arithmetic, so comparing the two
sides detects any computational error.  Wang & Jha showed that
``r = (omega_3^0, omega_3^1, ..., omega_3^{N-1})`` with
``omega_3 = -1/2 + sqrt(3)/2 i`` is a good choice for FFT networks; the paper
adopts the same vector.  ``rA`` has the closed form

.. math::  (rA)_j = \\frac{1 - \\omega_3^N}{1 - \\omega_3\\,\\omega_N^j},

(Section 7.1.1) which avoids an :math:`O(N^2)` encoding step.

Memory checksums (Sections 3.2 and 4.1)
---------------------------------------
A pair of weighted sums over a data vector allows a single corrupted element
to be *located* (by the ratio of the two checksum differences) and
*corrected* (by the first difference).  The classic weights are
``(1, 1, ..., 1)`` and ``(1, 2, ..., n)``; the modified weights of Section
4.1 reuse the computational input checksum vector ``rA`` as the first weight
vector (so one weighted sum serves both purposes) and ``j * (rA)_j`` as the
second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import ensure_positive_int

__all__ = [
    "omega3",
    "computational_weights",
    "roots_of_unity_naive",
    "roots_of_unity_split",
    "input_checksum_weights",
    "input_checksum_weights_naive",
    "memory_weights_classic",
    "memory_weights_modified",
    "halfcomplex_weights",
    "halfcomplex_sum",
    "weighted_sum",
    "locate_single_error",
    "repair_single_error",
    "ChecksumPair",
    "MemoryChecksumVectors",
]


_EPS = float(np.finfo(np.float64).eps)


def omega3() -> complex:
    """The first cube root of unity, ``-1/2 + (sqrt(3)/2) i``."""

    return complex(-0.5, np.sqrt(3.0) / 2.0)


def computational_weights(n: int) -> np.ndarray:
    """The computational checksum vector ``r = (omega_3^0, ..., omega_3^{n-1})``.

    The powers of ``omega_3`` cycle with period 3, so the vector is built by
    tiling the three exact values rather than by repeated multiplication
    (which would accumulate rounding error over long vectors).
    """

    n = ensure_positive_int(n, name="n")
    w3 = omega3()
    cycle = np.array([1.0 + 0.0j, w3, w3 * w3], dtype=np.complex128)
    reps = int(np.ceil(n / 3))
    return np.tile(cycle, reps)[:n]


def roots_of_unity_naive(n: int) -> np.ndarray:
    """``omega_n^j`` for all ``j`` via one trigonometric call per element.

    This is the "naive" encoding path of the offline scheme: every element
    requires a sine/cosine evaluation.  The optimized schemes replace it with
    :func:`roots_of_unity_split`.
    """

    n = ensure_positive_int(n, name="n")
    return np.exp(-2j * np.pi * np.arange(n) / n)


def roots_of_unity_split(n: int) -> np.ndarray:
    """``omega_n^j`` for all ``j`` using only ``O(sqrt(n))`` trigonometric calls.

    Writing ``j = a*T + b`` with ``T ~ sqrt(n)`` gives
    ``omega_n^j = omega_n^{aT} * omega_n^b``; two small tables and an outer
    product replace the per-element trigonometry, which is the software
    analogue of the paper's "replace trigonometric functions with two complex
    multiplications" optimization (Section 7.1.1).
    """

    n = ensure_positive_int(n, name="n")
    if n == 1:
        return np.ones(1, dtype=np.complex128)
    table_size = int(np.ceil(np.sqrt(n)))
    low = np.exp(-2j * np.pi * np.arange(table_size) / n)
    high = np.exp(-2j * np.pi * (np.arange(table_size) * table_size) / n)
    combined = np.outer(high, low).reshape(-1)
    return np.ascontiguousarray(combined[:n])


def _input_checksum_from_roots(n: int, roots: np.ndarray) -> np.ndarray:
    """Evaluate the closed form ``(1 - omega_3^n) / (1 - omega_3 * omega_n^j)``."""

    w3 = omega3()
    numerator = 1.0 - w3 ** (n % 3)
    denominator = 1.0 - w3 * roots
    # The denominator vanishes only when omega_n^j == omega_3^{-1}, i.e. when
    # 3 | n and j == n/3; there the geometric series sums to n exactly.  The
    # singular entry is patched afterwards (3 does not divide a power of two,
    # so the common case never takes the fix-up branch).
    with np.errstate(divide="ignore", invalid="ignore"):
        out = numerator / denominator
    if n % 3 == 0:
        singular = np.abs(denominator) < 1e-9
        if np.any(singular):
            out[singular] = float(n)
    return out


def input_checksum_weights(n: int) -> np.ndarray:
    """The input checksum vector ``c = r A`` via the closed form (optimized path)."""

    n = ensure_positive_int(n, name="n")
    return _input_checksum_from_roots(n, roots_of_unity_split(n))


def input_checksum_weights_naive(n: int) -> np.ndarray:
    """The input checksum vector ``c = r A`` using per-element trigonometry."""

    n = ensure_positive_int(n, name="n")
    return _input_checksum_from_roots(n, roots_of_unity_naive(n))


def memory_weights_classic(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The classic locating pair ``w1 = (1, ..., 1)``, ``w2 = (1, 2, ..., n)``."""

    n = ensure_positive_int(n, name="n")
    w1 = np.ones(n, dtype=np.complex128)
    w2 = np.arange(1, n + 1, dtype=np.float64).astype(np.complex128)
    return w1, w2


def memory_weights_modified(
    n: int, *, base: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The modified locating pair of Section 4.1: ``w1 = rA``, ``w2_j = j * (rA)_j``.

    Reusing ``rA`` means the first memory checksum *is* the computational
    input checksum, saving one pass over the data (10N instead of 14N
    operations in the paper's accounting).  The multiplier is 1-based so a
    fault in element 0 still produces a non-zero ratio.

    When 3 divides ``n`` the closed form makes almost every ``(rA)_j`` zero,
    which would destroy the locating ability; in that case the classic
    weights are returned instead (power-of-two sizes, the paper's target,
    never hit this).
    """

    n = ensure_positive_int(n, name="n")
    w1 = input_checksum_weights(n) if base is None else np.asarray(base, dtype=np.complex128)
    if w1.shape != (n,):
        raise ValueError(f"base weight vector must have shape ({n},)")
    if np.min(np.abs(w1)) < 1e-9:
        return memory_weights_classic(n)
    multiplier = np.arange(1, n + 1, dtype=np.float64)
    return w1, w1 * multiplier


def halfcomplex_weights(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a length-``n`` output weight vector onto the packed rfft layout.

    A real input has a conjugate-even spectrum, ``X[n-j] = conj(X[j])``, so
    only the ``bins = n//2 + 1`` leading bins ``P`` are stored.  Any weighted
    sum over the full spectrum folds exactly onto that layout:

    .. math::

        r \\cdot X \\;=\\; a \\cdot P + b \\cdot \\overline{P},
        \\qquad a_h = r_h, \\quad b_h = r_{n-h},

    with ``b_0 = 0`` (and ``b_{n/2} = 0`` for even ``n``, where the Nyquist
    bin is its own reflection).  In particular the computational checksum
    identity ``r . X = (rA) . x`` keeps its closed-form ``rA`` encoding: only
    the output-side reduction changes, to :func:`halfcomplex_sum`.
    """

    weights = np.asarray(weights, dtype=np.complex128)
    n = weights.shape[0]
    bins = n // 2 + 1
    a = np.ascontiguousarray(weights[:bins])
    b = np.zeros(bins, dtype=np.complex128)
    redundant = n - bins  # number of bins recovered by conjugation
    if redundant:
        b[1 : redundant + 1] = weights[n - 1 : bins - 1 : -1]
    return a, b


def halfcomplex_sum(a: np.ndarray, b: np.ndarray, packed: np.ndarray, axis: int = 0) -> np.ndarray:
    """Evaluate ``a . P + b . conj(P)`` over packed spectra (vectorised).

    The widelinear counterpart of :func:`weighted_sum` for the ``n//2 + 1``
    rfft layout; ``(a, b)`` come from :func:`halfcomplex_weights`.
    """

    with np.errstate(over="ignore", invalid="ignore"):
        return weighted_sum(a, packed, axis=axis) + weighted_sum(
            b, np.conj(packed), axis=axis
        )


def weighted_sum(weights: np.ndarray, data: np.ndarray, axis: int = 0) -> np.ndarray:
    """``sum_j weights[j] * data[j, ...]`` along ``axis`` (vectorised).

    For a 1-D ``data`` this is a scalar; for the ``(m, k)`` working matrix it
    returns the per-column (``axis=0``) or per-row (``axis=1``) checksums of
    all sub-FFT inputs/outputs in one BLAS call.
    """

    data = np.asarray(data, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.complex128)
    # Corrupted data (e.g. an exponent-bit flip producing ~1e300) can
    # legitimately overflow a checksum; verification treats a non-finite
    # checksum as a mismatch, so the overflow itself is not an error worth a
    # warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if data.ndim == 1:
            if weights.shape != data.shape:
                raise ValueError("weight/data length mismatch")
            return np.dot(weights, data)
        if data.ndim != 2:
            raise ValueError("weighted_sum supports 1-D or 2-D data")
        if axis == 0:
            if weights.shape[0] != data.shape[0]:
                raise ValueError("weight length must match data.shape[0]")
            return weights @ data
        if axis == 1:
            if weights.shape[0] != data.shape[1]:
                raise ValueError("weight length must match data.shape[1]")
            return data @ weights
    raise ValueError("axis must be 0 or 1")


#: Locating tolerance of :func:`locate_single_error`, in index units: the
#: checksum ratio must sit this close to a 1-based integer (its real part)
#: and to the real axis (its imaginary part).
_LOCATE_TOLERANCE = 0.05

#: Multiple of ``eps * ||w2 * x||_2`` bounding the roundoff of
#: ``d2 - (j+1) d1`` when the stored and the recomputed sums come from the
#: same summation kernel (measured at most ~4.3x over n = 256..65536 with
#: both weight families; 8 keeps a 2x margin).
_LOCATE_NOISE = 8.0


def locate_single_error(
    vector: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    s1: complex,
    s2: complex,
    *,
    current: Optional[Tuple[complex, complex]] = None,
) -> Optional[Tuple[int, complex]]:
    """Locate a single corrupted element of ``vector`` from stored checksums.

    ``s1``/``s2`` are the checksums generated *before* the corruption with the
    weight vectors ``w1``/``w2`` (which must satisfy ``w2 = (j+1) * w1``).
    Returns ``(index, delta)`` where ``delta`` is the corruption added to
    ``vector[index]``, or ``None`` when no single element explains the
    discrepancy (the paper's "uncorrected due to wrong indexing" outcome).

    The ratio ``d2 / d1`` of the two differences must lie within
    ``_LOCATE_TOLERANCE`` of an index.  Near the detection threshold the
    sums' roundoff moves the ratio further, unless the recomputed sums come
    from the same summation kernel as the stored ones (their rounding then
    cancels but for the corrupted element).  ``current`` passes
    ``(w1 . vector, w2 . vector)`` computed by the caller exactly the way
    ``s1``/``s2`` were (one vector's ``x @ w``, or the same batch GEMV); with
    it the tolerance widens to that kernel's roundoff bound relative to
    ``|d1|`` when larger, and a corruption so small that the bound reaches
    half an index is reported unlocatable.

    Without ``current`` (or when it overflowed) the sums are recomputed with
    ``np.dot`` on a copy rescaled by a power of two (exact, so the rounding
    is ``np.dot``'s own), so that a corrupted element of extreme magnitude
    (e.g. an exponent-bit flip that produces ~1e300) does not overflow the
    weighted sums and defeat the location step.
    """

    vector = np.asarray(vector, dtype=np.complex128)
    n = vector.shape[0]
    w1 = np.asarray(w1, dtype=np.complex128)
    w2 = np.asarray(w2, dtype=np.complex128)

    peak = float(np.max(np.abs(vector))) if n else 0.0
    if not np.isfinite(peak):
        # An element became inf/NaN; locate it directly (the checksums cannot
        # quantify it, but a non-finite element is unambiguous).
        bad = np.nonzero(~np.isfinite(vector))[0]
        if bad.size != 1:
            return None
        return int(bad[0]), complex(np.inf)

    d1 = d2 = np.nan
    scale = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if current is not None:
            d1 = current[0] - s1
            d2 = current[1] - s2
        same_kernel = bool(np.isfinite(d1) and np.isfinite(d2))
        if not same_kernel:
            # For peaks above 1, a power of two >= peak (capped at the
            # largest finite one): dividing by it is exact.
            scale = math.ldexp(1.0, min(math.frexp(peak)[1], 1023)) if peak > 1.0 else 1.0
            d1 = np.dot(w1, vector / scale) - s1 / scale
            d2 = np.dot(w2, vector / scale) - s2 / scale
    if not (np.isfinite(d1) and np.isfinite(d2)):
        return None
    if d1 == 0:
        return None
    ratio = d2 / d1
    position = float(np.real(ratio)) - 1.0  # weights use 1-based multipliers
    if not np.isfinite(position):
        return None
    index = int(np.rint(position))
    if not 0 <= index < n:
        return None
    miss = max(abs(position - index), abs(float(np.imag(ratio))))
    if miss > _LOCATE_TOLERANCE:
        if not same_kernel:
            return None
        # Same-kernel sums: their roundoff moves the ratio by at most
        # noise / |d1| index units.
        with np.errstate(over="ignore", invalid="ignore"):
            noise = _LOCATE_NOISE * _EPS * float(np.linalg.norm(w2 * vector))
        tolerance = noise / abs(d1)
        if not (tolerance < 0.5 and miss <= tolerance):
            return None
    weight = w1[index]
    if abs(weight) < 1e-300:
        return None
    # The reported delta may overflow to inf when the corruption itself is
    # near the top of the double range; callers that need a usable value
    # (repair_single_error) reconstruct the element instead of using it.
    with np.errstate(over="ignore", invalid="ignore"):
        delta = (d1 * scale) / weight
    return index, delta


def repair_single_error(
    vector: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    s1: complex,
    s2: complex,
    *,
    current: Optional[Tuple[complex, complex]] = None,
) -> Optional[Tuple[int, complex]]:
    """Locate and repair a single corrupted element of ``vector`` in place.

    Returns ``(index, repaired_value)`` or ``None`` when location fails
    (``current`` as in :func:`locate_single_error`).

    The repaired value is reconstructed from the stored checksum and the
    *other* elements, ``x_j = (s1 - sum_{i != j} w1_i x_i) / w1_j``, rather
    than by subtracting the estimated corruption from the corrupted value.
    The two are algebraically identical, but the reconstruction avoids the
    catastrophic cancellation that subtraction suffers when the corruption is
    many orders of magnitude larger than the data (a high exponent-bit flip),
    which is exactly the regime of the paper's Table 6 experiment.
    """

    located = locate_single_error(vector, w1, w2, s1, s2, current=current)
    if located is None:
        return None
    index, _delta = located
    w1 = np.asarray(w1, dtype=np.complex128)
    weight = w1[index]
    if abs(weight) < 1e-300:
        return None
    # Exclusion sum over the *uncorrupted* elements only: including the
    # corrupted element and subtracting it back would re-introduce the
    # cancellation this function exists to avoid.
    mask = np.ones(vector.shape[0], dtype=bool)
    mask[index] = False
    others = np.dot(w1[mask], np.asarray(vector)[mask])
    repaired = (s1 - others) / weight
    if np.isrealobj(vector):
        # Real-valued data (rfft inputs): the reconstruction's imaginary
        # part is pure round-off, so the repaired element is its real part.
        repaired = repaired.real
    vector[index] = repaired
    return index, repaired


@dataclass
class ChecksumPair:
    """Stored first/second memory checksums for one or many vectors."""

    s1: np.ndarray
    s2: np.ndarray

    def copy(self) -> "ChecksumPair":
        return ChecksumPair(np.array(self.s1, copy=True), np.array(self.s2, copy=True))

    def select(self, indices) -> "ChecksumPair":
        return ChecksumPair(np.asarray(self.s1)[indices], np.asarray(self.s2)[indices])


@dataclass
class MemoryChecksumVectors:
    """A locating checksum scheme over vectors of a fixed length.

    Parameters
    ----------
    length:
        Length of each protected vector.
    modified:
        Use the Section 4.1 modified weights (reusing ``rA``) instead of the
        classic ``(1..1)/(1..n)`` pair.
    """

    length: int
    modified: bool = True

    def __post_init__(self) -> None:
        ensure_positive_int(self.length, name="length")
        if self.modified:
            self.w1, self.w2 = memory_weights_modified(self.length)
        else:
            self.w1, self.w2 = memory_weights_classic(self.length)

    # ------------------------------------------------------------------
    def generate(self, data: np.ndarray, axis: int = 0) -> ChecksumPair:
        """Generate the stored checksum pair for ``data`` (1-D or 2-D)."""

        return ChecksumPair(
            s1=weighted_sum(self.w1, data, axis=axis),
            s2=weighted_sum(self.w2, data, axis=axis),
        )

    def residuals(self, data: np.ndarray, stored: ChecksumPair, axis: int = 0) -> np.ndarray:
        """Return ``|recomputed_s1 - stored_s1|`` per protected vector."""

        current = weighted_sum(self.w1, data, axis=axis)
        return np.abs(current - stored.s1)

    def locate(self, vector: np.ndarray, s1: complex, s2: complex) -> Optional[Tuple[int, complex]]:
        """Locate a single corrupted element of ``vector``.

        Returns ``(index, delta)`` such that subtracting ``delta`` from
        ``vector[index]`` restores the original value, or ``None`` when the
        corruption cannot be attributed to a single element (the paper's
        "uncorrected due to wrong indexing" case).
        """

        return locate_single_error(vector, self.w1, self.w2, s1, s2)

    def correct(
        self, vector: np.ndarray, s1: complex, s2: complex
    ) -> Optional[Tuple[int, complex]]:
        """Locate and correct a single corrupted element in place.

        Returns ``(index, repaired_value)`` or ``None``; the repair uses the
        cancellation-free reconstruction of :func:`repair_single_error`.
        """

        return repair_single_error(vector, self.w1, self.w2, s1, s2)
