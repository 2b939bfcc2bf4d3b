"""C source generator for the native codelet kernel tier.

This is the repository's ``genfft``-lite: :func:`generate_source` emits one
self-contained C translation unit implementing the exact stage bodies the
compiled :class:`~repro.fftlib.executor.StageProgram` executes -

* **base codelets** ``base_r`` for ``r`` in :data:`CODELET_RADICES` - the
  bottom-level length-``r`` DFTs of all stride-``q`` input subsequences,
  fully unrolled straight-line butterflies produced by a recursive
  radix-2 decimation-in-time expansion with the internal twiddle constants
  folded at generation time (trivial factors ``1`` and ``-i`` cost no
  multiplies, exactly the split-radix savings the ROADMAP's r in {32, 64}
  follow-on asked for);
* **combine codelets** ``combine_r_tw`` / ``combine_r_plain`` - one fused
  pass per stage: load the ``r`` strided inputs, multiply by the
  precomputed ``(r, p)`` twiddle table, run the unrolled radix-``r``
  butterfly, scatter the ``t``-major outputs - where the pure-NumPy path
  pays one full twiddle pass plus one BLAS contraction per stage;
* **generic fallbacks** ``base_generic`` / ``combine_generic`` driven by the
  cached DFT matrix, covering every radix/base the planner can emit that has
  no unrolled codelet (mixed-radix factors like 3/5/6, folded bases, direct
  primes up to 61 - all bounded by :data:`MAX_GENERIC_ORDER`);
* two **drivers**, ``repro_execute`` (out-of-place, ping-pong work buffers)
  and ``repro_execute_into`` (the two-buffer allocation-free discipline of
  :meth:`StageProgram.execute_into`), each a single C call per transform so
  ``ctypes`` releases the GIL exactly once per execution;
* the **fused protected** entry points of
  :class:`~repro.fftlib.protected.ProtectedStageProgram`:
  ``repro_execute_tapped`` runs ``repro_execute``'s stages on one vector,
  each tapped stage in cache-sized tiles whose share of the stage's checksum
  tap is reduced right after the tile is written (three running sums - the
  weights ``omega_3^(j mod 3)`` need no table), and ``repro_fold_references`` computes the interior tap
  references (the telescoping ``S_L`` folds contracted with ``c_L``).  Both
  reuse the codelets above; no per-radix body is duplicated.

Everything is ``complex128`` stored interleaved (the NumPy memory layout),
all pointers are ``restrict``, and nothing allocates - buffers, twiddle
tables, and butterfly matrices are owned by the Python side and passed in.

The emitted text is deterministic: the kernel cache keys compiled shared
objects by a hash of this source plus the compiler identity, so bumping
:data:`GENERATOR_VERSION` (or changing any emitted line) automatically
invalidates stale cache entries.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = [
    "GENERATOR_VERSION",
    "NATIVE_ABI",
    "CODELET_RADICES",
    "MAX_GENERIC_ORDER",
    "generate_source",
]

#: Bump on any change to the emitted C (new kernels, changed signatures,
#: changed loop structure) - it is folded into the kernel-cache key.
GENERATOR_VERSION = "2"

#: ABI stamp compiled into the shared object and verified at load time, so a
#: cache entry produced by an incompatible generator can never be dispatched.
NATIVE_ABI = 2

#: Radices with fully unrolled straight-line butterflies.
CODELET_RADICES = (2, 4, 8, 16, 32, 64)

#: Largest radix/base order the generic matrix-driven kernels accept (the
#: planner's direct bases are codelet-sized, folded products <= 64, or primes
#: <= 61, so 64 covers every lowering; larger factors fall back to NumPy).
MAX_GENERIC_ORDER = 64


def _const(value: float) -> str:
    """A C double literal with full round-trip precision."""

    if value == int(value):
        return f"{value:+.1f}"
    return f"{value:+.17e}"


class _Emitter:
    """Accumulates straight-line statements with unique temp names."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._counter = 0

    def tmp(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def stmt(self, line: str) -> None:
        self.lines.append(line)


def _dft(em: _Emitter, xs: Sequence[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """Emit a length-``len(xs)`` DFT over complex (re, im) expression pairs.

    Recursive radix-2 decimation in time; the inter-level twiddle constants
    are folded at generation time, with the trivial factors (``1`` at
    ``t = 0`` and ``-i`` at ``t = r/4``) emitted as moves/swaps instead of
    multiplies.  Returns the output expression pairs in natural order.
    """

    r = len(xs)
    if r == 1:
        return list(xs)
    evens = _dft(em, xs[0::2])
    odds = _dft(em, xs[1::2])
    h = r // 2
    out: List[Tuple[str, str]] = [("", "")] * r
    for t in range(h):
        er, ei = evens[t]
        orr, oi = odds[t]
        if t == 0:
            mr, mi = orr, oi
        elif 4 * t == r:
            # w = -i: (-i) * (a + bi) = b - ai; a swap plus a negation.
            m = em.tmp()
            em.stmt(f"const double {m}r = {oi};")
            em.stmt(f"const double {m}i = -{orr};")
            mr, mi = f"{m}r", f"{m}i"
        else:
            wr = math.cos(-2.0 * math.pi * t / r)
            wi = math.sin(-2.0 * math.pi * t / r)
            m = em.tmp()
            em.stmt(
                f"const double {m}r = {_const(wr)} * {orr} - ({_const(wi)}) * {oi};"
            )
            em.stmt(
                f"const double {m}i = {_const(wr)} * {oi} + ({_const(wi)}) * {orr};"
            )
            mr, mi = f"{m}r", f"{m}i"
        a = em.tmp()
        b = em.tmp()
        em.stmt(f"const double {a}r = {er} + {mr};")
        em.stmt(f"const double {a}i = {ei} + {mi};")
        em.stmt(f"const double {b}r = {er} - {mr};")
        em.stmt(f"const double {b}i = {ei} - {mi};")
        out[t] = (f"{a}r", f"{a}i")
        out[t + h] = (f"{b}r", f"{b}i")
    return out


def _indent(lines: Sequence[str], depth: int) -> str:
    pad = "    " * depth
    return "\n".join(pad + line for line in lines)


def _base_codelet(r: int) -> str:
    """The gathered base kernel: length-``r`` DFTs of stride-``q`` subsequences."""

    em = _Emitter()
    for s in range(r):
        em.stmt(f"const double z{s}r = inb[2 * ({s} * q + j)];")
        em.stmt(f"const double z{s}i = inb[2 * ({s} * q + j) + 1];")
    outs = _dft(em, [(f"z{s}r", f"z{s}i") for s in range(r)])
    for t, (yr, yi) in enumerate(outs):
        em.stmt(f"outb[2 * (j * {r} + {t})] = {yr};")
        em.stmt(f"outb[2 * (j * {r} + {t}) + 1] = {yi};")
    return f"""
static void base_{r}(const int64_t batch, const int64_t q,
                     const int64_t j0, const int64_t j1,
                     const double* restrict in, const int64_t in_rs,
                     double* restrict out, const int64_t out_rs)
{{
    for (int64_t b = 0; b < batch; ++b) {{
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t j = j0; j < j1; ++j) {{
{_indent(em.lines, 3)}
        }}
    }}
}}
"""


def _combine_codelet(r: int, twiddled: bool) -> str:
    """One fused combine stage of radix ``r`` (twiddle + butterfly + scatter)."""

    em = _Emitter()
    for s in range(r):
        em.stmt(f"const double x{s}r = inc[2 * ({s} * sstr + u)];")
        em.stmt(f"const double x{s}i = inc[2 * ({s} * sstr + u) + 1];")
        if twiddled and s > 0:
            # Row 0 of every stage table is all ones (omega^0); skip it.
            em.stmt(f"const double w{s}r = tw[2 * ({s} * p + u)];")
            em.stmt(f"const double w{s}i = tw[2 * ({s} * p + u) + 1];")
            em.stmt(f"const double z{s}r = x{s}r * w{s}r - x{s}i * w{s}i;")
            em.stmt(f"const double z{s}i = x{s}r * w{s}i + x{s}i * w{s}r;")
    if twiddled:
        inputs = [("x0r", "x0i")] + [(f"z{s}r", f"z{s}i") for s in range(1, r)]
    else:
        inputs = [(f"x{s}r", f"x{s}i") for s in range(r)]
    outs = _dft(em, inputs)
    for t, (yr, yi) in enumerate(outs):
        em.stmt(f"outc[2 * ({t} * p + u)] = {yr};")
        em.stmt(f"outc[2 * ({t} * p + u) + 1] = {yi};")
    suffix = "tw" if twiddled else "plain"
    tw_param = (
        "\n                           const double* restrict tw,"
        if twiddled
        else ""
    )
    return f"""
static void combine_{r}_{suffix}(const int64_t batch, const int64_t count, const int64_t p,
                           const int64_t c0, const int64_t c1,
                           const int64_t u0, const int64_t u1,
                           const double* restrict in, const int64_t in_rs,{tw_param}
                           double* restrict out, const int64_t out_rs)
{{
    const int64_t sstr = count * p;
    for (int64_t b = 0; b < batch; ++b) {{
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t c = c0; c < c1; ++c) {{
            const double* restrict inc = inb + 2 * c * p;
            double* restrict outc = outb + 2 * c * ({r} * p);
            for (int64_t u = u0; u < u1; ++u) {{
{_indent(em.lines, 4)}
            }}
        }}
    }}
}}
"""


_PRELUDE = f"""/* Generated by repro.fftlib.native.generator (version {GENERATOR_VERSION}).
 * Native codelet/combine kernels for the compiled stage programs: complex128
 * interleaved layout, no allocations, one driver call per transform.
 * Do not edit - regenerate via generate_source().
 */
#include <stdint.h>

#define REPRO_NATIVE_ABI {NATIVE_ABI}
#define MAX_GENERIC_ORDER {MAX_GENERIC_ORDER}

int64_t repro_native_abi(void) {{ return REPRO_NATIVE_ABI; }}
"""

_GENERIC = """
/* Matrix-driven base kernel for orders without an unrolled codelet (small
 * primes, folded composite bases; order <= MAX_GENERIC_ORDER). */
static void base_generic(const int64_t batch, const int64_t q, const int64_t base,
                         const int64_t j0, const int64_t j1,
                         const double* restrict in, const int64_t in_rs,
                         const double* restrict mat,
                         double* restrict out, const int64_t out_rs)
{
    for (int64_t b = 0; b < batch; ++b) {
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t j = j0; j < j1; ++j) {
            double zr[MAX_GENERIC_ORDER];
            double zi[MAX_GENERIC_ORDER];
            for (int64_t s = 0; s < base; ++s) {
                zr[s] = inb[2 * (s * q + j)];
                zi[s] = inb[2 * (s * q + j) + 1];
            }
            for (int64_t t = 0; t < base; ++t) {
                double accr = 0.0;
                double acci = 0.0;
                for (int64_t s = 0; s < base; ++s) {
                    const double mr = mat[2 * (s * base + t)];
                    const double mi = mat[2 * (s * base + t) + 1];
                    accr += zr[s] * mr - zi[s] * mi;
                    acci += zr[s] * mi + zi[s] * mr;
                }
                outb[2 * (j * base + t)] = accr;
                outb[2 * (j * base + t) + 1] = acci;
            }
        }
    }
}

/* Matrix-driven combine stage for radices without an unrolled codelet
 * (radix <= MAX_GENERIC_ORDER; tw may be NULL for pre-twiddled input). */
static void combine_generic(const int64_t batch, const int64_t r,
                            const int64_t count, const int64_t p,
                            const int64_t c0, const int64_t c1,
                            const int64_t u0, const int64_t u1,
                            const double* restrict in, const int64_t in_rs,
                            const double* restrict tw,
                            const double* restrict mat,
                            double* restrict out, const int64_t out_rs)
{
    const int64_t sstr = count * p;
    for (int64_t b = 0; b < batch; ++b) {
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t c = c0; c < c1; ++c) {
            const double* restrict inc = inb + 2 * c * p;
            double* restrict outc = outb + 2 * c * (r * p);
            for (int64_t u = u0; u < u1; ++u) {
                double zr[MAX_GENERIC_ORDER];
                double zi[MAX_GENERIC_ORDER];
                for (int64_t s = 0; s < r; ++s) {
                    const double xr = inc[2 * (s * sstr + u)];
                    const double xi = inc[2 * (s * sstr + u) + 1];
                    if (tw) {
                        const double wr = tw[2 * (s * p + u)];
                        const double wi = tw[2 * (s * p + u) + 1];
                        zr[s] = xr * wr - xi * wi;
                        zi[s] = xr * wi + xi * wr;
                    } else {
                        zr[s] = xr;
                        zi[s] = xi;
                    }
                }
                for (int64_t t = 0; t < r; ++t) {
                    double accr = 0.0;
                    double acci = 0.0;
                    for (int64_t s = 0; s < r; ++s) {
                        const double mr = mat[2 * (t * r + s)];
                        const double mi = mat[2 * (t * r + s) + 1];
                        accr += zr[s] * mr - zi[s] * mi;
                        acci += zr[s] * mi + zi[s] * mr;
                    }
                    outc[2 * (t * p + u)] = accr;
                    outc[2 * (t * p + u) + 1] = acci;
                }
            }
        }
    }
}

/* Elementwise twiddle staging pass (the two-buffer driver's odd-stage
 * discipline): out[b, s, c, u] = tw[s, u] * in[b, s, c, u]. */
static void twiddle_mult(const int64_t batch, const int64_t r,
                         const int64_t count, const int64_t p,
                         const double* restrict in, const int64_t in_rs,
                         const double* restrict tw,
                         double* restrict out, const int64_t out_rs)
{
    for (int64_t b = 0; b < batch; ++b) {
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t s = 0; s < r; ++s) {
            const double* restrict tws = tw + 2 * s * p;
            for (int64_t c = 0; c < count; ++c) {
                const double* restrict inc = inb + 2 * ((s * count + c) * p);
                double* restrict outc = outb + 2 * ((s * count + c) * p);
                for (int64_t u = 0; u < p; ++u) {
                    const double xr = inc[2 * u];
                    const double xi = inc[2 * u + 1];
                    const double wr = tws[2 * u];
                    const double wi = tws[2 * u + 1];
                    outc[2 * u] = xr * wr - xi * wi;
                    outc[2 * u + 1] = xr * wi + xi * wr;
                }
            }
        }
    }
}
"""


def _dispatchers() -> str:
    base_cases = "\n".join(
        f"    case {r}: base_{r}(batch, q, j0, j1, in, in_rs, out, out_rs); return;"
        for r in CODELET_RADICES
    )
    tw_cases = "\n".join(
        f"    case {r}: combine_{r}_tw(batch, count, p, c0, c1, u0, u1, in, in_rs, tw, "
        f"out, out_rs); "
        f"return;"
        for r in CODELET_RADICES
    )
    plain_cases = "\n".join(
        f"    case {r}: combine_{r}_plain(batch, count, p, c0, c1, u0, u1, in, in_rs, "
        f"out, out_rs); "
        f"return;"
        for r in CODELET_RADICES
    )
    return f"""
/* The base kernel over output rows [j0, j1) of q. */
static void run_base(const int64_t batch, const int64_t q, const int64_t base,
                     const int64_t j0, const int64_t j1,
                     const double* restrict mat,
                     const double* restrict in, const int64_t in_rs,
                     double* restrict out, const int64_t out_rs)
{{
    if (!mat) switch (base) {{
{base_cases}
    default: break;
    }}
    base_generic(batch, q, base, j0, j1, in, in_rs, mat, out, out_rs);
}}

/* One combine stage over groups [c0, c1) of count and butterfly columns
 * [u0, u1) of span (the full ranges run the whole stage). */
static void run_combine(const int64_t radix, const int64_t span, const int64_t count,
                        const int64_t c0, const int64_t c1,
                        const int64_t u0, const int64_t u1,
                        const int64_t batch,
                        const double* restrict in, const int64_t in_rs,
                        const double* restrict tw, const double* restrict mat,
                        double* restrict out, const int64_t out_rs)
{{
    const int64_t p = span;
    if (!mat) {{
        if (tw) switch (radix) {{
{tw_cases}
        default: break;
        }}
        else switch (radix) {{
{plain_cases}
        default: break;
        }}
    }}
    combine_generic(batch, radix, count, p, c0, c1, u0, u1, in, in_rs, tw, mat, out, out_rs);
}}
"""


_DRIVERS = """
/* Out-of-place driver: mirrors StageProgram.execute.  `in` is never written;
 * work_a/work_b are full-size ping-pong scratch; the final combine lands in
 * `out`.  All row strides are in complex elements. */
void repro_execute(const int64_t batch, const int64_t n, const int64_t base,
                   const double* base_matrix, const int64_t nstages,
                   const int64_t* restrict radices, const int64_t* restrict spans,
                   const int64_t* restrict counts,
                   const double* const* twiddles, const double* const* matrices,
                   const double* in, const int64_t in_rs,
                   double* out, const int64_t out_rs,
                   double* work_a, double* work_b)
{
    const int64_t q0 = n / base;
    if (nstages == 0) {
        run_base(batch, q0, base, 0, q0, base_matrix, in, in_rs, out, out_rs);
        return;
    }
    double* bufs[2] = { work_a, work_b };
    run_base(batch, q0, base, 0, q0, base_matrix, in, in_rs, work_a, n);
    const double* cur = work_a;
    int64_t cur_rs = n;
    for (int64_t i = 0; i < nstages; ++i) {
        double* dst;
        int64_t dst_rs;
        if (i == nstages - 1) { dst = out; dst_rs = out_rs; }
        else { dst = bufs[(i + 1) & 1]; dst_rs = n; }
        run_combine(radices[i], spans[i], counts[i], 0, counts[i], 0, spans[i], batch,
                    cur, cur_rs, twiddles[i], matrices[i], dst, dst_rs);
        cur = dst;
        cur_rs = dst_rs;
    }
}

/* Complex outputs per tile of the tapped driver: a tile (128 KiB) and the
 * inputs it reads stay cache-resident while its checksum tap is reduced. */
#define TAP_TILE 8192

/* Checksum taps contract a stage's output rows with r_L = omega_3^(j mod 3).
 * The weights cycle with period 3, so a tap is three running sums, one per
 * residue class (acc = A0, A1, A2 as re/im pairs), combined once at the end
 * as A0 + omega*A1 + omega^2*A2.  tap_add adds len points whose first lies
 * in class res. */
static void tap_add(double* restrict acc, const double* restrict x,
                    const int64_t len, const int64_t res)
{
    double b0r = 0.0, b0i = 0.0, b1r = 0.0, b1i = 0.0, b2r = 0.0, b2i = 0.0;
    int64_t k = 0;
    for (; k + 3 <= len; k += 3) {
        b0r += x[2 * k];
        b0i += x[2 * k + 1];
        b1r += x[2 * k + 2];
        b1i += x[2 * k + 3];
        b2r += x[2 * k + 4];
        b2i += x[2 * k + 5];
    }
    if (k < len) {
        b0r += x[2 * k];
        b0i += x[2 * k + 1];
    }
    if (k + 1 < len) {
        b1r += x[2 * k + 2];
        b1i += x[2 * k + 3];
    }
    const int64_t k0 = res % 3, k1 = (res + 1) % 3, k2 = (res + 2) % 3;
    acc[2 * k0] += b0r;
    acc[2 * k0 + 1] += b0i;
    acc[2 * k1] += b1r;
    acc[2 * k1 + 1] += b1i;
    acc[2 * k2] += b2r;
    acc[2 * k2 + 1] += b2i;
}

static void tap_finish(const double* restrict acc, double* restrict tap)
{
    /* omega = -1/2 + (sqrt(3)/2) i, omega^2 = conj(omega) */
    const double h = 0.86602540378443864676;
    tap[0] = acc[0] - 0.5 * (acc[2] + acc[4]) - h * (acc[3] - acc[5]);
    tap[1] = acc[1] - 0.5 * (acc[3] + acc[5]) + h * (acc[2] - acc[4]);
}

/* The base kernel in tiles of whole output rows, each tile's tap reduced
 * right after the tile is written. */
static void tapped_base(const int64_t n, const int64_t base, const double* restrict mat,
                        const double* restrict in, double* restrict out,
                        double* restrict tap)
{
    double acc[6] = { 0.0, 0.0, 0.0, 0.0, 0.0, 0.0 };
    const int64_t q = n / base;
    const int64_t jw = base < TAP_TILE ? TAP_TILE / base : 1;
    for (int64_t j0 = 0; j0 < q; j0 += jw) {
        const int64_t j1 = j0 + jw < q ? j0 + jw : q;
        run_base(1, q, base, j0, j1, mat, in, n, out, n);
        for (int64_t j = j0; j < j1; ++j) tap_add(acc, out + 2 * j * base, base, 0);
    }
    tap_finish(acc, tap);
}

/* One combine stage in tiles, each tile's tap reduced right after the tile
 * is written: groups of whole output rows while a row fits in a tile, else
 * column strips [u0, u1) of one row's r output segments. */
static void tapped_combine(const int64_t n, const int64_t r, const int64_t p,
                           const int64_t count,
                           const double* restrict in, const double* restrict tw,
                           const double* restrict mat, double* restrict out,
                           double* restrict tap)
{
    double acc[6] = { 0.0, 0.0, 0.0, 0.0, 0.0, 0.0 };
    const int64_t span = r * p;
    if (span <= TAP_TILE) {
        const int64_t cw = TAP_TILE / span;
        for (int64_t c0 = 0; c0 < count; c0 += cw) {
            const int64_t c1 = c0 + cw < count ? c0 + cw : count;
            run_combine(r, p, count, c0, c1, 0, p, 1, in, n, tw, mat, out, n);
            for (int64_t c = c0; c < c1; ++c) tap_add(acc, out + 2 * c * span, span, 0);
        }
    } else {
        const int64_t uw = TAP_TILE / r;
        for (int64_t c = 0; c < count; ++c) {
            for (int64_t u0 = 0; u0 < p; u0 += uw) {
                const int64_t u1 = u0 + uw < p ? u0 + uw : p;
                run_combine(r, p, count, c, c + 1, u0, u1, 1, in, n, tw, mat, out, n);
                for (int64_t t = 0; t < r; ++t)
                    tap_add(acc, out + 2 * (c * span + t * p + u0), u1 - u0, (t * p + u0) % 3);
            }
        }
    }
    tap_finish(acc, tap);
}

/* Fused protected driver: one vector through repro_execute's stages plus
 * its checksum taps, in one call.  With `interior` set `taps` gets one tap
 * per stage (base kernel first, final stage last), otherwise only the
 * end-to-end tap of `out`.  Tiling changes no arithmetic, so `out` is
 * bit-identical to repro_execute's. */
void repro_execute_tapped(const int64_t n, const int64_t base,
                          const double* base_matrix, const int64_t nstages,
                          const int64_t* restrict radices, const int64_t* restrict spans,
                          const int64_t* restrict counts,
                          const double* const* twiddles, const double* const* matrices,
                          const double* in, double* out,
                          double* work_a, double* work_b,
                          double* taps, const int64_t interior)
{
    if (nstages == 0) {
        tapped_base(n, base, base_matrix, in, out, taps);
        return;
    }
    double* bufs[2] = { work_a, work_b };
    if (interior) tapped_base(n, base, base_matrix, in, work_a, taps);
    else run_base(1, n / base, base, 0, n / base, base_matrix, in, n, work_a, n);
    const double* cur = work_a;
    for (int64_t i = 0; i < nstages; ++i) {
        double* dst = i == nstages - 1 ? out : bufs[(i + 1) & 1];
        if (interior || i == nstages - 1)
            tapped_combine(n, radices[i], spans[i], counts[i], cur, twiddles[i],
                           matrices[i], dst, taps + 2 * (interior ? i + 1 : 0));
        else
            run_combine(radices[i], spans[i], counts[i], 0, counts[i], 0, spans[i], 1,
                        cur, n, twiddles[i], matrices[i], dst, n);
        cur = dst;
    }
}

/* Interior reference checksums of a fused protected program.  Outermost
 * first, S_L is the contiguous block-sum fold of the previous (larger) fold
 * - of `x` itself for the first - and refs[i] = encodes[i] . S_{spans[i]}.
 * The folds shrink in place inside `scratch` (reads of block j start at
 * index j * k >= j, so no unread value is overwritten). */
void repro_fold_references(const int64_t n, const int64_t ntaps,
                           const int64_t* restrict spans,
                           const double* const* encodes,
                           const double* x, double* scratch, double* refs)
{
    const double* src = x;
    int64_t size = n;
    for (int64_t i = ntaps - 1; i >= 0; --i) {
        const int64_t span = spans[i];
        const int64_t k = size / span;
        const double* restrict enc = encodes[i];
        double accr = 0.0;
        double acci = 0.0;
        for (int64_t j = 0; j < span; ++j) {
            double sr = 0.0;
            double si = 0.0;
            for (int64_t m = 0; m < k; ++m) {
                sr += src[2 * (j * k + m)];
                si += src[2 * (j * k + m) + 1];
            }
            scratch[2 * j] = sr;
            scratch[2 * j + 1] = si;
            accr += enc[2 * j] * sr - enc[2 * j + 1] * si;
            acci += enc[2 * j] * si + enc[2 * j + 1] * sr;
        }
        refs[2 * i] = accr;
        refs[2 * i + 1] = acci;
        src = scratch;
        size = span;
    }
}

/* Two-buffer driver: mirrors StageProgram.execute_into.  `data` holds the
 * input and is clobbered (it becomes the staging area), the result lands in
 * `work`.  With an odd stage count the first stage runs un-fused (twiddle
 * staging into `data`, plain butterfly back into `work`) so the fused
 * alternation of the remaining even count still finishes in `work`. */
void repro_execute_into(const int64_t batch, const int64_t n, const int64_t base,
                        const double* base_matrix, const int64_t nstages,
                        const int64_t* restrict radices, const int64_t* restrict spans,
                        const int64_t* restrict counts,
                        const double* const* twiddles, const double* const* matrices,
                        double* data, const int64_t data_rs,
                        double* work, const int64_t work_rs)
{
    const int64_t q0 = n / base;
    run_base(batch, q0, base, 0, q0, base_matrix, data, data_rs, work, work_rs);
    int64_t i = 0;
    if (nstages & 1) {
        twiddle_mult(batch, radices[0], counts[0], spans[0],
                     work, work_rs, twiddles[0], data, data_rs);
        run_combine(radices[0], spans[0], counts[0], 0, counts[0], 0, spans[0], batch,
                    data, data_rs, (const double*)0, matrices[0], work, work_rs);
        i = 1;
    }
    const double* cur = work;
    int64_t cur_rs = work_rs;
    for (; i < nstages; ++i) {
        double* dst = (cur == work) ? data : work;
        const int64_t dst_rs = (cur == work) ? data_rs : work_rs;
        run_combine(radices[i], spans[i], counts[i], 0, counts[i], 0, spans[i], batch,
                    cur, cur_rs, twiddles[i], matrices[i], dst, dst_rs);
        cur = dst;
        cur_rs = dst_rs;
    }
}
"""


def generate_source() -> str:
    """The complete C translation unit of the native kernel tier."""

    parts = [_PRELUDE]
    for r in CODELET_RADICES:
        parts.append(_base_codelet(r))
    for r in CODELET_RADICES:
        parts.append(_combine_codelet(r, twiddled=True))
        parts.append(_combine_codelet(r, twiddled=False))
    parts.append(_GENERIC)
    parts.append(_dispatchers())
    parts.append(_DRIVERS)
    return "\n".join(parts)
