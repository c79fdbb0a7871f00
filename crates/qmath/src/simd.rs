//! Vectorized complex multiply-accumulate primitives for the dense hot
//! loops.
//!
//! [`axpy`] — `acc[j] += a · row[j]` with a *broadcast* coefficient — is
//! the inner operation of [`crate::Matrix::matmul_into`] and the gate
//! kernels. The synthesis hot loop, one optimizer start at a time, runs
//! fused kernels built from the same step: [`mix2`] and [`mul_into`] write
//! a gate's output rows in one pass ([`crate::kernels::RowOp`]), and
//! [`dot2x4`] and [`dtrace3`] run independent sums side by side. Each keeps
//! every element's operation sequence, so each is bit-identical to the
//! `axpy` or scalar multiply-accumulate loop it replaces.
//!
//! Each index `j` is an independent accumulation chain, so processing
//! elements in SIMD lanes cannot reassociate any floating-point sum — only
//! the per-element operation sequence matters for reproducibility.
//!
//! # Strict mode (default)
//!
//! The AVX paths issue the exact scalar operation sequence per lane (`mul`,
//! `mul`, `addsub`, `add` — never FMA), making them **bit-identical** to the
//! scalar loop. Callers never need to know which path ran, on any machine.
//!
//! # Relaxed mode (`simd-relaxed` feature)
//!
//! With the `simd-relaxed` feature every complex multiply-accumulate is
//! *contracted*: each component is produced by exactly two fused
//! multiply-adds,
//!
//! ```text
//! acc.re = fma(r.re, a.re, fma(r.im, −a.im, acc.re))
//! acc.im = fma(r.im, a.re, fma(r.re, a.im, acc.im))
//! ```
//!
//! skipping one intermediate rounding per component and unlocking FMA and
//! AVX-512 throughput. The formulation is the same in the scalar
//! (`f64::mul_add`), 256-bit FMA, and 512-bit AVX-512 paths — an FMA is
//! correctly rounded wherever it executes — so relaxed results are still
//! **deterministic and identical across machines and vector widths**. They are *not* bit-equal to strict mode: each fused step rounds
//! once instead of twice, a sub-ulp perturbation per accumulation that
//! compounds to the documented qsynth-level tolerance (DESIGN.md §4j).
//! Default builds keep the strict contract.

use crate::C64;

/// Numerics-mode tag compiled into this build of qmath: `"strict"` (the
/// default bit-exact embed+matmul contract) or `"relaxed-fma"`
/// (`simd-relaxed`: FMA-contracted accumulation). Cache fingerprints hash
/// this tag so artifacts produced under the two rounding regimes never mix.
pub const NUMERICS_MODE: &str = if cfg!(feature = "simd-relaxed") {
    "relaxed-fma"
} else {
    "strict"
};

/// `acc[j] += a * row[j]` over the common prefix of the two slices.
#[inline]
pub fn axpy(acc: &mut [C64], a: C64, row: &[C64]) {
    #[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
    {
        if acc.len().min(row.len()) >= 2 && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just checked.
            unsafe { axpy_avx(acc, a, row) };
            return;
        }
    }
    #[cfg(all(target_arch = "x86_64", feature = "simd-relaxed"))]
    {
        let n = acc.len().min(row.len());
        if n >= 4 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just checked.
            unsafe { axpy_avx512(acc, a, row) };
            return;
        }
        if n >= 2 && std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: FMA (and thus AVX) support was just checked.
            unsafe { axpy_fma(acc, a, row) };
            return;
        }
    }
    axpy_scalar(acc, a, row);
}

/// A 2×2 mix of two rows into two rows, in one pass:
///
/// ```text
/// o0[j] = (0 + m[0][0]·r0[j]) + m[0][1]·r1[j]
/// o1[j] = (0 + m[1][0]·r0[j]) + m[1][1]·r1[j]
/// ```
///
/// over the common prefix of the four rows. This is the width-1 kernel of a
/// 1-qubit gate: each pair of rows is loaded once and both outputs are
/// written once, where the generic row path zero-fills each output and then
/// re-reads and re-writes it once per source row ([`axpy`]).
///
/// Bit-exactness: each element runs the generic path's sequence — a
/// multiply-accumulate of `m[x][0]·r0[j]` onto `+0.0`, then one of
/// `m[x][1]·r1[j]` — with the same operands in the same slots, so the result
/// equals `o.fill(0); axpy(o, m[x][0], r0); axpy(o, m[x][1], r1)` bit for
/// bit, signs of zeros included (the `0 +` turns a `−0.0` product into
/// `+0.0`, as the zero-filled accumulator does). Under `simd-relaxed` it runs
/// exactly that generic sequence.
#[inline]
pub fn mix2(o0: &mut [C64], o1: &mut [C64], m: [[C64; 2]; 2], r0: &[C64], r1: &[C64]) {
    #[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just checked.
            unsafe { mix2_avx(o0, o1, m, r0, r1) };
            return;
        }
    }
    #[cfg(feature = "simd-relaxed")]
    {
        for (o, c) in [(o0, m[0]), (o1, m[1])] {
            o.fill(C64::ZERO);
            axpy(o, c[0], r0);
            axpy(o, c[1], r1);
        }
    }
    #[cfg(not(feature = "simd-relaxed"))]
    mix2_scalar(o0, o1, m, r0, r1);
}

#[cfg(not(feature = "simd-relaxed"))]
#[inline]
fn mix2_scalar(o0: &mut [C64], o1: &mut [C64], m: [[C64; 2]; 2], r0: &[C64], r1: &[C64]) {
    for (((y0, y1), &a), &b) in o0.iter_mut().zip(o1.iter_mut()).zip(r0).zip(r1) {
        *y0 = mla_step(mla_step(C64::ZERO, m[0][0], a), m[0][1], b);
        *y1 = mla_step(mla_step(C64::ZERO, m[1][0], a), m[1][1], b);
    }
}

/// Strict AVX path of [`mix2`]: per pair of complexes, the two source rows
/// are loaded and swapped once, and each output is
/// `add(add(0, addsub(mul(a, c0.re), mul(a', c0.im))), addsub(mul(b, c1.re),
/// mul(b', c1.im)))` — [`axpy_avx`]'s operation sequence and operand order,
/// twice, with the accumulator held in a register instead of memory.
///
/// # Safety
///
/// Caller must guarantee AVX support; the sole call site in [`mix2`] gates
/// on `is_x86_feature_detected!("avx")`. Pointer arithmetic stays within the
/// common prefix of the four slices.
#[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
#[target_feature(enable = "avx")]
unsafe fn mix2_avx(o0: &mut [C64], o1: &mut [C64], m: [[C64; 2]; 2], r0: &[C64], r1: &[C64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    let n = o0.len().min(o1.len()).min(r0.len()).min(r1.len());
    let zero = _mm256_setzero_pd();
    // c[x][y] = (m[x][y].re, m[x][y].im), each broadcast to all four slots.
    let mut c = [[(zero, zero); 2]; 2];
    for x in 0..2 {
        for y in 0..2 {
            c[x][y] = (_mm256_set1_pd(m[x][y].re), _mm256_set1_pd(m[x][y].im));
        }
    }
    // SAFETY: C64 is `repr(C)` with two f64 fields; every offset below stays
    // within the common prefix checked against `n`.
    let (p0, p1) = (o0.as_mut_ptr().cast::<f64>(), o1.as_mut_ptr().cast::<f64>());
    let (a_p, b_p) = (r0.as_ptr().cast::<f64>(), r1.as_ptr().cast::<f64>());
    let mut i = 0;
    while i + 2 <= n {
        let a = _mm256_loadu_pd(a_p.add(2 * i));
        let b = _mm256_loadu_pd(b_p.add(2 * i));
        let a_s = _mm256_permute_pd(a, 0b0101);
        let b_s = _mm256_permute_pd(b, 0b0101);
        for (x, p) in [p0, p1].into_iter().enumerate() {
            let ((c0_re, c0_im), (c1_re, c1_im)) = (c[x][0], c[x][1]);
            let pa = _mm256_addsub_pd(_mm256_mul_pd(a, c0_re), _mm256_mul_pd(a_s, c0_im));
            let pb = _mm256_addsub_pd(_mm256_mul_pd(b, c1_re), _mm256_mul_pd(b_s, c1_im));
            _mm256_storeu_pd(p.add(2 * i), _mm256_add_pd(_mm256_add_pd(zero, pa), pb));
        }
        i += 2;
    }
    if i < n {
        mix2_scalar(&mut o0[i..n], &mut o1[i..n], m, &r0[i..n], &r1[i..n]);
    }
}

/// `o[j] = 0 + c·r[j]` over the common prefix, in one pass: the width-1
/// kernel of a row with a single nonzero coefficient (every row of a
/// permutation gate such as CNOT, where `c = 1`).
///
/// Bit-exactness: equal to `o.fill(0); axpy(o, c, r)` bit for bit. This is
/// deliberately *not* a copy even when `c = 1`: the product `1·r` is
/// `(1·r.re − 0·r.im, 1·r.im + 0·r.re)`, which turns `−0.0` into `+0.0`
/// and `±inf` into NaN in the other component, and adding the product to
/// `+0.0` turns a `−0.0` into `+0.0` again. Under `simd-relaxed` it runs
/// exactly that generic sequence.
#[inline]
pub fn mul_into(o: &mut [C64], c: C64, r: &[C64]) {
    #[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just checked.
            unsafe { mul_into_avx(o, c, r) };
            return;
        }
    }
    #[cfg(feature = "simd-relaxed")]
    {
        o.fill(C64::ZERO);
        axpy(o, c, r);
    }
    #[cfg(not(feature = "simd-relaxed"))]
    mul_into_scalar(o, c, r);
}

#[cfg(not(feature = "simd-relaxed"))]
#[inline]
fn mul_into_scalar(o: &mut [C64], c: C64, r: &[C64]) {
    for (y, &v) in o.iter_mut().zip(r) {
        *y = mla_step(C64::ZERO, c, v);
    }
}

/// Strict AVX path of [`mul_into`]: [`axpy_avx`]'s sequence with a zero
/// register in place of the loaded accumulator.
///
/// # Safety
///
/// Caller must guarantee AVX support; the sole call site in [`mul_into`]
/// gates on `is_x86_feature_detected!("avx")`. Pointer arithmetic stays
/// within the common prefix of the two slices.
#[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
#[target_feature(enable = "avx")]
unsafe fn mul_into_avx(o: &mut [C64], c: C64, r: &[C64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    let n = o.len().min(r.len());
    let (c_re, c_im) = (_mm256_set1_pd(c.re), _mm256_set1_pd(c.im));
    let zero = _mm256_setzero_pd();
    // SAFETY: as in `axpy_avx` — C64 is repr(C) { re: f64, im: f64 }, and
    // every offset below stays within the common prefix `n`.
    let op = o.as_mut_ptr().cast::<f64>();
    let rp = r.as_ptr().cast::<f64>();
    let mut i = 0;
    while i + 2 <= n {
        let v = _mm256_loadu_pd(rp.add(2 * i));
        let vs = _mm256_permute_pd(v, 0b0101);
        let prod = _mm256_addsub_pd(_mm256_mul_pd(v, c_re), _mm256_mul_pd(vs, c_im));
        _mm256_storeu_pd(op.add(2 * i), _mm256_add_pd(zero, prod));
        i += 2;
    }
    if i < n {
        mul_into_scalar(&mut o[i..n], c, &r[i..n]);
    }
}

/// Four rows' pairs of complex dot products, run side by side: entry `k`
/// of the result is `[Σ_j w[k][j]·s0[k][j], Σ_j w[k][j]·s1[k][j]]` over the
/// common prefix of row `k`'s three slices, each sum accumulated in
/// ascending `j` from `+0.0` with the mode's multiply-accumulate step
/// (coefficient `w[k][j]` in the first operand slot).
///
/// This is the width-1 reduced-`Q` sweep. A single dot product is one
/// loop-carried `add` chain, bound by the adder's latency; the eight chains
/// here are independent, so running them together keeps the adder busy.
/// Each chain keeps its own order, so every sum is bit-identical to a
/// scalar multiply-accumulate loop over that row.
#[inline]
pub fn dot2x4(w: [&[C64]; 4], s0: [&[C64]; 4], s1: [&[C64]; 4]) -> [[C64; 2]; 4] {
    #[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just checked.
            return unsafe { dot2x4_avx(w, s0, s1) };
        }
    }
    std::array::from_fn(|k| dot2_scalar(w[k], s0[k], s1[k]))
}

#[inline]
fn dot2_scalar(w: &[C64], s0: &[C64], s1: &[C64]) -> [C64; 2] {
    let mut a0 = C64::ZERO;
    let mut a1 = C64::ZERO;
    for ((&wj, &x0), &x1) in w.iter().zip(s0).zip(s1) {
        a0 = mla_step(a0, wj, x0);
        a1 = mla_step(a1, wj, x1);
    }
    [a0, a1]
}

/// Strict AVX path of [`dot2x4`]: row `k`'s two chains ride in one 256-bit
/// accumulator (`[a0.re, a0.im, a1.re, a1.im]`), four accumulators in
/// flight. Each step broadcasts the shared coefficient and issues
/// [`axpy_avx`]'s unfused `mul`/`mul`/`addsub`/`add` sequence in its
/// operand order, so every chain is bit-identical to [`dot2_scalar`]. Rows
/// of unequal length fall back to the scalar chains.
///
/// # Safety
///
/// Caller must guarantee AVX support; the sole call site in [`dot2x4`]
/// gates on `is_x86_feature_detected!("avx")`. Pointer arithmetic stays
/// within each row's common prefix, which all rows share.
#[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
#[target_feature(enable = "avx")]
unsafe fn dot2x4_avx(w: [&[C64]; 4], s0: [&[C64]; 4], s1: [&[C64]; 4]) -> [[C64; 2]; 4] {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_broadcast_sd, _mm256_loadu2_m128d, _mm256_mul_pd,
        _mm256_permute_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    let lens: [usize; 4] = std::array::from_fn(|k| w[k].len().min(s0[k].len()).min(s1[k].len()));
    let n = lens[0];
    if lens.iter().any(|&l| l != n) {
        return std::array::from_fn(|k| dot2_scalar(w[k], s0[k], s1[k]));
    }
    // SAFETY: C64 is `repr(C)` with two f64 fields; every offset below
    // stays within the common prefix `n` of every row.
    let wp = w.map(|r| r.as_ptr().cast::<f64>());
    let p0 = s0.map(|r| r.as_ptr().cast::<f64>());
    let p1 = s1.map(|r| r.as_ptr().cast::<f64>());
    let mut acc = [_mm256_setzero_pd(); 4];
    for j in 0..n {
        for k in 0..4 {
            // r = [s0[j], s1[j]] — low half chain 0, high half chain 1.
            let r = _mm256_loadu2_m128d(p1[k].add(2 * j), p0[k].add(2 * j));
            let w_re = _mm256_broadcast_sd(&*wp[k].add(2 * j));
            let w_im = _mm256_broadcast_sd(&*wp[k].add(2 * j + 1));
            let t1 = _mm256_mul_pd(r, w_re);
            let t2 = _mm256_mul_pd(_mm256_permute_pd(r, 0b0101), w_im);
            acc[k] = _mm256_add_pd(acc[k], _mm256_addsub_pd(t1, t2));
        }
    }
    let mut out = [[C64::ZERO; 2]; 4];
    for (o, a) in out.iter_mut().zip(acc) {
        _mm256_storeu_pd(o.as_mut_ptr().cast::<f64>(), a);
    }
    out
}

/// The three derivative traces of a 1-qubit gate against a reduced matrix:
/// entry `k` of the result is
///
/// ```text
/// Σ_i Σ_x dg[k][x][(i >> shift) & 1] · q[2i + x]
/// ```
///
/// over `i < q.len() / 2`, each sum accumulated in ascending `(i, x)` order
/// from `+0.0` with the mode's multiply-accumulate step (the `dg` entry in
/// the first operand slot). Here `q[2i + x]` is entry `(i, base_i | x·2^shift)`
/// of `Q`, so each sum is `Tr(Q·∂G_k)` of a gate on the qubit at bit `shift`.
///
/// This is the width-1 derivative step of the synthesis gradient. The three
/// chains are independent: the AVX path runs the first two in one register
/// and the third beside it, so each `q` entry is loaded once per step and
/// the chains wait on the adder together instead of one after another.
/// Every chain is bit-identical to its scalar sum.
#[inline]
pub fn dtrace3(dg: &[[[C64; 2]; 2]; 3], q: &[C64], shift: usize) -> [C64; 3] {
    #[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just checked.
            return unsafe { dtrace3_avx(dg, q, shift) };
        }
    }
    dtrace3_scalar(dg, q, shift)
}

#[inline]
fn dtrace3_scalar(dg: &[[[C64; 2]; 2]; 3], q: &[C64], shift: usize) -> [C64; 3] {
    let mut acc = [C64::ZERO; 3];
    for (i, qi) in q.chunks_exact(2).enumerate() {
        let y = (i >> shift) & 1;
        for (x, &qx) in qi.iter().enumerate() {
            for (a, d) in acc.iter_mut().zip(dg) {
                *a = mla_step(*a, d[x][y], qx);
            }
        }
    }
    acc
}

/// Strict AVX path of [`dtrace3`]: chains 0 and 1 share one 256-bit
/// accumulator, chain 2 rides in a 128-bit one. Each step duplicates the
/// `q` entry into both halves and issues [`axpy_avx`]'s unfused
/// `mul`/`mul`/`addsub`/`add` sequence in its operand order, so every chain
/// is bit-identical to [`dtrace3_scalar`].
///
/// # Safety
///
/// Caller must guarantee AVX support; the sole call site in [`dtrace3`]
/// gates on `is_x86_feature_detected!("avx")`. Pointer arithmetic stays
/// within `q`'s whole pairs.
#[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
#[target_feature(enable = "avx")]
unsafe fn dtrace3_avx(dg: &[[[C64; 2]; 2]; 3], q: &[C64], shift: usize) -> [C64; 3] {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_castpd256_pd128, _mm256_loadu2_m128d,
        _mm256_mul_pd, _mm256_permute_pd, _mm256_setr_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm_add_pd, _mm_addsub_pd, _mm_mul_pd, _mm_set1_pd, _mm_setzero_pd, _mm_storeu_pd,
    };
    // Coefficients of step (x, y), re and im parts duplicated per complex:
    // chains 0 and 1 as one 256-bit pair, chain 2 as one 128-bit value.
    let (z4, z2) = (_mm256_setzero_pd(), _mm_setzero_pd());
    let mut c01 = [[(z4, z4); 2]; 2];
    let mut c2 = [[(z2, z2); 2]; 2];
    for x in 0..2 {
        for y in 0..2 {
            let (d0, d1, d2) = (dg[0][x][y], dg[1][x][y], dg[2][x][y]);
            c01[x][y] = (
                _mm256_setr_pd(d0.re, d0.re, d1.re, d1.re),
                _mm256_setr_pd(d0.im, d0.im, d1.im, d1.im),
            );
            c2[x][y] = (_mm_set1_pd(d2.re), _mm_set1_pd(d2.im));
        }
    }
    let (mut acc01, mut acc2) = (z4, z2);
    // SAFETY: C64 is `repr(C)` with two f64 fields; `2·(2i + x) + 1` stays
    // below `2·q.len()` for every `i < q.len() / 2`.
    let qp = q.as_ptr().cast::<f64>();
    for i in 0..q.len() / 2 {
        let y = (i >> shift) & 1;
        for (x, (c01x, c2x)) in c01.iter().zip(&c2).enumerate() {
            let (a01_re, a01_im) = c01x[y];
            let (a2_re, a2_im) = c2x[y];
            let p = qp.add(2 * (2 * i + x));
            // r = [q, q]: both halves hold the same entry.
            let r = _mm256_loadu2_m128d(p, p);
            let rs = _mm256_permute_pd(r, 0b0101);
            let t1 = _mm256_mul_pd(r, a01_re);
            let t2 = _mm256_mul_pd(rs, a01_im);
            acc01 = _mm256_add_pd(acc01, _mm256_addsub_pd(t1, t2));
            let (r2, rs2) = (_mm256_castpd256_pd128(r), _mm256_castpd256_pd128(rs));
            acc2 = _mm_add_pd(
                acc2,
                _mm_addsub_pd(_mm_mul_pd(r2, a2_re), _mm_mul_pd(rs2, a2_im)),
            );
        }
    }
    let mut out = [C64::ZERO; 3];
    let op = out.as_mut_ptr().cast::<f64>();
    _mm256_storeu_pd(op, acc01);
    _mm_storeu_pd(op.add(4), acc2);
    out
}

/// One complex multiply-accumulate `acc + a·r` in the mode this build was
/// compiled for — the exact scalar step every kernel chain is built from
/// (coefficient `a` in the first operand slot; the relaxed contraction is
/// not operand-symmetric). Public so downstream fast paths can keep
/// accumulators in registers while staying bit-identical to the [`axpy`]
/// chains.
#[inline]
pub fn mla1(acc: C64, a: C64, r: C64) -> C64 {
    mla_step(acc, a, r)
}

/// One multiply-accumulate step in the mode this build was compiled for.
/// The kernels' scalar accumulations route through this so scalar and
/// vector paths agree bit-for-bit in *both* numerics modes.
#[inline]
pub(crate) fn mla_step(acc: C64, a: C64, r: C64) -> C64 {
    #[cfg(not(feature = "simd-relaxed"))]
    {
        acc + a * r
    }
    #[cfg(feature = "simd-relaxed")]
    {
        // The relaxed contraction; see the module docs. `f64::mul_add` is a
        // correctly rounded fused multiply-add, so this matches the vector
        // FMA paths bit-for-bit.
        C64::new(
            r.re.mul_add(a.re, r.im.mul_add(-a.im, acc.re)),
            r.im.mul_add(a.re, r.re.mul_add(a.im, acc.im)),
        )
    }
}

#[inline]
fn axpy_scalar(acc: &mut [C64], a: C64, row: &[C64]) {
    for (o, &r) in acc.iter_mut().zip(row) {
        *o = mla_step(*o, a, r);
    }
}

/// Strict AVX path: two complex numbers per 256-bit vector.
///
/// Per lane pair this computes exactly what `C64: Mul`/`AddAssign` compute:
/// `t1 = (a.re·r.re, a.re·r.im)`, `t2 = (a.im·r.im, a.im·r.re)`, then
/// `addsub` yields `(a.re·r.re − a.im·r.im, a.re·r.im + a.im·r.re)` — the
/// same products, subtraction, and addition in the same order, all under
/// IEEE round-to-nearest with no contraction.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX (this fn is
/// `#[target_feature(enable = "avx")]`); calling it on a non-AVX CPU is
/// undefined behavior. The sole call site in [`axpy`] gates on
/// `is_x86_feature_detected!("avx")`. No other precondition: slice bounds
/// are derived from the common prefix length inside the function, and all
/// loads/stores are unaligned (`loadu`/`storeu`).
#[cfg(all(target_arch = "x86_64", not(feature = "simd-relaxed")))]
#[target_feature(enable = "avx")]
unsafe fn axpy_avx(acc: &mut [C64], a: C64, row: &[C64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd,
        _mm256_set1_pd, _mm256_storeu_pd,
    };
    let n = acc.len().min(row.len());
    let va_re = _mm256_set1_pd(a.re);
    let va_im = _mm256_set1_pd(a.im);
    // SAFETY: C64 is `repr(C)` with two f64 fields, so a slice of n C64s is
    // exactly 2n contiguous f64s; all pointer offsets stay within the
    // common prefix checked against `n`.
    let ap = acc.as_mut_ptr().cast::<f64>();
    let rp = row.as_ptr().cast::<f64>();
    let mut i = 0;
    while i + 2 <= n {
        let r = _mm256_loadu_pd(rp.add(2 * i));
        let t1 = _mm256_mul_pd(r, va_re);
        // Swap re/im within each complex: (r.im, r.re).
        let rs = _mm256_permute_pd(r, 0b0101);
        let t2 = _mm256_mul_pd(rs, va_im);
        let prod = _mm256_addsub_pd(t1, t2);
        let o = _mm256_loadu_pd(ap.add(2 * i));
        _mm256_storeu_pd(ap.add(2 * i), _mm256_add_pd(o, prod));
        i += 2;
    }
    if i < n {
        axpy_scalar(&mut acc[i..n], a, &row[i..n]);
    }
}

/// Relaxed 256-bit FMA path: per complex,
/// `step1 = fma((r.im, r.re), (−a.im, a.im), acc)` then
/// `fma((r.re, r.im), (a.re, a.re), step1)` — the exact contraction
/// [`mla_step`] computes with `f64::mul_add`.
///
/// # Safety
///
/// Caller must guarantee FMA support (which implies AVX); the sole call
/// site gates on `is_x86_feature_detected!("fma")`. Pointer arithmetic
/// stays within the common prefix of the slices.
#[cfg(all(target_arch = "x86_64", feature = "simd-relaxed"))]
#[target_feature(enable = "avx,fma")]
unsafe fn axpy_fma(acc: &mut [C64], a: C64, row: &[C64]) {
    use std::arch::x86_64::{
        _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_setr_pd,
        _mm256_storeu_pd,
    };
    let n = acc.len().min(row.len());
    let a_re = _mm256_set1_pd(a.re);
    // (−a.im, +a.im) per complex slot: the re component subtracts
    // a.im·r.im, the im component adds a.im·r.re.
    let a_im = _mm256_setr_pd(-a.im, a.im, -a.im, a.im);
    // SAFETY: see `axpy_avx` — offsets stay within the common prefix.
    let ap = acc.as_mut_ptr().cast::<f64>();
    let rp = row.as_ptr().cast::<f64>();
    let mut i = 0;
    while i + 2 <= n {
        let r = _mm256_loadu_pd(rp.add(2 * i));
        let rs = _mm256_permute_pd(r, 0b0101);
        let o = _mm256_loadu_pd(ap.add(2 * i));
        let step1 = _mm256_fmadd_pd(rs, a_im, o);
        _mm256_storeu_pd(ap.add(2 * i), _mm256_fmadd_pd(r, a_re, step1));
        i += 2;
    }
    if i < n {
        axpy_scalar(&mut acc[i..n], a, &row[i..n]);
    }
}

/// Relaxed AVX-512 path: four complex numbers per 512-bit vector, same
/// two-FMA contraction as [`axpy_fma`] (bit-identical per element — an FMA
/// rounds the same at any vector width).
///
/// # Safety
///
/// Caller must guarantee AVX-512F support; the sole call site gates on
/// `is_x86_feature_detected!("avx512f")`. Pointer arithmetic stays within
/// the common prefix of the slices.
#[cfg(all(target_arch = "x86_64", feature = "simd-relaxed"))]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(acc: &mut [C64], a: C64, row: &[C64]) {
    use std::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_permute_pd, _mm512_set1_pd, _mm512_setr_pd,
        _mm512_storeu_pd,
    };
    let n = acc.len().min(row.len());
    let a_re = _mm512_set1_pd(a.re);
    let a_im = _mm512_setr_pd(-a.im, a.im, -a.im, a.im, -a.im, a.im, -a.im, a.im);
    // SAFETY: see `axpy_avx` — offsets stay within the common prefix.
    let ap = acc.as_mut_ptr().cast::<f64>();
    let rp = row.as_ptr().cast::<f64>();
    let mut i = 0;
    while i + 4 <= n {
        let r = _mm512_loadu_pd(rp.add(2 * i));
        let rs = _mm512_permute_pd(r, 0b0101_0101);
        let o = _mm512_loadu_pd(ap.add(2 * i));
        let step1 = _mm512_fmadd_pd(rs, a_im, o);
        _mm512_storeu_pd(ap.add(2 * i), _mm512_fmadd_pd(r, a_re, step1));
        i += 4;
    }
    if i < n {
        // The 256-bit FMA path computes the identical contraction.
        // SAFETY: AVX-512F implies AVX2+FMA.
        unsafe { axpy_fma(&mut acc[i..n], a, &row[i..n]) };
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn awkward(len: usize, salt: usize) -> Vec<C64> {
        // Awkward values (subnormals, signed zeros, large exponents).
        let vals = [
            C64::new(1.5, -2.25),
            C64::new(-0.0, 0.0),
            C64::new(1e-308, -1e308),
            C64::new(std::f64::consts::PI, -1e-12),
            C64::new(-3.5e5, 7.25),
        ];
        (0..len).map(|i| vals[(i + salt) % vals.len()]).collect()
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        // The dispatcher must agree with the compiled-in scalar reference in
        // *both* numerics modes: strict SIMD mirrors the unfused sequence,
        // relaxed SIMD mirrors the `mul_add` contraction. Lengths cover the
        // 512-bit, 256-bit, and scalar-tail paths.
        for len in 0..=11 {
            let row = awkward(len, 0);
            let a = C64::new(0.123456789, -9.87);
            let mut got = awkward(len, 2);
            let mut want = got.clone();
            axpy(&mut got, a, &row);
            axpy_scalar(&mut want, a, &row);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.re.to_bits(), w.re.to_bits(), "len {len}");
                assert_eq!(g.im.to_bits(), w.im.to_bits(), "len {len}");
            }
        }
    }

    /// Values the fused kernels must carry exactly like the generic path:
    /// signed zeros, subnormals, infinities, NaN and ordinary numbers.
    pub(crate) fn special(len: usize, salt: usize) -> Vec<C64> {
        let vals = [
            C64::new(-0.0, 0.0),
            C64::new(0.0, -0.0),
            C64::new(-0.0, -0.0),
            C64::new(5e-324, -2.5e-310),
            C64::new(f64::INFINITY, 1.0),
            C64::new(-0.75, f64::NEG_INFINITY),
            C64::new(f64::NAN, 0.5),
            C64::new(1.5, -2.25),
            C64::new(std::f64::consts::PI, 1e-12),
            C64::new(-3.5e5, -0.0),
            C64::new(1e308, 1e-308),
        ];
        (0..len)
            .map(|i| vals[(i * 7 + salt) % vals.len()])
            .collect()
    }

    /// Bit equality, except that any NaN matches any NaN: Rust leaves the
    /// payload of a NaN result unspecified, so only its NaN-ness is part of
    /// the contract.
    pub(crate) fn same(g: C64, w: C64) -> bool {
        let eq = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        eq(g.re, w.re) && eq(g.im, w.im)
    }

    #[test]
    fn mix2_matches_fill_and_axpy_bitwise() {
        for len in [0usize, 1, 2, 3, 16, 17] {
            for salt in 0..11 {
                let (r0, r1) = (special(len, salt), special(len, salt + 3));
                let m = [
                    [special(1, salt + 5)[0], C64::new(0.6, -1.75)],
                    [C64::ONE, special(1, salt + 8)[0]],
                ];
                let (mut o0, mut o1) = (special(len, 1), special(len, 2));
                mix2(&mut o0, &mut o1, m, &r0, &r1);
                for (o, c) in [(&o0, m[0]), (&o1, m[1])] {
                    let mut want = special(len, 4);
                    want.fill(C64::ZERO);
                    axpy(&mut want, c[0], &r0);
                    axpy(&mut want, c[1], &r1);
                    for (j, (&g, &w)) in o.iter().zip(&want).enumerate() {
                        assert!(same(g, w), "len {len} salt {salt} j {j}: {g:?} vs {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn mul_into_matches_fill_and_axpy_bitwise() {
        for len in [0usize, 1, 2, 5, 16] {
            for salt in 0..11 {
                let r = special(len, salt);
                for c in [C64::ONE, C64::new(0.0, -1.0), special(1, salt + 2)[0]] {
                    let mut got = special(len, 6);
                    mul_into(&mut got, c, &r);
                    let mut want = vec![C64::ZERO; len];
                    axpy(&mut want, c, &r);
                    for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        assert!(same(g, w), "len {len} c {c:?} j {j}: {g:?} vs {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn mul_into_by_one_is_not_a_copy() {
        // 1·(−0, −0) accumulated onto +0 is (+0, +0): a raw copy would keep
        // the signs.
        for len in [1usize, 2, 3] {
            let mut o = vec![C64::ONE; len];
            mul_into(&mut o, C64::ONE, &vec![C64::new(-0.0, -0.0); len]);
            for z in o {
                assert_eq!(z.re.to_bits(), 0.0f64.to_bits(), "len {len}");
                assert_eq!(z.im.to_bits(), 0.0f64.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn dot2x4_matches_scalar_chains() {
        for len in [0usize, 1, 2, 7, 16] {
            for salt in 0..11 {
                let w: Vec<Vec<C64>> = (0..4).map(|k| special(len, salt + k)).collect();
                let s0: Vec<Vec<C64>> = (0..4).map(|k| special(len, salt + 4 + k)).collect();
                let s1: Vec<Vec<C64>> = (0..4).map(|k| awkward(len, salt + k)).collect();
                let got = dot2x4(
                    std::array::from_fn(|k| &w[k][..]),
                    std::array::from_fn(|k| &s0[k][..]),
                    std::array::from_fn(|k| &s1[k][..]),
                );
                for k in 0..4 {
                    let mut want = [C64::ZERO; 2];
                    for j in 0..len {
                        want[0] = mla_step(want[0], w[k][j], s0[k][j]);
                        want[1] = mla_step(want[1], w[k][j], s1[k][j]);
                    }
                    for x in 0..2 {
                        assert!(same(got[k][x], want[x]), "len {len} salt {salt} row {k}");
                    }
                }
            }
        }
        // Rows of unequal length each keep their own common prefix.
        let (a, b) = (awkward(5, 0), awkward(3, 1));
        let (w, s0, s1) = (
            [&a[..], &b, &a, &a],
            [&a[..], &a, &b, &a],
            [&a[..], &a, &a, &b],
        );
        let got = dot2x4(w, s0, s1);
        for k in 0..4 {
            let n = w[k].len().min(s0[k].len()).min(s1[k].len());
            let mut want = [C64::ZERO; 2];
            for j in 0..n {
                want[0] = mla_step(want[0], w[k][j], s0[k][j]);
                want[1] = mla_step(want[1], w[k][j], s1[k][j]);
            }
            assert!(
                same(got[k][0], want[0]) && same(got[k][1], want[1]),
                "row {k}"
            );
        }
    }

    #[test]
    fn dtrace3_matches_scalar_chains() {
        for dim in [2usize, 4, 8, 16] {
            for shift in 0..dim.trailing_zeros() as usize {
                for salt in 0..11 {
                    let q = special(2 * dim, salt);
                    let flat = special(12, salt + 5);
                    let dg: [[[C64; 2]; 2]; 3] = std::array::from_fn(|k| {
                        std::array::from_fn(|x| std::array::from_fn(|y| flat[k * 4 + x * 2 + y]))
                    });
                    let got = dtrace3(&dg, &q, shift);
                    for (k, d) in dg.iter().enumerate() {
                        let mut want = C64::ZERO;
                        for i in 0..dim {
                            for x in 0..2 {
                                want = mla_step(want, d[x][(i >> shift) & 1], q[2 * i + x]);
                            }
                        }
                        assert!(
                            same(got[k], want),
                            "dim {dim} shift {shift} salt {salt} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn numerics_mode_matches_build() {
        if cfg!(feature = "simd-relaxed") {
            assert_eq!(NUMERICS_MODE, "relaxed-fma");
        } else {
            assert_eq!(NUMERICS_MODE, "strict");
        }
    }

    /// Relaxed mode must track the strict (unfused) result to a tight
    /// relative tolerance: each contraction skips one rounding, so a single
    /// multiply-accumulate differs by well under 1 ulp of the exact value.
    #[cfg(feature = "simd-relaxed")]
    #[test]
    fn relaxed_stays_within_tolerance_of_strict() {
        // Strict reference computed inline (this build's mla_step is the
        // relaxed contraction).
        fn strict_step(acc: C64, a: C64, r: C64) -> C64 {
            acc + a * r
        }
        // Moderate magnitudes: the awkward() extremes overflow to ±inf in
        // both modes, where a relative comparison is meaningless.
        let gen = |salt: usize| -> Vec<C64> {
            (0..64)
                .map(|i| {
                    let k = (i * 37 + salt * 11) % 97;
                    C64::new(0.05 * k as f64 - 2.4, 1.7 - 0.03 * k as f64)
                })
                .collect()
        };
        let row = gen(0);
        let a = C64::new(0.8, -1.3);
        let mut got = gen(2);
        let mut want = got.clone();
        axpy(&mut got, a, &row);
        for (w, &r) in want.iter_mut().zip(&row) {
            *w = strict_step(*w, a, r);
        }
        for (g, w) in got.iter().zip(&want) {
            let scale = w.norm_sqr().sqrt().max(1e-300);
            assert!(
                (*g - *w).norm_sqr().sqrt() / scale < 1e-14,
                "relaxed {g:?} vs strict {w:?}"
            );
        }
    }
}
