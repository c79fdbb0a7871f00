//! Vectorized complex multiply-accumulate kernels for the dense hot loops.
//!
//! [`axpy`] — `acc[j] += a · row[j]` with a *broadcast* coefficient — is
//! the inner operation of [`crate::Matrix::matmul_into`] and
//! [`crate::kernels::LocalOp`]. The synthesis evaluation of
//! `qsynth::cost` runs the whole-matrix kernels of [`Kernels`] instead: a
//! 1-qubit gate over all row pairs, a CNOT through its row map, the reduced
//! `Q` of a `U3` and its three derivative traces.
//!
//! # One AVX check per evaluation; whole-matrix kernels
//!
//! [`Kernels`] has two implementations, [`Avx`] and [`Scalar`]. A caller
//! writes its sweep once, generic over [`Kernels`], checks for AVX once per
//! evaluation ([`Avx::detect`]) and runs the `Avx` instantiation inside one
//! `#[target_feature(enable = "avx")]` function, which the kernels may
//! inline into: no kernel re-checks the CPU, and each gate's coefficients
//! are broadcast once per gate, not once per row. The `Scalar`
//! instantiation, built from the same multiply-accumulate step, is the
//! portable fallback (and the one Miri runs).
//!
//! # Bit-exactness
//!
//! Each output element is an independent accumulation chain, so running
//! elements in SIMD lanes cannot reassociate any floating-point sum — only
//! the per-element operation sequence matters. The AVX bodies issue the
//! exact scalar sequence per lane (`mul`, `mul`, `addsub`, `add` — never
//! FMA) with the coefficient in the first operand slot, so every kernel is
//! **bit-identical** in both implementations, and to the zero-fill and
//! [`axpy`] row sequence it replaces. Callers never need to know which path
//! ran, on any machine.

use crate::C64;

/// `acc[j] += a * row[j]` over the common prefix of the two slices.
#[inline]
pub fn axpy(acc: &mut [C64], a: C64, row: &[C64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if acc.len().min(row.len()) >= 2 && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just checked.
            unsafe { axpy_avx(acc, a, row) };
            return;
        }
    }
    axpy_scalar(acc, a, row);
}

/// The whole-matrix kernels of one synthesis evaluation, in one instruction
/// set. Matrices are flat row-major `dim × dim` buffers; `dim` is a power
/// of two and every `bit` is a power of two below it (the bit of a qubit's
/// index, `2^(n−1−q)` for qubit `q`).
///
/// Each kernel keeps the per-element operation sequence and operand order
/// of the generic path it replaces, so [`Avx`] and [`Scalar`] agree bit for
/// bit, signs of zeros and NaN-ness included.
pub trait Kernels: Copy + std::fmt::Debug {
    /// `dst = G · src` for the 1-qubit gate `m` on the qubit at `bit`: for
    /// every row pair `(r, r | bit)`, `r & bit == 0`, and column `j`,
    ///
    /// ```text
    /// dst[r | x·bit][j] = (0 + m[x][0]·src[r][j]) + m[x][1]·src[r | bit][j]
    /// ```
    ///
    /// — equal bit for bit to zero-filling each output row and running one
    /// [`axpy`] per coefficient (none skipped: a gate's entries are data).
    /// The `0 +` turns a `−0.0` product into `+0.0`, as the zero-filled
    /// accumulator does. Pass the transposed `m` for `dst = Gᵀ · src`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `bit` is not as above or a buffer is not `dim²`
    /// long.
    fn gate_1q(self, dim: usize, bit: usize, m: [[C64; 2]; 2], src: &[C64], dst: &mut [C64]);

    /// `dst = CNOT · src` for the control at `cbit` and the target at
    /// `tbit`: row `i` of `dst` is `0 + 1·r` for the source row
    /// `r = src[i ^ tbit]` when `i & cbit != 0` and `src[i]` otherwise. A
    /// CNOT is its own transpose, so this is also `dst = CNOTᵀ · src`.
    ///
    /// This is deliberately *not* a copy: the product `1·r` is
    /// `(1·r.re − 0·r.im, 1·r.im + 0·r.re)`, which turns `−0.0` into `+0.0`
    /// and `±inf` into NaN in the other component, exactly as the zero-fill
    /// and one [`axpy`] by `1` do.
    ///
    /// # Panics
    ///
    /// Panics if `dim`, `cbit` or `tbit` is not as above or a buffer is not
    /// `dim²` long.
    fn cnot(self, dim: usize, cbit: usize, tbit: usize, src: &[C64], dst: &mut [C64]);

    /// The reduced `Q = W · S` of a `U3` on the qubit at `bit`, given `W`
    /// and `S` **transposed** (`s_t`): the two entries per row a 1-qubit
    /// derivative trace reads,
    ///
    /// ```text
    /// q[2i + x] = Σ_j w[i][j] · s_t[(i & !bit) | x·bit][j]
    /// ```
    ///
    /// each sum accumulated in ascending `j` from `+0.0` (`w` in the first
    /// operand slot) — the term order of a dense `W · S` row product. Rows
    /// `i` and `i | bit` read the same two rows of `s_t`, so the kernel
    /// runs them as 2×2 blocks: each `s_t` load feeds both rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `bit` is not as above, `w` or `s_t` is not `dim²`
    /// long, or `q` is not `2·dim` long.
    fn reduced_q(self, dim: usize, bit: usize, w: &[C64], s_t: &[C64], q: &mut [C64]);

    /// The three derivative traces of a 1-qubit gate on the qubit at `bit`
    /// against a reduced matrix (the layout [`Kernels::reduced_q`] writes):
    /// entry `k` of the result is
    ///
    /// ```text
    /// Σ_i Σ_x dg[k][x][y_i] · q[2i + x],   y_i = 1 if i & bit != 0 else 0
    /// ```
    ///
    /// over `i < q.len() / 2`, each sum accumulated in ascending `(i, x)`
    /// order from `+0.0` (the `dg` entry in the first operand slot). With
    /// `q[2i + x] = Q[i, (i & !bit) | x·bit]`, entry `k` is `Tr(Q · ∂G_k)`.
    /// The three chains are independent, so they run side by side.
    fn dtrace3(self, dg: &[[[C64; 2]; 2]; 3], q: &[C64], bit: usize) -> [C64; 3];
}

/// The portable [`Kernels`]: plain loops over the scalar
/// multiply-accumulate step.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scalar;

impl Kernels for Scalar {
    #[inline]
    fn gate_1q(self, dim: usize, bit: usize, m: [[C64; 2]; 2], src: &[C64], dst: &mut [C64]) {
        check_square(dim, bit, src.len(), dst.len());
        for g in 0..dim / 2 {
            let r = pair_base(g, bit);
            let (lo, hi) = (r * dim, (r | bit) * dim);
            for j in 0..dim {
                let (a, b) = (src[lo + j], src[hi + j]);
                dst[lo + j] = mla_step(mla_step(C64::ZERO, m[0][0], a), m[0][1], b);
                dst[hi + j] = mla_step(mla_step(C64::ZERO, m[1][0], a), m[1][1], b);
            }
        }
    }

    #[inline]
    fn cnot(self, dim: usize, cbit: usize, tbit: usize, src: &[C64], dst: &mut [C64]) {
        check_square(dim, cbit, src.len(), dst.len());
        check_square(dim, tbit, src.len(), dst.len());
        for i in 0..dim {
            let s = cnot_source(i, cbit, tbit);
            for j in 0..dim {
                dst[i * dim + j] = mla_step(C64::ZERO, C64::ONE, src[s * dim + j]);
            }
        }
    }

    #[inline]
    fn reduced_q(self, dim: usize, bit: usize, w: &[C64], s_t: &[C64], q: &mut [C64]) {
        check_reduced(dim, bit, w, s_t, q);
        for i in 0..dim {
            for x in 0..2 {
                let c = (i & !bit) | (x * bit);
                let mut acc = C64::ZERO;
                for j in 0..dim {
                    acc = mla_step(acc, w[i * dim + j], s_t[c * dim + j]);
                }
                q[2 * i + x] = acc;
            }
        }
    }

    #[inline]
    fn dtrace3(self, dg: &[[[C64; 2]; 2]; 3], q: &[C64], bit: usize) -> [C64; 3] {
        let mut acc = [C64::ZERO; 3];
        for (i, qi) in q.chunks_exact(2).enumerate() {
            let y = usize::from(i & bit != 0);
            for (x, &qx) in qi.iter().enumerate() {
                for (a, d) in acc.iter_mut().zip(dg) {
                    *a = mla_step(*a, d[x][y], qx);
                }
            }
        }
        acc
    }
}

/// The AVX [`Kernels`], and proof that this CPU runs AVX: a value exists
/// only where [`Avx::detect`] found the feature, so its kernels are safe to
/// call. They are `#[target_feature(enable = "avx")]` functions marked
/// `#[inline]`: called from a caller's own AVX function, they can inline
/// into it.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx(());

#[cfg(target_arch = "x86_64")]
impl Avx {
    /// The token, when this CPU supports AVX (the one feature check a
    /// caller makes per evaluation).
    #[inline]
    pub fn detect() -> Option<Self> {
        std::arch::is_x86_feature_detected!("avx").then_some(Avx(()))
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernels for Avx {
    #[inline(always)]
    fn gate_1q(self, dim: usize, bit: usize, m: [[C64; 2]; 2], src: &[C64], dst: &mut [C64]) {
        // SAFETY: an `Avx` exists only where AVX was detected.
        unsafe { gate_1q_avx(dim, bit, m, src, dst) }
    }

    #[inline(always)]
    fn cnot(self, dim: usize, cbit: usize, tbit: usize, src: &[C64], dst: &mut [C64]) {
        // SAFETY: an `Avx` exists only where AVX was detected.
        unsafe { cnot_avx(dim, cbit, tbit, src, dst) }
    }

    #[inline(always)]
    fn reduced_q(self, dim: usize, bit: usize, w: &[C64], s_t: &[C64], q: &mut [C64]) {
        // SAFETY: an `Avx` exists only where AVX was detected.
        unsafe { reduced_q_avx(dim, bit, w, s_t, q) }
    }

    #[inline(always)]
    fn dtrace3(self, dg: &[[[C64; 2]; 2]; 3], q: &[C64], bit: usize) -> [C64; 3] {
        // SAFETY: an `Avx` exists only where AVX was detected.
        unsafe { dtrace3_avx(dg, q, bit) }
    }
}

/// One complex multiply-accumulate `acc + a·r` — the exact scalar step
/// every kernel chain is built from (coefficient `a` in the first operand
/// slot). Public so downstream code can keep accumulators in registers
/// while staying bit-identical to the [`axpy`] chains.
#[inline]
pub fn mla1(acc: C64, a: C64, r: C64) -> C64 {
    mla_step(acc, a, r)
}

/// One unfused multiply-accumulate step, the sequence the AVX bodies issue
/// per lane.
#[inline]
pub(crate) fn mla_step(acc: C64, a: C64, r: C64) -> C64 {
    acc + a * r
}

#[inline]
fn axpy_scalar(acc: &mut [C64], a: C64, row: &[C64]) {
    for (o, &r) in acc.iter_mut().zip(row) {
        *o = mla_step(*o, a, r);
    }
}

/// Row pair `g < dim / 2` of a 1-qubit gate on `bit`: its first row, `g`
/// with a zero bit inserted at `bit` (so `g` ascending visits the rows
/// `r & bit == 0` ascending).
#[inline]
fn pair_base(g: usize, bit: usize) -> usize {
    ((g & !(bit - 1)) << 1) | (g & (bit - 1))
}

/// The source row of output row `i` of a CNOT.
#[inline]
fn cnot_source(i: usize, cbit: usize, tbit: usize) -> usize {
    if i & cbit != 0 {
        i ^ tbit
    } else {
        i
    }
}

/// What the whole-matrix kernels' indexing relies on: `dim` a power of
/// two, `bit` a power of two below it, both buffers `dim²` long.
#[inline]
fn check_square(dim: usize, bit: usize, src: usize, dst: usize) {
    assert!(
        dim.is_power_of_two() && bit.is_power_of_two() && bit < dim,
        "bit {bit} is not a qubit bit of dimension {dim}"
    );
    assert!(src == dim * dim && dst == dim * dim, "buffer size mismatch");
}

#[inline]
fn check_reduced(dim: usize, bit: usize, w: &[C64], s_t: &[C64], q: &[C64]) {
    check_square(dim, bit, w.len(), s_t.len());
    assert_eq!(q.len(), 2 * dim, "buffer size mismatch");
}

/// AVX body of [`Kernels::gate_1q`]: the gate's eight coefficient
/// broadcasts happen once; then per pair of complexes the two source rows
/// are loaded and swapped once, and each output is
/// `add(add(0, addsub(mul(a, c0.re), mul(a', c0.im))), addsub(mul(b, c1.re),
/// mul(b', c1.im)))` — [`axpy_avx`]'s operation sequence and operand order,
/// twice, with the accumulator held in a register.
///
/// # Safety
///
/// The caller must guarantee AVX support. Every offset stays in bounds by
/// the [`check_square`] at the top.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn gate_1q_avx(dim: usize, bit: usize, m: [[C64; 2]; 2], src: &[C64], dst: &mut [C64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    check_square(dim, bit, src.len(), dst.len());
    let zero = _mm256_setzero_pd();
    // c[x][y] = (m[x][y].re, m[x][y].im), each broadcast to all four slots.
    let mut c = [[(zero, zero); 2]; 2];
    for x in 0..2 {
        for y in 0..2 {
            c[x][y] = (_mm256_set1_pd(m[x][y].re), _mm256_set1_pd(m[x][y].im));
        }
    }
    // C64 is `repr(C)` with two f64 fields: row `r` is the f64s
    // `2·r·dim .. 2·(r + 1)·dim`, and `dim` is even, so each row is whole
    // pairs of complexes.
    let (sp, dp) = (src.as_ptr().cast::<f64>(), dst.as_mut_ptr().cast::<f64>());
    for g in 0..dim / 2 {
        let r = pair_base(g, bit);
        let rows = [2 * r * dim, 2 * (r | bit) * dim];
        for j in (0..2 * dim).step_by(4) {
            // SAFETY: `r | bit < dim`, so both rows' `j .. j + 4` lie within
            // the `2·dim²` f64s of `src` and `dst`.
            unsafe {
                let a = _mm256_loadu_pd(sp.add(rows[0] + j));
                let b = _mm256_loadu_pd(sp.add(rows[1] + j));
                let a_s = _mm256_permute_pd(a, 0b0101);
                let b_s = _mm256_permute_pd(b, 0b0101);
                for (x, &row) in rows.iter().enumerate() {
                    let ((c0_re, c0_im), (c1_re, c1_im)) = (c[x][0], c[x][1]);
                    let pa = _mm256_addsub_pd(_mm256_mul_pd(a, c0_re), _mm256_mul_pd(a_s, c0_im));
                    let pb = _mm256_addsub_pd(_mm256_mul_pd(b, c1_re), _mm256_mul_pd(b_s, c1_im));
                    _mm256_storeu_pd(dp.add(row + j), _mm256_add_pd(_mm256_add_pd(zero, pa), pb));
                }
            }
        }
    }
}

/// AVX body of [`Kernels::cnot`]: [`axpy_avx`]'s sequence by the
/// coefficient `1 + 0i`, with a zero register in place of the loaded
/// accumulator, one whole row at a time through the row map.
///
/// # Safety
///
/// The caller must guarantee AVX support. Every offset stays in bounds by
/// the [`check_square`]s at the top.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn cnot_avx(dim: usize, cbit: usize, tbit: usize, src: &[C64], dst: &mut [C64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    check_square(dim, cbit, src.len(), dst.len());
    check_square(dim, tbit, src.len(), dst.len());
    let (c_re, c_im) = (_mm256_set1_pd(C64::ONE.re), _mm256_set1_pd(C64::ONE.im));
    let zero = _mm256_setzero_pd();
    let (sp, dp) = (src.as_ptr().cast::<f64>(), dst.as_mut_ptr().cast::<f64>());
    for i in 0..dim {
        let (s, d) = (2 * cnot_source(i, cbit, tbit) * dim, 2 * i * dim);
        for j in (0..2 * dim).step_by(4) {
            // SAFETY: rows `i` and `i ^ tbit` are below `dim`, so both
            // rows' `j .. j + 4` lie within the `2·dim²` f64s of each buffer.
            unsafe {
                let v = _mm256_loadu_pd(sp.add(s + j));
                let vs = _mm256_permute_pd(v, 0b0101);
                let prod = _mm256_addsub_pd(_mm256_mul_pd(v, c_re), _mm256_mul_pd(vs, c_im));
                _mm256_storeu_pd(dp.add(d + j), _mm256_add_pd(zero, prod));
            }
        }
    }
}

/// AVX body of [`Kernels::reduced_q`]: a 2×2 block (rows `i` and
/// `i | bit` against `s_t` rows `i` and `i | bit`) keeps its four chains in
/// two 256-bit accumulators, row `i`'s `[q0, q1]` in one; two blocks run
/// side by side, so four accumulators are in flight. Each step loads the
/// two `s_t` entries once for both rows, broadcasts each row's `w` entry
/// and issues [`axpy_avx`]'s unfused `mul`/`mul`/`addsub`/`add` sequence in
/// its operand order, so every chain is bit-identical to the scalar sum.
/// With `dim == 2` the one block runs twice and writes the same values.
///
/// # Safety
///
/// The caller must guarantee AVX support. Every offset stays in bounds by
/// the [`check_reduced`] at the top.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn reduced_q_avx(dim: usize, bit: usize, w: &[C64], s_t: &[C64], q: &mut [C64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_broadcast_sd, _mm256_loadu2_m128d, _mm256_mul_pd,
        _mm256_permute_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    check_reduced(dim, bit, w, s_t, q);
    let half = dim / 2;
    let (wp, sp, qp) = (
        w.as_ptr().cast::<f64>(),
        s_t.as_ptr().cast::<f64>(),
        q.as_mut_ptr().cast::<f64>(),
    );
    for g in (0..half).step_by(2) {
        let blocks = [pair_base(g, bit), pair_base((g + 1) % half, bit)];
        let mut acc = [[_mm256_setzero_pd(); 2]; 2];
        for j in 0..dim {
            for (acc_b, &r) in acc.iter_mut().zip(&blocks) {
                let (lo, hi) = (2 * (r * dim + j), 2 * ((r | bit) * dim + j));
                // SAFETY: rows `r` and `r | bit` are below `dim` and
                // `j < dim`, so each complex read lies within `w` and `s_t`.
                unsafe {
                    // s = [s_t[r][j], s_t[r | bit][j]] — chain x = 0 low,
                    // x = 1 high; both rows of the block read it.
                    let s = _mm256_loadu2_m128d(sp.add(hi), sp.add(lo));
                    let s_s = _mm256_permute_pd(s, 0b0101);
                    for (a, off) in acc_b.iter_mut().zip([lo, hi]) {
                        let w_re = _mm256_broadcast_sd(&*wp.add(off));
                        let w_im = _mm256_broadcast_sd(&*wp.add(off + 1));
                        let t = _mm256_addsub_pd(_mm256_mul_pd(s, w_re), _mm256_mul_pd(s_s, w_im));
                        *a = _mm256_add_pd(*a, t);
                    }
                }
            }
        }
        for (acc_b, &r) in acc.iter().zip(&blocks) {
            for (&a, row) in acc_b.iter().zip([r, r | bit]) {
                // SAFETY: `row < dim`, and `q` holds `2·dim` complexes.
                unsafe { _mm256_storeu_pd(qp.add(4 * row), a) };
            }
        }
    }
}

/// AVX body of [`Kernels::dtrace3`]: chains 0 and 1 share one 256-bit
/// accumulator, chain 2 rides in a 128-bit one. Each step duplicates the
/// `q` entry into both halves and issues [`axpy_avx`]'s unfused
/// `mul`/`mul`/`addsub`/`add` sequence in its operand order, so every chain
/// is bit-identical to the scalar sum.
///
/// # Safety
///
/// The caller must guarantee AVX support. Pointer arithmetic stays within
/// `q`'s whole pairs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn dtrace3_avx(dg: &[[[C64; 2]; 2]; 3], q: &[C64], bit: usize) -> [C64; 3] {
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
    let qp = q.as_ptr().cast::<f64>();
    for i in 0..q.len() / 2 {
        let y = usize::from(i & bit != 0);
        for (x, (c01x, c2x)) in c01.iter().zip(&c2).enumerate() {
            let (a01_re, a01_im) = c01x[y];
            let (a2_re, a2_im) = c2x[y];
            // SAFETY: C64 is `repr(C)` with two f64 fields, and
            // `2·(2i + x) + 1 < 2·q.len()` for every `i < q.len() / 2`.
            let p = unsafe { qp.add(2 * (2 * i + x)) };
            // r = [q, q]: both halves hold the same entry.
            // SAFETY: as above, `p .. p + 2` lies within `q`.
            let r = unsafe { _mm256_loadu2_m128d(p, p) };
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
    // SAFETY: `out` holds six f64s: four for the 256-bit store, two after.
    unsafe {
        _mm256_storeu_pd(op, acc01);
        _mm_storeu_pd(op.add(4), acc2);
    }
    out
}

/// AVX path of [`axpy`]: two complex numbers per 256-bit vector.
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
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn axpy_avx(acc: &mut [C64], a: C64, row: &[C64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd,
        _mm256_set1_pd, _mm256_storeu_pd,
    };
    let n = acc.len().min(row.len());
    let va_re = _mm256_set1_pd(a.re);
    let va_im = _mm256_set1_pd(a.im);
    let ap = acc.as_mut_ptr().cast::<f64>();
    let rp = row.as_ptr().cast::<f64>();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: C64 is `repr(C)` with two f64 fields, so a slice of n C64s
        // is exactly 2n contiguous f64s; `2i + 4 <= 2n`.
        unsafe {
            let r = _mm256_loadu_pd(rp.add(2 * i));
            let t1 = _mm256_mul_pd(r, va_re);
            // Swap re/im within each complex: (r.im, r.re).
            let rs = _mm256_permute_pd(r, 0b0101);
            let t2 = _mm256_mul_pd(rs, va_im);
            let prod = _mm256_addsub_pd(t1, t2);
            let o = _mm256_loadu_pd(ap.add(2 * i));
            _mm256_storeu_pd(ap.add(2 * i), _mm256_add_pd(o, prod));
        }
        i += 2;
    }
    if i < n {
        axpy_scalar(&mut acc[i..n], a, &row[i..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::LocalOp;
    use crate::Matrix;

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
        // The dispatcher must agree with the scalar reference. Lengths
        // cover the 256-bit and scalar-tail paths.
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

    /// Values the kernels must carry exactly like the generic path: signed
    /// zeros, subnormals, infinities, NaN and ordinary numbers.
    fn special(len: usize, salt: usize) -> Vec<C64> {
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
    fn same(g: C64, w: C64) -> bool {
        let eq = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        eq(g.re, w.re) && eq(g.im, w.im)
    }

    fn assert_same(got: &[C64], want: &[C64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (e, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(same(g, w), "{what} e {e}: {g:?} vs {w:?}");
        }
    }

    /// Runs the generic check `$check` on [`Scalar`], and on [`Avx`] where
    /// this CPU has it.
    macro_rules! on_each_kernels {
        ($check:ident) => {{
            $check(Scalar);
            #[cfg(target_arch = "x86_64")]
            if let Some(avx) = Avx::detect() {
                $check(avx);
            }
        }};
    }

    /// Every 1- and 2-qubit placement up to four qubits, as
    /// `(n, qubits, bits)` with qubit `q` at bit `2^(n−1−q)`.
    fn placements(width: usize) -> Vec<(usize, Vec<usize>, Vec<usize>)> {
        let mut out = Vec::new();
        for n in 1..=4usize {
            for q in 0..n {
                if width == 1 {
                    out.push((n, vec![q], vec![1 << (n - 1 - q)]));
                }
                for p in (0..n).filter(|&p| width == 2 && p != q) {
                    out.push((n, vec![q, p], vec![1 << (n - 1 - q), 1 << (n - 1 - p)]));
                }
            }
        }
        out
    }

    fn transpose(m: &[C64], dim: usize) -> Vec<C64> {
        (0..dim * dim)
            .map(|e| m[(e % dim) * dim + e / dim])
            .collect()
    }

    /// The row oracle of a 1-qubit gate: each output row zero-filled, then
    /// one `axpy` per coefficient, none skipped.
    fn gate_1q_rows(dim: usize, bit: usize, m: [[C64; 2]; 2], src: &[C64]) -> Vec<C64> {
        let mut dst = vec![C64::ZERO; src.len()];
        for r in (0..dim).filter(|r| r & bit == 0) {
            for (x, out) in [r, r | bit].into_iter().enumerate() {
                let out = &mut dst[out * dim..(out + 1) * dim];
                out.fill(C64::ZERO);
                for (y, s) in [r, r | bit].into_iter().enumerate() {
                    axpy(out, m[x][y], &src[s * dim..(s + 1) * dim]);
                }
            }
        }
        dst
    }

    fn cnot_matrix() -> Matrix {
        let mut m = Matrix::zeros(4, 4);
        for (r, c) in [(0, 0), (1, 1), (2, 3), (3, 2)] {
            m[(r, c)] = C64::ONE;
        }
        m
    }

    #[test]
    fn gate_1q_matches_zero_fill_and_axpy_rows_bitwise() {
        fn check<K: Kernels>(k: K) {
            for (n, qubits, bits) in placements(1) {
                let (dim, bit) = (1 << n, bits[0]);
                for salt in [0usize, 4, 8] {
                    let src = special(dim * dim, dim + salt);
                    let e = special(4, salt);
                    let m = [[e[0], e[1]], [e[2], e[3]]];
                    // Garbage in the output must be overwritten everywhere.
                    let mut got = special(dim * dim, 5);
                    k.gate_1q(dim, bit, m, &src, &mut got);
                    let what = format!("{k:?} q{qubits:?} n{n} salt {salt}");
                    assert_same(&got, &gate_1q_rows(dim, bit, m, &src), &what);
                }
            }
        }
        on_each_kernels!(check);
    }

    #[test]
    fn gate_1q_and_cnot_match_local_op_on_both_sides_bitwise() {
        // The same products as `LocalOp` from the left, and — on transposed
        // buffers, with the gate transposed — from the right: the identity
        // `(A·G)ᵀ = Gᵀ·Aᵀ` that keeps a suffix sweep row-based. Gate entries
        // are nonzero here, where `LocalOp` skips none either.
        fn check<K: Kernels>(k: K) {
            let m = [
                [C64::new(0.6, -0.8), C64::new(-1.5, 0.25)],
                [C64::new(1e-300, 3.0), C64::new(-2.0, -1e300)],
            ];
            let mt = [[m[0][0], m[1][0]], [m[0][1], m[1][1]]];
            let local_m = Matrix::from_rows(&[&m[0], &m[1]]);
            for width in [1, 2] {
                for (n, qubits, bits) in placements(width) {
                    let dim = 1 << n;
                    let src = Matrix::from_fn(dim, dim, |i, j| special(1, i * dim + j + n)[0]);
                    let op = if width == 1 {
                        LocalOp::new(&local_m, &qubits, n)
                    } else {
                        LocalOp::new(&cnot_matrix(), &qubits, n)
                    };
                    let (mut left, mut right) = (Matrix::zeros(dim, dim), Matrix::zeros(dim, dim));
                    op.apply_left_into(&src, &mut left);
                    op.apply_right_into(&src, &mut right);
                    let src_t = transpose(src.as_slice(), dim);
                    let (mut got, mut got_t) = (special(dim * dim, 1), special(dim * dim, 2));
                    if width == 1 {
                        k.gate_1q(dim, bits[0], m, src.as_slice(), &mut got);
                        k.gate_1q(dim, bits[0], mt, &src_t, &mut got_t);
                    } else {
                        k.cnot(dim, bits[0], bits[1], src.as_slice(), &mut got);
                        k.cnot(dim, bits[0], bits[1], &src_t, &mut got_t);
                    }
                    let what = format!("{k:?} q{qubits:?} n{n}");
                    assert_same(&got, left.as_slice(), &format!("{what} left"));
                    assert_same(
                        &got_t,
                        &transpose(right.as_slice(), dim),
                        &format!("{what} right"),
                    );
                }
            }
        }
        on_each_kernels!(check);
    }

    #[test]
    fn cnot_by_one_is_not_a_copy() {
        // 1·(−0, −0) accumulated onto +0 is (+0, +0): a raw copy would keep
        // the signs.
        fn check<K: Kernels>(k: K) {
            for dim in [4usize, 8] {
                let mut o = vec![C64::ONE; dim * dim];
                k.cnot(
                    dim,
                    dim / 2,
                    1,
                    &vec![C64::new(-0.0, -0.0); dim * dim],
                    &mut o,
                );
                for z in o {
                    assert_eq!(z.re.to_bits(), 0.0f64.to_bits(), "{k:?} dim {dim}");
                    assert_eq!(z.im.to_bits(), 0.0f64.to_bits(), "{k:?} dim {dim}");
                }
            }
        }
        on_each_kernels!(check);
    }

    #[test]
    fn reduced_q_matches_scalar_chains() {
        fn check<K: Kernels>(k: K) {
            for (n, _, bits) in placements(1) {
                let (dim, bit) = (1 << n, bits[0]);
                for salt in 0..11 {
                    let w = special(dim * dim, salt);
                    let s_t: Vec<C64> = special(dim * dim, salt + 4)
                        .into_iter()
                        .zip(awkward(dim * dim, salt))
                        .enumerate()
                        .map(|(e, (a, b))| if e % 3 == 0 { b } else { a })
                        .collect();
                    let mut got = special(2 * dim, 9);
                    k.reduced_q(dim, bit, &w, &s_t, &mut got);
                    let mut want = vec![C64::ZERO; 2 * dim];
                    for i in 0..dim {
                        for x in 0..2 {
                            let c = (i & !bit) | (x * bit);
                            for j in 0..dim {
                                want[2 * i + x] =
                                    mla_step(want[2 * i + x], w[i * dim + j], s_t[c * dim + j]);
                            }
                        }
                    }
                    assert_same(&got, &want, &format!("{k:?} n{n} bit {bit} salt {salt}"));
                }
            }
        }
        on_each_kernels!(check);
    }

    #[test]
    fn dtrace3_matches_scalar_chains() {
        fn check<K: Kernels>(k: K) {
            for dim in [2usize, 4, 8, 16] {
                for bit in (0..dim.trailing_zeros()).map(|s| 1usize << s) {
                    for salt in 0..11 {
                        let q = special(2 * dim, salt);
                        let flat = special(12, salt + 5);
                        let dg: [[[C64; 2]; 2]; 3] = std::array::from_fn(|k| {
                            std::array::from_fn(|x| {
                                std::array::from_fn(|y| flat[k * 4 + x * 2 + y])
                            })
                        });
                        let got = k.dtrace3(&dg, &q, bit);
                        for (c, d) in dg.iter().enumerate() {
                            let mut want = C64::ZERO;
                            for i in 0..dim {
                                for x in 0..2 {
                                    let y = usize::from(i & bit != 0);
                                    want = mla_step(want, d[x][y], q[2 * i + x]);
                                }
                            }
                            assert!(
                                same(got[c], want),
                                "{k:?} dim {dim} bit {bit} salt {salt} chain {c}"
                            );
                        }
                    }
                }
            }
        }
        on_each_kernels!(check);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn short_buffer_panics() {
        fn run<K: Kernels>(k: K) {
            k.gate_1q(
                4,
                2,
                [[C64::ONE; 2]; 2],
                &[C64::ZERO; 16],
                &mut [C64::ZERO; 8],
            );
        }
        // The AVX check must fire before any unchecked access.
        #[cfg(target_arch = "x86_64")]
        if let Some(avx) = Avx::detect() {
            run(avx);
        }
        run(Scalar);
    }

    #[test]
    #[should_panic(expected = "is not a qubit bit")]
    fn bit_outside_the_dimension_panics() {
        fn run<K: Kernels>(k: K) {
            k.cnot(4, 4, 1, &[C64::ZERO; 16], &mut [C64::ZERO; 16]);
        }
        // The AVX check must fire before any unchecked access.
        #[cfg(target_arch = "x86_64")]
        if let Some(avx) = Avx::detect() {
            run(avx);
        }
        run(Scalar);
    }
}
