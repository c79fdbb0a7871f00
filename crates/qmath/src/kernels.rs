//! In-place local gate-application kernels.
//!
//! The synthesis hot loop multiplies a `2^n × 2^n` matrix by an embedded
//! 1- or 2-qubit operator tens of thousands of times per block. Materializing
//! the embedded `2^n × 2^n` gate (via `qcircuit::embed`) and calling
//! [`Matrix::matmul`] costs an allocation plus a dense triple loop per gate;
//! a *local* operator only ever mixes `2^k` rows (left multiplication) or
//! `2^k` columns (right multiplication) whose indices differ on the gate's
//! qubit bits, so the same product is a bit-strided sweep with no scratch
//! matrix at all.
//!
//! Two kernel families share one placement decode:
//!
//! * [`LocalOp`] applies one operator to one [`Matrix`], from the left or
//!   the right — the general kernels (and [`UnitaryBuilder`]'s).
//! * [`RowOp`] is what the synthesis sweeps of `qsynth::cost` run: one
//!   start at a time, one lane (threads, `parallel_width`, are spent by
//!   the callers). It left-multiplies a flat row-major buffer
//!   row by row, optionally by the operator's transpose (so a sweep that
//!   stores its matrices transposed multiplies from the right), with fused
//!   kernels per operator shape: [`crate::simd::mix2`] for a free 1-qubit
//!   gate, [`crate::simd::mul_into`] for a fixed row with one nonzero.
//!
//! # Bit-exactness contract
//!
//! These kernels are drop-in replacements for `embed(...)` + `matmul` on the
//! *values* level, not just up to rounding: for every output entry they
//! accumulate exactly the same nonzero terms in exactly the same order,
//! starting from `+0.0`, as [`Matrix::matmul`]'s `i-k-j` loop does on the
//! embedded matrix. The only permitted deviations are terms that are exact
//! complex zeros (skipped or included freely — adding `±0.0` to a running sum
//! can only affect the *sign* of an exactly-zero result, never the value of a
//! nonzero one). Every nonzero output is therefore bit-identical; exact-zero
//! outputs may differ in sign only, which `C64`'s `==` (IEEE semantics,
//! `-0.0 == +0.0`) treats as equal. Property tests in `qcircuit` pin this
//! equivalence against the embed-then-matmul reference for every qubit
//! placement up to `n = 4`.
//!
//! The ordering argument in one line: `matmul` accumulates output entry
//! `(i, j)` over `k` ascending, and the embedded gate's nonzero columns `k`
//! within row `i` are `base | soff[x]` for the *sorted* scattered offsets
//! `soff`, so iterating local indices through the sorting permutation visits
//! `k` in ascending order.
//!
//! A [`RowOp`] with a free (parameterized) matrix never skips an entry, so
//! its term set does not depend on the parameter values; a fixed one skips
//! exactly the entries [`LocalOp`] skips. Both kernels agree bit-for-bit in
//! both numerics modes because every scalar accumulation routes through the
//! same [`crate::simd`] multiply-accumulate step the vector paths implement
//! (strict unfused by default, FMA-contracted under `simd-relaxed`).

use crate::{Matrix, C64};

/// Maximum local operator width (qubits); the gate set is 1- and 2-qubit.
const MAX_K: usize = 2;
/// Local dimension bound (`2^MAX_K`).
const MAX_L: usize = 1 << MAX_K;
/// The largest lane count `qsynth::cost`'s batch API
/// (`HsCost::batch_workspace`) accepts. No kernel here takes lanes: that
/// API is a loop over lanes through the one-lane [`RowOp`] path, kept only
/// for the `batch8` kernel microbenchmarks.
pub const MAX_BATCH: usize = 8;

/// The placement of `k` local qubits within an `n`-qubit register: scattered
/// offsets, their sorting permutation, and the group-index expansion. Shared
/// by [`LocalOp`] and [`RowOp`] so the decode is computed (and tested)
/// once.
#[derive(Clone, Copy, Debug)]
struct Placement {
    /// Number of local qubits (1 or 2).
    k: usize,
    /// Local dimension `2^k`.
    l: usize,
    /// Full dimension `2^n`.
    dim: usize,
    /// Scattered offsets of the local basis states, sorted ascending
    /// (`soff[0] == 0`).
    soff: [usize; MAX_L],
    /// Sorting permutation: `soff[x]` is the scatter of local index
    /// `perm[x]`.
    perm: [usize; MAX_L],
    /// Active bit positions (LSB-based), sorted ascending — used to expand a
    /// group index into a base index with zeros on the active bits.
    pos: [usize; MAX_K],
}

impl Placement {
    /// Computes the placement for `qubits` of an `n`-qubit register.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len()` is not 1 or 2, if a qubit is out of range,
    /// or if qubits repeat.
    fn new(qubits: &[usize], n: usize) -> Self {
        let k = qubits.len();
        assert!(
            (1..=MAX_K).contains(&k),
            "local operators act on 1 or 2 qubits, got {k}"
        );
        let l = 1usize << k;
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < n, "qubit {q} out of range for {n} qubits");
            assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
        }

        // Scatter each local basis index through the qubit bit positions.
        let mut off = [0usize; MAX_L];
        for (sub, o) in off.iter_mut().enumerate().take(l) {
            for (bit, &q) in qubits.iter().enumerate() {
                if (sub >> (k - 1 - bit)) & 1 == 1 {
                    *o |= 1 << (n - 1 - q);
                }
            }
        }
        let mut perm = [0usize; MAX_L];
        for (x, p) in perm.iter_mut().enumerate() {
            *p = x;
        }
        perm[..l].sort_by_key(|&x| off[x]);
        let mut soff = [0usize; MAX_L];
        for x in 0..l {
            soff[x] = off[perm[x]];
        }
        let mut pos = [0usize; MAX_K];
        for (i, p) in pos.iter_mut().enumerate().take(k) {
            *p = n - 1 - qubits[i];
        }
        pos[..k].sort_unstable();

        Placement {
            k,
            l,
            dim: 1usize << n,
            soff,
            perm,
            pos,
        }
    }

    /// Expands a group index into a base index with zeros inserted at the
    /// active bit positions.
    #[inline]
    fn base(&self, g: usize) -> usize {
        let mut base = g;
        for &p in &self.pos[..self.k] {
            base = ((base >> p) << (p + 1)) | (base & ((1 << p) - 1));
        }
        base
    }
}

/// A `2^k × 2^k` operator bound to `k` qubit positions of an `n`-qubit
/// register, prepared for strided application.
///
/// The placement (offsets, sorting permutation, group expansion) is computed
/// once per operator; [`LocalOp::from_local`] builds one from a fixed
/// array without allocating.
///
/// ```
/// use qmath::{kernels::LocalOp, C64, Matrix};
///
/// let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
/// let op = LocalOp::new(&x, &[1], 2); // X on qubit 1 of 2
/// let mut u = Matrix::identity(4);
/// op.apply_left_inplace(&mut u);
/// assert_eq!(u[(0, 1)], C64::ONE);
/// assert_eq!(u[(1, 0)], C64::ONE);
/// ```
#[derive(Clone, Debug)]
pub struct LocalOp {
    /// Qubit placement shared with [`RowOp`].
    pl: Placement,
    /// Local matrix conjugated by the sorting permutation:
    /// `mm[x][y] = m[perm[x]][perm[y]]`.
    mm: [[C64; MAX_L]; MAX_L],
}

impl LocalOp {
    /// Prepares `m` (a `2^k × 2^k` matrix, `k = qubits.len() ∈ {1, 2}`)
    /// acting on the ordered qubit list `qubits` of an `n`-qubit register.
    ///
    /// `qubits[0]` is the most significant bit of the local index, matching
    /// `qcircuit::embed`'s big-endian convention (qubit `q` lives at bit
    /// `n - 1 - q`).
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len()` is not 1 or 2, if `m` is not
    /// `2^k × 2^k`, if a qubit is out of range, or if qubits repeat.
    pub fn new(m: &Matrix, qubits: &[usize], n: usize) -> Self {
        let mut op = LocalOp {
            pl: Placement::new(qubits, n),
            mm: [[C64::ZERO; MAX_L]; MAX_L],
        };
        op.set_matrix(m);
        op
    }

    /// Prepares a 1- or 2-qubit operator given as a [`LocalMatrix`] array —
    /// no `Matrix` allocation on either side.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len()` does not match the matrix width, if a qubit
    /// is out of range, or if qubits repeat.
    pub fn from_local(m: &LocalMatrix, qubits: &[usize], n: usize) -> Self {
        let pl = Placement::new(qubits, n);
        let width = match m {
            LocalMatrix::One(_) => 2,
            LocalMatrix::Two(_) => 4,
        };
        assert_eq!(pl.l, width, "matrix width does not match the qubit count");
        let entry = |i: usize, j: usize| match m {
            LocalMatrix::One(a) => a[i][j],
            LocalMatrix::Two(a) => a[i][j],
        };
        let mut mm = [[C64::ZERO; MAX_L]; MAX_L];
        for (row, &px) in mm.iter_mut().zip(&pl.perm).take(pl.l) {
            for (e, &py) in row.iter_mut().zip(&pl.perm).take(pl.l) {
                *e = entry(px, py);
            }
        }
        LocalOp { pl, mm }
    }

    /// Replaces the local matrix, keeping the placement. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `2^k × 2^k`.
    pub fn set_matrix(&mut self, m: &Matrix) {
        assert_eq!(
            (m.rows(), m.cols()),
            (self.pl.l, self.pl.l),
            "size mismatch"
        );
        for x in 0..self.pl.l {
            for y in 0..self.pl.l {
                self.mm[x][y] = m[(self.pl.perm[x], self.pl.perm[y])];
            }
        }
    }

    /// Full-space dimension `2^n` the operator is prepared for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.pl.dim
    }

    /// `dst = op · src` (left multiplication by the embedded operator).
    ///
    /// `src` may have any column count (the full unitary case is
    /// `cols == 2^n`); only its row count must be `2^n`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply_left_into(&self, src: &Matrix, dst: &mut Matrix) {
        assert_eq!(src.rows(), self.pl.dim, "row count must be 2^n");
        assert_eq!((dst.rows(), dst.cols()), (src.rows(), src.cols()));
        let cols = src.cols();
        let s = src.as_slice();
        let d = dst.as_mut_slice();
        for g in 0..(self.pl.dim >> self.pl.k) {
            let base = self.pl.base(g);
            for x in 0..self.pl.l {
                let di = (base | self.pl.soff[x]) * cols;
                d[di..di + cols].fill(C64::ZERO);
                for y in 0..self.pl.l {
                    let c = self.mm[x][y];
                    if c == C64::ZERO {
                        continue;
                    }
                    let si = (base | self.pl.soff[y]) * cols;
                    // Split-free: src and dst are distinct buffers.
                    crate::simd::axpy(&mut d[di..di + cols], c, &s[si..si + cols]);
                }
            }
        }
    }

    /// `a ← op · a` in place, mixing the `2^k` rows of each group through
    /// per-element temporaries (no scratch matrix).
    ///
    /// # Panics
    ///
    /// Panics if `a` does not have `2^n` rows.
    pub fn apply_left_inplace(&self, a: &mut Matrix) {
        assert_eq!(a.rows(), self.pl.dim, "row count must be 2^n");
        let cols = a.cols();
        let data = a.as_mut_slice();
        for g in 0..(self.pl.dim >> self.pl.k) {
            let base = self.pl.base(g);
            let mut rs = [0usize; MAX_L];
            for (r, &soff) in rs.iter_mut().zip(&self.pl.soff).take(self.pl.l) {
                *r = (base | soff) * cols;
            }
            for j in 0..cols {
                let mut v = [C64::ZERO; MAX_L];
                for (vy, &r) in v.iter_mut().zip(&rs).take(self.pl.l) {
                    *vy = data[r + j];
                }
                for x in 0..self.pl.l {
                    let mut acc = C64::ZERO;
                    for (&c, &vy) in self.mm[x].iter().zip(&v).take(self.pl.l) {
                        if c == C64::ZERO {
                            continue;
                        }
                        acc = crate::simd::mla_step(acc, c, vy);
                    }
                    data[rs[x] + j] = acc;
                }
            }
        }
    }

    /// `dst = src · op` (right multiplication by the embedded operator).
    ///
    /// `src` may have any row count; only its column count must be `2^n`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply_right_into(&self, src: &Matrix, dst: &mut Matrix) {
        assert_eq!(src.cols(), self.pl.dim, "column count must be 2^n");
        assert_eq!((dst.rows(), dst.cols()), (src.rows(), src.cols()));
        let cols = src.cols();
        let s = src.as_slice();
        let d = dst.as_mut_slice();
        for i in 0..src.rows() {
            let srow = &s[i * cols..(i + 1) * cols];
            let drow = &mut d[i * cols..(i + 1) * cols];
            for g in 0..(self.pl.dim >> self.pl.k) {
                let base = self.pl.base(g);
                let mut v = [C64::ZERO; MAX_L];
                for x in 0..self.pl.l {
                    v[x] = srow[base | self.pl.soff[x]];
                }
                for y in 0..self.pl.l {
                    let mut acc = C64::ZERO;
                    for (mrow, &vx) in self.mm.iter().zip(&v).take(self.pl.l) {
                        let c = mrow[y];
                        if c == C64::ZERO {
                            continue;
                        }
                        // Coefficient in the first operand slot: the relaxed
                        // FMA contraction is not operand-symmetric, and the
                        // row kernels put the gate entry there too.
                        acc = crate::simd::mla_step(acc, c, vx);
                    }
                    drow[base | self.pl.soff[y]] = acc;
                }
            }
        }
    }
}

/// A gate's local matrix as a fixed array: the allocation-free currency of
/// [`UnitaryBuilder`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LocalMatrix {
    /// A one-qubit operator.
    One([[C64; 2]; 2]),
    /// A two-qubit operator, its first qubit the most significant bit of
    /// the local index.
    Two([[C64; 4]; 4]),
}

impl LocalMatrix {
    /// The same operator as a [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        match self {
            LocalMatrix::One(m) => Matrix::from_rows(&[&m[0], &m[1]]),
            LocalMatrix::Two(m) => Matrix::from_rows(&[&m[0], &m[1], &m[2], &m[3]]),
        }
    }
}

/// The dense `2^n × 2^n` unitary of a gate list, built by applying each
/// gate from the left to the identity.
///
/// Every gate goes through [`LocalOp::apply_left_into`] (one SIMD axpy per
/// nonzero local entry and output row) between two ping-pong buffers, and
/// gate matrices arrive as [`LocalMatrix`] arrays, so a build allocates the
/// two buffers and nothing per gate. There is no gate fusion and no
/// permutation shortcut: each output entry accumulates exactly the terms
/// [`LocalOp::apply_left_inplace`] accumulates, in the same order from
/// `+0.0`, so the result is bit-identical to it — signs of zeros included
/// — and therefore to the embed-then-matmul reference the kernel contract
/// names.
///
/// ```
/// use qmath::kernels::{LocalMatrix, UnitaryBuilder};
/// use qmath::C64;
///
/// let (o, l) = (C64::ZERO, C64::ONE);
/// let mut b = UnitaryBuilder::new(2);
/// b.apply(&LocalMatrix::One([[o, l], [l, o]]), &[1]); // X on qubit 1
/// let u = b.finish();
/// assert_eq!(u[(1, 0)], l);
/// assert_eq!(u[(0, 1)], l);
/// ```
#[derive(Clone, Debug)]
pub struct UnitaryBuilder {
    n: usize,
    /// The product so far.
    cur: Matrix,
    /// Scratch the next gate writes into before the buffers swap.
    next: Matrix,
}

impl UnitaryBuilder {
    /// Starts from the `n`-qubit identity.
    pub fn new(n: usize) -> Self {
        let dim = 1usize << n;
        UnitaryBuilder {
            n,
            cur: Matrix::identity(dim),
            next: Matrix::zeros(dim, dim),
        }
    }

    /// Left-multiplies the product by `m` acting on `qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` does not match `m`'s width, if a qubit is out of
    /// range, or if qubits repeat.
    pub fn apply(&mut self, m: &LocalMatrix, qubits: &[usize]) {
        LocalOp::from_local(m, qubits, self.n).apply_left_into(&self.cur, &mut self.next);
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// The finished unitary.
    pub fn finish(self) -> Matrix {
        self.cur
    }
}

/// A local operator prepared for the synthesis sweeps: row-based left
/// multiplication of a flat row-major `2^n × 2^n` buffer, one fused kernel
/// per operator shape.
///
/// Two flavors share the struct:
///
/// * **Fixed** ([`RowOp::fixed`]): a constant matrix (CNOTs). Zero entries
///   are skipped exactly as [`LocalOp`] skips them, and a row with a single
///   nonzero coefficient (every row of a CNOT) is one scaled pass
///   ([`crate::simd::mul_into`]).
/// * **Free** ([`RowOp::free_1q`] + [`RowOp::set_1q`]): a 1-qubit matrix
///   refilled per evaluation (parameterized `U3`s). Its entries are data,
///   so none is skipped: each row pair is mixed in one pass
///   ([`crate::simd::mix2`]).
///
/// The matrix and placement are fixed-size arrays; applying an operator
/// performs zero heap allocations.
#[derive(Clone, Debug)]
pub struct RowOp {
    /// Qubit placement (identical decode to [`LocalOp`]).
    pl: Placement,
    /// Whether `mm` is a constant (zero entries skipped) or refilled per
    /// evaluation by [`RowOp::set_1q`].
    fixed: bool,
    /// The local matrix, permuted like [`LocalOp::mm`].
    mm: [[C64; MAX_L]; MAX_L],
    /// For a fixed operator, the position of the only nonzero entry of
    /// each local row (`sole[0][x]`) and column (`sole[1][x]`, the
    /// transposed orientation's rows), when there is exactly one. `None`
    /// everywhere for free operators.
    sole: [[Option<usize>; MAX_L]; 2],
}

impl RowOp {
    /// Prepares a constant operator (e.g. a CNOT), with the same
    /// conventions as [`LocalOp::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LocalOp::new`].
    pub fn fixed(m: &Matrix, qubits: &[usize], n: usize) -> Self {
        let LocalOp { pl, mm } = LocalOp::new(m, qubits, n);
        let sole_of = |entries: [C64; MAX_L]| {
            let mut nonzero = (0..pl.l).filter(|&y| entries[y] != C64::ZERO);
            match (nonzero.next(), nonzero.next()) {
                (Some(y), None) => Some(y),
                _ => None,
            }
        };
        let sole = [
            std::array::from_fn(|x| sole_of(mm[x])),
            std::array::from_fn(|x| sole_of(std::array::from_fn(|y| mm[y][x]))),
        ];
        RowOp {
            pl,
            fixed: true,
            mm,
            sole,
        }
    }

    /// Prepares a free 1-qubit operator with a zeroed matrix; fill it with
    /// [`RowOp::set_1q`] before applying.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    pub fn free_1q(qubit: usize, n: usize) -> Self {
        RowOp {
            pl: Placement::new(&[qubit], n),
            fixed: false,
            mm: [[C64::ZERO; MAX_L]; MAX_L],
            sole: [[None; MAX_L]; 2],
        }
    }

    /// Replaces the matrix of a free operator — the allocation-free refill
    /// path for parameterized `U3`s.
    ///
    /// # Panics
    ///
    /// Panics if the operator is fixed.
    #[inline]
    pub fn set_1q(&mut self, m: &[[C64; 2]; 2]) {
        assert!(!self.fixed, "set_1q needs a free operator");
        for x in 0..2 {
            for y in 0..2 {
                self.mm[x][y] = m[self.pl.perm[x]][self.pl.perm[y]];
            }
        }
    }

    /// Full-space dimension `2^n` the operator is prepared for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.pl.dim
    }

    /// `dst = op · src` (left multiplication), row-based: each output row
    /// of a row-major `2^n × 2^n` buffer is one contiguous slice, and a
    /// local left multiplication only mixes the `2^k` whole rows of each
    /// group. A free operator mixes each row pair with
    /// [`crate::simd::mix2`]; a fixed one writes each row in one
    /// [`crate::simd::mul_into`] pass when it has a single nonzero
    /// coefficient, else as a zero-fill and one [`crate::simd::axpy`] per
    /// nonzero. The buffers must be distinct.
    ///
    /// Each output element accumulates the same terms as
    /// [`LocalOp::apply_left_into`] on the same matrix (`y` ascending,
    /// coefficient in the first operand slot) from `+0.0`. A fixed operator
    /// skips exactly its zero entries, so it is bit-identical to
    /// `LocalOp`; a free one includes every entry, so an exact-zero
    /// coefficient can change only the sign of an exact-zero output.
    ///
    /// # Panics
    ///
    /// Panics if either buffer is not `dim²` long.
    pub fn apply_left_into(&self, src: &[C64], dst: &mut [C64]) {
        self.rows_into(src, dst, false);
    }

    /// `dst = opᵀ · src` — left multiplication by the *transpose* of the
    /// embedded operator (embedding commutes with transposition, so this
    /// transposes the `2^k × 2^k` local matrix and keeps the placement).
    ///
    /// This is how a right multiplication stays row-based: for buffers
    /// stored transposed, `(A · op)ᵀ = opᵀ · Aᵀ`, so a sweep that keeps its
    /// matrices transposed multiplies from the right with this kernel.
    /// Each output element accumulates the same terms in the same order as
    /// [`LocalOp::apply_right_into`] on the untransposed matrix (the
    /// transposed sweep's ascending `y` *is* the right kernel's ascending
    /// `x`), with the same zero-entry rule as
    /// [`RowOp::apply_left_into`].
    ///
    /// # Panics
    ///
    /// Panics if either buffer is not `dim²` long.
    pub fn apply_left_transposed_into(&self, src: &[C64], dst: &mut [C64]) {
        self.rows_into(src, dst, true);
    }

    /// Shared body of the row kernels; `transposed` swaps the local-matrix
    /// index order.
    fn rows_into(&self, src: &[C64], dst: &mut [C64], transposed: bool) {
        let dim = self.pl.dim;
        assert_eq!(src.len(), dim * dim, "buffer size mismatch");
        assert_eq!(dst.len(), src.len(), "buffer size mismatch");
        if self.fixed {
            for g in 0..(dim >> self.pl.k) {
                let base = self.pl.base(g);
                for x in 0..self.pl.l {
                    let di = (base | self.pl.soff[x]) * dim;
                    self.fixed_row_into(&mut dst[di..di + dim], src, base, x, transposed);
                }
            }
            return;
        }
        let m = std::array::from_fn(|x| {
            std::array::from_fn(|y| {
                if transposed {
                    self.mm[y][x]
                } else {
                    self.mm[x][y]
                }
            })
        });
        for g in 0..(dim >> self.pl.k) {
            // Free operators are 1-qubit: rows `base` (soff[0] = 0) and
            // `base | soff[1]`, the latter the higher.
            let base = self.pl.base(g);
            let hi = base | self.pl.soff[1];
            let (d_lo, d_hi) = dst.split_at_mut(hi * dim);
            crate::simd::mix2(
                &mut d_lo[base * dim..(base + 1) * dim],
                &mut d_hi[..dim],
                m,
                &src[base * dim..(base + 1) * dim],
                &src[hi * dim..(hi + 1) * dim],
            );
        }
    }

    /// Output row `x` of group `base` of a fixed operator. A row with a
    /// single nonzero coefficient (every row of a CNOT) is one scaled pass
    /// ([`crate::simd::mul_into`], bit-identical to the zero-fill and one
    /// [`crate::simd::axpy`]); any other row is zero-filled, then takes one
    /// `axpy` per nonzero coefficient, `y` ascending.
    #[inline(always)]
    fn fixed_row_into(
        &self,
        out: &mut [C64],
        src: &[C64],
        base: usize,
        x: usize,
        transposed: bool,
    ) {
        let row = out.len();
        let coeff = |y: usize| {
            if transposed {
                self.mm[y][x]
            } else {
                self.mm[x][y]
            }
        };
        if let Some(y) = self.sole[usize::from(transposed)][x] {
            let si = (base | self.pl.soff[y]) * row;
            crate::simd::mul_into(out, coeff(y), &src[si..si + row]);
            return;
        }
        out.fill(C64::ZERO);
        for y in 0..self.pl.l {
            let c = coeff(y);
            if c == C64::ZERO {
                continue;
            }
            let si = (base | self.pl.soff[y]) * row;
            crate::simd::axpy(out, c, &src[si..si + row]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_gate() -> Matrix {
        Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    fn cnot_gate() -> Matrix {
        let mut m = Matrix::zeros(4, 4);
        m[(0, 0)] = C64::ONE;
        m[(1, 1)] = C64::ONE;
        m[(2, 3)] = C64::ONE;
        m[(3, 2)] = C64::ONE;
        m
    }

    #[test]
    fn one_qubit_left_apply_matches_kron() {
        // X on qubit 0 of 2 is X ⊗ I.
        let op = LocalOp::new(&x_gate(), &[0], 2);
        let mut u = Matrix::identity(4);
        op.apply_left_inplace(&mut u);
        let expect = x_gate().kron(&Matrix::identity(2));
        assert_eq!(u, expect);
    }

    #[test]
    fn cnot_reversed_qubits_swaps_roles() {
        // Control on qubit 1: |01⟩ ↔ |11⟩ (indices 1 and 3).
        let op = LocalOp::new(&cnot_gate(), &[1, 0], 2);
        let mut u = Matrix::identity(4);
        op.apply_left_inplace(&mut u);
        assert_eq!(u[(3, 1)], C64::ONE);
        assert_eq!(u[(1, 3)], C64::ONE);
        assert_eq!(u[(0, 0)], C64::ONE);
        assert_eq!(u[(2, 2)], C64::ONE);
    }

    #[test]
    fn left_into_and_inplace_agree() {
        let m = Matrix::from_rows(&[
            &[C64::new(0.3, 0.1), C64::new(-0.2, 0.9)],
            &[C64::new(0.5, -0.4), C64::new(0.8, 0.2)],
        ]);
        let op = LocalOp::new(&m, &[1], 3);
        let src = Matrix::from_fn(8, 8, |i, j| C64::new(i as f64 + 0.25, j as f64 - 3.5));
        let mut dst = Matrix::zeros(8, 8);
        op.apply_left_into(&src, &mut dst);
        let mut inplace = src.clone();
        op.apply_left_inplace(&mut inplace);
        assert_eq!(dst, inplace);
    }

    #[test]
    fn right_apply_of_identity_is_identity() {
        let op = LocalOp::new(&cnot_gate(), &[0, 2], 3);
        let src = Matrix::from_fn(8, 8, |i, j| C64::new((i * 8 + j) as f64, 0.5));
        let mut dst = Matrix::zeros(8, 8);
        let id_op = LocalOp::new(&Matrix::identity(4), &[0, 2], 3);
        id_op.apply_right_into(&src, &mut dst);
        assert_eq!(dst, src);
        // And CNOT right-application permutes columns.
        op.apply_right_into(&src, &mut dst);
        for i in 0..8 {
            assert_eq!(dst[(i, 5)], src[(i, 4)]);
            assert_eq!(dst[(i, 4)], src[(i, 5)]);
            assert_eq!(dst[(i, 0)], src[(i, 0)]);
        }
    }

    #[test]
    fn from_local_matches_matrix_construction() {
        let one = [
            [C64::new(0.1, 0.2), C64::new(0.3, -0.1)],
            [C64::new(-0.7, 0.0), C64::new(0.0, 1.0)],
        ];
        let two = std::array::from_fn(|i| {
            std::array::from_fn(|j| C64::new(0.3 * i as f64 - 0.1, 0.2 * j as f64))
        });
        let src = Matrix::from_fn(16, 16, |i, j| C64::new(i as f64 * 0.5, j as f64 * 0.25));
        for (m, qubits) in [
            (LocalMatrix::One(one), &[2][..]),
            (LocalMatrix::Two(two), &[3, 1][..]),
        ] {
            let (mut a, mut b) = (Matrix::zeros(16, 16), Matrix::zeros(16, 16));
            LocalOp::from_local(&m, qubits, 4).apply_left_into(&src, &mut a);
            LocalOp::new(&m.to_matrix(), qubits, 4).apply_left_into(&src, &mut b);
            assert_eq!(a, b, "{qubits:?}");
        }
    }

    #[test]
    #[should_panic(expected = "1 or 2 qubits")]
    fn three_qubit_operator_panics() {
        let _ = LocalOp::new(&Matrix::identity(8), &[0, 1, 2], 3);
    }

    // ---- row kernels ----

    /// A deterministic dense matrix (entries vary by `salt`).
    fn dense(dim: usize, salt: usize) -> Matrix {
        Matrix::from_fn(dim, dim, |i, j| {
            C64::new(
                0.37 * (i as f64 + 1.0) - 0.11 * j as f64 + 0.05 * salt as f64,
                0.23 * j as f64 - 0.4 * i as f64 - 0.07 * salt as f64,
            )
        })
    }

    /// A deterministic 1-qubit gate with no zero entry.
    fn gate_1q(salt: usize) -> [[C64; 2]; 2] {
        let t = 0.3 + 0.21 * salt as f64;
        [
            [C64::new(t.cos(), 0.1 * t), C64::new(-t.sin(), 0.2)],
            [C64::new(t.sin(), -0.15), C64::new(t.cos(), 0.05 * t)],
        ]
    }

    fn assert_bitwise(got: &[C64], want: &[C64], what: &str) {
        for (e, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.re.to_bits(), w.re.to_bits(), "{what} e {e}");
            assert_eq!(g.im.to_bits(), w.im.to_bits(), "{what} e {e}");
        }
    }

    /// Fixed and free row operators next to the [`LocalOp`] of the same
    /// matrix, at every placement on three qubits.
    fn row_and_local_ops() -> Vec<(String, RowOp, LocalOp)> {
        let n = 3;
        let mut ops = Vec::new();
        for q in 0..n {
            let mut free = RowOp::free_1q(q, n);
            free.set_1q(&gate_1q(q));
            let local = LocalOp::from_local(&LocalMatrix::One(gate_1q(q)), &[q], n);
            ops.push((format!("free q{q}"), free, local));
            for p in (0..n).filter(|&p| p != q) {
                ops.push((
                    format!("cnot q{q},{p}"),
                    RowOp::fixed(&cnot_gate(), &[q, p], n),
                    LocalOp::new(&cnot_gate(), &[q, p], n),
                ));
            }
        }
        ops
    }

    #[test]
    fn row_left_into_matches_local_op_bitwise() {
        for (name, row_op, local) in row_and_local_ops() {
            let dim = row_op.dim();
            let src = dense(dim, 1);
            let mut want = src.clone();
            local.apply_left_inplace(&mut want);
            let mut got = vec![C64::ZERO; dim * dim];
            row_op.apply_left_into(src.as_slice(), &mut got);
            assert_bitwise(&got, want.as_slice(), &name);
        }
    }

    #[test]
    fn transposed_left_on_transposed_matrix_matches_right_into_bitwise() {
        // The transposed-sweep identity: (A·op)ᵀ = opᵀ·Aᵀ, element for
        // element and bit for bit. This is what lets the suffix sweep stay
        // row-based.
        for (name, row_op, local) in row_and_local_ops() {
            let dim = row_op.dim();
            let src = dense(dim, 3);
            let mut want = Matrix::zeros(dim, dim);
            local.apply_right_into(&src, &mut want);
            let mut got_t = vec![C64::ZERO; dim * dim];
            row_op.apply_left_transposed_into(src.transpose().as_slice(), &mut got_t);
            assert_bitwise(&got_t, want.transpose().as_slice(), &name);
        }
    }

    /// The reference the fused kernels must match: each output row
    /// zero-filled, then one `axpy` per coefficient, `y` ascending (a fixed
    /// operator skips zeros).
    fn generic_rows(op: &RowOp, src: &[C64], transposed: bool) -> Vec<C64> {
        let dim = op.pl.dim;
        let mut dst = vec![C64::ZERO; src.len()];
        for g in 0..(dim >> op.pl.k) {
            let base = op.pl.base(g);
            for x in 0..op.pl.l {
                let di = (base | op.pl.soff[x]) * dim;
                let out = &mut dst[di..di + dim];
                out.fill(C64::ZERO);
                for y in 0..op.pl.l {
                    let coeff = if transposed { op.mm[y][x] } else { op.mm[x][y] };
                    if op.fixed && coeff == C64::ZERO {
                        continue;
                    }
                    let si = (base | op.pl.soff[y]) * dim;
                    crate::simd::axpy(out, coeff, &src[si..si + dim]);
                }
            }
        }
        dst
    }

    /// Every operator shape the row kernels dispatch on, at every 1- and
    /// 2-qubit placement of up to four qubits: free 1-qubit gates (fused
    /// row pairs), permutation gates (single-coefficient rows) and fixed
    /// gates with rows of one and of several nonzeros.
    fn fused_cases() -> Vec<(String, RowOp)> {
        use crate::simd::tests::special;
        let (o, l, i) = (C64::ZERO, C64::ONE, C64::new(0.0, 1.0));
        let v = special(16, 2);
        let mut cases = Vec::new();
        for n in 1..=4usize {
            for q in 0..n {
                for salt in [0usize, 4, 8] {
                    let mut op = RowOp::free_1q(q, n);
                    let e = special(4, salt);
                    op.set_1q(&[[e[0], e[1]], [e[2], e[3]]]);
                    cases.push((format!("u3 q{q} n{n} salt {salt}"), op));
                }
                let one_zero = Matrix::from_rows(&[&[v[0], o], &[v[1], v[7]]]);
                let x = Matrix::from_rows(&[&[o, i], &[l, o]]);
                for (name, m) in [("one-zero", one_zero), ("x", x)] {
                    cases.push((format!("{name} q{q} n{n}"), RowOp::fixed(&m, &[q], n)));
                }
                for p in (0..n).filter(|&p| p != q) {
                    let mut sparse = cnot_gate();
                    sparse[(0, 1)] = v[4];
                    sparse[(3, 0)] = v[6];
                    let mut perm = Matrix::zeros(4, 4);
                    for (r, c) in [(0, 2), (1, 0), (2, 3), (3, 1)] {
                        perm[(r, c)] = v[r + 7];
                    }
                    for (name, m) in [("cnot", cnot_gate()), ("sparse", sparse), ("perm", perm)] {
                        cases.push((
                            format!("{name} q{q},{p} n{n}"),
                            RowOp::fixed(&m, &[q, p], n),
                        ));
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn fused_row_kernels_match_generic_rows_bitwise() {
        use crate::simd::tests::{same, special};
        for (name, op) in fused_cases() {
            let dim = op.dim();
            for transposed in [false, true] {
                let src = special(dim * dim, dim);
                let want = generic_rows(&op, &src, transposed);
                // Garbage in the output must be overwritten everywhere.
                let mut got = special(src.len(), 5);
                if transposed {
                    op.apply_left_transposed_into(&src, &mut got);
                } else {
                    op.apply_left_into(&src, &mut got);
                }
                for (e, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        same(g, w),
                        "{name} transposed {transposed} e {e}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn wrong_buffer_size_panics() {
        let op = RowOp::fixed(&cnot_gate(), &[0, 1], 2);
        op.apply_left_into(&[C64::ZERO; 16], &mut [C64::ZERO; 8]);
    }
}
