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
//! [`LocalOp`] applies one operator to one [`Matrix`], from the left or the
//! right — the general kernels (and [`UnitaryBuilder`]'s). The synthesis
//! sweeps of `qsynth::cost` do not run these: they run the whole-matrix
//! kernels of [`crate::simd::Kernels`], one AVX check per evaluation, whose
//! tests pin them to `LocalOp` bit for bit at every placement up to
//! `n = 4`.
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
//! Every scalar accumulation routes through the same [`crate::simd`]
//! multiply-accumulate step the vector paths implement (unfused, never
//! FMA), so scalar and vector paths agree bit for bit.

use crate::{Matrix, C64};

/// Maximum local operator width (qubits); the gate set is 1- and 2-qubit.
const MAX_K: usize = 2;
/// Local dimension bound (`2^MAX_K`).
const MAX_L: usize = 1 << MAX_K;
/// The largest lane count `qsynth::cost`'s batch API
/// (`HsCost::batch_workspace`) accepts. No kernel takes lanes: that API is
/// a loop over lanes through the one-lane evaluation, kept only for the
/// `batch8` kernel microbenchmarks.
pub const MAX_BATCH: usize = 8;

/// The placement of `k` local qubits within an `n`-qubit register: scattered
/// offsets, their sorting permutation, and the group-index expansion.
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
    /// Qubit placement.
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
                        // Coefficient in the first operand slot, as in
                        // every other kernel.
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
}
