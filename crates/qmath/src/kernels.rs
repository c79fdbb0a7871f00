//! In-place local gate-application kernels, serial and batched.
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
//! * [`LocalOp`] applies one operator to one matrix — the serial kernels
//!   introduced in PR 3.
//! * [`BatchedLocalOp`] applies up to [`MAX_BATCH`] operators (one per
//!   *lane*, e.g. one per optimizer start) to a structure-of-arrays stack of
//!   matrices in a single traversal. Lane `b` of element `(i, j)` lives at
//!   `(i·dim + j)·lanes + b`, so the innermost dimension is the lane index
//!   and every accumulation step is a contiguous SIMD-width block
//!   ([`crate::simd::vmla`]). Gate placement is decoded once per group
//!   instead of once per lane per group.
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
//! # Batched bit-exactness contract
//!
//! Lanes are fully independent accumulation chains: for every lane `b` and
//! every batch width `lanes ∈ 1..=MAX_BATCH`, a [`BatchedLocalOp`]
//! application produces results bit-identical to applying lane `b`'s
//! operator to lane `b`'s matrix alone (`lanes = 1`). Per-lane operators
//! never skip data-dependent zero entries (a skip decided by one lane's
//! value would have to apply to all lanes); shared operators skip exactly
//! the entries [`LocalOp`] skips, which are identical across lanes. Both
//! are covered by the per-contract argument above: only exact-zero terms
//! are ever included or omitted differently.
//!
//! The serial and batched kernels agree bit-for-bit in both numerics modes
//! because every scalar accumulation routes through the same
//! [`crate::simd`] multiply-accumulate step the vector paths implement
//! (strict unfused by default, FMA-contracted under `simd-relaxed`).

use crate::{Matrix, C64};

/// Maximum local operator width (qubits); the gate set is 1- and 2-qubit.
const MAX_K: usize = 2;
/// Local dimension bound (`2^MAX_K`).
const MAX_L: usize = 1 << MAX_K;
/// Maximum number of SoA lanes a [`BatchedLocalOp`] can carry — sized so
/// per-group scratch (`MAX_L · MAX_BATCH` complexes) stays a small stack
/// array and one lane block fills an AVX-512 register file comfortably.
pub const MAX_BATCH: usize = 8;

/// The placement of `k` local qubits within an `n`-qubit register: scattered
/// offsets, their sorting permutation, and the group-index expansion. Shared
/// by the serial and batched kernels so the decode is computed (and tested)
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
    /// Qubit placement shared with the batched kernels.
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
                        // batched kernels put the gate entry there too.
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

/// A local operator applied across up to [`MAX_BATCH`] SoA lanes in one
/// traversal.
///
/// Two flavors share the struct:
///
/// * **Shared** ([`BatchedLocalOp::shared`]): one matrix for every lane
///   (fixed gates — CNOTs). Zero entries are skipped exactly as the serial
///   kernel skips them.
/// * **Per-lane** ([`BatchedLocalOp::per_lane_1q`] +
///   [`BatchedLocalOp::set_lane_1q`]): each lane carries its own 1-qubit
///   matrix (parameterized `U3`s, one optimizer start per lane). Entries are
///   stored entry-major × lane-minor so the coefficient of entry `(x, y)`
///   for all lanes is one contiguous block fed to [`crate::simd::vmla`].
///
/// Matrices and scratch are fixed-size arrays; applying an operator performs
/// zero heap allocations at any batch width.
#[derive(Clone, Debug)]
pub struct BatchedLocalOp {
    /// Qubit placement (identical decode to the serial kernel).
    pl: Placement,
    /// Whether all lanes share `shared_mm` (fixed gate) or each lane has its
    /// own slice of `lane_mm`.
    is_shared: bool,
    /// The shared matrix, permuted like [`LocalOp::mm`]. Unused (zero) for
    /// per-lane operators.
    shared_mm: [[C64; MAX_L]; MAX_L],
    /// Per-lane matrices: entry `(x, y)` of lane `b` at
    /// `(x·MAX_L + y)·MAX_BATCH + b`. Unused (zero) for shared operators.
    lane_mm: [C64; MAX_L * MAX_L * MAX_BATCH],
    /// For a shared operator, the position of the only nonzero entry of
    /// each local row (`sole[0][x]`) and column (`sole[1][x]`, the
    /// transposed orientation's rows), when there is exactly one. `None`
    /// everywhere for per-lane operators.
    sole: [[Option<usize>; MAX_L]; 2],
}

impl BatchedLocalOp {
    /// Prepares a fixed operator shared by every lane (e.g. a CNOT), with
    /// the same conventions as [`LocalOp::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LocalOp::new`].
    pub fn shared(m: &Matrix, qubits: &[usize], n: usize) -> Self {
        let pl = Placement::new(qubits, n);
        assert_eq!((m.rows(), m.cols()), (pl.l, pl.l), "size mismatch");
        let mut shared_mm = [[C64::ZERO; MAX_L]; MAX_L];
        for x in 0..pl.l {
            for y in 0..pl.l {
                shared_mm[x][y] = m[(pl.perm[x], pl.perm[y])];
            }
        }
        let sole_of = |entries: [C64; MAX_L]| {
            let mut nonzero = (0..pl.l).filter(|&y| entries[y] != C64::ZERO);
            match (nonzero.next(), nonzero.next()) {
                (Some(y), None) => Some(y),
                _ => None,
            }
        };
        let sole = [
            std::array::from_fn(|x| sole_of(shared_mm[x])),
            std::array::from_fn(|x| sole_of(std::array::from_fn(|y| shared_mm[y][x]))),
        ];
        BatchedLocalOp {
            pl,
            is_shared: true,
            shared_mm,
            lane_mm: [C64::ZERO; MAX_L * MAX_L * MAX_BATCH],
            sole,
        }
    }

    /// Prepares a per-lane 1-qubit operator with zeroed matrices; fill each
    /// lane with [`BatchedLocalOp::set_lane_1q`] before applying.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    pub fn per_lane_1q(qubit: usize, n: usize) -> Self {
        BatchedLocalOp {
            pl: Placement::new(&[qubit], n),
            is_shared: false,
            shared_mm: [[C64::ZERO; MAX_L]; MAX_L],
            lane_mm: [C64::ZERO; MAX_L * MAX_L * MAX_BATCH],
            sole: [[None; MAX_L]; 2],
        }
    }

    /// Replaces lane `lane`'s local matrix — the allocation-free per-lane
    /// refill path for parameterized `U3`s.
    ///
    /// # Panics
    ///
    /// Panics if the operator is shared, not 1-qubit, or `lane` is out of
    /// range.
    #[inline]
    pub fn set_lane_1q(&mut self, lane: usize, m: &[[C64; 2]; 2]) {
        assert!(!self.is_shared, "set_lane_1q needs a per-lane operator");
        assert_eq!(self.pl.k, 1, "set_lane_1q needs a 1-qubit operator");
        assert!(lane < MAX_BATCH, "lane {lane} out of range");
        for x in 0..2 {
            for y in 0..2 {
                self.lane_mm[(x * MAX_L + y) * MAX_BATCH + lane] =
                    m[self.pl.perm[x]][self.pl.perm[y]];
            }
        }
    }

    /// Full-space dimension `2^n` the operator is prepared for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.pl.dim
    }

    /// The coefficient block of entry `(x, y)` across the first `lanes`
    /// lanes of a per-lane operator.
    #[inline]
    fn lane_block(&self, x: usize, y: usize, lanes: usize) -> &[C64] {
        let e = (x * MAX_L + y) * MAX_BATCH;
        &self.lane_mm[e..e + lanes]
    }

    /// `a ← op · a` for every lane in place. `a` is a lane-major SoA stack:
    /// `a[(i·dim + j)·lanes + b]` is entry `(i, j)` of lane `b`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`MAX_BATCH`], or if `a` is not
    /// exactly `dim²·lanes` long.
    pub fn apply_left_inplace(&self, a: &mut [C64], lanes: usize) {
        let dim = self.pl.dim;
        assert!((1..=MAX_BATCH).contains(&lanes), "bad lane count {lanes}");
        assert_eq!(a.len(), dim * dim * lanes, "SoA stack size mismatch");
        let l = self.pl.l;
        let row = dim * lanes;
        let mut v = [C64::ZERO; MAX_L * MAX_BATCH];
        for g in 0..(dim >> self.pl.k) {
            let base = self.pl.base(g);
            let mut rs = [0usize; MAX_L];
            for (r, &soff) in rs.iter_mut().zip(&self.pl.soff).take(l) {
                *r = (base | soff) * row;
            }
            for j in 0..dim {
                let col = j * lanes;
                for (y, &r) in rs.iter().enumerate().take(l) {
                    v[y * lanes..(y + 1) * lanes].copy_from_slice(&a[r + col..r + col + lanes]);
                }
                for (x, &r) in rs.iter().enumerate().take(l) {
                    let out = &mut a[r + col..r + col + lanes];
                    out.fill(C64::ZERO);
                    for y in 0..l {
                        let vy = &v[y * lanes..(y + 1) * lanes];
                        if self.is_shared {
                            let c = self.shared_mm[x][y];
                            if c == C64::ZERO {
                                continue;
                            }
                            crate::simd::axpy(out, c, vy);
                        } else {
                            crate::simd::vmla(out, self.lane_block(x, y, lanes), vy);
                        }
                    }
                }
            }
        }
    }

    /// `dst = op · src` for every lane (left multiplication), row-based:
    /// each output row of a lane-major SoA stack is one contiguous
    /// `dim·lanes` slice, and a local left-multiplication only mixes the
    /// `2^k` whole rows of each group. The inner loop is therefore a
    /// full-row [`crate::simd::axpy`] (shared operator) or
    /// [`crate::simd::vmla_cyclic`] (per-lane operator) — vectorized at
    /// every lane count, unlike the per-element gather of
    /// [`BatchedLocalOp::apply_left_inplace`]. A per-lane operator at one
    /// lane runs the fused [`crate::simd::mix2`] instead, and a shared row
    /// with a single nonzero coefficient runs [`crate::simd::mul_into`].
    /// Both buffers are `dim²·lanes` stacks and must be distinct.
    ///
    /// Bit-identical per lane to [`BatchedLocalOp::apply_left_inplace`]:
    /// each output element accumulates the same terms (`y` ascending,
    /// coefficient in the first operand slot, shared zeros skipped
    /// identically) from `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`MAX_BATCH`], or on a size
    /// mismatch.
    pub fn apply_left_into(&self, src: &[C64], dst: &mut [C64], lanes: usize) {
        self.left_rows_into(src, dst, lanes, false);
    }

    /// `dst = opᵀ · src` for every lane — left multiplication by the
    /// *transpose* of the embedded operator (embedding commutes with
    /// transposition, so this transposes the `2^k × 2^k` local matrix and
    /// keeps the placement).
    ///
    /// This is how a right multiplication stays row-based: for stacks
    /// stored transposed, `(A · op)ᵀ = opᵀ · Aᵀ`, so a sweep that keeps its
    /// matrices transposed replaces [`BatchedLocalOp::apply_right_into`]
    /// with this kernel and wins full-row vectorization at every lane
    /// count. Bit-identical per element to `apply_right_into` on the
    /// untransposed stack: each output element accumulates the same terms
    /// in the same order (the transposed sweep's ascending `y` *is* the
    /// right-kernel's ascending `x`).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`MAX_BATCH`], or on a size
    /// mismatch.
    pub fn apply_left_transposed_into(&self, src: &[C64], dst: &mut [C64], lanes: usize) {
        self.left_rows_into(src, dst, lanes, true);
    }

    /// Shared body of the row-based left kernels; `transposed` swaps the
    /// local-matrix index order. A per-lane operator at one lane takes the
    /// fused kernel of [`BatchedLocalOp::left_rows_1`]; shared operators use
    /// [`BatchedLocalOp::shared_row_into`] at every width.
    fn left_rows_into(&self, src: &[C64], dst: &mut [C64], lanes: usize, transposed: bool) {
        let dim = self.pl.dim;
        assert!((1..=MAX_BATCH).contains(&lanes), "bad lane count {lanes}");
        assert_eq!(src.len(), dim * dim * lanes, "SoA stack size mismatch");
        assert_eq!(dst.len(), src.len(), "SoA stack size mismatch");
        if lanes == 1 && !self.is_shared {
            self.left_rows_1(src, dst, transposed);
            return;
        }
        let l = self.pl.l;
        let row = dim * lanes;
        for g in 0..(dim >> self.pl.k) {
            let base = self.pl.base(g);
            for x in 0..l {
                let di = (base | self.pl.soff[x]) * row;
                let out = &mut dst[di..di + row];
                if self.is_shared {
                    self.shared_row_into(out, src, base, x, transposed);
                    continue;
                }
                out.fill(C64::ZERO);
                for y in 0..l {
                    let cb = if transposed {
                        self.lane_block(y, x, lanes)
                    } else {
                        self.lane_block(x, y, lanes)
                    };
                    let si = (base | self.pl.soff[y]) * row;
                    crate::simd::vmla_cyclic(out, cb, &src[si..si + row]);
                }
            }
        }
    }

    /// The one-lane kernel of a per-lane (1-qubit) operator: each row pair
    /// of a group is mixed in one pass ([`crate::simd::mix2`]), which
    /// computes every element's generic zero-fill and
    /// [`crate::simd::vmla_cyclic`] chain bit for bit; see its docs.
    fn left_rows_1(&self, src: &[C64], dst: &mut [C64], transposed: bool) {
        let dim = self.pl.dim;
        let m = std::array::from_fn(|x| {
            std::array::from_fn(|y| {
                let (r, c) = if transposed { (y, x) } else { (x, y) };
                self.lane_mm[(r * MAX_L + c) * MAX_BATCH]
            })
        });
        for g in 0..(dim >> self.pl.k) {
            // Per-lane operators are 1-qubit: rows `base` (soff[0] = 0) and
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

    /// Output row `x` of group `base` of a shared operator, at any width. A
    /// row with a single nonzero coefficient (every row of a CNOT) is one
    /// scaled pass ([`crate::simd::mul_into`], bit-identical to the
    /// zero-fill and one [`crate::simd::axpy`]); any other row is
    /// zero-filled, then takes one `axpy` per nonzero coefficient, `y`
    /// ascending.
    #[inline(always)]
    fn shared_row_into(
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
                self.shared_mm[y][x]
            } else {
                self.shared_mm[x][y]
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

    /// `dst = src · op` for every lane (right multiplication). Both buffers
    /// are `dim²·lanes` lane-major SoA stacks; they must be distinct.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`MAX_BATCH`], or on a size
    /// mismatch.
    pub fn apply_right_into(&self, src: &[C64], dst: &mut [C64], lanes: usize) {
        let dim = self.pl.dim;
        assert!((1..=MAX_BATCH).contains(&lanes), "bad lane count {lanes}");
        assert_eq!(src.len(), dim * dim * lanes, "SoA stack size mismatch");
        assert_eq!(dst.len(), src.len(), "SoA stack size mismatch");
        let l = self.pl.l;
        let row = dim * lanes;
        for i in 0..dim {
            let srow = &src[i * row..(i + 1) * row];
            let drow = &mut dst[i * row..(i + 1) * row];
            for g in 0..(dim >> self.pl.k) {
                let base = self.pl.base(g);
                for y in 0..l {
                    let col = (base | self.pl.soff[y]) * lanes;
                    let out = &mut drow[col..col + lanes];
                    out.fill(C64::ZERO);
                    for x in 0..l {
                        let scol = (base | self.pl.soff[x]) * lanes;
                        let vx = &srow[scol..scol + lanes];
                        if self.is_shared {
                            let c = self.shared_mm[x][y];
                            if c == C64::ZERO {
                                continue;
                            }
                            crate::simd::axpy(out, c, vx);
                        } else {
                            crate::simd::vmla(out, self.lane_block(x, y, lanes), vx);
                        }
                    }
                }
            }
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

    // ---- batched kernels ----

    /// A deterministic dense lane matrix (entries vary by lane).
    fn lane_matrix(dim: usize, lane: usize) -> Matrix {
        Matrix::from_fn(dim, dim, |i, j| {
            C64::new(
                0.37 * (i as f64 + 1.0) - 0.11 * j as f64 + 0.05 * lane as f64,
                0.23 * j as f64 - 0.4 * i as f64 - 0.07 * lane as f64,
            )
        })
    }

    /// A deterministic 1-qubit lane gate.
    fn lane_1q(lane: usize) -> [[C64; 2]; 2] {
        let t = 0.3 + 0.21 * lane as f64;
        [
            [C64::new(t.cos(), 0.1 * t), C64::new(-t.sin(), 0.2)],
            [C64::new(t.sin(), -0.15), C64::new(t.cos(), 0.05 * t)],
        ]
    }

    /// Packs per-lane matrices into a lane-major SoA stack.
    fn pack(ms: &[Matrix], lanes: usize) -> Vec<C64> {
        let dim = ms[0].rows();
        let mut out = vec![C64::ZERO; dim * dim * lanes];
        for (b, m) in ms.iter().enumerate().take(lanes) {
            for i in 0..dim {
                for j in 0..dim {
                    out[(i * dim + j) * lanes + b] = m[(i, j)];
                }
            }
        }
        out
    }

    /// Unpacks lane `b` of a lane-major SoA stack.
    fn unpack(stack: &[C64], dim: usize, lanes: usize, b: usize) -> Matrix {
        Matrix::from_fn(dim, dim, |i, j| stack[(i * dim + j) * lanes + b])
    }

    #[test]
    fn batched_shared_left_inplace_matches_serial_per_lane() {
        let n = 3;
        let dim = 1usize << n;
        let serial = LocalOp::new(&cnot_gate(), &[2, 0], n);
        let batched = BatchedLocalOp::shared(&cnot_gate(), &[2, 0], n);
        for lanes in [1usize, 2, 3, 5, 8] {
            let ms: Vec<Matrix> = (0..lanes).map(|b| lane_matrix(dim, b)).collect();
            let mut stack = pack(&ms, lanes);
            batched.apply_left_inplace(&mut stack, lanes);
            for (b, m) in ms.iter().enumerate() {
                let mut want = m.clone();
                serial.apply_left_inplace(&mut want);
                assert_eq!(unpack(&stack, dim, lanes, b), want, "lane {b} of {lanes}");
            }
        }
    }

    #[test]
    fn batched_per_lane_left_inplace_matches_serial_per_lane() {
        let n = 3;
        let dim = 1usize << n;
        let mut batched = BatchedLocalOp::per_lane_1q(1, n);
        for lanes in [1usize, 2, 4, 7, 8] {
            let ms: Vec<Matrix> = (0..lanes).map(|b| lane_matrix(dim, b)).collect();
            let mut stack = pack(&ms, lanes);
            for b in 0..lanes {
                batched.set_lane_1q(b, &lane_1q(b));
            }
            batched.apply_left_inplace(&mut stack, lanes);
            for (b, m) in ms.iter().enumerate() {
                let serial = LocalOp::from_local(&LocalMatrix::One(lane_1q(b)), &[1], n);
                let mut want = m.clone();
                serial.apply_left_inplace(&mut want);
                assert_eq!(unpack(&stack, dim, lanes, b), want, "lane {b} of {lanes}");
            }
        }
    }

    #[test]
    fn batched_right_into_matches_serial_per_lane() {
        let n = 3;
        let dim = 1usize << n;
        let shared = BatchedLocalOp::shared(&cnot_gate(), &[0, 2], n);
        let serial_shared = LocalOp::new(&cnot_gate(), &[0, 2], n);
        let mut per_lane = BatchedLocalOp::per_lane_1q(2, n);
        for lanes in [1usize, 2, 4, 8] {
            let ms: Vec<Matrix> = (0..lanes).map(|b| lane_matrix(dim, b + 3)).collect();
            let stack = pack(&ms, lanes);
            let mut dst = vec![C64::ZERO; stack.len()];

            shared.apply_right_into(&stack, &mut dst, lanes);
            for (b, m) in ms.iter().enumerate() {
                let mut want = Matrix::zeros(dim, dim);
                serial_shared.apply_right_into(m, &mut want);
                assert_eq!(unpack(&dst, dim, lanes, b), want, "shared lane {b}");
            }

            for b in 0..lanes {
                per_lane.set_lane_1q(b, &lane_1q(b + 1));
            }
            per_lane.apply_right_into(&stack, &mut dst, lanes);
            for (b, m) in ms.iter().enumerate() {
                let serial = LocalOp::from_local(&LocalMatrix::One(lane_1q(b + 1)), &[2], n);
                let mut want = Matrix::zeros(dim, dim);
                serial.apply_right_into(m, &mut want);
                assert_eq!(unpack(&dst, dim, lanes, b), want, "per-lane lane {b}");
            }
        }
    }

    #[test]
    fn batched_width_invariance_is_bitwise() {
        // Lane b's result is independent of how many other lanes ride along.
        let n = 4;
        let dim = 1usize << n;
        let mut op = BatchedLocalOp::per_lane_1q(3, n);
        let ms: Vec<Matrix> = (0..MAX_BATCH).map(|b| lane_matrix(dim, b)).collect();
        // Full-width result.
        let mut wide = pack(&ms, MAX_BATCH);
        for b in 0..MAX_BATCH {
            op.set_lane_1q(b, &lane_1q(b));
        }
        op.apply_left_inplace(&mut wide, MAX_BATCH);
        // Each lane alone.
        for (b, lane_m) in ms.iter().enumerate() {
            let mut narrow = pack(std::slice::from_ref(lane_m), 1);
            let mut single = BatchedLocalOp::per_lane_1q(3, n);
            single.set_lane_1q(0, &lane_1q(b));
            single.apply_left_inplace(&mut narrow, 1);
            let got = unpack(&wide, dim, MAX_BATCH, b);
            let want = unpack(&narrow, dim, 1, 0);
            for i in 0..dim {
                for j in 0..dim {
                    assert_eq!(
                        got[(i, j)].re.to_bits(),
                        want[(i, j)].re.to_bits(),
                        "lane {b} ({i},{j})"
                    );
                    assert_eq!(got[(i, j)].im.to_bits(), want[(i, j)].im.to_bits());
                }
            }
        }
    }

    /// Packs per-lane matrices into a *transposed* lane-major SoA stack:
    /// entry `(i, j)` of lane `b` at `(j·dim + i)·lanes + b`.
    fn pack_transposed(ms: &[Matrix], lanes: usize) -> Vec<C64> {
        let dim = ms[0].rows();
        let mut out = vec![C64::ZERO; dim * dim * lanes];
        for (b, m) in ms.iter().enumerate().take(lanes) {
            for i in 0..dim {
                for j in 0..dim {
                    out[(j * dim + i) * lanes + b] = m[(i, j)];
                }
            }
        }
        out
    }

    #[test]
    fn row_based_left_into_matches_inplace_bitwise() {
        // The row-based kernel is a bit-exact drop-in for the per-element
        // in-place kernel, for shared and per-lane operators alike.
        let n = 3;
        let dim = 1usize << n;
        let shared = BatchedLocalOp::shared(&cnot_gate(), &[2, 0], n);
        let mut per_lane = BatchedLocalOp::per_lane_1q(1, n);
        for lanes in [1usize, 2, 3, 5, 8] {
            let ms: Vec<Matrix> = (0..lanes).map(|b| lane_matrix(dim, b)).collect();
            let stack = pack(&ms, lanes);
            let mut dst = vec![C64::ZERO; stack.len()];
            for b in 0..lanes {
                per_lane.set_lane_1q(b, &lane_1q(b));
            }
            for op in [&shared, &per_lane] {
                let mut inplace = stack.clone();
                op.apply_left_inplace(&mut inplace, lanes);
                op.apply_left_into(&stack, &mut dst, lanes);
                for (e, (g, w)) in dst.iter().zip(&inplace).enumerate() {
                    assert_eq!(g.re.to_bits(), w.re.to_bits(), "lanes {lanes} e {e}");
                    assert_eq!(g.im.to_bits(), w.im.to_bits(), "lanes {lanes} e {e}");
                }
            }
        }
    }

    #[test]
    fn transposed_left_on_transposed_stack_matches_right_into_bitwise() {
        // The transposed-sweep identity: (A·op)ᵀ = opᵀ·Aᵀ, element for
        // element and bit for bit. This is what lets the suffix sweep stay
        // row-based.
        let n = 3;
        let dim = 1usize << n;
        let shared = BatchedLocalOp::shared(&cnot_gate(), &[0, 2], n);
        let mut per_lane = BatchedLocalOp::per_lane_1q(2, n);
        for lanes in [1usize, 2, 4, 8] {
            let ms: Vec<Matrix> = (0..lanes).map(|b| lane_matrix(dim, b + 3)).collect();
            let stack = pack(&ms, lanes);
            let stack_t = pack_transposed(&ms, lanes);
            let mut want = vec![C64::ZERO; stack.len()];
            let mut got_t = vec![C64::ZERO; stack.len()];
            for b in 0..lanes {
                per_lane.set_lane_1q(b, &lane_1q(b + 1));
            }
            for op in [&shared, &per_lane] {
                op.apply_right_into(&stack, &mut want, lanes);
                op.apply_left_transposed_into(&stack_t, &mut got_t, lanes);
                for i in 0..dim {
                    for j in 0..dim {
                        for b in 0..lanes {
                            let g = got_t[(j * dim + i) * lanes + b];
                            let w = want[(i * dim + j) * lanes + b];
                            assert_eq!(g.re.to_bits(), w.re.to_bits(), "({i},{j}) lane {b}");
                            assert_eq!(g.im.to_bits(), w.im.to_bits(), "({i},{j}) lane {b}");
                        }
                    }
                }
            }
        }
    }

    /// The reference the fused kernels must match: the generic row path —
    /// each output row zero-filled, then one `axpy` per coefficient, `y`
    /// ascending (a shared operator skips zeros). Per-lane operators only
    /// at one lane; shared ones at any width, their coefficient being the
    /// same for every lane of the `dim·lanes` row.
    fn generic_rows(op: &BatchedLocalOp, src: &[C64], lanes: usize, transposed: bool) -> Vec<C64> {
        assert!(op.is_shared || lanes == 1);
        let dim = op.pl.dim;
        let row = dim * lanes;
        let mut dst = vec![C64::ZERO; src.len()];
        for g in 0..(dim >> op.pl.k) {
            let base = op.pl.base(g);
            for x in 0..op.pl.l {
                let di = (base | op.pl.soff[x]) * row;
                let out = &mut dst[di..di + row];
                out.fill(C64::ZERO);
                for y in 0..op.pl.l {
                    let (r, c) = if transposed { (y, x) } else { (x, y) };
                    let coeff = if op.is_shared {
                        op.shared_mm[r][c]
                    } else {
                        op.lane_mm[(r * MAX_L + c) * MAX_BATCH]
                    };
                    if op.is_shared && coeff == C64::ZERO {
                        continue;
                    }
                    let si = (base | op.pl.soff[y]) * row;
                    crate::simd::axpy(out, coeff, &src[si..si + row]);
                }
            }
        }
        dst
    }

    /// Every operator shape the width-1 kernels dispatch on, at every 1-
    /// and 2-qubit placement of up to four qubits: per-lane 1-qubit gates
    /// (fused row pairs), permutation gates (single-coefficient rows) and
    /// shared gates with rows of one and of several nonzeros.
    fn width1_cases() -> Vec<(String, BatchedLocalOp)> {
        use crate::simd::tests::special;
        let (o, l, i) = (C64::ZERO, C64::ONE, C64::new(0.0, 1.0));
        let v = special(16, 2);
        let mut cases = Vec::new();
        for n in 1..=4usize {
            for q in 0..n {
                for salt in [0usize, 4, 8] {
                    let mut op = BatchedLocalOp::per_lane_1q(q, n);
                    let e = special(4, salt);
                    op.set_lane_1q(0, &[[e[0], e[1]], [e[2], e[3]]]);
                    cases.push((format!("u3 q{q} n{n} salt {salt}"), op));
                }
                let one_zero = Matrix::from_rows(&[&[v[0], o], &[v[1], v[7]]]);
                let x = Matrix::from_rows(&[&[o, i], &[l, o]]);
                for (name, m) in [("one-zero", one_zero), ("x", x)] {
                    cases.push((
                        format!("{name} q{q} n{n}"),
                        BatchedLocalOp::shared(&m, &[q], n),
                    ));
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
                            BatchedLocalOp::shared(&m, &[q, p], n),
                        ));
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn fused_width1_kernels_match_generic_rows_bitwise() {
        use crate::simd::tests::{same, special};
        // Shared rows take the same single-coefficient dispatch at every
        // width, so those are checked at two and three lanes as well.
        for (name, op) in width1_cases() {
            let dim = op.dim();
            let widths = if op.is_shared { 1..=3 } else { 1..=1 };
            for (lanes, transposed) in widths.flat_map(|w| [(w, false), (w, true)]) {
                let src = special(dim * dim * lanes, dim + lanes - 1);
                let want = generic_rows(&op, &src, lanes, transposed);
                // Garbage in the output must be overwritten everywhere.
                let mut got = special(src.len(), 5);
                if transposed {
                    op.apply_left_transposed_into(&src, &mut got, lanes);
                } else {
                    op.apply_left_into(&src, &mut got, lanes);
                }
                for (e, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        same(g, w),
                        "{name} lanes {lanes} transposed {transposed} e {e}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_width1_kernels_match_generic_lanes_bitwise() {
        // Width 1 against both lanes of width 2 holding the same matrix and
        // operator: for a per-lane operator, fused `mix2` against the
        // generic `vmla_cyclic` rows.
        use crate::simd::tests::{same, special};
        for (name, mut op) in width1_cases() {
            let dim = op.dim();
            if !op.is_shared {
                let e = op.lane_mm;
                for x in 0..2 {
                    for y in 0..2 {
                        op.lane_mm[(x * MAX_L + y) * MAX_BATCH + 1] =
                            e[(x * MAX_L + y) * MAX_BATCH];
                    }
                }
            }
            let src = special(dim * dim, 3);
            let src2: Vec<C64> = src.iter().flat_map(|&z| [z, z]).collect();
            for transposed in [false, true] {
                let (mut one, mut two) = (vec![C64::ZERO; src.len()], vec![C64::ZERO; src2.len()]);
                if transposed {
                    op.apply_left_transposed_into(&src, &mut one, 1);
                    op.apply_left_transposed_into(&src2, &mut two, 2);
                } else {
                    op.apply_left_into(&src, &mut one, 1);
                    op.apply_left_into(&src2, &mut two, 2);
                }
                for (e, &g) in one.iter().enumerate() {
                    for b in 0..2 {
                        let w = two[2 * e + b];
                        assert!(same(g, w), "{name} transposed {transposed} e {e} lane {b}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad lane count")]
    fn zero_lanes_panics() {
        let op = BatchedLocalOp::shared(&cnot_gate(), &[0, 1], 2);
        let mut stack: Vec<C64> = vec![];
        op.apply_left_inplace(&mut stack, 0);
    }
}
