//! The Hilbert–Schmidt synthesis cost and its analytic gradient, evaluated
//! for a whole batch of optimizer starts per template traversal.
//!
//! The optimizer minimizes `C(θ) = 1 − |Tr(A† V(θ))|² / N²`, whose square
//! root is exactly QUEST's process distance. The gradient is computed
//! analytically with the standard prefix/suffix-product trick: with
//! `V = G_m · … · G_1`, every per-gate derivative needs only
//! `Tr(R_k · A† · L_k · ∂G_k)` where `R_k`/`L_k` are partial products.
//!
//! This is the synthesis hot loop (tens of thousands of evaluations per
//! pipeline run), and two structural ideas make it fast:
//!
//! * **Incremental left product.** Instead of materializing a prefix stack
//!   and paying a dense `O(N³)` product `W_k = L_k · A†` per `U3`, the sweep
//!   carries `W` forward: `W_0 = A†`, then `W_{k+1} = G_{k+1} · W_k` — an
//!   `O(4N²)` bit-strided kernel per gate. Only the suffix stack is stored;
//!   of `Q_k = W_k · R_k` just the `2N` entries the 1-qubit derivative
//!   traces read are ever computed (the reduced-`Q` trick).
//! * **Structure-of-arrays batching.** All live optimizer starts (*lanes*)
//!   evaluate together: every matrix in the workspace is a lane-major SoA
//!   stack (`entry (i,j) of lane b` at `(i·dim + j)·lanes + b`), and one
//!   template traversal applies each gate across all lanes via
//!   [`qmath::kernels::BatchedLocalOp`] — gate placement decodes once.
//!   Both sweeps use the *row-based* kernels, whose inner loops are
//!   contiguous `dim·lanes` row operations — fully vectorized at **every**
//!   batch width, including width 1 (lane-sized inner loops would
//!   degenerate to scalar code exactly where the pipeline spends most of
//!   its time: 1–2 surviving starts). To keep the right-multiplying suffix
//!   sweep row-based, the suffix stacks are stored transposed
//!   (`suffixᵀ[k] = G_kᵀ · suffixᵀ[k+1]`), which also happens to make the
//!   reduced-`Q` column reads contiguous.
//! * **Fused width-1 kernels.** One lane, the width of nearly every
//!   evaluation a pipeline run makes, takes fused kernels: each `U3` row
//!   pair and each CNOT row is written in one pass (see
//!   [`qmath::kernels::BatchedLocalOp`]), and the reduced-`Q` and
//!   derivative sums run their independent chains side by side
//!   ([`qmath::simd::dot2x4`], [`qmath::simd::dtrace3`]). Each keeps every
//!   element's operation sequence, so width 1 stays bit-identical to every
//!   other width.
//!
//! All scratch lives in a caller-owned [`BatchWorkspace`] sized once for a
//! maximum lane count, so an evaluation performs **zero heap allocations**
//! at any batch width (covered by the counting-allocator test
//! `tests/zero_alloc.rs`). The optimizer reaches it through
//! [`HsCost::batch_evaluator`], sized to its start count. The single-point
//! [`Workspace`] API ([`HsCost::cost`], [`HsCost::cost_and_grad`]) is a
//! width-1 view of the same code path, kept for tests, reference checks
//! and per-evaluation microbenchmarks.
//!
//! # Determinism
//!
//! Lanes are independent accumulation chains, so every lane's cost and
//! gradient are **bit-identical for any batch width** (1, 2, …,
//! [`MAX_BATCH`]) and any retirement pattern of the other lanes — the
//! contract `tests/batch_invariance.rs` pins. No accumulation ever
//! branches on a single lane's value (exact-zero terms are included rather
//! than skipped; adding `±0` cannot change a nonzero sum). In the default
//! strict numerics mode the kernels are additionally bit-identical to an
//! embed-then-matmul reference of the same formulation
//! (`tests/kernel_equivalence.rs`); under `simd-relaxed` the same results
//! hold to the documented tolerance (DESIGN.md §4j).

use crate::template::{u3_entries, Template, TemplateOp, M2};
use qcircuit::Gate;
use qmath::kernels::{BatchedLocalOp, MAX_BATCH};
use qmath::simd::{axpy, dot2x4, dtrace3, mla1, vmla};
use qmath::{Matrix, C64};

/// Per-op structural info the gradient sweep needs (the qubit bit position
/// of free `U3`s).
#[derive(Clone, Copy, Debug)]
enum OpKind {
    /// Free `U3` with its qubit's LSB-based bit position.
    U3 { shift: usize },
    /// Fixed CNOT (no parameters).
    Cnot,
}

/// Cost function object binding a target unitary to a template.
///
/// The object itself is immutable (and `Sync`); all per-evaluation scratch
/// lives in a [`BatchWorkspace`] (or its width-1 [`Workspace`] wrapper)
/// obtained from this object.
pub struct HsCost<'a> {
    template: &'a Template,
    target: Matrix,
    /// `A†`, precomputed once.
    a_dag: Matrix,
    dim: usize,
    n2: f64,
    kinds: Vec<OpKind>,
    /// Batched kernel prototypes per op; `U3` lane matrices are refilled per
    /// evaluation in the workspace clone, CNOT matrices are fixed here.
    ops_proto: Vec<BatchedLocalOp>,
    num_u3: usize,
    /// Op index of the last free `U3` — the forward `W` sweep stops there
    /// (later fixed gates contribute no gradient).
    last_u3: Option<usize>,
}

/// Reusable batched evaluation scratch for [`HsCost`] — construct once per
/// optimizer (sized for its maximum batch width), evaluate many times with
/// no heap traffic. Every matrix buffer is a lane-major SoA stack over up
/// to `capacity` lanes; evaluations may use any `lanes ≤ capacity`.
pub struct BatchWorkspace {
    /// Maximum lane count the buffers are sized for.
    capacity: usize,
    /// Per-op kernels (U3 lane matrices are refilled each evaluation).
    ops: Vec<BatchedLocalOp>,
    /// Per-U3 derivative entries, entry-major × lane-minor:
    /// `∂_d G[x][y]` of U3 `ui`, lane `b`, lives at
    /// `((ui·3 + d)·4 + x·2 + y)·capacity + b`.
    u3d: Vec<C64>,
    /// `suffix[k] = G_m … G_{k+1}` per lane (`suffix[m] = I`), stored
    /// **transposed** (entry `(i, j)` of lane `b` at `(j·dim + i)·lanes + b`)
    /// so the sweep `suffix[k] = suffix[k+1] · G_k` becomes the row-based
    /// left kernel `suffixᵀ[k] = G_kᵀ · suffixᵀ[k+1]` — contiguous
    /// full-row SIMD at every batch width. The transposition also makes the
    /// reduced-`Q` reads (columns of `suffix`) contiguous.
    suffix: Vec<Vec<C64>>,
    /// The running left product `W = L_k · A†` per lane (row-major).
    w: Vec<C64>,
    /// Double buffer for `w`: the row-based left kernel writes out of
    /// place, so the sweep advances `w → w2` and swaps.
    w2: Vec<C64>,
    /// The two `Q` entries per row a 1-qubit derivative trace reads:
    /// `Q[i, base_i | x·2^shift]` of lane `b` at `(2i + x)·capacity + b`,
    /// or at `2i + x` when one lane runs (contiguous for
    /// [`qmath::simd::dtrace3`]).
    qred: Vec<C64>,
    /// Per-lane `T = Tr(A† V)` accumulators.
    t: Vec<C64>,
}

impl BatchWorkspace {
    /// Maximum lane count this workspace was sized for.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Serial (width-1) evaluation scratch for [`HsCost`] — a thin wrapper over
/// a one-lane [`BatchWorkspace`], so the serial path *is* the batched path
/// at width 1 by construction.
pub struct Workspace {
    inner: BatchWorkspace,
}

/// [`HsCost`] bundled with a [`BatchWorkspace`] — implements
/// [`crate::optimize::BatchEvaluator`], the evaluator the multi-start
/// optimizer drives.
pub struct HsBatchEvaluator<'c, 'a> {
    cost: &'c HsCost<'a>,
    ws: BatchWorkspace,
}

impl crate::optimize::BatchEvaluator for HsBatchEvaluator<'_, '_> {
    fn max_lanes(&self) -> usize {
        self.ws.capacity
    }

    fn eval_lanes(&mut self, lanes: usize, xs: &[f64], costs: &mut [f64], grads: &mut [f64]) {
        self.cost
            .cost_and_grad_batch(&mut self.ws, lanes, xs, costs, grads);
    }
}

impl<'a> HsCost<'a> {
    /// Creates the cost for synthesizing `target` with `template`.
    ///
    /// # Panics
    ///
    /// Panics if the target dimension does not match the template width.
    pub fn new(template: &'a Template, target: &Matrix) -> Self {
        let n = template.num_qubits();
        let dim = 1usize << n;
        assert_eq!(
            (target.rows(), target.cols()),
            (dim, dim),
            "target dimension does not match template width"
        );
        let mut kinds = Vec::with_capacity(template.ops().len());
        let mut ops_proto = Vec::with_capacity(template.ops().len());
        let mut num_u3 = 0;
        let mut last_u3 = None;
        for (k, op) in template.ops().iter().enumerate() {
            match *op {
                TemplateOp::FreeU3 { qubit } => {
                    kinds.push(OpKind::U3 {
                        shift: n - 1 - qubit,
                    });
                    ops_proto.push(BatchedLocalOp::per_lane_1q(qubit, n));
                    num_u3 += 1;
                    last_u3 = Some(k);
                }
                TemplateOp::Cnot { control, target } => {
                    kinds.push(OpKind::Cnot);
                    ops_proto.push(BatchedLocalOp::shared(
                        &Gate::Cnot.matrix(),
                        &[control, target],
                        n,
                    ));
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let n2 = (dim * dim) as f64;
        HsCost {
            template,
            target: target.clone(),
            a_dag: target.dagger(),
            dim,
            n2,
            kinds,
            ops_proto,
            num_u3,
            last_u3,
        }
    }

    /// Number of free parameters.
    pub fn num_params(&self) -> usize {
        self.template.num_params()
    }

    /// Converts a cost value to the HS process distance `sqrt(max(C, 0))`.
    pub fn distance(cost: f64) -> f64 {
        cost.max(0.0).sqrt()
    }

    /// Allocates a fresh serial (width-1) evaluation workspace.
    pub fn workspace(&self) -> Workspace {
        Workspace {
            inner: self.batch_workspace(1),
        }
    }

    /// Allocates a fresh batched evaluation workspace sized for up to
    /// `capacity` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds [`MAX_BATCH`].
    pub fn batch_workspace(&self, capacity: usize) -> BatchWorkspace {
        assert!(
            (1..=MAX_BATCH).contains(&capacity),
            "batch capacity {capacity} out of range"
        );
        let m = self.kinds.len();
        let sz = self.dim * self.dim * capacity;
        BatchWorkspace {
            capacity,
            ops: self.ops_proto.clone(),
            u3d: vec![C64::ZERO; self.num_u3 * 3 * 4 * capacity],
            suffix: (0..=m).map(|_| vec![C64::ZERO; sz]).collect(),
            w: vec![C64::ZERO; sz],
            w2: vec![C64::ZERO; sz],
            qred: vec![C64::ZERO; 2 * self.dim * capacity],
            t: vec![C64::ZERO; capacity],
        }
    }

    /// Returns a self-contained batched evaluator sized for up to
    /// `capacity` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds [`MAX_BATCH`].
    pub fn batch_evaluator(&self, capacity: usize) -> HsBatchEvaluator<'_, 'a> {
        HsBatchEvaluator {
            cost: self,
            ws: self.batch_workspace(capacity),
        }
    }

    /// Refills the workspace's U3 lane matrices (and, when `with_grads`,
    /// the derivative entries) from the lane-major parameter stack
    /// `xs[p·lanes + b]`.
    fn load_params_batch(
        &self,
        ws: &mut BatchWorkspace,
        lanes: usize,
        xs: &[f64],
        with_grads: bool,
    ) {
        assert!(
            lanes >= 1 && lanes <= ws.capacity,
            "lane count {lanes} exceeds workspace capacity {}",
            ws.capacity
        );
        assert_eq!(
            xs.len(),
            self.num_params() * lanes,
            "parameter stack size mismatch"
        );
        let cap = ws.capacity;
        let mut p = 0;
        let mut ui = 0;
        for (k, kind) in self.kinds.iter().enumerate() {
            if let OpKind::U3 { .. } = kind {
                for b in 0..lanes {
                    let (m, d) = u3_entries(
                        xs[p * lanes + b],
                        xs[(p + 1) * lanes + b],
                        xs[(p + 2) * lanes + b],
                    );
                    ws.ops[k].set_lane_1q(b, &m);
                    if with_grads {
                        store_u3d(&mut ws.u3d, cap, ui, b, &d);
                    }
                }
                p += 3;
                ui += 1;
            }
        }
    }

    /// Evaluates the cost for `lanes` parameter vectors packed lane-major in
    /// `xs` (`xs[p·lanes + b]` is parameter `p` of lane `b`), writing one
    /// cost per lane. Allocation-free given a workspace.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds the workspace capacity or a buffer length
    /// mismatches.
    #[qstatic_attr::zero_alloc]
    pub fn cost_batch(&self, ws: &mut BatchWorkspace, lanes: usize, xs: &[f64], costs: &mut [f64]) {
        assert_eq!(costs.len(), lanes, "cost buffer size mismatch");
        self.load_params_batch(ws, lanes, xs, false);
        let sz = self.dim * self.dim * lanes;
        fill_identity_stack(&mut ws.w[..sz], self.dim, lanes);
        for k in 0..ws.ops.len() {
            ws.ops[k].apply_left_into(&ws.w[..sz], &mut ws.w2[..sz], lanes);
            std::mem::swap(&mut ws.w, &mut ws.w2);
        }
        self.trace_lanes(&ws.w[..sz], lanes, &mut ws.t[..lanes]);
        for (c, t) in costs.iter_mut().zip(&ws.t[..lanes]) {
            *c = 1.0 - t.norm_sqr() / self.n2;
        }
    }

    /// Evaluates cost and gradient for `lanes` parameter vectors packed
    /// lane-major in `xs`, writing one cost per lane and the gradients
    /// lane-major into `grads` (`grads[p·lanes + b]`). Allocation-free
    /// given a workspace.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds the workspace capacity or a buffer length
    /// mismatches.
    #[qstatic_attr::zero_alloc]
    pub fn cost_and_grad_batch(
        &self,
        ws: &mut BatchWorkspace,
        lanes: usize,
        xs: &[f64],
        costs: &mut [f64],
        grads: &mut [f64],
    ) {
        assert_eq!(costs.len(), lanes, "cost buffer size mismatch");
        assert_eq!(
            grads.len(),
            self.num_params() * lanes,
            "gradient stack size mismatch"
        );
        self.load_params_batch(ws, lanes, xs, true);
        let m = self.kinds.len();
        let dim = self.dim;
        let cap = ws.capacity;
        let sz = dim * dim * lanes;

        // Suffix sweep, kept transposed: suffixᵀ[k] = G_kᵀ · suffixᵀ[k+1]
        // is the row-based form of suffix[k] = suffix[k+1] · G_k, so every
        // step is contiguous full-row SIMD at any batch width. (The
        // identity seed is symmetric, so no transposition is needed there.)
        fill_identity_stack(&mut ws.suffix[m][..sz], dim, lanes);
        for k in (0..m).rev() {
            let (head, tail) = ws.suffix.split_at_mut(k + 1);
            ws.ops[k].apply_left_transposed_into(&tail[0][..sz], &mut head[k][..sz], lanes);
        }

        // T = Tr(A† V) per lane; V = suffix[0] = G_m … G_1.
        self.trace_lanes_transposed(&ws.suffix[0][..sz], lanes, &mut ws.t[..lanes]);
        for (c, t) in costs.iter_mut().zip(&ws.t[..lanes]) {
            *c = 1.0 - t.norm_sqr() / self.n2;
        }

        // Forward sweep: W = L_k · A† advances incrementally; at each U3 the
        // reduced-Q columns and the three derivative traces are accumulated
        // across all lanes.
        let Some(last_u3) = self.last_u3 else {
            return; // no free parameters
        };
        broadcast_stack(&mut ws.w[..sz], &self.a_dag, lanes);
        let mut gi = 0;
        let mut ui = 0;
        for (k, kind) in self.kinds.iter().enumerate() {
            if let OpKind::U3 { shift } = *kind {
                let bit = 1usize << shift;
                let suffix_t = &ws.suffix[k + 1][..sz];
                let w = &ws.w[..sz];
                // Q[i, base_i | x·bit] of lane b, accumulated over j
                // ascending — the same term order as a dense W·R row
                // product. Width 1 stores it contiguously at qred[2i + x]
                // (`dtrace3` reads that layout); wider batches at
                // qred[(2i + x)·cap + b]. Column `c` of `suffix` is row `c`
                // of the transposed stack, so both reads stream
                // contiguously.
                let row = dim * lanes;
                let s_row = |i: usize, x: usize| {
                    let c = (i & !bit) | (x * bit);
                    &suffix_t[c * row..(c + 1) * row]
                };
                if lanes == 1 {
                    // Width 1: four rows' chains run side by side (a lone
                    // chain waits on the adder). `dim == 2` repeats its two
                    // rows; the repeats compute the same values again.
                    for i0 in (0..dim).step_by(4) {
                        let rows: [usize; 4] = std::array::from_fn(|r| (i0 + r) % dim);
                        let q = dot2x4(
                            rows.map(|i| &w[i * row..(i + 1) * row]),
                            rows.map(|i| s_row(i, 0)),
                            rows.map(|i| s_row(i, 1)),
                        );
                        for (&i, [q0, q1]) in rows.iter().zip(q) {
                            ws.qred[2 * i] = q0;
                            ws.qred[2 * i + 1] = q1;
                        }
                    }
                } else {
                    for i in 0..dim {
                        let q0s = 2 * i * cap;
                        ws.qred[q0s..q0s + lanes].fill(C64::ZERO);
                        ws.qred[q0s + cap..q0s + cap + lanes].fill(C64::ZERO);
                        let (q01, rest) = ws.qred[q0s..].split_at_mut(cap);
                        let q0 = &mut q01[..lanes];
                        let q1 = &mut rest[..lanes];
                        let wrow = &w[i * row..(i + 1) * row];
                        let (s0row, s1row) = (s_row(i, 0), s_row(i, 1));
                        for j in 0..dim {
                            let e = j * lanes;
                            let wij = &wrow[e..e + lanes];
                            vmla(q0, wij, &s0row[e..e + lanes]);
                            vmla(q1, wij, &s1row[e..e + lanes]);
                        }
                    }
                }
                // dT = Tr(Q · ∂G) per derivative per lane, accumulated in
                // row-major ascending-column order. Exact-zero derivative
                // entries are *included* (a ±0 addend cannot change a
                // nonzero sum), so the term set is identical at every batch
                // width.
                if lanes == 1 {
                    // Width 1: the three chains run side by side over the
                    // contiguous reduced Q (same term order and operand
                    // slots as the vmla loop below).
                    let e =
                        |d: usize, x: usize, y: usize| ws.u3d[((ui * 3 + d) * 4 + x * 2 + y) * cap];
                    let dg = std::array::from_fn(|d| {
                        [[e(d, 0, 0), e(d, 0, 1)], [e(d, 1, 0), e(d, 1, 1)]]
                    });
                    let dt = dtrace3(&dg, &ws.qred[..2 * dim], shift);
                    // dC = −2·Re(conj(T)·dT)/N².
                    for &dtv in &dt {
                        grads[gi] = -2.0 * (ws.t[0].conj() * dtv).re / self.n2;
                        gi += 1;
                    }
                } else {
                    for d in 0..3 {
                        let mut dt = [C64::ZERO; MAX_BATCH];
                        let dt = &mut dt[..lanes];
                        for i in 0..dim {
                            let y = (i >> shift) & 1;
                            for x in 0..2 {
                                let e = ((ui * 3 + d) * 4 + x * 2 + y) * cap;
                                let q = (2 * i + x) * cap;
                                vmla(dt, &ws.u3d[e..e + lanes], &ws.qred[q..q + lanes]);
                            }
                        }
                        // dC = −2·Re(conj(T)·dT)/N².
                        for b in 0..lanes {
                            grads[gi * lanes + b] = -2.0 * (ws.t[b].conj() * dt[b]).re / self.n2;
                        }
                        gi += 1;
                    }
                }
                ui += 1;
                if k == last_u3 {
                    break; // later fixed gates contribute no gradient
                }
            }
            ws.ops[k].apply_left_into(&ws.w[..sz], &mut ws.w2[..sz], lanes);
            std::mem::swap(&mut ws.w, &mut ws.w2);
        }
    }

    /// Evaluates the cost only (allocation-free given a workspace).
    #[qstatic_attr::zero_alloc]
    pub fn cost(&self, ws: &mut Workspace, params: &[f64]) -> f64 {
        let mut costs = [0.0];
        self.cost_batch(&mut ws.inner, 1, params, &mut costs);
        costs[0]
    }

    /// Evaluates the cost and writes the gradient with respect to every
    /// parameter into `grad`. Allocation-free given a workspace. This is
    /// exactly the batched path at width 1.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grad` do not have `num_params()` entries.
    #[qstatic_attr::zero_alloc]
    pub fn cost_and_grad(&self, ws: &mut Workspace, params: &[f64], grad: &mut [f64]) -> f64 {
        let mut costs = [0.0];
        self.cost_and_grad_batch(&mut ws.inner, 1, params, &mut costs, grad);
        costs[0]
    }

    /// `t[b] = Σ_{ij} conj(target[i][j]) · stack[i][j][b]` — the per-lane
    /// Hilbert–Schmidt inner product `Tr(A† V_b)`, accumulated in row-major
    /// element order per lane.
    fn trace_lanes(&self, stack: &[C64], lanes: usize, t: &mut [C64]) {
        t.fill(C64::ZERO);
        if lanes == 1 {
            // Width-1 fast path: the chain rides in a register (same term
            // order and operand slots as the axpy loop below).
            let mut acc = C64::ZERO;
            for (&a, &v) in self.target.as_slice().iter().zip(stack) {
                acc = mla1(acc, a.conj(), v);
            }
            t[0] = acc;
            return;
        }
        for (e, &a) in self.target.as_slice().iter().enumerate() {
            axpy(t, a.conj(), &stack[e * lanes..(e + 1) * lanes]);
        }
    }

    /// [`Self::trace_lanes`] over a **transposed** SoA stack. The sum runs
    /// in the *original* row-major `(i, j)` element order (strided reads
    /// into the transposed buffer), so each lane's accumulation chain is
    /// bit-identical to `trace_lanes` on the untransposed stack.
    fn trace_lanes_transposed(&self, stack_t: &[C64], lanes: usize, t: &mut [C64]) {
        t.fill(C64::ZERO);
        let dim = self.dim;
        let a = self.target.as_slice();
        if lanes == 1 {
            let mut acc = C64::ZERO;
            for i in 0..dim {
                for j in 0..dim {
                    acc = mla1(acc, a[i * dim + j].conj(), stack_t[j * dim + i]);
                }
            }
            t[0] = acc;
            return;
        }
        for i in 0..dim {
            for j in 0..dim {
                let e = (j * dim + i) * lanes;
                axpy(t, a[i * dim + j].conj(), &stack_t[e..e + lanes]);
            }
        }
    }
}

/// Writes the per-U3 derivative entries of one lane into the entry-major ×
/// lane-minor stack.
#[inline]
fn store_u3d(u3d: &mut [C64], cap: usize, ui: usize, b: usize, d: &[M2; 3]) {
    for (di, dm) in d.iter().enumerate() {
        for x in 0..2 {
            for y in 0..2 {
                u3d[((ui * 3 + di) * 4 + x * 2 + y) * cap + b] = dm[x][y];
            }
        }
    }
}

/// Resets a lane-major SoA stack to per-lane identity matrices.
fn fill_identity_stack(stack: &mut [C64], dim: usize, lanes: usize) {
    stack.fill(C64::ZERO);
    for i in 0..dim {
        let e = (i * dim + i) * lanes;
        stack[e..e + lanes].fill(C64::ONE);
    }
}

/// Broadcasts one matrix into every lane of a lane-major SoA stack.
fn broadcast_stack(stack: &mut [C64], m: &Matrix, lanes: usize) {
    for (e, &v) in m.as_slice().iter().enumerate() {
        stack[e * lanes..(e + 1) * lanes].fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::random::haar_unitary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cost_zero_when_template_matches_target() {
        let t = Template::initial(2).with_layer(0, 1);
        let params: Vec<f64> = vec![
            0.3, -0.2, 0.8, 1.1, 0.0, -0.5, 0.25, 0.5, -1.0, 0.7, 0.1, 0.9,
        ];
        let target = t.unitary(&params);
        let cost_fn = HsCost::new(&t, &target);
        let cost = cost_fn.cost(&mut cost_fn.workspace(), &params);
        assert!(cost.abs() < 1e-10, "cost {cost}");
    }

    #[test]
    fn cost_positive_for_random_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Template::initial(2);
        let target = haar_unitary(4, &mut rng);
        let cost_fn = HsCost::new(&t, &target);
        let cost = cost_fn.cost(&mut cost_fn.workspace(), &vec![0.0; t.num_params()]);
        assert!(cost > 0.0);
        assert!(cost <= 1.0 + 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Template::initial(2).with_layer(0, 1).with_layer(1, 0);
        let target = haar_unitary(4, &mut rng);
        let cost_fn = HsCost::new(&t, &target);
        let mut ws = cost_fn.workspace();
        let params: Vec<f64> = (0..t.num_params())
            .map(|_| rng.random_range(-3.0..3.0))
            .collect();
        let mut grad = vec![0.0; t.num_params()];
        let c0 = cost_fn.cost_and_grad(&mut ws, &params, &mut grad);
        assert!((c0 - cost_fn.cost(&mut ws, &params)).abs() < 1e-12);
        let h = 1e-6;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += h;
            let fd = (cost_fn.cost(&mut ws, &pp) - c0) / h;
            assert!(
                (fd - grad[i]).abs() < 1e-4,
                "param {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn gradient_matches_fd_on_three_qubits() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Template::initial(3).with_layer(0, 2).with_layer(1, 2);
        let target = haar_unitary(8, &mut rng);
        let cost_fn = HsCost::new(&t, &target);
        let mut ws = cost_fn.workspace();
        let params: Vec<f64> = (0..t.num_params())
            .map(|_| rng.random_range(-3.0..3.0))
            .collect();
        let mut grad = vec![0.0; t.num_params()];
        let c0 = cost_fn.cost_and_grad(&mut ws, &params, &mut grad);
        let h = 1e-6;
        for i in (0..params.len()).step_by(5) {
            let mut pp = params.clone();
            pp[i] += h;
            let fd = (cost_fn.cost(&mut ws, &pp) - c0) / h;
            assert!(
                (fd - grad[i]).abs() < 1e-4,
                "param {i}: {fd} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn distance_of_cost_is_process_distance() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Template::initial(2).with_layer(0, 1);
        let target = haar_unitary(4, &mut rng);
        let params: Vec<f64> = (0..t.num_params())
            .map(|_| rng.random_range(-3.0..3.0))
            .collect();
        let cost_fn = HsCost::new(&t, &target);
        let cost = cost_fn.cost(&mut cost_fn.workspace(), &params);
        let direct = qmath::hs::process_distance(&target, &t.unitary(&params));
        assert!((HsCost::distance(cost) - direct).abs() < 1e-9);
    }

    #[test]
    fn workspace_reuse_is_stable() {
        // Evaluating twice with the same workspace gives bit-identical
        // results (no state leaks between evaluations).
        let mut rng = StdRng::seed_from_u64(5);
        let t = Template::initial(3).with_layer(0, 1).with_layer(1, 2);
        let target = haar_unitary(8, &mut rng);
        let cost_fn = HsCost::new(&t, &target);
        let mut ws = cost_fn.workspace();
        let params: Vec<f64> = (0..t.num_params())
            .map(|_| rng.random_range(-3.0..3.0))
            .collect();
        let other: Vec<f64> = (0..t.num_params())
            .map(|_| rng.random_range(-3.0..3.0))
            .collect();
        let mut g1 = vec![0.0; t.num_params()];
        let mut g2 = vec![0.0; t.num_params()];
        let c1 = cost_fn.cost_and_grad(&mut ws, &params, &mut g1);
        let _ = cost_fn.cost_and_grad(&mut ws, &other, &mut g2);
        let c2 = cost_fn.cost_and_grad(&mut ws, &params, &mut g2);
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(g1, g2);
    }

    #[test]
    fn batched_matches_serial_per_lane_bitwise() {
        // The core SoA contract: each lane of a batched evaluation is
        // bit-identical to a width-1 evaluation of that lane's parameters.
        let mut rng = StdRng::seed_from_u64(6);
        let t = Template::initial(3)
            .with_layer(0, 1)
            .with_layer(1, 2)
            .with_layer(2, 0);
        let target = haar_unitary(8, &mut rng);
        let cost_fn = HsCost::new(&t, &target);
        let p = t.num_params();
        let mut serial_ws = cost_fn.workspace();
        for lanes in [1usize, 2, 3, 5, 8] {
            let mut ws = cost_fn.batch_workspace(lanes);
            let per_lane: Vec<Vec<f64>> = (0..lanes)
                .map(|_| (0..p).map(|_| rng.random_range(-3.0..3.0)).collect())
                .collect();
            let mut xs = vec![0.0; p * lanes];
            for (b, lp) in per_lane.iter().enumerate() {
                for (i, &v) in lp.iter().enumerate() {
                    xs[i * lanes + b] = v;
                }
            }
            let mut costs = vec![0.0; lanes];
            let mut grads = vec![0.0; p * lanes];
            cost_fn.cost_and_grad_batch(&mut ws, lanes, &xs, &mut costs, &mut grads);
            let mut bcosts = vec![0.0; lanes];
            cost_fn.cost_batch(&mut ws, lanes, &xs, &mut bcosts);
            for (b, lp) in per_lane.iter().enumerate() {
                let mut grad = vec![0.0; p];
                let c = cost_fn.cost_and_grad(&mut serial_ws, lp, &mut grad);
                assert_eq!(c.to_bits(), costs[b].to_bits(), "lane {b} of {lanes}");
                for (i, &g) in grad.iter().enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        grads[i * lanes + b].to_bits(),
                        "lane {b} of {lanes}, param {i}"
                    );
                }
                let co = cost_fn.cost(&mut serial_ws, lp);
                assert_eq!(co.to_bits(), bcosts[b].to_bits(), "cost-only lane {b}");
            }
        }
    }

    #[test]
    fn batched_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Template::initial(2).with_layer(0, 1).with_layer(1, 0);
        let target = haar_unitary(4, &mut rng);
        let cost_fn = HsCost::new(&t, &target);
        let p = t.num_params();
        let lanes = 4;
        let mut ws = cost_fn.batch_workspace(lanes);
        let mut xs = vec![0.0; p * lanes];
        for v in xs.iter_mut() {
            *v = rng.random_range(-3.0..3.0);
        }
        let mut costs = vec![0.0; lanes];
        let mut grads = vec![0.0; p * lanes];
        cost_fn.cost_and_grad_batch(&mut ws, lanes, &xs, &mut costs, &mut grads);
        let h = 1e-6;
        let mut fd_costs = vec![0.0; lanes];
        for i in (0..p).step_by(4) {
            let mut pp = xs.clone();
            for b in 0..lanes {
                pp[i * lanes + b] += h;
            }
            cost_fn.cost_batch(&mut ws, lanes, &pp, &mut fd_costs);
            for b in 0..lanes {
                let fd = (fd_costs[b] - costs[b]) / h;
                assert!(
                    (fd - grads[i * lanes + b]).abs() < 1e-4,
                    "lane {b} param {i}: fd {fd} vs analytic {}",
                    grads[i * lanes + b]
                );
            }
        }
    }
}
