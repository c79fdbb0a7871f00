//! The Hilbert–Schmidt synthesis cost and its analytic gradient.
//!
//! The optimizer minimizes `C(θ) = 1 − |Tr(A† V(θ))|² / N²`, whose square
//! root is exactly QUEST's process distance. The gradient is computed
//! analytically with the standard prefix/suffix-product trick: with
//! `V = G_m · … · G_1`, every per-gate derivative needs only
//! `Tr(R_k · A† · L_k · ∂G_k)` where `R_k`/`L_k` are partial products.
//!
//! This is the synthesis hot loop (tens of thousands of evaluations per
//! pipeline run). The rule is one start at a time, one lane; threads =
//! `parallel_width`, spent above this module (LEAP's frontier and the
//! block pool). Within an evaluation the rule is **one AVX check per
//! evaluation; whole-matrix kernels**:
//!
//! * **One AVX region.** [`HsCost::cost`] and [`HsCost::cost_and_grad`]
//!   check for AVX once ([`qmath::simd::Avx::detect`]) and run the whole
//!   sweep inside one `#[target_feature(enable = "avx")]` function. The
//!   sweep is written once, generic over [`qmath::simd::Kernels`]; its
//!   second instantiation, [`qmath::simd::Scalar`], is the portable
//!   fallback, bit-identical to the first.
//! * **Whole-matrix kernels.** Each gate is one kernel call over the whole
//!   matrix: a `U3` mixes every row pair with its coefficients broadcast
//!   once, a CNOT writes each row through its row map, and the reduced-`Q`
//!   and derivative sums run their independent chains side by side while
//!   each keeps its own term order.
//! * **Incremental left product.** Instead of materializing a prefix stack
//!   and paying a dense `O(N³)` product `W_k = L_k · A†` per `U3`, the sweep
//!   carries `W` forward: `W_0 = A†`, then `W_{k+1} = G_{k+1} · W_k` — an
//!   `O(4N²)` bit-strided kernel per gate. Only the suffix stack is stored;
//!   of `Q_k = W_k · R_k` just the `2N` entries the 1-qubit derivative
//!   traces read are ever computed (the reduced-`Q` trick).
//! * **Row-based sweeps.** Every kernel left-multiplies. To keep the
//!   right-multiplying suffix sweep row-based, the suffix stack is stored
//!   transposed (`suffixᵀ[k] = G_kᵀ · suffixᵀ[k+1]`), which also makes the
//!   reduced-`Q` column reads contiguous.
//!
//! All scratch lives in a caller-owned [`Workspace`], so an evaluation
//! performs **zero heap allocations** (covered by the counting-allocator
//! test `tests/zero_alloc.rs`). The optimizer reaches it through
//! [`HsCost::cost_and_grad`].
//!
//! The batch API ([`HsCost::batch_workspace`], [`HsCost::cost_batch`],
//! [`HsCost::cost_and_grad_batch`]) is a loop over lanes through that same
//! one-lane path, so every lane is bit-identical to a single evaluation by
//! construction. Nothing in the pipeline calls it; it is kept only for the
//! `batch8` kernel microbenchmarks (questbench's `kernel.rs` and the
//! `perf_snapshot` binary), to be deleted with them.
//!
//! # Determinism
//!
//! No accumulation ever branches on a parameter value (exact-zero terms of
//! a `U3` are included rather than skipped; adding `±0` cannot change a
//! nonzero sum), and the AVX and scalar sweeps agree bit for bit. The
//! kernels are bit-identical to an embed-then-matmul reference of the same
//! formulation (`tests/kernel_equivalence.rs`).

use crate::template::{u3_entries, Template, TemplateOp, M2};
use qmath::kernels::MAX_BATCH;
#[cfg(target_arch = "x86_64")]
use qmath::simd::Avx;
use qmath::simd::{mla1, Kernels, Scalar};
use qmath::{Matrix, C64};

/// Per-op structural info the sweeps need: the bit positions each kernel
/// acts on (`2^(n−1−q)` for qubit `q`).
#[derive(Clone, Copy, Debug)]
enum OpKind {
    /// Free `U3` on the qubit at `bit`; `u` indexes its matrices in the
    /// workspace (template order among the `U3`s).
    U3 { bit: usize, u: usize },
    /// Fixed CNOT, control at `cbit`, target at `tbit`.
    Cnot { cbit: usize, tbit: usize },
}

/// Cost function object binding a target unitary to a template.
///
/// The object itself is immutable (and `Sync`); all per-evaluation scratch
/// lives in a [`Workspace`] obtained from this object.
pub struct HsCost<'a> {
    template: &'a Template,
    target: Matrix,
    /// `A†`, precomputed once.
    a_dag: Matrix,
    dim: usize,
    n2: f64,
    kinds: Vec<OpKind>,
    num_u3: usize,
    /// Op index of the last free `U3` — the forward `W` sweep stops there
    /// (later fixed gates contribute no gradient).
    last_u3: Option<usize>,
}

/// Reusable evaluation scratch for [`HsCost`] — construct once per
/// optimizer, evaluate many times with no heap traffic. Every matrix
/// buffer is a flat row-major `dim × dim` array.
pub struct Workspace {
    /// Each `U3`'s matrix, refilled every evaluation, in template order.
    u3: Vec<M2>,
    /// The three derivative matrices `∂_d G` of each `U3`, in template
    /// order.
    u3d: Vec<[M2; 3]>,
    /// `suffix[k] = G_m … G_{k+1}` (`suffix[m] = I`), stored **transposed**
    /// (entry `(i, j)` at `j·dim + i`) so the sweep
    /// `suffix[k] = suffix[k+1] · G_k` becomes the row-based left kernel
    /// `suffixᵀ[k] = G_kᵀ · suffixᵀ[k+1]`. The transposition also makes
    /// the reduced-`Q` reads (columns of `suffix`) contiguous.
    suffix: Vec<Vec<C64>>,
    /// The running left product `W = L_k · A†` (row-major).
    w: Vec<C64>,
    /// Double buffer for `w`: the kernels write out of place, so the sweep
    /// advances `w → w2` and swaps.
    w2: Vec<C64>,
    /// The two `Q` entries per row a 1-qubit derivative trace reads:
    /// `Q[i, (i & !bit) | x·bit]` at `2i + x` (the layout
    /// [`Kernels::reduced_q`] writes and [`Kernels::dtrace3`] reads).
    qred: Vec<C64>,
}

/// Scratch for the batch API: a one-lane [`Workspace`] plus one lane's
/// parameters and gradient, all sized when the workspace is built, so the
/// lane loop allocates nothing.
pub struct BatchWorkspace {
    /// Maximum lane count a batch call may pass.
    capacity: usize,
    one: Workspace,
    /// The current lane's parameters, gathered from the lane-major stack.
    x: Vec<f64>,
    /// The current lane's gradient, scattered back into the stack.
    g: Vec<f64>,
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
        let bit = |q: usize| 1usize << (n - 1 - q);
        let mut kinds = Vec::with_capacity(template.ops().len());
        let mut num_u3 = 0;
        let mut last_u3 = None;
        for (k, op) in template.ops().iter().enumerate() {
            match *op {
                TemplateOp::FreeU3 { qubit } => {
                    kinds.push(OpKind::U3 {
                        bit: bit(qubit),
                        u: num_u3,
                    });
                    num_u3 += 1;
                    last_u3 = Some(k);
                }
                TemplateOp::Cnot { control, target } => kinds.push(OpKind::Cnot {
                    cbit: bit(control),
                    tbit: bit(target),
                }),
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

    /// Allocates a fresh evaluation workspace.
    pub fn workspace(&self) -> Workspace {
        let sz = self.dim * self.dim;
        Workspace {
            u3: vec![[[C64::ZERO; 2]; 2]; self.num_u3],
            u3d: vec![[[[C64::ZERO; 2]; 2]; 3]; self.num_u3],
            suffix: (0..=self.kinds.len())
                .map(|_| vec![C64::ZERO; sz])
                .collect(),
            w: vec![C64::ZERO; sz],
            w2: vec![C64::ZERO; sz],
            qred: vec![C64::ZERO; 2 * self.dim],
        }
    }

    /// Allocates a fresh batch workspace for up to `capacity` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds [`MAX_BATCH`].
    pub fn batch_workspace(&self, capacity: usize) -> BatchWorkspace {
        assert!(
            (1..=MAX_BATCH).contains(&capacity),
            "batch capacity {capacity} out of range"
        );
        BatchWorkspace {
            capacity,
            one: self.workspace(),
            x: vec![0.0; self.num_params()],
            g: vec![0.0; self.num_params()],
        }
    }

    /// Refills the workspace's `U3` matrices (and, when `with_grads`, their
    /// derivatives) from `params`.
    fn load_params(&self, ws: &mut Workspace, params: &[f64], with_grads: bool) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        for (u, p) in params.chunks_exact(3).enumerate() {
            let (m, d) = u3_entries(p[0], p[1], p[2]);
            ws.u3[u] = m;
            if with_grads {
                ws.u3d[u] = d;
            }
        }
    }

    /// Evaluates the cost only (allocation-free given a workspace).
    ///
    /// # Panics
    ///
    /// Panics if `params` does not have `num_params()` entries.
    #[qstatic_attr::zero_alloc]
    pub fn cost(&self, ws: &mut Workspace, params: &[f64]) -> f64 {
        self.load_params(ws, params, false);
        #[cfg(target_arch = "x86_64")]
        if let Some(avx) = Avx::detect() {
            // SAFETY: `avx` proves this CPU runs AVX.
            return unsafe { self.cost_avx(avx, ws) };
        }
        self.cost_sweep(Scalar, ws)
    }

    /// Evaluates the cost and writes the gradient with respect to every
    /// parameter into `grad`. Allocation-free given a workspace.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grad` do not have `num_params()` entries.
    #[qstatic_attr::zero_alloc]
    pub fn cost_and_grad(&self, ws: &mut Workspace, params: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(grad.len(), self.num_params(), "gradient size mismatch");
        self.load_params(ws, params, true);
        #[cfg(target_arch = "x86_64")]
        if let Some(avx) = Avx::detect() {
            // SAFETY: `avx` proves this CPU runs AVX.
            return unsafe { self.grad_avx(avx, ws, grad) };
        }
        self.grad_sweep(Scalar, ws, grad)
    }

    /// [`Self::cost_sweep`] on the AVX kernels, in one AVX region.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    fn cost_avx(&self, avx: Avx, ws: &mut Workspace) -> f64 {
        self.cost_sweep(avx, ws)
    }

    /// [`Self::grad_sweep`] on the AVX kernels, in one AVX region.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    fn grad_avx(&self, avx: Avx, ws: &mut Workspace, grad: &mut [f64]) -> f64 {
        self.grad_sweep(avx, ws, grad)
    }

    /// The cost of the loaded parameters: `V` built from the identity, one
    /// kernel per gate, then `1 − |Tr(A† V)|² / N²`.
    #[inline(always)]
    #[qstatic_attr::zero_alloc]
    fn cost_sweep<K: Kernels>(&self, k: K, ws: &mut Workspace) -> f64 {
        fill_identity(&mut ws.w, self.dim);
        for &kind in &self.kinds {
            self.apply(k, kind, &ws.u3, false, &ws.w, &mut ws.w2);
            std::mem::swap(&mut ws.w, &mut ws.w2);
        }
        1.0 - self.trace(&ws.w).norm_sqr() / self.n2
    }

    /// The cost and gradient of the loaded parameters (see the module
    /// docs).
    #[inline(always)]
    #[qstatic_attr::zero_alloc]
    fn grad_sweep<K: Kernels>(&self, k: K, ws: &mut Workspace, grad: &mut [f64]) -> f64 {
        let m = self.kinds.len();
        let dim = self.dim;

        // Suffix sweep, kept transposed: suffixᵀ[k] = G_kᵀ · suffixᵀ[k+1]
        // is the row-based form of suffix[k] = suffix[k+1] · G_k. (The
        // identity seed is symmetric, so no transposition is needed there.)
        fill_identity(&mut ws.suffix[m], dim);
        for (i, &kind) in self.kinds.iter().enumerate().rev() {
            let (head, tail) = ws.suffix.split_at_mut(i + 1);
            self.apply(k, kind, &ws.u3, true, &tail[0], &mut head[i]);
        }

        // T = Tr(A† V); V = suffix[0] = G_m … G_1.
        let t = self.trace_transposed(&ws.suffix[0]);
        let cost = 1.0 - t.norm_sqr() / self.n2;

        // Forward sweep: W = L_k · A† advances incrementally; at each U3 the
        // reduced-Q columns and the three derivative traces are accumulated.
        let Some(last_u3) = self.last_u3 else {
            return cost; // no free parameters
        };
        ws.w.copy_from_slice(self.a_dag.as_slice());
        for (i, &kind) in self.kinds.iter().enumerate() {
            if let OpKind::U3 { bit, u } = kind {
                // Q[i, (i & !bit) | x·bit] over j ascending — the term order
                // of a dense W·R row product. Column `c` of `suffix` is row
                // `c` of the transposed stack, so both reads stream
                // contiguously.
                k.reduced_q(dim, bit, &ws.w, &ws.suffix[i + 1], &mut ws.qred);
                // dT = Tr(Q · ∂G) per derivative, accumulated in row-major
                // ascending-column order, the three chains side by side.
                // Exact-zero derivative entries are *included* (a ±0 addend
                // cannot change a nonzero sum), so the term set never
                // depends on the parameters.
                let dt = k.dtrace3(&ws.u3d[u], &ws.qred, bit);
                // dC = −2·Re(conj(T)·dT)/N².
                for (g, &dtv) in grad[3 * u..3 * u + 3].iter_mut().zip(&dt) {
                    *g = -2.0 * (t.conj() * dtv).re / self.n2;
                }
                if i == last_u3 {
                    break; // later fixed gates contribute no gradient
                }
            }
            self.apply(k, kind, &ws.u3, false, &ws.w, &mut ws.w2);
            std::mem::swap(&mut ws.w, &mut ws.w2);
        }
        cost
    }

    /// `dst = G · src`, or `Gᵀ · src` when `transposed`, for one template
    /// op. A CNOT is its own transpose.
    #[inline(always)]
    fn apply<K: Kernels>(
        &self,
        k: K,
        kind: OpKind,
        u3: &[M2],
        transposed: bool,
        src: &[C64],
        dst: &mut [C64],
    ) {
        match kind {
            OpKind::U3 { bit, u } => {
                let m = u3[u];
                let m = if transposed {
                    [[m[0][0], m[1][0]], [m[0][1], m[1][1]]]
                } else {
                    m
                };
                k.gate_1q(self.dim, bit, m, src, dst);
            }
            OpKind::Cnot { cbit, tbit } => k.cnot(self.dim, cbit, tbit, src, dst),
        }
    }

    /// Evaluates the cost for `lanes` parameter vectors packed lane-major in
    /// `xs` (`xs[p·lanes + b]` is parameter `p` of lane `b`), writing one
    /// cost per lane: a loop of [`HsCost::cost`] over the lanes.
    /// Allocation-free given a workspace.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds the workspace capacity, or a buffer
    /// length mismatches.
    #[qstatic_attr::zero_alloc]
    pub fn cost_batch(&self, ws: &mut BatchWorkspace, lanes: usize, xs: &[f64], costs: &mut [f64]) {
        self.check_batch(ws, lanes, xs);
        assert_eq!(costs.len(), lanes, "cost buffer size mismatch");
        for (b, c) in costs.iter_mut().enumerate() {
            gather_lane(&mut ws.x, xs, lanes, b);
            *c = self.cost(&mut ws.one, &ws.x);
        }
    }

    /// Evaluates cost and gradient for `lanes` parameter vectors packed
    /// lane-major in `xs`, writing one cost per lane and the gradients
    /// lane-major into `grads` (`grads[p·lanes + b]`): a loop of
    /// [`HsCost::cost_and_grad`] over the lanes. Allocation-free given a
    /// workspace.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds the workspace capacity, or a buffer
    /// length mismatches.
    #[qstatic_attr::zero_alloc]
    pub fn cost_and_grad_batch(
        &self,
        ws: &mut BatchWorkspace,
        lanes: usize,
        xs: &[f64],
        costs: &mut [f64],
        grads: &mut [f64],
    ) {
        self.check_batch(ws, lanes, xs);
        assert_eq!(costs.len(), lanes, "cost buffer size mismatch");
        assert_eq!(grads.len(), xs.len(), "gradient stack size mismatch");
        for (b, c) in costs.iter_mut().enumerate() {
            gather_lane(&mut ws.x, xs, lanes, b);
            *c = self.cost_and_grad(&mut ws.one, &ws.x, &mut ws.g);
            for (p, &g) in ws.g.iter().enumerate() {
                grads[p * lanes + b] = g;
            }
        }
    }

    fn check_batch(&self, ws: &BatchWorkspace, lanes: usize, xs: &[f64]) {
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
    }

    /// `Σ_{ij} conj(target[i][j]) · v[i][j]` — the Hilbert–Schmidt inner
    /// product `Tr(A† V)`, accumulated in row-major element order with the
    /// chain in a register.
    fn trace(&self, v: &[C64]) -> C64 {
        let mut acc = C64::ZERO;
        for (&a, &x) in self.target.as_slice().iter().zip(v) {
            acc = mla1(acc, a.conj(), x);
        }
        acc
    }

    /// [`Self::trace`] of a **transposed** buffer. The sum runs in the
    /// *original* row-major `(i, j)` element order (strided reads into the
    /// transposed buffer), so the accumulation chain is bit-identical to
    /// `trace` on the untransposed matrix.
    fn trace_transposed(&self, v_t: &[C64]) -> C64 {
        let dim = self.dim;
        let a = self.target.as_slice();
        let mut acc = C64::ZERO;
        for i in 0..dim {
            for j in 0..dim {
                acc = mla1(acc, a[i * dim + j].conj(), v_t[j * dim + i]);
            }
        }
        acc
    }
}

/// Copies lane `b` of the lane-major parameter stack `xs` into `x`.
#[inline]
fn gather_lane(x: &mut [f64], xs: &[f64], lanes: usize, b: usize) {
    for (p, v) in x.iter_mut().enumerate() {
        *v = xs[p * lanes + b];
    }
}

/// Resets a row-major buffer to the identity.
fn fill_identity(m: &mut [C64], dim: usize) {
    m.fill(C64::ZERO);
    for i in 0..dim {
        m[i * dim + i] = C64::ONE;
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
    fn avx_and_scalar_sweeps_agree_bitwise() {
        // `cost` and `cost_and_grad` run the AVX instantiation of the sweep
        // where this CPU has AVX; the scalar instantiation must match it on
        // the cost and every gradient entry, bit for bit.
        let mut rng = StdRng::seed_from_u64(8);
        for n in 1..=4usize {
            let max_layers = if n == 1 { 0 } else { 12 };
            for layers in 0..=max_layers {
                let t = (0..layers).fold(Template::initial(n), |t, _| {
                    let c = rng.random_range(0..n);
                    t.with_layer(c, (c + rng.random_range(1..n)) % n)
                });
                let target = haar_unitary(1 << n, &mut rng);
                let cost_fn = HsCost::new(&t, &target);
                let mut ws = cost_fn.workspace();
                let params: Vec<f64> = (0..t.num_params())
                    .map(|_| rng.random_range(-3.0..3.0))
                    .collect();
                let mut grad = vec![0.0; t.num_params()];
                let c = cost_fn.cost_and_grad(&mut ws, &params, &mut grad);
                let co = cost_fn.cost(&mut ws, &params);
                let mut grad_s = vec![0.0; t.num_params()];
                cost_fn.load_params(&mut ws, &params, true);
                let c_s = cost_fn.grad_sweep(Scalar, &mut ws, &mut grad_s);
                let co_s = cost_fn.cost_sweep(Scalar, &mut ws);
                let what = format!("n {n} layers {layers}");
                assert_eq!(c.to_bits(), c_s.to_bits(), "{what}: cost");
                assert_eq!(co.to_bits(), co_s.to_bits(), "{what}: cost only");
                for (i, (g, g_s)) in grad.iter().zip(&grad_s).enumerate() {
                    assert_eq!(g.to_bits(), g_s.to_bits(), "{what}: param {i}");
                }
            }
        }
    }

    #[test]
    fn batched_matches_serial_per_lane_bitwise() {
        // The lane loop: each lane of a batch call is bit-identical to a
        // single evaluation of that lane's parameters.
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
