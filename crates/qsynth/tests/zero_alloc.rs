//! Proves the gradient hot path performs zero heap allocations per
//! evaluation once its workspace exists.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this lives
//! in its own integration-test binary so the counter sees only this test's
//! traffic. CI runs it as part of the observability smoke step — a
//! regression that reintroduces per-eval allocation fails loudly here
//! rather than showing up as a silent slowdown in `BENCH_pipeline.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter so the libtest harness thread (timers, channel sends)
// can't leak unrelated allocations into the measured window. Const-init so
// the first access from inside the allocator itself never allocates.
thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn cost_and_grad_is_allocation_free_after_workspace_construction() {
    use qsynth::cost::HsCost;
    use qsynth::Template;

    let template = qsynth::Template::initial(4)
        .with_layer(0, 1)
        .with_layer(1, 2)
        .with_layer(2, 3);
    let target_template = Template::initial(4).with_layer(0, 3).with_layer(1, 2);
    let tparams: Vec<f64> = (0..target_template.num_params())
        .map(|i| 0.17 * i as f64 - 1.3)
        .collect();
    let target = target_template.unitary(&tparams);

    let cost = HsCost::new(&template, &target);
    let params: Vec<f64> = (0..cost.num_params()).map(|i| 0.1 * i as f64).collect();
    let mut ws = cost.workspace();
    let mut grad = vec![0.0; cost.num_params()];

    // Warm-up: any lazily initialized state (metrics registry, thread-local
    // buffers) allocates here, not inside the measured window.
    let warm = cost.cost_and_grad(&mut ws, &params, &mut grad);

    let before = allocations();
    let mut acc = 0.0;
    for _ in 0..100 {
        acc += cost.cost_and_grad(&mut ws, &params, &mut grad);
        acc += cost.cost(&mut ws, &params);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "gradient evaluation allocated on the heap"
    );
    // Anchor the loop against being optimized out, and sanity-check values.
    assert!((acc - 200.0 * warm).abs() < 1e-9);
    assert!(grad.iter().any(|g| g.abs() > 1e-12));
}

#[test]
fn batched_cost_and_grad_is_allocation_free_after_workspace_construction() {
    use qmath::kernels::MAX_BATCH;
    use qsynth::cost::HsCost;
    use qsynth::Template;

    let template = qsynth::Template::initial(4)
        .with_layer(0, 1)
        .with_layer(1, 2)
        .with_layer(2, 3);
    let target_template = Template::initial(4).with_layer(0, 3).with_layer(1, 2);
    let tparams: Vec<f64> = (0..target_template.num_params())
        .map(|i| 0.17 * i as f64 - 1.3)
        .collect();
    let target = target_template.unitary(&tparams);

    let cost = HsCost::new(&template, &target);
    let p = cost.num_params();
    let mut ws = cost.batch_workspace(MAX_BATCH);
    let xs: Vec<f64> = (0..p * MAX_BATCH).map(|i| 0.03 * i as f64 - 1.1).collect();
    let mut costs = [0.0; MAX_BATCH];
    let mut grads = vec![0.0; p * MAX_BATCH];

    // Warm-up sweep over every lane count down to 1 (the batch API is a
    // loop of one-lane evaluations, and no lane count may allocate); it
    // also records the expected lane-0 cost sum.
    let mut sweep = |acc: &mut f64| {
        for lanes in (1..=MAX_BATCH).rev() {
            cost.cost_and_grad_batch(
                &mut ws,
                lanes,
                &xs[..p * lanes],
                &mut costs[..lanes],
                &mut grads[..p * lanes],
            );
            *acc += costs[0];
            cost.cost_batch(&mut ws, lanes, &xs[..p * lanes], &mut costs[..lanes]);
            *acc += costs[0];
        }
    };
    let mut warm = 0.0;
    sweep(&mut warm);

    let before = allocations();
    let mut acc = 0.0;
    for _ in 0..25 {
        sweep(&mut acc);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "batched gradient evaluation allocated on the heap"
    );
    // Anchor the loop against being optimized out: evaluations are
    // bit-reproducible, so the measured sweeps match the warm sweep.
    assert!((acc - 25.0 * warm).abs() < 1e-9);
    assert!(grads.iter().any(|g| g.abs() > 1e-12));
}
