//! Model checks of the bounded work-queue / `OnceLock` publication handoff
//! in `qsynth::pool::run_indexed`, the one queue behind LEAP frontier
//! expansion and the pipeline's block pool: workers claim job indices from
//! an atomic counter and publish results into per-job cells; a job-ordered
//! walk of the cells then reduces deterministically.
//!
//! The models are written against the `loom` API (`loom::model`,
//! `loom::thread`, `loom::sync`), so they run unmodified under the real
//! loom checker when it is available; in this offline container the `loom`
//! shim (shims/loom) executes them as bounded stress iteration with
//! deterministic schedule perturbation. The checked properties are
//! schedule-independent either way:
//!
//! 1. every job is claimed by exactly one worker and its cell set exactly
//!    once (no lost or duplicated work),
//! 2. the reduction over cells is independent of worker count and
//!    completion order,
//! 3. a worker dying mid-job loses only its own claimed job — survivors
//!    drain the queue and the hole is detectable (the `None` slot callers
//!    degrade or retry).

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, OnceLock};

const JOBS: usize = 7;

/// Spawns `width` workers draining the queue; worker `dying` (if any)
/// returns right after claiming its first job without publishing. Returns
/// the cells after all workers joined.
fn run_pool(width: usize, dying: Option<usize>) -> Vec<Option<usize>> {
    let cells: Arc<Vec<OnceLock<usize>>> = Arc::new((0..JOBS).map(|_| OnceLock::new()).collect());
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..width)
        .map(|w| {
            let cells = Arc::clone(&cells);
            let next = Arc::clone(&next);
            loom::thread::spawn(move || loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= JOBS {
                    break;
                }
                if dying == Some(w) {
                    // Model a worker panic: the claimed job is never
                    // published. (A real panic would also unwind, but the
                    // observable effect on the cells is identical.)
                    break;
                }
                // Deterministic per-job result, independent of the worker.
                let fresh = cells[j].set(j * j + 1).is_ok();
                assert!(fresh, "job {j} claimed twice");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("model worker joins");
    }
    cells.iter().map(|c| c.get().copied()).collect()
}

#[test]
fn every_job_set_exactly_once_at_any_width() {
    loom::model(|| {
        for width in [1, 2, 3] {
            let got = run_pool(width, None);
            for (j, slot) in got.iter().enumerate() {
                assert_eq!(*slot, Some(j * j + 1), "job {j} at width {width}");
            }
        }
    });
}

#[test]
fn reduction_is_width_invariant() {
    loom::model(|| {
        let serial: Vec<Option<usize>> = run_pool(1, None);
        for width in [2, 4] {
            assert_eq!(run_pool(width, None), serial, "width {width}");
        }
    });
}

#[test]
fn dying_worker_loses_only_its_claimed_job() {
    loom::model(|| {
        let got = run_pool(3, Some(1));
        let holes = got.iter().filter(|s| s.is_none()).count();
        assert!(
            holes <= 1,
            "a dying worker loses at most its one claimed job"
        );
        for (j, slot) in got.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, j * j + 1, "published cells are uncorrupted");
            }
        }
    });
}
