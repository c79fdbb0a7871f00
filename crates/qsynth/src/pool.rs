//! The bounded work queue both parallel layers of the synthesis stage run
//! on: LEAP frontier expansion ([`crate::synthesize`]) and the pipeline's
//! block pool.
//!
//! [`run_indexed`] runs `f(j)` for every job index `j < jobs` on at most
//! `width` scoped worker threads. Workers claim indices in ascending order
//! from one atomic counter and publish each result into that job's own
//! cell, so the returned slots are in job order whatever the schedule.
//! Callers reduce them in that order, which keeps every result
//! bit-identical at every width. `tests/loom_queue.rs` model-checks the
//! claim-and-publish handoff.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `f(j)` for every `j < jobs` on at most `width` scoped workers and
/// returns the results in job order.
///
/// A slot is `None` when its job never finished: its worker died (the
/// survivors keep draining the queue), or `stop` returned `true` before
/// the job was claimed. `stop` is polled before every claim, so a fired
/// predicate lets in-flight jobs finish but starts no new one.
///
/// At width 1 (or with at most one job) the jobs run inline on the calling
/// thread, in order, with no threads spawned; a panic in `f` then reaches
/// the caller as it would from a plain loop.
pub fn run_indexed<T, F, S>(jobs: usize, width: usize, stop: S, f: F) -> Vec<Option<T>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
    S: Fn() -> bool + Sync,
{
    let width = width.min(jobs);
    if width <= 1 {
        let mut out: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        for (j, slot) in out.iter_mut().enumerate() {
            if stop() {
                break;
            }
            *slot = Some(f(j));
        }
        return out;
    }
    let cells: Vec<OnceLock<T>> = (0..jobs).map(|_| OnceLock::new()).collect();
    // `Relaxed` suffices: the counter only hands out indices. Results reach
    // the caller through the cells, which the joins below order before the
    // collection.
    let next = AtomicUsize::new(0);
    let _ = crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|_| {
                    while !stop() {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs {
                            break;
                        }
                        let _ = cells[j].set(f(j));
                    }
                })
            })
            .collect();
        // Joining every worker keeps a panic inside the pool: the dead
        // worker's claimed job stays `None` and the caller degrades it.
        for worker in workers {
            if worker.join().is_err() {
                qobs::metrics::counter("qsynth.worker_panics", 1);
            }
        }
    });
    cells.into_iter().map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn every_width_returns_every_job_in_order() {
        for width in [1, 2, 3, 8] {
            let got = run_indexed(7, width, || false, |j| j * j);
            let want: Vec<Option<usize>> = (0..7).map(|j| Some(j * j)).collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn zero_jobs_and_zero_width_are_empty_or_inline() {
        assert!(run_indexed(0, 4, || false, |j| j).is_empty());
        assert_eq!(run_indexed(2, 0, || false, |j| j), vec![Some(0), Some(1)]);
    }

    #[test]
    fn a_fired_stop_leaves_unclaimed_jobs_empty() {
        let stop = AtomicBool::new(false);
        let got = run_indexed(
            4,
            1,
            || stop.load(Ordering::Relaxed),
            |j| {
                stop.store(j == 1, Ordering::Relaxed);
                j
            },
        );
        assert_eq!(got, vec![Some(0), Some(1), None, None]);
        assert_eq!(run_indexed(4, 2, || true, |j| j), vec![None; 4]);
    }

    #[test]
    fn a_dying_worker_leaves_only_its_job_empty() {
        let got = run_indexed(
            5,
            2,
            || false,
            |j| {
                assert!(j != 3, "injected worker death");
                j
            },
        );
        assert_eq!(got, vec![Some(0), Some(1), Some(2), None, Some(4)]);
    }
}
