//! Spans recorded from the benchmark's own side of each layer boundary,
//! kept in memory and written out when the run ends.
//!
//! A compile is traced through `Quest::try_compile_observed`: the recorder
//! timestamps each pipeline event on the thread that raised it, and
//! [`Trace::add_compile`] turns one compile's events into spans. A service
//! job's spans come from the client's own event timestamps (see
//! `service.rs`). Nothing inside the program is instrumented.

use qobs::json::Json;
use quest::{CompileEvent, CompileObserver, StageTimings};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One timed interval, in seconds since the trace epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `qpartition` or `quest.block`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (compile or service job) the span belongs to.
    pub op: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Total length covered by `intervals` (overlaps counted once).
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Every span of one run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Seconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        op: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Summed durations of the spans called `name` (the layer's busy time).
    pub fn busy(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    fn children(&self, idx: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(idx))
    }

    /// A span's duration minus the union of its children's intervals
    /// (clipped to the span): overlapping children, such as block spans on
    /// two worker threads, are counted once.
    pub fn self_time(&self, idx: usize) -> f64 {
        let span = &self.spans[idx];
        let clipped: Vec<(f64, f64)> = self
            .children(idx)
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .collect();
        span.duration() - union_len(&clipped)
    }

    /// Summed self time of the spans called `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i))
            .sum()
    }

    /// Checks that a root span's child layers plus its unattributed (self)
    /// time add up to its wall time within 10%. Each child layer counts the
    /// union of its own spans, so two layers claiming the same instant show
    /// up as a sum above the wall time.
    pub fn covers(&self, idx: usize) -> bool {
        let span = &self.spans[idx];
        let mut names: Vec<&str> = self.children(idx).map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        let layers: f64 = names
            .iter()
            .map(|name| {
                let v: Vec<(f64, f64)> = self
                    .children(idx)
                    .filter(|c| c.name == *name)
                    .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                    .collect();
                union_len(&v)
            })
            .sum();
        (layers + self.self_time(idx) - span.duration()).abs() <= 0.1 * span.duration()
    }

    /// Records one compile's spans from the recorder's events: an `op`
    /// root from `start` to `end`, then `qpartition`, one `quest.block` per
    /// block, `qanneal.select` and `quest.reassemble`. The partition and
    /// selection spans end at their events and last as long as the
    /// pipeline's own stage timers say; each block span runs from the
    /// previous event on its worker thread. Returns the root's index, or
    /// `None` when an event is missing.
    pub fn add_compile(
        &mut self,
        op: usize,
        start: Instant,
        end: Instant,
        events: &[Event],
        timings: &StageTimings,
    ) -> Option<usize> {
        let (t0, t1) = (self.at(start), self.at(end));
        let root = self.push("op", t0, t1, None, op);
        let partitioned = events
            .iter()
            .find(|e| matches!(e.event, CompileEvent::Partitioned { .. }))?;
        let done = events
            .iter()
            .find(|e| matches!(e.event, CompileEvent::SelectionDone { .. }))?;
        let (tp, td) = (self.at(partitioned.at), self.at(done.at));
        let partition_start = (tp - timings.partition.as_secs_f64()).max(t0);
        self.push("qpartition", partition_start, tp, Some(root), op);
        let mut threads: Vec<ThreadId> = Vec::new();
        for e in events {
            if matches!(e.event, CompileEvent::BlockSynthesized { .. })
                && !threads.contains(&e.thread)
            {
                threads.push(e.thread);
            }
        }
        for thread in threads {
            let mut prev = tp;
            for e in events.iter().filter(|e| e.thread == thread) {
                if matches!(e.event, CompileEvent::BlockSynthesized { .. }) {
                    let t = self.at(e.at);
                    self.push("quest.block", prev, t, Some(root), op);
                    prev = t;
                }
            }
        }
        let select_start = (td - timings.annealing.as_secs_f64()).max(tp);
        self.push("qanneal.select", select_start, td, Some(root), op);
        self.push("quest.reassemble", td, t1, Some(root), op);
        Some(root)
    }

    /// Per-layer busy and self time, by span name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|n| {
                let count = self.spans.iter().filter(|s| s.name == n).count();
                (n, count, self.busy(n), self.self_total(n))
            })
            .collect()
    }

    /// The trace file: every span plus the per-layer summary.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("name".into(), Json::from(s.name)),
                    ("start".into(), Json::from(s.start)),
                    ("end".into(), Json::from(s.end)),
                    ("parent".into(), s.parent.map_or(Json::Null, Json::from)),
                    ("op".into(), Json::from(s.op)),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(n, count, busy, own)| {
                (
                    n.to_string(),
                    Json::Object(vec![
                        ("count".into(), Json::from(count)),
                        ("busy_s".into(), Json::from(busy)),
                        ("self_s".into(), Json::from(own)),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("workload".into(), Json::from(workload)),
            ("seed".into(), Json::from(seed)),
            ("summary".into(), Json::Object(summary)),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

/// One pipeline event as the recorder saw it.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When it was raised.
    pub at: Instant,
    /// The thread that raised it.
    pub thread: ThreadId,
    /// What happened.
    pub event: CompileEvent,
}

/// A `CompileObserver` that timestamps every event.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// The recorded events, in arrival order.
    pub fn take(self) -> Vec<Event> {
        self.events
            .into_inner()
            .expect("no recorder holder panics while holding the lock")
    }
}

impl CompileObserver for Recorder {
    fn event(&self, event: CompileEvent) {
        let e = Event {
            at: Instant::now(),
            thread: std::thread::current().id(),
            event,
        };
        self.events
            .lock()
            .expect("no recorder holder panics while holding the lock")
            .push(e);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)]
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]), 6.0);
        assert_eq!(union_len(&[(0.0, 5.0), (1.0, 2.0)]), 5.0);
        assert_eq!(union_len(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.push("op", 0.0, 10.0, None, 0);
        // Two block spans on different threads overlap on [3, 4]; a third
        // child runs past the parent's end and is clipped to it.
        t.push("quest.block", 1.0, 4.0, Some(root), 0);
        t.push("quest.block", 3.0, 6.0, Some(root), 0);
        t.push("quest.reassemble", 8.0, 12.0, Some(root), 0);
        // Children cover [1, 6] ∪ [8, 10] = 7 s of the 10 s root.
        assert_eq!(t.self_time(root), 3.0);
        assert_eq!(t.busy("quest.block"), 6.0);
        assert!(t.covers(root));
    }

    #[test]
    fn overlapping_layers_fail_the_cover_check() {
        let mut t = Trace::new(Instant::now());
        let root = t.push("op", 0.0, 10.0, None, 0);
        t.push("qpartition", 0.0, 6.0, Some(root), 0);
        t.push("qanneal.select", 4.0, 10.0, Some(root), 0);
        // The layers claim 12 s of a 10 s operation.
        assert!(!t.covers(root));
    }
}
