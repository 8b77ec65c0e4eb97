//! In-memory spans recorded around calls into each layer.
//!
//! A span is `(id, parent, name, start, end)`; spans are held in memory
//! and written out once the run ends. A span's *self time* is its
//! duration minus the part of its interval covered by its children
//! (children may overlap when a layer fans out over threads, so the
//! covered part is the union of the child intervals).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of the implicit root; spans with this parent are top level.
pub const ROOT: u32 = 0;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// The span that calls on other threads (store syncs from shard
    /// workers) are attributed to.
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(ROOT + 1),
            current: AtomicU32::new(ROOT),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (its record is written by [`Tracer::record`]).
    pub fn open(&self) -> u32 {
        // Relaxed: the counter only hands out unique ids; it publishes
        // no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Time `f` as span `name` under `parent`, making it the current
    /// span for calls made on other threads while it runs.
    pub fn span<R>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        let id = self.open();
        // SeqCst: a shard worker reading `current` must see the span
        // opened before the call that spawned its work.
        let outer = self.current.swap(id, Ordering::SeqCst);
        let start = self.now();
        let r = f(id);
        let end = self.now();
        self.current.store(outer, Ordering::SeqCst);
        self.record(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        r
    }

    /// The span calls from other threads are attributed to.
    pub fn current(&self) -> u32 {
        self.current.load(Ordering::SeqCst)
    }

    /// Remove and return every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Per span name: (call count, total time s, self time s).
pub fn summarize(spans: &[Span]) -> HashMap<&'static str, (u64, f64, f64)> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: HashMap<&'static str, (u64, f64, f64)> = HashMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_len(c, s.start, s.end));
        let total = s.end.saturating_sub(s.start);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total as f64 * 1e-9;
        e.2 += total.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cur_lo, mut cur_hi) = (0, 0, 0);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        if a > cur_hi {
            covered += cur_hi - cur_lo;
            (cur_lo, cur_hi) = (a, b);
        } else {
            cur_hi = cur_hi.max(b);
        }
    }
    covered + (cur_hi - cur_lo)
}

/// Spans as tab-separated lines: `id parent name start_ns end_ns`.
pub fn to_tsv(spans: &[Span], out: &mut String) {
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start, s.end
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, ROOT, "tick", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50),  // overlaps `a`: union is [10, 50)
            span(4, 1, "c", 90, 120), // clipped to the parent's end
        ];
        let s = summarize(&spans);
        let tick = s["tick"];
        assert_eq!(tick.0, 1);
        assert!((tick.2 - 50e-9).abs() < 1e-15, "self time {}", tick.2);
        assert!((s["a"].2 - 30e-9).abs() < 1e-15);
    }
}
