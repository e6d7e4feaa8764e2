//! Host-time spans recorded from the benchmark's own code.
//!
//! Each span carries a layer name, start and end (nanoseconds since the
//! recorder's epoch), its parent span and the request it belongs to.
//! Spans stay in memory until the run ends.
//!
//! Some layers run inside a single public call and cannot be wrapped
//! separately (the plan passes inside `Pipeline::plan`, the snapshot
//! save inside `BootRequest::checkpoint_at`). For those the benchmark
//! records a *probe*: after the request's root span has closed, it
//! calls the inner layer again on the same inputs and files the
//! measured duration under the span it belongs to. A probe lies outside
//! its parent's interval, so it is subtracted from the parent's self
//! time by duration instead of by overlap, and it never inflates the
//! request's end-to-end span.

use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder epoch (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (operation or ticket) the span belongs to.
    pub request: u64,
    /// True for a probe: timed after the request, attributed by
    /// duration to `parent`.
    pub probe: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
            probe: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Wraps `f` in a span that is a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Runs `f` as a probe attributed to `parent` (see the module docs).
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let (id, out) = self.span(name, parent, f);
        self.spans[id].probe = true;
        (id, out)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }
}

/// A span's self time: its duration minus the part of its interval its
/// direct child spans cover, minus the durations of probes attributed
/// to it. Never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut inner: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut probed = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if s.probe {
                probed[p] += s.duration();
            } else {
                let parent = &spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if a < b {
                    inner[p].push((a, b));
                }
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = union_len(&mut inner[i]);
            s.duration().saturating_sub(covered + probed[i])
        })
        .collect()
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Cost of recording one span, in nanoseconds, measured on this host by
/// recording `n` empty spans.
pub fn span_cost_ns(n: usize) -> f64 {
    let mut rec = Recorder::new();
    let root = rec.open("calibrate", None, 0);
    let started = Instant::now();
    for _ in 0..n {
        let id = rec.open("calibrate", Some(root), 0);
        rec.close(id);
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    rec.close(root);
    std::hint::black_box(rec.spans().len());
    elapsed / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 100, None),
            span("a", 0, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 95, 120, Some(0)),
        ];
        // Covered: [10, 60) and [95, 100) = 55 of 90.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn probes_are_subtracted_by_duration_and_never_below_zero() {
        let mut spans = vec![
            span("root", 0, 100, None),
            span("plan", 0, 80, Some(0)),
            span("plan.graph", 200, 230, Some(1)),
            span("plan.order", 230, 250, Some(1)),
        ];
        spans[2].probe = true;
        spans[3].probe = true;
        let st = self_times(&spans);
        // The probes lie outside root: root only loses its real child.
        assert_eq!(st[0], 20);
        assert_eq!(st[1], 80 - 30 - 20);
        spans[3].end = 300;
        assert_eq!(self_times(&spans)[1], 0);
    }

    #[test]
    fn recorder_spans_nest_and_probes_are_marked() {
        let mut rec = Recorder::new();
        let root = rec.open("op", None, 7);
        let (child, v) = rec.span("work", root, || 21 * 2);
        rec.close(root);
        let (probe, ()) = rec.probe("work.part", child, || ());
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!(spans[child].request, 7);
        assert!(spans[probe].probe && !spans[child].probe);
        let st = rec.self_times();
        assert!(st[root] + spans[child].duration() == spans[root].duration());
    }
}
