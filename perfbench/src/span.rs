//! In-memory spans recorded around the calls the benchmark makes into
//! each layer. Spans live in a per-thread [`SpanLog`] and are summarised
//! when the run ends; nothing is written while the clock runs.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval: what ran, when, the span that caused it, and the
/// request it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.get` or `harness.verify`.
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch (equal to `start_ns`
    /// while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans one thread recorded.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Records a closed span directly.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span, indexed like the log: a span's duration
    /// minus the part of its interval that its children cover
    /// (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let parent = &self.spans[p];
                let clip = |t: u64| t.clamp(parent.start_ns, parent.end_ns);
                children[p].push((clip(c.start_ns), clip(c.end_ns)));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut covered)| {
                covered.sort_unstable();
                let mut union = 0;
                let mut reach = span.start_ns;
                for (s, e) in covered {
                    let s = s.max(reach);
                    if e > s {
                        union += e - s;
                        reach = e;
                    }
                }
                span.duration_ns() - union
            })
            .collect()
    }

    /// Per span name: how many spans, their total duration, and their
    /// total self time, in nanoseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Distinct requests the spans belong to.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Adds another aggregate.
    pub fn merge(&mut self, other: SpanTotals) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let mut log = SpanLog::new();
        let root = log.push(span("op.get", None, 100, 200));
        log.push(span("client.get", Some(root), 110, 150));
        log.push(span("harness.verify", Some(root), 160, 170));
        let selfs = log.self_times_ns();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[1], 40); // a leaf's self time is its duration
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut log = SpanLog::new();
        let root = log.push(span("op.put", None, 0, 100));
        log.push(span("a", Some(root), 10, 50));
        log.push(span("b", Some(root), 30, 60)); // overlaps a: union 10..60
        log.push(span("c", Some(root), 90, 130)); // overhangs the parent: 90..100
        let grandchild = log.push(span("d", Some(1), 20, 30));
        let selfs = log.self_times_ns();
        assert_eq!(selfs[root], 100 - 50 - 10);
        // Grandchildren are the child's business, not the root's.
        assert_eq!(selfs[1], 40 - 10);
        assert_eq!(selfs[grandchild], 10);
        let summary = log.summary();
        assert_eq!(
            summary["a"],
            SpanTotals {
                count: 1,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(summary["op.put"].self_ns, 40);
        assert_eq!(log.requests(), 1);
    }

    #[test]
    fn open_and_close_measure_wall_time() {
        let mut log = SpanLog::new();
        let id = log.open("x", 1, None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(id);
        assert!(log.summary()["x"].total_ns >= 2_000_000);
    }
}
