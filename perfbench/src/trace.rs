//! In-memory span recording for the traced pass.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span (name, start, end, parent, job id). Spans stay in memory, one
//! [`Tracer`] per thread, are merged when a pass ends, and are written
//! out as JSONL when the run ends. A span's *self time* is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `sram.bank_build`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Job the span belongs to (chip job, daemon job or experiment).
    pub job: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer timing against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, parented to the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already finished interval as a child of the innermost
    /// open span — for phases delimited by callbacks rather than calls.
    pub fn record(&mut self, name: &str, job: u64, start: Instant, end: Instant) {
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            job,
        });
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in opening order per absorbed tracer.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (parallel to [`spans`](Tracer::spans)):
    /// duration minus the union of its children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Sum of span durations per `(name, job)`, in ns: the per-job total
    /// of a layer that is entered several times per job.
    pub fn per_job_totals_ns(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.job).or_insert(0.0) += s.duration_ns() as f64;
        }
        out
    }

    /// Per-job sum of self time over every span whose name is in
    /// `names`, in ns.
    pub fn per_job_self_ns(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let selfs = self.self_times_ns();
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            if names.contains(&s.name.as_str()) {
                *out.entry(s.job).or_insert(0.0) += own as f64;
            }
        }
        out
    }

    /// The spans as JSONL, one object per line with the parent index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: union is 10..60
            span("c", 50, 55, Some(2)),
        ];
        assert_eq!(t.self_times_ns(), vec![50, 30, 25, 5]);
        assert_eq!(t.per_job_self_ns(&["a", "b"]).get(&1), Some(&55.0));
    }

    #[test]
    fn nesting_and_absorb_keep_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        let mut b = Tracer::new(epoch);
        b.span("outer", 8, |t| t.span("inner", 8, |_| ()));
        a.absorb(b);
        let parents: Vec<Option<usize>> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert_eq!(a.durations_ns("inner").len(), 2);
        assert_eq!(a.to_jsonl().lines().count(), 4);
    }
}
