//! The benchmark's own span tracer.
//!
//! A span records its name, start, end and parent. The benchmark opens one
//! around every public call it makes into the program; in the traced pass
//! the spans the program's telemetry recorder already keeps are absorbed
//! into the same tree, parented by time containment. Everything stays in
//! memory until [`Tracer::write_jsonl`] writes it once at the end.

use std::time::Instant;

/// Which recorder produced a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Opened by the benchmark around a public call, on the main thread.
    Bench,
    /// Absorbed from the program's telemetry recorder; the value is the
    /// recorder's thread id.
    Recorder(usize),
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub source: Source,
    /// Allocation calls and requested bytes while the span was open (all
    /// threads); zero for absorbed spans.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Does this span's interval contain `other`'s, give or take `slack_ns`?
    fn contains(&self, other: &Span, slack_ns: u64) -> bool {
        self.start_ns <= other.start_ns + slack_ns && other.end_ns <= self.end_ns + slack_ns
    }
}

/// Tolerance for containment between a bench span and an absorbed one,
/// whose clocks are aligned by one bracketed reading.
pub const CLOCK_SLACK_NS: u64 = 1_000;

/// Records spans when on; when off, [`Tracer::span`] only runs the call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let (allocs, alloc_bytes) = crate::alloc::totals();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            source: Source::Bench,
            allocs,
            alloc_bytes,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        let (calls, bytes) = crate::alloc::totals();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.allocs = calls - s.allocs;
        s.alloc_bytes = bytes - s.alloc_bytes;
        out
    }

    /// Absorb the program's recorder spans. `offset_ns` converts recorder
    /// time to tracer time (`tracer = recorder - offset`); `main_tid` is the
    /// recorder's id for the thread the benchmark runs on. Both clocks are
    /// `Instant`s, so the offset is a constant, known to within the
    /// [`CLOCK_SLACK_NS`] a bench span is allowed around an absorbed child.
    ///
    /// Parents are assigned by time containment: the innermost span that
    /// contains the absorbed one, among spans of the same recorder thread
    /// and spans of the main thread. A span on a worker thread with no
    /// enclosing span of its own thread thus hangs under the main-thread
    /// call that started the worker.
    pub fn absorb(&mut self, records: &[telemetry::SpanRecord], offset_ns: i64, main_tid: usize) {
        let first = self.spans.len();
        for r in records {
            let start = (r.start_ns as i64 - offset_ns).max(0) as u64;
            self.spans.push(Span {
                name: r.name.to_string(),
                start_ns: start,
                end_ns: start + r.dur_ns,
                parent: None,
                source: Source::Recorder(r.tid),
                allocs: 0,
                alloc_bytes: 0,
            });
        }
        let on_main = |s: &Span| match s.source {
            Source::Bench => true,
            Source::Recorder(t) => t == main_tid,
        };
        for i in first..self.spans.len() {
            let child = &self.spans[i];
            let mut best: Option<usize> = None;
            for (j, cand) in self.spans.iter().enumerate() {
                let slack = if cand.source == Source::Bench {
                    CLOCK_SLACK_NS
                } else {
                    0
                };
                let eligible = j != i
                    && cand.contains(child, slack)
                    && (cand.source == child.source || on_main(cand))
                    // Equal intervals: bench spans enclose recorder spans,
                    // and a recorder records a parent after its children.
                    && (cand.dur_ns() > child.dur_ns()
                        || cand.source == Source::Bench
                        || (child.source != Source::Bench && j > i));
                if eligible && best.is_none_or(|b| self.spans[b].dur_ns() > cand.dur_ns()) {
                    best = Some(j);
                }
            }
            self.spans[i].parent = best;
        }
    }

    /// Children of every span, by index.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Self time of span `idx`: its duration minus the part of its interval
    /// that its children cover (children on parallel threads overlap, so the
    /// union is taken, not the sum).
    pub fn self_ns(&self, idx: usize, children: &[Vec<usize>]) -> u64 {
        let s = &self.spans[idx];
        let mut iv: Vec<(u64, u64)> = children[idx]
            .iter()
            .map(|&c| {
                let c = &self.spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        s.dur_ns() - covered
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let thread = match s.source {
                Source::Bench => "\"main\"".to_string(),
                Source::Recorder(t) => t.to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"thread\":{thread},\"allocs\":{},\"alloc_bytes\":{}}}",
                telemetry::json_escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.alloc_bytes
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            source: Source::Bench,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer(vec![
            span("root", 0, 100, None),
            // Two children running in parallel overlap on [20, 30).
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild does not count against the root again.
            span("a.x", 12, 28, Some(1)),
        ]);
        let kids = t.children();
        assert_eq!(t.self_ns(0, &kids), 100 - 40 - 10);
        assert_eq!(t.self_ns(1, &kids), 20 - 16);
        assert_eq!(t.self_ns(2, &kids), 30);
        assert_eq!(t.self_ns(4, &kids), 16);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let t = tracer(vec![span("p", 10, 20, None), span("late", 15, 40, Some(0))]);
        assert_eq!(t.self_ns(0, &t.children()), 5);
    }

    #[test]
    fn nested_spans_get_parents_and_self_times() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |t| t.span("leaf", |_| ()));
            t.span("sibling", |_| ());
        });
        let names: Vec<(&str, Option<usize>)> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("leaf", Some(1)),
                ("sibling", Some(0))
            ]
        );
        let kids = t.children();
        let sum: u64 = (0..4).map(|i| t.self_ns(i, &kids)).sum();
        assert_eq!(sum, t.spans()[0].dur_ns(), "self times partition the root");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_nest_by_thread_and_time() {
        let mut t = tracer(vec![span("bench.call", 0, 1_000, None)]);
        let rec = |name: &'static str, tid: usize, start: u64, end: u64| telemetry::SpanRecord {
            name,
            detail: None,
            tid,
            start_ns: start,
            dur_ns: end - start,
            sim_start_us: None,
            sim_end_us: None,
        };
        // Recorder clock runs 5 ns ahead; thread 0 is the main thread.
        t.absorb(
            &[
                rec("stage", 0, 105, 905),
                rec("worker.item", 3, 205, 405),
                rec("worker.item.sampled", 3, 215, 225),
                rec("other.worker.item", 4, 210, 300),
            ],
            5,
            0,
        );
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2), Some(1)]);
        assert_eq!(t.spans()[1].start_ns, 100);
    }
}
