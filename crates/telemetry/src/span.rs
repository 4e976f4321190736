//! Span tracing: RAII guards that record wall-clock (and optionally
//! sim-time) intervals into a bounded global store.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on stored spans; past it, spans are counted as dropped rather
/// than growing memory without bound. Instrumentation is coarse (stages,
/// client-months, sampled transactions), so a real run stays far below this.
const MAX_SPANS: usize = 1 << 20;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Static span name, e.g. `"analysis.blame.table5"`.
    pub name: &'static str,
    /// Optional per-instance detail (a client name, a stage parameter).
    pub detail: Option<String>,
    /// Small per-thread id (assignment order, not OS thread id).
    pub tid: usize,
    /// Wall-clock start, nanoseconds since the process's telemetry epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Simulation-time start (microseconds), when the span covers sim work.
    pub sim_start_us: Option<u64>,
    /// Simulation-time end (microseconds).
    pub sim_end_us: Option<u64>,
}

static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Monotonic epoch shared by all spans of the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Small dense per-thread id for trace rows.
fn thread_tid() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static TID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    TID.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Relaxed);
            s.set(v);
        }
        v
    })
}

pub(crate) fn take_spans() -> (Vec<SpanRecord>, u64) {
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    (spans, DROPPED.load(Relaxed))
}

pub(crate) fn reset_spans() {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    DROPPED.store(0, Relaxed);
}

/// An open span; records itself into the global store when dropped. Created
/// by [`span!`](crate::span) or [`SpanGuard::enter`]. When the recorder is
/// off at entry, the guard is inert: no clock read, no allocation, no store.
pub struct SpanGuard {
    name: &'static str,
    detail: Option<String>,
    start_ns: u64,
    sim: (Option<u64>, Option<u64>),
    active: bool,
}

impl SpanGuard {
    /// Open a span named `name` (must be a static string; use
    /// [`with_detail`](Self::with_detail) for dynamic context).
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let active = crate::enabled();
        SpanGuard {
            name,
            detail: None,
            start_ns: if active { now_ns() } else { 0 },
            sim: (None, None),
            active,
        }
    }

    /// Attach dynamic detail; the closure only runs when the span is live,
    /// so inactive guards pay no allocation.
    pub fn with_detail<F: FnOnce() -> String>(mut self, f: F) -> SpanGuard {
        if self.active {
            self.detail = Some(f());
        }
        self
    }

    /// Key the span to a simulation-time interval (microseconds) alongside
    /// its wall-clock one.
    pub fn set_sim_range(&mut self, start_us: u64, end_us: u64) {
        if self.active {
            self.sim = (Some(start_us), Some(end_us));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let mut store = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        if store.len() >= MAX_SPANS {
            DROPPED.fetch_add(1, Relaxed);
            return;
        }
        store.push(SpanRecord {
            name: self.name,
            detail: self.detail.take(),
            tid: thread_tid(),
            start_ns: self.start_ns,
            dur_ns,
            sim_start_us: self.sim.0,
            sim_end_us: self.sim.1,
        });
    }
}
