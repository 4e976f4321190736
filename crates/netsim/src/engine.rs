//! The discrete-event scheduler.
//!
//! A minimal, allocation-friendly event queue: events are `(time, payload)`
//! pairs; [`Scheduler::pop`] delivers them in time order, with FIFO ordering
//! among events scheduled for the same instant (a monotone sequence number
//! breaks ties), which is what makes multi-entity simulations deterministic.

use model::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with a simulation clock.
///
/// The clock only moves forward: popping an event advances `now()` to the
/// event's timestamp, and scheduling into the past is rejected.
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    delivered: u64,
    peak: usize,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            peak: 0,
        }
    }

    /// Current simulation time (timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than the current simulation time (causality).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
        if self.heap.len() > self.peak {
            self.peak = self.heap.len();
        }
    }

    /// Deliver the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        self.delivered += 1;
        Some((entry.time, entry.event))
    }

    /// Run until the queue is empty or `handler` returns `false`.
    ///
    /// The handler may schedule further events through the scheduler it is
    /// handed back; this is the conventional DES main loop.
    pub fn run_with<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Self, SimTime, E) -> bool,
    {
        while let Some((t, e)) = self.pop() {
            if !handler(self, t, e) {
                break;
            }
        }
    }
}

impl<E> Drop for Scheduler<E> {
    /// Flush engine telemetry once per scheduler lifetime instead of paying
    /// an atomic per event: totals aggregate across all schedulers of a run
    /// (one per client), the gauge keeps the single deepest queue.
    fn drop(&mut self) {
        if telemetry::enabled() && self.delivered > 0 {
            telemetry::counter!("engine.events_dispatched", self.delivered);
            telemetry::gauge_max!("engine.queue_depth_peak", self.peak as u64);
            telemetry::histogram!("engine.events_per_scheduler", self.delivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::SimDuration;

    #[test]
    fn delivers_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), "c");
        s.schedule_at(SimTime::from_secs(1), "a");
        s.schedule_at(SimTime::from_secs(2), "b");
        let mut order = Vec::new();
        s.run_with(|_, _, e| {
            order.push(e);
            true
        });
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let mut order = Vec::new();
        s.run_with(|_, _, e| {
            order.push(e);
            true
        });
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_secs(5));
        assert_eq!(s.delivered(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), 1);
        s.pop();
        s.schedule_at(SimTime::from_secs(1), 2);
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), 0u32);
        let mut count = 0;
        s.run_with(|sched, _, n| {
            count += 1;
            if n < 9 {
                sched.schedule_at(sched.now() + SimDuration::from_secs(1), n + 1);
            }
            true
        });
        assert_eq!(count, 10);
        assert_eq!(s.now(), SimTime::from_secs(10));
    }

    #[test]
    fn handler_can_stop_early() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::from_secs(i), i);
        }
        let mut seen = 0;
        s.run_with(|_, _, _| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
        assert_eq!(s.len(), 7);
    }
}
