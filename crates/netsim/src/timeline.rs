//! Piecewise-constant state timelines.
//!
//! Fault processes are materialized ahead of the transaction simulation as a
//! [`Timeline`]: a sorted list of `(start, state)` change points. Clients can
//! then be simulated independently (and in parallel) while sharing one
//! immutable view of "was this server down at time t?".

use model::SimTime;

/// A piecewise-constant function of simulated time.
///
/// The timeline has an initial state effective from `SimTime::ZERO` and a
/// sorted sequence of later change points. Queries are O(log n).
#[derive(Clone, Debug)]
pub struct Timeline<T> {
    /// Change points: `points[i] = (t, s)` means the state is `s` from `t`
    /// (inclusive) until the next change point. `points[0].0 == ZERO`.
    points: Vec<(SimTime, T)>,
}

impl<T: Clone + PartialEq> Timeline<T> {
    /// A timeline that is `initial` forever.
    pub fn constant(initial: T) -> Self {
        Timeline {
            points: vec![(SimTime::ZERO, initial)],
        }
    }

    /// Build from change points. The first point is forced to start at ZERO
    /// (if the earliest given point is later, `initial` covers the gap).
    /// Consecutive duplicate states are merged.
    pub fn from_changes(initial: T, changes: impl IntoIterator<Item = (SimTime, T)>) -> Self {
        let mut pts: Vec<(SimTime, T)> = changes.into_iter().collect();
        pts.sort_by_key(|(t, _)| *t);
        let mut points = vec![(SimTime::ZERO, initial)];
        for (t, s) in pts {
            let (last_t, last_s) = points.last().expect("non-empty");
            if s == *last_s {
                continue; // no actual change
            }
            if t == *last_t {
                // Same-instant override: last writer wins.
                points.last_mut().expect("non-empty").1 = s;
                // Overriding may create a duplicate with the previous state.
                if points.len() >= 2 && points[points.len() - 2].1 == points[points.len() - 1].1 {
                    points.pop();
                }
            } else {
                points.push((t, s));
            }
        }
        Timeline { points }
    }

    /// The state at time `t`.
    pub fn at(&self, t: SimTime) -> &T {
        let idx = self.points.partition_point(|(pt, _)| *pt <= t);
        &self.points[idx - 1].1
    }

    /// Iterate the segments as `(start, end, state)`; the final segment has
    /// `end == None` (extends forever).
    pub fn segments(&self) -> impl Iterator<Item = (SimTime, Option<SimTime>, &T)> {
        self.points.iter().enumerate().map(move |(i, (start, s))| {
            let end = self.points.get(i + 1).map(|(t, _)| *t);
            (*start, end, s)
        })
    }

    /// Number of change points (≥ 1).
    pub fn change_count(&self) -> usize {
        self.points.len()
    }

    /// Total duration (in microseconds) within `[from, to)` spent in states
    /// satisfying `pred`.
    pub fn micros_matching<F: Fn(&T) -> bool>(&self, from: SimTime, to: SimTime, pred: F) -> u64 {
        if to <= from {
            return 0;
        }
        let mut total = 0u64;
        for (start, end, s) in self.segments() {
            let seg_start = start.max(from);
            let seg_end = end.unwrap_or(to).min(to);
            if seg_end > seg_start && pred(s) {
                total += (seg_end - seg_start).as_micros();
            }
            if let Some(e) = end {
                if e >= to {
                    break;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_everywhere() {
        let tl = Timeline::constant(5);
        assert_eq!(*tl.at(SimTime::ZERO), 5);
        assert_eq!(*tl.at(t(1_000_000)), 5);
        assert_eq!(tl.change_count(), 1);
    }

    #[test]
    fn lookup_between_changes() {
        let tl = Timeline::from_changes(0, vec![(t(10), 1), (t(20), 2)]);
        assert_eq!(*tl.at(t(0)), 0);
        assert_eq!(*tl.at(t(9)), 0);
        assert_eq!(*tl.at(t(10)), 1, "change point is inclusive");
        assert_eq!(*tl.at(t(19)), 1);
        assert_eq!(*tl.at(t(20)), 2);
        assert_eq!(*tl.at(t(1000)), 2);
    }

    #[test]
    fn merges_duplicate_states() {
        let tl = Timeline::from_changes(0, vec![(t(10), 0), (t(20), 1), (t(30), 1)]);
        assert_eq!(tl.change_count(), 2); // initial + the 0→1 change
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let tl = Timeline::from_changes(0, vec![(t(20), 2), (t(10), 1)]);
        assert_eq!(*tl.at(t(15)), 1);
        assert_eq!(*tl.at(t(25)), 2);
    }

    #[test]
    fn same_instant_last_writer_wins() {
        let tl = Timeline::from_changes(0, vec![(t(10), 1), (t(10), 2)]);
        assert_eq!(*tl.at(t(10)), 2);
        // And if the override restores the previous state, the change vanishes.
        let tl2 = Timeline::from_changes(0, vec![(t(10), 1), (t(10), 0)]);
        assert_eq!(tl2.change_count(), 1);
        assert_eq!(*tl2.at(t(10)), 0);
    }

    #[test]
    fn segments_cover_timeline() {
        let tl = Timeline::from_changes('a', vec![(t(5), 'b')]);
        let segs: Vec<_> = tl.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (SimTime::ZERO, Some(t(5)), &'a'));
        assert_eq!(segs[1], (t(5), None, &'b'));
    }

    #[test]
    fn micros_matching_measures_downtime() {
        // down in [10, 20) and [30, 40)
        let tl = Timeline::from_changes(
            false,
            vec![(t(10), true), (t(20), false), (t(30), true), (t(40), false)],
        );
        let down = tl.micros_matching(SimTime::ZERO, t(100), |s| *s);
        assert_eq!(down, SimDuration::from_secs(20).as_micros());
        // window clipping
        let down = tl.micros_matching(t(15), t(35), |s| *s);
        assert_eq!(down, SimDuration::from_secs(10).as_micros());
        // empty window
        assert_eq!(tl.micros_matching(t(50), t(50), |s| *s), 0);
    }
}
