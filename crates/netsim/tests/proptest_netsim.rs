//! Property-based tests for the simulation substrate.

use model::{SimDuration, SimTime};
use netsim::process::EpisodeDuration;
use netsim::{OnOffProcess, SimRng, Timeline};
use proptest::prelude::*;

proptest! {
    /// Forked RNG streams are insensitive to parent draw counts.
    #[test]
    fn fork_is_stable_under_parent_draws(seed in any::<u64>(), draws in 0usize..50, id in any::<u64>()) {
        let mut p1 = SimRng::new(seed);
        let p2 = SimRng::new(seed);
        for _ in 0..draws {
            p1.next_u64();
        }
        let mut f1 = p1.fork(id);
        let mut f2 = p2.fork(id);
        for _ in 0..8 {
            prop_assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    /// range() stays in range; below() stays below.
    #[test]
    fn rng_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            let v = r.range(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
            let b = r.below(span);
            prop_assert!(b < span);
        }
    }

    /// Timelines built from arbitrary change lists answer queries
    /// consistently with a naive linear scan.
    #[test]
    fn timeline_matches_naive_scan(
        changes in proptest::collection::vec((0u64..10_000, any::<bool>()), 0..60),
        queries in proptest::collection::vec(0u64..11_000, 1..50),
    ) {
        let tl = Timeline::from_changes(
            false,
            changes.iter().map(|(t, s)| (SimTime::from_secs(*t), *s)),
        );
        // Naive model: sort stable by time; last writer at each time wins.
        let mut sorted = changes.clone();
        sorted.sort_by_key(|(t, _)| *t);
        for &q in &queries {
            // The LAST entry with t <= q in stable order.
            let expected = sorted
                .iter()
                .rfind(|(t, _)| *t <= q)
                .map(|(_, s)| *s)
                .unwrap_or(false);
            prop_assert_eq!(*tl.at(SimTime::from_secs(q)), expected, "query {}", q);
        }
    }

    /// On/off processes alternate and never produce zero-length episodes.
    #[test]
    fn onoff_alternates(seed in any::<u64>(), up_mins in 1u64..600, down_mins in 1u64..240) {
        let p = OnOffProcess::new(
            SimDuration::from_secs(up_mins * 60),
            EpisodeDuration::Exp { mean: SimDuration::from_secs(down_mins * 60) },
        );
        let mut rng = SimRng::new(seed);
        let tl = p.materialize(&mut rng, SimTime::from_hours(200));
        let mut prev: Option<(SimTime, bool)> = None;
        for (start, _, state) in tl.segments() {
            if let Some((pt, ps)) = prev {
                prop_assert_ne!(ps, *state, "no alternation at {:?}", start);
                prop_assert!(start > pt, "zero-length segment");
            }
            prev = Some((start, *state));
        }
    }

    /// Bounded Pareto samples respect their bounds.
    #[test]
    fn bounded_pareto_in_bounds(seed in any::<u64>(), min_s in 1u64..3_000, alpha in 0.5f64..3.0) {
        let min = SimDuration::from_secs(min_s);
        let cap = SimDuration::from_secs(min_s * 50);
        let dist = EpisodeDuration::BoundedPareto { min, alpha, cap };
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let d = dist.sample(&mut rng);
            prop_assert!(d >= min && d <= cap, "{d} outside [{min}, {cap}]");
        }
    }
}

#[test]
fn micros_matching_partitions_time() {
    // down-time + up-time must equal the window for any boolean timeline.
    let mut rng = SimRng::new(5);
    let p = OnOffProcess::new(
        SimDuration::from_secs(900),
        EpisodeDuration::Exp {
            mean: SimDuration::from_secs(300),
        },
    );
    let tl = p.materialize(&mut rng, SimTime::from_hours(100));
    let end = SimTime::from_hours(100);
    let down = tl.micros_matching(SimTime::ZERO, end, |s| *s);
    let up = tl.micros_matching(SimTime::ZERO, end, |s| !*s);
    assert_eq!(down + up, end.as_micros());
}
