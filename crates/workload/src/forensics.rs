//! Tail-sampled forensic exemplar store.
//!
//! Keeping every [`model::TxnTrace`] for a month-long reproduction run would
//! dwarf the dataset itself, so the runner tail-samples: traces are bucketed
//! by (true blame class × fault archetype) and each bucket keeps at most
//! [`report::caps::MAX_SAMPLES`] failures (first in record order) plus the
//! top-`MAX_SAMPLES` slowest successes. Admission is fully deterministic —
//! no wall clock, no RNG — so the same seed yields the same exemplars at any
//! thread count, and memory is bounded by the bucket grid regardless of how
//! many transactions the run executes.
//!
//! The store only ever sees kept records: collection loss is drawn before a
//! record is pushed, so a dropped access is never offered. Each client fills
//! its own store while it runs; the run's store then takes every client's
//! exemplars through [`ExemplarStore::offer`] in client order, once each and
//! in record order, so the caps and the pin rule live in `offer` alone.
//!
//! Queries (`bench explain`) can additionally *pin* specific
//! `(client, site, hour)` keys; one trace per pinned key is kept outside
//! the bucket caps — the first failure, or the first success until a
//! failure arrives — which is how `explain --audit-misses` guarantees an
//! exemplar for every missed audit sample and how a query always finds
//! *something* for a key that saw traffic.

use model::{TraceExemplar, TrueBlame, ARCHETYPES};
use report::caps::MAX_SAMPLES;

/// Ground-truth blame classes a bucket row can carry.
pub const BLAME_CLASSES: usize = 5;
/// Archetype columns: the seven adversarial archetypes in
/// [`model::ARCHETYPES`] order, plus a last "none" slot for faults outside
/// the archetype suite (and healthy traffic).
pub const ARCHETYPE_SLOTS: usize = ARCHETYPES.len() + 1;

fn blame_index(blame: TrueBlame) -> usize {
    match blame {
        TrueBlame::ClientSide => 0,
        TrueBlame::ServerSide => 1,
        TrueBlame::Both => 2,
        TrueBlame::PairSpecific => 3,
        TrueBlame::Noise => 4,
    }
}

/// Forensic-capture knobs carried by `ExperimentConfig`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForensicsConfig {
    /// `(client, site, hour)` keys that keep one trace unconditionally,
    /// outside the bucket caps: the first failure, or (when the key never
    /// failed) the first success.
    pub pin: Vec<(u16, u16, u32)>,
}

#[derive(Clone, Debug, Default)]
struct Bucket {
    /// First `MAX_SAMPLES` failures in record order.
    failures: Vec<TraceExemplar>,
    /// Top `MAX_SAMPLES` successes by (duration desc, client, record index).
    successes: Vec<TraceExemplar>,
}

fn success_order(a: &TraceExemplar, b: &TraceExemplar) -> std::cmp::Ordering {
    b.duration_us
        .cmp(&a.duration_us)
        .then(a.client.cmp(&b.client))
        .then(a.record_index.cmp(&b.record_index))
}

impl Bucket {
    /// Admit a copy of `ex` if it belongs: a failure while there is room, a
    /// success at its sorted place if it beats the fifth. A rejected
    /// exemplar is never copied.
    fn offer(&mut self, ex: &TraceExemplar) {
        if ex.failed {
            if self.failures.len() < MAX_SAMPLES {
                self.failures.push(ex.clone());
            }
            return;
        }
        // After its equals, as a stable sort of the pushed exemplar would.
        let at = self
            .successes
            .partition_point(|s| success_order(s, ex).is_le());
        if at < MAX_SAMPLES {
            self.successes.truncate(MAX_SAMPLES - 1);
            self.successes.insert(at, ex.clone());
        }
    }
}

/// The bounded exemplar store one experiment run produces.
#[derive(Clone, Debug)]
pub struct ExemplarStore {
    /// `BLAME_CLASSES × ARCHETYPE_SLOTS` grid, row-major by blame class.
    buckets: Vec<Bucket>,
    pin_keys: Vec<(u16, u16, u32)>,
    pinned: Vec<TraceExemplar>,
}

impl Default for ExemplarStore {
    fn default() -> Self {
        ExemplarStore::new(&[])
    }
}

impl ExemplarStore {
    /// An empty store that will pin one trace for each `pin` key (the
    /// first failure, falling back to the first success).
    pub fn new(pin: &[(u16, u16, u32)]) -> Self {
        ExemplarStore {
            buckets: vec![Bucket::default(); BLAME_CLASSES * ARCHETYPE_SLOTS],
            pin_keys: pin.to_vec(),
            pinned: Vec::new(),
        }
    }

    /// Offer one trace for admission. Deterministic: depends only on the
    /// exemplar and on what was admitted before it, never on time or RNG.
    pub fn offer(&mut self, ex: TraceExemplar) {
        if self.pin_keys.contains(&ex.key()) {
            match self.pinned.iter_mut().find(|p| p.key() == ex.key()) {
                None => self.pinned.push(ex.clone()),
                // A success placeholder upgrades to the key's first failure.
                Some(p) if ex.failed && !p.failed => *p = ex.clone(),
                Some(_) => {}
            }
        }
        let row = blame_index(ex.truth.true_blame()) * ARCHETYPE_SLOTS;
        let mut matched = false;
        for (slot, &(_, bit)) in ARCHETYPES.iter().enumerate() {
            if ex.truth.contains(bit) {
                matched = true;
                self.buckets[row + slot].offer(&ex);
            }
        }
        if !matched {
            self.buckets[row + ARCHETYPE_SLOTS - 1].offer(&ex);
        }
    }

    /// Every exemplar held, once each (a trace in several buckets is one
    /// record), in record order: what the run's store takes through
    /// [`ExemplarStore::offer`] from each client's.
    pub(crate) fn into_record_order(self) -> Vec<TraceExemplar> {
        let mut all: Vec<TraceExemplar> = self
            .buckets
            .into_iter()
            .flat_map(|b| b.failures.into_iter().chain(b.successes))
            .chain(self.pinned)
            .collect();
        all.sort_by_key(|ex| ex.record_index);
        all.dedup_by_key(|ex| ex.record_index);
        all
    }

    /// Total exemplars held (bucket slots plus pins).
    pub fn len(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.failures.len() + b.successes.len())
            .sum::<usize>()
            + self.pinned.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every exemplar, bucket by bucket (failures before successes), pinned
    /// traces last. Deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceExemplar> {
        self.buckets
            .iter()
            .flat_map(|b| b.failures.iter().chain(b.successes.iter()))
            .chain(self.pinned.iter())
    }

    /// One exemplar per distinct `(client, site, hour)` key, sorted by key —
    /// the render-facing view (a trace that matched several archetype bits
    /// appears once). Failed exemplars win over successes for the same key.
    pub fn unique_by_key(&self) -> Vec<&TraceExemplar> {
        let mut all: Vec<&TraceExemplar> = self.iter().collect();
        all.sort_by_key(|ex| (ex.key(), !ex.failed));
        all.dedup_by_key(|ex| ex.key());
        all
    }

    /// Find an exemplar for `key`, preferring a failed one.
    pub fn find(&self, key: (u16, u16, u32)) -> Option<&TraceExemplar> {
        self.iter()
            .filter(|ex| ex.key() == key)
            .max_by_key(|ex| ex.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::{FaultSet, SimTime, TxnTrace};

    fn ex(client: u16, record_index: usize, failed: bool, truth: FaultSet, dur: u64) -> TraceExemplar {
        TraceExemplar {
            client,
            site: 1,
            hour: 3,
            record_index,
            start: SimTime::from_hours(3),
            duration_us: dur,
            failed,
            truth,
            trace: TxnTrace::default(),
        }
    }

    #[test]
    fn failure_cap_keeps_first_in_record_order() {
        let mut store = ExemplarStore::default();
        for i in 0..20 {
            store.offer(ex(0, i, true, FaultSet::CENSORED, 100));
        }
        let kept: Vec<usize> = store.iter().map(|e| e.record_index).collect();
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
        assert_eq!(store.len(), MAX_SAMPLES);
    }

    #[test]
    fn success_topk_is_slowest_first_with_deterministic_ties() {
        let mut store = ExemplarStore::default();
        for i in 0..10 {
            store.offer(ex(i as u16, i, false, FaultSet::EMPTY, 1000 - (i as u64 % 3)));
        }
        let kept: Vec<(u64, u16)> =
            store.iter().map(|e| (e.duration_us, e.client)).collect();
        // All durations in {998,999,1000}; slowest first, ties by client.
        assert_eq!(kept, vec![(1000, 0), (1000, 3), (1000, 6), (1000, 9), (999, 1)]);
    }

    #[test]
    fn memory_is_bounded_by_bucket_grid() {
        let mut store = ExemplarStore::default();
        for i in 0..50_000usize {
            let truth = if i % 2 == 0 { FaultSet::CENSORED } else { FaultSet::EMPTY };
            store.offer(ex((i % 7) as u16, i, i % 3 == 0, truth, i as u64));
        }
        assert!(
            store.len() <= BLAME_CLASSES * ARCHETYPE_SLOTS * 2 * MAX_SAMPLES,
            "store grew past the bucket caps: {}",
            store.len()
        );
    }

    #[test]
    fn multi_archetype_truth_lands_in_each_matching_bucket() {
        let mut store = ExemplarStore::default();
        store.offer(ex(0, 0, true, FaultSet::CENSORED | FaultSet::MTU_BLACKHOLE, 5));
        // One copy per matching archetype column…
        assert_eq!(store.len(), 2);
        // …but the render view collapses them back to one.
        assert_eq!(store.unique_by_key().len(), 1);
    }

    #[test]
    fn pinned_keys_survive_outside_bucket_caps() {
        let mut store = ExemplarStore::new(&[(9, 1, 3)]);
        for i in 0..MAX_SAMPLES {
            store.offer(ex(0, i, true, FaultSet::CENSORED, 5));
        }
        // Bucket is full; the pinned key is still admitted.
        let mut pinned = ex(9, 99, true, FaultSet::CENSORED, 5);
        pinned.site = 1;
        store.offer(pinned);
        assert!(store.find((9, 1, 3)).is_some());
        // A second hit on the same key does not duplicate the pin.
        let again = ex(9, 120, true, FaultSet::CENSORED, 5);
        store.offer(again);
        assert_eq!(store.iter().filter(|e| e.key() == (9, 1, 3) && e.failed).count(), 1);
    }

    #[test]
    fn pin_falls_back_to_first_success_until_a_failure_arrives() {
        let mut store = ExemplarStore::new(&[(9, 1, 3)]);
        let mut ok = ex(9, 10, false, FaultSet::EMPTY, 5);
        ok.site = 1;
        store.offer(ok);
        // A query key that never failed still yields its first success.
        assert!(matches!(store.find((9, 1, 3)), Some(e) if !e.failed));
        // A later success does not displace it; a failure does.
        let mut ok2 = ex(9, 11, false, FaultSet::EMPTY, 50);
        ok2.site = 1;
        store.offer(ok2);
        let mut bad = ex(9, 12, true, FaultSet::CENSORED, 5);
        bad.site = 1;
        store.offer(bad);
        let found = store.find((9, 1, 3)).expect("key is held");
        assert!(found.failed, "failure displaced the success placeholder");
        assert_eq!(found.record_index, 12);
        let unique = store.unique_by_key();
        assert_eq!(unique.iter().filter(|e| e.key() == (9, 1, 3)).count(), 1);
    }

    #[test]
    fn a_success_enters_only_past_the_fifth() {
        let mut store = ExemplarStore::default();
        for i in 0..MAX_SAMPLES {
            store.offer(ex(0, i, false, FaultSet::EMPTY, 100));
        }
        // Faster than the fifth, or tied with it but later: rejected.
        store.offer(ex(0, 10, false, FaultSet::EMPTY, 99));
        store.offer(ex(0, 11, false, FaultSet::EMPTY, 100));
        // Slower: enters at its sorted place, and the old fifth leaves.
        store.offer(ex(0, 12, false, FaultSet::EMPTY, 150));
        let kept: Vec<usize> = store.iter().map(|e| e.record_index).collect();
        assert_eq!(kept, vec![12, 0, 1, 2, 3]);
    }

    #[test]
    fn client_order_transfer_matches_sequential_admission() {
        // Each client's own store counts record indices from 0 and pins
        // the client's key; client 1's records follow client 0's 100. Each
        // client offers 7 failures and 7 successes, more than a bucket
        // keeps, and the first access of each key succeeds, so its pin
        // starts as a placeholder.
        let pins = [(0, 1, 3), (1, 1, 3)];
        let accesses = |client: u16, base: usize| {
            (0..14usize).map(move |i| {
                let dur = 100 + (i as u64 * 7 + u64::from(client) * 3) % 11;
                ex(client, base + i, i % 2 == 1, FaultSet::COLO_BLAST, dur)
            })
        };
        let mut run = ExemplarStore::new(&pins);
        let mut sequential = ExemplarStore::new(&pins);
        for (client, base) in [(0u16, 0usize), (1, 100)] {
            let mut own = ExemplarStore::new(&pins);
            accesses(client, 0).for_each(|x| own.offer(x));
            for mut x in own.into_record_order() {
                x.record_index += base;
                run.offer(x);
            }
            accesses(client, base).for_each(|x| sequential.offer(x));
        }
        let held = |s: &ExemplarStore| -> Vec<_> {
            s.iter()
                .map(|e| (e.client, e.record_index, e.failed))
                .collect()
        };
        assert_eq!(held(&run), held(&sequential));
        // Each pinned key keeps one exemplar: its first failure.
        for key in pins {
            let held: Vec<_> = run.pinned.iter().filter(|p| p.key() == key).collect();
            assert_eq!(held.len(), 1, "{key:?}");
            assert!(held[0].failed && held[0].record_index % 100 == 1, "{key:?}");
        }
    }
}
