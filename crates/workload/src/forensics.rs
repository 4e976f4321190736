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
    fn offer(&mut self, ex: &TraceExemplar) {
        if ex.failed {
            if self.failures.len() < MAX_SAMPLES {
                self.failures.push(ex.clone());
            }
        } else {
            self.successes.push(ex.clone());
            self.successes.sort_by(success_order);
            self.successes.truncate(MAX_SAMPLES);
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

    /// Drop exemplars whose record was discarded by the apparatus keep-mask
    /// and remap the survivors' `record_index` to their kept rank, mirroring
    /// what `retain` does to the record vector itself.
    pub fn apply_keep_mask(&mut self, keep: &[bool]) {
        // kept_rank[i] = number of kept records strictly before i.
        let mut kept_rank = Vec::with_capacity(keep.len());
        let mut rank = 0usize;
        for &k in keep {
            kept_rank.push(rank);
            rank += k as usize;
        }
        let fix = |v: &mut Vec<TraceExemplar>| {
            v.retain(|ex| keep.get(ex.record_index).copied().unwrap_or(false));
            for ex in v.iter_mut() {
                ex.record_index = kept_rank[ex.record_index];
            }
        };
        for b in &mut self.buckets {
            fix(&mut b.failures);
            fix(&mut b.successes);
        }
        fix(&mut self.pinned);
    }

    /// Merge another store, whose record indices count from `base`, into
    /// this one, bucket by bucket, preserving the admission rules. Merging
    /// per-client stores in client order reproduces what a single
    /// sequential store would have admitted, because every per-client bucket
    /// already holds at least as many candidates as the merged cap.
    pub fn merge(&mut self, mut other: ExemplarStore, base: usize) {
        for ex in other
            .buckets
            .iter_mut()
            .flat_map(|b| b.failures.iter_mut().chain(b.successes.iter_mut()))
            .chain(other.pinned.iter_mut())
        {
            ex.record_index += base;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            let room = MAX_SAMPLES.saturating_sub(mine.failures.len());
            mine.failures.extend(theirs.failures.into_iter().take(room));
            mine.successes.extend(theirs.successes);
            mine.successes.sort_by(success_order);
            mine.successes.truncate(MAX_SAMPLES);
        }
        for p in other.pinned {
            match self.pinned.iter_mut().find(|q| q.key() == p.key()) {
                None => self.pinned.push(p),
                Some(q) if p.failed && !q.failed => *q = p,
                Some(_) => {}
            }
        }
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

    /// Sorted, de-duplicated keys of everything held.
    pub fn keys(&self) -> Vec<(u16, u16, u32)> {
        let mut keys: Vec<_> = self.iter().map(|ex| ex.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
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
    fn keep_mask_drops_and_remaps_record_indices() {
        let mut store = ExemplarStore::default();
        store.offer(ex(0, 0, true, FaultSet::CENSORED, 5));
        store.offer(ex(0, 2, true, FaultSet::CENSORED, 5));
        store.offer(ex(0, 4, true, FaultSet::CENSORED, 5));
        // Drop record 2: survivors 0 and 4 become kept ranks 0 and 3.
        store.apply_keep_mask(&[true, true, false, true, true]);
        let kept: Vec<usize> = store.iter().map(|e| e.record_index).collect();
        assert_eq!(kept, vec![0, 3]);
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
    fn merge_in_client_order_matches_sequential_admission() {
        // Per-client stores count record indices from 0.
        let mk = |client: u16| {
            let mut s = ExemplarStore::default();
            for i in 0..4 {
                s.offer(ex(client, i, true, FaultSet::COLO_BLAST, 10));
                s.offer(ex(client, 4 + i, false, FaultSet::COLO_BLAST, 100 + i as u64));
            }
            s
        };
        let mut merged = ExemplarStore::default();
        merged.merge(mk(0), 0);
        merged.merge(mk(1), 100);
        let mut sequential = ExemplarStore::default();
        for i in 0..4 {
            sequential.offer(ex(0, i, true, FaultSet::COLO_BLAST, 10));
            sequential.offer(ex(0, 4 + i, false, FaultSet::COLO_BLAST, 100 + i as u64));
        }
        for i in 0..4 {
            sequential.offer(ex(1, 100 + i, true, FaultSet::COLO_BLAST, 10));
            sequential.offer(ex(1, 104 + i, false, FaultSet::COLO_BLAST, 100 + i as u64));
        }
        let a: Vec<_> = merged.iter().map(|e| (e.client, e.record_index, e.failed)).collect();
        let b: Vec<_> = sequential.iter().map(|e| (e.client, e.record_index, e.failed)).collect();
        assert_eq!(a, b);
    }
}
