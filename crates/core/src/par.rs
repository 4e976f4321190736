//! Deterministic data-parallel helpers for the analysis scans.
//!
//! Every netprofiler stage is a pure fold over immutable record slices, so
//! parallelism takes one shape throughout: split the input into contiguous
//! shards, fold each shard into a partial aggregate on its own scoped
//! thread, then merge the partials **in shard order**. Merge operations are
//! commutative integer/counter additions, so the output is bit-identical to
//! the serial scan at any thread count — scheduling only changes who
//! computes which partial, never what the merge produces.
//!
//! `threads == 0` means "all available cores"; `1` (or a single-shard
//! input) runs inline on the calling thread with no spawns at all.

use model::thread_count;
use std::ops::Range;

/// Split `0..len` into at most `shards` contiguous, non-empty ranges.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.max(1).min(len);
    let per = len.div_ceil(shards);
    (0..shards)
        .map(|i| (i * per).min(len)..((i + 1) * per).min(len))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Fold each shard of `0..len` with `f`, returning the partial results in
/// shard order regardless of which thread finished first. With a resolved
/// thread count of 1 (or a single shard) this is a plain inline loop.
pub fn map_shards<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = shard_ranges(len, thread_count(threads));
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    telemetry::counter!("analysis.par_shards", ranges.len() as u64);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| s.spawn(move || f(r)))
            .collect();
        // Joining in spawn order restores the deterministic shard order.
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis shard worker panicked"))
            .collect()
    })
}

/// Run two independent computations, concurrently when `threads` allows.
pub fn join2<A, B, FA, FB>(threads: usize, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if thread_count(threads) <= 1 {
        (fa(), fb())
    } else {
        std::thread::scope(|s| {
            let hb = s.spawn(fb);
            let a = fa();
            (a, hb.join().expect("analysis join2 worker panicked"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 100, 101] {
            for shards in [1usize, 2, 3, 7, 200] {
                let ranges = shard_ranges(len, shards);
                let mut covered = 0usize;
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty());
                    covered += r.len();
                    next = r.end;
                }
                assert_eq!(covered, len, "len {len} shards {shards}");
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn fewer_items_than_shards_degenerates_cleanly() {
        // items < shards: every item gets its own singleton range, no
        // range is empty, and nothing indexes past `len`.
        for len in 1usize..6 {
            for shards in [len + 1, len * 3, 64] {
                let ranges = shard_ranges(len, shards);
                assert_eq!(ranges.len(), len, "one singleton shard per item");
                assert!(ranges.iter().all(|r| r.len() == 1));
                assert!(ranges.iter().all(|r| r.end <= len));
            }
        }
        // items == 0: no shards at all (workers are never handed an empty
        // range, so partial-aggregate folds start from the identity).
        assert!(shard_ranges(0, 1).is_empty());
        assert!(shard_ranges(0, 64).is_empty());
        // shards == 0 is treated as 1, not a division by zero.
        assert_eq!(shard_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn map_shards_matches_serial_fold() {
        let data: Vec<u64> = (0..10_000).collect();
        let serial: u64 = data.iter().sum();
        for threads in [1usize, 2, 3, 8] {
            let partials = map_shards(threads, data.len(), |r| data[r].iter().sum::<u64>());
            assert_eq!(partials.iter().sum::<u64>(), serial);
        }
    }

    #[test]
    fn map_shards_preserves_shard_order() {
        let firsts = map_shards(4, 100, |r| r.start);
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(firsts, sorted);
    }

    #[test]
    fn join2_runs_both() {
        for threads in [1usize, 4] {
            let (a, b) = join2(threads, || 6 * 7, || "ok");
            assert_eq!(a, 42);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn empty_input_yields_no_shards() {
        let out: Vec<u32> = map_shards(8, 0, |_| unreachable!("no shards for empty input"));
        assert!(out.is_empty());
    }
}
