//! The apparatus fault model: failures of the measurement infrastructure
//! itself.
//!
//! The ground-truth model in [`crate::faults`] describes the *network* —
//! the thing the paper measures. This module describes the *apparatus* —
//! the thing the paper measures **with**: client nodes crash mid-month,
//! performance records are lost on their way to the collection server, and
//! trace files arrive truncated or bit-flipped. The paper's own deployment
//! suffered all three (PlanetLab nodes rebooted, dialup scripts wedged,
//! tcpdump files were cut short); a reproduction that only ever sees
//! pristine data silently overstates the pipeline's robustness.
//!
//! Keeping the two models separate matters for validation: network faults
//! are part of the world being inferred and must flow into the analysis,
//! while apparatus faults are measurement error the analysis has to
//! *survive* — they must be reported (see `experiment::RunReport`), never
//! inferred as network behaviour.
//!
//! Every draw forks the experiment's root RNG by client index or a fixed
//! label, so injected faults are bit-for-bit reproducible and independent
//! of thread count, exactly like the rest of the simulation.

use model::SimTime;
use netsim::SimRng;

/// RNG stream ids (offsets on the root seed) reserved for apparatus draws.
/// Kept disjoint from the `0x90_0000 + client` streams the clients
/// themselves use, so enabling apparatus faults never perturbs the
/// simulated world.
const STREAM_DEATH: u64 = 0xA1_0000;
const STREAM_DROPS: u64 = 0xA2_0000;

/// Intensities of the injected infrastructure faults. The default
/// ([`ApparatusFaults::none`]) injects nothing and leaves the runner
/// bit-for-bit identical to a build without this module.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ApparatusFaults {
    /// Per-client probability that the node dies mid-month: its worker
    /// thread panics at the drawn instant and every record it gathered is
    /// lost (a crash loses the node-local spool, as it did on PlanetLab).
    pub client_death_prob: f64,
    /// Per-record probability that a [`model::PerformanceRecord`] is lost
    /// between the client and the collection server.
    pub record_drop_prob: f64,
    /// Round-trip the BGP collector feed through MRT bytes and corrupt the
    /// buffer with [`corrupt_buffer`] before salvage-decoding it (exercises
    /// [`bgpsim::mrt::decode_stream_salvage`] inside the real pipeline).
    pub corrupt_bgp_feed: bool,
}

impl ApparatusFaults {
    /// No apparatus faults: the healthy-run configuration.
    pub fn none() -> ApparatusFaults {
        ApparatusFaults::default()
    }

    /// The stress preset used by the degraded-run acceptance tests: a few
    /// dead nodes per fleet, 1% record loss, and a corrupted BGP feed.
    pub fn stress() -> ApparatusFaults {
        ApparatusFaults {
            client_death_prob: 0.04,
            record_drop_prob: 0.01,
            corrupt_bgp_feed: true,
        }
    }

    /// Does this configuration inject anything at all?
    pub fn is_none(&self) -> bool {
        *self == ApparatusFaults::none()
    }

    /// The instant at which `client`'s node dies, if it does. Drawn from a
    /// dedicated fork of the root stream, uniform over the middle of the
    /// run (25–90% of the horizon) — a node that dies in the first minutes
    /// would be indistinguishable from one that never joined.
    pub fn death_time(&self, root: &SimRng, client: usize, hours: u32) -> Option<SimTime> {
        if self.client_death_prob <= 0.0 || hours == 0 {
            return None;
        }
        let mut rng = root.fork(STREAM_DEATH + client as u64);
        if rng.f64() >= self.client_death_prob {
            return None;
        }
        let horizon = u64::from(hours) * 3_600_000_000;
        let lo = horizon / 4;
        let hi = horizon * 9 / 10;
        Some(SimTime::from_micros(lo + rng.below(hi - lo)))
    }

    /// The collection-loss stream for `client` (used by the runner to
    /// decide which of its records survive).
    pub fn drop_stream(&self, root: &SimRng, client: usize) -> SimRng {
        root.fork(STREAM_DROPS + client as u64)
    }
}

/// Bit flips [`corrupt_buffer`] applies.
pub const CORRUPTION_BITFLIPS: u32 = 24;
/// Probability that [`corrupt_buffer`] also truncates the buffer at a
/// uniform point of its tail third.
pub const CORRUPTION_TRUNCATE_PROB: f64 = 1.0;

/// Corrupt `buf` in place: [`CORRUPTION_BITFLIPS`] random bit flips, then
/// truncation of the tail third with probability
/// [`CORRUPTION_TRUNCATE_PROB`]. The truncation coin is drawn although it
/// always lands: the cut point's draw follows it, so dropping the coin
/// would move every cut.
pub fn corrupt_buffer(rng: &mut SimRng, buf: &mut Vec<u8>) {
    bitflip(buf, rng, CORRUPTION_BITFLIPS);
    if rng.f64() < CORRUPTION_TRUNCATE_PROB {
        truncate_tail(buf, rng);
    }
}

/// Flip `n` random bits of `buf` (none of an empty buffer, which draws
/// nothing).
pub fn bitflip(buf: &mut [u8], rng: &mut SimRng, n: u32) {
    if buf.is_empty() {
        return;
    }
    for _ in 0..n {
        let byte = rng.below(buf.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        buf[byte] ^= 1 << bit;
    }
}

/// Truncate `buf` at a uniform point of its final third (a partial write:
/// the interesting case, where most of the file is still salvageable).
/// Returns the cut offset, or `None` for buffers too small to cut.
pub fn truncate_tail(buf: &mut Vec<u8>, rng: &mut SimRng) -> Option<usize> {
    if buf.len() < 3 {
        return None;
    }
    let lo = buf.len() * 2 / 3;
    let cut = lo + rng.below((buf.len() - lo) as u64) as usize;
    buf.truncate(cut);
    Some(cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let a = ApparatusFaults::none();
        assert!(a.is_none());
        let root = SimRng::new(7);
        for c in 0..200 {
            assert_eq!(a.death_time(&root, c, 744), None);
        }
        assert!(!a.corrupt_bgp_feed);
    }

    #[test]
    fn death_times_are_deterministic_and_mid_run() {
        let a = ApparatusFaults {
            client_death_prob: 0.5,
            ..ApparatusFaults::none()
        };
        let root = SimRng::new(99);
        let hours = 100u32;
        let horizon = u64::from(hours) * 3_600_000_000;
        let mut died = 0;
        for c in 0..200 {
            let t1 = a.death_time(&root, c, hours);
            let t2 = a.death_time(&root, c, hours);
            assert_eq!(t1, t2, "death draw must be reproducible");
            if let Some(t) = t1 {
                died += 1;
                assert!(t.as_micros() >= horizon / 4);
                assert!(t.as_micros() < horizon * 9 / 10);
            }
        }
        assert!((60..140).contains(&died), "{died} of 200 died at p=0.5");
    }

    #[test]
    fn death_draws_are_independent_per_client() {
        let a = ApparatusFaults {
            client_death_prob: 0.5,
            ..ApparatusFaults::none()
        };
        let root = SimRng::new(4);
        let t5 = a.death_time(&root, 5, 50);
        // Another client's fate never shifts client 5's draw.
        let _ = a.death_time(&root, 6, 50);
        assert_eq!(a.death_time(&root, 5, 50), t5);
    }

    #[test]
    fn corruption_changes_bytes_and_truncates() {
        let mut rng = SimRng::new(11);
        let mut buf: Vec<u8> = (0..255u8).cycle().take(3000).collect();
        let original = buf.clone();
        corrupt_buffer(&mut rng, &mut buf);
        let cut = buf.len();
        assert!((2000..3000).contains(&cut), "corruption always truncates the tail third");
        let flipped_bits: u32 = buf
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        // A bit flipped twice, or flipped past the cut, does not show.
        assert!(
            (1..=CORRUPTION_BITFLIPS).contains(&flipped_bits),
            "bit flips landed: {flipped_bits}"
        );
    }

    #[test]
    fn bitflip_on_empty_buffer_is_a_noop() {
        let mut rng = SimRng::new(1);
        let mut empty: Vec<u8> = Vec::new();
        bitflip(&mut empty, &mut rng, 10);
        assert!(empty.is_empty());
        assert_eq!(truncate_tail(&mut empty, &mut rng), None);
        assert!(empty.is_empty());
        let fresh = SimRng::new(1).below(1 << 30);
        assert_eq!(rng.below(1 << 30), fresh, "nothing drawn");
    }
}
