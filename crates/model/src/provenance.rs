//! Ground-truth fault provenance: the flight-recorder vocabulary.
//!
//! The fault model in `workload` knows the true cause of every failure it
//! injects, but the measurement records deliberately do not — the inference
//! pipeline must work from observations alone, exactly like the paper. This
//! module defines a *sidecar* vocabulary: at transaction time the session can
//! stamp each record with the set of ground-truth faults active at that
//! instant ([`FaultSet`]), kept in a parallel stream ([`ProvenanceLog`]) so
//! the [`Dataset`](crate::Dataset) layout and RNG draw order stay
//! bit-identical whether the recorder is on or off.
//!
//! The stamped sets collapse to a true blame class ([`TrueBlame`]) that
//! `netprofiler::audit` scores the Table 5 inference against.

/// One ground-truth fault condition active at a transaction instant.
///
/// A [`FaultSet`] is a bitset of these; the constants double as the bit
/// masks. The split between *client-side* and *server-side* bits mirrors the
/// paper's Table 5 vocabulary: last-mile, LDNS and WAN outages (and their
/// proxy-vantage twins) are things the client's own infrastructure did, while
/// server degradation, hard replica outages and authoritative-DNS faults are
/// the server's.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultSet(u32);

impl FaultSet {
    /// No structural fault active — failures under this set are background
    /// noise (stateless per-access loss, not a timeline-driven outage).
    pub const EMPTY: FaultSet = FaultSet(0);
    /// Client's last-mile link is down.
    pub const LAST_MILE: FaultSet = FaultSet(1 << 0);
    /// Client's local DNS resolver is down.
    pub const LDNS_DOWN: FaultSet = FaultSet(1 << 1);
    /// Client-side WAN outage (the client's /24 lost wide-area reachability).
    pub const WAN: FaultSet = FaultSet(1 << 2);
    /// Server replica group is inside a degradation episode.
    pub const SERVER_DEGRADED: FaultSet = FaultSet(1 << 3);
    /// The specific replica is hard down.
    pub const REPLICA_DOWN: FaultSet = FaultSet(1 << 4);
    /// The site's authoritative DNS is unreachable.
    pub const AUTH_DNS_DOWN: FaultSet = FaultSet(1 << 5);
    /// The site's zone is serving an error (SERVFAIL/NXDOMAIN episode).
    pub const ZONE_ERROR: FaultSet = FaultSet(1 << 6);
    /// The (client, site) pair is permanently blocked.
    pub const BLOCKED_PAIR: FaultSet = FaultSet(1 << 7);
    /// The (client, site) pair is in a month-long degraded state.
    pub const DEGRADED_PAIR: FaultSet = FaultSet(1 << 8);
    /// The proxy vantage's uplink is down (proxied transactions only).
    pub const PROXY_LINK: FaultSet = FaultSet(1 << 9);
    /// The proxy vantage's resolver is down (proxied transactions only).
    pub const PROXY_LDNS: FaultSet = FaultSet(1 << 10);
    /// The client's prefix is inside a short-lived path violation caused by
    /// a scheduled BGP reconfiguration (adversarial archetype).
    pub const BGP_TRANSIENT: FaultSet = FaultSet(1 << 11);
    /// The (client category, site) pair is inside a censorship blocking
    /// window whose onset correlates with injected route churn.
    pub const CENSORED: FaultSet = FaultSet(1 << 12);
    /// The site shares co-located hosting that failed as one blast radius.
    pub const COLO_BLAST: FaultSet = FaultSet(1 << 13);
    /// A site fault visible only from the direct-client vantage (the proxy
    /// path around it stays healthy).
    pub const VANTAGE_SPLIT: FaultSet = FaultSet(1 << 14);
    /// A CDN site is browning out for one client region.
    pub const CDN_BROWNOUT: FaultSet = FaultSet(1 << 15);
    /// Path-MTU blackhole on the pair: connects succeed, transfers stall.
    pub const MTU_BLACKHOLE: FaultSet = FaultSet(1 << 16);
    /// The site's zone answered with a decoy address (wrong-answer DNS).
    pub const WRONG_DNS: FaultSet = FaultSet(1 << 17);

    /// Every client-side bit. `BGP_TRANSIENT` counts as client-side: the
    /// violated path is the client prefix's, so from the measurement's point
    /// of view the client's corner of the network misbehaved.
    pub const CLIENT_BITS: FaultSet = FaultSet(
        Self::LAST_MILE.0 | Self::LDNS_DOWN.0 | Self::WAN.0 | Self::PROXY_LINK.0
            | Self::PROXY_LDNS.0 | Self::BGP_TRANSIENT.0,
    );
    /// Every server-side bit. The archetypes that take the whole site (or a
    /// vantage/region slice of it) down count as the server's fault.
    pub const SERVER_BITS: FaultSet = FaultSet(
        Self::SERVER_DEGRADED.0 | Self::REPLICA_DOWN.0 | Self::AUTH_DNS_DOWN.0
            | Self::ZONE_ERROR.0 | Self::COLO_BLAST.0 | Self::VANTAGE_SPLIT.0
            | Self::CDN_BROWNOUT.0 | Self::WRONG_DNS.0,
    );

    /// Is no fault recorded?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Does the set contain every bit of `other`?
    pub fn contains(self, other: FaultSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Add the bits of `other` in place.
    pub fn insert(&mut self, other: FaultSet) {
        self.0 |= other.0;
    }

    /// Set union.
    pub fn union(self, other: FaultSet) -> FaultSet {
        FaultSet(self.0 | other.0)
    }

    /// Any client-side bit set?
    pub fn has_client_fault(self) -> bool {
        self.0 & Self::CLIENT_BITS.0 != 0
    }

    /// Any server-side bit set?
    pub fn has_server_fault(self) -> bool {
        self.0 & Self::SERVER_BITS.0 != 0
    }

    /// Collapse the set to the true blame class for Table 5 scoring.
    ///
    /// Precedence mirrors the fault mechanisms: a permanent block always
    /// wins (the shared-world check short-circuits on it before anything
    /// else), then the client/server/both split over the structural bits,
    /// then pair-specific degradation, and an empty set means the failure —
    /// if there was one — was background noise.
    pub fn true_blame(self) -> TrueBlame {
        if self.contains(Self::BLOCKED_PAIR) || self.contains(Self::CENSORED) {
            // Censorship short-circuits the access exactly like a permanent
            // block does, just on a window instead of the whole month — it
            // is a property of the pair, not of either endpoint.
            TrueBlame::PairSpecific
        } else {
            let pair_only = Self::DEGRADED_PAIR.0 | Self::MTU_BLACKHOLE.0;
            match (self.has_client_fault(), self.has_server_fault()) {
                (true, true) => TrueBlame::Both,
                (true, false) => TrueBlame::ClientSide,
                (false, true) => TrueBlame::ServerSide,
                (false, false) if self.0 & pair_only != 0 => TrueBlame::PairSpecific,
                (false, false) => TrueBlame::Noise,
            }
        }
    }

    /// Short names of the set bits, in bit order, for rendering.
    pub fn names(self) -> Vec<&'static str> {
        STRUCTURAL
            .iter()
            .chain(&ARCHETYPES)
            .filter(|&&(_, bit)| self.contains(bit))
            .map(|&(name, _)| name)
            .collect()
    }
}

/// The structural fault bits, `(short name, bit)` in bit order; every one
/// sits below the [`ARCHETYPES`].
const STRUCTURAL: [(&str, FaultSet); 11] = [
    ("last-mile", FaultSet::LAST_MILE),
    ("ldns-down", FaultSet::LDNS_DOWN),
    ("wan", FaultSet::WAN),
    ("server-degraded", FaultSet::SERVER_DEGRADED),
    ("replica-down", FaultSet::REPLICA_DOWN),
    ("auth-dns-down", FaultSet::AUTH_DNS_DOWN),
    ("zone-error", FaultSet::ZONE_ERROR),
    ("blocked-pair", FaultSet::BLOCKED_PAIR),
    ("degraded-pair", FaultSet::DEGRADED_PAIR),
    ("proxy-link", FaultSet::PROXY_LINK),
    ("proxy-ldns", FaultSet::PROXY_LDNS),
];

/// The seven adversarial fault archetypes, `(stamp name, bit)` in bit
/// order: the one list the single-archetype presets, the audit's
/// per-archetype scores, the forensic buckets and the oracle read.
pub const ARCHETYPES: [(&str, FaultSet); 7] = [
    ("bgp-transient", FaultSet::BGP_TRANSIENT),
    ("censored", FaultSet::CENSORED),
    ("colo-blast", FaultSet::COLO_BLAST),
    ("vantage-split", FaultSet::VANTAGE_SPLIT),
    ("cdn-brownout", FaultSet::CDN_BROWNOUT),
    ("mtu-blackhole", FaultSet::MTU_BLACKHOLE),
    ("wrong-dns", FaultSet::WRONG_DNS),
];

impl std::ops::BitOr for FaultSet {
    type Output = FaultSet;

    fn bitor(self, rhs: FaultSet) -> FaultSet {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for FaultSet {
    fn bitor_assign(&mut self, rhs: FaultSet) {
        self.insert(rhs);
    }
}

impl std::fmt::Debug for FaultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("FaultSet(noise)");
        }
        write!(f, "FaultSet({})", self.names().join("|"))
    }
}

/// The ground-truth counterpart of a Table 5 blame class.
///
/// `PairSpecific` and `Noise` have no inferred equivalent — the paper's
/// method folds them into "other" — so the audit maps them accordingly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrueBlame {
    /// Only client-side faults were active.
    ClientSide,
    /// Only server-side faults were active.
    ServerSide,
    /// Client- and server-side faults overlapped.
    Both,
    /// A pair-scoped condition (permanent block, degraded pair).
    PairSpecific,
    /// No structural fault: background loss / noise.
    Noise,
}

impl TrueBlame {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            TrueBlame::ClientSide => "client",
            TrueBlame::ServerSide => "server",
            TrueBlame::Both => "both",
            TrueBlame::PairSpecific => "pair",
            TrueBlame::Noise => "noise",
        }
    }
}

/// The ground-truth faults active during one transaction, split by phase.
///
/// `dns` is the set active when the resolution phase ran; `connect` is the
/// union over every connection attempt of the transaction (a fault that
/// flips mid-transaction contributes to the union).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ProvenanceRecord {
    /// Faults active during name resolution.
    pub dns: FaultSet,
    /// Faults active during the connect/transfer attempts (union).
    pub connect: FaultSet,
}

impl ProvenanceRecord {
    /// Union of both phases: everything that was wrong during the access.
    pub fn all(self) -> FaultSet {
        self.dns | self.connect
    }
}

/// Ground-truth facts exported once per run for the audit to score against.
///
/// Everything here is derived from the fault model *before* any simulation
/// runs; it is the answer key, not an observation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TruthSidecar {
    /// Hours in the measurement window.
    pub hours: u32,
    /// The injected permanently-blocked `(client, site)` id pairs.
    pub blocked_pairs: Vec<(u16, u16)>,
    /// Per client, the hours where a client-side structural fault covered
    /// most of the hour (last-mile, LDNS or WAN).
    pub client_fault_hours: Vec<Vec<u32>>,
    /// Per site, the hours where a server-side structural fault covered
    /// most of the hour (degradation episode or authoritative-DNS fault).
    pub site_fault_hours: Vec<Vec<u32>>,
    /// Injected severe BGP events as `(prefix index, hour)`.
    pub severe_bgp: Vec<(u32, u32)>,
}

/// The flight recorder's output: one [`ProvenanceRecord`] per
/// [`PerformanceRecord`](crate::PerformanceRecord), parallel by index, plus
/// the run's [`TruthSidecar`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ProvenanceLog {
    /// Parallel to `Dataset::records` — `records[i]` explains record `i`.
    pub records: Vec<ProvenanceRecord>,
    /// The run's answer key.
    pub truth: TruthSidecar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_noise() {
        assert!(FaultSet::EMPTY.is_empty());
        assert_eq!(FaultSet::EMPTY.true_blame(), TrueBlame::Noise);
        assert_eq!(format!("{:?}", FaultSet::EMPTY), "FaultSet(noise)");
    }

    #[test]
    fn union_and_contains() {
        let mut s = FaultSet::LAST_MILE;
        s |= FaultSet::WAN;
        assert!(s.contains(FaultSet::LAST_MILE));
        assert!(s.contains(FaultSet::WAN));
        assert!(!s.contains(FaultSet::LDNS_DOWN));
        assert_eq!(s, FaultSet::LAST_MILE | FaultSet::WAN);
    }

    #[test]
    fn blame_precedence() {
        // Blocked pair wins over everything else.
        let blocked = FaultSet::BLOCKED_PAIR | FaultSet::WAN | FaultSet::SERVER_DEGRADED;
        assert_eq!(blocked.true_blame(), TrueBlame::PairSpecific);
        // Pure sides.
        assert_eq!(FaultSet::LAST_MILE.true_blame(), TrueBlame::ClientSide);
        assert_eq!(FaultSet::PROXY_LINK.true_blame(), TrueBlame::ClientSide);
        assert_eq!(FaultSet::SERVER_DEGRADED.true_blame(), TrueBlame::ServerSide);
        assert_eq!(FaultSet::ZONE_ERROR.true_blame(), TrueBlame::ServerSide);
        // Overlap.
        let both = FaultSet::LDNS_DOWN | FaultSet::REPLICA_DOWN;
        assert_eq!(both.true_blame(), TrueBlame::Both);
        // Degraded pair only → pair-specific.
        assert_eq!(FaultSet::DEGRADED_PAIR.true_blame(), TrueBlame::PairSpecific);
        // Degraded pair + structural client fault → the structural fault
        // decides the side (the pair bit only matters when it acted alone).
        let mixed = FaultSet::DEGRADED_PAIR | FaultSet::WAN;
        assert_eq!(mixed.true_blame(), TrueBlame::ClientSide);
    }

    #[test]
    fn adversarial_archetype_blame() {
        // Censorship is pair-specific and wins like a permanent block.
        let censored = FaultSet::CENSORED | FaultSet::SERVER_DEGRADED | FaultSet::WAN;
        assert_eq!(censored.true_blame(), TrueBlame::PairSpecific);
        // A reconfiguration transient reads as the client's corner.
        assert_eq!(FaultSet::BGP_TRANSIENT.true_blame(), TrueBlame::ClientSide);
        // Infrastructure blast radii and vantage/region slices read server.
        assert_eq!(FaultSet::COLO_BLAST.true_blame(), TrueBlame::ServerSide);
        assert_eq!(FaultSet::VANTAGE_SPLIT.true_blame(), TrueBlame::ServerSide);
        assert_eq!(FaultSet::CDN_BROWNOUT.true_blame(), TrueBlame::ServerSide);
        assert_eq!(FaultSet::WRONG_DNS.true_blame(), TrueBlame::ServerSide);
        // An MTU blackhole acting alone is pair-specific; with a structural
        // fault present, the structural fault decides the side.
        assert_eq!(FaultSet::MTU_BLACKHOLE.true_blame(), TrueBlame::PairSpecific);
        let mixed = FaultSet::MTU_BLACKHOLE | FaultSet::REPLICA_DOWN;
        assert_eq!(mixed.true_blame(), TrueBlame::ServerSide);
        // Overlapping archetypes union like any other bits.
        let overlap = FaultSet::BGP_TRANSIENT | FaultSet::COLO_BLAST;
        assert_eq!(overlap.true_blame(), TrueBlame::Both);
    }

    #[test]
    fn archetype_names_render() {
        let s = FaultSet::BGP_TRANSIENT | FaultSet::MTU_BLACKHOLE | FaultSet::WRONG_DNS;
        assert_eq!(s.names(), vec!["bgp-transient", "mtu-blackhole", "wrong-dns"]);
        assert_eq!(
            format!("{s:?}"),
            "FaultSet(bgp-transient|mtu-blackhole|wrong-dns)"
        );
    }

    #[test]
    fn names_are_in_bit_order() {
        let s = FaultSet::WAN | FaultSet::PROXY_LDNS | FaultSet::LAST_MILE;
        assert_eq!(s.names(), vec!["last-mile", "wan", "proxy-ldns"]);
        assert_eq!(format!("{s:?}"), "FaultSet(last-mile|wan|proxy-ldns)");
        // The two name lists give every bit one name, lowest bit first.
        for (i, &(name, bit)) in STRUCTURAL.iter().chain(&ARCHETYPES).enumerate() {
            assert_eq!(bit.0, 1 << i, "{name}");
            assert_eq!(bit.names(), vec![name]);
        }
    }

    #[test]
    fn provenance_record_all_unions_phases() {
        let p = ProvenanceRecord {
            dns: FaultSet::LDNS_DOWN,
            connect: FaultSet::SERVER_DEGRADED,
        };
        assert_eq!(p.all(), FaultSet::LDNS_DOWN | FaultSet::SERVER_DEGRADED);
        assert_eq!(p.all().true_blame(), TrueBlame::Both);
    }
}
