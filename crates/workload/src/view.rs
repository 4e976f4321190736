//! Per-vantage views over the ground truth.
//!
//! A [`ClientView`] (or [`ProxyView`]) binds one vantage point to the shared
//! immutable [`GroundTruth`] and answers the resolver's and connector's
//! questions. A connect is one walk: the vantage collects the fault set it
//! meets toward `(replica, t)`, one function reads the connection's
//! behaviour off that set, and the flight recorder stamps the same set.
//! Per-access randomness (does *this* access fail during a degraded
//! episode?) is computed by stateless hashing of
//! `(seed, replica, instant, vantage)`, keeping views `Sync` and the whole
//! experiment deterministic under any thread schedule.

use crate::faults::{GroundTruth, Replica, ServerFault};
use dnssim::DnsFaults;
use dnswire::DomainName;
use httpsim::Origin;
use model::{DnsErrorCode, FaultSet, SimDuration, SimTime};
use netsim::rng::splitmix64;
use tcpsim::{PathQuality, ServerBehavior};
use webclient::AccessEnvironment;
use std::net::Ipv4Addr;

/// Stateless uniform draw in [0, 1) from a key tuple.
fn hash_unit(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut s = seed ^ tag.rotate_left(17);
    let mut x = splitmix64(&mut s);
    x ^= a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut s2 = x ^ b.rotate_left(29) ^ c.rotate_left(47);
    let v = splitmix64(&mut s2);
    (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Pick an index from a 3-way mix using a unit draw.
fn pick_mix(mix: &[f64; 3], u: f64) -> usize {
    let total: f64 = mix.iter().sum();
    let mut acc = 0.0;
    for (i, w) in mix.iter().enumerate() {
        acc += w / total;
        if u < acc {
            return i;
        }
    }
    2
}

/// Behaviour mix inside a server degradation episode: mostly unanswered
/// SYNs, some accept-but-dead, some mid-transfer stalls — calibrated
/// against Figure 3 (no-connection dominates). Fast RSTs are reserved for
/// the near-permanent blocked pairs: within a degradation episode the
/// coherent-bucket draws would otherwise let wget burn its whole retry
/// budget on instant refusals and flood the client's own hourly rate.
const SERVER_EPISODE_MIX: [f64; 4] = [0.62, 0.0, 0.21, 0.17];

/// Server-fault draws are coherent over this window: a retry (or fail-over
/// to a same-group replica) seconds later sees the same condition, so a
/// degraded access usually fails as a *transaction*, not just as one
/// connection — the burstiness behind the paper's near-equal transaction
/// and connection failure counts.
const SERVER_DRAW_WINDOW_US: u64 = 120 * 1_000_000;

fn episode_behavior(u: f64, index_bytes: u64, stall_u: f64) -> ServerBehavior {
    let mut acc = 0.0;
    for (i, w) in SERVER_EPISODE_MIX.iter().enumerate() {
        acc += w;
        if u < acc {
            return match i {
                0 => ServerBehavior::Unreachable,
                1 => ServerBehavior::Refusing,
                2 => ServerBehavior::AcceptNoResponse,
                _ => ServerBehavior::StallAfter((index_bytes as f64 * stall_u) as u64),
            };
        }
    }
    ServerBehavior::Unreachable
}

/// Failure probability per access while a CDN regional brownout window is
/// active for the client's region (partial, like a degradation episode).
const BROWNOUT_FAIL_PROB: f64 = 0.65;

/// Bytes after which an MTU-blackholed transfer stalls: the connect and the
/// first small packets get through, the full-size data packets do not.
const MTU_STALL_BYTES: u64 = 1200;

/// `bit` when `on`, else the empty set.
fn flag(on: bool, bit: FaultSet) -> FaultSet {
    if on {
        bit
    } else {
        FaultSet::EMPTY
    }
}

/// Ground-truth zone-level DNS fault bits for `host` at `t` (flight
/// recorder), all read off one apex. Pure timeline lookups, shared by both
/// vantage kinds: wrong answers come from the zone itself, so every
/// vantage's resolver meets them.
fn zone_truth(gt: &GroundTruth, host: &DomainName, t: SimTime) -> FaultSet {
    let apex = dnssim::zones::registrable_domain(host);
    let auth_down = gt.zone_auth_down.get(apex).is_some_and(|tl| *tl.at(t));
    let zone_error = gt.zone_error.get(apex).is_some_and(|(tl, _)| *tl.at(t));
    let wrong = gt.adversarial.wrong_dns.get(apex);
    flag(auth_down, FaultSet::AUTH_DNS_DOWN)
        | flag(zone_error, FaultSet::ZONE_ERROR)
        | flag(wrong.is_some_and(|(tl, _)| *tl.at(t)), FaultSet::WRONG_DNS)
}

/// The faults at `t` toward `replica` (`at`: its place in the ground
/// truth) that belong to the destination, so every vantage meets them: a
/// decoy address, a co-location blast, a hard replica outage and a
/// degradation episode. The episode bit means the condition was active;
/// whether a particular access failed under it is the coherent-bucket
/// draw's business.
fn replica_faults(
    gt: &GroundTruth,
    replica: Ipv4Addr,
    at: Option<Replica<'_>>,
    t: SimTime,
) -> FaultSet {
    let decoy = flag(
        gt.adversarial.decoys.contains(&replica),
        FaultSet::WRONG_DNS,
    );
    let Some(r) = at else { return decoy };
    let server = match &r.truth.fault {
        ServerFault::Group { degraded, .. } => flag(*degraded.at(t), FaultSet::SERVER_DEGRADED),
        ServerFault::HardDown(flaps) => flag(*flaps[r.pos].at(t), FaultSet::REPLICA_DOWN),
    };
    decoy | flag(gt.adversarial.colo_blasted(r.site, t), FaultSet::COLO_BLAST) | server
}

/// Extra mean RTT (ms) toward `replica`'s site; 0 for an address no site
/// serves.
fn rtt_penalty_ms(gt: &GroundTruth, replica: Ipv4Addr) -> u64 {
    gt.replica(replica)
        .map_or(0, |r| u64::from(r.truth.rtt_penalty_ms))
}

/// What a vantage brings to a connect besides its fault set: the salt its
/// draws are keyed by, its per-access failure probability on a degraded
/// pair, and its background noise (probability, and the unreachable /
/// accept-no-response / stall mix).
struct Vantage {
    salt: u64,
    pair_fail_prob: f64,
    noise_prob: f64,
    noise_mix: [f64; 3],
}

/// The behaviour a connection toward `replica` (`at`: its place in the
/// ground truth) at `t` meets, read off the vantage's fault set: the first
/// condition present wins, in the order of the checks below, and with none
/// present the vantage's background noise decides. A partial condition (brownout, degraded pair,
/// degradation episode) whose draw spares the access falls through to the
/// next. Every draw is a stateless hash of the seed, the instant and the
/// vantage's salt, so reading the set consumes no RNG. An address no site
/// serves (a decoy) sizes its stalls as a 20,000-byte object. `LAST_MILE` is
/// stamped but drives no connect: the access link acts on name resolution
/// (`client_link_up`), so a connect made across a link outage meets only
/// the set's other bits.
fn read_behavior(
    gt: &GroundTruth,
    faults: FaultSet,
    replica: Ipv4Addr,
    at: Option<Replica<'_>>,
    t: SimTime,
    vantage: &Vantage,
) -> ServerBehavior {
    use ServerBehavior::{AcceptNoResponse, Healthy, Refusing, StallAfter, Unreachable};
    let has = |bit| faults.contains(bit);
    let addr_key = u64::from(u32::from(replica));
    let bytes = at.map_or(20_000, |r| r.truth.origin.index_bytes);
    let bucket = t.as_micros() / SERVER_DRAW_WINDOW_US;
    let draw = |tag, key| hash_unit(gt.seed, tag, key, bucket, vantage.salt);
    if has(FaultSet::WRONG_DNS) || has(FaultSet::BGP_TRANSIENT) {
        // The decoy accepts nothing. A reconfiguration transient violates
        // the client prefix's paths: like a WAN blip, connects die.
        return Unreachable;
    }
    if has(FaultSet::CENSORED) {
        // Censorship blocks like the permanent pairs do: fast resets.
        return Refusing;
    }
    if has(FaultSet::COLO_BLAST) {
        return Unreachable;
    }
    if has(FaultSet::VANTAGE_SPLIT) {
        return AcceptNoResponse;
    }
    if has(FaultSet::MTU_BLACKHOLE) {
        return StallAfter(MTU_STALL_BYTES.min(bytes));
    }
    // Partial like a degradation episode: coherent draws, so a browned
    // access fails as a transaction, not one connect.
    let site_key = at.map_or(0, |r| u64::from(r.site));
    if has(FaultSet::CDN_BROWNOUT) && draw(0xD1, site_key) < BROWNOUT_FAIL_PROB {
        return Unreachable;
    }
    if has(FaultSet::BLOCKED_PAIR) {
        // The paper's near-permanent pairs fail instantly (filtering at the
        // site or the client's network answers with resets), so wget's
        // time budget allows many retries — the mechanism behind their
        // outsized share of connection failures.
        return Refusing;
    }
    if has(FaultSet::WAN) {
        return Unreachable;
    }
    // Transiently degraded pair: path-specific trouble, coherent within a
    // transaction like the server draws.
    if has(FaultSet::DEGRADED_PAIR) && draw(0xC1, addr_key) < vantage.pair_fail_prob {
        return Unreachable;
    }
    // Hard-down flap (spread-site replicas): complete outage.
    if has(FaultSet::REPLICA_DOWN) {
        return Unreachable;
    }
    // Degradation episode: draws are keyed by the fault *group*, so retries
    // and same-group replicas share the outcome.
    if has(FaultSet::SERVER_DEGRADED) {
        if let Some(Replica { truth, .. }) = at {
            if let ServerFault::Group { id, .. } = truth.fault {
                let gid = u64::from(id);
                if draw(0xA1, gid) < truth.episode_fail_prob {
                    return episode_behavior(draw(0xA2, gid), bytes, draw(0xA3, gid));
                }
            }
        }
    }
    // Transient background noise, drawn per instant.
    let noise = |tag| hash_unit(gt.seed, tag, addr_key, t.as_micros(), vantage.salt);
    if noise(0xB1) < vantage.noise_prob {
        return match pick_mix(&vantage.noise_mix, noise(0xB2)) {
            0 => Unreachable,
            1 => AcceptNoResponse,
            _ => StallAfter((bytes as f64 * noise(0xB3)) as u64),
        };
    }
    Healthy
}

/// One measurement client's view of the world.
#[derive(Clone, Copy)]
pub struct ClientView<'g> {
    gt: &'g GroundTruth,
    client: u16,
}

impl<'g> ClientView<'g> {
    pub fn new(gt: &'g GroundTruth, client: u16) -> Self {
        ClientView { gt, client }
    }
}

impl DnsFaults for ClientView<'_> {
    fn client_link_up(&self, t: SimTime) -> bool {
        !*self.gt.link[self.client as usize].at(t)
    }

    fn ldns_up(&self, t: SimTime) -> bool {
        !*self.gt.ldns[self.client as usize].at(t)
    }

    fn auth_up(&self, zone_apex: &DomainName, t: SimTime) -> bool {
        // A wide-area outage cuts the LDNS off from every authoritative
        // server; zone-specific outages cut one zone off from everyone.
        if *self.gt.wan[self.client as usize].at(t) {
            return false;
        }
        match self.gt.zone_auth_down.get(zone_apex) {
            Some(tl) => !*tl.at(t),
            None => true,
        }
    }

    fn zone_error(&self, zone_apex: &DomainName, t: SimTime) -> Option<DnsErrorCode> {
        let (tl, code) = self.gt.zone_error.get(zone_apex)?;
        (*tl.at(t)).then_some(*code)
    }

    fn wrong_answer(&self, qname: &DomainName, t: SimTime) -> Option<Ipv4Addr> {
        self.gt.adversarial.wrong_answer(qname, t)
    }
}

impl AccessEnvironment for ClientView<'_> {
    fn server_behavior(&self, replica: Ipv4Addr, t: SimTime) -> (ServerBehavior, FaultSet) {
        let (gt, c) = (self.gt, self.client as usize);
        let adv = &gt.adversarial;
        let at = gt.replica(replica);
        let mut faults = replica_faults(gt, replica, at, t)
            | flag(*gt.link[c].at(t), FaultSet::LAST_MILE)
            | flag(*gt.wan[c].at(t), FaultSet::WAN)
            | flag(adv.bgp_transient_at(c, t), FaultSet::BGP_TRANSIENT);
        let mut pair_fail_prob = 0.0;
        if let Some(Replica { site, .. }) = at {
            let pair = (self.client, site);
            if let Some(&p) = gt.degraded_pairs.get(&pair) {
                faults |= FaultSet::DEGRADED_PAIR;
                pair_fail_prob = p;
            }
            let mtu = adv.mtu_blackholed(self.client, site, t);
            faults |= flag(gt.blocked.contains(&pair), FaultSet::BLOCKED_PAIR)
                | flag(adv.censored(self.client, site, t), FaultSet::CENSORED)
                | flag(adv.vantage_faulted(site, t), FaultSet::VANTAGE_SPLIT)
                | flag(adv.browning_out_for(site, c, t), FaultSet::CDN_BROWNOUT)
                | flag(mtu, FaultSet::MTU_BLACKHOLE);
        }
        let profile = &gt.profile[c];
        let vantage = Vantage {
            salt: u64::from(self.client),
            pair_fail_prob,
            noise_prob: profile.noise_prob,
            noise_mix: profile.noise_mix,
        };
        let behavior = read_behavior(gt, faults, replica, at, t, &vantage);
        (behavior, faults)
    }

    fn path_quality(&self, replica: Ipv4Addr, t: SimTime) -> PathQuality {
        let p = &self.gt.profile[self.client as usize];
        let penalty = rtt_penalty_ms(self.gt, replica);
        // Loss breathes a little with time of day (diurnal congestion).
        let hour = t.hour_bin() as f64;
        let diurnal = 1.0 + 0.3 * ((hour % 24.0) / 24.0 * std::f64::consts::TAU).sin();
        PathQuality {
            loss: (p.base_loss * diurnal).clamp(0.0, 0.2),
            rtt: p.base_rtt + SimDuration::from_millis(penalty),
        }
    }

    fn origin(&self, host: &DomainName) -> Option<&Origin> {
        self.gt.origin(host)
    }

    fn true_dns_faults(&self, host: &DomainName, t: SimTime) -> FaultSet {
        let c = self.client as usize;
        zone_truth(self.gt, host, t)
            | flag(*self.gt.link[c].at(t), FaultSet::LAST_MILE)
            | flag(*self.gt.ldns[c].at(t), FaultSet::LDNS_DOWN)
            | flag(*self.gt.wan[c].at(t), FaultSet::WAN)
    }
}

/// A corporate proxy's wide-area vantage.
#[derive(Clone, Copy)]
pub struct ProxyView<'g> {
    gt: &'g GroundTruth,
    proxy: u16,
    /// Extra RTT for proxies far from the US (the CHN client's proxy sits
    /// in Japan).
    pub rtt: SimDuration,
}

impl<'g> ProxyView<'g> {
    pub fn new(gt: &'g GroundTruth, proxy: u16) -> Self {
        let rtt = if proxy >= 3 {
            SimDuration::from_millis(120) // UK and CHN-via-Japan proxies
        } else {
            SimDuration::from_millis(40)
        };
        ProxyView { gt, proxy, rtt }
    }
}

impl DnsFaults for ProxyView<'_> {
    fn client_link_up(&self, t: SimTime) -> bool {
        !*self.gt.proxy_link[self.proxy as usize].at(t)
    }

    fn ldns_up(&self, t: SimTime) -> bool {
        !*self.gt.proxy_ldns[self.proxy as usize].at(t)
    }

    fn auth_up(&self, zone_apex: &DomainName, t: SimTime) -> bool {
        match self.gt.zone_auth_down.get(zone_apex) {
            Some(tl) => !*tl.at(t),
            None => true,
        }
    }

    fn zone_error(&self, zone_apex: &DomainName, t: SimTime) -> Option<DnsErrorCode> {
        let (tl, code) = self.gt.zone_error.get(zone_apex)?;
        (*tl.at(t)).then_some(*code)
    }

    fn wrong_answer(&self, qname: &DomainName, t: SimTime) -> Option<Ipv4Addr> {
        // Wrong answers come from the zone itself, so every vantage's
        // resolver picks up the same decoy.
        self.gt.adversarial.wrong_answer(qname, t)
    }
}

impl AccessEnvironment for ProxyView<'_> {
    fn server_behavior(&self, replica: Ipv4Addr, t: SimTime) -> (ServerBehavior, FaultSet) {
        // The proxy meets only the destination's own faults: the
        // client-scoped archetypes (censorship, transients, brownout
        // regions, MTU pairs) and the deliberately vantage-split faults do
        // not reach the proxy path.
        let at = self.gt.replica(replica);
        let faults = replica_faults(self.gt, replica, at, t);
        let vantage = Vantage {
            salt: 0x5000 + u64::from(self.proxy),
            pair_fail_prob: 0.0,
            noise_prob: 0.0008,
            noise_mix: [0.7, 0.18, 0.12],
        };
        let behavior = read_behavior(self.gt, faults, replica, at, t, &vantage);
        (behavior, faults)
    }

    fn path_quality(&self, replica: Ipv4Addr, _t: SimTime) -> PathQuality {
        let penalty = rtt_penalty_ms(self.gt, replica);
        PathQuality {
            loss: 0.004,
            rtt: self.rtt + SimDuration::from_millis(penalty),
        }
    }

    fn origin(&self, host: &DomainName) -> Option<&Origin> {
        self.gt.origin(host)
    }

    fn true_dns_faults(&self, host: &DomainName, t: SimTime) -> FaultSet {
        let p = self.proxy as usize;
        zone_truth(self.gt, host, t)
            | flag(*self.gt.proxy_link[p].at(t), FaultSet::PROXY_LINK)
            | flag(*self.gt.proxy_ldns[p].at(t), FaultSet::PROXY_LDNS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::build_fleet;
    use crate::sites::{build_sites, site_addresses};
    use model::ClientCategory;

    fn world() -> (crate::clients::FleetSpec, Vec<crate::sites::SiteSpec>, GroundTruth) {
        let fleet = build_fleet();
        let sites = build_sites();
        let none = crate::AdversarialProfile::none();
        let gt = GroundTruth::materialize(&fleet, &sites, 168, 11, 1.0, &none);
        (fleet, sites, gt)
    }

    /// A grouped site's first replica, and a world where that site's
    /// degradation episodes always fail the access.
    fn mapping_world() -> (GroundTruth, Ipv4Addr) {
        let (_, _, mut gt) = world();
        let site = gt
            .sites
            .iter_mut()
            .find(|s| matches!(s.fault, ServerFault::Group { .. }))
            .expect("a grouped site");
        site.episode_fail_prob = 1.0;
        let replica = site.addrs[0];
        (gt, replica)
    }

    /// A stall after the MTU's bytes of `replica`'s site's index object.
    fn mtu_stall(gt: &GroundTruth, replica: Ipv4Addr) -> ServerBehavior {
        let bytes = gt.replica(replica).unwrap().truth.origin.index_bytes;
        ServerBehavior::StallAfter(MTU_STALL_BYTES.min(bytes))
    }

    /// A vantage without background noise.
    fn quiet(pair_fail_prob: f64) -> Vantage {
        Vantage {
            salt: 3,
            pair_fail_prob,
            noise_prob: 0.0,
            noise_mix: [1.0, 0.0, 0.0],
        }
    }

    /// Instants one draw window apart, so each partial condition draws anew.
    fn windows(n: u64) -> impl Iterator<Item = SimTime> {
        (0..n).map(|k| SimTime::from_micros(k * SERVER_DRAW_WINDOW_US))
    }

    #[test]
    fn each_driving_bit_alone_gives_its_behavior() {
        use ServerBehavior::*;
        let (gt, replica) = mapping_world();
        let read = |faults, vantage: &Vantage, t| {
            read_behavior(&gt, faults, replica, gt.replica(replica), t, vantage)
        };
        let stall = mtu_stall(&gt, replica);
        for t in windows(50) {
            for (bit, want) in [
                (FaultSet::WRONG_DNS, Unreachable),
                (FaultSet::BGP_TRANSIENT, Unreachable),
                (FaultSet::CENSORED, Refusing),
                (FaultSet::COLO_BLAST, Unreachable),
                (FaultSet::VANTAGE_SPLIT, AcceptNoResponse),
                (FaultSet::MTU_BLACKHOLE, stall),
                (FaultSet::BLOCKED_PAIR, Refusing),
                (FaultSet::WAN, Unreachable),
                (FaultSet::DEGRADED_PAIR, Unreachable),
                (FaultSet::REPLICA_DOWN, Unreachable),
            ] {
                assert_eq!(read(bit, &quiet(1.0), t), want, "{bit:?}");
            }
            // An episode that always fails reads its mix, never a reset.
            let episode = read(FaultSet::SERVER_DEGRADED, &quiet(0.0), t);
            assert!(matches!(
                episode,
                Unreachable | AcceptNoResponse | StallAfter(_)
            ));
            // Neither an empty set nor the access link drives a connect.
            for faults in [FaultSet::EMPTY, FaultSet::LAST_MILE] {
                assert_eq!(read(faults, &quiet(1.0), t), Healthy, "{faults:?}");
            }
        }
        // The partial conditions fail their draw's share and spare the rest.
        let share = |faults, vantage: &Vantage| {
            let n = 4_000;
            let failed = windows(n)
                .filter(|&t| read(faults, vantage, t) != Healthy)
                .count();
            failed as f64 / n as f64
        };
        let brownout = share(FaultSet::CDN_BROWNOUT, &quiet(0.0));
        assert!(
            (brownout - BROWNOUT_FAIL_PROB).abs() < 0.03,
            "brownout {brownout}"
        );
        let pair = share(FaultSet::DEGRADED_PAIR, &quiet(0.3));
        assert!((pair - 0.3).abs() < 0.03, "degraded pair {pair}");
    }

    #[test]
    fn bits_resolve_in_precedence_order() {
        use ServerBehavior::*;
        let (gt, replica) = mapping_world();
        let at = gt.replica(replica);
        let read = |faults, t| read_behavior(&gt, faults, replica, at, t, &quiet(1.0));
        let stall = mtu_stall(&gt, replica);
        for t in windows(200) {
            assert_eq!(read(FaultSet::CENSORED | FaultSet::WAN, t), Refusing);
            assert_eq!(
                read(FaultSet::WRONG_DNS | FaultSet::BLOCKED_PAIR, t),
                Unreachable
            );
            assert_eq!(
                read(FaultSet::MTU_BLACKHOLE | FaultSet::CDN_BROWNOUT, t),
                stall
            );
        }
        // Every pair of the deterministic bits, listed in precedence order,
        // reads the earlier bit's behaviour.
        let order = [
            (FaultSet::WRONG_DNS, Unreachable),
            (FaultSet::BGP_TRANSIENT, Unreachable),
            (FaultSet::CENSORED, Refusing),
            (FaultSet::COLO_BLAST, Unreachable),
            (FaultSet::VANTAGE_SPLIT, AcceptNoResponse),
            (FaultSet::MTU_BLACKHOLE, stall),
            (FaultSet::BLOCKED_PAIR, Refusing),
            (FaultSet::WAN, Unreachable),
            (FaultSet::DEGRADED_PAIR, Unreachable),
            (FaultSet::REPLICA_DOWN, Unreachable),
        ];
        let t = SimTime::from_hours(3);
        for (i, &(first, want)) in order.iter().enumerate() {
            for &(later, _) in &order[i + 1..] {
                assert_eq!(read(first | later, t), want, "{:?}", first | later);
            }
        }
    }

    #[test]
    fn hash_unit_is_deterministic_and_uniformish() {
        let a = hash_unit(1, 2, 3, 4, 5);
        let b = hash_unit(1, 2, 3, 4, 5);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|i| hash_unit(7, 1, i, i * 3 + 1, 9))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pick_mix_respects_weights() {
        let mix = [0.5, 0.3, 0.2];
        let mut counts = [0usize; 3];
        let n = 30_000;
        for i in 0..n {
            let u = hash_unit(3, 9, i, 0, 0);
            counts[pick_mix(&mix, u)] += 1;
        }
        for (i, &w) in mix.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - w).abs() < 0.02, "bucket {i}: {freq} vs {w}");
        }
    }

    #[test]
    fn blocked_pair_refuses_forever() {
        let (_, sites, gt) = world();
        let (client, site) = *gt.blocked.iter().next().unwrap();
        let view = ClientView::new(&gt, client);
        let addrs = site_addresses(site as usize, sites[site as usize].layout);
        for h in [0u64, 50, 100] {
            assert_eq!(
                view.server_behavior(addrs[0], SimTime::from_hours(h)).0,
                ServerBehavior::Refusing,
                "blocked pairs fail fast with resets"
            );
        }
        // Another client is not blocked on that site (almost surely).
        let other = (0..134u16)
            .find(|c| !gt.blocked.contains(&(*c, site)))
            .unwrap();
        let other_view = ClientView::new(&gt, other);
        // At *some* instant the replica behaves healthily for the other
        // client (unless the site is one of the always-degraded ones).
        let mut any_healthy = false;
        for h in 0..168u64 {
            if other_view
                .server_behavior(addrs[0], SimTime::from_hours(h))
                .0
                == ServerBehavior::Healthy
            {
                any_healthy = true;
                break;
            }
        }
        let hostname = sites[site as usize].hostname;
        if !["www.sina.com.cn", "www.iitb.ac.in"].contains(&hostname) {
            assert!(any_healthy, "{hostname} never healthy for unblocked client");
        }
    }

    #[test]
    fn degraded_site_fails_a_calibrated_fraction() {
        let (_, sites, gt) = world();
        let si = sites
            .iter()
            .position(|s| s.hostname == "www.sina.com.cn")
            .unwrap();
        let addr = gt.sites[si].addrs[0];
        let view = ClientView::new(&gt, 20);
        // Sample many instants inside degraded periods.
        let ServerFault::Group { degraded: tl, .. } = &gt.sites[si].fault else {
            panic!("sina's replicas are grouped");
        };
        let mut degraded_samples = 0;
        let mut failures = 0;
        for k in 0..40_000u64 {
            let t = SimTime::from_micros(k * gt.horizon.as_micros() / 40_000);
            if !*tl.at(t) {
                continue;
            }
            degraded_samples += 1;
            if view.server_behavior(addr, t).0 != ServerBehavior::Healthy {
                failures += 1;
            }
        }
        assert!(degraded_samples > 1_000, "sina degraded often");
        let rate = failures as f64 / degraded_samples as f64;
        let expect = sites[si].reliability.episode_fail_prob;
        assert!(
            (rate - expect).abs() < 0.05,
            "episode fail rate {rate} vs {expect}"
        );
    }

    #[test]
    fn wan_outage_blocks_servers_and_auth() {
        let (fleet, sites, gt) = world();
        // Find a client with some WAN downtime in the window.
        let idx = (0..fleet.len())
            .find(|&i| {
                gt.wan[i].micros_matching(SimTime::ZERO, gt.horizon, |s| *s) > 0
            })
            .expect("some client has WAN trouble");
        let tl = &gt.wan[idx];
        let (start, end, _) = tl
            .segments()
            .find(|(_, _, s)| **s)
            .expect("has a down segment");
        let mid = SimTime::from_micros(
            (start.as_micros() + end.unwrap_or(gt.horizon).as_micros()) / 2,
        );
        let view = ClientView::new(&gt, idx as u16);
        let addr = site_addresses(0, sites[0].layout)[0];
        assert_eq!(
            view.server_behavior(addr, mid).0,
            ServerBehavior::Unreachable
        );
        let apex: DomainName = "example.com".parse().unwrap();
        assert!(!view.auth_up(&apex, mid));
    }

    #[test]
    fn proxy_view_is_well_connected() {
        let (_, sites, gt) = world();
        let view = ProxyView::new(&gt, 0);
        let addr = site_addresses(0, sites[0].layout)[0];
        let mut healthy = 0;
        let mut total = 0;
        for h in 0..168u64 {
            total += 1;
            if view.server_behavior(addr, SimTime::from_hours(h)).0 == ServerBehavior::Healthy {
                healthy += 1;
            }
        }
        assert!(healthy * 100 / total >= 95, "{healthy}/{total}");
        // Far-east proxy has higher RTT.
        assert!(ProxyView::new(&gt, 4).rtt > ProxyView::new(&gt, 0).rtt);
    }

    #[test]
    fn dialup_rtt_exceeds_planetlab() {
        let (fleet, sites, gt) = world();
        let pl = fleet
            .clients
            .iter()
            .position(|c| c.category == ClientCategory::PlanetLab)
            .unwrap();
        let du = fleet
            .clients
            .iter()
            .position(|c| c.category == ClientCategory::Dialup)
            .unwrap();
        let addr = site_addresses(0, sites[0].layout)[0];
        let t = SimTime::from_hours(5);
        let pl_q = ClientView::new(&gt, pl as u16).path_quality(addr, t);
        let du_q = ClientView::new(&gt, du as u16).path_quality(addr, t);
        assert!(du_q.rtt > pl_q.rtt);
    }

    #[test]
    fn intl_sites_are_farther() {
        let (_, sites, gt) = world();
        let us = sites
            .iter()
            .position(|s| s.category == model::SiteCategory::UsEdu)
            .unwrap();
        let intl = sites
            .iter()
            .position(|s| s.category == model::SiteCategory::IntlEdu)
            .unwrap();
        let view = ClientView::new(&gt, 0);
        let t = SimTime::from_hours(1);
        let us_rtt = view
            .path_quality(site_addresses(us, sites[us].layout)[0], t)
            .rtt;
        let intl_rtt = view
            .path_quality(site_addresses(intl, sites[intl].layout)[0], t)
            .rtt;
        assert!(intl_rtt > us_rtt);
    }
}
