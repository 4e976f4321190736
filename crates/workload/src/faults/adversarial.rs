//! Adversarial fault archetypes: modern failure modes the 2006 pipeline was
//! never tuned for, injected on top of the calibrated ground truth.
//!
//! Seven archetypes, each with a dedicated RNG stream (forked off the root
//! by a fresh string tag, so existing worlds stay bit-identical when an
//! archetype is off):
//!
//! * **BGP reconfiguration transients** — short-lived path violations for a
//!   client prefix during a scheduled reconfiguration window, mirrored by
//!   moderate route churn in the BGP feed (Chameleon, SIGCOMM'23).
//! * **Censorship-style path churn** — one client category × a small
//!   destination set blocked during windows whose onset coincides with
//!   injected churn on the destination prefixes ("A Churn for the Better").
//! * **Co-location blast radius** — shared-IP hosting groups of sites that
//!   fail together, totally, briefly.
//! * **Vantage-point disagreement** — site faults visible only from the
//!   direct-client vantage; the proxy path around them stays healthy.
//! * **CDN regional brownouts** — a CDN site browns out for the client
//!   groups of one region while the rest of the world sees it healthy.
//! * **MTU blackholes** — per-pair windows where connects succeed and
//!   transfers stall after the first packets.
//! * **Wrong-answer DNS** — a zone resolves to a decoy address that accepts
//!   nothing; resolution succeeds, the connect fails.

use crate::clients::FleetSpec;
use crate::sites::{ReplicaLayout, SiteSpec};
use dnswire::DomainName;
use model::{ClientCategory, FaultSet, SimDuration, SimTime, ARCHETYPES};
use netsim::{SimRng, Timeline};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Which adversarial archetypes to inject, and how hard.
///
/// Every field is an intensity: `0.0` disables the archetype entirely (no
/// RNG stream is even forked — the standard world is bit-identical), `1.0`
/// is the calibrated "adversarial month" level, and values in between scale
/// the number of injected windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdversarialProfile {
    /// BGP reconfiguration transients on client prefixes.
    pub bgp_transients: f64,
    /// Censorship-style blocking windows correlated with route churn.
    pub censorship: f64,
    /// Co-location blast-radius outages.
    pub colo_blast: f64,
    /// Vantage-point-disagreement site faults (direct clients only).
    pub vantage_split: f64,
    /// CDN regional brownouts.
    pub cdn_brownout: f64,
    /// Per-pair MTU blackhole windows.
    pub mtu_blackhole: f64,
    /// Wrong-answer DNS windows.
    pub wrong_dns: f64,
}

impl AdversarialProfile {
    /// The default: no adversarial fault anywhere (the pre-existing worlds).
    pub fn none() -> AdversarialProfile {
        AdversarialProfile {
            bgp_transients: 0.0,
            censorship: 0.0,
            colo_blast: 0.0,
            vantage_split: 0.0,
            cdn_brownout: 0.0,
            mtu_blackhole: 0.0,
            wrong_dns: 0.0,
        }
    }

    /// Every archetype at calibrated intensity — the combined stress world.
    pub fn adversarial_month() -> AdversarialProfile {
        AdversarialProfile {
            bgp_transients: 1.0,
            censorship: 1.0,
            colo_blast: 1.0,
            vantage_split: 1.0,
            cdn_brownout: 1.0,
            mtu_blackhole: 1.0,
            wrong_dns: 1.0,
        }
    }

    /// Preset with exactly one archetype enabled, by its stamp name (one
    /// of the [`model::ARCHETYPES`] names). Panics on an unknown name.
    pub fn only(name: &str) -> AdversarialProfile {
        let &(_, bit) = ARCHETYPES
            .iter()
            .find(|&&(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown archetype {name:?}"));
        let mut p = AdversarialProfile::none();
        let intensity = match bit {
            FaultSet::BGP_TRANSIENT => &mut p.bgp_transients,
            FaultSet::CENSORED => &mut p.censorship,
            FaultSet::COLO_BLAST => &mut p.colo_blast,
            FaultSet::VANTAGE_SPLIT => &mut p.vantage_split,
            FaultSet::CDN_BROWNOUT => &mut p.cdn_brownout,
            FaultSet::MTU_BLACKHOLE => &mut p.mtu_blackhole,
            FaultSet::WRONG_DNS => &mut p.wrong_dns,
            _ => unreachable!("every archetype has an intensity"),
        };
        *intensity = 1.0;
        p
    }

    /// Is every archetype disabled?
    pub fn is_none(&self) -> bool {
        *self == AdversarialProfile::none()
    }
}

/// A scheduled reconfiguration (or censorship-churn) window handed to the
/// BGP synthesizer: moderate flutter on one prefix — well below the severe
/// ≥70-neighbor storms, but visible in the update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfigWindowSpec {
    /// Index into the experiment's prefix table.
    pub prefix_index: u32,
    pub hour: u32,
    /// Peers that flutter (moderate: far below the severe threshold).
    pub peers: u16,
    /// Withdraw/re-announce rounds per peer inside the window.
    pub bursts: u16,
}

/// The materialized adversarial ground truth. Empty containers mean the
/// archetype is off; every accessor in `view` no-ops on empty state.
#[derive(Clone, Debug)]
pub struct AdversarialTruth {
    /// Per-client transient path-violation timeline (empty vec when off).
    pub bgp_transient: Vec<Timeline<bool>>,
    /// Reconfiguration windows for the BGP feed (transients + censor churn).
    pub reconfig_windows: Vec<ReconfigWindowSpec>,
    /// Clients inside the censored category slice.
    pub censored_clients: HashSet<u16>,
    /// Destination sites of the censorship campaign.
    pub censored_sites: HashSet<u16>,
    /// When the censorship campaign is actively blocking.
    pub censor_window: Timeline<bool>,
    /// Site → co-location group, and the per-group blast timeline.
    pub colo_of_site: HashMap<u16, u32>,
    pub colo_blast: Vec<Timeline<bool>>,
    /// Per-site fault windows visible only from the direct-client vantage.
    pub vantage_split: HashMap<u16, Timeline<bool>>,
    /// Per-CDN-site: (client groups of the browning region, window).
    pub cdn_brownout: HashMap<u16, (HashSet<u16>, Timeline<bool>)>,
    /// Client → wan group, captured so views can answer region membership
    /// (filled only when the brownout archetype is on).
    pub group_of_client: Vec<Option<u16>>,
    /// Per-pair MTU blackhole windows.
    pub mtu_blackhole: HashMap<(u16, u16), Timeline<bool>>,
    /// Zone apex → (wrong-answer window, decoy address served).
    pub wrong_dns: HashMap<DomainName, (Timeline<bool>, Ipv4Addr)>,
    /// Every decoy address in use (connect-phase stamping).
    pub decoys: HashSet<Ipv4Addr>,
}

impl Default for AdversarialTruth {
    fn default() -> AdversarialTruth {
        AdversarialTruth {
            bgp_transient: Vec::new(),
            reconfig_windows: Vec::new(),
            censored_clients: HashSet::new(),
            censored_sites: HashSet::new(),
            censor_window: Timeline::constant(false),
            colo_of_site: HashMap::new(),
            colo_blast: Vec::new(),
            vantage_split: HashMap::new(),
            cdn_brownout: HashMap::new(),
            group_of_client: Vec::new(),
            mtu_blackhole: HashMap::new(),
            wrong_dns: HashMap::new(),
            decoys: HashSet::new(),
        }
    }
}

impl AdversarialTruth {
    /// Is the pair inside an active censorship window at `t`?
    pub fn censored(&self, client: u16, site: u16, t: SimTime) -> bool {
        !self.censored_sites.is_empty()
            && *self.censor_window.at(t)
            && self.censored_clients.contains(&client)
            && self.censored_sites.contains(&site)
    }

    /// Is the site inside a co-location blast at `t`?
    pub fn colo_blasted(&self, site: u16, t: SimTime) -> bool {
        self.colo_of_site
            .get(&site)
            .is_some_and(|&g| *self.colo_blast[g as usize].at(t))
    }

    /// Is the site faulted for the *direct* vantage at `t`?
    pub fn vantage_faulted(&self, site: u16, t: SimTime) -> bool {
        self.vantage_split.get(&site).is_some_and(|tl| *tl.at(t))
    }

    /// Is the site browning out for this client group at `t`?
    pub fn browning_out(&self, site: u16, group: Option<u16>, t: SimTime) -> bool {
        let Some(g) = group else { return false };
        self.cdn_brownout
            .get(&site)
            .is_some_and(|(region, tl)| region.contains(&g) && *tl.at(t))
    }

    /// As [`Self::browning_out`], looking the client's group up first.
    pub fn browning_out_for(&self, site: u16, client: usize, t: SimTime) -> bool {
        if self.cdn_brownout.is_empty() {
            return false;
        }
        let group = self.group_of_client.get(client).copied().flatten();
        self.browning_out(site, group, t)
    }

    /// Is the pair inside an MTU blackhole window at `t`?
    pub fn mtu_blackholed(&self, client: u16, site: u16, t: SimTime) -> bool {
        self.mtu_blackhole
            .get(&(client, site))
            .is_some_and(|tl| *tl.at(t))
    }

    /// Is the client's prefix inside a reconfiguration transient at `t`?
    pub fn bgp_transient_at(&self, client: usize, t: SimTime) -> bool {
        self.bgp_transient.get(client).is_some_and(|tl| *tl.at(t))
    }

    /// The decoy the zone of `qname` serves at `t`, if a wrong-answer window
    /// is active. The zone apex is read in place, and a world without the
    /// archetype answers before reading it.
    pub fn wrong_answer(&self, qname: &DomainName, t: SimTime) -> Option<Ipv4Addr> {
        if self.wrong_dns.is_empty() {
            return None;
        }
        let (tl, decoy) = self.wrong_dns.get(dnssim::zones::registrable_domain(qname))?;
        (*tl.at(t)).then_some(*decoy)
    }
}

/// Collapse a bag of `[start, end)` intervals into a boolean timeline.
fn timeline_from_intervals(mut iv: Vec<(SimTime, SimTime)>) -> Timeline<bool> {
    if iv.is_empty() {
        return Timeline::constant(false);
    }
    iv.sort_unstable();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (s, e) in iv {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let mut changes = Vec::with_capacity(merged.len() * 2);
    for (s, e) in merged {
        changes.push((s, true));
        changes.push((e, false));
    }
    Timeline::from_changes(false, changes)
}

/// `count` windows collapsed into one timeline. Each starts `below(jitter_s)`
/// seconds past a uniform hour of the horizon and lasts `min_s` plus
/// `below(span_s)` seconds; window by window, the draws come in that order.
fn windows(
    rng: &mut SimRng,
    hours: u32,
    count: u64,
    jitter_s: u64,
    min_s: u64,
    span_s: u64,
) -> Timeline<bool> {
    let iv = (0..count)
        .map(|_| {
            let start = SimTime::from_hours(rng.below(u64::from(hours)))
                + SimDuration::from_secs(rng.below(jitter_s));
            let end = start + SimDuration::from_secs(min_s + rng.below(span_s));
            (start, end)
        })
        .collect();
    timeline_from_intervals(iv)
}

/// Materialize the adversarial truth. Every archetype draws only from its
/// own `fork_str` stream and only when enabled, so a disabled archetype
/// leaves the rest of the world untouched down to the bit.
pub(crate) fn materialize_adversarial(
    fleet: &FleetSpec,
    sites: &[SiteSpec],
    hours: u32,
    root: &SimRng,
    profile: &AdversarialProfile,
    blocked: &HashSet<(u16, u16)>,
) -> AdversarialTruth {
    let mut out = AdversarialTruth::default();
    let hour_of = |h: u64| SimTime::from_hours(h);

    // (a) BGP reconfiguration transients: a few maintenance windows per day,
    // each giving one client prefix 2–4 path-violation blips of 4–10 min.
    if profile.bgp_transients > 0.0 && fleet.group_count > 0 {
        let mut rng = root.fork_str("adv-bgp-transient");
        let windows = ((f64::from(hours) * profile.bgp_transients / 12.0).round() as u64).max(2);
        let mut group_iv: HashMap<u16, Vec<(SimTime, SimTime)>> = HashMap::new();
        for _ in 0..windows {
            let g = rng.below(u64::from(fleet.group_count)) as u16;
            let hour = rng.below(u64::from(hours)) as u32;
            let bursts = 2 + rng.below(3) as u16;
            let iv = group_iv.entry(g).or_default();
            for _ in 0..bursts {
                let start = hour_of(u64::from(hour)) + SimDuration::from_secs(rng.below(3000));
                iv.push((start, start + SimDuration::from_secs(240 + rng.below(360))));
            }
            out.reconfig_windows.push(ReconfigWindowSpec {
                prefix_index: u32::from(g),
                hour,
                peers: 8 + rng.below(12) as u16,
                bursts,
            });
        }
        out.bgp_transient = fleet
            .clients
            .iter()
            .map(|c| match c.wan_group.and_then(|g| group_iv.get(&g)) {
                Some(iv) => timeline_from_intervals(iv.clone()),
                None => Timeline::constant(false),
            })
            .collect();
    }

    // (b) Censorship-style path churn: PlanetLab clients in a third of the
    // groups lose 3 destination sites for multi-hour windows; each onset
    // hour fires moderate route churn on the destination prefixes.
    if profile.censorship > 0.0 && fleet.group_count > 0 && !sites.is_empty() {
        let mut rng = root.fork_str("adv-censor");
        let picks = rng.sample_indices(sites.len(), 3.min(sites.len()));
        out.censored_sites = picks.iter().map(|&s| s as u16).collect();
        let group_picks: HashSet<u16> = rng
            .sample_indices(
                fleet.group_count as usize,
                (fleet.group_count as usize / 3).max(1),
            )
            .into_iter()
            .map(|g| g as u16)
            .collect();
        out.censored_clients = fleet
            .clients
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.category == ClientCategory::PlanetLab
                    && c.wan_group.is_some_and(|g| group_picks.contains(&g))
            })
            .map(|(i, _)| i as u16)
            .collect();
        let server_prefix_base = u32::from(fleet.group_count);
        let n = ((f64::from(hours) * profile.censorship / 36.0).ceil() as u64).max(1);
        let mut iv = Vec::new();
        for _ in 0..n {
            let start_h = rng.below(u64::from(hours));
            let start = hour_of(start_h) + SimDuration::from_secs(rng.below(1800));
            iv.push((start, start + SimDuration::from_hours(2 + rng.below(5))));
            for &s in &picks {
                out.reconfig_windows.push(ReconfigWindowSpec {
                    prefix_index: server_prefix_base + s as u32,
                    hour: start_h as u32,
                    peers: 6 + rng.below(8) as u16,
                    bursts: 3,
                });
            }
        }
        out.censor_window = timeline_from_intervals(iv);
    }

    // (c) Co-location blast radius: two hosting groups of 4 sites each;
    // short total outages that take every member down at once.
    if profile.colo_blast > 0.0 && sites.len() >= 8 {
        let mut rng = root.fork_str("adv-colo");
        let mut order: Vec<usize> = (0..sites.len()).collect();
        rng.shuffle(&mut order);
        let mut members = order.into_iter();
        for gid in 0u32..2 {
            for s in (&mut members).take(4) {
                out.colo_of_site.insert(s as u16, gid);
            }
            let count = ((f64::from(hours) * profile.colo_blast / 24.0).ceil() as u64).max(1);
            let window = windows(&mut rng, hours, count, 3000, 600, 2400);
            out.colo_blast.push(window);
        }
    }

    // (d) Vantage-point disagreement: site faults only direct clients see.
    if profile.vantage_split > 0.0 && !sites.is_empty() {
        let mut rng = root.fork_str("adv-vantage");
        for s in rng.sample_indices(sites.len(), 4.min(sites.len())) {
            let count = ((f64::from(hours) * profile.vantage_split / 12.0).ceil() as u64).max(1);
            let window = windows(&mut rng, hours, count, 1800, 900, 2700);
            out.vantage_split.insert(s as u16, window);
        }
    }

    // (e) CDN regional brownouts: every CDN-layout site gets a region (a
    // third of the client groups) and brownout windows for that region only.
    if profile.cdn_brownout > 0.0 && fleet.group_count > 0 {
        let mut rng = root.fork_str("adv-cdn");
        out.group_of_client = fleet.clients.iter().map(|c| c.wan_group).collect();
        let cdn_sites: Vec<u16> = sites
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.layout, ReplicaLayout::Cdn { .. }))
            .map(|(i, _)| i as u16)
            .collect();
        for &s in &cdn_sites {
            let region: HashSet<u16> = rng
                .sample_indices(
                    fleet.group_count as usize,
                    (fleet.group_count as usize / 3).max(1),
                )
                .into_iter()
                .map(|g| g as u16)
                .collect();
            let count = ((f64::from(hours) * profile.cdn_brownout / 18.0).ceil() as u64).max(1);
            let window = windows(&mut rng, hours, count, 1800, 1800, 3600);
            out.cdn_brownout.insert(s, (region, window));
        }
    }

    // (f) MTU blackholes: a handful of direct (client, site) pairs whose
    // transfers stall inside multi-hour windows. Disjoint from the blocked
    // pairs so each pair-level mechanism stays attributable.
    if profile.mtu_blackhole > 0.0 && !sites.is_empty() && !fleet.is_empty() {
        let mut rng = root.fork_str("adv-mtu");
        let target = ((6.0 * profile.mtu_blackhole).round() as usize).max(1);
        let mut guard = 0;
        while out.mtu_blackhole.len() < target && guard < 200 {
            guard += 1;
            let c = rng.below(fleet.len() as u64) as u16;
            let s = rng.below(sites.len() as u64) as u16;
            if blocked.contains(&(c, s))
                || out.mtu_blackhole.contains_key(&(c, s))
                || fleet.clients[c as usize].proxy.is_some()
            {
                continue;
            }
            let count = ((f64::from(hours) / 24.0).ceil() as u64).max(2);
            let window = windows(&mut rng, hours, count, 1200, 3600, 7200);
            out.mtu_blackhole.insert((c, s), window);
        }
    }

    // (g) Wrong-answer DNS: three zones intermittently resolve to a decoy
    // in TEST-NET-1 that accepts no connections.
    if profile.wrong_dns > 0.0 && !sites.is_empty() {
        let mut rng = root.fork_str("adv-wrong-dns");
        let picks = rng.sample_indices(sites.len(), 3.min(sites.len()));
        for (i, &s) in picks.iter().enumerate() {
            let Ok(host) = sites[s].hostname.parse::<DomainName>() else {
                continue;
            };
            let apex = host
                .ancestor(dnssim::zones::registrable_domain(&host))
                .expect("a suffix of the host");
            let decoy = Ipv4Addr::new(192, 0, 2, 10 + i as u8);
            let count = ((f64::from(hours) * profile.wrong_dns / 12.0).ceil() as u64).max(1);
            let window = windows(&mut rng, hours, count, 2400, 900, 1800);
            out.decoys.insert(decoy);
            out.wrong_dns.insert(apex, (window, decoy));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::build_fleet;
    use crate::sites::build_sites;

    fn materialize(profile: &AdversarialProfile, hours: u32) -> AdversarialTruth {
        let fleet = build_fleet();
        let sites = build_sites();
        let root = SimRng::new(7);
        let blocked = HashSet::new();
        materialize_adversarial(&fleet, &sites, hours, &root, profile, &blocked)
    }

    #[test]
    fn disabled_profile_materializes_nothing() {
        let t = materialize(&AdversarialProfile::none(), 48);
        assert!(t.bgp_transient.is_empty());
        assert!(t.reconfig_windows.is_empty());
        assert!(t.censored_clients.is_empty() && t.censored_sites.is_empty());
        assert!(t.colo_blast.is_empty() && t.colo_of_site.is_empty());
        assert!(t.vantage_split.is_empty());
        assert!(t.cdn_brownout.is_empty());
        assert!(t.mtu_blackhole.is_empty());
        assert!(t.wrong_dns.is_empty() && t.decoys.is_empty());
    }

    #[test]
    fn adversarial_month_populates_every_archetype() {
        let t = materialize(&AdversarialProfile::adversarial_month(), 96);
        assert!(!t.bgp_transient.is_empty());
        assert!(!t.reconfig_windows.is_empty());
        assert!(!t.censored_clients.is_empty() && t.censored_sites.len() == 3);
        assert_eq!(t.colo_blast.len(), 2);
        assert_eq!(t.colo_of_site.len(), 8);
        assert_eq!(t.vantage_split.len(), 4);
        assert!(!t.cdn_brownout.is_empty(), "the fleet has CDN sites");
        assert!(!t.mtu_blackhole.is_empty());
        assert_eq!(t.wrong_dns.len(), 3);
        // MTU pairs avoid proxied clients — the proxy hides the path.
        let fleet = build_fleet();
        for (c, _) in t.mtu_blackhole.keys() {
            assert!(fleet.clients[*c as usize].proxy.is_none());
        }
    }

    #[test]
    fn single_archetype_presets_are_isolated() {
        for (name, _) in ARCHETYPES {
            let p = AdversarialProfile::only(name);
            assert!(!p.is_none());
            let t = materialize(&p, 48);
            assert_eq!(t.vantage_split.is_empty(), name != "vantage-split");
            assert_eq!(t.mtu_blackhole.is_empty(), name != "mtu-blackhole");
            assert_eq!(t.wrong_dns.is_empty(), name != "wrong-dns");
        }
    }

    #[test]
    fn materialization_is_deterministic() {
        let a = materialize(&AdversarialProfile::adversarial_month(), 48);
        let b = materialize(&AdversarialProfile::adversarial_month(), 48);
        assert_eq!(a.reconfig_windows, b.reconfig_windows);
        assert_eq!(a.censored_clients, b.censored_clients);
        assert_eq!(
            a.mtu_blackhole.keys().collect::<HashSet<_>>(),
            b.mtu_blackhole.keys().collect::<HashSet<_>>()
        );
    }

    #[test]
    fn interval_merge_handles_overlaps() {
        let s = SimTime::from_secs;
        let tl = timeline_from_intervals(vec![(s(10), s(20)), (s(15), s(30)), (s(40), s(50))]);
        assert!(!*tl.at(s(5)));
        assert!(*tl.at(s(12)) && *tl.at(s(25)));
        assert!(!*tl.at(s(35)));
        assert!(*tl.at(s(45)));
        assert!(!*tl.at(s(55)));
    }
}
