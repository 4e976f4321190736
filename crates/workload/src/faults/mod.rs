//! The ground-truth fault model.
//!
//! Every mechanism the paper hypothesizes behind its observations exists
//! here as an explicit stochastic process, materialized into deterministic
//! timelines once per experiment:
//!
//! * **Last-mile / LDNS outages** (per client, plus a component shared by
//!   co-located clients): the client cannot reach its LDNS → *LDNS timeout*
//!   DNS failures — the paper's dominant DNS failure cause, and the reason
//!   client connectivity problems hide in the DNS category rather than the
//!   TCP one (Section 4.4.4).
//! * **Wide-area (WAN) outages** (per client, shared at the site uplink):
//!   the campus prefix is unreachable — cached names still resolve, so these
//!   surface as TCP no-connection failures; they drive the client-side
//!   episodes of the correlation analysis and couple to severe BGP events.
//! * **Server degradation episodes** (per replica group): heavy-tailed
//!   episodes during which a fraction of accesses fail (down/refusing/
//!   unresponsive/stalling) — "abnormally high failure rate", not blackout.
//! * **Authoritative-DNS faults** per zone: unreachable servers (non-LDNS
//!   timeouts) and broken configurations (SERVFAIL/NXDOMAIN bursts on
//!   brazzil/espn).
//! * **38 near-permanently blocked client–site pairs** (Section 4.4.2).
//! * **Transient background noise** per connection — the "other" category.
//!
//! Distinct from all of the above is the **apparatus fault model**
//! ([`ApparatusFaults`], re-exported from [`crate::apparatus`]): failures
//! of the measurement platform itself (node crashes, lost records,
//! corrupted trace files). Ground-truth faults are what the analysis
//! *infers*; apparatus faults are what it must *survive*.

use crate::clients::{ClientProfile, FleetSpec};
use crate::sites::{site_addresses, ReplicaLayout, SiteSpec};
use dnswire::DomainName;
use httpsim::Origin;
use model::{ClientCategory, DnsErrorCode, SimDuration, SimTime};
use netsim::process::EpisodeDuration;
use netsim::{OnOffProcess, SimRng, Timeline};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

pub mod adversarial;
mod profile;

// The *apparatus* fault model — failures of the measurement platform
// itself, as opposed to the network faults modelled below — lives in
// [`crate::apparatus`] and is re-exported here so both fault families are
// reachable from one module path.
pub use crate::apparatus::ApparatusFaults;
pub use adversarial::{AdversarialProfile, AdversarialTruth, ReconfigWindowSpec};
pub use profile::FaultProfile;

/// One severe BGP instability event to synthesize (consumed by `bgpsim`).
#[derive(Clone, Copy, Debug)]
pub struct SevereBgpEvent {
    /// Index into the experiment's prefix table.
    pub prefix_index: u32,
    pub hour: u32,
    pub neighbors: u16,
    pub withdrawals_per_neighbor: u16,
}

/// One site's ground truth in one entry: every reader of a site, from the
/// zone tree to the answer key, reads it from here.
#[derive(Clone, Debug)]
pub struct SiteTruth {
    /// The hostname the URL list names, parsed once.
    pub name: DomainName,
    /// The addresses each of the site's names resolves to.
    pub addrs: Vec<Ipv4Addr>,
    /// The site's HTTP behaviour: its canonical and redirect names and the
    /// index object size (which also sizes mid-transfer stalls).
    pub origin: Origin,
    /// Probability an access fails while the site is degraded.
    pub episode_fail_prob: f64,
    /// Extra mean RTT toward the site (ms).
    pub rtt_penalty_ms: u32,
    /// How the site's servers fail.
    pub fault: ServerFault,
}

/// The server-side fault process behind a site's addresses.
#[derive(Clone, Debug)]
pub enum ServerFault {
    /// All addresses degrade together (one subnet, or one origin behind a
    /// CDN) while `degraded` is true. `id` numbers the grouped sites in
    /// site order and keys the episode's coherent draws, so retries and
    /// same-group replicas share an access's outcome.
    Group { id: u32, degraded: Timeline<bool> },
    /// Independent hard-down flap timelines, one per address, parallel to
    /// [`SiteTruth::addrs`] (spread replicas: full outage while active;
    /// Section 4.7's proxy-victim mechanism).
    HardDown(Vec<Timeline<bool>>),
}

/// A replica address's place in the ground truth: the site it serves, that
/// site's entry, and the address's position in the entry's address list.
#[derive(Clone, Copy)]
pub(crate) struct Replica<'g> {
    pub site: u16,
    pub truth: &'g SiteTruth,
    pub pos: usize,
}

/// The materialized ground truth for one experiment.
pub struct GroundTruth {
    pub horizon: SimTime,
    pub hours: u32,
    /// Per-client combined last-mile/LDNS-path outage timeline (own ∪ shared).
    pub link: Vec<Timeline<bool>>,
    /// Per-client LDNS-server outage timeline.
    pub ldns: Vec<Timeline<bool>>,
    /// Per-client wide-area outage timeline (own ∪ shared).
    pub wan: Vec<Timeline<bool>>,
    /// Per-client machine-off timeline.
    pub down: Vec<Timeline<bool>>,
    /// Per-client fault profile (noise, loss, RTT).
    pub profile: Vec<FaultProfile>,
    /// One entry per site, in site order; the two indexes point into it.
    pub(crate) sites: Vec<SiteTruth>,
    /// Replica address → (site, position in the site's address list).
    replica_index: HashMap<Ipv4Addr, (u16, u16)>,
    /// Served name → site: every site's listed name, and a redirecting
    /// site's canonical name too.
    name_index: HashMap<DomainName, u16>,
    /// Authoritative-DNS outage timeline per zone apex.
    pub zone_auth_down: HashMap<DomainName, Timeline<bool>>,
    /// Broken-zone (error-response) timeline per zone apex.
    pub zone_error: HashMap<DomainName, (Timeline<bool>, DnsErrorCode)>,
    /// Near-permanently blocked (client, site) pairs.
    pub blocked: HashSet<(u16, u16)>,
    /// Transiently degraded (client, site) pairs → per-access failure
    /// probability (Section 2.2's client-server-specific category: e.g. a
    /// broken peering or MTU blackhole between one campus and one site,
    /// too weak to register on either endpoint's aggregate).
    pub degraded_pairs: HashMap<(u16, u16), f64>,
    /// Per-proxy vantage outage timelines.
    pub proxy_link: Vec<Timeline<bool>>,
    pub proxy_ldns: Vec<Timeline<bool>>,
    /// Severe BGP events derived from (and coupled to) the outages above.
    pub severe_bgp: Vec<SevereBgpEvent>,
    /// Adversarial archetype truth (all containers empty unless an
    /// [`AdversarialProfile`] explicitly enabled an archetype).
    pub adversarial: AdversarialTruth,
    /// Root seed (used for the stateless per-access noise hashing).
    pub seed: u64,
}

/// Convert a target long-run down fraction + mean episode length into an
/// on/off process.
fn process_for(down_frac: f64, episode: SimDuration) -> OnOffProcess {
    if down_frac <= 0.0 {
        return OnOffProcess::never();
    }
    let mean_down = episode.as_micros() as f64;
    let mean_up = mean_down * (1.0 - down_frac) / down_frac;
    OnOffProcess::new(
        SimDuration::from_micros(mean_up as u64),
        EpisodeDuration::Exp { mean: episode },
    )
}

/// Union of two boolean timelines (true where either is true).
fn union(a: &Timeline<bool>, b: &Timeline<bool>) -> Timeline<bool> {
    let mut points: Vec<SimTime> = Vec::new();
    for (start, _, _) in a.segments() {
        points.push(start);
    }
    for (start, _, _) in b.segments() {
        points.push(start);
    }
    points.sort_unstable();
    points.dedup();
    let changes: Vec<(SimTime, bool)> = points
        .into_iter()
        .map(|t| (t, *a.at(t) || *b.at(t)))
        .collect();
    let initial = changes
        .first()
        .map(|(t, s)| if t.as_micros() == 0 { *s } else { false })
        .unwrap_or(false);
    Timeline::from_changes(initial, changes)
}

impl GroundTruth {
    /// Materialize the world for `fleet` × `sites` over `hours` hours.
    ///
    /// Every fault intensity (client link/LDNS/WAN outage fractions, server
    /// degradation and flap fractions, DNS-infrastructure faults, transient
    /// noise) is multiplied by `fault_scale`. `1.0` is the calibrated 2005
    /// Internet; `0.0` is a fault-free world (only background packet loss
    /// remains); `2.0` is an Internet twice as broken. Blocked pairs are
    /// kept regardless — they are configuration, not weather.
    ///
    /// `adversarial` selects the adversarial archetypes to inject.
    /// Archetypes draw exclusively from their own freshly-tagged RNG
    /// streams, so any world with `AdversarialProfile::none()` is
    /// bit-identical to one built before the archetypes existed.
    pub fn materialize(
        fleet: &FleetSpec,
        sites: &[SiteSpec],
        hours: u32,
        seed: u64,
        fault_scale: f64,
        adversarial: &AdversarialProfile,
    ) -> GroundTruth {
        let k = fault_scale.max(0.0);
        let horizon = SimTime::from_hours(u64::from(hours));
        let root = SimRng::new(seed);

        // --- Shared (group-level) processes --------------------------------
        // Keyed by wan_group; intensities come from the *max* profile among
        // members (the Intel/Columbia subgroup values are defined there).
        let mut shared_link: HashMap<u16, Timeline<bool>> = HashMap::new();
        let mut shared_wan: HashMap<u16, Timeline<bool>> = HashMap::new();
        for c in &fleet.clients {
            let Some(g) = c.wan_group else { continue };
            let p = FaultProfile::for_profile(c.profile);
            // Columbia-quiet must not join the noisy subgroup process: its
            // own shared_* values are tiny, and since every member writes
            // its own key only once (first wins), order in the fleet matters;
            // we take the max intensity member instead.
            let link_entry = shared_link.entry(g);
            if let std::collections::hash_map::Entry::Vacant(e) = link_entry {
                let mut rng = root.fork(0x11_0000 + u64::from(g));
                e.insert(
                    process_for(
                        k * shared_intensity(fleet, g, |p| p.shared_link_down),
                        p.link_episode,
                    )
                    .materialize(&mut rng, horizon),
                );
            }
            if let std::collections::hash_map::Entry::Vacant(e) = shared_wan.entry(g) {
                let mut rng = root.fork(0x12_0000 + u64::from(g));
                e.insert(
                    process_for(
                        k * shared_intensity(fleet, g, |p| p.shared_wan_down),
                        p.wan_episode,
                    )
                    .materialize(&mut rng, horizon),
                );
            }
        }

        // --- Per-client timelines -------------------------------------------
        let mut link = Vec::with_capacity(fleet.len());
        let mut ldns = Vec::with_capacity(fleet.len());
        let mut wan = Vec::with_capacity(fleet.len());
        let mut down = Vec::with_capacity(fleet.len());
        let mut profile = Vec::with_capacity(fleet.len());
        for (i, c) in fleet.clients.iter().enumerate() {
            let mut p = FaultProfile::for_profile(c.profile);
            p.noise_prob *= k;
            let mut rng = root.fork(0x20_0000 + i as u64);
            let own_link =
                process_for(k * p.own_link_down, p.link_episode).materialize(&mut rng, horizon);
            let own_wan =
                process_for(k * p.own_wan_down, p.wan_episode).materialize(&mut rng, horizon);
            let ldns_tl = process_for(k * p.ldns_down, p.link_episode).materialize(&mut rng, horizon);
            let down_tl = process_for(p.machine_down, SimDuration::from_hours(5))
                .materialize(&mut rng, horizon);
            let (l, w) = match c.wan_group {
                Some(g) if subscribes_shared(c.profile) => (
                    union(&own_link, &shared_link[&g]),
                    union(&own_wan, &shared_wan[&g]),
                ),
                _ => (own_link, own_wan),
            };
            link.push(l);
            wan.push(w);
            ldns.push(ldns_tl);
            down.push(down_tl);
            profile.push(p);
        }

        // --- Sites: names, addresses, origins, server-side processes -------
        let episode_dist = EpisodeDuration::BoundedPareto {
            min: SimDuration::from_secs(45 * 60),
            alpha: 1.25,
            cap: SimDuration::from_hours(450),
        };
        let mut groups = 0u32;
        let mut site_truths = Vec::with_capacity(sites.len());
        let mut replica_index = HashMap::new();
        let mut name_index = HashMap::new();
        for (si, s) in sites.iter().enumerate() {
            let name: DomainName = s.hostname.parse().expect("valid hostname");
            let addrs = site_addresses(si, s.layout);
            for (pos, a) in addrs.iter().enumerate() {
                replica_index.insert(*a, (si as u16, pos as u16));
            }
            let origin = if s.redirect_hop {
                let canonical = canonical_host(s.hostname).parse().expect("valid hostname");
                Origin::simple(canonical, s.index_bytes).with_redirects(vec![name.clone()])
            } else {
                Origin::simple(name.clone(), s.index_bytes)
            }
            .with_error_rate(0.0002, 503);
            for host in origin.hosts() {
                name_index.insert(host.clone(), si as u16);
            }
            let fault = match s.layout {
                ReplicaLayout::Single
                | ReplicaLayout::MultiSameSubnet { .. }
                | ReplicaLayout::Cdn { .. } => {
                    // One fault group: all addresses degrade together
                    // (same subnet / same origin behind the CDN).
                    let mut rng = root.fork(0x30_0000 + si as u64 * 8);
                    let frac = (s.reliability.down_fraction * k).min(0.97);
                    let degraded = if frac <= 0.0 {
                        Timeline::constant(false)
                    } else {
                        let mean_down = episode_dist.mean_micros();
                        let mean_up = mean_down * (1.0 - frac) / frac;
                        OnOffProcess::new(SimDuration::from_micros(mean_up as u64), episode_dist)
                            .materialize(&mut rng, horizon)
                    };
                    let id = groups;
                    groups += 1;
                    ServerFault::Group { id, degraded }
                }
                ReplicaLayout::MultiSpread { .. } => {
                    // Independent short hard-down flaps per replica; the
                    // first address is the flakiest. No shared degradation
                    // group: a spread site's trouble is always partial.
                    let flaps = (0..addrs.len())
                        .map(|ri| {
                            let frac = k * if ri == 0 {
                                s.reliability.replica_flap_fraction
                            } else {
                                s.reliability.replica_flap_fraction * 0.5
                            };
                            let mut rng = root.fork(0x31_0000 + si as u64 * 8 + ri as u64);
                            process_for(frac, SimDuration::from_secs(8 * 60))
                                .materialize(&mut rng, horizon)
                        })
                        .collect();
                    ServerFault::HardDown(flaps)
                }
            };
            site_truths.push(SiteTruth {
                name,
                addrs,
                origin,
                episode_fail_prob: s.reliability.episode_fail_prob,
                rtt_penalty_ms: s.rtt_penalty_ms,
                fault,
            });
        }

        // --- DNS-infrastructure faults ---------------------------------------
        let mut zone_auth_down = HashMap::new();
        let mut zone_error = HashMap::new();
        for (si, (s, site)) in sites.iter().zip(&site_truths).enumerate() {
            let apex = site
                .name
                .ancestor(dnssim::zones::registrable_domain(&site.name))
                .expect("a suffix of the name");
            if s.reliability.auth_dns_down_fraction > 0.0 {
                let mut rng = root.fork(0x40_0000 + si as u64);
                let tl = process_for(
                    k * s.reliability.auth_dns_down_fraction,
                    SimDuration::from_secs(40 * 60),
                )
                .materialize(&mut rng, horizon);
                // Zones can be shared (e.g. yahoo.com) — union if present.
                zone_auth_down
                    .entry(apex.clone())
                    .and_modify(|existing: &mut Timeline<bool>| *existing = union(existing, &tl))
                    .or_insert(tl);
            }
            if s.reliability.zone_error_fraction > 0.0 {
                let mut rng = root.fork(0x41_0000 + si as u64);
                let tl = process_for(
                    k * s.reliability.zone_error_fraction,
                    SimDuration::from_secs(90 * 60),
                )
                .materialize(&mut rng, horizon);
                let code = if si % 2 == 0 {
                    DnsErrorCode::ServFail
                } else {
                    DnsErrorCode::NxDomain
                };
                zone_error.insert(apex, (tl, code));
            }
        }

        // --- Blocked pairs -----------------------------------------------------
        let blocked = pick_blocked_pairs(fleet, sites, &root);

        // --- Transiently degraded pairs ------------------------------------------
        // A few client-site paths with persistent partial trouble (like the
        // paper's northwestern↔mp3.com TCP-checksum case before it went
        // permanent). Chosen disjoint from the blocked pairs.
        let mut degraded_pairs = HashMap::new();
        {
            let mut rng = root.fork_str("degraded-pairs");
            let pl: Vec<u16> = fleet
                .clients
                .iter()
                .enumerate()
                .filter(|(_, c)| c.category == ClientCategory::PlanetLab)
                .map(|(i, _)| i as u16)
                .collect();
            let mut guard = 0;
            while degraded_pairs.len() < 4 && guard < 100 {
                guard += 1;
                let c = pl[rng.below(pl.len() as u64) as usize];
                let s2 = rng.below(sites.len() as u64) as u16;
                if blocked.contains(&(c, s2)) || degraded_pairs.contains_key(&(c, s2)) {
                    continue;
                }
                degraded_pairs.insert((c, s2), 0.20 + rng.f64() * 0.15);
            }
        }

        // --- Proxies ------------------------------------------------------------
        let mut proxy_link = Vec::new();
        let mut proxy_ldns = Vec::new();
        for pi in 0..fleet.proxy_count {
            let mut rng = root.fork(0x50_0000 + u64::from(pi));
            proxy_link.push(
                process_for(0.0004, SimDuration::from_secs(10 * 60)).materialize(&mut rng, horizon),
            );
            proxy_ldns.push(
                process_for(0.0005, SimDuration::from_secs(10 * 60)).materialize(&mut rng, horizon),
            );
        }

        let mut gt = GroundTruth {
            horizon,
            hours,
            link,
            ldns,
            wan,
            down,
            profile,
            sites: site_truths,
            replica_index,
            name_index,
            zone_auth_down,
            zone_error,
            blocked,
            degraded_pairs,
            proxy_link,
            proxy_ldns,
            severe_bgp: Vec::new(),
            adversarial: AdversarialTruth::default(),
            seed,
        };
        gt.severe_bgp = derive_severe_events(&gt, fleet, &root);
        gt.adversarial = adversarial::materialize_adversarial(
            fleet,
            sites,
            hours,
            &root,
            adversarial,
            &gt.blocked,
        );
        gt
    }

    /// Is the client's machine off at `t` (makes no accesses)?
    pub fn machine_down(&self, client: usize, t: SimTime) -> bool {
        *self.down[client].at(t)
    }

    /// Every site's entry, in site order.
    pub fn sites(&self) -> &[SiteTruth] {
        &self.sites
    }

    /// The site `addr` serves, if any, with its entry and the address's
    /// position in the entry's address list.
    pub(crate) fn replica(&self, addr: Ipv4Addr) -> Option<Replica<'_>> {
        let &(site, pos) = self.replica_index.get(&addr)?;
        Some(Replica {
            site,
            truth: &self.sites[usize::from(site)],
            pos: usize::from(pos),
        })
    }

    /// The origin behind `host`, if a site serves that name.
    pub(crate) fn origin(&self, host: &DomainName) -> Option<&Origin> {
        let &site = self.name_index.get(host)?;
        Some(&self.sites[usize::from(site)].origin)
    }

    /// Export the attribution audit's answer key: the injected blocked
    /// pairs, per-entity *fault hours* (hours mostly covered by a structural
    /// fault, the hour-granularity view the episode inferences work at), and
    /// the severe-BGP event list.
    ///
    /// Derived entirely from the materialized timelines — no randomness, so
    /// the sidecar is identical across runs of the same seed.
    pub fn truth_sidecar(&self) -> model::TruthSidecar {
        let clients = self.link.len();
        let mut client_fault_hours = Vec::with_capacity(clients);
        for c in 0..clients {
            let mut hours = covered_hours(&self.link[c], self.hours, 0.5);
            hours.extend(covered_hours(&self.ldns[c], self.hours, 0.5));
            hours.extend(covered_hours(&self.wan[c], self.hours, 0.5));
            hours.sort_unstable();
            hours.dedup();
            client_fault_hours.push(hours);
        }

        // Per site: degradation episodes of its replica group, hard replica
        // outages, and authoritative-DNS faults of its zone.
        let mut site_fault_hours = Vec::with_capacity(self.sites.len());
        for site in &self.sites {
            let mut hours: Vec<u32> = match &site.fault {
                ServerFault::Group { degraded, .. } => covered_hours(degraded, self.hours, 0.5),
                ServerFault::HardDown(flaps) => flaps
                    .iter()
                    .flat_map(|tl| covered_hours(tl, self.hours, 0.5))
                    .collect(),
            };
            let apex = dnssim::zones::registrable_domain(&site.name);
            if let Some(tl) = self.zone_auth_down.get(apex) {
                hours.extend(covered_hours(tl, self.hours, 0.5));
            }
            if let Some((tl, _)) = self.zone_error.get(apex) {
                hours.extend(covered_hours(tl, self.hours, 0.5));
            }
            hours.sort_unstable();
            hours.dedup();
            site_fault_hours.push(hours);
        }

        let mut blocked_pairs: Vec<(u16, u16)> = self.blocked.iter().copied().collect();
        blocked_pairs.sort_unstable();

        model::TruthSidecar {
            hours: self.hours,
            blocked_pairs,
            client_fault_hours,
            site_fault_hours,
            severe_bgp: self
                .severe_bgp
                .iter()
                .map(|e| (e.prefix_index, e.hour))
                .collect(),
        }
    }
}

/// The canonical content host behind a redirecting listed hostname.
fn canonical_host(hostname: &str) -> String {
    match hostname.strip_prefix("www.") {
        Some(rest) => format!("content.{rest}"),
        None => format!("content.{hostname}"),
    }
}

/// Highest shared intensity among a group's members.
fn shared_intensity(fleet: &FleetSpec, group: u16, f: impl Fn(&FaultProfile) -> f64) -> f64 {
    fleet
        .clients
        .iter()
        .filter(|c| c.wan_group == Some(group) && subscribes_shared(c.profile))
        .map(|c| f(&FaultProfile::for_profile(c.profile)))
        .fold(0.0, f64::max)
}

/// Whether a profile subscribes to its group's shared processes (the
/// Columbia-quiet node deliberately does not share the noisy pair's faults).
fn subscribes_shared(p: ClientProfile) -> bool {
    !matches!(p, ClientProfile::PlColumbiaQuiet)
}

/// The 38 near-permanently blocked pairs: 10 to msn.com.tw, 9 to
/// sina.com.cn, 8 to sohu.com, 1 northwestern-like pair to mp3.com, and 10
/// more spread over intl sites — all PL clients (Section 4.4.2).
fn pick_blocked_pairs(
    fleet: &FleetSpec,
    sites: &[SiteSpec],
    root: &SimRng,
) -> HashSet<(u16, u16)> {
    let mut rng = root.fork_str("blocked-pairs");
    let pl: Vec<u16> = fleet
        .clients
        .iter()
        .enumerate()
        .filter(|(_, c)| c.category == ClientCategory::PlanetLab)
        .map(|(i, _)| i as u16)
        .collect();
    let site_idx = |host: &str| -> Option<u16> {
        sites
            .iter()
            .position(|s| s.hostname == host)
            .map(|i| i as u16)
    };
    let mut blocked = HashSet::new();
    let add_for = |host: &str, n: usize, rng: &mut SimRng, blocked: &mut HashSet<(u16, u16)>| {
        let Some(si) = site_idx(host) else { return };
        let picks = rng.sample_indices(pl.len(), n.min(pl.len()));
        for p in picks {
            blocked.insert((pl[p], si));
        }
    };
    add_for("www.msn.com.tw", 10, &mut rng, &mut blocked);
    add_for("www.sina.com.cn", 9, &mut rng, &mut blocked);
    add_for("www.sohu.com", 8, &mut rng, &mut blocked);
    add_for("www.mp3.com", 1, &mut rng, &mut blocked);
    // 10 more across intl sites until we reach 38 distinct pairs.
    let extra_sites = [
        "www.chinabroadcast.cn",
        "sina.com.hk",
        "www.alibaba.com",
        "english.pravda.ru",
        "www.rediff.com",
    ];
    let mut guard = 0;
    while blocked.len() < 38 && guard < 1000 {
        guard += 1;
        let host = extra_sites[rng.below(extra_sites.len() as u64) as usize];
        if let Some(si) = site_idx(host) {
            let c = pl[rng.below(pl.len() as u64) as usize];
            blocked.insert((c, si));
        }
    }
    blocked
}

/// Derive the severe-BGP-event list, coupled to materialized outages.
///
/// Prefix-table convention (must match `experiment::build_prefixes`):
/// prefix index = wan_group for client /24s; server prefixes follow.
fn derive_severe_events(gt: &GroundTruth, fleet: &FleetSpec, root: &SimRng) -> Vec<SevereBgpEvent> {
    let mut rng = root.fork_str("severe-bgp");
    let mut events: Vec<SevereBgpEvent> = Vec::new();
    let mut used: HashSet<(u32, u32)> = HashSet::new();

    // 1. Showcase clients: every WAN episode hour gets an event.
    for (i, c) in fleet.clients.iter().enumerate() {
        let is_howard = c.profile == ClientProfile::PlBgpShowcase;
        let is_kscy = c.profile == ClientProfile::PlKscyShowcase;
        if !is_howard && !is_kscy {
            continue;
        }
        let Some(g) = c.wan_group else { continue };
        for h in covered_hours(&gt.wan[i], gt.hours, 0.5) {
            if used.insert((u32::from(g), h)) {
                events.push(SevereBgpEvent {
                    prefix_index: u32::from(g),
                    hour: h,
                    neighbors: if is_howard { 71 } else { 2 },
                    withdrawals_per_neighbor: if is_howard { 3 } else { 45 },
                });
            }
        }
    }

    // 2. Server-coupled events: sample degraded hours of the big sites.
    // Server prefix indices follow the client groups in the prefix table.
    let server_prefix_base = u32::from(fleet.group_count);
    let target_total = (111 * gt.hours as usize / 744).max(4);
    let sites = gt.sites.len();
    let mut site_order: Vec<usize> = (0..sites).collect();
    rng.shuffle(&mut site_order);
    'outer: for &si in site_order.iter().cycle().take(sites * 4) {
        if events.len() >= target_total * 85 / 100 {
            break 'outer;
        }
        let ServerFault::Group { degraded, .. } = &gt.sites[si].fault else {
            continue;
        };
        // Find an hour mostly covered by a degradation episode.
        for h in covered_hours(degraded, gt.hours, 0.6) {
            let pfx = server_prefix_base + si as u32;
            if used.insert((pfx, h)) {
                events.push(SevereBgpEvent {
                    prefix_index: pfx,
                    hour: h,
                    neighbors: 70 + rng.below(3) as u16,
                    withdrawals_per_neighbor: 2 + rng.below(3) as u16,
                });
                continue 'outer;
            }
        }
    }

    // 3. Uncoupled events (~15%): severe withdrawal storms with no
    // end-to-end impact (the <20% of Fig 6 with low failure rates).
    let total_prefixes = server_prefix_base as u64 + sites as u64;
    while events.len() < target_total {
        let pfx = rng.below(total_prefixes) as u32;
        let h = rng.below(u64::from(gt.hours)) as u32;
        if used.insert((pfx, h)) {
            events.push(SevereBgpEvent {
                prefix_index: pfx,
                hour: h,
                neighbors: 70 + rng.below(3) as u16,
                withdrawals_per_neighbor: 2,
            });
        }
    }
    events
}

/// Hours in `[0, hours)` where `tl` is true for at least `min_coverage` of
/// the hour.
fn covered_hours(tl: &Timeline<bool>, hours: u32, min_coverage: f64) -> Vec<u32> {
    let mut out = Vec::new();
    let hour_us = SimDuration::from_hours(1).as_micros() as f64;
    for h in 0..hours {
        let start = SimTime::from_hours(u64::from(h));
        let end = SimTime::from_hours(u64::from(h) + 1);
        let down = tl.micros_matching(start, end, |s| *s) as f64;
        if down >= min_coverage * hour_us {
            out.push(h);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::build_fleet;
    use crate::sites::build_sites;

    fn small_truth(hours: u32) -> (FleetSpec, Vec<SiteSpec>, GroundTruth) {
        let fleet = build_fleet();
        let sites = build_sites();
        let gt =
            GroundTruth::materialize(&fleet, &sites, hours, 7, 1.0, &AdversarialProfile::none());
        (fleet, sites, gt)
    }

    #[test]
    fn timelines_cover_every_client() {
        let (fleet, _, gt) = small_truth(48);
        assert_eq!(gt.link.len(), fleet.len());
        assert_eq!(gt.ldns.len(), fleet.len());
        assert_eq!(gt.wan.len(), fleet.len());
        assert_eq!(gt.down.len(), fleet.len());
        assert_eq!(gt.profile.len(), fleet.len());
        assert_eq!(gt.proxy_link.len(), 5);
    }

    #[test]
    fn blocked_pairs_are_38_pl_pairs() {
        let (fleet, _, gt) = small_truth(24);
        assert_eq!(gt.blocked.len(), 38);
        for (c, _) in &gt.blocked {
            assert_eq!(
                fleet.clients[*c as usize].category,
                ClientCategory::PlanetLab
            );
        }
    }

    #[test]
    fn colocated_clients_share_shared_faults() {
        let (fleet, _, gt) = small_truth(744);
        // The Intel pair shares its WAN timeline segments.
        let intel: Vec<usize> = fleet
            .clients
            .iter()
            .enumerate()
            .filter(|(_, c)| c.profile == ClientProfile::PlIntelShared)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(intel.len(), 2);
        let a = &gt.wan[intel[0]];
        let b = &gt.wan[intel[1]];
        // Shared component dominates: overlapping downtime is large.
        let both = |t: SimTime| *a.at(t) && *b.at(t);
        let mut shared_hours = 0;
        let mut either_hours = 0;
        for h in 0..744u64 {
            let t = SimTime::from_hours(h) + SimDuration::from_secs(1800);
            if both(t) {
                shared_hours += 1;
            }
            if *a.at(t) || *b.at(t) {
                either_hours += 1;
            }
        }
        assert!(either_hours > 20, "Intel site has plenty of trouble");
        assert!(
            shared_hours * 100 >= either_hours * 85,
            "Intel faults are shared: {shared_hours}/{either_hours}"
        );
    }

    #[test]
    fn columbia_quiet_node_sees_little() {
        let (fleet, _, gt) = small_truth(744);
        let idx = |profile: ClientProfile| -> Vec<usize> {
            fleet
                .clients
                .iter()
                .enumerate()
                .filter(|(_, c)| c.profile == profile)
                .map(|(i, _)| i)
                .collect()
        };
        let noisy = idx(ClientProfile::PlColumbiaNoisy);
        let quiet = idx(ClientProfile::PlColumbiaQuiet);
        let downtime = |i: usize| {
            gt.wan[i].micros_matching(SimTime::ZERO, gt.horizon, |s| *s) as f64
                / gt.horizon.as_micros() as f64
        };
        assert!(downtime(noisy[0]) > 5.0 * downtime(quiet[0]));
    }

    /// Share of the horizon `tl` is true.
    fn down_share(gt: &GroundTruth, tl: &Timeline<bool>) -> f64 {
        tl.micros_matching(SimTime::ZERO, gt.horizon, |s| *s) as f64 / gt.horizon.as_micros() as f64
    }

    #[test]
    fn heavy_sites_are_degraded_much_of_the_time() {
        let (_, sites, gt) = small_truth(744);
        let fault = |host: &str| {
            let si = sites.iter().position(|s| s.hostname == host).unwrap();
            &gt.sites[si].fault
        };
        let frac = |host: &str| match fault(host) {
            ServerFault::Group { degraded, .. } => down_share(&gt, degraded),
            ServerFault::HardDown(_) => panic!("{host} is grouped"),
        };
        assert!(frac("www.sina.com.cn") > 0.6, "sina {}", frac("www.sina.com.cn"));
        assert!(frac("www.berkeley.edu") < 0.05);
        // iitb's replicas flap hard-down instead of sharing a degradation.
        let ServerFault::HardDown(flaps) = fault("www.iitb.ac.in") else {
            panic!("iitb's replicas are spread");
        };
        let flap = down_share(&gt, &flaps[0]);
        assert!((0.05..0.16).contains(&flap), "iitb flap fraction {flap}");
    }

    #[test]
    fn every_address_and_name_finds_its_site() {
        let (_, sites, gt) = small_truth(24);
        assert_eq!(gt.sites.len(), sites.len());
        let mut ids = Vec::new();
        for (si, (spec, site)) in sites.iter().zip(&gt.sites).enumerate() {
            assert_eq!(site.name.to_string(), spec.hostname);
            assert_eq!(site.addrs, site_addresses(si, spec.layout));
            for (pos, &a) in site.addrs.iter().enumerate() {
                let r = gt.replica(a).expect("a site address");
                assert_eq!((usize::from(r.site), r.pos), (si, pos));
            }
            let origin = gt.origin(&site.name).expect("the listed name is served");
            assert!(std::ptr::eq(origin, &site.origin));
            if spec.redirect_hop {
                assert_ne!(origin.host(), &site.name);
                assert!(std::ptr::eq(gt.origin(origin.host()).unwrap(), origin));
            }
            match &site.fault {
                // Same-subnet and CDN replicas share one group; the ids
                // count the grouped sites in order.
                ServerFault::Group { id, .. } => {
                    assert!(!matches!(spec.layout, ReplicaLayout::MultiSpread { .. }));
                    ids.push(*id);
                }
                // Spread replicas get one independent flap timeline each.
                ServerFault::HardDown(flaps) => {
                    assert!(matches!(spec.layout, ReplicaLayout::MultiSpread { .. }));
                    assert_eq!(flaps.len(), site.addrs.len());
                }
            }
        }
        assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>());
        assert!(gt.replica(Ipv4Addr::new(192, 0, 2, 10)).is_none());
        assert!(gt.origin(&"www.example.com".parse().unwrap()).is_none());
    }

    #[test]
    fn zone_faults_exist_for_brazzil_and_espn() {
        let (_, _, gt) = small_truth(24);
        let brazzil: DomainName = "brazzil.com".parse().unwrap();
        let go: DomainName = "go.com".parse().unwrap();
        assert!(gt.zone_error.contains_key(&brazzil));
        assert!(gt.zone_error.contains_key(&go));
    }

    #[test]
    fn severe_events_exist_and_scale() {
        let (_, _, gt) = small_truth(744);
        // ~111 at full month (showcase clients add theirs on top).
        assert!(
            gt.severe_bgp.len() >= 100 && gt.severe_bgp.len() <= 260,
            "severe events: {}",
            gt.severe_bgp.len()
        );
        // The kscy-style low-visibility events exist.
        assert!(gt.severe_bgp.iter().any(|e| e.neighbors == 2));
        // And the coupled ≥70-neighbor storms dominate.
        let heavy = gt.severe_bgp.iter().filter(|e| e.neighbors >= 70).count();
        assert!(heavy * 100 / gt.severe_bgp.len() > 70);
    }

    #[test]
    fn materialization_is_deterministic() {
        let fleet = build_fleet();
        let sites = build_sites();
        let none = AdversarialProfile::none();
        let a = GroundTruth::materialize(&fleet, &sites, 48, 99, 1.0, &none);
        let b = GroundTruth::materialize(&fleet, &sites, 48, 99, 1.0, &none);
        assert_eq!(a.blocked, b.blocked);
        assert_eq!(a.severe_bgp.len(), b.severe_bgp.len());
        for i in 0..fleet.len() {
            let sa: Vec<_> = a.link[i].segments().map(|(s, e, v)| (s, e, *v)).collect();
            let sb: Vec<_> = b.link[i].segments().map(|(s, e, v)| (s, e, *v)).collect();
            assert_eq!(sa, sb, "client {i} link timeline differs");
        }
    }

    #[test]
    fn union_of_timelines() {
        let a = Timeline::from_changes(
            false,
            vec![
                (SimTime::from_secs(10), true),
                (SimTime::from_secs(20), false),
            ],
        );
        let b = Timeline::from_changes(
            false,
            vec![
                (SimTime::from_secs(15), true),
                (SimTime::from_secs(30), false),
            ],
        );
        let u = union(&a, &b);
        assert!(!*u.at(SimTime::from_secs(5)));
        assert!(*u.at(SimTime::from_secs(12)));
        assert!(*u.at(SimTime::from_secs(18)));
        assert!(*u.at(SimTime::from_secs(25)));
        assert!(!*u.at(SimTime::from_secs(31)));
    }

    #[test]
    fn canonical_host_forms() {
        assert_eq!(canonical_host("www.amazon.com"), "content.amazon.com");
        assert_eq!(canonical_host("espn.go.com"), "content.espn.go.com");
    }

    #[test]
    fn process_for_zero_never_fires() {
        let p = process_for(0.0, SimDuration::from_secs(60));
        let mut rng = SimRng::new(1);
        let tl = p.materialize(&mut rng, SimTime::from_hours(744));
        assert_eq!(tl.change_count(), 1);
    }
}
