//! The client-side resolution path: stub resolver → LDNS → iterative walk.
//!
//! The resolution is computed *hierarchically*: faults are evaluated at the
//! transaction instant (episodes last hours; lookups last seconds) and the
//! elapsed time is accumulated analytically from per-hop latency samples and
//! timeout schedules. With `wire_fidelity` on, every hop additionally
//! round-trips a real RFC 1035 message through the `dnswire` codec.

use crate::faults::DnsFaults;
use crate::server::{authoritative_answer, AnswerKind};
use crate::zones::ZoneTree;
use dnswire::{DomainName, Message, RData, RecordType};
use model::{DnsErrorCode, DnsFailureKind, SimDuration, SimTime};
use netsim::SimRng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Latency sampling for resolution hops.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Mean RTT between client and its LDNS (last mile).
    pub ldns_rtt: SimDuration,
    /// Mean RTT between the LDNS and authoritative servers (wide area).
    pub hop_rtt: SimDuration,
    /// Multiplicative jitter: each sample is `mean * exp(N(0, sigma))`.
    pub jitter_sigma: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            ldns_rtt: SimDuration::from_millis(5),
            hop_rtt: SimDuration::from_millis(60),
            jitter_sigma: 0.3,
        }
    }
}

impl LatencyModel {
    /// One latency sample around `mean`.
    pub fn sample(&self, mean: SimDuration, rng: &mut SimRng) -> SimDuration {
        let factor = rng.normal(0.0, self.jitter_sigma).exp();
        mean * factor
    }
}

/// Timeout/retry policy and codec switches.
#[derive(Clone, Copy, Debug)]
pub struct ResolverConfig {
    /// Per-attempt stub → LDNS timeout.
    pub stub_timeout: SimDuration,
    /// Stub attempts before declaring LDNS timeout.
    pub stub_attempts: u32,
    /// Per-attempt LDNS → authoritative timeout.
    pub auth_timeout: SimDuration,
    /// LDNS attempts per authoritative server set.
    pub auth_attempts: u32,
    /// Probability an individual healthy query/response exchange is lost
    /// (background UDP loss; retries usually hide it).
    pub query_loss_prob: f64,
    /// Round-trip every message through the RFC 1035 codec.
    pub wire_fidelity: bool,
    pub latency: LatencyModel,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            stub_timeout: SimDuration::from_secs(5),
            stub_attempts: 3,
            auth_timeout: SimDuration::from_secs(3),
            auth_attempts: 2,
            query_loss_prob: 0.001,
            wire_fidelity: true,
            latency: LatencyModel::default(),
        }
    }
}

/// The outcome of one resolution.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// Addresses on success; the observable failure class otherwise.
    pub result: Result<Vec<Ipv4Addr>, DnsFailureKind>,
    /// Time the lookup took (including timeout time on failure).
    pub elapsed: SimDuration,
    /// Wire messages exchanged (0 with `wire_fidelity` off).
    pub messages: u32,
    /// Whether the answer came from the LDNS cache.
    pub from_cache: bool,
}

impl Resolution {
    pub fn failed(&self) -> bool {
        self.result.is_err()
    }
}

/// The outcome of one resolution when the addresses go into a caller-owned
/// buffer ([`StubResolver::resolve_into`]): same fields as [`Resolution`]
/// minus the address allocation.
#[derive(Clone, Copy, Debug)]
pub struct ResolutionStatus {
    /// `Ok` iff addresses were written to the caller's buffer.
    pub result: Result<(), DnsFailureKind>,
    /// Time the lookup took (including timeout time on failure).
    pub elapsed: SimDuration,
    /// Wire messages exchanged (0 with `wire_fidelity` off).
    pub messages: u32,
    /// Whether the answer came from the LDNS cache.
    pub from_cache: bool,
}

/// The LDNS's answer cache (the client's own cache is flushed before every
/// access, per the measurement procedure, so only the LDNS cache matters).
#[derive(Clone, Debug, Default)]
pub struct LdnsCache {
    entries: HashMap<DomainName, (Vec<Ipv4Addr>, SimTime)>,
}

impl LdnsCache {
    pub fn new() -> Self {
        LdnsCache::default()
    }

    /// Cached addresses for `name` if the entry is still live at `t`.
    pub fn get(&self, name: &DomainName, t: SimTime) -> Option<&[Ipv4Addr]> {
        self.entries
            .get(name)
            .filter(|(_, expiry)| *expiry > t)
            .map(|(addrs, _)| addrs.as_slice())
    }

    pub fn put(&mut self, name: DomainName, addrs: Vec<Ipv4Addr>, expiry: SimTime) {
        self.entries.insert(name, (addrs, expiry));
    }

    /// Drop everything (an LDNS restart).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Round-robin rotation of an address list, as an LDNS rotates RRset
/// order between queries. The client (and a non-failing-over proxy) takes
/// the first address, so rotation spreads load across replicas.
fn rotate_rr(addrs: &mut [Ipv4Addr], rng: &mut SimRng) {
    if addrs.len() > 1 {
        let k = rng.below(addrs.len() as u64) as usize;
        addrs.rotate_left(k);
    }
}

/// The stub resolver: the entry point `webclient` uses for every access.
pub struct StubResolver<'t> {
    tree: &'t ZoneTree,
    config: ResolverConfig,
}

/// Internal walk outcome (LDNS's view).
enum WalkOutcome {
    Answered(Vec<Ipv4Addr>, u32 /* ttl */),
    AuthTimeout,
    Error(DnsErrorCode),
}

impl<'t> StubResolver<'t> {
    pub fn new(tree: &'t ZoneTree, config: ResolverConfig) -> Self {
        StubResolver { tree, config }
    }

    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Resolve `qname` at instant `t` under `faults`, using (and updating)
    /// the client's LDNS cache.
    pub fn resolve<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
    ) -> Resolution {
        let mut addrs = Vec::new();
        let status = self.resolve_into(qname, faults, t, rng, cache, &mut addrs);
        Resolution {
            result: status.result.map(|()| addrs),
            elapsed: status.elapsed,
            messages: status.messages,
            from_cache: status.from_cache,
        }
    }

    /// [`Self::resolve`] with a caller-owned address buffer, so the hot path
    /// can reuse one allocation across lookups. `out` is cleared and, on
    /// success, left holding the (rotated) RRset. The RNG draw sequence is
    /// identical to [`Self::resolve`].
    pub fn resolve_into<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
        out: &mut Vec<Ipv4Addr>,
    ) -> ResolutionStatus {
        out.clear();
        let res = self.resolve_inner(qname, faults, t, rng, cache, out);
        // Wrong-answer faults substitute the delivered RRset *after* the
        // genuine resolution (and caching) ran: no RNG draw is added or
        // removed, and the cache never holds the decoy.
        if res.result.is_ok() {
            if let Some(decoy) = faults.wrong_answer(qname, t) {
                out.clear();
                out.push(decoy);
            }
        }
        if telemetry::enabled() {
            telemetry::counter!("dns.lookups", 1);
            telemetry::histogram!("dns.elapsed_us", res.elapsed.as_micros());
            if res.from_cache {
                telemetry::counter!("dns.cache_hits", 1);
            }
            if let Err(kind) = &res.result {
                static FAILURES: telemetry::CounterVec<3> = telemetry::CounterVec::new(
                    "dns.failures",
                    ["ldns_timeout", "non_ldns_timeout", "error_response"],
                );
                FAILURES.add(
                    match kind {
                        DnsFailureKind::LdnsTimeout => 0,
                        DnsFailureKind::NonLdnsTimeout => 1,
                        DnsFailureKind::ErrorResponse(_) => 2,
                    },
                    1,
                );
            }
        }
        res
    }

    fn resolve_inner<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
        out: &mut Vec<Ipv4Addr>,
    ) -> ResolutionStatus {
        let cfg = &self.config;
        let mut elapsed = SimDuration::ZERO;
        let mut messages = 0u32;

        // --- Stub → LDNS ------------------------------------------------
        let ldns_reachable = faults.client_link_up(t) && faults.ldns_up(t);
        let mut contacted = false;
        for _attempt in 0..cfg.stub_attempts {
            if ldns_reachable && !rng.chance(cfg.query_loss_prob) {
                elapsed += cfg.latency.sample(cfg.latency.ldns_rtt, rng);
                contacted = true;
                break;
            }
            elapsed += cfg.stub_timeout;
        }
        if !contacted {
            return ResolutionStatus {
                result: Err(DnsFailureKind::LdnsTimeout),
                elapsed,
                messages,
                from_cache: false,
            };
        }
        // One encode buffer for every message of this resolution.
        let mut wire = Vec::new();
        if cfg.wire_fidelity {
            // The stub's recursive query to the LDNS.
            let q = Message::query(rng.next_u64() as u16, qname.clone(), RecordType::A);
            q.encode_into(&mut wire).expect("valid query");
            let _ = Message::decode(&wire).expect("own bytes decode");
            messages += 1;
        }

        // --- LDNS cache --------------------------------------------------
        if let Some(addrs) = cache.get(qname, t) {
            out.extend_from_slice(addrs);
            rotate_rr(out, rng);
            return ResolutionStatus {
                result: Ok(()),
                elapsed,
                messages,
                from_cache: true,
            };
        }

        // --- Iterative walk (by the LDNS); in-zone CNAME chains are
        // resolved by the authoritative server itself ----------------------
        match self.walk(
            qname,
            faults,
            t,
            rng,
            &mut elapsed,
            &mut messages,
            &mut wire,
        ) {
            WalkOutcome::Answered(addrs, ttl) => {
                out.extend_from_slice(&addrs);
                cache.put(
                    qname.clone(),
                    addrs,
                    t + SimDuration::from_secs(u64::from(ttl)),
                );
                rotate_rr(out, rng);
                ResolutionStatus {
                    result: Ok(()),
                    elapsed,
                    messages,
                    from_cache: false,
                }
            }
            WalkOutcome::AuthTimeout => ResolutionStatus {
                result: Err(DnsFailureKind::NonLdnsTimeout),
                elapsed,
                messages,
                from_cache: false,
            },
            WalkOutcome::Error(code) => ResolutionStatus {
                result: Err(DnsFailureKind::ErrorResponse(code)),
                elapsed,
                messages,
                from_cache: false,
            },
        }
    }

    /// Walk the delegation chain for `qname`, accumulating latency; `wire`
    /// is the resolution's encode buffer.
    #[allow(clippy::too_many_arguments)]
    fn walk<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        elapsed: &mut SimDuration,
        messages: &mut u32,
        wire: &mut Vec<u8>,
    ) -> WalkOutcome {
        let chain = self.tree.delegation_chain(qname);
        let Some(last) = chain.len().checked_sub(1) else {
            return WalkOutcome::Error(DnsErrorCode::ServFail);
        };
        let cfg = &self.config;
        for (i, zone) in chain.iter().enumerate() {
            // Zone misconfiguration produces an error *response* (servers
            // are up but answer with an error) — only meaningful at the
            // authoritative zone, i.e. the last chain element.
            let is_auth = i == last;
            if is_auth {
                if let Some(code) = faults.zone_error(&zone.apex, t) {
                    *elapsed += cfg.latency.sample(cfg.latency.hop_rtt, rng);
                    *messages += if cfg.wire_fidelity { 1 } else { 0 };
                    return WalkOutcome::Error(code);
                }
            }
            // Reachability of this zone's servers.
            let up = faults.auth_up(&zone.apex, t);
            let mut reached = false;
            for _ in 0..cfg.auth_attempts {
                if up && !rng.chance(cfg.query_loss_prob) {
                    *elapsed += cfg.latency.sample(cfg.latency.hop_rtt, rng);
                    reached = true;
                    break;
                }
                *elapsed += cfg.auth_timeout;
            }
            if !reached {
                return WalkOutcome::AuthTimeout;
            }
            if cfg.wire_fidelity {
                let q = Message::iterative_query(rng.next_u64() as u16, qname.clone(), RecordType::A);
                let (resp, kind) = authoritative_answer(zone, chain.get(i + 1).copied(), &q);
                resp.encode_into(wire).expect("valid response");
                let decoded = Message::decode(wire).expect("own bytes decode");
                *messages += 1;
                if is_auth {
                    return self.conclude(qname, decoded, kind, zone.ttl);
                }
            } else if is_auth {
                // Codec-free fast path: consult the zone directly.
                return match zone.lookup(qname) {
                    Some(records) => {
                        let addrs: Vec<Ipv4Addr> = records
                            .iter()
                            .filter_map(|r| match r {
                                RData::A(a) => Some(*a),
                                _ => None,
                            })
                            .collect();
                        if addrs.is_empty() {
                            WalkOutcome::Error(DnsErrorCode::NxDomain)
                        } else {
                            WalkOutcome::Answered(addrs, zone.ttl)
                        }
                    }
                    None => WalkOutcome::Error(DnsErrorCode::NxDomain),
                };
            }
        }
        // Chain ended on a referral (no authoritative zone held the name).
        WalkOutcome::Error(DnsErrorCode::NxDomain)
    }

    /// Interpret the authoritative response.
    fn conclude(
        &self,
        qname: &DomainName,
        resp: Message,
        kind: AnswerKind,
        ttl: u32,
    ) -> WalkOutcome {
        match kind {
            AnswerKind::Authoritative => {
                let addrs = resp.resolve_a_chain(qname);
                if addrs.is_empty() {
                    // Terminal CNAME pointing out of zone — not modeled as
                    // an address here; treat as server failure (rare).
                    WalkOutcome::Error(DnsErrorCode::ServFail)
                } else {
                    WalkOutcome::Answered(addrs, ttl)
                }
            }
            AnswerKind::Referral => WalkOutcome::Error(DnsErrorCode::ServFail),
            AnswerKind::NxDomain => WalkOutcome::Error(DnsErrorCode::NxDomain),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NoFaults;
    use crate::zones::ZoneTree;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tree() -> ZoneTree {
        ZoneTree::build_for_hosts(&[
            (name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]),
            (
                name("www.iitb.ac.in"),
                vec![Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 2, 0, 2)],
            ),
        ])
    }

    struct LinkDown;
    impl DnsFaults for LinkDown {
        fn client_link_up(&self, _t: SimTime) -> bool {
            false
        }
    }

    struct LdnsDown;
    impl DnsFaults for LdnsDown {
        fn ldns_up(&self, _t: SimTime) -> bool {
            false
        }
    }

    struct AuthDown(DomainName);
    impl DnsFaults for AuthDown {
        fn auth_up(&self, zone: &DomainName, _t: SimTime) -> bool {
            *zone != self.0
        }
    }

    struct ZoneBroken(DomainName, DnsErrorCode);
    impl DnsFaults for ZoneBroken {
        fn zone_error(&self, zone: &DomainName, _t: SimTime) -> Option<DnsErrorCode> {
            (*zone == self.0).then_some(self.1)
        }
    }

    struct WrongAnswer(DomainName, Ipv4Addr);
    impl DnsFaults for WrongAnswer {
        fn wrong_answer(&self, qname: &DomainName, _t: SimTime) -> Option<Ipv4Addr> {
            (*qname == self.0).then_some(self.1)
        }
    }

    fn resolve_with<F: DnsFaults>(faults: &F, host: &str) -> Resolution {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(1);
        let mut cache = LdnsCache::new();
        r.resolve(&name(host), faults, SimTime::from_hours(1), &mut rng, &mut cache)
    }

    #[test]
    fn healthy_resolution_succeeds() {
        let res = resolve_with(&NoFaults, "www.example.com");
        assert_eq!(res.result.unwrap(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
        assert!(!res.from_cache);
        assert!(res.messages >= 4, "stub + root + tld + auth, got {}", res.messages);
        assert!(res.elapsed > SimDuration::ZERO);
        assert!(res.elapsed < SimDuration::from_secs(2), "healthy lookup fast");
    }

    #[test]
    fn multi_address_answer() {
        let res = resolve_with(&NoFaults, "www.iitb.ac.in");
        assert_eq!(res.result.unwrap().len(), 2);
    }

    #[test]
    fn link_down_is_ldns_timeout() {
        let res = resolve_with(&LinkDown, "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::LdnsTimeout);
        // 3 attempts × 5 s
        assert_eq!(res.elapsed, SimDuration::from_secs(15));
        assert_eq!(res.messages, 0);
    }

    #[test]
    fn ldns_down_is_ldns_timeout() {
        let res = resolve_with(&LdnsDown, "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::LdnsTimeout);
    }

    #[test]
    fn auth_down_is_non_ldns_timeout() {
        let res = resolve_with(&AuthDown(name("example.com")), "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::NonLdnsTimeout);
        assert!(res.elapsed >= SimDuration::from_secs(6), "timeout time accrued");
    }

    #[test]
    fn tld_down_is_non_ldns_timeout() {
        let res = resolve_with(&AuthDown(name("com")), "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::NonLdnsTimeout);
    }

    #[test]
    fn broken_zone_returns_error_response() {
        let res = resolve_with(
            &ZoneBroken(name("example.com"), DnsErrorCode::ServFail),
            "www.example.com",
        );
        assert_eq!(
            res.result.unwrap_err(),
            DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)
        );
    }

    #[test]
    fn wrong_answer_substitutes_decoy_without_poisoning_cache() {
        let decoy = Ipv4Addr::new(192, 0, 2, 10);
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(3);
        let mut cache = LdnsCache::new();
        let q = name("www.example.com");
        let t0 = SimTime::from_hours(1);
        let faulted = r.resolve(&q, &WrongAnswer(q.clone(), decoy), t0, &mut rng, &mut cache);
        assert_eq!(faulted.result.unwrap(), vec![decoy]);
        // The cache kept the genuine RRset: once the fault window ends the
        // next (cached) lookup is healthy again.
        let healed = r.resolve(&q, &NoFaults, t0 + SimDuration::from_secs(60), &mut rng, &mut cache);
        assert!(healed.from_cache);
        assert_eq!(healed.result.unwrap(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let res = resolve_with(&NoFaults, "nosuch.example.com");
        assert_eq!(
            res.result.unwrap_err(),
            DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain)
        );
    }

    #[test]
    fn cache_hit_short_circuits() {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(2);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        let first = r.resolve(&name("www.example.com"), &NoFaults, t0, &mut rng, &mut cache);
        assert!(!first.from_cache);
        let second = r.resolve(
            &name("www.example.com"),
            &NoFaults,
            t0 + SimDuration::from_secs(60),
            &mut rng,
            &mut cache,
        );
        assert!(second.from_cache);
        assert_eq!(second.messages, 1, "only the stub query");
        assert_eq!(second.result.unwrap(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn cache_expires_by_ttl() {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(3);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        r.resolve(&name("www.example.com"), &NoFaults, t0, &mut rng, &mut cache);
        // Auth zone TTL is 7200 s; query well past expiry.
        let later = t0 + SimDuration::from_secs(8000);
        let res = r.resolve(&name("www.example.com"), &NoFaults, later, &mut rng, &mut cache);
        assert!(!res.from_cache);
    }

    #[test]
    fn cached_answer_masks_auth_outage() {
        // The proxy/LDNS cache effect from the paper: a cached name keeps
        // resolving while the authoritative servers are down.
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(4);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        r.resolve(&name("www.example.com"), &NoFaults, t0, &mut rng, &mut cache);
        let res = r.resolve(
            &name("www.example.com"),
            &AuthDown(name("example.com")),
            t0 + SimDuration::from_secs(60),
            &mut rng,
            &mut cache,
        );
        assert!(res.from_cache);
        assert!(res.result.is_ok());
    }

    #[test]
    fn wire_fidelity_off_matches_on() {
        let t = tree();
        let mut cfg = ResolverConfig::default();
        cfg.query_loss_prob = 0.0;
        let on = StubResolver::new(&t, cfg);
        cfg.wire_fidelity = false;
        let off = StubResolver::new(&t, cfg);
        for host in ["www.example.com", "www.iitb.ac.in", "nosuch.example.com"] {
            let a = on.resolve(
                &name(host),
                &NoFaults,
                SimTime::from_hours(2),
                &mut SimRng::new(5),
                &mut LdnsCache::new(),
            );
            let b = off.resolve(
                &name(host),
                &NoFaults,
                SimTime::from_hours(2),
                &mut SimRng::new(5),
                &mut LdnsCache::new(),
            );
            match (a.result, b.result) {
                (Ok(mut x), Ok(mut y)) => {
                    // RR rotation depends on rng position; compare as sets.
                    x.sort();
                    y.sort();
                    assert_eq!(x, y);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("fidelity mismatch for {host}: {other:?}"),
            }
            assert_eq!(b.messages, 0);
        }
    }

    #[test]
    fn resolve_into_matches_resolve() {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let t0 = SimTime::from_hours(1);
        let mut buf = vec![Ipv4Addr::new(9, 9, 9, 9)]; // stale content must clear
        for host in ["www.iitb.ac.in", "nosuch.example.com"] {
            // Separate RNG/cache streams, identical seeds: the second
            // iteration exercises the cache-hit rotation path.
            let mut rng_a = SimRng::new(77);
            let mut rng_b = SimRng::new(77);
            let mut cache_a = LdnsCache::new();
            let mut cache_b = LdnsCache::new();
            for pass in 0..2 {
                let owned = r.resolve(&name(host), &NoFaults, t0, &mut rng_a, &mut cache_a);
                let status =
                    r.resolve_into(&name(host), &NoFaults, t0, &mut rng_b, &mut cache_b, &mut buf);
                assert_eq!(status.elapsed, owned.elapsed, "{host} pass {pass}");
                assert_eq!(status.messages, owned.messages);
                assert_eq!(status.from_cache, owned.from_cache);
                match owned.result {
                    Ok(addrs) => {
                        assert!(status.result.is_ok());
                        assert_eq!(buf, addrs, "{host} pass {pass}");
                    }
                    Err(kind) => {
                        assert_eq!(status.result.unwrap_err(), kind);
                        assert!(buf.is_empty(), "failed lookup leaves buffer empty");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = resolve_with(&NoFaults, "www.example.com");
        let b = resolve_with(&NoFaults, "www.example.com");
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn ldns_cache_basics() {
        let mut c = LdnsCache::new();
        assert!(c.is_empty());
        let t0 = SimTime::from_secs(100);
        c.put(name("a.b"), vec![Ipv4Addr::new(1, 1, 1, 1)], t0 + SimDuration::from_secs(10));
        assert_eq!(c.get(&name("a.b"), t0).unwrap().len(), 1);
        assert!(c.get(&name("a.b"), t0 + SimDuration::from_secs(10)).is_none(), "expiry is exclusive");
        c.flush();
        assert!(c.is_empty());
    }
}
