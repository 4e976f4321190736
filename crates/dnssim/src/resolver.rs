//! The client-side resolution path: stub resolver → LDNS → iterative walk.
//!
//! The resolution is computed *hierarchically*: faults are evaluated at the
//! transaction instant (episodes last hours; lookups last seconds) and the
//! elapsed time is accumulated analytically from per-hop latency samples and
//! timeout schedules. The answer is read straight from the zones
//! ([`crate::zones::Zone::answer_chain`]). With `wire_fidelity` on, every
//! hop also writes a real RFC 1035 message through the `dnswire` codec into
//! the resolver's one message buffer, checks it in place, and reads the
//! answer's A chain back out of the bytes, which must equal the zones'
//! answer. The messages are numbered by the resolver's own counter, so the
//! codecs draw nothing from the simulation RNG: the switch changes what a
//! resolution costs, never its outcome.

use crate::faults::DnsFaults;
use crate::server::write_authoritative_answer;
use crate::zones::ZoneTree;
use dnswire::{DomainName, Header, MessageRef, MessageWriter, RecordClass, RecordType, WireWriter};
use model::{DnsErrorCode, DnsFailureKind, SimDuration, SimTime};
use netsim::SimRng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-attempt stub → LDNS timeout.
const STUB_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// Stub attempts before declaring LDNS timeout.
const STUB_ATTEMPTS: u32 = 3;
/// Per-attempt LDNS → authoritative timeout.
const AUTH_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// LDNS attempts per authoritative server set.
const AUTH_ATTEMPTS: u32 = 2;
/// Mean RTT between client and its LDNS (last mile).
const LDNS_RTT: SimDuration = SimDuration::from_millis(5);
/// Mean RTT between the LDNS and authoritative servers (wide area).
const HOP_RTT: SimDuration = SimDuration::from_millis(60);
/// Multiplicative latency jitter: each sample is `mean * exp(N(0, sigma))`.
const JITTER_SIGMA: f64 = 0.3;

/// One latency sample around `mean`.
fn sample_latency(mean: SimDuration, rng: &mut SimRng) -> SimDuration {
    let factor = rng.normal(0.0, JITTER_SIGMA).exp();
    mean * factor
}

/// Background loss and the codec switch.
#[derive(Clone, Copy, Debug)]
pub struct ResolverConfig {
    /// Probability an individual healthy query/response exchange is lost
    /// (background UDP loss; retries usually hide it).
    pub query_loss_prob: f64,
    /// Write every DNS message through the RFC 1035 codec and check the
    /// answer read back from the bytes against the zones'. These are the
    /// only wire messages the simulation writes (HTTP exchanges are
    /// modelled by status and size). This changes what a resolution costs,
    /// never its outcome: no message draws from the simulation RNG, and the
    /// answer always comes from the zones.
    pub wire_fidelity: bool,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            query_loss_prob: 0.001,
            wire_fidelity: true,
        }
    }
}

/// The outcome of one resolution. The addresses go into the caller's
/// buffer ([`StubResolver::resolve_into`]), so the hot path reuses one
/// allocation across lookups.
#[derive(Clone, Copy, Debug)]
pub struct ResolutionStatus {
    /// `Ok` iff addresses were written to the caller's buffer; the
    /// observable failure class otherwise.
    pub result: Result<(), DnsFailureKind>,
    /// Time the lookup took (including timeout time on failure).
    pub elapsed: SimDuration,
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

    /// Store `addrs` for `name` until `expiry`. Refreshing an entry
    /// reuses its key and address buffer; only a new name allocates.
    pub fn put(&mut self, name: &DomainName, addrs: &[Ipv4Addr], expiry: SimTime) {
        match self.entries.get_mut(name) {
            Some((held, until)) => {
                held.clear();
                held.extend_from_slice(addrs);
                *until = expiry;
            }
            None => {
                self.entries.insert(name.clone(), (addrs.to_vec(), expiry));
            }
        }
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

/// The stub resolver: the entry point `webclient` uses for every access,
/// and the walker behind its iterative `dig` ([`Self::dig_iterative`]).
pub struct StubResolver<'t> {
    tree: &'t ZoneTree,
    config: ResolverConfig,
    /// The message buffer every query and answer is written into (with
    /// `wire_fidelity`), kept across resolutions.
    wire: WireWriter,
    /// The id of the next message written: the resolver numbers its own
    /// messages, so the codecs draw nothing from the simulation RNG.
    next_id: u16,
}

impl<'t> StubResolver<'t> {
    pub fn new(tree: &'t ZoneTree, config: ResolverConfig) -> Self {
        StubResolver {
            tree,
            config,
            wire: WireWriter::new(),
            next_id: 0,
        }
    }

    /// The id for the next message written.
    fn message_id(&mut self) -> u16 {
        let id = self.next_id;
        self.next_id = id.wrapping_add(1);
        id
    }

    /// Resolve `qname` at instant `t` under `faults`, using (and updating)
    /// the client's LDNS cache. `out` is cleared and, on success, left
    /// holding the (rotated) RRset.
    pub fn resolve_into<F: DnsFaults + ?Sized>(
        &mut self,
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
        &mut self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
        out: &mut Vec<Ipv4Addr>,
    ) -> ResolutionStatus {
        let cfg = self.config;
        let mut elapsed = SimDuration::ZERO;

        // --- Stub → LDNS ------------------------------------------------
        let ldns_reachable = faults.client_link_up(t) && faults.ldns_up(t);
        let mut contacted = false;
        for _attempt in 0..STUB_ATTEMPTS {
            if ldns_reachable && !rng.chance(cfg.query_loss_prob) {
                elapsed += sample_latency(LDNS_RTT, rng);
                contacted = true;
                break;
            }
            elapsed += STUB_TIMEOUT;
        }
        if !contacted {
            return ResolutionStatus {
                result: Err(DnsFailureKind::LdnsTimeout),
                elapsed,
                from_cache: false,
            };
        }
        if cfg.wire_fidelity {
            // The stub's recursive query to the LDNS.
            let id = self.message_id();
            write_query(&mut self.wire, id, qname);
            let _ = MessageRef::decode(self.wire.as_bytes()).expect("own bytes decode");
        }

        // --- LDNS cache --------------------------------------------------
        if let Some(addrs) = cache.get(qname, t) {
            out.extend_from_slice(addrs);
            rotate_rr(out, rng);
            return ResolutionStatus {
                result: Ok(()),
                elapsed,
                from_cache: true,
            };
        }

        // --- Iterative walk (by the LDNS) ----------------------------------
        let result = self
            .walk(qname, faults, t, rng, &mut elapsed, out)
            .map(|ttl| {
                cache.put(qname, out, t + SimDuration::from_secs(u64::from(ttl)));
                rotate_rr(out, rng);
            });
        ResolutionStatus {
            result,
            elapsed,
            from_cache: false,
        }
    }

    /// Walk the delegation chain for `qname` from the root, accumulating
    /// latency: the walk the LDNS runs on a cache miss and `dig` runs from
    /// the client. An answer's addresses go into `out` and its TTL is
    /// returned; a failure is a non-LDNS timeout or an error response.
    pub(crate) fn walk<F: DnsFaults + ?Sized>(
        &mut self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        elapsed: &mut SimDuration,
        out: &mut Vec<Ipv4Addr>,
    ) -> Result<u32, DnsFailureKind> {
        let cfg = self.config;
        let mut zones = self.tree.delegation_chain(qname).peekable();
        while let Some(zone) = zones.next() {
            let next = zones.peek().copied();
            // Zone misconfiguration produces an error *response* (servers
            // are up but answer with an error) — only meaningful at the
            // authoritative zone, i.e. the last chain element.
            let is_auth = next.is_none();
            if is_auth {
                if let Some(code) = faults.zone_error(&zone.apex, t) {
                    *elapsed += sample_latency(HOP_RTT, rng);
                    return Err(DnsFailureKind::ErrorResponse(code));
                }
            }
            // Reachability of this zone's servers.
            let up = faults.auth_up(&zone.apex, t);
            let mut reached = false;
            for _ in 0..AUTH_ATTEMPTS {
                if up && !rng.chance(cfg.query_loss_prob) {
                    *elapsed += sample_latency(HOP_RTT, rng);
                    reached = true;
                    break;
                }
                *elapsed += AUTH_TIMEOUT;
            }
            if !reached {
                return Err(DnsFailureKind::NonLdnsTimeout);
            }
            // The authority's answer: the addresses its CNAME chain ends in.
            if is_auth {
                zone.answer_addresses(qname, out);
            }
            if cfg.wire_fidelity {
                let id = self.message_id();
                write_authoritative_answer(zone, next, qname, id, &mut self.wire);
                let answer = MessageRef::decode(self.wire.as_bytes()).expect("own bytes decode");
                if is_auth {
                    // The bytes check the answer and never replace it: the
                    // A chain read back must be the zone's, in order.
                    let n = out.len();
                    answer.resolve_a_chain(qname, out);
                    assert!(
                        out[..n] == out[n..],
                        "the written answer for {qname} reads back as another"
                    );
                    out.truncate(n);
                }
            }
            if is_auth {
                return if zone.lookup(qname).is_none() {
                    Err(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain))
                } else if out.is_empty() {
                    // The chain ends in a CNAME out of zone (or runs out of
                    // names), which is not followed: a server failure.
                    Err(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail))
                } else {
                    Ok(zone.ttl)
                };
            }
        }
        // No zone holds the name or any of its suffixes, not even the root.
        Err(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail))
    }
}

/// The stub's recursive A query for `qname` with id `id`, written into `w`.
fn write_query(w: &mut WireWriter, id: u16, qname: &DomainName) {
    let header = Header {
        id,
        recursion_desired: true,
        ..Header::default()
    };
    let mut m = MessageWriter::new(w, header);
    m.question(qname, RecordType::A, RecordClass::In);
    m.finish().expect("a query fits in a message");
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

    /// One lookup into a local buffer: the status and the delivered RRset.
    fn lookup<F: DnsFaults>(
        r: &mut StubResolver,
        host: &str,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
    ) -> (ResolutionStatus, Vec<Ipv4Addr>) {
        let mut addrs = Vec::new();
        let status = r.resolve_into(&name(host), faults, t, rng, cache, &mut addrs);
        (status, addrs)
    }

    /// One lookup by a fresh resolver: the status, the delivered RRset and
    /// how many messages the resolver wrote (its `next_id` numbers them).
    fn resolve_with<F: DnsFaults>(
        faults: &F,
        host: &str,
    ) -> (ResolutionStatus, Vec<Ipv4Addr>, u16) {
        let t = tree();
        let mut r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(1);
        let mut cache = LdnsCache::new();
        let (status, addrs) = lookup(
            &mut r,
            host,
            faults,
            SimTime::from_hours(1),
            &mut rng,
            &mut cache,
        );
        (status, addrs, r.next_id)
    }

    #[test]
    fn healthy_resolution_succeeds() {
        let (res, addrs, written) = resolve_with(&NoFaults, "www.example.com");
        assert_eq!(res.result, Ok(()));
        assert_eq!(addrs, vec![Ipv4Addr::new(10, 0, 0, 1)]);
        assert!(!res.from_cache);
        assert_eq!(written, 4, "stub + root + tld + auth");
        assert!(res.elapsed > SimDuration::ZERO);
        assert!(res.elapsed < SimDuration::from_secs(2), "healthy lookup fast");
    }

    #[test]
    fn multi_address_answer() {
        let (res, addrs, _) = resolve_with(&NoFaults, "www.iitb.ac.in");
        assert_eq!(res.result, Ok(()));
        assert_eq!(addrs.len(), 2);
    }

    #[test]
    fn link_down_is_ldns_timeout() {
        let (res, _, written) = resolve_with(&LinkDown, "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::LdnsTimeout);
        // 3 attempts × 5 s
        assert_eq!(res.elapsed, SimDuration::from_secs(15));
        assert_eq!(written, 0);
    }

    #[test]
    fn ldns_down_is_ldns_timeout() {
        let (res, _, _) = resolve_with(&LdnsDown, "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::LdnsTimeout);
    }

    #[test]
    fn auth_down_is_non_ldns_timeout() {
        let (res, _, _) = resolve_with(&AuthDown(name("example.com")), "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::NonLdnsTimeout);
        assert!(res.elapsed >= SimDuration::from_secs(6), "timeout time accrued");
    }

    #[test]
    fn tld_down_is_non_ldns_timeout() {
        let (res, _, _) = resolve_with(&AuthDown(name("com")), "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::NonLdnsTimeout);
    }

    #[test]
    fn broken_zone_returns_error_response() {
        let (res, _, _) = resolve_with(
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
        let mut r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(3);
        let mut cache = LdnsCache::new();
        let host = "www.example.com";
        let t0 = SimTime::from_hours(1);
        let wrong = WrongAnswer(name(host), decoy);
        let (faulted, addrs) = lookup(&mut r, host, &wrong, t0, &mut rng, &mut cache);
        assert_eq!(faulted.result, Ok(()));
        assert_eq!(addrs, vec![decoy]);
        // The cache kept the genuine RRset: once the fault window ends the
        // next (cached) lookup is healthy again.
        let later = t0 + SimDuration::from_secs(60);
        let (healed, addrs) = lookup(&mut r, host, &NoFaults, later, &mut rng, &mut cache);
        assert!(healed.from_cache);
        assert_eq!(addrs, vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let (res, _, _) = resolve_with(&NoFaults, "nosuch.example.com");
        assert_eq!(
            res.result.unwrap_err(),
            DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain)
        );
    }

    #[test]
    fn cache_hit_short_circuits() {
        let t = tree();
        let mut r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(2);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        let host = "www.example.com";
        let (first, _) = lookup(&mut r, host, &NoFaults, t0, &mut rng, &mut cache);
        assert!(!first.from_cache);
        let walked = r.next_id;
        let later = t0 + SimDuration::from_secs(60);
        let (second, addrs) = lookup(&mut r, host, &NoFaults, later, &mut rng, &mut cache);
        assert!(second.from_cache);
        assert_eq!(r.next_id - walked, 1, "only the stub query");
        assert_eq!(addrs, vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn cache_expires_by_ttl() {
        let t = tree();
        let mut r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(3);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        lookup(&mut r, "www.example.com", &NoFaults, t0, &mut rng, &mut cache);
        // Auth zone TTL is 7200 s; query well past expiry.
        let later = t0 + SimDuration::from_secs(8000);
        let (res, _) = lookup(&mut r, "www.example.com", &NoFaults, later, &mut rng, &mut cache);
        assert!(!res.from_cache);
    }

    #[test]
    fn cached_answer_masks_auth_outage() {
        // The proxy/LDNS cache effect from the paper: a cached name keeps
        // resolving while the authoritative servers are down.
        let t = tree();
        let mut r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(4);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        lookup(&mut r, "www.example.com", &NoFaults, t0, &mut rng, &mut cache);
        let (res, _) = lookup(
            &mut r,
            "www.example.com",
            &AuthDown(name("example.com")),
            t0 + SimDuration::from_secs(60),
            &mut rng,
            &mut cache,
        );
        assert!(res.from_cache);
        assert!(res.result.is_ok());
    }

    /// [`tree`] with two aliases in `example.com`: one to a name in the
    /// zone, one to a name out of it.
    fn cname_tree() -> ZoneTree {
        let mut t = tree();
        let z = t.zone_mut(&name("example.com")).unwrap();
        z.add_cname(name("web.example.com"), name("www.example.com"));
        z.add_cname(name("out.example.com"), name("www.iitb.ac.in"));
        t
    }

    #[test]
    fn in_zone_cname_resolves_and_out_of_zone_cname_is_servfail() {
        let t = cname_tree();
        for wire_fidelity in [false, true] {
            let cfg = ResolverConfig {
                query_loss_prob: 0.0,
                wire_fidelity,
            };
            let mut r = StubResolver::new(&t, cfg);
            let mut rng = SimRng::new(6);
            let at = SimTime::from_hours(1);
            let mut lookup_at =
                |host| lookup(&mut r, host, &NoFaults, at, &mut rng, &mut LdnsCache::new());
            let (web, addrs) = lookup_at("web.example.com");
            assert_eq!(web.result, Ok(()), "codecs {wire_fidelity}");
            assert_eq!(
                addrs,
                [Ipv4Addr::new(10, 0, 0, 1)],
                "codecs {wire_fidelity}"
            );
            let (out, addrs) = lookup_at("out.example.com");
            assert_eq!(
                out.result,
                Err(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)),
                "codecs {wire_fidelity}"
            );
            assert!(addrs.is_empty());
        }
    }

    /// The codecs change what a lookup costs, never what it finds: with
    /// query loss on, every status, elapsed time and RRset (in its rotated
    /// order) is the same with and without them, through walks and cache
    /// hits, and both runs leave the RNG at the same place.
    #[test]
    fn wire_fidelity_off_matches_on() {
        let t = cname_tree();
        let on_cfg = ResolverConfig {
            query_loss_prob: 0.3,
            wire_fidelity: true,
        };
        let off_cfg = ResolverConfig {
            wire_fidelity: false,
            ..on_cfg
        };
        let hosts = [
            "www.example.com",
            "www.iitb.ac.in",
            "nosuch.example.com",
            "web.example.com",
            "out.example.com",
        ];
        for seed in 0..40 {
            let mut on = StubResolver::new(&t, on_cfg);
            let mut off = StubResolver::new(&t, off_cfg);
            let (mut rng_on, mut rng_off) = (SimRng::new(seed), SimRng::new(seed));
            let (mut cache_on, mut cache_off) = (LdnsCache::new(), LdnsCache::new());
            // Each host twice: a walk, then a cache hit where it answered.
            for (i, host) in hosts.iter().chain(&hosts).enumerate() {
                let at = SimTime::from_hours(2) + SimDuration::from_secs(i as u64);
                let (a, x) = lookup(&mut on, host, &NoFaults, at, &mut rng_on, &mut cache_on);
                let (b, y) = lookup(&mut off, host, &NoFaults, at, &mut rng_off, &mut cache_off);
                assert_eq!(a.result, b.result, "{host}, seed {seed}");
                assert_eq!(a.elapsed, b.elapsed, "{host}, seed {seed}");
                assert_eq!(a.from_cache, b.from_cache, "{host}, seed {seed}");
                assert_eq!(x, y, "{host}, seed {seed}: the RRset, in order");
            }
            assert_eq!(off.next_id, 0, "no message written with the codec off");
            assert_eq!(rng_on.next_u64(), rng_off.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn resolve_into_clears_and_refills_the_buffer() {
        let t = tree();
        let mut r = StubResolver::new(&t, ResolverConfig::default());
        let t0 = SimTime::from_hours(1);
        let stale = Ipv4Addr::new(9, 9, 9, 9);
        for host in ["www.iitb.ac.in", "nosuch.example.com"] {
            let mut rng = SimRng::new(77);
            let mut cache = LdnsCache::new();
            let mut buf = vec![stale];
            // The second pass exercises the cache-hit rotation path.
            for pass in 0..2 {
                let status =
                    r.resolve_into(&name(host), &NoFaults, t0, &mut rng, &mut cache, &mut buf);
                assert!(!buf.contains(&stale), "{host} pass {pass}: stale content cleared");
                match status.result {
                    Ok(()) => {
                        assert_eq!(status.from_cache, pass == 1, "{host} pass {pass}");
                        buf.sort();
                        assert_eq!(
                            buf,
                            vec![Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 2, 0, 2)]
                        );
                    }
                    Err(_) => assert!(buf.is_empty(), "failed lookup leaves buffer empty"),
                }
                buf.push(stale);
            }
        }
    }

    #[test]
    fn written_query_equals_the_encoded_owned_query() {
        let mut w = WireWriter::new();
        for (id, host) in [(0x1234, "www.example.com"), (7, "www.iitb.ac.in"), (0, ".")] {
            write_query(&mut w, id, &name(host));
            let owned = dnswire::Message {
                header: Header {
                    id,
                    recursion_desired: true,
                    ..Header::default()
                },
                questions: vec![dnswire::Question::new(name(host), RecordType::A)],
                ..dnswire::Message::default()
            };
            assert_eq!(w.as_bytes(), owned.encode().unwrap(), "{host}");
        }
    }

    #[test]
    fn messages_are_numbered_by_the_resolver() {
        let t = tree();
        let mut r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(8);
        let host = "www.example.com";
        // Stub query, then root, TLD and zone answers: ids 0 to 3.
        lookup(
            &mut r,
            host,
            &NoFaults,
            SimTime::from_hours(1),
            &mut rng,
            &mut LdnsCache::new(),
        );
        assert_eq!(
            r.wire.as_bytes()[..2],
            [0, 3],
            "the zone's answer is message 3"
        );
        assert_eq!(r.message_id(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, x, a_written) = resolve_with(&NoFaults, "www.example.com");
        let (b, y, b_written) = resolve_with(&NoFaults, "www.example.com");
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a_written, b_written);
        assert_eq!(x, y);
    }

    #[test]
    fn ldns_cache_basics() {
        let mut c = LdnsCache::new();
        assert!(c.is_empty());
        let t0 = SimTime::from_secs(100);
        c.put(&name("a.b"), &[Ipv4Addr::new(1, 1, 1, 1)], t0 + SimDuration::from_secs(10));
        assert_eq!(c.get(&name("a.b"), t0).unwrap().len(), 1);
        assert!(c.get(&name("a.b"), t0 + SimDuration::from_secs(10)).is_none(), "expiry is exclusive");
        // A refresh replaces the addresses and the expiry in place.
        let two = [Ipv4Addr::new(2, 2, 2, 2), Ipv4Addr::new(3, 3, 3, 3)];
        c.put(&name("a.b"), &two, t0 + SimDuration::from_secs(20));
        assert_eq!(c.get(&name("a.b"), t0 + SimDuration::from_secs(10)), Some(&two[..]));
        assert_eq!(c.len(), 1);
        c.flush();
        assert!(c.is_empty());
    }
}
