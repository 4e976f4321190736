//! The corporate caching proxy (Microsoft ISA-style, Section 4.7).
//!
//! Behavioural model distilled from the paper's findings:
//!
//! * the proxy does name resolution itself, with a **persistent DNS cache
//!   the client cannot flush** — masking some DNS failures from the client;
//! * the proxy connects to the **first resolved address only** and does
//!   **not fail over** to alternate replicas ("presumably to minimize
//!   overhead") — the mechanism behind the iitb/royal residual failures of
//!   Table 9;
//! * it keeps no object cache: every fetch goes to the origin, as the CN
//!   clients' `no-cache` requests made the real proxy do;
//! * the upstream failure *detail* is masked: the proxy answers the client
//!   with the status the client sees, a gateway error for an upstream
//!   failure.

use crate::env::AccessEnvironment;
use crate::session::{HEADER_OVERHEAD, MAX_REDIRECTS};
use dnssim::{LdnsCache, ResolverConfig, StubResolver, ZoneTree};
use dnswire::DomainName;
use httpsim::{OriginAnswer, StatusClass};
use model::{ProxyId, SimDuration, SimTime};
use netsim::SimRng;
use std::net::Ipv4Addr;
use tcpsim::simulate_connection;

/// One caching proxy's state.
pub struct ProxySession<'t> {
    /// The proxy the records of its clients' accesses name.
    pub(crate) id: ProxyId,
    /// The proxy's resolver, kept for its lifetime (with its message
    /// buffer).
    resolver: StubResolver<'t>,
    cache: LdnsCache,
    rng: SimRng,
    /// Reused A-record buffer (one live allocation per proxy, not one per
    /// fetch).
    addr_scratch: Vec<Ipv4Addr>,
}

impl<'t> ProxySession<'t> {
    /// Proxy `id`, resolving through `tree` under `resolver`, the policy
    /// its clients resolve with.
    pub fn new(id: ProxyId, tree: &'t ZoneTree, resolver: ResolverConfig, rng: SimRng) -> Self {
        ProxySession {
            id,
            resolver: StubResolver::new(tree, resolver),
            cache: LdnsCache::new(),
            rng,
            addr_scratch: Vec::new(),
        }
    }

    /// The proxy's own DNS cache (persists across client accesses).
    pub fn dns_cache(&self) -> &LdnsCache {
        &self.cache
    }

    /// Fetch `host`'s index object on behalf of a client and return what
    /// the client sees: the status, the body bytes and how long the proxy
    /// took (the client's clock keeps running while the proxy works).
    ///
    /// The status is 502 when the proxy's upstream lookup fails and 504
    /// when its connect or transfer fails, the client cannot tell which;
    /// otherwise it is the origin's own (or 310 past the redirect limit).
    /// Only a success carries body bytes. A redirect's next hop is the
    /// origin's own name, resolved as it is.
    ///
    /// `env` is the *proxy's* vantage (its LDNS, its wide-area paths).
    pub fn fetch<P: AccessEnvironment>(
        &mut self,
        env: &P,
        host: &DomainName,
        t: SimTime,
    ) -> (u16, u64, SimDuration) {
        let addrs = &mut self.addr_scratch;
        let mut now = t;
        let mut current = host;
        let mut bytes_total = 0u64;

        for _hop in 0..=MAX_REDIRECTS {
            let resolution = self.resolver.resolve_into(
                current,
                env,
                now,
                &mut self.rng,
                &mut self.cache,
                addrs,
            );
            now += resolution.elapsed;
            if resolution.result.is_err() {
                return (502, 0, now - t);
            }
            // THE defining defect: first address only, no fail-over.
            let addr = addrs[0];

            let answer = match env.origin(current) {
                Some(origin) => origin.respond(current, &mut self.rng),
                None => OriginAnswer::NOT_FOUND,
            };
            let wire_bytes = answer.body_len + HEADER_OVERHEAD;

            // The proxy hides which replica it tried, so its connect is
            // never stamped: the fault set is dropped.
            let (behavior, _) = env.server_behavior(addr, now);
            let path = env.path_quality(addr, now);
            let result = simulate_connection(behavior, &path, wire_bytes, now, &mut self.rng);
            now += result.duration;
            if result.outcome.is_err() {
                return (504, 0, now - t);
            }
            bytes_total += answer.body_len;

            match StatusClass::of(answer.status) {
                StatusClass::Success => return (answer.status, bytes_total, now - t),
                StatusClass::Redirect => {
                    current = answer.next_host.expect("redirect carries next host");
                }
                _ => return (answer.status, 0, now - t),
            }
        }
        (310, 0, now - t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::HealthyEnv;
    use dnssim::DnsFaults;
    use httpsim::Origin;
    use model::{ClientId, FaultSet, SiteId};
    use tcpsim::{PathQuality, ServerBehavior};

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tree() -> ZoneTree {
        ZoneTree::build_for_hosts(&[(
            name("www.iitb.ac.in"),
            vec![
                Ipv4Addr::new(10, 2, 0, 1),
                Ipv4Addr::new(10, 2, 0, 2),
                Ipv4Addr::new(10, 2, 0, 3),
            ],
        )])
    }

    fn proxy(tree: &ZoneTree, seed: u64) -> ProxySession<'_> {
        ProxySession::new(ProxyId(0), tree, ResolverConfig::default(), SimRng::new(seed))
    }

    #[test]
    fn healthy_fetch_succeeds() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.iitb.ac.in"), 12_000));
        let mut p = proxy(&tr, 1);
        let t = SimTime::from_hours(1);
        let (status, bytes, duration) = p.fetch(&env, &name("www.iitb.ac.in"), t);
        assert_eq!((status, bytes), (200, 12_000));
        assert!(duration > SimDuration::ZERO);
    }

    /// First replica dead, others fine — the client-side wget would fail
    /// over and succeed, but the proxy fails. This is Table 9's mechanism.
    struct FirstReplicaDead(HealthyEnv);
    impl DnsFaults for FirstReplicaDead {}
    impl AccessEnvironment for FirstReplicaDead {
        fn server_behavior(&self, r: Ipv4Addr, _t: SimTime) -> (ServerBehavior, FaultSet) {
            let behavior = if r == Ipv4Addr::new(10, 2, 0, 1) {
                ServerBehavior::Unreachable
            } else {
                ServerBehavior::Healthy
            };
            (behavior, FaultSet::EMPTY)
        }
        fn path_quality(&self, r: Ipv4Addr, t: SimTime) -> PathQuality {
            self.0.path_quality(r, t)
        }
        fn origin(&self, host: &DomainName) -> Option<&Origin> {
            self.0.origin(host)
        }
    }

    #[test]
    fn no_failover_fails_where_wget_succeeds() {
        // One of three replicas is dead. DNS round-robin hands the proxy a
        // random first address and it never fails over, so roughly a third
        // of its fetches fail; wget retries alternate addresses and always
        // succeeds.
        let tr = tree();
        let env = FirstReplicaDead(HealthyEnv::new(Origin::simple(
            name("www.iitb.ac.in"),
            12_000,
        )));
        let mut p = proxy(&tr, 2);
        let mut failed = 0;
        let mut succeeded = 0;
        for k in 0..40u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 60);
            match p.fetch(&env, &name("www.iitb.ac.in"), t) {
                (504, 0, _) => failed += 1,
                (200, 12_000, _) => succeeded += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(failed >= 5, "proxy sometimes picks the dead replica: {failed}");
        assert!(succeeded >= 5, "and sometimes a live one: {succeeded}");

        // Contrast: the direct client succeeds via fail-over, always.
        use crate::session::{ClientSession, WgetConfig};
        let mut s = ClientSession::new(ClientId(0), &tr, WgetConfig::default(), SimRng::new(3));
        let mut conns = Vec::new();
        for k in 0..20u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 60);
            let host = name("www.iitb.ac.in");
            let (rec, _, _) = s.run_transaction(&env, SiteId(0), &host, t, &mut conns);
            assert!(rec.outcome.is_success(), "direct wget fails over");
        }
    }

    #[test]
    fn proxy_dns_cache_persists() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.iitb.ac.in"), 1_000));
        let mut p = proxy(&tr, 4);
        let t0 = SimTime::from_hours(1);
        p.fetch(&env, &name("www.iitb.ac.in"), t0);
        assert_eq!(p.dns_cache().len(), 1);
        // Second fetch while LDNS is down for the proxy: cache masks it.
        struct ProxyLdnsDown(HealthyEnv);
        impl DnsFaults for ProxyLdnsDown {
            fn auth_up(&self, _z: &DomainName, _t: SimTime) -> bool {
                false
            }
        }
        impl AccessEnvironment for ProxyLdnsDown {
            fn server_behavior(&self, r: Ipv4Addr, t: SimTime) -> (ServerBehavior, FaultSet) {
                self.0.server_behavior(r, t)
            }
            fn path_quality(&self, r: Ipv4Addr, t: SimTime) -> PathQuality {
                self.0.path_quality(r, t)
            }
            fn origin(&self, host: &DomainName) -> Option<&Origin> {
                self.0.origin(host)
            }
        }
        let env2 = ProxyLdnsDown(HealthyEnv::new(Origin::simple(
            name("www.iitb.ac.in"),
            1_000,
        )));
        let (status, _, _) = p.fetch(
            &env2,
            &name("www.iitb.ac.in"),
            t0 + SimDuration::from_secs(60),
        );
        assert_eq!(status, 200, "cache should mask the DNS outage");
    }

    #[test]
    fn http_error_passes_through() {
        let tr = tree();
        let env = HealthyEnv::new(
            Origin::simple(name("www.iitb.ac.in"), 1_000).with_error_rate(1.0, 500),
        );
        let mut p = proxy(&tr, 5);
        let (status, bytes, _) = p.fetch(&env, &name("www.iitb.ac.in"), SimTime::from_hours(2));
        assert_eq!((status, bytes), (500, 0));
    }
}
