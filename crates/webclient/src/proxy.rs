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
//! * the upstream failure *detail* is masked: the client sees only a
//!   gateway-error status.

use crate::env::AccessEnvironment;
use crate::session::{HEADER_OVERHEAD, MAX_REDIRECTS};
use dnssim::{LdnsCache, ResolverConfig, StubResolver, ZoneTree};
use dnswire::DomainName;
use httpsim::{OriginAnswer, StatusClass};
use model::{DnsFailureKind, SimDuration, SimTime};
use netsim::SimRng;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use tcpsim::simulate_connection_into;

/// Outcome of a proxy-mediated fetch, with the time it took (the client's
/// clock keeps running while the proxy works).
#[derive(Clone, Debug)]
pub enum ProxyFetch {
    Success { bytes: u64, duration: SimDuration },
    /// Upstream resolution failed at the proxy.
    DnsFailed(DnsFailureKind, SimDuration),
    /// Upstream TCP connection failed (first address only — no fail-over).
    ConnectFailed(SimDuration),
    /// Upstream transfer started but did not complete.
    TransferFailed(SimDuration),
    /// Origin returned an HTTP error.
    HttpError(u16, SimDuration),
}

/// One caching proxy's state.
pub struct ProxySession<'t> {
    /// The proxy's resolver, kept for its lifetime (with its message
    /// buffer).
    resolver: StubResolver<'t>,
    cache: LdnsCache,
    rng: SimRng,
    /// Reused A-record buffer (one live allocation per proxy, not one per
    /// fetch).
    addr_scratch: Vec<Ipv4Addr>,
    /// Reused hostname rendering buffer (one live allocation per proxy,
    /// not one per hop).
    host_scratch: String,
}

impl<'t> ProxySession<'t> {
    /// A proxy resolving through `tree` under `resolver`, the policy its
    /// clients resolve with.
    pub fn new(tree: &'t ZoneTree, resolver: ResolverConfig, rng: SimRng) -> Self {
        ProxySession {
            resolver: StubResolver::new(tree, resolver),
            cache: LdnsCache::new(),
            rng,
            addr_scratch: Vec::new(),
            host_scratch: String::new(),
        }
    }

    /// The proxy's own DNS cache (persists across client accesses).
    pub fn dns_cache(&self) -> &LdnsCache {
        &self.cache
    }

    /// Fetch `host`'s index object on behalf of a client.
    ///
    /// `env` is the *proxy's* vantage (its LDNS, its wide-area paths).
    pub fn fetch<P: AccessEnvironment>(
        &mut self,
        env: &P,
        host: &DomainName,
        t: SimTime,
    ) -> ProxyFetch {
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        let out = self.fetch_inner(env, host, t, &mut addrs);
        addrs.clear();
        self.addr_scratch = addrs;
        out
    }

    fn fetch_inner<P: AccessEnvironment>(
        &mut self,
        env: &P,
        host: &DomainName,
        t: SimTime,
        addrs: &mut Vec<Ipv4Addr>,
    ) -> ProxyFetch {
        let mut now = t;
        let mut redirect_host: Option<DomainName> = None;
        let mut bytes_total = 0u64;

        for _hop in 0..=MAX_REDIRECTS {
            let current = redirect_host.as_ref().unwrap_or(host);
            let resolution = self.resolver.resolve_into(
                current,
                env,
                now,
                &mut self.rng,
                &mut self.cache,
                addrs,
            );
            now += resolution.elapsed;
            if let Err(kind) = resolution.result {
                return ProxyFetch::DnsFailed(kind, now - t);
            }
            // THE defining defect: first address only, no fail-over.
            let addr = addrs[0];

            self.host_scratch.clear();
            write!(self.host_scratch, "{current}").expect("formatting into a String cannot fail");
            let host_str = &self.host_scratch;
            let answer = match env.origin(host_str) {
                Some(origin) => origin.respond(host_str, &mut self.rng),
                None => OriginAnswer::NOT_FOUND,
            };
            let wire_bytes = answer.body_len + HEADER_OVERHEAD;

            // The proxy hides which replica it tried, so its connect is
            // never stamped: the fault set is dropped.
            let (behavior, _) = env.server_behavior(addr, now);
            let path = env.path_quality(addr, now);
            let result =
                simulate_connection_into(behavior, &path, wire_bytes, now, &mut self.rng, None);
            now += result.duration;
            if result.outcome.is_err() {
                return if result.established {
                    ProxyFetch::TransferFailed(now - t)
                } else {
                    ProxyFetch::ConnectFailed(now - t)
                };
            }
            bytes_total += answer.body_len;

            match StatusClass::of(answer.status) {
                StatusClass::Success => {
                    return ProxyFetch::Success {
                        bytes: bytes_total,
                        duration: now - t,
                    }
                }
                StatusClass::Redirect => {
                    let next = answer.next_host.expect("redirect carries next host");
                    match next.parse::<DomainName>() {
                        Ok(n) => redirect_host = Some(n),
                        Err(_) => return ProxyFetch::HttpError(502, now - t),
                    }
                }
                _ => return ProxyFetch::HttpError(answer.status, now - t),
            }
        }
        ProxyFetch::HttpError(310, now - t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::HealthyEnv;
    use dnssim::DnsFaults;
    use httpsim::Origin;
    use model::FaultSet;
    use std::net::Ipv4Addr;
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
        ProxySession::new(tree, ResolverConfig::default(), SimRng::new(seed))
    }

    #[test]
    fn healthy_fetch_succeeds() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.iitb.ac.in", 12_000));
        let mut p = proxy(&tr, 1);
        match p.fetch(&env, &name("www.iitb.ac.in"), SimTime::from_hours(1)) {
            ProxyFetch::Success { bytes, duration } => {
                assert_eq!(bytes, 12_000);
                assert!(duration > SimDuration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
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
        fn origin(&self, host: &str) -> Option<&Origin> {
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
        let env = FirstReplicaDead(HealthyEnv::new(Origin::simple("www.iitb.ac.in", 12_000)));
        let mut p = proxy(&tr, 2);
        let mut failed = 0;
        let mut succeeded = 0;
        for k in 0..40u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 60);
            match p.fetch(&env, &name("www.iitb.ac.in"), t) {
                ProxyFetch::ConnectFailed(_) => failed += 1,
                ProxyFetch::Success { .. } => succeeded += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(failed >= 5, "proxy sometimes picks the dead replica: {failed}");
        assert!(succeeded >= 5, "and sometimes a live one: {succeeded}");

        // Contrast: the direct client succeeds via fail-over, always.
        use crate::session::{ClientSession, WgetConfig};
        let mut s = ClientSession::new(&tr, WgetConfig::default(), SimRng::new(3));
        for k in 0..20u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 60);
            let obs = s.run_transaction(&env, &name("www.iitb.ac.in"), t);
            assert!(obs.outcome.is_success(), "direct wget fails over");
        }
    }

    #[test]
    fn proxy_dns_cache_persists() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.iitb.ac.in", 1_000));
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
            fn origin(&self, host: &str) -> Option<&Origin> {
                self.0.origin(host)
            }
        }
        let env2 = ProxyLdnsDown(HealthyEnv::new(Origin::simple("www.iitb.ac.in", 1_000)));
        match p.fetch(
            &env2,
            &name("www.iitb.ac.in"),
            t0 + SimDuration::from_secs(60),
        ) {
            ProxyFetch::Success { .. } => {}
            other => panic!("cache should mask the DNS outage: {other:?}"),
        }
    }

    #[test]
    fn http_error_passes_through() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.iitb.ac.in", 1_000).with_error_rate(1.0, 500));
        let mut p = proxy(&tr, 5);
        match p.fetch(&env, &name("www.iitb.ac.in"), SimTime::from_hours(2)) {
            ProxyFetch::HttpError(500, _) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
