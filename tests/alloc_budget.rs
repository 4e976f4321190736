//! The allocation budget of a simulated transaction.
//!
//! A counting global allocator, whose counter is per thread, watches one
//! warmed `ClientSession` with wget's defaults (DNS wire codecs on,
//! `record_traces` on) over `HealthyEnv`. The caller reserves its connection-record
//! vector once and clears it between accesses, so a record pushed there
//! never allocates:
//!
//! * a healthy transaction that hits the LDNS cache and takes no redirect
//!   allocates nothing;
//! * a cache miss allocates only the cache entry it inserts: nothing when
//!   it refreshes an expired entry, the key and the address list for a new
//!   name;
//! * a redirect hop allocates nothing: the next hop is the origin's own
//!   parsed name, which the session resolves as it is;
//! * a proxied transaction that hits the proxy's DNS cache allocates
//!   nothing, through a redirect too: the proxy keeps one resolver, and
//!   its message buffer, for its lifetime, and follows the origin's names;
//! * a failed lookup and the iterative dig that follows it allocate
//!   nothing: dig walks in the resolver's message buffer and reads its
//!   addresses into the session's address buffer;
//! * the forensic exemplar store decides before it copies: a success that
//!   does not beat its bucket's fifth allocates nothing.

use dnssim::{DnsFaults, ZoneTree};
use dnswire::DomainName;
use httpsim::Origin;
use model::{
    ClientId, ConnectionRecord, DigOutcome, DnsFailureKind, FailureClass, FaultSet,
    PerformanceRecord, ProxyId, SimDuration, SimTime, SiteId, TraceEvent, TraceExemplar, TxnTrace,
};
use netsim::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use tcpsim::{PathQuality, ServerBehavior};
use webclient::env::HealthyEnv;
use webclient::{AccessEnvironment, ClientSession, ProxySession, WgetConfig};
use workload::ExemplarStore;

/// Counts every allocation and reallocation on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract for `ptr`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn name(s: &str) -> DomainName {
    s.parse().expect("valid name")
}

/// One access, its connection records in `connections` (cleared first),
/// and the allocations this thread made during it.
fn counted<E: AccessEnvironment>(
    session: &mut ClientSession<'_>,
    env: &E,
    host: &DomainName,
    t: SimTime,
    connections: &mut Vec<ConnectionRecord>,
) -> (PerformanceRecord, u64) {
    connections.clear();
    let before = ALLOCS.with(Cell::get);
    let (record, _, _) = session.run_transaction(env, SiteId(0), host, t, connections);
    (record, ALLOCS.with(Cell::get) - before)
}

/// A connection-record vector reserved once for every access of a test.
fn connections() -> Vec<ConnectionRecord> {
    Vec::with_capacity(16)
}

fn tree() -> ZoneTree {
    ZoneTree::build_for_hosts(&[
        (name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]),
        (name("example.com"), vec![Ipv4Addr::new(10, 0, 0, 2)]),
        (name("www.example.org"), vec![Ipv4Addr::new(10, 0, 1, 1)]),
    ])
}

/// The authoritative zones' TTL: an LDNS entry lives this long.
const TTL: SimDuration = SimDuration::from_secs(7_200);

#[test]
fn a_warm_transaction_allocates_only_what_it_keeps() {
    let tree = tree();
    let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 24_000));
    let config = WgetConfig::default();
    assert!(config.resolver.wire_fidelity && config.record_traces);
    let mut session = ClientSession::new(ClientId(0), &tree, config, SimRng::new(2005));
    let host = name("www.example.com");
    let mut conns = connections();

    // Warm up: the first transaction misses the cache; the next ones grow
    // the session's buffers to what a transaction of this site needs.
    let t0 = SimTime::from_hours(1);
    let mut t = t0;
    for _ in 0..50 {
        let (record, _) = counted(&mut session, &env, &host, t, &mut conns);
        assert!(record.outcome.is_success());
        t += SimDuration::from_secs(10);
    }

    // Cache hits: nothing at all.
    for i in 0..500 {
        let (record, allocs) = counted(&mut session, &env, &host, t, &mut conns);
        assert!(record.outcome.is_success(), "hit {i}");
        assert_eq!(allocs, 0, "hit {i} at {t:?}");
        t += SimDuration::from_secs(10);
    }
    assert!(t < t0 + TTL, "every measured lookup was a hit");
    assert_eq!(session.ldns_cache().len(), 1);

    // A miss on the expired entry walks root, TLD and zone through the
    // codec and refreshes the entry in place: still nothing.
    let t = t0 + TTL + SimDuration::from_secs(60);
    let (record, allocs) = counted(&mut session, &env, &host, t, &mut conns);
    assert!(record.outcome.is_success());
    assert_eq!(allocs, 0, "a refreshing miss");
    assert_eq!(session.ldns_cache().len(), 1);

    // A miss on a new name inserts its entry: the key and the address list.
    // (The environment serves no origin there, so the exchange is a 404;
    // the lookup, the connection and both heads still run.)
    let other = name("www.example.org");
    let t = t + SimDuration::from_secs(10);
    let (record, allocs) = counted(&mut session, &env, &other, t, &mut conns);
    assert!(record.dns.is_ok() && !record.outcome.is_success());
    assert_eq!(allocs, 2, "a miss inserting a new entry");
    assert_eq!(session.ldns_cache().len(), 2);
}

/// `www.example.com`'s origin, reached through a redirect from
/// `example.com`.
fn redirecting() -> HealthyEnv {
    HealthyEnv::new(
        Origin::simple(name("www.example.com"), 24_000).with_redirects(vec![name("example.com")]),
    )
}

#[test]
fn a_redirect_hop_allocates_nothing() {
    let tree = tree();
    let env = redirecting();
    let config = WgetConfig::default();
    let mut session = ClientSession::new(ClientId(0), &tree, config, SimRng::new(2006));
    let host = name("example.com");
    let mut conns = connections();
    let mut t = SimTime::from_hours(1);
    for i in 0..300 {
        let (record, allocs) = counted(&mut session, &env, &host, t, &mut conns);
        assert!(record.outcome.is_success());
        assert_eq!(conns.len(), 2, "one redirect hop");
        if i >= 50 {
            // Both names are cached, and the hop asks the origin's name.
            assert_eq!(allocs, 0, "transaction {i}");
        }
        t += SimDuration::from_secs(10);
    }
}

#[test]
fn a_warm_proxied_cache_hit_allocates_nothing() {
    let tree = tree();
    let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 24_000));
    let config = WgetConfig::default();
    assert!(config.resolver.wire_fidelity);
    let mut proxy = ProxySession::new(ProxyId(0), &tree, config.resolver, SimRng::new(2007));
    let mut session = ClientSession::new(ClientId(0), &tree, config, SimRng::new(2008));
    let host = name("www.example.com");
    let t0 = SimTime::from_hours(1);
    let mut t = t0;
    let mut proxied = |t: SimTime| {
        let before = ALLOCS.with(Cell::get);
        let (record, _, _) =
            session.run_proxied_transaction(&env, &mut proxy, &env, SiteId(0), &host, t);
        assert!(record.outcome.is_success());
        ALLOCS.with(Cell::get) - before
    };
    for _ in 0..50 {
        proxied(t);
        t += SimDuration::from_secs(10);
    }
    for i in 0..500 {
        assert_eq!(proxied(t), 0, "proxied hit {i} at {t:?}");
        t += SimDuration::from_secs(10);
    }
    assert!(t < t0 + TTL, "every measured lookup was a hit");
}

#[test]
fn a_warm_proxied_redirect_allocates_nothing() {
    let tree = tree();
    let env = redirecting();
    let config = WgetConfig::default();
    let mut proxy = ProxySession::new(ProxyId(0), &tree, config.resolver, SimRng::new(2010));
    let mut session = ClientSession::new(ClientId(0), &tree, config, SimRng::new(2011));
    let host = name("example.com");
    let mut t = SimTime::from_hours(1);
    for i in 0..300 {
        let before = ALLOCS.with(Cell::get);
        let (record, _, _) =
            session.run_proxied_transaction(&env, &mut proxy, &env, SiteId(0), &host, t);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(record.outcome.is_success());
        assert_eq!(
            record.bytes_received, 24_000,
            "the redirect's target answered"
        );
        if i >= 50 {
            assert_eq!(allocs, 0, "proxied redirect {i}");
        }
        t += SimDuration::from_secs(10);
    }
    assert_eq!(proxy.dns_cache().len(), 2, "both hops cached");
}

/// [`HealthyEnv`] behind a dead LDNS: wget's lookups time out, while dig,
/// which walks from the root itself, resolves.
struct LdnsDown(HealthyEnv);

impl DnsFaults for LdnsDown {
    fn ldns_up(&self, _t: SimTime) -> bool {
        false
    }
}

impl AccessEnvironment for LdnsDown {
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

#[test]
fn a_warm_failed_lookup_and_its_dig_allocate_nothing() {
    let tree = tree();
    let env = LdnsDown(HealthyEnv::new(Origin::simple(
        name("www.example.com"),
        24_000,
    )));
    let config = WgetConfig::default();
    assert!(config.resolver.wire_fidelity);
    let mut session = ClientSession::new(ClientId(0), &tree, config, SimRng::new(2009));
    let host = name("www.example.com");
    let mut conns = connections();
    let mut t = SimTime::from_hours(1);
    for i in 0..300 {
        let (record, allocs) = counted(&mut session, &env, &host, t, &mut conns);
        assert_eq!(
            record.failure(),
            Some(FailureClass::Dns(DnsFailureKind::LdnsTimeout))
        );
        assert_eq!(record.dig, DigOutcome::Resolved, "dig walks past the LDNS");
        if i >= 50 {
            assert_eq!(allocs, 0, "failed lookup {i}");
        }
        t += SimDuration::from_secs(60);
    }
}

/// A successful access of `duration_us` whose trace holds its lookup.
fn traced_success(record_index: usize, duration_us: u64) -> TraceExemplar {
    let at = SimTime::from_hours(1);
    let lookup = TraceEvent::Dns {
        host: "www.example.com".to_string(),
        at,
        elapsed: SimDuration::from_millis(20),
        outcome: Ok(()),
        truth: FaultSet::EMPTY,
    };
    TraceExemplar {
        client: 0,
        site: 0,
        hour: 1,
        record_index,
        start: at,
        duration_us,
        failed: false,
        truth: FaultSet::EMPTY,
        trace: TxnTrace {
            events: vec![lookup],
        },
    }
}

#[test]
fn a_success_the_exemplar_store_rejects_allocates_nothing() {
    let mut store = ExemplarStore::default();
    for i in 0..report::caps::MAX_SAMPLES {
        store.offer(traced_success(i, 5_000_000));
    }
    let faster = traced_success(99, 1_000);
    let before = ALLOCS.with(Cell::get);
    store.offer(faster);
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "a rejected success");
    assert_eq!(store.len(), report::caps::MAX_SAMPLES);
    assert!(store.iter().all(|x| x.duration_us == 5_000_000));
}
