//! One client's measurement session: the wget-like download procedure.

use crate::env::AccessEnvironment;
use crate::proxy::ProxySession;
use dnssim::{LdnsCache, ResolverConfig, StubResolver, ZoneTree};
use dnswire::DomainName;
use httpsim::{OriginAnswer, StatusClass};
use model::{
    ClientId, ConnectionRecord, DigOutcome, FailureClass, FaultSet, PerformanceRecord,
    ProvenanceRecord, SimDuration, SimTime, SiteId, TcpFailureKind, TraceEvent,
    TransactionOutcome, TxnTrace,
};
use netsim::SimRng;
use tcpsim::simulate_connection;
use std::net::Ipv4Addr;

/// Redirect hops wget (and the caching proxy) will follow.
pub(crate) const MAX_REDIRECTS: u8 = 4;
/// Hard cap on TCP connection attempts per transaction (wget --tries
/// analogue).
const MAX_CONNECTIONS: u16 = 9;
/// Time budget for connection retries within one transaction: after the
/// first full pass over the address list, wget keeps retrying only while
/// this much time has not elapsed. Fast failures (RSTs from the paper's
/// blocked pairs) burn many attempts; 45-second SYN timeouts burn two or
/// three — which is exactly why the 38 near-permanent pairs are 13% of
/// transaction failures but 50.7% of connection failures in the paper.
const RETRY_TIME_BUDGET: SimDuration = SimDuration::from_secs(90);
/// Bytes of response headers added on the wire around the index object.
pub(crate) const HEADER_OVERHEAD: u64 = 500;

/// wget-level switches.
#[derive(Clone, Debug)]
pub struct WgetConfig {
    /// Resolver policy for the client's lookups and digs (the experiment
    /// runner gives the client's proxy the same). Its `wire_fidelity`
    /// switch writes the DNS messages through the codec, which changes what
    /// a lookup costs, never its outcome.
    pub resolver: ResolverConfig,
    /// Record what a packet capture shows: each connection's TCP failure
    /// sub-class and visible retransmission count. The paper's BB clients
    /// could not capture, so with this off a failed connection is only
    /// `NoConnection` or `NoOrPartialResponse`, and carries no count.
    pub record_traces: bool,
    /// Stamp each access with the ground-truth faults active during it
    /// (the fault-provenance flight recorder). Probing reads materialized
    /// timelines only, so the RNG draw order — and therefore the dataset —
    /// is bit-identical whether this is on or off.
    pub record_provenance: bool,
    /// Emit a phase-level forensic trace ([`TxnTrace`]) alongside each
    /// record: every DNS attempt, TCP connect, and HTTP exchange as a
    /// causal event stamped with the faults active at that instant. Capture
    /// reuses the flight-recorder stamps (pure lookups, no RNG), so the
    /// dataset stays bit-identical with tracing on or off — and works with
    /// or without `record_provenance`.
    pub forensics: bool,
}

impl Default for WgetConfig {
    fn default() -> Self {
        WgetConfig {
            resolver: ResolverConfig::default(),
            record_traces: true,
            record_provenance: false,
            forensics: false,
        }
    }
}

/// Bump the per-class outcome counters (and the download-time histogram)
/// for one completed transaction.
fn record_transaction_outcome(record: &PerformanceRecord) {
    if !telemetry::enabled() {
        return;
    }
    static OUTCOMES: telemetry::CounterVec<4> = telemetry::CounterVec::new(
        "client.transactions",
        ["ok", "dns_failure", "tcp_failure", "http_failure"],
    );
    OUTCOMES.add(
        match record.failure() {
            None => 0,
            Some(FailureClass::Dns(_)) => 1,
            Some(FailureClass::Tcp(_)) => 2,
            Some(FailureClass::Http(_)) => 3,
        },
        1,
    );
    if let Some(d) = record.download_time {
        telemetry::histogram!("client.download_time_us", d.as_micros());
    }
}

/// Ground truth for one transaction: the flight-recorder stamp and the
/// forensic timeline. As each phase runs, the DNS probe and the fault set
/// each connect's behaviour was read from fill it, and
/// [`ClientSession::finish`] turns it into the access's provenance stamp
/// and trace. Both are pure timeline lookups (no RNG), so they cannot
/// perturb the simulation; with both observers off the DNS probe is
/// skipped and nothing is filled.
struct Truth {
    probing: bool,
    dns: FaultSet,
    connect: FaultSet,
    trace: Option<TxnTrace>,
}

impl Truth {
    fn new(config: &WgetConfig) -> Truth {
        Truth {
            probing: config.record_provenance || config.forensics,
            dns: FaultSet::EMPTY,
            connect: FaultSet::EMPTY,
            trace: config.forensics.then(TxnTrace::default),
        }
    }

    /// Probe the faults on resolving `host` from `env` at `t` and fold them
    /// into the DNS-phase stamp; returns the probe for the trace event.
    fn dns<E: AccessEnvironment>(&mut self, env: &E, host: &DomainName, t: SimTime) -> FaultSet {
        if !self.probing {
            return FaultSet::EMPTY;
        }
        let faults = env.true_dns_faults(host, t);
        self.dns |= faults;
        faults
    }

    /// Fold the fault set a connect's behaviour was read from into the
    /// connect-phase stamp; returns it for the trace event.
    fn connect(&mut self, faults: FaultSet) -> FaultSet {
        if !self.probing {
            return FaultSet::EMPTY;
        }
        self.connect |= faults;
        faults
    }

    /// Append a causal event to the timeline (built only when tracing).
    fn event(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = self.trace.as_mut() {
            trace.events.push(event());
        }
    }
}

/// Per-client measurement state: the client the records name, the LDNS
/// cache the client talks to, the client's RNG stream, and the wget
/// configuration.
pub struct ClientSession<'t> {
    client: ClientId,
    resolver: StubResolver<'t>,
    config: WgetConfig,
    cache: LdnsCache,
    rng: SimRng,
    /// Reused A-record buffer (one live allocation per session, not one per
    /// lookup).
    addr_scratch: Vec<Ipv4Addr>,
}

impl<'t> ClientSession<'t> {
    /// `client`'s session; every record it writes names `client`.
    pub fn new(client: ClientId, tree: &'t ZoneTree, config: WgetConfig, rng: SimRng) -> Self {
        let resolver = StubResolver::new(tree, config.resolver);
        ClientSession {
            client,
            resolver,
            config,
            cache: LdnsCache::new(),
            rng,
            addr_scratch: Vec::new(),
        }
    }

    /// The client's LDNS cache (exposed for tests and cache studies).
    pub fn ldns_cache(&self) -> &LdnsCache {
        &self.cache
    }

    /// Run one direct (non-proxied) access to `site`, whose URL names
    /// `host`, starting at `t`. Every connect appends its
    /// [`ConnectionRecord`] to `connections`, in connect order; the
    /// access's [`PerformanceRecord`] comes back beside the provenance
    /// stamp and the forensic trace, each `Some` only while its observer is
    /// on. The record counts only the connection records this access
    /// appended, so one vector can collect a whole month.
    pub fn run_transaction<E: AccessEnvironment>(
        &mut self,
        env: &E,
        site: SiteId,
        host: &DomainName,
        t: SimTime,
        connections: &mut Vec<ConnectionRecord>,
    ) -> (PerformanceRecord, Option<ProvenanceRecord>, Option<TxnTrace>) {
        // Span-trace roughly one transaction in a thousand: enough to see
        // where simulation wall time goes without holding millions of spans.
        static SAMPLER: telemetry::Sampler = telemetry::Sampler::new(1024);
        let span = SAMPLER
            .hit()
            .then(|| telemetry::span!("client.transaction").with_detail(|| host.to_string()));
        let mut truth = Truth::new(&self.config);
        let record = self.run_transaction_core(env, site, host, t, connections, &mut truth);
        if let Some(mut span) = span {
            let end = t
                + record.dns.unwrap_or(SimDuration::ZERO)
                + record.download_time.unwrap_or(SimDuration::ZERO);
            span.set_sim_range(t.as_micros(), end.as_micros());
        }
        self.finish(record, truth)
    }

    /// The single exit of every transaction, direct or proxied: the
    /// gathered truth becomes the provenance stamp and the trace, and the
    /// outcome counters tick.
    fn finish(
        &self,
        record: PerformanceRecord,
        truth: Truth,
    ) -> (PerformanceRecord, Option<ProvenanceRecord>, Option<TxnTrace>) {
        record_transaction_outcome(&record);
        let provenance = self.config.record_provenance.then_some(ProvenanceRecord {
            dns: truth.dns,
            connect: truth.connect,
        });
        (record, provenance, truth.trace)
    }

    fn run_transaction_core<E: AccessEnvironment>(
        &mut self,
        env: &E,
        site: SiteId,
        host: &DomainName,
        t: SimTime,
        connections: &mut Vec<ConnectionRecord>,
        truth: &mut Truth,
    ) -> PerformanceRecord {
        // This access's connection records are `connections[first..]`.
        let first = connections.len();
        let addrs = &mut self.addr_scratch;
        let dns_truth = truth.dns(env, host, t);

        // Step 1: the client OS cache is flushed before each access; only
        // the LDNS cache (self.cache) persists.
        let resolution =
            self.resolver
                .resolve_into(host, env, t, &mut self.rng, &mut self.cache, addrs);
        let dns_elapsed = resolution.elapsed;
        truth.event(|| TraceEvent::Dns {
            host: host.to_string(),
            at: t,
            elapsed: dns_elapsed,
            outcome: resolution.result,
            truth: dns_truth,
        });
        if let Err(kind) = resolution.result {
            // The iterative dig runs only when wget's own resolution failed:
            // the paper ran it always but *uses* it only for failed lookups,
            // and skipping the healthy case keeps large simulations fast.
            let dig = self
                .resolver
                .dig_iterative(host, env, t + dns_elapsed, &mut self.rng, addrs);
            return PerformanceRecord {
                client: self.client,
                site,
                replica: None,
                start: t,
                dns: Err(kind),
                outcome: TransactionOutcome::Failure(FailureClass::Dns(kind)),
                download_time: None,
                bytes_received: 0,
                connections_attempted: 0,
                retransmissions: None,
                dig,
                proxy: None,
            };
        }

        let transfer_start = t + dns_elapsed;
        let mut now = transfer_start;
        let mut total_visible_retx: u32 = 0;
        let mut bytes_received: u64 = 0;
        // The host this hop asks: the URL's, then each redirect's target,
        // the origin's own name.
        let mut current = host;
        let mut final_replica: Option<Ipv4Addr> = None;

        // Every exit past a successful first lookup leaves the hop loop
        // with its outcome, replica, download time and dig.
        let (outcome, replica, download_time, dig) = 'hops: {
            for _hop in 0..=MAX_REDIRECTS {
                // What will this host's origin say? (Determines the transfer
                // size the connection must carry.)
                let answer = match env.origin(current) {
                    Some(origin) => origin.respond(current, &mut self.rng),
                    None => OriginAnswer::NOT_FOUND,
                };
                let wire_bytes = answer.body_len + HEADER_OVERHEAD;

                // Connect: wget fails over across the A records, then keeps
                // retrying while its time budget lasts. One full pass over the
                // address list is always attempted.
                let mut connected_result = None;
                let conn_phase_start = now;
                let captured = self.config.record_traces;
                'retry: loop {
                    for addr in addrs.iter() {
                        if connections.len() - first >= usize::from(MAX_CONNECTIONS) {
                            break 'retry;
                        }
                        let (behavior, faults) = env.server_behavior(*addr, now);
                        let attempt_truth = truth.connect(faults);
                        let path = env.path_quality(*addr, now);
                        let result =
                            simulate_connection(behavior, &path, wire_bytes, now, &mut self.rng);
                        total_visible_retx += result.retransmissions_visible;
                        // Classify the way the measurement does: from what the
                        // capture shows when there is one, else coarsely from
                        // wget's own view, which sees only whether the
                        // handshake completed.
                        let observed_outcome = match result.outcome {
                            Err(kind) if !captured && kind != TcpFailureKind::NoConnection => {
                                Err(TcpFailureKind::NoOrPartialResponse)
                            }
                            outcome => outcome,
                        };
                        connections.push(ConnectionRecord {
                            client: self.client,
                            site,
                            replica: *addr,
                            start: now,
                            outcome: observed_outcome,
                            syn_retransmissions: result.syn_retransmissions,
                            retransmissions: captured
                                .then_some(result.retransmissions_visible),
                        });
                        truth.event(|| TraceEvent::Connect {
                            replica: *addr,
                            at: now,
                            elapsed: result.duration,
                            outcome: observed_outcome,
                            syn_retransmissions: result.syn_retransmissions,
                            truth: attempt_truth,
                        });
                        now += result.duration;
                        bytes_received += result.bytes_delivered.min(answer.body_len);
                        if result.outcome.is_ok() {
                            connected_result = Some(*addr);
                            break 'retry;
                        }
                    }
                    // First pass complete; continue only while the budget is
                    // not yet exhausted.
                    if now - conn_phase_start >= RETRY_TIME_BUDGET {
                        break 'retry;
                    }
                }

                let Some(addr) = connected_result else {
                    // All connection attempts failed: a TCP transaction failure,
                    // classified from this access's last attempt.
                    let last = connections[first..].last();
                    let kind = last
                        .and_then(|c| c.outcome.err())
                        .unwrap_or(TcpFailureKind::NoConnection);
                    let outcome = TransactionOutcome::Failure(FailureClass::Tcp(kind));
                    let replica = last.map(|c| c.replica);
                    let download_time = Some(now - transfer_start);
                    break 'hops (outcome, replica, download_time, DigOutcome::NotRun);
                };
                final_replica = Some(addr);
                truth.event(|| TraceEvent::Http {
                    host: current.to_string(),
                    at: now,
                    status: answer.status,
                    redirect: answer.next_host.map(DomainName::to_string),
                    truth: FaultSet::EMPTY,
                });

                let outcome = match StatusClass::of(answer.status) {
                    StatusClass::Success => TransactionOutcome::Success,
                    StatusClass::Redirect => {
                        let next = answer.next_host.expect("redirect carries next host");
                        let hop_truth = truth.dns(env, next, now);
                        // Resolve the next hop (LDNS cache applies).
                        let r = self.resolver.resolve_into(
                            next,
                            env,
                            now,
                            &mut self.rng,
                            &mut self.cache,
                            addrs,
                        );
                        truth.event(|| TraceEvent::Dns {
                            host: next.to_string(),
                            at: now,
                            elapsed: r.elapsed,
                            outcome: r.result,
                            truth: hop_truth,
                        });
                        now += r.elapsed;
                        if let Err(kind) = r.result {
                            // The initial lookup *succeeded*; the redirect's
                            // failed. The record keeps the first lookup's
                            // time and this access's connections, digs the
                            // hop's name, and has no replica or download time.
                            let dig =
                                self.resolver
                                    .dig_iterative(next, env, now, &mut self.rng, addrs);
                            let outcome = TransactionOutcome::Failure(FailureClass::Dns(kind));
                            break 'hops (outcome, None, None, dig);
                        }
                        current = next;
                        continue;
                    }
                    _ => TransactionOutcome::Failure(FailureClass::Http(answer.status)),
                };
                let download_time = Some(now - transfer_start);
                break 'hops (outcome, final_replica, download_time, DigOutcome::NotRun);
            }
            // Redirect limit exceeded: wget reports an error; classify as HTTP.
            (
                TransactionOutcome::Failure(FailureClass::Http(310)),
                final_replica,
                Some(now - transfer_start),
                DigOutcome::NotRun,
            )
        };
        PerformanceRecord {
            client: self.client,
            site,
            replica,
            start: t,
            dns: Ok(dns_elapsed),
            outcome,
            download_time,
            bytes_received,
            connections_attempted: (connections.len() - first) as u16,
            retransmissions: self.config.record_traces.then_some(total_visible_retx),
            dig,
            proxy: None,
        }
    }

    /// Run one access to `site`, whose URL names `host`, through a
    /// corporate caching proxy, starting at `t`. The proxy masks its
    /// upstream connections and the client's own connection to the proxy is
    /// not informative (Section 3.4), so the access writes no connection
    /// record; it returns what [`Self::run_transaction`] returns.
    ///
    /// `env` is the *client's* view (covers the client↔proxy leg);
    /// `proxy_env` is the proxy's vantage toward the wide area.
    pub fn run_proxied_transaction<E, P>(
        &mut self,
        env: &E,
        proxy: &mut ProxySession<'_>,
        proxy_env: &P,
        site: SiteId,
        host: &DomainName,
        t: SimTime,
    ) -> (PerformanceRecord, Option<ProvenanceRecord>, Option<TxnTrace>)
    where
        E: AccessEnvironment,
        P: AccessEnvironment,
    {
        let mut truth = Truth::new(&self.config);
        // The client must reach its proxy over the corporate LAN/WAN.
        let (outcome, download_time, bytes_received) = if env.client_link_up(t) {
            let local_rtt = SimDuration::from_millis(5);
            // No retry here: the proxy answers the client with an HTTP gateway
            // error, which wget treats as a (failed) response — unlike its own
            // transport-level failures, which it does retry. This asymmetry is
            // part of the Table 9 proxy effect.
            let (status, bytes, duration) = proxy.fetch(proxy_env, host, t + local_rtt);
            // Vantage-level stamp only: the proxy hides which replica it tried,
            // so the connect phase cannot be attributed to a specific address —
            // clients behind one proxy share the proxy-vantage cause, which is
            // exactly the Section 4.7 shared-fate effect the audit measures.
            let vantage = truth.dns(env, host, t) | truth.dns(proxy_env, host, t + local_rtt);
            // The proxy collapses the whole exchange into one HTTP event as seen
            // by the client; the vantage truth rides on it.
            truth.event(|| TraceEvent::Http {
                host: host.to_string(),
                at: t + local_rtt,
                status,
                redirect: None,
                truth: vantage,
            });
            let outcome = match StatusClass::of(status) {
                StatusClass::Success => TransactionOutcome::Success,
                _ => TransactionOutcome::Failure(FailureClass::Http(status)),
            };
            (outcome, Some(duration + local_rtt * 2u64), bytes)
        } else {
            // The dead corporate link shows up as one synthetic connect
            // attempt toward an unknowable replica.
            let link_truth = truth.dns(env, host, t);
            truth.event(|| TraceEvent::Connect {
                replica: Ipv4Addr::UNSPECIFIED,
                at: t,
                elapsed: SimDuration::ZERO,
                outcome: Err(TcpFailureKind::NoConnection),
                syn_retransmissions: 0,
                truth: link_truth,
            });
            let failure = FailureClass::Tcp(TcpFailureKind::NoConnection);
            (TransactionOutcome::Failure(failure), None, 0)
        };
        let record = PerformanceRecord {
            client: self.client,
            site,
            replica: None,
            start: t,
            dns: Ok(SimDuration::ZERO),
            outcome,
            download_time,
            bytes_received,
            connections_attempted: 0,
            retransmissions: None,
            dig: DigOutcome::NotRun,
            proxy: Some(proxy.id),
        };
        self.finish(record, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::HealthyEnv;
    use dnssim::{DnsFaults, ZoneTree};
    use httpsim::Origin;
    use model::{DnsFailureKind, ProxyId};
    use tcpsim::{PathQuality, ServerBehavior};

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tree() -> ZoneTree {
        ZoneTree::build_for_hosts(&[
            (name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]),
            (name("example.com"), vec![Ipv4Addr::new(10, 0, 0, 2)]),
            (
                name("www.multi.org"),
                vec![
                    Ipv4Addr::new(10, 1, 0, 1),
                    Ipv4Addr::new(10, 1, 0, 2),
                    Ipv4Addr::new(10, 1, 0, 3),
                ],
            ),
        ])
    }

    fn session<'a>(tree: &'a ZoneTree, seed: u64) -> ClientSession<'a> {
        let mut cfg = WgetConfig::default();
        cfg.resolver.query_loss_prob = 0.0;
        ClientSession::new(ClientId(3), tree, cfg, SimRng::new(seed))
    }

    fn proxy_session(tree: &ZoneTree, seed: u64) -> ProxySession<'_> {
        ProxySession::new(ProxyId(1), tree, ResolverConfig::default(), SimRng::new(seed))
    }

    /// One direct access to `host` as site 7: its record, the connection
    /// records it appended to a fresh vector, and its trace.
    fn access<E: AccessEnvironment>(
        s: &mut ClientSession<'_>,
        env: &E,
        host: &str,
        t: SimTime,
    ) -> (PerformanceRecord, Vec<ConnectionRecord>, Option<TxnTrace>) {
        let mut conns = Vec::new();
        let (rec, _, trace) = s.run_transaction(env, SiteId(7), &name(host), t, &mut conns);
        assert_eq!(usize::from(rec.connections_attempted), conns.len());
        assert!(conns.iter().all(|c| c.client == ClientId(3) && c.site == SiteId(7)));
        (rec, conns, trace)
    }

    /// One proxied access to `host` as site 7: its record and its trace.
    fn proxied<E: AccessEnvironment, P: AccessEnvironment>(
        s: &mut ClientSession<'_>,
        env: &E,
        proxy: &mut ProxySession<'_>,
        proxy_env: &P,
        host: &str,
    ) -> (PerformanceRecord, Option<TxnTrace>) {
        let t = SimTime::from_hours(1);
        let (rec, _, trace) =
            s.run_proxied_transaction(env, proxy, proxy_env, SiteId(7), &name(host), t);
        assert_eq!(rec.proxy, Some(ProxyId(1)));
        // Masking: no DNS timing, no connection records, no traces, no dig.
        assert_eq!(rec.dns, Ok(SimDuration::ZERO));
        assert_eq!(rec.connections_attempted, 0);
        assert_eq!(rec.retransmissions, None);
        assert_eq!(rec.dig, DigOutcome::NotRun);
        (rec, trace)
    }

    #[test]
    fn healthy_transaction_succeeds() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 24_000));
        let mut s = session(&tr, 1);
        let t = SimTime::from_hours(1);
        let (rec, conns, _) = access(&mut s, &env, "www.example.com", t);
        assert!(rec.outcome.is_success());
        assert_eq!((rec.client, rec.site, rec.start, rec.proxy), (ClientId(3), SiteId(7), t, None));
        assert_eq!(rec.bytes_received, 24_000);
        assert_eq!(conns.len(), 1);
        assert_eq!(rec.replica, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(rec.dns.is_ok());
        assert_eq!(rec.dig, DigOutcome::NotRun);
        assert!(rec.download_time.unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn redirect_adds_a_connection() {
        let tr = tree();
        let env = HealthyEnv::new(
            Origin::simple(name("www.example.com"), 10_000)
                .with_redirects(vec![name("example.com")]),
        );
        let mut s = session(&tr, 2);
        let (rec, conns, _) = access(&mut s, &env, "example.com", SimTime::from_hours(1));
        assert!(rec.outcome.is_success());
        assert_eq!(conns.len(), 2, "redirect hop + content hop");
        assert_eq!(rec.replica, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(rec.bytes_received, 10_000);
    }

    #[test]
    fn a_redirect_to_an_unresolvable_host_keeps_the_first_hop() {
        // `example.com` redirects to a host no zone serves.
        let tr = tree();
        let env = HealthyEnv::new(
            Origin::simple(name("www.gone.org"), 10_000).with_redirects(vec![name("example.com")]),
        );
        let mut s = forensic_session(&tr, 12);
        let (rec, conns, trace) = access(&mut s, &env, "example.com", SimTime::from_hours(1));
        let trace = trace.expect("trace recorded");
        let lookups: Vec<(&str, SimDuration, bool)> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dns { host, elapsed, outcome, .. } => {
                    Some((host.as_str(), *elapsed, outcome.is_ok()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(lookups.len(), 2);
        assert_eq!((lookups[0].0, lookups[0].2), ("example.com", true));
        assert_eq!((lookups[1].0, lookups[1].2), ("www.gone.org", false));
        assert_eq!(rec.dns, Ok(lookups[0].1), "the first lookup's time");
        let Some(FailureClass::Dns(kind)) = rec.failure() else {
            panic!("a DNS failure, not {:?}", rec.outcome);
        };
        // The dig walks the hop's name, which fails the same way; a dig of
        // `example.com` would resolve.
        assert_eq!(rec.dig, DigOutcome::Failed(kind));
        assert_eq!(conns.len(), 1, "the first hop's connection is kept");
        assert_eq!(conns[0].replica, Ipv4Addr::new(10, 0, 0, 2));
        assert!(conns[0].outcome.is_ok());
    }

    #[test]
    fn a_redirect_chain_past_the_limit_is_http_310() {
        let hops: Vec<DomainName> = (1..=5)
            .map(|i| name(&format!("r{i}.example.com")))
            .collect();
        let mut hosts: Vec<(DomainName, Vec<Ipv4Addr>)> = hops
            .iter()
            .zip(1u8..)
            .map(|(h, i)| (h.clone(), vec![Ipv4Addr::new(10, 0, 1, i)]))
            .collect();
        hosts.push((name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]));
        let tr = ZoneTree::build_for_hosts(&hosts);
        let env =
            HealthyEnv::new(Origin::simple(name("www.example.com"), 10_000).with_redirects(hops));
        let mut s = session(&tr, 13);
        let (rec, conns, _) = access(&mut s, &env, "r1.example.com", SimTime::from_hours(1));
        assert_eq!(rec.failure(), Some(FailureClass::Http(310)));
        assert_eq!(conns.len(), usize::from(MAX_REDIRECTS) + 1);
        assert!(conns.iter().all(|c| c.outcome.is_ok()));
        assert_eq!(rec.replica, Some(Ipv4Addr::new(10, 0, 1, 5)), "the last hop's replica");
    }

    /// Environment in which every server behaves as `.1`.
    struct AllServers(HealthyEnv, ServerBehavior);
    impl DnsFaults for AllServers {}
    impl AccessEnvironment for AllServers {
        fn server_behavior(&self, _r: Ipv4Addr, _t: SimTime) -> (ServerBehavior, FaultSet) {
            (self.1, FaultSet::EMPTY)
        }
        fn path_quality(&self, r: Ipv4Addr, t: SimTime) -> PathQuality {
            self.0.path_quality(r, t)
        }
        fn origin(&self, host: &DomainName) -> Option<&Origin> {
            self.0.origin(host)
        }
    }

    #[test]
    fn server_down_yields_no_connection_with_failover_attempts() {
        let tr = tree();
        let env = AllServers(
            HealthyEnv::new(Origin::simple(name("www.multi.org"), 5_000)),
            ServerBehavior::Unreachable,
        );
        let mut s = session(&tr, 3);
        let (rec, conns, _) = access(&mut s, &env, "www.multi.org", SimTime::from_hours(1));
        assert_eq!(
            rec.failure().unwrap(),
            FailureClass::Tcp(TcpFailureKind::NoConnection)
        );
        // One full pass over the 3 replicas (45 s SYN timeouts each)
        // exhausts the 90-second retry budget.
        assert_eq!(conns.len(), 3);
        assert!(conns.iter().all(|c| c.outcome.is_err()));
    }

    #[test]
    fn each_access_counts_and_caps_only_its_own_connections() {
        let tr = tree();
        let origin = || Origin::simple(name("www.multi.org"), 5_000);
        let healthy = HealthyEnv::new(origin());
        let refusing = AllServers(HealthyEnv::new(origin()), ServerBehavior::Refusing);
        let mut s = session(&tr, 14);
        let host = name("www.multi.org");
        let mut conns = Vec::new();
        let mut t = SimTime::from_hours(1);
        for _ in 0..12 {
            let (rec, _, _) = s.run_transaction(&healthy, SiteId(1), &host, t, &mut conns);
            assert!(rec.outcome.is_success());
            t += SimDuration::from_secs(60);
        }
        let earlier = conns.clone();
        assert!(earlier.len() >= 12);
        assert!(earlier.iter().all(|c| c.site == SiteId(1)));

        // RSTs come back fast, so the cap, not the time budget, ends it.
        let (rec, _, _) = s.run_transaction(&refusing, SiteId(2), &host, t, &mut conns);
        assert_eq!(conns[..earlier.len()], earlier[..], "earlier records unchanged");
        let own = &conns[earlier.len()..];
        assert_eq!(own.len(), usize::from(MAX_CONNECTIONS));
        assert_eq!(rec.connections_attempted, MAX_CONNECTIONS);
        assert!(own.iter().all(|c| c.site == SiteId(2) && c.outcome.is_err()));
        let last = own.last().unwrap();
        assert_eq!(rec.failure(), Some(FailureClass::Tcp(last.failure().unwrap())));
        assert_eq!(
            rec.failure(),
            Some(FailureClass::Tcp(TcpFailureKind::NoConnection))
        );
        assert_eq!(rec.replica, Some(last.replica));
    }

    /// One replica up, the rest unreachable: wget's fail-over succeeds.
    struct OneGoodReplica(HealthyEnv, Ipv4Addr);
    impl DnsFaults for OneGoodReplica {}
    impl AccessEnvironment for OneGoodReplica {
        fn server_behavior(&self, r: Ipv4Addr, _t: SimTime) -> (ServerBehavior, FaultSet) {
            let behavior = if r == self.1 {
                ServerBehavior::Healthy
            } else {
                ServerBehavior::Unreachable
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
    fn failover_across_a_records() {
        let tr = tree();
        let good = Ipv4Addr::new(10, 1, 0, 3);
        let origin = Origin::simple(name("www.multi.org"), 5_000);
        let env = OneGoodReplica(HealthyEnv::new(origin), good);
        let mut s = session(&tr, 4);
        // DNS round-robin rotates the order, so the number of dead
        // replicas tried first varies — but wget always lands on the live
        // one eventually.
        for k in 0..10u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 120);
            let (rec, conns, _) = access(&mut s, &env, "www.multi.org", t);
            assert!(rec.outcome.is_success(), "wget fails over to the live replica");
            assert_eq!(rec.replica, Some(good));
            assert!((1..=3).contains(&conns.len()));
            assert!(conns.last().unwrap().outcome.is_ok());
        }
    }

    /// DNS totally broken at the client.
    struct NoDns(HealthyEnv);
    impl DnsFaults for NoDns {
        fn client_link_up(&self, _t: SimTime) -> bool {
            false
        }
    }
    impl AccessEnvironment for NoDns {
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
    fn dns_failure_short_circuits_and_digs() {
        let tr = tree();
        let env = NoDns(HealthyEnv::new(Origin::simple(
            name("www.example.com"),
            1_000,
        )));
        let mut s = session(&tr, 5);
        let (rec, conns, _) = access(&mut s, &env, "www.example.com", SimTime::from_hours(1));
        assert_eq!(
            rec.failure().unwrap(),
            FailureClass::Dns(DnsFailureKind::LdnsTimeout)
        );
        assert!(conns.is_empty());
        // Link down: dig agrees (the >94% agreement case).
        assert_eq!(rec.dig, DigOutcome::Failed(DnsFailureKind::LdnsTimeout));
    }

    #[test]
    fn http_error_is_http_failure() {
        let tr = tree();
        let env = HealthyEnv::new(
            Origin::simple(name("www.example.com"), 1_000).with_error_rate(1.0, 503),
        );
        let mut s = session(&tr, 6);
        let (rec, conns, _) = access(&mut s, &env, "www.example.com", SimTime::from_hours(1));
        assert_eq!(rec.failure().unwrap(), FailureClass::Http(503));
        assert_eq!(conns.len(), 1, "transfer worked; content didn't");
        assert!(conns[0].outcome.is_ok());
    }

    #[test]
    fn unknown_origin_is_http_404() {
        let tr = tree();
        // Environment knows www.example.com only; we ask for example.com
        // (resolvable in DNS but no origin behind it).
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 1_000));
        let mut s = session(&tr, 7);
        let (rec, _, _) = access(&mut s, &env, "example.com", SimTime::from_hours(1));
        assert_eq!(rec.failure().unwrap(), FailureClass::Http(404));
    }

    #[test]
    fn traces_off_merges_post_handshake_failures() {
        let tr = tree();
        let env = AllServers(
            HealthyEnv::new(Origin::simple(name("www.example.com"), 1_000)),
            ServerBehavior::AcceptNoResponse,
        );
        let cfg = WgetConfig {
            record_traces: false, // a BB client
            ..WgetConfig::default()
        };
        let mut s = ClientSession::new(ClientId(3), &tr, cfg, SimRng::new(8));
        let (rec, _, _) = access(&mut s, &env, "www.example.com", SimTime::from_hours(1));
        assert_eq!(
            rec.failure().unwrap(),
            FailureClass::Tcp(TcpFailureKind::NoOrPartialResponse)
        );
        assert_eq!(rec.retransmissions, None, "no trace, no loss count");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 24_000));
        let mut a = session(&tr, 42);
        let mut b = session(&tr, 42);
        let t = SimTime::from_hours(3);
        assert_eq!(
            access(&mut a, &env, "www.example.com", t),
            access(&mut b, &env, "www.example.com", t)
        );
    }

    #[test]
    fn proxied_transaction_success_and_masking() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 9_000));
        let mut s = session(&tr, 21);
        let mut proxy = proxy_session(&tr, 22);
        let (rec, _) = proxied(&mut s, &env, &mut proxy, &env, "www.example.com");
        assert!(rec.outcome.is_success());
        assert_eq!(rec.bytes_received, 9_000);
        assert_eq!((rec.client, rec.site, rec.replica), (ClientId(3), SiteId(7), None));
    }

    #[test]
    fn proxied_transaction_follows_a_redirect() {
        let tr = tree();
        let env = HealthyEnv::new(
            Origin::simple(name("www.example.com"), 9_000)
                .with_redirects(vec![name("example.com")]),
        );
        let mut s = session(&tr, 29);
        let mut proxy = proxy_session(&tr, 30);
        let (rec, _) = proxied(&mut s, &env, &mut proxy, &env, "example.com");
        assert!(rec.outcome.is_success());
        assert_eq!(rec.bytes_received, 9_000);
        assert_eq!(proxy.dns_cache().len(), 2, "the proxy resolved both hops");
    }

    #[test]
    fn proxied_transaction_maps_upstream_failure_to_gateway_error() {
        let tr = tree();
        let env = AllServers(
            HealthyEnv::new(Origin::simple(name("www.example.com"), 9_000)),
            ServerBehavior::Unreachable,
        );
        let mut s = session(&tr, 23);
        let mut proxy = proxy_session(&tr, 24);
        let (rec, _) = proxied(&mut s, &env, &mut proxy, &env, "www.example.com");
        assert_eq!(rec.failure().unwrap(), FailureClass::Http(504));
        assert_eq!(rec.bytes_received, 0);
    }

    #[test]
    fn proxied_transaction_fails_locally_when_client_link_down() {
        let tr = tree();
        let origin = Origin::simple(name("www.example.com"), 9_000);
        let client_env = NoDns(HealthyEnv::new(origin.clone()));
        let proxy_env = HealthyEnv::new(origin);
        let mut s = session(&tr, 25);
        let mut proxy = proxy_session(&tr, 26);
        let (rec, _) = proxied(&mut s, &client_env, &mut proxy, &proxy_env, "www.example.com");
        assert_eq!(
            rec.failure().unwrap(),
            FailureClass::Tcp(TcpFailureKind::NoConnection),
            "cannot even reach the proxy"
        );
    }

    #[test]
    fn proxied_upstream_dns_failure_is_a_masked_gateway_error() {
        let tr = tree();
        let origin = Origin::simple(name("www.example.com"), 9_000);
        let client_env = HealthyEnv::new(origin.clone());
        // The proxy's vantage has no working DNS.
        let proxy_env = NoDns(HealthyEnv::new(origin));
        let mut s = session(&tr, 27);
        let mut proxy = proxy_session(&tr, 28);
        let (rec, _) = proxied(&mut s, &client_env, &mut proxy, &proxy_env, "www.example.com");
        assert_eq!(
            rec.failure().unwrap(),
            FailureClass::Http(502),
            "the client cannot tell it was DNS"
        );
    }

    fn forensic_session<'a>(tree: &'a ZoneTree, seed: u64) -> ClientSession<'a> {
        let mut cfg = WgetConfig::default();
        cfg.resolver.query_loss_prob = 0.0;
        cfg.forensics = true;
        ClientSession::new(ClientId(3), tree, cfg, SimRng::new(seed))
    }

    #[test]
    fn forensics_captures_causal_timeline() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 24_000));
        let mut s = forensic_session(&tr, 31);
        let (rec, _, trace) = access(&mut s, &env, "www.example.com", SimTime::from_hours(1));
        assert!(rec.outcome.is_success());
        let trace = trace.expect("forensics on records a trace");
        let phases: Vec<&str> = trace.events.iter().map(|e| e.phase()).collect();
        assert_eq!(phases, ["dns", "connect", "http"]);
        assert!(trace.events.iter().all(|e| !e.failed()));
        assert!(
            trace.events.windows(2).all(|w| w[0].at() <= w[1].at()),
            "events are causally ordered"
        );
        assert_eq!(trace.truth(), FaultSet::EMPTY, "healthy world carries no faults");
    }

    #[test]
    fn forensics_traces_redirect_hops() {
        let tr = tree();
        let env = HealthyEnv::new(
            Origin::simple(name("www.example.com"), 10_000)
                .with_redirects(vec![name("example.com")]),
        );
        let mut s = forensic_session(&tr, 32);
        let (rec, _, trace) = access(&mut s, &env, "example.com", SimTime::from_hours(1));
        assert!(rec.outcome.is_success());
        let trace = trace.expect("trace recorded");
        let phases: Vec<&str> = trace.events.iter().map(|e| e.phase()).collect();
        assert_eq!(
            phases,
            ["dns", "connect", "http", "dns", "connect", "http"],
            "each redirect hop re-resolves and reconnects"
        );
        let redirects: Vec<bool> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Http { redirect, .. } => Some(redirect.is_some()),
                _ => None,
            })
            .collect();
        assert_eq!(redirects, [true, false], "first hop redirects, second lands");
    }

    #[test]
    fn forensics_records_failed_dns_attempt() {
        let tr = tree();
        let env = NoDns(HealthyEnv::new(Origin::simple(
            name("www.example.com"),
            1_000,
        )));
        let mut s = forensic_session(&tr, 33);
        let (rec, _, trace) = access(&mut s, &env, "www.example.com", SimTime::from_hours(1));
        assert!(rec.outcome.is_failure());
        let trace = trace.expect("trace recorded");
        assert_eq!(trace.events.len(), 1, "DNS dies before any connect");
        assert_eq!(trace.events[0].phase(), "dns");
        assert!(trace.events[0].failed());
    }

    #[test]
    fn forensics_does_not_perturb_transactions() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 24_000));
        let mut plain = session(&tr, 34);
        let mut traced = forensic_session(&tr, 34);
        for k in 0..6u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 600);
            let (a, a_conns, a_trace) = access(&mut plain, &env, "www.example.com", t);
            let (b, b_conns, b_trace) = access(&mut traced, &env, "www.example.com", t);
            assert_eq!((a, a_conns), (b, b_conns));
            assert!(a_trace.is_none(), "forensics off records nothing");
            assert!(b_trace.is_some());
        }
    }

    #[test]
    fn forensics_collapses_proxied_exchange_to_one_event() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 9_000));
        let mut s = forensic_session(&tr, 35);
        let mut proxy = proxy_session(&tr, 36);
        let (rec, trace) = proxied(&mut s, &env, &mut proxy, &env, "www.example.com");
        assert!(rec.outcome.is_success());
        let trace = trace.expect("trace recorded");
        assert_eq!(trace.events.len(), 1, "the proxy masks the phases");
        assert_eq!(trace.events[0].phase(), "http");
        assert!(!trace.events[0].failed());
    }

    /// Wraps an environment and counts every DNS-phase ground-truth probe
    /// made on it. (The connect-phase set rides on `server_behavior`, which
    /// every connect calls anyway.)
    struct CountingProbes<E>(E, std::cell::Cell<u32>);
    impl<E: AccessEnvironment> DnsFaults for CountingProbes<E> {
        fn client_link_up(&self, t: SimTime) -> bool {
            self.0.client_link_up(t)
        }
    }
    impl<E: AccessEnvironment> AccessEnvironment for CountingProbes<E> {
        fn server_behavior(&self, r: Ipv4Addr, t: SimTime) -> (ServerBehavior, FaultSet) {
            self.0.server_behavior(r, t)
        }
        fn path_quality(&self, r: Ipv4Addr, t: SimTime) -> PathQuality {
            self.0.path_quality(r, t)
        }
        fn origin(&self, host: &DomainName) -> Option<&Origin> {
            self.0.origin(host)
        }
        fn true_dns_faults(&self, _host: &DomainName, _t: SimTime) -> FaultSet {
            self.1.set(self.1.get() + 1);
            FaultSet::EMPTY
        }
    }

    /// Probe calls made by one direct and by one proxied transaction.
    fn probe_calls<E: AccessEnvironment>(
        env: &CountingProbes<E>,
        record_provenance: bool,
        forensics: bool,
    ) -> (u32, u32) {
        let tr = tree();
        let mut cfg = WgetConfig {
            record_provenance,
            forensics,
            ..WgetConfig::default()
        };
        cfg.resolver.query_loss_prob = 0.0;
        let mut s = ClientSession::new(ClientId(3), &tr, cfg, SimRng::new(37));
        let mut proxy = proxy_session(&tr, 38);
        env.1.set(0);
        access(&mut s, env, "example.com", SimTime::from_hours(1));
        let direct = env.1.replace(0);
        proxied(&mut s, env, &mut proxy, env, "www.example.com");
        (direct, env.1.get())
    }

    #[test]
    fn truth_is_never_probed_with_both_observers_off() {
        let origin = || {
            Origin::simple(name("www.example.com"), 9_000).with_redirects(vec![name("example.com")])
        };
        let link_up = CountingProbes(HealthyEnv::new(origin()), Default::default());
        let link_down = CountingProbes(NoDns(HealthyEnv::new(origin())), Default::default());
        assert_eq!(probe_calls(&link_up, false, false), (0, 0));
        assert_eq!(probe_calls(&link_down, false, false), (0, 0));
        for (record_provenance, forensics) in [(true, false), (false, true)] {
            for calls in [
                probe_calls(&link_up, record_provenance, forensics),
                probe_calls(&link_down, record_provenance, forensics),
            ] {
                assert!(
                    calls.0 > 0 && calls.1 > 0,
                    "an observer probes the truth: {calls:?}"
                );
            }
        }
    }

    #[test]
    fn second_access_uses_ldns_cache() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 1_000));
        let mut s = session(&tr, 9);
        let t0 = SimTime::from_hours(1);
        let (first, _, _) = access(&mut s, &env, "www.example.com", t0);
        let (second, _, _) =
            access(&mut s, &env, "www.example.com", t0 + SimDuration::from_secs(120));
        assert!(first.dns.unwrap() > second.dns.unwrap(), "cache hit is faster");
        assert_eq!(s.ldns_cache().len(), 1);
    }
}
